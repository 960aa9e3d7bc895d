"""Small exact integer linear algebra: HNF, SNF, determinants,
integral Gram-Schmidt and LLL.

The Smith form runs on a square A stacked over the identity, with the
entries of A reduced modulo its determinant, so its column transform V
is read off the bottom rows and no inverse is kept.

All matrices are lists of row lists.  Dimensions here are tiny (a few
dozen at most), so the implementations favour clarity over asymptotics;
everything is exact integer arithmetic, never floats.  Gram-Schmidt
data is kept in Cohen's integral form (leading minors d_i and
lambda_ij = d_j mu_ij), so every division is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

# the Lovasz parameter of lll_reduce_gram
LLL_DELTA = Fraction(99, 100)


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns an upper-triangular-by-pivot basis: pivots positive, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        # gather rows (below the settled block) with a nonzero in column c
        pivots = [i for i in range(rank, len(mat)) if mat[i][c]]
        if not pivots:
            continue
        while len(pivots) > 1:
            pivots.sort(key=lambda i: abs(mat[i][c]))
            i0 = pivots[0]
            for i in pivots[1:]:
                q = mat[i][c] // mat[i0][c]
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[i0])]
            pivots = [i for i in pivots if mat[i][c]]
        i0 = pivots[0]
        mat[rank], mat[i0] = mat[i0], mat[rank]
        if mat[rank][c] < 0:
            mat[rank] = [-x for x in mat[rank]]
        piv = mat[rank][c]
        for j in range(rank):
            q = mat[j][c] // piv
            if q:
                mat[j] = [x - q * y for x, y in zip(mat[j], mat[rank])]
        rank += 1
    return [r for r in mat[:rank]]


def det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def smith_normal_form(a: list[list[int]]):
    """Smith normal form of a square, full-rank integer matrix, with its
    column transform (Cohen, Alg. 2.4.14, modulo the determinant).

    Returns (divisors, V) where divisors is the full diagonal
    d_1 | d_2 | ... | d_n (ones included; the empty matrix has an empty
    diagonal), and V is the unimodular column transform: the row lattice
    of A*V is that of diag(divisors).  The reduction runs on A stacked
    over the n x n identity.  Column operations act on every row, so the
    bottom n rows end as V; row operations touch only the top n rows.

    The row lattice holds R Z^n for R = |det A|, so the trailing block
    is reduced mod R before each pivot search, which keeps its entries
    from exploding; V is exact and never reduced.  Once row and column
    t are cleared with pivot a, d_t = gcd(a, R), and R becomes R / d_t,
    the order of the group the trailing block presents.
    """
    n = len(a)
    mod = abs(det_bareiss(a))
    if not mod:
        raise ValueError("matrix is not full rank")
    w = [list(r) for r in a] + [[int(i == j) for j in range(n)] for i in range(n)]
    divisors = []

    def addmul_row(dst, src, c):
        w[dst] = [x + c * y for x, y in zip(w[dst], w[src])]

    def swap_cols(i, j):
        for r in w:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < n:
        for r in w[t:n]:
            r[t:] = [x % mod for x in r[t:]]
        # the smallest nonzero entry of the trailing block is the pivot; an
        # all-zero block stands for mod Z^(n - t), with pivot mod
        _, bi, bj = min(
            ((w[i][j], i, j) for i in range(t, n) for j in range(t, n) if w[i][j]), default=(mod, t, t)
        )
        w[t], w[bi] = w[bi], w[t]
        swap_cols(t, bj)
        w[t][t] = w[t][t] or mod
        # clear row and column t; restart whenever a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    addmul_row(i, t, -q)
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        dirty = True
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for r in w:
                        r[j] -= q * r[t]
                    if w[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # divisibility: the pivot must divide the whole trailing block mod R
        piv = w[t][t]
        offender = next((i for i in range(t + 1, n) for j in range(t + 1, n) if w[i][j] % mod % piv), None)
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        divisors.append(math.gcd(piv, mod))
        mod //= divisors[-1]
        t += 1
    return divisors, w[n:]


def gram_schmidt_int(gram: list[list[int]]):
    """Integral Gram-Schmidt data of a positive definite integer Gram
    matrix (Cohen, Alg. 2.6.7, step 2).

    Returns (d, lam): d[0] = 1 and d[i + 1] is the leading (i+1)-minor,
    so the squared Gram-Schmidt length of row i is d[i + 1] / d[i];
    lam[i][j] = d[j + 1] * mu_ij for j < i.  Every entry is an integer
    and every division below is exact.  Raises ValueError when the
    matrix is not positive definite.
    """
    n = len(gram)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        lk = lam[k]
        for j in range(k + 1):
            u = gram[k][j]
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            elif u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[k + 1] = u
    return d, lam


def lll_reduce_gram(gram: list[list[int]]):
    """LLL-reduce a lattice given only its (integer, positive definite)
    Gram matrix.

    Returns ((d, lam), U, swaps): U is unimodular, (d, lam) is the
    integral Gram-Schmidt data of `gram_schmidt_int` for the reduced
    basis, that of U G U^T, and swaps counts the basis exchanges made.
    All-integer LLL (Cohen, Alg. 2.6.7): U and (d, lam) are updated in
    place at each size reduction and swap, and every decision reads
    only d and lam, so no Gram matrix is kept and U G U^T is never
    formed.  Size reduction rounds half up, and the output satisfies
    |mu_ij| <= 1/2 and the Lovasz condition with LLL_DELTA.  Its own
    output comes back unchanged, with U = 1 and no swap: size reduction
    leaves every mu_ij in [-1/2, 1/2), where rounding half up gives 0.

    Each step size-reduces b_k against b_{k-1} only, and b_k is
    size-reduced against the b_l with l < k - 1 once, after the last
    exchange, where Cohen does it after every Lovasz test that passes.
    The output is the same: reducing b_k against earlier vectors
    changes neither d nor mu_{k,k-1} after its rounding against b_{k-1},
    so the exchanges, which read only those, are the same, and the
    fully size-reduced basis of a given flag of sublattices is unique.
    """
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d, lam = gram_schmidt_int(gram)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator

    def reduce(k, l):
        # b_k <- b_k - q b_l with q the nearest integer to mu_kl, rounded
        # half up: q = 0 exactly when -d_l <= 2 lambda_kl < d_l
        dl = d[l + 1]
        lk = lam[k]
        t = 2 * lk[l]
        if -dl <= t < dl:
            return
        q = (t + dl) // (2 * dl)
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        ll = lam[l]
        lk[l] -= q * dl
        for i in range(l):
            lk[i] -= q * ll[i]

    k = 1
    swaps = 0
    while k < n:
        reduce(k, k - 1)
        lk, lk1 = lam[k], lam[k - 1]
        lm = lk[k - 1]
        dk = d[k]
        if den * (d[k + 1] * d[k - 1] + lm * lm) >= num * dk * dk:
            k += 1
            continue
        # exchange b_{k-1} and b_k
        u[k - 1], u[k] = u[k], u[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        dk1 = d[k + 1]
        b = (d[k - 1] * dk1 + lm * lm) // dk
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - lm * t) // dk
            li[k - 1] = (b * t + lm * li[k]) // dk1
        d[k] = b
        swaps += 1
        k = max(k - 1, 1)
    for k in range(2, n):
        for l in range(k - 2, -1, -1):
            reduce(k, l)
    return (d, lam), u, swaps
