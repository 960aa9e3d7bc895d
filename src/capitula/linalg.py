"""Small exact integer linear algebra: HNF, SNF, determinants,
integral Gram-Schmidt and LLL.

All matrices are lists of row lists.  Dimensions here are tiny (a few
dozen at most), so the implementations favour clarity over asymptotics;
everything is exact integer arithmetic, never floats.  Gram-Schmidt
data is kept in Cohen's integral form (leading minors d_i and
lambda_ij = d_j mu_ij), so every division is exact.
"""

from __future__ import annotations

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


class _SmithWork:
    """State for the Smith reduction: matrix plus column transforms.

    Row operations touch only the matrix.  Column operations are mirrored
    on V (accumulating A_original * V) and on Vinv (accumulating the
    inverse), so that A_original restricted to the new coordinates is the
    diagonal we end with.
    """

    def __init__(self, a: list[list[int]], k: int):
        self.a = [list(r) for r in a]
        self.v = [[int(i == j) for j in range(k)] for i in range(k)]
        self.vinv = [[int(i == j) for j in range(k)] for i in range(k)]

    def swap_rows(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]

    def swap_cols(self, i, j):
        for r in self.a:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def addmul_row(self, dst, src, c):
        self.a[dst] = [x + c * y for x, y in zip(self.a[dst], self.a[src])]

    def addmul_col(self, dst, src, c):
        for r in self.a:
            r[dst] += c * r[src]
        for r in self.v:
            r[dst] += c * r[src]
        # (E^-1 applied on the left): row src of Vinv loses c * row dst
        self.vinv[src] = [x - c * y for x, y in zip(self.vinv[src], self.vinv[dst])]

    def negate_col(self, i):
        for r in self.a:
            r[i] = -r[i]
        for r in self.v:
            r[i] = -r[i]
        self.vinv[i] = [-x for x in self.vinv[i]]


def smith_normal_form(a: list[list[int]], ncols: int):
    """Smith normal form with column transforms.

    Returns (divisors, V, Vinv) where divisors is the full diagonal
    d_1 | d_2 | ... | d_ncols (ones included, zeros impossible here
    because callers always pass a full-rank relation lattice; with
    ncols = 0 the matrix and the diagonal are empty), and V,
    Vinv are the unimodular column transforms: A*V is diagonal in the
    new coordinates and Vinv undoes the coordinate change.
    """
    if len(a) < ncols:
        raise ValueError("fewer relations than columns")
    w = _SmithWork(a, ncols)
    m = len(w.a)
    t = 0
    while t < min(m, ncols):
        # locate the smallest nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                if w.a[i][j] and (best is None or abs(w.a[i][j]) < best[0]):
                    best = (abs(w.a[i][j]), i, j)
        if best is None:
            raise ValueError("relation lattice is not full rank")
        _, bi, bj = best
        w.swap_rows(t, bi)
        if bj != t:
            w.swap_cols(t, bj)
        # clear row and column t; restart whenever a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if w.a[i][t]:
                    q = w.a[i][t] // w.a[t][t]
                    w.addmul_row(i, t, -q)
                    if w.a[i][t]:
                        w.swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if w.a[t][j]:
                    q = w.a[t][j] // w.a[t][t]
                    w.addmul_col(j, t, -q)
                    if w.a[t][j]:
                        w.swap_cols(t, j)
                        dirty = True
        # divisibility: pivot must divide the whole trailing block
        piv = w.a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, ncols):
                if w.a[i][j] % piv:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            w.addmul_row(t, offender[0], 1)
            continue
        if piv < 0:
            w.negate_col(t)
        t += 1
    divisors = [w.a[i][i] for i in range(ncols)]
    # rows below ncols must have been annihilated for a full-rank lattice
    return divisors, w.v, w.vinv


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

    Returns (new_gram, U, swaps) with U unimodular, new_gram = U G U^T
    and swaps the number of basis exchanges made.  All-integer LLL
    (Cohen, Alg. 2.6.7): the Gram matrix, U and the integral
    Gram-Schmidt data of `gram_schmidt_int` are updated in place at
    each size reduction and swap, so no step recomputes them.  Size
    reduction rounds half up, and the output satisfies |mu_ij| <= 1/2
    and the Lovasz condition with LLL_DELTA.  Its own output comes
    back unchanged, with U = 1 and no swap: size reduction leaves every
    mu_ij in [-1/2, 1/2), where rounding half up gives 0.
    """
    n = len(gram)
    g = [list(r) for r in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d, lam = gram_schmidt_int(g)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator

    def reduce(k, l):
        # b_k <- b_k - q b_l with q the nearest integer to mu_kl
        dl = d[l + 1]
        q = (2 * lam[k][l] + dl) // (2 * dl)
        if not q:
            return
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        gk, gl = g[k], g[l]
        for j in range(n):
            gk[j] -= q * gl[j]
        gk[k] -= q * gk[l]
        for j in range(n):
            g[j][k] = gk[j]
        lk, ll = lam[k], lam[l]
        lk[l] -= q * dl
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k):
        # exchange b_{k-1} and b_k
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        lm = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b

    k = 1
    swaps = 0
    while k < n:
        reduce(k, k - 1)
        lm = lam[k][k - 1]
        if den * (d[k + 1] * d[k - 1] + lm * lm) < num * d[k] * d[k]:
            swap(k)
            swaps += 1
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return g, u, swaps
