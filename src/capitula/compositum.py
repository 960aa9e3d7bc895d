"""The compositum M = L.F, its ideals, and exact principality certificates.

Since the quadratic discriminant and the conductor q are coprime, the
tensor product of the two rings of integers is already the maximal
order of M: a Z-basis is {w_a eta_i} with w_0 = 1, w_1 = omega from L
and the period basis eta_0..eta_{e-1} of F.  Multiplication splits
into the quadratic relation for omega and the period structure
constants, so the whole table is exact integers, and so is the trace
form: Tr_M(w_a eta_i . w_b eta_j) factors through Tr_L x Tr_F.

The generator search is lattice business.  An ideal of L extended to
M is a full-rank sublattice in Hermite normal form; its Gram matrix
under the trace form (the T2 quadratic form, totally real field) is
reduced by all-integer LLL and short vectors are enumerated in growing
T2 radius, both driven by the same integral Gram-Schmidt data.  Every
candidate is judged purely in integers: the norm is a Bareiss
determinant of the multiplication matrix, and the containment witness
is re-derived by back-substitution against the HNF rows.
Floating-point embeddings, plain `math` floats built inside
`certify_principal`, only steer the search: a band on the approximate
norm pre-screens candidates, and a float lower bound on that norm lets
whole leaf rows of the walk be counted unscanned.  Both are advisory,
carry no proven error bound, and can cost a candidate but never a
wrong answer; nothing committed depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

from .cyclotomic import CyclotomicSubfield
from .errors import ConsistencyError
from .linalg import det_bareiss, gram_schmidt_int, hnf_rows, lll_reduce_gram
from .quadfield import QuadIdeal, QuadraticField

# relative margin by which a leaf row's float lower bound on |N(y)| must
# clear the band before the row is counted unscanned
ROW_SKIP_MARGIN = 1e-6


@dataclass(frozen=True)
class CompositumOrder:
    """Maximal order of M = L.F in the tensor basis.

    Basis index r = a*e + i means w_a eta_i.  mult_table[r][c] is the
    coordinate vector of the product of basis elements r and c; gram
    is the exact trace-form matrix; one_coords represents 1 (the
    periods sum to -1, so it is not a basis vector itself).
    """

    L: QuadraticField
    F: CyclotomicSubfield
    degree: int
    mult_table: tuple
    gram: tuple
    disc: int
    one_coords: tuple

    def mul(self, x, y):
        """Product of two coordinate vectors, exactly."""
        n = self.degree
        out = [0] * n
        for r in range(n):
            xr = x[r]
            if not xr:
                continue
            row = self.mult_table[r]
            for c in range(n):
                yc = y[c]
                if not yc:
                    continue
                w = xr * yc
                vec = row[c]
                for k in range(n):
                    v = vec[k]
                    if v:
                        out[k] += w * v
        return out

    def trace(self, x) -> int:
        # Tr(w_a eta_i) = Tr_L(w_a) * Tr_F(eta_i) = -(2 if a == 0 else s)
        e = self.F.e
        tl = (2, self.L.s)
        return -sum(
            tl[r // e] * x[r] for r in range(self.degree) if x[r]
        )

    def scalar_coords(self, k: int) -> tuple:
        return tuple(k * c for c in self.one_coords)

    def t2(self, x) -> int:
        """Trace of x^2: the T2 form, since M is totally real."""
        g = self.gram
        n = self.degree
        total = 0
        for r in range(n):
            xr = x[r]
            if not xr:
                continue
            row = g[r]
            total += xr * sum(row[c] * x[c] for c in range(n))
        return total


def _quad_pair_product(x1, y1, x2, y2, s, nw):
    # (x1 + y1 w)(x2 + y2 w) with w^2 = s w - nw
    return (x1 * x2 - nw * y1 * y2, x1 * y2 + y1 * x2 + s * y1 * y2)


def build_compositum(L: QuadraticField, F: CyclotomicSubfield) -> CompositumOrder:
    """Assemble the order in exact integers and verify its discriminant.

    The discriminant of the trace form must come out disc(L)^e *
    q^(2(e-1)) exactly; anything else means the tensor basis is not
    what it claims to be and construction aborts.
    """
    if L.disc % F.q == 0:
        raise ConsistencyError(
            f"conductor {F.q} divides disc(L) = {L.disc}: the orders are "
            "not coprime, which the split condition is supposed to rule out"
        )
    e = F.e
    n = 2 * e
    s = L.s
    nw = L.norm_omega()

    unit = [[1 if k == i else 0 for k in range(e)] for i in range(e)]
    pp = [[tuple(F.mul_coords(unit[i], unit[j])) for j in range(e)] for i in range(e)]

    # quadratic products in the {1, w} basis
    qp = {
        (0, 0): (1, 0),
        (0, 1): (0, 1),
        (1, 0): (0, 1),
        (1, 1): (-nw, s),
    }

    table = []
    for r in range(n):
        a, i = divmod(r, e)
        row = []
        for c in range(n):
            b, j = divmod(c, e)
            c0, c1 = qp[(a, b)]
            per = pp[i][j]
            vec = [0] * n
            for l in range(e):
                pl = per[l]
                if pl:
                    if c0:
                        vec[l] += c0 * pl
                    if c1:
                        vec[e + l] += c1 * pl
            row.append(tuple(vec))
        table.append(tuple(row))
    table = tuple(table)

    one = tuple([-1] * e + [0] * e)

    # trace-form Gram and discriminant, exactly:
    # Tr(w_a eta_i) = Tr_L(w_a) Tr_F(eta_i) = -(2 if a == 0 else s)
    tvec = [-2] * e + [-s] * e
    gram = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            t = sum(tvec[k] * v for k, v in enumerate(table[r][c]) if v)
            gram[r][c] = gram[c][r] = t
    gram = tuple(tuple(row) for row in gram)
    disc = det_bareiss([list(row) for row in gram])
    expected = L.disc**e * F.q ** (2 * (e - 1))
    if disc != expected:
        raise ConsistencyError(
            f"trace-form discriminant {disc} != disc(L)^e * q^(2e-2) = {expected}"
        )

    order = CompositumOrder(
        L=L,
        F=F,
        degree=n,
        mult_table=table,
        gram=gram,
        disc=disc,
        one_coords=one,
    )

    # identity sanity: 1 * b_r = b_r for every basis vector
    for r in range(n):
        b = [1 if k == r else 0 for k in range(n)]
        if order.mul(list(one), b) != b:
            raise ConsistencyError("1 does not act as identity in the order")
    return order


def _embeddings(order: CompositumOrder):
    """Float rows of the real embeddings of M, one per embedding, one
    column per basis vector: embedding (a, k) sends w to its a-th
    conjugate and eta_i to eta_{i+k mod e}.  Steering data only."""
    L, F = order.L, order.F
    e = F.e
    sq = math.sqrt(L.disc)
    periods = F.period_values()
    rows = []
    for wv in ((L.s + sq) / 2, (L.s - sq) / 2):
        for k in range(e):
            shifted = [periods[(i + k) % e] for i in range(e)]
            rows.append(shifted + [wv * v for v in shifted])
    return rows


@dataclass(frozen=True)
class IdealLatticeBasis:
    """Row-style HNF of an extended ideal inside the order; norm is the
    index, which equals the determinant of the rows."""

    hnf: tuple
    norm: int


def extend_ideal(I: QuadIdeal, order: CompositumOrder) -> IdealLatticeBasis:
    """Lattice of I.O_M in the order basis.

    Rows are generated by multiplying the two Z-generators of I by
    every basis vector; HNF crushes them to 2e independent rows whose
    diagonal product is the index [O_M : I.O_M] = N_L(I)^e.
    """
    if I.field != order.L:
        raise ValueError("ideal does not live in the order's quadratic field")
    if I.scale.denominator != 1:
        raise ValueError("only integral ideals extend to an ideal lattice")
    k = int(I.scale)
    e = order.F.e
    n = order.degree
    s, nw = order.L.s, order.L.norm_omega()

    gens = ((k * I.a, 0), (k * I.b, k))  # x + y w
    rows = []
    for x, y in gens:
        for a in (0, 1):
            ga = (x, y) if a == 0 else _quad_pair_product(x, y, 0, 1, s, nw)
            for i in range(e):
                row = [0] * n
                row[i] = ga[0]
                row[e + i] = ga[1]
                rows.append(row)
    hnf = hnf_rows(rows)
    if len(hnf) != n:
        raise ConsistencyError("extended ideal lattice is not full rank")
    det = 1
    for i in range(n):
        det *= hnf[i][i]
    return IdealLatticeBasis(hnf=tuple(tuple(r) for r in hnf), norm=det)


@dataclass(frozen=True)
class RadiusSchedule:
    """T2 enumeration schedule: start at 2e * c0 * det(Gram)^(1/2e) and
    double the squared radius up to max_doublings times.  max_vectors
    caps the ball size actually walked per round; hitting it makes the
    outcome inconclusive (capped), never wrong."""

    c0: int = 2
    max_doublings: int = 12
    max_vectors: int = 60_000_000


@dataclass(frozen=True)
class PrincipalityCertificate:
    """An exact witness that the ideal lattice is principal: alpha in
    order coordinates, its norm, and the integer combination of the
    HNF rows that produces alpha (containment)."""

    alpha: tuple
    norm_alpha: int
    ideal_norm: int
    containment: tuple


@dataclass(frozen=True)
class EnumerationRound:
    """One radius of the doubling schedule: vectors walked, vectors kept
    by the norm band, and leaf rows the row bound counted unscanned."""

    radius_sq: int
    visited: int
    kept: int
    rows_skipped: int


@dataclass(frozen=True)
class NotFound:
    """Enumeration exhausted without an exact-norm hit.  Inconclusive:
    generators need not be short.  rounds has one entry per radius
    walked; enumerated is the sum of their visited counts."""

    max_radius_sq: int
    doublings_used: int
    enumerated: int
    capped: bool = False
    rounds: tuple = ()


def _iroot(x: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _enumerate_short(gram, radius_sq, cap, filt):
    """Nonzero integer vectors y with y G y^t <= radius_sq, by
    Fincke-Pohst depth-first descent.  Exact: the quadratic form is
    split as sum_i z_i^2 / (d_i d_{i+1}) with the integral
    Gram-Schmidt data of `gram_schmidt_int`, the remaining budget is
    an integer at one common scale, and every per-coordinate interval
    comes from an integer square root, never floats, so the walk
    provably covers the ball (up to the visit cap).

    filt is (rows, lo, hi): float embedding rows of the basis behind
    the Gram, and a band for |prod_j <row_j, y>|.  Only vectors inside
    the band are kept.  At the last coordinate the product is
    prod_j (a_j + y_0 b_j) over an integer row of y_0; a row whose
    lower bound prod_j min |a_j + y_0 b_j| clears the band by a
    relative ROW_SKIP_MARGIN is counted without being scanned.  The
    band and the row bound are advisory; callers re-check every kept
    vector exactly, and a miss costs completeness of the *kept* list
    only, never of the walk.

    Returns (kept, visited, capped, rows_skipped): visited counts every
    nonzero vector in the radius, capped reports an early stop at the
    cap, rows_skipped the leaf rows the bound counted unscanned.
    """
    n = len(gram)
    d, lam = gram_schmidt_int(gram)
    # budgets are scaled by `scale`; level i spends weight[i] * z_i^2
    scale = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    weight = [scale // (d[i] * d[i + 1]) for i in range(n)]
    # lamcols[i]: lambda_ji for j > i, the pull of y_j on the centre of y_i
    lamcols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    rows, band_lo, band_hi = filt
    skip_above = band_hi * (1.0 + ROW_SKIP_MARGIN)
    # fcol[i][j]: contribution of y_i to embedding j
    fcol = [[float(rows[j][i]) for j in range(n)] for i in range(n)]
    fc0 = fcol[0]
    kept = []
    visited = 0
    rows_skipped = 0
    capped = False
    y = [0] * n
    fvals = [0.0] * n

    def descend(i, budget, nz):
        # budget = scale * (remaining T2) >= 0; nz: some chosen y is nonzero
        nonlocal visited, capped, rows_skipped
        m = d[i + 1]
        col = lamcols[i]
        c = 0
        for t in range(n - 1 - i):
            yj = y[i + 1 + t]
            if yj:
                c -= col[t] * yj
        # (m y_i - c)^2 <= budget / weight[i], over Z via one isqrt
        s = isqrt(budget // weight[i])
        lo = -((s - c) // m)
        hi = (c + s) // m
        if i == 0:
            row = hi - lo + 1
            # the row through the zero vector (nz false) has bound 0
            if nz and 0 < row and visited + row < cap:
                flo, fhi = float(lo), float(hi)
                bound = 1.0
                for j in range(n):
                    a, b = fvals[j], fc0[j]
                    if b:
                        # the integer of the row nearest the root -a/b
                        t = -a / b
                        near = round(flo if t < flo else fhi if t > fhi else t)
                        bound *= abs(a + near * b)
                    else:
                        bound *= abs(a)
                if bound > skip_above:
                    visited += row
                    rows_skipped += 1
                    return
            for yi in range(lo, hi + 1):
                if yi == 0 and not nz:
                    continue
                visited += 1
                prod = 1.0
                for j in range(n):
                    prod *= fvals[j] + yi * fc0[j]
                if band_lo <= abs(prod) <= band_hi:
                    y[0] = yi
                    kept.append(tuple(y))
                    y[0] = 0
                if visited >= cap:
                    capped = True
                    return
            return
        fc = fcol[i]
        base = fvals[:]
        w = weight[i]
        for yi in range(lo, hi + 1):
            z = yi * m - c
            y[i] = yi
            for j in range(n):
                fvals[j] = base[j] + yi * fc[j]
            descend(i - 1, budget - w * z * z, nz or yi != 0)
            if capped:
                y[i] = 0
                return
        y[i] = 0

    descend(n - 1, radius_sq * scale, False)
    return kept, visited, capped, rows_skipped


def exact_norm(alpha, order: CompositumOrder) -> int:
    """Field norm of the element with the given coordinates: the
    determinant of its multiplication matrix, as an exact integer."""
    n = order.degree
    rows = []
    for r in range(n):
        b = [1 if k == r else 0 for k in range(n)]
        rows.append(order.mul(list(alpha), b))
    return det_bareiss(rows)


def _solve_containment(hnf, alpha):
    """Integer x with x . hnf = alpha, or None.  hnf rows are upper
    triangular with positive diagonal, so plain back-substitution."""
    n = len(hnf)
    residue = list(alpha)
    x = [0] * n
    for i in range(n):
        piv = hnf[i][i]
        if residue[i] % piv:
            return None
        xi = residue[i] // piv
        x[i] = xi
        if xi:
            row = hnf[i]
            for j in range(i, n):
                residue[j] -= xi * row[j]
    if any(residue):
        return None
    return x


def _mat_vec(y, mat):
    n = len(mat[0])
    out = [0] * n
    for i, yi in enumerate(y):
        if yi:
            row = mat[i]
            for j in range(n):
                out[j] += yi * row[j]
    return out


def certify_principal(
    B: IdealLatticeBasis,
    order: CompositumOrder,
    schedule: RadiusSchedule | None = None,
):
    """Search for a generator of the ideal lattice.

    LLL-reduce the ideal's trace-form Gram matrix, enumerate lattice
    vectors by growing T2 radius, and accept the first (in T2-then-
    lexicographic order) whose exact norm matches the ideal norm in
    absolute value.  The walk pre-screens candidates by approximate
    norm (a generous factor-4 band) through double-precision embeddings
    of the reduced basis, built here from math.sqrt(disc(L)) and the
    float periods, each entry one math.fsum; so exact Bareiss norms
    are only computed for the handful that look right, and the accept
    decision itself is always exact.  Containment is by construction
    but re-derived independently for the certificate.
    Returns NotFound with the exhausted radius when the schedule runs
    out; that is inconclusive.
    """
    if schedule is None:
        schedule = RadiusSchedule()
    n = order.degree
    hnf = [list(r) for r in B.hnf]

    gram_i = [
        [_row_gram(order, hnf[r], hnf[c]) for c in range(n)] for r in range(n)
    ]
    red_gram, U = lll_reduce_gram(gram_i)

    # float embedding rows of the reduced basis, for the norm band
    redrows = [_mat_vec(list(U[i]), hnf) for i in range(n)]
    emb = _embeddings(order)
    frows = [
        [math.fsum(emb[j][c] * redrows[i][c] for c in range(n)) for i in range(n)]
        for j in range(n)
    ]
    filt = (frows, B.norm / 4.0, B.norm * 4.0)

    det_gram = order.disc * B.norm * B.norm
    base_sq = n * schedule.c0 * (_iroot(det_gram, n) + 1)

    rounds = []
    radius_sq = base_sq
    for doubling in range(schedule.max_doublings + 1):
        vectors, visited, capped, skipped = _enumerate_short(
            red_gram, radius_sq, schedule.max_vectors, filt
        )
        rounds.append(EnumerationRound(radius_sq, visited, len(vectors), skipped))
        ranked = sorted(
            (sum(y[r] * red_gram[r][c] * y[c] for r in range(n) for c in range(n)), y)
            for y in vectors
        )
        for _, y in ranked:
            alpha = _mat_vec(y, redrows)
            nval = exact_norm(alpha, order)
            if abs(nval) == B.norm:
                alpha, nval = _normalize_sign(alpha, nval, order)
                containment = _solve_containment(hnf, alpha)
                if containment is None:
                    raise ConsistencyError(
                        "enumerated vector escaped its own ideal lattice"
                    )
                cert = PrincipalityCertificate(
                    alpha=tuple(alpha),
                    norm_alpha=nval,
                    ideal_norm=B.norm,
                    containment=tuple(containment),
                )
                if not verify_certificate(cert, B, order):
                    raise ConsistencyError("fresh certificate failed verification")
                return cert
        if capped:
            return NotFound(
                max_radius_sq=radius_sq,
                doublings_used=doubling,
                enumerated=sum(r.visited for r in rounds),
                capped=True,
                rounds=tuple(rounds),
            )
        radius_sq *= 2
    return NotFound(
        max_radius_sq=radius_sq // 2,
        doublings_used=schedule.max_doublings,
        enumerated=sum(r.visited for r in rounds),
        rounds=tuple(rounds),
    )


def _row_gram(order, u, v):
    g = order.gram
    n = order.degree
    total = 0
    for r in range(n):
        ur = u[r]
        if not ur:
            continue
        row = g[r]
        total += ur * sum(row[c] * v[c] for c in range(n) if v[c])
    return total


def _normalize_sign(alpha, nval, order):
    """Pick the sign with positive trace (positive leading coordinate
    when the trace vanishes); generators are only defined up to units
    anyway, this just fixes the reported representative."""
    t = order.trace(alpha)
    flip = t < 0
    if t == 0:
        for c in alpha:
            if c:
                flip = c < 0
                break
    if flip:
        alpha = [-c for c in alpha]
    return alpha, nval


def verify_certificate(
    cert: PrincipalityCertificate,
    B: IdealLatticeBasis,
    order: CompositumOrder,
) -> bool:
    """Exact re-check of a certificate against its ideal lattice: the
    containment coefficients must reproduce alpha from the HNF rows,
    and the recomputed norm must match the ideal norm in absolute
    value.  Those two facts force (alpha) = I.O_M."""
    alpha = list(cert.alpha)
    if len(alpha) != order.degree:
        return False
    solved = _solve_containment([list(r) for r in B.hnf], alpha)
    if solved is None or tuple(solved) != tuple(cert.containment):
        return False
    nval = exact_norm(alpha, order)
    if nval != cert.norm_alpha or cert.ideal_norm != B.norm:
        return False
    return abs(nval) == B.norm
