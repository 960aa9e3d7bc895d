"""The compositum M = L.F, its ideals, and exact principality certificates.

Since the quadratic discriminant and the conductor q are coprime, the
tensor product of the two rings of integers is already the maximal
order of M = L (x) F: a Z-basis is {w_a eta_i} with w_0 = 1,
w_1 = omega from L and the period basis eta_0..eta_{e-1} of F.  Every
operation factors through the two small rings, and no 2e x 2e table
is stored.  A product splits an element as x0 + x1 omega with x0, x1
in F and needs only omega^2 = s omega - N(omega) and the period
multiplication of F.  The trace form is the Kronecker product of the
2 x 2 trace form of {1, omega} and the e x e one of the periods.  The
norm goes through the tower N_M = N_F o N_{M/F}: a quadratic relative
norm in F, then an e x e determinant.

The generator search is lattice business.  An ideal of L extended to M
is a full-rank sublattice in Hermite normal form.  Its Gram matrix
under the trace form (the T2 quadratic form, M is totally real) is
reduced by all-integer LLL, which returns its transform and the
integral Gram-Schmidt data of the reduced basis, and the lattice is
walked twice in the reduced basis, at a T2 radius and at twice that
radius.  A walk reads only Gram-Schmidt data, never a Gram matrix, and
no reduced Gram matrix is formed.  The ideal comes from L, so
Gal(M/L) = <tau> fixes it, and tau and -1 keep T2 and |N|: when F is
cubic the two walks run instead in an orbit basis b0, b1, b0 eta_1,
b0 eta_2, b1 eta_1, b1 eta_2, with b0, b1 the Lagrange-Gauss reduced
basis of I = Tr_{M/L}(I.O_M) under T2, take one vector of each orbit
of six (of two in the plane of I) and expand what they keep.  Every other walk, each
twisted try included, covers half the ball, the vectors whose last
nonzero coordinate is positive, and mirrors what it keeps: y and -y
have the same |N|, and the floats that judge -y are exactly those of y
negated.  Each walk has a visit budget and stops when it is spent.  It
tests the exact norm of each vector the band keeps as it meets it, and
after a hit its ball shrinks to that hit's form, ties kept (Schnorr
and Euchner), so the rest of the walk still meets every generator that
ranks no worse.  The hits are ranked afterwards by the walk's form and
then by the element itself in order coordinates, so neither the order
of the walk nor its basis changes the generator.  A generator need not
be short in T2: its conjugates can be far from balanced.  So the search
goes on with seeded twisted tries, the Arakelov form of Buchmann's
principal-ideal method: the lattice is walked under the trace form
twisted by exp(2 s_j) on the j-th embedding, with s random in the
trace-zero hyperplane, which rebalances a generator whose
log-conjugates lie along s.  Each try twists the LLL-reduced basis of
the trace form, not the HNF rows, so its LLL starts nearer a reduced
basis and makes fewer swaps.  A try whose Gram-Schmidt norms all exceed
its radius has an empty ball; it is counted and not walked.  The twists
come from a random.Random seeded by the order's discriminant and the
ideal's HNF, one stream per ideal.  Every candidate is judged purely in
integers: the norm is the tower norm above, and the containment
witness is re-derived by back-substitution against the HNF
rows.  Floating-point embeddings, plain `math` floats built inside
`certify_principal`, only steer the search.  A band on the approximate
norm pre-screens candidates, and a float lower bound on that norm lets
whole leaf rows of the walk be counted unscanned.  In the twisted tries
the floats also choose the reduced basis: the twisted conjugates are
rounded to integers before LLL.  None of this carries a proven error
bound, and it can cost a candidate but never a wrong answer, because
every accept is exact.  The generator found is deterministic on one
machine; with another libm's exp or cos it could differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import isqrt

from .cyclotomic import CyclotomicSubfield
from .errors import ConsistencyError
from .linalg import det_bareiss, gram_schmidt_int, hnf_rows, lll_reduce_gram
from .quadfield import QuadIdeal, QuadraticField

# relative margin by which a leaf row's float lower bound on |N(y)| must
# clear the band before the row is counted unscanned
ROW_SKIP_MARGIN = 1e-6

# visit budgets of one untwisted walk and of one twisted try; an
# untwisted walk that spends its budget ends the search, capped
WALK_VISITS = 60_000_000
TRY_VISITS = 5000
# twisted tries: the largest length of the twist s, and the bits the
# shortest twisted row keeps when rounded
TWIST_MAX = 20.0
TWIST_BITS = 40


@dataclass(frozen=True)
class CompositumOrder:
    """Maximal order of M = L (x) F in the tensor basis.

    Basis index r = a*e + i means w_a eta_i, so a vector x splits as
    x0 + x1 w with x0 = x[:e] and x1 = x[e:] in F.  Products factor
    through w^2 = s w - N(w) and F.mul_coords; gram is the exact trace
    form, the Kronecker product of the trace forms of {1, w} and of
    the periods; one_coords represents 1 (the periods sum to -1, so it
    is not a basis vector itself).
    """

    L: QuadraticField
    F: CyclotomicSubfield
    degree: int
    gram: tuple
    disc: int
    one_coords: tuple

    def mul(self, x, y):
        """Product of two coordinate vectors, exactly."""
        e = self.F.e
        fmul = self.F.mul_coords
        x0, x1, y0, y1 = x[:e], x[e:], y[:e], y[e:]
        a, b = fmul(x0, y0), fmul(x1, y1)
        c, d = fmul(x0, y1), fmul(x1, y0)
        s, nw = self.L.s, self.L.norm_omega()
        # (x0 + x1 w)(y0 + y1 w) = a - nw b + (c + d + s b) w
        return [a[i] - nw * b[i] for i in range(e)] + [
            c[i] + d[i] + s * b[i] for i in range(e)
        ]

    def trace(self, x) -> int:
        # Tr(w_a eta_i) = Tr_L(w_a) * Tr_F(eta_i) = -(2 if a == 0 else s)
        e = self.F.e
        return -2 * sum(x[:e]) - self.L.s * sum(x[e:])

    def t2(self, x) -> int:
        """Trace of x^2: the T2 form, since M is totally real."""
        return _qform(self.gram, x, x)


def _qform(g, u, v) -> int:
    """u G v^t for a Gram matrix G, exactly."""
    total = 0
    for ur, row in zip(u, g):
        if ur:
            total += ur * sum(gc * vc for gc, vc in zip(row, v) if vc)
    return total


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
    # Tr_L on {1, w} (w^2 = s w - N(w)) times Tr_F on the periods
    gram_l = ((2, s), (s, s * s - 2 * L.norm_omega()))
    gram_f = F.trace_gram()
    gram = tuple(
        tuple(gram_l[r // e][c // e] * gram_f[r % e][c % e] for c in range(n))
        for r in range(n)
    )
    disc = det_bareiss(gram)
    expected = L.disc**e * F.q ** (2 * (e - 1))
    if disc != expected:
        raise ConsistencyError(
            f"trace-form discriminant {disc} != disc(L)^e * q^(2e-2) = {expected}"
        )

    one = tuple([-1] * e + [0] * e)
    order = CompositumOrder(L=L, F=F, degree=n, gram=gram, disc=disc, one_coords=one)

    # identity sanity: 1 * b_r = b_r for every basis vector
    for r in range(n):
        b = [1 if k == r else 0 for k in range(n)]
        if order.mul(one, b) != b:
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
    every basis vector; I has Z-rank 2, so I (x) O_F has rank 2e and
    HNF crushes them to 2e independent rows whose diagonal product is
    the index [O_M : I.O_M] = N_L(I)^e.
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
            # (x + y w) w = -N(w) y + (x + s y) w
            ga = (x, y) if a == 0 else (-nw * y, x + s * y)
            for i in range(e):
                row = [0] * n
                row[i] = ga[0]
                row[e + i] = ga[1]
                rows.append(row)
    hnf = hnf_rows(rows)
    det = 1
    for i in range(n):
        det *= hnf[i][i]
    return IdealLatticeBasis(hnf=tuple(tuple(r) for r in hnf), norm=det)


@dataclass(frozen=True)
class RadiusSchedule:
    """Budget of the generator search.  c0 scales the radii: the two
    untwisted walks go to T2 radius^2 2e * c0 * det(Gram)^(1/2e) and
    twice that, and each twisted try to 32 * c0 * 2e * N^(2/2e) in the
    twisted form, 64 times the T2 of a balanced generator at c0 = 2.
    After the untwisted walks come up to 16 * 2^max_doublings twisted
    tries.  Each untwisted walk spends at most WALK_VISITS visits, and
    spending them ends the search inconclusive (capped), never wrong; a
    twisted try spends at most TRY_VISITS.  Needs c0 >= 1 and
    max_doublings >= 0."""

    c0: int = 2
    max_doublings: int = 9

    def __post_init__(self):
        if self.c0 < 1 or self.max_doublings < 0:
            raise ValueError(f"need c0 >= 1 and max_doublings >= 0, got {self}")

    @property
    def tries(self) -> int:
        return 16 << self.max_doublings


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
    """One untwisted walk: its radius, vectors walked, vectors kept by
    the norm band, and leaf rows the row bound counted unscanned.  After
    an exact-norm hit the ball shrinks to the hit's form, so the last
    three count the shrunken ball."""

    radius_sq: int
    visited: int
    kept: int
    rows_skipped: int


@dataclass(frozen=True)
class NotFound:
    """The search gave out without an exact-norm hit.  Inconclusive:
    generators need not be short.  tries counts the twisted tries
    walked, enumerated the vectors visited by every walk, untwisted and
    twisted; capped means an untwisted walk spent its WALK_VISITS and
    ended the search; rounds has one entry per untwisted walk;
    lll_swaps counts the basis exchanges of every LLL reduction."""

    tries: int
    enumerated: int
    capped: bool = False
    rounds: tuple = ()
    lll_swaps: int = 0


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


def _enumerate_short(gso, radius_sq, cap, filt, pairs=0, accept=None):
    """Nonzero integer vectors y with y G y^t <= radius_sq, by
    Fincke-Pohst depth-first descent, for the Gram matrix G whose
    integral Gram-Schmidt data gso = (d, lam) is given, as
    `gram_schmidt_int` or `lll_reduce_gram` returns it; G itself is
    never read.  Exact: the quadratic form is split as
    sum_i z_i^2 / (d_i d_{i+1}), the remaining budget is an integer at
    one common scale, and every per-coordinate interval comes from an
    integer square root, never floats, so the walk provably covers the
    ball (unless it stops at the visit cap).  When every
    d_{i+1} > radius_sq * d_i, each squared Gram-Schmidt length exceeds
    radius_sq, so the ball holds no nonzero vector and the walk visits
    nothing.

    filt is (rows, lo, hi): float embedding rows of the basis walked,
    and a band for |prod_j <row_j, y>|.  Only vectors inside
    the band are kept.  At the last coordinate the product is
    prod_j (a_j + y_0 b_j) over an integer row of y_0; a row whose
    lower bound prod_j min |a_j + y_0 b_j| clears the band by a
    relative ROW_SKIP_MARGIN is counted without being scanned.  The
    band and the row bound are advisory; callers re-check every kept
    vector exactly, and a miss costs completeness of the *kept* list
    only, never of the walk.

    The walk takes one vector of each orbit of a symmetry of the ball
    and of |N|: the first nonzero block of coordinates from the top
    lies in a fundamental domain of that block's units.  A block of one
    coordinate has the units +-1 and the domain y_i >= 1: negating a
    path negates every float of it exactly, so the band test and the
    row bound decide alike for y and -y.  With pairs = k > 0 the basis
    is b_0..b_{k-1} followed by the pairs (b_j eta_1, b_j eta_2), j < k,
    with eta_1, eta_2 periods of a cubic F (the orbit basis of
    `_orbit_basis`, n = 3k).  The generator tau of Gal(M/L) fixes each
    b_j and maps the pair's coefficients (a, c) to (-c, a - c), moving
    c b_j into b_j's own coordinate: a cube root of unity zeta acting
    on Z[zeta].  Each pair is a block with the six units +-zeta^i and
    the 60 degree sector c >= 0, a > c as its domain; tau permutes the
    embeddings, so the floats of an image agree with its
    representative's up to rounding.  While every higher block is zero
    the centre is 0 and the isqrt interval is symmetric, so there the
    walk takes y_i >= 0 (and a >= c + 1 below a nonzero c).  A vector
    whose first nonzero block is a pair counts 6 in visited, a row of
    them 6 in rows_skipped, otherwise 2, and each kept vector is
    expanded to its 6 or 2 images, so an uncapped walk keeps and counts
    what the full walk does.

    accept, when given, is called on each orbit representative v the
    band keeps, as accept(v, v G v^t); the form is exact, read off the
    budget the walk has left at v, and holds for every image of v too.
    When it returns True the ball shrinks to that vector's form, ties
    kept: the rest of its leaf row stops at the new bound, every
    later node works in the smaller ball, and rows are counted unscanned
    in it.  So the walk still meets every vector of its order that
    ranks no worse than what it accepted, and accept should hold alike
    on a whole orbit.  A walk that accepts nothing walks as without
    accept.  Under a cap, an accepting walk can reach further along its
    order than the walk without accept.

    The cap is a visit budget: the walk stops, capped, as soon as
    visited >= cap, and a row is counted unscanned only when that stays
    below the cap, so a capped walk ends with cap <= visited < cap + 6
    (cap + 2 without pairs).  What it kept up to then is expanded all
    the same.  The kept list comes in no particular order; callers rank
    it themselves.

    Returns (kept, visited, capped, rows_skipped): visited counts every
    nonzero vector in the ball, as it shrinks, up to the cap, capped
    reports a stop at the cap, rows_skipped the leaf rows the bound
    counted unscanned.
    """
    d, lam = gso
    n = len(d) - 1
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
    y = [0] * n
    # orbit sizes in the half walk: a vector whose first nonzero block
    # starts at y_i has sizes[i] images.  A pair is (a, c) = (y_i, y_{i+1})
    # at i = pairs + 2j, and a nonzero one has a > c >= 0, so a != 0: its
    # six are counted at a, none at c
    sizes = [2] * pairs + [6, 0] * pairs if pairs else [2] * n
    pair_a = [size == 6 for size in sizes]

    def descend(i, budget, mult):
        # budget = scale * (remaining T2) >= 0; mult: the multiplicity of
        # the orbit of the vectors below, 0 while every higher y is zero
        nonlocal visited, capped, rows_skipped, cut
        room = budget - cut
        if room < 0:
            # the ball shrank past this prefix after an accepted vector
            return
        m = d[i + 1]
        col = lamcols[i]
        c = 0
        for t in range(n - 1 - i):
            yj = y[i + 1 + t]
            if yj:
                c -= col[t] * yj
        # (m y_i - c)^2 <= room / weight[i], over Z via one isqrt
        s = isqrt(room // weight[i])
        lo = -((s - c) // m)
        hi = (c + s) // m
        if not mult:
            lo = max(lo, y[i + 1] + 1) if pair_a[i] and y[i + 1] else 0
        if i == 0:
            row = hi - lo + 1
            # the row through the zero vector (mult 0) has bound 0
            if mult and 0 < row and visited + row * mult < cap:
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
                    visited += row * mult
                    rows_skipped += mult
                    return
            step = mult or sizes[0]
            while lo <= hi:
                for yi in range(lo, hi + 1):
                    if yi == 0 and not mult:
                        continue
                    visited += step
                    prod = 1.0
                    for j in range(n):
                        prod *= fvals[j] + yi * fc0[j]
                    if band_lo <= abs(prod) <= band_hi:
                        y[0] = yi
                        v = tuple(y)
                        y[0] = 0
                        kept.append(v)
                        z = yi * m - c
                        left = budget - weight[0] * z * z
                        if accept is not None and accept(v, radius_sq - left // scale):
                            # shrink the ball to v's form: the rest of
                            # the row keeps |m y_0 - c| <= |z|
                            cut = left
                            hi = (c + abs(z)) // m
                            if visited >= cap:
                                capped = True
                                return
                            break
                    if visited >= cap:
                        capped = True
                        return
                else:
                    return
                lo = yi + 1
            return
        fc = fcol[i]
        base = fvals[:]
        w = weight[i]
        unit = sizes[i]
        for yi in range(lo, hi + 1):
            z = yi * m - c
            y[i] = yi
            for j in range(n):
                fvals[j] = base[j] + yi * fc[j]
            descend(i - 1, budget - w * z * z, mult or (unit if yi else 0))
            if capped:
                y[i] = 0
                return
        y[i] = 0

    kept = []
    visited = rows_skipped = cut = 0
    capped = False
    fvals = [0.0] * n
    descend(n - 1, radius_sq * scale, 0)
    return [u for v in kept for u in _orbit(v, pairs)], visited, capped, rows_skipped


def _orbit(v, pairs):
    """The images of v under +-1 and, when its first nonzero block is a
    pair of the orbit basis, under tau and tau^2 (see _enumerate_short)."""
    images = [tuple(v)]
    if pairs and any(v[pairs:]):
        for _ in range(2):
            u = list(images[-1])
            for j in range(pairs):
                a, c = u[pairs + 2 * j], u[pairs + 2 * j + 1]
                u[j] -= c
                u[pairs + 2 * j], u[pairs + 2 * j + 1] = -c, a - c
            images.append(tuple(u))
    return images + [tuple(-x for x in u) for u in images]


def exact_norm(alpha, order: CompositumOrder) -> int:
    """Field norm of the element with the given coordinates, as an
    exact integer, through the tower N_M = N_F o N_{M/F}.  The conjugate
    of w over F is s - w, so alpha = x + y w has relative norm
    x^2 + s x y + N(w) y^2 = x (x + s y) + N(w) y^2 in F, and N_F of
    that is F.norm."""
    F = order.F
    x, y = alpha[:F.e], alpha[F.e:]
    s, nw = order.L.s, order.L.norm_omega()
    xs = F.mul_coords(x, [xi + s * yi for xi, yi in zip(x, y)])
    yy = F.mul_coords(y, y)
    return F.norm([a + nw * b for a, b in zip(xs, yy)])


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


def _band_rows(emb, basis):
    """Float conjugates of the basis rows: entry [j][i] is embedding j
    of row i, each one math.fsum.  emb[j][c] is embedding j of the c-th
    vector the rows are written in: of the order basis for `_embeddings`,
    or of a lattice basis for its own output, so that
    _band_rows(_band_rows(emb, rows), U) holds the conjugates of U rows."""
    n = len(basis)
    return [
        [math.fsum(emb[j][c] * basis[i][c] for c in range(n)) for i in range(n)]
        for j in range(n)
    ]


def _orbit_basis(order: CompositumOrder, hnf):
    """The orbit basis of the ideal lattice for the untwisted walks, or
    None when F is not cubic (then the walks keep the half walk).

    Lambda = I.O_M is I (x) O_F, and O_F = Z + Z eta_1 + Z eta_2, so with
    I = Z b0 + Z b1 the rows b0, b1, b0 eta_1, b0 eta_2, b1 eta_1,
    b1 eta_2 are a basis on which tau acts as `_enumerate_short` needs
    (pairs = 2).  An element of L has coordinates constant on each half,
    (c, c, c, d, d, d), and I = Tr_{M/L}(Lambda) has the (c, d) of the
    traces (sum x[:e], sum x[e:]) of the HNF rows.  b0 and b1 are their
    HNF, Lagrange-Gauss reduced under T2, so T2(b0) <= T2(b1) <=
    T2(b1 +- b0).  Returns (gram, rows): the rows' trace-form Gram and
    the rows in order coordinates."""
    e, n = order.F.e, order.degree
    if e != 3:
        return None
    traces = hnf_rows([[sum(r[:e]), sum(r[e:])] for r in hnf])
    b0, b1 = sorted(([c] * e + [dd] * e for c, dd in traces), key=order.t2)
    # Lagrange-Gauss: size-reduce b1 against b0, swap while b1 is shorter
    while True:
        g0 = order.t2(b0)
        k = (2 * _qform(order.gram, b1, b0) + g0) // (2 * g0)
        b1 = [u - k * v for u, v in zip(b1, b0)]
        if order.t2(b1) >= g0:
            break
        b0, b1 = b1, b0
    ident = [[int(j == i) for j in range(n)] for i in range(n)]
    rows = [b0, b1] + [order.mul(b, ident[i]) for b in (b0, b1) for i in (1, 2)]
    return [[_qform(order.gram, r, t) for t in rows] for r in rows], rows


def _twist(rng: random.Random, n: int) -> list:
    """A twist s with sum s_j = 0: a Gaussian direction projected to
    the trace-zero hyperplane, with length uniform in [0, TWIST_MAX]."""
    g = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean = sum(g) / n
    g = [x - mean for x in g]
    length = rng.uniform(0.0, TWIST_MAX)
    return [x * length / math.hypot(*g) for x in g]


def _twisted_gram(conj, s):
    """Integer Gram X X^t of the rows conj[j][i] * exp(s_j), rounded
    at 2^K, with K the least shift that leaves every row an entry of at
    least TWIST_BITS bits.  Returns (gram, K).  Rounding the rows, not
    the Gram, keeps the Gram positive definite at large twists."""
    w = [math.exp(sj) for sj in s]
    rows = [[c * wj for c, wj in zip(row, w)] for row in zip(*conj)]
    k = TWIST_BITS + 1 - min(math.frexp(max(map(abs, row)))[1] for row in rows)
    x = [[round(math.ldexp(c, k)) for c in row] for row in rows]
    n = len(x)
    gram = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            gram[r][c] = gram[c][r] = sum(a * b for a, b in zip(x[r], x[c]))
    return gram, k


def certify_principal(
    B: IdealLatticeBasis,
    order: CompositumOrder,
    schedule: RadiusSchedule | None = None,
    counters: dict | None = None,
):
    """Search for a generator of the ideal lattice.

    First LLL-reduce the ideal's trace-form Gram matrix and walk it at
    two T2 radii (see RadiusSchedule), in the orbit basis of
    `_orbit_basis` when there is one, else in the reduced basis, each
    walk once and with a budget of WALK_VISITS visits.  A walk that
    spends its budget ends the search, capped.  Then run up to
    schedule.tries twisted tries: draw s from
    random.Random(repr((order.disc, B.hnf))), round the float conjugates
    of the untwisted reduced rows (not the HNF rows) scaled by exp(s_j)
    to integers, LLL-reduce their Gram matrix and walk the Gram-Schmidt
    data the LLL returns, with a budget of TRY_VISITS visits; no reduced
    Gram matrix is formed.  A try whose rounded Gram is not positive
    definite, or whose squared Gram-Schmidt lengths d_{i+1} / d_i all
    exceed its radius, so that its ball is empty, is counted and not
    walked.  A try's float rows are U times the float conjugates of the
    untwisted reduced rows, and alpha is formed only for a vector the
    walk accepts.

    Each walk keeps the vectors whose approximate norm falls in a
    generous factor-4 band around the ideal norm, computed from
    double-precision embeddings of the basis walked (math.sqrt(disc(L))
    and the float periods); the band is untwisted, since a twist with
    sum s_j = 0 leaves the norm unchanged.  The walk accepts a kept
    vector x when the exact norm of alpha = x.rows matches the ideal
    norm in absolute value, and its ball then shrinks to x's form, ties
    kept.  The accepted vectors' images are ranked by the walk's form,
    which the walk reports with each accept and which an image shares
    with its vector, then by alpha in order coordinates, compared from
    the last coordinate, so the rank of an element does not depend on
    the basis walked; the first is the generator, and on a walk that
    ends within its budget it is the whole ball's first.  The accept
    decision is always exact, and containment is re-derived
    independently for the certificate.

    Returns the certificate, or NotFound when the budget runs out; that
    is inconclusive.  A dict passed as counters receives the number of
    twisted tries, of vectors visited, the untwisted rounds and the LLL
    swaps of every reduction (the NotFound fields of those names),
    whatever the outcome.
    """
    if schedule is None:
        schedule = RadiusSchedule()
    n = order.degree
    hnf = [list(r) for r in B.hnf]
    emb = _embeddings(order)
    tries = 0
    enumerated = 0

    def walk(gso, frows, mats, radius_sq, cap, pairs):
        # frows: the float conjugates of the basis walked; the product of
        # mats is that basis in order coordinates.  The walk accepts the
        # vectors of exact norm +-N(B), and its ball shrinks to each one's
        # form; rank their images by that form, which they share, then by
        # alpha read from the last coordinate, so alpha does not depend on
        # the basis
        nonlocal enumerated
        hits = []

        def lift(x):
            for mat in mats:
                x = _mat_vec(x, mat)
            return x

        def accept(x, form):
            nval = exact_norm(lift(x), order)
            if abs(nval) != B.norm:
                return False
            hits.append((form, x, nval))
            return True

        filt = (frows, B.norm / 4.0, B.norm * 4.0)
        kept, visited, capped, skipped = _enumerate_short(
            gso, radius_sq, cap, filt, pairs, accept
        )
        enumerated += visited
        cert = None
        if hits:
            _, colex, nval = min(
                (form, lift(u)[::-1], nval)
                for form, x, nval in hits
                for u in _orbit(x, pairs)
            )
            cert = _certificate(colex[::-1], nval, B, hnf, order)
        return cert, EnumerationRound(radius_sq, visited, len(kept), skipped), capped

    def done(outcome):
        if counters is not None:
            counters.update(
                tries=tries, enumerated=enumerated, rounds=tuple(rounds), lll_swaps=lll_swaps
            )
        return outcome

    # one reduction: the half walk's basis off the cubic case, and the
    # basis every twisted try starts from
    gram_i = [[_qform(order.gram, hnf[r], hnf[c]) for c in range(n)] for r in range(n)]
    gso, U, lll_swaps = lll_reduce_gram(gram_i)
    base = [_mat_vec(U[i], hnf) for i in range(n)]
    det_gram = order.disc * B.norm * B.norm
    base_sq = n * schedule.c0 * (_iroot(det_gram, n) + 1)
    orbit = _orbit_basis(order, hnf)
    if orbit:
        gso, rows, pairs = gram_schmidt_int(orbit[0]), orbit[1], 2
    else:
        rows, pairs = base, 0
    frows = _band_rows(emb, rows)
    rounds = []
    for radius_sq in (base_sq, 2 * base_sq):
        cert, rnd, capped = walk(gso, frows, (rows,), radius_sq, WALK_VISITS, pairs)
        rounds.append(rnd)
        if cert is not None:
            return done(cert)
        if capped:
            return done(NotFound(tries, enumerated, True, tuple(rounds), lll_swaps))

    # the tries twist the reduced basis: their LLL starts near reduced
    rng = random.Random(repr((order.disc, B.hnf)))
    conj = _band_rows(emb, base)
    twist_sq = 32 * schedule.c0 * n * (_iroot(B.norm * B.norm, n) + 1)
    for tries in range(1, schedule.tries + 1):
        gram, k = _twisted_gram(conj, _twist(rng, n))
        radius_sq = twist_sq << 2 * k if k >= 0 else twist_sq >> -2 * k
        try:
            gso, U, swaps = lll_reduce_gram(gram)
        except ValueError:
            # rounding left the twisted rows dependent: nothing to walk
            continue
        lll_swaps += swaps
        d = gso[0]
        if all(d[i + 1] > radius_sq * d[i] for i in range(n)):
            # every Gram-Schmidt length exceeds the radius: an empty ball
            continue
        # the reduced rows are U base: their floats are U conj, and only
        # a hit's alpha is formed exactly
        cert = walk(gso, _band_rows(conj, U), (U, base), radius_sq, TRY_VISITS, 0)[0]
        if cert is not None:
            return done(cert)
    return done(NotFound(tries, enumerated, False, tuple(rounds), lll_swaps))


def _certificate(alpha, nval, B, hnf, order) -> PrincipalityCertificate:
    """Certificate of an element of exact norm nval = +-N(B), sign
    normalised, with its containment derived.  It passes
    verify_certificate by construction: the degree 2e is even, so
    -alpha has norm nval too."""
    alpha = _normalize_sign(alpha, order)
    containment = _solve_containment(hnf, alpha)
    if containment is None:
        raise ConsistencyError("enumerated vector escaped its own ideal lattice")
    return PrincipalityCertificate(
        alpha=tuple(alpha),
        norm_alpha=nval,
        ideal_norm=B.norm,
        containment=tuple(containment),
    )


def _normalize_sign(alpha, order):
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
    return alpha


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
