"""Real quadratic fields: integers, units, ideals, and the class group.

A field Q(sqrt(d)) is carried around as its discriminant D and the
standard generator w of the maximal order: w = sqrt(d) for d = 2, 3
(mod 4) and w = (1 + sqrt(d))/2 for d = 1 (mod 4).  Uniformly,
w = (s + sqrt(D))/2 with s = D mod 2.

Ideals are Z-modules scale * (Z a + Z (b + w)).  Internally we often
work with the pair (a, B) where B = 2 b + s, because the reduction
theory (the continued-fraction walk on reduced ideals) is cleanest in
that coordinate: the ideal is [a, (B + sqrt(D))/2] and validity means
B^2 = D (mod 4a).

Everything is exact.  Class groups are found by a breadth-first closure
over the classes of the factor-base primes below the Minkowski bound,
with equivalence decided by reduction cycles, and the relation lattice
is put in Smith normal form.  No analytic input, no GRH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import arith
from .errors import ConsistencyError
from .linalg import hnf_rows, smith_normal_form

DESK_DISC_BOUND = 4_000_000


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)) for squarefree d >= 2."""

    d: int
    disc: int

    @property
    def s(self) -> int:
        # parity of the discriminant = trace of the standard generator w
        return self.disc % 2

    @property
    def sqrt_disc_floor(self) -> int:
        return math.isqrt(self.disc)

    def norm_omega(self) -> int:
        return (self.s * self.s - self.disc) // 4

    def norm_element(self, x, y):
        """Norm of x + y*w (works for ints and Fractions)."""
        return x * x + self.s * x * y + y * y * self.norm_omega()


def make_field(d: int) -> QuadraticField:
    """Build Q(sqrt(d)).  d must be a squarefree integer >= 2 whose
    discriminant is at most DESK_DISC_BOUND; the bound is checked
    before d is factored, so a huge d is refused at once."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"need an integer d >= 2, got {d!r}")
    disc = d if d % 4 == 1 else 4 * d
    if disc > DESK_DISC_BOUND:
        raise ValueError(f"disc {disc} is above the desk bound {DESK_DISC_BOUND}")
    if not arith.is_squarefree(d):
        raise ValueError(f"d = {d} is not squarefree")
    return QuadraticField(d=d, disc=disc)


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class QuadIdeal:
    """Fractional ideal scale * (Z a + Z (b + w)) of a real quadratic field.

    a is the norm of the integral primitive part and the smallest
    positive rational integer in it; 0 <= b < a.
    """

    field: QuadraticField
    a: int
    b: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.a < 1 or not 0 <= self.b < max(self.a, 1):
            raise ValueError(f"bad ideal coefficients a={self.a} b={self.b}")
        if self.field.norm_element(self.b, 1) % self.a != 0:
            raise ValueError(f"(a, b) = ({self.a}, {self.b}) is not an ideal")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def bform(self) -> int:
        return 2 * self.b + self.field.s

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.a

    def conjugate(self) -> "QuadIdeal":
        L = self.field
        bc = (-self.b - L.s) % self.a
        return QuadIdeal(L, self.a, bc, self.scale)

    def __mul__(self, other: "QuadIdeal") -> "QuadIdeal":
        if self.field != other.field:
            raise ValueError("ideals of different fields")
        (a3, b3), content = _mul_with_content(self.field, (self.a, self.b), (other.a, other.b))
        return QuadIdeal(self.field, a3, b3, self.scale * other.scale * content)

    def __pow__(self, e: int) -> "QuadIdeal":
        if e < 0:
            inv = self.conjugate()
            base = QuadIdeal(self.field, inv.a, inv.b, self.scale / self.norm())
            return base ** (-e)
        out = QuadIdeal(self.field, 1, 0)
        cur = self
        while e:
            if e & 1:
                out = out * cur
            cur = cur * cur
            e >>= 1
        return out


def _b_from_form(L: QuadraticField, a: int, bform: int) -> int:
    return ((bform - L.s) // 2) % a


def _ideal_from_rows(L: QuadraticField, rows):
    """Canonical (a, b) + content from Z-module generators in (1, w) coords."""
    swapped = [[y, x] for x, y in rows]
    h = hnf_rows(swapped)
    if len(h) != 2 or h[0][0] == 0:
        raise ValueError("generators do not span a rank-2 module")
    content, bc = h[0]
    aa = h[1][1]
    if aa % content or bc % content:
        raise ConsistencyError("module is not an ideal of the maximal order")
    a = aa // content
    b = (bc // content) % a
    return (a, b), content


def _mul_with_content(L: QuadraticField, ab1, ab2):
    a1, b1 = ab1
    a2, b2 = ab2
    nw = (L.disc - L.s * L.s) // 4  # w^2 = s*w + nw
    rows = [
        [a1 * a2, 0],
        [a1 * b2, a1],
        [a2 * b1, a2],
        [b1 * b2 + nw, b1 + b2 + L.s],
    ]
    return _ideal_from_rows(L, rows)


def _mul_raw(L: QuadraticField, f1, f2):
    """Class-level product of two (a, bform) pairs; content is dropped."""
    a1, B1 = f1
    a2, B2 = f2
    (a3, b3), _ = _mul_with_content(L, (a1, _b_from_form(L, a1, B1)), (a2, _b_from_form(L, a2, B2)))
    return (a3, 2 * b3 + L.s)


def _is_reduced_raw(L: QuadraticField, f) -> bool:
    a, B = f
    t = L.sqrt_disc_floor
    bp = t - ((t - B) % (2 * a))
    return bp + t >= 2 * a


def _rho_raw(L: QuadraticField, f):
    """One reduction step (a, B) -> (a', B'), with the multiplier.

    The step realizes I = psi * I' with psi = (P + sqrt(D))/(2 a'), so a
    full walk accumulates the principal generator connecting the two
    ideals.  Returns ((a', B'), (P, a')).
    """
    a, B = f
    D = L.disc
    t = L.sqrt_disc_floor
    step = (B + t) // (2 * a)
    P = B - 2 * a * step
    c = (D - P * P) // (4 * a)
    a2 = abs(c)
    B2 = (-P) % (2 * a2)
    return (a2, B2), (P, a2)


def _reduce_raw(L: QuadraticField, f):
    for _ in range(10**6):
        if _is_reduced_raw(L, f):
            return f
        f, _ = _rho_raw(L, f)
    raise ConsistencyError("reduction did not terminate")  # pragma: no cover


def _cycle_raw(L: QuadraticField, f0):
    """The full rho-cycle through the reduced ideal f0."""
    out = [f0]
    f, _ = _rho_raw(L, f0)
    while f != f0:
        out.append(f)
        f, _ = _rho_raw(L, f)
        if len(out) > 10**6:  # pragma: no cover
            raise ConsistencyError("runaway reduction cycle")
    return out


def prime_ideal_above(L: QuadraticField, q: int) -> QuadIdeal:
    """The degree-one prime above a split rational prime q.

    Of the two conjugate primes, the one fixed by the smaller-root
    convention: b is derived from sqrt_mod(d, q) in [0, (q-1)/2].
    Inert and ramified primes are rejected.
    """
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    if L.disc % q == 0:
        raise ValueError(f"{q} ramifies in Q(sqrt({L.d}))")
    if arith.kronecker(L.disc, q) != 1:
        raise ValueError(f"{q} is inert in Q(sqrt({L.d}))")
    if q == 2:
        b = 0 if L.norm_element(0, 1) % 2 == 0 else 1
        return QuadIdeal(L, 2, b)
    r = arith.sqrt_mod(L.d % q, q)
    if r is None:
        raise ConsistencyError(f"{L.d} has no square root mod the split prime {q}")
    b = r if L.s == 0 else (r - 1) * pow(2, -1, q) % q
    return QuadIdeal(L, q, b % q)


def _prime_above_any(L: QuadraticField, p: int):
    """(a, bform) for a prime above p, split or ramified.  Inert rejected."""
    if arith.kronecker(L.disc, p) == -1:
        raise ValueError(f"{p} is inert")
    if L.disc % p and p > 2:
        ideal = prime_ideal_above(L, p)
        return (p, ideal.bform)
    for B in range(L.s, 2 * p, 2):
        if (B * B - L.disc) % (4 * p) == 0:
            return (p, B)
    raise ConsistencyError(f"no prime found above {p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# units


@dataclass(frozen=True)
class FundamentalUnit:
    """The fundamental unit e = x + y sqrt(d), normalized e > 1.

    x and y are integers or (for d = 1 mod 4) half-integers.  omega
    coordinates (e = u + v w, both integers) come along for modular
    work.
    """

    x: Fraction
    y: Fraction
    norm: int
    u: int
    v: int

    def residue(self, omega_res: int, q: int) -> int:
        return (self.u + self.v * omega_res) % q


@lru_cache(maxsize=arith.CACHE_MAXSIZE)
def fundamental_unit(L: QuadraticField) -> FundamentalUnit:
    """Fundamental unit by the continued fraction of w.

    Runs the classical P-Q iteration on (s + sqrt(D))/2 and reads the
    unit off the convergents at the first return of Q to 2; the norm is
    (-1)^(period length).
    """
    D = L.disc
    t = math.isqrt(D)
    p_cur, q_cur = L.s, 2
    g_prev, g_cur = -p_cur, q_cur  # G_{-2}, G_{-1}
    b_prev, b_cur = 1, 0  # B_{-2}, B_{-1}
    for i in range(10**7):
        ai = (p_cur + t) // q_cur
        g_prev, g_cur = g_cur, ai * g_cur + g_prev
        b_prev, b_cur = b_cur, ai * b_cur + b_prev
        p_next = ai * q_cur - p_cur
        q_next = (D - p_next * p_next) // q_cur
        if q_next == 2:
            G, Bc = g_cur, b_cur
            norm = -1 if (i + 1) % 2 else 1
            break
        p_cur, q_cur = p_next, q_next
    else:  # pragma: no cover
        raise ConsistencyError("unit search did not terminate")
    u = (G - L.s * Bc) // 2
    v = Bc
    if L.s:
        x, y = Fraction(G, 2), Fraction(Bc, 2)
    else:
        x, y = Fraction(G, 2), Fraction(Bc)  # sqrt(D) = 2 sqrt(d)
    if not (
        G * G - D * Bc * Bc == 4 * norm
        and L.norm_element(u, v) == norm
        and x * x - L.d * y * y == norm
    ):
        raise ConsistencyError(f"unit of Q(sqrt({L.d})) does not have norm {norm}")
    return FundamentalUnit(x=x, y=y, norm=norm, u=u, v=v)


# ---------------------------------------------------------------------------
# principality and the class group


def is_principal(L: QuadraticField, ideal: QuadIdeal):
    """Decide principality by walking the reduction cycle.

    Returns (True, (x, y)) with a generator x + y*w of the ideal, or
    (False, None).  The generator accumulates the step multipliers
    (P + sqrt(D))/(2a') along the walk, so it is exact.
    """
    if ideal.field != L:
        raise ValueError("ideal does not belong to the field")
    D = L.disc
    # generator of the primitive part as (x + y sqrt(D)) / den
    x, y, den = 1, 0, 1
    f = (ideal.a, ideal.bform)

    def step():
        nonlocal f, x, y, den
        f, (pmult, anew) = _rho_raw(L, f)
        x, y = x * pmult + y * D, x + y * pmult
        den *= 2 * anew

    guard = 0
    while not _is_reduced_raw(L, f):
        step()
        guard += 1
        if guard > 10**6:  # pragma: no cover
            raise ConsistencyError("principality walk did not terminate")
    start = f
    while f[0] != 1:
        step()
        if f == start:
            return False, None
        guard += 1
        if guard > 10**6:  # pragma: no cover
            raise ConsistencyError("principality walk did not terminate")
    gx = Fraction(x - L.s * y, den)
    gy = Fraction(2 * y, den)
    gen = (gx * ideal.scale, gy * ideal.scale)
    nrm = L.norm_element(gen[0], gen[1])
    if abs(nrm) != ideal.norm():
        raise ConsistencyError("generator norm mismatch")
    return True, gen


@dataclass(frozen=True)
class SylowData:
    p: int
    order: int
    divisors: tuple[int, ...]
    generator_coords: tuple[int, ...]
    w: int


@dataclass
class ClassGroup:
    """The (wide) ideal class group, as elementary divisors and generators.

    coords_of maps an ideal to its coordinate tuple with respect to the
    stored generators; the identity is the all-zero tuple.
    """

    field: QuadraticField
    order: int
    elementary_divisors: tuple[int, ...]
    generators: tuple[QuadIdeal, ...]
    _id_of: dict = field(repr=False, default_factory=dict)
    _class_coords: list = field(repr=False, default_factory=list)

    def coords_of(self, ideal: QuadIdeal) -> tuple[int, ...]:
        if ideal.field != self.field:
            raise ValueError("ideal from a different field")
        f = _reduce_raw(self.field, (ideal.a, ideal.bform))
        cid = self._id_of.get(f)
        if cid is None:  # pragma: no cover - closure covers the whole group
            raise ConsistencyError("reduced ideal missed by the class closure")
        return self._class_coords[cid]

    def identity_coords(self) -> tuple[int, ...]:
        return (0,) * len(self.elementary_divisors)

    def inverse_coords(self, coords) -> tuple[int, ...]:
        return tuple((-c) % m for c, m in zip(coords, self.elementary_divisors))

    def order_of(self, coords) -> int:
        return math.lcm(1, *(m // math.gcd(m, c) for c, m in zip(coords, self.elementary_divisors)))

    def p_sylow(self, p: int) -> SylowData:
        divisors = tuple(p ** _vp(m, p) for m in self.elementary_divisors if m % p == 0)
        w = sum(_vp(m, p) for m in divisors)
        gen = self.identity_coords()
        if divisors:
            # generator of the largest cyclic factor of the p-part
            idx = len(self.elementary_divisors) - 1
            m = self.elementary_divisors[idx]
            gen = tuple(
                (m // (p ** _vp(m, p)) if i == idx else 0) for i in range(len(self.elementary_divisors))
            )
        return SylowData(p=p, order=p**w, divisors=divisors, generator_coords=gen, w=w)


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=arith.CACHE_MAXSIZE)
def class_group(L: QuadraticField) -> ClassGroup:
    """Class group by factor-base closure plus Smith normal form.

    Prime ideals with norm up to the Minkowski bound sqrt(D)/2 generate
    the group; a breadth-first walk over their products, with reduction
    cycles as the equality test, enumerates every class and yields a
    generating set of relations.  The Smith form of those relations
    gives the invariant factors, coordinates for every class, and
    generator ideals whose orders are verified by explicit powering.
    """
    D = L.disc
    fb_primes = [p for p in arith.sieve_primes(math.isqrt(D) // 2) if arith.kronecker(D, p) != -1]
    fb = [_prime_above_any(L, p) for p in fb_primes]
    k = len(fb)

    unit_red = _reduce_raw(L, (1, L.s))
    id_of: dict[tuple[int, int], int] = {}
    class_vecs: list[tuple[int, ...]] = []
    class_reps: list[tuple[int, int]] = []

    def register(f_reduced, vec):
        cid = len(class_vecs)
        for g in _cycle_raw(L, f_reduced):
            id_of[g] = cid
        class_vecs.append(vec)
        class_reps.append(f_reduced)
        return cid

    register(unit_red, (0,) * k)
    relations: set[tuple[int, ...]] = set()
    queue = [0]
    while queue:
        cid = queue.pop()
        vec = class_vecs[cid]
        for i, g in enumerate(fb):
            red = _reduce_raw(L, _mul_raw(L, class_reps[cid], g))
            step = tuple(v + (1 if j == i else 0) for j, v in enumerate(vec))
            known = id_of.get(red)
            if known is None:
                queue.append(register(red, step))
            else:
                rel = tuple(x - y for x, y in zip(step, class_vecs[known]))
                if any(rel):
                    relations.add(rel)
    h = len(class_vecs)

    if k == 0:
        cg = ClassGroup(L, 1, (), ())
        cg._id_of = id_of
        cg._class_coords = [()] * h
        if h != 1:
            raise ConsistencyError(f"{h} classes but no factor-base prime")
        return cg

    rel_rows = sorted(relations)
    divisors_full, v_mat, v_inv = smith_normal_form(rel_rows, k)
    if math.prod(divisors_full) != h:
        raise ConsistencyError("relation lattice disagrees with class count")

    keep = [j for j, m in enumerate(divisors_full) if m > 1]
    divisors = tuple(divisors_full[j] for j in keep)

    def to_coords(vec):
        full = [sum(vec[i] * v_mat[i][j] for i in range(k)) % divisors_full[j] for j in range(k)]
        return tuple(full[j] for j in keep)

    coords = [to_coords(vec) for vec in class_vecs]

    generators = []
    for j in keep:
        f = (1, L.s)
        for i, e in enumerate(v_inv[j]):
            if e == 0:
                continue
            base = fb[i] if e > 0 else _conj_raw(L, fb[i])
            for _ in range(abs(e)):
                f = _reduce_raw(L, _mul_raw(L, f, base))
        a, bf = _reduce_raw(L, f)
        generators.append(QuadIdeal(L, a, _b_from_form(L, a, bf)))

    cg = ClassGroup(L, h, divisors, tuple(generators))
    cg._id_of = id_of
    cg._class_coords = coords
    _verify_generator_orders(L, cg)
    return cg


def _conj_raw(L: QuadraticField, f):
    a, B = f
    return (a, (-B) % (2 * a))


def _verify_generator_orders(L: QuadraticField, cg: ClassGroup):
    for gen, m in zip(cg.generators, cg.elementary_divisors):
        base = (gen.a, gen.bform)
        acc = (1, L.s)
        for step in range(1, m + 1):
            acc = _reduce_raw(L, _mul_raw(L, acc, base))
            principal = _cycle_contains_unit(L, acc)
            if step < m and principal and m % step == 0:
                raise ConsistencyError(f"generator order {step}, declared {m}")
            if step == m and not principal:
                raise ConsistencyError(f"generator does not have order {m}")


def _cycle_contains_unit(L: QuadraticField, f_reduced) -> bool:
    return any(g[0] == 1 for g in _cycle_raw(L, f_reduced))
