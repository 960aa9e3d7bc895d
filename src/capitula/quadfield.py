"""Real quadratic fields: integers, units, ideals, and the class group.

A field Q(sqrt(d)) is carried around as its discriminant D and the
standard generator w of the maximal order: w = sqrt(d) for d = 2, 3
(mod 4) and w = (1 + sqrt(d))/2 for d = 1 (mod 4).  Uniformly,
w = (s + sqrt(D))/2 with s = D mod 2.

Ideals are Z-modules scale * (Z a + Z (b + w)).  Internally we often
work with the pair (a, B) where B = 2 b + s, because the reduction
theory (the continued-fraction walk on reduced ideals) is cleanest in
that coordinate: the ideal is [a, (B + sqrt(D))/2] and validity means
B^2 = D (mod 4a).  Two ideals multiply in closed form by Dirichlet
composition of forms, _compose, with no lattice reduction.

Everything is exact.  Class groups are found by growing one subgroup
over the classes of the factor-base primes below the Minkowski bound,
with equivalence decided by reduction cycles: each prime outside the
subgroup adjoins its cosets and one relation, and the square,
lower-triangular relation matrix is put in Smith normal form.  Its
transform V gives every class its coordinates, and the generators are
the registered representatives of the unit-vector classes.  No
analytic input, no GRH.  One walk, _walk, carries the principal
multiplier along the reduction steps in integral w-coordinates;
is_principal reads a generator off it and fundamental_unit reads the
unit off the cycle of the unit ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import arith
from .errors import ConsistencyError
from .linalg import smith_normal_form

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


def desk_disc(d: int) -> int:
    """The discriminant of Q(sqrt(d)) for an integer d >= 2 whose
    discriminant is at most DESK_DISC_BOUND; ValueError otherwise.
    d is not factored, so a huge d is refused at once."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"need an integer d >= 2, got {d!r}")
    disc = d if d % 4 == 1 else 4 * d
    if disc > DESK_DISC_BOUND:
        raise ValueError(f"disc {disc} is above the desk bound {DESK_DISC_BOUND}")
    return disc


def make_field(d: int) -> QuadraticField:
    """Build Q(sqrt(d)).  d must be a squarefree integer >= 2 whose
    discriminant is at most DESK_DISC_BOUND; the bound is checked by
    desk_disc before d is factored."""
    disc = desk_disc(d)
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
        (a3, B3), g = _compose(self.field, (self.a, self.bform), (other.a, other.bform))
        b3 = _b_from_form(self.field, a3, B3)
        return QuadIdeal(self.field, a3, b3, self.scale * other.scale * g)

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


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x a + y b, for a > 0 and b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _compose(L: QuadraticField, f1, f2):
    """Product of two primitive ideals f_i = [a_i, (B_i + sqrt(D))/2], B_i >= 0,
    by Dirichlet composition of forms (Cohen, GTM 138, section 5.4).

    Returns ((a3, B3), g) with f1 f2 = g [a3, (B3 + sqrt(D))/2]:
    g = gcd(a1, a2, (B1 + B2)/2) = u a1 + v a2 + w (B1 + B2)/2,
    a3 = a1 a2 / g^2 and
    B3 = (u a1 B2 + v a2 B1 + w (B1 B2 + D)/2) / g mod 2 a3.
    B3^2 = D mod 4 a3 makes the result an ideal of norm a3; B3 = B_i
    mod 2 a_i / g makes it the product of f1 and f2, not another ideal
    of that norm.
    """
    a1, B1 = f1
    a2, B2 = f2
    D = L.disc
    g1, x, y = _xgcd(a1, a2)
    g, z, w = _xgcd(g1, (B1 + B2) // 2)
    u, v = z * x, z * y
    a3 = a1 * a2 // (g * g)
    B3 = (u * a1 * B2 + v * a2 * B1 + w * ((B1 * B2 + D) // 2)) // g % (2 * a3)
    if (B3 * B3 - D) % (4 * a3):
        raise ConsistencyError(f"{f1} * {f2} is not an ideal of the maximal order")
    if (B3 - B1) % (2 * a1 // g) or (B3 - B2) % (2 * a2 // g):
        raise ConsistencyError(f"{f1} * {f2} gave {(a3, B3)}, not their product")
    return (a3, B3), g


def _is_reduced_raw(L: QuadraticField, f) -> bool:
    a, B = f
    t = L.sqrt_disc_floor
    bp = t - ((t - B) % (2 * a))
    return bp + t >= 2 * a


def _rho_raw(L: QuadraticField, f):
    """One reduction step (a, B) -> (a', B'), with P.

    The step realizes I = psi * I' with psi = (P + sqrt(D))/(2 a');
    _walk accumulates these multipliers.  Returns ((a', B'), P).
    """
    a, B = f
    D = L.disc
    t = L.sqrt_disc_floor
    step = (B + t) // (2 * a)
    P = B - 2 * a * step
    c = (D - P * P) // (4 * a)
    a2 = abs(c)
    B2 = (-P) % (2 * a2)
    return (a2, B2), P


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


def _walk(L: QuadraticField, f):
    """The rho-walk from the primitive ideal I_0 = f = (a, B), with the
    principal multiplier in integral w-coordinates.

    Yields (f_k, u, v) for k = 0, 1, ... with I_0 = ((u + v w)/a_k) I_k,
    where a_k = f_k[0]; it starts at (f, a, 0).  A step multiplies by
    (P - s)/2 + w = (P + sqrt(D))/2, which lies in I_k, and divides by
    a_k.  The division is exact: a_k is in I_k, so u + v w is in I_0,
    and its product with an element of I_k lies in a_k I_0, inside
    a_k O.  The step is `_rho_raw`'s, inlined.
    """
    s, nw, D, t = L.s, L.norm_omega(), L.disc, L.sqrt_disc_floor
    a, B = f
    u, v = a, 0
    yield f, u, v
    for _ in range(10**6):
        P = B - 2 * a * ((B + t) // (2 * a))
        h = (P - s) // 2
        # (u + v w)(h + w) with w^2 = s w - N(w)
        u, v = (u * h - v * nw) // a, (u + v * (h + s)) // a
        a = abs((D - P * P) // (4 * a))
        B = -P % (2 * a)
        yield (a, B), u, v
    raise ConsistencyError("reduction walk did not terminate")  # pragma: no cover


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
    """Fundamental unit, read off the rho-cycle of reduced principal
    ideals.

    Once round the cycle from O = (1, s) back to O, the walk gives
    O = (u + v w) O, so u + v w is a unit; the cycle meets each reduced
    principal ideal once, so it is +-e or +-1/e for the fundamental
    unit e.  Exact sign tests turn it into e > 1: for a unit
    g = u + v w with conjugate g', g^2 - g'^2 = (2u + s v) v sqrt(D), so
    |g| > 1 iff v (2u + s v) > 0, and then g has the sign of 2u + s v.
    """
    steps = _walk(L, (1, L.s))
    next(steps)
    _, u, v = next(step for step in steps if step[0][0] == 1)
    if v * (2 * u + L.s * v) < 0:
        u, v = u + L.s * v, -v  # the conjugate, which is +-1/g
    if 2 * u + L.s * v < 0:
        u, v = -u, -v
    norm = L.norm_element(u, v)
    if abs(norm) != 1:
        raise ConsistencyError(f"unit of Q(sqrt({L.d})) has norm {norm}")
    x = Fraction(2 * u + L.s * v, 2)
    y = Fraction(v, 2) if L.s else Fraction(v)  # w = (1 + sqrt(d))/2 or sqrt(d)
    return FundamentalUnit(x=x, y=y, norm=norm, u=u, v=v)


# ---------------------------------------------------------------------------
# principality and the class group


def is_principal(L: QuadraticField, ideal: QuadIdeal):
    """Decide principality by walking the reduction cycle.

    Returns (True, (x, y)) with a generator x + y*w of the ideal, or
    (False, None).  The walk reduces the primitive part and goes round
    its cycle; the ideal is principal iff the cycle meets O (a_k = 1),
    where the walk's u + v w generates the primitive part exactly.
    """
    if ideal.field != L:
        raise ValueError("ideal does not belong to the field")
    steps = _walk(L, (ideal.a, ideal.bform))
    start, u, v = next(step for step in steps if _is_reduced_raw(L, step[0]))
    f = start
    while f[0] != 1:
        f, u, v = next(steps)
        if f == start:
            return False, None
    gen = (u * ideal.scale, v * ideal.scale)
    if abs(L.norm_element(*gen)) != ideal.norm():
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
    stored generators; the identity is the all-zero tuple.  Coordinates
    depend on the Smith transform V; least_form names a class by the
    least reduced (a, B) on its reduction cycle, which no V moves.
    """

    field: QuadraticField
    order: int
    elementary_divisors: tuple[int, ...]
    generators: tuple[QuadIdeal, ...]
    _id_of: dict = field(repr=False)
    _class_coords: list = field(repr=False)
    _least_of: dict = field(repr=False)

    def coords_of(self, ideal: QuadIdeal) -> tuple[int, ...]:
        if ideal.field != self.field:
            raise ValueError("ideal from a different field")
        f = _reduce_raw(self.field, (ideal.a, ideal.bform))
        cid = self._id_of.get(f)
        if cid is None:  # pragma: no cover - the factor base generates the group
            raise ConsistencyError("reduced ideal missed by the class group")
        return self._class_coords[cid]

    def least_form(self, coords) -> tuple[int, int]:
        """The least reduced (a, B) on the reduction cycle of the class
        with these coordinates, taken mod the elementary divisors."""
        if len(coords) != len(self.elementary_divisors):
            raise ValueError(f"coordinates {coords} do not fit divisors {self.elementary_divisors}")
        return self._least_of[tuple(c % m for c, m in zip(coords, self.elementary_divisors))]

    def identity_coords(self) -> tuple[int, ...]:
        return (0,) * len(self.elementary_divisors)

    def inverse_coords(self, coords) -> tuple[int, ...]:
        return tuple((-c) % m for c, m in zip(coords, self.elementary_divisors))

    def order_of(self, coords) -> int:
        return math.lcm(1, *(m // math.gcd(m, c) for c, m in zip(coords, self.elementary_divisors)))

    def p_sylow(self, p: int) -> SylowData:
        divisors = tuple(p ** arith.valuation(m, p) for m in self.elementary_divisors if m % p == 0)
        w = sum(arith.valuation(m, p) for m in divisors)
        gen = self.identity_coords()
        if divisors:
            # a class of the largest p-power order generates a cyclic factor
            # of the p-part of the largest order; of these classes, take the
            # one whose reduced cycle holds the least (a, B), a choice that
            # does not depend on the transform V
            top = [c for c in self._class_coords if self.order_of(c) == divisors[-1]]
            gen = min(top, key=self._least_of.__getitem__)
        return SylowData(p=p, order=p**w, divisors=divisors, generator_coords=gen, w=w)


@lru_cache(maxsize=arith.CACHE_MAXSIZE)
def class_group(L: QuadraticField) -> ClassGroup:
    """Class group by one growing subgroup plus Smith normal form.

    Prime ideals with norm up to the Minkowski bound sqrt(D)/2 generate
    the group.  They are taken in turn into a subgroup H, with reduction
    cycles as the equality test: a prime whose class H holds is skipped;
    otherwise it becomes generator g_j, and its cosets g H, g^2 H, ...
    are registered until the reduced g^o lands in H, which gives the one
    relation o e_j - vec(g^o) (baby-step subgroup growth, Buchmann,
    Jacobson and Teske, Math. Comp. 66, 1997).  Every class is
    registered once, with a reduced representative, the least (a, B) on
    its cycle and an exponent vector over the adjoined generators.  The
    relation matrix is square and lower triangular, its diagonal
    product is h, and it has at most log2 h columns.  Its Smith form
    gives the invariant factors d_j and the transform V; a class has
    coordinates vec V mod d_j.  No two
    classes may share their coordinates.  Generator j is the registered
    representative of the class whose coordinates are the j-th unit
    vector, and its order is verified by explicit powering.
    """
    D = L.disc
    fb_primes = [p for p in arith.iter_primes(math.isqrt(D) // 2) if arith.kronecker(D, p) != -1]

    id_of: dict[tuple[int, int], int] = {}
    class_vecs: list[tuple[int, ...]] = []
    class_reps: list[tuple[int, int]] = []
    class_least: list[tuple[int, int]] = []

    def register(f_reduced, vec):
        cycle = _cycle_raw(L, f_reduced)
        for g in cycle:
            id_of[g] = len(class_vecs)
        class_vecs.append(vec)
        class_reps.append(f_reduced)
        class_least.append(min(cycle))

    register(_reduce_raw(L, (1, L.s)), ())
    relations = []
    for p in fb_primes:
        g = _reduce_raw(L, _prime_above_any(L, p))
        if g in id_of:
            continue
        # vectors of H over g_0, ..., g_{j-1}, zero-padded; the coset g^o H
        # extends them by o
        j, size, power, o = len(relations), len(class_vecs), g, 1
        class_vecs[:] = [vec + (0,) * (j - len(vec)) for vec in class_vecs]
        while power not in id_of:
            for rep, vec in zip(class_reps[:size], class_vecs[:size]):
                register(_reduce_raw(L, _compose(L, rep, power)[0]), vec + (o,))
            power, o = _reduce_raw(L, _compose(L, power, g)[0]), o + 1
        relations.append(tuple(-x for x in class_vecs[id_of[power]]) + (o,))
    k = len(relations)
    h = len(class_vecs)

    divisors_full, v_mat = smith_normal_form([rel + (0,) * (k - len(rel)) for rel in relations])
    if math.prod(divisors_full) != h:
        raise ConsistencyError("relation lattice disagrees with class count")

    keep = [j for j, m in enumerate(divisors_full) if m > 1]
    divisors = tuple(divisors_full[j] for j in keep)
    coords = [
        tuple(sum(x * v_mat[i][j] for i, x in enumerate(vec)) % divisors_full[j] for j in keep)
        for vec in class_vecs
    ]
    cid_of = {c: cid for cid, c in enumerate(coords)}
    if len(cid_of) != h:
        raise ConsistencyError("two classes share their coordinates")
    generators = []
    for j in range(len(keep)):
        a, bf = class_reps[cid_of[tuple(int(i == j) for i in range(len(keep)))]]
        generators.append(QuadIdeal(L, a, _b_from_form(L, a, bf)))

    least_of = dict(zip(coords, class_least))
    cg = ClassGroup(L, h, divisors, tuple(generators), id_of, coords, least_of)
    _verify_generator_orders(L, cg)
    return cg


def _verify_generator_orders(L: QuadraticField, cg: ClassGroup):
    for gen, m in zip(cg.generators, cg.elementary_divisors):
        base = (gen.a, gen.bform)
        acc = (1, L.s)
        for step in range(1, m + 1):
            acc = _reduce_raw(L, _compose(L, acc, base)[0])
            principal = _cycle_contains_unit(L, acc)
            if step < m and principal and m % step == 0:
                raise ConsistencyError(f"generator order {step}, declared {m}")
            if step == m and not principal:
                raise ConsistencyError(f"generator does not have order {m}")


def _cycle_contains_unit(L: QuadraticField, f_reduced) -> bool:
    return any(g[0] == 1 for g in _cycle_raw(L, f_reduced))
