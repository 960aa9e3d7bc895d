"""Oracle tests for the quadratic-field engine.

The class-number oracle counts cycles of reduced ideals under the
continued-fraction map, written here from scratch; the library computes
the same number through factor-base closure and Smith normal form, so
agreement is a genuine two-route check.  The unit oracle combines a
literal Pell scan (small solutions), an exact not-a-proper-power test
(all solutions), a frozen table of spot values, and the classical P-Q
continued fraction of w, which reads the unit off the convergents
where the library multiplies along the cycle of reduced principal
ideals.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from capitula import quadfield
from capitula.arith import CACHE_MAXSIZE, factorize, is_squarefree, iter_primes, kronecker
from capitula.cyclotomic import make_subfield
from capitula.errors import ConsistencyError
from capitula.linalg import det_bareiss, hnf_rows, smith_normal_form
from capitula.quadfield import (
    DESK_DISC_BOUND,
    QuadIdeal,
    class_group,
    fundamental_unit,
    is_principal,
    make_field,
    prime_ideal_above,
)

SQUAREFREE_500 = [d for d in range(2, 501) if is_squarefree(d)]


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_class_number(D):
    """Wide class number of discriminant D by cycle counting.

    Collect every reduced ideal [a, (B + sqrt(D))/2] (the textbook
    band max(1, t-2a+1, 2a-t) <= B <= t with B^2 = D mod 4a) and
    partition them into orbits of the continued-fraction step
    B' = 2a*floor((B+t)/(2a)) - B, a' = (D - B'^2)/(4a).
    """
    t = math.isqrt(D)
    reduced = set()
    a = 1
    while 2 * a <= 2 * t + 1:  # beyond a > t the band is empty
        lo = max(1, t - 2 * a + 1, 2 * a - t)
        for B in range(lo, t + 1):
            if (B * B - D) % (4 * a) == 0:
                reduced.add((a, B))
        a += 1

    def step(f):
        a, B = f
        B2 = 2 * a * ((B + t) // (2 * a)) - B
        return ((D - B2 * B2) // (4 * a), B2)

    cycles = 0
    seen = set()
    for f in sorted(reduced):
        if f in seen:
            continue
        cycles += 1
        g = f
        while g not in seen:
            seen.add(g)
            g = step(g)
            assert g in reduced, (D, f, g)
    return cycles


def oracle_pell_scan(D, u_cap):
    """Smallest (T, U) with T^2 - D U^2 = +-4, U >= 1, or None."""
    for U in range(1, u_cap + 1):
        base = D * U * U
        for delta in (-4, 4):  # smaller T first: same U, norm -1 beats +1
            T2 = base + delta
            if T2 > 0:
                T = math.isqrt(T2)
                if T * T == T2:
                    return T, U
    return None


def oracle_unit_continued_fraction(L):
    """(u, v, norm) of the fundamental unit u + v w > 1, by the P-Q
    iteration on (s + sqrt(D))/2: the unit is read off the convergents
    G/B at the first return of Q to 2, and the norm is
    (-1)^(period length)."""
    D = L.disc
    t = math.isqrt(D)
    p_cur, q_cur = L.s, 2
    g_prev, g_cur = -p_cur, q_cur  # G_{-2}, G_{-1}
    b_prev, b_cur = 1, 0  # B_{-2}, B_{-1}
    i = 0
    while True:
        ai = (p_cur + t) // q_cur
        g_prev, g_cur = g_cur, ai * g_cur + g_prev
        b_prev, b_cur = b_cur, ai * b_cur + b_prev
        p_cur = ai * q_cur - p_cur
        q_cur = (D - p_cur * p_cur) // q_cur
        i += 1
        if q_cur == 2:
            return (g_cur - L.s * b_cur) // 2, b_cur, -1 if i % 2 else 1


def unit_is_proper_power(L, eps):
    """True if eps = eta^k for a unit eta of L and some k >= 2.

    Any unit > 1 is a power of the fundamental one, so failing this
    test for every k certifies minimality.  The candidate eta is read
    off the real k-th root (its conjugate is +-1/eta, which pins down
    both omega coordinates), then confirmed by exact powering.
    """
    nw = L.norm_omega()

    def power(u, v, k):
        pu, pv = 1, 0
        for _ in range(k):
            pu, pv = pu * u - pv * v * nw, pu * v + pv * u + pv * v * L.s
        return pu, pv

    with mpmath.workprec(400):
        sq = mpmath.sqrt(L.disc)
        w = (L.s + sq) / 2
        r = mpmath.mpf(eps.u) + mpmath.mpf(eps.v) * w
        kmax = int(mpmath.log(r) / mpmath.log(mpmath.mpf("1.6"))) + 2
        for k in range(2, kmax):
            root = mpmath.root(r, k)
            for sign in (1, -1):
                vcand = int(mpmath.nint((root - sign / root) / sq))
                ucand = int(mpmath.nint(root - vcand * w))
                if vcand < 1 or abs(L.norm_element(ucand, vcand)) != 1:
                    continue
                if power(ucand, vcand, k) == (eps.u, eps.v):
                    return True
    return False


def oracle_product(L, f1, f2):
    """((a3, B3), content) of the product of the primitive ideals
    f_i = [a_i, (B_i + sqrt(D))/2], read off the Hermite normal form of
    the four products of their Z-generators a_i and b_i + w, in
    (w, 1) coordinates (w^2 = s w - N(w))."""
    (a1, B1), (a2, B2) = f1, f2
    b1, b2 = (B1 - L.s) // 2, (B2 - L.s) // 2
    rows = [
        [0, a1 * a2],
        [a1, a1 * b2],
        [a2, a2 * b1],
        [b1 + b2 + L.s, b1 * b2 - L.norm_omega()],
    ]
    (content, bc), (zero, aa) = hnf_rows(rows)
    assert zero == 0 and aa % content == 0 and bc % content == 0
    a3 = aa // content
    return (a3, (2 * (bc // content) + L.s) % (2 * a3)), content


def random_primitive_ideal(L, rng, amax):
    """(a, B) of a random primitive ideal of norm a < amax."""
    while True:
        a = rng.randrange(1, amax)
        forms = [B for B in range(L.s, 2 * a, 2) if (B * B - L.disc) % (4 * a) == 0]
        if forms:
            return a, rng.choice(forms)


# frozen fundamental units x + y sqrt(d), from the Pell oracle where it
# reaches and standard tables where it does not
FROZEN_UNITS = {
    2: (Fraction(1), Fraction(1)),
    5: (Fraction(1, 2), Fraction(1, 2)),
    10: (Fraction(3), Fraction(1)),
    79: (Fraction(80), Fraction(9)),
    94: (Fraction(2143295), Fraction(221064)),
    199: (Fraction(16266196520), Fraction(1153080099)),
}


# ---------------------------------------------------------------------------
# fields and units


def test_make_field_validation(monkeypatch):
    with pytest.raises(ValueError):
        make_field(12)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(-7)
    assert make_field(5).disc == 5
    assert make_field(79).disc == 316
    assert make_field(79).s == 0
    assert make_field(5).s == 1
    with pytest.raises(ValueError, match="desk bound"):
        make_field(10**7 + 19)
    # the desk bound is checked before d is factored: a 200-digit d
    # never reaches the squarefree test
    def no_factoring(n):
        raise AssertionError("make_field factored an out-of-range d")

    monkeypatch.setattr(quadfield.arith, "is_squarefree", no_factoring)
    with pytest.raises(ValueError, match="desk bound"):
        make_field(10**199 + 7)


def test_fundamental_unit_small_pell_scan():
    # where the literal scan reaches, the unit must match it exactly
    for d in SQUAREFREE_500:
        if d > 200:
            break
        L = make_field(d)
        eps = fundamental_unit(L)
        T, U = 2 * eps.u + L.s * eps.v, eps.v
        assert T * T - L.disc * U * U == 4 * eps.norm
        found = oracle_pell_scan(L.disc, u_cap=1000)
        if found is not None:
            assert (T, U) == found, d
        assert eps.u >= 0 and eps.v >= 1  # normalized > 1


def test_fundamental_unit_never_a_proper_power():
    for d in SQUAREFREE_500:
        if d > 200:
            break
        L = make_field(d)
        assert not unit_is_proper_power(L, fundamental_unit(L)), d


def test_fundamental_unit_matches_continued_fraction():
    rng = random.Random(20261018)
    sample = []
    while len(sample) < 200:
        d = rng.randrange(3000, DESK_DISC_BOUND)
        if (d if d % 4 == 1 else 4 * d) <= DESK_DISC_BOUND and is_squarefree(d):
            sample.append(d)
    for d in [*filter(is_squarefree, range(2, 3000)), *sample]:
        L = make_field(d)
        eps = fundamental_unit(L)
        assert (eps.u, eps.v, eps.norm) == oracle_unit_continued_fraction(L), d


def test_fundamental_unit_frozen_table():
    for d, (x, y) in FROZEN_UNITS.items():
        eps = fundamental_unit(make_field(d))
        assert (eps.x, eps.y) == (x, y), d


def test_unit_residue_reduction():
    L = make_field(79)
    eps = fundamental_unit(L)
    # omega = sqrt(79) = 1 mod 13 on the chosen prime above 13
    assert eps.residue(1, 13) == (80 + 9 * 1) % 13


# ---------------------------------------------------------------------------
# class numbers


def test_class_number_matches_cycle_oracle():
    for d in SQUAREFREE_500:
        L = make_field(d)
        assert class_group(L).order == oracle_class_number(L.disc), d


def test_per_field_caches_are_bounded():
    # a survey computes one class group per d in its range; the caches
    # must not grow with the range
    for fn in (class_group, fundamental_unit, make_subfield):
        assert fn.cache_info().maxsize == CACHE_MAXSIZE, fn.__name__


def test_class_number_spot_values():
    assert class_group(make_field(79)).order == 3
    assert class_group(make_field(10)).order == 2
    assert class_group(make_field(142)).order == 3
    assert class_group(make_field(79)).elementary_divisors == (3,)
    # no factor-base prime below sqrt(D)/2: an empty relation matrix
    for d in (2, 3, 5, 13):
        L = make_field(d)
        cg = class_group(L)
        assert (cg.order, cg.elementary_divisors, cg.generators) == (1, (), ()), d
        assert cg.coords_of(QuadIdeal(L, 1, 0)) == (), d


def test_class_group_structure_consistency():
    for d in (79, 142, 223, 229, 235, 399, 485, 32009):
        cg = class_group(make_field(d))
        assert cg.order == math.prod(cg.elementary_divisors or (1,))
        for i, (gen, m) in enumerate(zip(cg.generators, cg.elementary_divisors)):
            coords = cg.coords_of(gen)
            expected = tuple(1 if j == i else 0 for j in range(len(cg.elementary_divisors)))
            assert coords == expected
            assert cg.order_of(coords) == m
    # the smallest real quadratic field of 3-rank 2
    cg = class_group(make_field(32009))
    assert cg.elementary_divisors == (3, 3)
    assert cg.order == oracle_class_number(32009) == 9


# coords_of(prime above q) for every split q < 60, frozen: a change of
# the Smith transform V changes these, and they reach the records as
# class_coords and matched_inverse
SPLIT_PRIME_COORDS = {
    79: {3: (2,), 5: (1,), 7: (1,), 13: (1,), 43: (0,), 47: (1,), 59: (1,)},
    142: {3: (2,), 7: (1,), 13: (1,), 19: (2,), 23: (2,), 31: (1,), 43: (2,), 47: (1,), 53: (0,)},
    223: {3: (2,), 11: (1,), 17: (1,), 23: (2,), 29: (1,), 37: (1,), 41: (1,), 53: (2,), 59: (2,)},
    229: {3: (1,), 5: (1,), 11: (1,), 17: (1,), 19: (2,), 37: (0,), 43: (2,), 53: (0,)},
    235: {3: (1,), 7: (5,), 11: (2,), 13: (1,), 19: (2,), 31: (2,)},
    399: {5: (0, 3), 11: (1, 1), 13: (1, 3), 17: (0, 1), 23: (1, 3), 29: (1, 0), 53: (1, 0), 59: (0, 2)},
    485: {7: (1,), 11: (0,), 13: (1,), 17: (1,), 23: (1,), 31: (0,), 37: (1,)},
    32009: {2: (2, 2), 5: (1, 2), 13: (1, 2), 17: (0, 2), 23: (0, 1), 29: (1, 1), 37: (0, 2), 43: (0, 1), 47: (1, 1)},
}


def test_split_prime_coords_are_pinned():
    for d, expected in SPLIT_PRIME_COORDS.items():
        L = make_field(d)
        cg = class_group(L)
        split = [q for q in iter_primes(59) if L.disc % q and kronecker(L.disc, q) == 1]
        assert {q: cg.coords_of(prime_ideal_above(L, q)) for q in split} == expected, d


def _assert_smith_laws(a, k):
    divisors, v = smith_normal_form(a, k)
    assert len(divisors) == k and all(m > 0 for m in divisors)
    assert all(divisors[i + 1] % divisors[i] == 0 for i in range(k - 1))
    assert len(v) == k and abs(det_bareiss(v)) == 1
    av = [[sum(row[i] * v[i][j] for i in range(k)) for j in range(k)] for row in a]
    diag = [[m if i == j else 0 for j in range(k)] for i, m in enumerate(divisors)]
    assert hnf_rows(av) == hnf_rows(diag)


def test_smith_normal_form_laws(monkeypatch):
    _assert_smith_laws([], 0)
    # the relation matrices class_group builds, among them that of the
    # smallest real quadratic field of 3-rank 2
    seen = []

    def record(rows, k):
        seen.append((rows, k))
        return smith_normal_form(rows, k)

    monkeypatch.setattr(quadfield, "smith_normal_form", record)
    class_group.cache_clear()
    for d in (79, 235, 399, 32009):
        class_group(make_field(d))
    assert len(seen) == 4 and seen[-1][1] > 2
    for rows, k in seen:
        _assert_smith_laws(rows, k)
    with pytest.raises(ValueError, match="fewer relations"):
        smith_normal_form([[1, 0]], 2)


def test_classes_sharing_coordinates_trip_the_check(monkeypatch):
    def zero_transform(rows, k):
        divisors, v = smith_normal_form(rows, k)
        return divisors, [[0] * k for _ in range(k)]

    monkeypatch.setattr(quadfield, "smith_normal_form", zero_transform)
    class_group.cache_clear()
    with pytest.raises(ConsistencyError, match="two classes share their coordinates"):
        class_group(make_field(79))


def test_p_sylow_data():
    cg = class_group(make_field(79))
    syl = cg.p_sylow(3)
    assert (syl.order, syl.w, syl.divisors) == (3, 1, (3,))
    assert cg.order_of(syl.generator_coords) == 3
    assert class_group(make_field(2)).p_sylow(3).order == 1
    # Sylow orders multiply back to h, one exact p-power each
    for d in (142, 226, 485):
        cg = class_group(make_field(d))
        prod = 1
        for p in set(factorize(cg.order)):
            syl = cg.p_sylow(p)
            assert syl.order == p**syl.w
            assert cg.order % syl.order == 0
            assert cg.order % (syl.order * p) != 0
            prod *= syl.order
        assert prod == cg.order


# ---------------------------------------------------------------------------
# ideals


def test_prime_ideal_above_laws():
    for d in (2, 10, 79, 142, 229):
        L = make_field(d)
        for q in iter_primes(60):
            if L.disc % q == 0 or kronecker(L.disc, q) != 1:
                continue
            frak = prime_ideal_above(L, q)
            assert frak.norm() == q
            conj = frak.conjugate()
            prod = frak * conj
            assert prod.norm() == q * q
            assert (prod.a, prod.b) == (1, 0)  # q * O_L: primitive part trivial
            assert prod.scale == q


def test_prime_ideal_above_rejects_bad_primes():
    L = make_field(79)
    with pytest.raises(ValueError):
        prime_ideal_above(L, 79)  # ramified
    with pytest.raises(ValueError):
        prime_ideal_above(L, 11)  # inert: kronecker(316, 11) = -1
    with pytest.raises(ValueError):
        prime_ideal_above(L, 15)  # not prime


def test_ideal_norm_multiplicative():
    L = make_field(79)
    split = [
        prime_ideal_above(L, q)
        for q in iter_primes(50)
        if L.disc % q and kronecker(L.disc, q) == 1
    ]
    for I in split:
        for J in split:
            assert (I * J).norm() == I.norm() * J.norm()


def test_compose_matches_hnf_product():
    # all pairs, squares f * f included, from a pool per random field;
    # half the pool has small norms, so norms often share a factor
    rng = random.Random(20261019)
    shared = contents = 0
    for _ in range(200):
        d = rng.randrange(2, 200_000)
        if not is_squarefree(d):
            continue
        L = make_field(d)
        pool = [random_primitive_ideal(L, rng, amax) for amax in (30, 30, 30, 400, 400, 400)]
        pool.append((pool[0][0], -pool[0][1] % (2 * pool[0][0])))  # a conjugate
        for f1 in pool:
            for f2 in pool:
                got = quadfield._compose(L, f1, f2)
                assert got == oracle_product(L, f1, f2), (d, f1, f2)
                shared += math.gcd(f1[0], f2[0]) > 1
                contents += got[1] > 1
    assert shared > 500 and contents > 500, (shared, contents)
    # fractional ideals: the product carries scale * scale * content
    L = make_field(79)
    for I, J in (
        (QuadIdeal(L, 3, 1, Fraction(2, 3)), QuadIdeal(L, 3, 1, Fraction(5, 7))),
        (QuadIdeal(L, 3, 1, Fraction(1, 4)), QuadIdeal(L, 3, 2, Fraction(9))),
        (QuadIdeal(L, 21, 10, Fraction(3, 5)), QuadIdeal(L, 7, 4, Fraction(1, 2))),
    ):
        (a3, B3), content = oracle_product(L, (I.a, I.bform), (J.a, J.bform))
        K = I * J
        assert (K.a, K.bform, K.scale) == (a3, B3, I.scale * J.scale * content)
        assert K.norm() == I.norm() * J.norm()


def test_compose_raises_on_wrong_bezout_coefficients(monkeypatch):
    # perturbed Bezout coefficients give a B3 with B3^2 != D mod 4 a3:
    # the closed-form product must refuse it, not return a non-ideal
    real = quadfield._xgcd

    def off_by_one(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    L = make_field(79)
    I, J = prime_ideal_above(L, 5), prime_ideal_above(L, 7)
    assert (I * J).norm() == 35
    monkeypatch.setattr(quadfield, "_xgcd", off_by_one)
    with pytest.raises(ConsistencyError, match="not an ideal of the maximal order"):
        I * J


def test_compose_raises_on_a_wrong_product_of_the_right_norm(monkeypatch):
    # with the same perturbation, q3 * q7 and q3 * q7' come out as
    # B3 = 34 and 22: ideals of norm 21 (B3^2 = D mod 84), but not the
    # products (B3 = 20 and 8), which B3 = B_i mod 2 a_i / g tells apart
    real = quadfield._xgcd

    def off_by_one(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    L = make_field(79)
    I, J = prime_ideal_above(L, 3), prime_ideal_above(L, 7)
    assert [(I * K).bform for K in (J, J.conjugate())] == [20, 8]
    assert all((B3 * B3 - L.disc) % 84 == 0 for B3 in (34, 22))
    monkeypatch.setattr(quadfield, "_xgcd", off_by_one)
    for K in (J, J.conjugate()):
        with pytest.raises(ConsistencyError, match="not their product"):
            I * K


def test_ideal_power_consistency():
    L = make_field(142)
    frak = prime_ideal_above(L, 7)
    assert frak**3 == frak * frak * frak
    assert (frak**2).norm() == 49
    inv = frak**-1
    assert (frak * inv).a == 1 and (frak * inv).scale == 1


def test_class_coords_of_conjugate_is_inverse():
    for d in (79, 142, 235):
        L = make_field(d)
        cg = class_group(L)
        for q in (3, 5, 7, 13):
            if L.disc % q == 0 or kronecker(L.disc, q) != 1:
                continue
            frak = prime_ideal_above(L, q)
            assert cg.coords_of(frak.conjugate()) == cg.inverse_coords(cg.coords_of(frak))


def test_is_principal_agrees_with_class_group():
    for d in (79, 10, 142, 2, 235):
        L = make_field(d)
        cg = class_group(L)
        for q in iter_primes(40):
            if L.disc % q == 0 or kronecker(L.disc, q) != 1:
                continue
            frak = prime_ideal_above(L, q)
            principal, gen = is_principal(L, frak)
            assert principal == (cg.coords_of(frak) == cg.identity_coords()), (d, q)
            if principal:
                x, y = gen
                assert x.denominator == 1 and y.denominator == 1
                assert abs(L.norm_element(x, y)) == q
                # membership: x + y w = c1 * a + c2 * (b + w)
                assert (int(x) - int(y) * frak.b) % frak.a == 0


def test_is_principal_generator_for_class_order():
    # q_7^3 in Q(sqrt(142)) is principal with norm 7^3 even though q_7 is not
    L = make_field(142)
    frak = prime_ideal_above(L, 7)
    assert is_principal(L, frak)[0] is False
    ok, (x, y) = is_principal(L, frak**3)
    assert ok and abs(L.norm_element(x, y)) == 343
    # long walks from ideals of norm up to 43^81, where every step's
    # division by a_k must be exact for the generator to come out right
    for d, q in ((142, 7), (229, 43), (1373, 7)):
        L = make_field(d)
        assert class_group(L).order == 3
        for k in (27, 81):
            power = prime_ideal_above(L, q) ** k
            ok, (x, y) = is_principal(L, power)
            assert ok and x.denominator == 1 and y.denominator == 1, (d, q, k)
            assert abs(L.norm_element(x, y)) == q**k == power.a, (d, q, k)
            assert (int(x) - int(y) * power.b) % power.a == 0, (d, q, k)
