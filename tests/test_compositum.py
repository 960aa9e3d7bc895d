"""Tests for the compositum order, ideal lattices, and certificates.

The factored product is cross-checked three ways, at degrees 6, 10
and 18: against the ring axioms on random elements, against the
Kronecker trace form, and against the float embeddings (product of
conjugates vs the tower norm).  The tower norm is also checked against
its definition, the determinant of the multiplication matrix.
Certificates are exercised end to end on the worked d = 79
capitulation and then attacked by corruption.
"""

import functools
import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import compositum
from capitula.compositum import (
    EnumerationRound,
    IdealLatticeBasis,
    NotFound,
    PrincipalityCertificate,
    TRY_VISITS,
    RadiusSchedule,
    _band_rows,
    _embeddings,
    _enumerate_short,
    _iroot,
    _mat_vec,
    _orbit,
    _orbit_basis,
    _qform,
    _solve_containment,
    build_compositum,
    certify_principal,
    exact_norm,
    extend_ideal,
    verify_certificate,
)
from capitula.cyclotomic import make_subfield
from capitula.errors import ConsistencyError
from capitula.linalg import det_bareiss, gram_schmidt_int, lll_reduce_gram
from capitula.quadfield import (
    QuadIdeal,
    class_group,
    is_principal,
    make_field,
    prime_ideal_above,
)


@functools.lru_cache(maxsize=None)
def order_of(d, q, e):
    return build_compositum(make_field(d), make_subfield(q, e))


def order_79_13():
    return order_of(79, 13, 3)


def order_2_7():
    return order_of(2, 7, 3)


# degree 10 and degree 18: the factored product at e = 5 and e = 9
ORDERS_HIGH = ((401, 41, 5), (79, 199, 9))


def orders(*low):
    """The named degree-6 orders followed by the two higher-degree ones."""
    return [order_of(*key) for key in (*low, *ORDERS_HIGH)]


def reference_norm(alpha, order):
    """The norm by its definition: the determinant of the 2e x 2e
    multiplication matrix, one row alpha * b_r per basis vector."""
    n = order.degree
    return det_bareiss(
        [order.mul(list(alpha), [1 if k == r else 0 for k in range(n)]) for r in range(n)]
    )


def random_vector(rng, n, bound):
    return [rng.randint(-bound, bound) for _ in range(n)]


# ---------------------------------------------------------------------------
# construction


def test_disc_79_13():
    order = order_79_13()
    assert order.degree == 6
    assert order.disc == 316**3 * 13**4


def test_disc_2_7():
    assert order_2_7().disc == 8**3 * 7**4


def test_coprimality_guard():
    with pytest.raises(ConsistencyError):
        build_compositum(make_field(13), make_subfield(13, 3))


def test_one_acts_as_identity():
    rng = random.Random(3)
    for order in orders((79, 13, 3)):
        one = list(order.one_coords)
        for _ in range(10):
            x = random_vector(rng, order.degree, 5)
            assert order.mul(one, x) == x
            assert order.mul(x, one) == x


def test_mul_commutes_on_basis():
    for order in (order_79_13(), order_2_7()):
        n = order.degree
        basis = [[1 if k == r else 0 for k in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                assert order.mul(basis[r], basis[c]) == order.mul(basis[c], basis[r])


def test_mul_associative_on_random_triples():
    rng = random.Random(41)
    for order, trials in zip(orders((79, 13, 3)), (1000, 200, 50)):
        n = order.degree
        for _ in range(trials):
            x, y, z = (random_vector(rng, n, 4) for _ in range(3))
            assert order.mul(order.mul(x, y), z) == order.mul(x, order.mul(y, z))


def test_gram_is_trace_of_products():
    for order in orders((79, 13, 3)):
        n = order.degree
        for r in range(n):
            br = [1 if k == r else 0 for k in range(n)]
            for c in range(n):
                bc = [1 if k == c else 0 for k in range(n)]
                assert order.gram[r][c] == order.trace(order.mul(br, bc))


def test_t2_equals_trace_of_square():
    rng = random.Random(8)
    for order in orders((2, 7, 3)):
        for _ in range(50):
            x = random_vector(rng, order.degree, 6)
            assert order.t2(x) == order.trace(order.mul(x, x))
            assert order.t2(x) >= 0  # totally real: T2 is positive definite


# ---------------------------------------------------------------------------
# norms


def test_norm_is_multiplicative():
    rng = random.Random(17)
    for order in orders((79, 13, 3)):
        n = order.degree
        for _ in range(200):
            x = random_vector(rng, n, 3)
            y = random_vector(rng, n, 3)
            assert exact_norm(order.mul(x, y), order) == exact_norm(
                x, order
            ) * exact_norm(y, order)


def test_tower_norm_matches_multiplication_matrix():
    rng = random.Random(19)
    for order in orders((79, 13, 3), (2, 7, 3)):
        for bits in (1, 8, 64, 200):
            for _ in range(5):
                x = random_vector(rng, order.degree, 2**bits)
                assert exact_norm(x, order) == reference_norm(x, order)


def test_norm_of_scalars_and_subfield_elements():
    order = order_79_13()
    L = order.L
    assert exact_norm(order.one_coords, order) == 1
    assert exact_norm([5 * c for c in order.one_coords], order) == 5**6
    # x + y omega from L: norm is the quadratic norm cubed
    rng = random.Random(23)
    for _ in range(20):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        coords = [-x] * 3 + [-y] * 3
        assert exact_norm(coords, order) == L.norm_element(x, y) ** 3
    # eta_0 from F: its F-norm is +-1, squared in M either way
    eta0 = [0] * 6
    eta0[0] = 1
    assert exact_norm(eta0, order) == 1


def test_embeddings_reproduce_the_norm():
    rng = random.Random(31)
    for order in orders((79, 13, 3)):
        n = order.degree
        rows = _embeddings(order)
        for _ in range(25):
            x = random_vector(rng, n, 5)
            prod, cond = 1.0, 0.0
            for row in rows:
                terms = [row[c] * x[c] for c in range(n)]
                value = math.fsum(terms)
                prod *= value
                cond += math.fsum(map(abs, terms)) / abs(value)
            nval = exact_norm(x, order)
            if abs(nval) < 2**53:
                assert round(prod) == nval
            else:
                # a double cannot hold N: the product's relative error is a
                # few ulp times the summed condition numbers of the conjugates
                assert abs(prod - nval) <= 4 * 2.0**-52 * cond * abs(nval)


# ---------------------------------------------------------------------------
# ideal lattices


def test_extend_ideal_index_law():
    order = order_79_13()
    L = order.L
    primes = [prime_ideal_above(L, q) for q in (3, 5, 7, 13, 43)]
    rng = random.Random(55)
    for _ in range(50):
        I = QuadIdeal(L, 1, 0)
        for _ in range(rng.randint(1, 3)):
            I = I * rng.choice(primes)
        if rng.random() < 0.3:
            from fractions import Fraction

            I = I * QuadIdeal(L, 1, 0, scale=Fraction(rng.randint(2, 4)))
        B = extend_ideal(I, order)
        assert isinstance(B, IdealLatticeBasis)
        assert B.norm == I.norm() ** 3
        n = order.degree
        assert len(B.hnf) == n
        for i in range(n):
            assert B.hnf[i][i] > 0
            assert all(B.hnf[i][j] == 0 for j in range(i))


def test_extend_ideal_rejects_foreign_and_fractional():
    order = order_79_13()
    with pytest.raises(ValueError):
        extend_ideal(prime_ideal_above(make_field(142), 7), order)
    from fractions import Fraction

    frac = QuadIdeal(make_field(79), 1, 0, scale=Fraction(1, 3))
    with pytest.raises(ValueError):
        extend_ideal(frac, order)


def fraction_gso(g):
    """Gram-Schmidt coefficients mu and squared lengths b of a Gram
    matrix, in Fractions: the textbook recurrence, kept independent of
    the integral routine under test."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(g[i][j]) - sum(mu[i][l] * mu[j][l] * b[l] for l in range(j))
            mu[i][j] = s / b[j]
        b[i] = g[i][i] - sum(mu[i][l] ** 2 * b[l] for l in range(i))
    return mu, b


def test_gram_schmidt_int_matches_fractions():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice((1, 2, 4, 6))
        while True:
            basis = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
            if det_bareiss([row[:] for row in basis]) != 0:
                break
        gram = [[sum(x * y for x, y in zip(r, c)) for c in basis] for r in basis]
        d, lam = gram_schmidt_int(gram)
        mu, b = fraction_gso(gram)
        assert d[0] == 1
        for i in range(n):
            assert Fraction(d[i + 1], d[i]) == b[i]
            for j in range(i):
                assert lam[i][j] == d[j + 1] * mu[i][j]
    with pytest.raises(ValueError):
        gram_schmidt_int([[1, 1], [1, 1]])


def test_lll_transform_is_unimodular():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.choice((2, 3, 4, 6))
        while True:
            basis = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if det_bareiss([row[:] for row in basis]) != 0:
                break
        gram = [
            [sum(basis[r][k] * basis[c][k] for k in range(n)) for c in range(n)]
            for r in range(n)
        ]
        gso, U, _ = lll_reduce_gram([row[:] for row in gram])
        assert abs(det_bareiss([list(r) for r in U])) == 1
        red = [
            [
                sum(U[r][a] * gram[a][b] * U[c][b] for a in range(n) for b in range(n))
                for c in range(n)
            ]
            for r in range(n)
        ]
        # the Gram-Schmidt data it returns is that of the reduced basis
        assert gso == gram_schmidt_int(red)
        # the reduced basis is LLL-reduced: size-reduced, and Lovasz at 99/100
        mu, b = fraction_gso(red)
        for i in range(n):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        for k in range(1, n):
            assert b[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * b[k - 1]
        # and reducing it again changes nothing: U = 1, no swap, same data
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert lll_reduce_gram(red) == (gso, identity, 0)


def test_iroot_brute():
    for k in (2, 3, 6):
        for x in list(range(70)) + [10**12 + 7, 3**40]:
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k


# ---------------------------------------------------------------------------
# certificates


def test_certify_unit_ideal():
    order = order_2_7()
    B = extend_ideal(QuadIdeal(make_field(2), 1, 0), order)
    assert B.norm == 1
    counters = {}
    cert = certify_principal(B, order, counters=counters)
    assert isinstance(cert, PrincipalityCertificate)
    assert abs(cert.norm_alpha) == 1
    # found in the first walk, after the one untwisted reduction
    assert counters["tries"] == 0
    assert len(counters["rounds"]) == 1
    assert counters["lll_swaps"] == 4


def test_certify_principal_prime_from_L():
    # 43 = -N(6 + sqrt(79)) splits and is already principal downstairs,
    # so its extension certifies with the same small generator norm
    L = make_field(79)
    cg = class_group(L)
    frak = prime_ideal_above(L, 43)
    assert cg.coords_of(frak) == cg.identity_coords()
    assert is_principal(L, frak)[0]
    order = order_79_13()
    B = extend_ideal(frak, order)
    cert = certify_principal(B, order)
    assert isinstance(cert, PrincipalityCertificate)
    assert abs(cert.norm_alpha) == 43**3


def test_flagship_capitulation_d79():
    # q_7 is not principal in Q(sqrt(79)) but becomes so in the
    # compositum with the cubic field of conductor 7
    L = make_field(79)
    frak = prime_ideal_above(L, 7)
    assert is_principal(L, frak)[0] is False
    order = build_compositum(L, make_subfield(7, 3))
    B = extend_ideal(frak, order)
    counters = {}
    cert = certify_principal(B, order, counters=counters)
    assert isinstance(cert, PrincipalityCertificate)
    assert abs(cert.norm_alpha) == 343
    # the one untwisted round: radius, visits, band-kept and rows
    # counted unscanned, in a ball that shrinks at each exact-norm hit
    assert counters["rounds"] == (EnumerationRound(5472, 4750, 18, 872),)
    assert cert.ideal_norm == 343
    # the certificate README shows
    assert cert.alpha == (-7, -14, -24, 0, 0, -1)
    assert verify_certificate(cert, B, order)
    # containment really reproduces alpha
    n = order.degree
    rebuilt = [0] * n
    for i, ci in enumerate(cert.containment):
        for j in range(n):
            rebuilt[j] += ci * B.hnf[i][j]
    assert tuple(rebuilt) == cert.alpha


def test_certificates_are_deterministic():
    L = make_field(79)
    order = build_compositum(L, make_subfield(7, 3))
    B = extend_ideal(prime_ideal_above(L, 7), order)
    assert certify_principal(B, order) == certify_principal(B, order)


def test_corrupted_certificates_rejected():
    L = make_field(79)
    order = build_compositum(L, make_subfield(7, 3))
    B = extend_ideal(prime_ideal_above(L, 7), order)
    cert = certify_principal(B, order)
    import dataclasses

    for i in range(order.degree):
        alpha = list(cert.alpha)
        alpha[i] += 1
        assert not verify_certificate(
            dataclasses.replace(cert, alpha=tuple(alpha)), B, order
        )
        held = list(cert.containment)
        held[i] -= 1
        assert not verify_certificate(
            dataclasses.replace(cert, containment=tuple(held)), B, order
        )
    assert not verify_certificate(
        dataclasses.replace(cert, norm_alpha=cert.norm_alpha + 1), B, order
    )
    assert not verify_certificate(
        dataclasses.replace(cert, ideal_norm=cert.ideal_norm * 7), B, order
    )


def test_certificate_rejected_against_wrong_lattice():
    L = make_field(79)
    order = build_compositum(L, make_subfield(7, 3))
    B = extend_ideal(prime_ideal_above(L, 7), order)
    other = extend_ideal(prime_ideal_above(L, 7).conjugate(), order)
    cert = certify_principal(B, order)
    assert not verify_certificate(cert, other, order)


def test_not_found_is_inconclusive_and_reported(monkeypatch):
    # a deliberately starved search on d = 223, which no budget tried
    # so far certifies: the untwisted walks get 500 visits each
    L = make_field(223)
    order = build_compositum(L, make_subfield(37, 3))
    B = extend_ideal(prime_ideal_above(L, 37), order)
    with monkeypatch.context() as m:
        m.setattr(compositum, "WALK_VISITS", 500)
        out = certify_principal(B, order, RadiusSchedule(c0=1, max_doublings=0))
    assert isinstance(out, NotFound)
    assert out.capped
    assert out.tries == 0
    assert len(out.rounds) == 1
    assert out.rounds[0].radius_sq > 0
    assert 500 <= out.rounds[0].visited == out.enumerated < 506
    # the orbit walk is walked once and stops within the orbit that
    # spends the budget, one of 6 or 2 visits
    assert out.rounds == (EnumerationRound(73626, 502, 0, 18),)
    # at the default budget both untwisted walks run, then 16 * 2^0
    # twisted tries
    counters = {}
    full = certify_principal(B, order, RadiusSchedule(c0=1, max_doublings=0), counters)
    assert isinstance(full, NotFound)
    assert not full.capped
    assert full.tries == 16
    assert full.enumerated == 10108
    # swaps: 6 in the untwisted reduction (the capped run's only one),
    # the rest in the 16 twisted ones
    assert out.lll_swaps == 6
    assert full.lll_swaps == 627
    assert counters == {
        "tries": 16, "enumerated": 10108, "rounds": full.rounds, "lll_swaps": 627
    }
    # both untwisted walks, pinned: radius base and 2 * base, visits,
    # band-kept and rows counted unscanned
    assert full.rounds == (
        EnumerationRound(73626, 856, 0, 66),
        EnumerationRound(147252, 9224, 0, 794),
    )
    # enumerated adds the twisted visits to the untwisted rounds
    walked = sum(r.visited for r in full.rounds)
    assert walked <= full.enumerated <= walked + full.tries * TRY_VISITS
    two = certify_principal(B, order, RadiusSchedule(c0=1, max_doublings=1))
    assert two.rounds == full.rounds
    assert two.tries == 32
    assert two.enumerated >= full.enumerated


def test_certificate_of_985_is_pinned():
    # found by the untwisted walks, so no float twist touches it
    L = make_field(985)
    order = build_compositum(L, make_subfield(19, 3))
    B = extend_ideal(prime_ideal_above(L, 19), order)
    counters = {}
    cert = certify_principal(B, order, counters=counters)
    assert cert.alpha == (11, -19, -3, 1, 0, -2)
    assert counters["tries"] == 0
    # the first round has no hit and walks its whole ball; the second
    # shrinks its ball at each hit
    assert counters["rounds"] == (
        EnumerationRound(50952, 8768, 0, 1514),
        EnumerationRound(101904, 33910, 6, 4204),
    )
    assert counters["enumerated"] == sum(r.visited for r in counters["rounds"])
    assert counters["lll_swaps"] == 22


@pytest.mark.parametrize(
    "d, alpha, tries",
    [
        (142, (-302563, -93133, -470455, -25392, -7816, -39482), 2),
        (254, (-741852, -3745538, -2408775, 46548, 235016, 151140), 8),
    ],
)
def test_twisted_try_certificates_are_pinned(d, alpha, tries):
    # off the T2 ball: found by the seeded twisted tries, whose twists
    # are applied to the untwisted reduced basis
    L = make_field(d)
    order = build_compositum(L, make_subfield(7, 3))
    B = extend_ideal(prime_ideal_above(L, 7), order)
    counters = {}
    cert = certify_principal(B, order, RadiusSchedule(max_doublings=2), counters)
    assert cert.alpha == alpha
    assert cert.norm_alpha == -343
    assert counters["tries"] == tries


def _untwisted(d, q, e=3):
    """The ideal of the prime above q and its untwisted LLL reduction,
    as certify_principal builds them: the reduced rows and their
    Gram-Schmidt data."""
    order = order_of(d, q, e)
    B = extend_ideal(prime_ideal_above(make_field(d), q), order)
    hnf = [list(r) for r in B.hnf]
    gso, U, _ = lll_reduce_gram([[_qform(order.gram, r, c) for c in hnf] for r in hnf])
    base = [_mat_vec(u, hnf) for u in U]
    return order, B, hnf, base, gso


def tau(order, x):
    """tau: eta_i -> eta_{i+1} on order coordinates, fixing w."""
    e = order.F.e
    return [x[a * e + (i - 1) % e] for a in (0, 1) for i in range(e)]


ORBIT_FIELDS = ((79, 7), (257, 13), (985, 19), (730, 79), (1171, 7))


@pytest.mark.parametrize("d, q", ORBIT_FIELDS)
def test_orbit_basis_of_the_ideal_lattice(d, q):
    order, B, hnf, base, gso = _untwisted(d, q)
    gram, rows = _orbit_basis(order, hnf)
    b0, b1 = rows[:2]
    # b0 and b1 are Lagrange-Gauss reduced under T2, and b0 is the
    # reduced basis's first row: both walks split the ball into the same
    # leaf rows, the lines along b0, and count the same rows unscanned
    plus, minus = ([u + s * v for u, v in zip(b1, b0)] for s in (1, -1))
    assert order.t2(b0) <= order.t2(b1) <= min(order.t2(plus), order.t2(minus))
    assert b0 == base[0]
    assert tau(order, b0) == b0 and tau(order, b1) == b1
    assert all(_solve_containment(hnf, r) is not None for r in rows)
    assert det_bareiss(gram) == gso[0][-1] == order.disc * B.norm**2
    assert gram == [[_qform(order.gram, r, t) for t in rows] for r in rows]
    # tau on the rows: b eta_1 -> b eta_2 -> b eta_0 = -b - b eta_1 - b eta_2
    unit = [[int(j == i) for j in range(6)] for i in range(6)]
    images = [unit[0], unit[1], unit[3], [-1, 0, -1, -1, 0, 0], unit[5], [0, -1, 0, 0, -1, -1]]
    for r, img in zip(rows, images):
        assert tau(order, r) == _mat_vec(img, rows)
    # and the walk's own tau agrees on the pairs
    for i in range(2, 6):
        assert list(_orbit(unit[i], 2)[1]) == images[i]


@pytest.mark.parametrize("d, q, pair_kept", [
    (79, 7, 72), (257, 13, 42), (985, 19, 6), (730, 79, 0), (1171, 7, 0)
])
def test_orbit_walk_matches_the_half_walk(d, q, pair_kept):
    # same visits, same rows counted unscanned and the same kept set,
    # compared as elements of the order, at both untwisted radii;
    # pair_kept counts the kept vectors that tau moves, whose images
    # the walk adds itself
    order, B, hnf, base, gso = _untwisted(d, q)
    gram, rows = _orbit_basis(order, hnf)
    emb = _embeddings(order)
    band = (B.norm / 4.0, B.norm * 4.0)
    n = order.degree
    base_sq = n * 2 * (_iroot(order.disc * B.norm**2, n) + 1)
    moved = 0
    for radius_sq in (base_sq, 2 * base_sq):
        half = _enumerate_short(gso, radius_sq, 10**9, (_band_rows(emb, base), *band))
        orbit = _enumerate_short(
            gram_schmidt_int(gram), radius_sq, 10**9, (_band_rows(emb, rows), *band), 2
        )
        assert orbit[1:] == half[1:]
        assert sorted(tuple(_mat_vec(x, rows)) for x in orbit[0]) == sorted(
            tuple(_mat_vec(y, base)) for y in half[0]
        )
        moved += sum(1 for x in orbit[0] if any(x[2:]))
    assert moved == pair_kept


def test_no_orbit_basis_off_the_cubic_case():
    # e = 5: the pairs would be Z[zeta_5]-blocks, so the half walk stays
    order, B, hnf, *_ = _untwisted(401, 41, 5)
    assert _orbit_basis(order, hnf) is None


@pytest.mark.parametrize("d, q", [(79, 7), (257, 13), (985, 19), (142, 7), (254, 7)])
def test_certificate_does_not_depend_on_the_walk_basis(d, q, monkeypatch):
    # without the orbit basis the untwisted walks take the half walk in
    # the reduced basis; what a walk accepts is ranked by its form and
    # then by alpha itself, never by the walk's coordinates, so the
    # certificate, the tries, the swaps and the radii stay the same.  The
    # counters of a round with a hit depend on where in the basis's walk
    # order the hit falls, so they are compared on the full balls
    order, B, hnf, base, gso = _untwisted(d, q)
    gram, rows = _orbit_basis(order, hnf)
    schedule = RadiusSchedule(max_doublings=2)
    results = []
    for _ in range(2):
        counters = {}
        cert = certify_principal(B, order, schedule, counters)
        results.append((cert, counters["tries"], counters["lll_swaps"],
                        [r.radius_sq for r in counters["rounds"]]))
        monkeypatch.setattr(compositum, "_orbit_basis", lambda order, hnf: None)
    assert isinstance(results[0][0], PrincipalityCertificate)
    assert results[1] == results[0]
    emb = _embeddings(order)
    band = (B.norm / 4.0, B.norm * 4.0)
    for radius_sq in results[0][3]:
        half = _enumerate_short(gso, radius_sq, 10**9, (_band_rows(emb, base), *band))
        orbit = _enumerate_short(
            gram_schmidt_int(gram), radius_sq, 10**9, (_band_rows(emb, rows), *band), 2
        )
        assert (len(orbit[0]), *orbit[1:]) == (len(half[0]), *half[1:])


def test_singular_twisted_gram_is_a_try_without_a_walk(monkeypatch):
    # at 30 bits the rounded twisted rows of d = 223 lose a dimension in
    # 2 of its 16 tries; each is skipped and still counted
    L = make_field(223)
    order = build_compositum(L, make_subfield(37, 3))
    B = extend_ideal(prime_ideal_above(L, 37), order)
    singular = []

    def reduce(gram):
        try:
            return lll_reduce_gram(gram)
        except ValueError:
            singular.append(gram)
            raise

    monkeypatch.setattr(compositum, "TWIST_BITS", 30)
    monkeypatch.setattr(compositum, "lll_reduce_gram", reduce)
    out = certify_principal(B, order, RadiusSchedule(max_doublings=0))
    assert singular
    if isinstance(out, NotFound):
        assert out.tries == 16
    else:
        assert verify_certificate(out, B, order)


def test_tries_with_an_empty_ball_are_counted_and_not_walked(monkeypatch):
    # d = 730 at q = 79 is not found by two untwisted walks and 64
    # twisted tries; 36 of the tries have every Gram-Schmidt length past
    # their radius, and only the other 28 are walked.  The counters are
    # those of walking every try, since an empty ball moves none of them
    L = make_field(730)
    order = build_compositum(L, make_subfield(79, 3))
    B = extend_ideal(prime_ideal_above(L, 79), order)
    walks = []

    def enumerate_short(*args, **kwargs):
        walks.append(args[1])
        return _enumerate_short(*args, **kwargs)

    monkeypatch.setattr(compositum, "_enumerate_short", enumerate_short)
    out = certify_principal(B, order, RadiusSchedule(max_doublings=2))
    assert out == NotFound(
        tries=64,
        enumerated=79288,
        capped=False,
        rounds=(
            EnumerationRound(943164, 9168, 0, 698),
            EnumerationRound(1886328, 70038, 0, 3636),
        ),
        lll_swaps=2459,
    )
    assert len(walks) == 2 + 28


def test_schedule_defaults():
    s = RadiusSchedule()
    assert (s.c0, s.max_doublings) == (2, 9)
    assert compositum.WALK_VISITS == 60_000_000
    assert s.tries == 16 * 2**9


def test_schedule_refuses_out_of_range():
    for bad in ({"c0": 0}, {"c0": -1}, {"max_doublings": -1}):
        with pytest.raises(ValueError):
            RadiusSchedule(**bad)


# ---------------------------------------------------------------------------
# enumeration against the per-leaf walk it replaced


def _reference_ldl(gram):
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        d = Fraction(gram[i][i])
        for k in range(i):
            d -= diag[k] * mu[i][k] * mu[i][k]
        diag[i] = d
        for j in range(i + 1, n):
            v = Fraction(gram[j][i])
            for k in range(i):
                v -= diag[k] * mu[i][k] * mu[j][k]
            mu[j][i] = v / d
    dpairs = [(f.numerator, f.denominator) for f in diag]
    coldens = []
    mucols = []
    for i in range(n):
        m = 1
        for j in range(i + 1, n):
            m = m * mu[j][i].denominator // math.gcd(m, mu[j][i].denominator)
        coldens.append(m)
        mucols.append([int(mu[j][i] * m) for j in range(i + 1, n)])
    return dpairs, coldens, mucols


def reference_enumerate(gram, radius_sq, cap, filt):
    """The Fincke-Pohst walk that scans every leaf: a Fraction LDL,
    per-node gcd renormalisation and a float band test at each leaf."""
    n = len(gram)
    dpairs, coldens, mucols = _reference_ldl(gram)
    rows, band_lo, band_hi = filt
    fcol = [[float(rows[j][i]) for j in range(n)] for i in range(n)]
    kept = []
    visited = 0
    capped = False
    y = [0] * n
    fvals = [0.0] * n

    def descend(i, rn, rd, nz):
        nonlocal visited, capped
        dn, dd = dpairs[i]
        m = coldens[i]
        col = mucols[i]
        c_num = -sum(col[t] * y[i + 1 + t] for t in range(n - 1 - i))
        s = isqrt(rn * dd * m * m // (rd * dn))
        lo = -((s - c_num) // m)
        hi = (c_num + s) // m
        ddmm = dd * m * m
        rhs = rn * ddmm
        zdr = dn * rd
        fc = fcol[i]
        if i == 0:
            for yi in range(lo, hi + 1):
                z = yi * m - c_num
                if zdr * z * z > rhs:
                    continue
                if yi == 0 and not nz:
                    continue
                visited += 1
                y[0] = yi
                prod = 1.0
                for j in range(n):
                    prod *= fvals[j] + yi * fc[j]
                if band_lo <= abs(prod) <= band_hi:
                    kept.append(tuple(y))
                if visited >= cap:
                    capped = True
                    y[0] = 0
                    return
            y[0] = 0
            return
        base = fvals[:]
        for yi in range(lo, hi + 1):
            z = yi * m - c_num
            nn = rhs - zdr * z * z
            if nn < 0:
                continue
            y[i] = yi
            for j in range(n):
                fvals[j] = base[j] + yi * fc[j]
            nd = rd * ddmm
            g = math.gcd(nn, nd)
            descend(i - 1, nn // g, nd // g, nz or yi != 0)
            if capped:
                y[i] = 0
                return
        y[i] = 0

    descend(n - 1, radius_sq, 1, False)
    return kept, visited, capped


def _random_walk_input(rng, n):
    while True:
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det_bareiss([row[:] for row in basis]) != 0:
            break
    gram = [[sum(x * y for x, y in zip(r, c)) for c in basis] for r in basis]
    rows = [[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)]
    return gram, rows


def assert_within_budget(got, full, cap, pairs=0):
    """The visit budget of _enumerate_short, against the full walk
    (kept, visited) of the same ball: a cap past the ball's size walks
    all of it; any other cap stops the walk once visited >= cap, before
    one more orbit (2 vectors, 6 with pairs), with a part of the full
    kept set that is closed under the walk's symmetry."""
    kept, visited, capped, skipped = got
    full_kept, total = full
    assert 0 <= skipped <= visited
    if cap > total:
        assert (sorted(kept), visited, capped) == (sorted(full_kept), total, False)
        return
    assert capped
    assert cap <= visited < cap + (6 if pairs else 2)
    assert set(kept) <= set(full_kept)
    assert set(kept) == {u for v in kept for u in _orbit(v, pairs)}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    radius_sq=st.integers(0, 400),
    band=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 500.0)),
    cap=st.integers(1, 3000),
)
def test_enumerate_short_matches_per_leaf_walk(seed, n, radius_sq, band, cap):
    gram, rows = _random_walk_input(random.Random(seed), n)
    filt = (rows, min(band), max(band))
    full = reference_enumerate(gram, radius_sq, 10**9, filt)[:2]
    assert_within_budget(_enumerate_short(gram_schmidt_int(gram), radius_sq, cap, filt), full, cap)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    radius_sq=st.integers(0, 400),
    band=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 500.0)),
    cap=st.integers(1, 3000),
    odds=st.integers(1, 6),
)
def test_enumerate_short_accepting_walk_keeps_the_best_hit(seed, n, radius_sq, band, cap, odds):
    # accept holds on a fixed random set of orbits {v, -v}; after each
    # accepted vector the ball shrinks to its form, ties kept
    gram, rows = _random_walk_input(random.Random(seed), n)
    filt = (rows, min(band), max(band))

    def accepted(v):
        return hash((seed, max(v, tuple(-x for x in v)))) % odds == 0

    hits = []

    def accept(v, form):
        # the walk hands over each kept vector's exact form
        assert form == _qform(gram, v, v)
        if accepted(v):
            hits.append(v)
            return True
        return False

    def rank(v):
        return _qform(gram, v, v), v[::-1]

    gso = gram_schmidt_int(gram)
    full_kept, total = reference_enumerate(gram, radius_sq, 10**9, filt)[:2]
    kept, visited, capped, skipped = _enumerate_short(gso, radius_sq, 10**9, filt, 0, accept)
    # the best accepted image is the full walk's best accepted vector
    assert min((rank(u) for v in hits for u in _orbit(v, 0)), default=None) == min(
        (rank(v) for v in full_kept if accepted(v)), default=None
    )
    assert not capped and 0 <= skipped <= visited <= total
    assert set(kept) <= set(full_kept)
    # an accept that never holds leaves the walk as it is
    plain = _enumerate_short(gso, radius_sq, 10**9, filt)
    assert _enumerate_short(gso, radius_sq, 10**9, filt, 0, lambda v, form: False) == plain
    # and a capped accepting walk stops within one orbit of its cap
    kept, visited, capped, skipped = _enumerate_short(gso, radius_sq, cap, filt, 0, accept)
    assert 0 <= skipped <= visited
    assert set(kept) <= set(full_kept)
    if capped:
        assert cap <= visited < cap + 2
    else:
        assert visited < cap


def test_enumerate_short_visits_nothing_when_every_gram_schmidt_length_is_past_its_radius():
    # d_{i+1} > radius_sq * d_i for every i: each squared Gram-Schmidt
    # length exceeds radius_sq, so the ball holds no nonzero vector and
    # the walk, with or without accept, moves no counter; that is why a
    # twisted try with such a ball need not be walked
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(1, 6)
        gram, rows = _random_walk_input(rng, n)
        d, lam = gso = gram_schmidt_int(gram)
        radius_sq = rng.randint(0, min((d[i + 1] - 1) // d[i] for i in range(n)))
        assert all(d[i + 1] > radius_sq * d[i] for i in range(n))
        filt = (rows, 0.0, 1e300)
        assert reference_enumerate(gram, radius_sq, 10**9, filt)[:2] == ([], 0)
        for accept in (None, lambda v, form: True):
            got = _enumerate_short(gso, radius_sq, rng.randint(1, 5000), filt, 0, accept)
            assert got == ([], 0, False, 0)


def test_enumerate_short_keeps_the_boundary_of_its_ball():
    # on Z^3 the unit vectors lie on the sphere of radius 1, and below
    # their nonzero coordinate on the edge of every level's interval; an
    # accepted unit vector shrinks radius 2 to 1 and keeps the other five
    unit = [[int(i == j) for j in range(3)] for i in range(3)]
    gso = gram_schmidt_int(unit)
    filt = ([[float(x) for x in r] for r in unit], 0.0, 1.0)
    units = sorted(tuple(s * x for x in r) for r in unit for s in (1, -1))
    assert _enumerate_short(gso, 2, 100, filt)[1] == 18
    for radius_sq, accept in ((1, None), (2, lambda v, form: True)):
        kept, visited = _enumerate_short(gso, radius_sq, 100, filt, 0, accept)[:2]
        assert (sorted(kept), visited) == (units, 6)


def test_enumerate_short_cap_at_every_position():
    # every cap from 1 past the end, so some cap falls inside each
    # skippable row; the zero vector's row is always among them.  The
    # radius is a multiple of the largest diagonal entry: at n = 5 once
    # (292 vectors), since four times holds 10,036, too many to walk
    # once per cap
    rng = random.Random(11)
    walks = []
    for n, diagonals in ((2, 4), (3, 4), (4, 4), (5, 1)):
        gram, rows = _random_walk_input(rng, n)
        radius_sq = diagonals * max(gram[i][i] for i in range(n))
        walks.append((gram, radius_sq, (rows, 0.5, 4.0), 0))
    # and the orbit walk of d = 79 at half its first untwisted radius,
    # with a band wide enough to keep vectors that tau moves
    order, B, hnf, *_ = _untwisted(79, 7)
    gram, rows = _orbit_basis(order, hnf)
    filt = (_band_rows(_embeddings(order), rows), B.norm, B.norm * 64.0)
    walks.append((gram, 2736, filt, 2))
    for gram, radius_sq, filt, pairs in walks:
        gso = gram_schmidt_int(gram)
        full = reference_enumerate(gram, radius_sq, 10**9, filt)[:2]
        kept, total, _, skipped = _enumerate_short(gso, radius_sq, 10**9, filt, pairs)
        assert skipped > 0
        assert total == full[1]
        for cap in range(1, total + 2):
            got = _enumerate_short(gso, radius_sq, cap, filt, pairs)
            assert_within_budget(got, full, cap, pairs)
    # the orbit walk kept vectors that tau moves
    assert sum(1 for x in kept if any(x[2:])) == 42
    # an accepting orbit walk, on one orbit in three of what it keeps,
    # keeps the same budget at every cap
    hits = []

    def accept(v, form):
        if hash(min(_orbit(v, pairs))) % 3:
            return False
        hits.append(v)
        return True

    total = _enumerate_short(gso, radius_sq, 10**9, filt, pairs, accept)[1]
    assert hits and total < full[1]
    for cap in range(1, total + 2):
        visited, capped = _enumerate_short(gso, radius_sq, cap, filt, pairs, accept)[1:3]
        assert (cap <= visited < cap + 6) if capped else visited == total < cap
