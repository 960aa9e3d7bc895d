"""Oracle tests for Gaussian-period subfields.

The library derives the period polynomial from power sums and Newton's
identities.  The oracle here works in the group ring instead: periods
are dense integer vectors in Z[x]/(x^q - 1), the elementary symmetric
functions are expanded by exact convolution, and each one must collapse
to a rational integer.  Agreement between the two routes pins down the
polynomial itself, not just its printed form.  The irreducibility
witness, found by the Frobenius of the period basis, is checked against
a Rabin test on the polynomial over GF(t).
"""

import dataclasses
import math
import tracemalloc

import mpmath
import pytest

from capitula import arith
from capitula.arith import is_prime, iter_primes
from capitula.cyclotomic import (
    ConsistencyError,
    CyclotomicSubfield,
    _build_subfield,
    _coset,
    _irreducible_witness,
    make_subfield,
    poly_str,
    verify_subfield,
)
from capitula.linalg import det_bareiss


# ---------------------------------------------------------------------------
# group-ring oracle


def _zq_mul(a, b, q):
    out = [0] * q
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % q] += ai * bj
    return out


def _as_integer(vec, q):
    """The rational integer a vector in Z[zeta_q] represents, if any.

    1 + zeta + ... + zeta^(q-1) = 0, so subtract vec[1] off every
    coordinate; what survives must be concentrated at zeta^0.
    """
    t = vec[1]
    assert all(vec[i] == t for i in range(1, q)), "not a rational integer"
    return vec[0] - t


def oracle_period_polynomial(q, e):
    """Min poly of the degree-e periods by brute symmetric functions."""
    # own primitive-root search, independent of the library's
    g = next(
        g
        for g in range(2, q)
        if all(pow(g, (q - 1) // r, q) != 1 for r in set_prime_divisors(q - 1))
    )
    cosets = [[] for _ in range(e)]
    pw = 1
    for k in range(q - 1):
        cosets[k % e].append(pw)
        pw = pw * g % q
    periods = []
    for c in cosets:
        v = [0] * q
        for h in c:
            v[h] += 1
        periods.append(v)

    # expand prod (T - eta_m): coeffs[k] is the vector coefficient of T^k
    one = [0] * q
    one[0] = 1
    coeffs = [one]
    for eta in periods:
        neg = [-x for x in eta]
        nxt = [[0] * q for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            prod = _zq_mul(c, neg, q)
            nxt[k] = [a + b for a, b in zip(nxt[k], prod)]
            nxt[k + 1] = [a + b for a, b in zip(nxt[k + 1], c)]
        coeffs = nxt
    return tuple(_as_integer(c, q) for c in coeffs)


def poly_discriminant(poly):
    """Discriminant of a monic integer polynomial (ascending
    coefficients) as a Sylvester resultant: the oracle for the
    verifier's index^2 q^(e-1)."""
    n = len(poly) - 1
    if n == 1:
        return 1
    deriv = [k * poly[k] for k in range(1, n + 1)]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(poly, deriv)


def resultant(p, q_poly):
    """Resultant of two integer polynomials (ascending coefficients)."""
    pd = list(reversed(p))
    qd = list(reversed(q_poly))
    m = len(pd) - 1
    n = len(qd) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + pd + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + qd + [0] * (size - i - n - 1))
    return det_bareiss(rows)


def oracle_irreducible_mod(poly, t):
    """Rabin's test on the monic poly (ascending coefficients) over
    GF(t): x^(t^e) = x mod poly, and gcd(x^(t^(e/l)) - x, poly) = 1 for
    every prime l | e.  The oracle for the Frobenius witness, which
    never reduces a polynomial."""
    e = len(poly) - 1
    fbar = [c % t for c in poly]
    x = [0, 1]
    frob = [x]  # frob[k] = x^(t^k) mod (fbar, t)
    for _ in range(e):
        frob.append(_ppow_mod(frob[-1], t, fbar, t))
    if _psub(frob[e], x, t):
        return False
    return all(
        len(_pgcd(fbar, _psub(frob[e // l], x, t), t)) == 1 for l in set_prime_divisors(e)
    )


# dense polynomial helpers over GF(t), ascending coefficients


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, t):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % t
    return _ptrim(out)


def _pmul_mod(a, b, fbar, t):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % t
    d = len(fbar) - 1  # reduce by the monic fbar
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(d):
                out[k - d + i] = (out[k - d + i] - c * fbar[i]) % t
    return _ptrim(out[:d])


def _ppow_mod(a, k, fbar, t):
    result, base = [1], list(a)
    while k:
        if k & 1:
            result = _pmul_mod(result, base, fbar, t)
        base = _pmul_mod(base, base, fbar, t)
        k >>= 1
    return result


def _pgcd(a, b, t):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, t)
        b_monic = [c * inv % t for c in b]
        r = list(a)
        while len(r) >= len(b_monic) and _ptrim(r):
            shift, c = len(r) - len(b_monic), r[-1]
            for i, bc in enumerate(b_monic):
                r[shift + i] = (r[shift + i] - c * bc) % t
            r = _ptrim(r)
        a, b = b, r
    return a


def set_prime_divisors(n):
    out = set()
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    if m > 1:
        out.add(m)
    return out


# ---------------------------------------------------------------------------
# frozen values


def test_period_polynomial_frozen_7_3():
    sub = make_subfield(7, 3)
    assert sub.period_poly == (-1, -2, 1, 1)
    assert poly_str(sub.period_poly) == "x^3 + x^2 - 2x - 1"
    assert sub.f == 2
    assert sub.disc == 49


def test_period_polynomial_frozen_13_3():
    sub = make_subfield(13, 3)
    assert sub.period_poly == (1, -4, 1, 1)
    assert poly_str(sub.period_poly) == "x^3 + x^2 - 4x + 1"
    assert sub.f == 4


def cosets(q, e, g):
    """The e cosets g^i H of the index-e subgroup H, each sorted."""
    return tuple(tuple(sorted(_coset(q, e, g, i))) for i in range(e))


def test_cosets_frozen_7_3():
    assert cosets(7, 3, make_subfield(7, 3).generator) == ((1, 6), (3, 4), (2, 5))


def test_poly_str_edge_cases():
    assert poly_str((0,)) == "0"
    assert poly_str((-1, 0, 1)) == "x^2 - 1"
    assert poly_str((2, 1)) == "x + 2"


# ---------------------------------------------------------------------------
# oracle agreement


def test_polynomial_matches_symmetric_function_oracle():
    for q, e in [(7, 3), (13, 3), (31, 3), (31, 5), (19, 3), (19, 9), (29, 7), (43, 3)]:
        assert make_subfield(q, e).period_poly == oracle_period_polynomial(q, e), (q, e)


def test_polynomial_independent_of_primitive_root():
    for q, e in [(13, 3), (31, 5)]:
        canonical = make_subfield(q, e)
        others = [
            g
            for g in range(2, q)
            if all(pow(g, (q - 1) // r, q) != 1 for r in set_prime_divisors(q - 1))
        ]
        assert canonical.generator == others[0]
        for g in others[1:3]:
            alt = _build_subfield(q, e, g)
            assert alt.period_poly == canonical.period_poly
            assert set(cosets(q, e, g)) == set(cosets(q, e, canonical.generator))


# ---------------------------------------------------------------------------
# verification sweep


def test_verify_all_cubic_subfields_up_to_200():
    for q in iter_primes(200):
        if q % 3 != 1:
            continue
        sub = make_subfield(q, 3)
        report = verify_subfield(sub)
        assert report.disc == q * q
        assert report.poly_disc == poly_discriminant(sub.period_poly)
        assert report.poly_disc == report.index**2 * q * q
        assert report.irreducible_mod is not None
        assert is_prime(report.irreducible_mod)


def test_known_index_values():
    # monogenic at 7 and 13, but not at 31; the witness at 31 is 3,
    # since 2 splits there (2^10 = 1 mod 31)
    assert verify_subfield(make_subfield(7, 3)).index == 1
    assert verify_subfield(make_subfield(13, 3)).index == 1
    assert verify_subfield(make_subfield(31, 3)).index == 2
    for (q, e), witness in [((7, 3), 2), ((31, 3), 3), ((271, 27), 2)]:
        assert verify_subfield(make_subfield(q, e)).irreducible_mod == witness, (q, e)


def test_frobenius_witness_matches_gf_t_oracle(monkeypatch):
    # the library scans iter_primes; restricted to one prime t, it
    # returns t exactly when the GF(t) oracle finds the polynomial
    # irreducible mod t, and raises otherwise
    verdicts = []
    for q in iter_primes(200):
        for e in (3, 5, 9, 15, 27):
            if (q - 1) % e:
                continue
            sub = make_subfield(q, e)
            for t in iter_primes(100 if e <= 9 else 30):
                monkeypatch.setattr(arith, "iter_primes", lambda bound, t=t: iter([t]))
                try:
                    got = _irreducible_witness(sub) == t
                except ConsistencyError:
                    got = False
                monkeypatch.undo()
                assert got == oracle_irreducible_mod(sub.period_poly, t), (q, e, t)
                verdicts.append(got)
    assert (len(verdicts), verdicts.count(False)) == (1035, 293)


def test_witness_can_fail(monkeypatch):
    # 13, 29, 41 and 43 are +-1 mod 7, so they split in the cubic field
    # of conductor 7: none of them witnesses irreducibility
    sub = make_subfield(7, 3)
    monkeypatch.setattr(arith, "iter_primes", lambda bound: iter([13, 29, 41, 43]))
    with pytest.raises(ConsistencyError, match="no irreducibility witness"):
        verify_subfield(sub)


def test_verify_degree_nine():
    sub = make_subfield(19, 9)
    report = verify_subfield(sub)
    assert report.disc == 19**8
    assert report.poly_disc == poly_discriminant(sub.period_poly)


def test_verify_rejects_corruption():
    sub = make_subfield(13, 3)
    for poly in [(1, -4, 2, 1), (2, -4, 1, 1), (1, 0, 1, 1), (1, -3, 1, 1)]:
        bad = dataclasses.replace(sub, period_poly=poly)
        with pytest.raises(ConsistencyError):
            verify_subfield(bad)
    worse = dataclasses.replace(sub, disc=168)
    with pytest.raises(ConsistencyError):
        verify_subfield(worse)


def test_verify_rejects_indefinite_trace_form(monkeypatch):
    # determinant 49 = 7^2 as for the real cubic field, but with
    # signature (1, 2): not the trace form of a totally real field
    sub = make_subfield(7, 3)
    verify_subfield(sub)  # does not raise
    monkeypatch.setattr(
        CyclotomicSubfield, "trace_gram", lambda self: [[-1, 0, 0], [0, -1, 0], [0, 0, 49]]
    )
    with pytest.raises(ConsistencyError, match="not positive definite"):
        verify_subfield(sub)


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        make_subfield(15, 3)  # not prime
    with pytest.raises(ValueError):
        make_subfield(13, 5)  # 5 does not divide 12
    with pytest.raises(ValueError):
        make_subfield(13, 4)  # even degree
    with pytest.raises(ValueError):
        make_subfield(13, 0)


# ---------------------------------------------------------------------------
# numeric cross-checks of the multiplication table


def periods_oracle(sub):
    """The periods at 200 bits: each the mpmath fsum of the cosines of
    its coset."""
    with mpmath.workprec(200):
        step = 2 * mpmath.pi / sub.q
        return [
            mpmath.fsum(mpmath.cos(step * h) for h in coset)
            for coset in cosets(sub.q, sub.e, sub.generator)
        ]


def test_period_values_match_mpmath_oracle():
    # the float periods steer the lattice walk: each must sit within
    # 1e-15 per cosine of its 200-bit value (measured: 2.2e-16 per cosine)
    for q, e in [(7, 3), (13, 3), (31, 5), (43, 7), (19, 9), (9973, 3)]:
        sub = make_subfield(q, e)
        f = (q - 1) // e
        floats = sub.period_values()
        assert all(type(v) is float for v in floats)
        with mpmath.workprec(200):
            for val, exact in zip(floats, periods_oracle(sub), strict=True):
                assert abs(mpmath.mpf(val) - exact) <= 1e-15 * f


def test_subfield_keeps_no_coset_table():
    # the cosets hold all q - 1 residues; the subfield keeps only the
    # e x e multiplication table and the polynomial
    make_subfield.cache_clear()
    tracemalloc.start()
    try:
        make_subfield(99991, 3)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 500_000


def test_mul_coords_against_floats():
    import random

    rng = random.Random(5)
    for q, e in [(7, 3), (13, 3), (31, 5)]:
        sub = make_subfield(q, e)
        vals = periods_oracle(sub)
        for _ in range(20):
            u = [rng.randint(-9, 9) for _ in range(e)]
            v = [rng.randint(-9, 9) for _ in range(e)]
            w = sub.mul_coords(u, v)
            with mpmath.workprec(200):
                lhs = sum(ui * vals[i] for i, ui in enumerate(u)) * sum(
                    vj * vals[j] for j, vj in enumerate(v)
                )
                rhs = sum(wi * vals[i] for i, wi in enumerate(w))
                assert abs(lhs - rhs) < mpmath.mpf(2) ** -120


def test_each_period_is_a_root():
    for q, e in [(7, 3), (13, 3), (19, 9)]:
        sub = make_subfield(q, e)
        with mpmath.workprec(200):
            for val in periods_oracle(sub):
                acc = mpmath.mpf(0)
                for c in reversed(sub.period_poly):
                    acc = acc * val + c
                assert abs(acc) < mpmath.mpf(2) ** -100


def test_periods_sum_to_minus_one():
    for q, e in [(7, 3), (43, 7)]:
        sub = make_subfield(q, e)
        with mpmath.workprec(200):
            assert abs(mpmath.fsum(periods_oracle(sub)) + 1) < mpmath.mpf(2) ** -80


def test_trace_gram_is_symmetric_with_correct_determinant():
    from capitula.linalg import det_bareiss

    for q, e in [(7, 3), (13, 3), (31, 5)]:
        gram = make_subfield(q, e).trace_gram()
        assert all(gram[i][j] == gram[j][i] for i in range(e) for j in range(e))
        assert det_bareiss(gram) == q ** (e - 1)
