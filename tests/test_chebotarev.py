"""Tests for the six splitting conditions and the prime searches.

Freezes the full condition profile at the worked d = 79 points (q = 7
and q = 13 qualify, q = 11 does not), then checks the structural
implication: at phi_scale = 1, whenever (4) and (5) hold, (2) must
too, across every admissible prime up to 10^5.  The implication is
enforced inside check_conditions by raising, so the scan passes
exactly when no candidate ever trips it.
"""

import dataclasses
import itertools
import time

import pytest

from capitula import arith
from capitula.arith import ResidueSymbol, iter_primes, kronecker
from capitula.chebotarev import (
    ExhaustedSearch,
    LambdaSpec,
    PrimeCandidate,
    check_conditions,
    find_auxiliary_prime,
    find_prime,
    ordered_map,
)
from capitula.errors import ConsistencyError
from capitula.quadfield import class_group, make_field


TARGET_79 = (1,)  # generator of the 3-part of Cl(Q(sqrt(79))), h = 3


# ---------------------------------------------------------------------------
# LambdaSpec


def test_lambda_spec_validation():
    spec = LambdaSpec(3, 2)
    assert spec.modulus == 9
    assert spec.required_order == 9
    assert LambdaSpec(3, 2, phi_scale=3).required_order == 3
    with pytest.raises(ValueError):
        LambdaSpec(2, 1)
    with pytest.raises(ValueError):
        LambdaSpec(4, 1)
    with pytest.raises(ValueError):
        LambdaSpec(9, 1)
    with pytest.raises(ValueError):
        LambdaSpec(3, 0)
    with pytest.raises(ValueError):
        LambdaSpec(3, 1, phi_scale=2)
    with pytest.raises(ValueError):
        LambdaSpec(3, 1, phi_scale=9)  # exceeds p^n


# ---------------------------------------------------------------------------
# frozen condition profiles at d = 79


def test_conditions_at_q7_all_pass():
    cand = check_conditions(make_field(79), 3, 1, 7, TARGET_79)
    assert cand.passed
    assert cand.flags() == (True,) * 6
    assert cand.witness.root == 3  # 3^2 = 79 mod 7
    assert cand.witness.symbol == ResidueSymbol(
        base=2, modulus=7, degree=3, value=4, order=3
    )
    assert cand.witness.class_coords == TARGET_79
    assert cand.matched_inverse is False


def test_conditions_at_q13_all_pass():
    cand = check_conditions(make_field(79), 3, 1, 13, TARGET_79)
    assert cand.passed
    assert cand.witness.root == 1
    assert cand.witness.symbol == ResidueSymbol(
        base=11, modulus=13, degree=3, value=3, order=3
    )
    assert cand.witness.symbol.order == 3
    assert cand.witness.class_coords == (1,)


def test_conditions_at_q11_fail_without_witness():
    cand = check_conditions(make_field(79), 3, 1, 11, TARGET_79)
    assert not cand.passed
    assert cand.flags() == (True, False, True, False, False, False)
    assert cand.witness.root is None
    assert cand.witness.symbol is None
    assert cand.witness.class_coords is None


def test_conditions_deeper_level_fails_congruence_only():
    # q = 13 is 4 mod 9: condition (2) fails at n = 2, but (4) and (6)
    # are level-independent and keep their witnesses; the symbol lands
    # in (Z/13)^*/(Z/13)^*^gcd(12, 9), where order 3 < 9 fails (5)
    cand = check_conditions(make_field(79), 3, 2, 13, TARGET_79)
    assert cand.flags() == (True, False, True, True, False, True)
    assert cand.witness.symbol == ResidueSymbol(base=11, modulus=13, degree=3, value=3, order=3)
    assert cand.witness.class_coords == (1,)


def test_degenerate_q_rejected():
    L = make_field(79)
    for q in (2, 3, 79):  # divide 2 * p * disc
        with pytest.raises(ValueError):
            check_conditions(L, 3, 1, q, TARGET_79)
    with pytest.raises(ValueError):
        check_conditions(L, 3, 1, 15, TARGET_79)  # not prime


def test_target_class_must_have_p_power_order():
    L = make_field(235)  # h = 6: the full group has non-3-torsion
    cg = class_group(L)
    assert cg.elementary_divisors == (6,)
    bad = (1,) if cg.order_of((1,)) == 6 else (5,)
    with pytest.raises(ValueError):
        find_prime(L, 3, 1, bad)


# ---------------------------------------------------------------------------
# implication (4) and (5) force (2)


def test_implication_never_violated_up_to_1e5():
    L = make_field(79)
    violations = 0
    checked = 0
    for q in iter_primes(100_000):
        if (2 * 3 * L.disc) % q == 0:
            continue
        try:
            check_conditions(L, 3, 1, q, TARGET_79)
        except ConsistencyError:
            violations += 1
        checked += 1
    assert violations == 0
    assert checked > 9000


def test_implication_raise_fires_on_a_wrong_symbol(monkeypatch):
    # q = 5 splits in Q(sqrt(79)) but is not 1 mod 3: the symbol lives
    # in (Z/5)^*/(Z/5)^*^gcd(4, 3), so its order is 1 and (5) fails
    L = make_field(79)
    cand = check_conditions(L, 3, 1, 5, TARGET_79)
    assert (cand.cond2, cand.cond4, cand.cond5) == (False, True, False)
    assert (cand.witness.symbol.degree, cand.witness.symbol.order) == (1, 1)

    # with the scaled character (5) holds there, and that is no violation
    for n, q in [(1, 5), (2, 7)]:
        scaled = check_conditions(L, 3, n, q, TARGET_79, phi_scale=3)
        assert (scaled.cond2, scaled.cond4, scaled.cond5) == (False, True, True)

    real = arith.power_residue_symbol
    monkeypatch.setattr(
        arith, "power_residue_symbol",
        lambda a, q, pn: dataclasses.replace(real(a, q, pn), order=3),
    )
    with pytest.raises(ConsistencyError, match=r"\(4\) and \(5\) hold at q = 5"):
        check_conditions(L, 3, 1, 5, TARGET_79)


def test_qualifying_primes_have_positive_density():
    L = make_field(79)
    hits = [
        q
        for q in iter_primes(20_000)
        if (2 * 3 * L.disc) % q
        and check_conditions(L, 3, 1, q, TARGET_79).passed
    ]
    assert hits[:2] == [7, 13]
    assert len(hits) >= 20


# ---------------------------------------------------------------------------
# search


def test_find_prime_returns_smallest():
    L = make_field(79)
    cand = find_prime(L, 3, 1, TARGET_79)
    assert isinstance(cand, PrimeCandidate)
    assert cand.q == 7
    # minimality: every smaller prime is degenerate or fails
    for q in (2, 3, 5):
        if (2 * 3 * L.disc) % q == 0:
            continue
        assert not check_conditions(L, 3, 1, q, TARGET_79).passed


def test_find_prime_parallel_agrees():
    L = make_field(79)
    seq = find_prime(L, 3, 1, TARGET_79, jobs=1)
    par = find_prime(L, 3, 1, TARGET_79, jobs=2)
    assert (seq.q, seq.flags()) == (par.q, par.flags())


def test_find_prime_exhausted():
    out = find_prime(make_field(79), 3, 1, TARGET_79, q_bound=6)
    assert isinstance(out, ExhaustedSearch)
    assert out.q_bound == 6
    assert out.scanned == 1  # only q = 5 is admissible below 7
    assert set(out.failures) == {f"cond{i}" for i in range(1, 7)}


def test_find_prime_exhausted_counts_across_sieve_windows():
    # q = 80191 is the first hit; the scan below it crosses two windows
    # of the lazy prime stream.  Counts frozen from the eager-sieve scan.
    want = {"cond1": 3, "cond2": 7833, "cond3": 0,
            "cond4": 3959, "cond5": 7844, "cond6": 5228}
    for jobs in (1, 2):
        out = find_prime(make_field(79), 3, 6, TARGET_79, q_bound=80190, jobs=jobs)
        assert isinstance(out, ExhaustedSearch)
        assert (out.scanned, out.failures) == (7848, want)


def even_slower(i):
    # even items finish after the odd ones submitted with them
    time.sleep(0.05 * (i % 2 == 0))
    return i


def test_ordered_map_reads_an_endless_input_in_order_and_closes_promptly():
    results = ordered_map(even_slower, itertools.count(), 2)
    assert list(itertools.islice(results, 5)) == [0, 1, 2, 3, 4]
    t0 = time.perf_counter()
    results.close()
    assert time.perf_counter() - t0 < 2.0


def test_find_prime_matched_inverse_is_flagged():
    # d = 229 has h = 3; whichever of q, q-bar matches, the flag tells
    L = make_field(229)
    cand = find_prime(L, 3, 1, (1,))
    assert isinstance(cand, PrimeCandidate)
    assert cand.witness.class_coords in ((1,), (2,))
    assert cand.matched_inverse == (cand.witness.class_coords == (2,))


# ---------------------------------------------------------------------------
# auxiliary reduction


def test_auxiliary_prime_for_79():
    L = make_field(79)
    aux = find_auxiliary_prime(L, 3, 1, TARGET_79)
    assert aux.q == 7
    assert kronecker(L.disc, aux.q) == 1
    assert aux.q % (2 * 3) == 1
    assert aux.class_coords in (TARGET_79, (2,))
    assert "Cl_L'^3" in aux.statement
    assert f"mu_{aux.q}" in aux.statement
    assert "totally ramified" in aux.statement


def test_auxiliary_prime_deeper_level():
    L = make_field(79)
    aux = find_auxiliary_prime(L, 3, 2, TARGET_79)
    assert kronecker(L.disc, aux.q) == 1
    assert aux.q % (2 * 3**2) == 1
    assert "of degree 9" in aux.statement
    assert "Cl_L'^9" in aux.statement


def test_auxiliary_prime_validation_and_exhaustion():
    L = make_field(79)
    with pytest.raises(ValueError):
        find_auxiliary_prime(L, 2, 1, TARGET_79)
    with pytest.raises(ValueError):
        find_auxiliary_prime(L, 3, 0, TARGET_79)
    out = find_auxiliary_prime(L, 3, 1, TARGET_79, q_bound=6)
    assert isinstance(out, ExhaustedSearch)
    # counts frozen from the eager-sieve scan
    out = find_auxiliary_prime(L, 3, 7, TARGET_79, q_bound=50_000)
    assert isinstance(out, ExhaustedSearch)
    assert out.scanned == 5130
    assert out.failures == {"cond1": 3, "split": 2561, "congruence": 5127, "class": 1}
