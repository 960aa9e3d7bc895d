"""Property tests for the exponent bookkeeping.

All facts here are pure integer identities, so the tests sweep a large
seeded sample rather than freezing individual values.
"""

import random

import pytest

from capitula.bounds import BoundReport, herbrand_report, required_n


def test_quadratic_case_spot_values():
    # the worked example: |G| = 2, one ramified prime at level n = 1,
    # trivial character index, class number exponent w = 1
    rep = herbrand_report(2, 1, 0, 0, 1)
    assert rep.h0_exp == 1
    assert rep.h1_exp == 2
    assert rep.igpg_exp_bound == 1
    assert rep.threshold_met
    assert isinstance(rep, BoundReport)


def test_threshold_fails_below_w():
    rep = herbrand_report(2, 1, 0, 0, 2)  # w = 2 needs n >= 2
    assert not rep.threshold_met
    assert herbrand_report(2, 2, 0, 0, 2).threshold_met


def test_herbrand_difference_is_n_plus_d():
    rng = random.Random(20260815)
    for _ in range(1000):
        G = rng.randint(2, 3**6)
        n = rng.randint(1, 40)
        delta = rng.randint(0, 12)
        d_exp = rng.randint(0, 12)
        w = rng.randint(0, 12)
        rep = herbrand_report(G, n, delta, d_exp, w)
        assert rep.h1_exp - rep.h0_exp == n + d_exp
        assert rep.h0_exp == n * (G - 1) - delta


def test_igpg_bound_does_not_depend_on_n():
    rng = random.Random(7)
    for _ in range(1000):
        G = rng.randint(2, 100)
        n = rng.randint(1, 30)
        delta = rng.randint(0, 10)
        d_exp = rng.randint(0, 10)
        w = rng.randint(0, 10)
        a = herbrand_report(G, n, delta, d_exp, w)
        b = herbrand_report(G, n + 1, delta, d_exp, w)
        assert a.igpg_exp_bound == b.igpg_exp_bound == w + delta - d_exp


def test_required_n_is_minimal_and_monotone():
    rng = random.Random(99)
    for _ in range(1000):
        delta = rng.randint(0, 10)
        d_exp = rng.randint(0, 10)
        w = rng.randint(0, 10)
        n0 = required_n(w, delta, d_exp)
        assert n0 >= 1
        assert herbrand_report(2, n0, delta, d_exp, w).threshold_met
        if n0 > 1:
            assert not herbrand_report(2, n0 - 1, delta, d_exp, w).threshold_met
        # monotone in w, antitone in d_exp
        assert required_n(w + 1, delta, d_exp) >= n0
        assert required_n(w, delta, d_exp + 1) <= n0


def test_threshold_met_exactly_from_required_n():
    for w in range(6):
        for delta in range(4):
            for d_exp in range(4):
                n0 = required_n(w, delta, d_exp)
                for n in range(1, n0 + 3):
                    rep = herbrand_report(2, n, delta, d_exp, w)
                    assert rep.threshold_met == (n >= w + delta - d_exp)
                    if rep.threshold_met:
                        assert n >= n0 or w + delta - d_exp < 1


def test_report_validation():
    with pytest.raises(ValueError):
        herbrand_report(1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        herbrand_report(2, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        herbrand_report(2, 1, -1, 0, 0)
    with pytest.raises(ValueError):
        herbrand_report(2, 1, 0.5, 0, 0)  # fractional exponents rejected
