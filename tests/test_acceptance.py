"""Acceptance gate: one test per shipping criterion, self-contained.

Each test re-derives its expected values with local brute-force code
(nothing is imported from the other test modules), enforces the stated
time budget, and covers one externally visible promise:

  1. class numbers and fundamental units across the desk range
  2. period polynomials and their verified invariants
  3. the six conditions at the worked point and the (4,5) => (2,3)
     implication over a long prime scan
  4. at least three fields certify capitulation end to end
  5. certificates die under single-coordinate corruption and survive
     JSON round-trips
  6. the exponent bookkeeping identities on a large random sample
  7. the auxiliary-prime reduction at the worked point

The pass/fail line per criterion is the pytest verdict line of the
correspondingly named test.
"""

import json
import math
import random
import time

import mpmath

from capitula.arith import is_squarefree, iter_primes, kronecker
from capitula.bounds import herbrand_report, required_n
from capitula.chebotarev import check_conditions, find_auxiliary_prime
from capitula.cli import reverify_record, run_certify
from capitula.cyclotomic import make_subfield, poly_str, verify_subfield
from capitula.errors import ConsistencyError
from capitula.quadfield import class_group, fundamental_unit, make_field


def test_criterion_1_class_groups_and_units():
    """Cycle-count oracle for h(d), d <= 500 (60s); Pell oracle for the
    fundamental unit, d <= 200 (10s); frozen spot values."""

    def cycle_count(D):
        t = math.isqrt(D)
        reduced = set()
        for a in range(1, t + 1):
            for B in range(max(1, t - 2 * a + 1, 2 * a - t), t + 1):
                if (B * B - D) % (4 * a) == 0:
                    reduced.add((a, B))
        cycles, seen = 0, set()
        for f0 in sorted(reduced):
            if f0 in seen:
                continue
            cycles += 1
            a, B = f0
            while (a, B) not in seen:
                seen.add((a, B))
                B2 = 2 * a * ((B + t) // (2 * a)) - B
                a, B = (D - B2 * B2) // (4 * a), B2
        return cycles

    t0 = time.perf_counter()
    for d in range(2, 501):
        if is_squarefree(d):
            L = make_field(d)
            assert class_group(L).order == cycle_count(L.disc), d
    elapsed_h = time.perf_counter() - t0
    assert elapsed_h < 60.0

    assert class_group(make_field(79)).order == 3
    assert class_group(make_field(10)).order == 2
    eps79 = fundamental_unit(make_field(79))
    assert (eps79.x, eps79.y, eps79.norm) == (80, 9, 1)

    t0 = time.perf_counter()
    for d in range(2, 201):
        if not is_squarefree(d):
            continue
        L = make_field(d)
        eps = fundamental_unit(L)
        T, U = 2 * eps.u + L.s * eps.v, eps.v
        assert T * T - L.disc * U * U == 4 * eps.norm, d
        hit = None
        for Uc in range(1, 20_001):
            base = L.disc * Uc * Uc
            for delta in (-4, 4):
                Tc = math.isqrt(base + delta)
                if Tc * Tc == base + delta:
                    hit = (Tc, Uc)
                    break
            if hit:
                break
        if hit is not None:
            assert (T, U) == hit, d
        else:
            # solution beyond the literal scan: minimality via the
            # exact not-a-proper-power argument instead
            assert U > 20_000
            assert not _is_proper_power(L, eps), d
    assert time.perf_counter() - t0 < 10.0


def _is_proper_power(L, eps):
    nw = L.norm_omega()
    with mpmath.workprec(400):
        sq = mpmath.sqrt(L.disc)
        w = (L.s + sq) / 2
        r = mpmath.mpf(eps.u) + mpmath.mpf(eps.v) * w
        for k in range(2, int(mpmath.log(r) / mpmath.log(mpmath.mpf("1.6"))) + 2):
            root = mpmath.root(r, k)
            for sign in (1, -1):
                v = int(mpmath.nint((root - sign / root) / sq))
                u = int(mpmath.nint(root - v * w))
                if v < 1 or abs(L.norm_element(u, v)) != 1:
                    continue
                pu, pv = 1, 0
                for _ in range(k):
                    pu, pv = pu * u - pv * v * nw, pu * v + pv * u + pv * v * L.s
                if (pu, pv) == (eps.u, eps.v):
                    return True
    return False


def test_criterion_2_period_polynomials():
    """Frozen cubics at q = 7 and 13; for every prime q = 1 mod 3 up to
    200 the verified trace-form discriminant is q^2, all three roots
    are real, and the polynomial discriminant matches the cubic's
    closed form, inside 10s."""
    assert make_subfield(7, 3).period_poly == (-1, -2, 1, 1)
    assert poly_str(make_subfield(7, 3).period_poly) == "x^3 + x^2 - 2x - 1"
    assert make_subfield(13, 3).period_poly == (1, -4, 1, 1)
    assert poly_str(make_subfield(13, 3).period_poly) == "x^3 + x^2 - 4x + 1"

    t0 = time.perf_counter()
    swept = 0
    for q in iter_primes(200):
        if q % 3 != 1:
            continue
        sub = make_subfield(q, 3)
        c, b, a, _ = sub.period_poly
        report = verify_subfield(sub)
        assert report.disc == q * q, q
        # the discriminant of the monic cubic x^3 + a x^2 + b x + c
        disc = a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c
        assert report.poly_disc == disc == report.index**2 * q * q, q
        swept += 1
    assert swept == 21
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_conditions_and_implication():
    """At d = 79, p = 3, n = 1, q = 13: conditions (1), (2), (4), (5)
    hold and the unit symbol has value 3 of exact order 3.  Scanning
    all admissible q <= 10^5, (4) and (5) never hold without (2) and
    (3)."""
    L = make_field(79)
    target = class_group(L).p_sylow(3).generator_coords
    cand = check_conditions(L, 3, 1, 13, target)
    assert (cand.cond1, cand.cond2, cand.cond4, cand.cond5) == (True,) * 4
    assert cand.witness.symbol.value == 3
    assert cand.witness.symbol.order == 3

    violations = 0
    for q in iter_primes(100_000):
        if (2 * 3 * L.disc) % q == 0:
            continue
        try:
            check_conditions(L, 3, 1, q, target)
        except ConsistencyError:
            violations += 1
    assert violations == 0


_CERTIFIED = []  # (d, record) pairs shared between criteria 4 and 5


def _certified_fields():
    if not _CERTIFIED:
        for d in (79, 257, 473, 321, 229, 142, 469):
            if len(_CERTIFIED) >= 3:
                break
            t0 = time.perf_counter()
            record, status = run_certify(
                d, 3, 1, "generator", None, 50_000, 1, 1, 2, 12
            )
            record["_elapsed_s"] = time.perf_counter() - t0
            record["_status"] = status
            _CERTIFIED.append((d, record))
    return _CERTIFIED


def test_criterion_4_three_fields_certify():
    """At least three squarefree d <= 500 with 3 | h(d) produce exact
    capitulation certificates, d = 79 attempted first, each field
    within 300s.  |N(alpha)| = q^3 and the class is not principal in L
    itself."""
    attempts = _certified_fields()
    assert attempts[0][0] == 79
    good = 0
    for d, record in attempts:
        assert class_group(make_field(d)).order % 3 == 0, d
        assert record["_elapsed_s"] < 300.0, (d, record["_elapsed_s"])
        if record["_status"] != "ok":
            continue
        cert = record["certificate"]
        q = record["q"]
        assert abs(cert["norm_alpha"]) == q**3, d
        assert cert["ideal_norm"] == q**3, d
        assert record["principal_in_L"] is False, d
        clean = {k: v for k, v in record.items() if not k.startswith("_")}
        assert reverify_record(json.loads(json.dumps(clean))), d
        good += 1
    assert good >= 3, [d for d, _ in attempts]


def test_criterion_5_corruption_and_round_trips():
    """100 of 100 single-coordinate corruptions are rejected; 100 of
    100 JSON round-trips of clean records still re-verify."""
    records = [
        json.loads(json.dumps({k: v for k, v in rec.items() if not k.startswith("_")}))
        for _, rec in _certified_fields()
        if rec["_status"] == "ok"
    ]
    assert records
    rng = random.Random(20260815)

    rejected = 0
    for trial in range(100):
        rec = json.loads(json.dumps(records[trial % len(records)]))
        cert = rec["certificate"]
        spot = rng.choice(("alpha", "containment", "norm_alpha", "ideal_norm", "hnf"))
        bump = rng.choice((-3, -2, -1, 1, 2, 3))
        if spot == "alpha":
            cert["alpha"][rng.randrange(len(cert["alpha"]))] += bump
        elif spot == "containment":
            cert["containment"][rng.randrange(len(cert["containment"]))] += bump
        elif spot == "norm_alpha":
            cert["norm_alpha"] += bump
        elif spot == "ideal_norm":
            cert["ideal_norm"] += bump
        else:
            i = rng.randrange(len(rec["ideal_hnf"]))
            rec["ideal_hnf"][i][rng.randrange(i, len(rec["ideal_hnf"]))] += bump
        if not reverify_record(rec):
            rejected += 1
    assert rejected == 100

    survived = sum(
        1
        for trial in range(100)
        if reverify_record(json.loads(json.dumps(records[trial % len(records)])))
    )
    assert survived == 100


def test_criterion_6_exponent_identities():
    """1000 random parameter tuples: the Herbrand difference is n + d,
    the invariant-ideal bound ignores n, required_n is monotone and
    minimal, all inside 1s."""
    t0 = time.perf_counter()
    rng = random.Random(316)
    for _ in range(1000):
        G = rng.randint(2, 3**6)
        n = rng.randint(1, 40)
        delta = rng.randint(0, 12)
        d_exp = rng.randint(0, 12)
        w = rng.randint(0, 12)
        rep = herbrand_report(G, n, delta, d_exp, w)
        assert rep.h1_exp - rep.h0_exp == n + d_exp
        assert rep.igpg_exp_bound == herbrand_report(G, n + 1, delta, d_exp, w).igpg_exp_bound
        n0 = required_n(w, delta, d_exp)
        assert required_n(w + 1, delta, d_exp) >= n0
        assert required_n(w, delta, d_exp + 1) <= n0
        assert herbrand_report(2, n0, delta, d_exp, w).threshold_met
        if n0 > 1:
            assert not herbrand_report(2, n0 - 1, delta, d_exp, w).threshold_met
    assert time.perf_counter() - t0 < 1.0


def test_criterion_7_auxiliary_prime():
    """The auxiliary reduction at d = 79, p = 3, a = 1 lands on a split
    prime q = 1 mod 6 in the required class and states the conclusion
    about cubes, inside 30s."""
    t0 = time.perf_counter()
    L = make_field(79)
    target = class_group(L).p_sylow(3).generator_coords
    aux = find_auxiliary_prime(L, 3, 1, target)
    assert time.perf_counter() - t0 < 30.0
    assert kronecker(L.disc, aux.q) == 1
    assert aux.q % (2 * 3) == 1
    assert aux.class_coords in (target, class_group(L).inverse_coords(target))
    assert "Cl_L'^3" in aux.statement
