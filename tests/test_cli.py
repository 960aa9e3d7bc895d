"""End-to-end tests of the command-line interface.

Runs every command through click's in-process runner, checks exit
codes (0 success, 1 exhausted or inconclusive, 2 bad input, 3 internal
inconsistency), and re-verifies emitted certificate records from their
JSON alone.
"""

import ast
import functools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import cli, compositum, cyclotomic, quadfield
from capitula.cli import main, reverify_record, run_certify, run_search
from capitula.errors import ConsistencyError


@pytest.fixture()
def runner():
    return CliRunner()


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# classgroup


def test_classgroup_79(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(main, ["classgroup", "--d", "79", "--out", str(out)])
    assert result.exit_code == 0
    assert "h = 3" in result.output
    assert "Z/3" in result.output
    (rec,) = read_records(out)
    assert rec["command"] == "classgroup"
    assert rec["h"] == 3
    assert rec["elementary_divisors"] == [3]
    assert "artifact_version" in rec


def test_classgroup_trivial_structure(runner):
    result = runner.invoke(main, ["classgroup", "--d", "2"])
    assert result.exit_code == 0
    assert "trivial" in result.output


def test_classgroup_rejects_non_squarefree(runner):
    result = runner.invoke(main, ["classgroup", "--d", "12"])
    assert result.exit_code == 2
    assert "error" in result.output


# ---------------------------------------------------------------------------
# search


def test_search_79_finds_7(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main, ["search", "--d", "79", "--p", "3", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "q = 7" in result.output
    (rec,) = read_records(out)
    assert rec["command"] == "search"
    assert rec["q"] == 7
    assert rec["condition_flags"] == [True] * 6
    assert rec["target_form"] == [3, 2]
    assert rec["witness"]["symbol"]["order"] == 3
    assert rec["witness"]["root"] == 3
    assert rec["witness"]["class_form"] == [3, 4]
    assert rec["matched_inverse"] is True
    assert rec["class_group"] == {"order": 3, "elementary_divisors": [3]}


def test_search_exhausted_exit_1(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        ["search", "--d", "79", "--p", "3", "--qbound", "6", "--out", str(out)],
    )
    assert result.exit_code == 1
    (rec,) = read_records(out)
    assert rec["q"] is None
    assert rec["exhausted"]["q_bound"] == 6
    assert rec["exhausted"]["scanned"] == 1
    # the target is named whatever the outcome, by its least form
    assert rec["target_form"] == [3, 2]
    assert result.output.startswith("d = 79, p = 3, n = 1: class group Z/3, target (3, 2)\n")


def test_search_rejects_even_p(runner):
    result = runner.invoke(main, ["search", "--d", "79", "--p", "2"])
    assert result.exit_code == 2
    assert "odd prime" in result.output


def test_search_rejects_p_without_torsion(runner):
    result = runner.invoke(main, ["search", "--d", "2", "--p", "3"])
    assert result.exit_code == 2
    assert "no 3-torsion" in result.output


def test_search_rejects_unparsable_selector(runner):
    result = runner.invoke(
        main, ["search", "--d", "79", "--p", "3", "--class", "sideways"]
    )
    assert result.exit_code == 2
    assert "cannot parse" in result.output


@pytest.mark.parametrize(
    "token", ["7", "+7", "-7", "007", "1_0", "٣", "1__0", "_1", "1_", "1.0", "x"]
)
def test_selector_tokens_are_what_int_accepts(token):
    cg = quadfield.class_group(quadfield.make_field(79))
    try:
        expected = (int(token),)
    except ValueError:
        with pytest.raises(ValueError, match="cannot parse"):
            cli._resolve_selector(cg, 3, token)
    else:
        assert cli._resolve_selector(cg, 3, token) == expected


# ---------------------------------------------------------------------------
# certify


def test_certify_79_with_explicit_q13(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        ["certify", "--d", "79", "--p", "3", "--q", "13", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "certificate verified exactly" in result.output
    assert "negative control" in result.output
    (rec,) = read_records(out)
    assert rec["command"] == "certify"
    assert rec["q"] == 13
    assert rec["subfield"]["period_poly"] == [1, -4, 1, 1]
    assert rec["subfield"]["disc"] == 169
    assert rec["compositum_disc"] == 316**3 * 13**4
    assert rec["ideal_norm"] == 13**3
    assert abs(rec["certificate"]["norm_alpha"]) == 13**3
    assert rec["principal_in_L"] is False
    assert "already_principal" not in rec
    assert rec["bound_report"]["threshold_met"] is True
    # the record alone re-verifies after a JSON round-trip
    assert reverify_record(json.loads(json.dumps(rec)))


def test_certify_auto_search_uses_smallest_q(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    # options are not read from the environment: this q bound, were it
    # read, would stop the scan below 7
    result = runner.invoke(
        main, ["certify", "--d", "79", "--p", "3", "--out", str(out)],
        env={"CAPITULA_CERTIFY_QBOUND": "6"},
    )
    assert result.exit_code == 0
    (rec,) = read_records(out)
    assert rec["q"] == 7
    assert rec["subfield"]["period_poly"] == [-1, -2, 1, 1]
    assert abs(rec["certificate"]["norm_alpha"]) == 343
    # the line of the README's transcript, read from q and p^n
    assert "subfield of Q(mu_7): degree 3, eta polynomial x^3 + x^2 - 2x - 1, disc 49" in result.output


def test_certify_record_states_each_fact_once():
    # q and p^n are not repeated in subfield, and neither the character
    # scale nor a worker count is a parameter any more
    rec, status = run_certify(79, 3, 1, "generator", None, 50_000, c0=2, max_doublings=0)
    assert status == "ok"
    assert "phi_scale" not in rec
    assert "phi_scale" not in rec["config"] and "jobs" not in rec["config"]
    assert list(rec["subfield"]) == ["period_poly", "disc", "poly_disc", "index", "irreducible_mod"]


def test_run_certify_keeps_two_positional_placeholders():
    # perfbench calls run_certify with ten positional arguments, 1 and 1
    # in the places of phi_scale and jobs; any other value is refused
    rec, status = run_certify(79, 3, 1, "generator", None, 50_000, 1, 1, 2, 0)
    assert (status, rec["q"]) == ("ok", 7)
    for phi_scale, jobs in ((3, 1), (1, 2)):
        with pytest.raises(ValueError, match="take only 1"):
            run_certify(79, 3, 1, "generator", None, 50_000, phi_scale, jobs, 2, 0)


def test_certify_failed_conditions_exit_1(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        ["certify", "--d", "79", "--p", "3", "--q", "11", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "does not satisfy" in result.output
    (rec,) = read_records(out)
    assert rec["condition_flags"] == [True, False, True, False, False, False]
    assert rec.get("certificate") is None


def test_certify_starved_schedule_inconclusive(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        [
            "certify", "--d", "223", "--p", "3", "--q", "37",
            "--c0", "1", "--max-doublings", "0", "--out", str(out),
        ],
    )
    assert result.exit_code == 1
    assert "inconclusive" in result.output
    (rec,) = read_records(out)
    assert rec["certificate"] is None
    assert rec["not_found"]["tries"] == 16
    assert rec["not_found"]["enumerated"] > 0
    assert len(rec["not_found"]["rounds"]) == 2
    assert rec["not_found"]["lll_swaps"] > 0
    assert rec["not_found"]["capped"] is False
    assert not {"tries", "enumerated", "capped", "rounds", "lll_swaps"} & rec.keys()


def test_twisted_tries_certify_and_record_where_the_search_went():
    # the plain T2 ball misses the unbalanced generators of 142 and 254;
    # the twisted tries find them within max_doublings = 2 (64 tries),
    # and the records carry the tries and visits and re-verify from JSON
    for d in (142, 254):
        record, status = run_certify(d, 3, 1, "generator", None, 50_000, c0=2, max_doublings=2)
        assert status == "ok", d
        assert record["principal_in_L"] is False
        assert 1 <= record["tries"] <= 64
        assert record["enumerated"] > sum(r["visited"] for r in record["rounds"])
        n, det_gram = 6, record["compositum_disc"] * record["ideal_norm"] ** 2
        radii = compositum.RadiusSchedule(c0=2).untwisted_radii(n, det_gram)
        assert [r["radius_sq"] for r in record["rounds"]] == list(radii)
        assert record["lll_swaps"] > 0
        assert record["capped"] is False
        assert not {"tries", "capped", "rounds", "lll_swaps"} & record["certificate"].keys()
        assert reverify_record(json.loads(json.dumps(record)))
        # the counters are where the search went, not part of the proof
        assert reverify_record(json.loads(json.dumps({**record, "lll_swaps": -1})))


def test_certificate_does_not_depend_on_the_hash_seed():
    # the twists are seeded by a str, so string hashing cannot move them
    script = (
        "from capitula.cli import run_certify\n"
        "record, _ = run_certify(142, 3, 1, 'generator', None, 50000, c0=2, max_doublings=2)\n"
        "print(record['certificate']['alpha'])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    alphas = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        alphas.add(done.stdout.strip())
    assert len(alphas) == 1


def test_certify_threshold_guard(runner):
    # d = 1129 has h = 9: the 3-part needs n >= 2, so n = 1 is refused
    result = runner.invoke(main, ["certify", "--d", "1129", "--p", "3", "--n", "1"])
    assert result.exit_code == 2
    assert "threshold" in result.output
    assert "n >= 2" in result.output


def test_certify_degenerate_q_rejected(runner):
    result = runner.invoke(
        main, ["certify", "--d", "79", "--p", "3", "--q", "79"]
    )
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# survey


def test_survey_single_field(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        ["survey", "--dmin", "79", "--dmax", "80", "--p", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert "1 fields, 1 certified" in result.output
    lines = result.output.strip().splitlines()
    header = lines[0].split()
    assert header == ["d", "h", "q", "status", "ms"]
    row = lines[1].split()
    assert row[0] == "79" and row[1] == "3" and row[2] == "7" and row[3] == "ok"
    (rec,) = read_records(out)
    assert rec["d"] == 79 and rec["certificate"] is not None


def test_survey_skips_fields_without_p_torsion(runner):
    result = runner.invoke(
        main, ["survey", "--dmin", "2", "--dmax", "5", "--p", "3"]
    )
    assert result.exit_code == 0
    assert "0 fields, 0 certified" in result.output


def test_survey_rejects_bad_p(runner):
    result = runner.invoke(main, ["survey", "--dmax", "10", "--p", "2"])
    assert result.exit_code == 2


def test_survey_streams_each_record_as_its_field_finishes(runner, tmp_path, monkeypatch):
    # 79 and 142 are the 3-divisible fields in the range; the second one
    # trips a consistency failure, after the first record is written
    real = cli.run_certify

    def run_certify_or_fail(d, *args, **kwargs):
        if d == 142:
            raise ConsistencyError("injected")
        return real(d, *args, **kwargs)

    monkeypatch.setattr(cli, "run_certify", run_certify_or_fail)
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main,
        ["survey", "--dmin", "79", "--dmax", "142", "--p", "3", "--out", str(out)],
    )
    (rec,) = read_records(out)
    assert rec["d"] == 79 and rec["certificate"] is not None
    lines = result.output.splitlines()
    assert lines[0].split() == ["d", "h", "q", "status", "ms"]
    assert lines[1].split()[:4] == ["79", "3", "7", "ok"]
    assert result.exit_code == 3
    assert "internal consistency failure: injected" in result.output


def test_survey_streams_from_its_first_field(runner, monkeypatch):
    # 79 is the first d with 3 | h; the survey walks its range once, so
    # a failure there stops it before any later field's class group
    seen = []
    real_class_group = cli.class_group

    def recording_class_group(L):
        seen.append(L.d)
        return real_class_group(L)

    def run_certify_or_fail(d, *args, **kwargs):
        raise ConsistencyError("injected")

    monkeypatch.setattr(cli, "class_group", recording_class_group)
    monkeypatch.setattr(cli, "run_certify", run_certify_or_fail)
    result = runner.invoke(main, ["survey", "--dmin", "2", "--dmax", "500", "--p", "3"])
    assert result.exit_code == 3
    assert seen and max(seen) == 79


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_reads_its_range_lazily(runner, monkeypatch, jobs):
    # the range is tested for squarefree d only as far as the survey has
    # come, and its window ahead, so a failure at 79 stops it long
    # before d = 20000
    seen = []
    real_is_squarefree = cli.is_squarefree

    def counted_is_squarefree(d):
        seen.append(d)
        return real_is_squarefree(d)

    def run_certify_or_fail(d, *args, **kwargs):
        raise ConsistencyError("injected")

    monkeypatch.setattr(cli, "is_squarefree", counted_is_squarefree)
    monkeypatch.setattr(cli, "run_certify", run_certify_or_fail)
    result = runner.invoke(main, ["survey", "--dmin", "2", "--dmax", "20000", "--p", "3",
                                  "--jobs", str(jobs)])
    assert result.exit_code == 3
    assert len(seen) < 200 + 2 * cli.SURVEY_AHEAD * (jobs - 1)


def test_survey_worker_processes_agree_with_one_process(runner, tmp_path):
    # the class groups and the certificates both run in the workers;
    # rows and records match the serial run up to the timings
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        result = runner.invoke(main, [
            "survey", "--dmin", "2", "--dmax", "260", "--p", "3",
            "--max-doublings", "0", "--jobs", jobs, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        records = read_records(out)
        for rec in records:
            rec.pop("timings_ms")
        rows_without_ms = [line.split()[:4] for line in result.output.splitlines()]
        runs[jobs] = rows_without_ms, records
    assert runs["1"] == runs["2"]
    assert runs["1"][0][-1] == ["7", "fields,", "5", "certified"]


def test_survey_rejects_range_past_desk_bound(runner):
    # d = 1000002 = 2 * 3 * 166667 is squarefree, but disc = 4 d > 4 * 10^6
    result = runner.invoke(
        main, ["survey", "--dmin", "1000002", "--dmax", "1000002", "--p", "3"]
    )
    assert result.exit_code == 2
    assert "desk bound" in result.output


def no_class_group(L):
    raise AssertionError("survey computed a class group")


def test_survey_checks_its_whole_range_against_the_desk_bound_first(runner, monkeypatch):
    # only d = 1000002, the top of the range, is past the bound (disc 4000008)
    monkeypatch.setattr(cli, "class_group", no_class_group)
    result = runner.invoke(
        main, ["survey", "--dmin", "999980", "--dmax", "1000002", "--p", "3"]
    )
    assert result.exit_code == 2
    with pytest.raises(ValueError) as refused:
        quadfield.make_field(1000002)
    assert result.output == f"error: {refused.value}\n"


def test_survey_refuses_p_power_above_27_before_any_class_group(runner, monkeypatch):
    monkeypatch.setattr(cli, "class_group", no_class_group)
    result = runner.invoke(
        main, ["survey", "--dmin", "2", "--dmax", "300", "--p", "3", "--n", "4"]
    )
    assert result.exit_code == 2
    assert result.output == (
        "error: p^n = 81 is above 27, the largest degree whose records can be re-verified\n"
    )


# ---------------------------------------------------------------------------
# bound and auxiliary


def test_bound_output(runner):
    result = runner.invoke(
        main, ["bound", "--g-order", "2", "--n", "1", "--w", "1"]
    )
    assert result.exit_code == 0
    assert "H^0 exponent lower bound: 1" in result.output
    assert "H^1 exponent lower bound: 2" in result.output
    assert "met" in result.output
    assert "required n = 1" in result.output


def test_bound_not_met(runner):
    result = runner.invoke(
        main, ["bound", "--g-order", "2", "--n", "1", "--w", "3"]
    )
    assert result.exit_code == 0
    assert "NOT met" in result.output
    assert "required n = 3" in result.output


def test_bound_rejects_bad_exponents(runner):
    result = runner.invoke(
        main, ["bound", "--g-order", "1", "--n", "1", "--w", "0"]
    )
    assert result.exit_code == 2


def test_auxiliary_79(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(
        main, ["auxiliary", "--d", "79", "--p", "3", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "Cl_L'^3" in result.output
    (rec,) = read_records(out)
    assert rec["command"] == "auxiliary"
    assert rec["q"] == 7
    assert rec["q"] % 6 == 1
    assert "Cl_L'^3" in rec["statement"]


def test_records_name_classes_by_their_least_forms(runner, tmp_path):
    # each class is named once, by the least reduced (a, B) on its
    # cycle, never by its coordinates, which move with the Smith
    # transform V: on d = 79 the target is the class at coordinates (1,),
    # the class of (3, 2), and the primes above 7 and 13 lie in its
    # conjugate at (2,), the class of (3, 4)
    cg = quadfield.class_group(quadfield.make_field(79))
    assert (cg.least_form((1,)), cg.least_form((2,))) == ((3, 2), (3, 4))
    out = tmp_path / "records.jsonl"
    for args in (["search"], ["certify", "--q", "13"], ["auxiliary"]):
        result = runner.invoke(main, [*args, "--d", "79", "--p", "3", "--out", str(out)])
        assert result.exit_code == 0, args
        assert "(3, 4)" in result.output, args
    search, certify, auxiliary = read_records(out)
    for rec in (search, certify):
        assert (rec["target_form"], rec["witness"]["class_form"]) == ([3, 2], [3, 4])
        assert "class_coords" not in rec["witness"]
    for rec in (search, certify, auxiliary):
        assert not {"target_class", "class_coords"} & rec.keys()
    assert (auxiliary["target_form"], auxiliary["class_form"]) == ([3, 2], [3, 4])
    assert reverify_record(certify)


def test_auxiliary_exhausted(runner):
    result = runner.invoke(
        main, ["auxiliary", "--d", "79", "--p", "3", "--qbound", "5"]
    )
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# library-level wrappers


def test_run_search_returns_candidate():
    record, cand = run_search(79, 3, 1, "generator", 50_000)
    assert cand is not None and cand.q == 7
    assert record["q"] == 7


def test_run_certify_statuses():
    record, status = run_certify(79, 3, 1, "generator", None, 50_000, c0=2, max_doublings=12)
    assert status == "ok"
    assert reverify_record(json.loads(json.dumps(record)))
    _, failed = run_certify(79, 3, 1, "generator", 11, 50_000, c0=2, max_doublings=12)
    assert failed == "failed"
    _, exhausted = run_certify(79, 3, 1, "generator", None, 6, c0=2, max_doublings=12)
    assert exhausted == "exhausted"


def test_reverify_rejects_tampered_records():
    record, _ = run_certify(79, 3, 1, "generator", None, 50_000, c0=2, max_doublings=12)
    clean = json.loads(json.dumps(record))
    assert reverify_record(clean)

    bent = json.loads(json.dumps(clean))
    bent["certificate"]["alpha"][2] += 1
    assert not reverify_record(bent)

    bent = json.loads(json.dumps(clean))
    bent["certificate"]["norm_alpha"] = -bent["certificate"]["norm_alpha"]
    assert not reverify_record(bent)

    bent = json.loads(json.dumps(clean))
    bent["ideal_hnf"][0][0] *= 7
    assert not reverify_record(bent)

    bent = json.loads(json.dumps(clean))
    bent["certificate"] = None
    assert not reverify_record(bent)


@functools.lru_cache(maxsize=None)
def genuine_79_json() -> str:
    record, status = run_certify(79, 3, 1, "generator", None, 50_000, c0=2, max_doublings=12)
    assert status == "ok"
    return json.dumps(record)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=json_values)
def test_reverify_is_total_on_any_field(data, value):
    record = json.loads(genuine_79_json())
    key = data.draw(st.sampled_from(sorted(record)))
    record[key] = value
    assert reverify_record(record) in (True, False)
    cert = json.loads(genuine_79_json())["certificate"]
    cert[data.draw(st.sampled_from(sorted(cert)))] = value
    record = {**json.loads(genuine_79_json()), "certificate": cert}
    assert reverify_record(record) in (True, False)
    assert reverify_record(value) is False


def test_reverify_refuses_out_of_range_parameters():
    clean = json.loads(genuine_79_json())
    assert reverify_record(clean)
    for key, value in (
        ("d", 4 * 79),           # not squarefree
        ("d", 10**7 + 1),        # discriminant above the desk bound
        ("d", "79"),
        ("q", 9),                # not prime
        ("q", 11),               # prime, but 11 - 1 is not divisible by 3
        ("q", 10**6 + 3),        # above the re-verification ceiling
        ("p", 2),
        ("n", 10**18),           # p^n far above the degree ceiling
        ("n", True),
    ):
        assert reverify_record({**clean, key: value}) is False, (key, value)
    for key in ("d", "p", "n", "q", "ideal_hnf", "ideal_norm", "certificate"):
        assert reverify_record({k: v for k, v in clean.items() if k != key}) is False


def test_reverify_refuses_huge_certificate_before_any_arithmetic(monkeypatch):
    # self-consistent but huge: k times the first HNF row added to alpha
    # and k to the first containment coefficient, with a 40,000-digit k
    record = json.loads(genuine_79_json())
    cert = record["certificate"]
    k = 10**40_000 + 1
    cert["alpha"] = [a + k * h for a, h in zip(cert["alpha"], record["ideal_hnf"][0])]
    cert["containment"][0] += k

    def refuse(*args):
        raise AssertionError("exact_norm reached on an oversized certificate")

    monkeypatch.setattr(compositum, "exact_norm", refuse)
    assert reverify_record(record) is False


def test_reverify_coordinate_ceiling_falls_with_the_degree(monkeypatch):
    # at degree 54 (d = 79, q = 271, p^n = 27) a self-consistent record
    # with 984-bit containment coefficients has alpha under 1024 bits;
    # its 54 x 54 exact norm would take seconds, so it is refused first
    real_norm = compositum.exact_norm
    L = quadfield.make_field(79)
    order = compositum.build_compositum(L, cyclotomic.make_subfield(271, 27))
    lattice = compositum.extend_ideal(quadfield.prime_ideal_above(L, 271), order)
    rng = random.Random(54)
    ks = [rng.getrandbits(984) | 1 << 983 for _ in lattice.hnf]
    alpha = [sum(k * row[c] for k, row in zip(ks, lattice.hnf)) for c in range(order.degree)]
    assert max(v.bit_length() for v in alpha) <= cli.REVERIFY_INT_BITS
    record = {
        "d": 79, "p": 3, "n": 3, "q": 271,
        "ideal_hnf": [list(r) for r in lattice.hnf],
        "ideal_norm": lattice.norm,
        "certificate": {"alpha": alpha, "containment": ks,
                        "norm_alpha": lattice.norm, "ideal_norm": lattice.norm},
    }

    def refuse(*args):
        raise AssertionError("exact_norm reached at degree 54")

    monkeypatch.setattr(compositum, "exact_norm", refuse)
    assert reverify_record(record) is False

    # at degree 6 the ceiling stays at 1024 bits: a 1000-bit alpha that
    # solves its containment still gets its exact norm computed
    record = json.loads(genuine_79_json())
    cert = record["certificate"]
    k = 1 << 999
    cert["alpha"] = [a + k * h for a, h in zip(cert["alpha"], record["ideal_hnf"][0])]
    cert["containment"][0] += k
    assert max(v.bit_length() for v in cert["alpha"]) > 999
    calls = []

    def counted(alpha, order):
        calls.append(len(alpha))
        return real_norm(alpha, order)

    monkeypatch.setattr(compositum, "exact_norm", counted)
    assert reverify_record(record) is False
    assert calls == [6]
def test_certify_refuses_what_it_could_not_reverify():
    with pytest.raises(ValueError, match="re-verified"):
        run_certify(79, 3, 4, "generator", None, 50_000, c0=2, max_doublings=12)


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0


# ---------------------------------------------------------------------------
# one exit-code contract for every command

FAILING_COMMANDS = {
    "classgroup": ["classgroup", "--d", "79"],
    "search": ["search", "--d", "79", "--p", "3"],
    "certify": ["certify", "--d", "79", "--p", "3"],
    "survey": ["survey", "--dmin", "79", "--dmax", "79", "--p", "3"],
    "auxiliary": ["auxiliary", "--d", "79", "--p", "3"],
}


@pytest.mark.parametrize("args", FAILING_COMMANDS.values(), ids=FAILING_COMMANDS.keys())
def test_consistency_failure_exits_3(runner, monkeypatch, args):
    def class_group_fails(L):
        raise ConsistencyError("injected")

    monkeypatch.setattr(cli, "class_group", class_group_fails)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "internal consistency failure: injected" in result.output


INVALID_INPUTS = {
    "classgroup": ["classgroup", "--d", "1"],
    "search": ["search", "--d", "79", "--p", "4"],
    "certify": ["certify", "--d", "79", "--p", "3", "--n", "4"],
    "certify-c0": ["certify", "--d", "79", "--p", "3", "--c0", "0"],
    "survey": ["survey", "--dmax", "10", "--p", "9"],
    "survey-c0": ["survey", "--dmin", "79", "--dmax", "80", "--p", "3", "--c0", "0"],
    "bound": ["bound", "--g-order", "2", "--n", "0", "--w", "1"],
    "auxiliary": ["auxiliary", "--d", "2", "--p", "3"],
    # options click itself refuses
    "classgroup-out-dir": ["classgroup", "--d", "79", "--out", "."],
    "classgroup-no-d": ["classgroup"],
    "survey-jobs-0": ["survey", "--dmax", "100", "--p", "3", "--jobs", "0"],
    "certify-n-0": ["certify", "--d", "79", "--n", "0"],
}


@pytest.mark.parametrize("args", INVALID_INPUTS.values(), ids=INVALID_INPUTS.keys())
def test_invalid_input_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert "Usage:" not in result.output


@pytest.mark.parametrize("command", ["search", "certify"])
@pytest.mark.parametrize("option", [["--jobs", "2"], ["--phi-scale", "3"]], ids=lambda o: o[0])
def test_deleted_options_are_refused(runner, command, option):
    # the prime scan runs in one process and the unit character is
    # unscaled; survey keeps its own --jobs
    result = runner.invoke(main, [command, "--d", "79", "--p", "3", *option])
    assert result.exit_code == 2
    assert result.output.startswith("error: No such option")
    assert "Usage:" not in result.output


def test_survey_refuses_a_huge_d_before_factoring_it(runner, monkeypatch):
    # 10000000000000000051 * 10000000000000000087: factorize would
    # trial-divide it up to 10^6 and then refuse it as beyond trial
    # division, a ValueError that does not name the desk bound
    big = 100000000000000001380000000000000004437

    def no_factoring(n):
        raise AssertionError("survey factored a d past the desk bound")

    monkeypatch.setattr(cli, "is_squarefree", no_factoring)
    result = runner.invoke(main, ["survey", "--dmin", str(big), "--dmax", str(big), "--p", "3"])
    assert result.exit_code == 2
    assert result.output == f"error: disc {big} is above the desk bound {quadfield.DESK_DISC_BOUND}\n"


@pytest.mark.parametrize("args", FAILING_COMMANDS.values(), ids=FAILING_COMMANDS.keys())
def test_unwritable_out_exits_2_before_any_class_group(runner, monkeypatch, tmp_path, args):
    monkeypatch.setattr(cli, "class_group", no_class_group)
    out = tmp_path / "missing" / "r.jsonl"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == f"error: cannot append records to {out}: no writable directory\n"
    assert not out.parent.exists()


def test_tripped_class_group_cross_check_exits_3(runner, monkeypatch):
    real = quadfield.smith_normal_form

    def wrong_divisors(rows):
        divisors, v_mat = real(rows)
        return [1] * len(divisors), v_mat

    monkeypatch.setattr(quadfield, "smith_normal_form", wrong_divisors)
    quadfield.class_group.cache_clear()
    with pytest.raises(ConsistencyError, match="relation lattice"):
        quadfield.class_group(quadfield.make_field(79))
    result = runner.invoke(main, ["classgroup", "--d", "79"])
    assert result.exit_code == 3
    assert "internal consistency failure: relation lattice" in result.output


def test_every_option_has_help_text():
    # an option a command shares is declared once, with its help, so
    # --help shows it on every command that takes it
    for name, command in main.commands.items():
        for param in command.params:
            if isinstance(param, click.Option):
                assert param.help, (name, param.opts)


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; every cross-check must raise instead
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_readme_library_example_gives_the_transcript_alpha(capsys):
    # the README's "Library use" block, run as written, finds the
    # generator its `capitula certify --d 79 --p 3` transcript shows
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    shown = re.search(r"^generator alpha = (\[.*\])$", text, re.M).group(1)
    namespace = {}
    exec(block, namespace)
    cert = namespace["cert"]
    assert list(cert.alpha) == json.loads(shown) == [-7, -14, -24, 0, 0, -1]
    assert capsys.readouterr().out == f"{cert.alpha} {cert.norm_alpha}\n"
    assert cert.norm_alpha == -343
