"""End-to-end tests of the command-line interface.

Runs every command through click's in-process runner, checks exit
codes (0 success, 1 exhausted or inconclusive, 2 bad input, 3 internal
inconsistency), and re-verifies emitted certificate records from their
JSON alone.
"""

import ast
import functools
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import cli, quadfield
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
    assert rec["target_class"] == [1]
    assert rec["witness"]["symbol"]["order"] == 3
    assert rec["witness"]["root"] == 3
    assert rec["matched_inverse"] is False
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
    result = runner.invoke(
        main, ["certify", "--d", "79", "--p", "3", "--out", str(out)]
    )
    assert result.exit_code == 0
    (rec,) = read_records(out)
    assert rec["q"] == 7
    assert rec["subfield"]["period_poly"] == [-1, -2, 1, 1]
    assert abs(rec["certificate"]["norm_alpha"]) == 343


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
            "certify", "--d", "142", "--p", "3", "--q", "7",
            "--c0", "1", "--max-doublings", "0", "--out", str(out),
        ],
    )
    assert result.exit_code == 1
    assert "inconclusive" in result.output
    (rec,) = read_records(out)
    assert rec["certificate"] is None
    assert rec["not_found"]["doublings_used"] == 0
    assert rec["not_found"]["enumerated"] > 0


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

    def run_certify_or_fail(d, *args):
        if d == 142:
            raise ConsistencyError("injected")
        return real(d, *args)

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


def test_survey_rejects_range_past_desk_bound(runner):
    # d = 1000002 = 2 * 3 * 166667 is squarefree, but disc = 4 d > 4 * 10^6
    result = runner.invoke(
        main, ["survey", "--dmin", "1000002", "--dmax", "1000002", "--p", "3"]
    )
    assert result.exit_code == 2
    assert "desk bound" in result.output


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


def test_auxiliary_exhausted(runner):
    result = runner.invoke(
        main, ["auxiliary", "--d", "79", "--p", "3", "--qbound", "5"]
    )
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# library-level wrappers


def test_run_search_returns_candidate():
    record, cand = run_search(79, 3, 1, "generator", 50_000, 1, 1)
    assert cand is not None and cand.q == 7
    assert record["q"] == 7


def test_run_certify_statuses():
    record, status = run_certify(79, 3, 1, "generator", None, 50_000, 1, 1, 2, 12)
    assert status == "ok"
    assert reverify_record(json.loads(json.dumps(record)))
    _, failed = run_certify(79, 3, 1, "generator", 11, 50_000, 1, 1, 2, 12)
    assert failed == "failed"
    _, exhausted = run_certify(79, 3, 1, "generator", None, 6, 1, 1, 2, 12)
    assert exhausted == "exhausted"


def test_reverify_rejects_tampered_records():
    record, _ = run_certify(79, 3, 1, "generator", None, 50_000, 1, 1, 2, 12)
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
    record, status = run_certify(79, 3, 1, "generator", None, 50_000, 1, 1, 2, 12)
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


def test_certify_refuses_what_it_could_not_reverify():
    with pytest.raises(ValueError, match="re-verified"):
        run_certify(79, 3, 4, "generator", None, 50_000, 1, 1, 2, 12)


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
    "search": ["search", "--d", "79", "--p", "3", "--phi-scale", "2"],
    "certify": ["certify", "--d", "79", "--p", "3", "--n", "4"],
    "survey": ["survey", "--dmax", "10", "--p", "9"],
    "bound": ["bound", "--g-order", "2", "--n", "0", "--w", "1"],
    "auxiliary": ["auxiliary", "--d", "2", "--p", "3"],
}


@pytest.mark.parametrize("args", INVALID_INPUTS.values(), ids=INVALID_INPUTS.keys())
def test_invalid_input_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


def test_tripped_class_group_cross_check_exits_3(runner, monkeypatch):
    real = quadfield.smith_normal_form

    def wrong_divisors(rows, k):
        divisors, v_mat, v_inv = real(rows, k)
        return [1] * len(divisors), v_mat, v_inv

    monkeypatch.setattr(quadfield, "smith_normal_form", wrong_divisors)
    quadfield.class_group.cache_clear()
    with pytest.raises(ConsistencyError, match="relation lattice"):
        quadfield.class_group(quadfield.make_field(79))
    result = runner.invoke(main, ["classgroup", "--d", "79"])
    assert result.exit_code == 3
    assert "internal consistency failure: relation lattice" in result.output


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; every cross-check must raise instead
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
