"""Tests of the benchmark itself: the tracer, self-time arithmetic,
failure counting, and agreement of the reported metrics with
BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402

wl = run.import_workloads()

from capitula import cli, compositum, linalg  # noqa: E402

TARGETS = [(mod, fn) for mod, fns in run.TRACED.items() for fn in fns]


def capitula_bindings():
    """(module, name) -> bound object, for every traced name in every
    capitula module that binds it."""
    names = {fn for _, fn in TARGETS}
    return {
        (mod_name, name): obj
        for mod_name, mod in sys.modules.items()
        if mod_name == "capitula" or mod_name.startswith("capitula.")
        for name, obj in vars(mod).items()
        if name in names
    }


def test_wrappers_cover_every_binding_and_restore_the_originals():
    before = capitula_bindings()
    tracer = layertrace.Tracer()
    tracer.wrap(TARGETS, "capitula")
    try:
        wrapped = capitula_bindings()
        assert all(wrapped[key] is not obj for key, obj in before.items())
        # re-exported and imported bindings are wrapped too
        assert compositum.lll_reduce_gram is linalg.lll_reduce_gram
        assert compositum.lll_reduce_gram.__wrapped__ is before["capitula.linalg", "lll_reduce_gram"]
        assert ("capitula.cli", "find_prime") in wrapped
        # no span is recorded outside an operation
        cli.reverify_record({"certificate": None})
        assert len(tracer) == 0
        tracer.op_id = 7
        cli.reverify_record({"certificate": None})
        tracer.op_id = -1
        assert len(tracer) == 1 and tracer.ops[0] == 7
    finally:
        tracer.restore()
    after = capitula_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_restore_after_an_exception_inside_a_span():
    original = linalg.det_bareiss
    tracer = layertrace.Tracer()
    tracer.wrap([("capitula.linalg", "det_bareiss")], "capitula")
    tracer.op_id = 0
    with pytest.raises(Exception):
        linalg.det_bareiss(None)
    tracer.op_id = -1
    tracer.restore()
    assert linalg.det_bareiss is original
    assert tracer.ends[0] >= tracer.starts[0] and not tracer._stack


def test_self_times_on_a_synthetic_span_tree():
    #   0 root  [0, 10]
    #   1   a   [1, 4]
    #   2     b [2, 3]
    #   3   c   [5, 9]
    #   4 root2 [11, 12]
    starts = array("d", [0, 1, 2, 5, 11])
    ends = array("d", [10, 4, 3, 9, 12])
    parents = array("i", [-1, 0, 1, 0, -1])
    assert layertrace.self_times(starts, ends, parents) == [3, 2, 1, 4, 1]
    # a sub-range keeps only the spans inside it
    assert layertrace.self_times(starts, ends, parents, 1, 3) == [2, 1]
    names = ["root", "a", "b", "c"]
    name_ids = array("i", [0, 1, 2, 3, 0])
    summary = layertrace.summarize(names, name_ids, starts, ends, parents, 0, 5)
    assert summary["root"] == {"calls": 2, "self_s": 4, "by_parent": {None: 2}}
    assert summary["b"]["by_parent"] == {"a": 1}
    # self times add up to the time covered by the root spans
    assert sum(e["self_s"] for e in summary.values()) == 11


def _broken(workload, op):
    return dataclasses.replace(workload, op=op)


def _raises(item):
    raise ValueError("broken op")


def test_a_wrong_q_counts_once():
    light = wl.load("certify-light", 0)
    light = dataclasses.replace(light, items=[79, 257])
    good = run.run_pass(wl, light)
    assert (good.failed, good.positive) == (0, 2)
    # every op is scaled by the reference timings around it
    assert len(good.ref_s) == len(good.op_s) == 2

    def wrong_q(d):
        record, status = light.op(d)
        if d == 257:
            record["q"] += 2
        return record, status

    stats = run.run_pass(wl, _broken(light, wrong_q))
    assert (stats.raised, stats.wrong, stats.failed) == (0, 1, 1)
    metrics = run.end_to_end([stats], [0.1])
    assert metrics["ok_frac"] == pytest.approx(1 / 2)


def test_an_accepted_corrupted_record_counts_once():
    records = wl.read_records()
    genuine = next(e for e in records if e["expect"])
    corrupted = next(e for e in records if e["kind"].startswith("corrupt"))
    reverify = dataclasses.replace(wl.load("reverify", 0), items=[genuine, corrupted])
    assert run.run_pass(wl, reverify).failed == 0
    stats = run.run_pass(wl, _broken(reverify, lambda entry: True))
    assert (stats.wrong, stats.failed, stats.positive) == (1, 1, 1)


def test_malformed_records_count_as_raised_not_wrong():
    malformed = [e for e in wl.read_records() if e["kind"].startswith("malformed")]
    assert len(malformed) == 4
    stats = run.run_pass(wl, dataclasses.replace(wl.load("reverify", 0), items=malformed))
    # reverify_record raises on these today; a total verifier returns False
    assert stats.wrong == 0 and stats.failed == stats.raised
    assert len(stats.op_s) == 4
    assert run.result([stats], {}, {})["correct"] is True


def test_a_certify_op_that_raises_is_wrong():
    light = dataclasses.replace(wl.load("certify-light", 0), items=[79])
    stats = run.run_pass(wl, _broken(light, _raises))
    assert (stats.raised, stats.wrong, stats.failed) == (0, 1, 1)
    assert run.result([stats], {}, {}) == {"correct": False, "attempted": 1, "failed": 1,
                                           "metrics": {}}


def test_a_raise_on_a_genuine_record_is_wrong():
    records = wl.read_records()
    genuine = next(e for e in records if e["expect"])
    corrupted = next(e for e in records if e["kind"].startswith("corrupt"))
    reverify = dataclasses.replace(wl.load("reverify", 0), items=[genuine, corrupted])
    stats = run.run_pass(wl, _broken(reverify, _raises))
    # the corrupted record may be rejected by raising; the genuine one may not
    assert (stats.raised, stats.wrong, stats.failed) == (1, 1, 2)
    assert run.result([stats], {}, {})["correct"] is False


def test_record_set_shape():
    records = wl.read_records()
    kinds = [e["kind"].split()[0] for e in records]
    assert (kinds.count("genuine"), kinds.count("corrupt"), kinds.count("malformed:")) == (7, 91, 4)


def test_default_inputs():
    assert wl.load("certify-light", 0).items == [79, 257, 985]
    assert wl.load("certify-deep", 0).items == [473, 785, 1373, 142, 254]
    assert wl.load("certify-deep", 5).items == wl.load("certify-deep", 5).items
    assert len(wl.load("reverify", 3).items) == 102


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = run.parse_args(["--workload", "certify-light", "--seconds", "0", "--trace", "1"])
    workload = wl.load("certify-light", 0)
    passes, metrics = run.traced_run(wl, workload, args)
    assert list(metrics) == list(run.PER_LAYER)
    assert all(p.failed == 0 for p in passes)
    assert metrics["linalg.lll_reduce_gram.calls"] == 3
    assert metrics["chebotarev.primes_per_search"] > 1
    assert 0.95 < metrics["trace.self_sum_frac"] <= 1
    assert (tmp_path / "spans-certify-light-seed0.tsv").is_file()
    assert cli.run_certify.__module__ == "capitula.cli" and not hasattr(cli.run_certify, "__wrapped__")
