"""Regenerate the benchmark's committed inputs and expected outputs.

    python3 perfbench/make_inputs.py            # ~4 min

Writes, under perfbench/data/:
- certify_expected.json: q and status of run_certify with
  max_doublings=2 for every squarefree d < 3000 with 3 | h; the
  certify-deep hard fields are drawn from those with status not_found;
- reverify_records.jsonl: the reverify record set (7 genuine records,
  their 91 single-coordinate corruptions, 4 malformed records).

The files are committed so that a change to what certify finds does
not change the benchmark's inputs; rerun this only to redefine them.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capitula import arith, cli, quadfield  # noqa: E402

import workloads as wl  # noqa: E402

GENUINE = ((79, None), (79, 13), (257, None), (985, None), (473, None), (785, None), (1373, None))
CORRUPTED_KEYS = ("alpha", "containment", "norm_alpha")


def certify_expected() -> dict:
    fields, invalid = {}, {}
    for d in range(2, wl.DEEP_POOL_DMAX):
        if not arith.is_squarefree(d):
            continue
        if quadfield.class_group(quadfield.make_field(d)).order % wl.P:
            continue
        t0 = time.perf_counter()
        try:
            record, status = wl.certify_op(wl.DEEP_DOUBLINGS)(d)
        except ValueError as exc:  # e.g. a 3-part of order 9 needs n >= 2
            invalid[str(d)] = str(exc)
            continue
        fields[str(d)] = {"q": record["q"], "status": status}
        print(f"d={d} q={record['q']} {status} {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    missing = [d for d in (*wl.LIGHT_FIELDS, *wl.DEEP_FOUND, *wl.DEEP_HARD_DEFAULT)
               if str(d) not in fields]
    if missing:
        raise SystemExit(f"benchmark fields missing from the table: {missing}")
    return {"dmax": wl.DEEP_POOL_DMAX, "p": wl.P, "max_doublings": wl.DEEP_DOUBLINGS,
            "fields": fields, "invalid": invalid}


def reverify_records() -> list[dict]:
    genuine = []
    for d, q in GENUINE:
        record, status = cli.run_certify(d, wl.P, wl.N, "generator", q, wl.Q_BOUND, 1, 1,
                                         wl.SCHEDULE.c0, wl.SCHEDULE.max_doublings)
        if status != "ok":
            raise SystemExit(f"d={d} q={q}: status {status}")
        genuine.append(json.loads(json.dumps(record)))
    entries = [{"kind": f"genuine d={r['d']} q={r['q']}", "expect": True, "record": r}
               for r in genuine]
    for r in genuine:
        for key in CORRUPTED_KEYS:
            value = r["certificate"][key]
            for i in range(len(value) if isinstance(value, list) else 1):
                bad = copy.deepcopy(r)
                if isinstance(value, list):
                    bad["certificate"][key][i] += 1
                    where = f"{key}[{i}]"
                else:
                    bad["certificate"][key] += 1
                    where = key
                entries.append({"kind": f"corrupt d={r['d']} q={r['q']} {where}",
                                "expect": False, "record": bad})
    base = genuine[0]
    malformed = {
        "missing key q": {k: v for k, v in base.items() if k != "q"},
        "non-squarefree d": {**base, "d": 4 * base["d"]},
        "non-prime q": {**base, "q": 9},
        "d as a string": {**base, "d": str(base["d"])},
    }
    entries += [{"kind": f"malformed: {k}", "expect": False, "record": r}
                for k, r in malformed.items()]
    return entries


def main() -> None:
    wl.DATA.mkdir(exist_ok=True)
    with open(wl.DATA / "certify_expected.json", "w", encoding="utf-8") as fh:
        json.dump(certify_expected(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(wl.DATA / "reverify_records.jsonl", "w", encoding="utf-8") as fh:
        for entry in reverify_records():
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
