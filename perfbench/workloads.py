"""The benchmark's workloads: inputs drawn from a seed, one operation
per input, and the checks on each operation's output.

Seed 0 gives the default inputs listed in perfbench/README.md.  Every
call into capitula goes through a module attribute (`cli.run_certify`,
never a name imported from it), so a tracer that rebinds the module
attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from capitula import cli, compositum, cyclotomic, quadfield

DATA = Path(__file__).resolve().parent / "data"

P, N = 3, 1
Q_BOUND = cli.DEFAULT_Q_BOUND
SCHEDULE = compositum.RadiusSchedule()  # the certify command's default c0 and doublings

LIGHT_FIELDS = (79, 257, 985)
DEEP_FOUND = (473, 785, 1373)
DEEP_HARD_DEFAULT = (142, 254)
DEEP_DOUBLINGS = 2
DEEP_POOL_DMAX = 3000

# the unbounded caches a fresh certify or survey process starts without
CACHES = (quadfield.class_group, quadfield.fundamental_unit, cyclotomic.make_subfield)


@dataclass
class Verdict:
    """What the checks found in one operation's output.  `wrong` names
    the first mismatch, or is None when the output is right."""

    wrong: str | None = None
    positive: bool = False  # counts toward `certified`
    enumerated: int = 0  # NotFound.enumerated of a certify that gave out
    excess_bits: float | None = None  # of an ok certificate


def never(item) -> bool:
    return False


@dataclass(frozen=True)
class Workload:
    name: str
    items: list
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Verdict]
    # True for an input the program must reject: an op that raises on
    # it has failed, but its output is not wrong
    rejects: Callable[[Any], bool] = never

    @staticmethod
    def label(item) -> str:
        return item["kind"] if isinstance(item, dict) else f"d={item}"


def clear_caches() -> None:
    for fn in CACHES:
        fn.cache_clear()


def read_json(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def read_records() -> list[dict]:
    with open(DATA / "reverify_records.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# certify-light and certify-deep: run_certify, one field per operation


def certify_op(max_doublings: int):
    def op(d: int):
        return cli.run_certify(d, P, N, "generator", None, Q_BOUND, 1, 1,
                               SCHEDULE.c0, max_doublings)
    return op


def excess_bits(alpha, order, ideal_norm: int) -> float:
    """log2 T2(alpha) - log2 det(Gram) / degree, where Gram is the
    trace form on the ideal lattice: det(Gram) = disc(M) * N(I)^2."""
    t2 = sum(a * g * b for a, row in zip(alpha, order.gram) for g, b in zip(row, alpha))
    return math.log2(t2) - math.log2(order.disc * ideal_norm**2) / order.degree


def certify_check(expected: dict, d: int, out) -> Verdict:
    record, status = out
    want_q = expected[str(d)]["q"]
    if record.get("q") != want_q:
        return Verdict(wrong=f"d={d}: q = {record.get('q')}, expected {want_q}")
    if status == "not_found":
        return Verdict(enumerated=record["not_found"]["enumerated"])
    if status != "ok":
        return Verdict(wrong=f"d={d}: status {status}")
    if not cli.reverify_record(json.loads(json.dumps(record))):
        return Verdict(wrong=f"d={d}: record fails reverify_record")
    cert = record["certificate"]
    order = compositum.build_compositum(
        quadfield.make_field(d), cyclotomic.make_subfield(record["q"], P**N)
    )
    if abs(compositum.exact_norm(cert["alpha"], order)) != record["ideal_norm"]:
        return Verdict(wrong=f"d={d}: |N(alpha)| differs from the ideal norm")
    return Verdict(positive=True, excess_bits=excess_bits(cert["alpha"], order, record["ideal_norm"]))


def deep_fields(seed: int) -> list[int]:
    if seed == 0:
        return [*DEEP_FOUND, *DEEP_HARD_DEFAULT]
    pool = sorted(int(d) for d, v in read_json("certify_expected.json")["fields"].items()
                  if v["status"] == "not_found")
    return [*DEEP_FOUND, *sorted(_rng(seed).sample(pool, 2))]


def load_certify(name: str, seed: int) -> Workload:
    expected = read_json("certify_expected.json")["fields"]
    if name == "certify-light":
        items, doublings = list(LIGHT_FIELDS), SCHEDULE.max_doublings
    else:
        items, doublings = deep_fields(seed), DEEP_DOUBLINGS
    if seed != 0:
        _rng(seed).shuffle(items)
    return Workload(name, items, certify_op(doublings),
                    lambda d, out: certify_check(expected, d, out))


# ---------------------------------------------------------------------------
# reverify: reverify_record on the committed record set


def reverify_op(entry: dict):
    return cli.reverify_record(entry["record"])


def reverify_check(entry: dict, verdict) -> Verdict:
    if verdict is not entry["expect"]:
        return Verdict(wrong=f"{entry['kind']}: verdict {verdict!r}, expected {entry['expect']}")
    return Verdict(positive=verdict)


def load_reverify(seed: int) -> Workload:
    items = read_records()
    if seed != 0:
        _rng(seed).shuffle(items)
    return Workload("reverify", items, reverify_op, reverify_check,
                    rejects=lambda entry: entry["expect"] is False)


def load(name: str, seed: int) -> Workload:
    if name in ("certify-light", "certify-deep"):
        return load_certify(name, seed)
    if name == "reverify":
        return load_reverify(seed)
    raise ValueError(f"unknown workload {name!r}")
