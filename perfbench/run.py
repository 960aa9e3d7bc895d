"""capitula benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload certify-light --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; capitula is imported from its src/.
The run repeats whole passes over the workload's inputs while the next
pass is expected to end within --seconds, and at least one.  Every pass
starts with the library's caches cleared, so it pays what a fresh
certify or survey process pays.  Each operation is timed alone; its
output is checked after the clock stops.  Times are scaled to a
reference CPU (see reference_work).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes, wraps the public functions of each layer
for the traced ones, writes the spans to perfbench/out/, and reports
the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOADS = ("certify-light", "certify-deep", "reverify")
SETUP_SAMPLES = 5  # setups per run: this process and four fresh ones
REF_S = 0.004  # reference_work() on the reference CPU, in seconds
REF_EVERY_S = 0.2  # a pass times reference_work() at least this often
REF_MOD = 7**150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "certified": "count",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# The public functions of each layer.  Private helpers are never wrapped.
TRACED = {
    "capitula.quadfield": ("class_group", "fundamental_unit", "is_principal"),
    "capitula.chebotarev": ("find_prime", "check_conditions"),
    "capitula.cyclotomic": ("make_subfield", "verify_subfield"),
    "capitula.compositum": ("build_compositum", "extend_ideal", "certify_principal",
                            "exact_norm", "verify_certificate"),
    "capitula.linalg": ("lll_reduce_gram", "hnf_rows", "det_bareiss"),
    "capitula.cli": ("run_certify", "reverify_record"),
}

PER_LAYER = {
    "chebotarev.find_prime.self_ms": "ms",
    "chebotarev.check_conditions.calls": "count",
    "chebotarev.primes_per_search": "count",
    "quadfield.class_group.self_ms": "ms",
    "quadfield.class_group.cache_hit_ratio": "frac",
    "quadfield.fundamental_unit.self_ms": "ms",
    "quadfield.fundamental_unit.cache_hit_ratio": "frac",
    "quadfield.is_principal.self_ms": "ms",
    "compositum.certify_principal.self_ms": "ms",
    "compositum.not_found.enumerated": "count",
    "compositum.alpha_t2_excess_bits": "bits",
    "linalg.lll_reduce_gram.calls": "count",
    "linalg.lll_reduce_gram.self_ms": "ms",
    "compositum.exact_norm.calls": "count",
    "compositum.exact_norm.self_ms": "ms",
    "compositum.exact_norms_per_certify": "count",
    "linalg.det_bareiss.calls": "count",
    "cli.reverify_record.self_ms": "ms",
    "compositum.build_compositum.self_ms": "ms",
    "compositum.extend_ideal.self_ms": "ms",
    "linalg.hnf_rows.self_ms": "ms",
    "compositum.verify_certificate.self_ms": "ms",
    "cyclotomic.make_subfield.self_ms": "ms",
    "cyclotomic.make_subfield.cache_hit_ratio": "frac",
    "cyclotomic.verify_subfield.self_ms": "ms",
    "cli.run_certify.self_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.self_sum_frac": "frac",
}


@dataclass
class PassStats:
    """One pass over the inputs: op times, failures and what the checks
    reported.  `cache` and `spans` are filled on traced passes only."""

    op_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)  # reference_work() time around each op
    raised: int = 0  # raised on an input that must be rejected
    wrong: int = 0  # wrong output, or raised where an output was due
    positive: int = 0
    enumerated: int = 0
    excess_bits: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    cache: dict = field(default_factory=dict)  # cache name -> [hits, misses]
    spans: tuple = (0, 0)  # [first, last) span index of a traced pass

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def ref_op_s(self) -> list:
        """Each op's time on the reference CPU."""
        return [t * REF_S / r for t, r in zip(self.op_s, self.ref_s)]


def reference_work() -> int:
    """Fixed pure-Python work, the yardstick of the CPU's speed:
    products, quotients and square roots of integers of a few hundred
    bits, the arithmetic of the lattice enumeration.

    On a shared machine other tenants can make every time up to twice
    as long, for seconds to minutes.  The run times this work right
    before and after the ops and divides each op's time by the mean of
    the two timings around it, so an op and its yardstick see the same
    slow-down; REF_S turns the quotient back into seconds."""
    a, b, acc = 3**120 + 7, 5**90 + 11, 0
    for i in range(3000):
        x = (a * (b + i)) // (i + 3)
        acc += math.isqrt(x) & 0xFF
        a, b = (b + (x & 0xFFFF)) % REF_MOD, a
    return acc


def reference_time() -> float:
    """One timing of reference_work, in seconds."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def reference_floor(reps: int) -> float:
    """Fastest of `reps` timings of reference_work, in seconds."""
    return min(reference_time() for _ in range(reps))


def speed_scale(passes) -> float:
    """Factor that turns this run's times into times on the reference
    CPU, for sums over a whole pass: REF_S over the median reference
    time."""
    return REF_S / statistics.median(r for p in passes for r in p.ref_s)


def import_workloads():
    """Import capitula from the checkout's src/ and the workload module,
    or stop with an error when the checkout holds no capitula."""
    if not (SRC / "capitula" / "__init__.py").is_file():
        raise SystemExit(f"error: no capitula package under {SRC}")
    sys.path.insert(0, str(SRC))
    import capitula
    if Path(capitula.__file__).resolve().parent != SRC / "capitula":
        raise SystemExit(f"error: imported capitula from {capitula.__file__}, not {SRC}")
    import workloads
    return workloads


def run_pass(wl, workload, tracer=None, op_base=0) -> PassStats:
    stats = PassStats()
    wl.clear_caches()
    if tracer is not None:
        first = len(tracer)
        caches = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}": fn for fn in wl.CACHES}
        stats.cache = {name: [0, 0] for name in caches}
    last = len(workload.items) - 1
    ref_before, next_ref = reference_time(), time.perf_counter() + REF_EVERY_S
    unscaled = 0  # ops since the last reference timing
    for k, item in enumerate(workload.items):
        if tracer is not None:
            before = {name: fn.cache_info() for name, fn in caches.items()}
            tracer.op_id = op_base + k
        t0 = time.perf_counter()
        try:
            out, err = workload.op(item), None
        except Exception as exc:  # the run goes on; the op counts as failed
            out, err = None, exc
        stats.op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op_id = -1
            for name, fn in caches.items():
                info, old = fn.cache_info(), before[name]
                stats.cache[name][0] += info.hits - old.hits
                stats.cache[name][1] += info.misses - old.misses
        unscaled += 1
        if k == last or time.perf_counter() >= next_ref:
            ref_after, next_ref = reference_time(), time.perf_counter() + REF_EVERY_S
            stats.ref_s += [(ref_before + ref_after) / 2] * unscaled
            ref_before, unscaled = ref_after, 0
        if err is not None:
            if workload.rejects(item):
                stats.raised += 1
            else:
                stats.wrong += 1
            stats.errors[f"{workload.label(item)}: raised {err!r}"] += 1
            continue
        try:
            verdict = workload.check(item, out)
        except Exception as exc:  # a check that cannot run counts as a wrong output
            verdict = wl.Verdict(wrong=f"check raised {exc!r}")
        if verdict.wrong:
            stats.wrong += 1
            stats.errors[verdict.wrong] += 1
        stats.positive += verdict.positive
        stats.enumerated += verdict.enumerated
        if verdict.excess_bits is not None:
            stats.excess_bits.append(verdict.excess_bits)
    if tracer is not None:
        stats.spans = (first, len(tracer))
    return stats


def run_passes(wl, workload, seconds, tracer=None) -> list:
    """Whole passes while the next one is expected to end within
    `seconds`.  With a tracer, odd passes are traced; at least one pass
    of each kind runs."""
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, workload, tracer if traced else None,
                               op_base=len(passes) * len(workload.items)))
        elapsed = time.perf_counter() - t0
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def scaled_setup(setup_s: float) -> float:
    """A process's set-up time, on the reference CPU."""
    return setup_s * REF_S / reference_floor(5)


def setup_samples(args, own_setup: float) -> list:
    """This process's set-up time and that of SETUP_SAMPLES - 1 fresh
    processes, each importing capitula and loading the same inputs."""
    samples = [own_setup]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def quantile(values, q: int) -> float:
    """The q-th percentile, q a multiple of 10, interpolated between the
    two nearest values by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def typical_op_s(passes) -> list:
    """Each input's median time over the passes, on the reference CPU."""
    return [statistics.median(times) for times in zip(*(p.ref_op_s() for p in passes))]


def end_to_end(passes, setups) -> dict:
    """End-to-end metrics; times are on the reference CPU."""
    typical_ms = [t * 1000 for t in typical_op_s(passes)]
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical_ms) * 1000 / sum(typical_ms),
        "op_ms_p50": quantile(typical_ms, 50),
        "op_ms_p90": quantile(typical_ms, 90),
        "certified": float(statistics.median(p.positive for p in passes)),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, passes) -> dict:
    """Per-layer metrics of the traced (odd) passes: call counts and self
    times are medians over those passes, ratios are over all of them."""
    traced, plain = passes[1::2], passes[0::2]
    summaries = [tracer.summary(*p.spans) for p in traced]
    ms = 1000 * speed_scale(passes)
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = statistics.median(s[name]["calls"] for s in summaries)
        out[f"{name}.self_ms"] = statistics.median(s[name]["self_s"] * ms for s in summaries)

    def total(name, key="calls", parent=None):
        if parent is None:
            return sum(s[name][key] for s in summaries)
        return sum(s[name]["by_parent"].get(parent, 0) for s in summaries)

    for name in ("quadfield.class_group", "quadfield.fundamental_unit", "cyclotomic.make_subfield"):
        hits = sum(p.cache[name][0] for p in traced)
        misses = sum(p.cache[name][1] for p in traced)
        out[f"{name}.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["chebotarev.primes_per_search"] = _ratio(
        total("chebotarev.check_conditions", parent="chebotarev.find_prime"),
        total("chebotarev.find_prime"))
    out["compositum.exact_norms_per_certify"] = _ratio(
        total("compositum.exact_norm", parent="compositum.certify_principal"),
        total("compositum.certify_principal"))
    out["compositum.not_found.enumerated"] = statistics.median(p.enumerated for p in traced)
    bits = [b for p in traced for b in p.excess_bits]
    out["compositum.alpha_t2_excess_bits"] = statistics.fmean(bits) if bits else 0.0
    out["trace.overhead_frac"] = sum(typical_op_s(traced)) / sum(typical_op_s(plain)) - 1
    out["trace.self_sum_frac"] = (sum(total(name, "self_s") for name in tracer.names)
                                  / sum(sum(p.op_s) for p in traced))
    return {name: out[name] for name in PER_LAYER}


def traced_run(wl, workload, args) -> tuple:
    from layertrace import Tracer

    tracer = Tracer()
    tracer.wrap([(mod, fn) for mod, fns in TRACED.items() for fn in fns], "capitula")
    try:
        passes = run_passes(wl, workload, args.seconds, tracer)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write_tsv(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    return passes, per_layer(tracer, passes)


def result(passes, metrics: dict, units: dict) -> dict:
    """The run's result line.  `correct` is false once any op gave a
    wrong output or raised where an output was due."""
    return {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="capitula closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="input seed; 0 gives the default inputs")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    wl = import_workloads()
    workload = wl.load(args.workload, args.seed)
    own_setup = scaled_setup(time.perf_counter() - T_START)
    if args.setup_probe:
        print(repr(own_setup))
        return

    if args.trace:
        passes, metrics = traced_run(wl, workload, args)
        units = PER_LAYER
    else:
        passes = run_passes(wl, workload, args.seconds)
        metrics = end_to_end(passes, setup_samples(args, own_setup))
        units = END_TO_END

    errors = Counter()
    for p in passes:
        errors.update(p.errors)
    for what, count in sorted(errors.items()):
        print(f"failed x{count}: {what}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{len(workload.items)} ops; times x {speed_scale(passes):.4f} to the reference CPU")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps(result(passes, metrics, units)))


if __name__ == "__main__":
    main()
