"""Command-line driver: search, certify, survey, classgroup, bound,
auxiliary.

Human-readable output goes to stdout; structured records go to the
file named by --out, one JSON object per line, append-only.  Records
are self-contained: reverify_record rebuilds the field, the subfield,
the compositum and the extended ideal from the recorded parameters
and re-runs the exact certificate verifier with no other state.

Exit codes, the same for every command: 0 success, 1 search or
enumeration exhausted (inconclusive), 2 invalid input (ValueError), 3
internal-consistency failure (ConsistencyError).  The group class
_Capitula holds the one mapping of failures to exit codes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import sys
import time
from dataclasses import asdict

import click

from . import __version__
from .arith import is_prime, is_squarefree
from .bounds import herbrand_report, required_n
from .chebotarev import (
    DEFAULT_Q_BOUND,
    ExhaustedSearch,
    check_conditions,
    check_prime_power,
    find_auxiliary_prime,
    find_prime,
    ordered_map,
)
from .compositum import (
    PrincipalityCertificate,
    RadiusSchedule,
    build_compositum,
    certify_principal,
    extend_ideal,
    verify_certificate,
)
from .cyclotomic import make_subfield, poly_str, verify_subfield
from .errors import ConsistencyError
from .quadfield import class_group, desk_disc, is_principal, make_field, prime_ideal_above

# Ceilings of re-verification.  A record above them is refused before
# anything is built, which bounds the cost of reverify_record on any
# input: the subfield is built in O(q) steps, M has degree 2 p^n, and
# the certificate's integers are short, so the exact norm works on
# numbers of bounded size.  norm_alpha and ideal_norm may have
# REVERIFY_INT_BITS bits (at degree 54 the ideal norm q^27 reaches
# ~540 bits); the coordinates of alpha and containment may have
# REVERIFY_INT_BITS * 6 // (2 p^n) bits, 1024 at degree 6 and 113 at
# degree 54, so that the cost of the exact norm, which grows with the
# degree and the coordinate size, stays at desk scale (a 54 x 54 norm
# of 1024-bit coordinates takes seconds).  Every ceiling is far above
# what a T2 search returns, and below the ~14,000 bits of the
# 4300-digit integers CPython's json reads by default.
REVERIFY_Q_MAX = 10**6
REVERIFY_DEGREE_MAX = 27
REVERIFY_INT_BITS = 1024

# fields a survey keeps in flight per worker: most fields cost one class
# group, the few with p | h cost a certify on top, and with 2 per worker
# the other workers idle behind such a field (survey --dmax 2000 --p 3
# --max-doublings 0 --jobs 2 took 3.3 s instead of 1.9 s on 2 vCPUs)
SURVEY_AHEAD = 64


# ---------------------------------------------------------------------------
# record plumbing


def _now_ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000, 1)


def _append_record(path: str | None, record: dict) -> None:
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _appendable(ctx, param, path):
    """--out callback: a path in a missing or unwritable directory is
    invalid input, refused before any field is built (click's Path
    refuses a directory and an unwritable file)."""
    if path and not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        raise ValueError(f"cannot append records to {path}: no writable directory")
    return path


def _structure_str(divisors) -> str:
    if not divisors:
        return "trivial"
    return " x ".join(f"Z/{m}" for m in divisors)


def _resolve_selector(cg, p: int, selector: str):
    """Map --class {generator, identity, explicit coords} to coordinates."""
    selector = selector.strip()
    if selector == "generator":
        syl = cg.p_sylow(p)
        if syl.order == 1:
            raise ValueError(
                f"class group of order {cg.order} has no {p}-torsion; "
                "no generator to target"
            )
        return syl.generator_coords
    if selector == "identity":
        return cg.identity_coords()
    tokens = selector.replace(",", " ").split()
    if not all(re.fullmatch(r"[+-]?\d+(?:_\d+)*", t) for t in tokens):
        raise ValueError(f"cannot parse class selector {selector!r}")
    return tuple(map(int, tokens))


def _candidate_payload(cand, cg) -> dict:
    sym = cand.witness.symbol
    coords = cand.witness.class_coords
    return {
        "q": cand.q,
        "condition_flags": list(cand.flags()),
        "witness": {
            "root": cand.witness.root,
            "symbol": None if sym is None else asdict(sym),
            "class_form": None if coords is None else list(cg.least_form(coords)),
            "cond3_note": cand.cond3_note,
        },
        "matched_inverse": cand.matched_inverse,
    }


def _exhausted_payload(ex: ExhaustedSearch) -> dict:
    return {"q_bound": ex.q_bound, "scanned": ex.scanned, "failures": ex.failures}


def _open_record(command, d, p, n, selector, config):
    """Build the field, its class group and the target class, and start
    the record every search-bearing command emits, which names the
    target by its least form whatever the outcome.  Returns
    (L, cg, target, record)."""
    t0 = time.perf_counter()
    L = make_field(d)
    cg = class_group(L)
    timings = {"classgroup": _now_ms(t0)}
    target = _resolve_selector(cg, p, selector)
    record = {
        "artifact_version": __version__,
        "command": command,
        "d": d,
        "p": p,
        "n": n,
        "class_group": {
            "order": cg.order,
            "elementary_divisors": list(cg.elementary_divisors),
        },
        "target_form": list(cg.least_form(target)),
        "config": {"class_selector": selector, **config},
        "timings_ms": timings,
    }
    return L, cg, target, record


def _find_candidate(L, cg, p, n, q, target, q_bound, record):
    """Scan for q with find_prime (q None) or test the given q with
    check_conditions, and write the outcome into record: q and the
    exhausted payload, or the candidate payload, whose classes cg names.
    Returns the candidate, or None when the scan is exhausted."""
    t0 = time.perf_counter()
    if q is None:
        result = find_prime(L, p, n, target, q_bound)
    else:
        result = check_conditions(L, p, n, q, target)
    record["timings_ms"]["search"] = _now_ms(t0)
    if isinstance(result, ExhaustedSearch):
        record["q"] = None
        record["exhausted"] = _exhausted_payload(result)
        return None
    record.update(_candidate_payload(result, cg))
    return result


def run_search(d, p, n, selector, q_bound):
    """Shared body of `search`: returns (record, found_candidate_or_None)."""
    check_prime_power(p, n)  # refuse bad parameters before the field is built
    L, cg, target, record = _open_record("search", d, p, n, selector, {"q_bound": q_bound})
    cand = _find_candidate(L, cg, p, n, None, target, q_bound, record)
    return record, cand


def _certify_schedule(p, n, c0, max_doublings) -> RadiusSchedule:
    """Check the parameters `certify` and `survey` share before any
    field is built, and return the search schedule.  p^n above
    REVERIFY_DEGREE_MAX is refused: its records could not be
    re-verified."""
    check_prime_power(p, n)
    schedule = RadiusSchedule(c0=c0, max_doublings=max_doublings)
    if p**n > REVERIFY_DEGREE_MAX:
        raise ValueError(
            f"p^n = {p**n} is above {REVERIFY_DEGREE_MAX}, the largest "
            "degree whose records can be re-verified"
        )
    return schedule


# phi_scale and jobs hold the places of two deleted parameters for the
# positional call of perfbench (run_certify(d, P, N, "generator", None,
# Q_BOUND, 1, 1, c0, max_doublings)); they go when it calls by keyword
# (ROADMAP item 1)
def run_certify(d, p, n, selector, q, q_bound, phi_scale=1, jobs=1,
                c0=RadiusSchedule.c0, max_doublings=RadiusSchedule.max_doublings):
    """Shared body of `certify`: returns (record, status).

    status is "ok", "exhausted" (no qualifying prime), "failed"
    (explicit q given but some condition is false), or "not_found"
    (enumeration gave out).  The search report of certify_principal
    goes into the record as it is: under not_found when the search
    gave out, at the top level next to the certificate when it did
    not.  Raises ValueError for invalid input and ConsistencyError if
    any internal cross-check trips.
    """
    if (phi_scale, jobs) != (1, 1):
        raise ValueError(
            f"phi_scale = {phi_scale}, jobs = {jobs}: both take only 1, since the "
            "unit character is unscaled and the prime scan runs in one process"
        )
    schedule = _certify_schedule(p, n, c0, max_doublings)
    L, cg, target, record = _open_record(
        "certify", d, p, n, selector,
        {"q": q, "q_bound": q_bound, "c0": c0, "max_doublings": max_doublings},
    )
    timings = record["timings_ms"]

    syl = cg.p_sylow(p)
    report = herbrand_report(2, n, 0, 0, syl.w)
    need = required_n(syl.w, 0, 0)
    if not report.threshold_met:
        raise ValueError(
            f"n = {n} is below the principalization threshold: the {p}-part "
            f"has order {p}^{syl.w}, so n >= {need} is required"
        )
    record["bound_report"] = asdict(report)

    cand = _find_candidate(L, cg, p, n, q, target, q_bound, record)
    if cand is None:
        return record, "exhausted"
    if not cand.passed:
        return record, "failed"
    if cand.q > REVERIFY_Q_MAX:
        raise ValueError(
            f"q = {cand.q} is above {REVERIFY_Q_MAX}, the largest conductor "
            "whose records can be re-verified"
        )

    t0 = time.perf_counter()
    F = make_subfield(cand.q, p**n)
    sub_report = verify_subfield(F)
    timings["subfield"] = _now_ms(t0)
    record["subfield"] = {
        "period_poly": list(F.period_poly),
        "disc": sub_report.disc,
        "poly_disc": sub_report.poly_disc,
        "index": sub_report.index,
        "irreducible_mod": sub_report.irreducible_mod,
    }

    t0 = time.perf_counter()
    order = build_compositum(L, F)
    ideal = prime_ideal_above(L, cand.q)
    lattice = extend_ideal(ideal, order)
    timings["compositum"] = _now_ms(t0)
    record["compositum_disc"] = order.disc
    record["ideal_hnf"] = [list(r) for r in lattice.hnf]
    record["ideal_norm"] = lattice.norm

    principal, _ = is_principal(L, ideal)
    record["principal_in_L"] = principal

    t0 = time.perf_counter()
    cert, search = certify_principal(lattice, order, schedule)
    timings["certify"] = _now_ms(t0)
    if cert is None:
        record["certificate"] = None
        record["not_found"] = asdict(search)
        return record, "not_found"

    record["certificate"] = {
        "alpha": list(cert.alpha),
        "norm_alpha": cert.norm_alpha,
        "ideal_norm": cert.ideal_norm,
        "containment": list(cert.containment),
    }
    record.update(asdict(search))
    if not reverify_record(json.loads(json.dumps(record))):
        raise ConsistencyError("freshly emitted record failed re-verification")
    return record, "ok"


def _is_int_list(x) -> bool:
    # a JSON integer is a plain int; bool, float and str are not
    return type(x) is list and set(map(type, x)) <= {int}


def _well_formed(record) -> bool:
    """Shape and range checks of reverify_record, made before anything
    is built: cheap, and bounded on any JSON value.  That d makes a
    field (d >= 2, disc(d) <= DESK_DISC_BOUND, d squarefree) is left to
    make_field, which checks the bound before it factors d, and that q
    is a prime splitting in it to prime_ideal_above."""
    if not isinstance(record, dict):
        return False
    cert = record.get("certificate")
    if not (
        isinstance(cert, dict)
        and _is_int_list(cert.get("alpha"))
        and _is_int_list(cert.get("containment"))
        and _is_int_list([cert.get("norm_alpha"), cert.get("ideal_norm")])
        and _is_int_list([record.get(k) for k in ("d", "p", "n", "q", "ideal_norm")])
        and type(record.get("ideal_hnf")) is list
    ):
        return False
    p, n, q = record["p"], record["n"], record["q"]
    if not (3 <= p <= REVERIFY_DEGREE_MAX and is_prime(p)):
        return False
    # p >= 3, so p^n <= REVERIFY_DEGREE_MAX already bounds n by its bit length
    if not (1 <= n <= REVERIFY_DEGREE_MAX.bit_length() and p**n <= REVERIFY_DEGREE_MAX):
        return False
    coord_bits = REVERIFY_INT_BITS * 6 // (2 * p**n)
    if any(v.bit_length() > coord_bits for v in (*cert["alpha"], *cert["containment"])):
        return False
    if any(v.bit_length() > REVERIFY_INT_BITS for v in (cert["norm_alpha"], cert["ideal_norm"])):
        return False
    return 2 < q <= REVERIFY_Q_MAX and (q - 1) % p**n == 0


def reverify_record(record) -> bool:
    """Rebuild everything a certificate-bearing record references and
    re-run the exact verifier.  Needs nothing but the record.

    Total: any value, including a malformed or hostile one, gets a
    verdict and never an exception.  A record is refused (False) unless
    it is a JSON object carrying integer d, p, n, q and ideal_norm, a
    list ideal_hnf and a certificate with integer lists alpha and
    containment and integers norm_alpha and ideal_norm, with d >= 2
    squarefree and disc(d) <= DESK_DISC_BOUND, p an odd prime and p^n
    <= REVERIFY_DEGREE_MAX (27), q a prime <= REVERIFY_Q_MAX (10**6)
    with q = 1 (mod p^n) that splits in Q(sqrt(d)), norm_alpha and
    ideal_norm at most REVERIFY_INT_BITS (1024) bits long, and the
    entries of alpha and containment at most REVERIFY_INT_BITS * 6 //
    (2 p^n) bits long: 1024 at degree 6, 614 at degree 10, 341 at
    degree 18, 113 at degree 54.
    """
    if not _well_formed(record):
        return False
    cert = record["certificate"]
    try:
        L = make_field(record["d"])
        ideal = prime_ideal_above(L, record["q"])
    except ValueError:  # d makes no desk field, or q does not split in it
        return False
    F = make_subfield(record["q"], record["p"] ** record["n"])
    order = build_compositum(L, F)
    lattice = extend_ideal(ideal, order)
    if [list(r) for r in lattice.hnf] != record["ideal_hnf"]:
        return False
    if lattice.norm != record["ideal_norm"]:
        return False
    rebuilt = PrincipalityCertificate(
        alpha=tuple(cert["alpha"]),
        norm_alpha=cert["norm_alpha"],
        ideal_norm=cert["ideal_norm"],
        containment=tuple(cert["containment"]),
    )
    return verify_certificate(rebuilt, lattice, order)


def _survey_one(d, p, n, q_bound, c0, max_doublings):
    """Survey one field; must stay module-level picklable.  Returns
    None for a field whose class number p does not divide."""
    if class_group(make_field(d)).order % p:
        return None
    try:
        record, status = run_certify(d, p, n, "generator", None, q_bound,
                                     c0=c0, max_doublings=max_doublings)
        return d, record, status
    except ValueError as exc:
        return d, {"d": d, "error": str(exc)}, "invalid"


# ---------------------------------------------------------------------------
# commands


def _echo_candidate(cand_payload) -> None:
    flags = cand_payload["condition_flags"]
    names = ", ".join(
        f"({i + 1})" for i, ok in enumerate(flags) if not ok
    )
    if all(flags):
        click.echo(f"q = {cand_payload['q']}: conditions (1)-(6) all hold")
    else:
        click.echo(f"q = {cand_payload['q']}: failed {names}")
    w = cand_payload["witness"]
    if w["root"] is not None:
        click.echo(f"  square root of d mod q: {w['root']}")
    if w["symbol"] is not None:
        s = w["symbol"]
        click.echo(
            f"  unit symbol: base {s['base']}, value {s['value']}, "
            f"order {s['order']} (degree {s['degree']})"
        )
    if w["class_form"] is not None:
        tag = "inverse of target" if cand_payload["matched_inverse"] else "target"
        click.echo(f"  class of prime above q: {tuple(w['class_form'])}  [{tag}]")


def _echo_exhausted(payload) -> None:
    click.echo(
        f"exhausted: no qualifying prime up to {payload['q_bound']} "
        f"({payload['scanned']} candidates)"
    )
    parts = ", ".join(f"{k}={v}" for k, v in payload["failures"].items())
    click.echo(f"  failure counts: {parts}")


class _Capitula(click.Group):
    """The one mapping of failures to exit codes, for every command: a
    ValueError, or an option click refuses, is invalid input (2), a
    ConsistencyError a tripped internal cross-check (3).  Commands exit
    1 themselves when a search or an enumeration is inconclusive."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(2)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except ConsistencyError as exc:
            click.echo(f"internal consistency failure: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Capitula)
@click.version_option(version=__version__)
def main():
    """Exact capitulation certificates for real quadratic ideal classes.

    Finds primes q whose real cyclotomic subfield of degree p^n makes a
    chosen ideal class of Q(sqrt(d)) principal, and proves it with an
    integer certificate that re-verifies from the record alone.
    """


# the options several commands take, each declared once; an option of
# one command (survey's --jobs, bound's --n) is declared at it
_OPTIONS = {
    "d": click.option("--d", type=int, required=True, help="Squarefree d >= 2."),
    "p": click.option("--p", type=int, required=True, help="Odd prime p."),
    "n": click.option("--n", type=click.IntRange(min=1), default=1, show_default=True,
                      help="Ramification exponent: F has degree p^n."),
    "class": click.option("--class", "selector", default="generator", show_default=True,
                          help="Target class: generator, identity, or explicit "
                               "coordinates like '1' or '0,2'."),
    "qbound": click.option("--qbound", type=int, default=DEFAULT_Q_BOUND, show_default=True,
                           help="Scan primes q up to this bound."),
    "c0": click.option("--c0", type=int, default=RadiusSchedule.c0, show_default=True,
                       help="Multiplier of the enumeration radii."),
    "max-doublings": click.option("--max-doublings", type=click.IntRange(min=0),
                                  default=RadiusSchedule.max_doublings, show_default=True,
                                  help="Budget of 16 * 2^N twisted tries before giving up."),
    "out": click.option("--out", type=click.Path(dir_okay=False, writable=True),
                        callback=_appendable, help="Append a JSON record to this file."),
}


def _options(*names):
    """Apply the shared options of these names, in this order."""
    def wrap(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn
    return wrap


_SEARCH = ("d", "p", "n", "class", "qbound", "out")


@main.command()
@_options("d", "out")
def classgroup(d, out):
    """Class number and group structure of Q(sqrt(d))."""
    cg = class_group(make_field(d))
    click.echo(
        f"d = {d}: h = {cg.order}, structure {_structure_str(cg.elementary_divisors)}"
    )
    _append_record(out, {
        "artifact_version": __version__,
        "command": "classgroup",
        "d": d,
        "h": cg.order,
        "elementary_divisors": list(cg.elementary_divisors),
    })


@main.command()
@_options(*_SEARCH)
def search(d, p, n, selector, qbound, out):
    """Scan for the smallest prime q passing all six conditions."""
    record, cand = run_search(d, p, n, selector, qbound)
    _append_record(out, record)
    cginfo = record["class_group"]
    click.echo(
        f"d = {d}, p = {p}, n = {n}: class group "
        f"{_structure_str(cginfo['elementary_divisors'])}, "
        f"target {tuple(record['target_form'])}"
    )
    if cand is None:
        _echo_exhausted(record["exhausted"])
        sys.exit(1)
    _echo_candidate(record)


@main.command()
@_options(*_SEARCH)
@click.option("--q", type=int, default=None,
              help="Use this prime instead of scanning.")
@_options("c0", "max-doublings")
def certify(d, p, n, selector, qbound, out, q, c0, max_doublings):
    """End-to-end principalization: find q, build M = L.F, emit an
    exact certificate that the target class becomes principal."""
    record, status = run_certify(d, p, n, selector, q, qbound, c0=c0, max_doublings=max_doublings)
    _append_record(out, record)

    if status == "exhausted":
        _echo_exhausted(record["exhausted"])
        sys.exit(1)
    _echo_candidate(record)
    if status == "failed":
        click.echo("the supplied q does not satisfy the conditions")
        sys.exit(1)

    sub = record["subfield"]
    click.echo(
        f"subfield of Q(mu_{record['q']}): degree {p**n}, "
        f"eta polynomial {poly_str(sub['period_poly'])}, disc {sub['disc']}"
    )
    click.echo(f"compositum discriminant: {record['compositum_disc']}")
    if record["principal_in_L"]:
        click.echo("note: class is already principal in L (degenerate run)")
    if status == "not_found":
        nf = record["not_found"]
        click.echo(
            f"no generator found in {len(nf['rounds'])} untwisted walks and "
            f"{nf['tries']} twisted tries ({nf['enumerated']} vectors walked); "
            "inconclusive"
        )
        sys.exit(1)
    cert = record["certificate"]
    click.echo(f"generator alpha = {cert['alpha']}")
    click.echo(
        f"N(alpha) = {cert['norm_alpha']}, ideal norm {cert['ideal_norm']}: "
        "certificate verified exactly"
    )
    if not record["principal_in_L"]:
        click.echo("negative control: the class is NOT principal in L itself")


@main.command()
@click.option("--dmin", type=int, default=2, show_default=True,
              help="Least d of the range.")
@click.option("--dmax", type=int, required=True, help="Largest d of the range.")
@_options("p", "n", "qbound")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help=f"Worker processes; at most {SURVEY_AHEAD} x jobs fields in flight.")
@_options("c0", "max-doublings", "out")
def survey(dmin, dmax, p, n, qbound, jobs, c0, max_doublings, out):
    """Certify every squarefree d in [dmin, dmax] whose class number is
    divisible by p, in one pass over the range, printing each row (and
    appending each record) as soon as its field is done; the range is
    read lazily, a bounded number of fields (see --jobs) ahead of the
    last row.  A range reaching past the desk bound, squarefree or not,
    and p^n above REVERIFY_DEGREE_MAX are invalid input, refused before
    any class group is computed."""
    _certify_schedule(p, n, c0, max_doublings)
    # disc(d) grows with d in each residue class mod 4, so one of the
    # top four d has the range's largest discriminant
    for d in range(max(2, dmin, dmax - 3), dmax + 1):
        desk_disc(d)
    squarefree = (d for d in range(max(2, dmin), dmax + 1) if is_squarefree(d))
    one = functools.partial(_survey_one, p=p, n=n, q_bound=qbound,
                            c0=c0, max_doublings=max_doublings)
    click.echo(f"{'d':>6} {'h':>4} {'q':>8} {'status':>10} {'ms':>9}")
    fields = certified = 0
    with contextlib.closing(ordered_map(one, squarefree, jobs, SURVEY_AHEAD)) as results:
        for d, record, status in filter(None, results):
            _append_record(out, record)
            h = record.get("class_group", {}).get("order")
            qv = record.get("q")
            ms = sum(record.get("timings_ms", {}).values())
            click.echo(
                f"{d:>6} {h if h is not None else '-':>4} "
                f"{qv if qv is not None else '-':>8} {status:>10} {ms:>9.1f}"
            )
            fields += 1
            certified += status == "ok"
    click.echo(f"{fields} fields, {certified} certified")


@main.command()
@click.option("--g-order", type=int, required=True, help="|G| = [L:K].")
@click.option("--n", type=int, required=True, help="Ramification exponent.")
@click.option("--delta", type=int, default=0, show_default=True,
              help="Valuation of the unit character index.")
@click.option("--d-exp", type=int, default=0, show_default=True,
              help="Compositum growth: the degree over L is p^(n + d).")
@click.option("--w", type=int, required=True, help="p-part exponent of h.")
def bound(g_order, n, delta, d_exp, w):
    """Evaluate the cohomology-exponent bounds and the threshold."""
    report = herbrand_report(g_order, n, delta, d_exp, w)
    click.echo(f"|G| = {report.G_order}, n = {report.n}, delta = {report.delta}, "
               f"d = {report.d_exp}, w = {report.w}")
    click.echo(f"H^0 exponent lower bound: {report.h0_exp}")
    click.echo(f"H^1 exponent lower bound: {report.h1_exp}")
    click.echo(f"invariant-ideal quotient bound exponent: {report.igpg_exp_bound}")
    click.echo(f"threshold n >= w + delta - d: "
               f"{'met' if report.threshold_met else 'NOT met'} "
               f"(required n = {required_n(report.w, report.delta, report.d_exp)})")


@main.command()
@_options("d", "p")
@click.option("--a", type=click.IntRange(min=1), default=1, show_default=True,
              help="Auxiliary degree exponent: F_0 has degree p^a.")
@_options("class", "qbound", "out")
def auxiliary(d, p, a, selector, qbound, out):
    """Auxiliary-prime reduction: a split prime q = 1 (mod 2 p^a) whose
    class matches the target, with the resulting power statement."""
    L = make_field(d)
    cg = class_group(L)
    target = _resolve_selector(cg, p, selector)
    result = find_auxiliary_prime(L, p, a, target, qbound)
    if isinstance(result, ExhaustedSearch):
        _echo_exhausted(_exhausted_payload(result))
        sys.exit(1)
    record = {
        "artifact_version": __version__,
        "command": "auxiliary",
        "d": d,
        "p": p,
        "a": a,
        "q": result.q,
        "class_form": list(cg.least_form(result.class_coords)),
        "target_form": list(cg.least_form(target)),
        "matched_inverse": result.matched_inverse,
        "root": result.root,
        "statement": result.statement,
    }
    _append_record(out, record)
    click.echo(f"q = {result.q} (split, q = 1 mod {2 * p**a}), "
               f"class {tuple(record['class_form'])}")
    click.echo(result.statement)


if __name__ == "__main__":
    main()
