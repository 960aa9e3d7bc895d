"""Prime search under the six splitting, symbol, and class conditions.

A prime q qualifies for the field L = Q(sqrt(d)), the odd prime p and
the exponent n when

  (1) q does not divide p or disc(L),
  (2) q = 1 (mod p^n),
  (3) the rational units {+-1} are p^n-th powers mod q,
  (4) q splits in L (kronecker(disc, q) = 1),
  (5) the p^n-th power residue symbol of the fundamental unit at a
      prime above q has exact order p^n,
  (6) the class of that prime above q is the requested ideal class --
      or its inverse, since the two primes above q are conjugate and
      carry inverse classes; which one matched is recorded.

For odd p condition (3) is automatic (-1 is an odd power of itself).
Condition (5) is evaluated at every split q, as the symbol in
(Z/q)^*/(Z/q)^*^g with g = gcd(q - 1, p^n); conditions (4) + (5) then
force (2), and that implication is asserted on every candidate: a
violation raises ConsistencyError, because it cannot happen unless the
arithmetic itself is broken.

The searches return the smallest qualifying prime, or an exhaustion
value carrying per-condition failure counts so a caller can see which
condition is starving the scan.
"""

from __future__ import annotations

import collections
import itertools
import math
from concurrent import futures
from dataclasses import dataclass

from . import arith
from .errors import ConsistencyError
from .quadfield import (
    QuadraticField,
    class_group,
    fundamental_unit,
    prime_ideal_above,
)

DEFAULT_Q_BOUND = 10**6

_COND3_NOTE = "automatic for odd p: (-1)^(p^n) = -1, so {+-1} are p^n-th powers"

_COND_NAMES = ("cond1", "cond2", "cond3", "cond4", "cond5", "cond6")


def check_prime_power(p: int, n: int) -> None:
    """Refuse p and n unless p is an odd prime and n >= 1, before any
    scan: every condition lives at the odd prime power p^n."""
    if p == 2 or not arith.is_prime(p):
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("the exponent of p must be at least 1")


@dataclass(frozen=True)
class Witness:
    """Raw data behind the condition flags: the chosen square root of d
    mod q, the residue symbol of the fundamental unit, and the class
    coordinates of the prime above q (None where undefined)."""

    root: int | None
    symbol: arith.ResidueSymbol | None
    class_coords: tuple | None


@dataclass(frozen=True)
class PrimeCandidate:
    q: int
    p: int
    n: int
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    cond5: bool
    cond6: bool
    witness: Witness
    target_class: tuple
    matched_inverse: bool
    cond3_note: str = _COND3_NOTE

    @property
    def passed(self) -> bool:
        return all(self.flags())

    def flags(self) -> tuple:
        return (self.cond1, self.cond2, self.cond3,
                self.cond4, self.cond5, self.cond6)


@dataclass(frozen=True)
class ExhaustedSearch:
    """No prime below q_bound qualified.  failures counts, for each
    condition, how many scanned candidates failed it (a candidate can
    fail several); cond1 counts primes skipped for dividing 2 p disc."""

    q_bound: int
    scanned: int
    failures: dict


def _normalize_class(cg, coords) -> tuple:
    coords = tuple(int(c) for c in coords)
    if len(coords) != len(cg.elementary_divisors):
        raise ValueError(
            f"class coordinates {coords} do not fit a group with divisors "
            f"{cg.elementary_divisors}"
        )
    return tuple(c % m for c, m in zip(coords, cg.elementary_divisors))


def check_conditions(
    L: QuadraticField,
    p: int,
    n: int,
    q: int,
    target_class,
) -> PrimeCandidate:
    """Evaluate all six conditions at q and package the witnesses.

    q must not divide 2 p disc(L); such q are degenerate for condition
    (1) and rejected with an error, so every returned candidate has
    cond1 = True by construction.
    """
    check_prime_power(p, n)
    if not arith.is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if (2 * p * L.disc) % q == 0:
        raise ValueError(
            f"q = {q} divides 2*p*disc(L): condition (1) is degenerate"
        )

    cg = class_group(L)
    target = _normalize_class(cg, target_class)
    pn = p**n

    cond1 = True
    cond2 = q % pn == 1
    cond3 = True  # see _COND3_NOTE
    cond4 = arith.kronecker(L.disc, q) == 1

    root = symbol = coords = None
    cond5 = cond6 = matched_inverse = False
    if cond4:
        root = arith.sqrt_mod(L.d % q, q)
        # reduce eps by sending sqrt(d) to the chosen root; the symbol
        # lives in (Z/q)^*/(Z/q)^*^(p^n) = (Z/q)^*/(Z/q)^*^g
        omega_res = root if L.s == 0 else (1 + root) * pow(2, -1, q) % q
        eps_res = fundamental_unit(L).residue(omega_res, q)
        symbol = arith.power_residue_symbol(eps_res, q, math.gcd(q - 1, pn))
        cond5 = symbol.order == pn
        coords = cg.coords_of(prime_ideal_above(L, q))
        inverse = cg.inverse_coords(target)
        cond6 = coords in (target, inverse)
        matched_inverse = cond6 and coords == inverse and target != inverse

    # the symbol's order divides gcd(q - 1, p^n), which is below p^n
    # unless q = 1 (mod p^n)
    if cond4 and cond5 and not cond2:
        raise ConsistencyError(f"conditions (4) and (5) hold at q = {q} but (2) does not")

    return PrimeCandidate(
        q=q,
        p=p,
        n=n,
        cond1=cond1,
        cond2=cond2,
        cond3=cond3,
        cond4=cond4,
        cond5=cond5,
        cond6=cond6,
        witness=Witness(root=root, symbol=symbol, class_coords=coords),
        target_class=target,
        matched_inverse=matched_inverse,
    )


def _require_p_sylow(cg, p, target_class) -> tuple:
    target = _normalize_class(cg, target_class)
    order = cg.order_of(target)
    if order != p ** arith.valuation(order, p):
        raise ValueError(
            f"target class {target} has order {order}, not a power of {p}"
        )
    return target


def find_prime(
    L: QuadraticField,
    p: int,
    n: int,
    target_class,
    q_bound: int = DEFAULT_Q_BOUND,
):
    """Smallest prime q <= q_bound passing all six conditions.

    Returns a PrimeCandidate, or an ExhaustedSearch value when the
    bound runs out.
    """
    check_prime_power(p, n)  # refuse bad parameters before the scan
    cg = class_group(L)
    target = _require_p_sylow(cg, p, target_class)

    def test(q):
        cand = check_conditions(L, p, n, q, target)
        return cand, [name for name, ok in zip(_COND_NAMES, cand.flags()) if not ok]

    stats = {name: 0 for name in _COND_NAMES}
    hit, scanned = _scan(arith.iter_primes(q_bound), 2 * p * L.disc, test, stats)
    if hit is not None:
        return hit
    return ExhaustedSearch(q_bound=q_bound, scanned=scanned, failures=stats)


def _scan(primes, bad, test, stats):
    """The one prime-scan loop: test the primes in order until one passes.

    A prime dividing bad (2 p disc) is skipped and counted under cond1.
    test(q) returns (value, names of the conditions q fails); each
    failure is tallied in stats.  Returns (value of the first q that
    fails nothing, or None; how many primes were tested).
    """
    scanned = 0
    for q in primes:
        if bad % q == 0:
            stats["cond1"] += 1
            continue
        scanned += 1
        value, failed = test(q)
        if not failed:
            return value, scanned
        for name in failed:
            stats[name] += 1
    return None, scanned


def ordered_map(fn, items, jobs, ahead):
    """fn over items, yielding the results in input order.

    With jobs == 1 this is map.  Otherwise jobs worker processes run
    fn (fn and the items must pickle) with at most ahead * jobs items
    submitted and not yet yielded, so items, which may be endless, is
    read only as far as the results are taken; closing the generator
    cancels the items not yet started and waits for the running ones.
    A slow item at the head stalls the workers once the ahead * jobs
    items behind it are done, so cheap, uneven items want a large ahead.
    """
    if jobs == 1:
        yield from map(fn, items)
        return
    items = iter(items)
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = collections.deque(pool.submit(fn, x) for x in itertools.islice(items, ahead * jobs))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, x) for x in itertools.islice(items, 1))
                yield result
        finally:
            for fut in pending:
                fut.cancel()


@dataclass(frozen=True)
class AuxiliaryReduction:
    """Outcome of the auxiliary-prime reduction: the statement that the
    target class, pushed to the compositum L' of L with the degree-p^a
    field inside Q(mu_q), lands in the p^a-th powers of Cl_L'."""

    q: int
    p: int
    a: int
    class_coords: tuple
    target_class: tuple
    matched_inverse: bool
    root: int
    statement: str


def find_auxiliary_prime(
    L: QuadraticField,
    p: int,
    a: int,
    target_class,
    q_bound: int = DEFAULT_Q_BOUND,
):
    """Smallest prime q <= q_bound that splits in L, has q = 1 mod
    2 p^a, and whose prime above carries the target class (or its
    inverse).  Returns an AuxiliaryReduction stating the consequence,
    or ExhaustedSearch."""
    check_prime_power(p, a)
    cg = class_group(L)
    target = _normalize_class(cg, target_class)
    inverse = cg.inverse_coords(target)
    pa = p**a

    def test(q):
        failed = []
        if arith.kronecker(L.disc, q) != 1:
            failed.append("split")
        if q % (2 * pa) != 1:
            failed.append("congruence")
        if failed:
            return None, failed
        coords = cg.coords_of(prime_ideal_above(L, q))
        if coords not in (target, inverse):
            return None, ["class"]
        return (q, coords), []

    stats = {"cond1": 0, "split": 0, "congruence": 0, "class": 0}
    hit, scanned = _scan(arith.iter_primes(q_bound), 2 * p * L.disc, test, stats)
    if hit is None:
        return ExhaustedSearch(q_bound=q_bound, scanned=scanned, failures=stats)
    q, coords = hit
    statement = (
        f"c_L' = class(q')^{pa} lies in Cl_L'^{pa}; "
        f"L' = L * F_0 with F_0 in Q(mu_{q}) of degree {pa}, "
        f"totally ramified at q = {q}"
    )
    return AuxiliaryReduction(
        q=q,
        p=p,
        a=a,
        class_coords=coords,
        target_class=target,
        matched_inverse=coords == inverse and target != inverse,
        root=arith.sqrt_mod(L.d % q, q),
        statement=statement,
    )

