"""Exponent bookkeeping for the unit-cohomology bounds.

Everything here is arithmetic on exponents of the odd prime p; no
field data enters.  For a cyclic situation of degree |G| over the
rationals, ramification exponent p^n at a single finite prime, unit
character-index valuation delta, compositum growth d (the degree over
the quadratic layer is p^(n+d)), and p-part p^w of the class number,
the bounds are

    h0_exp = n(|G| - 1) - delta      lower bound exponent for H^0 of units
    h1_exp = n|G| + d - delta        its Herbrand partner, h1 - h0 = n + d
    igpg   = w + delta - d           invariant ideals modulo principal ones

and the capitulation threshold is n >= w + delta - d.  The bound on
the invariant-ideal quotient is independent of n; callers lean on
that to pick n before anything expensive runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoundReport:
    G_order: int
    n: int
    delta: int
    d_exp: int
    w: int
    h0_exp: int
    h1_exp: int
    igpg_exp_bound: int
    threshold_met: bool


def herbrand_report(G_order: int, n: int, delta: int, d_exp: int, w: int) -> BoundReport:
    """Populate every derived exponent for one parameter tuple.

    G_order = 2, delta = 0, d_exp = 0 is the real quadratic case; w is
    the exponent of the p-part of the class number.
    """
    for name, value in (("G_order", G_order), ("n", n), ("delta", delta),
                        ("d_exp", d_exp), ("w", w)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    if G_order < 2:
        raise ValueError("G_order must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1 (the auxiliary field must ramify)")

    h0 = n * (G_order - 1) - delta
    h1 = n * G_order + d_exp - delta
    return BoundReport(
        G_order=G_order,
        n=n,
        delta=delta,
        d_exp=d_exp,
        w=w,
        h0_exp=h0,
        h1_exp=h1,
        igpg_exp_bound=w + delta - d_exp,
        threshold_met=n >= w + delta - d_exp,
    )


def required_n(w: int, delta: int, d_exp: int) -> int:
    """Smallest ramification exponent meeting the threshold, clamped at 1.

    The inequality alone can suggest n <= 0, but n = 0 means no
    ramified auxiliary field at all, so 1 is the floor.
    """
    if min(w, delta, d_exp) < 0:
        raise ValueError("exponents must be nonnegative")
    return max(1, w + delta - d_exp)
