"""Modular arithmetic over Z: primality, symbols, square roots, orders.

Everything here is exact integer arithmetic on Python ints.  No floats,
no probabilistic answers below 2**64.  Factoring is trial division
alone, which finishes every n below 10**12.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import ConsistencyError

# Deterministic Miller-Rabin witnesses.  This base set is known to be
# correct for every n < 3317044064679887385961981, which comfortably
# covers the 64-bit range we rely on.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 1 << 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

TRIAL_DIVISION_BOUND = 10**6

SIEVE_WINDOW = 1 << 15

# entries kept by each per-field cache (quadfield.class_group and
# fundamental_unit, cyclotomic.make_subfield), so that a long survey's
# memory stays bounded
CACHE_MAXSIZE = 1024


def _mr_witness(a: int, n: int, d: int, r: int) -> bool:
    """True if a witnesses the compositeness of n = 2^r * d + 1."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic (fixed Miller-Rabin witness set) for n < 2**64 and in
    fact up to ~3.3e24.  Beyond that, 64 rounds with bases drawn from a
    PRNG seeded by n: reproducible, error probability < 2**-128.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        if _mr_witness(a, n, d, r):
            return False
    if n < _MR_DETERMINISTIC_LIMIT:
        return True
    rng = random.Random(n)
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        if _mr_witness(a, n, d, r):
            return False
    return True


def iter_primes(bound: int):
    """Primes <= bound in increasing order, by a segmented sieve of
    Eratosthenes over windows that double from 64 integers up to
    SIEVE_WINDOW.

    Lazy in q and in the bound: the base primes come from a recursive
    iter_primes(isqrt(bound)), pulled only while their squares fall
    below the window being sieved, so a caller that stops at q pays for
    the windows up to about 2q and the base primes up to sqrt(2q).
    """
    if bound < 2:
        return
    base_stream = iter_primes(math.isqrt(bound))
    base: list[int] = []
    nxt = next(base_stream, None)
    lo, size = 0, 64
    while lo <= bound:
        hi = min(lo + size, bound + 1)  # the window is [lo, hi)
        size = min(2 * size, SIEVE_WINDOW)
        while nxt is not None and nxt * nxt < hi:
            base.append(nxt)
            nxt = next(base_stream, None)
        flags = bytearray([1]) * (hi - lo)
        for x in range(lo, min(hi, 2)):
            flags[x - lo] = 0
        for p in base:
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo :: p] = bytes(len(range(start, hi, p)))
        yield from itertools.compress(range(lo, hi), flags)
        lo = hi


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1, by trial division up
    to TRIAL_DIVISION_BOUND (10**6).  What is left after it is 1 or a
    prime unless n has two prime factors above the bound, so every
    n < 10**12 is factored; such an n is refused with a ValueError, as
    is n <= 0.  The package factors nothing larger than a d inside the
    desk bound (at most 4 * 10**6) or q - 1 for a prime q <= 10**6.
    """
    if n <= 0:
        raise ValueError(f"factorize wants n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)  # mod-30 wheel
    i = 0
    while f * f <= n and f <= TRIAL_DIVISION_BOUND:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += steps[i]
        i = (i + 1) % 8
    if n > 1:
        if not is_prime(n):
            raise ValueError(
                f"{n} has two prime factors above {TRIAL_DIVISION_BOUND}, "
                "beyond trial division"
            )
        out[n] = 1
    return out


def is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full extension of Jacobi/Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # pull out the even part of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t and a % 2 == 0:
        return 0
    # (a|2)^t
    result = 1
    if t and a % 8 in (3, 5):
        result = -1 if t % 2 else 1
    # Jacobi on the odd part, by reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, q: int) -> int | None:
    """Square root of a modulo an odd prime q, or None for non-residues.

    Tonelli-Shanks.  Returns the smaller of the two roots, so the result
    is always in [0, (q-1)/2].
    """
    a %= q
    if a == 0:
        return 0
    if kronecker(a, q) != 1:
        return None
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
        return min(r, q - r)
    # write q-1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while kronecker(z, q) != -1:
        z += 1
    g = pow(z, s, q)
    r = pow(a, (s + 1) // 2, q)
    t = pow(a, s, q)
    m = e
    while t != 1:
        # order of t is 2^i
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(g, 1 << (m - i - 1), q)
        g = b * b % q
        r = r * b % q
        t = t * g % q
        m = i
    if r * r % q != a:
        raise ConsistencyError(f"Tonelli-Shanks root of {a} mod {q} does not square back")
    return min(r, q - r)


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if n == 0 or p < 2:
        raise ValueError(f"no {p}-adic valuation of {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class ResidueSymbol:
    """A power residue symbol a^((q-1)/pn) mod q together with its order.

    `order` is the exact multiplicative order of `value`; it always
    divides `degree`, and it equals 1 exactly when a is a pn-th power
    mod q.
    """

    base: int
    modulus: int
    degree: int
    value: int
    order: int


def power_residue_symbol(a: int, q: int, pn: int) -> ResidueSymbol:
    """pn-th power residue symbol of a at the prime q.

    Needs q ≡ 1 (mod pn) so that the symbol lands in the group of pn-th
    roots of unity mod q, and gcd(a, q) = 1.
    """
    if (q - 1) % pn != 0:
        raise ValueError(f"q = {q} is not 1 mod {pn}")
    a %= q
    if a == 0:
        raise ValueError(f"base divisible by the modulus {q}")
    value = pow(a, (q - 1) // pn, q)
    # value^pn = a^(q-1) = 1, so the order is a divisor of pn; strip
    # prime factors while the power still collapses to 1.
    order = pn
    for p in factorize(pn):
        while order % p == 0 and pow(value, order // p, q) == 1:
            order //= p
    return ResidueSymbol(base=a, modulus=q, degree=pn, value=value, order=order)


def least_primitive_root(q: int) -> int:
    """Smallest primitive root modulo the prime q."""
    if q == 2:
        return 1
    fac = list(factorize(q - 1))
    g = 2
    while True:
        if all(pow(g, (q - 1) // p, q) != 1 for p in fac):
            return g
        g += 1
