"""Oracle tests for the modular-arithmetic layer.

Every nontrivial function is checked against an independent brute-force
computation over a full small range, plus a few frozen spot values that
later modules depend on.
"""

import itertools
import math
import tracemalloc

import pytest

from capitula.arith import (
    SIEVE_WINDOW,
    ResidueSymbol,
    factorize,
    is_prime,
    iter_primes,
    is_squarefree,
    kronecker,
    least_primitive_root,
    power_residue_symbol,
    sqrt_mod,
    valuation,
)


def sieve_primes(bound):
    """All primes <= bound by a plain sieve of Eratosthenes: the oracle
    for the library's segmented iter_primes."""
    if bound < 2:
        return []
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(bound + 1) if flags[i]]


ODD_PRIMES_200 = [p for p in sieve_primes(200) if p > 2]


def brute_squares(q):
    return {x * x % q for x in range(1, q)}


def test_sieve_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    assert sieve_primes(2000) == [n for n in range(2001) if trial(n)]


def test_iter_primes_matches_sieve():
    w = SIEVE_WINDOW
    for bound in (0, 1, 2, 3, 4, 24, 25, 26, w - 1, w, w + 1, 10**5, 10**6 + 3):
        assert list(iter_primes(bound)) == sieve_primes(bound), bound


def test_iter_primes_is_lazy_in_its_bound():
    # the base primes up to sqrt(10**14) = 10**7 are pulled only as the
    # windows need them, so the first primes cost a window, not 10**7
    tracemalloc.start()
    try:
        first = list(itertools.islice(iter_primes(10**14), 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == sieve_primes(229)
    assert peak < 1_000_000


def test_is_prime_agrees_with_sieve():
    primes = set(sieve_primes(10000))
    for n in range(10001):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_spot_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # Mersenne's error: 193707721 * 761838257287
    assert is_prime(10**18 + 9)


def test_factorize_round_trip():
    for n in range(1, 3000):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p), (n, p)
            assert valuation(n, p) == valuation(-n, p) == e, (n, p)
            prod *= p**e
        assert prod == n
    # the valuation's edge cases: n = 1, p not dividing n, n = p^k m
    assert valuation(1, 3) == 0
    assert valuation(10, 3) == 0
    assert valuation(3**40 * 10, 3) == 40
    assert valuation(2**70, 2) == 70


def test_factorize_semiprime():
    # trial division to 10**6 finishes whatever has at most one prime
    # factor above it, and refuses the rest instead of guessing
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(2**5 * 3 * p) == {2: 5, 3: 1, p: 1}
    for n in (p * q, p * p):
        with pytest.raises(ValueError, match="two prime factors above"):
            factorize(n)


def test_is_squarefree_oracle():
    for n in range(1, 2000):
        brute = all(n % (k * k) for k in range(2, 45))
        assert is_squarefree(n) == brute, n
    assert not is_squarefree(0)
    assert not is_squarefree(-4)


def test_kronecker_matches_euler_for_odd_primes():
    # (a|q) for prime q is 1 on nonzero squares, -1 otherwise, 0 at 0
    for q in ODD_PRIMES_200:
        sq = brute_squares(q)
        for a in range(-q, 2 * q):
            expected = 0 if a % q == 0 else (1 if a % q in sq else -1)
            assert kronecker(a, q) == expected, (a, q)


def test_kronecker_multiplicative_in_n():
    for a in range(-30, 31):
        for n1 in range(1, 40):
            for n2 in range(1, 40):
                assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)


def test_kronecker_spot_values():
    assert kronecker(316, 79) == 0
    assert kronecker(316, 13) == 1
    assert kronecker(5, 13) == -1
    assert kronecker(-1, 13) == 1
    assert kronecker(2, 7) == 1


def test_sqrt_mod_exhaustive():
    for q in ODD_PRIMES_200:
        sq = brute_squares(q)
        for a in range(q):
            r = sqrt_mod(a, q)
            if a == 0:
                assert r == 0
            elif a in sq:
                assert r is not None and r * r % q == a
                assert 0 <= r <= (q - 1) // 2  # canonical smaller root
            else:
                assert r is None


def test_sqrt_mod_spot_values():
    assert sqrt_mod(79, 13) == 1
    assert sqrt_mod(5, 13) is None
    assert sqrt_mod(2, 7) == 3


def test_mult_order_brute_force():
    for q in ODD_PRIMES_200[:20]:
        for a in range(1, q):
            k, x = 1, a % q
            while x != 1:
                x = x * a % q
                k += 1
            assert power_residue_symbol(a, q, q - 1).order == k, (a, q)


def test_mult_order_spot():
    assert power_residue_symbol(2, 13, 12).order == 12
    assert power_residue_symbol(3, 13, 12).order == 3


def test_power_residue_symbol_euler_oracle():
    # symbol value is the Euler power; order is 1 exactly on pn-th powers
    for q, pn in ((7, 3), (13, 3), (31, 3), (61, 3), (41, 5), (11, 5)):
        powers = {pow(x, pn, q) for x in range(1, q)}
        for a in range(1, q):
            sym = power_residue_symbol(a, q, pn)
            assert sym.value == pow(a, (q - 1) // pn, q)
            assert pn % sym.order == 0
            assert (sym.order == 1) == (a in powers), (a, q, pn)


def test_power_residue_symbol_frozen_witness():
    sym = power_residue_symbol(11, 13, 3)
    assert sym == ResidueSymbol(base=11, modulus=13, degree=3, value=3, order=3)


def test_power_residue_symbol_rejects_bad_modulus():
    try:
        power_residue_symbol(2, 11, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("q = 11 is not 1 mod 3, should be rejected")


def test_least_primitive_root():
    for q in ODD_PRIMES_200:
        g = least_primitive_root(q)
        assert power_residue_symbol(g, q, q - 1).order == q - 1
        for smaller in range(2, g):
            assert power_residue_symbol(smaller, q, q - 1).order != q - 1, (q, smaller)
