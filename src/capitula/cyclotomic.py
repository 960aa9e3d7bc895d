"""The real degree-e subfield of the q-th cyclotomic field, e odd.

For a prime q and an odd e dividing q - 1, let H be the index-e
subgroup of (Z/q)^* and g the least primitive root.  The Gaussian
periods

    eta_i = sum of zeta_q^h over h in the coset g^i H,   i = 0..e-1

are real (odd e forces -1 into H, so each coset is closed under
negation), sum to -1, and form a Z-basis of the ring of integers of
the unique subfield F of degree e.  Their products reduce by pure
counting: one pass over (Z/q)^* tabulates, for each coset C_m, how
often 1 + w lands in each coset as w runs over C_m, and that table is
the whole multiplication law.  The minimal polynomial of eta_0 then
falls out of Newton's identities applied to exact power sums.  No
floating point touches anything committed.

Verification is independent of construction and uses only the period
basis: the exact trace form must be positive definite (so F is totally
real) with determinant q^(e-1) (so the periods really are an integral
basis and q is the only ramified prime), the stored polynomial must
vanish at eta_0 when evaluated on its powers, the index of Z[eta_0] is
the determinant of those powers and must be nonzero, and
irreducibility is witnessed by a prime t with the polynomial
irreducible mod t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import arith
from .errors import ConsistencyError
from .linalg import det_bareiss, gram_schmidt_int


@dataclass(frozen=True)
class CyclotomicSubfield:
    """Degree-e subfield of Q(mu_q) with its period basis.

    period_poly stores ascending coefficients: period_poly[k] is the
    coefficient of x^k, and the list is monic of length e + 1.  disc
    is the field discriminant q^(e-1).  tmat[m][l] counts the w in
    coset m, w != -1, with 1 + w in coset l; it drives mul_coords.
    """

    q: int
    e: int
    f: int
    generator: int
    period_poly: tuple
    disc: int
    tmat: tuple = field(repr=False)

    def mul_coords(self, u, v):
        """Coordinates of (sum u_i eta_i)(sum v_j eta_j) in the period basis.

        Uses eta_i eta_j = sum_l T[j-i][l] eta_{i+l} + [i == j] f, and
        1 = -(eta_0 + ... + eta_{e-1}) to stay inside the basis.
        Exact for any integer (or Fraction) coordinates.
        """
        return _mul_coords(u, v, self.e, self.f, self.tmat)

    def trace_coords(self, u):
        # every period has trace -1
        return -sum(u)

    def trace_gram(self):
        """Exact Gram matrix Tr(eta_i eta_j) of the period basis."""
        e = self.e
        basis = [[1 if k == i else 0 for k in range(e)] for i in range(e)]
        gram = [[0] * e for _ in range(e)]
        for i in range(e):
            for j in range(i, e):
                t = self.trace_coords(self.mul_coords(basis[i], basis[j]))
                gram[i][j] = gram[j][i] = t
        return gram

    def period_values(self):
        """Float values of eta_0..eta_{e-1}, each the math.fsum of the
        cosines of its coset (conjugate i maps eta_j to eta_{j+i mod e},
        so these are all the embedding data).  They steer the lattice
        walk only; nothing exact is derived from them."""
        q, e, g = self.q, self.e, self.generator
        cos, tau = math.cos, 2 * math.pi
        return tuple(
            math.fsum([cos(tau * h / q) for h in _coset(q, e, g, i)])
            for i in range(e)
        )


def poly_str(coeffs) -> str:
    """Render ascending integer coefficients as a human-readable polynomial."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def period_cosets(q: int, e: int) -> tuple:
    """The e cosets of the index-e subgroup of (Z/q)^*, in the
    deterministic order H, gH, g^2 H, ... for the least primitive
    root g.  Elements inside a coset are sorted.
    """
    _validate(q, e)
    g = arith.least_primitive_root(q)
    return _cosets(q, e, g)


def _validate(q: int, e: int) -> None:
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    if e < 1 or (q - 1) % e != 0:
        raise ValueError(f"degree {e} does not divide {q} - 1")


def _cosets(q: int, e: int, g: int) -> tuple:
    return tuple(tuple(sorted(_coset(q, e, g, i))) for i in range(e))


def _coset(q: int, e: int, g: int, i: int):
    """The elements g^i, g^(i+e), g^(i+2e), ... of coset i, unsorted."""
    h, step = pow(g, i, q), pow(g, e, q)
    for _ in range((q - 1) // e):
        yield h
        h = h * step % q


def _index_table(q: int, e: int, g: int):
    """ind[x] = discrete log of x base g, reduced mod e (= coset index)."""
    ind = [0] * q
    pw = 1
    for k in range(q - 1):
        ind[pw] = k % e
        pw = pw * g % q
    return ind


@lru_cache(maxsize=arith.CACHE_MAXSIZE)
def make_subfield(q: int, e: int) -> CyclotomicSubfield:
    """Construct the degree-e period subfield of Q(mu_q), together with
    the minimal polynomial of eta_0.  e must be odd.

    (7, 3) gives x^3 + x^2 - 2x - 1; (q, 1) gives x + 1 since the full
    period is the sum of all nontrivial q-th roots of unity.
    """
    _validate(q, e)
    if e % 2 == 0:
        raise ValueError("even degree is out of scope (the base prime is odd)")
    return _build_subfield(q, e, arith.least_primitive_root(q))


def _mul_coords(u, v, e, f, tmat):
    out = [0] * e
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            x = ui * vj
            row = tmat[(j - i) % e]
            for l, t in enumerate(row):
                if t:
                    out[(i + l) % e] += x * t
            if i == j:
                for k in range(e):
                    out[k] -= x * f
    return out


def _build_subfield(q: int, e: int, g: int) -> CyclotomicSubfield:
    # Exposed separately so the choice of primitive root can be varied:
    # the committed polynomial must not depend on it.
    f = (q - 1) // e
    ind = _index_table(q, e, g)
    tmat = [[0] * e for _ in range(e)]
    for w in range(1, q - 1):  # w runs over units except -1
        tmat[ind[w]][ind[(1 + w) % q]] += 1
    for m in range(e):
        expected = f - 1 if m == 0 else f
        if sum(tmat[m]) != expected:
            raise ConsistencyError("period table row sums are off")
    tmat = tuple(tuple(row) for row in tmat)

    return CyclotomicSubfield(
        q=q,
        e=e,
        f=f,
        generator=g,
        period_poly=_minimal_polynomial(e, f, tmat),
        disc=q ** (e - 1),
        tmat=tmat,
    )


def _minimal_polynomial(e, f, tmat) -> tuple:
    """Monic minimal polynomial of eta_0, ascending coefficients.

    Power sums p_k = Tr(eta_0^k) are exact integers (the trace of any
    period-basis vector is minus its coordinate sum); Newton's
    identities convert them to elementary symmetric functions.
    """
    base = [0] * e
    base[0] = 1
    cur = list(base)
    psums = []
    for k in range(1, e + 1):
        psums.append(-sum(cur))
        if k < e:
            cur = _mul_coords(cur, base, e, f, tmat)

    es = [Fraction(1)]
    for k in range(1, e + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * es[k - i] * psums[i - 1]
        es.append(acc / k)

    coeffs = []
    for j in range(e + 1):
        c = (-1) ** (e - j) * es[e - j]
        if c.denominator != 1:
            raise ConsistencyError("Newton's identities gave a non-integer")
        coeffs.append(int(c))
    if coeffs[e] != 1 or coeffs[e - 1] != 1:
        # monic, and the periods must sum to -1
        raise ConsistencyError("period polynomial has the wrong leading terms")
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class SubfieldReport:
    q: int
    e: int
    disc: int
    poly_disc: int
    index: int
    real_roots: int
    irreducible_mod: int | None


def verify_subfield(sub: CyclotomicSubfield) -> SubfieldReport:
    """Independent checks on a constructed subfield, by the linear
    algebra of the period basis alone.

    The trace form Tr(eta_i eta_j) must be positive definite: an etale
    algebra over Q is totally real exactly when its trace form is, so
    that is the total-reality check.  Its determinant, the last leading
    minor of the same Gram-Schmidt pass, must be exactly q^(e-1): that
    pins the lattice spanned by the periods down as the full ring of
    integers and q as the only ramified prime.  The stored polynomial
    must vanish at eta_0, evaluated on the powers 1, eta_0, ..., eta_0^e
    in the period basis (never on the power sums it was built from).
    The index [O_F : Z[eta_0]] is the determinant of 1, ..., eta_0^(e-1)
    and must not be 0; the index is 1 for q = 7 and 13 but not in
    general (q = 31 has index 2: the field is not monogenic, so no
    defining cubic there has discriminant 31^2), and the polynomial
    discriminant is index^2 q^(e-1).  The polynomial must be
    irreducible, witnessed by a prime t at which it is irreducible
    mod t.  Any failure raises ConsistencyError; there is no partial
    credit.
    """
    q, e = sub.q, sub.e
    poly = list(sub.period_poly)
    if len(poly) != e + 1 or poly[-1] != 1:
        raise ConsistencyError("stored polynomial is not monic of degree e")

    try:
        minors, _ = gram_schmidt_int(sub.trace_gram())
    except ValueError:
        raise ConsistencyError(
            f"the trace form of the degree-{e} subfield of Q(mu_{q}) is not "
            "positive definite: the subfield is not totally real"
        ) from None
    disc = minors[e]
    if disc != q ** (e - 1) or disc != sub.disc:
        raise ConsistencyError(f"period-basis discriminant {disc} != {q}^{e - 1}")

    # eta_0^0 .. eta_0^e in the period basis, where 1 = -(eta_0 + ... + eta_{e-1})
    eta0 = [1] + [0] * (e - 1)
    powers = [[-1] * e, eta0]
    while len(powers) <= e:
        powers.append(sub.mul_coords(powers[-1], eta0))
    if any(sum(c * pw[i] for c, pw in zip(poly, powers)) for i in range(e)):
        raise ConsistencyError(f"the stored polynomial does not vanish at eta_0 for q={q}")

    index = abs(det_bareiss(powers[:e]))
    if index == 0:
        raise ConsistencyError(f"eta_0 does not generate the subfield for q={q}")

    witness = None
    if e > 1:
        witness = _irreducible_witness(poly)

    return SubfieldReport(
        q=q,
        e=e,
        disc=disc,
        poly_disc=index * index * disc,
        index=index,
        # f is the characteristic polynomial of a generator of a totally
        # real field, so all its roots are real
        real_roots=e,
        irreducible_mod=witness,
    )


def _irreducible_witness(poly) -> int:
    """Smallest prime t with poly irreducible mod t.

    The Galois group of the splitting field is cyclic, so primes whose
    Frobenius generates it have positive density and the scan ends
    quickly.  Degrees here are tiny prime powers, so the test checks
    x^(t^e) = x and gcd(x^(t^(e/l)) - x, poly) = 1 for the prime l
    dividing e.
    """
    e = len(poly) - 1
    prime_divs = sorted(arith.factorize(e))
    for t in arith.iter_primes(20_000):
        if _irreducible_mod(poly, e, prime_divs, t):
            return t
    raise ConsistencyError("no irreducibility witness below 20000")


def _irreducible_mod(poly, e, prime_divs, t):
    fbar = [c % t for c in poly]
    x = [0, 1]
    # frob[k] = x^(t^k) mod (fbar, t)
    frob = [x]
    cur = x
    for _ in range(e):
        cur = _ppow_mod(cur, t, fbar, t)
        frob.append(cur)
    if _ptrim(_psub(frob[e], x, t)) != []:
        return False
    for l in prime_divs:
        gap = _psub(frob[e // l], x, t)
        if len(_pgcd(fbar, gap, t)) - 1 > 0:
            return False
    return True


# dense polynomial helpers over GF(t), ascending coefficients


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, t):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % t
    return _ptrim(out)


def _pmul_mod(a, b, fbar, t):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % t
    # reduce by the monic fbar
    d = len(fbar) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(d):
                out[k - d + i] = (out[k - d + i] - c * fbar[i]) % t
    return _ptrim(out[:d])


def _ppow_mod(a, k, fbar, t):
    result = [1]
    base = list(a)
    while k:
        if k & 1:
            result = _pmul_mod(result, base, fbar, t)
        base = _pmul_mod(base, base, fbar, t)
        k >>= 1
    return result


def _pgcd(a, b, t):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = pow(b[-1], -1, t)
        b_monic = [c * inv % t for c in b]
        r = list(a)
        while len(r) >= len(b_monic) and _ptrim(r):
            shift = len(r) - len(b_monic)
            c = r[-1]
            for i, bc in enumerate(b_monic):
                r[shift + i] = (r[shift + i] - c * bc) % t
            r = _ptrim(r)
        a, b = b, r
    return a
