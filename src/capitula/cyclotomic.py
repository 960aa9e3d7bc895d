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
irreducibility is witnessed by a prime t at which the Frobenius
x -> x^t of O_F/t, a circulant matrix on the periods, shows that
O_F/t is a field generated by eta_0; then the polynomial is
irreducible mod t.  No polynomial is ever reduced mod t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

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

    def norm(self, x) -> int:
        """N_F(x), exactly: the determinant of the e x e matrix of
        multiplication by x on the period basis."""
        e = self.e
        return det_bareiss([self.mul_coords(x, [int(k == r) for k in range(e)]) for r in range(e)])

    def trace_gram(self):
        """Exact Gram matrix Tr(eta_i eta_j) of the period basis."""
        e = self.e
        basis = [[1 if k == i else 0 for k in range(e)] for i in range(e)]
        gram = [[0] * e for _ in range(e)]
        for i in range(e):
            for j in range(i, e):
                # every period has trace -1
                gram[i][j] = gram[j][i] = -sum(self.mul_coords(basis[i], basis[j]))
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
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    if e < 1 or (q - 1) % e != 0:
        raise ValueError(f"degree {e} does not divide {q} - 1")
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
    irreducible, witnessed by a prime t at which the Frobenius x -> x^t
    of the period basis makes O_F/t a field of degree e generated by
    eta_0 (see _irreducible_witness); that holds exactly when the
    polynomial is irreducible mod t.  Any failure raises
    ConsistencyError; there is no partial credit.
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
        witness = _irreducible_witness(sub)

    return SubfieldReport(
        q=q,
        e=e,
        disc=disc,
        poly_disc=index * index * disc,
        index=index,
        irreducible_mod=witness,
    )


def _irreducible_witness(sub: CyclotomicSubfield) -> int:
    """Smallest prime t at which the period polynomial f stays
    irreducible, found in O_F/t by the Frobenius phi(x) = x^t of the
    period basis, with no polynomial arithmetic mod t.

    _mul_coords depends on index differences only, so the cyclic shift
    eta_k -> eta_(k+1) is a ring automorphism; it commutes with phi, so
    phi(eta_i) is phi(eta_0) shifted by i, and the F_t-linear phi is a
    circulant matrix built from one power eta_0^t.  t is the witness
    iff phi^e(eta_0) = eta_0 and, for every prime l | e, t does not
    divide N(phi^(e/l)(eta_0) - eta_0), the determinant of its
    multiplication matrix.

    Proof: phi^e(eta_0) = eta_0 makes F_t[eta_0] reduced, with factors
    of degree dividing e; the units rule out every degree dividing e/l,
    so F_t[eta_0] is a field of degree e, hence all of O_F/t.  Then
    F_t[x]/(f mod t) maps onto it, so is isomorphic to it: f is
    irreducible mod t (and t does not divide the index).  Conversely,
    if f is irreducible mod t, O_F/t is the field F_t[eta_0] with t^e
    elements and both tests pass.  So t = q and the split t are
    rejected.  The Galois group is cyclic, so the primes whose
    Frobenius generates it have positive density and the scan ends
    quickly.
    """
    e = sub.e
    prime_divs = sorted(arith.factorize(e))
    eta0 = [1] + [0] * (e - 1)
    for t in arith.iter_primes(20_000):
        frob = eta0  # eta_0^t mod t by square-and-multiply
        for bit in bin(t)[3:]:
            frob = [c % t for c in sub.mul_coords(frob, frob)]
            if bit == "1":
                frob = [c % t for c in sub.mul_coords(frob, eta0)]
        phi = [[frob[(m - i) % e] for i in range(e)] for m in range(e)]
        orbit = [eta0]  # orbit[k] = phi^k(eta_0)
        for _ in range(e):
            orbit.append([sum(map(mul, row, orbit[-1])) % t for row in phi])
        if orbit[e] != eta0:
            continue
        gaps = ([a - b for a, b in zip(orbit[e // l], eta0)] for l in prime_divs)
        if all(sub.norm(g) % t for g in gaps):
            return t
    raise ConsistencyError("no irreducibility witness below 20000")
