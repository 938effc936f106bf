"""Orthonormal polynomial basis of L2[0,1].

Two independent constructions of the same set phi_0..phi_n: Gram-Schmidt
over the Bernoulli polynomials, and the normalized shifted-Legendre
three-term recurrence.  Both are carried in exact rational arithmetic and
share one skeleton representation,

    phi_k = sqrt(scale_sq[k]) * (integer coefficient vector V_k),

so orthonormality, span and conversion identities can be verified with zero
rounding, and the float views of the two routes agree bit for bit.  Floats
are produced by a single correctly-rounded square root per coefficient.
"""

from fractions import Fraction
from functools import lru_cache
import math

from .poly import Polynomial, bernoulli_polynomial

MAX_DEGREE = 30


class BasisConstructionError(ValueError):
    pass


def inner_product(f, g):
    """<f,g> on L2[0,1] via the term rule: <x^i, x^j> = 1/(i+j+1).

    Exact (a Fraction) when both polynomials have exact coefficients.
    """
    total = 0
    for i, a in enumerate(f.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(g.coeffs):
            if b == 0:
                continue
            term = a * b
            if isinstance(term, (int, Fraction)):
                total = total + Fraction(term, i + j + 1)
            else:
                total = total + term / (i + j + 1)
    return total


def _radical_float(c, s):
    """Correctly rounded float of c*sqrt(s) for exact rational c and s >= 0."""
    if c == 0:
        return 0.0
    r = math.sqrt(float(Fraction(c) * Fraction(c) * Fraction(s)))
    return r if c > 0 else -r


class OrthonormalBasis:
    """The orthonormal polynomials phi_0..phi_n.

    Exact form: integer_coeffs[k], scale_sq[k] with
    phi_k = sqrt(scale_sq[k]) * V_k.  Float view: phis, a list of
    Polynomial (monomial form).  Conversion from monomials goes through
    projection_row, <x^p, phi_k>, which for p <= n is the expansion
    x^p = sum_k <x^p, phi_k> phi_k.
    """

    __slots__ = ("n", "phis", "integer_coeffs", "scale_sq", "_float_rows")

    def __init__(self, ivecs, scales):
        self.n = len(ivecs) - 1
        self.integer_coeffs = tuple(tuple(v) for v in ivecs)
        self.scale_sq = tuple(Fraction(s) for s in scales)
        self.phis = [
            Polynomial([_radical_float(c, s) for c in vec])
            for vec, s in zip(self.integer_coeffs, self.scale_sq)
        ]
        self._float_rows = {}

    def projection_row_exact(self, p):
        """Rationals w_k = sum_j V_k[j]/(p+j+1), so that
        <x^p, phi_k> = w_k * sqrt(scale_sq[k]).

        For p <= n, sum_k w_k * scale_sq[k] * V_k is exactly x^p; beyond n
        it is the L2 projection of x^p onto the span.
        """
        return [
            sum((Fraction(c, p + j + 1) for j, c in enumerate(vec)), Fraction(0))
            for vec in self.integer_coeffs
        ]

    def projection_row(self, p):
        """Floats <x^p, phi_k> as a tuple, memoized per p."""
        row = self._float_rows.get(p)
        if row is None:
            row = self._float_rows[p] = tuple(
                _radical_float(w, s)
                for w, s in zip(self.projection_row_exact(p), self.scale_sq)
            )
        return row


def _check_degree(n):
    if not isinstance(n, int) or not 0 <= n <= MAX_DEGREE:
        raise ValueError("basis degree %r outside supported range 0..%d" % (n, MAX_DEGREE))


def _normalize_residual(r, k):
    """Split an exact residual vector into sqrt-scale and primitive V."""
    q = inner_product(Polynomial(r), Polynomial(r))
    if q == 0:
        raise BasisConstructionError(
            "polynomial at index %d is dependent on its predecessors" % k
        )
    denom_lcm = 1
    for c in r:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in r]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    vec = [c // g for c in ints]
    factor = Fraction(g, denom_lcm)
    if vec[-1] < 0:  # positive leading coefficient fixes the sign
        vec = [-c for c in vec]
        factor = -factor
    return vec, factor * factor / q


@lru_cache(maxsize=None)
def gram_schmidt_basis(n):
    """Orthonormalize the Bernoulli polynomials B_0..B_n on [0,1].

    Modified Gram-Schmidt in exact rational arithmetic, so one pass leaves
    each residual exactly orthogonal to its predecessors; signs fixed by
    positive leading coefficients.
    """
    _check_degree(n)
    vecs = []
    scales = []
    for k in range(n + 1):
        r = list(bernoulli_polynomial(k).coeffs)
        for j in range(k):
            c = inner_product(Polynomial(r), Polynomial(vecs[j]))
            if c:
                cs = c * scales[j]
                for i, v in enumerate(vecs[j]):
                    r[i] -= cs * v
        vec, ssq = _normalize_residual(r, k)
        vecs.append(tuple(vec))
        scales.append(ssq)
    return OrthonormalBasis(vecs, scales)


@lru_cache(maxsize=None)
def legendre_basis(n):
    """Same basis via the shifted Legendre recurrence, scaled by sqrt(2k+1)."""
    _check_degree(n)
    vecs = [(1,)]
    if n >= 1:
        vecs.append((-1, 2))
    for k in range(1, n):
        prev, cur = vecs[k - 1], vecs[k]
        # (k+1) P_{k+1} = (2k+1)(2x-1) P_k - k P_{k-1}
        nxt = [Fraction(0)] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += Fraction(2 * (2 * k + 1) * c, k + 1)
            nxt[j] -= Fraction((2 * k + 1) * c, k + 1)
        for j, c in enumerate(prev):
            nxt[j] -= Fraction(k * c, k + 1)
        assert all(c.denominator == 1 for c in nxt)
        vecs.append(tuple(int(c) for c in nxt))
    return OrthonormalBasis(list(vecs), [Fraction(2 * k + 1) for k in range(n + 1)])


def eval_basis(basis, x):
    """phi_0(x)..phi_n(x) as a tuple, by the stable three-term recurrence
    (not monomial Horner)."""
    n = basis.n
    vals = [0.0] * (n + 1)
    p_prev = 1.0
    vals[0] = 1.0
    if n == 0:
        return tuple(vals)
    t = 2.0 * x - 1.0
    p_cur = t
    vals[1] = math.sqrt(3.0) * p_cur
    for k in range(1, n):
        p_nxt = ((2 * k + 1) * t * p_cur - k * p_prev) / (k + 1)
        p_prev, p_cur = p_cur, p_nxt
        vals[k + 1] = math.sqrt(2 * k + 3) * p_cur
    return tuple(vals)
