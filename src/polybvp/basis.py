"""Orthonormal polynomial basis of L2[0,1].

The paper orthonormalizes the Bernoulli polynomials by Gram-Schmidt; the
result is the normalized shifted Legendre polynomials,

    phi_k = sqrt(scale_sq[k]) * (integer coefficient vector V_k),

with scale_sq[k] = 2k+1 and V_k[j] = (-1)^(k+j) C(k,j) C(k+j,j).  Two
constructions share that skeleton.  gram_schmidt_basis is the paper's
route, carried in exact rational arithmetic, and stays as the faithful
construction and test oracle.  legendre_basis writes the skeleton down from
its closed form in integers, and is what the solver uses.  The float views
of the two agree bit for bit: each coefficient is the square root of the
exact c*c*scale_sq, converted to float with one correct rounding.  Both
bases are memoized per degree, and the float projection rows <x^p, phi_k>
per (n, p), by lru_cache.
"""

from fractions import Fraction
from functools import lru_cache
import math

from .poly import MAX_DEGREE, Polynomial, bernoulli_polynomial


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
    """c*sqrt(s) for exact c and s >= 0 (int or Fraction): the square root
    of the float of the exact c*c*s, which CPython rounds correctly, signed
    like c."""
    r = math.sqrt(c * c * s)
    return r if c >= 0 else -r


class OrthonormalBasis:
    """The orthonormal polynomials phi_0..phi_n.

    Exact form: integer_coeffs[k], scale_sq[k] with
    phi_k = sqrt(scale_sq[k]) * V_k.  Float view: phis, a list of
    Polynomial (monomial form).  Conversion from monomials goes through
    projection_row, <x^p, phi_k>, which for p <= n is the expansion
    x^p = sum_k <x^p, phi_k> phi_k.
    """

    __slots__ = ("n", "phis", "integer_coeffs", "scale_sq")

    def __init__(self, ivecs, scales):
        self.n = len(ivecs) - 1
        self.integer_coeffs = tuple(tuple(v) for v in ivecs)
        self.scale_sq = tuple(scales)
        self.phis = [
            Polynomial([_radical_float(c, s) for c in vec])
            for vec, s in zip(self.integer_coeffs, self.scale_sq)
        ]

    def projection_row(self, p):
        """Floats <x^p, phi_k>, k = 0..n, as a tuple (_projection_row)."""
        return _projection_row(self.n, p)


@lru_cache(maxsize=None)
def _projection_row(n, p):
    """Floats <x^p, phi_k>, k = 0..n, memoized per (n, p).

    With phi_k = sqrt(2k+1) P_k for the shifted Legendre P_k,
    <x^p, P_k> = p!^2 / ((p-k)! (p+k+1)!) for k <= p and 0 beyond.  Each
    float is the square root of the exact square
    p!^4 (2k+1) / ((p-k)! (p+k+1)!)^2, rounded once by int/int division.
    """
    f = math.factorial
    num = f(p) ** 4
    return tuple(
        math.sqrt(num * (2 * k + 1) / (f(p - k) * f(p + k + 1)) ** 2) if k <= p else 0.0
        for k in range(n + 1)
    )


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
    """The same basis from the closed form of its integer skeleton,
    V_k[j] = (-1)^(k+j) C(k,j) C(k+j,j) and scale_sq[k] = 2k+1."""
    _check_degree(n)
    return OrthonormalBasis(
        [
            [(-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j) for j in range(k + 1)]
            for k in range(n + 1)
        ],
        [2 * k + 1 for k in range(n + 1)],
    )


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
