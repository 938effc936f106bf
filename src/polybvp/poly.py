"""Dense univariate polynomials and the Bernoulli polynomials.

Coefficients are stored ascending (coeffs[k] multiplies x**k) and may be
ints, Fractions or floats.  Evaluation, differentiation and linear
substitution work in whatever number type they are given.  The Bernoulli
polynomials are exact (Fraction coefficients): Gram-Schmidt over them is
the paper's construction of the basis, carried out without rounding.
"""

from fractions import Fraction
from functools import lru_cache
import math

# The largest basis degree: of the Bernoulli polynomials, the bases, Theta
# and a problem's truncation alike.
MAX_DEGREE = 30


class Polynomial:
    """A univariate polynomial, lowest-order coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for c in coeffs:
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError("non-finite coefficient %r" % c)
        # drop exactly-zero leading terms; keep one coefficient for the zero poly
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Polynomial(%r)" % (list(self.coeffs),)


def eval_poly(p, x):
    """Evaluate p at x by Horner's scheme."""
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc


Polynomial.__call__ = eval_poly


def eval_grid(p, xs):
    """[p(x) for x in xs] by the multiply-adds of eval_poly, so with the same
    bits; the coefficients are reversed once per grid, not once per point."""
    lead, *rest = reversed(p.coeffs)
    out = []
    for x in xs:
        acc = lead
        for c in rest:
            acc = acc * x + c
        out.append(acc)
    return out


def differentiate(p):
    if len(p.coeffs) == 1:
        return Polynomial([0 * p.coeffs[0]])
    return Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def compose_linear(p, a, b):
    """The polynomial q(x) = p(a*x + b), by Horner's scheme on a coefficient list."""
    acc = [p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        # acc * (b + a x) + c, terms added in ascending order of acc
        nxt = [0] * (len(acc) + 1)
        for i, v in enumerate(acc):
            if v == 0:
                continue
            nxt[i] += v * b
            nxt[i + 1] += v * a
        nxt[0] += c
        acc = nxt
    return Polynomial(acc)


@lru_cache(maxsize=None)
def _bernoulli_exact(n):
    # Alternating-sum (Kronecker style) formula.  The inner power sum has to
    # start at k = 0 (with 0**0 == 1): starting it at 1 shifts the whole thing
    # to B_n(1) and flips the sign of B_1.
    total = Fraction(0)
    for j in range(1, n + 2):
        inner = sum(k**n for k in range(j))
        total += Fraction((-1) ** j * math.comb(n + 1, j), j) * inner
    return -total


@lru_cache(maxsize=None)
def _bernoulli_polynomial_exact(n):
    # B_n(x) = sum_j C(n,j) * b_j * x^(n-j), assembled ascending
    coeffs = [math.comb(n, n - k) * _bernoulli_exact(n - k) for k in range(n + 1)]
    return Polynomial(coeffs)


def bernoulli_polynomial(n):
    """The degree-n Bernoulli polynomial with exact Fraction coefficients."""
    if not isinstance(n, int) or not 0 <= n <= MAX_DEGREE:
        raise ValueError(
            "Bernoulli index %r outside supported range 0..%d" % (n, MAX_DEGREE)
        )
    return _bernoulli_polynomial_exact(n)
