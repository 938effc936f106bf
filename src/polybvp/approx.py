"""L2 best approximation on [0,1]: quadrature, projection, reconstruction.

The projection coefficients c_k = <f, phi_k> are computed with a
Gauss-Legendre rule whose exactness degree covers the basis; for smooth f
over-integration makes the quadrature error negligible next to truncation.
Rules, and the basis values at the nodes of the default rule, are memoized
per size: both depend on the node count and the degree only.
"""

from decimal import Decimal, localcontext
from functools import lru_cache
import math

from .basis import eval_basis
from .exprparse import ExprEvalError
from .linalg import Vector
from .poly import Polynomial


class QuadratureError(RuntimeError):
    """Node iteration failed to converge -- indicates a bug, not bad input."""


class EvaluationError(ValueError):
    """A function callback produced a non-finite value, or raised an
    arithmetic error or a ValueError, at a point this error names."""


class QuadratureRule:
    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        self.nodes = tuple(nodes)
        self.weights = tuple(weights)


def _newton(x, q, tol):
    """Newton on P_q from x, in the arithmetic of x (float or Decimal),
    until the step is at most tol.  Returns the root and P_q' from the last
    evaluation."""
    for _ in range(100):
        # P_q(x) and P_{q-1}(x) by the standard recurrence
        p_prev, p_cur = 1, x
        for j in range(1, q):
            p_prev, p_cur = p_cur, ((2 * j + 1) * x * p_cur - j * p_prev) / (j + 1)
        dp = q * (x * p_cur - p_prev) / (x * x - 1)
        dx = p_cur / dp
        x -= dx
        if abs(dx) <= tol:
            return x, dp
    raise QuadratureError("Newton on P_%d did not converge near %r" % (q, x))


@lru_cache(maxsize=None, typed=True)
def gauss_legendre_rule(q):
    """q-point Gauss-Legendre rule mapped to [0,1], memoized per q.

    Exact for polynomials of degree up to 2q-1.  Every node and weight lies
    within 1 ulp of its correctly rounded value, the nodes nearest 0
    included (measured <= 0.5 ulp for q = 1..128).  Newton on P_q locates
    the lower half of the nodes: in double from the Chebyshev angles until
    the step is at most 1e-14, then in 36-digit decimal until it is at most
    1e-30.  Double arithmetic alone leaves the nodes tens of ulp off near
    the ends; seeded from double, the decimal stage takes at most three
    steps, mostly two, where the Chebyshev guesses took up to six (cf. Hale
    & Townsend, SIAM J. Sci. Comput. 35, 2013).  The weight
    1/((1-x^2) P_q'(x)^2) takes P_q' from the last decimal evaluation, and
    the upper half follows from t -> 1-t on t = (x+1)/2.
    """
    if not isinstance(q, int) or not 1 <= q <= 128:
        raise ValueError("quadrature size %r outside supported range 1..128" % (q,))
    lower, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 36
        tol = Decimal("1e-30")
        for k in range((q + 1) // 2):
            x, _ = _newton(-math.cos(math.pi * (k + 0.75) / (q + 0.5)), q, 1e-14)
            x, dp = _newton(Decimal(x), q, tol)
            lower.append((x + 1) / 2)
            weights.append(float(1 / ((1 - x) * (1 + x) * dp * dp)))
        nodes = [float(t) for t in lower] + [float(1 - t) for t in reversed(lower[: q // 2])]
    return QuadratureRule(nodes, weights + weights[: q // 2][::-1])


class ProjectionResult:
    __slots__ = ("coeffs", "l2_error_estimate")

    def __init__(self, coeffs, l2_error_estimate):
        self.coeffs = coeffs
        self.l2_error_estimate = l2_error_estimate


def _eval_checked(f, x):
    """f(x), with a non-finite value, an arithmetic error or a ValueError
    (math.log(-1), say) raised as EvaluationError naming the point.  An
    ExprEvalError or EvaluationError already names its point and passes
    through as it is."""
    try:
        v = f(x)
    except (ExprEvalError, EvaluationError):
        raise
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(
            "function raised %s at x=%.17g: %s" % (type(exc).__name__, x, exc)
        ) from exc
    if not math.isfinite(v):
        raise EvaluationError("function evaluated to %r at x=%.17g" % (v, x))
    return v


_default_tables = {}


def _default_node_table(basis):
    """(node, weight, phi values) of the default rule for degree basis.n.

    The phi values come from the recurrence and depend on n alone, so one
    table serves every basis of that degree; n <= 30 bounds the cache.
    """
    table = _default_tables.get(basis.n)
    if table is None:
        rule = gauss_legendre_rule(max(basis.n + 1, 32))
        table = _default_tables[basis.n] = tuple(
            (x, w, eval_basis(basis, x)) for x, w in zip(rule.nodes, rule.weights)
        )
    return table


def project(f, basis, rule=None):
    """Best-approximation coefficients of f in the basis, by quadrature.

    The rule must integrate degree 2n exactly; the default uses
    max(n+1, 32) points.  The l2_error_estimate is the Parseval remainder
    sqrt(|f|^2 - sum c_k^2), clamped at zero.
    """
    if rule is None:
        table = _default_node_table(basis)
    elif 2 * len(rule.nodes) - 1 < 2 * basis.n:
        raise ValueError(
            "rule with %d nodes is not exact to degree %d"
            % (len(rule.nodes), 2 * basis.n)
        )
    else:
        table = [(x, w, eval_basis(basis, x)) for x, w in zip(rule.nodes, rule.weights)]
    coeffs = [0.0] * (basis.n + 1)
    norm_sq = 0.0
    for x, w, phix in table:
        fx = _eval_checked(f, x)
        wf = w * fx
        norm_sq += wf * fx
        coeffs = [c + wf * v for c, v in zip(coeffs, phix)]
    sum_sq = 0.0
    for c in coeffs:  # a loop, not sum(), which compensates on Python >= 3.12
        sum_sq += c * c
    return ProjectionResult(Vector._of(coeffs), math.sqrt(max(0.0, norm_sq - sum_sq)))


def reconstruct(coeffs, basis):
    """sum_k c_k phi_k as a single monomial-form Polynomial."""
    if len(coeffs) != basis.n + 1:
        raise ValueError(
            "got %d coefficients for a basis of size %d" % (len(coeffs), basis.n + 1)
        )
    out = [0.0] * (basis.n + 1)
    for c, phi in zip(coeffs, basis.phis):
        if c:
            for j, v in enumerate(phi.coeffs):
                out[j] += c * v
    return Polynomial(out)

