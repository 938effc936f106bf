"""Linear constant-coefficient two-point BVPs by the operational-matrix scheme.

The highest derivative is expanded in the orthonormal basis, y^(m) = C^T phi,
and lower derivatives follow by repeated integration,

    y^(i)(z) = C^T Theta^(m-i) phi(z) + sum_{j=i}^{m-1} gamma_j z^(j-i)/(j-i)!,

with gamma_j = y^(j)(0).  Matching basis coefficients of the substituted ODE
gives n+1 equations; left boundary conditions pin gammas directly, right ones
contribute one row each through the exact endpoint integrals

    integral_0^1 (1-t)^k/k! phi_j(t) dt = (-1)^j <t^k, phi_j>/k!,  k = m-d-1,

by Cauchy's repeated-integration formula and phi_j(1-t) = (-1)^j phi_j(t).
The solution polynomial is reconstructed by exact repeated
antidifferentiation of C^T phi (degree n+m), so imposed left conditions hold
to round-off and, at every n, the endpoint rows are consistent with the
returned polynomial.

The basis comes from the closed form of the shifted Legendre polynomials
(legendre_basis), whose float view is bit-identical to the paper's
Gram-Schmidt construction; Gram-Schmidt stays as the paper's route and the
test oracle.  Everything that depends on the degree alone is memoized by
lru_cache on integer keys: the quadrature node tables, the float projection
rows <x^p, phi_k> (which the endpoint rows and the gamma columns both read),
Theta and the bands of (Theta^T)^k.  assemble only adds a_i times those
bands, with the same floating-point operations as the dense construction,
and returns the system as plain row lists with the row extents its
structure gives; solve_linear checks it once for finiteness.

solve has two halves.  solve_without_diagnostics maps, assembles, solves
and reconstructs, and returns c, the gammas and the solution polynomial;
the paper table reads only the polynomial and calls it alone.  The
diagnostics then evaluate the rhs on a 201-point grid, and fold
L[y] = sum a_k y^(k) into one polynomial evaluated over the whole grid by
one Horner pass (eval_grid), so residual_max can differ from releases that
evaluated each derivative separately; the solution itself does not.

solve_paper_second_order keeps the closed-form second-order Dirichlet path
(rank-one correction matrix L absorbing the boundary terms) as an internal
oracle for the general assembly.
"""

import itertools
import math
import operator
import sys

from .approx import EvaluationError, _eval_checked, project, reconstruct
from .basis import legendre_basis
from .linalg import SingularMatrixError, solve_linear
from .opmatrix import build_theta
from .poly import MAX_DEGREE, Polynomial, compose_linear, differentiate, eval_grid

_SIDES = ("left", "right")
# The endpoint rows divide by (m-1)!: orders end at the first k whose k! is past a double
MAX_ORDER = next(k for k, f in enumerate(itertools.accumulate(itertools.count(1), operator.mul), 1)
                 if f > sys.float_info.max)
_DIAGNOSTIC_GRID = 201


class IllPosedProblemError(ValueError):
    pass


class BoundaryCondition:
    """A condition y^(d)(endpoint) = value; left is x0, right is x1."""

    __slots__ = ("side", "derivative_order", "value")

    def __init__(self, side, derivative_order, value):
        if side not in _SIDES:
            raise ValueError("boundary side must be 'left' or 'right', got %r" % (side,))
        if not isinstance(derivative_order, int) or derivative_order < 0:
            raise ValueError("derivative order must be a non-negative integer")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("boundary value must be finite")
        self.side = side
        self.derivative_order = derivative_order
        self.value = value

    def __repr__(self):
        return "BoundaryCondition(%r, %d, %r)" % (
            self.side,
            self.derivative_order,
            self.value,
        )


class BvpProblem:
    """Order-m linear ODE sum_i a_i y^(i) = r on [x0,x1] with m conditions.

    coefficients are ascending in derivative order, a_m != 0; rhs is an
    evaluation callback; truncation is the basis degree n.
    """

    __slots__ = ("order", "coefficients", "rhs", "domain", "bcs", "truncation")

    def __init__(self, order, coefficients, rhs, domain, bcs, truncation):
        if not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
            raise ValueError("problem order %r outside supported range 1..%d" % (order, MAX_ORDER))
        coefficients = [float(c) for c in coefficients]
        if len(coefficients) != order + 1:
            raise ValueError(
                "order-%d problem needs %d coefficients, got %d"
                % (order, order + 1, len(coefficients))
            )
        if any(not math.isfinite(c) for c in coefficients):
            raise ValueError("coefficients must be finite")
        if coefficients[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        x0, x1 = (float(domain[0]), float(domain[1]))
        if not (math.isfinite(x0) and math.isfinite(x1)) or not x0 < x1:
            raise ValueError("domain must be a finite interval with x0 < x1")
        bcs = list(bcs)
        if len(bcs) != order:
            raise ValueError(
                "order-%d problem needs exactly %d boundary conditions, got %d"
                % (order, order, len(bcs))
            )
        seen = set()
        for bc in bcs:
            if bc.derivative_order >= order:
                raise ValueError(
                    "boundary condition on derivative %d exceeds order %d"
                    % (bc.derivative_order, order)
                )
            key = (bc.side, bc.derivative_order)
            if key in seen:
                raise ValueError("duplicate boundary condition %s/%d" % key)
            seen.add(key)
        if not isinstance(truncation, int) or not 1 <= truncation <= MAX_DEGREE:
            raise ValueError(
                "truncation degree %r outside supported range 1..%d" % (truncation, MAX_DEGREE)
            )
        self.order = order
        self.coefficients = tuple(coefficients)
        self.rhs = rhs
        self.domain = (x0, x1)
        self.bcs = tuple(bcs)
        self.truncation = truncation


class BvpSolution:
    """Solver output: basis coefficients c of y^(m) and integration
    constants gammas (tuples of floats), the solution polynomial in the
    original variable, and diagnostics."""

    __slots__ = (
        "c",
        "gammas",
        "solution_poly",
        "residual_max",
        "bc_residual_max",
        "diverged",
    )

    def __init__(self, c, gammas, solution_poly, residual_max, bc_residual_max, diverged):
        self.c = c
        self.gammas = gammas
        self.solution_poly = solution_poly
        self.residual_max = residual_max
        self.bc_residual_max = bc_residual_max
        self.diverged = diverged


def map_domain(p):
    """The equivalent monic problem on [0,1].

    With h = x1-x0 the coefficient of the k-th mapped derivative picks up
    h^-k and order-d boundary values pick up h^d; the whole equation is then
    divided by the leading coefficient.  A width whose powers leave the
    double range, or make the leading coefficient subnormal or a mapped
    coefficient or boundary value overflow, raises ValueError.  The mapped
    rhs names the failing point in x, not in z.
    """
    x0, x1 = p.domain
    h = x1 - x0
    if (x0, x1) == (0.0, 1.0) and p.coefficients[-1] == 1.0:
        return p
    try:
        lead = p.coefficients[-1] * h ** (-p.order)
        bc_values = [bc.value * h**bc.derivative_order for bc in p.bcs]
        coeffs = [p.coefficients[k] * h ** (-k) / lead for k in range(p.order + 1)]
    except (OverflowError, ZeroDivisionError):  # a power of h left the double range
        lead = math.inf
    if not sys.float_info.min <= abs(lead) < math.inf or not all(
        map(math.isfinite, coeffs + bc_values)
    ):
        raise ValueError(
            "interval width %r is out of double range for an order-%d problem" % (h, p.order)
        )
    coeffs[-1] = 1.0

    def mapped_rhs(z, _r=p.rhs, _x0=x0, _h=h, _lead=lead):
        x = _x0 + _h * z
        v = _eval_checked(_r, x) / _lead
        if math.isinf(v):  # r(x) is finite: the division overflowed
            raise EvaluationError("function value overflows when mapped to [0,1] at x=%.17g" % x)
        return v

    bcs = [BoundaryCondition(bc.side, bc.derivative_order, v) for bc, v in zip(p.bcs, bc_values)]
    return BvpProblem(p.order, coeffs, mapped_rhs, (0.0, 1.0), bcs, p.truncation)


def _gamma_split(p):
    """Left conditions fix gamma_d = value; the rest stay unknowns."""
    fixed = {}
    right = []
    for bc in p.bcs:
        if bc.side == "left":
            fixed[bc.derivative_order] = bc.value
        else:
            right.append(bc)
    right.sort(key=lambda bc: bc.derivative_order)
    free = [j for j in range(p.order) if j not in fixed]
    return fixed, free, right


def _monomial_columns(p, basis):
    """Basis expansion t_j of the gamma_j coefficient polynomial
    sum_{i<=j} a_i z^(j-i)/(j-i)!  (degree j <= m-1)."""
    rows = [basis.projection_row(q) for q in range(p.order)]
    cols = []
    for j in range(p.order):
        col = [0.0] * (basis.n + 1)
        for i in range(j + 1):
            ai = p.coefficients[i]
            if ai == 0.0:
                continue
            f = ai / math.factorial(j - i)
            for k, v in enumerate(rows[j - i]):
                col[k] += f * v
        cols.append(col)
    return cols


def assemble(p, basis, theta):
    """Joint linear system in (free gammas, C) for a monic problem on [0,1].

    Returns (rows, rhs, extents): the system as row lists, its right-hand
    side, and its row extents, in almost-banded order.  Rows: one per
    right-side boundary condition (ascending derivative), then the n+1
    coefficient-matching rows.  Columns: the f free gammas ascending, then
    C_0..C_n.  The extents are derived from that structure, not from the
    values: endpoint row d reaches the gammas and C_0..C_min(n, m-d-1)
    (projection row k ends at index k); matching row k reaches the gammas
    only for k < m (gamma_j's polynomial has degree j < m) and
    C_max(0, k-m)..C_min(n, k+m) (the band of Theta^T's powers).  The starts
    never decrease down the rows, and no entry is -0.0, as linalg's extents
    require.
    """
    if p.domain != (0.0, 1.0) or p.coefficients[-1] != 1.0:
        raise ValueError("assemble expects a mapped, monic problem")
    n = basis.n
    m = p.order
    size = n + 1

    # mc = sum_i a_i (Theta^T)^(m-i), term by term in descending i, from
    # Theta's memoized powers.  a_m = 1 contributes the identity; a sum
    # started from it never holds -0.0, so each entry is the dense sum.
    mc = [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    for i in range(m - 1, -1, -1):
        ai = p.coefficients[i]
        if ai != 0.0:
            theta.add_transposed_power(mc, ai, m - i)

    fixed, free, right = _gamma_split(p)
    f = len(free)
    cols = _monomial_columns(p, basis)
    rho = list(project(p.rhs, basis).coeffs)
    for j, val in fixed.items():
        if val != 0.0:
            for k in range(size):
                rho[k] -= val * cols[j][k]

    rows, extents, rhs = [], [], []
    # endpoint rows: y^(d)(1) = sum_{j>=d} gamma_j/(j-d)! + sum_j C_j
    # (-1)^j <t^k, phi_j>/k!, k = m-d-1 (module docstring); only nonzero
    # entries are negated, so none is -0.0
    for bc in right:
        d = bc.derivative_order
        k = m - d - 1
        fk = math.factorial(k)
        row = [(1.0 / math.factorial(j - d) if j >= d else 0.0) for j in free]
        row += [-v / fk if j & 1 and v else v / fk
                for j, v in enumerate(basis.projection_row(k))]
        rows.append(row)
        extents.append((0, f + min(n, k) + 1))
        val = bc.value
        for j, gval in fixed.items():
            if j >= d and gval != 0.0:
                val -= gval / math.factorial(j - d)
        rhs.append(val)

    free_cols = [cols[j] for j in free]
    for k in range(size):
        rows.append([col[k] for col in free_cols] + mc[k])
        extents.append((0 if k < m else f + k - m, f + min(n, k + m) + 1))

    return rows, rhs + rho, extents


def _reconstruct_mapped(c, gammas, basis, m):
    """Exact m-fold antiderivative of C^T phi plus the gamma polynomial."""
    y = reconstruct(c, basis).coeffs
    for _ in range(m):
        y = [0.0] + [v / (k + 1) for k, v in enumerate(y)]
    for j, g in enumerate(gammas):
        y[j] += g / math.factorial(j)
    return Polynomial(y)


def uniform_grid(x0, x1, points):
    """points equally spaced abscissae from x0 to x1, the last clamped at x1."""
    if points < 2:
        raise ValueError("grid needs at least 2 points, got %d" % points)
    xs = [x0 + (x1 - x0) * i / (points - 1) for i in range(points)]
    # the last point can round one ulp past x1; the others lie a whole step below it
    xs[-1] = min(xs[-1], x1)
    return xs


def _diagnostics(p, solution_poly):
    x0, x1 = p.domain
    derivs = [solution_poly]
    for _ in range(p.order):
        derivs.append(differentiate(derivs[-1]))
    # L[y] = sum_k a_k y^(k), folded once into a single polynomial
    ly = [0.0] * len(solution_poly.coeffs)
    for a, d in zip(p.coefficients, derivs):
        for j, v in enumerate(d.coeffs):
            ly[j] += a * v
    xs = uniform_grid(x0, x1, _DIAGNOSTIC_GRID)
    res_max = 0.0
    rhs_max = 0.0
    for x, lx in zip(xs, eval_grid(Polynomial(ly), xs)):
        rx = _eval_checked(p.rhs, x)
        res = abs(lx - rx)
        if res > res_max:
            res_max = res
        if abs(rx) > rhs_max:
            rhs_max = abs(rx)
    bc_max = 0.0
    for bc in p.bcs:
        at = x0 if bc.side == "left" else x1
        err = abs(derivs[bc.derivative_order](at) - bc.value)
        if err > bc_max:
            bc_max = err
    return res_max, bc_max, res_max > 1e3 * (1.0 + rhs_max)


def _finish(p, c, gammas, solution_poly):
    """The BvpSolution of solution_poly, with its diagnostics."""
    res_max, bc_max, diverged = _diagnostics(p, solution_poly)
    return BvpSolution(tuple(c), tuple(gammas), solution_poly, res_max, bc_max, diverged)


def solve_without_diagnostics(p):
    """(c, gammas, solution_poly) of solve(p), bit for bit, without
    evaluating the rhs on the diagnostics grid."""
    mapped = map_domain(p)
    n = mapped.truncation
    basis = legendre_basis(n)
    theta = build_theta(n)
    rows, rhs, extents = assemble(mapped, basis, theta)
    fixed, free, _right = _gamma_split(mapped)
    try:
        x = solve_linear(rows, rhs, extents)
    except SingularMatrixError as exc:
        col = exc.column
        name = "gamma_%d" % free[col] if col < len(free) else "C_%d" % (col - len(free))
        raise IllPosedProblemError(
            "boundary conditions leave the system singular at column %d (unknown %s)"
            % (col, name)
        ) from None
    gammas = [0.0] * mapped.order
    for j, val in fixed.items():
        gammas[j] = val
    for j, val in zip(free, x):
        gammas[j] = val
    c = x[len(free) :]
    solution_poly = _reconstruct_mapped(c, gammas, basis, mapped.order)
    x0, x1 = p.domain
    if (x0, x1) != (0.0, 1.0):
        h = x1 - x0
        solution_poly = compose_linear(solution_poly, 1.0 / h, -x0 / h)
    return c, gammas, solution_poly


def solve(p):
    """Solve the problem; see module docstring for the scheme."""
    return _finish(p, *solve_without_diagnostics(p))


def solve_paper_second_order(p):
    """Closed-form path for y'' + a1 y' + a0 y = r, y(0)=alpha, y(1)=beta.

    Solves C^T (I + a1 Theta + a0 Theta^2 - L) = R^T where L is the outer
    product of the endpoint integral Theta^2 phi(1) = Theta e0 with the basis
    coefficients of a0 z + a1, and R absorbs the boundary data:
    R^T phi = r - (beta-alpha)(a0 z + a1) - a0 alpha.
    """
    if p.order != 2:
        raise IllPosedProblemError("closed-form path needs a second-order problem")
    if p.domain != (0.0, 1.0):
        raise IllPosedProblemError("closed-form path needs the domain [0,1]")
    sides = sorted((bc.side, bc.derivative_order) for bc in p.bcs)
    if sides != [("left", 0), ("right", 0)]:
        raise IllPosedProblemError(
            "closed-form path needs Dirichlet conditions at both endpoints"
        )
    mapped = map_domain(p)
    a0, a1 = mapped.coefficients[0], mapped.coefficients[1]
    alpha = next(bc.value for bc in mapped.bcs if bc.side == "left")
    beta = next(bc.value for bc in mapped.bcs if bc.side == "right")
    n = mapped.truncation
    basis = legendre_basis(n)
    theta = build_theta(n)
    size = n + 1

    t1 = [a1 * u + a0 * v for u, v in zip(basis.projection_row(0), basis.projection_row(1))]
    tr = theta.rows()
    v2 = [row[0] for row in tr]  # Theta e0 = Theta^2 phi(1) under the endpoint identity
    # The transposed system: row j, column i holds entry (i, j) of
    # I + a1 Theta + a0 Theta^2 - L, where L[i][j] = v2[i] t1[j] and row i
    # of Theta^2 sums Theta[i][k] Theta[k] over the band in ascending k.
    system = [[0.0] * size for _ in range(size)]
    for i, row in enumerate(tr):
        t2 = [0.0] * size
        for k, tik in theta.band[i]:
            for j, tkj in enumerate(tr[k]):
                t2[j] += tik * tkj
        for j in range(size):
            system[j][i] = ((1.0 if i == j else 0.0) + a1 * row[j]) + (
                a0 * t2[j] + -1.0 * (v2[i] * t1[j])
            )
    rho = list(project(mapped.rhs, basis).coeffs)
    r = [
        rho[k] - (beta - alpha) * t1[k] - (a0 * alpha if k == 0 else 0.0)
        for k in range(size)
    ]
    try:
        c = solve_linear(system, r)
    except SingularMatrixError as exc:
        raise IllPosedProblemError(
            "boundary conditions leave the system singular at column %d" % exc.column
        ) from None
    gamma1 = beta - alpha - sum(ck * vk for ck, vk in zip(c, v2))
    gammas = [alpha, gamma1]
    # on [0,1] the mapped polynomial is the solution
    return _finish(p, c, gammas, _reconstruct_mapped(c, gammas, basis, 2))
