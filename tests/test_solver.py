"""BVP assembly, solving, and reconstruction.

The polynomial-data recovery property is asserted twice: once at its
target tolerance of 1e-9 per coefficient over the full stated range
(m <= 4, n <= 10), and once with function values as well.  The measured
worst coefficient deviation is 7.5e-10 at (m, n) = (2, 10): degree-10
basis polynomials carry monomial coefficients ~1.1e7, so the leading
monomial coefficient is only as good as the projected right-hand side,
which needs a Gauss-Legendre rule within an ulp of correctly rounded (a
rule tens of ulp off gave 4.1e-9 here).  Function values are recovered
to 6.4e-13 or better throughout.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
import hashlib
import math
import random
import re

import pytest

from polybvp.approx import EvaluationError, project
from polybvp.basis import gram_schmidt_basis, legendre_basis
from polybvp.exprparse import ExprEvalError, compile_function
from polybvp.linalg import LinAlgError, SingularMatrixError, solve_linear
from polybvp.opmatrix import OperationalMatrix, _transposed_power, build_theta
from polybvp.poly import Polynomial, differentiate, eval_poly
from polybvp.solver import (
    BoundaryCondition,
    BvpProblem,
    IllPosedProblemError,
    MAX_ORDER,
    _gamma_split,
    _monomial_columns,
    assemble,
    map_domain,
    solve,
    solve_paper_second_order,
)


# ---------------------------------------------------------------- fixtures

def ex1_problem(n):
    # y'' - 5y' + 6y = e^-x, y(0) = 0, y(1) = 5
    return BvpProblem(
        2,
        (6.0, -5.0, 1.0),
        compile_function("exp(-x)"),
        (0.0, 1.0),
        [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 0, 5.0)],
        n,
    )


def ex1_exact():
    a = (math.e**4 + 60 * math.e - 1) / (math.e**3 * (math.e - 1))
    b = (math.e**3 + 60 * math.e - 1) / (math.e**3 * (math.e - 1))
    return lambda x: (math.exp(-x) - a * math.exp(2 * x) + b * math.exp(3 * x)) / 12.0


def ex4_problem(n):
    # y'''' - y'' - y = (x-3)e^x, clamped ends, exact solution (1-x)e^x
    return BvpProblem(
        4,
        (-1.0, 0.0, -1.0, 0.0, 1.0),
        compile_function("(x-3)*exp(x)"),
        (0.0, 1.0),
        [
            BoundaryCondition("left", 0, 1.0),
            BoundaryCondition("left", 1, 0.0),
            BoundaryCondition("right", 0, 0.0),
            BoundaryCondition("right", 1, -math.e),
        ],
        n,
    )


def grid_error(poly, exact, points=1001):
    return max(
        abs(eval_poly(poly, i / (points - 1)) - exact(i / (points - 1)))
        for i in range(points)
    )


def dirichlet(alpha, beta):
    return [BoundaryCondition("left", 0, alpha), BoundaryCondition("right", 0, beta)]


# ------------------------------------------------------------- validation

class TestProblemValidation:
    def test_boundary_condition_fields(self):
        with pytest.raises(ValueError):
            BoundaryCondition("top", 0, 1.0)
        with pytest.raises(ValueError):
            BoundaryCondition("left", -1, 1.0)
        with pytest.raises(ValueError):
            BoundaryCondition("left", 0, float("nan"))

    def test_order_and_coefficients(self):
        bcs = dirichlet(0.0, 0.0)
        with pytest.raises(ValueError):
            BvpProblem(0, (1.0,), lambda x: 0.0, (0.0, 1.0), [], 5)
        with pytest.raises(ValueError):
            BvpProblem(2, (1.0, 1.0), lambda x: 0.0, (0.0, 1.0), bcs, 5)
        with pytest.raises(ValueError):
            BvpProblem(2, (1.0, 1.0, 0.0), lambda x: 0.0, (0.0, 1.0), bcs, 5)

    def test_domain_must_be_increasing(self):
        with pytest.raises(ValueError):
            BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (1.0, 0.0),
                       dirichlet(0.0, 0.0), 5)

    def test_bc_count_and_duplicates(self):
        with pytest.raises(ValueError):
            BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (0.0, 1.0),
                       [BoundaryCondition("left", 0, 0.0)], 5)
        dup = [BoundaryCondition("left", 0, 0.0), BoundaryCondition("left", 0, 1.0)]
        with pytest.raises(ValueError):
            BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (0.0, 1.0), dup, 5)

    def test_bc_order_below_problem_order(self):
        bad = [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 2, 0.0)]
        with pytest.raises(ValueError):
            BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (0.0, 1.0), bad, 5)

    def test_truncation_range(self):
        for bad in (0, 31):
            with pytest.raises(ValueError):
                BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (0.0, 1.0),
                           dirichlet(0.0, 0.0), bad)

    def test_order_range_ends_where_factorials_leave_the_double_range(self):
        """The endpoint rows divide by up to (m-1)!: the largest order's
        factorial still converts to a double and solves with right
        conditions, and the next order is refused by name."""
        float(math.factorial(MAX_ORDER - 1))
        with pytest.raises(OverflowError):
            float(math.factorial(MAX_ORDER))

        def problem(m):
            bcs = [BoundaryCondition("right" if d % 2 else "left", d, 0.0) for d in range(m)]
            return BvpProblem(m, [1.0] + [0.0] * (m - 1) + [1.0], lambda x: 1.0,
                              (0.0, 1.0), bcs, 5)

        assert not solve(problem(MAX_ORDER)).diverged
        with pytest.raises(ValueError, match="^problem order %d outside supported range 1..%d$"
                           % (MAX_ORDER + 1, MAX_ORDER)):
            problem(MAX_ORDER + 1)


# ------------------------------------------------------------- map_domain

class TestMapDomain:
    def test_identity_fast_path(self):
        p = ex1_problem(7)
        assert map_domain(p) is p

    def test_rescales_leading_coefficient(self):
        p = BvpProblem(2, (1.0, 0.0, 2.0), lambda x: 3.0, (0.0, 1.0),
                       dirichlet(0.0, 1.0), 5)
        q = map_domain(p)
        assert list(q.coefficients) == [0.5, 0.0, 1.0]
        assert q.rhs(0.3) == pytest.approx(1.5, abs=1e-15)
        assert [bc.value for bc in q.bcs] == [0.0, 1.0]

    def test_interval_stretch(self):
        # y'' - y = 1 on [0,2] with y'(2) = c becomes y'' - 4y = 4 on [0,1]
        # with the right slope condition scaled to 2c
        c = 0.75
        p = BvpProblem(
            2,
            (-1.0, 0.0, 1.0),
            lambda x: 1.0,
            (0.0, 2.0),
            [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 1, c)],
            6,
        )
        q = map_domain(p)
        assert q.domain == (0.0, 1.0)
        assert list(q.coefficients) == pytest.approx([-4.0, 0.0, 1.0], abs=1e-15)
        for z in (0.0, 0.31, 1.0):
            assert q.rhs(z) == pytest.approx(4.0, abs=1e-14)
        got = {(bc.side, bc.derivative_order): bc.value for bc in q.bcs}
        assert got[("left", 0)] == 0.0
        assert got[("right", 1)] == pytest.approx(2.0 * c, abs=1e-15)

    @pytest.mark.parametrize(
        "order, width",
        [(9, 1e-40), (2, 1e-170), (2, 1e200), (171, 100.0)],
        ids=["tiny-order9", "tiny-order2", "huge-order2", "bc-power-order171"],
    )
    def test_width_out_of_double_range_is_a_value_error(self, order, width):
        p = BvpProblem(order, (0.0,) * order + (1.0,), lambda x: 1.0, (0.0, width),
                       [BoundaryCondition("left", d, 1.0) for d in range(order)], 5)
        msg = "interval width %r is out of double range for an order-%d problem" % (
            width, order)
        with pytest.raises(ValueError, match=re.escape(msg)):
            solve(p)

    @pytest.mark.parametrize(
        "coefficients, width, slope",
        [((0.0, 1.0, 1.0), 1e160, 0.0), ((1e10, 0.0, 1.0), 1e150, 0.0),
         ((0.0, 0.0, 1.0), 1e10, 1e300)],
        ids=["subnormal-lead", "overflowing-a0", "overflowing-bc"],
    )
    def test_width_that_spoils_a_mapped_coefficient_is_a_value_error(
        self, coefficients, width, slope
    ):
        # h^-2 = 1e-320 is subnormal, so a_1/lead would read 1.0000111e160;
        # h^-2 = 1e-300 is normal, but a_0/lead = 1e310 overflows; the mapped
        # slope y'(h) = 1e300 * h overflows at h = 1e10
        bcs = [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 1, slope)]
        p = BvpProblem(2, coefficients, lambda x: 1.0, (0.0, width), bcs, 5)
        msg = "interval width %r is out of double range for an order-2 problem" % width
        with pytest.raises(ValueError, match=re.escape(msg)):
            map_domain(p)

    def test_solution_on_stretched_interval(self):
        # closed form for y'' - y = 1, y(0) = y(2) = 0
        denom = math.e**2 - math.e**-2
        a = (1.0 - math.e**-2) / denom
        b = 1.0 - a
        exact = lambda x: a * math.exp(x) + b * math.exp(-x) - 1.0
        p = BvpProblem(2, (-1.0, 0.0, 1.0), lambda x: 1.0, (0.0, 2.0),
                       dirichlet(0.0, 0.0), 10)
        s = solve(p)
        worst = max(
            abs(eval_poly(s.solution_poly, 2.0 * i / 400) - exact(2.0 * i / 400))
            for i in range(401)
        )
        assert worst <= 1e-8


# --------------------------------------------------------------- assemble

class TestAssemble:
    def test_requires_mapped_problem(self):
        p = BvpProblem(2, (1.0, 0.0, 2.0), lambda x: 0.0, (0.0, 1.0),
                       dirichlet(0.0, 0.0), 5)
        with pytest.raises(ValueError):
            assemble(p, gram_schmidt_basis(5), build_theta(5))

    def test_system_is_square_with_free_constants(self):
        p = ex1_problem(6)  # one left BC fixes gamma_0; gamma_1 stays free
        rows, b, extents = assemble(p, gram_schmidt_basis(6), build_theta(6))
        # (n+1) matching rows + 1 right-BC row
        assert [len(row) for row in rows] == [8] * 8
        assert len(b) == len(extents) == 8

    def test_zero_data_gives_zero_solution(self):
        p = BvpProblem(2, (1.0, -2.0, 1.0), lambda x: 0.0, (0.0, 1.0),
                       dirichlet(0.0, 0.0), 6)
        s = solve(p)
        assert max(abs(v) for v in s.c) == 0.0
        assert max(abs(v) for v in s.gammas) == 0.0

    def test_eliminated_form_entries(self):
        """The rank-one boundary correction for the Dirichlet second-order
        case has closed-form entries (a0+2a1)/4, a0/(4 sqrt 3),
        -sqrt(3)(a0+2a1)/12, -a0/12; reproduce them from the public pieces."""
        rng = random.Random(20)
        n = 6
        basis = gram_schmidt_basis(n)
        theta = build_theta(n)
        t0, t1_row = basis.projection_row(0), basis.projection_row(1)
        v2 = [row[0] for row in theta.rows()]  # Theta e0, the double integral of phi_0
        for _ in range(5):
            a0 = rng.uniform(-10, 10)
            a1 = rng.uniform(-10, 10)
            t1 = [a0 * t1_row[k] + a1 * t0[k] for k in range(n + 1)]
            lmat = [[v2[i] * t1[k] for k in range(n + 1)] for i in range(n + 1)]
            s3 = math.sqrt(3)
            assert abs(lmat[0][0] - (a0 + 2 * a1) / 4.0) <= 1e-14
            assert abs(lmat[0][1] - a0 / (4.0 * s3)) <= 1e-14
            assert abs(lmat[1][0] + s3 * (a0 + 2 * a1) / 12.0) <= 1e-14
            assert abs(lmat[1][1] + a0 / 12.0) <= 1e-14
            for i in range(n + 1):
                for k in range(n + 1):
                    if i > 1 or k > 1:
                        assert abs(lmat[i][k]) <= 1e-14 * (1 + abs(a0) + abs(a1))

    def test_matches_dense_construction(self):
        """Entry for entry equal to the dense construction it replaced:
        Theta^T powers by dense products, scaled and summed entrywise,
        endpoint rows from their closed form.  Covers orders 1..9,
        m - 1 > n, zero interior coefficients and mixed left/right
        conditions."""
        rng = random.Random(31)
        for n in (1, 2, 7, 30):
            basis = legendre_basis(n)
            theta = build_theta(n)
            for m in range(1, 10):
                for _ in range(2):
                    p = random_mapped_problem(rng, n, m)
                    a, b, _ = assemble(p, basis, theta)
                    want_a, want_b = dense_assemble(p, basis, theta)
                    assert a == want_a, (n, m, p.coefficients, p.bcs)
                    assert b == want_b, (n, m, p.coefficients, p.bcs)

    def test_row_extents_hold_every_nonzero(self):
        """The extents assemble derives from structure hold every nonzero,
        with +0.0 outside them, no -0.0 anywhere and starts that never
        decrease down the rows: orders 1..9 at n in {1, 2, 7, 30}, m - 1 > n
        included, all-right, mixed and all-left conditions."""
        rng = random.Random(61)
        for n in (1, 2, 7, 30):
            basis = legendre_basis(n)
            theta = build_theta(n)
            for m in range(1, 10):
                for right in (m, None, 0):
                    p = random_mapped_problem(rng, n, m, right=right)
                    a, _, extents = assemble(p, basis, theta)
                    assert len(extents) == len(a)
                    starts = [s for s, _ in extents]
                    assert starts == sorted(starts), (n, m, p.bcs)
                    for i, (s, e) in enumerate(extents):
                        assert 0 <= s < e <= len(a), (n, m, i)
                        row = a[i]
                        outside = row[:s] + row[e:]
                        assert hexes(outside) == hexes([0.0] * len(outside)), (n, m, i, p.bcs)
                        assert all(v != 0.0 or math.copysign(1.0, v) > 0 for v in row)

    def test_endpoint_entries_within_ulps_of_exact(self):
        """Endpoint row d holds integral_0^1 (1-t)^k/k! phi_j, k = m-d-1,
        which is (-1)^j sqrt(2j+1) k!/((k-j)! (k+j+1)!) for j <= k and +0.0
        beyond: within 1.5 ulp of that value in 50-digit decimal, for every
        n <= 30 and k <= 11."""
        m, f = 12, math.factorial
        bcs = [BoundaryCondition("right", d, 1.0) for d in range(m)]
        worst = 0.0
        for n in range(1, 31):
            p = BvpProblem(m, [0.0] * m + [1.0], math.cos, (0.0, 1.0), bcs, n)
            a, _, _ = assemble(p, legendre_basis(n), build_theta(n))
            for d in range(m):
                k = m - d - 1
                for j, got in enumerate(a[d][m:]):
                    if j > k:
                        assert hexes([got]) == hexes([0.0]), (n, k, j)
                        continue
                    exact = Fraction((-1) ** j * f(k), f(k - j) * f(k + j + 1))
                    with localcontext() as ctx:
                        ctx.prec = 50
                        want = (Decimal(exact.numerator) / exact.denominator
                                * Decimal(2 * j + 1).sqrt())
                        ulps = float(abs(Decimal(got) - want) / Decimal(math.ulp(got)))
                    assert ulps <= 1.5, (n, k, j, ulps)
                    worst = max(worst, ulps)
        assert worst > 0.0  # the check compared rounded values, not zeros

    @pytest.mark.parametrize("orders", [(9, 3), (3, 9)])
    @pytest.mark.parametrize("n", [7, 30])
    def test_memo_grows_to_any_order(self, n, orders):
        """From an empty memo, the table of powers grown for one order
        serves the next: every system equals the dense oracle's, signed
        zeros included, whichever order comes first."""
        rng = random.Random(41 * n + orders[0])
        basis = legendre_basis(n)
        theta = OperationalMatrix(n)
        _transposed_power.cache_clear()
        for m in orders:
            for right in (m, rng.randint(0, m)):  # all conditions right, then a mix
                p = random_mapped_problem(rng, n, m, right=right)
                a, b, _ = assemble(p, basis, theta)
                want_a, want_b = dense_assemble(p, basis, theta)
                assert list(map(hexes, a)) == list(map(hexes, want_a)), (m, p.bcs)
                assert hexes(b) == hexes(want_b), (m, p.bcs)

    def test_returned_system_shares_nothing_with_the_memo(self):
        """Mutating what assemble returns, or assembling again, changes
        neither the memoized powers and projection rows nor a later system."""
        n, m = 7, 5
        basis = legendre_basis(n)
        theta = OperationalMatrix(n)
        p = random_mapped_problem(random.Random(43), n, m, right=m)

        def tables():
            powers = []
            for k in range(m + 1):
                rows = [[0.0] * (n + 1) for _ in range(n + 1)]
                theta.add_transposed_power(rows, 1.0, k)
                powers.append(rows)
            return powers, [basis.projection_row(k) for k in range(m)]

        a, b, _ = assemble(p, basis, theta)
        before = tables()
        kept = [hexes(row) for row in a], hexes(b)
        for row in a:
            row[:] = [7.0] * len(row)
        b[:] = [7.0] * len(b)
        again_a, again_b, _ = assemble(p, basis, theta)
        assert tables() == before
        assert ([hexes(row) for row in again_a], hexes(again_b)) == kept


def hexes(values):
    return [float(v).hex() for v in values]


def random_mapped_problem(rng, n, m, right=None):
    """A monic order-m problem on [0,1] with zero and nonzero lower
    coefficients and zero and nonzero left values; `right` conditions (a
    random count if None) sit at the right end."""
    coeffs = [rng.choice((0.0, rng.uniform(-3, 3))) for _ in range(m)]
    left = rng.sample(range(m), rng.randint(0, m) if right is None else m - right)
    right = rng.sample(range(m), m - len(left))
    bcs = [BoundaryCondition("left", d, rng.choice((0.0, rng.uniform(-2, 2))))
           for d in left]
    bcs += [BoundaryCondition("right", d, rng.uniform(-2, 2)) for d in right]
    return BvpProblem(m, coeffs + [1.0], math.cos, (0.0, 1.0), bcs, n)


def dense_assemble(p, basis, theta):
    """assemble as it stood before the banded construction (test oracle),
    permuted into the almost-banded order."""
    n, m, size = basis.n, p.order, basis.n + 1
    tt = [list(col) for col in zip(*theta.rows())]
    mc = None
    power = [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    for i in range(m, -1, -1):
        ai = p.coefficients[i]
        if ai != 0.0:
            term = [[ai * v for v in row] for row in power]
            mc = term if mc is None else [[x + y for x, y in zip(r, t)] for r, t in zip(mc, term)]
        if i > 0:  # tt @ power, summed in ascending k with zero tt[r][k] skipped
            nxt = []
            for trow in tt:
                acc = [0.0] * size
                for tk, prow in zip(trow, power):
                    if tk != 0.0:
                        acc = [s + tk * v for s, v in zip(acc, prow)]
                nxt.append(acc)
            power = nxt
    fixed, free, right = _gamma_split(p)
    cols = _monomial_columns(p, basis)
    rho = list(project(p.rhs, basis).coeffs)
    for j, val in fixed.items():
        if val != 0.0:
            for k in range(size):
                rho[k] -= val * cols[j][k]
    rows = [mc[k] + [cols[j][k] for j in free] for k in range(size)]
    rhs = rho[:]
    for bc in right:
        d = bc.derivative_order
        k = m - d - 1  # integral_0^1 (1-t)^k/k! phi_j = (-1)^j <t^k, phi_j>/k!
        w = [((-v if j % 2 else v) / math.factorial(k) if v != 0.0 else 0.0)
             for j, v in enumerate(basis.projection_row(k))]
        rows.append(w + [
            (1.0 / math.factorial(j - d) if j >= d else 0.0) for j in free
        ])
        val = bc.value
        for j, gval in fixed.items():
            if j >= d and gval != 0.0:
                val -= gval / math.factorial(j - d)
        rhs.append(val)
    # assemble's almost-banded order: endpoint rows and gamma columns first
    order = list(range(size, len(rows))) + list(range(size))
    rows = [rows[i][size:] + rows[i][:size] for i in order]
    return rows, [rhs[i] for i in order]


# ------------------------------------------------- solve_linear on systems

class TestSolveLinearOnAssembledSystems:
    def test_matches_previous_elimination(self):
        """Bit for bit, signed zeros included, the elimination it replaced
        on assembled systems: orders 1..9 at n in {1, 2, 7, 30}, a singular
        system failing at the same column."""
        rng = random.Random(47)
        for n in (1, 2, 7, 30):
            basis = legendre_basis(n)
            theta = build_theta(n)
            for m in range(1, 10):
                for _ in range(3):
                    p = random_mapped_problem(rng, n, m)
                    a, b, extents = assemble(p, basis, theta)
                    assert outcome(solve_linear, a, b, extents) == outcome(
                        entrywise_solve_linear, a, b), (n, m, p.coefficients, p.bcs)

    def test_matches_previous_elimination_on_ties_and_signed_zeros(self):
        """Pivot ties go to the first candidate row, and a zero component
        keeps its sign ([0, -0] below, where forward substitution skips the
        zero x_0), as in the elimination it replaced."""
        rng = random.Random(53)
        cases = [([[2.0, 1.0], [-1.0, 3.0]], [0.0, -0.0])]
        for n in (3, 5, 8):
            rows = [[rng.choice((1.0, -1.0))] + [rng.uniform(-1, 1) for _ in range(n - 1)]
                    for _ in range(n)]
            cases.append((rows, [rng.uniform(-1, 1) for _ in range(n)]))
        for a, b in cases:
            assert outcome(solve_linear, a, b) == outcome(entrywise_solve_linear, a, b), a
        assert hexes(solve_linear(*cases[0])) == hexes([0.0, -0.0])


def outcome(solver, *system):
    try:
        return hexes(solver(*system))
    except SingularMatrixError as exc:
        return ("singular", exc.column)


def entrywise_solve_linear(a, b):
    """solve_linear as it stood before it worked within row extents (test
    oracle): full rows, pivot by max(key=...), the same two refinement
    steps, residuals summed over every column."""
    n = len(a)
    m = [list(row) for row in a]
    perm = list(range(n))
    threshold = 1e-13 * max(abs(v) for row in a for v in row)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        pval = m[piv][col]
        if pval == 0.0 or abs(pval) < threshold:
            raise SingularMatrixError(col)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            perm[col], perm[piv] = perm[piv], perm[col]
        prow = m[col]
        for r in range(col + 1, n):
            f = m[r][col] / pval
            m[r][col] = f
            if f == 0.0:
                continue
            row = m[r]
            for c in range(col + 1, n):
                row[c] -= f * prow[c]

    def lu_solve(rhs):
        x = [rhs[p] for p in perm]
        for col in range(n):
            xc = x[col]
            if xc != 0.0:
                for r in range(col + 1, n):
                    x[r] -= m[r][col] * xc
        for col in range(n - 1, -1, -1):
            s = x[col]
            row = m[col]
            for c in range(col + 1, n):
                s -= row[c] * x[c]
            x[col] = s / row[col]
        return x

    x = lu_solve(list(b))
    for _ in range(2):
        residual = [
            math.fsum([a[i][j] * x[j] for j in range(n)] + [-b[i]])
            for i in range(n)
        ]
        if all(v == 0.0 for v in residual):
            break
        d = lu_solve(residual)
        x = [xi - di for xi, di in zip(x, d)]
    return x


# ------------------------------------------------------------------ solve

class TestSolve:
    def test_first_benchmark_endpoint_and_error(self):
        s = solve(ex1_problem(7))
        assert abs(eval_poly(s.solution_poly, 1.0) - 5.0) <= 1e-9
        err = grid_error(s.solution_poly, ex1_exact())
        assert err <= 5e-5
        assert not s.diverged

    def test_fourth_order_left_conditions_exact(self):
        for n in (5, 7, 10):
            s = solve(ex4_problem(n))
            assert s.solution_poly.coeffs[0] == 1.0  # y(0), imposed directly
            assert s.solution_poly.coeffs[1] == 0.0  # y'(0)
            assert s.solution_poly.degree <= n + 4

    def test_straight_line_recovered_exactly(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 0.0, (0.0, 1.0),
                       dirichlet(0.0, 1.0), 5)
        s = solve(p)
        coeffs = list(s.solution_poly.coeffs) + [0.0] * 7
        assert abs(coeffs[0]) <= 1e-12
        assert abs(coeffs[1] - 1.0) <= 1e-12
        assert max(abs(c) for c in coeffs[2:7]) <= 1e-12

    def test_left_constants_bit_for_bit(self):
        vals = (0.7071067811865476, -1.25)
        p = BvpProblem(
            3,
            (1.0, 0.5, -0.25, 1.0),
            math.cos,
            (0.0, 1.0),
            [
                BoundaryCondition("left", 0, vals[0]),
                BoundaryCondition("left", 1, vals[1]),
                BoundaryCondition("right", 0, 0.125),
            ],
            8,
        )
        s = solve(p)
        assert s.gammas[0] == vals[0]
        assert s.gammas[1] == vals[1]

    def test_ill_posed_neumann_pair(self):
        # y'' = r with slopes given at both ends leaves y(0) undetermined
        p = BvpProblem(
            2,
            (0.0, 0.0, 1.0),
            lambda x: 1.0,
            (0.0, 1.0),
            [BoundaryCondition("left", 1, 0.0), BoundaryCondition("right", 1, 1.0)],
            6,
        )
        with pytest.raises(IllPosedProblemError, match="column"):
            solve(p)

    def test_singular_system_names_the_unknown(self):
        """The failing column is named as the unknown it holds in
        assemble's order: the free gammas, then C_0..C_n."""
        neumann = BvpProblem(
            2, (0.0, 0.0, 1.0), lambda x: 1.0, (0.0, 1.0),
            [BoundaryCondition("left", 1, 0.0), BoundaryCondition("right", 1, 1.0)], 6,
        )
        with pytest.raises(IllPosedProblemError, match=r"column 0 \(unknown gamma_0\)$"):
            solve(neumann)
        stiff = BvpProblem(2, (1e12, 0.0, 1.0), lambda x: 1.0, (0.0, 1.0),
                           dirichlet(0.0, 0.0), 20)
        with pytest.raises(IllPosedProblemError) as info:
            solve(stiff)
        found = re.search(r"column (\d+) \(unknown C_(\d+)\)$", str(info.value))
        assert int(found[2]) == int(found[1]) - 1  # after the one free gamma

    def test_raising_rhs_names_the_point(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 1.0 / x, (0.0, 1.0),
                       dirichlet(0.0, 0.0), 8)
        with pytest.raises(EvaluationError, match="ZeroDivisionError at x=0:") as info:
            solve(p)
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_nan_rhs_is_not_skipped(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: math.nan if x == 0.0 else 1.0,
                       (0.0, 1.0), dirichlet(0.0, 0.0), 8)
        with pytest.raises(EvaluationError, match="nan at x=0$"):
            solve(p)

    def test_infinite_rhs_is_rejected(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: math.inf if x == 0.0 else 1.0,
                       (0.0, 1.0), dirichlet(0.0, 0.0), 8)
        with pytest.raises(EvaluationError, match="inf at x=0$"):
            solve(p)

    def test_value_error_in_rhs_names_the_point(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: math.log(x - 0.5), (0.0, 1.0),
                       dirichlet(0.0, 0.0), 8)
        with pytest.raises(EvaluationError, match=r"ValueError at x=0\.00136.*: math domain"
                           ) as info:
            solve(p)
        assert isinstance(info.value.__cause__, ValueError)

    def test_error_on_a_mapped_domain_names_the_point_in_x(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: math.log(x - 2.5), (2.0, 3.0),
                       dirichlet(0.0, 0.0), 8)
        with pytest.raises(EvaluationError, match="ValueError at x=") as info:
            solve(p)
        x = float(re.search(r"at x=(\S+):", str(info.value))[1])
        assert 2.0 <= x <= 3.0
        assert isinstance(info.value.__cause__, ValueError)

    def test_mapped_rhs_overflow_names_the_point_in_x(self):
        # r = 1e10 is finite; only its quotient by the mapped leading
        # coefficient 1e-300 / 2 leaves the double range
        p = BvpProblem(1, (0.0, 1e-300), lambda x: 1e10, (3.0, 5.0),
                       [BoundaryCondition("left", 0, 0.0)], 5)
        with pytest.raises(EvaluationError, match="at x=") as info:
            solve(p)
        x = float(re.search(r"at x=(\S+)$", str(info.value))[1])
        assert 3.0 <= x <= 5.0

    def test_expression_error_keeps_its_type_and_message(self):
        # an ExprEvalError names its point and sub-expression already
        p = BvpProblem(2, (0.0, 0.0, 1.0), compile_function("log(x-0.5)"), (0.0, 1.0),
                       dirichlet(0.0, 0.0), 8)
        with pytest.raises(ExprEvalError) as info:
            solve(p)
        assert type(info.value) is ExprEvalError
        assert str(info.value) == ("log of non-positive value in 'log(x-0.5)' "
                                   "at x=0.0013680690752592183")

    def test_diagnostics_grid_ends_at_x1(self):
        # -0.19 + 0.79 * 200/200 rounds to 0.6000000000000001, where the
        # rhs is undefined; the grid must stop at x1 itself
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: math.sqrt(0.6 - x), (-0.19, 0.6),
                       dirichlet(0.0, 0.0), 8)
        s = solve(p)
        assert math.isfinite(s.residual_max)
        assert s.bc_residual_max <= 1e-12

    def test_overflowing_system_is_reported_as_non_finite(self):
        # the coefficients are finite but the assembled system overflows;
        # that must not surface as a singular (ill-posed) system
        for rhs, n in ((lambda x: 1.0, 8), (math.cos, 7)):
            p = BvpProblem(2, (1.7e308, 1.7e308, 1.0), rhs, (0.0, 1.0),
                           dirichlet(0.0, 1.0), n)
            with pytest.raises(LinAlgError, match="^non-finite entry inf in matrix$"):
                solve(p)

    def test_overflowing_refinement_residual_is_a_linalg_error(self):
        # the system and its solution are finite, but the products in the
        # refinement residual overflow to inf and -inf
        p = BvpProblem(2, (1.0, 0.0, 1.0), lambda x: 1.7e308, (0.0, 1.0),
                       dirichlet(0.0, 1.0), 7)
        with pytest.raises(LinAlgError, match="residual overflowed"):
            solve(p)

    def test_boundary_conditions_satisfied_across_domains(self):
        """bc_residual_max <= 1e-8 (1 + max |value|) on varied problems."""
        rng = random.Random(7)
        for _ in range(40):
            m = rng.choice((1, 2, 2, 3, 4))
            n = rng.randint(m + 1, 10)
            dom = rng.choice(((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (0.5, 2.5)))
            coeffs = [rng.uniform(-3, 3) for _ in range(m)]
            coeffs.append(rng.choice((1.0, 2.0, -1.5)))
            freq = rng.uniform(0.5, 3.0)
            rhs = lambda x, w=freq: math.sin(w * x) + 0.3 * x
            sides = [("left" if k % 2 == 0 else "right") for k in range(m)]
            rng.shuffle(sides)
            bcs = [
                BoundaryCondition(side, d, rng.uniform(-2, 2))
                for d, side in enumerate(sides)
            ]
            s = solve(BvpProblem(m, coeffs, rhs, dom, bcs, n))
            bound = 1e-8 * (1.0 + max(abs(b.value) for b in bcs))
            assert s.bc_residual_max <= bound

    @pytest.mark.parametrize("m", range(4, 10))
    def test_right_conditions_hold_below_half_the_order(self, m):
        """With n <= m/2 the row of a right condition on y^(d) integrates
        phi_j k = m-d-1 times, past the n+1 that Theta^k e0 carries through
        Theta's truncated last row.  The closed-form rows match the returned
        polynomial at every n, so bc_residual_max <= 1e-10 with every
        condition at the right end and with a mix."""
        rng = random.Random(71 * m)
        for n in range(1, m // 2 + 1):
            for mixed in (False, True):
                # each derivative order once, at least one on each side if mixed
                left = rng.randint(1, m - 1) if mixed else 0
                sides = ["left"] * left + ["right"] * (m - left)
                rng.shuffle(sides)
                coeffs = [rng.choice((0.0, rng.uniform(-3, 3))) for _ in range(m)]
                bcs = [BoundaryCondition(side, d, rng.uniform(-2, 2))
                       for d, side in enumerate(sides)]
                p = BvpProblem(m, coeffs + [1.0], math.cos, (0.0, 1.0), bcs, n)
                s = solve(p)
                assert s.bc_residual_max <= 1e-10, (n, p.coefficients, p.bcs)

    def test_residual_shrinks_with_truncation(self):
        """residual_max falls (plateau tolerance 2x) along n = 6, 8, 10, 12."""
        for make in (ex1_problem, ex4_problem):
            residuals = [solve(make(n)).residual_max for n in (6, 8, 10, 12)]
            for coarse, fine in zip(residuals, residuals[1:]):
                assert fine <= 2.0 * coarse
            assert residuals[-1] < residuals[0]


# --------------------------------------------- closed-form second-order path

class TestPaperSecondOrderPath:
    def test_pure_double_integration(self):
        p = BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 2.0, (0.0, 1.0),
                       dirichlet(0.0, 1.0), 5)
        s = solve_paper_second_order(p)
        coeffs = list(s.solution_poly.coeffs) + [0.0] * 7
        assert abs(coeffs[0]) <= 1e-12
        assert abs(coeffs[1]) <= 1e-12
        assert abs(coeffs[2] - 1.0) <= 1e-12
        assert max(abs(c) for c in coeffs[3:7]) <= 1e-12

    def test_matches_general_path_on_first_benchmark(self):
        a = solve(ex1_problem(7)).solution_poly
        b = solve_paper_second_order(ex1_problem(7)).solution_poly
        ca = list(a.coeffs) + [0.0] * 10
        cb = list(b.coeffs) + [0.0] * 10
        assert max(abs(u - v) for u, v in zip(ca[:10], cb[:10])) <= 1e-10

    def test_guards(self):
        with pytest.raises(IllPosedProblemError):
            solve_paper_second_order(
                BvpProblem(1, (0.0, 1.0), lambda x: 1.0, (0.0, 1.0),
                           [BoundaryCondition("left", 0, 0.0)], 5)
            )
        with pytest.raises(IllPosedProblemError):
            solve_paper_second_order(
                BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 1.0, (0.0, 2.0),
                           dirichlet(0.0, 0.0), 5)
            )
        mixed = [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 1, 0.0)]
        with pytest.raises(IllPosedProblemError):
            solve_paper_second_order(
                BvpProblem(2, (0.0, 0.0, 1.0), lambda x: 1.0, (0.0, 1.0), mixed, 5)
            )

    def test_oracle_equivalence_on_random_problems(self):
        """General and closed-form paths agree within 1e-10 on 20 draws."""
        rng = random.Random(20260814)
        for _ in range(20):
            n = rng.randint(4, 8)
            a0 = rng.uniform(-5.0, 5.0)
            a1 = rng.uniform(-5.0, 5.0)
            rdeg = rng.randint(0, n - 2)
            rpoly = Polynomial([rng.uniform(-2, 2) for _ in range(rdeg + 1)])
            p = BvpProblem(
                2,
                (a0, a1, 1.0),
                lambda x, rp=rpoly: eval_poly(rp, x),
                (0.0, 1.0),
                dirichlet(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                n,
            )
            pa = solve(p).solution_poly
            pb = solve_paper_second_order(p).solution_poly
            ca = list(pa.coeffs) + [0.0] * (n + 3)
            cb = list(pb.coeffs) + [0.0] * (n + 3)
            assert max(abs(u - v) for u, v in zip(ca[: n + 3], cb[: n + 3])) <= 1e-10

    def test_output_bits_are_pinned(self):
        """One sha256 over the hex of c, gammas, every solution_poly
        coefficient, residual_max, bc_residual_max and diverged, for 120
        seeded Dirichlet problems: n = 1..30, each with a0 = a1 = 0, a1 = 0,
        a0 = 0 and both nonzero, and a leading coefficient of 1 or not."""
        rng = random.Random(1010)
        digest = hashlib.sha256()
        for n in range(1, 31):
            for zero_a0, zero_a1 in ((True, True), (False, True), (True, False), (False, False)):
                a0 = 0.0 if zero_a0 else rng.uniform(-20.0, 20.0)
                a1 = 0.0 if zero_a1 else rng.uniform(-20.0, 20.0)
                lead = rng.choice((1.0, rng.uniform(0.5, 2.0)))
                w = rng.uniform(-3.0, 3.0)
                p = BvpProblem(2, (a0, a1, lead), lambda x, w=w: math.exp(w * x), (0.0, 1.0),
                               dirichlet(rng.uniform(-3, 3), rng.uniform(-3, 3)), n)
                s = solve_paper_second_order(p)
                values = [*s.c, *s.gammas, *s.solution_poly.coeffs,
                          s.residual_max, s.bc_residual_max]
                digest.update((" ".join(hexes(values)) + " %s\n" % s.diverged).encode())
        assert digest.hexdigest() == (
            "aeabdb5f381e86959c18cbc4ef8fb2123af009f0251947de98b89d05fec40445")


# ----------------------------------------------- polynomial-data recovery

def recovery_cases(seeds, n_cap):
    """Problems whose exact solution is a known polynomial of degree <= n."""
    for seed in seeds:
        rng = random.Random(seed)
        for m in (1, 2, 3, 4):
            for n in range(m + 1, 11):
                ycoef = [rng.uniform(-1, 1) for _ in range(n + 1)]
                y = Polynomial(ycoef)
                coeffs = [rng.uniform(-3, 3) for _ in range(m)] + [1.0]
                ders = [y]
                for _ in range(m):
                    ders.append(differentiate(ders[-1]))

                def rhs(x, c=coeffs, d=ders):
                    return sum(ci * di(x) for ci, di in zip(c, d))

                bcs = []
                for d in range(m):
                    side = "left" if d % 2 else "right"
                    at = 0.0 if side == "left" else 1.0
                    bcs.append(BoundaryCondition(side, d, eval_poly(ders[d], at)))
                if n > n_cap:
                    continue
                yield BvpProblem(m, coeffs, rhs, (0.0, 1.0), bcs, n), y


def coefficient_deviation(got_poly, want_poly):
    got = list(got_poly.coeffs)
    want = list(want_poly.coeffs)
    width = max(len(got), len(want))
    got += [0.0] * (width - len(got))
    want += [0.0] * (width - len(want))
    return max(abs(a - b) for a, b in zip(got, want))


def test_polynomial_data_recovery_target():
    """Target: 1e-9 per monomial coefficient for m <= 4, n <= 10.

    Measured worst 7.5e-10 at (m, n) = (2, 10), 0 of 360 cases over; see
    the module docstring.  The acceptance gate reports the same
    measurement as criterion 9.
    """
    violations = []
    for problem, truth in recovery_cases(range(12), 10):
        dev = coefficient_deviation(solve(problem).solution_poly, truth)
        if dev > 1e-9:
            violations.append((problem.order, problem.truncation, dev))
    assert not violations, (
        "coefficient recovery misses 1e-9 in %d of 360 cases; worst %.3e "
        "at (m, n) = %r"
        % (
            len(violations),
            max(v[2] for v in violations),
            max(violations, key=lambda v: v[2])[:2],
        )
    )


def test_polynomial_data_recovery_floor():
    """The same ensemble with function values: coefficients within 8e-9
    (measured worst 7.5e-10), values within 1e-10 (measured worst 6.4e-13)."""
    for problem, truth in recovery_cases(range(12), 10):
        s = solve(problem)
        assert coefficient_deviation(s.solution_poly, truth) <= 8e-9
        value_dev = max(
            abs(eval_poly(s.solution_poly, i / 100.0) - eval_poly(truth, i / 100.0))
            for i in range(101)
        )
        assert value_dev <= 1e-10
