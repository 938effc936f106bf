"""Reference RK4 integrator and the Hermite-interpolated IVP evaluator."""

import math

import pytest

from polybvp.exprparse import compile_function
from polybvp.refode import (
    DivergenceError,
    StepLimitError,
    UnsupportedProblemError,
    integrate_rk4,
    reference_solution,
)
from polybvp.solver import BoundaryCondition, BvpProblem


def exp_rhs(x, u):
    return (u[0],)


def tan_forced_rhs():
    """y'' - 5y' + 2y = tan(x) as the companion system u' = f(x, u)."""
    tan = compile_function("tan(x)")
    return lambda x, u: (u[1], tan(x) + 5.0 * u[1] - 2.0 * u[0])


def tan_forced_problem(n=9, rhs=None):
    # y'' - 5y' + 2y = tan(x), y(0) = y'(0) = 0
    return BvpProblem(
        2,
        (2.0, -5.0, 1.0),
        rhs or compile_function("tan(x)"),
        (0.0, 1.0),
        [BoundaryCondition("left", 0, 0.0), BoundaryCondition("left", 1, 0.0)],
        n,
    )


def test_constant_trajectory():
    traj = integrate_rk4(lambda x, u: (0.0,), (3.5,), 10)
    assert len(traj) == 11
    assert all(state[0] == 3.5 for _, state in traj)
    assert traj[0][0] == 0.0 and traj[-1][0] == 1.0


def test_exponential_endpoint():
    traj = integrate_rk4(exp_rhs, (1.0,), 1000)
    assert abs(traj[-1][1][0] - math.e) <= 1e-11


def test_fourth_order_convergence():
    """Error at x=1 shrinks ~16x per step doubling (ratio in [12, 20])."""
    errors = []
    for steps in (100, 200, 400, 800):
        traj = integrate_rk4(exp_rhs, (1.0,), steps)
        errors.append(abs(traj[-1][1][0] - math.e))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_step_doubling_self_consistency():
    """The tan-forced system at 1e5 steps moves < 1e-12 when steps double."""
    rhs = tan_forced_rhs()
    y1 = integrate_rk4(rhs, (0.0, 0.0), 100000)[-1][1][0]
    y2 = integrate_rk4(rhs, (0.0, 0.0), 200000)[-1][1][0]
    assert abs(y1 - y2) < 1e-12


def test_divergence_reports_step():
    # quadratic blow-up escapes to inf inside [0, 1]
    with pytest.raises(DivergenceError, match="step"):
        integrate_rk4(lambda x, u: (u[0] * u[0],), (5.0,), 100)


def test_reference_imposes_initial_value():
    ref = reference_solution(tan_forced_problem())
    assert abs(ref(0.0)) <= 1e-14


def test_reference_on_pure_quadrature():
    p = BvpProblem(
        2,
        (0.0, 0.0, 1.0),
        lambda x: 2.0,
        (0.0, 1.0),
        [BoundaryCondition("left", 0, 0.0), BoundaryCondition("left", 1, 0.0)],
        5,
    )
    ref = reference_solution(p)
    worst = max(abs(ref(i / 200.0) - (i / 200.0) ** 2) for i in range(201))
    assert worst <= 1e-10


def test_reference_step_halving_agreement():
    """The step-doubled reference matches 40 000 fixed steps on the grid,
    whose points x = i/1000 are nodes of the fixed run."""
    ref = reference_solution(tan_forced_problem())
    rhs = tan_forced_rhs()
    fixed = integrate_rk4(rhs, (0.0, 0.0), 40000)[::40]
    assert [x for x, _ in fixed] == [i / 1000.0 for i in range(1001)]
    worst = max(abs(ref(x) - u[0]) for x, u in fixed)
    assert worst <= 1e-12


def test_reference_evaluates_each_abscissa_once():
    """Midpoint stages, step ends and doubling levels share rhs evaluations."""
    tan = compile_function("tan(x)")
    seen = []

    def rhs(x):
        seen.append(x)
        return tan(x)

    ref = reference_solution(tan_forced_problem(rhs=rhs))
    assert len(set(seen)) == len(seen)
    assert len(seen) == 2 * ref.steps + 1
    assert ref.richardson_estimate <= 1e-13


def test_stage_abscissae_are_the_nodes_of_the_doubled_run():
    """k4 of a step and k1 of the next share an abscissa; the midpoint
    stages sit exactly on the odd nodes of the run at twice the steps."""
    seen = set()

    def f(x, u):
        seen.add(x)
        return (u[0],)

    integrate_rk4(f, (1.0,), 300)
    fine = integrate_rk4(exp_rhs, (1.0,), 600)
    assert seen == {x for x, _ in fine}


def test_unresolved_reference_raises_at_the_step_cap():
    """A jump at an irrational point keeps RK4 at low order: no return."""
    jump = 1.0 / math.sqrt(2.0)
    seen = []

    def rhs(x):
        seen.append(x)
        return 1.0 if x > jump else 0.0

    p = BvpProblem(
        1, (0.0, 1.0), rhs, (0.0, 1.0), [BoundaryCondition("left", 0, 0.0)], 5
    )
    with pytest.raises(StepLimitError, match="80000-step cap"):
        reference_solution(p)
    assert len(seen) == 2 * 80000 + 1  # every abscissa of the capped level, once


def test_hermite_interpolation_error():
    """Between-node error stays <= 1e-9 for y' = y at the doubled step count."""
    p = BvpProblem(
        1,
        (-1.0, 1.0),
        lambda x: 0.0,
        (0.0, 1.0),
        [BoundaryCondition("left", 0, 1.0)],
        5,
    )
    ref = reference_solution(p)
    assert ref.steps >= 5000
    worst = 0.0
    for i in range(999):
        x = (i + 0.37) / 1000.0  # deliberately off the RK grid
        worst = max(worst, abs(ref(x) - math.exp(x)))
    assert worst <= 1e-9


def test_right_conditions_rejected():
    p = BvpProblem(
        2,
        (0.0, 0.0, 1.0),
        lambda x: 2.0,
        (0.0, 1.0),
        [BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 0, 1.0)],
        5,
    )
    with pytest.raises(UnsupportedProblemError):
        reference_solution(p)
