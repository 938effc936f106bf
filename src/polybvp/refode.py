"""RK4 reference integrator for initial value problems.

Provides the comparison solution for problems without a closed form: the
scalar ODE is rewritten in first-order companion form, integrated with
classical Runge-Kutta at a step count chosen by step doubling, and wrapped
in a piecewise cubic Hermite evaluator built from the stored state (the
slope of y is just the next companion component, so no extra derivative
evaluations are needed).
"""

import math

from .solver import map_domain


class DivergenceError(RuntimeError):
    pass


class UnsupportedProblemError(ValueError):
    pass


class StepLimitError(RuntimeError):
    pass


def _axpy(u, c, v):
    return tuple([a + c * b for a, b in zip(u, v)])


def integrate_rk4(f, u0, steps):
    """Trajectory [(0, u0), ..., (1, u_end)] of classical RK4 for the
    first-order system u' = f(x, u) on [0, 1].

    Stage abscissa j is j / (2*steps): j = 2i for k1, 2i+1 for k2 and k3,
    2i+2 for k4 and the node.  So the two midpoint stages share one
    abscissa, k4 of step i shares one with k1 of step i+1, and every node
    of a run at N steps is bit-for-bit a node of the run at 2N steps.
    """
    h = 1.0 / steps
    h2 = 0.5 * h
    h6 = h / 6.0
    parts = 2 * steps
    x = 0.0
    u = tuple(u0)
    out = [(x, u)]
    for i in range(steps):
        xm = (2 * i + 1) / parts
        xn = (2 * i + 2) / parts
        k1 = f(x, u)
        k2 = f(xm, _axpy(u, h2, k1))
        k3 = f(xm, _axpy(u, h2, k2))
        k4 = f(xn, _axpy(u, h, k3))
        u = tuple(
            [
                a + h6 * (b + 2.0 * c + 2.0 * d + e)
                for a, b, c, d, e in zip(u, k1, k2, k3, k4)
            ]
        )
        x = xn
        if not all(map(math.isfinite, u)):
            raise DivergenceError("non-finite state at step %d (x=%.17g)" % (i + 1, x))
        out.append((x, u))
    return out


def _companion(p):
    """(f, u0) of the companion system of the mapped monic problem, on [0,1].

    rhs is evaluated once per abscissa: the values are kept for the life of
    f, so stages and step-doubling levels that share an abscissa share the
    evaluation.
    """
    m = p.order
    terms = [(k, a) for k, a in enumerate(p.coefficients[:m]) if a != 0.0]
    rhs = p.rhs
    memo = {}

    def f(z, u):
        acc = memo.get(z)
        if acc is None:
            acc = memo[z] = rhs(z)
        for k, a in terms:
            acc -= a * u[k]
        return u[1:] + (acc,)

    init = [0.0] * m
    for bc in p.bcs:
        init[bc.derivative_order] = bc.value
    return f, init


# Step doubling: the first level, the largest level tried, and the stop
# rule's tolerance relative to max(1, max|y|).
_FIRST_STEPS = 2500
_MAX_STEPS = 80000
_RELATIVE_TOL = 1e-13


def _doubled_trajectory(f, u0):
    """(trajectory, estimate) at the first doubled level that meets the tolerance.

    The Richardson estimate of the finer level's error is
    max |y_2N - y_N| / 15 over the nodes the two levels share.
    """
    steps = _FIRST_STEPS
    coarse = integrate_rk4(f, u0, steps)
    while 2 * steps <= _MAX_STEPS:
        steps *= 2
        traj = integrate_rk4(f, u0, steps)
        estimate = max(abs(a[1][0] - b[1][0]) for a, b in zip(traj[::2], coarse)) / 15.0
        if estimate <= _RELATIVE_TOL * max(1.0, max(abs(u[0]) for _, u in traj)):
            return traj, estimate
        coarse = traj
    raise StepLimitError(
        "reference integration unresolved at the %d-step cap: Richardson "
        "estimate %.3g exceeds %.0e relative" % (steps, estimate, _RELATIVE_TOL)
    )


def reference_solution(p):
    """Dense-output evaluator x -> y(x) for an all-left-BC problem.

    Integrates the companion form over [0,1] in mapped coordinates and
    interpolates with cubic Hermite pieces; the slope at each node comes for
    free from the companion state.  The step count doubles from 2500 until
    the Richardson estimate is at most 1e-13 max(1, max|y|), and
    StepLimitError is raised past 80 000 steps.  The evaluator carries
    `steps` and `richardson_estimate`.
    """
    for bc in p.bcs:
        if bc.side != "left":
            raise UnsupportedProblemError(
                "reference integration needs all conditions at the left endpoint; "
                "got one of order %d on the right" % bc.derivative_order
            )
    mapped = map_domain(p)
    f, u0 = _companion(mapped)
    traj, estimate = _doubled_trajectory(f, u0)
    if mapped.order >= 2:
        slopes = [u[1] for _, u in traj]
    else:
        slopes = [f(z, u)[0] for z, u in traj]
    values = [u[0] for _, u in traj]
    x0, x1 = p.domain
    span = x1 - x0
    n = len(traj) - 1
    step = 1.0 / n

    def evaluator(x):
        z = (x - x0) / span
        if not 0.0 <= z <= 1.0:
            if -1e-12 <= z <= 1.0 + 1e-12:
                z = min(1.0, max(0.0, z))
            else:
                raise ValueError("point %.17g outside the problem domain" % (x,))
        i = min(int(z * n), n - 1)
        t = z / step - i
        y0, y1 = values[i], values[i + 1]
        s0, s1 = slopes[i] * step, slopes[i + 1] * step
        t2 = t * t
        t3 = t2 * t
        return (
            (2.0 * t3 - 3.0 * t2 + 1.0) * y0
            + (t3 - 2.0 * t2 + t) * s0
            + (-2.0 * t3 + 3.0 * t2) * y1
            + (t3 - t2) * s1
        )

    evaluator.steps = n
    evaluator.richardson_estimate = estimate
    return evaluator
