"""Duhamel-quadrature reference for example 3: y'' - 5y' + 2y = tan x,
y(0) = y'(0) = 0."""

import math

import pytest

from polybvp import refode
from polybvp.refode import reference_solution

# 25 digits of the Duhamel integral, computed with mpmath 1.3.0 at mp.dps = 25:
#   r1, r2 = (5 + sqrt(17))/2, (5 - sqrt(17))/2
#   quad(lambda s: (exp(r1*(x-s)) - exp(r2*(x-s)))/(r1-r2)*tan(s), [0, x])
HIGH_PRECISION = {
    0.25: 0.003668039304763190885846528,
    0.5: 0.0440188631206832588684636,
    0.75: 0.2381505409132781143988863,
    1.0: 0.9681877982070985445249384,
}


def test_agrees_with_high_precision_values():
    y = reference_solution()
    for x, value in HIGH_PRECISION.items():
        assert abs(y(x) - value) <= 1e-15, x


def test_reference_imposes_initial_value():
    # y(0) = y'(0) = y''(0) = 0 and y'''(0) = 1, y''''(0) = 5
    y = reference_solution()
    assert y(0.0) == 0.0
    for x in (1e-4, 1e-3, 1e-2):
        assert y(x) == pytest.approx(x**3 / 6.0, rel=2.0 * x)


def test_reference_step_halving_agreement():
    """Doubling the rule's points about halves its node spacing."""
    coarse, fine = reference_solution(16), reference_solution(32)
    assert max(abs(coarse(i / 64) - fine(i / 64)) for i in range(65)) <= 1e-15


def test_reference_evaluates_each_abscissa_once(monkeypatch):
    """One rule per reference; y(x) takes tan once at each x t_j."""
    rule, tan, builds, seen = refode.gauss_legendre_rule, math.tan, [], []
    monkeypatch.setattr(refode, "gauss_legendre_rule", lambda q: builds.append(q) or rule(q))
    monkeypatch.setattr(math, "tan", lambda x: seen.append(x) or tan(x))
    y = reference_solution(16)
    for x in (0.5, 1.0):
        seen.clear()
        y(x)
        assert sorted(seen) == sorted(x * t for t in rule(16).nodes)
    assert builds == [16]


def test_rejects_points_outside_the_domain():
    y = reference_solution()
    for x in (-1e-9, 1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError, match="outside"):
            y(x)
