"""Reference solution of example 3 by Duhamel quadrature.

y'' - 5y' + 2y = tan x with y(0) = y'(0) = 0 is, by variation of
parameters (Coddington & Levinson, Theory of ODEs, 1955, ch. 3),

    y(x) = int_0^x G(x - s) tan(s) ds,   G(t) = (e^{r1 t} - e^{r2 t}) / (r1 - r2),

with r1, r2 = (5 +- sqrt 17) / 2 the roots of r^2 - 5r + 2.  After s = x t
the integrand is analytic in t on [0, 1] for every x in [0, 1] (tan has its
nearest pole at pi/2), so a Gauss-Legendre rule converges geometrically.
Nothing here touches the basis, Theta or the solver: the reference stays
independent of the method it checks.
"""

import math

from .approx import gauss_legendre_rule

_R1 = (5.0 + math.sqrt(17.0)) / 2.0
_R2 = (5.0 - math.sqrt(17.0)) / 2.0


def reference_solution(q=16):
    """x -> y(x) on [0, 1] as x * sum_j w_j G(x (1 - t_j)) tan(x t_j) over
    the q-point rule; q = 16 agrees with q = 32 to round-off."""
    rule = gauss_legendre_rule(q)
    terms = [(t, w, 1.0 - t) for t, w in zip(rule.nodes, rule.weights)]
    # bound per reference, not at import, so a patched math.tan still applies
    exp, tan = math.exp, math.tan

    def y(x):
        if not 0.0 <= x <= 1.0:
            raise ValueError("point %.17g outside the example-3 domain [0, 1]" % (x,))
        acc = 0.0
        for t, w, s in terms:
            u = x * s
            acc += w * (exp(_R1 * u) - exp(_R2 * u)) * tan(x * t)
        return x * acc / (_R1 - _R2)

    return y
