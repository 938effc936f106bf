"""Quadrature, projection onto the basis, and error measurement."""

from decimal import Decimal, localcontext
import hashlib
import math
import random

import pytest

from polybvp.approx import (
    EvaluationError,
    gauss_legendre_rule,
    project,
    reconstruct,
)
from polybvp.basis import eval_basis, gram_schmidt_basis, legendre_basis
from polybvp.poly import Polynomial, eval_poly


def grid_max_error(f, poly):
    """max |f - poly| over 1001 evenly spaced points of [0,1]."""
    return max(abs(f(i / 1000) - eval_poly(poly, i / 1000)) for i in range(1001))


def test_midpoint_rule():
    rule = gauss_legendre_rule(1)
    assert list(rule.nodes) == [0.5]
    assert list(rule.weights) == [1.0]


def test_two_point_rule():
    rule = gauss_legendre_rule(2)
    off = 1.0 / (2.0 * math.sqrt(3))
    assert rule.nodes[0] == pytest.approx(0.5 - off, abs=1e-15)
    assert rule.nodes[1] == pytest.approx(0.5 + off, abs=1e-15)
    assert rule.weights[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[1] == pytest.approx(0.5, abs=1e-15)


def test_sixteen_point_rule_on_cubic():
    rule = gauss_legendre_rule(16)
    got = sum(w * x**3 for w, x in zip(rule.weights, rule.nodes))
    assert abs(got - 0.25) <= 1e-15


@pytest.mark.parametrize("q", [1, 2, 5, 32, 128])
def test_rule_shape_invariants(q):
    rule = gauss_legendre_rule(q)
    assert abs(sum(rule.weights) - 1.0) <= 1e-13
    assert all(0.0 < x < 1.0 for x in rule.nodes)
    assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_rule_polynomial_exactness(q):
    """The q-point rule integrates zeta^p exactly for p <= 2q-1."""
    rule = gauss_legendre_rule(q)
    for p in range(2 * q):
        got = sum(w * x**p for w, x in zip(rule.weights, rule.nodes))
        assert abs(got - 1.0 / (p + 1)) <= 1e-14, p


def test_rule_range_errors():
    for bad in (0, -1, 129):
        with pytest.raises(ValueError):
            gauss_legendre_rule(bad)


def decimal_gauss_legendre(q, digits=40):
    """(t, w) pairs of the q-point rule on [0,1] in `digits`-digit decimal:
    Newton on P_q over [-1,1] by the three-term recurrence, iterated to
    convergence, with w = 1/((1-x)(1+x) P_q'(x)^2)."""
    out = []
    with localcontext() as ctx:
        ctx.prec = digits
        tol = Decimal(10) ** (6 - digits)
        for i in range(1, q + 1):
            x = Decimal(math.cos(math.pi * (i - 0.25) / (q + 0.5)))
            for _ in range(50):
                p0, p1 = Decimal(1), x
                for k in range(1, q):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = q * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p0, p1 = Decimal(1), x
            for k in range(1, q):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = q * (x * p1 - p0) / (x * x - 1)
            out.append(((x + 1) / 2, 1 / ((1 - x) * (1 + x) * dp * dp)))
    return sorted(out)


@pytest.mark.parametrize("q", [2, 3, 11, 16, 32, 33, 64, 128])
def test_rule_within_one_ulp_of_correctly_rounded(q):
    """Every node and weight within 1 ulp of a 40-digit reference, the
    nodes nearest 0 included; the moment checks above cannot see errors
    of tens of ulp, which cost ~4e-9 in the monomial coefficients of
    degree-10 solutions."""
    rule = gauss_legendre_rule(q)
    ref = decimal_gauss_legendre(q)
    assert len(rule.nodes) == len(rule.weights) == q
    for got, (want, _) in zip(rule.nodes, ref):
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want))), (got, want)
    for got, (_, want) in zip(rule.weights, ref):
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(float(want))), (got, want)


def test_every_rule_keeps_its_bits():
    """sha256 over the hex nodes and weights of every supported rule, one
    line per q: any rewrite of the node iteration keeps each bit."""
    lines = []
    for q in range(1, 129):
        rule = gauss_legendre_rule(q)
        lines.append(" ".join(v.hex() for v in rule.nodes + rule.weights) + "\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "19c8e8af6f2d90e9800b862ca12102578c6833c42997aa3b8f0ba34cbca4ec7b"


def test_project_basis_function_gives_unit_vector():
    basis = gram_schmidt_basis(5)
    phi3 = basis.phis[3]
    coeffs = project(lambda x: eval_poly(phi3, x), basis).coeffs
    for k, c in enumerate(coeffs):
        assert abs(c - (1.0 if k == 3 else 0.0)) <= 1e-12, k


def test_project_affine_function():
    # <1+x, phi_0> = 3/2; <1+x, phi_1> = sqrt(3) * (2/3 + 1/2 - 1) = 1/(2 sqrt 3)
    basis = gram_schmidt_basis(3)
    coeffs = project(lambda x: 1.0 + x, basis).coeffs
    assert coeffs[0] == pytest.approx(1.5, abs=1e-13)
    assert coeffs[1] == pytest.approx(1.0 / (2.0 * math.sqrt(3)), abs=1e-13)
    assert abs(coeffs[2]) <= 1e-13
    assert abs(coeffs[3]) <= 1e-13


def test_project_exponential_reconstruction():
    """n = 10 reproduces e^x to well below 1e-9 on a 1001-point grid."""
    basis = gram_schmidt_basis(10)
    result = project(math.exp, basis)
    approx_poly = reconstruct(result.coeffs, basis)
    assert grid_max_error(math.exp, approx_poly) < 1e-9


def test_project_rejects_nonfinite_values():
    basis = gram_schmidt_basis(4)
    bad = lambda x: float("inf") if x > 0.4 else 1.0
    with pytest.raises(EvaluationError, match="x="):
        project(bad, basis)


@pytest.mark.parametrize("n", [4, 12, 30])
def test_project_reads_the_rule_of_its_node_count(n):
    """project(f, basis, q) for several q in turn, and the default q, give
    the bits of a direct loop over the q-point rule, accumulated in
    project's order: the memoized node table follows q, not just n."""
    f = lambda x: math.exp(x) * math.sin(3.0 * x) + 1.0 / (1.0 + x)
    basis = legendre_basis(n)

    def direct(q):
        rule = gauss_legendre_rule(q)
        coeffs, norm_sq = [0.0] * (n + 1), 0.0
        for x, w in zip(rule.nodes, rule.weights):
            fx = f(x)
            wf = w * fx
            norm_sq += wf * fx
            coeffs = [c + wf * v for c, v in zip(coeffs, eval_basis(basis, x))]
        sum_sq = 0.0
        for c in coeffs:
            sum_sq += c * c
        return [c.hex() for c in coeffs], math.sqrt(max(0.0, norm_sq - sum_sq)).hex()

    for q in (n + 1, 32, 40, 128, None):
        got = project(f, basis, q)
        want = direct(max(n + 1, 32) if q is None else q)
        assert ([c.hex() for c in got.coeffs], got.l2_error_estimate.hex()) == want, q


def test_project_rejects_weak_rule():
    basis = gram_schmidt_basis(10)
    with pytest.raises(ValueError):
        project(math.exp, basis, 5)


def test_reconstruct_trivial_and_fixture():
    basis = gram_schmidt_basis(4)
    one = reconstruct([1.0, 0.0, 0.0, 0.0, 0.0], basis)
    assert list(one.coeffs) == [1.0]
    phi2 = reconstruct([0.0, 0.0, 1.0, 0.0, 0.0], basis)
    want = [math.sqrt(5) * c for c in (1, -6, 6)]
    assert max(abs(a - b) for a, b in zip(phi2.coeffs, want)) <= 1e-12


def test_reconstruct_length_mismatch():
    basis = gram_schmidt_basis(4)
    with pytest.raises(ValueError):
        reconstruct([1.0, 2.0], basis)


def round_trip_dev(n, draws, rng):
    basis = gram_schmidt_basis(n)
    worst = 0.0
    for _ in range(draws):
        deg = rng.randint(0, n)
        p = Polynomial([rng.uniform(-2, 2) for _ in range(deg + 1)])
        back = reconstruct(project(lambda x: eval_poly(p, x), basis).coeffs, basis)
        got = list(back.coeffs) + [0.0] * (n + 1)
        want = list(p.coeffs) + [0.0] * (n + 1)
        worst = max(worst, max(abs(a - b) for a, b in zip(got[: n + 1], want[: n + 1])))
    return worst


def test_projection_round_trip_on_polynomials():
    """reconstruct(project(p)) = p coefficientwise within 1e-10 for deg <= n.

    Instantiated at n = 6 (measured worst 5.7e-12).  The identity is exact
    in exact arithmetic at any n, but reconstructing through degree-8
    monomial coefficients (magnitudes ~2e5) amplifies the quadrature's
    eps-level rounding to ~6e-10, so n = 8 is checked at its own floor.
    """
    assert round_trip_dev(6, 8, random.Random(4242)) <= 1e-10


def test_projection_round_trip_degree_8_floor():
    assert round_trip_dev(8, 8, random.Random(4242)) <= 5e-9


def test_max_abs_error_on_boundary_layer_fixture():
    """Degree-7 best approximation of the first benchmark's exact solution
    misses by a few 1e-5 -- same order as the solver achieves there."""
    a = (math.e**4 + 60 * math.e - 1) / (math.e**3 * (math.e - 1))
    b = (math.e**3 + 60 * math.e - 1) / (math.e**3 * (math.e - 1))
    exact = lambda x: (math.exp(-x) - a * math.exp(2 * x) + b * math.exp(3 * x)) / 12.0
    basis = gram_schmidt_basis(7)
    best = reconstruct(project(exact, basis).coeffs, basis)
    assert 5e-6 < grid_max_error(exact, best) < 5e-5


def test_best_approximation_orthogonality():
    """Residual f - proj(f) is orthogonal to every phi_k (checked with a
    doubled-node rule) for a few smooth integrands."""
    n = 8
    basis = gram_schmidt_basis(n)
    q = max(n + 1, 32)
    check = gauss_legendre_rule(2 * q)

    for f in (math.exp, math.sin, lambda x: 1.0 / (1.0 + x)):
        recon = reconstruct(project(f, basis, q).coeffs, basis)
        for k in range(n + 1):
            ip = sum(
                w * (f(x) - eval_poly(recon, x)) * eval_basis(basis, x)[k]
                for w, x in zip(check.weights, check.nodes)
            )
            assert abs(ip) <= 1e-10, k


def test_l2_estimate_monotone_for_exponential():
    """The Parseval estimate drops at least tenfold at each step of
    n = 2 -> 4 -> 6 -> 8.  From n = 6 the true remainder (~3e-9) sits below
    the cancellation floor of the estimate, which clamps to exactly 0.0;
    zero trivially satisfies both assertions.
    """
    estimates = []
    for n in (2, 4, 6, 8):
        basis = gram_schmidt_basis(n)
        estimates.append(project(math.exp, basis).l2_error_estimate)
    for prev, nxt in zip(estimates, estimates[1:]):
        assert nxt <= prev
        assert 10.0 * nxt <= prev
