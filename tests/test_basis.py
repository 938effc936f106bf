"""Orthonormal basis construction and monomial conversion.

Two independent constructions (Gram-Schmidt over the Bernoulli family and
the shifted-Legendre recurrence) must coincide; the printed low-order
fixtures pin signs and scaling.
"""

import math
from fractions import Fraction

import pytest

from polybvp.approx import gauss_legendre_rule
from polybvp.basis import (
    BasisConstructionError,
    eval_basis,
    gram_schmidt_basis,
    inner_product,
    legendre_basis,
)
from polybvp.poly import Polynomial, bernoulli_polynomial, eval_poly


def max_coeff_dev(p, expected):
    got = list(p.coeffs)
    want = list(expected)
    width = max(len(got), len(want))
    got += [0.0] * (width - len(got))
    want += [0.0] * (width - len(want))
    return max(abs(a - b) for a, b in zip(got, want))


def test_inner_product_fixtures():
    one = Polynomial([1.0])
    assert inner_product(one, one) == 1.0
    assert inner_product(bernoulli_polynomial(1), bernoulli_polynomial(0)) == 0.0
    assert inner_product(Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0])) == 0.25


@pytest.mark.parametrize(
    "k, radicand, pattern",
    [
        (1, 3, [-1, 2]),
        (3, 7, [-1, 12, -30, 20]),
        (5, 11, [-1, 30, -210, 560, -630, 252]),
    ],
)
def test_gram_schmidt_low_order_fixtures(k, radicand, pattern):
    basis = gram_schmidt_basis(5)
    want = [math.sqrt(radicand) * c for c in pattern]
    assert max_coeff_dev(basis.phis[k], want) <= 1e-12


@pytest.mark.parametrize(
    "k, expected",
    [
        (0, [1.0]),
        (2, [math.sqrt(5) * c for c in (1, -6, 6)]),
        (4, [3.0 * c for c in (1, -20, 90, -140, 70)]),
    ],
)
def test_legendre_low_order_fixtures(k, expected):
    basis = legendre_basis(4)
    assert max_coeff_dev(basis.phis[k], expected) <= 1e-12


def test_constructions_agree():
    """The float views of both constructions are equal, not merely close:
    the solver builds its basis from the recurrence, so every float it
    reads must be the one Gram-Schmidt gives.  That holds because the exact
    forms are equal.  Rows p <= n are the monomial-to-basis conversion;
    rows with p > n are read by problems whose order exceeds the degree
    (order 9 at n = 7)."""
    for n in (1, 12, 20, 30):
        gs = gram_schmidt_basis(n)
        lg = legendre_basis(n)
        assert gs.integer_coeffs == lg.integer_coeffs, n
        assert gs.scale_sq == lg.scale_sq, n
        assert gs.phis == lg.phis, n
        for p in range(n + 9):
            assert gs.projection_row(p) == lg.projection_row(p), (n, p)


def test_orthonormality_gram_matrix():
    """Exact-inner-product Gram matrix is the identity within 1e-12.

    Runs on the exact rational skeleton (integer_coeffs, scale_sq), where
    inner_product stays in Fractions: the identity holds exactly.  The float
    monomial coefficients cannot carry this check at degree 15 -- the term
    rule there sums products of order 1e20 down to order one, so even
    correctly rounded coefficients leave an error of order 1e3.
    """
    basis = gram_schmidt_basis(15)
    for i in range(16):
        vi = Polynomial(basis.integer_coeffs[i])
        for j in range(i + 1):
            ip = inner_product(vi, Polynomial(basis.integer_coeffs[j]))
            if i == j:
                assert ip * basis.scale_sq[i] == 1, i
            else:
                assert ip == 0, (i, j)


def test_orthonormality_under_quadrature():
    """Float-level orthonormality of the evaluated functions: Gram matrix
    via a 16-node rule (exact to degree 31) and the stable evaluator."""
    basis = gram_schmidt_basis(15)
    rule = gauss_legendre_rule(16)
    stacked = [eval_basis(basis, x) for x in rule.nodes]
    for i in range(16):
        for j in range(i + 1):
            ip = math.fsum(w * v[i] * v[j] for v, w in zip(stacked, rule.weights))
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-12, (i, j)


def test_positive_leading_coefficients():
    basis = gram_schmidt_basis(10)
    for k, phi in enumerate(basis.phis):
        assert phi.coeffs[-1] > 0.0, k


def test_span_reconstructs_bernoulli():
    """Each B_k, k <= n, comes back from its basis projections within 1e-10.

    The projection weight onto phi_j is w_j * sqrt(scale_sq[j]) with w_j an
    exact Fraction, so the reconstruction sum_j <B_k,phi_j> phi_j stays
    rational and the recovery is exact, not merely within tolerance.
    """
    n = 8
    basis = gram_schmidt_basis(n)
    for k in range(n + 1):
        bk = bernoulli_polynomial(k)
        acc = [Fraction(0)] * (n + 1)
        for j in range(n + 1):
            w = inner_product(bk, Polynomial(basis.integer_coeffs[j]))
            s = basis.scale_sq[j]
            for p, v in enumerate(basis.integer_coeffs[j]):
                acc[p] += w * s * v
        want = list(bk.coeffs) + [Fraction(0)] * (n + 1)
        assert all(a == b for a, b in zip(acc, want[: n + 1])), k


def test_span_reconstruction_pointwise_in_floats():
    """Same expansion through the float pipeline, judged in value space
    where the degree-8 monomial magnitudes (~2e5) cannot amplify it."""
    n = 8
    basis = gram_schmidt_basis(n)
    for k in range(n + 1):
        bk = Polynomial([float(c) for c in bernoulli_polynomial(k).coeffs])
        cs = [float(inner_product(bk, basis.phis[j])) for j in range(n + 1)]
        for i in range(41):
            x = i / 40.0
            approx = math.fsum(c * v for c, v in zip(cs, eval_basis(basis, x)))
            assert abs(approx - eval_poly(bk, x)) <= 1e-9, (k, x)


def test_eval_basis_at_one():
    basis = gram_schmidt_basis(8)
    values = eval_basis(basis, 1.0)
    for k in range(9):
        assert abs(values[k] - math.sqrt(2 * k + 1)) <= 1e-12, k


def test_eval_basis_at_zero_alternates():
    basis = gram_schmidt_basis(8)
    values = eval_basis(basis, 0.0)
    for k in range(9):
        want = (-1.0) ** k * math.sqrt(2 * k + 1)
        assert abs(values[k] - want) <= 1e-12, k


def test_eval_basis_midpoint_odd_symmetry():
    basis = gram_schmidt_basis(4)
    assert abs(eval_basis(basis, 0.5)[1]) <= 1e-15


def test_eval_basis_matches_horner_to_degree_10():
    """Recurrence evaluation tracks Horner on the stored coefficients within
    1e-9 through degree 10 (measured agreement there: 3.2e-10)."""
    basis = gram_schmidt_basis(10)
    for i in range(21):
        x = i / 20.0
        values = eval_basis(basis, x)
        for k in range(11):
            assert abs(values[k] - eval_poly(basis.phis[k], x)) <= 1e-9, (k, x)


@pytest.mark.xfail(
    strict=True,
    reason="float monomial coefficients of phi_15 reach 5.9e10, so the "
    "stored representation itself is only ~2e-6 faithful near x = 1; the "
    "1e-9 target is below that representation floor (measured worst "
    "3.7e-6).  Kept at the stated tolerance rather than loosened.",
)
def test_eval_basis_matches_horner_to_degree_15():
    """Recurrence vs Horner within 1e-9 up to degree 15 (see xfail reason)."""
    basis = gram_schmidt_basis(15)
    for i in range(21):
        x = i / 20.0
        values = eval_basis(basis, x)
        for k in range(16):
            assert abs(values[k] - eval_poly(basis.phis[k], x)) <= 1e-9, (k, x)


def test_eval_basis_matches_horner_within_representation_floor():
    """What the degree-15 comparison actually supports: agreement within
    2e-5 (measured 3.7e-6), dominated by coefficient rounding, not by
    either evaluation scheme."""
    basis = gram_schmidt_basis(15)
    for i in range(21):
        x = i / 20.0
        values = eval_basis(basis, x)
        for k in range(16):
            assert abs(values[k] - eval_poly(basis.phis[k], x)) <= 2e-5, (k, x)


def test_monomial_conversion_rows():
    basis = gram_schmidt_basis(4)
    s3 = 1.0 / (2.0 * math.sqrt(3))
    rows = [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, s3, 0.0, 0.0, 0.0],
        [1.0 / 3.0, s3, 1.0 / (6.0 * math.sqrt(5)), 0.0, 0.0],
    ]
    for p, want in enumerate(rows):
        got = basis.projection_row(p)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, p


def test_conversion_matrices_are_inverse():
    """Rows <x^p, phi_k> times the phi coefficient matrix give the identity."""
    basis = gram_schmidt_basis(9)
    t = [basis.projection_row(p) for p in range(10)]
    b = [list(phi.coeffs) + [0.0] * (10 - len(phi.coeffs)) for phi in basis.phis]
    for i in range(10):
        for j in range(10):
            prod = sum(t[i][k] * b[k][j] for k in range(10))
            assert abs(prod - (1.0 if i == j else 0.0)) <= 1e-10


def test_conversion_expands_monomials():
    # zeta^p really equals sum_k <zeta^p, phi_k> phi_k, checked pointwise
    n = 6
    basis = gram_schmidt_basis(n)
    for p in range(n + 1):
        row = basis.projection_row(p)
        for i in range(11):
            x = i / 10.0
            vals = eval_basis(basis, x)
            expanded = sum(row[k] * vals[k] for k in range(n + 1))
            assert abs(expanded - x**p) <= 1e-11, (p, x)


@pytest.mark.parametrize("construct", [gram_schmidt_basis, legendre_basis])
@pytest.mark.parametrize("n", [1, 12, 30])
def test_projection_rows_expand_monomials_exactly(construct, n):
    """For p <= n the exact rows expand x^p with zero rounding:
    x^p = sum_k <x^p, phi_k> phi_k = sum_k w_k scale_sq[k] V_k."""
    basis = construct(n)
    for p in range(n + 1):
        acc = [Fraction(0)] * (n + 1)
        for w, s, vec in zip(
            basis.projection_row_exact(p), basis.scale_sq, basis.integer_coeffs
        ):
            for j, v in enumerate(vec):
                acc[j] += w * s * v
        assert acc == [Fraction(int(j == p)) for j in range(n + 1)], (n, p)


def test_degree_range_errors():
    with pytest.raises((ValueError, BasisConstructionError)):
        gram_schmidt_basis(31)
    with pytest.raises((ValueError, BasisConstructionError)):
        gram_schmidt_basis(-1)
    with pytest.raises((ValueError, BasisConstructionError)):
        legendre_basis(31)


def test_degree_zero_supported():
    # the CLI needs the constant-only basis
    basis = gram_schmidt_basis(0)
    assert list(basis.phis[0].coeffs) == [1.0]
