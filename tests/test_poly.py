"""Polynomials and the Bernoulli generators.

The Bernoulli fixtures pin the printed low-order polynomials and the
classical identities (zero mean on [0,1], derivative ladder, forward
difference).  The first ten Bernoulli numbers, the constant terms
B_n(0), are cross-checked against a hard-coded table so the alternating-sum
generator cannot drift silently.
"""

from fractions import Fraction
import random

import pytest

from polybvp.basis import inner_product
from polybvp.poly import (
    Polynomial,
    bernoulli_polynomial,
    compose_linear,
    differentiate,
    eval_grid,
    eval_poly,
)

# b_0 .. b_9, from the classical table
BERNOULLI_TABLE = [
    1.0,
    -0.5,
    1.0 / 6.0,
    0.0,
    -1.0 / 30.0,
    0.0,
    1.0 / 42.0,
    0.0,
    -1.0 / 30.0,
    0.0,
]


def coeffs_close(p, expected, tol):
    got = list(p.coeffs)
    want = list(expected)
    width = max(len(got), len(want))
    got += [0.0] * (width - len(got))
    want += [0.0] * (width - len(want))
    return max(abs(a - b) for a, b in zip(got, want)) <= tol


def test_eval_b2_at_zero():
    b2 = bernoulli_polynomial(2)
    assert eval_poly(b2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_eval_at_zero_is_constant_term():
    p = Polynomial([3.25, -1.0, 7.0, 0.5])
    assert eval_poly(p, 0.0) == 3.25


def test_b3_vanishes_at_midpoint():
    # B3 is odd about 1/2: zeta^3 - 1.5 zeta^2 + 0.5 zeta -> 0 at 1/2
    assert abs(eval_poly(bernoulli_polynomial(3), 0.5)) <= 1e-15


def test_differentiate_b4_is_4_b3():
    d = differentiate(bernoulli_polynomial(4))
    target = [4.0 * c for c in bernoulli_polynomial(3).coeffs]
    assert coeffs_close(d, target, 1e-14)


def test_leading_zero_trim_and_degree():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert Polynomial([0.0, 0.0]).degree == 0


def test_non_finite_coefficient_rejected():
    with pytest.raises(ValueError):
        Polynomial([1.0, float("nan")])


def bernoulli_number(n):
    return bernoulli_polynomial(n).coeffs[0]


def test_bernoulli_number_fixtures():
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_bernoulli_number_table():
    for n, want in enumerate(BERNOULLI_TABLE):
        assert float(bernoulli_number(n)) == pytest.approx(want, abs=1e-15), n


@pytest.mark.parametrize("n", [-1, 31, 100])
def test_bernoulli_range_errors(n):
    with pytest.raises(ValueError):
        bernoulli_polynomial(n)


def test_bernoulli_polynomial_fixtures():
    assert list(bernoulli_polynomial(0).coeffs) == [1.0]
    b2 = bernoulli_polynomial(2)
    assert coeffs_close(b2, [1.0 / 6.0, -1.0, 1.0], 1e-15)
    b5 = bernoulli_polynomial(5)
    assert coeffs_close(
        b5, [0.0, -1.0 / 6.0, 0.0, 5.0 / 3.0, -5.0 / 2.0, 1.0], 1e-15
    )


def test_bernoulli_zero_mean():
    """Integral of B_n over [0,1], <B_n, 1>, is exactly 0 for 1 <= n <= 20."""
    for n in range(1, 21):
        assert inner_product(bernoulli_polynomial(n), Polynomial([1])) == 0, n


def test_bernoulli_derivative_ladder():
    """differentiate(B_n) = n * B_{n-1} coefficientwise within 1e-12 for
    1 <= n <= 20.  With an integer scalar the arithmetic stays in Fractions,
    so the two sides in fact agree exactly."""
    for n in range(1, 21):
        d = differentiate(bernoulli_polynomial(n))
        target = [n * c for c in bernoulli_polynomial(n - 1).coeffs]
        assert coeffs_close(d, target, 1e-12), n
        assert list(d.coeffs) == target, n


def test_bernoulli_forward_difference():
    """B_n(z+1) - B_n(z) = n z^(n-1) at 50 random points, n <= 12."""
    rng = random.Random(90125)
    points = [rng.random() for _ in range(50)]
    for n in range(1, 13):
        bn = bernoulli_polynomial(n)
        shifted = compose_linear(bn, 1.0, 1.0)
        for z in points:
            lhs = eval_poly(shifted, z) - eval_poly(bn, z)
            assert abs(lhs - n * z ** (n - 1)) <= 1e-9, (n, z)


def test_compose_linear_is_substitution():
    p = Polynomial([1.0, -2.0, 3.0])
    q = compose_linear(p, 2.0, -1.0)  # p(2x - 1)
    for x in (-0.5, 0.0, 0.3, 1.7):
        assert eval_poly(q, x) == pytest.approx(eval_poly(p, 2.0 * x - 1.0), rel=1e-14)



def bits(v):
    """A float by its hex digits; an int or Fraction by its type and value."""
    return v.hex() if isinstance(v, float) else (type(v), v)


GRIDS = (
    [-2.5, -1.0, -0.3, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.0 + 2**-52, 3.75, 41.0],
    [i / 7 - 1.5 for i in range(29)],
)


def test_eval_grid_matches_eval_poly_bit_for_bit():
    """Seeded float polynomials of degree 0..39 on grids with negative, zero
    and > 1 abscissae."""
    rng = random.Random(20150)
    polys = [Polynomial([0.0])]
    for degree in range(40):
        scale = 10.0 ** rng.randint(-8, 8)
        polys.append(Polynomial([rng.uniform(-scale, scale) for _ in range(degree + 1)]))
    for p in polys:
        for xs in GRIDS:
            got = eval_grid(p, xs)
            assert [bits(v) for v in got] == [bits(eval_poly(p, x)) for x in xs]


def test_eval_grid_on_exact_coefficients():
    """int and Fraction coefficients stay exact on exact grids, and round as
    eval_poly rounds on float grids."""
    rng = random.Random(20151)
    exact_grid = [-3, Fraction(-1, 3), 0, Fraction(1, 2), 1, Fraction(7, 4), 5]
    for degree in range(12):
        ints = Polynomial([rng.randint(-50, 50) for _ in range(degree + 1)])
        fracs = Polynomial(
            [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(degree + 1)]
        )
        for p in (ints, fracs, bernoulli_polynomial(degree)):
            for xs in (exact_grid,) + GRIDS:
                got = eval_grid(p, xs)
                assert [bits(v) for v in got] == [bits(eval_poly(p, x)) for x in xs]


def test_eval_grid_empty_grid():
    assert eval_grid(Polynomial([1.0, 2.0]), []) == []
    assert eval_grid(Polynomial([0]), ()) == []


def test_call_is_eval_poly():
    p = Polynomial([0.1, -0.7, 0.3])
    assert Polynomial.__call__ is eval_poly
    assert [bits(p(x)) for x in GRIDS[1]] == [bits(eval_poly(p, x)) for x in GRIDS[1]]
