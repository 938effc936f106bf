"""Operational matrix of integration.

Theta turns integration from 0 into a matrix product on basis coefficient
vectors.  Its last row truncates the band (the phi_{n+1} spill-over has no
slot), so identities involving row n are checked against the analytically
known truncated values rather than the untruncated integral: rows 0..n-1
satisfy the integral identity to round-off, row n differs from it by
exactly  1/(2*sqrt((2n+1)(2n+3))) * phi_{n+1}(zeta).
"""

import math
import random
import sys
import threading

import pytest

from polybvp.approx import gauss_legendre_rule
from polybvp.basis import eval_basis, gram_schmidt_basis
from polybvp.opmatrix import OperationalMatrix, _transposed_power, build_theta


def theta_times(op, v):
    """Theta v, each row summed with sum()."""
    return [sum(a * b for a, b in zip(row, v)) for row in op.rows()]


def sub_entry(i):
    return -1.0 / (2.0 * math.sqrt((2 * i - 1) * (2 * i + 1)))


def super_entry(i):
    return 1.0 / (2.0 * math.sqrt((2 * i + 1) * (2 * i + 3)))


def antiderivative(basis, k, z, rule=gauss_legendre_rule(16)):
    """integral_0^z phi_k by the rule scaled to [0, z].  Exact for the rule's
    design degree, and free of the cancellation that Horner evaluation of the
    monomial antiderivative suffers at high degree."""
    return z * math.fsum(
        w * eval_basis(basis, z * u)[k] for u, w in zip(rule.nodes, rule.weights)
    )


def test_n1_fixture():
    theta = build_theta(1).rows()
    s = 0.5 / math.sqrt(3)
    want = [[0.5, s], [-s, 0.0]]
    for i in range(2):
        for j in range(2):
            assert abs(theta[i][j] - want[i][j]) <= 1e-15


def test_superdiagonal_entry_n2():
    theta = build_theta(2).rows()
    assert theta[1][2] == pytest.approx(1.0 / (2.0 * math.sqrt(15)), abs=1e-16)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_trace_is_half(n):
    theta = build_theta(n).rows()
    assert sum(theta[i][i] for i in range(n + 1)) == 0.5


@pytest.mark.parametrize("n", [2, 6, 15])
def test_closed_form_structure(n):
    """Every entry matches the banded closed form exactly."""
    theta = build_theta(n).rows()
    for i in range(n + 1):
        for j in range(n + 1):
            if i == 0:
                want = 0.5 if j == 0 else (super_entry(0) if j == 1 else 0.0)
            elif i < n:
                if j == i - 1:
                    want = sub_entry(i)
                elif j == i + 1:
                    want = super_entry(i)
                else:
                    want = 0.0
            else:
                want = sub_entry(n) if j == n - 1 else 0.0
            assert theta[i][j] == want, (i, j)


def test_double_integral_of_constant_direction():
    # Theta e0 is the first column: the coefficients of the integral of phi_0,
    # which is what Theta^2 phi(1) reduces to once the first integration
    # pass is resolved exactly (integral of each phi_k over [0,1] is delta_k0).
    op = build_theta(5)
    col = theta_times(op, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    want = [0.5, -0.5 / math.sqrt(3), 0.0, 0.0, 0.0, 0.0]
    assert max(abs(u - v) for u, v in zip(col, want)) <= 1e-15


@pytest.mark.parametrize("n", [3, 8, 15])
def test_integral_identity_random_points(n):
    """Theta phi(zeta) against exact antiderivatives at 25 random points."""
    rng = random.Random(n * 1009)
    basis = gram_schmidt_basis(n)
    wide = gram_schmidt_basis(n + 1)  # provides phi_{n+1} for the spill term
    op = build_theta(n)
    spill = super_entry(n)
    for _ in range(25):
        z = rng.random()
        values = eval_basis(basis, z)
        product = theta_times(op, values)
        for k in range(n):
            assert abs(product[k] - antiderivative(basis, k, z)) <= 1e-11, (k, z)
        corrected = product[n] + spill * eval_basis(wide, z)[n + 1]
        assert abs(corrected - antiderivative(basis, n, z)) <= 1e-11, z


@pytest.mark.parametrize("n", [2, 7, 15])
def test_endpoint_identities(n):
    """Theta phi(1) = e0 and Theta phi(0) = 0 in rows 0..n-1; row n carries
    the truncation residue with known magnitude 1/(2 sqrt(2n+1))."""
    basis = gram_schmidt_basis(n)
    op = build_theta(n)
    at1 = theta_times(op, eval_basis(basis, 1.0))
    at0 = theta_times(op, eval_basis(basis, 0.0))
    for k in range(n):
        assert abs(at1[k] - (1.0 if k == 0 else 0.0)) <= 1e-12, k
        assert abs(at0[k]) <= 1e-12, k
    residue = 1.0 / (2.0 * math.sqrt(2 * n + 1))
    assert abs(at1[n] - (-residue)) <= 1e-12
    assert abs(at0[n] - (-1.0) ** n * residue) <= 1e-12


def test_repeated_integration_kills_phi_at_zero():
    # Theta^k phi(0): only the top band (last k-1 slots, alternating) can be
    # nonzero; everything below is exactly zero and the defect never grows.
    n = 9
    basis = gram_schmidt_basis(n)
    op = build_theta(n)
    v = eval_basis(basis, 0.0)
    prev_norm = None
    for k in range(1, 5):
        v = theta_times(op, v)
        for idx in range(n - k + 1):
            assert abs(v[idx]) <= 1e-12, (k, idx)
        norm = max(abs(u) for u in v)
        assert norm <= 1.0 / (2.0 * math.sqrt(2 * n + 1)) + 1e-15
        if prev_norm is not None:
            assert norm <= prev_norm
        prev_norm = norm


def test_one_instance_per_degree():
    # solves at one degree share the memoized table of powers
    assert build_theta(9) is build_theta(9)
    assert build_theta(9) is not build_theta(10)


def powers(op, orders):
    """Every memoized power up to orders, densely."""
    size = op.n + 1
    out = []
    for k in range(orders + 1):
        rows = [[0.0] * size for _ in range(size)]
        op.add_transposed_power(rows, 1.0, k)
        out.append(rows)
    return out


def test_memo_matches_dense_powers():
    """The banded table holds the dense (Theta^T)^k."""
    n = 12
    op = OperationalMatrix(n)
    table = powers(op, 9)
    tt = [list(col) for col in zip(*op.rows())]
    for k in range(1, 10):
        assert table[k] == theta_power_rows(tt, k)


def theta_power_rows(tt, k):
    size = len(tt)
    out = [[1.0 if i == j else 0.0 for j in range(size)] for i in range(size)]
    for _ in range(k):
        out = [[sum(tt[i][r] * out[r][j] for r in range(size)) for j in range(size)]
               for i in range(size)]
    return out


def test_concurrent_growth_leaves_the_serial_tables():
    """Threads growing the emptied memo to different orders leave the table
    a single caller grows, entry for entry."""
    n = 12
    _transposed_power.cache_clear()
    want = powers(OperationalMatrix(n), 9)

    def grow(op, k):
        op.add_transposed_power([[0.0] * (n + 1) for _ in range(n + 1)], 1.0, k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            _transposed_power.cache_clear()
            op = OperationalMatrix(n)
            threads = [threading.Thread(target=grow, args=(op, k)) for k in (9, 4, 8, 2, 9, 6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert powers(op, 9) == want
    finally:
        sys.setswitchinterval(old)


def test_range_errors():
    build_theta(1)  # a memoized degree does not admit an equal float
    for bad in (0, -2, 31, 1.0):
        with pytest.raises(ValueError):
            build_theta(bad)
