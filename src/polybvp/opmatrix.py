"""Operational matrix of integration for the orthonormal basis.

Theta satisfies the defining identity  integral_0^zeta phi(eta) d eta =
Theta phi(zeta)  row by row, except that the last row drops the phi_{n+1}
spill-over term (the matrix is square by construction); that truncation is
part of the method and shows up in the solver's residual diagnostic, not
here.  Entries come from the closed form, no quadrature.

Theta, its transposed powers and its endpoint vectors Theta^k e0 depend on
the degree alone.  build_theta keeps one OperationalMatrix per degree, and
that instance memoizes both tables, growing each on demand to the largest
power asked for.
"""

from array import array
import math

from .linalg import Matrix

_thetas = {}


class OperationalMatrix:
    """Theta for degree n, memoizing its transposed powers and endpoint
    vectors."""

    __slots__ = ("n", "theta", "_powers", "_ends")

    def __init__(self, n, theta):
        self.n = n
        self.theta = theta
        self._powers = [[(i, array("d", [1.0])) for i in range(n + 1)]]
        self._ends = [array("d", [1.0] + [0.0] * n)]

    def __repr__(self):
        return "OperationalMatrix(n=%d)" % self.n

    def add_transposed_power(self, rows, a, k):
        """rows += a (Theta^T)^k in place: each entry x becomes x + a*p.

        Only the band of each row of the power is visited.  Outside it the
        power is +0.0, and x + a*0.0 == x bit for bit unless x is -0.0, so
        the result is the dense one for rows holding no -0.0.
        """
        for acc, (j, band) in zip(rows, self._power(k)):
            for v in band:
                acc[j] += a * v
                j += 1

    def _power(self, k):
        # Row i of (Theta^T)^k is (first column, array of the values up to
        # the last nonzero).  (Theta^T)^(j+1) = Theta^T (Theta^T)^j: Theta
        # is tridiagonal, so row i of Theta^T is applied through its nonzeros
        # Theta[r][i] in ascending r, adding v * band of row r from +0.0.
        # Each entry is the same floating-point sum as a dense product that
        # skips zero factors, and no entry is ever -0.0.  The table grows
        # into a new list that then replaces the old one, so a concurrent
        # caller sees either table whole, never interleaved appends.
        powers = self._powers
        if len(powers) <= k:
            size = self.n + 1
            theta_rows = self.theta.to_rows()
            entries = [
                [(r, theta_rows[r][i]) for r in range(size) if theta_rows[r][i] != 0.0]
                for i in range(size)
            ]
            powers = list(powers)
            while len(powers) <= k:
                prev = powers[-1]
                nxt = []
                for terms in entries:
                    acc = [0.0] * size
                    for r, v in terms:
                        j, band = prev[r]
                        for b in band:
                            acc[j] += v * b
                            j += 1
                    nonzero = [j for j, v in enumerate(acc) if v != 0.0]
                    lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0)
                    nxt.append((lo, array("d", acc[lo:hi])))
                powers.append(nxt)
            self._powers = powers
        return powers[k]

    def endpoint(self, k):
        """Theta^k e0, the endpoint integrals of the basis.  The array is
        the memo's own: read it, do not modify it."""
        ends = self._ends
        if len(ends) <= k:
            theta_rows = self.theta.to_rows()
            ends = list(ends)  # grown and replaced whole, as in _power
            # sum() as in the dense_assemble test oracle: they agree on every interpreter
            while len(ends) <= k:
                ends.append(array("d", [sum(a * b for a, b in zip(r, ends[-1])) for r in theta_rows]))
            self._ends = ends
        return ends[k]


def build_theta(n):
    """The (n+1)x(n+1) integration matrix for basis degree n.

    One instance per degree, so its memoized tables serve every solve.
    """
    if not isinstance(n, int) or not 1 <= n <= 30:
        raise ValueError("operational matrix degree %r outside supported range 1..30" % (n,))
    op = _thetas.get(n)
    if op is None:
        size = n + 1
        e = [0.0] * (size * size)
        e[0] = 0.5
        e[1] = 1.0 / (2.0 * math.sqrt(3.0))
        for i in range(1, n):
            e[i * size + i - 1] = -1.0 / (2.0 * math.sqrt((2 * i - 1) * (2 * i + 1)))
            e[i * size + i + 1] = 1.0 / (2.0 * math.sqrt((2 * i + 1) * (2 * i + 3)))
        e[n * size + n - 1] = -1.0 / (2.0 * math.sqrt((2 * n - 1) * (2 * n + 1)))
        op = _thetas[n] = OperationalMatrix(n, Matrix._of(size, size, e))
    return op
