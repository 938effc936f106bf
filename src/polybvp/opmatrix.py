"""Operational matrix of integration for the orthonormal basis.

Theta satisfies the defining identity  integral_0^zeta phi(eta) d eta =
Theta phi(zeta)  row by row, except that the last row drops the phi_{n+1}
spill-over term (the matrix is square by construction); that truncation is
part of the method and shows up in the solver's residual diagnostic, not
here.  Theta is tridiagonal and comes from its closed form, no quadrature:
Theta[0][0] = 1/2 and Theta[i][i+1] = -Theta[i+1][i] = 1/(2 sqrt((2i+1)(2i+3))).
OperationalMatrix keeps only that band, the nonzeros of each row.

Theta and its transposed powers depend on the degree alone.  build_theta
keeps one OperationalMatrix per degree, and that instance memoizes the
powers, growing the table on demand to the largest power asked for.
"""

from array import array
from functools import lru_cache
import math


class OperationalMatrix:
    """Theta for degree n as its band, memoizing its transposed powers."""

    __slots__ = ("n", "band", "_powers")

    def __init__(self, n):
        self.n = n
        s = [1.0 / (2.0 * math.sqrt((2 * i + 1) * (2 * i + 3))) for i in range(n)]
        # band[i]: the (column, value) nonzeros of row i, ascending column
        self.band = (
            ((0, 0.5), (1, s[0])),
            *(((i - 1, -s[i - 1]), (i + 1, s[i])) for i in range(1, n)),
            ((n - 1, -s[n - 1]),),
        )
        self._powers = [[(i, array("d", [1.0])) for i in range(n + 1)]]

    def __repr__(self):
        return "OperationalMatrix(n=%d)" % self.n

    def rows(self):
        """Theta as n+1 dense rows of floats, +0.0 off the band."""
        out = [[0.0] * (self.n + 1) for _ in self.band]
        for row, terms in zip(out, self.band):
            for j, v in terms:
                row[j] = v
        return out

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
            entries = [[] for _ in range(size)]
            for r, terms in enumerate(self.band):
                for i, v in terms:
                    entries[i].append((r, v))
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


@lru_cache(maxsize=None, typed=True)
def build_theta(n):
    """The (n+1)x(n+1) integration matrix for basis degree n, memoized per
    degree so that its table of powers serves every solve."""
    if not isinstance(n, int) or not 1 <= n <= 30:
        raise ValueError("operational matrix degree %r outside supported range 1..30" % (n,))
    return OperationalMatrix(n)
