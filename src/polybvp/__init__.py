"""Polynomial solutions of linear constant-coefficient two-point BVPs.

The method expands the highest derivative of the unknown in an orthonormal
polynomial basis on [0,1] (Gram-Schmidt over the Bernoulli polynomials,
equivalently normalized shifted Legendre), converts repeated integration to
multiplication by the operational matrix Theta, and solves a small dense
linear system for the expansion coefficients together with the integration
constants not pinned by left boundary conditions.  The result is an explicit
polynomial on the original interval.

Entry points: `solve` for the general path, `cli.main` for the command line.
The package namespace holds the names the README documents; everything else
is imported from its module.
"""

from .approx import EvaluationError, project, reconstruct
from .basis import eval_basis, gram_schmidt_basis, legendre_basis
from .exprparse import ExprEvalError, ExprSyntaxError, compile_function
from .linalg import LinAlgError
from .opmatrix import build_theta
from .poly import Polynomial
from .solver import (
    BoundaryCondition,
    BvpProblem,
    BvpSolution,
    IllPosedProblemError,
    solve,
    solve_paper_second_order,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "BvpProblem",
    "BvpSolution",
    "EvaluationError",
    "ExprEvalError",
    "ExprSyntaxError",
    "IllPosedProblemError",
    "LinAlgError",
    "Polynomial",
    "build_theta",
    "compile_function",
    "eval_basis",
    "gram_schmidt_basis",
    "legendre_basis",
    "project",
    "reconstruct",
    "solve",
    "solve_paper_second_order",
]
