"""Polynomial solutions of linear constant-coefficient two-point BVPs.

The method expands the highest derivative of the unknown in an orthonormal
polynomial basis on [0,1] (Gram-Schmidt over the Bernoulli polynomials,
equivalently normalized shifted Legendre), converts repeated integration to
multiplication by the operational matrix Theta, and solves a small dense
linear system for the expansion coefficients together with the integration
constants not pinned by left boundary conditions.  The result is an explicit
polynomial on the original interval.

Entry points: `solve` for the general path, `cli.main` for the command line.
"""

from .approx import (
    EvaluationError,
    ProjectionResult,
    QuadratureError,
    QuadratureRule,
    gauss_legendre_rule,
    max_abs_error,
    project,
    reconstruct,
)
from .basis import (
    BasisConstructionError,
    OrthonormalBasis,
    eval_basis,
    gram_schmidt_basis,
    inner_product,
    legendre_basis,
)
from .exprparse import (
    ExprEvalError,
    ExprSyntaxError,
    compile_function,
    eval_expr,
    parse,
    pretty_print,
)
from .linalg import (
    LinAlgError,
    Matrix,
    SingularMatrixError,
    Vector,
    solve_linear,
)
from .opmatrix import OperationalMatrix, build_theta
from .poly import (
    Polynomial,
    bernoulli_number,
    bernoulli_polynomial,
    differentiate,
    eval_poly,
    integrate,
)
from .refode import (
    DivergenceError,
    IvpSystem,
    StepLimitError,
    UnsupportedProblemError,
    integrate_rk4,
    reference_solution,
)
from .solver import (
    BoundaryCondition,
    BvpProblem,
    BvpSolution,
    IllPosedProblemError,
    assemble,
    map_domain,
    solve,
    solve_paper_second_order,
)

__version__ = "0.1.0"

__all__ = [
    "BasisConstructionError",
    "BoundaryCondition",
    "BvpProblem",
    "BvpSolution",
    "DivergenceError",
    "EvaluationError",
    "ExprEvalError",
    "ExprSyntaxError",
    "IllPosedProblemError",
    "IvpSystem",
    "LinAlgError",
    "Matrix",
    "OperationalMatrix",
    "OrthonormalBasis",
    "Polynomial",
    "ProjectionResult",
    "QuadratureError",
    "QuadratureRule",
    "SingularMatrixError",
    "StepLimitError",
    "UnsupportedProblemError",
    "Vector",
    "assemble",
    "bernoulli_number",
    "bernoulli_polynomial",
    "compile_function",
    "differentiate",
    "eval_basis",
    "eval_expr",
    "eval_poly",
    "gauss_legendre_rule",
    "gram_schmidt_basis",
    "inner_product",
    "integrate",
    "integrate_rk4",
    "legendre_basis",
    "map_domain",
    "max_abs_error",
    "parse",
    "pretty_print",
    "project",
    "reconstruct",
    "reference_solution",
    "solve",
    "solve_linear",
    "solve_paper_second_order",
]
