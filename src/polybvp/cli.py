"""Command-line interface.

Subcommands
-----------
solve      solve a problem described by a key=value problem file
paper      run the four built-in benchmark problems and print an error table
basis      dump the orthonormal-basis monomial coefficients as CSV
opmatrix   dump the operational matrix of integration as CSV
approx     project an expression onto the basis and report errors

Problem files are line-oriented UTF-8 text.  Blank lines and lines starting
with '#' are ignored; every other line is `key = value` with keys:

    order      ODE order m (integer >= 1)
    interval   two reals x0 x1
    coeff[k]   real coefficient of y^(k), k = 0..order
               (omitted coeff[k] defaults to 0; coeff[order] defaults to 1)
    rhs        right-hand side expression in x
    bc         repeatable: left|right <derivative-order> <value>
    n          truncation degree (integer)
    exact      optional exact-solution expression, enables the error report

There must be exactly `order` bc lines; unknown keys are an error.
Expressions use the grammar documented in the exprparse module (operators
+ - * / ^, functions exp sin cos tan log sqrt abs, constants pi and e;
^ binds tighter than unary minus, so -x^2 means -(x^2)).

All numeric output uses 17 significant digits so values round-trip exactly;
error paths print a single diagnostic line to stderr and exit nonzero.
"""

import argparse
import math
import os
import re
import sys

from .basis import gram_schmidt_basis, legendre_basis
from .approx import project, reconstruct
from .exprparse import compile_function
from .opmatrix import build_theta
from .poly import eval_grid
from .refode import reference_solution
from .solver import BoundaryCondition, BvpProblem, solve, solve_without_diagnostics, uniform_grid


def _fmt(v):
    return "%.17g" % (v,)


class ProblemFileError(ValueError):
    pass


_COEFF_KEY = re.compile(r"^coeff\[(\d+)\]$")


def load_problem_file(path):
    """Parse a problem file; returns (BvpProblem, exact callable or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    scalars = {}
    coeffs = {}
    bc_lines = []

    def fail(lineno, msg):
        raise ProblemFileError("%s:%d: %s" % (path, lineno, msg))

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            fail(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        mc = _COEFF_KEY.match(key)
        if mc:
            k = int(mc.group(1))
            if k in coeffs:
                fail(lineno, "duplicate key 'coeff[%d]'" % k)
            try:
                coeffs[k] = float(value)
            except ValueError:
                fail(lineno, "coeff[%d] is not a number: %r" % (k, value))
        elif key == "bc":
            bc_lines.append((lineno, value))
        elif key in ("order", "interval", "rhs", "n", "exact"):
            if key in scalars:
                fail(lineno, "duplicate key %r" % key)
            scalars[key] = (lineno, value)
        else:
            fail(lineno, "unknown key %r" % key)

    for req in ("order", "interval", "rhs", "n"):
        if req not in scalars:
            raise ProblemFileError("%s: missing required key %r" % (path, req))

    lineno, value = scalars["order"]
    try:
        order = int(value)
    except ValueError:
        fail(lineno, "order is not an integer: %r" % value)
    if order < 1:
        fail(lineno, "order must be at least 1, got %d" % order)

    lineno, value = scalars["interval"]
    parts = value.split()
    if len(parts) != 2:
        fail(lineno, "interval needs two endpoints, got %r" % value)
    try:
        domain = (float(parts[0]), float(parts[1]))
    except ValueError:
        fail(lineno, "interval endpoints are not numbers: %r" % value)

    lineno, value = scalars["n"]
    try:
        n = int(value)
    except ValueError:
        fail(lineno, "n is not an integer: %r" % value)

    for k in coeffs:
        if k > order:
            raise ProblemFileError(
                "%s: coeff[%d] exceeds the problem order %d" % (path, k, order)
            )
    if len(bc_lines) != order:
        raise ProblemFileError(
            "%s: order-%d problem needs exactly %d bc lines, got %d"
            % (path, order, order, len(bc_lines))
        )
    coeff_list = [coeffs.get(k, 0.0) for k in range(order + 1)]
    if order not in coeffs:
        coeff_list[order] = 1.0

    bcs = []
    for lineno, value in bc_lines:
        parts = value.split()
        if len(parts) != 3:
            fail(lineno, "bc needs 'left|right <order> <value>', got %r" % value)
        side, d_text, v_text = parts
        if side not in ("left", "right"):
            fail(lineno, "bc side must be left or right, got %r" % side)
        try:
            d = int(d_text)
            v = float(v_text)
        except ValueError:
            fail(lineno, "bc order/value are not numeric: %r" % value)
        try:
            bcs.append(BoundaryCondition(side, d, v))
        except ValueError as exc:
            fail(lineno, str(exc))

    lineno, value = scalars["rhs"]
    try:
        rhs = compile_function(value)
    except ValueError as exc:
        fail(lineno, "rhs: %s" % exc)
    exact = None
    if "exact" in scalars:
        lineno, value = scalars["exact"]
        try:
            exact = compile_function(value)
        except ValueError as exc:
            fail(lineno, "exact: %s" % exc)

    try:
        problem = BvpProblem(order, coeff_list, rhs, domain, bcs, n)
    except ValueError as exc:
        raise ProblemFileError("%s: %s" % (path, exc)) from None
    return problem, exact


def _compare(xs, fs, gs):
    """Rows (x, f, g, |f - g|) over the grid xs, f and g from the values fs, gs."""
    return [(x, fx, gx, abs(fx - gx)) for x, fx, gx in zip(xs, fs, gs)]


def _write_csv(path, header, rows):
    text = "\n".join([",".join(header)] + [",".join(_fmt(v) for v in r) for r in rows])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def cmd_solve(args):
    problem, exact = load_problem_file(args.file)
    xs = uniform_grid(problem.domain[0], problem.domain[1], args.grid)
    sol = solve(problem)
    poly = sol.solution_poly
    print("n = %d" % problem.truncation)
    print("degree = %d" % poly.degree)
    for k, c in enumerate(poly.coeffs):
        print("c[%d] = %s" % (k, _fmt(c)))
    print("residual_max = %s" % _fmt(sol.residual_max))
    print("bc_residual_max = %s" % _fmt(sol.bc_residual_max))
    if sol.diverged:
        print("warning = residual indicates divergence at this truncation")
    if exact is not None:
        rows = _compare(xs, eval_grid(poly, xs), map(exact, xs))
        print("max_abs_error = %s" % _fmt(max(r[3] for r in rows)))
    if args.csv:
        if exact is not None:
            _write_csv(args.csv, ["x", "y_approx", "y_exact", "abs_err"], rows)
        else:
            _write_csv(args.csv, ["x", "y_approx"], zip(xs, eval_grid(poly, xs)))
    return 0


# Built-in benchmark fixtures.  Each entry: order, coefficients (ascending),
# rhs expression, boundary conditions, the truncations to run, the claimed
# error order for each truncation, and the acceptance threshold (one order
# looser than the claim, since claims are magnitudes read off figures).

def _exact_ex1():
    e = math.e
    a = (e**4 + 60.0 * e - 1.0) / (e**3 * (e - 1.0))
    b = (e**3 + 60.0 * e - 1.0) / (e**3 * (e - 1.0))

    def y(x):
        return (math.exp(-x) - a * math.exp(2.0 * x) + b * math.exp(3.0 * x)) / 12.0

    return y


def _exact_decay_exp(x):
    return (1.0 - x) * math.exp(x)


_E = math.e

_EXAMPLES = {
    1: {
        "order": 2,
        "coefficients": (6.0, -5.0, 1.0),
        "rhs": "exp(-x)",
        "bcs": (("left", 0, 0.0), ("right", 0, 5.0)),
        "exact": _exact_ex1(),
        "runs": ((7, 1e-5, 5e-5), (10, 1e-7, 5e-6)),
    },
    2: {
        "order": 9,
        "coefficients": (-1.0,) + (0.0,) * 8 + (1.0,),
        "rhs": "-9*exp(x)",
        "bcs": (
            ("left", 0, 1.0),
            ("left", 1, 0.0),
            ("left", 2, -1.0),
            ("left", 3, -2.0),
            ("left", 4, -3.0),
            ("right", 0, 0.0),
            ("right", 1, -_E),
            ("right", 2, -2.0 * _E),
            ("right", 3, -3.0 * _E),
        ),
        "exact": _exact_decay_exp,
        "runs": ((7, 1e-8, 1e-7), (12, 1e-12, 1e-10)),
    },
    3: {
        "order": 2,
        "coefficients": (2.0, -5.0, 1.0),
        "rhs": "tan(x)",
        "bcs": (("left", 0, 0.0), ("left", 1, 0.0)),
        "exact": None,  # Duhamel-quadrature reference
        "runs": ((9, 1e-4, 5e-4), (11, 1e-5, 5e-5)),
    },
    4: {
        "order": 4,
        "coefficients": (-1.0, 0.0, -1.0, 0.0, 1.0),
        "rhs": "(x-3)*exp(x)",
        "bcs": (
            ("left", 0, 1.0),
            ("left", 1, 0.0),
            ("right", 0, 0.0),
            ("right", 1, -_E),
        ),
        "exact": _exact_decay_exp,
        "runs": ((7, 1e-5, 5e-5), (10, 1e-8, 5e-7)),
    },
}


def example_problem(number, n):
    """The built-in benchmark problem `number` at truncation n."""
    spec = _EXAMPLES[number]
    rhs = compile_function(spec["rhs"])
    bcs = [BoundaryCondition(s, d, v) for s, d, v in spec["bcs"]]
    return BvpProblem(spec["order"], spec["coefficients"], rhs, (0.0, 1.0), bcs, n)


def example_exact(number):
    """Exact solution callable (the quadrature reference for example 3)."""
    exact = _EXAMPLES[number]["exact"]
    return exact if exact is not None else reference_solution()


def cmd_paper(args):
    numbers = [1, 2, 3, 4] if args.example == "all" else [int(args.example)]
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
    print("example  n   max_abs_error  claimed  threshold  status")
    failed = False
    xs = uniform_grid(0.0, 1.0, 1001)
    for number in numbers:
        ys = list(map(example_exact(number), xs))  # shared by both truncations
        for n, claimed, threshold in _EXAMPLES[number]["runs"]:
            _, _, poly = solve_without_diagnostics(example_problem(number, n))
            rows = _compare(xs, eval_grid(poly, xs), ys)
            err = max(r[3] for r in rows)
            ok = err <= threshold
            failed = failed or not ok
            print(
                "%-8d %-3d %-14.3e %-8.0e %-10.0e %s"
                % (number, n, err, claimed, threshold, "PASS" if ok else "FAIL")
            )
            if args.csv_dir:
                out = os.path.join(args.csv_dir, "example%d_n%d.csv" % (number, n))
                _write_csv(out, ["x", "y_approx", "y_exact", "abs_err"], rows)
    return 1 if failed else 0


def cmd_basis(args):
    basis = gram_schmidt_basis(args.n)
    width = args.n + 1
    for phi in basis.phis:
        row = list(phi.coeffs) + [0.0] * (width - len(phi.coeffs))
        print(",".join(_fmt(c) for c in row))
    return 0


def cmd_opmatrix(args):
    for row in build_theta(args.n).rows():
        print(",".join(_fmt(v) for v in row))
    return 0


def cmd_approx(args):
    f = compile_function(args.expr)
    basis = legendre_basis(args.n)
    result = project(f, basis, args.q)
    xs = uniform_grid(0.0, 1.0, args.grid)
    rows = _compare(xs, map(f, xs), eval_grid(reconstruct(result.coeffs, basis), xs))
    for k, c in enumerate(result.coeffs):
        print("c[%d] = %s" % (k, _fmt(c)))
    print("l2_error_estimate = %s" % _fmt(result.l2_error_estimate))
    print("max_abs_error = %s" % _fmt(max(r[3] for r in rows)))
    if args.csv:
        _write_csv(args.csv, ["x", "f", "f_approx", "abs_err"], rows)
    return 0


class _UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant whose usage errors are a single stderr line."""

    def error(self, message):
        raise _UsageError("invalid usage: %s" % message)


def build_parser():
    parser = _ArgumentParser(
        prog="polybvp",
        description="Polynomial solver for linear constant-coefficient "
        "two-point boundary value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("file", help="path to a problem file")
    p.add_argument("--grid", type=int, default=1001, help="report grid size")
    p.add_argument("--csv", help="write x,y_approx[,y_exact,abs_err] rows here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("paper", help="run the built-in benchmark problems")
    p.add_argument(
        "--example", default="all", choices=["1", "2", "3", "4", "all"],
        help="which benchmark to run",
    )
    p.add_argument("--csv-dir", help="directory for per-run solution CSVs")
    p.set_defaults(func=cmd_paper)

    p = sub.add_parser("basis", help="print basis monomial coefficients as CSV")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("opmatrix", help="print the integration matrix as CSV")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_opmatrix)

    p = sub.add_parser("approx", help="project an expression onto the basis")
    p.add_argument("expr", help="expression in x, e.g. 'exp(-x)*sin(x)'")
    p.add_argument("--n", type=int, default=8, help="truncation degree")
    p.add_argument("--q", type=int, default=None, help="quadrature node count")
    p.add_argument("--grid", type=int, default=1001, help="error grid size")
    p.add_argument("--csv", help="write x,f,f_approx,abs_err rows here")
    p.set_defaults(func=cmd_approx)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
