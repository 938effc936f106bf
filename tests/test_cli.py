"""Command-line behaviour, driven through main(argv) with captured output."""

import hashlib
import math
import os
import re
import tracemalloc

import pytest

from polybvp import cli
from polybvp.cli import (
    ProblemFileError,
    example_exact,
    example_problem,
    load_problem_file,
    main,
)


EX1_EXACT_EXPR = (
    "(exp(-x) - ((e^4+60*e-1)/(e^3*(e-1)))*exp(2*x)"
    " + ((e^3+60*e-1)/(e^3*(e-1)))*exp(3*x))/12"
)

EX1_FILE = """\
# second-order benchmark
order = 2
interval = 0 1
coeff[0] = 6
coeff[1] = -5
coeff[2] = 1
rhs = exp(-x)
bc = left 0 0
bc = right 0 5
n = 7
exact = %s
""" % EX1_EXACT_EXPR


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def stdout_fields(captured):
    """Parse `key = value` stdout lines into a dict (last wins)."""
    out = {}
    for line in captured.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


# ----------------------------------------------------------- problem files

def test_load_problem_file_basic(tmp_path):
    problem, exact = load_problem_file(write_problem(tmp_path, EX1_FILE))
    assert problem.order == 2
    assert list(problem.coefficients) == [6.0, -5.0, 1.0]
    assert problem.domain == (0.0, 1.0)
    assert problem.truncation == 7
    assert len(problem.bcs) == 2
    assert exact is not None
    assert exact(0.0) == pytest.approx(0.0, abs=1e-12)
    assert exact(1.0) == pytest.approx(5.0, abs=1e-12)


def test_load_problem_file_defaults(tmp_path):
    # coeff[order] defaults to 1, other omitted coefficients to 0, no exact
    text = "order = 2\ninterval = 0 1\nrhs = 1\nbc = left 0 0\nbc = right 0 0\nn = 5\n"
    problem, exact = load_problem_file(write_problem(tmp_path, text))
    assert list(problem.coefficients) == [0.0, 0.0, 1.0]
    assert exact is None


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t + "foo = 1\n", "unknown key"),
        (lambda t: t + "order = 2\n", "duplicate key"),
        (lambda t: t + "coeff[1] = 0\n", "duplicate key"),
        (lambda t: t + "coeff[5] = 1\n", "exceeds the problem order"),
        (lambda t: t + "bc = left 1 0\n", "bc lines"),
        (lambda t: t.replace("bc = right 0 5\n", ""), "bc lines"),
        (lambda t: t.replace("rhs = exp(-x)\n", ""), "missing required key"),
        (lambda t: t.replace("order = 2", "order = two"), "not an integer"),
        (lambda t: t.replace("interval = 0 1", "interval = 0"), "two endpoints"),
        (lambda t: t.replace("bc = left 0 0", "bc = middle 0 0"), "left or right"),
        (lambda t: t.replace("bc = left 0 0", "bc = left zero 0"), "not numeric"),
        (lambda t: t.replace("rhs = exp(-x)", "rhs = foo(x)"), "rhs:"),
        (lambda t: t.replace("rhs = exp(-x)", "rhs = 1e400"), "rhs: number out of range"),
        (lambda t: t.replace("order = 2", "order: 2"), "expected 'key = value'"),
    ],
)
def test_load_problem_file_errors(tmp_path, mangle, fragment):
    path = write_problem(tmp_path, mangle(EX1_FILE))
    with pytest.raises(ProblemFileError, match=fragment):
        load_problem_file(path)


# ------------------------------------------------------------------ solve

def test_solve_command_reports_errors_and_coefficients(tmp_path, capsys):
    rc = main(["solve", write_problem(tmp_path, EX1_FILE)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    fields = stdout_fields(captured.out)
    assert fields["n"] == "7"
    assert int(fields["degree"]) <= 9
    assert float(fields["c[0]"]) == pytest.approx(0.0, abs=1e-10)
    assert float(fields["bc_residual_max"]) <= 1e-9
    assert float(fields["max_abs_error"]) <= 5e-5
    assert "warning" not in fields


def test_solve_csv_with_exact_column(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    rc = main(
        ["solve", write_problem(tmp_path, EX1_FILE), "--grid", "11",
         "--csv", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y_approx,y_exact,abs_err"
    assert len(lines) == 12
    for line in lines[1:]:
        x, ya, ye, err = (float(v) for v in line.split(","))
        assert 0.0 <= x <= 1.0
        assert err == abs(ya - ye)  # %.17g round-trips doubles exactly
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == 1.0


def test_solve_csv_without_exact(tmp_path, capsys):
    text = "order = 2\ninterval = 0 1\nrhs = 1\nbc = left 0 0\nbc = right 0 0\nn = 5\n"
    out = tmp_path / "sol.csv"
    rc = main(["solve", write_problem(tmp_path, text), "--grid", "5",
               "--csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "max_abs_error" not in captured.out
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y_approx"
    assert len(lines) == 6


def test_solve_failure_writes_no_csv(tmp_path, capsys):
    bad = EX1_FILE.replace("bc = right 0 5\n", "")
    out = tmp_path / "sol.csv"
    rc = main(["solve", write_problem(tmp_path, bad), "--csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


SQRT_FILE = """\
# y = (0.6-x)^(5/2); rhs and exact are undefined past x1
order = 2
interval = -0.19 0.6
rhs = 3.75*sqrt(0.6-x)
bc = left 0 0.5547122135846659
bc = right 0 0
n = 8
exact = sqrt(0.6-x)*(0.6-x)^2
"""


def test_solve_report_grid_ends_at_x1(tmp_path, capsys):
    # -0.19 + 0.79 * i/(N-1) rounds to 0.6000000000000001 at i = N-1 for the
    # 201-point diagnostics grid and the 1001-point report grid alike
    out = tmp_path / "sol.csv"
    rc = main(["solve", write_problem(tmp_path, SQRT_FILE), "--csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert float(stdout_fields(captured.out)["max_abs_error"]) <= 1e-4
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1002
    assert float(lines[1].split(",")[0]) == -0.19
    assert float(lines[-1].split(",")[0]) == 0.6


@pytest.mark.parametrize("points", [1, 0, -3])
def test_solve_rejects_a_grid_below_two_points(tmp_path, capsys, points):
    out = tmp_path / "sol.csv"
    for text in (EX1_FILE, EX1_FILE.replace("exact = ", "# exact = ")):
        rc = main(["solve", write_problem(tmp_path, text), "--grid", str(points),
                   "--csv", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: grid needs at least 2 points, got %d\n" % points
        assert not out.exists()


ORDER9_FILE = "order = 9\ninterval = 0 1\nrhs = 1\nn = 5\n" + "".join(
    "bc = left %d 0\n" % d for d in range(9)
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        (ORDER9_FILE.replace("interval = 0 1", "interval = 0 1e-40"),
         "interval width 1e-40 .* order-9 problem"),
        (EX1_FILE.replace("interval = 0 1", "interval = 0 1e200"),
         "interval width 1e\\+200 .* order-2 problem"),
        (EX1_FILE.replace("order = 2", "order = -1"), "order must be at least 1, got -1"),
        (EX1_FILE.replace("order = 2", "order = 0"), "order must be at least 1, got 0"),
        (EX1_FILE.replace("interval = 0 1", "interval = 0 1e10").replace(
            "bc = right 0 5", "bc = right 1 1e300"),
         "interval width 10000000000.0 .* order-2 problem"),
    ],
    ids=["width-1e-40", "width-1e200", "order-1", "order0", "bc-value-overflow"],
)
def test_solve_rejects_bad_order_or_width_in_one_line(tmp_path, capsys, text, fragment):
    rc = main(["solve", write_problem(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert re.match("error: .*" + fragment, captured.err)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "coeffs, rhs, message",
    [(("1.7e308", "1.7e308"), "cos(x)", "non-finite entry inf in matrix"),
     (("1", "0"), "1.7e308", "the refinement residual overflowed the double range")],
    ids=["system", "residual"],
)
def test_solve_reports_overflow_in_one_line(tmp_path, capsys, coeffs, rhs, message):
    text = (EX1_FILE.replace("coeff[0] = 6", "coeff[0] = " + coeffs[0])
            .replace("coeff[1] = -5", "coeff[1] = " + coeffs[1])
            .replace("rhs = exp(-x)", "rhs = " + rhs).replace("bc = right 0 5", "bc = right 0 1")
            .replace("exact = ", "# exact = "))
    rc = main(["solve", write_problem(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_solve_rejects_an_order_past_the_double_range_in_one_line(tmp_path, capsys):
    # (m-1)! leaves the double range for m > 171, which the endpoint rows divide by
    text = "order = 180\ninterval = 0 1\nrhs = 1\nn = 5\n" + "".join(
        "bc = %s %d 0\n" % ("right" if d % 2 else "left", d) for d in range(180))
    path = write_problem(tmp_path, text)
    rc = main(["solve", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: %s: problem order 180 outside supported range 1..171\n" % path)


def test_bc_count_is_checked_before_the_order_sizes_anything(tmp_path, capsys):
    text = EX1_FILE.replace("order = 2", "order = 5000000").replace("bc = right 0 5\n", "")
    path = write_problem(tmp_path, text)
    tracemalloc.start()
    try:
        rc = main(["solve", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: %s: order-5000000 problem needs exactly 5000000 bc lines, got 1\n" % path)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "bc, fragment",
    [("left 0 nan", "boundary value must be finite"),
     ("left -1 0", "derivative order must be a non-negative integer")],
    ids=["value-nan", "order-1"],
)
def test_solve_bad_bc_names_its_line(tmp_path, capsys, bc, fragment):
    path = write_problem(tmp_path, EX1_FILE.replace("bc = left 0 0", "bc = " + bc))
    rc = main(["solve", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: %s:8: %s\n" % (path, fragment)


@pytest.mark.parametrize(
    "rhs, offset",
    [("(" * 400 + "x" + ")" * 400, 64), ("+".join(["x"] * 2000), 127)],
    ids=["parentheses", "sum"],
)
def test_solve_refuses_deep_nesting_on_its_line(tmp_path, capsys, rhs, offset):
    path = write_problem(tmp_path, EX1_FILE.replace("rhs = exp(-x)", "rhs = " + rhs))
    rc = main(["solve", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: %s:7: rhs: expression nested deeper than 64 levels at offset %d\n"
        % (path, offset))


def test_solve_missing_file(capsys):
    rc = main(["solve", "/no/such/problem.txt"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")


# ------------------------------------------------------------- benchmarks

def test_paper_table_all_examples_pass(capsys):
    rc = main(["paper"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 0
    assert lines[0] == "example  n   max_abs_error  claimed  threshold  status"
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "7"), ("1", "10"),
        ("2", "7"), ("2", "12"),
        ("3", "9"), ("3", "11"),
        ("4", "7"), ("4", "10"),
    ]
    for r in rows:
        assert r[-1] == "PASS"
        assert float(r[2]) <= float(r[4])


def test_paper_table_evaluates_each_rhs_only_at_its_projection_nodes(monkeypatch, capsys):
    """The table reads only the solution polynomials, so each of its 8
    solves evaluates the rhs at the 32 nodes of its projection and on no
    diagnostics grid."""
    compile_function = cli.compile_function
    points = []

    def counted(src):
        f = compile_function(src)
        return lambda x: points.append(x) or f(x)

    monkeypatch.setattr(cli, "compile_function", counted)
    assert main(["paper", "--example", "all"]) == 0
    capsys.readouterr()
    assert len(points) == 8 * 32


# sha256 of each file `paper --example all --csv-dir` writes: the grid
# comparison behind the table must keep every CSV byte.
PAPER_CSV_SHA256 = {
    "example1_n7.csv": "9e394f654942b551dd8980f3c82c168dcc70a5a68bf540164bbad56da75c7a8e",
    "example1_n10.csv": "ebd14c5a4524c801e88721c1970636cc5119a478312bfba36af64015bc580711",
    "example2_n7.csv": "b3750e2ff4ec4866ce311f56b8cf1b80f0f95420d15f3d410707533982bf821b",
    "example2_n12.csv": "9594897414dce16192a0d5a20c80e43ec290cf9f778ce8c5bafd4dde72f21fc9",
    "example3_n9.csv": "db55b10fc06feeb19e3635eb6ae3a09a3335b7e27d0d3c668ce8298e7b4c67a4",
    "example3_n11.csv": "fb050dc93930eae66d0498545e5569a7e8a9807c75b03bc3228dddac9a776a8b",
    "example4_n7.csv": "c29cb98ff0929f1b81a6f61fed57db1754bdd5060e8ea3afb486855b9ce646f6",
    "example4_n10.csv": "b3d3717e41349774a7a43f1fc62e0145410349a7c019358381ab2cb6f4c39e01",
}


def test_paper_csv_dir_writes_deterministic_files(tmp_path, capsys):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(["paper", "--example", "all", "--csv-dir", str(d1)]) == 0
    assert main(["paper", "--example", "all", "--csv-dir", str(d2)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(d1))
    assert names == sorted(PAPER_CSV_SHA256)
    for name in names:
        first = (d1 / name).read_bytes()
        second = (d2 / name).read_bytes()
        assert first == second
        header = first.decode("utf-8").splitlines()[0]
        assert header == "x,y_approx,y_exact,abs_err"
        assert len(first.decode("utf-8").splitlines()) == 1002
        assert hashlib.sha256(first).hexdigest() == PAPER_CSV_SHA256[name], name


def test_example_fixtures_accessible():
    assert example_problem(2, 12).order == 9
    y = example_exact(4)
    assert y(0.5) == pytest.approx(0.5 * math.exp(0.5), abs=1e-12)


# -------------------------------------------------------------- basis dump

def test_basis_csv_rows(capsys):
    rc = main(["basis", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "1,0,0,0,0,0"  # constant function, zero-padded
    row5 = [float(v) for v in lines[5].split(",")]
    want = [math.sqrt(11) * c for c in (-1, 30, -210, 560, -630, 252)]
    for got, ref in zip(row5, want):
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_basis_degree_zero(capsys):
    rc = main(["basis", "0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "1\n"


def test_opmatrix_fixture(capsys):
    rc = main(["opmatrix", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = [[float(v) for v in line.split(",")] for line in captured.out.splitlines()]
    s = 1.0 / (2.0 * math.sqrt(3.0))
    assert rows == [[0.5, s], [-s, 0.0]]


# ------------------------------------------------------------------ approx

def test_approx_reports_coefficients_and_errors(capsys):
    rc = main(["approx", "exp(x)", "--n", "6"])
    captured = capsys.readouterr()
    assert rc == 0
    fields = stdout_fields(captured.out)
    assert float(fields["c[0]"]) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert float(fields["max_abs_error"]) <= 1e-5
    assert float(fields["l2_error_estimate"]) >= 0.0


def test_approx_quadrature_override_and_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    rc = main(["approx", "x^2", "--n", "4", "--q", "8", "--grid", "21",
               "--csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    fields = stdout_fields(captured.out)
    assert float(fields["max_abs_error"]) <= 1e-13
    assert abs(float(fields["c[3]"])) <= 1e-14
    assert abs(float(fields["c[4]"])) <= 1e-14
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,f,f_approx,abs_err"
    assert len(lines) == 22


def test_approx_rejects_weak_rule(capsys):
    rc = main(["approx", "x", "--n", "10", "--q", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not exact" in captured.err


@pytest.mark.parametrize("q", ["0", "-3", "129"])
def test_approx_rejects_a_quadrature_size_out_of_range(capsys, q):
    # the range is checked before the rule's exactness, which q = 0 would fail too
    rc = main(["approx", "x", "--n", "10", "--q", q])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: quadrature size %s outside supported range 1..128\n" % q


@pytest.mark.parametrize("points", [1, 0])
def test_approx_rejects_a_grid_below_two_points(tmp_path, capsys, points):
    out = tmp_path / "fit.csv"
    rc = main(["approx", "x", "--grid", str(points), "--csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: grid needs at least 2 points, got %d\n" % points
    assert not out.exists()


# ----------------------------------------------------------- pinned dumps

# A third-order problem on a mapped domain with no exact key, so its CSV has
# only x,y_approx rows.
MAPPED_FILE = """\
order = 3
interval = -0.5 2
coeff[0] = 2
coeff[1] = -1
coeff[2] = 0.5
rhs = sin(3*x) + x^2
bc = left 0 1
bc = left 1 0
bc = right 0 -0.25
n = 12
"""

PROBLEM_FILES = {"ex1.txt": EX1_FILE, "mapped.txt": MAPPED_FILE}


def problem_args(tmp_path, argv):
    """argv with each problem-file name written to disk and replaced by its path."""
    return [
        write_problem(tmp_path, PROBLEM_FILES[a], a) if a in PROBLEM_FILES else a
        for a in argv
    ]


# sha256 of the stdout of each command.  The basis, Theta and projection
# code behind these dumps, and the solver and example-3 reference behind
# the paper table, must keep every printed digit.
DUMP_SHA256 = {
    ("basis", "30"): "551d7409081d310d0275e66eb3db210ad5ea121a2a397e555cba26c1b8946742",
    ("opmatrix", "12"): "6ccbb82139d9800ace81c3c575b32db5a588ddde0c5586be0e2775769985085d",
    ("approx", "exp(x)", "--n", "10"):
        "3630be2bb4b7be349b2025e7d9ddfed3ba93768cd01149bc2ceae11d059ee1a0",
    ("approx", "exp(x)", "--n", "10", "--q", "40"):
        "6d36e69c258232224a4f854390ea8b912698c8db6f8b17354bc71f272fd7e710",
    ("approx", "exp(x)", "--n", "30"):
        "4e359699aef48f830d69b4012d66b56e487486717dc6bbd82c091a59b9c784c2",
    ("paper", "--example", "all"):
        "8c4418ca0aefc15265daf3ac232655403e3667d931c874156dcd44f920173075",
    # residual_max, bc_residual_max and max_abs_error to 17 digits
    ("solve", "ex1.txt", "--grid", "101"):
        "ff10f0f334aad687212909dca6c2861ea226c04000f0d46127d25236c2cae8f5",
}


@pytest.mark.parametrize("argv", sorted(DUMP_SHA256), ids=" ".join)
def test_dumps_are_byte_identical(argv, tmp_path, capsys):
    rc = main(problem_args(tmp_path, argv))
    captured = capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DUMP_SHA256[argv]


# sha256 of the CSV that `solve --csv` (with and without an exact solution)
# and `approx --csv` write.
CSV_SHA256 = {
    ("solve", "ex1.txt", "--grid", "101"):
        "69010c5aabbcfdfbe5dd4f82664329496fda0c391af2713d65603f3e63746749",
    ("solve", "mapped.txt", "--grid", "101"):
        "de2045aea6743abf14ba3ad0064891f8260763b49c43e0531cb3c4e8416cdc3f",
    ("approx", "exp(-x)*sin(3*x)", "--n", "10"):
        "866aa759c9847aecbede01617d366b25e9e0e812281b7a3db2dced65dc413d36",
}


@pytest.mark.parametrize("argv", sorted(CSV_SHA256), ids=" ".join)
def test_csv_files_are_byte_identical(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(problem_args(tmp_path, argv) + ["--csv", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[argv]


# ------------------------------------------------------------- error paths

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["basis"],
        ["basis", "forty"],
        ["paper", "--example", "7"],
        ["frobnicate"],
    ],
)
def test_usage_errors_are_one_stderr_line(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: invalid usage:")
    assert captured.err.count("\n") == 1


def test_basis_out_of_range_is_reported(capsys):
    rc = main(["basis", "31"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
