"""Expression language: parsing, printing, evaluation, and error reporting."""

import math

import pytest

from polybvp.exprparse import (
    ExprEvalError,
    ExprSyntaxError,
    compile_function,
    eval_expr,
    parse,
    pretty_print,
)

ROUND_TRIP_CORPUS = [
    "1",
    "2.5",
    "1e-3",
    ".5",
    "x",
    "pi",
    "e",
    "-x",
    "--x",
    "x+1",
    "x-1-2",
    "x*2+3",
    "2*(x+1)",
    "x/2/3",
    "1/(1+x)",
    "x^2",
    "2^3^2",
    "-x^2",
    "(-x)^2",
    "(x+1)^(x-1)",
    "exp(x)",
    "exp(-x)",
    "-9*exp(x)",
    "(x-3)*exp(x)",
    "(1-x)*exp(x)",
    "tan(x)",
    "sin(x)*cos(x)+1",
    "sqrt(abs(x-1/2))",
    "log(x+2)/log(2)",
    "1+2*3^2-4/5",
]


def test_parse_exp_of_negated_variable():
    assert parse("exp(-x)") == ("call", "exp", ("neg", ("var",)))


def test_parse_number_literal():
    assert parse("2") == ("num", 2.0)


def test_parse_product_fixture():
    want = ("mul", ("sub", ("var",), ("num", 3.0)), ("call", "exp", ("var",)))
    assert parse("(x-3)*exp(x)") == want


def test_eval_fixtures():
    assert eval_expr(parse("tan(x)"), 0.0) == 0.0
    assert eval_expr(parse("-9*exp(x)"), 0.0) == -9.0
    assert eval_expr(parse("(1-x)*exp(x)"), 1.0) == 0.0


def test_precedence():
    assert eval_expr(parse("1+2*3^2"), 0.0) == 19.0
    # ^ binds tighter than unary minus
    assert eval_expr(parse("-x^2"), 3.0) == -9.0
    assert eval_expr(parse("(-x)^2"), 3.0) == 9.0


def test_power_right_associative():
    assert eval_expr(parse("2^3^2"), 0.0) == 512.0


def test_constants():
    assert eval_expr(parse("pi"), 0.0) == math.pi
    assert eval_expr(parse("2*e"), 0.0) == 2.0 * math.e


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_pretty_print_round_trip(src):
    tree = parse(src)
    assert parse(pretty_print(tree)) == tree


@pytest.mark.parametrize(
    "src",
    ["y", "foo(x)", "(1+2", "1)", "1 2", "x+", "", "  ", "sin", "sin x", "1..2", "1e400"],
)
def test_syntax_errors_carry_offsets(src):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert 0 <= err.value.offset <= len(src)


def test_unknown_identifier_message():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("2*q")


def test_division_by_zero():
    with pytest.raises(ExprEvalError, match="division by zero"):
        eval_expr(parse("1/x"), 0.0)


def test_log_domain():
    with pytest.raises(ExprEvalError, match="log"):
        eval_expr(parse("log(x)"), 0.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse("log(x)"), -1.0)


def test_sqrt_domain():
    with pytest.raises(ExprEvalError, match="square root"):
        eval_expr(parse("sqrt(x-1)"), 0.0)


def test_nonreal_power():
    with pytest.raises(ExprEvalError):
        eval_expr(parse("x^0.5"), -1.0)


def test_overflow_raises_instead_of_inf():
    with pytest.raises(ExprEvalError):
        eval_expr(parse("exp(x)"), 1e6)


def test_compile_function():
    f = compile_function("(x-3)*exp(x)")
    for x in (0.0, 0.5, 1.0):
        assert f(x) == pytest.approx((x - 3.0) * math.exp(x), rel=1e-15)


def test_whitespace_insensitive():
    assert parse(" 1 + 2 * x ") == parse("1+2*x")
