"""Expression language: parsing, printing, evaluation, and error reporting.

eval_expr below is the reference semantics: a plain walk of the parsed
tree.  compile_function must give its values bit for bit and its
exceptions type for type and message for message.
"""

import ast
import math
from pathlib import Path
import random
import sys

import pytest

from polybvp import exprparse
from polybvp.exprparse import (
    CONSTANTS,
    FUNCTIONS,
    MAX_DEPTH,
    ExprEvalError,
    ExprSyntaxError,
    compile_function,
    parse,
    pretty_print,
)


def eval_expr(e, x):
    """Evaluate at x; domain violations raise ExprEvalError, never NaN/inf."""
    tag = e[0]
    if tag == "num":
        return e[1]
    if tag == "var":
        return x
    if tag == "const":
        return CONSTANTS[e[1]]
    if tag == "neg":
        return -eval_expr(e[1], x)
    if tag == "call":
        arg = eval_expr(e[2], x)
        name = e[1]
        if name == "log" and arg <= 0.0:
            raise ExprEvalError(
                "log of non-positive value in '%s' at x=%.17g" % (pretty_print(e), x)
            )
        if name == "sqrt" and arg < 0.0:
            raise ExprEvalError(
                "square root of negative value in '%s' at x=%.17g" % (pretty_print(e), x)
            )
        try:
            return FUNCTIONS[name](arg)
        except (OverflowError, ValueError) as exc:
            raise ExprEvalError(
                "cannot evaluate '%s' at x=%.17g: %s" % (pretty_print(e), x, exc)
            ) from None
    if tag not in ("add", "sub", "mul", "div", "pow"):
        raise ValueError("corrupt expression node %r" % (e,))
    a = eval_expr(e[1], x)
    b = eval_expr(e[2], x)
    if tag == "add":
        v = a + b
    elif tag == "sub":
        v = a - b
    elif tag == "mul":
        v = a * b
    elif tag == "div":
        if b == 0.0:
            raise ExprEvalError(
                "division by zero in '%s' at x=%.17g" % (pretty_print(e), x)
            )
        v = a / b
    else:
        try:
            v = a**b
        except (OverflowError, ZeroDivisionError, ValueError):
            raise ExprEvalError(
                "cannot evaluate '%s' at x=%.17g" % (pretty_print(e), x)
            ) from None
        if isinstance(v, complex):
            raise ExprEvalError(
                "non-real power in '%s' at x=%.17g" % (pretty_print(e), x)
            )
    if not math.isfinite(v):
        raise ExprEvalError(
            "overflow in '%s' at x=%.17g" % (pretty_print(e), x)
        )
    return v


def outcome(f, x):
    """f(x) as (float, hex) or as (exception type, message)."""
    try:
        v = f(x)
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)
    return type(v), v.hex()


def reference(src):
    tree = parse(src)
    return lambda x: eval_expr(tree, x)


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
    assert compile_function("tan(x)")(0.0) == 0.0
    assert compile_function("-9*exp(x)")(0.0) == -9.0
    assert compile_function("(1-x)*exp(x)")(1.0) == 0.0


def test_precedence():
    assert compile_function("1+2*3^2")(0.0) == 19.0
    # ^ binds tighter than unary minus
    assert compile_function("-x^2")(3.0) == -9.0
    assert compile_function("(-x)^2")(3.0) == 9.0


def test_power_right_associative():
    assert compile_function("2^3^2")(0.0) == 512.0


def test_constants():
    assert compile_function("pi")(0.0) == math.pi
    assert compile_function("2*e")(0.0) == 2.0 * math.e


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
        compile_function("1/x")(0.0)


def test_log_domain():
    with pytest.raises(ExprEvalError, match="log"):
        compile_function("log(x)")(0.0)
    with pytest.raises(ExprEvalError):
        compile_function("log(x)")(-1.0)


def test_sqrt_domain():
    with pytest.raises(ExprEvalError, match="square root"):
        compile_function("sqrt(x-1)")(0.0)


def test_nonreal_power():
    with pytest.raises(ExprEvalError):
        compile_function("x^0.5")(-1.0)


def test_overflow_raises_instead_of_inf():
    with pytest.raises(ExprEvalError):
        compile_function("exp(x)")(1e6)


def test_compile_function():
    src = "(x-3)*exp(x)"
    f, ref = compile_function(src), reference(src)
    for x in (0.0, 0.5, 1.0):
        assert f(x).hex() == ref(x).hex() == ((x - 3.0) * math.exp(x)).hex()


def test_whitespace_insensitive():
    assert parse(" 1 + 2 * x ") == parse("1+2*x")


# ------------------------------------------- compiled closures vs reference

EDGE_POINTS = (
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.5, 1e-300, -1e-300,
    math.pi / 2, -math.pi / 2, 3 * math.pi / 2,  # poles of tan, to rounding
    709.0, 710.0, -746.0, 1e154, 1e300, -1e308,  # exp, square and product overflow
)


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS + [
    "1/(x-x)", "x^x", "x*x", "0^(-1)", "(-8)^(1/3)", "10^400", "exp(1000)",
    "x+log(0)", "sqrt(-1)*x", "1e300*x*x", "abs(x)^0.5", "log(x)^2", "x-x",
])
def test_compiled_matches_reference(src):
    f, ref = compile_function(src), reference(src)
    for x in EDGE_POINTS:
        assert outcome(f, x) == outcome(ref, x), x


def test_error_messages_name_the_sub_expression_and_x():
    cases = [
        ("1+1/x", 0.0, "division by zero in '1.0/x' at x=0"),
        ("2*log(x-1)", 1.0, "log of non-positive value in 'log(x-1.0)' at x=1"),
        ("sqrt(x)+1", -0.5, "square root of negative value in 'sqrt(x)' at x=-0.5"),
        ("1+x^0.5", -4.0, "non-real power in 'x^0.5' at x=-4"),
        ("x+0^x", -1.0, "cannot evaluate '0.0^x' at x=-1"),
        ("exp(x)-1", 1e6, "cannot evaluate 'exp(x)' at x=1000000: math range error"),
        ("1+x*x", 1e200, "overflow in 'x*x' at x=9.9999999999999997e+199"),
        ("x+1/0", 2.0, "division by zero in '1.0/0.0' at x=2"),
    ]
    for src, x, message in cases:
        with pytest.raises(ExprEvalError) as err:
            compile_function(src)(x)
        assert str(err.value) == message


_NUMBERS = (0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 1e-300, 1e300)
_BINARY_TAGS = ("add", "sub", "mul", "div", "pow")


def random_tree(rng, depth):
    """A random tree of at most depth levels over the whole grammar."""
    if depth == 1 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.45:
            return ("var",)
        if pick < 0.85:
            return ("num", rng.choice(_NUMBERS) if rng.random() < 0.5 else rng.uniform(0.0, 4.0))
        return ("const", rng.choice(sorted(CONSTANTS)))
    pick = rng.random()
    if pick < 0.15:
        return ("neg", random_tree(rng, depth - 1))
    if pick < 0.4:
        return ("call", rng.choice(sorted(FUNCTIONS)), random_tree(rng, depth - 1))
    return (rng.choice(_BINARY_TAGS), random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_fuzzed_trees_match_reference_bit_for_bit():
    rng = random.Random(1717)
    seen = set()
    for _ in range(2000):
        src = pretty_print(random_tree(rng, rng.randint(1, 6)))
        f, ref = compile_function(src), reference(src)
        for x in EDGE_POINTS:
            want = outcome(ref, x)
            assert outcome(f, x) == want, (src, x)
            seen.add("value" if want[0] is float else want[1].split(" '")[0])
    # every outcome of every check is exercised
    assert seen == {
        "value", "overflow in", "division by zero in", "non-real power in", "cannot evaluate",
        "log of non-positive value in", "square root of negative value in",
    }


def test_exprparse_evaluates_no_python_source():
    forbidden = {"eval", "exec", "compile", "__import__"}
    tree = ast.parse(Path(exprparse.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert node.id not in forbidden, node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in forbidden:
            # re.compile builds the tokenizer's pattern, not code
            assert (ast.unparse(node.value), node.attr) == ("re", "compile"), node.lineno


# ------------------------------------------------------------ nesting limit

DEEP = {
    "parentheses": "(" * 400 + "x" + ")" * 400,
    "negations": "-" * 2000 + "x",
    "sum": "+".join(["x"] * 2000),
}


@pytest.mark.parametrize("src", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_a_syntax_error(src):
    with pytest.raises(ExprSyntaxError) as err:
        compile_function(src)
    assert str(err.value).startswith("expression nested deeper than %d levels at offset" % MAX_DEPTH)
    assert 0 <= err.value.offset <= len(src)


def _at_limit():
    """Accepted expressions as deep as MAX_DEPTH allows, one per kind of nesting."""
    k = MAX_DEPTH - 1
    return {
        "parentheses": "(" * k + "x" + ")" * k,
        "negations": "-" * k + "x",
        "sum": "+".join(["x"] * MAX_DEPTH),
        "calls": "abs(" * k + "x" + ")" * k,
        "powers": "^".join(["x"] * MAX_DEPTH),
    }


@pytest.mark.parametrize("kind", sorted(_at_limit()))
def test_nesting_limit_is_exact(kind):
    src = _at_limit()[kind]
    assert outcome(compile_function(src), 1.0) == outcome(reference(src), 1.0)
    over = {"parentheses": "(" + src + ")", "negations": "-" + src, "sum": src + "+x",
            "calls": "abs(" + src + ")", "powers": "x^" + src}[kind]
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(over)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deepest_expressions_stay_far_inside_the_recursion_limit():
    # half of the default limit of 1000 frames is left for the callers
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 500)
    try:
        for src in _at_limit().values():
            tree = parse(src)
            assert parse(pretty_print(tree)) == tree
            assert outcome(compile_function(src), -0.5) == outcome(reference(src), -0.5)
    finally:
        sys.setrecursionlimit(limit)
