"""A small expression language for right-hand sides and exact solutions.

Grammar (lowest precedence first):

    expr   = term  { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]          (right-associative)
    atom   = NUMBER | "x" | "pi" | "e" | FUNC "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, so -x^2 is -(x^2).  The function set is
closed: exp, sin, cos, tan, log, sqrt, abs.  Trees and parser nesting are
bounded by MAX_DEPTH levels, so parsing, compiling, evaluating and printing
stay far inside the interpreter's recursion limit.

compile_function parses once and compiles the tree to nested closures; the
compiler section below describes them.  No Python source is generated or
evaluated.
"""

from functools import partial
import math
from math import isfinite
import operator
import re

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

# Deepest tree, and deepest parser nesting (parentheses, calls, unary minus,
# exponents), that parse accepts.  A level of parentheses costs the parser
# five frames, so 64 levels stay far inside the default recursion limit.
MAX_DEPTH = 64


class ExprSyntaxError(ValueError):
    """Parse failure; offset is the 0-based position in the source text."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__("%s at offset %d" % (message, offset))


class ExprEvalError(ValueError):
    """Domain violation during evaluation, naming the failing sub-expression."""


_TOKEN = re.compile(
    r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|([-+*/^()]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if not m:
            raise ExprSyntaxError("unexpected character %r" % src[pos], pos)
        if m.group(1) is not None:
            value = float(m.group(1))
            if math.isinf(value):
                raise ExprSyntaxError("number out of range", m.start(1))
            tokens.append(("num", value, m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


def _deeper(depth, offset):
    """depth + 1, refused past MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError("expression nested deeper than %d levels" % MAX_DEPTH, offset)
    return depth + 1


class _Parser:
    """Recursive descent; each rule returns (tree, depth of the tree)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.level = 0  # open unary rules: the parser's nesting

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            if op == ")":
                raise ExprSyntaxError("unbalanced parenthesis", off)
            raise ExprSyntaxError("expected '%s'" % op, off)
        return self.take()

    def expr(self):
        node, depth = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs, d = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
                depth = _deeper(max(depth, d), off)
            else:
                return node, depth

    def term(self):
        node, depth = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs, d = self.unary()
                node = ("mul" if val == "*" else "div", node, rhs)
                depth = _deeper(max(depth, d), off)
            else:
                return node, depth

    def unary(self):
        kind, val, off = self.peek()
        self.level = _deeper(self.level, off)
        if kind == "op" and val == "-":
            self.take()
            node, depth = self.unary()
            node, depth = ("neg", node), _deeper(depth, off)
        else:
            node, depth = self.power()
        self.level -= 1
        return node, depth

    def power(self):
        base, depth = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exponent, d = self.unary()
            return ("pow", base, exponent), _deeper(max(depth, d), off)
        return base, depth

    def atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return ("num", val), 1
        if kind == "name":
            if val == "x":
                return ("var",), 1
            if val in CONSTANTS:
                return ("const", val), 1
            if val in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr()
                self.expect_op(")")
                return ("call", val, arg), _deeper(depth, off)
            raise ExprSyntaxError("unknown identifier '%s'" % val, off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "unbalanced parenthesis" if (kind, val) == ("op", ")") else "expected a value",
            off,
        )


def parse(src):
    """Parse source text to an expression tree (nested tags tuples)."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(_tokenize(src))
    node, _ = p.expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input %r" % str(val), off)
    return node


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def pretty_print(e):
    """Render a tree back to source text that re-parses identically."""

    def prec(node):
        return _PREC.get(node[0], 5)

    def render(node):
        tag = node[0]
        if tag == "num":
            return repr(node[1])
        if tag == "var":
            return "x"
        if tag == "const":
            return node[1]
        if tag == "call":
            return "%s(%s)" % (node[1], render(node[2]))
        if tag == "neg":
            inner = render(node[1])
            if prec(node[1]) < _PREC["neg"]:
                inner = "(%s)" % inner
            return "-" + inner
        lhs, rhs = node[1], node[2]
        me = _PREC[tag]
        ls = render(lhs)
        rs = render(rhs)
        if tag == "pow":
            # left operand of ^ must bind at atom level; exponent may be unary
            if prec(lhs) <= me:
                ls = "(%s)" % ls
            if prec(rhs) < _PREC["neg"]:
                rs = "(%s)" % rs
            return "%s^%s" % (ls, rs)
        if prec(lhs) < me:
            ls = "(%s)" % ls
        if prec(rhs) < me or (prec(rhs) == me and tag in ("sub", "div")):
            rs = "(%s)" % rs
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[tag]
        return "%s%s%s" % (ls, op, rs)

    return render(e)


# ----------------------------------------------------------------- compiler
#
# There is one closure per operator or call node.  A closure here is
# explicit: an evaluator node is a tuple whose first item is a shared
# function taking (node, x) and whose other items are what that function
# captures -- the operation, the operands, the source text and the node's
# path.  A tuple costs less than half of a function object with its
# defaults, and the parse tree is not kept.  Operands are folded: a float is
# a subtree without x, evaluated once here, and _X is x.
#
# Each evaluator does its node's float operation and checks in the order a
# node-by-node walk of the tree does them: ** for "^", the zero-divisor test
# before "/", the domain tests of log and sqrt, and a finiteness test after
# every binary node.  Evaluation raises instead of propagating non-finite
# values -- a singular right-hand side has to abort a solve loudly -- with a
# message that names the failing sub-expression and x.  The path is a
# binary number read after its leading 1, where 0 takes a binary node's left
# operand and 1 its right operand or a call's or negation's argument; with
# the source it names the node in an error message.  A domain rule broken
# inside an operation raises _Undefined with a message template, and the
# node's evaluator re-parses the source to name the sub-expression and adds x.

_OVERFLOW = "overflow in '%s' at x=%.17g"


class _Undefined(Exception):
    pass


def _fail(template, src, path, x, *detail):
    node = parse(src)
    for bit in bin(path)[3:]:
        node = node[-1] if bit == "1" else node[1]
    raise ExprEvalError(template % (pretty_print(node), x, *detail)) from None


def _divide(a, b):
    if b == 0.0:
        raise _Undefined("division by zero in '%s' at x=%.17g")
    return a / b


def _power(a, b):
    try:
        v = a**b
    except (OverflowError, ZeroDivisionError, ValueError):
        raise _Undefined("cannot evaluate '%s' at x=%.17g") from None
    if isinstance(v, complex):
        raise _Undefined("non-real power in '%s' at x=%.17g")
    return v


def _log(a):
    if a <= 0.0:
        raise _Undefined("log of non-positive value in '%s' at x=%.17g")
    return math.log(a)


def _sqrt(a):
    if a < 0.0:
        raise _Undefined("square root of negative value in '%s' at x=%.17g")
    return math.sqrt(a)


_OPERATIONS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _divide,
    "pow": _power,
}
_CALLS = {**FUNCTIONS, "log": _log, "sqrt": _sqrt}


def _constant(node, x):
    return node[1]


def _variable(node, x):
    return x


def _negated_variable(node, x):
    return -x


def _negation(node, x):
    f = node[1]
    return -f[0](f, x)


_X = (_variable,)


def _call(node, x):
    _, fn, f, src, path = node
    a = f[0](f, x)
    try:
        return fn(a)
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    except (OverflowError, ValueError) as exc:
        _fail("cannot evaluate '%s' at x=%.17g: %s", src, path, x, exc)


def _call_x(node, x):
    _, fn, src, path = node
    try:
        return fn(x)
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    except (OverflowError, ValueError) as exc:
        _fail("cannot evaluate '%s' at x=%.17g: %s", src, path, x, exc)


# Evaluators of a binary node (op, a, b, src, path).  _ff takes two nodes
# f and g and serves every operand shape; a float k or c, or x, is read in
# place only in the shapes (k, f), (k, x) and (x, c), the ones that
# expressions like 2*exp(3*x) and (x-3)*exp(x) are made of.


def _ff(node, x):
    _, op, f, g, src, path = node
    try:
        v = op(f[0](f, x), g[0](g, x))
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    if isfinite(v):
        return v
    _fail(_OVERFLOW, src, path, x)


def _kf(node, x):
    _, op, k, g, src, path = node
    try:
        v = op(k, g[0](g, x))
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    if isfinite(v):
        return v
    _fail(_OVERFLOW, src, path, x)


def _kx(node, x):
    _, op, k, _, src, path = node
    try:
        v = op(k, x)
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    if isfinite(v):
        return v
    _fail(_OVERFLOW, src, path, x)


def _xk(node, x):
    _, op, _, c, src, path = node
    try:
        v = op(x, c)
    except _Undefined as exc:
        _fail(exc.args[0], src, path, x)
    if isfinite(v):
        return v
    _fail(_OVERFLOW, src, path, x)


_BINARY = {"kf": _kf, "kx": _kx, "xk": _xk}


def _shape(c):
    return "k" if type(c) is float else "x" if c is _X else "f"


def _node(c):
    return (_constant, c) if type(c) is float else c


def _fold(f):
    """The value of node f, which has no x, or f itself if it raises: then
    it raises at every point."""
    try:
        return f[0](f, 0.0)
    except ExprEvalError:
        return f


def _compile(node, src, path):
    """node as a float if it has no x and evaluates, as _X if it is x, else
    as an evaluator node."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "const":
        return CONSTANTS[node[1]]
    if tag == "var":
        return _X
    if tag == "neg":
        a = _compile(node[1], src, 2 * path + 1)
        if type(a) is float:
            return -a
        return (_negated_variable,) if a is _X else (_negation, a)
    if tag == "call":
        a, fn = _compile(node[2], src, 2 * path + 1), _CALLS[node[1]]
        if a is _X:
            return (_call_x, fn, src, path)
        f = (_call, fn, _node(a), src, path)
        return _fold(f) if type(a) is float else f
    a, b = _compile(node[1], src, 2 * path), _compile(node[2], src, 2 * path + 1)
    shape = _shape(a) + _shape(b)
    if shape in _BINARY:
        return (_BINARY[shape], _OPERATIONS[tag], a, b, src, path)
    f = (_ff, _OPERATIONS[tag], _node(a), _node(b), src, path)
    return _fold(f) if shape == "kk" else f


def compile_function(src):
    """Parse once and compile; returns x -> float, with the values and error
    messages of evaluating the tree node by node."""
    root = _node(_compile(parse(src), src, 1))
    return partial(root[0], root)
