"""A small expression language for right-hand sides and exact solutions.

Grammar (lowest precedence first):

    expr   = term  { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = "-" unary | power
    power  = atom [ "^" unary ]          (right-associative)
    atom   = NUMBER | "x" | "pi" | "e" | FUNC "(" expr ")" | "(" expr ")"

"^" binds tighter than unary minus, so -x^2 is -(x^2).  The function set is
closed: exp, sin, cos, tan, log, sqrt, abs.  Evaluation raises instead of
propagating non-finite values -- a singular right-hand side has to abort a
solve loudly.
"""

import math
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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val == "x":
                return ("var",)
            if val in CONSTANTS:
                return ("const", val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
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
    node = p.expr()
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


def compile_function(src):
    """Parse once, return a float -> float evaluator."""
    tree = parse(src)
    return lambda x: eval_expr(tree, x)
