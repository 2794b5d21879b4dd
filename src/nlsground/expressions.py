"""Arithmetic expressions of t for user-supplied nonlinearities.

Python's expression grammar, read by ``ast.parse`` and cut down to the
variable t, vectorized over numpy arrays, with ``^`` for the power:

    t   NUMBER   (a)   -a   a + b   a - b   a * b   a / b   a ^ b
    abs(a)   ln(a)   exp(a)   piecewise(a < b, c, d)   (or <=, >, >=)

e.g. piecewise(abs(t) <= 1, abs(t)^(4/3)*t, abs(t)^1.2*t).  NUMBER is digits
with an optional fraction and exponent: 05 is 5, 1e999 is inf.  -t^2 is
-(t^2), 2^3^2 is 2^9, 2^-1 is 0.5.  Rejected: ``**``, a unary ``+``, ``==``,
a chained comparison or one outside piecewise's first argument, a trailing
comma, a tuple, any other name, and ``_`` or hex digits in a number.
Parentheses nest at most MAX_DEPTH = 200 deep, and so do operators and
calls: a sum of n terms nests n - 1 additions.
"""

import ast
import bisect
import operator
import re

import numpy as np

from .nonlinearity import power

MAX_DEPTH = 200  # bounds evaluation's recursion; CPython allows 200 nested parentheses


class ExpressionError(ValueError):
    """Malformed expression."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[-+*/^(),<>]))"
)


def _div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def _pow(a, b, p=None):
    """np.power(a, b); for a literal exponent p (b = p everywhere), through
    nonlinearity.power, which skips pow on lanes that underflow to +0.0."""
    with np.errstate(invalid="ignore", over="ignore"):
        if p is None:
            return np.power(a, b)
        return power(a, p, exponent=b)


def _ln(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(a)


_FUNCS = {"abs": np.abs, "ln": _ln, "exp": lambda a: np.exp(np.minimum(a, 700.0)),
          "piecewise": np.where}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: _div, ast.Pow: _pow}
_COMPARE = {ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
            ast.GtE: operator.ge}


class _Compiler:
    """Tokens rebuilt as Python source (``^`` as ``**``, a number as the repr of
    its value), parsed by ast.parse and compiled node by node into ``fn``."""

    def __init__(self, text: str):
        self.text, self.tokens = text, []  # (column in source, column in text, token)
        source, prev, depth, pos, end = "", None, 0, 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                col = len(text) - len(text[pos:].lstrip())
                self.fail(col, f"unexpected character {text[col]!r}")
            col, tok, pos = m.start(m.lastgroup), m.group(m.lastgroup), m.end()
            if m.lastgroup == "name" and tok not in _FUNCS and tok != "t":
                self.fail(col, f"unknown name {tok!r}")
            if prev in _FUNCS and tok != "(" or prev == "," and tok == ")":
                self.fail(col, f"unexpected {tok!r}")
            depth += (tok == "(") - (tok == ")")
            if depth > MAX_DEPTH:
                self.fail(col, f"parentheses nested deeper than {MAX_DEPTH} levels")
            self.tokens.append((len(source), col, tok))
            if m.lastgroup == "num":  # a repr reads back bit for bit; inf as 1e999
                tok = repr(float(tok)).replace("inf", "1e999")
            source += ("**" if tok == "^" else tok) + " "
            prev = tok
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:  # exc.offset: 1-based source column, 0 at the end
            if not exc.offset or depth > 0:
                self.fail(len(text), "unexpected end")
            _, col, tok = self.tokens[bisect.bisect_right(self.tokens, (exc.offset,)) - 1]
            self.fail(col, f"unexpected {tok!r}")
        except (RecursionError, MemoryError):  # CPython's parser, on chains thousands deep
            self.fail(0, f"nested deeper than {MAX_DEPTH} levels")
        self.fn = self.node(tree.body, 0)

    def fail(self, where, what: str):
        if isinstance(where, ast.AST):  # quote the node, first token to last
            first = bisect.bisect_left(self.tokens, (where.col_offset,))
            last = bisect.bisect_left(self.tokens, (where.end_col_offset,)) - 1
            (_, start, _), (_, col, tok) = self.tokens[first], self.tokens[last]
            what, where = f"{what} {self.text[start:col + len(tok)][:80]!r}", start
        shown = self.text if len(self.text) <= 80 else self.text[:77] + "..."
        raise ExpressionError(f"{what} at column {where + 1} of {shown!r}")

    def node(self, node, depth: int):
        if depth > MAX_DEPTH:
            self.fail(node, f"nested deeper than {MAX_DEPTH} levels:")
        sub = lambda n: self.node(n, depth + 1)  # noqa: E731
        if isinstance(node, ast.Constant):
            v = node.value
            return lambda t: np.full_like(t, v)
        if isinstance(node, ast.Name) and node.id == "t":
            return lambda t: t
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            a = sub(node.operand)
            return lambda t: -a(t)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op, a, b = _BINARY[type(node.op)], sub(node.left), sub(node.right)
            if op is _pow and isinstance(node.right, ast.Constant):
                p = node.right.value
                return lambda t: _pow(a(t), b(t), p)
            return lambda t: op(a(t), b(t))
        name = getattr(getattr(node, "func", None), "id", None)
        if name not in _FUNCS:
            self.fail(node, "unexpected")
        fn, arity = _FUNCS[name], 3 if name == "piecewise" else 1
        if len(node.args) != arity:
            self.fail(node, f"{name} takes {arity} argument{'s' * (arity > 1)}, not")
        if arity == 1:
            a = sub(node.args[0])
            return lambda t: fn(a(t))
        cond, a, b = node.args[0], sub(node.args[1]), sub(node.args[2])
        if len(getattr(cond, "ops", ())) != 1 or type(cond.ops[0]) not in _COMPARE:
            self.fail(cond, "expected a < b, a <= b, a > b or a >= b, not")
        cmp, lhs, rhs = _COMPARE[type(cond.ops[0])], sub(cond.left), sub(cond.comparators[0])
        return lambda t: fn(cmp(lhs(t), rhs(t)), a(t), b(t))


def compile_expression(text: str):
    """Compile an expression of t into a vectorized callable."""
    fn = _Compiler(text).fn
    return lambda t: fn(np.asarray(t, dtype=float))
