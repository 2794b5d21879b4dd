"""Tiny arithmetic expression grammar for user-supplied nonlinearities.

Grammar (vectorized over numpy arrays, variable t):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?                 # right associative
    atom   := NUMBER | 't' | '(' expr ')'
            | 'abs' '(' expr ')' | 'ln' '(' expr ')' | 'exp' '(' expr ')'
            | 'piecewise' '(' cond ',' expr ',' expr ')'
    cond   := expr ('<='|'<'|'>='|'>') expr

Example: the piecewise critical nonlinearity for N = 5,

    piecewise(abs(t) <= 1, abs(t)^(4/3)*t, abs(t)^1.2*t)
"""

from __future__ import annotations

import re

import numpy as np

from .nonlinearity import power


class ExpressionError(ValueError):
    """Malformed expression."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[-+*/^(),<>]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character at {text[pos:pos + 8]!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    _FUNCS = {"abs", "ln", "exp", "piecewise"}

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {value or kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ExpressionError(f"expected {value!r}, found {tok[1]!r}")
        self.k += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (lambda a, b: lambda t: a(t) + b(t))(node, rhs) if op == "+" \
                else (lambda a, b: lambda t: a(t) - b(t))(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            if op == "*":
                node = (lambda a, b: lambda t: a(t) * b(t))(node, rhs)
            else:
                node = (lambda a, b: lambda t: _div(a(t), b(t)))(node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return (lambda a: lambda t: -a(t))(inner)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.unary()
            p = getattr(exponent, "constant", None)
            return (lambda a, b: lambda t: _pow(a(t), b(t), p))(base, exponent)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            node = (lambda v: lambda t: np.full_like(np.asarray(t, float), v))(value)
            node.constant = value
            return node
        if kind == "name":
            self.take()
            if value == "t":
                return lambda t: np.asarray(t, dtype=float)
            if value in self._FUNCS:
                self.take("op", "(")
                if value == "piecewise":
                    cond = self.cond()
                    self.take("op", ",")
                    then = self.expr()
                    self.take("op", ",")
                    other = self.expr()
                    self.take("op", ")")
                    return (lambda c, a, b: lambda t: np.where(c(t), a(t), b(t)))(
                        cond, then, other
                    )
                inner = self.expr()
                self.take("op", ")")
                if value == "abs":
                    return (lambda a: lambda t: np.abs(a(t)))(inner)
                if value == "ln":
                    return (lambda a: lambda t: _ln(a(t)))(inner)
                return (lambda a: lambda t: np.exp(np.minimum(a(t), 700.0)))(inner)
            raise ExpressionError(f"unknown identifier {value!r}")
        if (kind, value) == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")

    def cond(self):
        lhs = self.expr()
        kind, op = self.peek()
        if kind != "op" or op not in ("<=", "<", ">=", ">"):
            raise ExpressionError(f"expected comparison in piecewise, found {op!r}")
        self.take()
        rhs = self.expr()
        table = {
            "<=": lambda a, b: a <= b,
            "<": lambda a, b: a < b,
            ">=": lambda a, b: a >= b,
            ">": lambda a, b: a > b,
        }
        cmp = table[op]
        return (lambda a, b, c: lambda t: c(a(t), b(t)))(lhs, rhs, cmp)


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


def compile_expression(text: str):
    """Compile an expression of t into a vectorized callable."""
    fn = _Parser(text).parse()

    def wrapped(t):
        return fn(np.asarray(t, dtype=float))

    return wrapped
