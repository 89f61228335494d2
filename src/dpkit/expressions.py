"""A small arithmetic expression language for run configurations.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Recognized names are the coordinate variables ``x``, ``y``, the solution value
``s``, the gradient components ``xi1``, ``xi2``, the constant ``pi``, and the
functions ``sin``, ``cos``, ``exp``, ``abs``, ``log``.  Parsing produces a
vectorized numpy closure; evaluation broadcasts constants to the requested
sample count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expression", "parse_expression", "VARIABLES", "FUNCTIONS"]

VARIABLES = ("x", "y", "s", "xi1", "xi2")
FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "log": np.log,
}
_CONSTANTS = {"pi": np.pi}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(
                f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos} in {text!r}"
            )
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


@dataclass(frozen=True)
class Expression:
    """A compiled expression; call with keyword arrays for its variables."""

    source: str
    variables: frozenset
    _fn: object

    def __call__(self, n: int | None = None, **env) -> np.ndarray:
        missing = self.variables - set(env)
        if missing:
            raise ValueError(f"missing variables: {', '.join(sorted(missing))}")
        # inf and nan flow through to the callers' finiteness checks, which
        # name the element or field; numpy's own warnings would add nothing
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.asarray(self._fn(env), dtype=float)
        if out.ndim == 0:
            if n is None:
                for v in env.values():
                    arr = np.asarray(v)
                    if arr.ndim > 0:
                        n = arr.shape[0]
                        break
            if n is not None:
                out = np.full(n, float(out))
        return out


class _Parser:
    def __init__(self, text: str, allowed) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.allowed = allowed
        self.seen: set = set()

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r} at position {pos} in {self.text!r}")
        self.advance()

    def fail(self, what: str):
        kind, val, pos = self.peek()
        shown = val if val else "end of input"
        raise ValueError(f"expected {what}, found {shown!r} at position {pos} in {self.text!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail("end of expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            node = (
                (lambda a, b: lambda env: a(env) + b(env))
                if op == "+"
                else (lambda a, b: lambda env: a(env) - b(env))
            )(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.unary()
            node = (
                (lambda a, b: lambda env: a(env) * b(env))
                if op == "*"
                else (lambda a, b: lambda env: a(env) / b(env))
            )(node, rhs)
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            inner = self.unary()
            return lambda env: -inner(env)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            expo = self.unary()
            return lambda env: base(env) ** expo(env)
        return base

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            c = float(val)
            return lambda env: c
        if kind == "name":
            self.advance()
            if val in FUNCTIONS:
                fn = FUNCTIONS[val]
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda env: fn(arg(env))
            if val in _CONSTANTS:
                c = _CONSTANTS[val]
                return lambda env: c
            if val not in self.allowed:
                raise ValueError(
                    f"unknown name {val!r} at position {pos}; "
                    f"allowed: {', '.join(sorted(self.allowed))}, "
                    f"functions: {', '.join(sorted(FUNCTIONS))}"
                )
            self.seen.add(val)
            return lambda env: env[val]
        if kind == "op" and val == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("a number, name, or parenthesized expression")


def parse_expression(text: str, allowed=VARIABLES) -> Expression:
    """Compile ``text`` against the allowed variable names (ValueError on syntax)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("expression must be a nonempty string")
    parser = _Parser(text, frozenset(allowed))
    fn = parser.parse()
    return Expression(text, frozenset(parser.seen), fn)
