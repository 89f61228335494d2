"""Frozen copy of the hand-written tokenizer and recursive-descent parser
that ``dpkit.expressions.parse_expression`` replaced.

The new parser must accept exactly the texts this one accepts, with the same
variables and bit-identical values, so it is kept here verbatim as the
reference.
"""

import re

from dpkit.expressions import _CONSTANTS, FUNCTIONS, VARIABLES, Expression

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
