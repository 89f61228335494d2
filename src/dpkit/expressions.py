"""A small arithmetic expression language for run configurations.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Recognized names are the coordinate variables ``x``, ``y``, the solution value
``s``, the gradient components ``xi1``, ``xi2``, the constant ``pi``, and the
functions ``sin``, ``cos``, ``exp``, ``abs``, ``log``.  Python's own parser
builds the tree, with ``^`` read as ``**``, which binds the same way, and a
whitelist accepts only the nodes of this grammar.  Parsing produces a
vectorized numpy closure; evaluation broadcasts constants to the requested
sample count.
"""

from __future__ import annotations

import ast
import operator as op
import re
import warnings
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

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# a character outside the grammar, or Python's power operator
_UNEXPECTED = re.compile(r"\*\*|[^A-Za-z_\d\s.+\-*/^()]")
# a NAME or a NUMBER, so that a number is found whole and never inside a name
_WORD = re.compile(rf"[A-Za-z_][A-Za-z_0-9]*|{_NUMBER.pattern}")
_BINARY = {ast.Add: op.add, ast.Sub: op.sub, ast.Mult: op.mul, ast.Div: op.truediv, ast.Pow: op.pow}


def _respell(word: re.Match) -> str:
    """A NAME as is; a NUMBER at its width in the ASCII digits Python reads ('007' -> '7  ')."""
    text = "".join(str(int(c)) if c.isdecimal() else c for c in word[0])
    return (text.lstrip("0") or "0").ljust(len(text)) if text.isdigit() else text


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


def parse_expression(text: str, allowed=VARIABLES) -> Expression:
    """Compile ``text`` against the allowed variable names (ValueError on syntax)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("expression must be a nonempty string")
    if bad := _UNEXPECTED.search(text):
        pos = bad.end() - 1
        raise ValueError(f"unexpected character {text[pos]!r} at position {pos} in {text!r}")
    # Python rejects a leading indent and a line break; the grammar skips both
    spaced = _WORD.sub(_respell, re.sub(r"\s", " ", text))
    lead = len(spaced) - len(spaced.lstrip())
    source = spaced.strip().replace("^", "**")
    # the position in ``text`` of each character of ``source``, then of its end
    at = [i for i, c in enumerate(spaced) if i >= lead for _ in range(1 + (c == "^"))]
    at.append(len(spaced))
    allowed = frozenset(allowed).difference(FUNCTIONS)
    seen: set = set()

    def build(node):
        segment = source[node.col_offset : node.end_col_offset]
        match node:
            case ast.BinOp(op=binary) if type(binary) in _BINARY:
                fn, a, b = _BINARY[type(binary)], build(node.left), build(node.right)
                return lambda env: fn(a(env), b(env))
            case ast.UnaryOp(op=ast.USub()):
                a = build(node.operand)
                return lambda env: -a(env)
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in FUNCTIONS:
                fn, a = FUNCTIONS[name], build(arg)
                return lambda env: fn(a(env))
            case ast.Name(id=name) if name in _CONSTANTS:
                c = _CONSTANTS[name]
                return lambda env: c
            case ast.Name(id=name) if name in allowed:
                seen.add(name)
                return lambda env: env[name]
            case ast.Constant() if _NUMBER.fullmatch(segment):
                c = float(segment)
                return lambda env: c
        pos, end = at[node.col_offset], at[node.end_col_offset]
        raise ValueError(
            f"unexpected {text[pos:end]!r} at position {pos} in {text!r}; "
            f"allowed: {', '.join(sorted(allowed))}, functions: {', '.join(sorted(FUNCTIONS))}"
        )

    try:
        with warnings.catch_warnings():
            # Python warns on text such as '1if'; the grammar rejects it
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(source, mode="eval")
        fn = build(tree.body)
    except SyntaxError as exc:
        pos = at[min(exc.offset - 1, len(source))]
        raise ValueError(f"invalid syntax at position {pos} in {text!r}") from None
    except (RecursionError, MemoryError):
        # Python's parser reports a tree nested too deeply for its stack as either
        raise ValueError(f"expression nested too deeply: {text!r}") from None
    return Expression(text, frozenset(seen), fn)
