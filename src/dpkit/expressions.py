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
whitelist accepts only the nodes of this grammar.  The tree is compiled once,
with every number and ``pi`` a numpy float64, so constant arithmetic follows
IEEE rules as it does on arrays (``1/0`` is inf, ``(0-2)^0.5`` nan).
Evaluation broadcasts a constant result to the requested sample count.
"""

from __future__ import annotations

import ast
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
    # pi and each NUMBER are float64 names (a NUMBER under its own spelling, which no
    # NAME can spell): the compiler would fold Python float constants in Python arithmetic
    names = dict(FUNCTIONS, pi=np.float64(_CONSTANTS["pi"]))

    def check(node):
        segment = source[node.col_offset : node.end_col_offset]
        match node:
            case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() | ast.Pow()):
                node.left, node.right = check(node.left), check(node.right)
                return node
            case ast.UnaryOp(op=ast.USub()):
                node.operand = check(node.operand)
                return node
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in FUNCTIONS:
                node.args = [check(arg)]
                return node
            case ast.Name(id=name) if name in _CONSTANTS or name in allowed:
                return node
            case ast.Constant() if _NUMBER.fullmatch(segment):
                names[segment] = np.float64(float(segment))
                return ast.copy_location(ast.Name(segment, ast.Load()), node)
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
        tree.body = check(tree.body)
        code = compile(tree, "<expression>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # Python's parser reports a tree nested too deeply for its stack as a
        # RecursionError or MemoryError, and 200 nested parentheses as a SyntaxError
        if isinstance(exc, SyntaxError) and exc.msg != "too many nested parentheses":
            pos = at[min(exc.offset - 1, len(source))]
            raise ValueError(f"invalid syntax at position {pos} in {text!r}") from None
        raise ValueError(f"expression nested too deeply: {text!r}") from None
    variables = frozenset(code.co_names).difference(names)
    return Expression(text, variables, lambda env: eval(code, {**env, "__builtins__": {}, **names}))
