"""The arithmetic expression grammar used by run configurations."""

import random

import expressions_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkit.expressions import FUNCTIONS, VARIABLES, parse_expression


def test_precedence_and_associativity():
    e = parse_expression("2 + 3 * 4", ())
    assert e() == pytest.approx(14.0)
    assert parse_expression("2 * 3 ^ 2", ())() == pytest.approx(18.0)
    # power is right-associative
    assert parse_expression("2 ^ 3 ^ 2", ())() == pytest.approx(512.0)
    assert parse_expression("(2 + 3) * 4", ())() == pytest.approx(20.0)


def test_unary_minus_binds_below_power():
    assert parse_expression("-2^2", ())() == pytest.approx(-4.0)
    assert parse_expression("2^-2", ())() == pytest.approx(0.25)
    assert parse_expression("--3", ())() == pytest.approx(3.0)


def test_division_left_associative():
    assert parse_expression("8 / 4 / 2", ())() == pytest.approx(1.0)


def test_variables_broadcast(interval_mesh):
    e = parse_expression("sin(pi * x) + 1", ("x",))
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(e(x=x), np.sin(np.pi * x) + 1.0, atol=1e-15)


def test_scalar_environment_broadcasts_against_arrays():
    e = parse_expression("s * xi1 + y", ("y", "s", "xi1"))
    xi = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(e(n=3, y=0.5, s=2.0, xi1=xi), 2.0 * xi + 0.5)


def test_all_functions_evaluate():
    for name in FUNCTIONS:
        e = parse_expression(f"{name}(0.5)", ())
        assert np.isfinite(e())


def test_pi_constant():
    assert parse_expression("cos(pi)", ())() == pytest.approx(-1.0)


def test_unknown_variable_rejected():
    with pytest.raises(ValueError, match="x"):
        parse_expression("x + 1", ())
    with pytest.raises(ValueError):
        parse_expression("z + 1", VARIABLES)


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        parse_expression("tan(x)", ("x",))


def test_syntax_errors_carry_position():
    with pytest.raises(ValueError, match=r"position"):
        parse_expression("1 + * 2", ())
    with pytest.raises(ValueError):
        parse_expression("(1 + 2", ())
    with pytest.raises(ValueError):
        parse_expression("", ())
    with pytest.raises(ValueError):
        parse_expression("1 2", ())


def test_source_round_trip_attribute():
    e = parse_expression("x ^ 2", ("x",))
    assert e.source == "x ^ 2"
    assert set(e.variables) == {"x"}


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=50, deadline=None)
def test_matches_reference_evaluation(a, b, c):
    e = parse_expression("a0 * sin(x) + exp(-x^2) / c0", ("x", "a0", "c0"))
    got = e(x=b, a0=a, c0=c)
    want = a * np.sin(b) + np.exp(-(b**2)) / c
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the parser against the hand-written parser it replaced

# the grammar's tokens, whitespace, and Python-only syntax the grammar rejects
_TOKENS = (
    "x", "y", "s", "xi1", "xi2", "z", "pi", "sin", "cos", "exp", "abs", "log", "tan",
    "0", "1", "2", "007", "00", "0.5", ".5", "1.", "1e3", "2.5e-1", "1E+2", "\u0663",
    "+", "-", "*", "/", "^", "(", ")", ".", "e", "_", "x1",
    " ", "\t", "\n", "**", "//", "1_0", "0x1", "1j", "True", "None", "lambda", "if", "else",
    "not", "or", ":", ",", "[", "]", "@", "%", "=",
)  # fmt: skip
_SPACES = ("", "", " ", "  ", "\t", "\n", "\u00a0")
_SAMPLES = np.array([0.0, -1.5, 2.0, -0.0, 3.7])


def _same_as_reference(text, values=_SAMPLES):
    """Both parsers accept or both reject; accepted, both agree bit for bit.

    Where the reference's constant arithmetic raises, the parser must still
    give a float array of the sample shape.
    """
    outcomes = []
    for parse in (expressions_reference.parse_expression, parse_expression):
        try:
            outcomes.append(parse(text, VARIABLES))
        except ValueError:
            outcomes.append(None)
    want, got = outcomes
    assert (got is None) == (want is None), text
    if got is None:
        return
    assert got.variables == want.variables, text
    env = {name: np.roll(values, k) for k, name in enumerate(VARIABLES)}
    result = got(**env)
    assert result.dtype == np.float64 and result.shape == values.shape, text
    try:
        expected = want(**env)
    except (ArithmeticError, TypeError):  # the reference's Python floats: '1/0', '(0-2)^.5'
        return
    assert result.tobytes() == expected.tobytes(), text


@given(
    st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_SPACES)), max_size=14),
    st.sampled_from(_SPACES),
    st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
)
@settings(max_examples=2000, deadline=None)
@pytest.mark.filterwarnings("error")
def test_parser_matches_the_reference(tokens, lead, values):
    text = lead + "".join(token + space for token, space in tokens)
    _same_as_reference(text, np.concatenate([[0.0, -1.0], values]))


@pytest.mark.filterwarnings("error")
def test_parser_matches_the_reference_on_a_seeded_sweep():
    rng = random.Random(0)
    for _ in range(100_000):
        picks = rng.choices(_TOKENS, k=rng.randint(1, 14))
        _same_as_reference("".join(token + rng.choice(_SPACES) for token in picks))


@pytest.mark.parametrize(
    "text",
    ["(" * 300 + "x" + ")" * 300, "-" * 1000 + "x", "^".join(["x"] * 1000)],
    ids=["parentheses", "minus", "power"],
)
def test_deep_nesting_is_a_value_error(text):
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_expression(text, ("x",))


def test_deepest_parsable_chain_evaluates():
    def parse(depth):
        try:
            return parse_expression("1+" + "-" * depth + "x", ("x",))
        except ValueError:
            return None

    # the depth limit follows Python's recursion limit, so find it
    lo, hi = 1, 3000
    assert parse(lo) is not None and parse(hi) is None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parse(mid) is not None else (lo, mid)
    expr, x = parse(lo), np.array([0.25, -2.0])

    def below(frames):  # a solve evaluates a field far below the frame that parsed it
        return expr(x=x) if frames == 0 else below(frames - 1)

    np.testing.assert_array_equal(below(50), 1.0 + (-1.0) ** lo * x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, value",
    [
        ("1/0", np.inf),
        ("-(1/0)", -np.inf),
        ("10^400", np.inf),
        ("(0-2)^0.5", np.nan),
        ("0/0", np.nan),
        ("1/(1/0)", 0.0),
    ],
)
def test_constant_arithmetic_follows_ieee(text, value):
    np.testing.assert_array_equal(parse_expression(text, ())(n=3), np.full(3, value))
