import math

import numpy as np
import pytest

from wavemetric import dsl
from wavemetric.errors import DomainEvalError, ExpressionError


def ev(src, **coords):
    vals = {k: float(v) for k, v in coords.items()}
    return dsl.eval_expr(dsl.parse(src), vals, source=src)


# -- precedence and associativity -------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2^3^2", 512.0),           # right associative
    ("-2^2", -4.0),             # power binds tighter than unary minus
    ("(-2)^2", 4.0),
    ("2*-3", -6.0),
    ("6/3/2", 1.0),             # left associative
    ("1-2-3", -4.0),
    ("2^-1", 0.5),
    ("--4", 4.0),
    ("2*pi", 2.0 * math.pi),
    ("e^1", math.e),
])
def test_precedence(src, expected):
    assert ev(src) == pytest.approx(expected, rel=1e-15)


def test_variables_and_functions():
    assert ev("x^2 + y", x=3, y=1) == 10.0
    assert ev("sin(x)^2 + cos(x)^2", x=0.3) == pytest.approx(1.0)
    assert ev("min(x, y) + max(x, y)", x=2, y=5) == 7.0
    assert ev("pow(2, x)", x=10) == 1024.0
    assert ev("tanh(0)") == 0.0
    assert ev("abs(-3.5)") == 3.5


def test_array_evaluation_matches_scalar():
    expr = dsl.parse("exp(-x^2) * (1 + 0.5*sin(3*x))")
    xs = np.linspace(-2, 2, 41)
    batch = dsl.eval_expr(expr, {"x": xs})
    assert isinstance(batch, np.ndarray) and batch.dtype == np.float64
    for i, x in enumerate(xs):
        assert batch[i] == dsl.eval_expr(expr, {"x": float(x)})


def test_eval_with_positional_coords():
    expr = dsl.parse("x + 10*y + 100*z")
    assert dsl.eval_expr(expr, np.array([1.0, 2.0, 3.0])) == 321.0


def test_number_forms():
    assert ev("1e3") == 1000.0
    assert ev(".5") == 0.5
    assert ev("2.") == 2.0
    assert ev("1.5e-2") == 0.015


# -- error reporting --------------------------------------------------------

def test_unknown_identifier_position():
    with pytest.raises(ExpressionError) as err:
        dsl.parse("x + qq")
    assert "position 5" in str(err.value)


def test_unknown_function():
    with pytest.raises(ExpressionError, match="unknown function"):
        dsl.parse("sinh(x)")


def test_wrong_arity():
    with pytest.raises(ExpressionError, match="expects 2 argument"):
        dsl.parse("min(x)")
    with pytest.raises(ExpressionError, match="expects 1 argument"):
        dsl.parse("sin(x, y)")


def test_bare_function_name():
    with pytest.raises(ExpressionError, match="argument list"):
        dsl.parse("sin + 1")


def test_unbalanced_paren_position():
    with pytest.raises(ExpressionError) as err:
        dsl.parse("(1 + 2")
    assert "position 7" in str(err.value)


def test_trailing_garbage():
    with pytest.raises(ExpressionError):
        dsl.parse("1 + 2 )")


def test_no_implicit_multiplication():
    with pytest.raises(ExpressionError):
        dsl.parse("2x")
    with pytest.raises(ExpressionError):
        dsl.parse("2(x+1)")


def test_empty_input():
    with pytest.raises(ExpressionError):
        dsl.parse("")
    with pytest.raises(ExpressionError):
        dsl.parse("   ")


# -- domain errors instead of NaN -------------------------------------------

def test_log_domain():
    with pytest.raises(DomainEvalError, match="log"):
        ev("log(x)", x=-1)
    with pytest.raises(DomainEvalError):
        ev("log(0)")


def test_sqrt_domain():
    with pytest.raises(DomainEvalError, match="sqrt"):
        ev("sqrt(x - 2)", x=1)


def test_fractional_power_of_negative():
    with pytest.raises(DomainEvalError):
        ev("x^0.5", x=-4)
    # integral exponents of negative bases stay fine
    assert ev("x^3", x=-2) == -8.0
    assert ev("x^2", x=-2) == 4.0


def test_zero_to_negative_power():
    with pytest.raises(DomainEvalError):
        ev("x^-1", x=0)


def test_division_by_zero_is_ieee():
    assert ev("1/x", x=0) == math.inf
    assert ev("-1/x", x=0) == -math.inf


def test_array_domain_error():
    expr = dsl.parse("sqrt(x)")
    with pytest.raises(DomainEvalError) as info:
        dsl.eval_expr(expr, {"x": np.array([1.0, -1.0])}, source="sqrt(x)")
    assert info.value.point == {"x": -1.0}


# -- printing round trip -----------------------------------------------------

ROUND_TRIP = [
    "-x^2",
    "(-x)^2",
    "x - (y - z)",
    "x - y - z",
    "(x + y)*z",
    "x/(y*z)",
    "x/y*z",
    "2^(x + 1)",
    "(x*y)^2",
    "-(x + 1)",
    "min(x, max(y, z))",
    "exp(-(x - 0.5)^2/0.01)",
]


@pytest.mark.parametrize("src", ROUND_TRIP)
def test_round_trip_value(src):
    e = dsl.parse(src)
    printed = dsl.to_text(e)
    e2 = dsl.parse(printed)
    rng = np.random.default_rng(7)
    for _ in range(20):
        pt = {v: float(rng.uniform(0.1, 2.0)) for v in ("x", "y", "z")}
        assert dsl.eval_expr(e, pt) == dsl.eval_expr(e2, pt)


def test_round_trip_is_fixpoint():
    for src in ROUND_TRIP:
        once = dsl.to_text(dsl.parse(src))
        twice = dsl.to_text(dsl.parse(once))
        assert once == twice


def test_expr_variables():
    assert dsl.expr_variables(dsl.parse("x*y + sin(x)")) == {"x", "y"}
    assert dsl.expr_variables(dsl.parse("1 + 2")) == set()


def test_constant_folding_of_names():
    e = dsl.parse("pi")
    assert isinstance(e, dsl.Num)
    assert e.value == math.pi
