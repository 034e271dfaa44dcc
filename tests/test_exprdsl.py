"""Coefficient DSL: grammar, precedence, evaluation errors, round trip."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup.exprdsl import (
    Bin,
    Call,
    CoeffExpr,
    EvalError,
    FUNCTIONS,
    Name,
    Neg,
    Num,
    ParseError,
    VARIABLES,
    compile_expr,
    eval_array,
    eval_expr,
    parse,
    positivity_scan,
    to_text,
)
from blowup import exprdsl
from exprdsl_reference import reference_eval_array, reference_eval_expr


def test_precedence_goldens():
    assert eval_expr(parse("2+3*4^2")) == 50.0
    assert eval_expr(parse("-2^2")) == -4.0
    assert eval_expr(parse("2^3^2")) == 512.0          # right-associative
    assert eval_expr(parse("(-2)^2")) == 4.0
    assert eval_expr(parse("2^-2")) == 0.25
    assert eval_expr(parse("6/3/2")) == 1.0            # left-associative
    assert eval_expr(parse("1-2-3")) == -4.0


def test_parse_catalog_coefficients():
    assert eval_expr(parse("s^(p-1)*(1+t)"), 2.0, 3.0, {"p": 3.0}) == 16.0
    assert eval_expr(parse("2+sin(s)"), math.pi / 2.0, 1.0, {}) == pytest.approx(3.0)
    assert eval_expr(parse("s^p*((t-a)^2+b)"), 1.0, 1.0, {"a": 1.0, "b": 2.0, "p": 3.0}) == 2.0
    assert eval_expr(parse("t^(1-p)"), 1.0, 2.0, {"p": 3.0}) == 0.25


def test_whitespace_insensitive():
    assert parse(" s \t+  t ").ast == parse("s+t").ast


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse("s + * t")
    assert err.value.offset == 4
    assert err.value.expected
    with pytest.raises(ParseError) as err:
        parse("2s")
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        parse("(s+t")
    assert "')'" in str(err.value)
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("sin(1e999)")
    assert err.value.offset == 4
    assert "number out of range '1e999'" in str(err.value)


def test_unknown_function():
    with pytest.raises(ParseError) as err:
        parse("tan(s)")
    assert "unknown function" in str(err.value)
    with pytest.raises(ParseError):
        parse("sin + 2")


def test_eval_basics():
    assert eval_expr(parse("s+t"), 2.0, 3.0) == 5.0
    assert eval_expr(parse("sqrt(abs(0-9))")) == 3.0
    assert eval_expr(parse("exp(log(7))")) == pytest.approx(7.0)


def test_eval_domain_errors():
    with pytest.raises(EvalError) as err:
        eval_expr(parse("log(s)"), 0.0, 1.0)
    assert "log" in str(err.value)
    with pytest.raises(EvalError):
        eval_expr(parse("sqrt(0-s)"), 4.0, 1.0)
    with pytest.raises(EvalError):
        eval_expr(parse("s/(t-t)"), 1.0, 2.0)
    with pytest.raises(EvalError):
        eval_expr(parse("(0-2)^0.5"))
    with pytest.raises(EvalError):
        eval_expr(parse("0^(0-1)"))
    with pytest.raises(EvalError):
        eval_expr(parse("exp(s)"), 1e6, 1.0)


def test_eval_unbound_parameter():
    with pytest.raises(EvalError) as err:
        eval_expr(parse("a*s"), 1.0, 1.0)
    assert "unbound" in str(err.value) and "'a'" in str(err.value)


def test_eval_deterministic():
    expr = parse("sin(s)*exp(0-t)+s^2")
    first = eval_expr(expr, 1.3, 2.4)
    assert all(eval_expr(expr, 1.3, 2.4) == first for _ in range(5))


def _random_tree(rng: random.Random, depth: int):
    """Random parser-producible tree: nonnegative literals, unary minus nodes."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(0.0, 10.0), 3))
        return Name(rng.choice(["s", "t", "a", "b", "p"]))
    roll = rng.random()
    if roll < 0.15:
        return Neg(_random_tree(rng, depth - 1))
    if roll < 0.35:
        return Call(rng.choice(FUNCTIONS), _random_tree(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_round_trip_structural_identity():
    rng = random.Random(20240817)
    for _ in range(800):
        tree = _random_tree(rng, 8)
        printed = to_text(CoeffExpr(ast=tree))
        assert parse(printed).ast == tree
        # printing is a fixed point once through the parser
        assert to_text(parse(printed)) == printed


def test_eval_array_matches_scalar():
    expr = parse("s^(p-1)*(1+t)+cos(s)")
    s = np.geomspace(0.1, 10.0, 17)
    t = np.geomspace(0.5, 2.0, 17)
    arr = eval_array(expr, s, t, {"p": 3.0})
    for i in range(len(s)):
        assert arr[i] == pytest.approx(eval_expr(expr, s[i], t[i], {"p": 3.0}), rel=1e-15)


def test_eval_array_constant_takes_the_input_shape():
    s = np.geomspace(1.0, 2.0, 6).reshape(2, 3)
    out = eval_array(parse("2*p"), s, np.ones(3), {"p": 1.5})
    assert out.shape == (2, 3) and (out == 3.0).all()
    assert eval_array(parse("1")).shape == ()


def test_eval_array_nan_instead_of_raise():
    out = eval_array(parse("log(s-5)"), np.array([1.0, 6.0]), np.array([1.0, 1.0]))
    assert not np.isfinite(out[0]) and np.isfinite(out[1])
    # NaN, not +-inf, where eval_expr raises for a domain point
    s, t = np.array([1.0, 2.0]), np.array([0.0, 3.0])
    for text in ("s/(p-3)", "1/(p-3)", "s/(t-t)", "(p-3)^(0-1)", "t^(0-1)", "log(p-3)", "log(t)"):
        out = eval_array(parse(text), s, t, {"p": 3.0})
        assert np.isnan(out[0]) and out.shape == (2,), text
    # overflow alone stays infinite
    assert eval_array(parse("exp(s)*1e308"), s, t).tolist() == [math.inf, math.inf]


def test_positivity_scan():
    assert positivity_scan(parse("2+sin(s)"), {}, (1e-3, 1e3), (1e-3, 1e3), 16).ok
    assert positivity_scan(parse("exp(s)"), {}, (1e-2, 1e2), (1e-2, 1e2), 8).ok
    report = positivity_scan(parse("t-5"), {}, (1.0, 10.0), (1.0, 10.0), 12)
    assert not report.ok
    assert report.counterexample[1] < 5.0
    report = positivity_scan(parse("-1"), {}, (1.0, 2.0), (1.0, 2.0))
    assert not report.ok
    assert report.counterexample == (1.0, 1.0) and report.value == -1.0
    with pytest.raises(EvalError):
        positivity_scan(parse("a*s"), {}, (1.0, 2.0), (1.0, 2.0), 4)
    with pytest.raises(ValueError):
        positivity_scan(parse("s"), {}, (1.0, 2.0), (1.0, 2.0), 1)


def test_code_cache_never_shares_constants():
    # 0.0 == -0.0, so trees differing only in that literal's sign are one key
    # of the code cache; each compile must still see its own literal and node
    cases = ((0.0, 1.0, "s/0.0"), (-0.0, -1.0, "s/-0.0"), (0.0, 1.0, "s/0.0"))
    for k, (literal, sign, shown) in enumerate(cases):
        hits = exprdsl._generate.cache_info().hits
        product = compile_expr(CoeffExpr(Bin("*", Name("s"), Num(literal))))(1.0, 1.0)
        assert math.copysign(1.0, product) == sign
        quotient = CoeffExpr(Bin("/", Name("s"), Num(literal)))
        with pytest.raises(EvalError) as err:
            compile_expr(quotient)(1.0, 1.0)
        assert err.value.subexpr is quotient.ast
        assert str(err.value) == f"division by zero in subexpression '{shown}'"
        if k:  # the same cache keys as the first pair of trees
            assert exprdsl._generate.cache_info().hits == hits + 2
    assert compile_expr(parse("s+2"))(1.0, 0.0) == 3.0
    assert compile_expr(parse("s+5"))(1.0, 0.0) == 6.0
    # one tree under two bindings: parameter values are bound per compile
    expr = parse("a*s")
    two, three = compile_expr(expr, {"a": 2.0}), compile_expr(expr, {"a": 3.0})
    assert (two(1.0, 0.0), three(1.0, 0.0), two(1.0, 0.0)) == (2.0, 3.0, 2.0)
    with pytest.raises(EvalError, match="unbound parameter 'a'"):
        compile_expr(expr, {"b": 2.0})(1.0, 0.0)


def test_generated_code_holds_no_expression_text():
    expr = parse("log(secret_name)*1234.5+s")
    code, _ = exprdsl._generate(expr.ast, VARIABLES, frozenset({"secret_name"}))
    (function,) = [c for c in code.co_consts if hasattr(c, "co_names")]
    assert "secret_name" not in function.co_names + function.co_varnames
    assert 1234.5 not in function.co_consts
    assert compile_expr(expr, {"secret_name": math.e})(1.0, 0.0) == 1235.5


# ----------------------------------------------------------------------
# properties over random parser-producible trees

_PARAMS = ("a", "b", "p")
_finite = st.floats(allow_nan=False, allow_infinity=False)
_asts = st.recursive(
    st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(Num),
              st.sampled_from(VARIABLES + _PARAMS).map(Name)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub)),
    max_leaves=12).map(lambda ast: CoeffExpr(ast=ast))
_param_dicts = st.dictionaries(st.sampled_from(_PARAMS), _finite)


def _outcome(fn, *args):
    """A value as its bits, or an exception as type, message and subexpression."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc), getattr(exc, "subexpr", None)
    return "value", struct.pack("<d", value)


@settings(max_examples=1500, deadline=None)
@given(_asts, st.none() | _finite, st.none() | _finite, _param_dicts)
def test_compiled_matches_tree_walk(expr, s, t, params):
    reference = _outcome(reference_eval_expr, expr, s, t, params)
    assert _outcome(eval_expr, expr, s, t, params) == reference
    if s is not None and t is not None:
        assert _outcome(compile_expr(expr, params), s, t) == reference


@settings(max_examples=500, deadline=None)
@given(_asts, _finite, _finite, _param_dicts)
def test_eval_array_agrees_with_eval_expr(expr, s, t, params):
    try:
        scalar = eval_expr(expr, s, t, params)
    except EvalError:
        return
    array = float(eval_array(expr, np.array([s]), np.array([t]), params)[0])
    if math.isfinite(array):
        assert abs(array - scalar) <= 1e-12 * max(abs(array), abs(scalar))


# NaN of both signs, infinities, signed zeros and subnormals beside the
# ordinary doubles
_elements = st.floats() | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310])


@st.composite
def _grids(draw):
    """s and t, each missing or an array; t may broadcast against s to 2-D."""
    n = draw(st.integers(1, 4))
    column = st.lists(_elements, min_size=n, max_size=n).map(np.array)
    return draw(st.none() | column), draw(st.none() | column | column.map(lambda a: a[:, None]))


def _array_outcome(fn, *args):
    """An array as shape and bytes, or an exception as type name and message."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc).__name__, str(exc)
    return "value", out.shape, out.tobytes()


# every domain point, with an array or a scalar operand tested
_ZEROS = np.array([0.0, -0.0, 2.0])


@settings(max_examples=1500, deadline=None)
@given(_asts, _grids(), _param_dicts)
@example(parse("s^(0-t)"), (_ZEROS, np.ones(3)), {})
@example(parse("s^(0-a)"), (_ZEROS, None), {"a": 1.0})
@example(parse("a^(0-s)"), (_ZEROS, None), {"a": 0.0})
@example(parse("s/t"), (np.ones(3), _ZEROS), {})
@example(parse("s/(a-3)"), (_ZEROS, None), {"a": 3.0})
@example(parse("1/(a-3)"), (_ZEROS, None), {"a": 3.0})
@example(parse("log(t)"), (None, _ZEROS), {})
@example(parse("log(a)"), (_ZEROS, None), {"a": 0.0})
def test_eval_array_matches_tree_walk(expr, grid, params):
    s, t = grid
    assert (_array_outcome(eval_array, expr, s, t, params)
            == _array_outcome(reference_eval_array, expr, s, t, params))


@settings(max_examples=500, deadline=None)
@given(_asts)
def test_printer_round_trips(expr):
    assert parse(to_text(expr)).ast == expr.ast
