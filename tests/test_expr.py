import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from effdiff.expr import (
    Binary, Const, EvalDomainError, ParseError, Unary, Var,
    differentiate, evaluate, evaluate_masked, parse, to_text,
)


def central_diff(e, point, var, h=1e-6):
    x, y = point
    if var == "x":
        return (evaluate(e, (x + h, y)) - evaluate(e, (x - h, y))) / (2 * h)
    return (evaluate(e, (x, y + h)) - evaluate(e, (x, y - h))) / (2 * h)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_examples():
    e = parse("cos(2*sqrt(x^2+y^2))+3/2")
    assert evaluate(e, (0.0, 0.0)) == pytest.approx(2.5, abs=1e-15)

    e = parse("x")
    assert evaluate(e, (7.0, -1.0)) == 7.0


def test_parse_error_reports_unclosed_paren_column():
    with pytest.raises(ParseError) as err:
        parse("sin(x)*sin(y")
    assert err.value.column == 11
    assert ")" in err.value.expected


def test_parse_error_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("sinh(x)")
    assert err.value.column == 1


def test_parse_error_arity():
    with pytest.raises(ParseError) as err:
        parse("atan(x, y)")
    assert "one argument" in str(err.value)


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("x + y )")
    assert err.value.column == 7


def test_parse_error_number_out_of_range():
    # a literal that overflows would be an infinite constant, which
    # evaluate does not flag at the root of a tree
    with pytest.raises(ParseError) as err:
        parse("x + 1e400")
    assert err.value.column == 5 and "out of range" in str(err.value)


def test_precedence_and_associativity():
    assert evaluate(parse("2^3^2"), (0, 0)) == 512.0      # right-assoc
    assert evaluate(parse("-2^2"), (0, 0)) == -4.0        # ^ above unary minus
    assert evaluate(parse("2^-1"), (0, 0)) == 0.5
    assert evaluate(parse("1+2*3"), (0, 0)) == 7.0
    assert evaluate(parse("6/2/3"), (0, 0)) == 1.0        # left-assoc
    assert evaluate(parse("1-2-3"), (0, 0)) == -4.0


def test_named_constants_and_r_sugar():
    assert evaluate(parse("pi"), (0, 0)) == math.pi
    assert evaluate(parse("e"), (0, 0)) == math.e
    assert evaluate(parse("r"), (3.0, 4.0)) == pytest.approx(5.0, rel=1e-15)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(parse("cos(x)"), (math.pi, 0.0)) == pytest.approx(-1.0, abs=1e-15)
    assert evaluate(parse("cos(y)+5/2"), (0.0, math.pi / 2)) == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), (-1.0, 0.0))


def test_evaluate_domain_errors_carry_subexpression():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("1/(x-1)"), (1.0, 0.0))
    assert "x - 1" in err.value.expr_text or "/" in err.value.expr_text

    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), (-4.0, 0.0))
    with pytest.raises(EvalDomainError):
        evaluate(parse("asin(x)"), (2.0, 0.0))
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x)"), (1000.0, 0.0))  # overflow is not silent


def test_evaluate_vectorized_matches_scalar():
    e = parse("sin(x)*cos(y)+x^2")
    xs = np.linspace(-2, 2, 7)
    ys = np.linspace(-1, 3, 7)
    out = evaluate(e, (xs, ys))
    for xi, yi, oi in zip(xs, ys, out):
        assert oi == evaluate(e, (float(xi), float(yi)))


def test_evaluate_vectorized_domain_error():
    e = parse("log(x)")
    with pytest.raises(EvalDomainError):
        evaluate(e, (np.array([1.0, -1.0]), np.array([0.0, 0.0])))


def test_evaluate_masked_marks_exactly_the_failing_elements():
    xs = np.array([2.0, 0.0, -1.0, 1.0, 0.5])
    ys = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    # log(0) = -inf and 0^0 = 1: the mask keeps an element bad even where a
    # later node makes its value finite again
    e = parse("(log(x))^y + sqrt(1-y)")
    values, bad = evaluate_masked(e, (xs, ys))
    assert bad.tolist() == [False, True, True, False, False]
    for k in np.flatnonzero(~bad):
        assert values[k] == evaluate(e, (float(xs[k]), float(ys[k])))
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, (xs, ys))
    assert err.value.expr_text == "log(x)"
    # constant subtrees broadcast their failure to every element
    values, bad = evaluate_masked(parse("x + log(0)"), (xs, ys))
    assert bad.shape == xs.shape and bad.all()
    values, bad = evaluate_masked(parse("x*y"), (1.5, 2.0))
    assert (values, bad.tolist()) == (3.0, False)


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_derivative_of_sin_is_cos():
    d = differentiate(parse("sin(x)"), "x")
    for x in (0.0, 0.7, -2.0):
        assert evaluate(d, (x, 0.0)) == pytest.approx(math.cos(x), abs=1e-15)


def test_derivative_radial_wave():
    # d/dx cos(2*sqrt(x^2+y^2)) at (3,4) = -2 sin(10) * 3/5
    e = parse("cos(2*sqrt(x^2+y^2))")
    d = differentiate(e, "x")
    got = evaluate(d, (3.0, 4.0))
    assert got == pytest.approx(-2.0 * math.sin(10.0) * 0.6, abs=1e-14)
    assert got == pytest.approx(central_diff(e, (3.0, 4.0), "x"), abs=1e-6)


def test_derivative_of_independent_variable_is_zero():
    d = differentiate(parse("x"), "y")
    assert d == Const(0.0)
    assert evaluate(d, (3.0, 9.0)) == 0.0


def test_abs_derivative_is_sign_with_domain_error_at_zero():
    d = differentiate(parse("abs(x)"), "x")
    assert evaluate(d, (2.5, 0.0)) == 1.0
    assert evaluate(d, (-2.5, 0.0)) == -1.0
    with pytest.raises(EvalDomainError):
        evaluate(d, (0.0, 0.0))


def test_r_sugar_derivative_singular_at_origin():
    d = differentiate(parse("r"), "x")
    assert evaluate(d, (3.0, 4.0)) == pytest.approx(0.6, rel=1e-14)
    with pytest.raises(EvalDomainError):
        evaluate(d, (0.0, 0.0))


def test_general_power_rule():
    e = parse("x^y")
    d = differentiate(e, "x")
    assert evaluate(d, (2.0, 3.0)) == pytest.approx(12.0, rel=1e-13)
    d = differentiate(e, "y")
    assert evaluate(d, (2.0, 3.0)) == pytest.approx(8.0 * math.log(2.0), rel=1e-13)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_LEAVES = ["x", "y", "const"]
_UNARIES = ["sin", "cos", "atan", "exp", "neg"]
_BINARIES = ["+", "-", "*", "/", "^"]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(_LEAVES)
        if kind == "const":
            return Const(round(rng.uniform(-2, 2), 3))
        return parse(kind)
    if rng.random() < 0.45:
        fn = rng.choice(_UNARIES)
        return Unary(fn, _random_tree(rng, depth - 1))
    op = rng.choice(_BINARIES)
    left = _random_tree(rng, depth - 1)
    if op == "^":
        return parse(f"({to_text(left)})^{rng.choice([2, 3])}")
    right = _random_tree(rng, depth - 1)
    return parse(f"({to_text(left)}){op}({to_text(right)})")


def _smooth_sample(rng, e, dx):
    """Draw a point where e evaluates cleanly and the FD stencil is trustworthy."""
    for _ in range(50):
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            v = evaluate(e, p)
            s = evaluate(dx, p)
            fd6 = central_diff(e, p, "x", h=1e-6)
            fd5 = central_diff(e, p, "x", h=1e-5)
        except EvalDomainError:
            continue
        if abs(v) > 50 or abs(s) > 50:
            continue
        if abs(fd6 - fd5) > 1e-7 * max(1.0, abs(fd6)):
            continue  # stencil disagreement: not smooth enough here
        return p, s, fd6
    return None


def test_symbolic_derivative_matches_central_difference_randomly():
    rng = random.Random(20260810)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 6000:
        attempts += 1
        e = _random_tree(rng, rng.randint(1, 6))
        dx = differentiate(e, "x")
        got = _smooth_sample(rng, e, dx)
        if got is None:
            continue
        _, sym, fd = got
        assert abs(sym - fd) <= max(1e-6, 1e-6 * abs(sym)), to_text(e)
        checked += 1
    assert checked == 1000


def test_mixed_partials_commute():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        e = _random_tree(rng, rng.randint(2, 6))
        dxy = differentiate(differentiate(e, "x"), "y")
        dyx = differentiate(differentiate(e, "y"), "x")
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            a = evaluate(dxy, p)
            b = evaluate(dyx, p)
        except EvalDomainError:
            continue
        if max(abs(a), abs(b)) < 1e-10:
            continue
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)
        checked += 1


def test_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(60):
        e = _random_tree(rng, rng.randint(1, 5))
        e2 = parse(to_text(e))
        for _ in range(100):
            p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                a = evaluate(e, p)
            except EvalDomainError:
                with pytest.raises(EvalDomainError):
                    evaluate(e2, p)
                continue
            assert evaluate(e2, p) == a


# parse() yields non-negative constants (a minus sign is a "neg" node), so
# these are the trees that to_text must give back exactly
_PARSED_LEAVES = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.floats(min_value=0.0, allow_infinity=False).filter(
        lambda v: math.copysign(1.0, v) > 0).map(Const))


def _parsed_nodes(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(
            ["sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
             "sqrt", "abs", "neg"]), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.recursive(_PARSED_LEAVES, _parsed_nodes, max_leaves=12))
def test_parse_gives_back_every_printed_tree(e):
    assert parse(to_text(e)) == e


def _smooth_nodes(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["sin", "cos", "atan", "exp", "neg"]),
                  children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(lambda base, n: Binary("^", base, Const(n)), children,
                  st.sampled_from([2.0, 3.0])))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.recursive(
           st.one_of(st.sampled_from([Var("x"), Var("y")]),
                     st.floats(0.0, 3.0).map(Const)),
           _smooth_nodes, max_leaves=8),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from("xy"))
def test_symbolic_derivative_agrees_with_central_differences(e, x, y, var):
    try:
        sym = evaluate(differentiate(e, var), (x, y))
        fd6 = central_diff(e, (x, y), var, h=1e-6)
        fd5 = central_diff(e, (x, y), var, h=1e-5)
    except EvalDomainError:
        assume(False)   # not finite at the point or on the stencil
    # no pole on or near the stencil (a stencil straddling one can agree
    # with itself), and the difference quotient has converged
    assume(abs(sym) <= 1e3 and abs(fd6 - fd5) <= 1e-7 * max(1.0, abs(fd6)))
    assert abs(sym - fd6) <= 1e-6 * max(1.0, abs(sym)), to_text(e)
