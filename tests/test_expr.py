import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from effdiff.cli import main
from effdiff.expr import (
    MAX_DEPTH, _BINARY_IMPL, _UNARY_IMPL, Binary, Compiled, Const,
    EvalDomainError, ParseError, Unary, Var, differentiate, evaluate, parse,
    to_text,
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


# n levels of one kind of nesting around log(x), itself one level more
_NESTINGS = {
    "parentheses": lambda n: "(" * n + "log(x)" + ")" * n,
    "call": lambda n: "sin(" * n + "log(x)" + ")" * n,
    "sign": lambda n: "-+" * (n // 2) + "-" * (n % 2) + "log(x)",
    "power": lambda n: "x^" * n + "log(x)",
    "sum": lambda n: "log(x)" + "+x" * n,
    "difference": lambda n: "log(x)" + "-x" * n,
    "product": lambda n: "log(x)" + "*x" * n,
    "quotient": lambda n: "log(x)" + "/x" * n,
}


@pytest.mark.parametrize("kind", sorted(_NESTINGS))
def test_texts_nested_to_the_depth_limit_run_everywhere(kind):
    tree = parse(_NESTINGS[kind](MAX_DEPTH - 1))
    assert parse(to_text(tree)) == tree
    dx, dy = differentiate(tree, "x"), differentiate(tree, "y")
    to_text(dx)   # the deepest tree printed: about three levels per level
    x, y = np.array([0.5, 0.0]), np.zeros(2)
    values, bad = Compiled(tree, dx, dy).evaluate_masked((x, y))
    assert bad.tolist() == [False, True]
    assert np.all(np.isfinite(values[0][:1]) & np.isfinite(values[1][:1]))
    # at x = 0 the message names the first failing node, children first
    with pytest.raises(EvalDomainError, match=r"in 'log\(x\)'$"):
        evaluate(tree, (x, y))
    with pytest.raises(EvalDomainError):
        evaluate(dx, (x, y))


@pytest.mark.parametrize("kind", sorted(_NESTINGS))
@pytest.mark.parametrize("levels", [MAX_DEPTH, 10**4])
def test_texts_nested_past_the_depth_limit_are_config_errors(
        tmp_path, capsys, kind, levels):
    path = tmp_path / "deep.cfg"
    path.write_text(f"z1={_NESTINGS[kind](levels)}\nz2=9\n"
                    "domain=1,2,1,2\nresolution=2x2\n")
    assert main(["tensor", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad expression for z1: "
                          f"expression nested deeper than {MAX_DEPTH} levels")
    assert err.count("\n") == 1


def test_depth_limit_fails_at_the_token_that_passes_it():
    for text, column in [("(" * 101 + "x" + ")" * 101, 101),
                         ("x" + "+x" * 101, 202),
                         # the operators hang the deep first operand lower
                         ("(" + "x/" * 99 + "x)" + "/x" * 5, 202),
                         ("2*" + "(" * 100 + "x" + ")" * 100, 102)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == column
    # operands after an operator sit only one level below its chain
    parse("+".join(["sin(" * 98 + "x" + ")" * 98] * 3))


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
    (values,), bad = Compiled(e).evaluate_masked((xs, ys))
    assert bad.tolist() == [False, True, True, False, False]
    for k in np.flatnonzero(~bad):
        assert values[k] == evaluate(e, (float(xs[k]), float(ys[k])))
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, (xs, ys))
    assert err.value.expr_text == "log(x)"
    # constant subtrees broadcast their failure to every element
    (values,), bad = Compiled(parse("x + log(0)")).evaluate_masked((xs, ys))
    assert bad.shape == xs.shape and bad.all()
    (values,), bad = Compiled(parse("x*y")).evaluate_masked((1.5, 2.0))
    assert (values, bad.tolist()) == (3.0, False)


def test_an_overflowing_finiteness_sum_is_only_a_false_alarm():
    # every value is finite, but their sum overflows: the generated function
    # then builds the exact mask, which flags nothing
    c = Compiled(parse("1e308+0*x"), parse("1e308+0*y"))
    xs, ys = np.linspace(-1.0, 1.0, 5), np.arange(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            assert not c.run(xs, ys)[1].any()
        for point, shape in (((xs, ys), (5,)), ((0.5, 2.0), ())):
            (a, b), bad = c.evaluate_masked(point)
            assert np.shape(a) == np.shape(b) == np.shape(bad) == shape
            assert np.all(a == 1e308) and np.all(b == 1e308)
            assert not bad.any()
        assert evaluate(parse("1e308+0*x"), (xs, ys)).tolist() == [1e308] * 5
        # an overflowing sum with one element also really undefined: a mask
        # taken from the sum alone would flag both
        (a, b), bad = Compiled(parse("1e308+0*x"), parse("1e308+log(y)")) \
            .evaluate_masked((np.zeros(2), np.array([1.0, 0.0])))
        assert bad.tolist() == [False, True]
        assert a.tolist() == [1e308, 1e308] and b[0] == 1e308


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


# ---------------------------------------------------------------------------
# compiled evaluation against the tree walk
# ---------------------------------------------------------------------------

def _eval(node, x, y, failed):
    """Value of `node`; every node whose value is non-finite anywhere is
    appended to `failed` with its mask, children before parents."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else y
    if isinstance(node, Unary):
        out = _UNARY_IMPL[node.fn](_eval(node.arg, x, y, failed))
    else:
        out = _BINARY_IMPL[node.op](_eval(node.left, x, y, failed),
                                    _eval(node.right, x, y, failed))
    finite = np.isfinite(out)
    if not finite.all():
        failed.append((node, ~finite))
    return out


def _walk(e, x, y):
    """Value of the tree walk and its failing nodes, children first."""
    failed = []
    with np.errstate(all="ignore"):
        out = _eval(e, np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                    failed)
    return out, failed


def _walk_mask(e, x, y, shape):
    out, failed = _walk(e, x, y)
    bad = np.zeros(shape, dtype=bool)
    for _, mask in failed:
        bad |= mask
    return np.broadcast_to(np.asarray(out, dtype=float), shape), bad


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


_ANY_LEAVES = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -8.0, 1.0 / 3.0, 1e308])
    .map(Const),
    st.floats(-3.0, 3.0).map(Const))


def _any_nodes(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(
            ["sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
             "sqrt", "abs", "neg"]), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        # a repeated operand, which the compiled code computes once
        st.builds(lambda op, u: Binary(op, u, u), st.sampled_from("+-*/^"),
                  children))


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -8.0, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0))


@example(parse("1/(1/(x-x))"), [(1.0, 0.0), (2.0, 3.0)])   # inner node only
@example(parse("exp(-x)"), [(math.inf, 0.0), (-math.inf, 0.0),
                            (math.nan, 0.0), (1.0, 0.0)])
@example(parse("0^-1 + x"), [(1.0, 0.0)])
@example(parse("(1/(x-x))^-1"), [(1.0, 0.0)])
@example(parse("0.5^(1/(y-y))"), [(1.0, 0.0)])
@example(parse("atan(1/(x-x))"), [(1.0, 0.0)])
@example(parse("(-8)^(1/3)"), [(1.0, 0.0)])
@example(parse("exp(x)"), [(-math.inf, 0.0), (0.0, 0.0)])   # a leaf is not flagged
# nodes failing at different elements: the message names the first failing
# node in children-first order, not the first failing element's
@example(parse("log(x) + sqrt(y)"), [(1.0, -1.0), (-1.0, 1.0)])
@example(parse("sqrt(y) + log(x)"), [(1.0, -1.0), (-1.0, 1.0)])
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.recursive(_ANY_LEAVES, _any_nodes, max_leaves=10),
       st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6))
def test_compiled_evaluation_matches_the_tree_walk(e, points):
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    for x, y in [(xs, ys), (xs[:, None], ys[None, :])] + points[:2]:
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        out, failed = _walk(e, x, y)
        want, want_bad = _walk_mask(e, x, y, shape)
        if failed:
            with pytest.raises(EvalDomainError) as err:
                evaluate(e, (x, y))
            assert str(err.value) == \
                f"non-finite value in '{to_text(failed[0][0])}'"
        else:
            got = evaluate(e, (x, y))
            assert np.shape(got) == shape
            assert np.array_equal(_bits(got), _bits(want))
        (values,), bad = Compiled(e).evaluate_masked((x, y))
        assert np.array_equal(bad, want_bad)
        assert np.array_equal(_bits(values)[~bad], _bits(want)[~bad])

        # value and derivative from one function, as ExpressionField uses it
        d = differentiate(e, "x")
        (v, g), both_bad = Compiled(e, d).evaluate_masked((x, y))
        want_d, d_bad = _walk_mask(d, x, y, shape)
        assert np.array_equal(both_bad, want_bad | d_bad)
        assert np.array_equal(_bits(v)[~both_bad], _bits(want)[~both_bad])
        assert np.array_equal(_bits(g)[~both_bad], _bits(want_d)[~both_bad])
