import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from effdiff.cli import main
from effdiff.expr import (
    _BINARY_IMPL, _CONSTANTS, _FUNCTIONS, _UNARY_IMPL, MAX_DEPTH, Binary,
    Const, EvalDomainError, InputError, ParseError, Unary, Var, _Source,
    differentiate, evaluate, generate, parse, to_text,
)
from effdiff.geometry import ExpressionField


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
    field = ExpressionField(_NESTINGS[kind](MAX_DEPTH - 1))
    tree, dx = field.tree, field.dx
    assert parse(to_text(tree)) == tree
    to_text(dx)   # the deepest tree printed: about three levels per level
    x, y = np.array([0.5, 0.0]), np.zeros(2)
    *values, bad = field.sample(x, y)
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


def _run(run, x, y):
    """What run, a generated function, returns at float arrays (x, y)."""
    with np.errstate(all="ignore"):
        return run(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def test_generated_mask_marks_exactly_the_failing_elements():
    xs = np.array([2.0, 0.0, -1.0, 1.0, 0.5])
    ys = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    # log(0) = -inf and 0^0 = 1: the mask keeps an element bad even where a
    # later node makes its value finite again
    e = parse("(log(x))^y + sqrt(1-y)")
    (values,), bad = _run(generate(e), xs, ys)
    assert bad.tolist() == [False, True, True, False, False]
    for k in np.flatnonzero(~bad):
        assert values[k] == evaluate(e, (float(xs[k]), float(ys[k])))
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, (xs, ys))
    assert err.value.expr_text == "log(x)"
    # all finite: no mask, and a constant root stays a scalar
    assert _run(generate(e, parse("2")), xs + 3, ys)[1] is None
    assert _run(generate(parse("2")), xs, ys) == ((2.0,), None)
    # ExpressionField.sample fills the mask in: constant subtrees broadcast
    # their failure to every element
    *values, bad = ExpressionField("x + log(0)").sample(xs, ys)
    assert bad.shape == xs.shape and bad.all()
    *values, bad = ExpressionField("x*y").sample(1.5, 2.0)
    assert (values, bad.tolist()) == ([3.0, 2.0, 1.5], False)


def test_constant_only_nodes_are_folded_once_at_generation():
    # the waves pair as SurfacePair.surfaces compiles it: the 5/2 of z2 is
    # computed while generating, by the ufunc its step would have run
    src = _Source()
    for text in ("cos(x)", "cos(y)+5/2"):
        tree = parse(text)
        for t in (tree, differentiate(tree, "x"), differentiate(tree, "y")):
            src.emit(t)
    assert src.steps
    for _, call, reads, _ in src.steps:
        assert any(name[0] != "c" for name in reads), call
    assert np.divide(5.0, 2.0) in src.env.values()
    # a non-finite constant node keeps its step, for the mask and the trace
    src = _Source()
    src.emit(parse("x + log(0)"))
    assert [call for _, call, _, _ in src.steps][0] == "log(c0)"
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("x + log(0)"), (1.0, 2.0))
    assert err.value.expr_text == "log(0.0)"


def test_an_overflowing_finiteness_sum_is_only_a_false_alarm():
    # every value is finite, but their sum overflows: the generated function
    # then builds the exact mask, which flags nothing
    run = generate(parse("1e308+0*x"), parse("1e308+0*y"))
    xs, ys = np.linspace(-1.0, 1.0, 5), np.arange(5.0)
    # a field whose value and slope at pi/4 are finite and sum past the
    # largest float; ExpressionField.sample reads them with a full mask
    field = ExpressionField("1.5e308*sin(x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point, shape in (((xs, ys), (5,)), ((0.5, 2.0), ())):
            (a, b), bad = _run(run, *point)
            assert np.shape(a) == np.shape(b) == np.shape(bad) == shape
            assert np.all(a == 1e308) and np.all(b == 1e308)
            assert bad is not None and not bad.any()
            at = (np.full(shape, np.pi / 4) if shape else np.pi / 4, point[1])
            value, gx, gy, bad = field.sample(*at)
            assert np.shape(value) == np.shape(gx) == np.shape(bad) == shape
            assert np.array_equal(value, evaluate(field.tree, at))
            assert np.array_equal(gx, evaluate(field.dx, at))
            assert np.all(gy == 0)
            with np.errstate(over="ignore"):
                assert np.all(value + gx == np.inf)
            assert not bad.any()
        assert evaluate(parse("1e308+0*x"), (xs, ys)).tolist() == [1e308] * 5
        # an overflowing sum with one element also really undefined: a mask
        # taken from the sum alone would flag both
        (a, b), bad = _run(generate(parse("1e308+0*x"), parse("1e308+log(y)")),
                           np.zeros(2), np.array([1.0, 0.0]))
        assert bad.tolist() == [False, True]
        assert a.tolist() == [1e308, 1e308] and b[0] == 1e308


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_derivative_of_sin_is_cos():
    d = differentiate(parse("sin(x)"), "x")
    for x in (0.0, 0.7, -2.0):
        assert evaluate(d, (x, 0.0)) == pytest.approx(math.cos(x), abs=1e-15)


def test_derivative_of_tan_is_one_over_cos_squared():
    d = differentiate(parse("tan(x)"), "x")
    for x in (0.0, 0.7, -1.2):
        assert evaluate(d, (x, 0.0)) == pytest.approx(1 / math.cos(x) ** 2,
                                                      rel=1e-15)


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


@pytest.mark.parametrize("var", ["z", "r", "", None])
def test_differentiate_refuses_a_variable_other_than_x_or_y(var):
    with pytest.raises(ValueError,
                       match=f"^var must be 'x' or 'y', got {var!r}$") as info:
        differentiate(parse("x*y"), var)
    assert type(info.value) is InputError and info.value.field == "var"


def test_differentiate_refuses_a_function_it_has_no_rule_for():
    # a tree built by hand: parse only makes the functions of _FUNCTIONS
    tree = Binary("+", Const(1.0), Unary("cosh", Var("x")))
    with pytest.raises(ValueError, match="^unsupported function 'cosh'$"):
        differentiate(tree, "x")
    assert differentiate(tree, "y") == Const(0.0)


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


def _full(run, x, y, shape):
    """The values of generated function `run` at (x, y) broadcast to
    `shape`, and its mask (None for no element) as a full boolean array."""
    values, mask = _run(run, x, y)
    return ([np.broadcast_to(v, shape) for v in values],
            np.zeros(shape, dtype=bool) | (False if mask is None else mask))


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
        (values,), bad = _full(generate(e), x, y, shape)
        assert np.array_equal(bad, want_bad)
        assert np.array_equal(_bits(values)[~bad], _bits(want)[~bad])

        # value and derivative from one function, as ExpressionField uses it
        d = differentiate(e, "x")
        (v, g), both_bad = _full(generate(e, d), x, y, shape)
        want_d, d_bad = _walk_mask(d, x, y, shape)
        assert np.array_equal(both_bad, want_bad | d_bad)
        assert np.array_equal(_bits(v)[~both_bad], _bits(want)[~both_bad])
        assert np.array_equal(_bits(g)[~both_bad], _bits(want_d)[~both_bad])


# ---------------------------------------------------------------------------
# the parser against the character scanner it replaced
# ---------------------------------------------------------------------------

# The character-by-character scanner, its tokens and the parser with one
# method per chain level, kept verbatim as the reference for `parse`.

class _Token:
    __slots__ = ("kind", "text", "column", "value")

    def __init__(self, kind, text, column):
        self.kind = kind      # 'num', 'ident', 'op', '(', ')', ',', 'end'
        self.text = text
        self.column = column
        self.value = 0.0


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"malformed number '{text[i:j]}'", col) from None
            if not np.isfinite(value):
                raise ParseError(f"number out of range '{text[i:j]}'", col)
            tokens.append(_Token("num", text[i:j], col))
            tokens[-1].value = value
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], col))
            i = j
        elif c in "+-*/^":
            tokens.append(_Token("op", c, col))
            i += 1
        elif c == "(":
            tokens.append(_Token("(", c, col))
            i += 1
        elif c == ")":
            tokens.append(_Token(")", c, col))
            i += 1
        elif c == ",":
            tokens.append(_Token(",", c, col))
            i += 1
        else:
            raise ParseError(f"unexpected character '{c}'", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0   # level of the operand being parsed; each binary
        self.reach = 0   # chain sets it, and tracks its deepest level here

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, column, expected):
        raise ParseError(message, column, expected)

    def nest(self, tok, depth):
        """Go to nesting level `depth` at `tok`; past MAX_DEPTH, fail there."""
        if depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels",
                      tok.column, ())
        self.depth = depth
        self.reach = max(self.reach, depth)

    def hang(self, op, depth):
        """Operator `op` of a chain begun at level `depth`: all the chain
        parsed before it moves one level down, and its right operand goes
        one level below `depth`."""
        self.nest(op, self.reach + 1)
        self.depth = depth + 1

    def expression(self):
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            self.hang(op, depth)
            node = Binary(op.text, node, self.term())
        self.depth, self.reach = depth, max(reach, self.reach)
        return node

    def term(self):
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            self.hang(op, depth)
            node = Binary(op.text, node, self.factor())
        self.depth, self.reach = depth, max(reach, self.reach)
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            self.nest(tok, self.depth + 1)
            node = self.factor()
            return Unary("neg", node) if tok.text == "-" else node
        return self.power()

    def power(self):
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            self.hang(tok, depth)
            # right-associative; exponent may carry a unary sign
            node = Binary("^", node, self.factor())
        self.depth, self.reach = depth, max(reach, self.reach)
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Const(tok.value)
        if tok.kind == "ident":
            name = tok.text
            if name in ("x", "y"):
                return Var(name)
            if name == "r":
                return Unary("sqrt", Binary("+", Binary("^", Var("x"), Const(2.0)),
                                            Binary("^", Var("y"), Const(2.0))))
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            if name in _FUNCTIONS:
                open_tok = self.peek()
                if open_tok.kind != "(":
                    self.fail(f"expected '(' after function '{name}'",
                              open_tok.column, ("(",))
                self.advance()
                self.nest(tok, self.depth + 1)
                arg = self.expression()
                close = self.peek()
                if close.kind == ",":
                    self.fail(f"function '{name}' takes exactly one argument",
                              close.column, (")",))
                if close.kind != ")":
                    # unbalanced call: point at the paren that was never closed
                    self.fail("unclosed parenthesis", open_tok.column, (")",))
                self.advance()
                return Unary(name, arg)
            self.fail(f"unknown identifier '{name}'", tok.column,
                      ("x", "y", "r", "pi", "e") + _FUNCTIONS)
        if tok.kind == "(":
            self.nest(tok, self.depth + 1)
            node = self.expression()
            close = self.peek()
            if close.kind != ")":
                self.fail("unclosed parenthesis", tok.column, (")",))
            self.advance()
            return node
        self.fail(f"expected a value, got '{tok.text or 'end of input'}'",
                  tok.column, ("number", "identifier", "("))


def _ref_parse(text):
    """Parse `text` into an expression tree.

    Raises ParseError (with 1-based `column` and an `expected` token set)
    on syntax errors, unknown identifiers, arity mismatches and nesting
    deeper than MAX_DEPTH.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail(f"unexpected '{tail.text}'", tail.column, ("end of input",))
    return node


def _outcome(parse_fn, text):
    try:
        return parse_fn(text), None
    except ParseError as exc:
        return None, exc


# substitutions and insertions: printable ASCII, whole tokens, and non-ASCII
# letters, decimal digits (read by float), other digits and spaces
_PIECES = st.one_of(
    st.characters(min_codepoint=32, max_codepoint=126),
    st.sampled_from(["\u00e9", "\u03c0", "\u0661", "\uff13", "\u00b2",
                     "\u00bd", "\u00a0", "\u2003", "\t", "\n", "\x1c"]),
    st.sampled_from(["pi", "e", "r", "sin(", "atan", ",", "1e400", "1e", "2.",
                     ".5", "1.2.3", "e+3", "E-", "x^", "_a1"]))


_SMALL_TREES = st.recursive(_ANY_LEAVES, _any_nodes, max_leaves=8)
_EDITS = st.sampled_from(["insert", "delete", "substitute"])


@st.composite
def _edited_texts(draw):
    """A printed tree, then up to four random edits of its characters."""
    text = to_text(draw(_SMALL_TREES))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(text)))
        edit = draw(_EDITS)
        piece = "" if edit == "delete" else draw(_PIECES)
        text = text[:k] + piece + text[k + (edit != "insert"):]
    return text


@example("x\u00a0+\u2003\u0663")   # Unicode spaces and digits are accepted
@example("\u0661\u0662.\uff15e\u0661")
@example("1\u00b2 + x")             # a superscript is not a decimal digit
@example("x\u00b2")
@example("1e\u00b2")
@example("\u00bd*x")
@example("\u00e9")
@example("x\x1c+\x0by")
@example("")
@example(" \t")
@example("1.2.3 + x")
@example("1e400")
@example("1e+")
@example("2e")
@example("x 2")
@example("sin x")
@example("sin")
@example("atan(x, y)")
@example("(x, y)")
@example("x + (")
@example("sin(x)*sin(y")
@example("pi*r - e")
@example("x $ 1e400")
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_edited_texts())
def test_parse_gives_the_reference_tree_or_error(text):
    got, err = _outcome(parse, text)
    want, want_err = _outcome(_ref_parse, text)
    assert (got, repr(got)) == (want, repr(want))
    assert (err is None) == (want_err is None)
    if err is not None and text.isascii():
        assert (str(err), err.column, err.expected) == \
            (str(want_err), want_err.column, want_err.expected)


def test_unicode_digits_and_spaces_are_read_as_the_scanner_read_them():
    assert parse("x\u00a0+\u2003\u0663") == Binary("+", Var("x"), Const(3.0))
    assert parse("\u0661\u0662.\uff15") == Const(12.5)
    for text in ("x\u00b2", "1\u00b2", "\u00bd"):
        with pytest.raises(ParseError):
            parse(text)


def _fits(parse_fn, text, limit):
    """Whether parse_fn(text) runs under recursion limit `limit`."""
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit)
        parse_fn(text)
        return True
    except RecursionError:
        return False
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("kind", sorted(_NESTINGS))
def test_parse_needs_no_more_stack_than_the_reference(kind):
    text = _NESTINGS[kind](MAX_DEPTH - 1)
    lo, hi = 1, sys.getrecursionlimit()
    assert _fits(_ref_parse, text, hi)
    while lo < hi:   # the smallest limit the reference runs under
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _fits(_ref_parse, text, mid) else (mid + 1, hi)
    assert _fits(parse, text, lo)
    assert parse(text) == _ref_parse(text)
