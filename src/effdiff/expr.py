"""Closed-form scalar expressions of (x, y): parsing, evaluation, exact derivatives.

Grammar (standard precedence, loosest to tightest):

    expression := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := ('+'|'-') factor | power
    power      := atom ('^' factor)?          # right-associative
    atom       := NUMBER | 'pi' | 'e' | 'x' | 'y' | 'r'
                | FUNC '(' expression ')' | '(' expression ')'

Functions: sin cos tan asin acos atan exp log sqrt abs.
One regular expression reads the tokens, skipping spaces: NUMBER (digits
and dots, then an optional [eE][+-]?digits, which float() must read as a
finite value), identifiers, + - * / ^ and ( ) ,; any other character is an
error.  Digits and spaces are the Unicode decimal digits and spaces.
`r` is sugar for sqrt(x^2+y^2) and is expanded at parse time, so its
derivative is undefined at the origin (evaluation there reports a domain
error instead of producing a value).

Expression trees are immutable; evaluation is reentrant and accepts either
floats or numpy arrays for the point coordinates.  Each tree is compiled
once into one straight-line numpy function, the only evaluator: it computes
every distinct sub-expression once and tests one sum of the values where a
failure could hide, building the mask of the failing elements only when
that sum is not finite.  `generate` hands out that function for several
trees; `evaluate` raises when the mask is not empty, naming the failing
node found by a tracing variant of the code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class InputError(ValueError):
    """A value refused by the record or function that receives it: its
    `field`, then the `rule` it breaks (the rule alone if field is None)."""

    def __init__(self, field, rule):
        super().__init__(rule if field is None else f"{field} {rule}")
        self.field, self.rule = field, rule


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax/identifier/arity problem; carries a 1-based column."""

    def __init__(self, message, column, expected=()):
        super().__init__(f"{message} (column {column})")
        self.column = column
        self.expected = tuple(expected)


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of non-positive, sqrt of
    negative, division by zero, overflow to non-finite)."""

    def __init__(self, message, expr_text):
        super().__init__(f"{message} in '{expr_text}'")
        self.expr_text = expr_text


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Unary:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]

_FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log", "sqrt", "abs")
_CONSTANTS = {"pi": np.pi, "e": np.e}

# Nesting levels of one text, which bound every recursion over its tree:
# each parenthesis, function call, unary sign, '^' and chain operator is one.
MAX_DEPTH = 100

_ZERO = Const(0.0)
_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Each match is one token, and the group that matched is its class; `bad` is
# any other character.  \d and \s are the Unicode decimal digits and spaces,
# which float() reads and str.isspace() skips.
_TOKEN = re.compile(r"""(?P<space>\s+) | (?P<num>[\d.]+(?:[eE][+-]?\d+)?)
    | (?P<ident>[^\W\d]\w*) | (?P<op>[-+*/^]) | (?P<open>\() | (?P<close>\))
    | (?P<comma>,) | (?P<end>\Z) | (?P<bad>.)""", re.VERBOSE | re.DOTALL)


class _Parser:
    """Recursive descent over the matches of _TOKEN; a token is read as
    tok.lastgroup (its class), tok[0] (its text) and tok.start()."""

    def __init__(self, text):
        # every token is read first, so a bad character or number anywhere
        # fails before any syntax error
        self.tokens = [t for t in _TOKEN.finditer(text) if t.lastgroup != "space"]
        for tok in self.tokens:
            if tok.lastgroup == "bad":
                self.fail(f"unexpected character '{tok[0]}'", tok)
            if tok.lastgroup == "num" and not math.isfinite(self.number(tok)):
                self.fail(f"number out of range '{tok[0]}'", tok)
        self.pos = 0
        self.depth = 0   # level of the operand being parsed; each binary
        self.reach = 0   # chain sets it, and tracks its deepest level here

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok, expected=()):
        raise ParseError(message, tok.start() + 1, expected)

    def number(self, tok):
        """The value of number token `tok`."""
        try:
            return float(tok[0])
        except ValueError:
            pass
        self.fail(f"malformed number '{tok[0]}'", tok)

    def nest(self, tok, depth):
        """Go to nesting level `depth` at `tok`; past MAX_DEPTH, fail there."""
        if depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        self.depth = depth
        self.reach = max(self.reach, depth)

    def hang(self, op, depth):
        """Operator `op` of a chain begun at level `depth`: all the chain
        parsed before it moves one level down, and its right operand goes
        one level below `depth`."""
        self.nest(op, self.reach + 1)
        self.depth = depth + 1

    def chain(self, ops):
        """A left-associative chain of the operators `ops`: terms joined
        by '+-', or factors joined by '*/'."""
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.chain("*/") if ops == "+-" else self.factor()
        while self.peek().lastgroup == "op" and self.peek()[0] in ops:
            op = self.advance()
            self.hang(op, depth)
            right = self.chain("*/") if ops == "+-" else self.factor()
            node = Binary(op[0], node, right)
        self.depth, self.reach = depth, max(reach, self.reach)
        return node

    def factor(self):
        tok = self.peek()
        if tok.lastgroup == "op" and tok[0] in "+-":
            self.advance()
            self.nest(tok, self.depth + 1)
            node = self.factor()
            return Unary("neg", node) if tok[0] == "-" else node
        return self.power()

    def power(self):
        depth, reach = self.depth, self.reach
        self.reach = depth
        node = self.atom()
        tok = self.peek()
        if tok.lastgroup == "op" and tok[0] == "^":
            self.advance()
            self.hang(tok, depth)
            # right-associative; exponent may carry a unary sign
            node = Binary("^", node, self.factor())
        self.depth, self.reach = depth, max(reach, self.reach)
        return node

    def atom(self):
        tok = self.advance()
        kind, name = tok.lastgroup, tok[0]
        if kind == "num":
            return Const(self.number(tok))
        if kind == "ident" and name not in _FUNCTIONS:
            if name in ("x", "y"):
                return Var(name)
            if name == "r":
                return Unary("sqrt", Binary("+", Binary("^", Var("x"), Const(2.0)),
                                            Binary("^", Var("y"), Const(2.0))))
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            self.fail(f"unknown identifier '{name}'", tok,
                      ("x", "y", "r", "pi", "e") + _FUNCTIONS)
        if kind not in ("ident", "open"):
            self.fail(f"expected a value, got '{name or 'end of input'}'", tok,
                      ("number", "identifier", "("))
        # a function call or a parenthesis
        open_tok = self.advance() if kind == "ident" else tok
        if open_tok.lastgroup != "open":
            self.fail(f"expected '(' after function '{name}'", open_tok, ("(",))
        self.nest(tok, self.depth + 1)
        node = self.chain("+-")
        close = self.peek()
        if kind == "ident" and close.lastgroup == "comma":
            self.fail(f"function '{name}' takes exactly one argument", close, (")",))
        if close.lastgroup != "close":
            # unbalanced: point at the parenthesis that was never closed
            self.fail("unclosed parenthesis", open_tok, (")",))
        self.advance()
        return Unary(name, node) if kind == "ident" else node


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree.

    Raises ParseError (with 1-based `column` and an `expected` token set)
    on syntax errors, unknown identifiers, arity mismatches and nesting
    deeper than MAX_DEPTH.
    """
    parser = _Parser(text)
    node = parser.chain("+-")
    tail = parser.peek()
    if tail.lastgroup != "end":
        parser.fail(f"unexpected '{tail[0]}'", tail, ("end of input",))
    return node


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_UNARY_IMPL = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "neg": np.negative,
}
_BINARY_IMPL = {"+": np.add, "-": np.subtract, "*": np.multiply,
                "/": np.divide, "^": np.power}

# The operands (by position) whose non-finite value can still give a finite
# result: atan(+-inf), exp(-inf), a/inf, inf^-1, nan^0, 1^nan.  Every other
# node is non-finite wherever one of its operands is.
_ABSORBING = {"atan": (0,), "exp": (0,), "/": (1,), "^": (0, 1)}


class _Source:
    """Straight-line code of one generated function, emitted node by node;
    each distinct sub-expression gets one variable."""

    def __init__(self):
        self.env = {"isfinite": math.isfinite, "finite": np.isfinite,
                    "add": np.add, "add_reduce": np.add.reduce}
        self.names = {}      # structural key -> variable of the code
        self.steps = []      # (variable, call, variables it reads, node or None)
        self.checked = {}    # the terms of the mask, in order

    def check(self, name):
        """Add `name` to the running sum `ok` and to the terms of the mask."""
        if name[0] == "t" and name not in self.checked:
            total = f"add(ok, {name})" if self.checked else name
            self.checked[name] = None
            self.steps.append(("ok", total, (name,), None))

    def emit(self, node):
        if isinstance(node, Var):
            return node.name
        names = self.names
        if isinstance(node, Const):
            key = ("const", repr(node.value))   # keeps -0.0 apart from 0.0
            if key not in names:
                names[key] = f"c{len(names)}"
                self.env[names[key]] = node.value
            return names[key]
        if isinstance(node, Unary):
            op, fn, args = node.fn, _UNARY_IMPL[node.fn], (node.arg,)
        else:
            op, fn, args = node.op, _BINARY_IMPL[node.op], (node.left, node.right)
        operands = [self.emit(arg) for arg in args]
        if all(name[0] == "c" for name in operands):
            # folded by its ufunc; a non-finite one stays a step for the mask
            with np.errstate(all="ignore"):
                value = float(fn(*map(self.env.get, operands)))
            if math.isfinite(value):
                return self.emit(Const(value))
        key = (fn.__name__, *operands)
        if key not in names:
            for k in _ABSORBING.get(op, ()):
                self.check(operands[k])
            names[key] = f"t{len(names)}"
            self.env[fn.__name__] = fn
            self.steps.append((names[key], f"{fn.__name__}({', '.join(operands)})",
                               operands, node))
        return names[key]

    def define(self, lines):
        exec(compile("\n".join(lines) + "\n", "<effdiff expression>", "exec"),
             self.env)
        return self.env.pop("run")   # leaves no cycle between run and its globals


def generate(*trees):
    """One straight-line numpy function run(x, y) returning the values of
    all `trees` (a scalar for a constant) and the mask of the elements at
    which any node is not finite, or None for the mask when there is none.
    It takes float arrays; its caller enters np.errstate(all="ignore").

    Each distinct sub-expression is computed once, by the ufunc of its
    node.  A node is non-finite wherever one of its operands is, except at
    the operands listed in `_ABSORBING`, so at each element a non-finite
    node either reaches a root or is absorbed at one of those operands.
    These checked terms are added elementwise into one running sum whose
    total is tested once at the end; only when it is not finite is the
    mask built, exactly, from `~isfinite` of each term, so a total that
    merely overflows sets no element.  The checked terms stay alive to the
    end for that; every other intermediate is deleted after its last use.
    The function refers to no tree.
    """
    src = _Source()
    roots = [src.emit(tree) for tree in trees]
    for name in roots:
        src.check(name)
    last = {name: k for k, step in enumerate(src.steps) for name in step[2]}
    lines = ["def run(x, y):"]
    for k, (target, call, reads, _) in enumerate(src.steps):
        lines.append(f"    {target} = {call}")
        dead = sorted({name for name in reads if name[0] == "t"
                       and last[name] == k and name not in src.checked})
        if dead:
            lines.append(f"    del {', '.join(dead)}")
    values = f"({', '.join(roots)},)"
    bad = " | ".join(f"~finite({name})" for name in src.checked)
    if bad:
        lines.append(f"    if isfinite(add_reduce(ok, None)): return {values}, None")
    lines.append(f"    return {values}, {bad or None}")
    return src.define(lines)


def _trace(tree, x, y):
    """The first node of `tree`, children first, that is non-finite at any
    element of (x, y): the generated steps, run with a test after each."""
    src = _Source()
    src.emit(tree)
    lines = ["def run(x, y):"]
    for k, (name, call, _, node) in enumerate(src.steps):
        if node is not None:
            lines += [f"    {name} = {call}",
                      f"    if not finite({name}).all(): return {k}"]
    with np.errstate(all="ignore"):
        return src.steps[src.define(lines)(x, y)][3]


def _values(run, point):
    """Values at point=(x, y) of the trees compiled into `run`, and its mask."""
    x, y = point
    scalar = np.isscalar(x) and np.isscalar(y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        outs, bad = run(x, y)
    if scalar:
        return tuple(float(out) for out in outs), bad
    return as_arrays(outs, np.broadcast_shapes(x.shape, y.shape)), bad


def as_arrays(values, shape):
    """Each value as a float array of `shape`, filled in unless it is one."""
    return tuple(v if type(v) is np.ndarray and v.shape == shape
                 else np.full(shape, v, dtype=float) for v in values)


def _generated(e):
    """The generated function of tree `e`, built on first use and kept on
    the tree itself, so that it lives exactly as long as the tree."""
    run = e.__dict__.get("_run")
    if run is None:
        run = generate(e)
        object.__setattr__(e, "_run", run)   # a cache, not a field
    return run


def evaluate(e: Expr, point):
    """Evaluate at point=(x, y). Coordinates may be floats or numpy arrays.

    Raises EvalDomainError whenever any element leaves the real domain (no
    silent NaN propagation), naming the first sub-expression, children
    first, that is non-finite at any element.
    """
    (value,), bad = _values(_generated(e), point)
    if bad is not None and bad.any():
        node = _trace(e, *(np.asarray(c, dtype=float) for c in point))
        raise EvalDomainError("non-finite value", to_text(node))
    return value


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _add(a, b):
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return Binary("+", a, b)


def _sub(a, b):
    if b == _ZERO:
        return a
    if a == _ZERO:
        return Unary("neg", b)
    return Binary("-", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return Binary("*", a, b)


def _div(a, b):
    if a == _ZERO:
        return _ZERO
    return Binary("/", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to 'x' or 'y'.

    The result is a plain expression tree (no simplification pass beyond
    dropping multiplicative/additive identities). abs differentiates to
    abs(u)/u * u', which correctly reports a domain error at u = 0.
    """
    if var not in ("x", "y"):
        raise InputError("var", f"must be 'x' or 'y', got {var!r}")
    return _diff(e, var)


def _diff(node, var):
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Unary):
        u = node.arg
        du = _diff(u, var)
        fn = node.fn
        if fn == "neg":
            return _ZERO if du == _ZERO else Unary("neg", du)
        if du == _ZERO:
            return _ZERO
        if fn == "sin":
            return _mul(Unary("cos", u), du)
        if fn == "cos":
            return Unary("neg", _mul(Unary("sin", u), du))
        if fn == "tan":
            return _div(du, Binary("^", Unary("cos", u), Const(2.0)))
        if fn == "asin":
            return _div(du, Unary("sqrt", _sub(_ONE, Binary("^", u, Const(2.0)))))
        if fn == "acos":
            return Unary("neg", _div(du, Unary("sqrt", _sub(_ONE, Binary("^", u, Const(2.0))))))
        if fn == "atan":
            return _div(du, _add(_ONE, Binary("^", u, Const(2.0))))
        if fn == "exp":
            return _mul(Unary("exp", u), du)
        if fn == "log":
            return _div(du, u)
        if fn == "sqrt":
            return _div(du, _mul(Const(2.0), Unary("sqrt", u)))
        if fn == "abs":
            return _mul(_div(Unary("abs", u), u), du)
        raise ValueError(f"unsupported function {fn!r}")
    # binary
    u, v = node.left, node.right
    du, dv = _diff(u, var), _diff(v, var)
    op = node.op
    if op == "+":
        return _add(du, dv)
    if op == "-":
        return _sub(du, dv)
    if op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if op == "/":
        return _div(_sub(_mul(du, v), _mul(u, dv)), Binary("^", v, Const(2.0)))
    # power
    if dv == _ZERO:
        # constant exponent: d(u^c) = c*u^(c-1)*du  (valid for negative bases)
        if isinstance(v, Const):
            c = v.value
            return _mul(_mul(Const(c), Binary("^", u, Const(c - 1.0))), du)
        return _mul(_mul(v, Binary("^", u, _sub(v, _ONE))), du)
    # general u^v = exp(v log u)
    return _mul(Binary("^", u, v),
                _add(_mul(dv, Unary("log", u)), _div(_mul(v, du), u)))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, (Const, Var)):
        return _PREC_ATOM if not (isinstance(node, Const) and node.value < 0) else _PREC_NEG
    if isinstance(node, Unary):
        return _PREC_NEG if node.fn == "neg" else _PREC_ATOM
    return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL,
            "/": _PREC_MUL, "^": _PREC_POW}[node.op]


def _wrap(node, minimum):
    text = to_text(node)
    if _prec(node) < minimum:
        return f"({text})"
    return text


def to_text(e: Expr) -> str:
    """Render to a string that reparses to a semantically identical tree."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.fn == "neg":
            return "-" + _wrap(e.arg, _PREC_NEG)
        return f"{e.fn}({to_text(e.arg)})"
    if e.op in "+-":
        left = _wrap(e.left, _PREC_ADD)
        right = _wrap(e.right, _PREC_ADD + 1)
        return f"{left} {e.op} {right}"
    if e.op in "*/":
        left = _wrap(e.left, _PREC_MUL)
        right = _wrap(e.right, _PREC_MUL + 1)
        return f"{left}{e.op}{right}"
    # '^' binds tighter than unary minus and associates right
    left = _wrap(e.left, _PREC_ATOM)
    right = _wrap(e.right, _PREC_POW)
    return f"{left}^{right}"
