"""Closed-form scalar expressions of (x, y): parsing, evaluation, exact derivatives.

Grammar (standard precedence, loosest to tightest):

    expression := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := '-' factor | power
    power      := atom ('^' factor)?          # right-associative
    atom       := NUMBER | 'pi' | 'e' | 'x' | 'y' | 'r'
                | FUNC '(' expression ')' | '(' expression ')'

Functions: sin cos tan asin acos atan exp log sqrt abs.
`r` is sugar for sqrt(x^2+y^2) and is expanded at parse time, so its
derivative is undefined at the origin (evaluation there reports a domain
error instead of producing a value).

Expression trees are immutable; evaluation is reentrant and accepts either
floats or numpy arrays for the point coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


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

_ZERO = Const(0.0)
_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

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

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, column, expected):
        raise ParseError(message, column, expected)

    def expression(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.factor())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; exponent may carry a unary sign
            node = Binary("^", node, self.factor())
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
            node = self.expression()
            close = self.peek()
            if close.kind != ")":
                self.fail("unclosed parenthesis", tok.column, (")",))
            self.advance()
            return node
        self.fail(f"expected a value, got '{tok.text or 'end of input'}'",
                  tok.column, ("number", "identifier", "("))


def parse(text: str) -> Expr:
    """Parse `text` into an expression tree.

    Raises ParseError (with 1-based `column` and an `expected` token set)
    on syntax errors, unknown identifiers and arity mismatches.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail(f"unexpected '{tail.text}'", tail.column, ("end of input",))
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
        left = _eval(node.left, x, y, failed)
        right = _eval(node.right, x, y, failed)
        if node.op == "+":
            out = np.add(left, right)
        elif node.op == "-":
            out = np.subtract(left, right)
        elif node.op == "*":
            out = np.multiply(left, right)
        elif node.op == "/":
            out = np.divide(left, right)
        else:
            out = np.power(left, right)
    finite = np.isfinite(out)
    if not finite.all():
        failed.append((node, ~finite))
    return out


def _run(e, point):
    x, y = point
    scalar = np.isscalar(x) and np.isscalar(y)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    failed = []
    with np.errstate(all="ignore"):
        out = _eval(e, xa, ya, failed)
    if scalar:
        return float(out), failed
    shape = np.broadcast_shapes(xa.shape, ya.shape)
    res = np.asarray(out, dtype=float)
    if res.shape != shape:
        res = np.broadcast_to(res, shape).copy()
    return res, failed


def evaluate(e: Expr, point):
    """Evaluate at point=(x, y). Coordinates may be floats or numpy arrays.

    Raises EvalDomainError, naming the offending sub-expression, whenever
    any element leaves the real domain (no silent NaN propagation).
    """
    res, failed = _run(e, point)
    if failed:
        raise EvalDomainError("non-finite value", to_text(failed[0][0]))
    return res


def evaluate_masked(e: Expr, point):
    """Evaluate at point=(x, y) without raising: returns (values, bad),
    where the boolean array `bad` marks the elements at which `evaluate`
    would raise.  Values at those elements are meaningless."""
    res, failed = _run(e, point)
    bad = np.zeros(np.shape(res), dtype=bool)
    for _, mask in failed:
        bad |= mask
    return res, bad


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
    if b == _ONE:
        return a
    return Binary("/", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to 'x' or 'y'.

    The result is a plain expression tree (no simplification pass beyond
    dropping multiplicative/additive identities). abs differentiates to
    abs(u)/u * u', which correctly reports a domain error at u = 0.
    """
    if var not in ("x", "y"):
        raise ValueError(f"var must be 'x' or 'y', got {var!r}")
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
