"""Recursive-descent parser and evaluator for expressions in variables x1..xn.

Grammar, loosest to tightest binding:

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?          right-associative
    unary   := '-' unary | primary
    primary := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are the variables x1..xn, the functions sin cos tan exp log sqrt
abs pow, and the constants pi and e.  NUMBER is an unsigned decimal literal
with optional fraction and exponent.  Whitespace is insignificant.  Note the
grammar hangs '^' off a full unary, so a leading minus binds to the base:
-2^2 parses as (-2)^2.

Evaluation follows real semantics: any operation that would leave the reals
(log or sqrt of a negative, division by zero, fractional power of a negative,
overflow to infinity) raises EvalError naming the offending sub-expression
and the first offending point; a non-finite value is never returned silently.

One evaluator serves single points, batches and tensor grids.  It takes one
coordinate array per variable, arrays that broadcast together: the columns
of a (count, n) batch, or each axis's nodes of a grid shaped to lie along
its own axis.  Every sub-expression is computed at the broadcast shape of
the variables it reads, so on a grid a factor in x1 alone costs one value
per x1 node, and literals cost one scalar.  Elementwise arithmetic and
numpy's math functions round the same at every shape; the one exception,
numpy's shortcut for a scalar or broadcast exponent of 2, 0.5 or -1, is
avoided by materialising such exponents.  So a value never depends on how
points are batched or broadcast.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import BoxcalcError, DomainError


class ParseError(BoxcalcError):
    """Source text failed to parse; `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class EvalError(DomainError):
    """Evaluation left the reals inside `node`, at `point` when known."""

    def __init__(self, message: str, node, point=None):
        where = f" in '{to_text(node)}'"
        at = f" at point {tuple(float(c) for c in point)}" if point is not None else ""
        super().__init__(message + where + at)
        self.message = message
        self.node = node
        self.point = None if point is None else tuple(float(c) for c in point)


FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "pow": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    """Numeric literal; `text` preserves the source spelling for exact reuse."""

    value: float
    text: str
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Const:
    name: str
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    offset: int = field(default=0, compare=False, repr=False)


Expr = Union[Num, Var, Const, Neg, BinOp, Call]


def num(value) -> Num:
    """Literal node for a nonnegative number (grammar literals are unsigned)."""
    v = float(value)
    if v < 0 or math.copysign(1.0, v) < 0:
        raise ValueError("literals are unsigned; wrap a Neg around num(-value)")
    return Num(v, repr(v))


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", one of "+-*/^(),", or "end"
    text: str
    offset: int


_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_VAR_RE = re.compile(r"x(\d+)\Z")
_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, pos)
            tokens.append(_Token("number", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_Token("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n_vars = n_vars

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        token = self.tokens[self.i]
        if token.kind != "end":
            self.i += 1
        return token

    def parse(self) -> Expr:
        node = self._expr()
        token = self._peek()
        if token.kind != "end":
            raise ParseError(f"unexpected token '{token.text}'", token.offset)
        return node

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._advance()
            node = BinOp(op.kind, node, self._term(), offset=op.offset)
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek().kind in ("*", "/"):
            op = self._advance()
            node = BinOp(op.kind, node, self._factor(), offset=op.offset)
        return node

    def _factor(self) -> Expr:
        base = self._unary()
        if self._peek().kind == "^":
            op = self._advance()
            return BinOp("^", base, self._factor(), offset=op.offset)
        return base

    def _unary(self) -> Expr:
        token = self._peek()
        if token.kind == "-":
            self._advance()
            return Neg(self._unary(), offset=token.offset)
        return self._primary()

    def _primary(self) -> Expr:
        token = self._advance()
        if token.kind == "number":
            return Num(float(token.text), token.text, offset=token.offset)
        if token.kind == "(":
            node = self._expr()
            closing = self._advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.offset)
            return node
        if token.kind == "ident":
            return self._ident(token)
        shown = token.text if token.text else "end of input"
        raise ParseError(f"unexpected token '{shown}'", token.offset)

    def _ident(self, token: _Token) -> Expr:
        name = token.text
        if name in FUNCTION_ARITY:
            if self._peek().kind != "(":
                raise ParseError(f"function '{name}' must be called with arguments", token.offset)
            self._advance()
            args = [self._expr()]
            while self._peek().kind == ",":
                self._advance()
                args.append(self._expr())
            closing = self._advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.offset)
            want = FUNCTION_ARITY[name]
            if len(args) != want:
                plural = "s" if want != 1 else ""
                raise ParseError(
                    f"function '{name}' expects {want} argument{plural}, got {len(args)}",
                    token.offset,
                )
            return Call(name, tuple(args), offset=token.offset)
        if self._peek().kind == "(":
            raise ParseError(f"'{name}' is not a function", self._peek().offset)
        if name in CONSTANTS:
            return Const(name, offset=token.offset)
        m = _VAR_RE.match(name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.n_vars:
                plural = "s" if self.n_vars != 1 else ""
                raise ParseError(
                    f"unknown variable '{name}' ({self.n_vars} variable{plural} declared)",
                    token.offset,
                )
            return Var(index, offset=token.offset)
        raise ParseError(f"unknown identifier '{name}'", token.offset)


def parse(text: str, n_vars: int) -> Expr:
    """Parse `text` over variables x1..x{n_vars}.  n_vars may be 0."""
    if n_vars < 0:
        raise DomainError(f"variable count must be nonnegative, got {n_vars}")
    return _Parser(text, n_vars).parse()


def _point(mask, columns) -> tuple:
    """Coordinates of the first True of `mask`, in C order over the broadcast grid.

    Broadcasting repeats values along size-1 axes, so the first True of the
    full grid has index 0 on every axis `mask` does not span.
    """
    index = np.unravel_index(int(np.argmax(mask)), np.shape(mask))
    ndim = max([len(index)] + [column.ndim for column in columns])
    index = (0,) * (ndim - len(index)) + tuple(int(i) for i in index)
    return tuple(
        column[tuple(i if size > 1 else 0 for i, size in zip(index[ndim - column.ndim :], column.shape))]
        for column in columns
    )


def _power(base, expo, node: Expr, columns) -> np.ndarray:
    fractional = (base < 0.0) & (expo != np.floor(expo))
    if fractional.any():
        raise EvalError("negative base with a non-integer exponent", node, _point(fractional, columns))
    # Under a scalar or broadcast exponent of 2, 0.5 or -1, numpy squares,
    # roots or inverts instead of calling pow, which rounds differently.  An
    # exponent array of the result's whole shape, at least one element,
    # takes pow at every batch size.
    shape = base.shape if expo.ndim == 0 else np.broadcast_shapes(base.shape, expo.shape)
    if expo.shape != shape or not shape:
        expo = np.full(shape or 1, expo)
    out = np.power(base, expo)
    bad = ~np.isfinite(out)
    if bad.any():
        raise EvalError(
            "non-finite power (overflow or zero to a negative exponent)",
            node,
            _point(bad, columns),
        )
    return out if shape else out[0]


def _eval(node: Expr, columns: tuple[np.ndarray, ...]):
    """Value of `node` at the broadcast shape of the columns it reads.

    Literals and constant subtrees stay numpy scalars, so each sub-expression
    costs only the axes its variables span.
    """
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.index > len(columns):
            raise EvalError(f"point has no coordinate x{node.index}", node)
        return columns[node.index - 1]
    if isinstance(node, Const):
        return np.float64(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return -_eval(node.operand, columns)
    if isinstance(node, BinOp):
        left = _eval(node.left, columns)
        right = _eval(node.right, columns)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            zero = right == 0.0
            if zero.any():
                raise EvalError("division by zero", node, _point(zero, columns))
            return left / right
        if node.op == "^":
            return _power(left, right, node, columns)
        raise DomainError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        args = [_eval(a, columns) for a in node.args]
        v = args[0]
        if node.name == "sin":
            return np.sin(v)
        if node.name == "cos":
            return np.cos(v)
        if node.name == "tan":
            return np.tan(v)
        if node.name == "exp":
            out = np.exp(v)
            bad = ~np.isfinite(out)
            if bad.any():
                raise EvalError("overflow in exp", node, _point(bad, columns))
            return out
        if node.name == "log":
            bad = v <= 0.0
            if bad.any():
                raise EvalError("log of a non-positive value", node, _point(bad, columns))
            return np.log(v)
        if node.name == "sqrt":
            bad = v < 0.0
            if bad.any():
                raise EvalError("sqrt of a negative value", node, _point(bad, columns))
            return np.sqrt(v)
        if node.name == "abs":
            return np.abs(v)
        if node.name == "pow":
            return _power(args[0], args[1], node, columns)
        raise DomainError(f"unknown function {node.name!r}")
    raise TypeError(f"not an expression node: {node!r}")


def _subtrees(node: Expr):
    """`node` and its descendants, depth first, left to right."""
    yield node
    if isinstance(node, Neg):
        yield from _subtrees(node.operand)
    elif isinstance(node, BinOp):
        yield from _subtrees(node.left)
        yield from _subtrees(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from _subtrees(arg)


def _evaluate(node: Expr, columns: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> np.ndarray:
    if 0 in shape:
        # No point to evaluate at: only a missing coordinate is an error.
        for sub in _subtrees(node):
            if isinstance(sub, Var) and sub.index > len(columns):
                raise EvalError(f"point has no coordinate x{sub.index}", sub)
        return np.empty(shape)
    # Every way of leaving the reals is checked explicitly, so numpy's own
    # warnings would only repeat the EvalError.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _eval(node, columns)
    bad = ~np.isfinite(out)
    if bad.any():
        raise EvalError("non-finite result", node, _point(bad, columns))
    if out.shape != shape:
        out = np.full(shape, out)
    return out


def evaluate_grid(node: Expr, columns) -> np.ndarray:
    """Values on the grid that coordinate arrays span by broadcasting.

    `columns[j]` holds the values of x{j+1}; the arrays must broadcast
    together, and the result has their broadcast shape.  On a tensor grid
    (axis j's nodes shaped to lie along axis j) a sub-expression is
    evaluated once per node of the axes it reads.  Each value, and the
    point an EvalError names, equals what evaluate_batch gives on the
    materialised points, bit for bit.
    """
    columns = tuple(np.asarray(c, dtype=float) for c in columns)
    return _evaluate(node, columns, np.broadcast_shapes(*(c.shape for c in columns)))


def evaluate_batch(node: Expr, points) -> np.ndarray:
    """Values at a batch of points, shape (count, n_vars) -> shape (count,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DomainError(f"points must be a 2-d array, got shape {pts.shape}")
    return _evaluate(node, tuple(pts.T), pts.shape[:1])


def evaluate(node: Expr, point: Sequence[float]) -> float:
    """Value at one point.  Deterministic: same tree and point, same bits."""
    pts = np.asarray(tuple(float(c) for c in point), dtype=float).reshape(1, -1)
    return float(evaluate_batch(node, pts)[0])


# Grammar production levels used by the printer, loosest to tightest.
_EXPR, _TERM, _FACTOR, _UNARY, _PRIMARY = range(5)


def _natural_level(node: Expr) -> int:
    if isinstance(node, (Num, Var, Const, Call)):
        return _PRIMARY
    if isinstance(node, Neg):
        return _UNARY
    if node.op == "^":
        return _FACTOR
    if node.op in "*/":
        return _TERM
    return _EXPR


def _render(node: Expr, min_level: int) -> str:
    if isinstance(node, Num):
        s = node.text
    elif isinstance(node, Var):
        s = f"x{node.index}"
    elif isinstance(node, Const):
        s = node.name
    elif isinstance(node, Call):
        s = f"{node.name}(" + ",".join(_render(a, _EXPR) for a in node.args) + ")"
    elif isinstance(node, Neg):
        s = "-" + _render(node.operand, _UNARY)
    elif node.op in "+-":
        s = _render(node.left, _EXPR) + node.op + _render(node.right, _TERM)
    elif node.op in "*/":
        s = _render(node.left, _TERM) + node.op + _render(node.right, _FACTOR)
    else:  # ^
        s = _render(node.left, _UNARY) + "^" + _render(node.right, _FACTOR)
    if _natural_level(node) < min_level:
        return "(" + s + ")"
    return s


def to_text(node: Expr) -> str:
    """Minimal-parentheses source form; reparsing yields an equal tree."""
    return _render(node, _EXPR)
