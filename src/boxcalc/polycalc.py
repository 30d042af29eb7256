"""Exact multivariate polynomial calculus over the rationals.

This module is the exact reference oracle for the floating-point machinery:
every coefficient is a fractions.Fraction and no floating point enters any
computation here.  Decimal literals coming from parsed expressions are read
as exact decimals ("0.25" means 1/4, "0.1" means 1/10).

Expansion is budgeted: a product or power that would raise a variable's
degree, or a power's exponent, above MAX_DEGREE, or multiply more than
MAX_PRODUCTS pairs of coefficients, raises BudgetExceededError before it
runs (check_expansion).

Evaluation reads each coordinate a/b through integer powers a**k * b**(K-k),
shared by all terms and, in a vertex sum, by all vertices, and reduces one
integer sum per point over one common denominator; the values are the same
Fractions a term-by-term sum gives.  poly_vertex_values returns what the
command line's exact route prints: each vertex's label bits, sign and value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import expression as ex
from .errors import BoxcalcError, BudgetExceededError, DomainError, InternalCheckError
from .geometry import Hypercuboid, vertex_signs
from .oracle import check_vertex_count

# The exact route's budget for one expansion.  Coefficient products cost a
# few microseconds each, and more as the coefficients grow; the highest
# degree keeps every power's repeated multiplication and every vertex
# value's integer powers short.
MAX_DEGREE = 1000
MAX_PRODUCTS = 100_000


def check_expansion(products: int, degrees) -> None:
    """Refuse an expansion, before it runs, that multiplies more than
    MAX_PRODUCTS pairs of coefficients or leaves a variable of degree above
    MAX_DEGREE; `degrees` are the result's, variable by variable."""
    if products > MAX_PRODUCTS:
        raise BudgetExceededError(f"{products} coefficient products exceed the budget {MAX_PRODUCTS}")
    for j, degree in enumerate(degrees, start=1):
        if degree > MAX_DEGREE:
            raise BudgetExceededError(f"degree {degree} in x{j} exceeds the degree budget {MAX_DEGREE}")


class NonPolynomialError(BoxcalcError):
    """The expression cannot be converted to an exact polynomial."""


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient.

    The zero polynomial has an empty term map.  Equality is semantic (term
    maps compare independent of insertion order); printing is canonicalized
    in graded lexicographic order, highest degree first.
    """

    arity: int
    terms: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise DomainError(f"arity must be nonnegative, got {self.arity}")
        clean = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(k) for k in exps)
            if len(exps) != self.arity:
                raise DomainError(f"exponent tuple {exps} does not match arity {self.arity}")
            if any(k < 0 for k in exps):
                raise DomainError(f"negative exponent in {exps}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return cls(arity, {})
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        if not 1 <= index <= arity:
            raise DomainError(f"variable x{index} does not exist at arity {arity}")
        exps = tuple(1 if j == index - 1 else 0 for j in range(arity))
        return cls(arity, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(exps) == 0 for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self.terms.get((0,) * self.arity, Fraction(0))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise DomainError(f"arity mismatch: {self.arity} vs {other.arity}")
            return other
        return Polynomial.constant(self.arity, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Polynomial(self.arity, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        check_expansion(len(self.terms) * len(other.terms), map(sum, zip(_degrees(self), _degrees(other))))
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
        return Polynomial(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        """self**k by k multiplications, refused before the first when their
        products could exceed the budget or k exceeds MAX_DEGREE."""
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"polynomial power must be a nonnegative integer, got {k!r}")
        if k > MAX_DEGREE:
            raise BudgetExceededError(f"a power's exponent exceeds the degree budget {MAX_DEGREE}")
        t = len(self.terms)
        degrees = _degrees(self)
        # Multiplication i multiplies the t terms of self by those of self**i:
        # at most comb(i+t-1, t-1) monomials, with at most i*d+1 exponents of
        # a variable of degree d.
        products = 0 if self.is_zero() else sum(
            t * min(math.comb(i + t - 1, t - 1), math.prod(i * d + 1 for d in degrees)) for i in range(k)
        )
        check_expansion(products, [k * d for d in degrees])
        out = Polynomial.constant(self.arity, 1)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exps in ordered:
            coeff = self.terms[exps]
            factors = [
                f"x{j + 1}" + (f"^{k}" if k > 1 else "")
                for j, k in enumerate(exps)
                if k > 0
            ]
            if not factors:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append("*".join(factors))
            elif coeff == -1:
                pieces.append("-" + "*".join(factors))
            else:
                pieces.append(str(coeff) + "*" + "*".join(factors))
        out = pieces[0]
        for piece in pieces[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out


def _degrees(p: Polynomial) -> list[int]:
    """Each variable's highest exponent in p; all 0 for the zero polynomial."""
    return list(map(max, zip(*p.terms))) if p.terms else [0] * p.arity


def _int_exponent(p: Polynomial) -> int:
    if not p.is_constant():
        raise NonPolynomialError("exponent must be a constant")
    c = p.constant_value()
    if c.denominator != 1:
        raise NonPolynomialError(f"fractional exponent {c}")
    if c < 0:
        raise NonPolynomialError(f"negative exponent {c}")
    return int(c)


def _build(node: ex.Expr, arity: int) -> Polynomial:
    if isinstance(node, ex.Num):
        return Polynomial.constant(arity, Fraction(node.text))
    if isinstance(node, ex.Var):
        return Polynomial.variable(arity, node.index)
    if isinstance(node, ex.Const):
        raise NonPolynomialError(f"constant '{node.name}' is not rational")
    if isinstance(node, ex.Neg):
        return -_build(node.operand, arity)
    if isinstance(node, ex.BinOp):
        if node.op == "+":
            return _build(node.left, arity) + _build(node.right, arity)
        if node.op == "-":
            return _build(node.left, arity) - _build(node.right, arity)
        if node.op == "*":
            return _build(node.left, arity) * _build(node.right, arity)
        if node.op == "/":
            denom = _build(node.right, arity)
            if not denom.is_constant():
                raise NonPolynomialError("division by a non-constant expression")
            c = denom.constant_value()
            if c == 0:
                raise NonPolynomialError("division by zero")
            return _build(node.left, arity) * Polynomial.constant(arity, 1 / c)
        if node.op == "^":
            return _build(node.left, arity) ** _int_exponent(_build(node.right, arity))
    if isinstance(node, ex.Call):
        if node.name == "pow":
            return _build(node.args[0], arity) ** _int_exponent(_build(node.args[1], arity))
        raise NonPolynomialError(f"'{node.name}' is not polynomial")
    raise TypeError(f"not an expression node: {node!r}")


def poly_from_expr(node: ex.Expr, arity: int | None = None) -> Polynomial:
    """Expand an expression into an exact polynomial.

    Allowed constructs: numeric literals (read as exact decimals), variables,
    +, -, *, ^ or pow with constant nonnegative integer exponents, and
    division by a nonzero constant.  Anything else raises
    NonPolynomialError.
    """
    top = ex.max_var_index(node)
    if arity is None:
        arity = top
    elif top > arity:
        raise DomainError(f"expression uses x{top} but arity is {arity}")
    return _build(node, arity)


def poly_eval(p: Polynomial, point) -> Fraction:
    """Exact value at a rational point."""
    point = tuple(point)
    if len(point) != p.arity:
        raise DomainError(f"point has {len(point)} coordinates, arity is {p.arity}")
    return _values_at(p, [[Fraction(x)] for x in point], [(0,) * p.arity])[0]


def _values_at(p: Polynomial, axes, choices) -> list[Fraction]:
    """Exact values of p at the points (axes[0][i_1], ..., axes[n-1][i_n]), (i_1, ..., i_n) in choices.

    A coordinate x = a/b on an axis whose top exponent is K enters through
    the integers a**k * b**(K - k), computed once for all points and terms,
    so each value is one integer sum over one common denominator.
    """
    common = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = [(exps, c.numerator * (common // c.denominator)) for exps, c in p.terms.items()]
    tables = []
    scales = []
    for j, coords in enumerate(axes):
        ks = {exps[j] for exps in p.terms}
        top = max(ks, default=0)
        tables.append([{k: x.numerator**k * x.denominator ** (top - k) for k in ks} for x in coords])
        scales.append([x.denominator**top for x in coords])
    values = []
    for choice in choices:
        chosen = [table[i] for table, i in zip(tables, choice)]
        total = 0
        for exps, v in terms:
            for powers, k in zip(chosen, exps):
                v *= powers[k]
            total += v
        scale = math.prod(s[i] for s, i in zip(scales, choice))
        values.append(Fraction(total, common * scale))
    return values


def _integrate_axis(p: Polynomial, j: int, a: Fraction) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}

    def add(exps, coeff):
        terms[exps] = terms.get(exps, Fraction(0)) + coeff

    for exps, coeff in p.terms.items():
        k = exps[j]
        c1 = coeff / (k + 1)
        add(exps[:j] + (k + 1,) + exps[j + 1 :], c1)
        if a != 0:
            add(exps[:j] + (0,) + exps[j + 1 :], -c1 * a ** (k + 1))
    return Polynomial(p.arity, terms)


def poly_antiderivative(p: Polynomial, corner) -> Polynomial:
    """Iterated exact antiderivative vanishing on every corner hyperplane.

    Axis by axis, each monomial c*x^k becomes c*(x^(k+1) - a^(k+1))/(k+1),
    so the result's mixed partial is p and the result is zero whenever some
    coordinate equals the matching corner coordinate.
    """
    corner = tuple(corner)
    if len(corner) != p.arity:
        raise DomainError(f"corner has {len(corner)} coordinates, arity is {p.arity}")
    out = p
    for j, a in enumerate(corner):
        out = _integrate_axis(out, j, Fraction(a))
    return out


def poly_mixed_partial(p: Polynomial) -> Polynomial:
    """One derivative along every axis, exactly."""
    out = p
    for j in range(p.arity):
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in out.terms.items():
            k = exps[j]
            if k == 0:
                continue
            down = exps[:j] + (k - 1,) + exps[j + 1 :]
            terms[down] = terms.get(down, Fraction(0)) + coeff * k
        out = Polynomial(p.arity, terms)
    return out


def _box_corners(box) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    if isinstance(box, Hypercuboid):
        lo, hi = box.lower, box.upper
    else:
        lo, hi = box
    lo = tuple(Fraction(x) for x in lo)
    hi = tuple(Fraction(x) for x in hi)
    if len(lo) != len(hi):
        raise DomainError(f"bound lengths differ: {len(lo)} vs {len(hi)}")
    for j, (a, b) in enumerate(zip(lo, hi), start=1):
        if a > b:
            raise DomainError(f"axis {j}: lower bound {a} exceeds upper bound {b}")
    return lo, hi


def poly_vertex_values(p: Polynomial, box) -> list[tuple[tuple[int, ...], int, Fraction]]:
    """(bits, sign, exact value of p) at each box vertex, in label order.

    Bit k selects the lower (0) or upper (1) bound of axis k, bit 1 varying
    slowest; the sign is +1 when the vertex uses an even number of lower
    bounds.  Each bound's powers are computed once, for all vertices and
    terms.  A box of more than oracle.MAX_VERTICES vertices is refused
    before any is listed.
    """
    lo, hi = _box_corners(box)
    if len(lo) != p.arity:
        raise DomainError(f"box has {len(lo)} axes, arity is {p.arity}")
    check_vertex_count(len(lo))
    labels = list(itertools.product((0, 1), repeat=len(lo)))
    values = _values_at(p, list(zip(lo, hi)), labels)
    return list(zip(labels, vertex_signs(len(lo)), values))


def poly_vertex_sum(p: Polynomial, box) -> Fraction:
    """Alternating sum of p over the box vertices, exact (see poly_vertex_values)."""
    return sum((sign * value for _, sign, value in poly_vertex_values(p, box)), Fraction(0))


def vertex_sum_integral(p: Polynomial, box) -> Fraction:
    """Box integral via the alternating vertex sum of the exact antiderivative."""
    lo, hi = _box_corners(box)
    if len(lo) != p.arity:
        raise DomainError(f"box has {len(lo)} axes, arity is {p.arity}")
    F = poly_antiderivative(p, lo)
    return poly_vertex_sum(F, (lo, hi))


def monomial_product_integral(p: Polynomial, box) -> Fraction:
    """Box integral as a sum over monomials of products of 1-d integrals."""
    lo, hi = _box_corners(box)
    if len(lo) != p.arity:
        raise DomainError(f"box has {len(lo)} axes, arity is {p.arity}")
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        v = coeff
        for a, b, k in zip(lo, hi, exps):
            v *= (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        total += v
    return total


def poly_box_integral(p: Polynomial, box) -> Fraction:
    """Exact box integral, computed by two routes that must agree.

    Route one is the alternating vertex sum of the exact antiderivative;
    route two integrates each monomial as a product of 1-d integrals.  A
    mismatch means a bug in this module, never bad input.
    """
    return checked_box_integral(p, box, vertex_sum_integral(p, box))


def checked_box_integral(p: Polynomial, box, via_vertices: Fraction) -> Fraction:
    """`via_vertices`, once it equals the integral of p by monomial products.

    The caller's vertex sum of the exact antiderivative is route one of
    poly_box_integral; a mismatch raises InternalCheckError.
    """
    via_products = monomial_product_integral(p, box)
    if via_vertices != via_products:
        raise InternalCheckError(
            f"integral routes disagree: vertex sum {via_vertices} vs product {via_products}"
        )
    return via_vertices
