"""Scalar fields, numeric antiderivatives, and mixed-partial verification.

A ScalarField evaluates batches of points through one vectorized callable, so
quadrature tensor grids cost one call.  The numeric antiderivative of f based
at a corner a is F(x) = integral of f over the sub-box [a, x]; its mixed
partial (one derivative per axis) recovers f, which check_antiderivative
verifies on an interior grid with central differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expression as ex
from . import polycalc
from .errors import DomainError, GaugeDependenceError
from .geometry import Hypercuboid, vertex_sign, vertices_lex
from .oracle import QuadratureConfig, gauss_legendre_box

_GAUGE_SPOT_SEED = 177113


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function of `arity` real variables with batch evaluation.

    `fn` maps an array of shape (count, arity) to an array of shape (count,).
    Evaluation is deterministic: the same points produce bitwise the same
    values.  `tag` records provenance (expression, polynomial, builtin,
    pullback, numeric-antiderivative, gauge-shifted).  Fields built from an
    expression also evaluate a cubature grid straight from its per-axis
    coordinates (see gauss_legendre_box); every other field gets the grid's
    points as rows.
    """

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    tag: str = "builtin"

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise DomainError(f"arity must be nonnegative, got {self.arity}")

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise DomainError(
                f"points must have shape (count, {self.arity}), got {pts.shape}"
            )
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise DomainError(
                f"field returned shape {out.shape}, expected ({pts.shape[0]},)"
            )
        return out

    def __call__(self, point: Sequence[float]) -> float:
        pts = np.asarray(tuple(float(c) for c in point), dtype=float).reshape(1, -1)
        return float(self.evaluate(pts)[0])


@dataclass(frozen=True)
class Antiderivative:
    """A scalar field known to be an antiderivative.

    `corner` is the base corner used by the numeric construction; None marks
    a user-supplied antiderivative with no known base.
    """

    field: ScalarField
    corner: tuple[float, ...] | None = None

    @property
    def arity(self) -> int:
        return self.field.arity

    def evaluate(self, points) -> np.ndarray:
        return self.field.evaluate(points)

    def __call__(self, point: Sequence[float]) -> float:
        return self.field(point)


def as_field(f) -> ScalarField:
    """Accept a ScalarField or an Antiderivative wherever a field is needed."""
    if isinstance(f, ScalarField):
        return f
    if isinstance(f, Antiderivative):
        return f.field
    raise TypeError(f"expected ScalarField or Antiderivative, got {type(f).__name__}")


@dataclass(frozen=True)
class _ExpressionField(ScalarField):
    """A field whose values come from an expression tree."""

    node: ex.Expr | None = None

    def _evaluate_grid(self, columns) -> np.ndarray:
        """Values on the grid the per-axis coordinate arrays span by broadcasting."""
        return ex.evaluate_grid(self.node, columns)


def field_from_expression(source, arity: int | None = None, tag: str = "expression") -> ScalarField:
    """Field backed by a parsed expression tree (or source text)."""
    if isinstance(source, str):
        if arity is None:
            raise DomainError("arity is required when parsing source text")
        node = ex.parse(source, arity)
    else:
        node = source
        if arity is None:
            arity = polycalc._max_var_index(node)
    return _ExpressionField(arity, lambda pts: ex.evaluate_batch(node, pts), tag=tag, node=node)


def field_from_polynomial(p: polycalc.Polynomial) -> ScalarField:
    """Floating-point view of an exact polynomial."""
    terms = [(exps, float(coeff)) for exps, coeff in p.terms.items()]

    def fn(pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for exps, coeff in terms:
            piece = np.full(pts.shape[0], coeff)
            for j, k in enumerate(exps):
                if k:
                    piece = piece * pts[:, j] ** k
            out = out + piece
        return out

    return ScalarField(p.arity, fn, tag="polynomial")


def field_from_callable(fn, arity: int, tag: str = "builtin", batch: bool = False) -> ScalarField:
    """Field from a plain Python function.

    With batch=False, `fn` takes one point tuple and returns a float; it is
    wrapped in a per-row loop.  With batch=True, `fn` already maps a
    (count, arity) array to a (count,) array.
    """
    if batch:
        return ScalarField(arity, fn, tag=tag)

    def rowwise(pts: np.ndarray) -> np.ndarray:
        return np.array([float(fn(tuple(row))) for row in pts])

    return ScalarField(arity, rowwise, tag=tag)


def _builtin_text(name: str, arity: int) -> str:
    xs = [f"x{j}" for j in range(1, arity + 1)]
    if name == "one":
        return "1"
    if name == "coordinate_product":
        return "*".join(xs) if xs else "1"
    if name == "trig_product":
        return "*".join(
            f"sin({x})" if j % 2 == 1 else f"cos({x})"
            for j, x in enumerate(xs, start=1)
        ) or "1"
    if name == "exp_sum":
        return "exp(" + "+".join(xs) + ")" if xs else "1"
    if name == "shifted_quadratic":
        return "1+" + "+".join(f"{x}^2" for x in xs) if xs else "1"
    raise DomainError(f"unknown builtin field '{name}'")


def builtin_names() -> tuple[str, ...]:
    return ("one", "coordinate_product", "trig_product", "exp_sum", "shifted_quadratic")


def builtin_field(name: str, arity: int) -> ScalarField:
    """One of the stock smooth fields, at the requested arity."""
    if arity < 1:
        raise DomainError(f"builtin fields need arity >= 1, got {arity}")
    return field_from_expression(_builtin_text(name, arity), arity, tag="builtin")


def numeric_antiderivative(
    f: ScalarField, corner, quad: QuadratureConfig | None = None
) -> Antiderivative:
    """Antiderivative of f based at `corner`: F(x) = integral of f over [corner, x].

    F is exactly 0.0 whenever some coordinate of x equals the matching corner
    coordinate, and rejects points below the corner.  Each evaluation runs
    one tensor-product quadrature over the sub-box, so accuracy and cost
    follow `quad`.
    """
    f = as_field(f)
    base = tuple(float(c) for c in corner)
    if len(base) != f.arity:
        raise DomainError(f"corner has {len(base)} coordinates, field arity is {f.arity}")
    cfg = quad or QuadratureConfig()

    def value_at(point: tuple[float, ...]) -> float:
        if len(point) != len(base):
            raise DomainError(f"point has {len(point)} coordinates, need {len(base)}")
        for j, (a, x) in enumerate(zip(base, point), start=1):
            if x < a:
                raise DomainError(
                    f"axis {j}: point coordinate {x} lies below the base corner {a}"
                )
        if any(x == a for a, x in zip(base, point)):
            return 0.0
        return gauss_legendre_box(f, Hypercuboid(base, point), cfg)

    def fn(pts: np.ndarray) -> np.ndarray:
        return np.array([value_at(tuple(row)) for row in pts])

    field = ScalarField(f.arity, fn, tag="numeric-antiderivative")
    return Antiderivative(field=field, corner=base)


def _check_steps(h: tuple[float, ...]) -> None:
    # Written so that NaN fails too: every comparison with NaN is false.
    if not all(0.0 < step < math.inf for step in h):
        raise DomainError(f"all steps h must be positive and finite, got h={h}")


def mixed_partial(F, x, h) -> float:
    """Central-difference mixed partial of F at x: one derivative per axis.

    Alternating vertex sum of F over the stencil box prod_j [x_j - h_j,
    x_j + h_j], divided by prod_j (2 h_j).  Second-order accurate; exact for
    multilinear F up to rounding.
    """
    F = as_field(F)
    x = tuple(float(c) for c in x)
    h = tuple(float(c) for c in h)
    if len(x) != F.arity or len(h) != F.arity:
        raise DomainError(f"point and steps must have {F.arity} coordinates")
    _check_steps(h)
    box = Hypercuboid(
        tuple(c - step for c, step in zip(x, h)),
        tuple(c + step for c, step in zip(x, h)),
    )
    total = math.fsum(vertex_sign(label) * F(point) for label, point in vertices_lex(box))
    return total / math.prod(2.0 * step for step in h)


@dataclass(frozen=True)
class CheckReport:
    """Result of verifying mixed_partial(F) == f on an interior grid."""

    passed: bool
    max_abs_deviation: float
    max_rel_deviation: float
    worst_point: tuple[float, ...]
    tol: float
    grid_points: int
    h: tuple[float, ...]

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max abs {self.max_abs_deviation:.3e}, "
            f"max rel {self.max_rel_deviation:.3e} at {self.worst_point} "
            f"(tol {self.tol:g})"
        )


def check_antiderivative(
    f,
    F,
    box: Hypercuboid,
    grid_points: int = 5,
    h=None,
    tol: float = 1e-4,
) -> CheckReport:
    """Compare mixed_partial(F) against f on an interior grid of the box.

    The grid has `grid_points` per axis, inset from the boundary by h, with
    h defaulting to 1e-3 of each axis extent.  Relative deviation is
    |diff| / max(1, |f(x)|); the check passes when the largest relative
    deviation stays within `tol`.
    """
    f = as_field(f)
    F = as_field(F)
    n = box.dim
    if f.arity != n or F.arity != n:
        raise DomainError(f"field arities must match the box dimension {n}")
    if grid_points < 1:
        raise DomainError(f"grid needs at least one point per axis, got {grid_points}")
    extents = [float(b) - float(a) for a, b in zip(box.lower, box.upper)]
    if h is None:
        h = tuple(1e-3 * ext for ext in extents)
    elif np.isscalar(h):
        h = (float(h),) * n
    else:
        h = tuple(float(c) for c in h)
    if len(h) != n:
        raise DomainError(f"h must have {n} entries, got {len(h)}")
    _check_steps(h)
    axes = []
    for j, (a, b, step) in enumerate(zip(box.lower, box.upper, h), start=1):
        a, b = float(a), float(b)
        lo, hi = a + step, b - step
        # Rounding in a + step or b - step can put a stencil corner just outside the box.
        while lo - step < a:
            lo = math.nextafter(lo, math.inf)
        while hi + step > b:
            hi = math.nextafter(hi, -math.inf)
        if lo > hi:
            raise DomainError(f"axis {j}: stencil of half-width {step} escapes the box")
        axes.append(np.linspace(lo, hi, grid_points))
    max_abs = 0.0
    max_rel = -1.0
    worst = None
    for point in itertools.product(*axes):
        point = tuple(float(c) for c in point)
        approx = mixed_partial(F, point, h)
        exact = f(point)
        abs_dev = abs(approx - exact)
        rel_dev = abs_dev / max(1.0, abs(exact))
        max_abs = max(max_abs, abs_dev)
        if rel_dev > max_rel:
            max_rel = rel_dev
            worst = point
    return CheckReport(
        passed=max_rel <= tol,
        max_abs_deviation=max_abs,
        max_rel_deviation=max_rel,
        worst_point=worst,
        tol=tol,
        grid_points=grid_points,
        h=h,
    )


def gauge_add(
    F,
    C,
    constant_axes: Iterable[int],
    domain: Hypercuboid | None = None,
    spot_checks: int = 8,
) -> ScalarField:
    """Pointwise sum F + C where C must not vary along the declared axes.

    The declaration is spot-checked at `spot_checks` random point pairs per
    declared axis (pairs differ only on that axis), drawn from `domain` (the
    unit box by default) with a fixed seed, so the check is probabilistic
    but deterministic.  A detected dependence raises GaugeDependenceError.
    """
    F = as_field(F)
    C = as_field(C)
    n = F.arity
    if C.arity != n:
        raise DomainError(f"arity mismatch: F has {n}, C has {C.arity}")
    axes = sorted(set(int(a) for a in constant_axes))
    if not axes:
        raise DomainError("declare at least one constant axis")
    if any(not 1 <= a <= n for a in axes):
        raise DomainError(f"constant axes must lie in 1..{n}, got {axes}")
    if domain is None:
        lo = np.zeros(n)
        span = np.ones(n)
    else:
        if domain.dim != n:
            raise DomainError(f"domain dimension {domain.dim} does not match arity {n}")
        lo = np.array([float(a) for a in domain.lower])
        span = np.array([float(b) for b in domain.upper]) - lo
    rng = np.random.default_rng(_GAUGE_SPOT_SEED)
    for axis in axes:
        first = lo + span * rng.random((spot_checks, n))
        second = first.copy()
        second[:, axis - 1] = lo[axis - 1] + span[axis - 1] * rng.random(spot_checks)
        va = C.evaluate(first)
        vb = C.evaluate(second)
        scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
        gap = float(np.max(np.abs(va - vb)))
        if gap > 1e-9 * scale:
            raise GaugeDependenceError(
                f"gauge term varies along declared-constant axis {axis} "
                f"(spot-check deviation {gap:.3e})"
            )

    def fn(pts: np.ndarray) -> np.ndarray:
        return F.evaluate(pts) + C.evaluate(pts)

    return ScalarField(n, fn, tag="gauge-shifted")
