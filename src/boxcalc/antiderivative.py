"""Scalar fields, numeric antiderivatives, and mixed-partial verification.

A ScalarField is any function of n variables, the antiderivatives included.
It evaluates one vectorized callable on coordinate columns that broadcast
together, so a batch of points or a slab of a quadrature tensor grid costs
one call.  The numeric antiderivative of f based at a corner a is
F(x) = integral of f over the sub-box [a, x]; its mixed partial (one
derivative per axis) recovers f, which check_antiderivative verifies on an
interior grid with central differences: F is evaluated once on the tensor
grid of all stencil corners, and each stencil is a cell of that grid
(geometry.cell_vertex_sums).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import expression as ex
from . import polycalc, workspace
from .errors import DomainError, GaugeDependenceError
from .geometry import Hypercuboid, cell_vertex_sums
from .oracle import QuadratureConfig, check_budget, evaluate_on_grid, gauss_legendre_box

# gauge_add spot-checks a declared-constant axis at this many random point
# pairs, drawn with this seed.
_GAUGE_SPOT_CHECKS = 8
_GAUGE_SPOT_SEED = 177113


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function of `arity` real variables, evaluated on coordinate columns.

    `fn` takes a tuple of `arity` arrays, column j holding the values of
    x{j+1}, that broadcast together, and returns the values at their
    broadcast shape.  The columns may be those of a (count, arity) batch
    of points (`evaluate`), or one tile of a tensor grid, each axis's
    coordinates shaped to lie along its own axis: cubature rules and grids
    of F values both reach `fn` that way (oracle.evaluate_on_grid,
    gauss_legendre_box).  The columns are valid for that one call: within
    a walk they may be tile buffers that the next tile overwrites (see
    workspace), so there `fn` keeps none of them and returns a new array
    rather than a column or a view of one.  Evaluation is deterministic:
    the same points produce bitwise the same values, however they are
    batched or broadcast.  `tag` records provenance (expression,
    polynomial, builtin, pullback, numeric-antiderivative, gauge-shifted).
    """

    arity: int
    fn: Callable[[tuple[np.ndarray, ...]], np.ndarray]
    tag: str = "builtin"

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise DomainError(f"arity must be nonnegative, got {self.arity}")

    def evaluate(self, points) -> np.ndarray:
        """Values at a batch of points, shape (count, arity) -> shape (count,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise DomainError(
                f"points must have shape (count, {self.arity}), got {pts.shape}"
            )
        out = np.asarray(self.fn(tuple(pts.T)), dtype=float)
        if self.arity == 0:
            # No column carries the batch's length: a constant has shape ().
            out = np.broadcast_to(out, pts.shape[:1])
        if out.shape != pts.shape[:1]:
            raise DomainError(
                f"field returned shape {out.shape}, expected ({pts.shape[0]},)"
            )
        return out

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.array([[float(c) for c in point]]))[0])


def field_from_expression(source, arity: int | None = None, tag: str = "expression") -> ScalarField:
    """Field backed by a parsed expression tree (or source text)."""
    if isinstance(source, str):
        if arity is None:
            raise DomainError("arity is required when parsing source text")
        node = ex.parse(source, arity)
    else:
        node = source
        if arity is None:
            arity = ex.max_var_index(node)
    return ScalarField(arity, lambda columns: ex.evaluate_grid(node, columns), tag=tag)


def field_from_polynomial(p: polycalc.Polynomial) -> ScalarField:
    """Floating-point view of an exact polynomial."""
    terms = [(exps, float(coeff)) for exps, coeff in p.terms.items()]

    def fn(columns) -> np.ndarray:
        shape = ex.broadcast_shape(columns)
        out = np.zeros(shape)
        # Each term is built in one tile buffer and added into `out` in place,
        # the same products and sums as coeff * x**k * ... term by term.
        piece = workspace.take(shape)
        for exps, coeff in terms:
            piece.fill(coeff)
            for column, k in zip(columns, exps):
                if k:
                    np.multiply(piece, column**k, out=piece)
            np.add(out, piece, out=out)
        workspace.give(piece)
        return out

    return ScalarField(p.arity, fn, tag="polynomial")


def field_from_callable(fn, arity: int, tag: str = "builtin", batch: bool = False) -> ScalarField:
    """Field from a plain Python function of stacked points.

    With batch=False, `fn` takes one point tuple and returns a float; it is
    wrapped in a per-row loop.  With batch=True, `fn` already maps a
    (count, arity) array to a (count,) array.  The field stacks its
    coordinate columns into such rows, in C order of their broadcast shape.
    """

    def on_columns(columns) -> np.ndarray:
        shape = ex.broadcast_shape(columns)
        points = np.empty(shape + (arity,))
        for j, column in enumerate(columns):
            points[..., j] = column
        rows = points.reshape(math.prod(shape), arity)
        values = fn(rows) if batch else [float(fn(tuple(row))) for row in rows]
        values = np.asarray(values, dtype=float)
        if values.shape != rows.shape[:1]:
            raise DomainError(f"field returned shape {values.shape}, expected {rows.shape[:1]}")
        return values.reshape(shape)

    return ScalarField(arity, on_columns, tag=tag)


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
) -> ScalarField:
    """The antiderivative of f based at `corner`: F(x) = integral of f over [corner, x].

    F is exactly 0.0 whenever some coordinate of x equals the matching corner
    coordinate, and rejects points below the corner.  Each other evaluation
    runs one tensor-product quadrature over the sub-box, so accuracy and
    cost follow `quad`.  One call of F.fn whose quadratures would evaluate
    more than MAX_EVALS points in all raises BudgetExceededError before
    the first one runs.  F is a ScalarField tagged numeric-antiderivative.
    """
    base = tuple(float(c) for c in corner)
    if len(base) != f.arity:
        raise DomainError(f"corner has {len(base)} coordinates, field arity is {f.arity}")
    cfg = quad or QuadratureConfig()
    rule = (cfg.nodes * cfg.panels,) * f.arity

    def fn(columns) -> np.ndarray:
        shape = ex.broadcast_shape(columns)
        points = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, f.arity)
        below = np.argwhere(points < base)
        if len(below):
            row, j = below[0]
            raise DomainError(
                f"axis {j + 1}: point coordinate {points[row, j]} lies below the base corner {base[j]}"
            )
        active = ~(points == base).any(axis=1)
        check_budget((int(np.count_nonzero(active)), *rule))
        values = np.zeros(len(points))
        rows = points[active].tolist()
        values[active] = [gauss_legendre_box(f, Hypercuboid(base, tuple(x)), cfg) for x in rows]
        return values.reshape(shape)

    return ScalarField(f.arity, fn, tag="numeric-antiderivative")


def default_steps(box: Hypercuboid) -> tuple[float, ...]:
    """The checker's default stencil half-widths: h_j = eps**(1/(n+2)) * (b_j - a_j).

    eps = 2**-52.  A central-difference mixed partial in n dimensions has
    truncation error O(h**2) and rounding error about eps * |F| / (2h)**n;
    this h balances the two, where a step fixed for every n lets the
    rounding error grow past the default tolerance from 5-d on.
    """
    scale = sys.float_info.epsilon ** (1.0 / (box.dim + 2))
    return tuple(scale * (float(b) - float(a)) for a, b in zip(box.lower, box.upper))


def _check_steps(h: tuple[float, ...]) -> None:
    # Written so that NaN fails too: every comparison with NaN is false.
    if not all(0.0 < step < math.inf for step in h):
        raise DomainError(f"all steps h must be positive and finite, got h={h}")
    # Every vertex sum is divided by this scale: a subnormal one loses
    # digits silently, and zero or inf all of them.
    scale = math.prod(2.0 * step for step in h)
    if not sys.float_info.min <= scale < math.inf:
        raise DomainError(f"the stencil scale prod(2*h) = {scale:.3g} is not a normal float, got h={h}")


def _stencil_sums(F, centres, h) -> list[float]:
    """mixed_partial of F at every point of the tensor grid of `centres`, in product order.

    All stencil corners lie on one tensor grid, x - h_j and x + h_j for each
    centre x on axis j, evaluated once.  Each point's stencil is a cell at
    stride 2 of that grid: its exact vertex sum, divided by prod_j (2 h_j).
    """
    corners = [np.column_stack([c - step, c + step]).ravel() for c, step in zip(centres, h)]
    scale = math.prod(2.0 * step for step in h)
    return [total / scale for total in cell_vertex_sums(evaluate_on_grid(F, corners), stride=2)]


def mixed_partial(F, x, h) -> float:
    """Central-difference mixed partial of F at x: one derivative per axis.

    Alternating vertex sum of F over the stencil box prod_j [x_j - h_j,
    x_j + h_j], divided by prod_j (2 h_j), which must be a normal float.
    Second-order accurate; exact for multilinear F up to rounding.  The
    2**n corners take one call of F.fn (see evaluate_on_grid).
    """
    x = tuple(float(c) for c in x)
    h = tuple(float(c) for c in h)
    if len(x) != F.arity or len(h) != F.arity:
        raise DomainError(f"point and steps must have {F.arity} coordinates")
    _check_steps(h)
    return _stencil_sums(F, [np.array([c]) for c in x], h)[0]


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

    The grid has `grid_points` per axis, inset from the boundary by h.  h
    is a scalar or one step per axis, and defaults to default_steps(box).
    Relative deviation is |diff| / max(1, |f(x)|); the check passes when
    the largest relative deviation stays within `tol`.  F is evaluated
    once on the tensor grid of all stencil corners, at most
    (2 * grid_points)**n distinct points, and f once on the grid (see
    evaluate_on_grid, which refuses values that are not finite).  Every
    value, sum and deviation equals that of one mixed_partial and one f
    call per grid point, bit for bit, and ties for the worst point go to
    the first in product order.  A deviation that overflows reads inf and
    fails the check.
    """
    n = box.dim
    if f.arity != n or F.arity != n:
        raise DomainError(f"field arities must match the box dimension {n}")
    if grid_points < 1:
        raise DomainError(f"grid needs at least one point per axis, got {grid_points}")
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be non-negative and finite, got tol={tol}")
    try:
        h = default_steps(box) if h is None else tuple(np.broadcast_to(np.asarray(h, dtype=float), n).tolist())
    except ValueError:
        raise DomainError(f"h must be one step, or one per axis ({n}), got h={h}") from None
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
    approx = np.array(_stencil_sums(F, axes, h))
    exact = evaluate_on_grid(f, axes).ravel()
    with np.errstate(over="ignore"):
        dev = np.abs(approx - exact)
    rel = dev / np.maximum(1.0, np.abs(exact))
    worst = int(np.argmax(rel))
    index = np.unravel_index(worst, (grid_points,) * n)
    max_rel = float(rel[worst])
    return CheckReport(
        passed=max_rel <= tol,
        max_abs_deviation=float(dev.max()),
        max_rel_deviation=max_rel,
        worst_point=tuple(float(axis[i]) for axis, i in zip(axes, index)),
        tol=tol,
        grid_points=grid_points,
        h=h,
    )


def gauge_add(
    F,
    C,
    constant_axes: Iterable[int],
    domain: Hypercuboid | None = None,
) -> ScalarField:
    """Pointwise sum F + C where C must not vary along the declared axes.

    The declaration is spot-checked at 8 random point pairs per declared
    axis (pairs differ only on that axis), drawn from `domain` (the unit
    box by default) with a fixed seed, so the check is probabilistic but
    deterministic.  A detected dependence raises GaugeDependenceError.
    """
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
        first = lo + span * rng.random((_GAUGE_SPOT_CHECKS, n))
        second = first.copy()
        second[:, axis - 1] = lo[axis - 1] + span[axis - 1] * rng.random(_GAUGE_SPOT_CHECKS)
        va = C.evaluate(first)
        vb = C.evaluate(second)
        scale = max(1.0, float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
        gap = float(np.max(np.abs(va - vb)))
        if gap > 1e-9 * scale:
            raise GaugeDependenceError(
                f"gauge term varies along declared-constant axis {axis} "
                f"(spot-check deviation {gap:.3e})"
            )

    return ScalarField(n, lambda columns: F.fn(columns) + C.fn(columns), tag="gauge-shifted")
