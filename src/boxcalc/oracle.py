"""Ground-truth integrators: composite Gauss-Legendre cubature and seeded Monte Carlo.

Both are deterministic.  The cubature uses cached Legendre rules computed by
Newton iteration; the Monte Carlo stream comes from a counter-based generator
so a seed maps to the same sample sequence on every platform and run, and
its affine map is summed in a fixed order, so its values do not depend on
the BLAS build either.  Both walk their points in tiles of at most
_EVAL_BLOCK, within one tile workspace (see workspace), and both obey the
one evaluation budget, MAX_EVALS points.  Every reduction returns the
correctly rounded exact sum of its terms, regardless of term order and of
how the terms are split into tiles: each tile is first condensed by
error-free extraction into a few floats with the same exact sum, and one
math.fsum rounds the lot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import workspace
from .errors import BudgetExceededError, DomainError
from .geometry import Hypercuboid, checked_determinant


# Most points any one tensor-grid walk evaluates, cubature rules and F grids alike.
MAX_EVALS = 10**8
# Most vertices one vertex sum lists.  Each becomes a labelled contribution,
# and building and rendering 2^16 of them already takes about a second.
MAX_VERTICES = 1 << 16


def check_budget(shape: tuple[int, ...]) -> None:
    """Refuse a tensor grid of this shape, before anything is allocated, when it
    has more than MAX_EVALS points."""
    if math.prod(shape) > MAX_EVALS:
        raise BudgetExceededError(f"{'*'.join(map(str, shape))} grid points exceed the budget {MAX_EVALS}")


def check_vertex_count(dim: int) -> None:
    """Refuse a vertex sum over a dim-dimensional box, before F is evaluated,
    when it has more than MAX_VERTICES vertices."""
    if 2**dim > MAX_VERTICES:
        raise BudgetExceededError(f"2^{dim} vertices exceed the vertex budget {MAX_VERTICES}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite tensor-product rule: `nodes` points per panel, `panels` per axis.

    A request costs (nodes * panels)**dim evaluations and is refused when that
    exceeds MAX_EVALS.
    """

    nodes: int = 12
    panels: int = 4

    def __post_init__(self) -> None:
        if not 2 <= self.nodes <= 32:
            raise DomainError(f"nodes per panel must be in [2, 32], got {self.nodes}")
        if self.panels < 1:
            raise DomainError(f"panels must be at least 1, got {self.panels}")


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


@functools.lru_cache(maxsize=None)
def legendre_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Roots of P_q by Newton iteration from the Chebyshev-like initial guess,
    run until |P_q(x)| < 1e-15 at every root or the iterates stop moving
    (the recurrence's rounding floor), capped at 100 sweeps.  Results are
    cached per q and returned read-only.
    """
    if not 2 <= q <= 32:
        raise DomainError(f"rule size must be in [2, 32], got {q}")
    k = np.arange(q, dtype=float)
    x = np.cos(math.pi * (k + 0.75) / (q + 0.5))
    p, dp = _legendre_and_derivative(q, x)
    for _ in range(100):
        if np.max(np.abs(p)) < 1e-15:
            break
        step = p / dp
        x_new = x - step
        if np.array_equal(x_new, x):
            break
        x = x_new
        p, dp = _legendre_and_derivative(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x = x[order].copy()
    w = w[order].copy()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_and_derivative(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(1, q):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _axis_rule(a: float, b: float, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    x_ref, w_ref = legendre_rule(cfg.nodes)
    edges = (a + (b - a) * np.arange(cfg.panels + 1) / cfg.panels).tolist()
    nodes = []
    weights = []
    for lo, hi in zip(edges, edges[1:]):
        total = lo + hi
        # Where the sum of two finite edges overflows, halving each first
        # is exact; every other panel keeps the rounding it always had.
        mid = 0.5 * total if math.isfinite(total) else 0.5 * lo + 0.5 * hi
        half = 0.5 * (hi - lo)
        nodes.append(mid + half * x_ref)
        weights.append(half * w_ref)
    return np.concatenate(nodes), np.concatenate(weights)


# Points per tile of every tensor-grid walk, cubature rules and field values
# alike: a tile's few float arrays (512 KiB each), recycled by the walk's
# workspace, stay in L2, where 2^20-point slabs streamed 8 MB arrays through
# memory about ten times.  Much smaller tiles pay more per-tile interpreter
# cost instead.
_EVAL_BLOCK = 1 << 16
# Below this many terms math.fsum on the array is faster than extracting first.
_EXTRACT_MIN = 1024


def gauss_legendre_box(f, box: Hypercuboid, cfg: QuadratureConfig | None = None) -> float:
    """Composite tensor-product Gauss-Legendre integral of f over a box.

    Exact (to rounding) for polynomials of per-axis degree up to
    2*nodes - 1.  Degenerate axes contribute zero weight, so the result is
    exactly 0.0 when the box is degenerate.  The tensor grid is walked in
    C order in tiles of at most _EVAL_BLOCK points, sized so that a tile's
    weights, values and extraction temporaries stay in a core's L2 cache;
    memory stays bounded for any rule.  The walk has one tile workspace
    (see workspace), so the tiles reuse their temporaries instead of
    faulting in fresh pages for each.  The value is the correctly rounded
    sum of all weighted integrand values over the whole grid, so it does
    not depend on the tile size and is reproducible bit for bit.  `f` gets
    each tile's per-axis coordinate columns (see ScalarField).  A rule of
    more than MAX_EVALS points raises BudgetExceededError before anything
    is allocated.  An axis whose panel edges overflow, and a sum that
    overflows or is not finite, raise DomainError.
    """
    cfg = cfg or QuadratureConfig()
    n = box.dim
    if getattr(f, "arity", n) != n:
        raise DomainError(f"field arity {f.arity} does not match box dimension {n}")
    check_budget((cfg.nodes * cfg.panels,) * n)
    bounds = [(float(a), float(b)) for a, b in zip(box.lower, box.upper)]
    for j, (a, b) in enumerate(bounds, start=1):
        # Checked on Python floats, so the rule's own arithmetic stays as it is.
        if not math.isfinite((b - a) * cfg.panels):
            raise DomainError(
                f"axis {j}: the cubature's panels on [{a:g}, {b:g}] overflow the floating-point range"
            )
    nodes, axis_weights = zip(*(_axis_rule(a, b, cfg) for a, b in bounds))
    parts = []
    with workspace.walk(min(_EVAL_BLOCK, math.prod(map(len, nodes)))):
        for columns, weights in _grid_slabs(nodes, _EVAL_BLOCK, axis_weights):
            values = _grid_values(f, columns, weights.shape)
            # An overflow leaves a sum that is not finite, refused below.  Only
            # this product runs under errstate: ufuncs are slower inside it.
            # It goes into the weights, the walker's temporary; rebinding
            # frees the unweighted values before the extraction.
            with np.errstate(over="ignore", invalid="ignore"):
                values = np.multiply(weights, values, out=weights)
            parts.append(_exact_parts(values.ravel()))
    total = _fsum_parts(parts)
    if not math.isfinite(total):
        raise DomainError("Gauss-Legendre cubature: the weighted sum is not finite")
    return total + 0.0


def _grid_values(f, columns, shape: tuple[int, ...]) -> np.ndarray:
    """f on one slab, from the slab's per-axis columns, at the slab's shape."""
    values = np.asarray(f.fn(columns), dtype=float)
    if values.shape != shape:
        raise DomainError(f"field returned shape {values.shape}, expected {shape}")
    return values


def _grid_slabs(axes, block: int, weights=None):
    """(columns, weights) of each slab of the tensor grid of per-axis coordinates, in C order.

    The grid is cut into slabs (tiles) of at most `block` points each: a
    run of whole trailing sub-grids (the last k axes in full, k as large as
    fits), or a run of single points when not even one row fits.  Axes may
    differ in length.  A slab's shape is (rows,) followed
    by the k trailing axes' lengths.  `columns[j]` holds axis j's
    coordinates, shaped to broadcast to it: the run's coordinates along the
    first axis for a decoded axis, the whole axis along its own axis for a
    trailing one.  No point array is built.  Given per-axis `weights`, the
    slab's weights have its shape, each the left-to-right product
    w0[i0]*w1[i1]*..., rounded the same way in every slab layout; else None.
    Within a walk (see workspace) the weights are a tile buffer that the
    caller may overwrite and that goes back when the next slab is asked
    for, so they are valid until then.
    """
    sizes = [len(axis) for axis in axes]
    n = len(sizes)
    k = 0
    # An empty axis is never taken whole, so the run below never divides by zero.
    while k < n and 0 < math.prod(sizes[n - k - 1 :]) <= block:
        k += 1
    lead = n - k
    run = block // math.prod(sizes[lead:])
    count = math.prod(sizes[:lead])
    for start in range(0, count, run):
        index = [None] * lead
        rem = np.arange(start, min(start + run, count))
        for j in reversed(range(lead)):
            rem, index[j] = np.divmod(rem, sizes[j])
        rows = len(rem)
        columns = []
        for j, axis in enumerate(axes):
            shape = [1] * (k + 1)
            if j < lead:
                shape[0], axis = rows, axis[index[j]]
            else:
                shape[j - lead + 1] = sizes[j]
            columns.append(axis.reshape(shape))
        slab_weights = None if weights is None else np.ones(rows)
        # Weights that overflow leave a sum that is not finite, refused by the caller.
        with np.errstate(over="ignore"):
            for j, w in enumerate(weights or ()):
                # The last factor gives the slab's shape: that product goes to a tile buffer.
                out = workspace.take((rows, *sizes[lead:])) if j == n - 1 else None
                if j < lead:
                    slab_weights = np.multiply(slab_weights, w[index[j]], out=out)
                else:
                    slab_weights = np.multiply.outer(slab_weights, w, out=out)
        yield tuple(columns), slab_weights
        if slab_weights is not None:
            workspace.give(slab_weights)


def evaluate_on_grid(field, axes) -> np.ndarray:
    """Values of a field on the tensor grid of per-axis coordinates.

    `axes[j]` lists the coordinates of axis j+1; the result has shape
    (len(axes[0]), ..., len(axes[-1])), in C order, so its flat order is
    that of itertools.product(*axes).  Each distinct coordinate of an axis
    is evaluated once, its first occurrence standing for all equal ones
    (so -0.0 after 0.0 reads as 0.0).  A grid of more distinct points than
    MAX_EVALS is refused before anything is allocated (check_budget).
    The grid of distinct coordinates is walked as the cubature's is
    (_grid_slabs): `field.fn` gets each tile's per-axis columns, at most
    _EVAL_BLOCK points, and the values are those of `field.evaluate` on
    the stacked points, bit for bit.  A value that is not finite raises
    DomainError naming it and the first such point in C order, so no
    vertex sum or checker deviation is built on a NaN or an infinity.
    """
    distinct, where = [], []
    for axis in axes:
        first: dict[float, int] = {}
        where.append([first.setdefault(c, len(first)) for c in np.asarray(axis, dtype=float).tolist()])
        distinct.append(np.array(list(first), dtype=float))
    shape = tuple(len(axis) for axis in distinct)
    check_budget(shape)
    values = np.empty(math.prod(shape))
    start = 0
    with workspace.walk(min(_EVAL_BLOCK, values.size)):
        for columns, _ in _grid_slabs(distinct, _EVAL_BLOCK):
            tile = _grid_values(field, columns, np.broadcast_shapes(*(c.shape for c in columns)))
            _refuse_non_finite(tile, columns)
            values[start : start + tile.size] = tile.ravel()
            start += tile.size
    values = values.reshape(shape)
    return values if values.size == math.prod(map(len, where)) else values[np.ix_(*where)]


def _refuse_non_finite(values: np.ndarray, columns) -> None:
    """Raise DomainError naming the first value that is not finite, in C
    order, and its point, read from the columns the values were taken at."""
    if not np.isfinite(values).all():
        index = np.unravel_index(np.flatnonzero(~np.isfinite(values))[0], values.shape)
        point = tuple(float(c[index]) for c in np.broadcast_arrays(*columns))
        raise DomainError(f"field value {float(values[index])} is not finite at point {point}")


def _fsum_parts(parts) -> float:
    """math.fsum of a list of _exact_parts results; nan where it overflows or meets inf - inf."""
    try:
        return math.fsum(np.concatenate(parts))
    except (OverflowError, ValueError):
        return math.nan


def _exact_parts(values) -> np.ndarray:
    """A short float array whose exact sum is the exact sum of `values`.

    Repeated ExtractVector (S. M. Rump, T. Ogita and S. Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31(1), 2008):
    with sigma a power of two, sigma >= len(x) * 2**e and |x| < 2**e,
    q = (sigma + x) - sigma is the part of x on the grid of eps*sigma.
    Every partial sum of q is exact, so q.sum() is exact in any order, and
    x - q is exact.  Each pass keeps that one sum and goes on with the
    remainders, which lie below eps*sigma, dropping zeros once they are
    the majority.  Arrays shorter than
    _EXTRACT_MIN, arrays holding inf or nan, and what is left once sigma
    would overflow or fall below the normal range are returned as they
    are.  So math.fsum of the result is math.fsum(values), bit for bit,
    whenever math.fsum(values) neither overflows nor meets inf or nan,
    and behaves the same on inf and nan.
    """
    x = np.asarray(values, dtype=float).ravel()
    sums = []
    # The first pass's parts: a tile buffer within a walk.  Later passes
    # mostly run on the compacted remainders.
    first = workspace.take(x.shape) if x.size >= _EXTRACT_MIN else None
    out = first
    while x.size >= _EXTRACT_MIN:
        top = max(x.max(), -x.min())
        if not math.isfinite(top):
            break
        exponent = math.frexp(top)[1] + x.size.bit_length()
        if not -1022 <= exponent <= 1023:
            break
        sigma = math.ldexp(1.0, exponent)
        q = np.add(x, sigma, out=out)
        out = None
        q -= sigma
        sums.append(q.sum())
        x = np.subtract(x, q, out=q)
        nonzero = x != 0.0
        kept = np.count_nonzero(nonzero)
        # Dropping zeros costs a copy: worth it once they are the majority.
        if kept < _EXTRACT_MIN or 2 * kept < x.size:
            x = x[nonzero]
    parts = np.concatenate([sums, x])
    if first is not None:
        workspace.give(first)
    return parts


def affine_columns(origin, rows, columns, shape: tuple[int, ...]) -> list[np.ndarray]:
    """The columns x_i = o_i + (T_i1*u_1 + ... + T_in*u_n) of the affine map
    u -> origin + T u, from the columns of u, at their broadcast `shape`.

    Summed left to right, axis by axis, so no point array is stacked and
    no matrix product runs: the values do not depend on the BLAS build.
    `rows` are T's rows as Python floats.  Each x column is a tile buffer
    (see workspace) that the caller gives back.  A product of a column of
    the full shape goes to a tile buffer too, so the map allocates no tile;
    that of a grid axis keeps the axis's length.  Coordinates that overflow
    are inf, without a warning.
    """
    whole = [np.shape(c) == shape for c in columns]
    scratch = workspace.take(shape) if any(whole[1:]) else None
    xs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for o, row in zip(origin, rows):
            x = workspace.take(shape)
            total = np.multiply(row[0], columns[0], out=x if whole[0] else None)
            for t, u, full in zip(row[1:], columns[1:], whole[1:]):
                total = np.add(total, np.multiply(t, u, out=scratch if full else None), out=x)
            xs.append(np.add(o, total, out=x))
    if scratch is not None:
        workspace.give(scratch)
    return xs


def monte_carlo_affine(f, origin, edges, samples: int, seed: int) -> MonteCarloEstimate:
    """Uniform Monte Carlo estimate of the integral over an affine image of the unit box.

    Draws `samples` points u uniformly in [0,1)^n from a Philox stream keyed
    by `seed`, evaluates f(origin + T u) * |det T|, and reports the sample
    mean with its standard error (sample standard deviation / sqrt(samples)).
    A constant integrand yields the constant times |det T| exactly with a
    standard error of exactly 0.0.

    The samples are walked in tiles of _EVAL_BLOCK, within one workspace
    walk: each tile's u rows come from the same stream in the same order
    as one draw would give them, are mapped axis by axis (affine_columns,
    as pullback_field maps them, so the values do not depend on the BLAS
    build), and reach `f.fn` as columns.  Only the scaled values are kept,
    8 bytes per sample; both sums (the mean, then the squared deviations
    from it) are condensed tile by tile into exact parts, so they are the
    correctly rounded sums over all samples, whatever the tile size.  More
    than MAX_EVALS samples raise BudgetExceededError before anything is
    drawn.  A field value that is not finite raises DomainError naming it
    and its sample point, and so does a mean or variance that overflows.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    matrix = np.asarray(edges, dtype=float)
    origin = tuple(float(c) for c in origin)
    n = len(origin)
    if matrix.shape != (n, n):
        raise DomainError(f"edge matrix must be {n}x{n}, got shape {matrix.shape}")
    weight = abs(checked_determinant(matrix))
    if getattr(f, "arity", n) != n:
        raise DomainError(f"field arity {f.arity} does not match dimension {n}")
    check_budget((samples,))
    rows = matrix.tolist()
    rng = np.random.Generator(np.random.Philox(seed))
    values = np.empty(samples)
    tiles = [values[i : i + _EVAL_BLOCK] for i in range(0, samples, _EVAL_BLOCK)]
    mean_parts, square_parts = [], []
    with workspace.walk(len(tiles[0])):
        for tile in tiles:
            u = rng.random(out=workspace.take((len(tile), n)))
            xs = affine_columns(origin, rows, tuple(u.T), tile.shape)
            workspace.give(u)
            fx = _grid_values(f, tuple(xs), tile.shape if n else ())
            _refuse_non_finite(fx, xs)
            workspace.give(*xs)
            # Values that overflow leave a mean that is not finite, refused below.
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(fx, weight, out=tile)
                # f's values go before the extraction: one tile array fewer alive.
                del fx
                deviations = np.subtract(tile, values[0], out=workspace.take(tile.shape))
            mean_parts.append(_exact_parts(deviations))
            workspace.give(deviations)
        mean = float(values[0]) + _fsum_parts(mean_parts) / samples
        if not math.isfinite(mean):
            raise DomainError("Monte Carlo: the sample mean is not finite")
        for tile in tiles:
            # Squares that overflow leave a variance that is not finite, refused below.
            with np.errstate(over="ignore"):
                squares = np.subtract(tile, mean, out=workspace.take(tile.shape))
                np.multiply(squares, squares, out=squares)
            square_parts.append(_exact_parts(squares))
            workspace.give(squares)
    variance = _fsum_parts(square_parts) / (samples - 1)
    if not math.isfinite(variance):
        raise DomainError("Monte Carlo: the sample variance is not finite")
    stderr = math.sqrt(variance / samples)
    return MonteCarloEstimate(estimate=mean, stderr=stderr, samples=samples, seed=seed)
