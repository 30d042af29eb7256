"""Ground-truth integrators: composite Gauss-Legendre cubature and seeded Monte Carlo.

Both are deterministic.  The cubature uses cached Legendre rules computed by
Newton iteration; the Monte Carlo stream comes from a counter-based generator
so a seed maps to the same sample sequence on every platform and run.  Every
reduction returns the correctly rounded exact sum of its terms, regardless of
term order and of how the terms are split into blocks: long arrays are first
condensed by error-free extraction into a few floats with the same exact sum,
and one math.fsum rounds the lot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .geometry import Hypercuboid, checked_determinant


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite tensor-product rule: `nodes` points per panel, `panels` per axis.

    A request costs (nodes * panels)**dim evaluations and is refused when that
    exceeds `max_evals`.
    """

    nodes: int = 12
    panels: int = 4
    max_evals: int = 10**8

    def __post_init__(self) -> None:
        if not 2 <= self.nodes <= 32:
            raise DomainError(f"nodes per panel must be in [2, 32], got {self.nodes}")
        if self.panels < 1:
            raise DomainError(f"panels must be at least 1, got {self.panels}")
        if self.max_evals < 1:
            raise DomainError(f"max_evals must be positive, got {self.max_evals}")


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
    edges = a + (b - a) * np.arange(cfg.panels + 1) / cfg.panels
    nodes = []
    weights = []
    for k in range(cfg.panels):
        mid = 0.5 * (edges[k] + edges[k + 1])
        half = 0.5 * (edges[k + 1] - edges[k])
        nodes.append(mid + half * x_ref)
        weights.append(half * w_ref)
    return np.concatenate(nodes), np.concatenate(weights)


_EVAL_BLOCK = 1 << 20
# Below this many terms math.fsum on the array is faster than extracting first.
_EXTRACT_MIN = 1024


def gauss_legendre_box(f, box: Hypercuboid, cfg: QuadratureConfig | None = None) -> float:
    """Composite tensor-product Gauss-Legendre integral of f over a box.

    Exact (to rounding) for polynomials of per-axis degree up to
    2*nodes - 1.  Degenerate axes contribute zero weight, so the result is
    exactly 0.0 when the box is degenerate.  The tensor grid is walked in
    C order in slabs of at most _EVAL_BLOCK points, so memory stays bounded
    for large rules.  The value is the correctly rounded sum of all weighted
    integrand values over the whole grid, so it does not depend on the slab
    size and is reproducible bit for bit.
    """
    cfg = cfg or QuadratureConfig()
    n = box.dim
    if getattr(f, "arity", n) != n:
        raise DomainError(f"field arity {f.arity} does not match box dimension {n}")
    per_axis = cfg.nodes * cfg.panels
    if per_axis**n > cfg.max_evals:
        raise BudgetExceededError(
            f"({cfg.nodes}*{cfg.panels})^{n} evaluations exceed the budget {cfg.max_evals}"
        )
    rules = [_axis_rule(float(box.lower[j]), float(box.upper[j]), cfg) for j in range(n)]
    parts = [
        _exact_parts((weights * _grid_values(f, columns, weights.shape)).ravel())
        for columns, weights in _grid_slabs(rules, _EVAL_BLOCK)
    ]
    return math.fsum(np.concatenate(parts)) + 0.0


def _grid_values(f, columns, shape: tuple[int, ...]) -> np.ndarray:
    """f on one slab, at the slab's shape.

    A field that evaluates coordinate columns itself (an expression field)
    gets them as they are; any other field gets the slab's points stacked
    into rows, in C order.
    """
    evaluate_grid = getattr(f, "_evaluate_grid", None)
    if evaluate_grid is not None:
        return evaluate_grid(columns)
    points = np.empty(shape + (len(columns),))
    for j, column in enumerate(columns):
        points[..., j] = column
    return f.evaluate(points.reshape(-1, len(columns))).reshape(shape)


def _grid_slabs(rules, block: int):
    """(columns, weights) of the tensor grid of per-axis (nodes, weights) rules, in C order.

    Each slab holds at most `block` points: a run of whole trailing
    sub-grids (the last k axes in full, k as large as fits), or a run of
    single points when not even one row fits.  `weights` has the slab's
    shape, (rows,) followed by k axes of full rules.  `columns[j]` holds
    axis j's coordinates, shaped to broadcast against it: the run's nodes
    along the first axis for a decoded axis, the whole rule along its own
    axis for a trailing one.  Only the run's indices on the decoded axes
    are computed; no point array is built.  Each weight is the
    left-to-right product w0[i0]*w1[i1]*..., rounded the same way in every
    slab layout.
    """
    n = len(rules)
    per_axis = len(rules[0][0])
    k = 0
    while k < n and per_axis ** (k + 1) <= block:
        k += 1
    lead = n - k
    run = block // per_axis**k
    count = per_axis**lead
    for start in range(0, count, run):
        index = [None] * lead
        rem = np.arange(start, min(start + run, count))
        for j in reversed(range(lead)):
            rem, index[j] = np.divmod(rem, per_axis)
        rows = len(rem)
        columns = []
        weights = np.ones(rows)
        for j, (nodes, w) in enumerate(rules):
            if j < lead:
                columns.append(nodes[index[j]].reshape((rows,) + (1,) * k))
                weights = weights * w[index[j]]
            else:
                shape = [1] * (k + 1)
                shape[j - lead + 1] = per_axis
                columns.append(nodes.reshape(shape))
                weights = np.multiply.outer(weights, w)
        yield tuple(columns), weights


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
    while x.size >= _EXTRACT_MIN:
        top = max(x.max(), -x.min())
        if not math.isfinite(top):
            break
        exponent = math.frexp(top)[1] + x.size.bit_length()
        if not -1022 <= exponent <= 1023:
            break
        sigma = math.ldexp(1.0, exponent)
        q = x + sigma
        q -= sigma
        sums.append(q.sum())
        x = np.subtract(x, q, out=q)
        nonzero = x != 0.0
        kept = np.count_nonzero(nonzero)
        # Dropping zeros costs a copy: worth it once they are the majority.
        if kept < _EXTRACT_MIN or 2 * kept < x.size:
            x = x[nonzero]
    return np.concatenate([sums, x])


def monte_carlo_affine(f, origin, edges, samples: int, seed: int) -> MonteCarloEstimate:
    """Uniform Monte Carlo estimate of the integral over an affine image of the unit box.

    Draws `samples` points u uniformly in [0,1)^n from a Philox stream keyed
    by `seed`, evaluates f(origin + T u) * |det T|, and reports the sample
    mean with its standard error (sample standard deviation / sqrt(samples)).
    A constant integrand yields the constant times |det T| exactly with a
    standard error of exactly 0.0.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    matrix = np.asarray(edges, dtype=float)
    origin = np.asarray(tuple(float(c) for c in origin), dtype=float)
    n = origin.shape[0]
    if matrix.shape != (n, n):
        raise DomainError(f"edge matrix must be {n}x{n}, got shape {matrix.shape}")
    det = checked_determinant(matrix)
    if getattr(f, "arity", n) != n:
        raise DomainError(f"field arity {f.arity} does not match dimension {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((samples, n))
    points = origin + u @ matrix.T
    values = f.evaluate(points) * abs(det)
    v0 = float(values[0])
    mean = v0 + math.fsum(_exact_parts(values - v0)) / samples
    deviations = values - mean
    variance = math.fsum(_exact_parts(deviations * deviations)) / (samples - 1)
    stderr = math.sqrt(variance / samples)
    return MonteCarloEstimate(estimate=mean, stderr=stderr, samples=samples, seed=seed)
