"""Vertex-sum integration: boxes, parallelotopes, and symmetric triangles.

The central identity: the integral of f over a box equals the alternating
sum of an antiderivative F over the box's 2**n vertices, signed by parity of
the number of lower-bound coordinates.  Parallelotopes and triangles reach
it by change of variables onto the unit box: the integrand there is a plain
composition, f(origin + T u) (pullback_field), for a triangle folded across
the unit square's antidiagonal (mirror_extend), and |det T| multiplies each
integral once.  So a parallelotope's vertices carry the unit box's labels
and signs.

Every vertex sum is F on a tensor grid (oracle.evaluate_on_grid, the same
tiled walk as the cubature's), then one math.fsum per cell
(geometry.cell_vertex_sums), so a degenerate box cancels to exactly 0.0
pairwise and the vertex visit order cannot change any result.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import workspace
from .antiderivative import ScalarField, numeric_antiderivative
from .errors import BoxcalcError, DomainError, InternalCheckError
from .geometry import (
    Hypercuboid,
    Parallelotope,
    VertexLabel,
    cell_vertex_sums,
    grid_breakpoints,
    vertex_signs,
)
from .oracle import QuadratureConfig, affine_columns, check_vertex_count, evaluate_on_grid


@dataclass(frozen=True)
class SymmetryReport:
    """Midpoint-symmetry diagnostics for an integrand along a segment."""

    passed: bool
    max_deviation: float
    worst_t: float
    scale: float
    samples: int
    tol: float


class SymmetryError(BoxcalcError):
    """The integrand is not midpoint-symmetric along the required segment."""

    def __init__(self, report: SymmetryReport):
        super().__init__(
            "integrand is not symmetric along the segment QR: "
            f"worst deviation {report.max_deviation:.6e} at t = {report.worst_t:.6g} "
            f"(tolerance {report.tol:g} relative to scale {report.scale:.6g})"
        )
        self.report = report


@dataclass(frozen=True)
class IntegralResult:
    """Integral value plus the vertex contributions that recompute it.

    `value` equals the exact sum of sign * antiderivative over
    `contributions`, except for a triangle, whose contributions are those
    of its parallelogram and whose value is half their sum.  `oracle`,
    `abs_diff`, `rel_diff` are filled by with_oracle; `symmetry` is set by
    the triangle path.
    """

    value: float
    method: str
    contributions: tuple[tuple[VertexLabel, int, float], ...]
    oracle: float | None = None
    abs_diff: float | None = None
    rel_diff: float | None = None
    symmetry: SymmetryReport | None = None


def with_oracle(result: IntegralResult, oracle_value: float) -> IntegralResult:
    """Attach an independent reference value and its differences."""
    oracle_value = float(oracle_value)
    abs_diff = abs(result.value - oracle_value)
    rel_diff = abs_diff / max(1.0, abs(oracle_value))
    return dataclasses.replace(
        result, oracle=oracle_value, abs_diff=abs_diff, rel_diff=rel_diff
    )


def integrate_box(F, box: Hypercuboid) -> IntegralResult:
    """Alternating vertex sum of an antiderivative over a box.

    F is evaluated once on the grid of per-axis bounds [a_j, b_j] (see
    evaluate_on_grid), whose C order is label order.  Coincident vertices
    (degenerate axes) are evaluated once, so their contributions are
    bitwise identical and the exact sum cancels them to 0.0 pairwise
    rather than by rounding.  A box of more than oracle.MAX_VERTICES
    vertices is refused before F is evaluated.
    """
    if F.arity != box.dim:
        raise DomainError(
            f"antiderivative arity {F.arity} does not match box dimension {box.dim}"
        )
    check_vertex_count(box.dim)
    values = evaluate_on_grid(F, [[float(a), float(b)] for a, b in zip(box.lower, box.upper)])
    labels = [VertexLabel.from_index(i, box.dim) for i in range(2**box.dim)]
    contributions = tuple(zip(labels, vertex_signs(box.dim), values.ravel().tolist()))
    value = cell_vertex_sums(values)[0] + 0.0
    return IntegralResult(value=value, method="vertex-sum", contributions=contributions)


def integrate_box_from_f(
    f, box: Hypercuboid, quad: QuadratureConfig | None = None
) -> IntegralResult:
    """Integrate f over a box by building its numeric antiderivative first.

    The antiderivative is based at the box's lower corner, so every vertex
    that keeps some lower-bound coordinate contributes exactly 0.0; this is
    asserted structurally.
    """
    corner = tuple(float(a) for a in box.lower)
    F = numeric_antiderivative(f, corner, quad)
    result = integrate_box(F, box)
    for label, _, value in result.contributions:
        if 0 in label.bits and value != 0.0:
            raise InternalCheckError(
                f"antiderivative must vanish at vertex {label}, got {value!r}"
            )
    return result


@dataclass(frozen=True)
class CompositionalityReport:
    """Whole-box integral versus the sum over a subdivision."""

    lhs: float
    rhs: float
    abs_diff: float
    subboxes: int


def compositionality_check(F, box: Hypercuboid, cuts) -> CompositionalityReport:
    """Compare the vertex sum over a box with the sum over its grid subdivision.

    The cuts are validated as subdivide_grid does.  F is evaluated once on
    the grid of breakpoints, (k1+1)...(kn+1) points for k_j cells on axis
    j; the whole box's vertex sum and each cell's are then exact sums of
    those values, and the right side is the exact sum of the cells' sums.
    A sum that overflows raises DomainError.
    """
    breakpoints = grid_breakpoints(box, cuts)
    if F.arity != box.dim:
        raise DomainError(
            f"antiderivative arity {F.arity} does not match box dimension {box.dim}"
        )
    values = evaluate_on_grid(F, [[float(c) for c in bp] for bp in breakpoints])
    cells = [total + 0.0 for total in cell_vertex_sums(values)]
    lhs = cell_vertex_sums(values[np.ix_(*[[0, -1]] * box.dim)])[0] + 0.0
    try:
        rhs = math.fsum(cells) + 0.0
    except OverflowError:
        raise DomainError("the sum over the subdivision overflows the floating-point range") from None
    return CompositionalityReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs), subboxes=len(cells))


def pullback_field(f, origin, matrix) -> ScalarField:
    """The integrand u -> f(origin + T u): f composed with an affine map.

    Its values are f's as they are; the change of variables' |det T| is
    applied once to each integral (integrate_parallelotope).  Works on
    coordinate columns, axis by axis: the x columns come from
    oracle.affine_columns, the map that Monte Carlo uses too, summed left
    to right so that the values do not depend on the BLAS build.  Within a
    walk they are tile buffers (see workspace), lent to f.fn for that call;
    coordinates that overflow reach f as inf.  The origin must have f.arity
    entries and the matrix must be f.arity x f.arity.
    """
    n = f.arity
    origin = tuple(float(c) for c in origin)
    matrix = np.asarray(matrix, dtype=float)
    if len(origin) != n or matrix.shape != (n, n):
        raise DomainError(
            f"pullback of an arity-{n} field needs {n} origin entries and a {n}x{n} "
            f"matrix, got {len(origin)} and shape {matrix.shape}"
        )
    rows = matrix.tolist()

    def fn(columns) -> np.ndarray:
        shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
        xs = affine_columns(origin, rows, columns, shape)
        values = f.fn(tuple(xs))
        workspace.give(*xs)
        return values

    return ScalarField(n, fn, tag="pullback")


def _unit_box_integral(g, det: float, quad: QuadratureConfig | None) -> IntegralResult:
    """integrate_box_from_f of a pulled-back g over the unit box, times |det T|.

    The value and each contribution's F are scaled once, so the value is
    still the exact sum of sign * F over the contributions (every F but the
    all-ones vertex's is 0.0).  A product that overflows raises DomainError.
    """
    n = g.arity
    unit = integrate_box_from_f(g, Hypercuboid((0.0,) * n, (1.0,) * n), quad)
    volume = abs(det)
    value = volume * unit.value
    if not math.isfinite(value):
        raise DomainError(
            f"the integral {unit.value!r} on the unit box times |det T| = {volume!r} "
            "overflows the floating-point range"
        )
    contributions = tuple((label, sign, volume * F) for label, sign, F in unit.contributions)
    return IntegralResult(value=value, method="parallelotope", contributions=contributions)


def integrate_parallelotope(f, p: Parallelotope, quad: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over a parallelotope by a signed vertex sum.

    Change of variables maps the unit box onto the parallelotope:
    integrate_box_from_f integrates the pulled-back integrand f(origin + T u)
    over the unit box, and its value and vertex contributions are then
    multiplied by |det T| once.  The contributions carry the unit box's
    labels and signs, in label order.
    """
    n = p.dim
    if f.arity != n:
        raise DomainError(f"field arity {f.arity} does not match dimension {n}")
    return _unit_box_integral(pullback_field(f, p.origin, p.matrix), p.det, quad)


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def check_segment_symmetry(
    f, q, r, tol: float = 1e-9, samples: int = 17
) -> SymmetryReport:
    """Check f(M + t d) == f(M - t d) for the segment QR, M its midpoint.

    Samples `samples` equally spaced interior parameters t in (0, 1) with
    d = (R - Q) / 2.  The tolerance is relative to the largest |f| seen on
    the samples.
    """
    if f.arity != 2:
        raise DomainError(f"segment symmetry check needs arity 2, got {f.arity}")
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be non-negative and finite, got tol={tol}")
    q = np.asarray(tuple(float(c) for c in q), dtype=float)
    r = np.asarray(tuple(float(c) for c in r), dtype=float)
    mid = 0.5 * (q + r)
    half = 0.5 * (r - q)
    ts = np.arange(1, samples + 1, dtype=float) / (samples + 1)
    plus = mid + ts[:, None] * half
    minus = mid - ts[:, None] * half
    va = f.evaluate(plus)
    vb = f.evaluate(minus)
    scale = float(max(np.max(np.abs(va)), np.max(np.abs(vb))))
    gaps = np.abs(va - vb)
    worst = int(np.argmax(gaps))
    max_dev = float(gaps[worst])
    return SymmetryReport(
        passed=max_dev <= tol * scale,
        max_deviation=max_dev,
        worst_t=float(ts[worst]),
        scale=scale,
        samples=samples,
        tol=tol,
    )


def mirror_extend(g) -> ScalarField:
    """Fold a 2-ary field g on the unit square across its antidiagonal.

    The result is u -> g(1 - u1, 1 - u2) where u1 + u2 > 1, else g(u): the
    half beyond the line u1 + u2 = 1 is reflected through (1/2, 1/2) onto
    the other half.  For g = pullback_field(f, P, T) with T's columns Q - P
    and R - P, that line is the pulled-back segment QR and the fold is
    f(Q + R - x) on the far side of QR.  A point on the line keeps its
    coordinates, and so does one with a NaN coordinate.  Each call is one
    g.fn call on the columns where(u1 + u2 > 1, 1 - u, u) at the columns'
    broadcast shape, tile buffers within a walk (see workspace), as are the
    side mask and the sum it is read from.
    """
    if g.arity != 2:
        raise DomainError(f"triangle machinery needs arity 2, got {g.arity}")

    def fn(columns) -> np.ndarray:
        shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
        ys = workspace.take(shape), workspace.take(shape)
        # u1 + u2 goes to the buffer that takes the folded u1 next.
        far = np.greater(np.add(*columns, out=ys[0]), 1.0, out=workspace.take(shape, bool))
        for y, c in zip(ys, columns):
            np.copyto(y, c)
            np.subtract(1.0, c, out=y, where=far)
        values = g.fn(ys)
        workspace.give(far, *ys)
        return values

    return ScalarField(2, fn, tag="pullback")


# The fold is continuous but its gradient jumps across the unit square's
# antidiagonal u1 + u2 = 1, the pulled-back seam QR.  Composite tensor rules
# converge only as (nodes*panels)**-2 against that seam, so the triangle
# path defaults to a much denser rule than the smooth-integrand default:
# 32*192 points per axis puts unit-scale examples near 3e-9.
TRIANGLE_QUAD = QuadratureConfig(nodes=32, panels=192)


def integrate_triangle_symmetric(
    f,
    p,
    q,
    r,
    quad: QuadratureConfig | None = None,
    sym_tol: float = 1e-9,
    sym_samples: int = 17,
) -> IntegralResult:
    """Integrate f over triangle PQR when f is midpoint-symmetric along QR.

    The triangle is half of the parallelogram P + T u, u in the unit square,
    with T's columns Q - P and R - P.  The pulled-back f, folded across the
    square's antidiagonal (mirror_extend), is integrated over the unit
    square at `quad or TRIANGLE_QUAD`; the value is half of |det T| times
    that integral.  The contributions are the parallelogram's: its F values,
    |det T| times the unit square's, so `value` is half their signed sum.
    Degenerate triangles are rejected, and so are near-singular ones by the
    parallelogram's checked determinant.  The symmetry precondition is
    sampled first: violations raise SymmetryError carrying the worst sample.
    """
    pv = np.asarray(tuple(float(c) for c in p), dtype=float)
    qv = np.asarray(tuple(float(c) for c in q), dtype=float)
    rv = np.asarray(tuple(float(c) for c in r), dtype=float)
    if f.arity != 2 or pv.shape != (2,) or qv.shape != (2,) or rv.shape != (2,):
        raise DomainError("triangle integration needs three 2-d vertices and an arity-2 field")
    area = 0.5 * abs(_cross2(qv - pv, rv - pv))
    perimeter = (
        float(np.linalg.norm(qv - pv))
        + float(np.linalg.norm(rv - qv))
        + float(np.linalg.norm(pv - rv))
    )
    if area < 1e-12 * (perimeter / 3.0) ** 2:
        raise DomainError(
            f"degenerate triangle: area {area:.3e} below threshold for perimeter {perimeter:.3g}"
        )
    report = check_segment_symmetry(f, qv, rv, tol=sym_tol, samples=sym_samples)
    if not report.passed:
        raise SymmetryError(report)
    parallelogram = Parallelotope.from_edge_vectors(tuple(pv), (tuple(qv - pv), tuple(rv - pv)))
    folded = mirror_extend(pullback_field(f, parallelogram.origin, parallelogram.matrix))
    inner = _unit_box_integral(folded, parallelogram.det, quad or TRIANGLE_QUAD)
    return IntegralResult(
        value=0.5 * inner.value,
        method="triangle",
        contributions=inner.contributions,
        symmetry=report,
    )


# Rectangle corners indexed by label order 00, 01, 10, 11.  The vertex-sum
# sign pattern on these corners is (+1, -1, -1, +1).  Walking the rectangle
# boundary visits them in the cyclic order 00, 01, 11, 10.
_CORNER_LABELS = ("00", "01", "10", "11")
_TARGET_PATTERN = (1, -1, -1, 1)
_CYCLE = (0, 1, 3, 2)


def _rectangle_symmetries() -> list[tuple[int, ...]]:
    """The 8 relabelings of the rectangle's corners (dihedral group of the 4-cycle)."""
    perms = []
    for rotation in range(4):
        for flip in (False, True):
            mapping = [0] * 4
            for pos in range(4):
                target_pos = (rotation - pos) % 4 if flip else (rotation + pos) % 4
                mapping[_CYCLE[pos]] = _CYCLE[target_pos]
            perms.append(tuple(mapping))
    return perms


@dataclass(frozen=True)
class TriangulationSearch:
    """Exhaustive sign-assignment search over one diagonal triangulation."""

    diagonal: str
    triangles: tuple[tuple[str, str, str], tuple[str, str, str]]
    assignments: int
    target_matches: int
    shared_coefficient_values: tuple[int, ...]
    zero_vector_matches: int
    cancelling_shared_patterns: int


@dataclass(frozen=True)
class ImpossibilityReport:
    """No plus/minus labeling of two triangles reproduces the box sign pattern."""

    claim_holds: bool
    target: tuple[int, int, int, int]
    target_orbit: tuple[tuple[int, ...], ...]
    searches: tuple[TriangulationSearch, TriangulationSearch]


def triangle_impossibility_check() -> ImpossibilityReport:
    """Show no vertex sign assignment on two triangles recovers the rectangle sum.

    For each diagonal triangulation of the rectangle, every assignment of
    +-1 to the six triangle-vertex slots is enumerated; slot values landing
    on the same corner accumulate.  A match means the induced coefficient
    vector equals the rectangle's alternating pattern up to the rectangle's
    8 dihedral relabelings.  Shared corners (the diagonal's endpoints) carry
    two slots, so their induced coefficients are even, while the other two
    corners carry one slot each and stay odd; matching the all-odd target
    is therefore structurally impossible, and the search confirms zero
    matches.  The report also counts assignments reaching the all-zero
    vector (none, by the same parity) and the distinct shared-slot patterns
    that cancel both shared corners.
    """
    orbit = sorted(
        {
            tuple(applied)
            for perm in _rectangle_symmetries()
            for applied in [_apply_perm(_TARGET_PATTERN, perm)]
        }
    )
    triangulations = (
        ("00-11", ((0, 2, 3), (0, 3, 1))),
        ("01-10", ((0, 2, 1), (2, 3, 1))),
    )
    searches = []
    for diagonal, (tri_a, tri_b) in triangulations:
        slots = tri_a + tri_b
        shared = sorted({c for c in slots if slots.count(c) == 2})
        shared_slot_positions = [i for i, c in enumerate(slots) if c in shared]
        target_matches = 0
        zero_matches = 0
        shared_values: set[int] = set()
        cancelling_patterns: set[tuple[int, ...]] = set()
        for assignment in itertools.product((-1, 1), repeat=6):
            coeffs = [0, 0, 0, 0]
            for value, corner in zip(assignment, slots):
                coeffs[corner] += value
            coeffs_t = tuple(coeffs)
            if coeffs_t in orbit:
                target_matches += 1
            if coeffs_t == (0, 0, 0, 0):
                zero_matches += 1
            shared_values.update(coeffs[c] for c in shared)
            if all(coeffs[c] == 0 for c in shared):
                cancelling_patterns.add(tuple(assignment[i] for i in shared_slot_positions))
        searches.append(
            TriangulationSearch(
                diagonal=diagonal,
                triangles=(
                    tuple(_CORNER_LABELS[c] for c in tri_a),
                    tuple(_CORNER_LABELS[c] for c in tri_b),
                ),
                assignments=2**6,
                target_matches=target_matches,
                shared_coefficient_values=tuple(sorted(shared_values)),
                zero_vector_matches=zero_matches,
                cancelling_shared_patterns=len(cancelling_patterns),
            )
        )
    claim = all(s.target_matches == 0 for s in searches)
    return ImpossibilityReport(
        claim_holds=claim,
        target=_TARGET_PATTERN,
        target_orbit=tuple(orbit),
        searches=tuple(searches),
    )


def _apply_perm(pattern, perm) -> list[int]:
    out = [0] * len(pattern)
    for src, dst in enumerate(perm):
        out[dst] = pattern[src]
    return out
