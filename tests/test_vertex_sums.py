"""Batched vertex sums against the per-point loops they replace.

check_antiderivative, compositionality_check and integrate_box evaluate
each vertex sum's antiderivative in one batch.  The reference functions
below are the per-point loops, one F call per vertex, as the package ran
them before the batching: every flag, deviation, worst point, side and
contribution must agree bit for bit.
"""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalc import (
    BudgetExceededError,
    DomainError,
    Hypercuboid,
    IntegralResult,
    Parallelotope,
    QuadratureConfig,
    check_antiderivative,
    compositionality_check,
    field_from_callable,
    field_from_expression,
    field_from_polynomial,
    integrate_box,
    integrate_parallelotope,
    mixed_partial,
    numeric_antiderivative,
    poly_mixed_partial,
    subdivide_grid,
    vertex_sign,
    vertices_lex,
)
from boxcalc import antiderivative, oracle
from boxcalc.geometry import VertexLabel, cell_vertex_sums, vertex_signs
from helpers import random_polynomial

# --- the per-point loops -------------------------------------------------------


def ref_mixed_partial(F, x, h):
    box = Hypercuboid(
        tuple(c - step for c, step in zip(x, h)),
        tuple(c + step for c, step in zip(x, h)),
    )
    total = math.fsum(vertex_sign(label) * F(point) for label, point in vertices_lex(box))
    return total / math.prod(2.0 * step for step in h)


def ref_check_antiderivative(f, F, box, grid_points=5, tol=1e-4):
    h = antiderivative.default_steps(box)
    axes = []
    for a, b, step in zip(box.lower, box.upper, h):
        a, b = float(a), float(b)
        lo, hi = a + step, b - step
        while lo - step < a:
            lo = math.nextafter(lo, math.inf)
        while hi + step > b:
            hi = math.nextafter(hi, -math.inf)
        axes.append(np.linspace(lo, hi, grid_points))
    max_abs = 0.0
    max_rel = -1.0
    worst = None
    for point in itertools.product(*axes):
        point = tuple(float(c) for c in point)
        approx = ref_mixed_partial(F, point, h)
        exact = f(point)
        abs_dev = abs(approx - exact)
        rel_dev = abs_dev / max(1.0, abs(exact))
        max_abs = max(max_abs, abs_dev)
        if rel_dev > max_rel:
            max_rel = rel_dev
            worst = point
    return (max_rel <= tol, max_abs, max_rel, worst)


def ref_integrate_box(F, box):
    cache = {}
    contributions = []
    for label, point in vertices_lex(box):
        if point not in cache:
            cache[point] = F(point)
        contributions.append((label, vertex_sign(label), cache[point]))
    value = math.fsum(sign * value for _, sign, value in contributions) + 0.0
    return IntegralResult(value=value, method="vertex-sum", contributions=tuple(contributions))


def ref_compositionality(F, box, cuts):
    parts = subdivide_grid(box, cuts)
    lhs = ref_integrate_box(F, box).value
    rhs = math.fsum(ref_integrate_box(F, piece).value for piece in parts) + 0.0
    return (lhs, rhs, abs(lhs - rhs), len(parts))


def bits(value):
    """Floats as hex, so that -0.0 and 0.0 differ too, inside tuples and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return value


# --- fields ----------------------------------------------------------------------

KINDS = ("expression", "polynomial", "callable", "numeric-F")
CHEAP = QuadratureConfig(nodes=2, panels=1)


def _fields(kind, dim, box, seed):
    """(f, F) of the given kind; F is an antiderivative of f up to rounding."""
    rng = np.random.default_rng(seed)
    a = [round(float(c), 3) for c in rng.uniform(0.5, 1.5, dim)]
    if kind == "polynomial":
        P = random_polynomial(random.Random(seed), dim, max_degree=3)
        return field_from_polynomial(poly_mixed_partial(P)), field_from_polynomial(P)
    if kind == "callable":

        def F(point):
            return math.prod(math.sin(c * x) / c for c, x in zip(a, point))

        def f(point):
            return math.prod(math.cos(c * x) for c, x in zip(a, point))

        return field_from_callable(f, dim), field_from_callable(F, dim)
    f_text = "*".join(f"cos({c}*x{j})" for j, c in enumerate(a, start=1))
    f = field_from_expression(f_text, dim)
    if kind == "numeric-F":
        return f, numeric_antiderivative(f, box.lower, CHEAP)
    F_text = "*".join(f"sin({c}*x{j})/{c}" for j, c in enumerate(a, start=1))
    return f, field_from_expression(F_text, dim)


def _offset_bounds(dim):
    """(a, b) with fl(fl(a + h) - h) < a for the checker's default h on a dim-dimensional box.

    With h a small fraction of b - a, that rounding needs a just below a
    power of two, where a + h lies in the next binade.
    """
    found = []
    for top, i, j in itertools.product((0.125, 0.25, 0.5), range(20), range(0, 400, 7)):
        a = round(top - 0.0001 * i, 4)
        b = round(a + 0.8 + 0.001 * j, 4)
        h = antiderivative.default_steps(Hypercuboid((a,) * dim, (b,) * dim))[0]
        if (a + h) - h < a:
            found.append((a, b))
    return found


OFFSET = {dim: _offset_bounds(dim) for dim in range(1, 6)}
# Largest grid per dimension that keeps the per-point reference quick.
MAX_GRID = {1: 5, 2: 5, 3: 5, 4: 3, 5: 2}


@st.composite
def boxes(draw, dim, degenerate=False):
    lower, upper = [], []
    for _ in range(dim):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(OFFSET[dim]))
        else:
            a = draw(st.floats(-2.0, 2.0))
            b = a + draw(st.floats(0.25, 2.0))
        if degenerate and draw(st.integers(0, 3)) == 0:
            b = a
        lower.append(a)
        upper.append(b)
    return Hypercuboid(tuple(lower), tuple(upper))


def test_offset_bounds_exist():
    assert all(len(OFFSET[dim]) > 20 for dim in OFFSET)


# --- bit-equality with the per-point loops ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from(KINDS), st.integers(0, 2**31))
def test_check_antiderivative_matches_the_per_point_loop(data, dim, kind, seed):
    grid = data.draw(st.integers(1, MAX_GRID[dim]), label="grid")
    box = data.draw(boxes(dim), label="box")
    f, F = _fields(kind, dim, box, seed)
    got = check_antiderivative(f, F, box, grid_points=grid)
    want = ref_check_antiderivative(f, F, box, grid_points=grid)
    assert bits((got.passed, got.max_abs_deviation, got.max_rel_deviation, got.worst_point)) == bits(want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim, grid", [(1, 5), (3, 4), (5, 3)])
def test_check_antiderivative_matches_the_per_point_loop_on_offset_boxes(kind, dim, grid):
    if kind == "numeric-F" and dim == 5:
        grid = 2
    box = Hypercuboid(tuple(a for a, _ in OFFSET[dim][:dim]), tuple(b for _, b in OFFSET[dim][:dim]))
    f, F = _fields(kind, dim, box, 7)
    got = check_antiderivative(f, F, box, grid_points=grid)
    want = ref_check_antiderivative(f, F, box, grid_points=grid)
    assert bits((got.passed, got.max_abs_deviation, got.max_rel_deviation, got.worst_point)) == bits(want)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from(KINDS), st.integers(0, 2**31))
def test_integrate_box_matches_the_per_point_loop(data, dim, kind, seed):
    box = data.draw(boxes(dim, degenerate=True), label="box")
    _, F = _fields(kind, dim, box, seed)
    got = integrate_box(F, box)
    want = ref_integrate_box(F, box)
    assert [(str(label), sign) for label, sign, _ in got.contributions] == [
        (str(label), sign) for label, sign, _ in want.contributions
    ]
    assert bits([v for _, _, v in got.contributions]) == bits([v for _, _, v in want.contributions])
    assert bits(got.value) == bits(want.value)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5), st.sampled_from(KINDS), st.integers(0, 2**31))
def test_compositionality_check_matches_the_per_point_loop(data, dim, kind, seed):
    box = data.draw(boxes(dim), label="box")
    most = 4 if dim <= 3 else 1
    cuts = []
    for a, b in zip(box.lower, box.upper):
        inside = st.floats(a, b, exclude_min=True, exclude_max=True)
        cuts.append(sorted(data.draw(st.sets(inside, max_size=most), label="cuts")))
    _, F = _fields(kind, dim, box, seed)
    got = compositionality_check(F, box, cuts)
    want = ref_compositionality(F, box, cuts)
    assert bits((got.lhs, got.rhs, got.abs_diff, got.subboxes)) == bits(want)


def test_mixed_partial_matches_the_per_point_loop():
    F = field_from_expression("sin(x1)*exp(x2)*(1+x3^2)", 3)
    for x, h in [((0.3, 0.7, -0.2), (1e-3, 2e-3, 5e-4)), ((1.1, -0.4, 0.9), (0.1, 0.1, 0.1))]:
        assert mixed_partial(F, x, h).hex() == ref_mixed_partial(F, x, h).hex()


# --- evaluation batches ------------------------------------------------------------


def _recording(fn, arity):
    rows = []

    def record(points):
        rows.append(len(points))
        return fn(points)

    return field_from_callable(record, arity, batch=True), rows


def test_a_small_check_makes_one_call_each():
    f, f_rows = _recording(lambda p: p[:, 0] * p[:, 1] * p[:, 2], 3)
    F, F_rows = _recording(lambda p: (p[:, 0] * p[:, 1] * p[:, 2]) ** 2 / 8, 3)
    report = check_antiderivative(f, F, Hypercuboid((0.0,) * 3, (1.0,) * 3), grid_points=5)
    assert report.passed
    assert F_rows == [10**3]
    assert f_rows == [5**3]
    F, rows = _recording(lambda p: p[:, 0] * p[:, 1], 2)
    mixed_partial(F, (0.5, 0.5), (0.1, 0.1))
    assert rows == [4]


def test_no_checker_call_exceeds_the_block():
    # (2 * 520)**2 = 1,081,600 stencil corners: many tiles of the grid walk.
    f, _ = _recording(lambda p: np.ones(len(p)), 2)
    F, rows = _recording(lambda p: p[:, 0] * p[:, 1], 2)
    report = check_antiderivative(f, F, Hypercuboid((0.0, 0.0), (1.0, 1.0)), grid_points=520)
    assert report.passed
    assert len(rows) > 1 and max(rows) <= oracle._EVAL_BLOCK and sum(rows) == 1040**2


@pytest.mark.parametrize("block", [1, 7, 64])
def test_slabs_of_any_size_give_the_same_report(monkeypatch, block):
    f, F = _fields("expression", 3, Hypercuboid((0.0,) * 3, (1.0,) * 3), 3)
    box = Hypercuboid((0.1, -0.5, 0.3), (1.2, 0.5, 1.0))
    want = check_antiderivative(f, F, box, grid_points=3)
    F_rec, rows = _recording(F.evaluate, 3)
    monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
    got = check_antiderivative(f, F_rec, box, grid_points=3)
    assert max(rows) <= block and sum(rows) == 6**3
    assert bits((got.max_abs_deviation, got.max_rel_deviation, got.worst_point)) == bits(
        (want.max_abs_deviation, want.max_rel_deviation, want.worst_point)
    )


def test_a_repeated_stencil_corner_is_evaluated_once():
    # Centres 0.25, 0.5, 0.75 with h = 0.25: corners 0, 0.5, 0.25, 0.75, 0.5, 1.
    f, _ = _recording(lambda p: np.ones(len(p)), 1)
    F, rows = _recording(lambda p: p[:, 0], 1)
    report = check_antiderivative(f, F, Hypercuboid((0.0,), (1.0,)), grid_points=3, h=0.25)
    assert report.passed
    assert sum(rows) == 5


# --- the cell kernel ---------------------------------------------------------------


def ref_cell_vertex_sums(values, stride):
    """One math.fsum per cell, looping over cells and over their corners."""
    starts = [range(0, size - 1, stride) for size in values.shape]
    labels = list(itertools.product((0, 1), repeat=values.ndim))
    return [
        math.fsum(vertex_sign(label) * float(values[tuple(i + b for i, b in zip(start, label))]) for label in labels)
        for start in itertools.product(*starts)
    ]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_cell_vertex_sums_match_the_per_cell_loop(stride, dim, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(2 * int(n) for n in rng.integers(1, 4, dim))
    # Signed zeros, repeated values and values that cancel exactly.
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 1e300, -1e300, 1e-300, 3.0])
    values = pool[rng.integers(0, len(pool), shape)]
    # A degenerate axis: equal coordinates, so equal values on neighbouring slices.
    axis = int(rng.integers(0, dim))
    values[(slice(None),) * axis + (slice(1, None, 2),)] = values[(slice(None),) * axis + (slice(0, -1, 2),)]
    got = cell_vertex_sums(values, stride)
    assert bits(got) == bits(ref_cell_vertex_sums(values, stride))
    assert len(got) == math.prod((size - 2) // stride + 1 for size in shape)


def test_cell_vertex_sums_of_zeros_keep_their_sign():
    assert bits(cell_vertex_sums(np.array([0.0, -0.0]))) == bits([math.fsum([-0.0, -0.0])])
    assert bits(cell_vertex_sums(np.array([-0.0, 0.0]))) == bits([math.fsum([0.0, 0.0])])


def test_vertex_signs_are_vertex_sign_in_label_order():
    for n in range(1, 11):
        assert vertex_signs(n) == [vertex_sign(VertexLabel.from_index(i, n)) for i in range(2**n)]


def test_parallelotope_signs_are_the_box_signs():
    p = Parallelotope.from_edge_vectors((0.5, -1.0, 0.0), ((1.0, 0.2, 0.0), (0.0, 2.0, 0.1), (0.3, 0.0, 1.0)))
    result = integrate_parallelotope(field_from_expression("1+x1*x2+x3^2", 3), p, CHEAP)
    assert [label.as_index() for label, _, _ in result.contributions] == list(range(8))
    assert [sign for _, sign, _ in result.contributions] == [vertex_sign(label) for label, _, _ in result.contributions]


# --- the grid evaluation budget ------------------------------------------------------


def test_grid_beyond_the_budget_is_refused_before_any_evaluation():
    F, rows = _recording(lambda p: p[:, 0], 3)
    axes = [np.linspace(0.0, 1.0, 6000)] * 3
    with pytest.raises(BudgetExceededError, match=r"6000\*6000\*6000 grid points exceed the budget 100000000"):
        antiderivative.evaluate_on_grid(F, axes)
    assert rows == []


def test_budget_counts_distinct_points():
    F, rows = _recording(lambda p: p[:, 0] + p[:, 1], 2)
    values = antiderivative.evaluate_on_grid(F, [[0.0] * 20000, [1.0, 2.0]])
    assert rows == [2] and values.shape == (20000, 2)


def test_check_beyond_the_budget_is_refused():
    f = field_from_expression("x1*x2*x3", 3)
    F = field_from_expression("x1^2*x2^2*x3^2/8", 3)
    with pytest.raises(BudgetExceededError, match="exceed the budget"):
        check_antiderivative(f, F, Hypercuboid((0.0,) * 3, (1.0,) * 3), grid_points=3000)


def test_subdivision_beyond_the_budget_is_refused():
    F = field_from_expression("x1*x2*x3", 3)
    cuts = [[i / 5000 for i in range(1, 5000)]] * 3
    with pytest.raises(BudgetExceededError, match=r"5001\*5001\*5001 grid points"):
        compositionality_check(F, Hypercuboid((0.0,) * 3, (1.0,) * 3), cuts)


# --- the vertex budget and an overflowing subdivision total -------------------------


def test_box_beyond_the_vertex_budget_is_refused_before_any_evaluation():
    assert oracle.MAX_VERTICES == 2**16
    F, rows = _recording(lambda p: p[:, 0], 17)
    with pytest.raises(BudgetExceededError, match=r"2\^17 vertices exceed the vertex budget 65536"):
        integrate_box(F, Hypercuboid((0.0,) * 17, (1.0,) * 17))
    assert rows == []


def test_a_subdivision_total_that_overflows_is_a_domain_error():
    # Each cell's difference and the whole box's are finite, but the cells'
    # rounded differences add up past the largest float.
    values = [-8.988465674311579e307, -1.3862550074939736e292, -4.1315450084196677e291, 4.340859424891268e291,
              8.988465674311579e307]
    F = field_from_callable(lambda p: np.array([values[int(x)] for x in p[:, 0]]), 1, batch=True)
    lhs = cell_vertex_sums([values[0], values[-1]])[0]
    assert math.isfinite(lhs) and all(math.isfinite(c) for c in cell_vertex_sums(values))
    with pytest.raises(DomainError, match="the sum over the subdivision overflows"):
        compositionality_check(F, Hypercuboid((0.0,), (4.0,)), [[1.0, 2.0, 3.0]])


# --- field values that are not finite ------------------------------------------------


def _broken(value):
    """x1^2 x2^2 / 4, but `value` for 0.5 < x1 < 0.6."""

    def F(points):
        x1, x2 = points[:, 0], points[:, 1]
        return np.where((0.5 < x1) & (x1 < 0.6), value, x1**2 * x2**2 / 4)

    return field_from_callable(F, 2, batch=True)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_vertex_value_that_is_not_finite_names_its_point(value):
    # Summed, NaN would be the value, and +inf with -inf would leak fsum's ValueError.
    F = _broken(value)
    message = rf"^field value {value} is not finite at point \(0\.55, 0\.0\)$"
    with pytest.raises(DomainError, match=message):
        integrate_box(F, Hypercuboid((0.0, 0.0), (0.55, 1.0)))
    with pytest.raises(DomainError, match=message):
        compositionality_check(F, Hypercuboid((0.0, 0.0), (1.0, 1.0)), [[0.55], []])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_stencil_value_that_is_not_finite_fails_the_check(value):
    # A NaN deviation compares false with every maximum: it must not let the check pass.
    box = Hypercuboid((0.0, 0.0), (1.0, 1.0))
    first = re.escape(str(0.5 + antiderivative.default_steps(box)[0]))
    with pytest.raises(DomainError, match=rf"^field value {value} is not finite at point \({first}, 0\.0\)$"):
        check_antiderivative(field_from_expression("x1*x2", 2), _broken(value), box)
    # f is evaluated on the grid of centres, here 0.05, 0.55, 1.05 on axis 1.
    with pytest.raises(DomainError, match=rf"^field value {value} is not finite at point \(0\.55\d*, 0\.05\)$"):
        check_antiderivative(
            _broken(value), field_from_expression("x1^2*x2^2/4", 2), Hypercuboid((0.0, 0.0), (1.1, 1.0)),
            grid_points=3, h=0.05,
        )
