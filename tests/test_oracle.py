import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxcalc.expression as expression
import boxcalc.oracle as oracle
from boxcalc import (
    BudgetExceededError,
    DomainError,
    EvalError,
    Hypercuboid,
    MonteCarloEstimate,
    QuadratureConfig,
    ScalarField,
    checked_determinant,
    field_from_callable,
    field_from_expression,
    field_from_polynomial,
    gauge_add,
    gauss_legendre_box,
    legendre_rule,
    mirror_extend,
    monomial_product_integral,
    monte_carlo_affine,
    numeric_antiderivative,
    parse,
    poly_from_expr,
    pullback_field,
)
from helpers import random_polynomial, random_rational_box, rel_err


def _flat_divmod_walk(rules, block):
    """Reference grid walk: decode every flat C-order index with one divmod per axis."""
    n = len(rules)
    per_axis = len(rules[0][0])
    total = per_axis**n
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        axis_index = [None] * n
        rem = flat
        for j in reversed(range(n)):
            rem, axis_index[j] = np.divmod(rem, per_axis)
        points = np.stack([rules[j][0][axis_index[j]] for j in range(n)], axis=1)
        weights = rules[0][1][axis_index[0]]
        for j in range(1, n):
            weights = weights * rules[j][1][axis_index[j]]
        yield points, weights


class TestLegendreRule:
    @pytest.mark.parametrize("q", [2, 3, 5, 12, 32])
    def test_rule_shape_and_weights(self, q):
        nodes, weights = legendre_rule(q)
        assert nodes.shape == weights.shape == (q,)
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-14)
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] > -1 and nodes[-1] < 1

    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_symmetry(self, q):
        nodes, weights = legendre_rule(q)
        assert np.allclose(nodes, -nodes[::-1], atol=1e-15)
        assert np.allclose(weights, weights[::-1], atol=1e-15)

    @pytest.mark.parametrize("q", [2, 3, 7, 12])
    def test_exact_on_monomials_up_to_degree_2q_minus_1(self, q):
        nodes, weights = legendre_rule(q)
        for k in range(2 * q):
            got = math.fsum(weights * nodes**k)
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(got - want) < 5e-15

    def test_cached(self):
        assert legendre_rule(12) is legendre_rule(12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            legendre_rule(1)
        with pytest.raises(DomainError):
            legendre_rule(33)


class TestQuadratureConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert (cfg.nodes, cfg.panels, oracle.MAX_EVALS) == (12, 4, 10**8)

    @pytest.mark.parametrize("bad", [{"nodes": 1}, {"nodes": 33}, {"panels": 0}])
    def test_validation(self, bad):
        with pytest.raises(DomainError):
            QuadratureConfig(**bad)


_FIELD_KINDS = ("expression", "polynomial", "pullback", "mirror-extension", "gauge-shifted", "numeric-F")
_CASE_BLOCKS = {
    "2d-block37": (0, 37),
    "2d-block1": (0, 1),
    "2d-block100": (0, 100),
    "3d-block13": (1, 13),
    "3d-block150": (1, 150),
    "2d-whole": (0, 1 << 20),
    "3d-whole": (1, 1 << 20),
}
# The mirror extension exists in 2-d only; a numeric F runs one cubature per
# point, which the 3-d grid's 8000 points make slow.
_PATH_PARAMS = [
    pytest.param(kind, case, block, id=f"{kind}-{name}")
    for kind in _FIELD_KINDS
    for name, (case, block) in _CASE_BLOCKS.items()
    if kind not in ("mirror-extension", "numeric-F") or case == 0
]


class TestGaussLegendreBox:
    def test_polynomials_within_degree_bound(self):
        rng = random.Random(5)
        cfg = QuadratureConfig(nodes=8, panels=2)
        for _ in range(25):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity, max_degree=4)
            box = random_rational_box(rng, arity)
            want = float(monomial_product_integral(p, box))
            got = gauss_legendre_box(field_from_polynomial(p), box, cfg)
            assert rel_err(got, want) < 1e-12

    def test_sin_over_period(self):
        f = field_from_expression("sin(x1)", 1)
        box = Hypercuboid((0.0,), (math.pi,))
        assert abs(gauss_legendre_box(f, box) - 2.0) < 1e-13

    def test_degenerate_axis_is_exactly_zero(self):
        f = field_from_expression("exp(x1)+x2", 2)
        box = Hypercuboid((0.0, 1.5), (2.0, 1.5))
        assert gauss_legendre_box(f, box) == 0.0

    def test_budget_refused(self):
        f = field_from_expression("x1*x2*x3", 3)
        box = Hypercuboid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(BudgetExceededError, match=r"512\*512\*512 grid points exceed the budget 100000000"):
            gauss_legendre_box(f, box, QuadratureConfig(nodes=32, panels=16))

    @pytest.mark.parametrize(
        "lower, upper, axis",
        [((0.0,), (1e308,), 1), ((-1e308,), (1e308,), 1), ((0.0, 0.0), (1.0, 5e307), 2)],
        ids=["span-times-panels", "span", "second-axis"],
    )
    def test_panels_that_overflow_are_refused_before_the_rule(self, lower, upper, axis):
        f = ScalarField(len(lower), lambda columns: pytest.fail("f must not be evaluated"))
        with pytest.raises(DomainError, match=rf"axis {axis}: the cubature's panels on .* overflow"):
            gauss_legendre_box(f, Hypercuboid(lower, upper))

    def test_arity_mismatch(self):
        f = field_from_expression("x1", 1)
        with pytest.raises(DomainError):
            gauss_legendre_box(f, Hypercuboid((0.0, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize(
        "expr, box, cfg, block",
        [
            # 48 points per row: blocks of 37 and 1 split rows mid-axis, 100 takes two rows.
            ("sin(x1)*exp(x2)", ((Fraction(-1, 2), 0), (2, Fraction(3, 4))), QuadratureConfig(), 37),
            ("sin(x1)*exp(x2)", ((Fraction(-1, 2), 0), (2, Fraction(3, 4))), QuadratureConfig(), 1),
            ("sin(x1)*exp(x2)", ((Fraction(-1, 2), 0), (2, Fraction(3, 4))), QuadratureConfig(), 100),
            # 3-d rows of 20 points exceed a block of 13; a 20x20 plane exceeds one of 150.
            ("exp(x1-x2)*cos(x3)", ((0, -1, 0.5), (1, 1, 2)), QuadratureConfig(nodes=5, panels=4), 13),
            ("exp(x1-x2)*cos(x3)", ((0, -1, 0.5), (1, 1, 2)), QuadratureConfig(nodes=5, panels=4), 150),
            ("exp(x1)+x2", ((0.0, 1.5), (2.0, 1.5)), QuadratureConfig(), 37),
        ],
        ids=["2d-block37", "2d-block1", "2d-block100", "3d-block13", "3d-block150", "degenerate-block37"],
    )
    def test_block_size_does_not_change_the_value(self, monkeypatch, expr, box, cfg, block):
        f = field_from_expression(expr, len(box[0]))
        box = Hypercuboid(*box)
        whole = gauss_legendre_box(f, box, cfg)
        monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        chunked = gauss_legendre_box(f, box, cfg)
        assert chunked == whole
        if box.is_degenerate():
            assert math.copysign(1.0, chunked) == 1.0 and chunked == 0.0

    @pytest.mark.parametrize(
        "dim, cfg, block",
        [
            (1, QuadratureConfig(nodes=7, panels=3), 1 << 20),
            (1, QuadratureConfig(nodes=7, panels=3), 5),
            (2, QuadratureConfig(nodes=4, panels=3), 1 << 20),
            (2, QuadratureConfig(nodes=4, panels=3), 30),
            (2, QuadratureConfig(nodes=4, panels=3), 7),
            (3, QuadratureConfig(nodes=3, panels=4), 1 << 20),
            (3, QuadratureConfig(nodes=3, panels=4), 144),
            (3, QuadratureConfig(nodes=3, panels=4), 100),
            (3, QuadratureConfig(nodes=3, panels=4), 5),
        ],
    )
    def test_grid_walk_matches_the_flat_divmod_walk(self, monkeypatch, dim, cfg, block):
        # The field returns ones, so the values reduced are the weights themselves.
        points, values = [], []

        def ones(pts):
            points.append(pts.copy())
            return np.ones(len(pts))

        exact_parts = oracle._exact_parts

        def record(weighted):
            values.append(weighted.copy())
            return exact_parts(weighted)

        monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        monkeypatch.setattr(oracle, "_exact_parts", record)
        box = Hypercuboid(tuple(-0.5 * j for j in range(dim)), tuple(1.0 + j for j in range(dim)))
        got = gauss_legendre_box(field_from_callable(ones, arity=dim, batch=True), box, cfg)

        rules = [oracle._axis_rule(float(a), float(b), cfg) for a, b in zip(box.lower, box.upper)]
        ref = list(_flat_divmod_walk(rules, block))
        want_points = np.concatenate([p for p, _ in ref])
        want_weights = np.concatenate([w for _, w in ref])
        assert max(len(p) for p in points) <= block
        assert np.array_equal(np.concatenate(points), want_points)
        assert np.array_equal(np.concatenate(values), want_weights)
        assert got == math.fsum(want_weights) + 0.0

    _PATH_CASES = [
        # (expression, polynomial, box, rule): 2-d rows of 48 points, 3-d rows of 20 points.
        (
            "sin(x1)*exp(x2)+x1^2/(1+x2^0.5)",
            "3*x1^3*x2-x2^2/7+x1-0.3",
            ((Fraction(-1, 2), 0), (2, Fraction(3, 4))),
            QuadratureConfig(),
        ),
        (
            "exp(x1-x2)*cos(x3)+pi*x3^2-x1^-1",
            "x1^2*x3-2*x2^3*x3+x3^5/3",
            ((0, -1, 0.5), (1, 1, 2)),
            QuadratureConfig(nodes=5, panels=4),
        ),
    ]

    @classmethod
    def _path_field(cls, kind, case):
        """A field of the given kind, built on the case's expression or polynomial."""
        expr, poly, box, _ = cls._PATH_CASES[case]
        dim = len(box[0])
        f = field_from_expression(expr, dim)
        if kind == "polynomial":
            return field_from_polynomial(poly_from_expr(parse(poly, dim), dim))
        if kind == "pullback":
            return pullback_field(f, (0.25,) * dim, 0.5 * np.eye(dim) + 0.1 * (1 - np.eye(dim)))
        if kind == "mirror-extension":
            # The fold's line x1 + x2 = 1 crosses the 2-d box; folded points keep x2 >= 0.
            return mirror_extend(f)
        if kind == "gauge-shifted":
            return gauge_add(f, field_from_expression("exp(x2)*x3" if dim == 3 else "exp(x2)", dim), [1])
        if kind == "numeric-F":
            return numeric_antiderivative(f, tuple(float(a) for a in box[0]), QuadratureConfig(nodes=2, panels=1))
        return f

    @pytest.mark.parametrize("kind, case, block", _PATH_PARAMS)
    def test_expression_grid_path_matches_the_dense_path(self, monkeypatch, kind, case, block):
        # Every field kind evaluates the grid's columns; the reference gets the
        # same points stacked into rows through the field's own evaluate.
        _, _, box, cfg = self._PATH_CASES[case]
        f = self._path_field(kind, case)
        dense = field_from_callable(f.evaluate, arity=f.arity, batch=True)
        box = Hypercuboid(*box)
        monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        exact_parts = oracle._exact_parts

        def reduced(field):
            values = []

            def record(weighted):
                values.append(weighted.copy())
                return exact_parts(weighted)

            monkeypatch.setattr(oracle, "_exact_parts", record)
            value = gauss_legendre_box(field, box, cfg)
            return value, np.concatenate(values)

        grid_value, grid_terms = reduced(f)
        dense_value, dense_terms = reduced(dense)
        assert grid_terms.tobytes() == dense_terms.tobytes()
        assert grid_value == dense_value

    @pytest.mark.parametrize(
        "expr, dim, cfg",
        [
            ("log(x1-0.5)*x2", 2, QuadratureConfig()),
            ("x2/(x1-0.5)", 2, QuadratureConfig(nodes=5, panels=1)),
            ("pow(x2-0.5,x1-1)", 2, QuadratureConfig()),
            ("exp(900*x1)*x2", 2, QuadratureConfig()),
            ("x3*exp(1000)", 3, QuadratureConfig(nodes=5, panels=4)),
        ],
    )
    @pytest.mark.parametrize("block", [1 << 20, 37, 1])
    def test_expression_grid_path_fails_where_the_dense_path_does(self, monkeypatch, expr, dim, cfg, block):
        f = field_from_expression(expr, dim)
        dense = field_from_callable(f.evaluate, arity=dim, batch=True)
        box = Hypercuboid((0.0,) * dim, (1.0,) * dim)
        monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        with pytest.raises(EvalError) as grid_error:
            gauss_legendre_box(f, box, cfg)
        with pytest.raises(EvalError) as dense_error:
            gauss_legendre_box(dense, box, cfg)
        assert str(grid_error.value) == str(dense_error.value)
        assert grid_error.value.point == dense_error.value.point

    def test_expression_fields_never_build_the_point_array(self, monkeypatch):
        def refuse(node, points):
            raise AssertionError(f"evaluate_batch called with points of shape {np.shape(points)}")

        f = field_from_expression("x1*exp(x2)*x3", 3)
        monkeypatch.setattr(expression, "evaluate_batch", refuse)
        got = gauss_legendre_box(f, Hypercuboid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        assert got == pytest.approx(0.25 * (math.e - 1), rel=1e-14)

    @pytest.mark.parametrize(
        "kind, dim, cfg",
        [
            # 1536^2, 120^3 and 36^4 points: the tile and a 2^20 slab cut each grid differently.
            (kind, dim, QuadratureConfig(nodes=12, panels=panels))
            for dim, panels in ((2, 128), (3, 10), (4, 3))
            # The mirror extension exists only in 2-d.
            for kind in ("expression", "pullback", "mirror-extension")[: 3 if dim == 2 else 2]
        ],
    )
    def test_tile_does_not_change_the_value_at_real_sizes(self, monkeypatch, kind, dim, cfg):
        sizes = []

        def recorded(field):
            def fn(columns):
                sizes.append(math.prod(expression.broadcast_shape(columns)))
                return field.fn(columns)

            return ScalarField(field.arity, fn)

        f = recorded(field_from_expression("+".join(f"x{j}*x{j % dim + 1}" for j in range(1, dim + 1)), dim))
        if kind == "pullback":
            f = pullback_field(f, (0.25,) * dim, 0.5 * np.eye(dim) + 0.1 * (1 - np.eye(dim)))
        elif kind == "mirror-extension":
            f = mirror_extend(f)
        f = recorded(f)
        box = Hypercuboid((0.0,) * dim, (1.0,) * dim)
        tiled = gauss_legendre_box(f, box, cfg)
        assert sizes and max(sizes) <= oracle._EVAL_BLOCK
        monkeypatch.setattr(oracle, "_EVAL_BLOCK", 1 << 20)
        assert gauss_legendre_box(f, box, cfg) == tiled

    def test_deterministic(self):
        f = field_from_expression("exp(x1*x2)", 2)
        box = Hypercuboid((0.0, 0.0), (1.0, 2.0))
        assert gauss_legendre_box(f, box) == gauss_legendre_box(f, box)

    def test_rational_bounds_accepted(self):
        f = field_from_expression("1", 1)
        box = Hypercuboid((Fraction(1, 3),), (Fraction(2, 3),))
        assert abs(gauss_legendre_box(f, box) - 1 / 3) < 1e-15


# Per case of TestGaussLegendreBox._PATH_CASES: axes of unequal length inside
# the case's box, each with a repeated coordinate, and -0.0 after 0.0 on x2.
_GRID_AXES = [
    [[-0.5, 0.3, 2.0, 0.3, 1.1, 0.7, 1.6], [0.0, 0.6, -0.0, 0.25, 0.75]],
    [[0.25, 1.0, 0.25, 0.5, 0.75, 0.125], [0.0, -1.0, -0.0, 0.5, 1.0, -0.5, 0.25], [2.0, 0.5, 1.25, 0.75]],
]


def _flat_divmod_grid(axes, block):
    """Reference walk of unequal axes: (points, weights) of each flat C-order run, one divmod per axis."""
    sizes = [len(nodes) for nodes, _ in axes]
    total = math.prod(sizes)
    for start in range(0, total, block):
        rem = np.arange(start, min(start + block, total))
        index = [None] * len(axes)
        for j in reversed(range(len(axes))):
            rem, index[j] = np.divmod(rem, sizes[j])
        weights = axes[0][1][index[0]]
        for j in range(1, len(axes)):
            weights = weights * axes[j][1][index[j]]
        yield np.stack([nodes[i] for (nodes, _), i in zip(axes, index)], axis=1), weights


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("block", [1, 7, 37, None])
    @pytest.mark.parametrize(
        "kind, case",
        [(kind, case) for case in (0, 1) for kind in _FIELD_KINDS if kind != "mirror-extension" or case == 0],
    )
    def test_matches_evaluate_on_the_stacked_grid(self, monkeypatch, kind, case, block):
        f = TestGaussLegendreBox._path_field(kind, case)
        axes = _GRID_AXES[case]
        if block is not None:
            monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        # Each coordinate replaced by its first equal one: -0.0 after 0.0 reads as 0.0.
        first = [[next(c for c in axis if c == x) for x in axis] for axis in axes]
        points = np.array(list(itertools.product(*first)))
        want = f.evaluate(points).reshape([len(axis) for axis in axes])
        got = oracle.evaluate_on_grid(f, axes)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_a_coordinate_reads_as_its_first_equal_one(self):
        # x1 reads 0.0 and x2 reads -0.0 throughout, so every product is -0.0.
        values = oracle.evaluate_on_grid(field_from_expression("x1*x2", 2), [[0.0, -0.0], [-0.0, 0.0, -0.0]])
        assert values.shape == (2, 3) and np.all(values == 0.0) and np.all(np.signbit(values))

    @pytest.mark.parametrize("block, sizes", [(None, [[4, 2, 3]]), (7, [[1, 2, 3]] * 4)])
    def test_an_expression_gets_per_axis_columns(self, monkeypatch, block, sizes):
        def refuse(node, points):
            raise AssertionError(f"evaluate_batch called with points of shape {np.shape(points)}")

        F = field_from_expression("x1^2*x2^2*x3^2/8", 3)
        seen = []

        def fn(columns):
            seen.append([column.size for column in columns])
            return F.fn(columns)

        if block is not None:
            monkeypatch.setattr(oracle, "_EVAL_BLOCK", block)
        monkeypatch.setattr(expression, "evaluate_batch", refuse)
        axes = [[0.0, 0.5, 1.0, 1.5], [0.1, 0.2], [0.3, 0.4, 0.5]]
        got = oracle.evaluate_on_grid(ScalarField(3, fn), axes)
        assert seen == sizes
        want = [(a * b * c) ** 2 / 8 for a, b, c in itertools.product(*axes)]
        assert got.ravel().tolist() == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("block", [1, 4, 5, 7, 30, 36, 100, 1 << 20])
    def test_unequal_axes_are_walked_in_flat_divmod_order(self, block):
        rng = np.random.default_rng(block)
        axes = [(rng.random(size), rng.random(size)) for size in (3, 1, 4, 6)]
        points, weights = [], []
        nodes, axis_weights = zip(*axes)
        for columns, slab_weights in oracle._grid_slabs(nodes, block, axis_weights):
            assert slab_weights.size <= block
            points.append(np.stack([np.broadcast_to(c, slab_weights.shape).ravel() for c in columns], axis=1))
            weights.append(slab_weights.ravel())
        ref = list(_flat_divmod_grid(axes, block))
        assert np.concatenate(points).tobytes() == np.concatenate([p for p, _ in ref]).tobytes()
        assert np.concatenate(weights).tobytes() == np.concatenate([w for _, w in ref]).tobytes()
        unweighted = list(oracle._grid_slabs(nodes, block))
        assert [w for _, w in unweighted] == [None] * len(points)


CUT = oracle._EXTRACT_MIN


def _fsum_outcome(values):
    """math.fsum's value, or the exception type it raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestExactParts:
    @settings(max_examples=150, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.sampled_from([0, 1, CUT - 1, CUT, CUT + 1, 3 * CUT]) | st.integers(0, 4 * CUT),
            elements=st.floats(-1e300, 1e300),
        ),
        cancel=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fsum_of_the_parts_is_fsum_of_the_array(self, x, cancel, seed):
        # Exponents from subnormal to 1e300, signed zeros; with `cancel` every
        # value meets its negation, so the exact sum is at most the tiny tail.
        if cancel:
            rng = np.random.default_rng(seed)
            x = np.concatenate([x, -x, [5e-324, 1e-300]])
            rng.shuffle(x)
        parts = oracle._exact_parts(x)
        assert math.fsum(parts) == math.fsum(x)

    @pytest.mark.parametrize("length", [CUT - 1, CUT, 5 * CUT])
    @pytest.mark.parametrize(
        "fill",
        [
            [0.0],
            [-0.0],
            [0.0, -0.0],
            [5e-324, -1e-320, 2.2e-308],
            [1e300, 1e-300, -1e300, 3.0],
            [1e308, 1e308, -1e308],
            [math.inf, 1.0],
            [math.nan, 1.0],
            [math.inf, -math.inf, 1.0],
        ],
        ids=["zeros", "negative-zeros", "signed-zeros", "subnormal", "wide", "overflow", "inf", "nan", "inf-minus-inf"],
    )
    def test_edge_values_reduce_like_fsum(self, length, fill):
        x = np.resize(np.array(fill), length)
        want = _fsum_outcome(x)
        got = _fsum_outcome(oracle._exact_parts(x))
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want and str(got) == str(want)

    def test_long_arrays_shrink(self):
        x = np.random.default_rng(3).uniform(0.0, 1.0, 1 << 16)
        parts = oracle._exact_parts(x)
        assert len(parts) < CUT
        assert math.fsum(parts) == math.fsum(x)


class TestMonteCarlo:
    def test_constant_is_exact(self):
        f = field_from_expression("3", 2)
        est = monte_carlo_affine(f, (0.0, 0.0), [[2.0, 1.0], [0.0, 1.0]], 100, 7)
        assert est.estimate == 6.0
        assert est.stderr == 0.0
        assert est.samples == 100
        assert est.seed == 7

    def test_same_seed_same_bits(self):
        f = field_from_expression("x1*x2", 2)
        a = monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 5000, 42)
        b = monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 5000, 42)
        assert a == b

    def test_different_seed_differs(self):
        f = field_from_expression("x1*x2", 2)
        a = monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 5000, 1)
        b = monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 5000, 2)
        assert a.estimate != b.estimate

    def test_mean_near_truth(self):
        f = field_from_expression("x1", 2)
        est = monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 40000, 42)
        assert abs(est.estimate - 0.5) < 4 * est.stderr
        assert 0 < est.stderr < 0.01

    def test_affine_weighting(self):
        # doubling one edge doubles a constant integral through |det|
        f = field_from_callable(lambda point: 1.0, arity=2)
        est = monte_carlo_affine(f, (1.0, -1.0), [[2.0, 0.0], [0.0, 3.0]], 10, 0)
        assert est.estimate == 6.0

    def test_singular_edges_rejected(self):
        f = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="singular"):
            monte_carlo_affine(f, (0.0, 0.0), [[1.0, 2.0], [2.0, 4.0]], 100, 0)

    def test_needs_two_samples(self):
        f = field_from_expression("1", 1)
        with pytest.raises(DomainError, match="at least 2 samples"):
            monte_carlo_affine(f, (0.0,), [[1.0]], 1, 0)

    def test_rejects_a_negative_seed(self):
        f = field_from_expression("1", 1)
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            monte_carlo_affine(f, (0.0,), [[1.0]], 100, -1)

    def test_overflowing_points_raise_without_a_warning(self):
        # The suite turns a leaked RuntimeWarning into an error.
        f = field_from_expression("x1", 1)
        with pytest.raises(EvalError, match="non-finite result in 'x1' at point"):
            monte_carlo_affine(f, (1e308,), [[1e308]], 100, 1)

    def test_shape_check(self):
        f = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="edge matrix"):
            monte_carlo_affine(f, (0.0, 0.0), [[1.0, 0.0]], 100, 0)

    # One expression per dimension, reading every axis.
    _TILED = ("2.5", "exp(x1)", "exp(x1)*cos(x2)", "exp(x1)*cos(x2)+x3^2", "exp(x1)*cos(x2)+x3^2*x4-x2")

    @pytest.mark.parametrize("n", range(5))
    def test_tiles_give_the_bits_of_one_full_array_pass(self, n):
        # The reference: one draw of every sample, the per-axis map summed
        # left to right, one evaluation and one fsum per sum.
        samples, seed = 3 * oracle._EVAL_BLOCK + 17, 11
        f = field_from_expression(self._TILED[n], n)
        origin = tuple(0.25 - 0.5 * j for j in range(n))
        matrix = 0.5 * np.eye(n) + 0.125 * (1 - np.eye(n)) - 0.0625 * np.tri(n, k=-1)
        u = np.random.Generator(np.random.Philox(seed)).random((samples, n))
        xs = []
        for o, row in zip(origin, matrix.tolist()):
            total = row[0] * u[:, 0]
            for j in range(1, n):
                total = total + row[j] * u[:, j]
            xs.append(o + total)
        points = np.reshape(xs, (n, samples)).T
        values = f.evaluate(points) * abs(checked_determinant(matrix))
        mean = values[0] + math.fsum(values - values[0]) / samples
        deviations = values - mean
        stderr = math.sqrt(math.fsum(deviations * deviations) / (samples - 1) / samples)
        got = monte_carlo_affine(f, origin, matrix, samples, seed)
        assert (got.estimate.hex(), got.stderr.hex()) == (mean.hex(), stderr.hex())

    def test_memory_is_one_tile_and_the_values(self):
        f = field_from_expression("exp(0.3*x1)*cos(x2-x3)+x1*x3", 3)
        matrix = 0.5 * np.eye(3) + 0.1 * (1 - np.eye(3))

        def peak(samples):
            monte_carlo_affine(f, (0.25,) * 3, matrix, 2, 5)  # warm the parser
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                monte_carlo_affine(f, (0.25,) * 3, matrix, samples, 5)
                return tracemalloc.get_traced_memory()[1] - before - 8 * samples
            finally:
                tracemalloc.stop()

        one_tile, eight_tiles = peak(1 << 16), peak(1 << 19)
        # What grows with the tiles is the exact parts each leaves, a few
        # hundred floats, far below one 512 KiB tile array.
        assert eight_tiles - one_tile < (1 << 16), (one_tile, eight_tiles)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_value_that_is_not_finite_names_its_sample_point(self, bad):
        f = field_from_callable(lambda p: np.where(p[:, 0] > 0.5, bad, 1.0), 2, batch=True)
        with pytest.raises(DomainError, match=rf"field value {bad} is not finite at point \(0\.5\d*, "):
            monte_carlo_affine(f, (0.0, 0.0), np.eye(2), 1000, 1)
        # Also in a later tile: this field is bad at one sample of the third.
        first = 2 * oracle._EVAL_BLOCK + 5
        g = field_from_callable(lambda p: np.where(p[:, 0] == x_first, bad, 1.0), 1, batch=True)
        x_first = float(np.random.Generator(np.random.Philox(3)).random(first + 1)[first])
        with pytest.raises(DomainError, match=rf"field value {bad} is not finite at point \({x_first!r},\)"):
            monte_carlo_affine(g, (0.0,), [[1.0]], 3 * oracle._EVAL_BLOCK, 3)

    def test_a_mean_or_variance_that_overflows_is_refused(self):
        huge = field_from_callable(lambda p: np.where(p[:, 0] > 0.5, 1e300, -1e300), 1, batch=True)
        with pytest.raises(DomainError, match="the sample mean is not finite"):
            monte_carlo_affine(huge, (0.0,), [[1e10]], 1000, 1)
        with pytest.raises(DomainError, match="the sample variance is not finite"):
            monte_carlo_affine(huge, (0.0,), [[1.0]], 1000, 1)

    def test_samples_beyond_the_budget_are_refused_before_drawing(self):
        f = field_from_callable(lambda p: pytest.fail("evaluated"), 1, batch=True)
        with pytest.raises(BudgetExceededError, match=f"{oracle.MAX_EVALS + 1} grid points exceed the budget"):
            monte_carlo_affine(f, (0.0,), [[1.0]], oracle.MAX_EVALS + 1, 0)
