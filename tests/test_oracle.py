import math
import random
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
    field_from_callable,
    field_from_expression,
    field_from_polynomial,
    gauss_legendre_box,
    legendre_rule,
    monomial_product_integral,
    monte_carlo_affine,
    poly_from_expr,
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
        assert (cfg.nodes, cfg.panels, cfg.max_evals) == (12, 4, 10**8)

    @pytest.mark.parametrize("bad", [{"nodes": 1}, {"nodes": 33}, {"panels": 0}, {"max_evals": 0}])
    def test_validation(self, bad):
        with pytest.raises(DomainError):
            QuadratureConfig(**bad)


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
        f = field_from_expression("x1*x2", 2)
        box = Hypercuboid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(BudgetExceededError, match="exceed the budget"):
            gauss_legendre_box(f, box, QuadratureConfig(nodes=12, panels=4, max_evals=1000))

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
        # (expression, box, rule): 2-d rows of 48 points, 3-d rows of 20 points.
        ("sin(x1)*exp(x2)+x1^2/(1+x2^0.5)", ((Fraction(-1, 2), 0), (2, Fraction(3, 4))), QuadratureConfig()),
        ("exp(x1-x2)*cos(x3)+pi*x3^2-x1^-1", ((0, -1, 0.5), (1, 1, 2)), QuadratureConfig(nodes=5, panels=4)),
    ]

    @pytest.mark.parametrize(
        "case, block",
        [(0, 37), (0, 1), (0, 100), (1, 13), (1, 150), (0, 1 << 20), (1, 1 << 20)],
        ids=["2d-block37", "2d-block1", "2d-block100", "3d-block13", "3d-block150", "2d-whole", "3d-whole"],
    )
    def test_expression_grid_path_matches_the_dense_path(self, monkeypatch, case, block):
        expr, box, cfg = self._PATH_CASES[case]
        f = field_from_expression(expr, len(box[0]))
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

    def test_deterministic(self):
        f = field_from_expression("exp(x1*x2)", 2)
        box = Hypercuboid((0.0, 0.0), (1.0, 2.0))
        assert gauss_legendre_box(f, box) == gauss_legendre_box(f, box)

    def test_rational_bounds_accepted(self):
        f = field_from_expression("1", 1)
        box = Hypercuboid((Fraction(1, 3),), (Fraction(2, 3),))
        assert abs(gauss_legendre_box(f, box) - 1 / 3) < 1e-15


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

    def test_shape_check(self):
        f = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="edge matrix"):
            monte_carlo_affine(f, (0.0, 0.0), [[1.0, 0.0]], 100, 0)
