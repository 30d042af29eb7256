import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from boxcalc import (
    BudgetExceededError,
    DomainError,
    GaugeDependenceError,
    Hypercuboid,
    QuadratureConfig,
    ScalarField,
    builtin_field,
    builtin_names,
    check_antiderivative,
    field_from_callable,
    field_from_expression,
    field_from_polynomial,
    gauge_add,
    mixed_partial,
    numeric_antiderivative,
    parse,
    poly_antiderivative,
    poly_eval,
    poly_from_expr,
)
from boxcalc import workspace
from boxcalc.antiderivative import default_steps
from boxcalc.oracle import evaluate_on_grid
from helpers import random_polynomial, rel_err


class TestScalarField:
    def test_evaluate_and_call(self):
        f = field_from_expression("x1+2*x2", 2)
        pts = np.array([[1.0, 2.0], [0.0, 0.5]])
        assert list(f.evaluate(pts)) == [5.0, 1.0]
        assert f((1.0, 2.0)) == 5.0
        assert f.tag == "expression"

    def test_shape_validation(self):
        f = field_from_expression("x1", 1)
        with pytest.raises(DomainError):
            f.evaluate(np.zeros(4))
        with pytest.raises(DomainError):
            f.evaluate(np.zeros((4, 2)))

    def test_field_of_no_variables_is_a_constant(self):
        f = field_from_expression(parse("2.5", 0))
        assert f.arity == 0
        assert f(()) == 2.5
        assert list(f.evaluate(np.zeros((3, 0)))) == [2.5, 2.5, 2.5]

    def test_negative_arity_rejected(self):
        with pytest.raises(DomainError):
            ScalarField(-1, lambda pts: pts[:, 0])


class TestFieldConstructors:
    def test_source_text_needs_arity(self):
        with pytest.raises(DomainError, match="arity is required"):
            field_from_expression("x1")

    def test_tree_input_infers_arity(self):
        f = field_from_expression(parse("x1*x2", 2))
        assert f.arity == 2
        assert f((2.0, 3.0)) == 6.0

    def test_polynomial_field_matches_exact_eval(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_polynomial(rng, 2, max_degree=3)
            f = field_from_polynomial(p)
            assert f.tag == "polynomial"
            pt = (rng.randint(-4, 4) / 2, rng.randint(-4, 4) / 2)
            want = float(poly_eval(p, (Fraction(pt[0]), Fraction(pt[1]))))
            assert abs(f(pt) - want) <= 1e-12 * max(1.0, abs(want))

    def test_polynomial_field_keeps_the_term_by_term_values(self):
        # The field once built each term as coeff * x**k * ... and summed with
        # out = out + piece; accumulating in place must give the same bits,
        # signed zeros included, inside a walk's workspace and outside one.
        p = poly_from_expr(parse("3*x1^2*x2+x1*x2^3-x2+2-x1^3*x2^2", 2))
        terms = [(exps, float(coeff)) for exps, coeff in p.terms.items()]

        def reference(columns):
            out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in columns)))
            for exps, coeff in terms:
                piece = np.float64(coeff)
                for column, k in zip(columns, exps):
                    if k:
                        piece = piece * column**k
                out = out + piece
            return out

        x1 = np.concatenate([[-0.0, 0.0, -1.5], np.linspace(-2.0, 2.0, 301)])
        x2 = np.concatenate([[0.0, -0.0, 0.7], np.linspace(-1.0, 3.0, 97)])
        assert x1.size * x2.size >= workspace.MIN_TILE
        field = field_from_polynomial(p)
        want = reference((x1[:, None], x2[None, :]))
        got = evaluate_on_grid(field, [x1, x2])
        assert got.tobytes() == want.tobytes()
        points = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.25, -0.5]])
        assert field.evaluate(points).tobytes() == reference(tuple(points.T)).tobytes()

    def test_callable_rowwise_and_batch(self):
        g = field_from_callable(lambda point: point[0] ** 2, arity=1, tag="sq")
        assert g((3.0,)) == 9.0
        assert g.tag == "sq"
        h = field_from_callable(lambda pts: pts[:, 0] ** 2, arity=1, batch=True)
        assert list(h.evaluate(np.array([[2.0], [4.0]]))) == [4.0, 16.0]


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == (
            "one",
            "coordinate_product",
            "trig_product",
            "exp_sum",
            "shifted_quadratic",
        )

    def test_values_at_arity_two(self):
        pt = (0.5, 1.5)
        expect = {
            "one": 1.0,
            "coordinate_product": 0.75,
            "trig_product": math.sin(0.5) * math.cos(1.5),
            "exp_sum": math.exp(2.0),
            "shifted_quadratic": 1 + 0.25 + 2.25,
        }
        for name in builtin_names():
            f = builtin_field(name, 2)
            assert f.arity == 2
            assert f(pt) == pytest.approx(expect[name], rel=1e-15)

    def test_every_name_builds_at_arities_1_to_4(self):
        for name in builtin_names():
            for arity in range(1, 5):
                f = builtin_field(name, arity)
                assert np.isfinite(f(tuple([0.3] * arity)))

    def test_bad_requests(self):
        with pytest.raises(DomainError, match="arity >= 1"):
            builtin_field("one", 0)
        with pytest.raises(DomainError, match="unknown builtin"):
            builtin_field("mystery", 2)


class TestNumericAntiderivative:
    def test_vanishes_on_corner_planes_exactly(self):
        f = field_from_expression("exp(x1+x2)", 2)
        F = numeric_antiderivative(f, (0.25, -1.0))
        assert F((0.25, 3.0)) == 0.0
        assert F((2.0, -1.0)) == 0.0
        assert F((0.25, -1.0)) == 0.0

    def test_rejects_points_below_corner(self):
        f = field_from_expression("x1", 1)
        F = numeric_antiderivative(f, (0.0,))
        with pytest.raises(DomainError, match="axis 1: point coordinate -0.5 lies below"):
            F((-0.5,))

    def test_sine_golden(self):
        F = numeric_antiderivative(field_from_expression("sin(x1)", 1), (0.0,))
        assert abs(F((math.pi,)) - 2.0) < 1e-13
        assert abs(F((math.pi / 2,)) - 1.0) < 1e-13

    def test_matches_exact_polynomial_antiderivative(self):
        rng = random.Random(17)
        for _ in range(8):
            arity = rng.randint(1, 2)
            p = random_polynomial(rng, arity, max_degree=4)
            corner = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(arity))
            exact = poly_antiderivative(p, corner)
            F = numeric_antiderivative(field_from_polynomial(p), corner)
            for _ in range(3):
                x = tuple(c + Fraction(rng.randint(1, 8), 4) for c in corner)
                want = float(poly_eval(exact, x))
                got = F(tuple(float(c) for c in x))
                assert rel_err(got, want) < 1e-10

    def test_metadata(self):
        f = field_from_expression("x1*x2", 2)
        F = numeric_antiderivative(f, (0, 0), QuadratureConfig(nodes=6, panels=1))
        assert F.arity == 2
        assert F.tag == "numeric-antiderivative"

    def test_rejects_the_first_row_below_the_corner_in_a_batch(self):
        F = numeric_antiderivative(field_from_expression("x1*x2", 2), (0.0, 0.0))
        points = np.array([[0.5, 0.5], [0.25, -0.125], [-1.0, -2.0]])
        with pytest.raises(DomainError, match="axis 2: point coordinate -0.125 lies below the base corner 0.0"):
            F.evaluate(points)

    def test_a_call_beyond_the_budget_is_refused_before_any_cubature(self):
        calls = []

        def f_rows(points):
            calls.append(len(points))
            return np.prod(points, axis=1)

        f = field_from_callable(f_rows, 4, batch=True)
        F = numeric_antiderivative(f, (0.0,) * 4)
        box = Hypercuboid((0.0,) * 4, (1.0,) * 4)
        # 9**4 stencil corners off the base planes, each a 48**4-point cubature.
        with pytest.raises(BudgetExceededError, match=r"^6561\*48\*48\*48\*48 grid points exceed the budget"):
            check_antiderivative(f, F, box)
        assert calls == []

    def test_corner_length_check(self):
        with pytest.raises(DomainError, match="corner has 2 coordinates"):
            numeric_antiderivative(field_from_expression("x1", 1), (0.0, 0.0))


class TestMixedPartial:
    def test_exact_for_multilinear(self):
        F = field_from_expression("x1*x2", 2)
        assert mixed_partial(F, (0.3, 0.7), (0.1, 0.2)) == pytest.approx(1.0, abs=5e-12)

    def test_product_quadratic(self):
        F = field_from_expression("x1^2*x2^2/4", 2)
        got = mixed_partial(F, (0.5, 0.5), (0.125, 0.125))
        assert got == pytest.approx(0.25, abs=1e-10)

    def test_validation(self):
        F = field_from_expression("x1", 1)
        with pytest.raises(DomainError, match="must be positive"):
            mixed_partial(F, (0.5,), (0.0,))
        with pytest.raises(DomainError, match="coordinates"):
            mixed_partial(F, (0.5, 0.5), (0.1,))

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_rejects_a_step_that_is_not_finite(self, step):
        F = field_from_expression("x1*x2", 2)
        with pytest.raises(DomainError, match=r"steps h must be positive and finite, got h=\(0\.1, "):
            mixed_partial(F, (0.5, 0.5), (0.1, step))

    @pytest.mark.parametrize(
        "h", [(1e-200, 1e-200), (1e-160, 1e-160), (0.5, sys.float_info.min / 3), (1e200, 1e200)]
    )
    def test_rejects_a_stencil_scale_that_is_not_a_normal_float(self, h):
        # A scale of 0 divided by zero, and a subnormal one read 0.0 for a mixed partial of 1.
        F = field_from_expression("x1*x2", 2)
        with pytest.raises(DomainError, match=r"stencil scale prod\(2\*h\) = \S+ is not a normal float"):
            mixed_partial(F, (0.5, 0.5), h)

    def test_accepts_the_smallest_normal_stencil_scale(self):
        # prod(2*h) is exactly the smallest normal float, and every corner value is exact.
        F = field_from_expression("x1*x2", 2)
        assert mixed_partial(F, (0.0, 0.0), (0.5, sys.float_info.min / 2)) == 1.0


class TestCheckAntiderivative:
    BOX = Hypercuboid((0.0, 0.0), (1.0, 2.0))
    CHEAP = QuadratureConfig(nodes=12, panels=1)

    def test_numeric_antiderivative_passes(self):
        f = builtin_field("coordinate_product", 2)
        F = numeric_antiderivative(f, (0.0, 0.0), self.CHEAP)
        report = check_antiderivative(f, F, self.BOX)
        assert report.passed
        assert report.max_rel_deviation <= 1e-4
        assert report.grid_points == 5
        assert report.h == default_steps(self.BOX)
        assert str(report).startswith("pass: max abs")

    def test_default_steps_balance_truncation_and_rounding(self):
        # h_j = eps**(1/(n+2)) * (b_j - a_j); in 2-d that is 2**-13 of each extent.
        assert default_steps(self.BOX) == (2.0**-13, 2.0**-12)
        for n in range(1, 7):
            box = Hypercuboid((0.5,) * n, tuple(1.5 + j for j in range(n)))
            scale = sys.float_info.epsilon ** (1.0 / (n + 2))
            assert default_steps(box) == tuple(scale * (1.0 + j) for j in range(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_correct_antiderivatives_pass_in_4d_and_5d(self, n):
        # The rounding error grows like eps / (2h)**n: a step that ignores n fails 5-d.
        f = field_from_expression("*".join(f"cos(x{j})" for j in range(1, n + 1)), n)
        F = field_from_expression("*".join(f"sin(x{j})" for j in range(1, n + 1)), n)
        report = check_antiderivative(f, F, Hypercuboid((0.0,) * n, (1.0,) * n), grid_points=3)
        assert report.passed
        assert report.max_rel_deviation < 5e-5

    def test_a_deviation_that_overflows_reads_inf_and_fails(self):
        # Each mixed partial is about 1.5e308 and f is -1.5e308: their difference overflows.
        f = field_from_expression("-1.5e308", 1)
        F = field_from_expression("1.5e308*x1", 1)
        report = check_antiderivative(f, F, Hypercuboid((0.0,), (1.0,)), grid_points=3)
        assert not report.passed
        assert report.max_abs_deviation == math.inf == report.max_rel_deviation

    def test_wrong_candidate_fails(self):
        f = field_from_expression("x1*x2", 2)
        wrong = field_from_expression("x1^2*x2", 2)
        report = check_antiderivative(f, wrong, self.BOX)
        assert not report.passed
        assert report.max_rel_deviation > 1e-4
        assert str(report).startswith("FAIL")

    def test_exact_closed_form_passes_tightly(self):
        f = field_from_expression("x1*x2", 2)
        F = field_from_expression("x1^2*x2^2/4", 2)
        report = check_antiderivative(f, F, self.BOX)
        assert report.passed
        assert report.max_rel_deviation < 1e-8

    def test_scalar_h_broadcasts(self):
        f = field_from_expression("x1*x2", 2)
        F = field_from_expression("x1^2*x2^2/4", 2)
        report = check_antiderivative(f, F, self.BOX, h=0.01)
        assert report.h == (0.01, 0.01)
        assert report.passed

    def test_numeric_antiderivative_at_a_lower_corner_that_rounds_outward(self):
        # With the default h, fl(fl(0.125 + h) - h) < 0.125, so an inset of
        # exactly a + h would put the stencil below F's base corner.
        box = Hypercuboid((0.125, 0.0), (0.964, 1.0))
        h = default_steps(box)[0]
        assert (0.125 + h) - h < 0.125
        f = field_from_expression("cos(x1)*exp(x2)", 2)
        F = numeric_antiderivative(f, (0.125, 0.0))
        report = check_antiderivative(f, F, box, grid_points=5)
        assert report.passed

    @pytest.mark.parametrize("a, b, h", [(0.125, 0.925, None), (0.1, 0.9021, 0.01 * (0.9021 - 0.1))])
    def test_stencils_stay_inside_the_box(self, a, b, h):
        # (0.125, 0.925) rounds a + h - h below a at the default step, and
        # (0.1, 0.9021) rounds b - h + h above b at the step given.
        step = default_steps(Hypercuboid((a,), (b,)))[0] if h is None else h
        assert (a + step) - step < a or (b - step) + step > b
        seen = []

        def F(pts):
            seen.append(np.array(pts))
            return pts[:, 0] ** 2 / 2

        report = check_antiderivative(
            field_from_expression("x1", 1), field_from_callable(F, arity=1, batch=True), Hypercuboid((a,), (b,)), h=h
        )
        assert report.passed
        seen = np.concatenate(seen)
        assert seen.min() >= a and seen.max() <= b

    @pytest.mark.parametrize("h", [math.nan, (0.01, math.nan), math.inf])
    def test_rejects_a_step_that_is_not_finite(self, h):
        # NaN compares false with everything, so `step <= 0` let it through to
        # the evaluator, which then reported a non-finite power at (nan, nan).
        f = field_from_expression("x1*x2", 2)
        F = field_from_expression("x1^2*x2^2/4", 2)
        with pytest.raises(DomainError, match="steps h must be positive and finite, got h="):
            check_antiderivative(f, F, self.BOX, h=h)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        f = field_from_expression("x1*x2", 2)
        F = field_from_expression("x1^2*x2^2/4", 2)
        with pytest.raises(DomainError, match="tolerance must be non-negative and finite, got tol="):
            check_antiderivative(f, F, self.BOX, tol=tol)

    def test_stencil_escape(self):
        f = field_from_expression("x1", 1)
        with pytest.raises(DomainError, match="axis 1: stencil of half-width 0.6 escapes"):
            check_antiderivative(f, f, Hypercuboid((0.0,), (1.0,)), h=0.6)

    def test_validation(self):
        f = field_from_expression("x1", 1)
        F = field_from_expression("x1^2/2", 1)
        box = Hypercuboid((0.0,), (1.0,))
        with pytest.raises(DomainError, match="grid needs at least one point"):
            check_antiderivative(f, F, box, grid_points=0)
        with pytest.raises(DomainError, match="arities must match"):
            check_antiderivative(field_from_expression("x1", 1), F, self.BOX)
        with pytest.raises(DomainError, match=r"h must be one step, or one per axis \(1\), got h=\(0\.1, 0\.1\)"):
            check_antiderivative(f, F, box, h=(0.1, 0.1))


class TestGaugeAdd:
    def test_accepts_term_constant_along_declared_axis(self):
        F = field_from_expression("x1^2*x2^2/4", 2)
        C = field_from_expression("x2^3", 2)
        shifted = gauge_add(F, C, [1])
        assert shifted.tag == "gauge-shifted"
        pt = (0.5, 0.25)
        assert shifted(pt) == pytest.approx(F(pt) + C(pt), rel=1e-15)

    def test_detects_variation(self):
        F = field_from_expression("x1*x2", 2)
        C = field_from_expression("x1+x2", 2)
        with pytest.raises(GaugeDependenceError, match="axis 1"):
            gauge_add(F, C, [1])

    def test_axis_validation(self):
        F = field_from_expression("x1*x2", 2)
        C = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="at least one constant axis"):
            gauge_add(F, C, [])
        with pytest.raises(DomainError, match="must lie in 1..2"):
            gauge_add(F, C, [3])

    def test_arity_mismatch(self):
        F = field_from_expression("x1*x2", 2)
        C = field_from_expression("x1", 1)
        with pytest.raises(DomainError, match="arity mismatch"):
            gauge_add(F, C, [1])

    def test_domain_mismatch(self):
        F = field_from_expression("x1*x2", 2)
        C = field_from_expression("x2", 2)
        with pytest.raises(DomainError, match="domain dimension"):
            gauge_add(F, C, [1], domain=Hypercuboid((0.0,), (1.0,)))

    def test_custom_domain_catches_far_field_variation(self):
        F = field_from_expression("x1*x2", 2)
        # flat on the unit box, varying beyond it
        C = field_from_callable(
            lambda pts: np.maximum(pts[:, 0] - 1.0, 0.0), arity=2, batch=True
        )
        gauge_add(F, C, [1])
        with pytest.raises(GaugeDependenceError):
            gauge_add(F, C, [1], domain=Hypercuboid((0.0, 0.0), (5.0, 1.0)))
