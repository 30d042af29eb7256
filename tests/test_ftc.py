import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import boxcalc.antiderivative as antiderivative
import boxcalc.ftc as ftc
from boxcalc import (
    CompositionalityReport,
    DomainError,
    EvalError,
    Hypercuboid,
    ImpossibilityReport,
    IntegralResult,
    Parallelotope,
    QuadratureConfig,
    ScalarField,
    SymmetryError,
    VertexLabel,
    check_segment_symmetry,
    compositionality_check,
    field_from_callable,
    field_from_expression,
    field_from_polynomial,
    gauge_add,
    gauss_legendre_box,
    integrate_box,
    integrate_box_from_f,
    integrate_parallelotope,
    integrate_triangle_symmetric,
    mirror_extend,
    monomial_product_integral,
    pullback_field,
    triangle_impossibility_check,
    vertex_sign,
    with_oracle,
    workspace,
)
from helpers import random_polynomial, random_rational_box, rel_err

UNIT_SQUARE = Hypercuboid((0.0, 0.0), (1.0, 1.0))
CHEAP_TRI = QuadratureConfig(nodes=12, panels=16)


class TestIntegrateBox:
    def test_bilinear_golden(self):
        F = field_from_expression("x1*x2", 2)
        result = integrate_box(F, UNIT_SQUARE)
        assert result.value == 1.0
        assert result.method == "vertex-sum"
        assert [str(label) for label, _, _ in result.contributions] == ["00", "01", "10", "11"]
        assert [sign for _, sign, _ in result.contributions] == [1, -1, -1, 1]

    def test_quartic_golden(self):
        F = field_from_expression("x1^2*x2^2/4", 2)
        assert integrate_box(F, UNIT_SQUARE).value == 0.25

    def test_three_dimensional_golden(self):
        F = field_from_expression("x1*x2*x3", 3)
        box = Hypercuboid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        result = integrate_box(F, box)
        assert result.value == 1.0
        assert len(result.contributions) == 8

    def test_value_recomputes_from_contributions(self):
        F = field_from_expression("exp(x1)*sin(x2)", 2)
        box = Hypercuboid((-0.5, 0.25), (1.5, 2.0))
        result = integrate_box(F, box)
        assert result.value == math.fsum(s * v for _, s, v in result.contributions) + 0.0

    def test_1d_is_endpoint_difference(self):
        F = field_from_expression("x1^3/3-x1", 1)
        box = Hypercuboid((-0.5,), (1.25,))
        result = integrate_box(F, box)
        assert result.value == F((1.25,)) - F((-0.5,))

    def test_degenerate_axis_cancels_exactly(self):
        F = field_from_expression("exp(x1+x2)", 2)
        box = Hypercuboid((0.0, 1.5), (2.0, 1.5))
        result = integrate_box(F, box)
        assert result.value == 0.0
        assert math.copysign(1.0, result.value) == 1.0
        by_point = {}
        for label, _, value in result.contributions:
            by_point.setdefault(label.bits[0], set()).add(value)
        # axis 2 collapsed: the two vertices sharing an x1 bit carry one value
        assert all(len(vals) == 1 for vals in by_point.values())

    def test_coincident_vertices_evaluated_once(self):
        calls = []

        def probe(pts):
            calls.append(pts.shape[0])
            return pts[:, 0] + pts[:, 1]

        F = field_from_callable(probe, arity=2, batch=True)
        box = Hypercuboid((0.0, 2.0), (1.0, 2.0))
        integrate_box(F, box)
        assert sum(calls) == 2

    def test_arity_mismatch(self):
        F = field_from_expression("x1", 1)
        with pytest.raises(DomainError, match="does not match box dimension"):
            integrate_box(F, UNIT_SQUARE)

    def test_with_oracle(self):
        result = IntegralResult(value=1.5, method="vertex-sum", contributions=())
        out = with_oracle(result, 1.25)
        assert out.oracle == 1.25
        assert out.abs_diff == 0.25
        assert out.rel_diff == 0.25 / 1.25
        small = with_oracle(result, 0.5)
        assert small.rel_diff == 1.0  # relative floor at 1


class TestCompositionality:
    def test_single_cut(self):
        F = field_from_expression("x1^2*x2^2/4", 2)
        report = compositionality_check(F, UNIT_SQUARE, [[0.5], []])
        assert isinstance(report, CompositionalityReport)
        assert report.subboxes == 2
        assert report.abs_diff <= 1e-15
        assert report.lhs == 0.25

    def test_grid_cuts(self):
        F = field_from_expression("sin(x1)*exp(x2)", 2)
        report = compositionality_check(F, UNIT_SQUARE, [[0.25, 0.5], [0.5]])
        assert report.subboxes == 6
        assert report.abs_diff <= 1e-15 * max(1.0, abs(report.lhs))

    def test_no_cuts_is_identity(self):
        F = field_from_expression("exp(x1+x2)", 2)
        report = compositionality_check(F, UNIT_SQUARE, [[], []])
        assert report.subboxes == 1
        assert report.abs_diff == 0.0

    def test_random_polynomials(self):
        rng = random.Random(31)
        for _ in range(15):
            arity = rng.randint(1, 3)
            box = random_rational_box(rng, arity)
            F = field_from_polynomial(random_polynomial(rng, arity, max_degree=3))
            cuts = []
            for a, b in zip(box.lower, box.upper):
                k = rng.randint(0, 3)
                cuts.append([a + (b - a) * Fraction(i, k + 1) for i in range(1, k + 1)])
            report = compositionality_check(F, box, cuts)
            assert report.abs_diff <= 1e-10 * max(1.0, abs(report.lhs))

    def test_gauge_term_cancels_in_vertex_sum(self):
        F = field_from_expression("x1^2*x2^2/4", 2)
        C = field_from_expression("x2^3-2*x2", 2)
        shifted = gauge_add(F, C, [1])
        base = integrate_box(F, UNIT_SQUARE).value
        moved = integrate_box(shifted, UNIT_SQUARE).value
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


class TestIntegrateBoxFromF:
    def test_constant(self):
        f = field_from_expression("1", 2)
        box = Hypercuboid((0.0, 0.0), (2.0, 3.0))
        result = integrate_box_from_f(f, box)
        assert abs(result.value - 6.0) < 1e-12

    def test_bilinear(self):
        f = field_from_expression("x1*x2", 2)
        result = integrate_box_from_f(f, UNIT_SQUARE)
        assert abs(result.value - 0.25) < 1e-10

    def test_trig_product(self):
        f = field_from_expression("sin(x1)*cos(x2)", 2)
        box = Hypercuboid((0.0, 0.0), (math.pi / 2, math.pi / 2))
        result = integrate_box_from_f(f, box)
        assert abs(result.value - 1.0) < 1e-8

    def test_lower_corner_contributions_are_structural_zeros(self):
        f = field_from_expression("exp(x1+x2)", 2)
        box = Hypercuboid((0.25, -1.0), (1.0, 0.5))
        result = integrate_box_from_f(f, box)
        for label, _, value in result.contributions:
            if 0 in label.bits:
                assert value == 0.0
        # only the all-upper vertex carries the integral
        assert result.value == result.contributions[-1][2]

    def test_equals_direct_quadrature_bitwise(self):
        f = field_from_expression("exp(x1+x2)", 2)
        rng = random.Random(9)
        for _ in range(5):
            a1, a2 = rng.uniform(-1, 0), rng.uniform(-1, 0)
            box = Hypercuboid((a1, a2), (a1 + rng.uniform(0.2, 1.0), a2 + rng.uniform(0.2, 1.0)))
            quad = QuadratureConfig(nodes=8, panels=2)
            assert integrate_box_from_f(f, box, quad).value == gauss_legendre_box(f, box, quad)

    def test_quad_override(self):
        f = field_from_expression("exp(x1)", 1)
        box = Hypercuboid((0.0,), (1.0,))
        result = integrate_box_from_f(f, box, QuadratureConfig(nodes=6, panels=1))
        assert abs(result.value - (math.e - 1.0)) < 1e-6


class TestParallelotope:
    def test_pullback_field_values(self):
        f = field_from_expression("x1+x2", 2)
        g = pullback_field(f, (1.0, 1.0), [[2.0, 0.0], [0.0, 3.0]])
        assert g((0.5, 1.0)) == 6.0
        assert g.tag == "pullback"

    def test_pullback_refuses_a_short_origin(self):
        f = field_from_expression("x1+x2", 2)
        with pytest.raises(DomainError, match="origin"):
            pullback_field(f, (0.0,), np.eye(2))

    def test_pullback_refuses_a_matrix_of_the_wrong_shape(self):
        f = field_from_expression("x1+x2", 2)
        with pytest.raises(DomainError, match="matrix"):
            pullback_field(f, (0.0, 0.0), [[1.0, 0.0]])

    def test_pullback_of_a_constant_is_the_constant(self):
        g = pullback_field(field_from_expression("3", 0), (), np.zeros((0, 0)))
        assert g(()) == 3.0
        assert g.evaluate(np.empty((4, 0))).tolist() == [3.0] * 4

    # A 3-d map whose per-point sums round differently in other orders.
    _ORIGIN = (0.3, -1.7, 0.1)
    _MATRIX = [[0.7, -0.3, 1.1], [0.13, 0.9, -0.41], [-0.27, 0.35, 1.3]]

    @classmethod
    def _reference(cls, f, us):
        """f(o + T u), each coordinate summed left to right in plain Python."""
        xs = []
        for u in us:
            x = []
            for o, row in zip(cls._ORIGIN, cls._MATRIX):
                total = row[0] * u[0]
                for t, uj in zip(row[1:], u[1:]):
                    total = total + t * uj
                x.append(o + total)
            xs.append(x)
        return f.evaluate(np.array(xs))

    def test_pullback_sums_each_coordinate_left_to_right(self):
        f = field_from_expression("exp(x1)*sin(x2)+x3^2*x1", 3)
        g = pullback_field(f, self._ORIGIN, self._MATRIX)
        rng = np.random.default_rng(5)
        axes = [rng.random(m) for m in (6, 7, 8)]
        grid = g.fn(tuple(a.reshape([-1 if i == j else 1 for i in range(3)]) for j, a in enumerate(axes)))
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        want = self._reference(f, points.tolist())
        assert grid.shape == (6, 7, 8)
        assert grid.ravel().tobytes() == want.tobytes()
        assert g.evaluate(points).tobytes() == want.tobytes()

    def test_pullback_never_stacks_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pullback stacked its columns into points")

        # ftc no longer imports the stacking factory; refuse it wherever it lives.
        monkeypatch.setattr(ftc, "field_from_callable", refuse, raising=False)
        monkeypatch.setattr(antiderivative, "field_from_callable", refuse)
        f = field_from_expression("x1*exp(x2)*x3", 3)
        g = pullback_field(f, (0.0, 0.0, 0.0), np.diag([1.0, 2.0, 0.5]))
        got = gauss_legendre_box(g, Hypercuboid((0.0,) * 3, (1.0,) * 3))
        assert got == pytest.approx((math.e**2 - 1) / 16, rel=1e-14)

    def test_pullback_returns_fs_values_as_they_are(self):
        values = np.array([1.5, -2.0])
        f = ScalarField(2, lambda columns: values)
        assert pullback_field(f, (0.0, 0.0), 3.0 * np.eye(2)).fn((np.zeros(2), np.ones(2))) is values

    def test_pullback_overflow_raises_without_a_warning(self, recwarn):
        f = field_from_expression("x1+x2", 2)
        quad = QuadratureConfig(nodes=4, panels=1)
        coordinates = pullback_field(f, (1e308, 0.0), [[1e308, 1e308], [0.0, 1.0]])
        with pytest.raises(EvalError, match="non-finite"):
            gauss_legendre_box(coordinates, UNIT_SQUARE, quad)
        # The unit box's integral is finite; |det T| = 1e20 times it is not.
        p = Parallelotope.from_edge_vectors((1e300, 0.0), ((1e10, 0.0), (0.0, 1e10)))
        with pytest.raises(DomainError, match=r"on the unit box times \|det T\| = 1\.0+\d*e\+20 overflows the floating-point range"):
            integrate_parallelotope(f, p, quad)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unit_box_embedding_is_bitwise_box_integral(self):
        f = field_from_expression("exp(x1+x2)", 2)
        p = Parallelotope.from_edge_vectors((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
        quad = QuadratureConfig(nodes=8, panels=2)
        via_p = integrate_parallelotope(f, p, quad)
        via_box = integrate_box_from_f(f, UNIT_SQUARE, quad)
        assert via_p.value == via_box.value
        for (la, sa, va), (lb, sb, vb) in zip(via_p.contributions, via_box.contributions):
            assert (la, sa, va) == (lb, sb, vb)

    def test_sheared_parallelogram_area(self):
        f = field_from_expression("1", 2)
        p = Parallelotope.from_edge_vectors((0.0, 0.0), ((2.0, 0.0), (1.0, 1.0)))
        result = integrate_parallelotope(f, p)
        assert abs(result.value - 2.0) < 1e-10
        assert result.method == "parallelotope"

    def test_sheared_parallelogram_coordinate(self):
        f = field_from_expression("x1", 2)
        p = Parallelotope.from_edge_vectors((0.0, 0.0), ((2.0, 0.0), (1.0, 1.0)))
        assert abs(integrate_parallelotope(f, p).value - 3.0) < 1e-8

    def test_one_dimensional_segment(self):
        f = field_from_expression("x1", 1)
        p = Parallelotope.from_edge_vectors((1.0,), ((2.0,),))
        assert abs(integrate_parallelotope(f, p).value - 4.0) < 1e-10

    def test_three_dimensional_volume(self):
        f = field_from_expression("1", 3)
        p = Parallelotope.from_edge_vectors(
            (0.0, 0.0, 0.0), ((1.0, 0.0, 1.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.5))
        )
        result = integrate_parallelotope(f, p, QuadratureConfig(nodes=6, panels=1))
        assert abs(result.value - 3.0) < 1e-9

    def test_signs_follow_distance_to_marked_vertex(self):
        f = field_from_expression("x1+x2", 2)
        p = Parallelotope.from_edge_vectors((0.0, 0.0), ((2.0, 0.0), (1.0, 1.0)))
        assert p.marked == VertexLabel((1, 1))
        assert p.marked_point == (3.0, 1.0)
        result = integrate_parallelotope(f, p, QuadratureConfig(nodes=4, panels=1))
        signs = {str(label): sign for label, sign, _ in result.contributions}
        assert signs == {"11": 1, "01": -1, "10": -1, "00": 1}

    def test_visit_order_does_not_change_the_value(self):
        f = field_from_expression("exp(x1)*x2", 2)
        p = Parallelotope.from_edge_vectors((0.5, -0.5), ((1.0, 0.25), (0.0, 2.0)))
        base = integrate_parallelotope(f, p, QuadratureConfig(nodes=8, panels=1))
        terms = [sign * F for _, sign, F in base.contributions]
        rng = random.Random(2)
        for _ in range(5):
            rng.shuffle(terms)
            assert math.fsum(terms) == base.value

    def test_value_and_contributions_are_the_unit_box_ones_times_the_volume(self):
        f = field_from_expression("exp(x1)*x2", 2)
        p = Parallelotope.from_edge_vectors((0.5, -0.5), ((1.0, 0.25), (0.0, 2.0)))
        quad = QuadratureConfig(nodes=8, panels=1)
        unit = integrate_box_from_f(pullback_field(f, p.origin, p.matrix), UNIT_SQUARE, quad)
        result = integrate_parallelotope(f, p, quad)
        volume = abs(p.det)
        assert result.value == volume * unit.value
        assert result.contributions == tuple((label, sign, volume * F) for label, sign, F in unit.contributions)

    def test_arity_mismatch(self):
        f = field_from_expression("x1", 1)
        p = Parallelotope.from_edge_vectors((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(DomainError, match="does not match dimension"):
            integrate_parallelotope(f, p)


class TestSegmentSymmetry:
    Q = (1.0, 0.0)
    R = (0.0, 1.0)

    def test_symmetric_integrand_passes(self):
        f = field_from_expression("x1+x2", 2)
        report = check_segment_symmetry(f, self.Q, self.R)
        assert report.passed
        assert report.max_deviation <= 1e-15
        assert report.samples == 17
        assert report.tol == 1e-9

    def test_scale_relative_tolerance(self):
        f = field_from_expression("1000000000*(x1+x2)", 2)
        assert check_segment_symmetry(f, self.Q, self.R).passed

    def test_asymmetric_integrand_fails(self):
        f = field_from_expression("x1", 2)
        report = check_segment_symmetry(f, self.Q, self.R)
        assert not report.passed
        assert 0.0 < report.worst_t < 1.0
        assert report.max_deviation > 0.1

    def test_validation(self):
        with pytest.raises(DomainError, match="needs arity 2"):
            check_segment_symmetry(field_from_expression("x1", 1), self.Q, self.R)
        f = field_from_expression("x1+x2", 2)
        with pytest.raises(DomainError, match="at least one sample"):
            check_segment_symmetry(f, self.Q, self.R, samples=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        with pytest.raises(DomainError, match="tolerance must be non-negative and finite, got tol="):
            check_segment_symmetry(field_from_expression("1", 2), self.Q, self.R, tol=tol)

    def test_mirror_extension_values(self):
        f = field_from_expression("x1", 2)
        extended = mirror_extend(f)
        assert extended((0.2, 0.3)) == 0.2  # inside the triangle
        assert extended((0.8, 0.9)) == pytest.approx(0.2, abs=1e-15)  # folded
        assert extended((0.5, 0.5)) == 0.5  # on the seam
        assert extended((0.25, 0.75)) == 0.25  # on the seam

    def test_folded_pullback_is_f_reflected_through_the_midpoint_of_qr(self):
        f = field_from_expression("exp(x1)*cos(3*x2)+x1*x2", 2)
        p, q, r = np.array([0.5, -1.0]), np.array([2.0, 0.25]), np.array([-0.75, 1.5])
        folded = mirror_extend(pullback_field(f, p, np.column_stack((q - p, r - p))))
        us = np.random.default_rng(3).random((200, 2))
        xs = p + us @ np.column_stack((q - p, r - p)).T
        far = us.sum(axis=1) > 1.0
        assert 0 < far.sum() < len(us)
        want = f.evaluate(np.where(far[:, None], q + r - xs, xs))
        np.testing.assert_allclose(folded.evaluate(us), want, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _near_far_split(f, columns):
        """The fold as two f calls: on the near points, and on the folded far points."""
        far = columns[0] + columns[1] > 1.0
        near = ~far
        u1, u2 = (np.broadcast_to(c, far.shape) for c in columns)
        out = np.empty(far.shape)
        out[near] = f.fn((u1[near], u2[near]))
        out[far] = f.fn((1.0 - u1[far], 1.0 - u2[far]))
        return out

    @pytest.mark.parametrize("in_walk", [False, True], ids=["outside-a-walk", "in-a-walk"])
    def test_mirror_extension_matches_the_near_far_split(self, in_walk):
        def f_fn(c):
            # fmax reads NaN as -9, so a NaN x1 shows whether x2 was reflected.
            a = np.fmax(c[0], -9.0)
            return 3.0 * a * a - 0.5 * c[1] + a * c[1]

        f = ScalarField(2, f_fn)
        rows = np.array([0.0, 0.25, 0.5, math.nan, 0.75, 1.0, 1.25, -0.5])
        cols = np.arange(-256, workspace.MIN_TILE // len(rows) - 256) / 1024
        # The seam runs from (1, 0) to (0, 1): (0.25, 0.75), (0.5, 0.5) and more lie on it exactly.
        columns = (rows.reshape(-1, 1), cols.reshape(1, -1))
        want = self._near_far_split(f, columns)
        extended = mirror_extend(f)
        with workspace.walk(workspace.MIN_TILE if in_walk else 0):
            got = extended.fn(columns)
        assert got.tobytes() == want.tobytes()

    def test_mirror_extension_error_names_the_first_failing_point_in_c_order(self):
        extended = mirror_extend(field_from_expression("log(x1)", 2))
        # (1.5, 0) is far and folds to (-0.5, 1); (-0.5, 0) is near and fails as it is.
        columns = (np.array([[1.5], [-0.5]]), np.array([[0.0]]))
        with pytest.raises(EvalError, match="log of a non-positive value") as info:
            extended.fn(columns)
        assert info.value.point == (-0.5, 1.0)

    def test_mirror_extension_arity(self):
        with pytest.raises(DomainError, match="needs arity 2"):
            mirror_extend(field_from_expression("x1", 1))


class TestTriangle:
    P = (0.0, 0.0)
    Q = (1.0, 0.0)
    R = (0.0, 1.0)

    def test_constant(self):
        f = field_from_expression("1", 2)
        result = integrate_triangle_symmetric(f, self.P, self.Q, self.R, CHEAP_TRI)
        assert abs(result.value - 0.5) < 1e-10
        assert result.method == "triangle"
        assert result.symmetry is not None and result.symmetry.passed

    def test_linear_symmetric(self):
        f = field_from_expression("x1+x2", 2)
        result = integrate_triangle_symmetric(f, self.P, self.Q, self.R, CHEAP_TRI)
        assert abs(result.value - 1.0 / 3.0) < 1e-5

    def test_asymmetric_rejected(self):
        f = field_from_expression("x1", 2)
        with pytest.raises(SymmetryError, match="not symmetric along the segment QR") as info:
            integrate_triangle_symmetric(f, self.P, self.Q, self.R, CHEAP_TRI)
        assert not info.value.report.passed

    def test_degenerate_rejected(self):
        f = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="degenerate triangle"):
            integrate_triangle_symmetric(f, (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), CHEAP_TRI)

    def test_vertex_shape_validation(self):
        f = field_from_expression("1", 2)
        with pytest.raises(DomainError, match="three 2-d vertices"):
            integrate_triangle_symmetric(f, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), CHEAP_TRI)

    def test_translated_constant(self):
        f = field_from_expression("7", 2)
        result = integrate_triangle_symmetric(f, (1.0, 1.0), (3.0, 1.0), (1.0, 2.0), CHEAP_TRI)
        assert abs(result.value - 7.0) < 1e-9

    def test_half_of_parallelogram_integral_exactly(self):
        # x1 + 2*x2 is constant along QR; |det T| = 2.
        f = field_from_expression("x1+2*x2", 2)
        p, q, r = (1.0, 1.0), (3.0, 1.0), (1.0, 2.0)
        result = integrate_triangle_symmetric(f, p, q, r, CHEAP_TRI)
        folded = mirror_extend(pullback_field(f, p, [[2.0, 0.0], [0.0, 1.0]]))
        unit = integrate_box_from_f(folded, UNIT_SQUARE, CHEAP_TRI)
        assert result.value == 0.5 * (2.0 * unit.value)
        assert result.contributions == tuple((label, sign, 2.0 * F) for label, sign, F in unit.contributions)
        assert 2.0 * result.value == math.fsum(sign * F for _, sign, F in result.contributions)
        assert result.value == pytest.approx(13.0 / 3.0, rel=1e-5)  # area 1, centroid (5/3, 4/3)

    def test_custom_symmetry_controls(self):
        f = field_from_expression("x1+x2", 2)
        result = integrate_triangle_symmetric(
            f, self.P, self.Q, self.R, CHEAP_TRI, sym_tol=1e-6, sym_samples=5
        )
        assert result.symmetry.samples == 5
        assert result.symmetry.tol == 1e-6


class TestImpossibility:
    def test_frozen_counts(self):
        report = triangle_impossibility_check()
        assert isinstance(report, ImpossibilityReport)
        assert report.claim_holds
        assert report.target == (1, -1, -1, 1)
        assert report.target_orbit == ((-1, 1, 1, -1), (1, -1, -1, 1))
        assert len(report.searches) == 2
        by_diagonal = {s.diagonal: s for s in report.searches}
        assert set(by_diagonal) == {"00-11", "01-10"}
        assert by_diagonal["00-11"].triangles == (("00", "10", "11"), ("00", "11", "01"))
        assert by_diagonal["01-10"].triangles == (("00", "10", "01"), ("10", "11", "01"))
        for search in report.searches:
            assert search.assignments == 64
            assert search.target_matches == 0
            assert search.zero_vector_matches == 0
            assert search.shared_coefficient_values == (-2, 0, 2)
            assert search.cancelling_shared_patterns == 4

    def test_deterministic(self):
        assert triangle_impossibility_check() == triangle_impossibility_check()

    def test_fast(self):
        start = time.perf_counter()
        triangle_impossibility_check()
        assert time.perf_counter() - start < 1.0
