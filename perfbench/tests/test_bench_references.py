"""Each reference agrees with boxcalc's exact polynomials or with a dense rule on small instances."""

import math
from fractions import Fraction

import pytest

import boxcalc
import workloads
from boxcalc import Hypercuboid, QuadratureConfig, field_from_expression, gauss_legendre_box

DENSE = QuadratureConfig(nodes=24, panels=1)


def _opts(argv):
    return dict(a[2:].split("=", 1) for a in argv if a.startswith("--") and "=" in a)


def _box(text):
    lower, upper = zip(*(part.split(":") for part in text.split(",")))
    return Hypercuboid(tuple(Fraction(a) for a in lower), tuple(Fraction(b) for b in upper))


def _vector(text):
    return tuple(float(Fraction(c)) for c in text.split(","))


def _rel(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def _requests(workload, kind, seeds=(1, 2)):
    return [r for seed in seeds for r in workloads.build(workload, seed, 0) if r.kind == kind]


def test_exact_references_match_polycalc():
    requests = _requests("small-requests", "integrate-exact")
    assert requests
    for r in requests:
        o = _opts(r.argv)
        box = _box(o["box"])
        poly = boxcalc.poly_from_expr(boxcalc.parse(o["f"], box.dim), box.dim)
        assert boxcalc.poly_box_integral(poly, box) == Fraction(r.ref)


def test_separable_box_references_match_a_dense_rule():
    requests = _requests("dense-cubature", "integrate-f")
    assert requests
    for r in requests:
        o = _opts(r.argv)
        box = _box(o["box"])
        value = gauss_legendre_box(field_from_expression(o["f"], box.dim), box, DENSE)
        assert _rel(value, r.ref) < 1e-13


@pytest.mark.parametrize("kind", ["integrate-F", "subdivide"])
def test_antiderivative_references_match_the_vertex_sum(kind):
    requests = _requests("small-requests", kind)
    assert requests
    for r in requests:
        o = _opts(r.argv)
        box = _box(o["box"])
        value = boxcalc.integrate_box(field_from_expression(o["F"], box.dim), box).value
        assert _rel(value, r.ref) < 1e-13


def test_parallelotope_references_match_a_dense_rule():
    requests = _requests("dense-cubature", "parallelotope")
    assert requests
    for r in requests:
        o = _opts(r.argv)
        origin = _vector(o["origin"])
        columns = [_vector(c) for c in o["edges"].split(";")]
        p = boxcalc.Parallelotope.from_edge_vectors(origin, columns)
        value = boxcalc.integrate_parallelotope(field_from_expression(o["f"], len(origin)), p, DENSE).value
        assert _rel(value, r.ref) < 1e-12


def test_duffy_rule_is_exact_on_polynomials():
    p, q, r = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    assert workloads.duffy_triangle(lambda x, y: 1.0 + 0.0 * x, p, q, r) == pytest.approx(0.5, abs=1e-15)
    assert workloads.duffy_triangle(lambda x, y: x + y, p, q, r) == pytest.approx(1 / 3, abs=1e-15)
    # x^2 y^3 over the reference triangle: 2! 3! / 7! = 1/420
    assert workloads.duffy_triangle(lambda x, y: x**2 * y**3, p, q, r) == pytest.approx(1 / 420, abs=1e-15)


def test_triangle_reference_matches_boxcalc_at_a_coarser_rule():
    (request,) = workloads.build("triangle-default", 4, 0)
    o = _opts(request.argv)
    f = field_from_expression(o["f"], 2)
    # 32 x 24 points per axis: the mirror seam leaves an error near 2e-7.
    coarse = boxcalc.integrate_triangle_symmetric(
        f, _vector(o["p"]), _vector(o["q"]), _vector(o["r"]), QuadratureConfig(nodes=32, panels=24)
    )
    assert _rel(coarse.value, request.ref) < 1e-6


def test_triangle_reference_has_converged():
    (request,) = workloads.build("triangle-default", 4, 0)
    o = _opts(request.argv)
    f = field_from_expression(o["f"], 2)

    def fn(x, y):
        points = [[a, b] for a, b in zip(x.ravel(), y.ravel())]
        return f.evaluate(points).reshape(x.shape)

    p, q, r = _vector(o["p"]), _vector(o["q"]), _vector(o["r"])
    finer = workloads.duffy_triangle(fn, p, q, r, nodes=40)
    assert math.isclose(finer, request.ref, rel_tol=0, abs_tol=1e-14)
