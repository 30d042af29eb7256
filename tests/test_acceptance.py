"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Each check re-derives its expected values from independent
routes (exact rational arithmetic, direct quadrature, Monte Carlo) rather
than from the code under test.
"""

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from boxcalc import (
    Hypercuboid,
    Parallelotope,
    QuadratureConfig,
    SymmetryError,
    VertexLabel,
    builtin_field,
    check_antiderivative,
    compositionality_check,
    evaluate,
    field_from_expression,
    field_from_polynomial,
    gauge_add,
    gauss_legendre_box,
    integrate_box,
    integrate_box_from_f,
    integrate_parallelotope,
    integrate_triangle_symmetric,
    monomial_product_integral,
    monte_carlo_affine,
    numeric_antiderivative,
    parse,
    poly_antiderivative,
    pullback_field,
    vertex_sign,
    vertex_sum_integral,
)
from helpers import random_polynomial, random_rational_box, rel_err

try:
    from boxcalc import ParseError
except ImportError:  # pragma: no cover
    from boxcalc.expression import ParseError


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d}: FAIL {description}")
                raise
            print(f"criterion {number:02d}: PASS {description}")

        return run

    return wrap


@criterion(1, "exact vertex-sum and product routes agree on 200 random polynomials")
def test_01_exact_dual_route_agreement():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        arity = rng.randint(1, 3)
        p = random_polynomial(rng, arity, max_degree=4)
        box = random_rational_box(rng, arity)
        assert vertex_sum_integral(p, box) == monomial_product_integral(p, box)
    assert time.perf_counter() - start < 5.0


@criterion(2, "numeric antiderivative route matches direct quadrature on 20 random boxes")
def test_02_numeric_route_matches_direct_quadrature():
    start = time.perf_counter()
    rng = random.Random(202)
    quad = QuadratureConfig(nodes=12, panels=4)
    integrands = {
        1: ["1"],
        2: ["1", "x1*x2", "sin(x1)*cos(x2)", "exp(x1+x2)"],
        3: ["1", "x1*x2", "sin(x1)*cos(x2)", "exp(x1+x2)"],
    }
    dims = [1] * 6 + [2] * 7 + [3] * 7
    for dim in dims:
        lower = tuple(rng.uniform(-1.0, 0.5) for _ in range(dim))
        upper = tuple(a + rng.uniform(0.2, 1.2) for a in lower)
        box = Hypercuboid(lower, upper)
        for source in integrands[dim]:
            f = field_from_expression(source, dim)
            got = integrate_box_from_f(f, box, quad).value
            want = gauss_legendre_box(f, box, quad)
            assert rel_err(got, want) <= 1e-8
    assert time.perf_counter() - start < 30.0


@criterion(3, "derivative checker confirms numeric antiderivatives of the stock fields")
def test_03_checker_confirms_numeric_antiderivatives():
    names = ("one", "coordinate_product", "trig_product", "exp_sum", "shifted_quadratic")
    quad = QuadratureConfig(nodes=12, panels=1)
    boxes = {
        1: Hypercuboid((0.2,), (1.7,)),
        2: Hypercuboid((0.1, -0.5), (1.2, 0.8)),
        3: Hypercuboid((0.0, 0.3, -0.4), (0.9, 1.1, 0.5)),
    }
    for dim, box in boxes.items():
        for name in names:
            f = builtin_field(name, dim)
            F = numeric_antiderivative(f, box.lower, quad)
            report = check_antiderivative(f, F, box)
            assert report.passed, f"{name} at dim {dim}: {report}"
            assert report.tol == 1e-4
            assert report.grid_points == 5
    # negative control: a wrong candidate is flagged
    f = field_from_expression("x1*x2", 2)
    wrong = field_from_expression("x1^2*x2", 2)
    assert not check_antiderivative(f, wrong, boxes[2]).passed


@criterion(4, "gauge terms constant along some axis never move the integral")
def test_04_gauge_terms_leave_integrals_unchanged():
    rng = random.Random(404)
    checked = 0
    while checked < 100:
        arity = rng.randint(1, 3)
        axes = sorted(rng.sample(range(1, arity + 1), rng.randint(1, arity)))
        box = random_rational_box(rng, arity)
        p = random_polynomial(rng, arity, max_degree=3)
        F = field_from_polynomial(poly_antiderivative(p, box.lower))
        # gauge term built only from coordinates off the declared axes
        free = [j for j in range(1, arity + 1) if j not in axes]
        if free:
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(
                    rng.randint(0, 3) if j in free else 0 for j in range(1, arity + 1)
                )
                terms[exps] = Fraction(rng.randint(-5, 5))
            C = field_from_polynomial(type(p)(arity, terms))
        else:
            C = field_from_expression(str(rng.randint(-9, 9)), arity)
        shifted = gauge_add(F, C, axes, domain=box)
        base = integrate_box(F, box).value
        moved = integrate_box(shifted, box).value
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))
        checked += 1


@criterion(5, "whole-box vertex sums equal the sums over grid subdivisions")
def test_05_subdivision_sums_match():
    rng = random.Random(505)
    fields = [
        field_from_expression("exp(x1)", 1),
        field_from_expression("sin(x1)*exp(x2)", 2),
        field_from_expression("x1^2*x2*x3", 3),
    ]
    for _ in range(20):
        arity = rng.randint(1, 3)
        if rng.random() < 0.5:
            F = field_from_polynomial(random_polynomial(rng, arity, max_degree=3))
        else:
            F = fields[arity - 1]
        box = random_rational_box(rng, arity)
        cuts = []
        for a, b in zip(box.lower, box.upper):
            k = rng.randint(0, 3)
            cuts.append([a + (b - a) * Fraction(i, k + 1) for i in range(1, k + 1)])
        report = compositionality_check(F, box, cuts)
        assert report.abs_diff <= 1e-10 * max(1.0, abs(report.lhs))


@criterion(6, "boxes with a collapsed axis integrate to exactly 0.0")
def test_06_collapsed_axes_give_exact_zero():
    f = field_from_expression("exp(x1+x2)", 2)
    F = field_from_expression("x1^2*x2^2/4", 2)
    boxes = [
        Hypercuboid((0.0, 1.5), (2.0, 1.5)),
        Hypercuboid((0.7, -1.0), (0.7, 1.0)),
        Hypercuboid((0.3, 0.3), (0.3, 0.3)),
    ]
    for box in boxes:
        assert integrate_box(F, box).value == 0.0
        assert integrate_box_from_f(f, box).value == 0.0
        assert gauss_legendre_box(f, box) == 0.0


@criterion(7, "sheared parallelogram agrees with quadrature and Monte Carlo oracles")
def test_07_parallelogram_against_oracles():
    p = Parallelotope.from_edge_vectors((0.0, 0.0), ((2.0, 0.0), (1.0, 1.0)))
    one = field_from_expression("1", 2)
    assert abs(integrate_parallelotope(one, p).value - 2.0) <= 1e-10

    fx = field_from_expression("x1", 2)
    result = integrate_parallelotope(fx, p)
    pulled = pullback_field(fx, p.origin, p.matrix)
    unit = Hypercuboid((0.0, 0.0), (1.0, 1.0))
    oracle = abs(p.det) * gauss_legendre_box(pulled, unit)
    assert rel_err(result.value, oracle) <= 1e-8

    mc = monte_carlo_affine(fx, p.origin, p.matrix, 10**6, 42)
    assert abs(result.value - mc.estimate) <= 4 * mc.stderr

    # The value is the exact signed sum of the contributions, in any order.
    terms = [sign * F for _, sign, F in result.contributions]
    rng = random.Random(707)
    for _ in range(10):
        rng.shuffle(terms)
        assert math.fsum(terms) == result.value


@criterion(8, "reference right triangle: constant and symmetric-linear integrands")
def test_08_reference_triangle_values():
    P, Q, R = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    one = integrate_triangle_symmetric(field_from_expression("1", 2), P, Q, R)
    assert abs(one.value - 0.5) <= 1e-8
    lin = integrate_triangle_symmetric(field_from_expression("x1+x2", 2), P, Q, R)
    assert abs(lin.value - 1.0 / 3.0) <= 1e-8
    with pytest.raises(SymmetryError):
        integrate_triangle_symmetric(field_from_expression("x1", 2), P, Q, R)


@criterion(9, "no two-triangle sign assignment reproduces the box vertex pattern")
def test_09_triangle_sign_search_finds_nothing():
    from boxcalc import triangle_impossibility_check

    start = time.perf_counter()
    report = triangle_impossibility_check()
    elapsed = time.perf_counter() - start
    assert report.claim_holds
    assert len(report.searches) == 2
    for search in report.searches:
        assert search.assignments == 64
        assert search.target_matches == 0
        assert set(search.shared_coefficient_values) <= {-2, 0, 2}
    assert elapsed < 1.0


@criterion(10, "vertex signs balance to zero in every dimension 1..10")
def test_10_vertex_signs_balance():
    for n in range(1, 11):
        labels = [VertexLabel.from_index(i, n) for i in range(2**n)]
        assert len(labels) == 2**n
        assert sum(vertex_sign(label) for label in labels) == 0


@criterion(11, "quadrature is 1e-12-exact on polynomials; Monte Carlo covers at 3 sigma")
def test_11_oracle_accuracy_and_coverage():
    rng = random.Random(1111)
    for _ in range(30):
        arity = rng.randint(1, 3)
        p = random_polynomial(rng, arity, max_degree=4)
        box = random_rational_box(rng, arity)
        got = gauss_legendre_box(field_from_polynomial(p), box)
        want = float(monomial_product_integral(p, box))
        assert rel_err(got, want) <= 1e-12

    fx = field_from_expression("x1", 2)
    inside = 0
    for seed in range(32):
        est = monte_carlo_affine(fx, (0.0, 0.0), np.eye(2), 20000, seed)
        if abs(est.estimate - 0.5) <= 3 * est.stderr:
            inside += 1
    assert inside >= 29


@criterion(12, "expression parser: precedence goldens, error offsets, determinism")
def test_12_parser_goldens():
    assert evaluate(parse("2+3*4^2", 0), ()) == 50.0
    assert evaluate(parse("2^3^2", 0), ()) == 512.0
    with pytest.raises(ParseError) as info:
        parse("2+*3", 0)
    assert info.value.offset == 2
    with pytest.raises(ParseError) as info:
        parse("(2+3", 0)
    assert info.value.offset == 4
    node = parse("sin(x1)+2^x2", 2)
    assert node == parse("sin(x1)+2^x2", 2)
    pt = (0.3, 1.7)
    assert evaluate(node, pt) == evaluate(parse("sin(x1)+2^x2", 2), pt)
