import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcalc import (
    BudgetExceededError,
    DomainError,
    Hypercuboid,
    NonPolynomialError,
    Polynomial,
    monomial_product_integral,
    parse,
    poly_antiderivative,
    poly_box_integral,
    poly_eval,
    poly_from_expr,
    poly_mixed_partial,
    poly_vertex_sum,
    vertex_sum_integral,
)
from boxcalc import polycalc
from helpers import random_polynomial, random_rational_box


def P(source, arity=None):
    return poly_from_expr(parse(source, 9), arity)


class TestConstruction:
    def test_zero_coefficients_are_pruned(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_zero_polynomial(self):
        assert Polynomial(3, {}).is_zero()
        assert Polynomial.constant(3, 0).is_zero()

    def test_exponent_tuple_must_match_arity(self):
        with pytest.raises(DomainError, match="does not match arity"):
            Polynomial(2, {(1,): Fraction(1)})

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError, match="negative exponent"):
            Polynomial(1, {(-1,): Fraction(1)})

    def test_variable_bounds(self):
        assert Polynomial.variable(3, 2).terms == {(0, 1, 0): Fraction(1)}
        with pytest.raises(DomainError):
            Polynomial.variable(2, 3)
        with pytest.raises(DomainError):
            Polynomial.variable(2, 0)

    def test_constant_value(self):
        assert Polynomial.constant(2, Fraction(3, 4)).constant_value() == Fraction(3, 4)
        assert Polynomial(2, {}).constant_value() == 0
        with pytest.raises(DomainError):
            Polynomial.variable(2, 1).constant_value()


class TestArithmetic:
    def test_add_collects_terms(self):
        x = Polynomial.variable(1, 1)
        assert (x + x).terms == {(1,): Fraction(2)}
        assert (x - x).is_zero()

    def test_scalar_coercion(self):
        x = Polynomial.variable(1, 1)
        assert (1 + x).terms == {(0,): Fraction(1), (1,): Fraction(1)}
        assert (x * Fraction(1, 2)).terms == {(1,): Fraction(1, 2)}

    def test_mul(self):
        x1 = Polynomial.variable(2, 1)
        x2 = Polynomial.variable(2, 2)
        p = (x1 + x2) * (x1 - x2)
        assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}

    def test_pow(self):
        x = Polynomial.variable(1, 1)
        assert ((x + 1) ** 2).terms == {(2,): 1, (1,): 2, (0,): 1}
        assert (x**0).terms == {(0,): 1}
        with pytest.raises(DomainError):
            x ** (-1)
        with pytest.raises(DomainError):
            x ** Fraction(1, 2)

    def test_arity_mismatch(self):
        with pytest.raises(DomainError, match="arity mismatch"):
            Polynomial.variable(1, 1) + Polynomial.variable(2, 1)

    def test_str_canonical(self):
        p = Polynomial(2, {(2, 1): Fraction(1), (0, 0): Fraction(-3)})
        assert str(p) == "x1^2*x2 - 3"
        assert str(Polynomial(2, {})) == "0"
        assert str(Polynomial(1, {(1,): Fraction(-1)})) == "-x1"
        assert str(Polynomial(1, {(1,): Fraction(2, 3)})) == "2/3*x1"


class TestFromExpression:
    def test_basic(self):
        p = P("x1^2*x2 - 3", 2)
        assert p.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-3)}

    def test_decimal_literals_are_exact(self):
        p = P("0.1*x1", 1)
        assert p.terms == {(1,): Fraction(1, 10)}

    def test_division_by_constant(self):
        assert P("x1/3", 1).terms == {(1,): Fraction(1, 3)}
        assert P("x1/0.5", 1).terms == {(1,): Fraction(2)}

    def test_expansion(self):
        p = P("(x1+x2)^2", 2)
        assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_pow_function(self):
        assert P("pow(x1,3)", 1).terms == {(3,): Fraction(1)}

    def test_arity_inferred_from_variables(self):
        assert P("x2").arity == 2
        assert P("5").arity == 0

    def test_explicit_arity_too_small(self):
        with pytest.raises(DomainError, match="uses x2 but arity is 1"):
            P("x2", 1)

    @pytest.mark.parametrize(
        "source,fragment",
        [
            ("sin(x1)", "'sin' is not polynomial"),
            ("pi", "'pi' is not rational"),
            ("x1/x2", "non-constant"),
            ("x1/0", "division by zero"),
            ("x1^(1/2)", "fractional exponent"),
            ("pow(x1,0-2)", "negative exponent"),
            ("2^x1", "must be a constant"),
        ],
    )
    def test_non_polynomial_rejected(self, source, fragment):
        with pytest.raises(NonPolynomialError, match=fragment):
            P(source, 2)


class TestEval:
    def test_exact_rational_point(self):
        p = P("x1^2*x2", 2)
        assert poly_eval(p, (Fraction(1, 3), Fraction(3, 5))) == Fraction(1, 15)

    def test_point_length_check(self):
        with pytest.raises(DomainError):
            poly_eval(P("x1", 1), (1, 2))


class TestCalculus:
    def test_antiderivative_1d(self):
        F = poly_antiderivative(P("x1^2", 1), (1,))
        # (x^3 - 1)/3
        assert F.terms == {(3,): Fraction(1, 3), (0,): Fraction(-1, 3)}

    def test_antiderivative_vanishes_on_corner_planes(self):
        rng = random.Random(11)
        for _ in range(20):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity)
            corner = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(arity))
            F = poly_antiderivative(p, corner)
            for j in range(arity):
                point = tuple(
                    corner[j] if k == j else Fraction(rng.randint(-5, 5), 3)
                    for k in range(arity)
                )
                assert poly_eval(F, point) == 0

    def test_mixed_partial_of_constant_is_zero(self):
        assert poly_mixed_partial(Polynomial.constant(2, 7)).is_zero()

    def test_corner_length_check(self):
        with pytest.raises(DomainError):
            poly_antiderivative(P("x1", 1), (0, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mixed_partial_inverts_antiderivative(self, rng):
        arity = rng.randint(1, 3)
        p = random_polynomial(rng, arity)
        corner = tuple(Fraction(rng.randint(-2, 2)) for _ in range(arity))
        assert poly_mixed_partial(poly_antiderivative(p, corner)) == p


class TestBoxIntegrals:
    def test_vertex_sum_golden(self):
        # x1*x2 over vertices of [0,1]^2: 1*1 - 1*0 - 0*1 + 0*0 = 1
        p = P("x1*x2", 2)
        assert poly_vertex_sum(p, ((0, 0), (1, 1))) == 1

    def test_unit_square_product(self):
        assert poly_box_integral(P("x1*x2", 2), ((0, 0), (1, 1))) == Fraction(1, 4)

    def test_1d_is_endpoint_difference(self):
        p = P("x1^3 - x1", 1)
        box = Hypercuboid((Fraction(-1, 2),), (Fraction(5, 4),))
        F = poly_antiderivative(p, (Fraction(-1, 2),))
        expected = poly_eval(F, (Fraction(5, 4),)) - poly_eval(F, (Fraction(-1, 2),))
        assert poly_box_integral(p, box) == expected

    def test_degenerate_box_integrates_to_zero(self):
        p = P("x1*x2^2 + 3", 2)
        assert poly_box_integral(p, ((0, 2), (1, 2))) == 0

    def test_accepts_hypercuboid_and_bound_pair(self):
        p = P("x1^2", 1)
        box = Hypercuboid((Fraction(1, 2),), (Fraction(3, 2),))
        assert poly_box_integral(p, box) == poly_box_integral(p, ((Fraction(1, 2),), (Fraction(3, 2),)))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(DomainError, match="axis 1"):
            poly_box_integral(P("x1", 1), ((1,), (0,)))

    def test_box_arity_mismatch(self):
        with pytest.raises(DomainError, match="axes"):
            poly_box_integral(P("x1", 1), ((0, 0), (1, 1)))

    def test_routes_agree_on_random_cases(self):
        rng = random.Random(23)
        for _ in range(80):
            arity = rng.randint(1, 4)
            p = random_polynomial(rng, arity, max_degree=3)
            box = random_rational_box(rng, arity)
            lhs = vertex_sum_integral(p, box)
            rhs = monomial_product_integral(p, box)
            assert lhs == rhs
            assert isinstance(lhs, Fraction)
            assert poly_box_integral(p, box) == lhs


class TestBudget:
    def test_a_power_above_the_degree_budget_is_refused(self):
        x = Polynomial.variable(1, 1)
        assert (x**polycalc.MAX_DEGREE).terms == {(polycalc.MAX_DEGREE,): 1}
        for base in (x, Polynomial.constant(1, 2)):
            with pytest.raises(BudgetExceededError, match="a power's exponent exceeds the degree budget 1000"):
                base ** (polycalc.MAX_DEGREE + 1)

    def test_a_power_whose_degree_exceeds_the_budget_is_refused(self):
        square = Polynomial.variable(2, 2) ** 2
        with pytest.raises(BudgetExceededError, match="degree 1002 in x2 exceeds the degree budget 1000"):
            square**501

    def test_a_product_whose_degree_exceeds_the_budget_is_refused(self):
        x = Polynomial.variable(1, 1) ** 600
        with pytest.raises(BudgetExceededError, match="degree 1200 in x1 exceeds the degree budget 1000"):
            x * x

    def test_a_product_of_too_many_term_pairs_is_refused(self):
        p = Polynomial(2, {(i, 0): Fraction(1) for i in range(400)})
        q = Polynomial(2, {(0, j): Fraction(1) for j in range(300)})
        with pytest.raises(BudgetExceededError, match="^120000 coefficient products exceed the budget 100000$"):
            p * q

    def test_a_power_counts_the_products_of_all_its_multiplications(self):
        # (x1+x2+x3)^i has comb(i+2, 2) terms, each multiplied by 3 terms.
        p = P("x1+x2+x3", 3)
        with pytest.raises(BudgetExceededError) as info:
            p**58
        assert str(info.value) == f"{3 * math.comb(60, 3)} coefficient products exceed the budget 100000"
        assert 3 * math.comb(59, 3) <= polycalc.MAX_PRODUCTS

    @pytest.mark.parametrize(
        "source, arity",
        [("x1^100000000", 1), ("x1^2^2^2^2^2", 1), ("(x1+x2+x3+x4)^60", 4), ("x1^20000", 1)],
    )
    def test_expressions_beyond_the_budget_are_refused_at_once(self, source, arity):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            poly_from_expr(parse(source, arity), arity)
        assert time.perf_counter() - start < 0.1
