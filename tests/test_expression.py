import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxcalc.expression as ex
from boxcalc import (
    DomainError,
    EvalError,
    ParseError,
    evaluate,
    evaluate_batch,
    evaluate_grid,
    parse,
    poly_from_expr,
    to_text,
)
from boxcalc.expression import BinOp, Call, Const, Neg, Num, Var, num


GOLDEN = [
    ("2+3*4^2", 50.0),
    ("2^3^2", 512.0),
    ("-2^2", 4.0),
    ("2^-3", 0.125),
    ("2-3-4", -5.0),
    ("16/4/2", 2.0),
    ("(2+3)*4", 20.0),
    ("pow(2,10)", 1024.0),
    ("abs(0-3)", 3.0),
    ("sqrt(4)", 2.0),
    ("2*pi", 2 * math.pi),
    ("e^2", math.e**2),
    ("sin(0)", 0.0),
    ("cos(0)", 1.0),
    ("tan(0)", 0.0),
    ("log(e)", 1.0),
    ("exp(0)", 1.0),
    ("1.5e2", 150.0),
    ("--3", 3.0),
]


@pytest.mark.parametrize("source,expected", GOLDEN)
def test_golden_values(source, expected):
    node = parse(source, 0)
    assert evaluate(node, ()) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_variables_one_based():
    node = parse("x1 + 2*x2", 2)
    assert evaluate(node, (3.0, 4.0)) == 11.0


def test_power_binds_tighter_than_unary_on_exponent_side():
    # the base of ^ sits at the unary level: -2^2 is (-2)^2
    assert evaluate(parse("-2^2", 0), ()) == 4.0
    assert evaluate(parse("-(2^2)", 0), ()) == -4.0
    assert evaluate(parse("0-2^2", 0), ()) == -4.0


PARSE_ERRORS = [
    ("2+*3", 2, "unexpected token '*'"),
    ("(2+3", 4, "expected ')'"),
    ("sin", 0, "function 'sin' must be called with arguments"),
    ("sin()", 4, "unexpected token ')'"),
    ("pi(2)", 2, "'pi' is not a function"),
    ("x3", 0, "unknown variable 'x3' (2 variables declared)"),
    ("foo", 0, "unknown identifier 'foo'"),
    ("pow(2)", 0, "function 'pow' expects 2 arguments, got 1"),
    ("2+3)", 3, "unexpected token ')'"),
    (".5", 0, "unexpected character '.'"),
    ("2..5", 1, "unexpected character '.'"),
    ("x1 x2", 3, "unexpected token 'x2'"),
    ("", 0, "unexpected token 'end of input'"),
]


@pytest.mark.parametrize("source,offset,message", PARSE_ERRORS)
def test_parse_error_offsets(source, offset, message):
    with pytest.raises(ParseError) as info:
        parse(source, 2)
    assert info.value.offset == offset
    assert info.value.message == message
    assert f"(at offset {offset})" in str(info.value)


def test_number_literals_keep_their_spelling():
    node = parse("2.50", 0)
    assert isinstance(node, Num)
    assert node.text == "2.50"
    assert node.value == 2.5
    assert to_text(node) == "2.50"


def test_parse_rejects_negative_var_count():
    with pytest.raises(DomainError):
        parse("1", -1)


EVAL_ERRORS = [
    ("1/x1", (0.0,), "division by zero"),
    ("log(x1)", (0.0,), "log of a non-positive value"),
    ("log(0-x1)", (1.0,), "log of a non-positive value"),
    ("sqrt(x1-1)", (0.0,), "sqrt of a negative value"),
    ("(0-2)^x1", (0.5,), "negative base with a non-integer exponent"),
    ("exp(x1)", (1e6,), "overflow in exp"),
    ("pow(0-1,1/2)", (0.0,), "negative base with a non-integer exponent"),
]


@pytest.mark.parametrize("source,point,fragment", EVAL_ERRORS)
def test_eval_errors_are_loud(source, point, fragment):
    node = parse(source, 1)
    with pytest.raises(EvalError) as info:
        evaluate(node, point)
    assert fragment in str(info.value)
    assert "at point" in str(info.value)
    assert isinstance(info.value, DomainError)


def test_eval_error_in_batch_names_an_offending_point():
    node = parse("1/x1", 1)
    pts = np.array([[1.0], [2.0], [0.0], [4.0]])
    with pytest.raises(EvalError, match="division by zero"):
        evaluate_batch(node, pts)


def test_negative_base_integer_exponent_is_fine():
    assert evaluate(parse("(0-2)^3", 0), ()) == -8.0
    assert evaluate(parse("pow(0-2,2)", 0), ()) == 4.0


def test_batch_matches_scalar_bitwise():
    node = parse("sin(x1)*cos(x2)+x1^3/(1+abs(x2))", 2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(50, 2))
    batch = evaluate_batch(node, pts)
    for row, value in zip(pts, batch):
        assert evaluate(node, tuple(row)) == value


def test_batch_rejects_non_2d_input():
    node = parse("x1", 1)
    with pytest.raises(DomainError, match="2-d"):
        evaluate_batch(node, np.zeros(3))


def _exprs(n_vars=3):
    """Trees over x1..x{n_vars} using every operator and function, with literal exponents."""
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: num(float(v))),
        st.just(num(0.5)),
        st.sampled_from(["pi", "e"]).map(Const),
        st.integers(min_value=1, max_value=n_vars).map(Var),
    )
    exponents = st.one_of(st.sampled_from([2.0, 3.0, 0.5]).map(num), st.just(Neg(num(1.0))))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            st.tuples(children, exponents).map(lambda t: BinOp("^", t[0], t[1])),
            children.map(Neg),
            st.tuples(
                st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]), children
            ).map(lambda t: Call(t[0], (t[1],))),
            st.tuples(children, children).map(lambda t: Call("pow", (t[0], t[1]))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_to_text_roundtrips(node):
    assert parse(to_text(node), 3) == node


def test_to_text_parenthesizes_only_when_needed():
    assert to_text(parse("2+3*4", 0)) == "2+3*4"
    assert to_text(parse("(2+3)*4", 0)) == "(2+3)*4"
    assert to_text(parse("2^(3^2)", 0)) == "2^3^2"
    assert to_text(parse("(2^3)^2", 0)) == "(2^3)^2"
    assert to_text(parse("-(2^2)", 0)) == "-(2^2)"
    assert to_text(parse("x1-(x2-x1)", 2)) == "x1-(x2-x1)"


def test_determinism():
    a = parse("sin(x1)+2^x2", 2)
    b = parse("sin(x1)+2^x2", 2)
    assert a == b
    pts = np.array([[0.3, 1.7]])
    assert evaluate_batch(a, pts)[0] == evaluate_batch(b, pts)[0]


def _outcome(evaluate_fn):
    """Values as raw bytes, or the EvalError's message, sub-expression and point."""
    try:
        return np.ravel(evaluate_fn()).tobytes()
    except EvalError as err:
        return (err.message, to_text(err.node), err.point)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grid_matches_batch_on_the_materialised_points(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    node = data.draw(_exprs(n), label="node")
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    axes = [
        np.array(data.draw(st.lists(coordinate, min_size=1, max_size=4), label=f"x{j + 1}"))
        for j in range(n)
    ]
    columns = np.ix_(*axes)
    if data.draw(st.booleans(), label="trim"):
        # Leading size-1 axes are implied by broadcasting: x{j+1} spans j fewer axes.
        columns = [c.reshape(c.shape[j:]) for j, c in enumerate(columns)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    assert _outcome(lambda: evaluate_grid(node, columns)) == _outcome(
        lambda: evaluate_batch(node, points)
    )


def test_grid_result_has_the_broadcast_shape():
    columns = np.ix_([0.5, 1.0, 2.0], [1.0, 3.0])
    assert evaluate_grid(parse("x1", 2), columns).shape == (3, 2)
    got = evaluate_grid(parse("2+pi", 2), columns)
    assert got.shape == (3, 2) and np.all(got == 2 + math.pi)
    assert evaluate_grid(parse("x1*x2", 2), columns).tolist() == [[0.5, 1.5], [1.0, 3.0], [2.0, 6.0]]


@pytest.mark.parametrize("exponent, text", [(2.0, "2"), (0.5, "0.5"), (-1.0, "-1")])
def test_powers_round_like_pow_at_every_shape(exponent, text):
    # numpy squares, roots or inverts a base under a scalar or broadcast
    # exponent of 2, 0.5 or -1.  Where its pow is not correctly rounded (with
    # AVX-512, about 5% of these values), the two differ in the last bit.
    xs = np.random.default_rng(5).uniform(0.0, 3.0, 1000)
    want = np.power(xs, np.full(xs.shape, exponent)).tolist()
    node = parse(f"x2^{text}", 2)
    assert evaluate_grid(node, (np.zeros((1, 1)), xs.reshape(1, -1))).ravel().tolist() == want
    assert [evaluate(node, (0.0, x)) for x in xs[:200]] == want[:200]
    assert [evaluate(parse(f"{float(x)!r}^{text}", 0), ()) for x in xs[:200]] == want[:200]


def test_zero_rows_evaluate_nothing():
    node = parse("exp(1000)+x1", 1)
    assert evaluate_batch(node, np.zeros((0, 1))).shape == (0,)
    assert evaluate_grid(node, (np.zeros((0, 1)),)).shape == (0, 1)
    assert evaluate_grid(parse("1/0*x2", 2), np.ix_([1.0, 2.0], [])).shape == (2, 0)
    with pytest.raises(EvalError, match="point has no coordinate x2"):
        evaluate_batch(parse("x1+x2", 2), np.zeros((0, 1)))


def test_overflow_raises_without_a_warning():
    node = parse("exp(400*x1)*exp(400*x2)", 2)
    with pytest.raises(EvalError, match="non-finite result") as info:
        evaluate_batch(node, np.array([[0.5, 0.5], [1.0, 1.0]]))
    assert info.value.point == (1.0, 1.0)


def _deep(kind, levels):
    """Source text nested `levels` deep in one way."""
    return {
        "sum": "+".join(["x1"] * levels),
        "parens": "(" * (levels - 1) + "x1" + ")" * (levels - 1),
        "minus": "-" * (levels - 1) + "x1",
        "calls": "sin(" * (levels - 1) + "x1" + ")" * (levels - 1),
        "powers": "^".join(["x1"] * levels),
    }[kind]


DEPTH_KINDS = ["sum", "parens", "minus", "calls", "powers"]


@pytest.mark.parametrize("kind", DEPTH_KINDS)
def test_text_at_the_depth_bound_parses_evaluates_and_prints(kind):
    node = parse(_deep(kind, ex.MAX_DEPTH), 1)
    assert parse(to_text(node), 1) == node
    assert np.isfinite(evaluate_batch(node, np.array([[0.5]]))).all()
    assert ex.max_var_index(node) == 1
    if kind in ("sum", "parens", "minus"):
        assert poly_from_expr(node, 1).arity == 1


# The offset is that of the token where the bound is crossed: the last
# operator of a flat sum, else the innermost opening one.
@pytest.mark.parametrize(
    "kind, offset",
    [
        ("sum", 3 * ex.MAX_DEPTH - 1),
        ("parens", ex.MAX_DEPTH - 1),
        ("minus", ex.MAX_DEPTH - 1),
        ("calls", 4 * ex.MAX_DEPTH - 1),
        ("powers", 3 * ex.MAX_DEPTH - 1),
    ],
)
def test_text_one_level_deeper_is_a_parse_error_where_it_crosses(kind, offset):
    with pytest.raises(ParseError) as info:
        parse(_deep(kind, ex.MAX_DEPTH + 1), 1)
    assert info.value.message == f"expression nests deeper than {ex.MAX_DEPTH} levels"
    assert info.value.offset == offset


def test_groups_do_not_add_tree_levels():
    # 100 terms in 50 nested groups: the text is 51 levels deep at its
    # innermost term, and the left-deep tree is 100, right at the bound.
    text = "(" * 50 + "x1" + "".join(f"+x1)" for _ in range(50)) + "+x1" * 49
    node = parse(text, 1)
    assert evaluate(node, (1.0,)) == 100.0
