import math
import random
from fractions import Fraction

import numpy as np
import pytest

from boxcalc import (
    DomainError,
    Hypercuboid,
    Parallelotope,
    VertexLabel,
    checked_determinant,
    count_zeros,
    subdivide_grid,
    vertex_sign,
    vertices_lex,
)


def test_label_roundtrip_and_bit_order():
    # bit 1 is the most significant digit of the index
    assert VertexLabel.from_index(0, 2).bits == (0, 0)
    assert VertexLabel.from_index(1, 2).bits == (0, 1)
    assert VertexLabel.from_index(2, 2).bits == (1, 0)
    assert VertexLabel.from_index(3, 2).bits == (1, 1)
    for n in (1, 2, 3, 5):
        for i in range(2**n):
            assert VertexLabel.from_index(i, n).as_index() == i


def test_label_validation():
    with pytest.raises(DomainError):
        VertexLabel((0, 2))
    with pytest.raises(DomainError):
        VertexLabel(())
    with pytest.raises(DomainError):
        VertexLabel.from_index(4, 2)
    with pytest.raises(DomainError):
        VertexLabel.from_index(0, 0)


def test_label_str_and_sequence_protocol():
    label = VertexLabel((1, 0, 1))
    assert str(label) == "101"
    assert len(label) == 3
    assert list(label) == [1, 0, 1]
    assert label[1] == 0
    assert label.dim == 3


def test_signs_and_zero_counts():
    assert count_zeros(VertexLabel((0, 0))) == 2
    assert vertex_sign(VertexLabel((0, 0))) == 1
    assert vertex_sign(VertexLabel((0, 1))) == -1
    assert vertex_sign(VertexLabel((1, 0))) == -1
    assert vertex_sign(VertexLabel((1, 1))) == 1
    assert vertex_sign((1, 0, 0)) == 1


def test_sign_balance_all_dims():
    # equal numbers of plus and minus vertices in every dimension
    for n in range(1, 11):
        total = sum(vertex_sign(VertexLabel.from_index(i, n)) for i in range(2**n))
        assert total == 0


def test_hypercuboid_basic():
    box = Hypercuboid((0, -1), (2, 3))
    assert box.dim == 2
    assert box.extents() == (2, 4)
    assert box.volume() == 8
    assert not box.is_degenerate()
    assert box.vertex_point(VertexLabel((1, 0))) == (2, -1)


def test_hypercuboid_keeps_exact_bounds():
    box = Hypercuboid((Fraction(1, 3),), (Fraction(2, 3),))
    assert box.extents() == (Fraction(1, 3),)
    assert isinstance(box.volume(), Fraction)


def test_hypercuboid_validation():
    with pytest.raises(DomainError, match="axis 2: lower bound 3 exceeds upper bound 1"):
        Hypercuboid((0, 3), (1, 1))
    with pytest.raises(DomainError):
        Hypercuboid((0,), (1, 2))
    with pytest.raises(DomainError):
        Hypercuboid((), ())


@pytest.mark.parametrize(
    "lower, upper",
    [((0.0, 0.0), (1.0, math.nan)), ((0.0, math.nan), (1.0, 1.0)), ((0.0, math.nan), (1.0, math.nan))],
    ids=["upper", "lower", "both"],
)
def test_hypercuboid_refuses_nan_bounds(lower, upper):
    with pytest.raises(DomainError, match=r"^axis 2: lower bound \S+ is not ordered against upper bound \S+$"):
        Hypercuboid(lower, upper)


def test_hypercuboid_orders_fraction_bounds_exactly():
    # The float nearest 1/3 lies just below it.
    assert Hypercuboid((1 / 3,), (Fraction(1, 3),)).upper == (Fraction(1, 3),)
    with pytest.raises(DomainError, match="axis 1: lower bound 1/3 exceeds upper bound 0.333"):
        Hypercuboid((Fraction(1, 3),), (1 / 3,))


def test_degenerate_axis_allowed():
    box = Hypercuboid((0, 1), (1, 1))
    assert box.is_degenerate()
    assert box.volume() == 0


def test_vertices_lex_order():
    box = Hypercuboid((0, 0), (1, 2))
    got = vertices_lex(box)
    assert [str(label) for label, _ in got] == ["00", "01", "10", "11"]
    assert [point for _, point in got] == [(0, 0), (0, 2), (1, 0), (1, 2)]


def test_subdivide_grid_structure():
    box = Hypercuboid((0, 0), (4, 2))
    parts = subdivide_grid(box, [[1, 3], [1]])
    assert len(parts) == 6
    assert sum(p.volume() for p in parts) == box.volume()
    # axis 1 varies slowest
    assert parts[0].lower == (0, 0) and parts[0].upper == (1, 1)
    assert parts[1].lower == (0, 1) and parts[1].upper == (1, 2)
    assert parts[-1].lower == (3, 1) and parts[-1].upper == (4, 2)


def test_subdivide_grid_validation():
    box = Hypercuboid((0,), (1,))
    with pytest.raises(DomainError, match="axis 1"):
        subdivide_grid(box, [[0]])
    with pytest.raises(DomainError, match="strictly increasing"):
        subdivide_grid(box, [[0.5, 0.5]])
    with pytest.raises(DomainError):
        subdivide_grid(box, [[0.5], [0.5]])


def test_subdivide_no_cuts_is_identity():
    box = Hypercuboid((0, 0), (1, 1))
    assert subdivide_grid(box, [[], []]) == [box]


def test_checked_determinant():
    assert checked_determinant([[2, 0], [0, 3]]) == pytest.approx(6.0)
    with pytest.raises(DomainError, match="singular"):
        checked_determinant([[1, 2], [2, 4]])
    with pytest.raises(DomainError, match="square"):
        checked_determinant([[1, 2, 3], [4, 5, 6]])


def test_checked_determinant_scale_invariance():
    tiny = [[1e-8, 0.0], [0.0, 1e-8]]
    assert checked_determinant(tiny) == pytest.approx(1e-16)


def test_checked_determinant_is_numpys_det_in_range():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        assert checked_determinant(m) == float(np.linalg.det(np.array(m)))


@pytest.mark.parametrize(
    "scale, n",
    [(1e154, 2), (8e76, 4)],
    ids=["norm-overflows", "norm-power-overflows"],
)
def test_checked_determinant_rescales_when_the_norm_leaves_the_range(scale, n):
    # A multiple of the identity is perfectly conditioned, and its determinant is representable.
    assert checked_determinant(scale * np.eye(n)) == pytest.approx(scale**n, rel=1e-14)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1e200, 0.0], [0.0, 1e200]], r"determinant about 1e\+400 overflows"),
        ([[1e-170, 0.0], [0.0, 1e-170]], r"determinant about 1e-340 underflows"),
        # Representable only as a subnormal, with its precision gone.
        ([[1e-160, 0.0], [0.0, 1e-160]], r"determinant about 1e-320 underflows"),
        ([[1e200, 2e200], [2e200, 4e200]], r"singular or nearly singular \(det 0\)"),
        # The norm's n-th power overflows; numpy's det, 1, is what is printed.
        ([[1e200, 0.0], [0.0, 1e-200]], r"singular or nearly singular \(det 1\)"),
        ([[math.inf, 0.0], [0.0, 1.0]], r"entries must be finite"),
    ],
    ids=["overflow", "underflow", "subnormal", "singular-huge", "ill-conditioned", "inf"],
)
def test_checked_determinant_out_of_range(matrix, message):
    with pytest.raises(DomainError, match=message):
        checked_determinant(matrix)


def test_parallelotope_vertices_and_volume():
    p = Parallelotope.from_edge_vectors((0.0, 0.0), ((2.0, 0.0), (1.0, 1.0)))
    assert p.dim == 2
    assert p.det == pytest.approx(2.0)
    assert p.volume() == pytest.approx(2.0)
    assert p.vertex_point(VertexLabel((0, 0))) == (0.0, 0.0)
    assert p.vertex_point(VertexLabel((1, 0))) == (2.0, 0.0)
    assert p.vertex_point(VertexLabel((0, 1))) == (1.0, 1.0)
    assert p.marked_point == (3.0, 1.0)
    assert str(p.marked) == "11"


def test_parallelotope_rejects_singular_and_ragged():
    with pytest.raises(DomainError, match="singular"):
        Parallelotope.from_edge_vectors((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0)))
    with pytest.raises(DomainError):
        Parallelotope.from_edge_vectors((0.0, 0.0), ((1.0, 0.0),))


def test_axis_parallel_embedding_volume():
    box = Hypercuboid((1.0, -1.0, 0.0), (2.0, 1.0, 0.5))
    p = Parallelotope.from_edge_vectors(
        box.lower, tuple(tuple(e if i == j else 0.0 for i in range(3)) for j, e in enumerate(box.extents()))
    )
    assert p.volume() == pytest.approx(box.volume())
    assert p.marked_point == pytest.approx(box.upper)
    assert math.isclose(p.det, 1.0 * 2.0 * 0.5)
