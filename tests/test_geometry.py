import math
from fractions import Fraction

import pytest

from boxcalc import (
    DomainError,
    Hypercuboid,
    Parallelotope,
    VertexLabel,
    checked_determinant,
    count_zeros,
    graph_distance,
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


def test_graph_distance():
    assert graph_distance((0, 0), (1, 1)) == 2
    assert graph_distance((0, 1, 1), (0, 1, 1)) == 0
    assert graph_distance(VertexLabel((0, 1)), VertexLabel((1, 1))) == 1
    with pytest.raises(DomainError):
        graph_distance((0, 1), (0, 1, 1))


def test_graph_distance_equals_zero_count_against_all_ones():
    for n in range(1, 7):
        ones = VertexLabel((1,) * n)
        for i in range(2**n):
            label = VertexLabel.from_index(i, n)
            assert graph_distance(label, ones) == count_zeros(label)


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
