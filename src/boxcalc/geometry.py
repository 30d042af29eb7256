"""Axis-parallel boxes, vertex labels and signs, grid subdivision, parallelotopes.

A vertex label is a binary word: bit k (1-indexed) selects the lower (0) or
upper (1) endpoint along axis k.  Reading the word as an integer with bit 1
as the most significant digit gives the canonical vertex order.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class VertexLabel:
    """Binary word selecting one vertex of an n-dimensional box."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if len(bits) == 0:
            raise DomainError("vertex label needs at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"vertex label bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_index(cls, index: int, dim: int) -> "VertexLabel":
        """Label whose bits are `index` written as a dim-digit binary number."""
        if dim < 1:
            raise DomainError(f"dimension must be at least 1, got {dim}")
        if not 0 <= index < 2**dim:
            raise DomainError(f"label index {index} out of range for dimension {dim}")
        return cls(tuple((index >> (dim - 1 - k)) & 1 for k in range(dim)))

    def as_index(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    @property
    def dim(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, k):
        return self.bits[k]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _bits(label) -> tuple[int, ...]:
    if isinstance(label, VertexLabel):
        return label.bits
    return VertexLabel(tuple(label)).bits


def count_zeros(label) -> int:
    """Number of 0 bits in a vertex label."""
    return _bits(label).count(0)


def vertex_sign(label) -> int:
    """Inclusion-exclusion sign of a vertex: +1 for an even number of 0 bits."""
    return -1 if count_zeros(label) % 2 else 1


def vertex_signs(dim: int) -> list[int]:
    """vertex_sign of every label of a dim-dimensional box, in label order."""
    # Label i (see VertexLabel.from_index) has dim - popcount(i) zero bits.
    return [-1 if (dim - i.bit_count()) % 2 else 1 for i in range(2**dim)]


def cell_vertex_sums(values, stride: int = 1) -> list[float]:
    """Exact signed vertex sum of every cell of a tensor grid of values.

    `values[i1, ..., in]` is F at grid point (i1, ..., in).  A cell spans
    indices i and i+1 along each axis, for i = 0, stride, 2*stride, ...;
    its sum is one math.fsum of vertex_sign * F over its 2**n corners, in
    label order.  Returns the raw sums, cells in C order.  A sum that
    overflows raises DomainError.
    """
    values = np.ascontiguousarray(values, dtype=float)
    n = values.ndim
    cells = tuple((size - 2) // stride + 1 for size in values.shape)
    # A view whose last n axes walk a cell's corners, so row c is cell c in label order.
    strides = tuple(stride * step for step in values.strides) + values.strides
    corners = np.ndarray(cells + (2,) * n, float, values, 0, strides)
    signs = np.array(vertex_signs(n), dtype=float)
    try:
        return [math.fsum(cell) for cell in (corners.reshape(-1, 2**n) * signs).tolist()]
    except OverflowError:
        raise DomainError("a vertex sum overflows the floating-point range") from None


@dataclass(frozen=True)
class Hypercuboid:
    """Axis-parallel box given by per-axis lower and upper bounds.

    Bounds may be ints, floats or fractions and are kept as given, so exact
    rational boxes stay exact.  Degenerate axes (lower == upper) are allowed.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self) -> None:
        lower = tuple(self.lower)
        upper = tuple(self.upper)
        if len(lower) != len(upper):
            raise DomainError(f"bound lengths differ: {len(lower)} vs {len(upper)}")
        if len(lower) == 0:
            raise DomainError("box needs at least one axis")
        for j, (a, b) in enumerate(zip(lower, upper), start=1):
            # Written so that NaN fails too: every comparison with NaN is false.
            if not a <= b:
                relation = "exceeds" if a > b else "is not ordered against"
                raise DomainError(f"axis {j}: lower bound {a} {relation} upper bound {b}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def extents(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    def volume(self):
        return math.prod(self.extents())

    def is_degenerate(self) -> bool:
        return any(a == b for a, b in zip(self.lower, self.upper))

    def vertex_point(self, label) -> tuple:
        bits = _bits(label)
        if len(bits) != self.dim:
            raise DomainError(f"label has {len(bits)} bits, box has dimension {self.dim}")
        return tuple(b if bit else a for a, b, bit in zip(self.lower, self.upper, bits))


def vertices_lex(box: Hypercuboid) -> list[tuple[VertexLabel, tuple]]:
    """All 2**n vertices with labels, ordered by label read as an integer."""
    n = box.dim
    out = []
    for i in range(2**n):
        label = VertexLabel.from_index(i, n)
        out.append((label, box.vertex_point(label)))
    return out


def grid_breakpoints(box: Hypercuboid, cuts: Sequence[Sequence]) -> list[list]:
    """Per-axis breakpoints [lower, *cuts, upper] of a grid subdivision.

    `cuts[j]` lists the cut coordinates for axis j+1.  Each list must be
    strictly increasing and lie strictly inside the open interval of its
    axis.  Bounds and cuts are kept as given, so rational grids stay exact.
    """
    if len(cuts) != box.dim:
        raise DomainError(f"expected {box.dim} cut lists, got {len(cuts)}")
    breakpoints = []
    for j, (a, b, axis_cuts) in enumerate(zip(box.lower, box.upper, cuts), start=1):
        axis_cuts = list(axis_cuts)
        for c in axis_cuts:
            if not (a < c < b):
                raise DomainError(f"axis {j}: cut {c} outside open interval ({a}, {b})")
        for c0, c1 in zip(axis_cuts, axis_cuts[1:]):
            if not c0 < c1:
                raise DomainError(
                    f"axis {j}: cuts must be strictly increasing, got {c0} then {c1}"
                )
        breakpoints.append([a, *axis_cuts, b])
    return breakpoints


def subdivide_grid(box: Hypercuboid, cuts: Sequence[Sequence]) -> list[Hypercuboid]:
    """Split a box along interior axis-aligned cut planes (see grid_breakpoints).

    Returns the full product grid of sub-boxes, axis 1 varying slowest.
    """
    breakpoints = grid_breakpoints(box, cuts)
    boxes = []
    for cell in itertools.product(*(range(len(bp) - 1) for bp in breakpoints)):
        lo = tuple(bp[i] for bp, i in zip(breakpoints, cell))
        hi = tuple(bp[i + 1] for bp, i in zip(breakpoints, cell))
        boxes.append(Hypercuboid(lo, hi))
    return boxes


_SINGULAR_REL_TOL = 1e-12


def checked_determinant(matrix) -> float:
    """Determinant of a square matrix, rejecting numerically singular input.

    |det| must exceed _SINGULAR_REL_TOL (1e-12) times the Frobenius norm
    raised to the dimension, a scale-invariant cutoff.  When the
    determinant or that power of the norm leaves the normal floating-point
    range, the test runs on the matrix rescaled by a power of two, which
    leaves the verdict unchanged because the cutoff is homogeneous of
    degree n; a nonsingular matrix whose determinant then overflows or
    underflows is refused as such.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"edge matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("edge matrix entries must be finite")
    det, cutoff = _det_and_cutoff(m)
    if cutoff is not None:
        singular = abs(det) <= cutoff
    else:
        # Scale the largest entry into [0.5, 1): exact, so only the exponent moves.
        shift = math.frexp(float(np.max(np.abs(m))))[1]
        scaled, cutoff = _det_and_cutoff(np.ldexp(m, -shift))
        singular = cutoff is None or abs(scaled) <= cutoff
        if not singular:
            exponent = m.shape[0] * shift
            with np.errstate(all="ignore"):
                det = float(np.ldexp(scaled, exponent))
            if not sys.float_info.min <= abs(det) < math.inf:
                side = "overflows" if math.isinf(det) else "underflows"
                magnitude = math.log10(abs(scaled)) + exponent * math.log10(2.0)
                raise DomainError(
                    f"edge matrix determinant about 1e{magnitude:+.0f} {side} the floating-point range"
                )
    if singular:
        raise DomainError(f"edge matrix is singular or nearly singular (det {det:.3g})")
    return det


def _det_and_cutoff(m: np.ndarray) -> tuple[float, float | None]:
    """numpy's det and the cutoff _SINGULAR_REL_TOL * norm**n; None for the
    cutoff when the det or norm**n is out of the normal range."""
    # An overflow or underflow is detected below; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        det = float(np.linalg.det(m))
        norm = float(np.linalg.norm(m))
    try:
        scale = norm ** m.shape[0]
    except OverflowError:
        return det, None
    if not (math.isfinite(det) and sys.float_info.min <= scale < math.inf):
        return det, None
    return det, _SINGULAR_REL_TOL * scale


@dataclass(frozen=True)
class Parallelotope:
    """Affine image of the unit box: an origin plus a nonsingular edge matrix.

    `columns[j]` is the edge vector spanned along axis j+1 (column j of the
    edge matrix).  The marked vertex is the image of the all-ones corner,
    reached by walking every edge once.
    """

    origin: tuple[float, ...]
    columns: tuple[tuple[float, ...], ...]
    det: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        origin = tuple(float(x) for x in self.origin)
        n = len(origin)
        if n == 0:
            raise DomainError("parallelotope needs at least one axis")
        columns = tuple(tuple(float(x) for x in col) for col in self.columns)
        if len(columns) != n or any(len(col) != n for col in columns):
            raise DomainError(f"edge matrix must be {n}x{n} to match the origin")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "columns", columns)
        det = checked_determinant(np.array(columns, dtype=float).T)
        object.__setattr__(self, "det", det)

    @classmethod
    def from_edge_vectors(cls, origin, vectors):
        return cls(tuple(origin), tuple(tuple(v) for v in vectors))

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def matrix(self) -> np.ndarray:
        """Edge matrix with edge vectors as columns."""
        return np.array(self.columns, dtype=float).T

    @property
    def marked(self) -> VertexLabel:
        return VertexLabel((1,) * self.dim)

    @property
    def marked_point(self) -> tuple[float, ...]:
        return self.vertex_point(self.marked)

    def volume(self) -> float:
        return abs(self.det)

    def vertex_point(self, label) -> tuple[float, ...]:
        bits = _bits(label)
        if len(bits) != self.dim:
            raise DomainError(f"label has {len(bits)} bits, need {self.dim}")
        point = np.asarray(self.origin) + self.matrix @ np.asarray(bits, dtype=float)
        return tuple(float(x) for x in point)
