"""Tile workspace: float buffers recycled within one tensor-grid walk.

A tensor-grid walk (oracle.gauss_legendre_box, oracle.evaluate_on_grid)
evaluates its grid tile by tile, and so does Monte Carlo
(oracle.monte_carlo_affine) with its samples.  Each layer a tile passes
through needs tile-sized temporaries: the cubature's weights and
extraction pass, Monte Carlo's draws, coordinates and deviations, a
pullback's coordinates, the triangle fold's side mask and folded
coordinates, an expression's intermediate values.  Allocated afresh for
every tile, a few of them alive at once are enough for glibc to hand the
freed top of the heap back to the kernel at the end of each tile and fault
it in again during the next one.  Within a walk they come from a Workspace
instead: free lists of flat buffers per dtype, made when the walk starts
and dropped when it ends.  A layer takes a buffer (`take`), the front of
the smallest free one that holds it, and gives it back (`give`) once done
with it, so the tiles of one walk reuse the same memory, and a walk's
ragged last tile reuses the buffers of its full ones.

Only temporaries that never leave the layer that took them are recycled.
Coordinate columns a layer lends to a ScalarField's fn count as such: they
are valid for that call only.  What a fn returns is a new array.

The current workspace is a context variable, so it reaches boxcalc's own
fields through any wrapper, and a walk nested in another (a numeric
antiderivative's cubatures inside a walk over its grid of F values) gets
its own.  Outside a walk, and in a walk whose tiles are small, there is
none: `take` allocates and `give` does nothing.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from contextvars import ContextVar

import numpy as np

# Smallest tile, in points, whose walk gets a workspace: float buffers from
# 128 KiB up are the ones glibc serves from fresh pages by default (its
# M_MMAP_THRESHOLD).  Smaller temporaries come from the heap without page
# faults, and recycling them would only add bookkeeping.
MIN_TILE = 1 << 14


class Workspace:
    """Free lists of flat buffers, keyed by dtype, for the tiles of one walk."""

    def __init__(self) -> None:
        self._free: defaultdict[np.dtype, list[np.ndarray]] = defaultdict(list)

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """An uninitialised buffer of this shape: the front of the smallest free
        buffer that holds it (the last given back among equals), else a new one."""
        size = math.prod(shape)
        free = self._free[np.dtype(dtype)]
        best = None
        for i in reversed(range(len(free))):
            if size <= free[i].size and (best is None or free[i].size < free[best].size):
                best = i
        flat = np.empty(size, dtype) if best is None else free.pop(best)
        return flat[:size].reshape(shape)

    def give(self, *buffers: np.ndarray) -> None:
        """Return buffers from `take`; the caller no longer reads or writes them."""
        for buffer in buffers:
            # A buffer from `take` is a view of the flat buffer it came from.
            self._free[buffer.dtype].append(buffer.base)


_CURRENT: ContextVar[Workspace | None] = ContextVar("boxcalc_workspace", default=None)


def current() -> Workspace | None:
    """The workspace of the innermost walk, or None outside a walk or in a small one."""
    return _CURRENT.get()


def take(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialised buffer of this shape: from the current workspace, else new."""
    workspace = _CURRENT.get()
    return np.empty(shape, dtype) if workspace is None else workspace.take(shape, dtype)


def give(*buffers: np.ndarray) -> None:
    """Return buffers from `take` to the current workspace; outside a walk, drop them."""
    workspace = _CURRENT.get()
    if workspace is not None:
        workspace.give(*buffers)


@contextlib.contextmanager
def walk(tile: int):
    """The scope of one walk whose tiles have up to `tile` points.

    Inside it the current workspace is a new one when the tiles have at
    least MIN_TILE points, and None otherwise; on exit the enclosing
    walk's workspace is current again and this one's buffers are dropped.
    """
    token = _CURRENT.set(Workspace() if tile >= MIN_TILE else None)
    try:
        yield
    finally:
        _CURRENT.reset(token)
