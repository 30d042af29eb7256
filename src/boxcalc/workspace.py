"""Tile workspace: float buffers recycled within one tensor-grid walk.

A tensor-grid walk (oracle.gauss_legendre_box, oracle.evaluate_on_grid)
evaluates its grid tile by tile, and each layer a tile passes through needs
tile-sized temporaries: the cubature's weights and extraction pass, a
pullback's coordinates, a mirror extension's side mask and reflected
coordinates, an expression's intermediate values.  Allocated afresh for
every tile, a few of them alive at once are enough for glibc to hand the
freed top of the heap back to the kernel at the end of each tile and fault
it in again during the next one.  Within a walk they come from a Workspace
instead: a free list of buffers per shape and dtype, made when the walk
starts and dropped when it ends.  A layer takes a buffer (`take`) and gives
it back (`give`) once done with it, so the tiles of one walk reuse the same
memory.

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
from collections import defaultdict
from contextvars import ContextVar

import numpy as np

# Smallest tile, in points, whose walk gets a workspace: float buffers from
# 128 KiB up are the ones glibc serves from fresh pages by default (its
# M_MMAP_THRESHOLD).  Smaller temporaries come from the heap without page
# faults, and recycling them would only add bookkeeping.
MIN_TILE = 1 << 14


class Workspace:
    """Free lists of buffers, keyed by shape and dtype, for the tiles of one walk."""

    def __init__(self) -> None:
        self._free: defaultdict[tuple, list[np.ndarray]] = defaultdict(list)

    def take(self, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """An uninitialised buffer: one given back earlier, else a new one."""
        free = self._free[shape, np.dtype(dtype)]
        return free.pop() if free else np.empty(shape, dtype)

    def give(self, *buffers: np.ndarray) -> None:
        """Return buffers from `take`; the caller no longer reads or writes them."""
        for buffer in buffers:
            self._free[buffer.shape, buffer.dtype].append(buffer)


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
