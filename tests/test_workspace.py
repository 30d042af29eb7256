"""The tile workspace: scoped to one walk, invisible in values, and what it saves."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import boxcalc
from boxcalc import (
    Hypercuboid,
    QuadratureConfig,
    evaluate_grid,
    field_from_expression,
    gauss_legendre_box,
    legendre_rule,
    mirror_extend,
    parse,
    pullback_field,
    workspace,
)

UNIT_SQUARE = Hypercuboid((0.0, 0.0), (1.0, 1.0))


def test_a_walk_has_its_own_workspace_and_drops_it():
    assert workspace.current() is None
    with workspace.walk(workspace.MIN_TILE):
        outer = workspace.current()
        assert outer is not None
        with workspace.walk(workspace.MIN_TILE):
            assert workspace.current() not in (None, outer)
        with workspace.walk(workspace.MIN_TILE - 1):
            assert workspace.current() is None
        assert workspace.current() is outer
    assert workspace.current() is None


def test_a_given_buffer_is_taken_again():
    ws = workspace.Workspace()
    a = ws.take((3, 4))
    ws.give(a)
    again = ws.take((3, 4))
    assert again.shape == (3, 4) and np.shares_memory(again, a)
    assert not np.shares_memory(ws.take((3, 4)), a)
    assert ws.take((3, 4), bool).dtype == bool
    # A smaller take reuses the front of a larger free buffer: the smallest that holds it.
    ws.give(again)
    big = ws.take((5, 4))
    ws.give(big)
    small = ws.take((2, 5))
    assert small.shape == (2, 5) and np.shares_memory(small, a) and not np.shares_memory(small, big)
    assert small.ctypes.data == a.ctypes.data
    assert np.shares_memory(ws.take((4, 5)), big)
    # Outside a walk take allocates and give drops.
    b = workspace.take((3, 4))
    workspace.give(b)
    assert workspace.take((3, 4)) is not b


# Every op kind, a bare variable at the root, constant subtrees, and
# factors that read one axis only.
_EXPRESSIONS = [
    "x1",
    "x2+x1",
    "-(x1*x2)",
    "2*pi+x1*x2/(1+x2)-x1",
    "sin(x1)*cos(x2)+tan(x1/3)+abs(x2-x1)",
    "exp(x1-x2)*log(1+x2)+sqrt(x1)",
    "x1^2+x2^0.5*x1^-1+pow(x1+x2,3)+2^x2",
    "(x1+x2)^(x1+1)",
    "cos(x1)+sin(x2)",
    "3",
]


@pytest.mark.parametrize("text", _EXPRESSIONS)
@pytest.mark.parametrize("full", [False, True], ids=["axis-columns", "tile-columns"])
def test_expression_values_inside_a_walk_are_those_outside(text, full):
    rows, cols = 8, workspace.MIN_TILE // 8
    columns = (np.linspace(0.1, 2.0, rows).reshape(rows, 1), np.linspace(0.2, 1.5, cols).reshape(1, cols))
    if full:
        columns = tuple(np.array(np.broadcast_to(c, (rows, cols))) for c in columns)
    saved = [c.copy() for c in columns]
    node = parse(text, 2)
    want = evaluate_grid(node, columns)
    with workspace.walk(rows * cols):
        got = evaluate_grid(node, columns)
        # The result is a new array: it is none of the lent columns.
        assert all(not np.shares_memory(got, c) for c in columns)
        again = evaluate_grid(node, columns)
    assert got.tobytes() == want.tobytes() == again.tobytes()
    assert all(np.array_equal(c, s) for c, s in zip(columns, saved))


def test_nothing_outlives_the_walk():
    # The triangle path's layers: walker, fold, pullback, evaluator.
    f = field_from_expression("1+0.5*(x1+x2)+0.25*cos(x1-x2)", 2)
    g = mirror_extend(pullback_field(f, (0.0, 0.0), np.eye(2)))
    cfg = QuadratureConfig(nodes=32, panels=16)  # 4 tiles of 2^16 points
    legendre_rule(cfg.nodes)  # cached for good, and not the walk's

    def array_bytes():
        # NumPy traces array data in a domain of its own; the interpreter's
        # free lists keep Python objects in the default one.
        traces = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        ).traces
        return sum(trace.size for trace in traces)

    tracemalloc.start()
    try:
        before = array_bytes()
        got = gauss_legendre_box(g, UNIT_SQUARE, cfg)
        after = array_bytes()
    finally:
        tracemalloc.stop()
    assert got == gauss_legendre_box(g, UNIT_SQUARE, cfg)
    assert after == before


def test_a_ragged_last_tile_reuses_the_walks_buffers():
    # A 3-d parallelotope's cubature: at 96 points per axis a tile holds 7
    # rows of 96^2 points and the last one 5; at 91 (7*13) every tile is
    # full.  The ragged tile takes the fronts of the walk's buffers, so the
    # walk peaks no higher than the even one, give or take its larger tile.
    f = field_from_expression("exp(0.3*x1)*cos(x2-x3)+x1*x3", 3)
    g = pullback_field(f, (0.25,) * 3, 0.5 * np.eye(3) + 0.1 * (1 - np.eye(3)))
    cube = Hypercuboid((0.0,) * 3, (1.0,) * 3)

    def peak(cfg):
        gauss_legendre_box(g, cube, cfg)  # parser and rule caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gauss_legendre_box(g, cube, cfg)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    ragged, even = peak(QuadratureConfig(nodes=12, panels=8)), peak(QuadratureConfig(nodes=13, panels=7))
    tile = 8 * 7 * 96**2
    assert ragged <= even + tile, (ragged, even)


_FAULTS = """
import contextlib, io, resource, sys
from boxcalc import cli

def faults(panels):
    argv = ["triangle", "--f", "x1+x2", "--p", "0,0", "--q", "1,0", "--r", "0,1",
            "--order", "32", "--panels", str(panels)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(16), faults(64))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc's page faults on Linux")
def test_tiles_of_a_walk_do_not_fault():
    # In a fresh interpreter, as a CLI request runs.  Each walk faults its
    # workspace in once, so the per-tile cost is the difference between a
    # 2048^2 triangle (64 tiles of 2^16 points) and a 512^2 one (4 tiles).
    # Allocating every tile's temporaries afresh costs about 1,100 per tile.
    env = dict(os.environ)
    src = str(Path(boxcalc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    assert (large - small) / (64 - 4) < 10, (small, large)
