"""The request generator: seeded, byte-identical, fixed in shape."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent


def _bytes(workload, seed, pass_index):
    return json.dumps([asdict(r) for r in workloads.build(workload, seed, pass_index)]).encode()


def _digest_in_fresh_interpreter(workload, seed, hash_seed):
    code = (
        "import hashlib, json, sys\n"
        "from dataclasses import asdict\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import workloads\n"
        f"data = json.dumps([asdict(r) for r in workloads.build({workload!r}, {seed}, 0)]).encode()\n"
        "print(hashlib.sha256(data).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_requests(workload):
    here = hashlib.sha256(_bytes(workload, 5, 0)).hexdigest()
    assert _digest_in_fresh_interpreter(workload, 5, 1) == here
    assert _digest_in_fresh_interpreter(workload, 5, 2) == here


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_or_pass_changes_the_numbers_not_the_shape(workload):
    base = workloads.build(workload, 5, 0)
    for other in (workloads.build(workload, 6, 0), workloads.build(workload, 5, 1)):
        assert [r.kind for r in other] == [r.kind for r in base]
        assert [len(r.argv or r.call) for r in other] == [len(r.argv or r.call) for r in base]
        assert other != base


def _opts(argv):
    return dict(a[2:].split("=", 1) for a in argv if a.startswith("--") and "=" in a)


def test_dense_cubature_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        out = []
        for r in workloads.build("dense-cubature", seed, 0):
            o = _opts(r.argv)
            dim = len(o["box"].split(",")) if "box" in o else len(o["origin"].split(","))
            points = (int(o["order"]) * int(o["panels"])) ** dim
            assert 1e5 <= points <= 2.5e6
            out.append(points)
        return out

    first = sizes(1)
    assert min(first) < 2**20 < max(first)
    assert all(sizes(seed) == first for seed in range(2, 12))


def test_small_requests_mix():
    kinds = [r.kind for r in workloads.build("small-requests", 3, 0)]
    assert kinds.count("check-5d") == 2
    assert kinds.count("check-wrong") == 3
    assert kinds.count("lib-check-offset") == 1
    assert {"integrate-F", "integrate-exact", "subdivide", "lib-check-2d", "lib-check-3d"} <= set(kinds)
