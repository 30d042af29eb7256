"""The traced run: repeatable counts, unchanged results, and every patch undone."""

import json

import pytest

import run
import tracing
import workloads

# Requests cheap enough for a unit test that still reach every counted layer.
CHEAP = {"integrate-F", "integrate-exact", "check-2d", "check-wrong", "lib-check-2d", "lib-check-offset"}


@pytest.fixture(scope="module")
def boxcalc():
    return run.import_boxcalc()


def _cheap_requests():
    return [r for r in workloads.build("small-requests", 9, 0) if r.kind in CHEAP]


def _traced(boxcalc, requests):
    tracer = tracing.Tracer()
    phase = run.Phase()
    with tracing.traced(tracer) as missing:
        run.run_requests(boxcalc, requests, phase, tracer)
    assert missing == []
    return tracer, phase


def test_counts_repeat_exactly(boxcalc):
    requests = _cheap_requests()
    first, phase = _traced(boxcalc, requests)
    second, _ = _traced(boxcalc, requests)
    assert first.counts == second.counts
    for key in ("oracle.cubature.points", "antiderivative.F_queries", "ftc.vertex_evals", "oracle.fsum.terms"):
        assert first.counts[key] > 0, key
    assert first.counts["bench.request.calls"] == len(requests)
    assert [f["kind"] for f in phase.failures] == ["lib-check-offset"]


def test_spans_nest_and_self_time_adds_up(boxcalc):
    tracer, _ = _traced(boxcalc, _cheap_requests())
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    roots = [span for span in tracer.spans if span[4] is None]
    assert all(span[1] == "bench.request" for span in roots)
    root_time = sum(end - start for _, _, start, end, _, _ in roots)
    assert sum(tracer.self_s.values()) == pytest.approx(root_time, rel=1e-9)


def test_tracing_leaves_responses_unchanged(boxcalc):
    for request in _cheap_requests():
        if request.argv is None:
            continue
        plain = run.execute(boxcalc, request)
        with tracing.traced(tracing.Tracer()):
            traced = run.execute(boxcalc, request)
        assert traced == plain


def _bindings():
    owners = tracing._boxcalc_modules()
    owners += [
        owners[0].ScalarField,
        owners[0].Hypercuboid,
        owners[0].Parallelotope,
    ]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_every_patch_is_undone(boxcalc):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            inside = _bindings()
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert any(inside[k] is not before[k] for k in before)


def test_check_flags_wrong_values_and_exit_codes():
    request = next(r for r in workloads.build("small-requests", 9, 0) if r.kind == "integrate-F")
    good = json.dumps({"status": "ok", "result": {"value": request.ref}})
    assert run.check(request, 0, good) == ([], run.DIGITS_CAP)
    off = json.dumps({"status": "ok", "result": {"value": request.ref + 3e-6 * max(1.0, abs(request.ref))}})
    problems, digits = run.check(request, 0, off)
    assert problems and digits == 5
    problems, _ = run.check(request, 3, None)
    assert problems == ["exit 3, expected 0"]


def test_tail_needs_ten_requests_beyond_it():
    assert run.tail([1.0] * 10) is None
    percentile, value = run.tail([float(i) for i in range(1, 101)])
    assert percentile == 90.0 and value == 90.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
