"""Benchmark for boxcalc: one closed-loop client driving the CLI and the library in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-cubature --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): dense-cubature, triangle-default, small-requests.
A run sends whole passes over the workload's request list, each request after
the previous one completed, and checks every response against a reference
computed in workloads.py.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs half the time untraced and half traced and reports
the per-layer metrics, per pass over the request list, with the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record (sample
counts, tail percentile, fail ratio, unscaled figures, machine, spans) is
written to perfbench/out/.

Reported times are at a reference machine speed.  The host's speed drifts
by up to half within seconds, more than the bounds a regression gate needs,
so a SpeedSampler times a fixed kernel every SAMPLE_EVERY_S seconds while
requests run, and each request's time is scaled by the kernel's reference
time over its mean time during and around that request.  Sampling time is
taken out of request and span times.  Unscaled figures are printed and
recorded next to the scaled ones.  peak_rss_mb is the whole client
process, benchmark included.

A request fails when it raises, exits with an unexpected code or status, or
returns a value outside its tolerance.  `correct` is false when the program
reported success with a wrong answer: exit 0 with a value outside tolerance,
or exit 0 where the check should have failed.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and the client is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, traced  # noqa: E402

DIGITS_CAP = 12
SAMPLE_EVERY_S = 0.25
NEIGHBOUR_SAMPLES = 4
SETUP_MIN_SAMPLES = 11
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import boxcalc.cli\n"
    "boxcalc.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
}

# name -> unit.  Every value is per pass over the workload's request list,
# except ratios, rates and the trace.* throughputs.
PER_LAYER = {
    "oracle.fsum_ms": "ms",
    "oracle.fsum.calls": "count",
    "oracle.fsum.terms": "count",
    "oracle.self_ms": "ms",
    "oracle.cubature_ms": "ms",
    "oracle.cubature.calls": "count",
    "oracle.cubature.points": "count",
    "oracle.ms_per_call": "ms",
    "oracle.legendre_rule.calls": "count",
    "oracle.legendre_rule.hit_ratio": "ratio",
    "oracle.monte_carlo_ms": "ms",
    "oracle.monte_carlo.samples": "count",
    "expression.self_ms": "ms",
    "expression.eval_ms": "ms",
    "expression.eval.calls": "count",
    "expression.eval.points": "count",
    "expression.points_per_s": "1/s",
    "expression.rows_per_call": "rows/call",
    "expression.parse.calls": "count",
    "ftc.triangle_ms": "ms",
    "ftc.triangle.points": "count",
    "ftc.self_ms": "ms",
    "ftc.integrate_box.calls": "count",
    "ftc.vertex_evals": "count",
    "antiderivative.self_ms": "ms",
    "antiderivative.point_calls": "count",
    "antiderivative.F_queries": "count",
    "antiderivative.F_cubatures": "count",
    "antiderivative.F_cubature_ratio": "ratio",
    "antiderivative.mixed_partial.calls": "count",
    "polycalc.self_ms": "ms",
    "polycalc.calls": "count",
    "polycalc.terms": "count",
    "geometry.self_ms": "ms",
    "geometry.boxes_built": "count",
    "geometry.vertices_lex.calls": "count",
    "cli.self_ms": "ms",
    "cli.requests": "count",
    "trace.requests_per_pass": "count",
    "trace.spans": "count",
    "trace.throughput_rps": "1/s",
    "trace.untraced_throughput_rps": "1/s",
    "trace.overhead_ratio": "ratio",
}

# Tiny requests run once before timing, so first-call costs stay out of the figures.
WARMUP = (
    ("integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--verify"),
    ("integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--exact"),
    ("integrate", "--F", "x1*x2", "--box", "0:1,0:1"),
    ("parallelotope", "--f", "x1", "--origin", "0,0", "--edges", "2,0;1,1", "--verify", "--samples", "100"),
    ("triangle", "--f", "x1+x2", "--p", "0,0", "--q", "1,0", "--r", "0,1", "--panels", "1"),
    ("check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1"),
    ("subdivide-check", "--F", "x1*x2", "--box", "0:1,0:1", "--grid", "2,2"),
)


def import_boxcalc():
    """Import boxcalc from this checkout's src/, refusing any other copy."""
    if not (SRC / "boxcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no boxcalc sources under {SRC}; run from a boxcalc checkout")
    sys.path.insert(0, str(SRC))
    import boxcalc
    import boxcalc.cli

    if Path(boxcalc.__file__).resolve().parent != SRC / "boxcalc":
        raise SystemExit(f"error: imported boxcalc from {boxcalc.__file__}, not from {SRC}")
    return boxcalc


_KERNEL_AXIS = 256
_KERNEL_NODES = np.linspace(-1.0, 1.0, _KERNEL_AXIS)
_KERNEL_WEIGHTS = np.linspace(0.5, 1.0, _KERNEL_AXIS)
_KERNEL_SMALL = np.linspace(0.0, 1.0, 24).reshape(8, 3)
_KERNEL_TEXT = "cos(0.8*x1+0.1)*(1.2+(-0.3)*x2^2)*exp(0.7*x3)/0.8+0.5*x1*x2*x3"
_KERNEL_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*)|(x\d+)|(\w+)|(.))")


def bulk_kernel() -> None:
    """A 65536-point tensor-grid cubature step, like the large requests.

    Index arithmetic, gathers, an elementwise integrand and a correctly
    rounded sum, written without boxcalc.
    """
    i, j = np.divmod(np.arange(_KERNEL_AXIS * _KERNEL_AXIS), _KERNEL_AXIS)
    points = np.stack([_KERNEL_NODES[i], _KERNEL_NODES[j]], axis=1)
    x, y = points[:, 0], points[:, 1]
    values = 1.0 + 0.9 * (0.3 * x + 0.2 * y) + 0.3 * np.cos(1.1 * (0.7 * x - 0.1 * y))
    math.fsum(_KERNEL_WEIGHTS[i] * _KERNEL_WEIGHTS[j] * values)


def interpreter_kernel() -> None:
    """Tiny NumPy calls, Fraction arithmetic and tokenizing, like the small requests."""
    for _ in range(100):
        a = np.asarray(_KERNEL_SMALL, dtype=float)
        float((np.sin(a[:, 0]) * a[:, 1]).sum())
    sum(Fraction(k, 7) * Fraction(3, k + 1) for k in range(60))
    for _ in range(40):
        counts: dict[str, int] = {}
        for match in _KERNEL_TOKEN.finditer(_KERNEL_TEXT):
            token = next(g for g in match.groups() if g is not None)
            counts[token] = counts.get(token, 0) + 1
        sorted(counts.items())


# Kernel and its typical time on the two-core x86-64 VM (Python 3.11,
# NumPy 2.4) where perfbench/baseline.json was recorded; the time only
# sets the scale.  Neither kernel uses boxcalc, so a change to the program
# cannot move them.
SPEED_KERNELS = {
    "bulk": (bulk_kernel, 0.0065),
    "interpreter": (interpreter_kernel, 0.0033),
}
# Each workload is scaled by the kernel whose slowdowns its own work follows:
# array throughput for the large cubatures, interpreter speed for the rest.
SPEED_KERNEL_OF = {
    "dense-cubature": "bulk",
    "triangle-default": "bulk",
    "small-requests": "interpreter",
}


class SpeedSampler:
    """Times the workload's speed kernel every SAMPLE_EVERY_S seconds while requests run.

    A triangle request takes seconds, and the host's speed changes within
    it, so a probe between requests cannot follow it.  The samples run
    from a SIGALRM handler in the client's own thread, between bytecodes
    of whatever request they interrupt, so no thread is added.  `clock`
    is perf_counter less the time spent sampling; request latencies and
    trace spans are measured on it.
    """

    def __init__(self, workload: str):
        self.kernel, self.reference = SPEED_KERNELS[SPEED_KERNEL_OF[workload]]
        self.durations: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        start = perf_counter()
        self.kernel()
        took = perf_counter() - start
        self.durations.append(took)
        self.spent += took

    def measure(self, count: int = 4) -> float:
        """Mean time of `count` samples taken now."""
        since = len(self.durations)
        for _ in range(count):
            self.sample()
        return self.speed(since)

    def speed(self, since: int) -> float:
        """Mean sample time from sample `since` on, over the last four samples at least."""
        while len(self.durations) < 4:
            self.sample()
        return statistics.fmean(self.durations[min(since, len(self.durations) - 4):])

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Phase:
    """Outcome of running whole passes over a workload.

    `latencies` and `busy_s` are unscaled seconds (on SpeedSampler.clock);
    `scaled` and `scaled_busy_s` are the same times at the reference
    machine speed, from which the reported metrics come.  `speed` holds
    each pass's mean sample time.
    """

    latencies: list[float] = field(default_factory=list)
    marks: list[tuple[int, int]] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    digits: list[int] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wrong: int = 0
    passes: int = 0
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0
    speed: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def throughput(self) -> float:
        """Requests per second over the run."""
        return self.attempted / self.scaled_busy_s

    def latency_p50(self) -> float:
        return statistics.median(self.scaled)


def execute(boxcalc, request: workloads.Request):
    """Run one request; returns (exit code, standard output or None, standard error or None)."""
    if request.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = boxcalc.cli.main([*request.argv, "--json"])
        return code, out.getvalue(), err.getvalue().strip() or None
    kind, f_text, lower, upper, grid = request.call
    if kind != "check-numeric":
        raise ValueError(f"unknown library request {kind!r}")
    f = boxcalc.field_from_expression(f_text, len(lower))
    F = boxcalc.numeric_antiderivative(f, lower)
    report = boxcalc.check_antiderivative(f, F, boxcalc.Hypercuboid(lower, upper), grid_points=grid)
    return (0 if report.passed else 4), None, None


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def check(request: workloads.Request, code: int, output: str | None) -> tuple[list[str], int | None]:
    """Problems with a response, and its correct digits when it returns a checked value."""
    if code != request.code:
        return [f"exit {code}, expected {request.code}"], None
    if request.argv is None:
        return [], None
    if not output or not output.strip():
        return ["no JSON output"], None
    payload = json.loads(output)
    problems = []
    want = "ok" if code == 0 else "fail"
    if payload.get("status") != want:
        problems.append(f"status {payload.get('status')!r}, expected {want!r}")
    if request.ref is None or code != 0:
        return problems, None
    result = payload["result"]
    if request.tol == 0:
        if Fraction(result["value"]) != Fraction(request.ref):
            problems.append(f"value {result['value']} != exact {request.ref}")
            return problems, 0
        return problems, DIGITS_CAP
    rel = _rel(result["value"], request.ref)
    digits = DIGITS_CAP if rel == 0 else min(DIGITS_CAP, math.floor(-math.log10(rel)))
    if not rel <= request.tol:
        problems.append(f"value {result['value']!r} vs reference {request.ref!r}: rel {rel:.2e}")
    diagnostics = payload.get("diagnostics", {})
    if request.kind == "parallelotope":
        stderr = diagnostics["oracle"]["stderr"]
        gap = abs(result["oracle"] - request.ref)
        if not gap <= workloads.MC_SIGMAS * stderr + 1e-12 * max(1.0, abs(request.ref)):
            problems.append(f"Monte Carlo oracle off by {gap:.3e} with stderr {stderr:.3e}")
    elif result.get("oracle") is not None and not _rel(result["oracle"], request.ref) <= request.tol:
        problems.append(f"quadrature oracle {result['oracle']!r} vs reference {request.ref!r}")
    if request.kind == "subdivide" and not _rel(diagnostics["rhs"], request.ref) <= request.tol:
        problems.append(f"subdivided sum {diagnostics['rhs']!r} vs reference {request.ref!r}")
    return problems, digits


def run_requests(boxcalc, requests, phase: Phase, tracer: Tracer | None = None,
                 sampler: SpeedSampler | None = None) -> None:
    """Send each request after the previous one completed, check it, and record the outcome.

    With a sampler, latencies are on its clock and each request's span of
    speed samples is recorded in `phase.marks`.
    """
    clock = perf_counter if sampler is None else sampler.clock
    for request in requests:
        root = None
        if tracer is not None:
            tracer.request = phase.attempted + 1
            root = tracer.enter("bench.request", "bench")
        first_sample = None if sampler is None else len(sampler.durations)
        start = clock()
        try:
            code, output, error = execute(boxcalc, request)
        except Exception as exc:  # the client keeps running; the request counts as failed
            code, output, error = None, None, traceback.format_exc(limit=-3)
            problems, digits = [f"raised {type(exc).__name__}"], None
        latency = clock() - start
        if sampler is not None:
            phase.marks.append((first_sample, len(sampler.durations)))
        if root is not None:
            tracer.exit(root)
        if code is not None:
            try:
                problems, digits = check(request, code, output)
            except (KeyError, TypeError, ValueError) as exc:
                problems, digits = [f"malformed response: {exc!r}"], None
        phase.busy_s += latency
        phase.latencies.append(latency)
        if digits is not None:
            phase.digits.append(digits)
        if problems:
            phase.failures.append({"kind": request.kind, "problem": "; ".join(problems), "detail": error})
            if code == 0:
                phase.wrong += 1


def run_phase(boxcalc, workload: str, seed: int, seconds: float, sampler: SpeedSampler,
              first_pass: int = 0, tracer: Tracer | None = None, after_pass=None) -> Phase:
    """Whole passes over the workload until `seconds` of request time have run.

    Each request's time is scaled by the sampler's reference time over the
    mean of the samples taken during the request and the NEIGHBOUR_SAMPLES
    taken just before and just after it.  `after_pass` is called between
    passes, with sampling stopped.
    """
    phase = Phase()
    sampler.measure()
    while phase.passes == 0 or phase.busy_s < seconds:
        requests = workloads.build(workload, seed, first_pass + phase.passes)
        since = len(sampler.durations)
        with sampler.running():
            run_requests(boxcalc, requests, phase, tracer, sampler)
        phase.speed.append(sampler.speed(since))
        phase.passes += 1
        if after_pass is not None:
            after_pass()
    samples = sampler.durations
    for latency, (first, end) in zip(phase.latencies, phase.marks):
        window = samples[max(0, first - NEIGHBOUR_SAMPLES):end + NEIGHBOUR_SAMPLES]
        phase.scaled.append(latency * sampler.reference / statistics.fmean(window))
    phase.scaled_busy_s = sum(phase.scaled)
    return phase


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import boxcalc.cli and build its parser."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(tracer: Tracer, traced: Phase, rule_hits: int, untraced_rps: float) -> dict:
    """Per-layer values per pass; times at the reference machine speed, like the end-to-end ones."""
    c = tracer.counts
    passes = traced.passes
    scale = traced.scaled_busy_s / traced.busy_s
    traced_rps = traced.throughput()
    ms = {name: 1000.0 * scale * s / passes for name, s in tracer.inclusive_s.items()}
    self_ms = {layer: 1000.0 * scale * s / passes for layer, s in tracer.self_s.items()}

    def per_pass(key):
        return c[key] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    eval_s = scale * tracer.inclusive_s.get("expression.eval", 0.0)
    values = {
        "oracle.fsum_ms": ms.get("oracle.fsum", 0.0),
        "oracle.fsum.calls": per_pass("oracle.fsum.calls"),
        "oracle.fsum.terms": per_pass("oracle.fsum.terms"),
        "oracle.self_ms": self_ms.get("oracle", 0.0),
        "oracle.cubature_ms": ms.get("oracle.cubature", 0.0),
        "oracle.cubature.calls": per_pass("oracle.cubature.calls"),
        "oracle.cubature.points": per_pass("oracle.cubature.points"),
        "oracle.ms_per_call": ratio(ms.get("oracle.cubature", 0.0), per_pass("oracle.cubature.calls")),
        "oracle.legendre_rule.calls": per_pass("oracle.legendre_rule.calls"),
        "oracle.legendre_rule.hit_ratio": ratio(rule_hits, c["oracle.legendre_rule.calls"]),
        "oracle.monte_carlo_ms": ms.get("oracle.monte_carlo", 0.0),
        "oracle.monte_carlo.samples": per_pass("oracle.monte_carlo.samples"),
        "expression.self_ms": self_ms.get("expression", 0.0),
        "expression.eval_ms": ms.get("expression.eval", 0.0),
        "expression.eval.calls": per_pass("expression.eval.calls"),
        "expression.eval.points": per_pass("expression.eval.points"),
        "expression.points_per_s": ratio(c["expression.eval.points"], eval_s),
        "expression.rows_per_call": ratio(c["expression.eval.points"], c["expression.eval.calls"]),
        "expression.parse.calls": per_pass("expression.parse.calls"),
        "ftc.triangle_ms": ms.get("ftc.triangle", 0.0),
        "ftc.triangle.points": per_pass("ftc.triangle.points"),
        "ftc.self_ms": self_ms.get("ftc", 0.0),
        "ftc.integrate_box.calls": per_pass("ftc.integrate_box.calls"),
        "ftc.vertex_evals": per_pass("ftc.vertex_evals"),
        "antiderivative.self_ms": self_ms.get("antiderivative", 0.0),
        "antiderivative.point_calls": per_pass("antiderivative.point_call.calls"),
        "antiderivative.F_queries": per_pass("antiderivative.F_queries"),
        "antiderivative.F_cubatures": per_pass("antiderivative.F_cubatures"),
        "antiderivative.F_cubature_ratio": ratio(c["antiderivative.F_cubatures"], c["antiderivative.F_queries"]),
        "antiderivative.mixed_partial.calls": per_pass("antiderivative.mixed_partial.calls"),
        "polycalc.self_ms": self_ms.get("polycalc", 0.0),
        "polycalc.calls": per_pass("polycalc.entry_calls"),
        "polycalc.terms": per_pass("polycalc.terms"),
        "geometry.self_ms": self_ms.get("geometry", 0.0),
        "geometry.boxes_built": per_pass("geometry.box.calls"),
        "geometry.vertices_lex.calls": per_pass("geometry.vertices_lex.calls"),
        "cli.self_ms": self_ms.get("cli", 0.0),
        "cli.requests": per_pass("cli.main.calls"),
        "trace.requests_per_pass": per_pass("bench.request.calls"),
        "trace.spans": tracer.span_count / passes,
        "trace.throughput_rps": traced_rps,
        "trace.untraced_throughput_rps": untraced_rps,
        "trace.overhead_ratio": ratio(untraced_rps, traced_rps),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


def _rule_hits(boxcalc) -> int:
    rule = getattr(getattr(boxcalc, "oracle", None), "legendre_rule", None)
    return rule.cache_info().hits if hasattr(rule, "cache_info") else 0


def end_to_end_run(boxcalc, args) -> tuple[list[Phase], dict, dict, list[str]]:
    """Untraced run: the end-to-end metrics, with set-up timed between passes."""
    setup_raw: list[tuple[float, float]] = []

    def sample_setup() -> None:
        """One fresh interpreter, with the speed measured just before and after it."""
        before = sampler.measure()
        took = measure_setup()
        setup_raw.append((took, 0.5 * (before + sampler.measure())))

    sampler = SpeedSampler(args.workload)
    measure_setup()  # the first fresh interpreter may compile bytecode
    sample_setup()
    phase = run_phase(boxcalc, args.workload, args.seed, args.seconds, sampler, after_pass=sample_setup)
    while len(setup_raw) < SETUP_MIN_SAMPLES:
        sample_setup()
    setup = [t * sampler.reference / speed for t, speed in setup_raw]
    n = phase.attempted
    failed = len(phase.failures)
    values = {
        "setup_s": statistics.median(setup),
        "throughput_rps": phase.throughput(),
        "latency_p50_ms": 1000.0 * phase.latency_p50(),
        "min_digits": min(phase.digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    high = tail(phase.scaled)
    detail = {
        "requests": n,
        "passes": phase.passes,
        "fail_ratio": failed / n,
        "digits_samples": len(phase.digits),
        "latency_tail_ms": None if high is None else {"percentile": high[0], "value": 1000.0 * high[1]},
        "pass_sample_s": phase.speed,
        "samples": len(sampler.durations),
        "setup_s_scaled": setup,
        "setup_s_unscaled": [t for t, _ in setup_raw],
        "unscaled": {
            "busy_s": phase.busy_s,
            "throughput_rps": n / phase.busy_s,
            "latency_p50_ms": 1000.0 * statistics.median(phase.latencies),
            "setup_s": statistics.median(t for t, _ in setup_raw),
        },
    }
    lines = [
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setup)} fresh interpreters)",
        f"throughput_rps = {values['throughput_rps']:.4f} 1/s ({n} requests, {phase.passes} passes)",
        f"latency_p50_ms = {values['latency_p50_ms']:.3f} ms (n = {n})",
        "latency_tail_ms = " + ("omitted: fewer than 11 requests" if high is None
                                else f"{1000.0 * high[1]:.3f} ms (p{high[0]:.1f}, n = {n})"),
        f"fail_ratio = {failed / n:.6f} ({failed} of {n})",
        f"min_digits = {values['min_digits']} digits (over {len(phase.digits)} checked values)",
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB",
        f"unscaled: {n / phase.busy_s:.4f} requests/s, p50 "
        f"{1000.0 * statistics.median(phase.latencies):.3f} ms, set-up {detail['unscaled']['setup_s']:.4f} s; "
        f"speed sample {1000.0 * statistics.median(phase.speed):.3f} ms against {1000.0 * sampler.reference} ms "
        f"({len(sampler.durations)} samples)",
    ]
    return [phase], metrics, detail, lines


def layer_run(boxcalc, args) -> tuple[list[Phase], dict, dict, list[str]]:
    """Half the time untraced, then half traced: the per-layer metrics and the tracing overhead."""
    sampler = SpeedSampler(args.workload)
    untraced = run_phase(boxcalc, args.workload, args.seed, args.seconds / 2, sampler)
    tracer = Tracer(clock=sampler.clock)
    hits_before = _rule_hits(boxcalc)
    with traced(tracer) as missing:
        traced_phase = run_phase(boxcalc, args.workload, args.seed, args.seconds / 2, sampler,
                                 first_pass=untraced.passes, tracer=tracer)
    hits = _rule_hits(boxcalc) - hits_before
    metrics = layer_metrics(tracer, traced_phase, hits, untraced.throughput())
    detail = {
        "untraced_passes": untraced.passes,
        "traced_passes": traced_phase.passes,
        "missing_wrappers": missing,
        "layer_self_s": dict(tracer.self_s),
        "inclusive_s": dict(tracer.inclusive_s),
        "counts": dict(tracer.counts),
        "spans_total": tracer.span_count,
        "spans": {"fields": ["id", "name", "start", "end", "parent", "request"], "rows": tracer.spans},
    }
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if missing:
        lines.append("not traced (not found): " + ", ".join(missing))
    return [untraced, traced_phase], metrics, detail, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # A process per workload, so that peak_rss_mb is each workload's own.
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)

    boxcalc = import_boxcalc()
    for request in WARMUP:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            boxcalc.cli.main(list(request))
    phases, metrics, detail, lines = (layer_run if args.trace else end_to_end_run)(boxcalc, args)

    failures = [f for p in phases for f in p.failures]
    result = {
        "correct": not any(p.wrong for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failures),
        "metrics": metrics,
    }
    info = machine()
    grouped = Counter(f"{f['kind']}: {f['problem']}" for f in failures)
    print(f"boxcalc benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for line in lines + [f"failed: {count} x {what}" for what, count in sorted(grouped.items())]:
        print(line)
    record = {"args": vars(args), "machine": info, "result": result, "detail": detail, "failures": failures[:100]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
