import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boxcalc
from boxcalc import cli
from boxcalc.antiderivative import default_steps


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRI_FAST = ["--order", "12", "--panels", "16"]


def run_process(args):
    """The CLI as its own process, so that a leaked numpy RuntimeWarning would
    reach stderr the way a user sees it."""
    env = dict(os.environ, PYTHONWARNINGS="default")
    src = str(Path(boxcalc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "boxcalc.cli", *args], capture_output=True, text=True, timeout=60, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestIntegrate:
    def test_human_golden(self, capsys):
        code, out, err = run(capsys, ["integrate", "--f", "x1*x2", "--box", "0:1,0:1"])
        assert (code, out, err) == (0, "value = 0.25\n", "")

    def test_antiderivative_route(self, capsys):
        code, out, _ = run(capsys, ["integrate", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1"])
        assert (code, out) == (0, "value = 0.25\n")

    def test_exact_rational_output(self, capsys):
        code, out, _ = run(capsys, ["integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--exact"])
        assert (code, out) == (0, "value = 1/4\n")

    def test_exact_accepts_rational_bounds(self, capsys):
        code, out, _ = run(
            capsys, ["integrate", "--f", "x1*x2", "--box", "1/3:2/3,0:1", "--exact"]
        )
        assert (code, out) == (0, "value = 1/12\n")

    def test_exact_route_accepts_bounds_beyond_the_float_range(self, capsys):
        code, out, err = run(capsys, ["integrate", "--f", "x1", "--box", "0:1e400", "--exact"])
        assert (code, out, err) == (0, f"value = {10**800 // 2}\n", "")

    def test_exact_antiderivative_route(self, capsys):
        code, out, _ = run(
            capsys, ["integrate", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1", "--exact"]
        )
        assert (code, out) == (0, "value = 1/4\n")

    def test_json_schema_and_verify(self, capsys):
        code, out, _ = run(
            capsys, ["integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--verify", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["command", "inputs", "result", "diagnostics", "status"]
        assert payload["command"] == "integrate"
        assert payload["status"] == "ok"
        assert list(payload["result"]) == ["value", "oracle", "abs_diff", "rel_diff"]
        assert payload["result"]["value"] == payload["result"]["oracle"]
        assert payload["result"]["abs_diff"] == 0
        contributions = payload["diagnostics"]["contributions"]
        assert [c["label"] for c in contributions] == ["00", "01", "10", "11"]
        assert [c["sign"] for c in contributions] == [1, -1, -1, 1]
        assert all(c["antiderivative"] == 0 for c in contributions[:3])

    def test_human_value_matches_json_to_printed_precision(self, capsys):
        args = ["integrate", "--f", "exp(x1+x2)", "--box", "0:1,-1:1"]
        _, human, _ = run(capsys, args)
        _, raw, _ = run(capsys, args + ["--json"])
        value = json.loads(raw)["result"]["value"]
        assert human == f"value = {value:.10g}\n"

    def test_reruns_are_byte_identical(self, capsys):
        args = ["integrate", "--f", "sin(x1)*exp(x2)", "--box", "0:2,0:1", "--verify", "--json"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    @pytest.mark.parametrize(
        "args,message",
        [
            (["integrate", "--box", "0:1"], "give exactly one of --f or --F"),
            (
                ["integrate", "--f", "x1", "--F", "x1^2/2", "--box", "0:1"],
                "give exactly one of --f or --F",
            ),
            (
                ["integrate", "--f", "x1", "--box", "0;1"],
                "--box axis 1: expected 'a:b', got '0;1'",
            ),
            (
                ["integrate", "--f", "x1", "--box", "0:1,0:1", "--dim", "3"],
                "--dim 3 does not match the 2-axis box",
            ),
            (
                ["integrate", "--F", "x1^2/2", "--box", "0:1", "--verify"],
                "--verify needs --f",
            ),
            (
                ["integrate", "--f", "x1", "--box", "0:1e400"],
                "--box axis 1 upper bound '1e400' is outside the floating-point range",
            ),
            (
                ["integrate", "--F", "x1*x2", "--box", "0:1,-1e400:0"],
                "--box axis 2 lower bound '-1e400' is outside the floating-point range",
            ),
            (
                ["integrate", "--f", "x1", "--box", "0:1e400", "--exact", "--verify"],
                "--box axis 1 upper bound '1e400' is outside the floating-point range",
            ),
            # No flag is read as a prefix of a longer one.
            (["integrate", "--f", "x1", "--box", "-1:1", "--h", "1"], "unrecognized arguments: --h 1"),
            (["integrate", "--f", "x1", "--box", "0:1", "--verif"], "unrecognized arguments: --verif"),
            (["integrate", "--f", "x1", "--bo", "0:1"], "the following arguments are required: --box"),
        ],
    )
    def test_usage_errors(self, capsys, args, message):
        code, out, err = run(capsys, args)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")
        assert message in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, ["nonsense"])
        assert code == 1
        assert "invalid choice: 'nonsense'" in err

    def test_parse_error_with_caret(self, capsys):
        code, out, err = run(capsys, ["integrate", "--f", "x1 x2", "--box", "0:1,0:1"])
        assert code == 2
        assert out == ""
        assert err == "parse error: unexpected token 'x2' (at offset 3)\n  x1 x2\n     ^\n"

    def test_caret_points_at_the_offset(self, capsys):
        code, _, err = run(capsys, ["integrate", "--f", "x3", "--box", "0:1,0:1"])
        assert code == 2
        assert err == (
            "parse error: unknown variable 'x3' (2 variables declared) (at offset 0)\n"
            "  x3\n"
            "  ^\n"
        )

    def test_exact_rejects_non_polynomial(self, capsys):
        code, _, err = run(capsys, ["integrate", "--f", "sin(x1)", "--box", "0:1", "--exact"])
        assert code == 2
        assert err == "parse error: 'sin' is not polynomial\n"

    def test_numeric_domain_errors_exit_3(self, capsys):
        code, _, err = run(capsys, ["integrate", "--f", "x1", "--box", "1:0"])
        assert (code, err) == (3, "error: axis 1: lower bound 1 exceeds upper bound 0\n")
        code, _, err = run(capsys, ["integrate", "--f", "log(x1-2)", "--box", "0:1"])
        assert code == 3
        assert err.startswith("error: log of a non-positive value in 'log(x1-2)' at point")

    def test_overflow_prints_only_the_error_line(self):
        code, out, err = run_process(["integrate", "--f", "exp(400*x1)*exp(400*x2)", "--box", "0:1,0:1"])
        assert (code, out) == (3, "")
        assert err == (
            "error: non-finite result in 'exp(400*x1)*exp(400*x2)' "
            "at point (0.7787621657257119, 0.9976950792808399)\n"
        )

    @pytest.mark.parametrize(
        "f, box", [("1e300+x1", "0:1e10"), ("x1", "0:1e200,0:1e200")], ids=["sum", "weights"]
    )
    def test_cubature_overflow_prints_only_the_error_line(self, f, box):
        code, out, err = run_process(["integrate", "--f", f, "--box", box])
        assert (code, out) == (3, "")
        assert err == "error: Gauss-Legendre cubature: the weighted sum is not finite\n"

    def test_bad_quadrature_request_exits_3(self, capsys):
        code, _, err = run(
            capsys, ["integrate", "--f", "x1", "--box", "0:1", "--verify", "--order", "40"]
        )
        assert (code, err) == (3, "error: nodes per panel must be in [2, 32], got 40\n")


class TestCheckAntiderivative:
    GOOD = ["check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1"]
    BAD = ["check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2", "--box", "0:1,0:1"]

    def test_pass(self, capsys):
        code, out, _ = run(capsys, self.GOOD)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("max_abs_deviation = ")
        assert lines[1].startswith("max_rel_deviation = ")
        assert lines[2].startswith("worst_point = ")
        assert lines[3] == "result: pass (tol 0.0001)"

    def test_fail_exits_4(self, capsys):
        code, out, _ = run(capsys, self.BAD)
        assert code == 4
        assert out.splitlines()[-1] == "result: FAIL (tol 0.0001)"

    def test_antiderivative_failing_on_a_stencil_corner_exits_3(self, capsys):
        code, out, err = run(
            capsys,
            ["check-antiderivative", "--f", "x2/(x1-0.5)", "--F", "log(x1-0.5)*x2^2/2", "--box", "0:1,0:1"],
        )
        assert (code, out) == (3, "")
        assert err == "error: log of a non-positive value in 'log(x1-0.5)' at point (0.0, 0.0)\n"

    def test_nan_step_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, self.GOOD + ["--h", "nan"])
        assert (code, out) == (3, "")
        assert err == "error: all steps h must be positive and finite, got h=(nan, nan)\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, self.GOOD + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["diagnostics"]["passed"] is True
        assert payload["result"]["value"] == payload["diagnostics"]["max_rel_deviation"]
        assert payload["diagnostics"]["h"] == list(default_steps(boxcalc.Hypercuboid((0.0, 0.0), (1.0, 1.0))))
        code, out, _ = run(capsys, self.BAD + ["--json"])
        assert code == 4
        assert json.loads(out)["status"] == "fail"


class TestParallelotope:
    def test_area_golden(self, capsys):
        code, out, _ = run(
            capsys, ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "2,0;1,1"]
        )
        assert (code, out) == (0, "value = 2\n")

    def test_verify_with_monte_carlo(self, capsys):
        args = [
            "parallelotope", "--f", "x1", "--origin", "0,0", "--edges", "2,0;1,1",
            "--verify", "--samples", "20000",
        ]
        code, out, _ = run(capsys, args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value = 3"
        assert lines[1].startswith("oracle = ")
        assert lines[4] == "monte-carlo: stderr = 0.009154131166, samples = 20000, seed = 42"

    def test_verify_json(self, capsys):
        args = [
            "parallelotope", "--f", "x1", "--origin", "0,0", "--edges", "2,0;1,1",
            "--verify", "--samples", "20000", "--json",
        ]
        code, out, _ = run(capsys, args)
        payload = json.loads(out)
        assert code == 0
        assert payload["diagnostics"]["determinant"] == 2
        assert payload["diagnostics"]["volume"] == 2
        oracle = payload["diagnostics"]["oracle"]
        assert oracle["method"] == "monte-carlo"
        assert (oracle["samples"], oracle["seed"]) == (20000, 42)
        assert abs(payload["result"]["value"] - 3.0) < 1e-8
        assert payload["result"]["abs_diff"] < 4 * oracle["stderr"]

    def test_verify_reruns_are_byte_identical(self, capsys):
        args = [
            "parallelotope", "--f", "exp(x1)", "--origin", "0,0", "--edges", "1,0;0,1",
            "--verify", "--json",
        ]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    def test_singular_edges_exit_3(self, capsys):
        code, _, err = run(
            capsys, ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "1,2;2,4"]
        )
        assert code == 3
        assert err == "error: edge matrix is singular or nearly singular (det 0)\n"

    @pytest.mark.parametrize(
        "edges, code, out, err",
        [
            # The determinant, 1e400, overflows.
            ("1e200,0;0,1e200", 3, "", "error: edge matrix determinant about 1e+400 overflows"),
            # Only the Frobenius norm overflows; the determinant is 1e308.
            ("1e154,0;0,1e154", 0, "value = 1e+308\n", ""),
            # The determinant, 1e-340, underflows.
            ("1e-170,0;0,1e-170", 3, "", "error: edge matrix determinant about 1e-340 underflows"),
        ],
        ids=["overflow", "norm-overflow", "underflow"],
    )
    def test_determinant_out_of_range_is_not_called_singular(self, edges, code, out, err):
        if err:
            err += " the floating-point range\n"
        assert run_process(["parallelotope", "--origin", "0,0", "--edges", edges, "--f", "1"]) == (code, out, err)

    def test_volume_times_the_unit_box_integral_that_overflows_exits_3(self):
        # The pulled-back integrand's cubature is finite; |det T| times it is not.
        args = ["parallelotope", "--f", "x1+x2", "--origin", "1e300,0", "--edges", "1e10,0;0,1e10"]
        assert run_process(args) == (
            3,
            "",
            "error: the integral 1.0000000000000005e+300 on the unit box times |det T| = "
            "1.0000000000000008e+20 overflows the floating-point range\n",
        )

    def test_ragged_edges_exit_1(self, capsys):
        code, _, err = run(
            capsys, ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "1,2;2"]
        )
        assert code == 1
        assert err == "usage error: --edges must give 2 columns of 2 entries each\n"


class TestTriangle:
    BASE = ["triangle", "--f", "x1+x2", "--p", "0,0", "--q", "1,0", "--r", "0,1"]

    def test_fast_quadrature_golden(self, capsys):
        code, out, _ = run(capsys, self.BASE + TRI_FAST)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value = 0.3333367613"
        assert lines[1] == (
            "symmetry: pass (max deviation 0 at t = 0.05555555556, scale 1, tol 1e-09)"
        )

    def test_default_quadrature_meets_tight_tolerance(self, capsys):
        code, out, _ = run(capsys, self.BASE + ["--json"])
        assert code == 0
        value = json.loads(out)["result"]["value"]
        assert abs(value - 1.0 / 3.0) <= 1e-8

    def test_json_diagnostics(self, capsys):
        code, out, _ = run(capsys, self.BASE + TRI_FAST + ["--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["diagnostics"]["method"] == "triangle"
        sym = payload["diagnostics"]["symmetry"]
        assert sym["passed"] is True
        assert sym["samples"] == 17

    def test_asymmetric_integrand_exits_4(self, capsys):
        code, _, err = run(
            capsys, ["triangle", "--f", "x1", "--p", "0,0", "--q", "1,0", "--r", "0,1"] + TRI_FAST
        )
        assert code == 4
        assert err.startswith("error: integrand is not symmetric along the segment QR")

    def test_degenerate_triangle_exits_3(self, capsys):
        code, _, err = run(
            capsys, ["triangle", "--f", "1", "--p", "0,0", "--q", "1,1", "--r", "2,2"] + TRI_FAST
        )
        assert code == 3
        assert err.startswith("error: degenerate triangle")

    def test_vertex_must_have_two_coordinates(self, capsys):
        code, _, err = run(
            capsys, ["triangle", "--f", "1", "--p", "0,0,0", "--q", "1,0", "--r", "0,1"] + TRI_FAST
        )
        assert code == 1
        assert "--p" in err


class TestSubdivideCheck:
    ARGS = ["subdivide-check", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1", "--grid", "2,1"]

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert out == "lhs = 0.25\nrhs = 0.25\nabs_diff = 0\nsubboxes = 2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["diagnostics"]["subboxes"] == 2
        assert payload["result"]["value"] == payload["diagnostics"]["lhs"]

    def test_empty_grid_cell_count_rejected(self, capsys):
        code, _, err = run(
            capsys, ["subdivide-check", "--F", "x1", "--box", "0:1", "--grid", "0"]
        )
        assert code == 1
        assert err == "usage error: --grid axis 1: need at least one cell, got 0\n"


class TestImpossibility:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, ["impossibility"])
        assert code == 0
        assert out == (
            "diagonal 00-11: triangles (00,10,11) + (00,11,01): 0 of 64 assignments match; "
            "shared coefficients {-2, 0, 2}\n"
            "diagonal 01-10: triangles (00,10,01) + (10,11,01): 0 of 64 assignments match; "
            "shared coefficients {-2, 0, 2}\n"
            "0 of 64 assignments match, per triangulation; claim verified\n"
        )

    def test_json_counts(self, capsys):
        code, out, _ = run(capsys, ["impossibility", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["result"]["value"] == 0
        for search in payload["diagnostics"]["searches"]:
            assert search["assignments"] == 64
            assert search["target_matches"] == 0
            assert search["shared_coefficient_values"] == [-2, 0, 2]

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["impossibility", "--json"])
        _, second, _ = run(capsys, ["impossibility", "--json"])
        assert first == second


class TestLimits:
    @pytest.mark.parametrize(
        "source, offset",
        [
            ("+".join(["x1"] * 2000), 299),  # a flat sum is a left-deep chain
            ("(" * 300 + "x1" + ")" * 300, 99),
            ("-" * 3000 + "x1", 99),
        ],
        ids=["flat-sum", "parentheses", "minus-signs"],
    )
    def test_an_expression_nested_too_deep_is_one_parse_error(self, capsys, source, offset):
        code, out, err = run(capsys, ["integrate", "--F=" + source, "--box", "0:1"])
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: expression nests deeper than 100 levels (at offset {offset})\n"
            f"  {source}\n  {' ' * offset}^\n"
        )

    @pytest.mark.parametrize(
        "source, box, err",
        [
            ("x1^100000000", "0:1", "a power's exponent exceeds the degree budget 1000"),
            ("x1^2^2^2^2^2", "0:1", "a power's exponent exceeds the degree budget 1000"),
            ("(x1+x2+x3+x4)^60", "0:1,0:1,0:1,0:1", "2382660 coefficient products exceed the budget 100000"),
            ("x1^20000", "0:3", "a power's exponent exceeds the degree budget 1000"),
            ("x1", "0:1e5000", f"an exact value has more than {sys.get_int_max_str_digits()} digits, too many to print"),
        ],
        ids=["huge-power", "power-tower", "dense-power", "high-degree", "long-value"],
    )
    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    def test_the_exact_route_refuses_what_it_cannot_finish_or_print(self, capsys, source, box, err, as_json):
        start = time.perf_counter()
        code, out, got_err = run(capsys, ["integrate", "--exact", "--f", source, "--box", box] + ["--json"] * as_json)
        assert time.perf_counter() - start < 1.0
        assert (code, out, got_err) == (3, "", f"error: {err}\n")


class TestHarness:
    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert out.startswith("usage: boxcalc")

    def test_installed_entry_point(self, tmp_path):
        # Run the [project.scripts] target the way an installed launcher does,
        # as its own process, without relying on an install or on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["boxcalc"]
        module, func = target.split(":")
        launcher = tmp_path / "boxcalc_launcher.py"
        launcher.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
        env = dict(os.environ)
        src = str(Path(boxcalc.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

        def launch(*args):
            return subprocess.run(
                [sys.executable, str(launcher), *args],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )

        proc = launch("integrate", "--f", "x1", "--box", "0:1")
        assert proc.returncode == 0
        assert proc.stdout == "value = 0.5\n"
        assert proc.stderr == ""
        proc = launch("integrate", "--f", "x1", "--box", "1:0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "",
            "error: axis 1: lower bound 1 exceeds upper bound 0\n",
        )


@pytest.mark.parametrize(
    "args, what",
    [
        (["check-antiderivative", "--f", "1", "--F", "x1", "--box", "0:1e400"], "--box axis 1 upper bound '1e400'"),
        (["subdivide-check", "--F", "x1", "--box", "0:1,1e400:1", "--grid", "1,1"], "--box axis 2 lower bound '1e400'"),
        (["parallelotope", "--f", "x1", "--origin", "0", "--edges", "1e400"], "--edges entry '1e400'"),
        (["parallelotope", "--f", "x1", "--origin", "1e400", "--edges", "1"], "--origin entry '1e400'"),
        (["triangle", "--f", "1", "--p", "1e400,0", "--q", "1,0", "--r", "0,1"], "--p entry '1e400'"),
        (["triangle", "--f", "1", "--p", "0,0", "--q", "1,-1e400", "--r", "0,1"], "--q entry '-1e400'"),
        (["triangle", "--f", "1", "--p", "0,0", "--q", "1,0", "--r", "1e400,1"], "--r entry '1e400'"),
    ],
)
def test_numbers_outside_the_float_range_are_usage_errors(capsys, args, what):
    code, out, err = run(capsys, args)
    assert (code, out, err) == (1, "", f"usage error: {what} is outside the floating-point range\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["parallelotope", "--f", "x1", "--origin", "0", "--edges", "1", "--verify", "--seed", "-1"],
            "seed must be non-negative, got -1",
        ),
        (TestCheckAntiderivative.GOOD + ["--tol", "nan"], "tolerance must be non-negative and finite, got tol=nan"),
        (TestCheckAntiderivative.GOOD + ["--tol", "-1"], "tolerance must be non-negative and finite, got tol=-1.0"),
        (TestCheckAntiderivative.GOOD + ["--tol", "inf"], "tolerance must be non-negative and finite, got tol=inf"),
        (TestTriangle.BASE + ["--sym-tol", "nan"], "tolerance must be non-negative and finite, got tol=nan"),
        (TestTriangle.BASE + ["--sym-tol", "-1"], "tolerance must be non-negative and finite, got tol=-1.0"),
    ],
)
def test_bad_seeds_and_tolerances_exit_3(capsys, args, message):
    assert run(capsys, args) == (3, "", f"error: {message}\n")


def test_readme_json_example_is_the_real_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### JSON shape", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    _, out, _ = run(capsys, ["integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--json"])
    assert re.sub(r"\s", "", example) == re.sub(r"\s", "", out)


# Every float in a masked golden reads '#', so cubature and Monte Carlo runs pin
# their key order and every other field without depending on the last digits.
FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+")

# argv, masked, exit code, human stdout, --json stdout, stderr of both runs.
GOLDENS = [
    pytest.param(
        ["integrate", "--f", "x1*x2", "--box", "0:1,0:1"],
        False, 0,
        "value = 0.25\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1,0:1", "dim": 2, "f": "x1*x2", '
            '"F": null, "exact": false, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": 0.25000000000000011}, "diagnostics": {"method": "vertex-sum", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, '
            '"antiderivative": 0.25000000000000011}]}, "status": "ok"}\n'
        ),
        "",
        id="integrate-f",
    ),
    pytest.param(
        ["integrate", "--f", "x1*x2", "--box", "1/3:2/3,0:1", "--exact"],
        False, 0,
        "value = 1/12\n",
        (
            '{"command": "integrate", "inputs": {"box": "1/3:2/3,0:1", "dim": 2, "f": "x1*x2", '
            '"F": null, "exact": true, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": "1/12"}, "diagnostics": {"method": "vertex-sum-exact", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": "0"}, '
            '{"label": "01", "sign": -1, "antiderivative": "0"}, {"label": "10", "sign": -1, '
            '"antiderivative": "0"}, {"label": "11", "sign": 1, "antiderivative": "1/12"}]}, '
            '"status": "ok"}\n'
        ),
        "",
        id="integrate-exact",
    ),
    pytest.param(
        ["integrate", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1", "--exact", "--dim", "2"],
        False, 0,
        "value = 1/4\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1,0:1", "dim": 2, "f": null, '
            '"F": "x1^2*x2^2/4", "exact": true, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": "1/4"}, "diagnostics": {"method": "vertex-sum-exact", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": "0"}, '
            '{"label": "01", "sign": -1, "antiderivative": "0"}, {"label": "10", "sign": -1, '
            '"antiderivative": "0"}, {"label": "11", "sign": 1, "antiderivative": "1/4"}]}, '
            '"status": "ok"}\n'
        ),
        "",
        id="integrate-exact-F",
    ),
    pytest.param(
        ["integrate", "--F", "x1^2*x2/2", "--box", "0:1/2,0:3/4"],
        False, 0,
        "value = 0.09375\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1/2,0:3/4", "dim": 2, "f": null, '
            '"F": "x1^2*x2/2", "exact": false, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": 0.09375}, "diagnostics": {"method": "vertex-sum", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, "antiderivative": 0.09375}]}, '
            '"status": "ok"}\n'
        ),
        "",
        id="integrate-F",
    ),
    pytest.param(
        ["integrate", "--F", "x1*x2*x3", "--box=-1:1,0:2,1/2:1"],
        False, 0,
        "value = 2\n",
        (
            '{"command": "integrate", "inputs": {"box": "-1:1,0:2,1/2:1", "dim": 3, "f": null, '
            '"F": "x1*x2*x3", "exact": false, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": 2}, "diagnostics": {"method": "vertex-sum", '
            '"contributions": [{"label": "000", "sign": -1, "antiderivative": -0}, '
            '{"label": "001", "sign": 1, "antiderivative": -0}, {"label": "010", "sign": 1, '
            '"antiderivative": -1}, {"label": "011", "sign": -1, "antiderivative": -2}, '
            '{"label": "100", "sign": 1, "antiderivative": 0}, {"label": "101", "sign": -1, '
            '"antiderivative": 0}, {"label": "110", "sign": -1, "antiderivative": 1}, '
            '{"label": "111", "sign": 1, "antiderivative": 2}]}, "status": "ok"}\n'
        ),
        "",
        id="integrate-F-3d",
    ),
    pytest.param(
        ["integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--verify"],
        True, 0,
        "value = #\noracle = #\nabs_diff = 0\nrel_diff = 0\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1,0:1", "dim": 2, "f": "x1*x2", '
            '"F": null, "exact": false, "verify": true, "order": 12, "panels": 4}, '
            '"result": {"value": #, "oracle": #, "abs_diff": 0, "rel_diff": 0}, '
            '"diagnostics": {"method": "vertex-sum", "contributions": [{"label": "00", '
            '"sign": 1, "antiderivative": 0}, {"label": "01", "sign": -1, '
            '"antiderivative": 0}, {"label": "10", "sign": -1, "antiderivative": 0}, '
            '{"label": "11", "sign": 1, "antiderivative": #}]}, "status": "ok"}\n'
        ),
        "",
        id="integrate-verify",
    ),
    pytest.param(
        ["integrate", "--f", "x1*x2", "--box", "0:1,0:1", "--exact", "--verify"],
        True, 0,
        "value = 1/4\noracle = #\nabs_diff = #\nrel_diff = #\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1,0:1", "dim": 2, "f": "x1*x2", '
            '"F": null, "exact": true, "verify": true, "order": 12, "panels": 4}, '
            '"result": {"value": "1/4", "oracle": #, "abs_diff": #, "rel_diff": #}, '
            '"diagnostics": {"method": "vertex-sum-exact", "contributions": [{"label": "00", '
            '"sign": 1, "antiderivative": "0"}, {"label": "01", "sign": -1, '
            '"antiderivative": "0"}, {"label": "10", "sign": -1, "antiderivative": "0"}, '
            '{"label": "11", "sign": 1, "antiderivative": "1/4"}]}, "status": "ok"}\n'
        ),
        "",
        id="integrate-exact-verify",
    ),
    pytest.param(
        [
            "integrate", "--f", "exp(x1+x2)", "--box", "0:1,-1:1", "--order", "8", "--panels",
            "2",
        ],
        True, 0,
        "value = #\n",
        (
            '{"command": "integrate", "inputs": {"box": "0:1,-1:1", "dim": 2, '
            '"f": "exp(x1+x2)", "F": null, "exact": false, "verify": false, "order": 8, '
            '"panels": 2}, "result": {"value": #}, "diagnostics": {"method": "vertex-sum", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, "antiderivative": #}]}, '
            '"status": "ok"}\n'
        ),
        "",
        id="integrate-quadrature",
    ),
    pytest.param(
        ["check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1"],
        True, 0,
        # The default step is 2^-13 here, so every corner value and vertex sum is exact.
        (
            "max_abs_deviation = 0\nmax_rel_deviation = 0\nworst_point = #, #\nresult: pass "
            "(tol #)\n"
        ),
        (
            '{"command": "check-antiderivative", "inputs": {"box": "0:1,0:1", "dim": 2, '
            '"f": "x1*x2", "F": "x1^2*x2^2/4", "tol": #, "grid_points": 5, "h": null}, '
            '"result": {"value": 0}, "diagnostics": {"passed": true, "max_abs_deviation": 0, '
            '"max_rel_deviation": 0, "worst_point": [#, #], "tol": #, "grid_points": 5, '
            '"h": [#, #]}, "status": "ok"}\n'
        ),
        "",
        id="check-pass",
    ),
    pytest.param(
        [
            "check-antiderivative", "--f", "cos(x1)*cos(x2)*cos(x3)*cos(x4)*cos(x5)",
            "--F", "sin(x1)*sin(x2)*sin(x3)*sin(x4)*sin(x5)", "--box", "0:1,0:1,0:1,0:1,0:1",
            "--grid-points", "3",
        ],
        True, 0,
        (
            "max_abs_deviation = #\nmax_rel_deviation = #\nworst_point = #, #, #, #, #\n"
            "result: pass (tol #)\n"
        ),
        (
            '{"command": "check-antiderivative", "inputs": {"box": "0:1,0:1,0:1,0:1,0:1", "dim": 5, '
            '"f": "cos(x1)*cos(x2)*cos(x3)*cos(x4)*cos(x5)", "F": "sin(x1)*sin(x2)*sin(x3)*sin(x4)*sin(x5)", '
            '"tol": #, "grid_points": 3, "h": null}, "result": {"value": #}, "diagnostics": '
            '{"passed": true, "max_abs_deviation": #, "max_rel_deviation": #, '
            '"worst_point": [#, #, #, #, #], "tol": #, "grid_points": 3, "h": [#, #, #, #, #]}, '
            '"status": "ok"}\n'
        ),
        "",
        id="check-pass-5d",
    ),
    pytest.param(
        ["check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2", "--box", "0:1,0:1"],
        True, 4,
        (
            "max_abs_deviation = #\nmax_rel_deviation = #\nworst_point = #, #\nresult: FAIL "
            "(tol #)\n"
        ),
        (
            '{"command": "check-antiderivative", "inputs": {"box": "0:1,0:1", "dim": 2, '
            '"f": "x1*x2", "F": "x1^2*x2", "tol": #, "grid_points": 5, "h": null}, '
            '"result": {"value": #}, "diagnostics": {"passed": false, "max_abs_deviation": #, '
            '"max_rel_deviation": #, "worst_point": [#, #], "tol": #, "grid_points": 5, '
            '"h": [#, #]}, "status": "fail"}\n'
        ),
        "",
        id="check-fail",
    ),
    pytest.param(
        [
            "check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1",
            "--tol", "0.001", "--grid-points", "3", "--h", "0.01",
        ],
        True, 0,
        (
            "max_abs_deviation = #\nmax_rel_deviation = #\nworst_point = #, #\nresult: pass "
            "(tol #)\n"
        ),
        (
            '{"command": "check-antiderivative", "inputs": {"box": "0:1,0:1", "dim": 2, '
            '"f": "x1*x2", "F": "x1^2*x2^2/4", "tol": #, "grid_points": 3, "h": #}, '
            '"result": {"value": #}, "diagnostics": {"passed": true, "max_abs_deviation": #, '
            '"max_rel_deviation": #, "worst_point": [#, #], "tol": #, "grid_points": 3, '
            '"h": [#, #]}, "status": "ok"}\n'
        ),
        "",
        id="check-options",
    ),
    pytest.param(
        ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "2,0;1,1"],
        True, 0,
        "value = 2\n",
        (
            '{"command": "parallelotope", "inputs": {"origin": "0,0", "edges": "2,0;1,1", '
            '"f": "1", "verify": false, "samples": 100000, "seed": 42, "order": 12, '
            '"panels": 4}, "result": {"value": #}, "diagnostics": {"method": "parallelotope", '
            '"determinant": 2, "volume": 2, "contributions": [{"label": "00", "sign": 1, '
            '"antiderivative": 0}, {"label": "01", "sign": -1, "antiderivative": 0}, '
            '{"label": "10", "sign": -1, "antiderivative": 0}, {"label": "11", "sign": 1, '
            '"antiderivative": #}]}, "status": "ok"}\n'
        ),
        "",
        id="parallelotope",
    ),
    pytest.param(
        [
            "parallelotope", "--f", "x1", "--origin", "0,0", "--edges", "2,0;1,1", "--verify",
            "--samples", "1000", "--seed", "7",
        ],
        True, 0,
        (
            "value = 3\noracle = #\nabs_diff = #\nrel_diff = #\nmonte-carlo: stderr = #, "
            "samples = 1000, seed = 7\n"
        ),
        (
            '{"command": "parallelotope", "inputs": {"origin": "0,0", "edges": "2,0;1,1", '
            '"f": "x1", "verify": true, "samples": 1000, "seed": 7, "order": 12, "panels": 4}, '
            '"result": {"value": #, "oracle": #, "abs_diff": #, "rel_diff": #}, '
            '"diagnostics": {"method": "parallelotope", "determinant": 2, "volume": 2, '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, "antiderivative": #}], '
            '"oracle": {"method": "monte-carlo", "stderr": #, "samples": 1000, "seed": 7}}, '
            '"status": "ok"}\n'
        ),
        "",
        id="parallelotope-verify",
    ),
    pytest.param(
        [
            "triangle", "--f", "x1+x2", "--p", "0,0", "--q", "1,0", "--r", "0,1", "--order",
            "12", "--panels", "16",
        ],
        True, 0,
        "value = #\nsymmetry: pass (max deviation 0 at t = #, scale 1, tol #)\n",
        (
            '{"command": "triangle", "inputs": {"p": "0,0", "q": "1,0", "r": "0,1", '
            '"f": "x1+x2", "sym_tol": #, "sym_samples": 17, "order": 12, "panels": 16}, '
            '"result": {"value": #}, "diagnostics": {"method": "triangle", '
            '"contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, "antiderivative": #}], '
            '"symmetry": {"passed": true, "max_deviation": 0, "worst_t": #, "scale": 1, '
            '"samples": 17, "tol": #}}, "status": "ok"}\n'
        ),
        "",
        id="triangle",
    ),
    pytest.param(
        ["subdivide-check", "--F", "x1^2*x2^2/4", "--box", "0:1,0:1", "--grid", "2,1"],
        False, 0,
        "lhs = 0.25\nrhs = 0.25\nabs_diff = 0\nsubboxes = 2\n",
        (
            '{"command": "subdivide-check", "inputs": {"box": "0:1,0:1", "dim": 2, '
            '"F": "x1^2*x2^2/4", "grid": "2,1"}, "result": {"value": 0.25}, '
            '"diagnostics": {"lhs": 0.25, "rhs": 0.25, "abs_diff": 0, "subboxes": 2}, '
            '"status": "ok"}\n'
        ),
        "",
        id="subdivide",
    ),
    pytest.param(
        [
            "subdivide-check", "--F", "x1*x2*x3", "--box", "0:1,0:2,0:1/2", "--grid", "2,2,1",
            "--dim", "3",
        ],
        False, 0,
        "lhs = 1\nrhs = 1\nabs_diff = 0\nsubboxes = 4\n",
        (
            '{"command": "subdivide-check", "inputs": {"box": "0:1,0:2,0:1/2", "dim": 3, '
            '"F": "x1*x2*x3", "grid": "2,2,1"}, "result": {"value": 1}, '
            '"diagnostics": {"lhs": 1, "rhs": 1, "abs_diff": 0, "subboxes": 4}, '
            '"status": "ok"}\n'
        ),
        "",
        id="subdivide-3d",
    ),
    pytest.param(
        ["impossibility"],
        False, 0,
        (
            "diagonal 00-11: triangles (00,10,11) + (00,11,01): 0 of 64 assignments match; "
            "shared coefficients {-2, 0, 2}\ndiagonal 01-10: triangles (00,10,01) + "
            "(10,11,01): 0 of 64 assignments match; shared coefficients {-2, 0, 2}\n"
            "0 of 64 assignments match, per triangulation; claim verified\n"
        ),
        (
            '{"command": "impossibility", "inputs": {}, "result": {"value": 0}, '
            '"diagnostics": {"target": [1, -1, -1, 1], "target_orbit": [[-1, 1, 1, -1], [1, '
            '-1, -1, 1]], "searches": [{"diagonal": "00-11", "triangles": [["00", "10", "11"], '
            '["00", "11", "01"]], "assignments": 64, "target_matches": 0, '
            '"shared_coefficient_values": [-2, 0, 2], "zero_vector_matches": 0, '
            '"cancelling_shared_patterns": 4}, {"diagonal": "01-10", "triangles": [["00", '
            '"10", "01"], ["10", "11", "01"]], "assignments": 64, "target_matches": 0, '
            '"shared_coefficient_values": [-2, 0, 2], "zero_vector_matches": 0, '
            '"cancelling_shared_patterns": 4}]}, "status": "ok"}\n'
        ),
        "",
        id="impossibility",
    ),
    pytest.param(
        ["integrate", "--box", "0:1"],
        False, 1,
        "",
        "",
        "usage error: give exactly one of --f or --F\n",
        id="usage-no-integrand",
    ),
    pytest.param(
        ["integrate", "--f", "x1"],
        False, 1,
        "",
        "",
        "usage error: the following arguments are required: --box\n",
        id="usage-missing-flag",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box", "0:x"],
        False, 1,
        "",
        "",
        "usage error: invalid --box axis 1 upper bound 'x': expected a number\n",
        id="usage-bad-number",
    ),
    pytest.param(
        ["subdivide-check", "--F", "x1", "--box", "0:1", "--grid", "1", "--dim", "2"],
        False, 1,
        "",
        "",
        "usage error: --dim 2 does not match the 1-axis box\n",
        id="usage-dim",
    ),
    pytest.param(
        ["subdivide-check", "--F", "x1*x2", "--box", "0:1,0:1", "--grid", "1"],
        False, 1,
        "",
        "",
        "usage error: --grid needs 2 entries, got 1\n",
        id="usage-grid",
    ),
    pytest.param(
        ["triangle", "--f", "1", "--p", "0,0,0", "--q", "1,0", "--r", "0,1"],
        False, 1,
        "",
        "",
        "usage error: --p must have 2 coordinates, got 3\n",
        id="usage-vertex",
    ),
    pytest.param(
        ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "1,2;2"],
        False, 1,
        "",
        "",
        "usage error: --edges must give 2 columns of 2 entries each\n",
        id="usage-edges",
    ),
    pytest.param(
        ["check-antiderivative", "--f", "x1*", "--F", "x1", "--box", "0:1"],
        False, 2,
        "",
        "",
        "parse error: unexpected token 'end of input' (at offset 3)\n  x1*\n     ^\n",
        id="parse-caret",
    ),
    pytest.param(
        ["integrate", "--f", "sin(x1)", "--box", "0:1", "--exact"],
        False, 2,
        "",
        "",
        "parse error: 'sin' is not polynomial\n",
        id="parse-non-polynomial",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box", "1:0"],
        False, 3,
        "",
        "",
        "error: axis 1: lower bound 1 exceeds upper bound 0\n",
        id="domain-box",
    ),
    pytest.param(
        ["parallelotope", "--f", "1", "--origin", "0,0", "--edges", "1,2;2,4"],
        False, 3,
        "",
        "",
        "error: edge matrix is singular or nearly singular (det 0)\n",
        id="domain-singular",
    ),
    pytest.param(
        ["triangle", "--f", "1", "--p", "0,0", "--q", "1,1", "--r", "2,2"],
        False, 3,
        "",
        "",
        "error: degenerate triangle: area 0.000e+00 below threshold for perimeter 5.66\n",
        id="domain-degenerate",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box", "0:1", "--verify", "--order", "40"],
        False, 3,
        "",
        "",
        "error: nodes per panel must be in [2, 32], got 40\n",
        id="domain-quadrature",
    ),
    pytest.param(
        [
            "triangle", "--f", "x1", "--p", "0,0", "--q", "1,0", "--r", "0,1", "--order", "12",
            "--panels", "16",
        ],
        False, 4,
        "",
        "",
        (
            "error: integrand is not symmetric along the segment QR: "
            "worst deviation 9.444444e-01 at t = 0.944444 "
            "(tolerance 1e-09 relative to scale 0.972222)\n"
        ),
        id="check-asymmetric",
    ),
    # A flag value that starts with '-' and a digit is a value, not an option.
    pytest.param(
        ["integrate", "--f", "x1", "--box", "-1:1"],
        True, 0,
        "value = #\n",
        (
            '{"command": "integrate", "inputs": {"box": "-1:1", "dim": 1, "f": "x1", "F": null, '
            '"exact": false, "verify": false, "order": 12, "panels": 4}, "result": {"value": #}, '
            '"diagnostics": {"method": "vertex-sum", "contributions": [{"label": "0", "sign": -1, '
            '"antiderivative": 0}, {"label": "1", "sign": 1, "antiderivative": #}]}, "status": "ok"}\n'
        ),
        "",
        id="negative-box-bound",
    ),
    pytest.param(
        ["parallelotope", "--f", "1", "--origin", "-1,0", "--edges", "1,0;0,1"],
        True, 0,
        "value = 1\n",
        (
            '{"command": "parallelotope", "inputs": {"origin": "-1,0", "edges": "1,0;0,1", "f": "1", '
            '"verify": false, "samples": 100000, "seed": 42, "order": 12, "panels": 4}, '
            '"result": {"value": #}, "diagnostics": {"method": "parallelotope", "determinant": 1, '
            '"volume": 1, "contributions": [{"label": "00", "sign": 1, "antiderivative": 0}, '
            '{"label": "01", "sign": -1, "antiderivative": 0}, {"label": "10", "sign": -1, '
            '"antiderivative": 0}, {"label": "11", "sign": 1, "antiderivative": #}]}, "status": "ok"}\n'
        ),
        "",
        id="negative-origin",
    ),
    pytest.param(
        ["check-antiderivative", "--f", "1", "--F", "x1", "--box", "0:1", "--h", "-1e-3"],
        False, 3,
        "",
        "",
        "error: all steps h must be positive and finite, got h=(-0.001,)\n",
        id="negative-step",
    ),
    # The default step, 2^-13 of a 1e-305 extent, leaves a subnormal stencil scale.
    pytest.param(
        ["check-antiderivative", "--f", "x1*x2", "--F", "x1^2*x2^2/4", "--box", "0:1e-305,0:1"],
        False, 3,
        "",
        "",
        "error: the stencil scale prod(2*h) = 5.96e-313 is not a normal float, "
        "got h=(1.220703125e-309, 0.0001220703125)\n",
        id="underflowing-stencil-scale",
    ),
    # Grids far beyond memory are refused before anything is allocated.
    pytest.param(
        [
            "check-antiderivative", "--f", "x1*x2*x3", "--F", "x1^2*x2^2*x3^2/8",
            "--box", "0:1,0:1,0:1", "--grid-points", "3000",
        ],
        False, 3,
        "",
        "",
        "error: 6000*6000*6000 grid points exceed the budget 100000000\n",
        id="budget-check",
    ),
    pytest.param(
        ["subdivide-check", "--F", "x1*x2*x3", "--box", "0:1,0:1,0:1", "--grid", "5000,5000,5000"],
        False, 3,
        "",
        "",
        "error: 5001*5001*5001 grid points exceed the budget 100000000\n",
        id="budget-subdivide",
    ),
    pytest.param(
        [
            "parallelotope", "--f", "x1", "--origin", "0,0", "--edges", "1,0;0,1",
            "--verify", "--samples", "300000000",
        ],
        False, 3,
        "",
        "",
        "error: 300000000 grid points exceed the budget 100000000\n",
        id="budget-monte-carlo",
    ),
    # A box of more than 2^16 vertices is refused before F is evaluated.
    pytest.param(
        ["integrate", "--F", "x1", "--box", ",".join(["0:1"] * 17)],
        False, 3,
        "",
        "",
        "error: 2^17 vertices exceed the vertex budget 65536\n",
        id="vertex-budget",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--exact", "--box", ",".join(["0:1"] * 17)],
        False, 3,
        "",
        "",
        "error: 2^17 vertices exceed the vertex budget 65536\n",
        id="vertex-budget-exact",
    ),
    # Float vertex sums and cubature panels that overflow are domain errors, not tracebacks.
    pytest.param(
        ["integrate", "--F", "x1", "--box=-1e308:1e308"],
        False, 3,
        "",
        "",
        "error: a vertex sum overflows the floating-point range\n",
        id="overflowing-vertex-sum",
    ),
    pytest.param(
        ["subdivide-check", "--F", "x1", "--box=-1e308:1e308", "--grid", "3"],
        False, 3,
        "",
        "",
        "error: a vertex sum overflows the floating-point range\n",
        id="overflowing-subdivision",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box", "0:1e308"],
        False, 3,
        "",
        "",
        "error: axis 1: the cubature's panels on [0, 1e+308] overflow the floating-point range\n",
        id="overflowing-panels",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box=-1e308:1e308"],
        False, 3,
        "",
        "",
        "error: axis 1: the cubature's panels on [-1e+308, 1e+308] overflow the floating-point range\n",
        id="overflowing-span",
    ),
    # Finite panels whose edges sum past the range: the rule's nodes stay finite.
    pytest.param(
        ["integrate", "--f", "1", "--box=1.5e308:1.7e308"],
        False, 0,
        "value = 2e+307\n",
        (
            '{"command": "integrate", "inputs": {"box": "1.5e308:1.7e308", "dim": 1, "f": "1", '
            '"F": null, "exact": false, "verify": false, "order": 12, "panels": 4}, '
            '"result": {"value": 1.9999999999999997e+307}, "diagnostics": {"method": "vertex-sum", '
            '"contributions": [{"label": "0", "sign": -1, "antiderivative": 0}, '
            '{"label": "1", "sign": 1, "antiderivative": 1.9999999999999997e+307}]}, "status": "ok"}\n'
        ),
        "",
        id="overflowing-edge-sum",
    ),
    pytest.param(
        ["integrate", "--f", "x1", "--box=1.5e308:1.7e308"],
        False, 3,
        "",
        "",
        "error: Gauss-Legendre cubature: the weighted sum is not finite\n",
        id="overflowing-edge-sum-weighted",
    ),

]


@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
@pytest.mark.parametrize("argv, masked, code, human, json_out, err", GOLDENS)
def test_full_output_golden(capsys, argv, masked, code, human, json_out, err, as_json):
    got_code, out, got_err = run(capsys, argv + ["--json"] if as_json else argv)
    if masked:
        out = FLOAT.sub("#", out)
    assert (got_code, out, got_err) == (code, json_out if as_json else human, err)
