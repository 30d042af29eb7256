import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxcalc
from boxcalc import cli


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRI_FAST = ["--order", "12", "--panels", "16"]


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
        # As its own process, so that a leaked numpy RuntimeWarning would
        # reach stderr the way a user sees it.
        env = dict(os.environ, PYTHONWARNINGS="default")
        src = str(Path(boxcalc.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "boxcalc.cli", "integrate", "--f", "exp(400*x1)*exp(400*x2)", "--box", "0:1,0:1"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: non-finite result in 'exp(400*x1)*exp(400*x2)' "
            "at point (0.7787621657257119, 0.9976950792808399)\n"
        )

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
        assert payload["diagnostics"]["h"] == [0.001, 0.001]
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
