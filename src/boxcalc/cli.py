"""Command-line surface for vertex-sum integration.

Subcommands: integrate, check-antiderivative, parallelotope, triangle,
subdivide-check, impossibility.  Every command honors --json with one stable
object: {"command", "inputs", "result", "diagnostics", "status"}.  Identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 usage, 2 expression parse, 3 numeric/domain,
4 check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import antiderivative as ad
from . import expression as ex
from . import ftc, polycalc
from .errors import BoxcalcError, DomainError
from .geometry import Hypercuboid, Parallelotope, VertexLabel
from .oracle import QuadratureConfig, gauss_legendre_box, monte_carlo_affine

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CHECK_FAILED = 4

_JSON_DIGITS = 17
_HUMAN_DIGITS = 10


class UsageError(BoxcalcError):
    """Malformed command line (bad flag combination or argument syntax)."""


class _ExprFailure(Exception):
    """Parse failure plus the source text, for caret rendering."""

    def __init__(self, source: str, err: ex.ParseError):
        super().__init__(str(err))
        self.source = source
        self.err = err


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _fmt_float(value: float, digits: int) -> str:
    value = float(value)
    if not (value == value and abs(value) != float("inf")):
        raise DomainError(f"non-finite value {value!r} in output")
    return format(value, f".{digits}g")


def _hf(value: float) -> str:
    return _fmt_float(value, _HUMAN_DIGITS)


def _to_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value, _JSON_DIGITS)
    if isinstance(value, dict):
        body = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _scalar(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"invalid {what} '{text.strip()}': expected a number") from err


def _parse_box(text: str) -> Hypercuboid:
    lowers = []
    uppers = []
    for j, part in enumerate(text.split(","), start=1):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise UsageError(f"--box axis {j}: expected 'a:b', got '{part.strip()}'")
        lowers.append(_scalar(pieces[0], f"--box axis {j} lower bound"))
        uppers.append(_scalar(pieces[1], f"--box axis {j} upper bound"))
    return Hypercuboid(tuple(lowers), tuple(uppers))


def _parse_vector(text: str, what: str) -> tuple[float, ...]:
    return tuple(float(_scalar(piece, what)) for piece in text.split(","))


def _parse_columns(text: str) -> list[tuple[float, ...]]:
    return [_parse_vector(piece, "--edges entry") for piece in text.split(";")]


def _parse_grid(text: str, dim: int) -> list[int]:
    pieces = text.split(",")
    if len(pieces) != dim:
        raise UsageError(f"--grid needs {dim} entries, got {len(pieces)}")
    splits = []
    for j, piece in enumerate(pieces, start=1):
        try:
            k = int(piece.strip())
        except ValueError as err:
            raise UsageError(f"--grid axis {j}: expected an integer, got '{piece.strip()}'") from err
        if k < 1:
            raise UsageError(f"--grid axis {j}: need at least one cell, got {k}")
        splits.append(k)
    return splits


def _check_dim(declared: int | None, actual: int) -> None:
    if declared is not None and declared != actual:
        raise UsageError(f"--dim {declared} does not match the {actual}-axis box")


def _parse_source(text: str, arity: int) -> ex.Expr:
    try:
        return ex.parse(text, arity)
    except ex.ParseError as err:
        raise _ExprFailure(text, err) from err


def _field(text: str, arity: int) -> ad.ScalarField:
    return ad.field_from_expression(_parse_source(text, arity), arity)


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(nodes=args.order, panels=args.panels)


def _contributions_json(contribs, exact: bool = False) -> list[dict]:
    return [
        {
            "label": str(label),
            "sign": sign,
            "antiderivative": str(value) if exact else float(value),
        }
        for label, sign, value in contribs
    ]


def _payload(command: str, inputs: dict, result: dict, diagnostics: dict, status: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics,
        "status": status,
    }


def _oracle_lines(result: dict) -> list[str]:
    return [
        f"oracle = {_hf(result['oracle'])}",
        f"abs_diff = {_hf(result['abs_diff'])}",
        f"rel_diff = {_hf(result['rel_diff'])}",
    ]


def cmd_integrate(args):
    box = _parse_box(args.box)
    n = box.dim
    _check_dim(args.dim, n)
    if (args.f is None) == (args.F is None):
        raise UsageError("give exactly one of --f or --F")
    if args.verify and args.f is None:
        raise UsageError("--verify needs --f to run the quadrature oracle")
    quad = _quad_config(args)
    source = args.f if args.f is not None else args.F
    inputs = {
        "box": args.box,
        "dim": n,
        "f": args.f,
        "F": args.F,
        "exact": args.exact,
        "verify": args.verify,
        "order": args.order,
        "panels": args.panels,
    }
    if args.exact:
        poly = polycalc.poly_from_expr(_parse_source(source, n), n)
        anti = poly if args.f is None else polycalc.poly_antiderivative(poly, box.lower)
        contribs = [
            (VertexLabel(bits), sign, v) for bits, sign, v in polycalc.poly_vertex_values(anti, box)
        ]
        value = sum((sign * v for _, sign, v in contribs), Fraction(0))
        if args.f is not None:
            value = polycalc.checked_box_integral(poly, box, value)
        result = {"value": str(value)}
        human = [f"value = {value}"]
        method = "vertex-sum-exact"
        diag_contribs = _contributions_json(contribs, exact=True)
        if args.verify:
            oracle = gauss_legendre_box(ad.field_from_polynomial(poly), box, quad)
            abs_diff = abs(float(value) - oracle)
            result["oracle"] = oracle
            result["abs_diff"] = abs_diff
            result["rel_diff"] = abs_diff / max(1.0, abs(oracle))
            human += _oracle_lines(result)
    else:
        field = _field(source, n)
        if args.f is not None:
            res = ftc.integrate_box_from_f(field, box, quad)
        else:
            res = ftc.integrate_box(field, box)
        if args.verify:
            res = ftc.with_oracle(res, gauss_legendre_box(field, box, quad))
        result = {"value": res.value}
        human = [f"value = {_hf(res.value)}"]
        method = res.method
        diag_contribs = _contributions_json(res.contributions)
        if args.verify:
            result["oracle"] = res.oracle
            result["abs_diff"] = res.abs_diff
            result["rel_diff"] = res.rel_diff
            human += _oracle_lines(result)
    diagnostics = {"method": method, "contributions": diag_contribs}
    return _payload("integrate", inputs, result, diagnostics, "ok"), human, EXIT_OK


def cmd_check_antiderivative(args):
    box = _parse_box(args.box)
    n = box.dim
    _check_dim(args.dim, n)
    f = _field(args.f, n)
    F = _field(args.F, n)
    report = ad.check_antiderivative(
        f, F, box, grid_points=args.grid_points, h=args.h, tol=args.tol
    )
    inputs = {
        "box": args.box,
        "dim": n,
        "f": args.f,
        "F": args.F,
        "tol": args.tol,
        "grid_points": args.grid_points,
        "h": args.h,
    }
    result = {"value": report.max_rel_deviation}
    diagnostics = {
        "passed": report.passed,
        "max_abs_deviation": report.max_abs_deviation,
        "max_rel_deviation": report.max_rel_deviation,
        "worst_point": list(report.worst_point),
        "tol": report.tol,
        "grid_points": report.grid_points,
        "h": list(report.h),
    }
    human = [
        f"max_abs_deviation = {_hf(report.max_abs_deviation)}",
        f"max_rel_deviation = {_hf(report.max_rel_deviation)}",
        "worst_point = " + ", ".join(_hf(c) for c in report.worst_point),
        f"result: {'pass' if report.passed else 'FAIL'} (tol {_hf(report.tol)})",
    ]
    status = "ok" if report.passed else "fail"
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    payload = _payload("check-antiderivative", inputs, result, diagnostics, status)
    return payload, human, code


def cmd_parallelotope(args):
    origin = _parse_vector(args.origin, "--origin entry")
    columns = _parse_columns(args.edges)
    n = len(origin)
    if len(columns) != n or any(len(col) != n for col in columns):
        raise UsageError(f"--edges must give {n} columns of {n} entries each")
    p = Parallelotope.from_edge_vectors(origin, columns)
    f = _field(args.f, n)
    res = ftc.integrate_parallelotope(f, p, _quad_config(args))
    inputs = {
        "origin": args.origin,
        "edges": args.edges,
        "f": args.f,
        "verify": args.verify,
        "samples": args.samples,
        "seed": args.seed,
        "order": args.order,
        "panels": args.panels,
    }
    diagnostics = {
        "method": res.method,
        "determinant": p.det,
        "volume": p.volume(),
        "contributions": _contributions_json(res.contributions),
    }
    human = [f"value = {_hf(res.value)}"]
    if args.verify:
        mc = monte_carlo_affine(f, origin, p.matrix, args.samples, args.seed)
        res = ftc.with_oracle(res, mc.estimate)
        diagnostics["oracle"] = {
            "method": "monte-carlo",
            "stderr": mc.stderr,
            "samples": mc.samples,
            "seed": mc.seed,
        }
    result = {"value": res.value}
    if args.verify:
        result["oracle"] = res.oracle
        result["abs_diff"] = res.abs_diff
        result["rel_diff"] = res.rel_diff
        human += _oracle_lines(result)
        human.append(
            f"monte-carlo: stderr = {_hf(diagnostics['oracle']['stderr'])}, "
            f"samples = {args.samples}, seed = {args.seed}"
        )
    payload = _payload("parallelotope", inputs, result, diagnostics, "ok")
    return payload, human, EXIT_OK


def cmd_triangle(args):
    pv = _parse_vector(args.p, "--p entry")
    qv = _parse_vector(args.q, "--q entry")
    rv = _parse_vector(args.r, "--r entry")
    for name, v in (("--p", pv), ("--q", qv), ("--r", rv)):
        if len(v) != 2:
            raise UsageError(f"{name} must have 2 coordinates, got {len(v)}")
    f = _field(args.f, 2)
    res = ftc.integrate_triangle_symmetric(
        f, pv, qv, rv, _quad_config(args), sym_tol=args.sym_tol, sym_samples=args.sym_samples
    )
    inputs = {
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "f": args.f,
        "sym_tol": args.sym_tol,
        "sym_samples": args.sym_samples,
        "order": args.order,
        "panels": args.panels,
    }
    sym = res.symmetry
    diagnostics = {
        "method": res.method,
        "contributions": _contributions_json(res.contributions),
        "symmetry": {
            "passed": sym.passed,
            "max_deviation": sym.max_deviation,
            "worst_t": sym.worst_t,
            "scale": sym.scale,
            "samples": sym.samples,
            "tol": sym.tol,
        },
    }
    human = [
        f"value = {_hf(res.value)}",
        f"symmetry: pass (max deviation {_hf(sym.max_deviation)} at t = {_hf(sym.worst_t)}, "
        f"scale {_hf(sym.scale)}, tol {_hf(sym.tol)})",
    ]
    payload = _payload("triangle", inputs, {"value": res.value}, diagnostics, "ok")
    return payload, human, EXIT_OK


def cmd_subdivide_check(args):
    box = _parse_box(args.box)
    n = box.dim
    _check_dim(args.dim, n)
    F = _field(args.F, n)
    splits = _parse_grid(args.grid, n)
    cuts = [
        [a + (b - a) * Fraction(i, k) for i in range(1, k)]
        for (a, b, k) in zip(box.lower, box.upper, splits)
    ]
    rep = ftc.compositionality_check(F, box, cuts)
    inputs = {"box": args.box, "dim": n, "F": args.F, "grid": args.grid}
    diagnostics = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "abs_diff": rep.abs_diff,
        "subboxes": rep.subboxes,
    }
    human = [
        f"lhs = {_hf(rep.lhs)}",
        f"rhs = {_hf(rep.rhs)}",
        f"abs_diff = {_hf(rep.abs_diff)}",
        f"subboxes = {rep.subboxes}",
    ]
    payload = _payload("subdivide-check", inputs, {"value": rep.lhs}, diagnostics, "ok")
    return payload, human, EXIT_OK


def cmd_impossibility(args):
    report = ftc.triangle_impossibility_check()
    total_matches = sum(s.target_matches for s in report.searches)
    diagnostics = {
        "target": list(report.target),
        "target_orbit": [list(t) for t in report.target_orbit],
        "searches": [
            {
                "diagonal": s.diagonal,
                "triangles": [list(t) for t in s.triangles],
                "assignments": s.assignments,
                "target_matches": s.target_matches,
                "shared_coefficient_values": list(s.shared_coefficient_values),
                "zero_vector_matches": s.zero_vector_matches,
                "cancelling_shared_patterns": s.cancelling_shared_patterns,
            }
            for s in report.searches
        ],
    }
    human = []
    for s in report.searches:
        tris = " + ".join("(" + ",".join(t) + ")" for t in s.triangles)
        shared = ", ".join(str(v) for v in s.shared_coefficient_values)
        human.append(
            f"diagonal {s.diagonal}: triangles {tris}: "
            f"{s.target_matches} of {s.assignments} assignments match; "
            f"shared coefficients {{{shared}}}"
        )
    verdict = "claim verified" if report.claim_holds else "claim REFUTED"
    per_run = report.searches[0]
    human.append(
        f"{per_run.target_matches} of {per_run.assignments} assignments match, "
        f"per triangulation; {verdict}"
    )
    status = "ok" if report.claim_holds else "fail"
    code = EXIT_OK if report.claim_holds else EXIT_CHECK_FAILED
    payload = _payload("impossibility", {}, {"value": total_matches}, diagnostics, status)
    return payload, human, code


def _add_json_flag(parser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one machine-readable JSON object")


def _add_quad_flags(parser, order: int = 12, panels: int = 4) -> None:
    parser.add_argument(
        "--order", type=int, default=order, help=f"quadrature nodes per panel (default {order})"
    )
    parser.add_argument(
        "--panels", type=int, default=panels, help=f"quadrature panels per axis (default {panels})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="boxcalc", description="Integrate by signed vertex sums of antiderivatives.")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("integrate", help="integral over a box via the alternating vertex sum")
    p.add_argument("--box", required=True, help="per-axis bounds 'a1:b1,a2:b2,...' (rationals allowed)")
    p.add_argument("--dim", type=int, default=None, help="expected dimension, cross-checked against --box")
    p.add_argument("--f", default=None, help="integrand expression in x1..xn")
    p.add_argument("--F", default=None, help="antiderivative expression; its vertex sum is reported directly")
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic (polynomial input only)")
    p.add_argument("--verify", action="store_true", help="append a tensor-product quadrature oracle (needs --f)")
    _add_quad_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("check-antiderivative", help="verify the mixed partial of --F matches --f on a grid")
    p.add_argument("--f", required=True, help="integrand expression")
    p.add_argument("--F", required=True, help="candidate antiderivative expression")
    p.add_argument("--box", required=True, help="per-axis bounds 'a1:b1,a2:b2,...'")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-4, help="relative tolerance (default 1e-4)")
    p.add_argument("--grid-points", type=int, default=5, help="interior grid points per axis (default 5)")
    p.add_argument("--h", type=float, default=None, help="stencil half-width (default 1e-3 of each extent)")
    _add_json_flag(p)
    p.set_defaults(func=cmd_check_antiderivative)

    p = sub.add_parser("parallelotope", help="integral over an affine image of the unit box")
    p.add_argument("--origin", required=True, help="origin vector 'o1,o2,...'")
    p.add_argument("--edges", required=True, help="edge vectors as matrix columns 'e11,e21;e12,e22'")
    p.add_argument("--f", required=True, help="integrand expression")
    p.add_argument("--verify", action="store_true", help="append a Monte Carlo oracle")
    p.add_argument("--samples", type=int, default=100000, help="Monte Carlo samples (default 100000)")
    p.add_argument("--seed", type=int, default=42, help="Monte Carlo seed (default 42)")
    _add_quad_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_parallelotope)

    p = sub.add_parser("triangle", help="integral over a triangle with a QR-symmetric integrand")
    p.add_argument("--p", required=True, help="vertex P 'x,y'")
    p.add_argument("--q", required=True, help="vertex Q 'x,y'")
    p.add_argument("--r", required=True, help="vertex R 'x,y'")
    p.add_argument("--f", required=True, help="integrand expression in x1, x2")
    p.add_argument("--sym-tol", type=float, default=1e-9, help="symmetry tolerance (default 1e-9)")
    p.add_argument("--sym-samples", type=int, default=17, help="symmetry sample count (default 17)")
    # dense default: the extended integrand has a gradient seam along QR
    _add_quad_flags(p, order=32, panels=192)
    _add_json_flag(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("subdivide-check", help="compare a box vertex sum with its grid subdivision")
    p.add_argument("--F", required=True, help="antiderivative expression")
    p.add_argument("--box", required=True, help="per-axis bounds 'a1:b1,a2:b2,...'")
    p.add_argument("--grid", required=True, help="equal splits per axis 'k1,k2,...'")
    p.add_argument("--dim", type=int, default=None)
    _add_json_flag(p)
    p.set_defaults(func=cmd_subdivide_check)

    p = sub.add_parser("impossibility", help="exhaustive search: no two-triangle sign pattern matches the box sum")
    _add_json_flag(p)
    p.set_defaults(func=cmd_impossibility)

    return parser


def _print_parse_error(failure: _ExprFailure) -> None:
    print(f"parse error: {failure.err}", file=sys.stderr)
    print(f"  {failure.source}", file=sys.stderr)
    print("  " + " " * failure.err.offset + "^", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:
        return int(err.code or 0)
    try:
        payload, human, code = args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _ExprFailure as failure:
        _print_parse_error(failure)
        return EXIT_PARSE
    except polycalc.NonPolynomialError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ex.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ftc.SymmetryError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except BoxcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(_to_json(payload))
    else:
        for line in human:
            print(line)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
