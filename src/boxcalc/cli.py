"""Command-line surface for vertex-sum integration.

Subcommands: integrate, check-antiderivative, parallelotope, triangle,
subdivide-check, impossibility.  Each command returns one record: its
result, diagnostics, human lines and exit code.  `main` renders the record
once: as the human lines, or under --json as one stable object
{"command", "inputs", "result", "diagnostics", "status"}, whose `inputs`
are the subcommand's flags.  Identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 usage, 2 expression parse, 3 numeric/domain,
4 check failed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import NamedTuple

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


class _ExprFailure(BoxcalcError):
    """Parse failure shown with its source text and a caret under the offset."""


# Exception type -> (stderr prefix, exit code); the first match wins.
_ERRORS = {
    UsageError: ("usage error", EXIT_USAGE),
    (_ExprFailure, ex.ParseError, polycalc.NonPolynomialError): ("parse error", EXIT_PARSE),
    ftc.SymmetryError: ("error", EXIT_CHECK_FAILED),
    BoxcalcError: ("error", EXIT_DOMAIN),
}


class _Record(NamedTuple):
    """What one command found; `main` renders it as human lines or as JSON."""

    result: dict
    diagnostics: dict
    human: list[str]
    code: int = EXIT_OK


# A value such as -1:1 or -1e-3 is an argument, not an option: no flag starts with a digit.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A misspelt or shortened flag is a usage error, not a prefix of some other flag.
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        raise UsageError(message)


def _fmt_float(value: float, digits: int) -> str:
    value = float(value)
    if not (value == value and abs(value) != float("inf")):
        raise DomainError(f"non-finite value {value!r} in output")
    return format(value, f".{digits}g")


def _hf(value: float) -> str:
    return _fmt_float(value, _HUMAN_DIGITS)


def _human(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return ", ".join(_human(v) for v in value)
    if isinstance(value, int):
        return str(value)
    return _hf(value)


def _lines(fields: dict, *names: str) -> list[str]:
    """One `name = value` line per named field, or per field when none are named."""
    return [f"{name} = {_human(fields[name])}" for name in names or fields]


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


def _scalar(text: str, what: str, exact: bool = False) -> Fraction:
    """A rational number; unless `exact`, it must also fit in a float."""
    text = text.strip()
    try:
        value = Fraction(text)
        if not exact:
            float(value)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"invalid {what} '{text}': expected a number") from err
    except OverflowError as err:
        raise UsageError(f"{what} '{text}' is outside the floating-point range") from err
    return value


def _parse_box(text: str, exact: bool = False) -> Hypercuboid:
    lowers = []
    uppers = []
    for j, part in enumerate(text.split(","), start=1):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise UsageError(f"--box axis {j}: expected 'a:b', got '{part.strip()}'")
        lowers.append(_scalar(pieces[0], f"--box axis {j} lower bound", exact))
        uppers.append(_scalar(pieces[1], f"--box axis {j} upper bound", exact))
    return Hypercuboid(tuple(lowers), tuple(uppers))


def _parse_vector(text: str, what: str) -> tuple[float, ...]:
    return tuple(float(_scalar(piece, what)) for piece in text.split(","))


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


def _check_dim(args, box: Hypercuboid) -> int:
    """Cross-check --dim against the box; the JSON `inputs` then report the box's dimension."""
    if args.dim is not None and args.dim != box.dim:
        raise UsageError(f"--dim {args.dim} does not match the {box.dim}-axis box")
    args.dim = box.dim
    return box.dim


def _parse_source(text: str, arity: int) -> ex.Expr:
    try:
        return ex.parse(text, arity)
    except ex.ParseError as err:
        raise _ExprFailure(f"{err}\n  {text}\n  {' ' * err.offset}^") from err


def _field(text: str, arity: int) -> ad.ScalarField:
    return ad.field_from_expression(_parse_source(text, arity), arity)


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(nodes=args.order, panels=args.panels)


def _exact_text(value: Fraction) -> str:
    """An exact value as text; one with more digits than Python prints is a DomainError."""
    try:
        return str(value)
    except ValueError:
        raise DomainError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits, too many to print"
        ) from None


def _contributions_json(contribs, exact: bool = False) -> list[dict]:
    return [
        {
            "label": str(label),
            "sign": sign,
            "antiderivative": _exact_text(value) if exact else float(value),
        }
        for label, sign, value in contribs
    ]


def _result(res: ftc.IntegralResult, value) -> dict:
    """`value`, then the oracle and its differences when one is attached."""
    result = {"value": value}
    if res.oracle is not None:
        result.update(oracle=res.oracle, abs_diff=res.abs_diff, rel_diff=res.rel_diff)
    return result


def cmd_integrate(args):
    # The exact route needs floats only for the oracle.
    box = _parse_box(args.box, exact=args.exact and not args.verify)
    n = _check_dim(args, box)
    if (args.f is None) == (args.F is None):
        raise UsageError("give exactly one of --f or --F")
    if args.verify and args.f is None:
        raise UsageError("--verify needs --f to run the quadrature oracle")
    quad = _quad_config(args)
    source = args.f if args.f is not None else args.F
    if args.exact:
        poly = polycalc.poly_from_expr(_parse_source(source, n), n)
        anti = poly if args.f is None else polycalc.poly_antiderivative(poly, box.lower)
        contribs = [
            (VertexLabel(bits), sign, v) for bits, sign, v in polycalc.poly_vertex_values(anti, box)
        ]
        value = sum((sign * v for _, sign, v in contribs), Fraction(0))
        if args.f is not None:
            value = polycalc.checked_box_integral(poly, box, value)
        # A Fraction value: with_oracle's difference rounds it to float first.
        res = ftc.IntegralResult(value, "vertex-sum-exact", tuple(contribs))
    else:
        field = _field(source, n)
        if args.f is not None:
            res = ftc.integrate_box_from_f(field, box, quad)
        else:
            res = ftc.integrate_box(field, box)
    if args.verify:
        oracle_field = ad.field_from_polynomial(poly) if args.exact else field
        res = ftc.with_oracle(res, gauss_legendre_box(oracle_field, box, quad))
    result = _result(res, _exact_text(res.value) if args.exact else res.value)
    diagnostics = {
        "method": res.method,
        "contributions": _contributions_json(res.contributions, exact=args.exact),
    }
    return _Record(result, diagnostics, _lines(result))


def cmd_check_antiderivative(args):
    box = _parse_box(args.box)
    n = _check_dim(args, box)
    report = ad.check_antiderivative(
        _field(args.f, n), _field(args.F, n), box, grid_points=args.grid_points, h=args.h, tol=args.tol
    )
    diagnostics = asdict(report)
    human = _lines(diagnostics, "max_abs_deviation", "max_rel_deviation", "worst_point")
    human.append(f"result: {'pass' if report.passed else 'FAIL'} (tol {_hf(report.tol)})")
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    return _Record({"value": report.max_rel_deviation}, diagnostics, human, code)


def cmd_parallelotope(args):
    origin = _parse_vector(args.origin, "--origin entry")
    columns = [_parse_vector(piece, "--edges entry") for piece in args.edges.split(";")]
    n = len(origin)
    if len(columns) != n or any(len(col) != n for col in columns):
        raise UsageError(f"--edges must give {n} columns of {n} entries each")
    p = Parallelotope.from_edge_vectors(origin, columns)
    f = _field(args.f, n)
    res = ftc.integrate_parallelotope(f, p, _quad_config(args))
    diagnostics = {
        "method": res.method,
        "determinant": p.det,
        "volume": p.volume(),
        "contributions": _contributions_json(res.contributions),
    }
    monte_carlo = []
    if args.verify:
        mc = monte_carlo_affine(f, origin, p.matrix, args.samples, args.seed)
        res = ftc.with_oracle(res, mc.estimate)
        diagnostics["oracle"] = {
            "method": "monte-carlo",
            "stderr": mc.stderr,
            "samples": mc.samples,
            "seed": mc.seed,
        }
        monte_carlo.append(
            f"monte-carlo: stderr = {_hf(mc.stderr)}, samples = {mc.samples}, seed = {mc.seed}"
        )
    result = _result(res, res.value)
    return _Record(result, diagnostics, _lines(result) + monte_carlo)


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
    sym = res.symmetry
    diagnostics = {
        "method": res.method,
        "contributions": _contributions_json(res.contributions),
        "symmetry": asdict(sym),
    }
    result = {"value": res.value}
    human = _lines(result) + [
        f"symmetry: pass (max deviation {_hf(sym.max_deviation)} at t = {_hf(sym.worst_t)}, "
        f"scale {_hf(sym.scale)}, tol {_hf(sym.tol)})"
    ]
    return _Record(result, diagnostics, human)


def cmd_subdivide_check(args):
    box = _parse_box(args.box)
    n = _check_dim(args, box)
    F = _field(args.F, n)
    splits = _parse_grid(args.grid, n)
    cuts = [
        [a + (b - a) * Fraction(i, k) for i in range(1, k)]
        for (a, b, k) in zip(box.lower, box.upper, splits)
    ]
    diagnostics = asdict(ftc.compositionality_check(F, box, cuts))
    return _Record({"value": diagnostics["lhs"]}, diagnostics, _lines(diagnostics))


def cmd_impossibility(args):
    report = ftc.triangle_impossibility_check()
    diagnostics = {
        "target": report.target,
        "target_orbit": report.target_orbit,
        "searches": [asdict(s) for s in report.searches],
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
    total_matches = sum(s.target_matches for s in report.searches)
    code = EXIT_OK if report.claim_holds else EXIT_CHECK_FAILED
    return _Record({"value": total_matches}, diagnostics, human, code)


def _add_json_flag(parser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one machine-readable JSON object")


def _add_quad_flags(parser, quad: QuadratureConfig = QuadratureConfig()) -> None:
    parser.add_argument(
        "--order", type=int, default=quad.nodes, help=f"quadrature nodes per panel (default {quad.nodes})"
    )
    parser.add_argument(
        "--panels", type=int, default=quad.panels, help=f"quadrature panels per axis (default {quad.panels})"
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
    p.set_defaults(
        func=cmd_integrate, inputs=("box", "dim", "f", "F", "exact", "verify", "order", "panels")
    )

    p = sub.add_parser("check-antiderivative", help="verify the mixed partial of --F matches --f on a grid")
    p.add_argument("--f", required=True, help="integrand expression")
    p.add_argument("--F", required=True, help="candidate antiderivative expression")
    p.add_argument("--box", required=True, help="per-axis bounds 'a1:b1,a2:b2,...'")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-4, help="relative tolerance (default 1e-4)")
    p.add_argument("--grid-points", type=int, default=5, help="interior grid points per axis (default 5)")
    p.add_argument(
        "--h",
        type=float,
        default=None,
        help="stencil half-width (default eps^(1/(n+2)) of each extent in n dimensions, eps = 2^-52)",
    )
    _add_json_flag(p)
    p.set_defaults(
        func=cmd_check_antiderivative, inputs=("box", "dim", "f", "F", "tol", "grid_points", "h")
    )

    p = sub.add_parser("parallelotope", help="integral over an affine image of the unit box")
    p.add_argument("--origin", required=True, help="origin vector 'o1,o2,...'")
    p.add_argument("--edges", required=True, help="edge vectors as matrix columns 'e11,e21;e12,e22'")
    p.add_argument("--f", required=True, help="integrand expression")
    p.add_argument("--verify", action="store_true", help="append a Monte Carlo oracle")
    p.add_argument("--samples", type=int, default=100000, help="Monte Carlo samples (default 100000)")
    p.add_argument("--seed", type=int, default=42, help="Monte Carlo seed (default 42)")
    _add_quad_flags(p)
    _add_json_flag(p)
    p.set_defaults(
        func=cmd_parallelotope,
        inputs=("origin", "edges", "f", "verify", "samples", "seed", "order", "panels"),
    )

    p = sub.add_parser("triangle", help="integral over a triangle with a QR-symmetric integrand")
    p.add_argument("--p", required=True, help="vertex P 'x,y'")
    p.add_argument("--q", required=True, help="vertex Q 'x,y'")
    p.add_argument("--r", required=True, help="vertex R 'x,y'")
    p.add_argument("--f", required=True, help="integrand expression in x1, x2")
    p.add_argument("--sym-tol", type=float, default=1e-9, help="symmetry tolerance (default 1e-9)")
    p.add_argument("--sym-samples", type=int, default=17, help="symmetry sample count (default 17)")
    # dense default: the extended integrand has a gradient seam along QR
    _add_quad_flags(p, ftc.TRIANGLE_QUAD)
    _add_json_flag(p)
    p.set_defaults(
        func=cmd_triangle, inputs=("p", "q", "r", "f", "sym_tol", "sym_samples", "order", "panels")
    )

    p = sub.add_parser("subdivide-check", help="compare a box vertex sum with its grid subdivision")
    p.add_argument("--F", required=True, help="antiderivative expression")
    p.add_argument("--box", required=True, help="per-axis bounds 'a1:b1,a2:b2,...'")
    p.add_argument("--grid", required=True, help="equal splits per axis 'k1,k2,...'")
    p.add_argument("--dim", type=int, default=None)
    _add_json_flag(p)
    p.set_defaults(func=cmd_subdivide_check, inputs=("box", "dim", "F", "grid"))

    p = sub.add_parser("impossibility", help="exhaustive search: no two-triangle sign pattern matches the box sum")
    _add_json_flag(p)
    p.set_defaults(func=cmd_impossibility, inputs=())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        record = args.func(args)
        if args.json:
            text = _to_json(
                {
                    "command": args.subcommand,
                    "inputs": {name: getattr(args, name) for name in args.inputs},
                    "result": record.result,
                    "diagnostics": record.diagnostics,
                    "status": "ok" if record.code == EXIT_OK else "fail",
                }
            )
        else:
            text = "\n".join(record.human)
    except SystemExit as err:
        return int(err.code or 0)
    except BoxcalcError as err:
        prefix, code = next(v for types, v in _ERRORS.items() if isinstance(err, types))
        print(f"{prefix}: {err}", file=sys.stderr)
        return code
    print(text)
    return record.code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
