"""The package surface: the public name list, what each public callable accepts, and module privacy."""

import ast
import inspect
from pathlib import Path

import pytest

import boxcalc

SOURCE = Path(boxcalc.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in boxcalc.__all__ if not hasattr(boxcalc, name)]
    assert missing == []


def test_public_names_are_sorted_and_unique():
    assert boxcalc.__all__ == sorted(set(boxcalc.__all__))


# The parameters of every public callable, and of every public method of a
# public class.  A dataclass's parameters are its init fields; an exception
# that keeps Exception's constructor takes *args.  Adding or removing a
# settable value shows up here as a diff.
ACCEPTS = {
    "BoxcalcError": ("*args",),
    "BudgetExceededError": ("*args",),
    "CheckReport": (
        "passed",
        "max_abs_deviation",
        "max_rel_deviation",
        "worst_point",
        "tol",
        "grid_points",
        "h",
    ),
    "CompositionalityReport": ("lhs", "rhs", "abs_diff", "subboxes"),
    "DomainError": ("*args",),
    "EvalError": ("message", "node", "point"),
    "GaugeDependenceError": ("*args",),
    "Hypercuboid": ("lower", "upper"),
    "Hypercuboid.extents": (),
    "Hypercuboid.volume": (),
    "Hypercuboid.is_degenerate": (),
    "Hypercuboid.vertex_point": ("label",),
    "ImpossibilityReport": ("claim_holds", "target", "target_orbit", "searches"),
    "IntegralResult": (
        "value",
        "method",
        "contributions",
        "oracle",
        "abs_diff",
        "rel_diff",
        "symmetry",
    ),
    "InternalCheckError": ("*args",),
    "MonteCarloEstimate": ("estimate", "stderr", "samples", "seed"),
    "NonPolynomialError": ("*args",),
    "Parallelotope": ("origin", "columns"),
    "Parallelotope.from_edge_vectors": ("origin", "vectors"),
    "Parallelotope.volume": (),
    "Parallelotope.vertex_point": ("label",),
    "ParseError": ("message", "offset"),
    "Polynomial": ("arity", "terms"),
    "Polynomial.constant": ("arity", "value"),
    "Polynomial.variable": ("arity", "index"),
    "Polynomial.is_zero": (),
    "Polynomial.is_constant": (),
    "Polynomial.constant_value": (),
    "QuadratureConfig": ("nodes", "panels"),
    "ScalarField": ("arity", "fn", "tag"),
    "ScalarField.evaluate": ("points",),
    "SymmetryError": ("report",),
    "SymmetryReport": ("passed", "max_deviation", "worst_t", "scale", "samples", "tol"),
    "TriangulationSearch": (
        "diagonal",
        "triangles",
        "assignments",
        "target_matches",
        "shared_coefficient_values",
        "zero_vector_matches",
        "cancelling_shared_patterns",
    ),
    "VertexLabel": ("bits",),
    "VertexLabel.from_index": ("index", "dim"),
    "VertexLabel.as_index": (),
    "builtin_field": ("name", "arity"),
    "builtin_names": (),
    "check_antiderivative": ("f", "F", "box", "grid_points", "h", "tol"),
    "check_segment_symmetry": ("f", "q", "r", "tol", "samples"),
    "checked_determinant": ("matrix",),
    "compositionality_check": ("F", "box", "cuts"),
    "count_zeros": ("label",),
    "evaluate": ("node", "point"),
    "evaluate_batch": ("node", "points"),
    "evaluate_grid": ("node", "columns"),
    "field_from_callable": ("fn", "arity", "tag", "batch"),
    "field_from_expression": ("source", "arity", "tag"),
    "field_from_polynomial": ("p",),
    "gauge_add": ("F", "C", "constant_axes", "domain"),
    "gauss_legendre_box": ("f", "box", "cfg"),
    "integrate_box": ("F", "box"),
    "integrate_box_from_f": ("f", "box", "quad"),
    "integrate_parallelotope": ("f", "p", "quad"),
    "integrate_triangle_symmetric": ("f", "p", "q", "r", "quad", "sym_tol", "sym_samples"),
    "legendre_rule": ("q",),
    "mirror_extend": ("g",),
    "mixed_partial": ("F", "x", "h"),
    "monomial_product_integral": ("p", "box"),
    "monte_carlo_affine": ("f", "origin", "edges", "samples", "seed"),
    "numeric_antiderivative": ("f", "corner", "quad"),
    "parse": ("text", "n_vars"),
    "poly_antiderivative": ("p", "corner"),
    "poly_box_integral": ("p", "box"),
    "poly_eval": ("p", "point"),
    "poly_from_expr": ("node", "arity"),
    "poly_mixed_partial": ("p",),
    "poly_vertex_sum": ("p", "box"),
    "pullback_field": ("f", "origin", "matrix"),
    "subdivide_grid": ("box", "cuts"),
    "to_text": ("node",),
    "triangle_impossibility_check": (),
    "vertex_sign": ("label",),
    "vertex_sum_integral": ("p", "box"),
    "vertices_lex": ("box",),
    "with_oracle": ("result", "oracle_value"),
}


def _accepts(obj) -> tuple[str, ...]:
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # a builtin constructor, Exception's
        return ("*args",)
    prefix = {inspect.Parameter.VAR_POSITIONAL: "*", inspect.Parameter.VAR_KEYWORD: "**"}
    return tuple(prefix.get(p.kind, "") + p.name for p in params if p.name != "self")


def test_every_public_callable_accepts_the_pinned_parameters():
    got = {}
    for name in boxcalc.__all__:
        obj = getattr(boxcalc, name)
        got[name] = _accepts(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                ):
                    got[f"{name}.{attr}"] = _accepts(getattr(obj, attr))
    assert got == ACCEPTS


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()  # local names bound to other boxcalc modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert found == []
