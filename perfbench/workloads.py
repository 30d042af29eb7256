"""Seeded request lists for the three benchmark workloads, with references.

A workload is a fixed list of request slots.  The seed and the pass index
choose every number in a slot (coefficients, bounds, vertices, the split of
a cubature's points into --order and --panels), while the slot's kind,
dimension, expression shape and point count stay fixed.  So every pass of
every seed does about the same work, yet no two passes send the same input,
and a result cache cannot serve a pass from an earlier one.

References never call boxcalc: closed forms for separable box integrands and
for exponentials of linear forms over parallelotopes, exact Fraction
integrals of products of univariate polynomials, and a collapsed (Duffy)
Gauss-Legendre rule over triangles, which has no seam.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("dense-cubature", "triangle-default", "small-requests")

EXIT_OK = 0
EXIT_CHECK_FAILED = 4

# Relative tolerance |v - ref| / max(1, |ref|) for floating results.  The
# triangle gate matches the package's own acceptance tests.
TOL_BOX = 1e-10
TOL_TRIANGLE = 1e-8
# A seeded Monte Carlo oracle must land within this many standard errors.
MC_SIGMAS = 6.0


@dataclass(frozen=True)
class Request:
    """One request and what a correct response looks like.

    `argv` is a CLI request, run in-process with --json appended.  `call` is
    a library request: ("check-numeric", f_text, lower, upper, grid_points),
    checking a numeric antiderivative of f against f.  `ref` is the exact
    value as a Fraction string when `tol` is 0, else a float; None means only
    the exit code and status are checked.
    """

    kind: str
    argv: tuple[str, ...] | None
    call: tuple | None
    code: int
    ref: float | str | None
    tol: float


def build(workload: str, seed: int, pass_index: int) -> list[Request]:
    """Request list for one pass of a workload."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return _BUILDERS[workload](rng)


# --- number formatting -------------------------------------------------------


def _num(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def _lit(v: float) -> str:
    """Expression literal; the grammar's literals are unsigned."""
    return repr(v) if v >= 0 else f"(-{-v!r})"


def _box_text(lower, upper) -> str:
    return ",".join(f"{a}:{b}" for a, b in zip(lower, upper))


def _vector_text(v) -> str:
    return ",".join(repr(x) for x in v)


def _float_box(rng, dim, lo=-1.0, hi=0.5, min_len=0.5, max_len=1.5):
    lower = [_num(rng, lo, hi) for _ in range(dim)]
    upper = [round(a + _num(rng, min_len, max_len), 4) for a in lower]
    return lower, upper


# --- separable integrands ----------------------------------------------------
# A factor is (text in x, antiderivative text in x, exact integral over [a, b]).


def _factor(kind: str, rng: random.Random, var: str):
    if kind == "exp":
        a = _num(rng, 0.3, 1.2) * rng.choice((-1, 1))
        return (
            f"exp({_lit(a)}*{var})",
            f"exp({_lit(a)}*{var})/{_lit(a)}",
            lambda lo, hi: (math.exp(a * hi) - math.exp(a * lo)) / a,
        )
    if kind == "cos":
        a = _num(rng, 0.5, 2.0)
        c = _num(rng, -0.5, 0.5)
        return (
            f"cos({_lit(a)}*{var}+{_lit(c)})",
            f"sin({_lit(a)}*{var}+{_lit(c)})/{_lit(a)}",
            lambda lo, hi: (math.sin(a * hi + c) - math.sin(a * lo + c)) / a,
        )
    if kind == "poly":
        p = _num(rng, 0.5, 1.5)
        q = _num(rng, -0.5, 0.5)
        return (
            f"({_lit(p)}+{_lit(q)}*{var}^2)",
            f"({_lit(p)}*{var}+{_lit(q)}*{var}^3/3)",
            lambda lo, hi: p * (hi - lo) + q * (hi**3 - lo**3) / 3.0,
        )
    raise ValueError(kind)


def _separable(kinds, rng):
    """f = prod_j g_j(x_j), its antiderivative F = prod_j G_j(x_j), and a box-integral closure."""
    factors = [_factor(kind, rng, f"x{j}") for j, kind in enumerate(kinds, start=1)]
    f_text = "*".join(f for f, _, _ in factors)
    F_text = "*".join(F for _, F, _ in factors)

    def integral(lower, upper) -> float:
        return math.prod(i(a, b) for (_, _, i), a, b in zip(factors, lower, upper))

    return f_text, F_text, integral


_KINDS = ("exp", "cos", "poly")


def _kinds(dim: int, offset: int) -> tuple[str, ...]:
    return tuple(_KINDS[(offset + j) % 3] for j in range(dim))


def _split(rng: random.Random, per_axis: int) -> tuple[int, int]:
    """Seeded --order, --panels with order * panels == per_axis and order in [4, 32]."""
    orders = [q for q in range(4, 33) if per_axis % q == 0]
    q = rng.choice(orders)
    return q, per_axis // q


# --- dense-cubature ------------------------------------------------------------
# Points per axis fixed per slot; (per_axis)**dim runs from 1.1e5 to 2.4e6,
# on both sides of the cubature's 2**20-point evaluation block.
_DENSE_BOX = (
    # (dim, points per axis, --verify)
    (2, 384, False),  # 1.5e5
    (2, 1152, True),  # 1.3e6
    (2, 1536, False),  # 2.4e6
    (3, 48, True),  # 1.1e5
    (3, 96, False),  # 8.8e5
    (3, 120, True),  # 1.7e6
    (4, 24, True),  # 3.3e5
    (4, 36, False),  # 1.7e6
)
_DENSE_PARALLELOTOPE = (
    # (dim, points per axis, Monte Carlo samples)
    (2, 512, 200_000),  # 2.6e5
    (3, 96, 200_000),  # 8.8e5
    (4, 30, 100_000),  # 8.1e5
)


def _dense(rng: random.Random) -> list[Request]:
    out = []
    for slot, (dim, per_axis, verify) in enumerate(_DENSE_BOX):
        f_text, _, integral = _separable(_kinds(dim, slot), rng)
        lower, upper = _float_box(rng, dim)
        order, panels = _split(rng, per_axis)
        argv = ["integrate", "--f=" + f_text, "--box=" + _box_text(lower, upper),
                "--order=" + str(order), "--panels=" + str(panels)]
        if verify:
            argv.append("--verify")
        out.append(Request("integrate-f", tuple(argv), None, EXIT_OK, integral(lower, upper), TOL_BOX))
    for dim, per_axis, samples in _DENSE_PARALLELOTOPE:
        f_text, origin, columns, ref = _exp_cos_parallelotope(rng, dim)
        order, panels = _split(rng, per_axis)
        argv = ["parallelotope", "--f=" + f_text, "--origin=" + _vector_text(origin),
                "--edges=" + ";".join(_vector_text(c) for c in columns),
                "--order=" + str(order), "--panels=" + str(panels), "--verify",
                "--samples=" + str(samples), "--seed=" + str(rng.randrange(1, 2**31))]
        out.append(Request("parallelotope", tuple(argv), None, EXIT_OK, ref, TOL_BOX))
    return out


def _exp_cos_parallelotope(rng: random.Random, dim: int):
    """f = A exp(c.x) + B cos(d.x) over origin + T [0,1]^n, with its closed form.

    With k = T^t c the exponential integrates to |det T| e^{c.o} prod_j (e^{k_j} - 1)/k_j,
    and the cosine is the real part of the same formula at i d.
    """
    while True:
        origin = [_num(rng, -1.0, 1.0) for _ in range(dim)]
        scale = _num(rng, 0.6, 1.2)
        columns = [
            [round(scale * ((i == j) + rng.uniform(-0.4, 0.4)), 4) for i in range(dim)]
            for j in range(dim)
        ]
        c = [_num(rng, -1.0, 1.0) for _ in range(dim)]
        d = [_num(rng, -1.5, 1.5) for _ in range(dim)]
        matrix = np.array(columns, dtype=float).T
        det = float(np.linalg.det(matrix))
        k = [sum(columns[j][i] * c[i] for i in range(dim)) for j in range(dim)]
        m = [sum(columns[j][i] * d[i] for i in range(dim)) for j in range(dim)]
        if abs(det) > 0.3 * scale**dim and min(map(abs, k + m)) > 0.1:
            break
    a = _num(rng, 0.5, 1.5)
    b = _num(rng, 0.5, 1.5)
    cdot = "+".join(f"{_lit(ci)}*x{i}" for i, ci in enumerate(c, start=1))
    ddot = "+".join(f"{_lit(di)}*x{i}" for i, di in enumerate(d, start=1))
    f_text = f"{_lit(a)}*exp({cdot})+{_lit(b)}*cos({ddot})"
    c_o = sum(ci * oi for ci, oi in zip(c, origin))
    d_o = sum(di * oi for di, oi in zip(d, origin))
    exp_part = math.exp(c_o) * math.prod(math.expm1(kj) / kj for kj in k)
    cos_part = (cmath.exp(1j * d_o) * math.prod((cmath.exp(1j * mj) - 1) / (1j * mj) for mj in m)).real
    return f_text, origin, columns, abs(det) * (a * exp_part + b * cos_part)


# --- triangle-default ----------------------------------------------------------


def _triangle(rng: random.Random) -> list[Request]:
    """One triangle at the CLI default rule, with f = A + C*V + D*cos(k*U).

    U and V are coordinates along and across QR, measured from its midpoint
    in units of half its length, so f is even along QR.  Only the C*V term
    puts a kink on the mirror seam; the shape and coefficient ranges keep
    the seam error of the default rule near 3e-9, inside the 1e-8 gate.
    """
    half_len = _num(rng, 0.65, 0.75)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    mid = (_num(rng, -1.0, 1.0), _num(rng, -1.0, 1.0))
    along, across = _num(rng, -0.15, 0.15), _num(rng, 0.9, 1.1)
    dx, dy = half_len * math.cos(theta), half_len * math.sin(theta)
    q = (round(mid[0] - dx, 6), round(mid[1] - dy, 6))
    r = (round(mid[0] + dx, 6), round(mid[1] + dy, 6))
    p = (round(mid[0] + along * dx - across * dy, 6), round(mid[1] + along * dy + across * dx, 6))
    # Frame from the vertices as the program reads them, so f stays exactly even.
    m = (0.5 * (q[0] + r[0]), 0.5 * (q[1] + r[1]))
    d = (0.5 * (r[0] - q[0]), 0.5 * (r[1] - q[1]))
    s = d[0] * d[0] + d[1] * d[1]
    u = (d[0] / s, d[1] / s, -(m[0] * d[0] + m[1] * d[1]) / s)
    v = (-d[1] / s, d[0] / s, (m[0] * d[1] - m[1] * d[0]) / s)
    a, c, dd, k = _num(rng, 0.8, 1.2), _num(rng, 0.9, 1.1), _num(rng, 0.2, 0.4), _num(rng, 0.8, 1.2)

    def lin(w):
        return f"({_lit(w[0])}*x1+{_lit(w[1])}*x2+{_lit(w[2])})"

    f_text = f"{_lit(a)}+{_lit(c)}*{lin(v)}+{_lit(dd)}*cos({_lit(k)}*{lin(u)})"

    def fn(x, y):
        uu = u[0] * x + u[1] * y + u[2]
        vv = v[0] * x + v[1] * y + v[2]
        return a + c * vv + dd * np.cos(k * uu)

    argv = ("triangle", "--f=" + f_text,
            "--p=" + _vector_text(p), "--q=" + _vector_text(q), "--r=" + _vector_text(r))
    return [Request("triangle", argv, None, EXIT_OK, duffy_triangle(fn, p, q, r), TOL_TRIANGLE)]


def duffy_triangle(fn, p, q, r, nodes: int = 24) -> float:
    """Integral of a smooth fn(x, y) over triangle PQR by a collapsed Gauss-Legendre rule.

    x = P + s (Q - P) + t (R - P) with s = xi (1 - eta), t = xi eta maps the
    unit square onto the triangle with Jacobian 2 * area * xi, so the rule is
    exact for polynomials of degree 2 * nodes - 2 and converges spectrally
    for analytic fn.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    weights = np.outer(w, w) * xi
    s, t = xi * (1.0 - eta), xi * eta
    px = p[0] + s * (q[0] - p[0]) + t * (r[0] - p[0])
    py = p[1] + s * (q[1] - p[1]) + t * (r[1] - p[1])
    twice_area = abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    return math.fsum((weights * fn(px, py)).ravel()) * twice_area


# --- small-requests ------------------------------------------------------------


def _poly_factor(rng: random.Random, degree: int, var: str):
    """Univariate polynomial with nonzero rational coefficients: text and coefficients."""
    coeffs = []
    for _ in range(degree + 1):
        num = rng.choice([n for n in range(-9, 10) if n])
        coeffs.append(Fraction(num, rng.randint(1, 9)))
    text = "+".join(
        f"({c.numerator}/{c.denominator})" + (f"*{var}^{k}" if k else "")
        for k, c in enumerate(coeffs)
    )
    return f"({text})", coeffs


def _poly_integral(coeffs, a: Fraction, b: Fraction) -> Fraction:
    return sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Nonzero rational num/den with num in [lo, hi] and den in [1, 6]."""
    return Fraction(rng.choice([n for n in range(lo, hi + 1) if n]), rng.randint(1, 6))


def _exact(rng: random.Random, degrees) -> Request:
    texts, lower, upper = [], [], []
    ref = Fraction(1)
    for j, degree in enumerate(degrees, start=1):
        text, coeffs = _poly_factor(rng, degree, f"x{j}")
        # A zero lower bound would drop terms from the antiderivative and make
        # the request's cost depend on the seed.
        a = _rational(rng, -6, 3)
        b = a + _rational(rng, 1, 6)
        texts.append(text)
        lower.append(a)
        upper.append(b)
        ref *= _poly_integral(coeffs, a, b)
    argv = ("integrate", "--f=" + "*".join(texts), "--box=" + _box_text(lower, upper), "--exact")
    return Request("integrate-exact", argv, None, EXIT_OK, str(ref), 0.0)


def _check(rng: random.Random, dim: int, grid: int, wrong: bool) -> Request:
    # cos and poly factors keep |F| near 1, where the checker's rounding
    # floor stays below its tolerance through 4-d.
    kinds = tuple(("cos", "poly")[j % 2] for j in range(dim))
    f_text, F_text, _ = _separable(kinds, rng)
    lower, upper = _float_box(rng, dim, min_len=0.8, max_len=1.2)
    code = EXIT_OK
    if wrong:
        # The mixed partial of w * x1 * ... * xn is w, far outside the 1e-4 tolerance.
        w = _num(rng, 0.3, 0.7)
        F_text += f"+{_lit(w)}*" + "*".join(f"x{j}" for j in range(1, dim + 1))
        code = EXIT_CHECK_FAILED
    argv = ("check-antiderivative", "--f=" + f_text, "--F=" + F_text, "--box=" + _box_text(lower, upper),
            "--grid-points=" + str(grid))
    return Request("check-wrong" if wrong else f"check-{dim}d", argv, None, code, None, 0.0)


def _check_5d(rng: random.Random, unit: bool) -> Request:
    """prod cos(a_j x_j) against prod sin(a_j x_j)/a_j on [0, b]^5 at grid 3.

    F is a true antiderivative, so the expected exit code is 0.  The
    checker's fixed step makes its rounding error exceed the tolerance in
    5-d; these requests count as failed until that is fixed.
    """
    a = [1.0] * 5 if unit else [_num(rng, 0.8, 1.2) for _ in range(5)]
    b = [1.0] * 5 if unit else [_num(rng, 0.8, 1.2) for _ in range(5)]
    xs = [f"x{j}" for j in range(1, 6)]
    if unit:
        f_text = "*".join(f"cos({x})" for x in xs)
        F_text = "*".join(f"sin({x})" for x in xs)
    else:
        f_text = "*".join(f"cos({_lit(aj)}*{x})" for aj, x in zip(a, xs))
        F_text = "*".join(f"sin({_lit(aj)}*{x})/{_lit(aj)}" for aj, x in zip(a, xs))
    argv = ("check-antiderivative", "--f=" + f_text, "--F=" + F_text,
            "--box=" + _box_text([0] * 5, b), "--grid-points=3")
    return Request("check-5d", argv, None, EXIT_OK, None, 0.0)


def _integrate_F(rng: random.Random, dim: int, offset: int) -> Request:
    _, F_text, integral = _separable(_kinds(dim, offset), rng)
    lower, upper = _float_box(rng, dim)
    argv = ("integrate", "--F=" + F_text, "--box=" + _box_text(lower, upper))
    return Request("integrate-F", argv, None, EXIT_OK, integral(lower, upper), TOL_BOX)


def _subdivide(rng: random.Random, grid) -> Request:
    dim = len(grid)
    _, F_text, integral = _separable(_kinds(dim, 1), rng)
    lower, upper = _float_box(rng, dim)
    argv = ("subdivide-check", "--F=" + F_text, "--box=" + _box_text(lower, upper),
            "--grid=" + ",".join(map(str, grid)))
    return Request("subdivide", argv, None, EXIT_OK, integral(lower, upper), TOL_BOX)


def _numeric_check(rng: random.Random, dim: int, grid: int) -> Request:
    """Library check of a numeric antiderivative based at the box's lower corner, 0."""
    f_text, _, _ = _separable(_kinds(dim, 0), rng)
    upper = tuple(_num(rng, 0.8, 1.2) for _ in range(dim))
    call = ("check-numeric", f_text, (0.0,) * dim, upper, grid)
    return Request(f"lib-check-{dim}d", None, call, EXIT_OK, None, 0.0)


def _numeric_check_offset(rng: random.Random) -> Request:
    """The same 2-d check on a box whose lower corner x1 bound a has fl(fl(a + h) - h) < a.

    h = 1e-3 * extent is the checker's default step, so its first stencil
    point falls below the base corner and the numeric antiderivative
    refuses it.  The expected exit code is 0; these requests count as
    failed until that is fixed.
    """
    f_text, _, _ = _separable(_kinds(2, 0), rng)
    while True:
        a = _num(rng, 0.1, 0.5)
        b = round(a + _num(rng, 0.8, 1.2), 4)
        h = 1e-3 * (b - a)
        if (a + h) - h < a:
            break
    call = ("check-numeric", f_text, (a, 0.0), (b, _num(rng, 0.8, 1.2)), 5)
    return Request("lib-check-offset", None, call, EXIT_OK, None, 0.0)


def _small(rng: random.Random) -> list[Request]:
    # By cost a pass runs 29 requests cheaper than check-2d, 8 check-2d and
    # 30 dearer ones, so the median latency falls in the middle of the
    # check-2d group rather than on the edge between two groups, where the
    # group sizes would decide it more than the program's speed.
    out = []
    for i in range(28):
        out.append(_integrate_F(rng, 2 + i % 4, i))
    for degrees in ((3, 3), (2, 4), (6, 0), (2, 2, 2), (1, 3, 2), (4, 1, 1), (2, 1, 1, 2), (1, 1, 1, 1)):
        out.append(_exact(rng, degrees))
        out.append(_exact(rng, degrees))
    for dim, grid, count in ((2, 5, 8), (3, 5, 3), (4, 3, 2)):
        out.extend(_check(rng, dim, grid, wrong=False) for _ in range(count))
    for dim in (2, 3, 4):
        out.append(_check(rng, dim, 3, wrong=True))
    out.append(_check_5d(rng, unit=True))
    out.append(_check_5d(rng, unit=False))
    out.append(_numeric_check(rng, 2, 5))
    out.append(_numeric_check(rng, 3, 1))
    out.append(_numeric_check_offset(rng))
    out.append(_subdivide(rng, (40, 40)))
    out.append(_subdivide(rng, (8, 8, 8)))
    return out


_BUILDERS = {
    "dense-cubature": _dense,
    "triangle-default": _triangle,
    "small-requests": _small,
}
