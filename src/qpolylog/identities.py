"""Cross-validation suite.

Every functional identity the package implements is verified numerically on a
deterministic parameter grid, with independent backends on the two sides
whenever possible.  Each check function accepts a :class:`CheckSpec` (falling
back to its frozen default grid) and returns a list of
:class:`~qpolylog.core.CheckReport` records; :func:`run_all` executes the full
registry and returns the sorted, reproducible report list.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, Mapping, Sequence

from .contour import (
    QuadratureSpec,
    _li_row,
    _quad_rows,
    _Row,
    _transport,
    _zeta_row,
    depth1_closed_form,
)
from .core import CheckReport, DomainError, MultiIndex, _as_int_tuple, ensure_finite_complex, unwrap
from .exact import bernoulli_exact, verify_a3
from .series import (
    SeriesParams,
    TruncatedSeries,
    classical_polylog,
    companion_sum_I,
    multiple_polylog,
    octant_polylog,
    pochhammer_psi,
    q_difference,
    q_integral,
    q_multiple_polylog,
)

DEFAULT_SEED = 20260817

TWO_PI_I = 2j * math.pi

__all__ = [
    "CheckSpec",
    "DEFAULT_SEED",
    "CHECKS",
    "run_all",
    "check_series_vs_contour",
    "check_difference_and_differential",
    "check_distribution",
    "check_h1",
    "check_symmetries",
    "check_companion",
    "check_shuffle",
    "check_asymptotic",
    "check_q_calculus",
    "check_rational_hbar",
]


@dataclass(frozen=True)
class CheckSpec:
    """Description of one identity check run.

    ``grid`` is a tuple of parameter mappings, one per comparison point; a
    point may carry its own ``tol`` entry overriding ``tolerance``.
    """

    identity_name: str
    grid: tuple = ()
    tolerance: float = 1e-8


def _cstr(z: complex) -> str:
    """Deterministic short string for a complex parameter (for report params)."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _ints(point: Mapping[str, Any], *keys: str) -> tuple[int, ...]:
    """The integer fields keys of a grid point; a non-integer one is a DomainError."""
    return tuple(_as_int_tuple((point[key],), key)[0] for key in keys)


def _index_params(idx: MultiIndex, omega: Sequence[complex], hbar: complex) -> dict:
    """Report params of a contour point: its index, arguments and hbar."""
    return {
        "a": list(idx.a),
        "b": list(idx.b),
        "n": list(idx.n),
        "omega": [_cstr(v) for v in omega],
        "hbar": _cstr(hbar),
    }


# One grid point for _check_points: yields its list of contour rows, receives
# an iterator over their values and returns its (params, residual) pairs, or
# (params, residual, tolerance) where the point's tol does not apply.
PointReports = Generator[list, Iterator[complex], list]


def _check_points(
    spec: CheckSpec, point_reports: Callable, *args, quad: QuadratureSpec | None = None
) -> list[CheckReport]:
    """The reports of every point of spec.grid, in grid order, from
    point_reports(point, *args), with the contour rows of all points as one
    _quad_rows call under quad (none if no point has rows).  The points read
    their values lazily and finish in grid order, so a failed row raises its
    one-point error where a one-point call raised it, and an error in
    building a point's rows is raised once the points before it finish.
    Each report is named spec.identity_name; its residual is |residual| and
    its tolerance the point's tol, or spec.tolerance without one."""
    pending, rows, failed = [], [], None
    for point in spec.grid:
        gen = point_reports(point, *args)
        try:
            calls = next(gen)
        except Exception as exc:  # raised in its turn, below
            failed = exc
            break
        pending.append((point, gen, len(rows), len(rows) + len(calls)))
        rows += calls
    results = _quad_rows(rows, quad) if rows else []
    reports = []
    for point, gen, lo, hi in pending:
        try:
            gen.send(unwrap(res).value for res in results[lo:hi])
        except StopIteration as stop:
            default = point.get("tol", spec.tolerance)
            for params, residual, *tol in stop.value:
                reports.append(CheckReport(
                    spec.identity_name, params, abs(residual), tol[0] if tol else default))
    if failed is not None:
        raise failed
    return reports


# ---------------------------------------------------------------------------
# 1. series backend vs contour backend
# ---------------------------------------------------------------------------


def default_series_vs_contour_spec(seed: int = DEFAULT_SEED) -> CheckSpec:
    rng = random.Random(seed)
    grid: list[dict[str, Any]] = [
        # named reference points
        {"n": (2,), "w": (-1.0,), "tol": 1e-9},
        {"n": (1, 1), "w": (-2.0, -1.0), "tol": 1e-8},
        # boundary stress: imaginary part close to the integrability edge
        {"n": (2,), "w": (-1.0 + (math.pi - 0.1) * 1j,), "tol": 1e-6},
        {"n": (2,), "w": (-1.0 - (math.pi - 0.1) * 1j,), "tol": 1e-6},
    ]
    for _ in range(10):  # depth 1
        n = (rng.choice((1, 2, 3)),)
        w = (complex(rng.uniform(-3.0, -0.5), rng.uniform(-1.0, 1.0) * (math.pi - 0.2)),)
        grid.append({"n": n, "w": w, "tol": 1e-8})
    for _ in range(10):  # depth 2; per-axis bound keeps the transported sums integrable
        n = (rng.choice((1, 2)), rng.choice((1, 2)))
        w = tuple(
            complex(rng.uniform(-2.5, -0.5), rng.uniform(-1.0, 1.0) * (math.pi - 0.2) / 2.0)
            for _ in range(2)
        )
        grid.append({"n": n, "w": w, "tol": 1e-8})
    return CheckSpec(
        identity_name="series_vs_contour",
        grid=tuple(grid),
        tolerance=1e-8,
    )


def _series_vs_contour_point(point: Mapping[str, Any]) -> PointReports:
    n = tuple(point["n"])
    m = len(n)
    w = tuple(complex(v) for v in point["w"])
    (lhs,) = yield [_li_row(n, w)]
    z = tuple(cmath.exp(v) for v in w[:-1]) + (-cmath.exp(w[-1]),)
    rhs = multiple_polylog(n, z)
    params = {
        "m": m,
        "n": list(n),
        "w": [_cstr(v) for v in w],
    }
    return [(params, lhs - rhs.value)]


def check_series_vs_contour(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Nested-sum backend against quadrature backend on the same arguments.

    The quadrature value of the iterated-argument evaluator at (n, w) must
    match the simplex sum Li_n(e^{w_1}, ..., -e^{w_m}).
    """
    return _check_points(spec or default_series_vs_contour_spec(seed), _series_vs_contour_point)


# ---------------------------------------------------------------------------
# 2. half-step difference equations and the differential relation
# ---------------------------------------------------------------------------


def default_difference_spec() -> CheckSpec:
    sqrt2 = 2.0 ** 0.5
    grid: list[dict[str, Any]] = []
    # depth-1 half-step difference relations over the full coupling square
    for a in (1, 2):
        for b in (1, 2):
            for n in (1, 2):
                for hbar in (1.2, sqrt2):
                    grid.append(
                        {
                            "case": "difference",
                            "a": (a,),
                            "b": (b,),
                            "n": (n,),
                            "omega": (-1.0 + 0.1j,),
                            "hbar": hbar,
                            "tol": 1e-8,
                        }
                    )
    # depth-2 basic difference relations
    for n in ((1, 1), (2, 1)):
        grid.append(
            {
                "case": "difference",
                "a": (1, 1),
                "b": (1, 1),
                "n": n,
                "omega": (-2.0, -1.0),
                "hbar": 1.2,
                "tol": 1e-8,
            }
        )
    grid.append(
        {
            "case": "difference",
            "a": (1, 1),
            "b": (1, 1),
            "n": (1, 1),
            "omega": (-2.0, -1.0),
            "hbar": sqrt2,
            "tol": 1e-8,
        }
    )
    # differential relation, depth 1 and depth 2
    for a, b, n in ((1, 1, 1), (1, 1, 2), (2, 1, 2)):
        grid.append(
            {
                "case": "differential",
                "a": (a,),
                "b": (b,),
                "n": (n,),
                "omega": (-1.0,),
                "hbar": 1.2,
                "tol": 1e-6,
            }
        )
    grid.append(
        {
            "case": "differential",
            "a": (1, 1),
            "b": (1, 1),
            "n": (1, 1),
            "omega": (-2.0, -1.0),
            "hbar": 1.2,
            "tol": 1e-7,
        }
    )
    return CheckSpec(
        identity_name="difference_and_differential",
        grid=tuple(grid),
        tolerance=1e-8,
    )


# The shifts, in units of the stencil step, at which _stencil_derivative
# reads f: each distinct shift once, in the order the stencil first uses it.
_STENCIL = (2.0, 1.0, -1.0, -2.0, 0.5, -0.5)


def _stencil_derivative(f: Mapping[float, complex], step: float) -> complex:
    """Fourth-order central difference at 0 with one Richardson step, from
    the values f[c * step] at the shifts c of _STENCIL.  The passes at step
    and step / 2 share f(+-step), so the six values are all it reads."""

    def central(h: float) -> complex:
        return (-f[2 * h] + 8 * f[h] - 8 * f[-h] + f[-2 * h]) / (12 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (16.0 * d2 - d1) / 15.0


def _difference_residuals(idx: MultiIndex, omega: tuple, hbar: complex) -> PointReports:
    """Residuals of the half-step relations on every axis and both couplings,
    for _check_points: it yields the rows of the up, down and lowered points
    of every relation and returns the (label, residual) pairs."""
    labels = []
    rows = []
    m = idx.depth
    for k in range(m):
        for which in ("a", "b"):
            exps = idx.a if which == "a" else idx.b
            if exps[k] == 0:
                continue
            lowered_a = tuple(
                v - (1 if (j == k and which == "a") else 0) for j, v in enumerate(idx.a)
            )
            lowered_b = tuple(
                v - (1 if (j == k and which == "b") else 0) for j, v in enumerate(idx.b)
            )
            if lowered_a[k] + lowered_b[k] < 1:
                continue  # lowered integrand loses its decay on axis k
            step = 1j * math.pi * (1.0 if which == "a" else complex(hbar))
            labels.append(f"axis{k + 1}-{which}")
            up = tuple(w + (step if j == k else 0) for j, w in enumerate(omega))
            dn = tuple(w - (step if j == k else 0) for j, w in enumerate(omega))
            rows += [_Row(idx, up, hbar), _Row(idx, dn, hbar),
                     _Row(MultiIndex(lowered_a, lowered_b, idx.n), omega, hbar)]
    values = yield rows
    out = []
    for label in labels:
        lhs = next(values) - next(values)
        out.append((label, lhs - next(values)))
    return out


def _differential_residuals(idx: MultiIndex, omega: tuple, hbar: complex) -> PointReports:
    """Residuals of d/d omega_k F = F(n - e_k) - F(n - e_{k-1}), for
    _check_points: it yields the rows of the stencil and lowered points of
    every axis and returns the (label, residual) pairs."""
    m = idx.depth
    step = 1e-3
    shifts = [c * step for c in _STENCIL]
    rows = []
    for k in range(m):
        rows += [
            _Row(idx, tuple(w + (d if j == k else 0) for j, w in enumerate(omega)), hbar)
            for d in shifts
        ]
        lowered = tuple(v - (1 if j == k else 0) for j, v in enumerate(idx.n))
        rows.append(_Row(MultiIndex(idx.a, idx.b, lowered), omega, hbar))
        if k >= 1:
            lowered_prev = tuple(v - (1 if j == k - 1 else 0) for j, v in enumerate(idx.n))
            rows.append(_Row(MultiIndex(idx.a, idx.b, lowered_prev), omega, hbar))
    values = yield rows
    out = []
    for k in range(m):
        deriv = _stencil_derivative({d: next(values) for d in shifts}, step)
        rhs = 0j
        rhs += next(values)
        if k >= 1:
            rhs -= next(values)
        out.append((f"axis{k + 1}", deriv - rhs))
    return out


def _difference_point(point: Mapping[str, Any]) -> PointReports:
    idx = MultiIndex(tuple(point["a"]), tuple(point["b"]), tuple(point["n"]))
    omega = tuple(complex(v) for v in point["omega"])
    hbar = complex(point["hbar"])
    if point["case"] == "difference":
        pairs = yield from _difference_residuals(idx, omega, hbar)
    else:
        pairs = yield from _differential_residuals(idx, omega, hbar)
    params = {"case": point["case"], **_index_params(idx, omega, hbar)}
    return [({**params, "relation": label}, residual) for label, residual in pairs]


def check_difference_and_differential(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Half-step difference equations in omega (lowering each coupling
    exponent) and the first-order differential relation in each argument."""
    return _check_points(
        spec or default_difference_spec(), _difference_point, quad=QuadratureSpec(tol=1e-12)
    )


# ---------------------------------------------------------------------------
# 3. argument-scaling shift sum (distribution of arguments over shifts)
# ---------------------------------------------------------------------------


def _half_integer_range(r: int) -> list:
    """The r symmetric half-integers (1-r)/2, (3-r)/2, ..., (r-1)/2."""
    return [(1 - r) / 2.0 + t for t in range(r)]


def default_distribution_spec() -> CheckSpec:
    grid = [
        {"r": 1, "s": 1, "n": 1, "omega": -2.0, "hbar": 1.2, "tol": 1e-10},
        {"r": 2, "s": 1, "n": 1, "omega": -2.0, "hbar": 1.2, "tol": 1e-7},
        {"r": 2, "s": 1, "n": 2, "omega": -2.0, "hbar": 1.2, "tol": 1e-7},
        {"r": 1, "s": 2, "n": 1, "omega": -2.0, "hbar": 1.2, "tol": 1e-7},
        {"r": 3, "s": 2, "n": 1, "omega": -2.0, "hbar": 1.2, "tol": 1e-6},
    ]
    return CheckSpec(
        identity_name="distribution",
        grid=tuple(grid),
        tolerance=1e-6,
    )


def _distribution_point(point: Mapping[str, Any]) -> PointReports:
    r, s, n = _ints(point, "r", "s", "n")
    omega = complex(point["omega"])
    hbar = complex(point["hbar"])
    idx = MultiIndex((1,), (1,), (n,))
    values = yield [_Row(idx, (r * omega,), (r / s) * hbar)] + [
        _Row(idx, (omega + (TWO_PI_I * (alpha / r) + TWO_PI_I * hbar * (beta / s)),), hbar)
        for alpha in _half_integer_range(r)
        for beta in _half_integer_range(s)
    ]
    lhs = next(values)
    total = 0j
    for value in values:
        total += value
    rhs = r ** (n - 1) * total
    params = {
        "r": r,
        "s": s,
        "n": [n],
        "omega": _cstr(omega),
        "hbar": _cstr(hbar),
    }
    return [(params, lhs - rhs)]


def check_distribution(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Scaling hbar by r/s and the argument by r equals r^(|n|-m) times the
    sum over the r*s per-axis imaginary shifts (depth 1, first-order index)."""
    return _check_points(spec or default_distribution_spec(), _distribution_point)


# ---------------------------------------------------------------------------
# 4. undeformed limit (hbar = 1) closed forms
# ---------------------------------------------------------------------------


def default_h1_spec() -> CheckSpec:
    grid: list[dict[str, Any]] = []
    for a, b in ((1, 1), (2, 1), (1, 2)):
        for n in (1, 2):
            grid.append(
                {"m": 1, "a": a, "b": b, "n": (n,), "omega": (-1.0,), "tol": 1e-8}
            )
    for n in ((1, 1), (2, 1)):
        grid.append({"m": 2, "n": n, "omega": (-2.0, -1.0), "tol": 1e-7})
    return CheckSpec(
        identity_name="h1",
        grid=tuple(grid),
        tolerance=1e-7,
    )


def _h1_depth2_closed(
    n: tuple, omega: tuple, params: SeriesParams, octant: Callable = octant_polylog
) -> complex:
    """Closed form of the depth-2 basic value at hbar = 1: a multinomial
    combination of first-degree Q-polynomials with plain prefix-weight sums of
    raised weight."""
    n1, n2 = n
    w1, w2 = omega
    dQ = 1.0 / TWO_PI_I
    q1 = w1 * dQ
    q2 = w2 * dQ
    z = (cmath.exp(w1), cmath.exp(w2))

    def L(v1: int, v2: int) -> complex:
        return octant((v1, v2), z, params).value

    return (
        q1 * q2 * L(n1, n2)
        - n1 * dQ * q2 * L(n1 + 1, n2)
        - n2 * (dQ * q2 + q1 * dQ) * L(n1, n2 + 1)
        + n1 * n2 * dQ * dQ * L(n1 + 1, n2 + 1)
        + n2 * (n2 + 1) * dQ * dQ * L(n1, n2 + 2)
    )


def _h1_point(
    point: Mapping[str, Any], closed_form: Callable, octant: Callable, series_params: SeriesParams
) -> PointReports:
    omega = tuple(complex(v) for v in point["omega"])
    n = tuple(point["n"])
    if point["m"] == 1:
        a, b = _ints(point, "a", "b")
        idx = MultiIndex((a,), (b,), n)
        (lhs,) = yield [_Row(idx, omega, 1.0)]
        rhs = closed_form(a + b, n[0], omega[0], series_params).value
    else:
        idx = MultiIndex((1, 1), (1, 1), n)
        (lhs,) = yield [_Row(idx, omega, 1.0)]
        rhs = _h1_depth2_closed(n, omega, series_params, octant)
    params = {
        "m": idx.depth,
        "a": list(idx.a),
        "b": list(idx.b),
        "n": list(n),
        "omega": [_cstr(v) for v in omega],
    }
    return [(params, lhs - rhs)]


def check_h1(spec: CheckSpec | None = None, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """At hbar = 1 the value collapses to Q-polynomial / polylogarithm
    combinations: depth 1 through the merged coupling a + b, depth 2 through
    the explicit multinomial form.  Each distinct closed form is evaluated
    once per call."""
    closed_form, octant = functools.cache(depth1_closed_form), functools.cache(octant_polylog)
    return _check_points(spec or default_h1_spec(), _h1_point, closed_form, octant, SeriesParams())


# ---------------------------------------------------------------------------
# 5. symmetries: conjugation parity, deformation reflection, boundary
#    reflection, decay
# ---------------------------------------------------------------------------


def default_symmetries_spec() -> CheckSpec:
    sqrt2 = 2.0 ** 0.5
    grid: list[dict[str, Any]] = [
        {
            "relation": "conjugation",
            "a": (1,), "b": (1,), "n": (1,),
            "omega": (-0.8 + 0.25j,), "hbar": 1.2 + 0.3j, "tol": 1e-8,
        },
        {
            "relation": "conjugation",
            "a": (2,), "b": (1,), "n": (2,),
            "omega": (-0.8 + 0.25j,), "hbar": 1.2 + 0.3j, "tol": 1e-8,
        },
        {
            "relation": "conjugation",
            "a": (1, 1), "b": (1, 1), "n": (1, 1),
            "omega": (-2.0 + 0.2j, -1.0 - 0.3j), "hbar": 1.2 + 0.3j, "tol": 1e-8,
        },
        {
            "relation": "modular",
            "a": (1,), "b": (1,), "n": (2,),
            "omega": (-1.5,), "hbar": 2.0, "tol": 1e-8,
        },
        {
            "relation": "modular",
            "a": (2,), "b": (1,), "n": (1,),
            "omega": (-1.5,), "hbar": 2.0, "tol": 1e-8,
        },
        {
            "relation": "modular",
            "a": (1, 1), "b": (1, 1), "n": (1, 1),
            "omega": (-2.0, -1.0), "hbar": 1.5, "tol": 1e-8,
        },
        {
            "relation": "boundary",
            "a": (1,), "b": (1,), "n": (1,),
            "omega": (-1.0,), "hbar": 1.3, "tol": 1e-8,
        },
        {
            "relation": "boundary",
            "a": (2,), "b": (1,), "n": (1,),
            "omega": (-1.2,), "hbar": 1.3, "tol": 1e-8,
        },
        {
            "relation": "boundary",
            "a": (1,), "b": (1,), "n": (2,),
            "omega": (-1.0,), "hbar": sqrt2, "tol": 1e-8,
        },
        {
            "relation": "decay",
            "a": (1,), "b": (1,), "n": (1,),
            "omega": (-30.0,), "hbar": 1.3, "tol": 1e-10,
        },
        {"relation": "zeta-anchor", "s": (2,), "hbar": 1.0, "tol": 1e-12},
        {"relation": "zeta-modular", "s": (3,), "hbar": 1.4, "tol": 1e-10},
        {"relation": "zeta-modular", "s": (2, 2), "hbar": 1.4, "tol": 1e-10},
    ]
    return CheckSpec(
        identity_name="symmetries",
        grid=tuple(grid),
        tolerance=1e-8,
    )


def _symmetries_point(point: Mapping[str, Any]) -> PointReports:
    relation = point["relation"]
    hbar = complex(point["hbar"])
    if relation.startswith("zeta"):
        s = tuple(point["s"])
        if relation == "zeta-anchor":
            (value,) = yield [_zeta_row(s, hbar)]
            residual = value - 1j * math.pi / 12.0
        else:
            lhs, value = yield [_zeta_row(s, hbar), _zeta_row(s, 1.0 / hbar)]
            factor = hbar ** (sum(v - 1 for v in s) - len(s))
            residual = lhs - factor * value
        return [({"relation": relation, "s": list(s), "hbar": _cstr(hbar)}, residual)]
    idx = MultiIndex(tuple(point["a"]), tuple(point["b"]), tuple(point["n"]))
    omega = tuple(complex(v) for v in point["omega"])
    m = idx.depth
    if relation == "conjugation":
        sign = (-1) ** (sum(idx.a) + sum(idx.b) + m)
        base, conj = yield [
            _Row(idx, omega, hbar),
            _Row(idx, tuple(v.conjugate() for v in omega), hbar.conjugate()),
        ]
        residual = conj.conjugate() - sign * base
    elif relation == "modular":
        swapped = MultiIndex(idx.b, idx.a, idx.n)
        lhs, value = yield [
            _Row(idx, omega, hbar),
            _Row(swapped, tuple(v / hbar for v in omega), 1.0 / hbar),
        ]
        residual = lhs - hbar ** (sum(idx.n) - m) * value
    elif relation == "boundary":
        a, b, n = idx.a[0], idx.b[0], idx.n[0]
        sign = (-1) ** (a + b + n - 1)
        fwd, bwd = yield [_Row(idx, omega, hbar), _Row(idx, tuple(-v for v in omega), hbar)]
        bpoly = bernoulli_exact(a, b, n).eval(omega[0], hbar)
        residual = fwd + sign * bwd + bpoly
    elif relation == "decay":
        (residual,) = yield [_Row(idx, omega, hbar)]
    else:  # pragma: no cover - guarded by default grid
        raise DomainError(f"unknown symmetry relation {relation!r}")
    return [({"relation": relation, **_index_params(idx, omega, hbar)}, residual)]


def check_symmetries(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Conjugation parity, the hbar -> 1/hbar reflection, the boundary
    reflection against the exact residue-pairing polynomial, and far-left
    decay."""
    # zeta-anchor checks to 1e-12, and decay reads |F| itself: both need more
    # than the default tol certifies
    return _check_points(
        spec or default_symmetries_spec(), _symmetries_point, quad=QuadratureSpec(tol=1e-14)
    )


# ---------------------------------------------------------------------------
# 6. companion series vs quadrature
# ---------------------------------------------------------------------------


def default_companion_spec() -> CheckSpec:
    sqrt2 = 2.0 ** 0.5
    golden = (1.0 + 5.0 ** 0.5) / 2.0
    grid = [
        {"n": (2,), "w": (-1.0,), "hbar": sqrt2, "tol": 1e-7},
        {"n": (1,), "w": (-1.5,), "hbar": golden, "tol": 1e-7},
        {"n": (2,), "w": (-1.0,), "hbar": golden, "tol": 1e-7},
        {"n": (1, 1), "w": (-2.0, -1.0), "hbar": sqrt2, "tol": 1e-6},
        {"relation": "rational-guard", "n": (1,), "w": (-1.0,), "hbar": 2.3},
    ]
    return CheckSpec(
        identity_name="companion",
        grid=tuple(grid),
        tolerance=1e-7,
    )


def _companion_point(point: Mapping[str, Any]) -> PointReports:
    n = tuple(point["n"])
    w = tuple(complex(v) for v in point["w"])
    hbar = complex(point["hbar"])
    m = len(n)
    params: dict[str, Any] = {
        "n": list(n),
        "w": [_cstr(v) for v in w],
        "hbar": _cstr(hbar),
    }
    if point.get("relation") == "rational-guard":
        yield []
        params["relation"] = "rational-guard"
        try:
            companion_sum_I(n, w, hbar)
        except DomainError:
            return [(params, 0.0, 0.0)]
        return [(params, 1.0, 0.0)]
    idx = MultiIndex((1,) * m, (1,) * m, n)
    (lhs,) = yield [_Row(idx, _transport(idx, w), hbar)]
    rhs = companion_sum_I(n, w, hbar).value
    return [(params, lhs - rhs)]


def check_companion(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Sum of the 2^m companion series against the quadrature value in the
    difference variables; at (nearly) rational deformation the series backend
    must refuse."""
    return _check_points(spec or default_companion_spec(), _companion_point)


# ---------------------------------------------------------------------------
# 7. shuffle products
# ---------------------------------------------------------------------------


def default_shuffle_spec() -> CheckSpec:
    grid = [
        {
            "case": "depth11",
            "a": ((1,), (1,)), "b": ((1,), (1,)),
            "omega": (-2.0, -1.0), "hbar": 1.5, "tol": 1e-7,
        },
        {
            "case": "depth11",
            "a": ((2,), (1,)), "b": ((1,), (1,)),
            "omega": (-1.5, -1.0), "hbar": 1.5, "tol": 1e-7,
        },
        {
            "case": "depth11",
            "a": ((2,), (1,)), "b": ((1,), (2,)),
            "omega": (-2.0, -1.0), "hbar": 1.5, "tol": 1e-7,
        },
        {
            "case": "depth11",
            "a": ((1,), (1,)), "b": ((2,), (1,)),
            "omega": (-1.8, -0.9), "hbar": 1.5, "tol": 1e-7,
        },
        {
            "case": "symmetric-point",
            "a": ((1,), (1,)), "b": ((1,), (1,)),
            "omega": (-1.3, -1.3), "hbar": 1.5, "tol": 1e-7,
        },
        {
            "case": "generating",
            "omega": (-2.0, -1.0), "hbar": 1.5,
            "u": 0.07 + 0j, "v": 0.11j, "tol": 1e-7,
        },
        {"case": "exact-partial-fraction", "k": 2, "l": 2},
    ]
    return CheckSpec(
        identity_name="shuffle",
        grid=tuple(grid),
        tolerance=1e-7,
    )


def _shuffle_point(point: Mapping[str, Any], seed: int) -> PointReports:
    case = point["case"]
    if case == "exact-partial-fraction":
        k, l = _ints(point, "k", "l")
        yield []
        inner = verify_a3(k, l, seed=seed)
        return [({"case": case, "k": k, "l": l}, inner.residual, inner.tolerance)]
    omega = tuple(complex(v) for v in point["omega"])
    hbar = complex(point["hbar"])
    if case in ("depth11", "symmetric-point"):
        (a1,), (a2,) = point["a"]
        (b1,), (b2,) = point["b"]
        f1, f2, f12, f21 = yield [
            _Row(MultiIndex((a1,), (b1,), (1,)), (omega[0],), hbar),
            _Row(MultiIndex((a2,), (b2,), (1,)), (omega[1],), hbar),
            _Row(MultiIndex((a1, a2), (b1, b2), (1, 1)), omega, hbar),
            _Row(MultiIndex((a2, a1), (b2, b1), (1, 1)), (omega[1], omega[0]), hbar),
        ]
        residual = f1 * f2 - f12 - f21
        params = {"case": case, "a": [a1, a2], "b": [b1, b2]}
    elif case == "generating":
        u = complex(point["u"])
        v = complex(point["v"])
        # g1 and g2 are gen_series_depth1 at omega[0], u and omega[1], v
        idx1, idx2 = MultiIndex((1,), (1,), (1,)), MultiIndex((1, 1), (1, 1), (1, 1))
        g1, g2, h12, h21 = yield [
            _Row(idx1, (omega[0],), hbar, (ensure_finite_complex(u, "u"),)),
            _Row(idx1, (omega[1],), hbar, (ensure_finite_complex(v, "v"),)),
            _Row(idx2, omega, hbar, (u, u + v)),
            _Row(idx2, (omega[1], omega[0]), hbar, (v, u + v)),
        ]
        residual = g1 * g2 - h12 - h21
        params = {"case": case, "u": _cstr(u), "v": _cstr(v)}
    else:  # pragma: no cover - guarded by default grid
        raise DomainError(f"unknown shuffle case {case!r}")
    return [({**params, "omega": [_cstr(w) for w in omega], "hbar": _cstr(hbar)}, residual)]


def check_shuffle(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Products of depth-1 values against the two interleaved depth-2 values,
    the same relation at the level of pole-shifted generating integrals, and
    the exact partial-fraction shuffle on random rational points."""
    return _check_points(spec or default_shuffle_spec(), _shuffle_point, seed)


# ---------------------------------------------------------------------------
# 8. semiclassical asymptotics
# ---------------------------------------------------------------------------


def default_asymptotic_spec() -> CheckSpec:
    hbars = (0.2, 0.1, 0.05)
    grid = [
        {"case": "depth1", "n": 1, "omega": -1.0, "hbars": hbars, "tol": 0.5},
        {"case": "depth1-scale", "n": 1, "omega": -1.0, "hbars": hbars, "tol": 0.5},
        {
            "case": "depth2",
            "n": (1, 1),
            "omega": (-2.0, -1.0),
            "hbars": hbars,
            "tol": 1.0,
        },
    ]
    return CheckSpec(
        identity_name="asymptotic",
        grid=tuple(grid),
        tolerance=0.5,
    )


def _asymptotic_point(point: Mapping[str, Any], params: SeriesParams) -> PointReports:
    """The gap |ratio - 1| at the final hbar, and the worst increase of the
    gap along the decreasing hbar sequence: it yields one contour row per
    hbar."""
    case = point["case"]
    hbars = [float(hbar) for hbar in point["hbars"]]
    if case in ("depth1", "depth1-scale"):
        (n,) = _ints(point, "n")
        omega = complex(point["omega"])
        idx, args = MultiIndex((1 if case == "depth1" else 2,), (1,), (n,)), (omega,)
    elif case == "depth2":
        n1, n2 = _as_int_tuple(point["n"], "n")
        w1, w2 = (complex(v) for v in point["omega"])
        idx, args = MultiIndex((1, 1), (1, 1), (n1, n2)), (w1, w2)
    else:  # pragma: no cover - guarded by default grid
        raise DomainError(f"unknown asymptotic case {case!r}")
    values = yield [_Row(idx, args, h) for h in hbars]
    if case == "depth1":
        den = classical_polylog(n + 1, -cmath.exp(omega), params).value
    elif case == "depth1-scale":
        den = depth1_closed_form(2, n + 1, omega, params).value
    else:
        den = classical_polylog(
            n1 + n2 + 1, -cmath.exp(w1), params
        ).value * classical_polylog(1, -cmath.exp(w2), params).value
        for j in range(1, n2 + 1):
            den -= multiple_polylog(
                (n1 + 1 + j, n2 + 1 - j),
                (cmath.exp(w1 - w2), -cmath.exp(w2)),
                params,
            ).value
    gaps = []
    for h in hbars:
        scale = (TWO_PI_I * h) ** 2 if case == "depth2" else TWO_PI_I * h
        gaps.append(abs(scale * next(values) / den - 1.0))
    worst_increase = 0.0
    for first, second in zip(gaps, gaps[1:]):
        worst_increase = max(worst_increase, second - first)
    base = {
        "case": case,
        "n": list(idx.n),
        "omega": [_cstr(v) for v in args],
        "hbars": hbars,
    }
    return [
        ({**base, "measure": "final-gap"}, gaps[-1]),
        ({**base, "measure": "monotone"}, worst_increase, 0.0),
    ]


def check_asymptotic(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Small-hbar behavior: 2*pi*i*hbar (per depth) times the value approaches
    the predicted weight-raised combination; the gap must shrink monotonically
    along the hbar sequence and be small at the final hbar."""
    return _check_points(spec or default_asymptotic_spec(), _asymptotic_point, SeriesParams())


# ---------------------------------------------------------------------------
# 9. q-calculus layer
# ---------------------------------------------------------------------------


def default_q_calculus_spec() -> CheckSpec:
    qs = (0.3, 0.5, 0.7 + 0.1j, 0.7 - 0.1j)
    grid: list[dict[str, Any]] = []
    for q in qs:
        for a in (1, 2, 3):
            grid.append(
                {"case": "difference-of-integral", "q": q, "a": a, "degree": 12,
                 "tol": 1e-12}
            )
    grid.append({"case": "series-integral", "q": 0.3, "a": 2, "n": 1, "x": 0.2,
                 "tol": 1e-12})
    grid.append({"case": "series-integral", "q": 0.3, "a": 1, "n": 2, "x": 0.2,
                 "tol": 1e-12})
    for a in (1, 2):
        for q in (0.3, 0.5, 0.7 + 0.1j):
            for x in (0.3, -0.2, 0.4j):
                grid.append({"case": "product-log", "q": q, "a": a, "x": x,
                             "tol": 1e-10})
    for a in (1, 2):
        grid.append({"case": "product-recursion", "q": 0.4, "a": a, "x": 0.25,
                     "tol": 1e-10})
    return CheckSpec(
        identity_name="q_calculus",
        grid=tuple(grid),
        tolerance=1e-10,
    )


def _q_calculus_point(point: Mapping[str, Any], rng: random.Random) -> PointReports:
    yield []  # no contour rows; the points draw from rng in grid order
    case = point["case"]
    q = complex(point["q"])
    params: dict[str, Any] = {"case": case, "q": _cstr(q)}
    if case == "difference-of-integral":
        a, degree = _ints(point, "a", "degree")
        coeffs = [0j] + [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)
        ]
        series = TruncatedSeries(tuple(coeffs))
        lhs = q_difference(q_integral(series, a, q), q)
        rhs = q_integral(series, a - 1, q)
        residual = (lhs - rhs).max_abs()
        params.update({"a": a, "degree": degree})
    elif case == "series-integral":
        a, n = _ints(point, "a", "n")
        x = complex(point["x"])
        degree = 40
        plain = TruncatedSeries(
            (0j,) + tuple(1.0 / float(k) ** n + 0j for k in range(1, degree + 1))
        )
        integrated = q_integral(plain, a, q)
        lhs = -integrated.eval(x)
        rhs = q_multiple_polylog((a,), (n,), (x,), q).value
        residual = lhs - rhs
        params.update({"a": a, "n": n, "x": _cstr(x)})
    elif case == "product-log":
        (a,) = _ints(point, "a")
        x = complex(point["x"])
        product = pochhammer_psi(a, x, q).value
        series = q_multiple_polylog((a,), (1,), (-x,), q).value
        residual = product - cmath.exp(-series)
        params.update({"a": a, "x": _cstr(x)})
    elif case == "product-recursion":
        (a,) = _ints(point, "a")
        x = complex(point["x"])
        lhs = (
            pochhammer_psi(a, q * x, q).value
            / pochhammer_psi(a, x / q, q).value
        )
        rhs = pochhammer_psi(a - 1, x, q).value
        residual = lhs - rhs
        params.update({"a": a, "x": _cstr(x)})
    else:  # pragma: no cover - guarded by default grid
        raise DomainError(f"unknown q-calculus case {case!r}")
    return [(params, residual)]


def check_q_calculus(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """Bracket-difference / bracket-antiderivative round trips on random
    series, the series representation of the deformed sum as an iterated
    bracket antiderivative, and the infinite-product identities."""
    return _check_points(spec or default_q_calculus_spec(), _q_calculus_point, random.Random(seed))


# ---------------------------------------------------------------------------
# 10. rational deformation parameter through shift sums of closed forms
# ---------------------------------------------------------------------------


def default_rational_hbar_spec() -> CheckSpec:
    grid = [
        {"r": 1, "s": 1, "n": 1, "omega": -2.0, "tol": 1e-8},
        {"r": 2, "s": 1, "n": 1, "omega": -2.0, "tol": 1e-6},
        {"r": 2, "s": 1, "n": 2, "omega": -2.0, "tol": 1e-6},
        {"r": 3, "s": 2, "n": 1, "omega": -2.0, "tol": 1e-6},
        {"r": 3, "s": 2, "n": 2, "omega": -2.0, "tol": 1e-6},
    ]
    return CheckSpec(
        identity_name="rational_hbar",
        grid=tuple(grid),
        tolerance=1e-6,
    )


def _rational_hbar_point(
    point: Mapping[str, Any], closed_form: Callable, series_params: SeriesParams
) -> PointReports:
    r, s, n = _ints(point, "r", "s", "n")
    omega = complex(point["omega"])
    (lhs,) = yield [_Row(MultiIndex((1,), (1,), (n,)), (r * omega,), r / s)]
    total = 0j
    for alpha in _half_integer_range(r):
        for beta in _half_integer_range(s):
            shifted = omega + TWO_PI_I * (alpha / r) + TWO_PI_I * (beta / s)
            total += closed_form(2, n, shifted, series_params).value
    rhs = r ** (n - 1) * total
    params = {"r": r, "s": s, "n": [n], "omega": _cstr(omega)}
    return [(params, lhs - rhs)]


def check_rational_hbar(
    spec: CheckSpec | None = None, seed: int = DEFAULT_SEED
) -> list[CheckReport]:
    """At hbar = r/s the quadrature value at argument r*omega equals
    r^(|n|-m) times the shift sum of undeformed closed forms (the
    argument-scaling relation composed with the hbar = 1 reduction).  Each
    distinct closed form is evaluated once per call."""
    return _check_points(
        spec or default_rational_hbar_spec(), _rational_hbar_point,
        functools.cache(depth1_closed_form), SeriesParams(),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CHECKS: dict[str, Callable[..., list[CheckReport]]] = {
    "asymptotic": check_asymptotic,
    "companion": check_companion,
    "difference_and_differential": check_difference_and_differential,
    "distribution": check_distribution,
    "h1": check_h1,
    "q_calculus": check_q_calculus,
    "rational_hbar": check_rational_hbar,
    "series_vs_contour": check_series_vs_contour,
    "shuffle": check_shuffle,
    "symmetries": check_symmetries,
}


def _sort_key(report: CheckReport) -> tuple:
    return (
        report.identity_name,
        sorted((str(k), str(v)) for k, v in report.params.items()),
    )


def run_all(
    seed: int = DEFAULT_SEED, names: Sequence[str] | None = None
) -> list[CheckReport]:
    """Run the named checks (default: all) on their frozen grids and return
    the reports sorted by (identity name, parameters) for reproducibility."""
    selected = list(CHECKS) if names is None else list(names)
    reports: list[CheckReport] = []
    for name in selected:
        if name not in CHECKS:
            raise DomainError(
                f"unknown identity {name!r}; known: {', '.join(sorted(CHECKS))}"
            )
        reports.extend(CHECKS[name](None, seed=seed))
    reports.sort(key=_sort_key)
    return reports
