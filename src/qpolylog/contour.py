"""Oscillatory contour-quadrature backend.

Evaluates the iterated line integrals

    F_{a,b,n}(omega) = i^(|n|-m) * int over (R + i eps)^m of
        prod_k exp(-i p_k omega_k) / (sh(pi p_k)^(a_k) * sh(pi h p_k)^(b_k))
        * dp_k / P_k^(n_k),          P_k = p_1 + ... + p_k,

with sh(x) = exp(x) - exp(-x) and the line oriented left to right, together
with the difference-variable form I (exponentials exp(-i P_k w_k)), the
specialization whose value is a multiple polylogarithm, zeta values at
omega = 0, small-circle residue quadrature for the Bernoulli layer, the
depth-one closed form, and the depth-one generating function in the extra
pole variable u.

Numerics: all kernel factors are assembled in log space (so sh^(-a) at
|p| ~ 200 never overflows), and each axis is truncated where the
integrand's exponential decay rate d_i = pi(a_i + b_i Re h) - |Im omega_i|
pushes the tail below one unit round-off (or below tolerance, if that is
finer).  Every axis is sampled by the trapezoid rule on one uniform grid
p = j h + i eps, which converges exponentially in 1/h because the integrand
is analytic in a strip around the line (Trefethen & Weideman, SIAM Review
56(3), 2014).  On that grid the prefix sum P_c = h (j_1 + ... + j_c) + i c eps
depends only on the index sum, so the nested sum is folded one axis at a
time: a full FFT convolution with the next axis's samples, then a pointwise
multiply by P_c^(-n_c).  Depth m costs O(m N log N) for N nodes per axis.
The first step comes from the distance between the line and the nearest
singularity; the step is halved until two successive values agree.  The
halved grids are nested, so each pass samples the kernel only on its new
odd nodes and reuses every earlier sample.

Batches: quad_F_batch and quad_I_batch evaluate many points that share the
index, h and tolerance.  The first step and the strip width do not depend
on omega, so every point's grid at a level is a centred slice of the widest
one, and the omega-free factors a log sh(pi p) and b log sh(pi h p) are
sampled once per node of that grid; only exp(-i p omega), the fold and the
stopping test are per point.  Each point's value, estimate, diagnostics and
errors are bit for bit those of a batch of one, which is what quad_F runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    POINT_ERRORS,
    ConvergenceError,
    DomainError,
    EvalResult,
    MultiIndex,
    convergence_strip,
    ensure_finite_complex,
    fail_points,
    map_points,
    unwrap,
    validate_hbar,
)
from .exact import binom_general, q_poly
from .series import _UNIT_ROUNDOFF, SeriesParams, _fftconvolve, classical_polylog

__all__ = [
    "QuadratureSpec",
    "KernelParams",
    "kernel",
    "quad_F",
    "quad_F_batch",
    "quad_I",
    "quad_I_batch",
    "quad_Li",
    "quad_zeta_hbar",
    "quad_bernoulli_circle",
    "depth1_closed_form",
    "gen_series_depth1",
]

# Node budget of one trapezoid pass, summed over the axes: bounds memory at
# the smallest line heights, where the uniform step gets fine.
_MAX_NODES = 1 << 21


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the trapezoid line quadrature, at any depth.

    epsilon: height of the line above the real axis (None = automatic, half
        of the lowest pole height).
    T: per-axis truncation override (None = automatic: axis i is cut at
        T_i = min(ln(1/min(u, tol/100)) / d_i, 200), so that its tail
        exp(-d_i T_i) / d_i at decay rate d_i lies below one unit round-off u).
    max_refine: number of step-halving passes allowed after the first step.
    tol: absolute convergence target: the step is halved until the values
        at h and h/2 differ by at most tol, and the h/2 value is returned.
    """

    epsilon: float | None = None
    T: float | None = None
    max_refine: int = 4
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.epsilon is not None and not (0 < self.epsilon < 1):
            raise DomainError("epsilon must lie in (0, 1)")
        if self.T is not None and not (1 <= self.T <= 500):
            raise DomainError("T must lie in [1, 500]")
        if self.max_refine < 1:
            raise DomainError("max_refine must be >= 1")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise DomainError("tol must be positive and finite")


@dataclass(frozen=True)
class KernelParams:
    """One axis of the integrand: exponents (a, b), deformation h, and the
    conjugate variable omega."""

    a: int
    b: int
    hbar: complex
    omega: complex

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise DomainError("a and b must be non-negative")
        if self.a + self.b < 1:
            raise DomainError("need a + b >= 1 for a line-integrable kernel factor")
        validate_hbar(self.hbar)
        ensure_finite_complex(self.omega, "omega")


def _logsh(z: np.ndarray) -> np.ndarray:
    """log of sh(z) = exp(z) - exp(-z), branch chosen so that the result is
    exact under exp(k * _logsh) for every integer k."""
    z = np.asarray(z, dtype=np.complex128)
    flip = z.real < 0
    zz = np.where(flip, -z, z)
    out = zz + np.log(1.0 - np.exp(-2.0 * zz))
    return np.where(flip, out + 1j * math.pi, out)


def _kernel_terms(a: int, b: int, hbar: complex, p: np.ndarray) -> list:
    """The log-kernel terms that do not depend on omega, a log sh(pi p) and
    b log sh(pi h p), at nodes p, in the order they are subtracted."""
    terms = []
    if a:
        terms.append(a * _logsh(math.pi * p))
    if b:
        terms.append(b * _logsh(math.pi * hbar * p))
    return terms


def _log_kernel(a: int, b: int, hbar: complex, omega: complex, p: np.ndarray) -> np.ndarray:
    """log of one kernel factor, assembled before any exponentiation."""
    out = -1j * p * omega
    for term in _kernel_terms(a, b, hbar, p):
        out = out - term
    return out


def kernel(params: KernelParams, p) -> complex | np.ndarray:
    """The kernel factor exp(-i p omega) / (sh(pi p)^a * sh(pi h p)^b)."""
    arr = np.asarray(p, dtype=np.complex128)
    vals = np.exp(_log_kernel(params.a, params.b, params.hbar, params.omega, arr))
    if np.isscalar(p) or arr.ndim == 0:
        return complex(vals)
    return vals


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


def _lowest_pole(hbar: complex, has_b: bool) -> float:
    """Height of the lowest kernel pole above the real axis: poles sit at
    i k (height k) and i k / h (height k Re h / |h|^2)."""
    h = complex(hbar)
    if has_b:
        return min(1.0, h.real / abs(h) ** 2)
    return 1.0


def _strip_half_width(
    eps: float, top: float, n: Sequence[int], shifts: Sequence[complex]
) -> float:
    """Distance from the line to the nearest singularity of the integrand in
    any one axis variable: the kernel poles at heights 0 and top, and the
    zero of P_c - i u_c, which lies c eps - Re u_c below the line."""
    d = min(eps, top - eps)
    for c, (nc, u) in enumerate(zip(n, shifts), start=1):
        if nc > 0:
            d = min(d, c * eps - complex(u).real)
    return d


def _axis_decay_rates(strip: Sequence[float], omega: Sequence[complex]) -> list[float]:
    rates = []
    for i, s in enumerate(strip):
        d = s - abs(omega[i].imag)
        if d <= 0:
            raise DomainError(
                f"axis {i}: |Im omega| = {abs(omega[i].imag):.6g} is not "
                f"inside the convergence strip (half-width {s:.6g})"
            )
        rates.append(d)
    return rates


# ---------------------------------------------------------------------------
# Core line integral
# ---------------------------------------------------------------------------


class _LinePoint:
    """One point of a batched line integral: its truncation and refinement
    state."""

    __slots__ = ("k", "omega", "T", "tail", "halves", "counts", "samples", "nodes",
                 "deltas", "value", "floor")

    def __init__(self, k: int, omega: tuple, T: list, tail: float, h0: float) -> None:
        self.k, self.omega, self.T, self.tail = k, omega, T, tail
        self.halves = [math.ceil(t / h0) for t in T]
        self.samples: list = [None] * len(omega)
        self.nodes = 0
        self.deltas: list[float] = []

    def result(self, level: int, eps: float) -> tuple[complex, float, dict]:
        return self.value, self.deltas[-1] + self.tail + self.floor, {
            "levels": level,
            "nodes_per_axis": self.counts,
            "nodes_evaluated": self.nodes,
            "deltas": self.deltas,
            "T": self.T,
            "epsilon": eps,
            "tail": self.tail,
        }


@np.errstate(over="ignore", invalid="ignore")
def _line_integral(
    idx: MultiIndex,
    omegas: Sequence,
    hbar: complex,
    spec: QuadratureSpec,
    pole_shifts: Sequence[complex] | None = None,
) -> list:
    """Raw iterated integral over the shifted lines (no i-power prefactor) at
    every point of omegas: for each point its (value, err, diagnostics), or
    the exception that point raised.  An entry of omegas that is already an
    exception passes through.

    pole_shifts u_k replace the coupling denominators by (P_k - i u_k)^(n_k).
    The error estimate is the last halving delta, plus the truncation tail,
    plus a round-off floor proportional to u * sum |terms|.  A point whose
    integrand overflows on the line (large Re omega) fails alone with a
    DomainError; the call lets no floating-point warning escape.

    The points share the first step h0, which does not depend on omega.  At
    each level, every axis samples its omega-free log-kernel terms
    a log sh(pi p) and b log sh(pi h p) once, on the widest live point's
    grid; each point takes its own slice and subtracts them from its
    -i p omega in the order a batch of one does.  Each point keeps its own
    truncation, samples, fold, node budget, stopping level and errors, so
    its result is bit for bit the result it has alone.
    """
    m = idx.depth

    def checked(omega) -> tuple:
        omega = tuple(ensure_finite_complex(v, "omega") for v in omega)
        if len(omega) != m:
            raise DomainError("omega must have one entry per axis")
        return omega

    out = map_points(checked, omegas)
    try:
        hbar = validate_hbar(hbar)
        shifts = tuple(pole_shifts) if pole_shifts is not None else (0j,) * m
        top = _lowest_pole(hbar, any(idx.b))
        eps = spec.epsilon if spec.epsilon is not None else 0.5 * top
        if eps >= top:
            raise DomainError(f"epsilon must lie below the lowest kernel pole ({top:.6g})")
        for u in shifts:
            if u != 0 and abs(u) >= eps:
                raise DomainError("pole shifts must satisfy |u| < epsilon")
        strip = convergence_strip(idx, hbar, for_contour=True)
    except POINT_ERRORS as exc:
        return fail_points(out, exc)

    rates = {}
    for k, omega in enumerate(out):
        if not isinstance(omega, Exception):
            try:
                rates[k] = _axis_decay_rates(strip, omega)
            except DomainError as exc:
                out[k] = exc
    try:
        target = spec.tol * 1e-2
        # Cut each axis where its tail exp(-d T) / d drops below one unit
        # round-off (or below target, if that is finer): past there the
        # samples add nothing to the sum.
        cut = max(-math.log(target), -math.log(_UNIT_ROUNDOFF))
        # The trapezoid error is the integrand's Fourier transform at the
        # aliasing frequency 2 pi / h.  A pole of order k at distance d from
        # the line gives ~ (2 pi / h)^(k-1) exp(-2 pi d / h), so the first
        # step solves 2 pi d / h = L + (k - 1) ln(L / (pi d)) with
        # L = ln(1 / target).
        d = _strip_half_width(eps, top, idx.n, shifts)
        order = max([idx.a[0] + idx.b[0] + idx.n[0]] + [a + b for a, b in zip(idx.a, idx.b)])
        L = max(-math.log(target), 1.0)
        h0 = 2 * math.pi * d / (L + (order - 1) * max(math.log(L / (math.pi * d)), 0.0))
    except POINT_ERRORS as exc:
        return fail_points(out, exc)
    live = []
    for k, axis_rates in rates.items():
        axis_T = [spec.T if spec.T is not None else min(cut / r, 200.0) for r in axis_rates]
        tail = sum(math.exp(-r * T) / r for r, T in zip(axis_rates, axis_T))
        live.append(_LinePoint(k, out[k], axis_T, tail, h0))
        out[k] = None

    # Level k samples axis i at p = (h0 / 2^k) j + i eps, |j| <= half_i 2^k.
    # (h/2)(2j) == h j bit for bit, so the even nodes of a level are exactly
    # the previous level's grid: each axis keeps exp(log-kernel) and
    # |log-kernel| between levels and computes only its new odd nodes.  The
    # grids of all points are nested in the widest one, about j = 0.
    for level in range(spec.max_refine + 1):
        h = h0 / 2**level
        for pt in live:
            pt.counts = [2 * (half << level) + 1 for half in pt.halves]
            if sum(pt.counts) > _MAX_NODES:
                out[pt.k] = ConvergenceError(
                    f"line quadrature at step {h:.3g} needs more than {_MAX_NODES} nodes"
                )
        live = [pt for pt in live if out[pt.k] is None]
        if not live:
            break
        for i in range(m):
            wide = max([pt.halves[i] for pt in live])
            if level:
                j = np.arange(1 - (wide << level), wide << level, 2)
            else:
                j = np.arange(-wide, wide + 1)
            p = h * j + 1j * eps
            terms = _kernel_terms(idx.a[i], idx.b[i], hbar, p)
            for pt in live:
                size = pt.halves[i] << level if level else 2 * pt.halves[i] + 1
                if size == p.size:
                    nodes, cut = p, terms
                else:
                    lo = (p.size - size) // 2
                    nodes, cut = p[lo:lo + size], [t[lo:lo + size] for t in terms]
                lg = -1j * nodes * pt.omega[i]
                for term in cut:
                    lg = lg - term
                pt.nodes += size
                fresh = (np.exp(lg), np.abs(lg))
                if not np.isfinite(fresh[0]).all():
                    out[pt.k] = DomainError(
                        f"the integrand overflows on the line at omega[{i}] = {pt.omega[i]!r}"
                    )
                pt.samples[i] = tuple(map(_interleave, pt.samples[i], fresh)) if level else fresh
        live = [pt for pt in live if out[pt.k] is None]
        going = []
        for pt in live:
            value, pt.floor = _fold(pt.samples, h, idx.n, eps, shifts)
            if level:
                pt.deltas.append(abs(value - pt.value))
            pt.value = value
            if level and pt.deltas[-1] <= spec.tol:
                out[pt.k] = pt.result(level, eps)
            else:
                going.append(pt)
        live = going
    for pt in live:
        deltas = pt.deltas
        if len(deltas) >= 2 and deltas[-1] >= deltas[-2] and deltas[-1] > 10 * spec.tol:
            out[pt.k] = ConvergenceError(
                f"line quadrature not converging: refinement deltas {deltas}"
            )
        elif deltas[-1] > 1e3 * spec.tol:
            out[pt.k] = ConvergenceError(
                f"line quadrature stalled at delta = {deltas[-1]:.3e} (tol {spec.tol:.3e})"
            )
        else:
            out[pt.k] = pt.result(spec.max_refine, eps)
    return out


def _fold(
    samples: list, h: float, n: Sequence[int], eps: float, shifts: Sequence[complex]
) -> tuple[complex, float]:
    """Trapezoid sum at step h over the samples (exp(log-kernel), |log-kernel|)
    of each axis, and its round-off floor u * sum |terms| * (1 + sum_i
    kappa_i): exp turns the absolute rounding of a log-space factor into a
    relative error of about u |log|, and kappa_i is the |term|-weighted mean
    of |log| on axis i."""
    acc = np.ones(1, dtype=np.complex128)
    kappa = 0.0
    for i, (e, abs_lg) in enumerate(samples):
        f = h * e
        weight = np.abs(f)
        if weight.any():
            kappa += float(weight @ abs_lg) / float(weight.sum())
        # acc[J] sums every path whose index sum is J; P_c = h J + i c eps
        acc = _fftconvolve(acc, f)
        if n[i] != 0:
            J = np.arange(acc.size) - acc.size // 2
            acc = acc * (h * J + 1j * ((i + 1) * eps - shifts[i])) ** (-n[i])
    floor = _UNIT_ROUNDOFF * (1.0 + kappa) * float(np.abs(acc).sum())
    return complex(acc.sum()), floor


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The array even[0], odd[0], even[1], ..., odd[-1], even[-1]."""
    out = np.empty(even.size + odd.size, dtype=np.result_type(even, odd))
    out[0::2] = even
    out[1::2] = odd
    return out


def _i_power(k: int) -> complex:
    return (1j) ** (k % 4)


def quad_F(
    idx: MultiIndex,
    omega: Sequence[complex],
    hbar: complex,
    spec: QuadratureSpec | None = None,
    pole_shifts: Sequence[complex] | None = None,
) -> EvalResult:
    """F_{a,b,n}(omega) by line quadrature (see module docstring), including
    the i^(|n|-m) normalization.  Requires every |Im omega_i| strictly inside
    the axis convergence strip pi(a_i + b_i Re h)."""
    spec = spec or QuadratureSpec()
    value, err, diag = unwrap(_line_integral(idx, (omega,), hbar, spec, pole_shifts)[0])
    pref = _i_power(sum(idx.n) - idx.depth)
    return EvalResult(pref * value, err, "contour", diag)


def quad_F_batch(
    idx: MultiIndex,
    omegas: Sequence,
    hbar: complex,
    spec: QuadratureSpec | None = None,
    pole_shifts: Sequence[complex] | None = None,
) -> list:
    """quad_F at every point of omegas, as one batch that samples the
    omega-free kernel factors once (see _line_integral): for each point the
    EvalResult quad_F returns, or the error it raises.  An entry that is
    already an exception passes through."""
    spec = spec or QuadratureSpec()
    pref = _i_power(sum(idx.n) - idx.depth)
    return map_points(
        lambda raw: EvalResult(pref * raw[0], raw[1], "contour", raw[2]),
        _line_integral(idx, omegas, hbar, spec, pole_shifts),
    )


def _transport(idx: MultiIndex, w: Sequence[complex]) -> tuple:
    """The arguments omega_j = w_j + w_{j+1} + ... + w_m of quad_I."""
    w = tuple(ensure_finite_complex(v, "w") for v in w)
    if len(w) != idx.depth:
        raise DomainError("w must have one entry per axis")
    return tuple(sum(w[j:], 0j) for j in range(idx.depth))


def quad_I(
    idx: MultiIndex,
    w: Sequence[complex],
    hbar: complex,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Difference-variable form: the same integral with exponentials
    exp(-i P_k w_k); equals F at the transported arguments
    omega_j = w_j + w_{j+1} + ... + w_m."""
    return quad_F(idx, _transport(idx, w), hbar, spec)


def quad_I_batch(
    idx: MultiIndex,
    ws: Sequence,
    hbar: complex,
    spec: QuadratureSpec | None = None,
) -> list:
    """quad_I at every point of ws, as one quad_F_batch."""
    return quad_F_batch(idx, map_points(lambda w: _transport(idx, w), ws), hbar, spec)


def quad_Li(
    n: Sequence[int],
    w: Sequence[complex],
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Contour evaluation of the simplex multiple polylogarithm:

        quad_Li(n, w) = Li_n(e^{w_1}, ..., e^{w_{m-1}}, -e^{w_m})

    through the first-order kernel (a = 1, b = 0 on every axis).  Requires
    per-axis |Im(w_j + ... + w_m)| < pi."""
    n = tuple(int(v) for v in n)
    m = len(n)
    if m < 1:
        raise DomainError("n must be non-empty")
    idx = MultiIndex((1,) * m, (0,) * m, n)
    return quad_I(idx, w, 1.0, spec)


def quad_zeta_hbar(
    s: Sequence[int],
    hbar: complex,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Deformed zeta value: the raw iterated integral (no i-power prefactor)
    with first-order kernels a = b = 1 on every axis, omega = 0, and coupling
    exponents n_k = s_k - 1.  Requires integer s_k >= 2 and real hbar > 0."""
    spec = spec or QuadratureSpec()
    s = tuple(int(v) for v in s)
    if not s or any(v < 2 for v in s):
        raise DomainError("zeta exponents must be integers >= 2")
    hbar = validate_hbar(hbar)
    if abs(hbar.imag) > 1e-15:
        raise DomainError("zeta values are defined for real hbar > 0")
    m = len(s)
    idx = MultiIndex((1,) * m, (1,) * m, tuple(v - 1 for v in s))
    value, err, diag = unwrap(_line_integral(idx, ((0j,) * m,), hbar, spec)[0])
    return EvalResult(value, err, "contour", diag)


@np.errstate(over="ignore", invalid="ignore")
def quad_bernoulli_circle(
    a: int,
    b: int,
    n: int,
    omega: complex,
    hbar: complex,
    radius: float | None = None,
    tol: float = 1e-13,
) -> EvalResult:
    """Residue form of the Bernoulli layer: i^(n-1) times the counterclockwise
    integral of the kernel times p^(-n) around p = 0, by trapezoid quadrature
    on a small circle (spectrally accurate).  An integrand that overflows on
    the circle (large |omega|) raises a DomainError; the call lets no
    floating-point warning escape."""
    if a < 0 or b < 0:
        raise DomainError("a and b must be non-negative")
    omega = ensure_finite_complex(omega, "omega")
    hbar = validate_hbar(hbar)
    top = _lowest_pole(hbar, b > 0)
    R = radius if radius is not None else 0.5 * top
    if not 0 < R < top:
        raise DomainError(f"radius must lie in (0, {top:.6g})")

    def ring(N: int) -> complex:
        theta = 2 * math.pi * np.arange(N) / N
        p = R * np.exp(1j * theta)
        vals = np.exp(_log_kernel(a, b, hbar, omega, p)) * p ** (-n)
        total = complex((2j * math.pi / N) * np.sum(vals * p))
        if not cmath.isfinite(total):
            raise DomainError(f"the integrand overflows on the circle at omega = {omega!r}")
        return total

    N = 64
    prev = ring(N)
    while N < 8192:
        N *= 2
        cur = ring(N)
        delta = abs(cur - prev)
        scale = max(1.0, abs(cur))
        if delta <= tol * scale:
            return EvalResult(
                _i_power(n - 1) * cur, delta + 1e-16 * scale, "contour",
                {"nodes": N, "radius": R},
            )
        prev = cur
    raise ConvergenceError("circle quadrature did not stabilize")


def depth1_closed_form(
    a: int,
    n: int,
    omega: complex,
    params: SeriesParams | None = None,
) -> EvalResult:
    """Closed form for the depth-one, pure first-family integral:

        F_{a,0,n}(omega) = sum_{j=0}^{a-1} C(n+j-1, j) (-1)^j
                           * Q_{a-1}^{(j)}(omega) * Li_{n+j}((-1)^a e^omega),

    with Q the difference-equation polynomial family and Li the classical
    polylogarithm.  Requires a >= 1 and Re omega < 0."""
    params = params or SeriesParams()
    if a < 1:
        raise DomainError("a must be >= 1")
    omega = ensure_finite_complex(omega, "omega")
    if omega.real >= 0:
        raise DomainError("closed form requires Re omega < 0")
    z = (-1) ** a * cmath.exp(omega)
    base = q_poly(a - 1)
    total = 0j
    err = 0.0
    for j in range(a):
        coeff = binom_general(n + j - 1, j) * (-1) ** j
        if coeff == 0:
            continue
        qval = base.deriv_omega(j).eval(omega, 1.0)
        li = classical_polylog(n + j, z, params)
        total += coeff * qval * li.value
        err += abs(coeff * qval) * li.err_estimate + 1e-16 * abs(coeff * qval * li.value)
    return EvalResult(total, err, "closed_form", {"a": a, "n": n})


def gen_series_depth1(
    omega: complex,
    hbar: complex,
    u: complex,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Depth-one generating integral in the extra pole variable u:

        G(u) = int over R + i eps of
            exp(-i p omega) / (sh(pi p) sh(pi h p)) * dp / (p - i u).

    For |u| < eps its Taylor coefficients in u give the tower of first-order
    values, G = sum_{n>=1} F_{1,1,n}(omega) u^(n-1).  Requires |u| < eps."""
    u = ensure_finite_complex(u, "u")
    return quad_F(MultiIndex((1,), (1,), (1,)), (omega,), hbar, spec, pole_shifts=(u,))
