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
pushes the tail below tolerance.  Every axis is sampled by the trapezoid
rule on one uniform grid p = j h + i eps, which converges exponentially in
1/h because the integrand is analytic in a strip around the line
(Trefethen & Weideman, SIAM Review 56(3), 2014).  On that grid the prefix
sum P_c = h (j_1 + ... + j_c) + i c eps depends only on the index sum, so
the nested sum is folded one axis at a time: a full FFT convolution with
the next axis's samples, then a pointwise multiply by P_c^(-n_c).  Depth m
costs O(m N log N) for N nodes per axis.  The first step comes from the
distance between the line and the nearest singularity; the step is halved
until two successive values agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    EvalResult,
    MultiIndex,
    convergence_strip,
    ensure_finite_complex,
    validate_hbar,
)
from .exact import binom_general, q_poly
from .series import _UNIT_ROUNDOFF, SeriesParams, _fftconvolve, classical_polylog

__all__ = [
    "QuadratureSpec",
    "KernelParams",
    "kernel",
    "quad_F",
    "quad_I",
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
    T: per-axis truncation override (None = automatic from the decay rate).
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


def _log_kernel(a: int, b: int, hbar: complex, omega: complex, p: np.ndarray) -> np.ndarray:
    """log of one kernel factor, assembled before any exponentiation."""
    out = -1j * p * omega
    if a:
        out = out - a * _logsh(math.pi * p)
    if b:
        out = out - b * _logsh(math.pi * hbar * p)
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


def _axis_decay_rates(
    idx: MultiIndex, omega: Sequence[complex], hbar: complex
) -> list[float]:
    strip = convergence_strip(idx, hbar, for_contour=True)
    rates = []
    for i in range(idx.depth):
        d = strip[i] - abs(complex(omega[i]).imag)
        if d <= 0:
            raise DomainError(
                f"axis {i}: |Im omega| = {abs(complex(omega[i]).imag):.6g} is not "
                f"inside the convergence strip (half-width {strip[i]:.6g})"
            )
        rates.append(d)
    return rates


# ---------------------------------------------------------------------------
# Core line integral
# ---------------------------------------------------------------------------


def _line_integral(
    idx: MultiIndex,
    omega: Sequence[complex],
    hbar: complex,
    spec: QuadratureSpec,
    pole_shifts: Sequence[complex] | None = None,
    sh_offsets: Sequence[tuple[complex, complex]] | None = None,
) -> tuple[complex, float, dict]:
    """Raw iterated integral over the shifted lines (no i-power prefactor).

    pole_shifts u_k replace the coupling denominators by (P_k - i u_k)^(n_k);
    sh_offsets (r_k, s_k) replace the kernel denominators by
    (sh(pi p) - r_k) * (sh(pi h p) - s_k) (only valid with a_k = b_k = 1).
    The error estimate is the last halving delta, plus the truncation tail,
    plus a round-off floor proportional to u * sum |terms|.
    """
    m = idx.depth
    omega = tuple(ensure_finite_complex(v, "omega") for v in omega)
    if len(omega) != m:
        raise DomainError("omega must have one entry per axis")
    hbar = validate_hbar(hbar)
    shifts = tuple(pole_shifts) if pole_shifts is not None else (0j,) * m
    offsets = tuple(sh_offsets) if sh_offsets is not None else ((0j, 0j),) * m
    for i, (r, s) in enumerate(offsets):
        if (r != 0 or s != 0) and (idx.a[i] != 1 or idx.b[i] != 1):
            raise DomainError("sh offsets require a = b = 1 on that axis")

    top = _lowest_pole(hbar, any(idx.b))
    eps = spec.epsilon if spec.epsilon is not None else 0.5 * top
    if eps >= top:
        raise DomainError(f"epsilon must lie below the lowest kernel pole ({top:.6g})")
    for u in shifts:
        if u != 0 and abs(u) >= eps:
            raise DomainError("pole shifts must satisfy |u| < epsilon")

    rates = _axis_decay_rates(idx, omega, hbar)
    target = spec.tol * 1e-2
    axis_T = []
    for d in rates:
        T = spec.T if spec.T is not None else min(max(-math.log(target) / d, 10.0), 200.0)
        axis_T.append(T)
    tail = sum(math.exp(-d * T) / d for d, T in zip(rates, axis_T))

    # The trapezoid error is the integrand's Fourier transform at the aliasing
    # frequency 2 pi / h.  A pole of order k at distance d from the line gives
    # ~ (2 pi / h)^(k-1) exp(-2 pi d / h), so the first step solves
    # 2 pi d / h = L + (k - 1) ln(L / (pi d)) with L = ln(1 / target).
    d = _strip_half_width(eps, top, idx.n, shifts)
    order = max([idx.a[0] + idx.b[0] + idx.n[0]] + [a + b for a, b in zip(idx.a, idx.b)])
    L = max(-math.log(target), 1.0)
    h0 = 2 * math.pi * d / (L + (order - 1) * max(math.log(L / (math.pi * d)), 0.0))

    def evaluate(h: float) -> tuple[complex, float, list[int]]:
        """Trapezoid sum at step h, its round-off floor, and the node count on
        every axis.  The floor is u * sum |terms| * (1 + sum_i kappa_i): exp
        turns the absolute rounding of a log-space factor into a relative
        error of about u |log|, and kappa_i is the |term|-weighted mean of
        |log| on axis i."""
        counts = [2 * math.ceil(T / h) + 1 for T in axis_T]
        if sum(counts) > _MAX_NODES:
            raise ConvergenceError(
                f"line quadrature at step {h:.3g} needs more than {_MAX_NODES} nodes"
            )
        acc = np.ones(1, dtype=np.complex128)
        kappa = 0.0
        for i in range(m):
            half = counts[i] // 2
            p = h * np.arange(-half, half + 1) + 1j * eps
            lg = _log_kernel(idx.a[i], idx.b[i], hbar, omega[i], p)
            r, s = offsets[i]
            if r != 0 or s != 0:
                # 1/(sh - r) = (1/sh) / (1 - r/sh): fold the correction in
                inv_sh = np.exp(-_logsh(math.pi * p))
                inv_shh = np.exp(-_logsh(math.pi * hbar * p))
                lg = lg - np.log(1.0 - r * inv_sh) - np.log(1.0 - s * inv_shh)
            f = h * np.exp(lg)
            weight = np.abs(f)
            if weight.any():
                kappa += float(weight @ np.abs(lg)) / float(weight.sum())
            # acc[J] sums every path whose index sum is J; P_c = h J + i c eps
            acc = _fftconvolve(acc, f)
            if idx.n[i] != 0:
                J = np.arange(acc.size) - acc.size // 2
                acc = acc * (h * J + 1j * ((i + 1) * eps - shifts[i])) ** (-idx.n[i])
        floor = _UNIT_ROUNDOFF * (1.0 + kappa) * float(np.abs(acc).sum())
        return complex(acc.sum()), floor, counts

    deltas: list[float] = []
    for level in range(spec.max_refine + 1):
        value, floor, counts = evaluate(h0 / 2**level)
        if level:
            deltas.append(abs(value - prev))
            if deltas[-1] <= spec.tol:
                break
        prev = value
    else:
        if len(deltas) >= 2 and deltas[-1] >= deltas[-2] and deltas[-1] > 10 * spec.tol:
            raise ConvergenceError(
                f"line quadrature not converging: refinement deltas {deltas}"
            )
        if deltas[-1] > 1e3 * spec.tol:
            raise ConvergenceError(
                f"line quadrature stalled at delta = {deltas[-1]:.3e} (tol {spec.tol:.3e})"
            )
    return value, deltas[-1] + tail + floor, {
        "levels": level,
        "nodes_per_axis": counts,
        "T": axis_T,
        "epsilon": eps,
        "tail": tail,
    }


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
    value, err, diag = _line_integral(idx, omega, hbar, spec, pole_shifts)
    pref = _i_power(sum(idx.n) - idx.depth)
    return EvalResult(pref * value, err, "contour", diag)


def quad_I(
    idx: MultiIndex,
    w: Sequence[complex],
    hbar: complex,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Difference-variable form: the same integral with exponentials
    exp(-i P_k w_k); equals F at the transported arguments
    omega_j = w_j + w_{j+1} + ... + w_m."""
    w = tuple(ensure_finite_complex(v, "w") for v in w)
    if len(w) != idx.depth:
        raise DomainError("w must have one entry per axis")
    omega = tuple(sum(w[j:], 0j) for j in range(idx.depth))
    return quad_F(idx, omega, hbar, spec)


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
    value, err, diag = _line_integral(idx, (0j,) * m, hbar, spec)
    return EvalResult(value, err, "contour", diag)


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
    on a small circle (spectrally accurate)."""
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
        return complex((2j * math.pi / N) * np.sum(vals * p))

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
    r: complex = 0j,
    s: complex = 0j,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Depth-one generating integral in the extra pole variable u:

        G(u; r, s) = int over R + i eps of
            exp(-i p omega) / ((sh(pi p) - r)(sh(pi h p) - s)) * dp / (p - i u).

    For |u| < eps its Taylor coefficients in u give the tower of first-order
    values, G = sum_{n>=1} F_{1,1,n}(omega) u^(n-1) at r = s = 0; the r and s
    expansions raise the two kernel exponents.  Requires |u| < eps and
    |r|, |s| <= 0.5."""
    spec = spec or QuadratureSpec()
    u = ensure_finite_complex(u, "u")
    r = ensure_finite_complex(r, "r")
    s = ensure_finite_complex(s, "s")
    if abs(r) > 0.5 or abs(s) > 0.5:
        raise DomainError("deformations must satisfy |r|, |s| <= 0.5")
    idx = MultiIndex((1,), (1,), (1,))
    value, err, diag = _line_integral(
        idx, (omega,), hbar, spec, pole_shifts=(u,), sh_offsets=((r, s),)
    )
    return EvalResult(value, err, "contour", diag)
