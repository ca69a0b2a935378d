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
The first step h0 comes from the distance between the line and the nearest
singularity, so that the step-h0 value already meets tol / 100.  The error
of the value at step h is certified by the trapezoid rule's known rate, and
every pass, at steps h0, h0 / 2, ..., takes it the same way: it samples its
step-h grid once, with one exp and one |.| of the log-kernel per node, and
folds that grid.  Its even entries are the step-2h grid ((2h) j == h (2j)
bit for bit); at depth 1 the step-2h sum is twice the step-h sum over even
J, as (2h) x == 2 (h x) bit for bit away from subnormals and overflow, and
other rows fold the step-2h grid, with no round-off floor.  The difference
of the two sums, times the rate E(h) / E(2h) of the aliasing model (see
_Line) and a margin, is the error of the step-h value; while it exceeds tol
the step is halved, and the next pass samples its whole grid again, so
nothing outlives its pass.  A point refines past the first pass only where
its delta is far above what the model predicts, or where Re omega shifts
the aliasing frequency past pi / h0.

Batches: one call evaluates many rows, each with its own index, h and pole
shifts, and so its own first step, line height, strip and truncation (see
_line_integral).  Each level cuts its rows into stacks of one depth within
_MAX_STACK cells (see _stacks), and samples and folds each in one pass.
In a pass, rows of one step and eps share a grid, of which every axis grid
is a centred slice, and log sh(pi p) and log sh(pi h p) are evaluated once
per grid and c, in one _logsh call, and only on the right half where the
mirror gives the left: h (-j) == -(h j) bit for bit, so for real c > 0 the
left half of log sh(c p) is conj(right half) + i pi.  That needs numpy's
complex exp and log to be conjugate-symmetric, as C99's cexp and clog are;
at complex h, sh(pi h p) has no mirror.

A fold takes the rows of a stack: each axis's samples h e are the
zero-padded rows of one array, and each later axis is one call of
series._fftconvolve, the FFT row convolver of the cone sums, which gives
each row the transform length and size it has alone.  A pass forms each
factor P_c^(-n_c) once per (h, eps, shift, n_c), and the fold of its
step-2h grid takes every other entry of the step-h grid's.  numpy's complex
multiply is not bitwise commutative, and numpy evaluates acc * factor with a
temporary factor of 16,384 entries (256 KiB) or more as factor * acc; each
row is multiplied in the order that product takes at its own size.  So each
row's value, estimate, diagnostics and errors are bit for bit those it has
alone, which is what quad_F runs, and rows that repeat one another are
computed once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    POINT_ERRORS,
    ConvergenceError,
    DomainError,
    EvalResult,
    MultiIndex,
    _as_int_tuple,
    convergence_strip,
    ensure_finite_complex,
    map_points,
    unwrap,
    validate_hbar,
)
from .exact import binom_general, q_poly
from .series import _UNIT_ROUNDOFF, SeriesParams, _fftconvolve, _suffix_sums, classical_polylog

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
# Cells of one pass's stack at its widest row's full convolution (see
# _stacks): bounds the samples and FFT work arrays held at once.
_MAX_STACK = 1 << 14
# Margin on the rate model's error of a returned value (_LinePoint.error):
# with it, every estimate of the calibration grid in tests/test_calibration.py
# bounds its actual error.
_RATE_MARGIN = 4.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the trapezoid line quadrature, at any depth.

    epsilon: height of the line above the real axis (None = automatic, half
        of the lowest pole height).
    T: per-axis truncation override (None = automatic: axis i is cut at
        T_i = min(ln(1/min(u, tol/100)) / d_i, 200), so that its tail
        exp(-d_i T_i) / d_i at decay rate d_i lies below one unit round-off u).
    max_refine: number of step-halving passes allowed after the first step
        h0, so that the finest step is h0 / 2^max_refine.
    tol: absolute convergence target: the step is halved until the error of
        the value at step h, certified from its difference to the value at
        step 2h by the trapezoid rule's convergence rate, is at most tol, and
        that value is returned.
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
    if not flip.any():  # e.g. every right half that _mirrored_logsh passes
        return z + np.log(1.0 - np.exp(-2.0 * z))
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


class _Row(NamedTuple):
    """One row of a contour call: quad_F(idx, omega, hbar, pole_shifts=...),
    or the raw integral (no i-power prefactor) if not prefixed."""

    idx: MultiIndex
    omega: Sequence
    hbar: complex
    pole_shifts: Sequence[complex] | None = None
    prefixed: bool = True


class _Line:
    """What rows of one index, h and pole shifts share: eps, strip, h0, the
    distance d and order of the nearest pole and, per axis, the factors
    (c, exponent) of log sh(c p) in its log-kernel (c = pi or pi h) and its
    coupling (pole, n_c), where P_c - i u_c = h J + pole."""

    __slots__ = ("eps", "factors", "couplings", "strip", "d", "order", "h0")

    def __init__(self, idx: MultiIndex, hbar: complex, shifts: tuple, spec: QuadratureSpec):
        top = _lowest_pole(hbar, any(idx.b))
        self.eps = eps = spec.epsilon if spec.epsilon is not None else 0.5 * top
        if eps >= top:
            raise DomainError(f"epsilon must lie below the lowest kernel pole ({top:.6g})")
        for u in shifts:
            if u != 0 and abs(u) >= eps:
                raise DomainError("pole shifts must satisfy |u| < epsilon")
        pi_h = math.pi * hbar
        self.factors = [tuple([f for f in ((math.pi, a), (pi_h, b)) if f[1]])
                        for a, b in zip(idx.a, idx.b)]
        self.couplings = [(1j * (c * eps - u), nc)
                          for c, (u, nc) in enumerate(zip(shifts, idx.n), start=1)]
        self.strip = convergence_strip(idx, hbar, for_contour=True)
        # The trapezoid error is the integrand's Fourier transform at the
        # aliasing frequency 2 pi / h.  A pole of order k at distance d from
        # the line gives E(h) ~ (2 pi / h)^(k-1) exp(-2 pi d / h), so the
        # first step solves 2 pi d / h = L + (k - 1) ln(L / (pi d)) with
        # L = ln(1 / target), and E(h) / E(2 h) = 2^(k-1) exp(-pi d / h)
        # (at Re omega = 0; see _LinePoint.error).
        self.d = d = _strip_half_width(eps, top, idx.n, shifts)
        self.order = max([idx.a[0] + idx.b[0] + idx.n[0]] + [a + b for a, b in zip(idx.a, idx.b)])
        L = max(-math.log(spec.tol * 1e-2), 1.0)
        self.h0 = 2 * math.pi * d / (L + (self.order - 1) * max(math.log(L / (math.pi * d)), 0.0))


class _LinePoint:
    """One row of a line integral: its line, truncation and refinement
    state; h is the step of the grid it is sampled on."""

    __slots__ = ("k", "line", "omega", "T", "tail", "halves", "h", "counts", "deltas", "value",
                 "floor")

    def __init__(self, k: int, line: _Line, omega: tuple, T: list, tail: float) -> None:
        self.k, self.line, self.omega, self.T, self.tail = k, line, omega, T, tail
        self.halves = [math.ceil(t / line.h0) for t in T]
        self.deltas: list[float] = []

    def error(self) -> float:
        """The error of the value at step h, from its delta to the value at
        step 2h: _RATE_MARGIN E(h) / E(2h) delta (see _Line), where
        exp(-i p omega) shifts the aliasing frequency x = pi / h by up to
        W = max |Re omega_i|: E(h) / E(2h) = ((2x - W) / (x - W))^(k-1)
        exp(-d x).  At W >= x the step-2h grid aliases the error of the
        step-h value onto itself, which delta cannot see: inf.  (At complex
        h, aliasing terms that nearly cancel at step 2h can still leave
        delta short; the margin covers the calibration grid.)"""
        x, shift, line = math.pi / self.h, max(abs(w.real) for w in self.omega), self.line
        if shift >= x:
            return math.inf
        rho = ((2 * x - shift) / (x - shift)) ** (line.order - 1) * math.exp(-line.d * x)
        return _RATE_MARGIN * rho * self.deltas[-1]

    def overflow(self, i: int) -> DomainError:
        omega = self.omega[i]
        return DomainError(f"the integrand overflows on the line at omega[{i}] = {omega!r}")

    def unconverged(self, spec: QuadratureSpec):
        """The outcome of a point whose certified error still exceeds tol at
        the last level: its result, with the last delta as its error, if the
        deltas settled close enough, else the error."""
        deltas = self.deltas
        if len(deltas) >= 2 and deltas[-1] >= deltas[-2] and deltas[-1] > 10 * spec.tol:
            return ConvergenceError(f"line quadrature not converging: refinement deltas {deltas}")
        if deltas[-1] > 1e3 * spec.tol:
            return ConvergenceError(
                f"line quadrature stalled at delta = {deltas[-1]:.3e} (tol {spec.tol:.3e})"
            )
        return self.result(deltas[-1])

    def result(self, err: float) -> tuple[complex, float, dict]:
        return self.value, err + self.tail + self.floor, {
            "levels": len(self.deltas),
            "nodes_per_axis": self.counts,
            "nodes_evaluated": sum(self.counts),
            "deltas": self.deltas,
            "T": self.T,
            "epsilon": self.line.eps,
            "tail": self.tail,
        }


def _overflowing_axis(samples: list) -> int | None:
    """The last axis whose exp(log-kernel) samples are not all finite, if
    any: the axis a pass that samples the axes in order reports."""
    bad = None
    for i, (e, _) in enumerate(samples):
        if not np.isfinite(e).all():
            bad = i
    return bad


def _mirrored_logsh(pairs: Sequence[tuple]) -> list[tuple]:
    """(_logsh(c p), _logsh_rounding(c p, that log)) for each (c, p) of
    pairs, p a grid h j + i eps symmetric about j = 0, from one _logsh call,
    which works entry by entry.  For real c > 0 only the right half (j >= 0)
    is evaluated: c p at -j is -conj(c p at j) bit for bit, where _logsh
    takes its flip branch, so the left half of the log is conj(right) + i pi
    (see the module docstring), and that of the rounding, which reads only
    |c p| and real parts, is the right half mirrored."""
    args = [c * p if complex(c).imag != 0 else c * p[p.size // 2:] for c, p in pairs]
    z = np.concatenate(args)
    logs = _logsh(z)
    roundings, at = _logsh_rounding(z, logs), 0
    out = []
    for (c, p), arg in zip(pairs, args):
        log, rounding = logs[at:at + arg.size], roundings[at:at + arg.size]
        at += arg.size
        if arg.size < p.size:
            log = np.concatenate((np.conj(log[::-1][:p.size // 2]) + 1j * math.pi, log))
            rounding = np.concatenate((rounding[::-1][:p.size // 2], rounding))
        out.append((log, rounding))
    return out


def _logsh_rounding(z: np.ndarray, log: np.ndarray) -> np.ndarray:
    """The rounding of log = _logsh(z) beyond u |log|, in units of u: with
    Re z >= 0 (else flipped), exp(-2 z) takes the error u |2 z| of its
    argument, and 1 - exp(-2 z) cancels near the zeros of sh, which gives
    (1 + 2 |z|) |exp(-2 z)| / |1 - exp(-2 z)| = (1 + 2 |z|) exp(-|Re z| - Re log)."""
    return (1 + 2 * np.abs(z)) * np.exp(-np.abs(z.real) - log.real)


def _centred(arr: np.ndarray, size: int) -> np.ndarray:
    lo = (arr.size - size) // 2
    return arr[lo:lo + size]


def _sample_pass(pts: Sequence[_LinePoint]) -> list:
    """For each point, its samples (exp(log-kernel), rounding) on each axis
    i, on its grid p = pt.h j + i eps of pt.counts[i] nodes, a centred slice
    of the widest grid of that step and eps; rounding is |log-kernel| plus
    the axis factors' summed _logsh_rounding, in units of u.  Each log
    sh(c p) is evaluated once per grid and c (one _mirrored_logsh call) and
    scaled once per exponent, and -i p and the summed rounding once per grid
    (and factors); each point subtracts the slices from its -i p omega in
    the order a point alone does."""
    grids: dict = {}  # (h, eps) -> widest size
    terms = set()  # (h, eps, c, exponent)
    for pt in pts:
        grid = (pt.h, pt.line.eps)
        grids[grid] = max(grids.get(grid, 0), max(pt.counts))
        terms.update([grid + f for factors in pt.line.factors for f in factors])
    p = {grid: grid[0] * np.arange(-(w // 2), w // 2 + 1) + 1j * grid[1]
         for grid, w in grids.items()}
    spans = list({key[:3] for key in terms})
    logs = dict(zip(spans, _mirrored_logsh([(c, p[h, eps]) for h, eps, c in spans])))
    terms = {key: key[3] * logs[key[:3]][0] for key in terms}
    phases = {grid: -1j * p[grid] for grid in p}
    roundings: dict = {}  # (h, eps, factors) -> sum of exponent * rounding
    samples = []
    for pt in pts:
        grid = (pt.h, pt.line.eps)
        samples.append([])
        for i, (size, factors) in enumerate(zip(pt.counts, pt.line.factors)):
            lg = _centred(phases[grid], size) * pt.omega[i]
            for factor in factors:
                lg = lg - _centred(terms[grid + factor], size)
            rounding = roundings.get(grid + factors)
            if rounding is None:
                rounding = roundings[grid + factors] = sum(
                    k * logs[grid + (c,)][1] for c, k in factors)
            samples[-1].append((np.exp(lg), np.abs(lg) + _centred(rounding, size)))
    return samples


def _line_points(rows: Sequence, spec: QuadratureSpec) -> tuple[list, list]:
    """The set-up of _line_integral: (out, live), with out[k] the error of
    row k, or the position of the earlier row it repeats bit for bit, or
    None; live holds the _LinePoint of every other row."""
    # Cut each axis where its tail exp(-d T) / d drops below one unit
    # round-off (or below tol / 100, if that is finer): past there the
    # samples add nothing to the sum.
    cut = max(-math.log(spec.tol * 1e-2), -math.log(_UNIT_ROUNDOFF))
    lines: dict = {}
    seen: dict = {}
    out, live = [], []
    for k, row in enumerate(rows):
        out.append(row if isinstance(row, Exception) else None)
        if out[k] is not None:
            continue
        idx, omega, hbar, pole_shifts = row[:4]
        try:
            omega = tuple(ensure_finite_complex(v, "omega") for v in omega)
            if len(omega) != idx.depth:
                raise DomainError("omega must have one entry per axis")
            hbar = validate_hbar(hbar)
            shifts = tuple(pole_shifts) if pole_shifts is not None else (0j,) * idx.depth
            # h and shifts that are equal as numbers give equal bits
            line = lines.get((idx, hbar, shifts))
            if line is None:
                try:
                    line = _Line(idx, hbar, shifts, spec)
                except POINT_ERRORS as exc:
                    line = exc
                lines[idx, hbar, shifts] = line
            if isinstance(line, Exception):
                out[k] = line
                continue
            # omega is not: -0.0 and 0.0 may round apart, and repr tells them apart
            first = seen.get((line, omega))
            if first is not None and repr(omega) == repr(first.omega):
                out[k] = first.k
                continue
            rates = _axis_decay_rates(line.strip, omega)
        except POINT_ERRORS as exc:
            out[k] = exc
            continue
        axis_T = [spec.T if spec.T is not None else min(cut / r, 200.0) for r in rates]
        tail = sum(math.exp(-r * T) / r for r, T in zip(rates, axis_T))
        live.append(_LinePoint(k, line, omega, axis_T, tail))
        seen[line, omega] = live[-1]
    live.sort(key=lambda pt: len(pt.omega))  # a stack holds one depth (see _stacks)
    return out, live


@np.errstate(over="ignore", invalid="ignore")
def _line_integral(rows: Sequence, spec: QuadratureSpec) -> list:
    """Raw iterated integral over the shifted lines (no i-power prefactor) at
    each row (idx, omega, hbar, pole_shifts) of rows: for each row its
    (value, err, diagnostics), or the exception that row raised.  A row that
    is already an exception passes through.

    pole_shifts u_k (None: all 0) replace the coupling denominators by
    (P_k - i u_k)^(n_k).  The error estimate is the rate-certified error of
    the returned value (_LinePoint.error), plus the truncation tail, plus a
    round-off floor proportional to u * sum |terms|; diagnostics["levels"]
    counts the deltas.  A row whose integrand overflows on the line (large
    Re omega), or whose nested sum or floor is not finite, fails alone with
    a DomainError; the call lets no floating-point warning escape.  Each
    level runs one pass per stack of its live rows (see _stacks): it samples
    the stack's step-h grids, folds them, and folds the step-2h grids of the
    rows whose fold gave no step-2h sum (see _fold_rows); every row keeps
    its own grids, budget, stopping level and errors, and so the bits it has
    alone.
    """
    out, live = _line_points(rows, spec)
    # Level k samples axis i at p = (h0 / 2^k) j + i eps, |j| <= half_i 2^k.
    for level in range(spec.max_refine + 1):
        fine = []
        for pt in live:
            counts, h = [2 * (half << level) + 1 for half in pt.halves], pt.line.h0 / 2**level
            if sum(counts) <= _MAX_NODES:
                pt.counts, pt.h = counts, h
                fine.append(pt)
            else:
                out[pt.k] = ConvergenceError(
                    f"line quadrature at step {h:.3g} needs more than {_MAX_NODES} nodes")
        live = []
        for stack in _stacks(fine):
            # no sample outlives its pass
            samples, factors, steps = _sample_pass(stack), {}, [pt.h for pt in stack]
            sums = _fold_rows(stack, samples, steps, factors)
            redo = [r for r, s in enumerate(sums) if s[2] is None]  # fold their step-2h grids
            evens = {r: [(e[e.size // 2 % 2::2], None) for e, _ in samples[r]] for r in redo}
            coarse = _fold_rows([stack[r] for r in redo], list(evens.values()),
                                [2 * steps[r] for r in redo], factors) if redo else ()
            for r, (value_2h, _, _) in zip(redo, coarse):
                sums[r] = sums[r][:2] + (value_2h,)
            for r, (pt, (value, floor, value_2h)) in enumerate(zip(stack, sums)):
                if not (cmath.isfinite(value_2h) and cmath.isfinite(value) and math.isfinite(floor)):
                    # a sample that is not finite leaves no sum finite; the
                    # errors go in order: overflows on the step-2h grid, on
                    # the step-h grid, then the step-2h sum, then the step-h
                    bad = _overflowing_axis(evens[r])
                    if bad is None:
                        bad = _overflowing_axis(samples[r])
                    step = pt.h if cmath.isfinite(value_2h) else 2 * pt.h
                    out[pt.k] = pt.overflow(bad) if bad is not None else DomainError(
                        f"the nested sum overflows on the line at step {step:.3g}")
                    continue
                pt.value, pt.floor = value, floor
                pt.deltas.append(abs(value - value_2h))
                err = pt.error()
                if err <= spec.tol:
                    out[pt.k] = pt.result(err)
                else:
                    live.append(pt)
    for pt in live:
        out[pt.k] = pt.unconverged(spec)
    return [out[r] if isinstance(r, int) else r for r in out]


def _stacks(pts: list) -> Iterator[list]:
    """pts, in order (sorted by depth), cut into stacks of one depth that
    hold at most _MAX_STACK cells at the width of their widest row's full
    convolution, or a single row."""
    stack, width = [], 0
    for pt in pts:
        w = sum(pt.counts) - len(pt.counts) + 1
        if stack and (len(pt.counts) != len(stack[0].counts)
                      or (len(stack) + 1) * max(width, w) > _MAX_STACK):
            yield stack
            stack, width = [], 0
        stack.append(pt)
        width = max(width, w)
    if stack:
        yield stack


def _fold_rows(
    pts: list, samples: list, steps: list, factors: dict
) -> list[tuple[complex, float | None, complex | None]]:
    """Trapezoid sum of each point of pts, a stack of one depth, at its step
    steps[r], and its round-off floor u * sum |terms| * (1 + sum_i kappa_i),
    from samples[r][i] = (exp(log-kernel), rounding) of pts[r] on axis i
    (see _sample_pass): exp turns the absolute rounding of a log-space
    factor into a relative error of about u rounding, and kappa_i is the
    |term|-weighted mean of rounding on axis i.  Samples whose rounding is
    None give the floor None, and the same values to the bit.  factors maps
    (h, pole, n_c) to P_c^(-n_c) and takes the ones formed here.
    The first axis is the product 1 f, which keeps the sign of zeros as a
    point alone does, and each later axis is series._fftconvolve of the
    stack with its samples (see the module docstring).  A depth-1 row with a
    floor also gets its step-2h sum, twice its sum over even J (else None)."""
    with_floor = samples[0][0][1] is not None
    widths = [max(row[i][0].size for row in samples) for i in range(len(samples[0]))]
    sizes = [1] * len(pts)
    kappa = [0.0] * len(pts)
    for i, width in enumerate(widths):
        # the padding of a depth-1 stack is never read: inf keeps it out of the row minima
        f = np.full((len(pts), width), np.inf if len(widths) == 1 else 0.0, dtype=np.complex128)
        for r, row in enumerate(samples):
            e, rounding = row[i]
            sizes[r] += e.size - 1
            fr = np.multiply(steps[r], e, f[r, :e.size])
            if with_floor:
                weight = np.abs(fr)
                total = float(weight.sum())
                if total:  # some weight is nonzero
                    kappa[r] += float(weight @ rounding) / total
        # acc[r, J] sums every path of row r whose index sum is J; P_c = h J + i c eps
        acc = np.multiply(1 + 0j, f, f) if i == 0 else _fftconvolve(acc, f, sizes, 1)
        # P_c^(-n_c), once per (h, pole, n_c) on the widest row that takes
        # it; (h/2)(2J) == h J bit for bit, so a factor at step h is every
        # other entry of one at step h/2, copied so that every multiply
        # takes contiguous operands, as SIMD loops may round strided ones apart
        keys = [(h,) + pt.line.couplings[i] for h, pt in zip(steps, pts)]
        need: dict = {}
        for key, s in zip(keys, sizes):
            if key[2]:
                need[key] = max(need.get(key, 0), s)
        for (h, pole, nc), s in need.items():
            finer = factors.get((h / 2, pole, nc))
            if finer is not None and finer.size >= 2 * s - 1:
                factors[h, pole, nc] = _centred(finer, 2 * s - 1)[::2].copy()
            else:
                factors[h, pole, nc] = (h * np.arange(-(s // 2), s // 2 + 1.0) + pole) ** (-nc)
        for r, (key, s) in enumerate(zip(keys, sizes)):
            if key[2]:
                seg, cut = acc[r, :s], _centred(factors[key], s)
                # numpy's complex multiply is not bitwise commutative, and
                # numpy elides a temporary operand of 256 KiB or more by
                # swapping the operands: a point alone forms acc * factor
                # with a new factor, which runs as factor * acc on 16,384
                # entries or more.  Each row keeps the order its size gives.
                if seg.nbytes >= 256 * 1024:
                    np.multiply(cut, seg, seg)
                else:
                    np.multiply(seg, cut, seg)
    mags = np.abs(acc) if with_floor else None
    least, out = mags.min(axis=1).tolist() if with_floor and len(widths) == 1 else None, []
    for r, (s, (h, pole, nc)) in enumerate(zip(sizes, keys)):
        seg = acc[r, :s]
        floor = even = None
        if with_floor:
            mass = float(mags[r, :s].sum())
            floor = _UNIT_ROUNDOFF * (1.0 + kappa[r]) * mass
            if len(widths) == 1 and s < 1 << 14:  # so its step-2h row multiplies in its order
                # log2 |P^(-n)| is between a and b; keep |h e P^(-n)| and |h e| in 2^(-800..900)
                a, b = -nc * math.log2(pole.imag), -nc * math.log2(h * (s // 2) + abs(pole))
                if (least[r] > 0 and math.log2(least[r]) >= max(0, a, b) - 800
                        and math.log2(mass) < min(0, a, b) + 900):
                    even = 2 * complex(seg[s // 2 % 2::2].sum())
        out.append((complex(seg.sum()), floor, even))
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
    return unwrap(_quad_rows([_Row(idx, omega, hbar, pole_shifts)], spec)[0])


def quad_F_batch(
    idx: MultiIndex,
    omegas: Sequence,
    hbar: complex,
    spec: QuadratureSpec | None = None,
    pole_shifts: Sequence[complex] | None = None,
) -> list:
    """quad_F at every point of omegas, as one _quad_rows call: for each
    point the EvalResult quad_F returns, or the error it raises.  An entry
    that is already an exception passes through."""
    rows = [om if isinstance(om, Exception) else _Row(idx, om, hbar, pole_shifts) for om in omegas]
    return _quad_rows(rows, spec)


def _quad_rows(rows: Sequence, spec: QuadratureSpec | None = None) -> list:
    """For each _Row of rows, as one _line_integral call, its EvalResult (the
    raw integral if not row.prefixed) or its error, bit for bit as alone.
    A row that is already an exception passes through."""
    out = []
    for row, raw in zip(rows, _line_integral(rows, spec or QuadratureSpec())):
        if not isinstance(raw, Exception):
            value, err, diag = raw
            if row.prefixed:
                value = _i_power(sum(row.idx.n) - row.idx.depth) * value
            try:
                raw = EvalResult(value, err, "contour", diag)
            except POINT_ERRORS as exc:
                raw = exc
        out.append(raw)
    return out


def _transport(idx: MultiIndex, w: Sequence[complex]) -> tuple:
    """The arguments omega_j = w_j + w_{j+1} + ... + w_m of quad_I."""
    w = tuple(ensure_finite_complex(v, "w") for v in w)
    if len(w) != idx.depth:
        raise DomainError("w must have one entry per axis")
    return _suffix_sums(w)


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
    return unwrap(_quad_rows([_li_row(n, w)], spec)[0])


def _li_row(n: Sequence[int], w: Sequence[complex]) -> _Row:
    """The _Row of quad_Li(n, w), with its arguments checked: quad_I with
    the first-order kernel a = 1, b = 0 on every axis at hbar = 1."""
    m = len(n)
    idx = MultiIndex((1,) * m, (0,) * m, n)
    return _Row(idx, _transport(idx, w), 1.0)


def quad_zeta_hbar(
    s: Sequence[int],
    hbar: complex,
    spec: QuadratureSpec | None = None,
) -> EvalResult:
    """Deformed zeta value: the raw iterated integral (no i-power prefactor)
    with first-order kernels a = b = 1 on every axis, omega = 0, and coupling
    exponents n_k = s_k - 1.  Requires integer s_k >= 2 and real hbar > 0."""
    return unwrap(_quad_rows([_zeta_row(s, hbar)], spec)[0])


def _zeta_row(s: Sequence[int], hbar: complex) -> _Row:
    """The _Row of quad_zeta_hbar(s, hbar), with its arguments checked."""
    s = _as_int_tuple(s, "s")
    if not s or any(v < 2 for v in s):
        raise DomainError("zeta exponents must be integers >= 2")
    hbar = validate_hbar(hbar)
    if abs(hbar.imag) > 1e-15:
        raise DomainError("zeta values are defined for real hbar > 0")
    m = len(s)
    idx = MultiIndex((1,) * m, (1,) * m, tuple(v - 1 for v in s))
    return _Row(idx, (0j,) * m, hbar, prefixed=False)


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
    a, b, n = _as_int_tuple((a, b, n), "a, b and n")
    if a < 0 or b < 0:
        raise DomainError("a and b must be non-negative")
    omega = ensure_finite_complex(omega, "omega")
    hbar = validate_hbar(hbar)
    top = _lowest_pole(hbar, b > 0)
    R = radius if radius is not None else 0.5 * top
    if not 0 < R < top:
        raise DomainError(f"radius must lie in (0, {top:.6g})")

    def ring(N: int) -> tuple[complex, float]:
        """The trapezoid sum on N nodes, and its round-off floor
        u (1 + kappa) sum |terms|, with kappa as in _fold_rows."""
        theta = 2 * math.pi * np.arange(N) / N
        p = R * np.exp(1j * theta)
        lg = _log_kernel(a, b, hbar, omega, p)
        terms = np.exp(lg) * p ** (-n) * p
        total = complex((2j * math.pi / N) * np.sum(terms))
        if not cmath.isfinite(total):
            raise DomainError(f"the integrand overflows on the circle at omega = {omega!r}")
        weight = np.abs(terms)
        mass = float(weight.sum())
        kappa = float(weight @ np.abs(lg)) / mass if mass else 0.0
        return total, _UNIT_ROUNDOFF * (1.0 + kappa) * (2 * math.pi / N) * mass

    N = 64
    prev, _ = ring(N)
    while N < 8192:
        N *= 2
        cur, floor = ring(N)
        delta = abs(cur - prev)
        if delta <= tol * max(1.0, abs(cur)):
            return EvalResult(
                _i_power(n - 1) * cur, delta + floor, "contour", {"nodes": N, "radius": R},
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
    a, n = _as_int_tuple((a, n), "a and n")
    if a < 1:
        raise DomainError("a must be >= 1")
    omega = ensure_finite_complex(omega, "omega")
    if omega.real >= 0:
        raise DomainError("closed form requires Re omega < 0")
    z = (-1) ** a * cmath.exp(omega)
    total = 0j
    err = 0.0
    for j in range(a):
        coeff = binom_general(n + j - 1, j) * (-1) ** j
        if coeff == 0:
            continue
        qval = q_poly(a - 1, j).eval(omega, 1.0)
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
