"""Series-summation backend: classical and multiple polylogarithms, their
q-deformations, cone/octant sums with per-slot weights, the two companion
series attached to each sign vector, Pochhammer-type infinite products, and
numeric q-calculus operators on truncated power series.

Conventions (frozen; see qpolylog.conventions for the calibration evidence):

* q-bracket: [k]_q = q^k - q^(-k).
* Simplex multiple polylog: Li_n(z) = sum over 0 < k_1 < ... < k_m of
  prod_j z_j^(k_j) / k_j^(n_j).
* Octant q-polylog: qLi_{a,n}(z; q) = sum over k_1,...,k_m >= 1 of
  prod_j z_j^(k_j) / [k_j]_q^(a_j) / K_j^(n_j) with K_j = k_1 + ... + k_j.
* Companion series for a sign vector eps in {1, 1/h}^m:
  CS(eps) = (prod_j eps_j) * sum_{k>0} (-1)^(k_1+...+k_m)
            * prod_c exp(K_c w_c) / (prod_j [k_j]_{q(eps_j)}^(a_j) * prod_c K_c^(n_c)),
  K_c = sum_{j<=c} eps_j k_j, q(1) = exp(i pi h), q(1/h) = exp(i pi / h).

Numerics: Li_n and the simplex multiple polylogarithms are one simplex sum,
a backward pass of suffix sums (_simplex_sum); octant, q-deformed and
companion sums are one cone sum at any depth, an FFT fold over a lattice of
weighted prefix sums (_cone_sum), whose row convolver _fftconvolve is also
the convolution step of the contour fold (qpolylog.contour._fold_rows).
Every sum stops once, at the first rung K = 64 * 2^j its tail bound allows,
and its error estimate is that bound plus a round-off floor.

Batches: companion_series_batch and companion_sum_I_batch sum many points
that share the index, h and tolerance.  In their cone sums each point is a
row that folds once, at the truncation K its certified tail bound names;
the rows of one K are stacked, each convolved with its own terms and all
multiplied by one shared block of the reciprocal lattice.  Bracket powers
are formed once for all rows, and each point's result is bit for bit that
of a batch of one.  companion_sum_I_batch runs the cones outside and adds
each cone's raw per-point results into the per-point sums, so one lattice
is alive at a time.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    POINT_ERRORS,
    ConvergenceError,
    DomainError,
    EvalResult,
    _as_int_tuple,
    _ensure_err_estimate,
    ensure_finite_complex,
    fail_points,
    map_points,
    unwrap,
    validate_hbar,
)

__all__ = [
    "SeriesParams",
    "TruncatedSeries",
    "EpsilonVector",
    "KahanSum",
    "classical_polylog",
    "multiple_polylog",
    "octant_polylog",
    "q_multiple_polylog",
    "companion_series",
    "companion_series_batch",
    "companion_sum_I",
    "companion_sum_I_batch",
    "pochhammer_psi",
    "q_integral",
    "q_difference",
]

_UNIT_CIRCLE_ATOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# Cell budget of one cone-sum lattice (80 MB of complex128), and of the
# lattices and terms of a chunk of cone-sum rows
_MAX_CELLS = 5_000_000


@dataclass(frozen=True)
class SeriesParams:
    """Tuning knobs shared by the series-summation routines."""

    tol: float = 1e-12
    k_max: int = 10**6

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise DomainError("tol must be positive and finite")
        object.__setattr__(self, "k_max", _as_int_tuple((self.k_max,), "k_max")[0])
        if self.k_max < 8:
            raise DomainError("k_max must be at least 8")


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed degree: coeffs[k] multiplies var^k."""

    coeffs: tuple[complex, ...]
    var: str = "x"

    def __post_init__(self) -> None:
        for c in self.coeffs:
            ensure_finite_complex(c, "series coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0j

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The sum, truncated at the lower degree."""
        if other.var != self.var:
            raise DomainError("cannot combine series in different variables")
        return TruncatedSeries(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)), self.var)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        # x - y is x + (-y) bit for bit, signed zeros included, for complex x, y
        return self + TruncatedSeries(tuple(-c for c in other.coeffs), other.var)

    def scale(self, factor: complex) -> "TruncatedSeries":
        return TruncatedSeries(tuple(factor * c for c in self.coeffs), self.var)

    def eval(self, x: complex) -> complex:
        total = 0j
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)


@dataclass(frozen=True)
class EpsilonVector:
    """Sign vector for companion series: each slot is "1" or "1/h"."""

    slots: tuple[str, ...]
    hbar: complex

    def __post_init__(self) -> None:
        if not self.slots:
            raise DomainError("EpsilonVector needs at least one slot")
        for s in self.slots:
            if s not in ("1", "1/h"):
                raise DomainError(f"slot must be '1' or '1/h', got {s!r}")
        validate_hbar(self.hbar)

    @property
    def depth(self) -> int:
        return len(self.slots)

    def weights(self) -> tuple[complex, ...]:
        h = complex(self.hbar)
        return tuple(1.0 + 0j if s == "1" else 1.0 / h for s in self.slots)

    def q_values(self) -> tuple[complex, ...]:
        """Per-slot nome exp(i pi t), t = h on "1" slots and 1/h on "1/h" slots,
        Re t first reduced exactly into [-1, 1], where pi t rounds least."""
        h = complex(self.hbar)
        q_plain, q_dual = (cmath.exp(1j * math.pi * complex(math.remainder(t.real, 2.0), t.imag))
                           for t in (h, 1.0 / h))
        return tuple(q_plain if s == "1" else q_dual for s in self.slots)

    @classmethod
    def all_vectors(cls, depth: int, hbar: complex) -> list["EpsilonVector"]:
        vecs = []
        for mask in range(2**depth):
            slots = tuple("1/h" if (mask >> j) & 1 else "1" for j in range(depth))
            vecs.append(cls(slots, hbar))
        return vecs


class KahanSum:
    """Compensated complex accumulator (sum + running carry)."""

    __slots__ = ("sum", "carry")

    def __init__(self) -> None:
        self.sum = 0j
        self.carry = 0j

    def add(self, value: complex) -> None:
        y = value - self.carry
        t = self.sum + y
        self.carry = (t - self.sum) - y
        self.sum = t

    def value(self) -> complex:
        return self.sum


# ---------------------------------------------------------------------------
# q-bracket helpers
# ---------------------------------------------------------------------------


def _q_power(q: complex, k: np.ndarray | int) -> np.ndarray | complex:
    """q**k for integer k via exp(k log q); stable for |q| near or on the unit
    circle and vectorized over k."""
    return np.exp(np.asarray(k, dtype=np.float64) * complex(cmath.log(q)))


def _inv_bracket_pow(ks: np.ndarray, q: complex, a: int) -> np.ndarray | None:
    """1 / [k]_q^a with [k]_q = q^k - q^(-k), computed in overflow-safe form;
    None for a = 0, where there is no bracket."""
    if a == 0:
        return None
    q = complex(q)
    absq = abs(q)
    if absq == 0:
        raise DomainError("q must be nonzero")
    if abs(absq - 1.0) < 1e-12:
        # On the unit circle [k]_q = 2i sin(pi t k) for q = exp(i pi t); a
        # (nearly) rational t makes some bracket (nearly) vanish and the
        # series ill-conditioned, so refuse instead of amplifying noise.
        qk = _q_power(q, ks)
        br = qk - 1.0 / qk
        if np.any(np.abs(br) < 1e-6):
            raise DomainError(
                "q-bracket nearly vanishes on the unit circle: the "
                "deformation parameter is (close to) rational; use a "
                "quadrature backend instead"
            )
        return br ** (-a)
    # Off the circle, with r the one of q and 1/q inside it,
    # 1/[k]_r^a = (-1)^a r^(a k) / (1 - r^(2k))^a, and [k]_q = -[k]_r when
    # r = 1/q, so no power overflows; r^k = exp(k log r) as _q_power forms it
    log_r, sign = complex(cmath.log(q)), (-1) ** a
    if absq > 1:
        log_r, sign = -log_r, 1
    denom = 1.0 - np.exp(2 * ks * log_r)
    if a > 1:  # x ** 1 is x bit for bit, by numpy's slow general power
        denom = denom ** a
    if (denom == 0).any():
        raise DomainError("q-bracket vanishes: q is a root of unity")
    return sign * np.exp(a * ks * log_r) / denom


# ---------------------------------------------------------------------------
# Simplex sums: classical and multiple polylogarithms
# ---------------------------------------------------------------------------


def _negative_polylog_exact(n: int, z: complex) -> complex:
    """Li_n(z) for n <= 0 from the rational closed form
    Li_{-j}(z) = A_j(z) / (1-z)^(j+1), A_0 = z,
    A_{j+1} = z * (A_j' * (1-z) + (j+1) * A_j)."""
    coeffs = [0, 1]  # A_0 = z; the coefficients are integers
    for j in range(1, 1 - n):  # z^(k+1) of A_j: (k+1) c_(k+1) + (j-k) c_k of A_(j-1)
        prev = coeffs + [0]
        coeffs = [0] + [(k + 1) * prev[k + 1] + (j - k) * prev[k] for k in range(len(coeffs))]
    num = 0j
    for c in reversed(coeffs):
        num = num * z + complex(c)
    return num / (1 - z) ** (1 - n)


def _rung(tail: Callable[[int], float], bound: float, k_max: int) -> tuple[int, float]:
    """(K, tail(K)) at the first K = 64 * 2^j, capped at k_max, with
    tail(K) <= bound, or at K = k_max if there is none."""
    K = min(64, k_max)
    while (t := tail(K)) > bound and K < k_max:
        K = min(2 * K, k_max)
    return K, t


def _simplex_sum(n: tuple[int, ...], z: tuple[complex, ...], K: int) -> tuple[complex, float]:
    """(value, floor) of the sum over 0 < k_1 < ... < k_m <= K of prod_j
    z_j^(k_j) / k_j^(n_j), in one backward pass over the slots, each carrying
    the exclusive suffix sums of the slots after it: of the terms, of their
    moduli (summing to S) and of the moduli weighted by sum_j k_j |log z_j|
    (to W).  The floor u ((1 + 2m) S + W) is _cone_sum's: a rounding per exp
    and multiply, and u k |log z_j| for exp(k log z_j).  K m above _MAX_CELLS
    raises a ConvergenceError before any array is formed."""
    m = len(n)
    if K * m > _MAX_CELLS:
        raise ConvergenceError(f"simplex sum: {K} terms in {m} slots exceed {_MAX_CELLS} cells")
    ks = np.arange(1, K + 1, dtype=np.float64)
    after = None
    for c in range(m - 1, -1, -1):
        log_z = cmath.log(z[c])
        terms = np.exp(ks * log_z) / ks ** n[c]
        mods = np.abs(terms)
        weighted = 0.0
        if after:
            terms *= after[0]
            weighted = mods * after[2]
            mods *= after[1]
        if c:
            after = [np.concatenate((np.cumsum(x[::-1])[::-1][1:], [0.0]))
                     for x in (terms, mods, abs(log_z) * ks * mods + weighted)]
    spread = abs(log_z) * float(np.dot(ks, mods)) + (float(np.sum(weighted)) if after else 0.0)
    return complex(np.sum(terms)), _UNIT_ROUNDOFF * ((1 + 2 * m) * float(np.sum(mods)) + spread)


def classical_polylog(n: int, z: complex, params: SeriesParams | None = None) -> EvalResult:
    """Li_n(z) = sum_{k>=1} z^k / k^n.

    For n <= 0 the exact rational closed form in z is used (any z != 1).
    For n >= 1 it is the depth-1 _simplex_sum of k <= K, K the first of 64,
    128, 256, ... (capped at k_max) whose tail bound meets tol; requires
    |z| < 1, or |z| = 1 with n >= 2 (algebraic tail, may exhaust the term cap).
    """
    params = params or SeriesParams()
    (n,) = _as_int_tuple((n,), "n")
    z = ensure_finite_complex(z, "z")
    if n <= 0:
        if z == 1:
            raise DomainError("z = 1 is a pole of Li_n for n <= 0")
        value = _negative_polylog_exact(n, z)
        return EvalResult(value, max(5e-17, 1e-16 * abs(value)), "series",
                          {"n": n, "mode": "closed_form"})
    if z == 0:
        return EvalResult(0j, 0.0, "series", {"n": n, "terms": 0})
    r = abs(z)
    if r > 1 or (r == 1 and n < 2):
        raise DomainError("need |z| < 1, or |z| = 1 with n >= 2")
    K, tail = _rung(
        lambda K: r ** (K + 1) / (1 - r) / (K + 1) ** n if r < 1 else K ** (1 - n) / (n - 1),
        params.tol, params.k_max)
    if tail > params.tol:
        raise ConvergenceError(f"classical_polylog: tail bound {tail:.3e} above tol "
                               f"{params.tol:.3e} after {params.k_max} terms")
    value, floor = _simplex_sum((n,), (z,), K)
    # 0j + value reads a -0.0 part as +0.0 (z = x - 0j has -0.0 imaginary terms)
    return EvalResult(0j + value, tail + floor, "series", {"n": n, "terms": K})


def _tail_bound(m: int, K: int, r: float) -> float:
    """The tail bound m K^(m-1) r^(K+1) / (1 - r) of a depth-m simplex sum
    cut at k_j <= K, r its decay rate."""
    return m * (K ** max(m - 1, 0)) * r ** (K + 1) / (1 - r)


def multiple_polylog(
    n: Sequence[int], z: Sequence[complex], params: SeriesParams | None = None
) -> EvalResult:
    """Simplex sum Li_n(z) = sum over 0 < k_1 < ... < k_m of
    prod_j z_j^(k_j) / k_j^(n_j).  Requires n_j >= 1 and |z_j| < 1 for all j.
    The _simplex_sum at the first K = 64 * 2^j (capped at k_max) whose
    _tail_bound <= tol/100, with estimate that bound plus its round-off floor.
    """
    params = params or SeriesParams()
    n = _as_int_tuple(n, "n")
    z = tuple(ensure_finite_complex(v, "z") for v in z)
    m = len(n)
    if m < 1 or len(z) != m:
        raise DomainError("n and z must be non-empty and of equal length")
    if any(v < 1 for v in n):
        raise DomainError("all coupling exponents must be >= 1")
    mods = [abs(v) for v in z]
    if any(r >= 1 for r in mods):
        raise DomainError("simplex series requires |z_j| < 1 for every j")
    if any(r == 0 for r in mods):
        return EvalResult(0j, 0.0, "series", {"terms": 0})
    # decay rate of the outermost index: max over c of prod_{j>=c} |z_j|
    r = max(math.prod(reversed(mods[c:])) for c in range(m))
    K, tail = _rung(lambda K: _tail_bound(m, K, r), params.tol / 100, params.k_max)
    if tail > params.tol / 100:
        raise ConvergenceError(f"multiple_polylog: not converged within {params.k_max} terms")
    value, floor = _simplex_sum(n, z, K)
    return EvalResult(value, tail + floor, "series", {"terms": K, "tail": tail})


# ---------------------------------------------------------------------------
# Cone (octant) sums with per-slot q-brackets and weights
# ---------------------------------------------------------------------------


def _fftconvolve(a: np.ndarray, b: np.ndarray, sizes: Sequence[int], axis: int) -> np.ndarray:
    """Row p of a (index p on axis 0) convolved with row p of the 2-D b
    along axis of a, through numpy.fft, and cut to its own sizes[p] entries
    there; past them, up to the widest row, the axis holds +0.  A length-1
    axis of a is a broadcast multiply.  Rows of one size are one FFT
    convolution, cut as one; otherwise each group of rows whose size rounds
    up to the same power of two, the transform length of the row alone, is
    one FFT convolution.  numpy transforms each lane of a stack as it
    transforms that lane alone, and a transform longer than its input pads
    it with +0, so row p of the result is bit for bit that of a stack of
    a[p] and b[p]."""
    shape = [-1] + [1] * (a.ndim - 1)
    if a.shape[axis] == 1:
        shape[axis] = b.shape[1]
        return a * b.reshape(shape)

    def convolve(x: np.ndarray, y: np.ndarray, nfft: int) -> np.ndarray:
        shape[axis] = nfft
        fx = np.fft.fft(x, nfft, axis=axis)
        fx *= np.fft.fft(y, nfft).reshape(shape)
        return np.fft.ifft(fx, axis=axis)

    width = max(sizes)
    cut = (slice(None),) * axis + (slice(width),)
    if min(sizes) == width:
        return convolve(a, b, 1 << (width - 1).bit_length())[cut]
    groups: dict[int, list[int]] = {}
    for p, s in enumerate(sizes):
        groups.setdefault(1 << (s - 1).bit_length(), []).append(p)
    out = np.zeros(a.shape[:axis] + (width,) + a.shape[axis + 1:], dtype=np.complex128)
    lanes = out.swapaxes(1, axis)  # axis 1 of lanes is the convolution axis
    for nfft, rows in groups.items():
        conv = convolve(a[rows], b[rows], nfft).swapaxes(1, axis)
        for j, p in enumerate(rows):
            lanes[p, :sizes[p]] = conv[j, :sizes[p]]
    return out


@functools.lru_cache(maxsize=64)
def _convergent_bound(t: float, a: int, edges: tuple) -> tuple:
    """Bounds of 1/|2 sin(pi k t)|^a on the blocks edges[i] < k <= edges[i+1]:
    with q_n the continued-fraction denominators of x = ||t|| (the double t
    taken exactly), |sin(pi y)| >= 2 ||y|| and ||k x|| > 1 / (q_n + q_(n+1))
    for q_n <= k < q_(n+1) (best approximation), which grows with n; a block
    takes the bound of its last k, inf from the denominator of x on."""
    t = abs(t) % 1.0
    num, den = min(t, 1.0 - t).as_integer_ratio()  # 1 - t is exact for t >= 1/2
    dens = [0, 1]  # q_(-1), q_0, q_1, ...
    while num:
        step = den // num
        den, num = num, den - step * num
        dens.append(step * dens[-1] + dens[-2])
    dens.append(math.inf)
    bounds = []
    for hi in edges[1:]:
        n = bisect.bisect_right(dens, hi) - 1  # q_n <= hi < q_(n+1)
        bound = (dens[n] + dens[n + 1]) / 4
        bounds.append(bound**a if a * math.log(bound) < 709 else math.inf)
    return tuple(bounds)


def _bracket_bound(q: complex, a: int, br: np.ndarray | None, edges: tuple) -> tuple:
    """(rate, bounds) with |1/[k]_q^a| <= rate^k bounds[i] on the block
    edges[i-1] < k <= edges[i] (edges[-1] read as 0), br = 1/[k]_q^a for k
    up to an edge.  Off the unit circle |[k]_q| >= rho^(-k) (1 - rho^2), rho
    the one of |q|, 1/|q| below 1.  On it a block of k <= len(br) takes its
    largest |br|, and _convergent_bound bounds 1/|[k]_q| past it."""
    if a == 0 or abs(abs(q) - 1.0) >= _UNIT_CIRCLE_ATOL:  # a = 0 reads rate 1, bounds 1
        rho = min(abs(q), 1.0 / abs(q))
        return rho**a, [(1.0 - rho * rho) ** -a] * len(edges)
    i = bisect.bisect_left(edges, len(br))  # edges[i] = len(br)
    far = _convergent_bound(cmath.phase(q) / math.pi, a, edges[i:])
    return 1.0, np.maximum.reduceat(np.abs(br), [0, *edges[:i]]).tolist() + list(far)


def _tail_masses(r: float, p: int, edges: tuple, bounds: list) -> list[float]:
    """For every i a bound of sum_{k > edges[i-1]} B(k) k^p r^k (k >= 1 for
    i = 0), 0 <= r < 1, B = bounds[i] on edges[i-1] < k <= edges[i], from the
    exact G(x) = sum_{k >= x} k^p r^k = r^x sum_i C(p, i) x^(p-i) Li_(-i)(r),
    Li_0 read as 1/(1 - r); blocks where G underflows to 0 add 0."""
    L = [1.0 / (1.0 - r)] + [_negative_polylog_exact(-i, r).real for i in range(1, p + 1)]
    g, s = [], 1
    for K in edges:
        v = r**s * (sum(math.comb(p, i) * s ** (p - i) * L[i] for i in range(p + 1)) if p else L[0])
        if not v:
            break
        g.append(v)
        s = K + 1
    g.append(0.0)
    suffix = [0.0] * (len(edges) + 1)
    for i in range(len(g) - 2, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i] * (g[i] - g[i + 1])
    return suffix


def _cone_sum(
    a: tuple[int, ...],
    n: tuple[int, ...],
    zs: Sequence,
    q_list: tuple[complex, ...],
    weights: tuple[complex, ...],
    params: SeriesParams,
) -> list:
    """sum over k_1,...,k_m >= 1 of prod_j f_j[k_j] / prod_c K_c^(n_c), with
    f_j[k] = z_j^k / [k]_{q_j}^(a_j) and prefix sums K_c = sum_{j<=c} w_j k_j,
    every weight w_j = weights[j] with Re w_j > 0, at every argument z of
    zs: for each its (value, err, diagnostics), or the exception it raised.
    An entry of zs that is already an exception passes through.  Per-axis
    convergence needs |z_j| * |q_j|^(a_j 1_{|q_j|<1}) < 1.

    Each row folds once, on the cube k_j <= K of the lowest rung
    K = 64 * 2^j, capped at k_max, whose certified tail is at most tol/100:
    with |f_j[k]| <= r_j^k B_j(k) (_bracket_bound), S_j >= sum_k |f_j[k]| k^(p_j)
    and T_j(K) >= its part past K (_tail_masses), the sum outside the cube
    is at most scale * sum_c T_c(K) prod_{j != c} S_j, where
    scale = prod_c (sum_{j<=c} Re w_j)^(-n_c) as |K_c| >= Re K_c, and a
    negative n_c takes |K_c| <= (sum_{j<=c} |w_j|) prod_{j<=c} k_j, which p_j
    counts.  The estimate adds a round-off floor u S (1 + 2m + kappa):
    S = scale K^(p_1) prod_j sum|f_j| bounds sum|terms|, 2m counts a rounding
    per exp and multiply, and kappa = sum_j (|log z_j| + a_j |log q_j| c_k) k
    averaged under |f_j| covers the relative error u k |log| of exp(k log z_j)
    and the bracket powers, c_k = 1 + 2/|[k]_q| on the unit circle, where
    [k]_q = q^k - q^(-k) cancels (c_k = 1 elsewhere).

    The fold runs slot by slot on a lattice with one axis per distinct
    weight, whose cell i collects the partial paths with K_c = sum_d w_d i_d:
    an FFT convolution with f_c along the slot's axis, then a multiply by the
    block of the reciprocal lattice 1/K_c.  The rows of one K are the rows of
    one stack, folded in chunks within _MAX_CELLS cells; every operation acts
    on a row as on that row alone, so a result is bit for bit its result
    alone.  Bracket powers are formed once for every k <= max(256, K), so a
    q-bracket that nearly vanishes there is refused whatever K a row folds at.
    """
    m = len(n)
    out: list = [None] * len(zs)
    damp = [abs(qj) ** aj if aj > 0 and abs(qj) < 1 - _UNIT_CIRCLE_ATOL else 1.0
            for qj, aj in zip(q_list, a)]
    live = []
    for k, z in enumerate(zs):
        if isinstance(z, Exception):
            out[k] = z
        elif any(abs(zj) * d >= 1 for zj, d in zip(z, damp)):
            out[k] = DomainError("cone sum does not converge: per-axis ratio >= 1")
        elif any(abs(v) == 0 for v in z):
            out[k] = (0j, 0.0, {"terms": 0})
        else:
            live.append(k)
    if not live:
        return out

    rungs = [min(64, params.k_max)]
    while rungs[-1] < params.k_max:
        rungs.append(min(2 * rungs[-1], params.k_max))
    # the certificate's blocks end at the rungs, then 16 times apart to where r^k underflows
    edges = tuple(rungs + [rungs[-1] << 4 * j for j in range(1, 17)])
    # k = 1..reach, and per slot the bracket powers of k (None for a_j = 0)
    ks = np.arange(1.0, min(256, params.k_max) + 1)
    try:
        brs = [_inv_bracket_pow(ks, qj, aj) for qj, aj in zip(q_list, a)]
        slot_bounds = [_bracket_bound(qj, aj, br, edges) for qj, aj, br in zip(q_list, a, brs)]
        scale, re_prefix, abs_prefix = 1.0, 0.0, 0.0
        for wt, nc in zip(weights, n):
            re_prefix += wt.real
            abs_prefix += abs(wt)
            scale *= re_prefix**-nc if nc >= 0 else abs_prefix**-nc
    except POINT_ERRORS as exc:
        return [exc if out[k] is None else out[k] for k in range(len(zs))]
    powers = [sum(-nc for nc in n[j:] if nc < 0) for j in range(m)]

    def certify(z: tuple) -> tuple[int, float]:
        """(K, tail): the lowest rung whose certified tail is at most tol/100."""
        masses = [_tail_masses(abs(zj) * rate, p, edges, bounds)
                  for zj, (rate, bounds), p in zip(z, slot_bounds, powers)]
        others = [math.prod(o[0] for i, o in enumerate(masses) if i != c) for c in range(m)]
        for j, K in enumerate(rungs, 1):  # rung K's tail starts at block j
            tail = scale * sum(ms[j] * prod for ms, prod in zip(masses, others))
            if tail <= params.tol / 100:
                return K, tail
        raise ConvergenceError(f"cone sum: not converged within {K} terms per axis "
                               f"(certified tail {tail:.3e})")

    groups: dict[int, list] = {}  # per K, the (tail, index) of its rows
    for k in live:
        try:
            K, tail = certify(zs[k])
            groups.setdefault(K, []).append((tail, k))
        except POINT_ERRORS as exc:
            out[k] = exc

    lattice_w = [complex(wt) for wt in dict.fromkeys(weights)]
    axis_of = [lattice_w.index(complex(wt)) for wt in weights]
    slots_on = [axis_of.count(d) for d in range(len(lattice_w))]
    row_axes = [d + 1 for d in axis_of]  # slot axes of an array with a row axis first

    def lattice_blocks(K: int) -> list:
        """Per slot, the block of 1/K_c^(n_c) on the lattice of K its fold
        multiplies by (None for n_c = 0), cut to the slot's partial shape.
        A new axis as the last slot gets the whole lattice, which fold
        contracts it against (ones for n_c = 0)."""
        lat = functools.reduce(
            np.add.outer, [wt * np.arange(c * K + 1) for wt, c in zip(lattice_w, slots_on)]
        )
        lat[(0,) * lat.ndim] = 1.0  # the only zero of K_c; every path has k_j >= 1
        recip = np.reciprocal(lat, out=lat)
        shape = [1] * recip.ndim
        blocks = []
        for c in range(m):
            d = axis_of[c]
            skip = n[c] == 0 and not (c == m - 1 and shape[d] == 1)
            shape[d] += K
            block = recip[tuple(slice(s) for s in shape)]
            blocks.append(None if skip else block if n[c] == 1 else block ** n[c])
        return blocks

    def fold(fs: list[np.ndarray], blocks: list, ones: np.ndarray) -> list[complex]:
        """The sum over the cube of each row, given fs[j][p, k] = f_j[k] of
        row p for k = 0..K, f_j[0] = 0."""
        rows = range(len(fs[0]))
        acc = ones[:len(rows)]  # only read: the first step makes a new array
        for c, (f, d) in enumerate(zip(fs, row_axes)):
            if c == m - 1 and acc.shape[d] == 1:
                # a new axis is the last; contract it without the outer product
                return [complex((acc[p, ..., 0] * (blocks[c] @ f[p])).sum()) for p in rows]
            acc = _fftconvolve(acc, f, [acc.shape[d] + f.shape[1] - 1] * len(f), d)
            if blocks[c] is not None:
                acc *= blocks[c]
        return acc.reshape(len(acc), -1).sum(axis=1).tolist()

    def roundoff_floor(fs: list[np.ndarray], lgs: np.ndarray) -> list[float]:
        """u S (1 + 2m + kappa) of each row, in O(mK) a row."""
        K = fs[0].shape[1] - 1
        bound, growth = _UNIT_ROUNDOFF * scale * K ** powers[0], 1.0 + 2 * m
        for f, rate_z, br, qj, aj in zip(fs, np.abs(lgs[:, :, 0]), brs, q_list, a):
            mass = np.abs(f[:, 1:])
            total = mass.sum(axis=1)
            bound = bound * total
            mass *= ks[:K]  # k |f_j[k]|, weighed by |log z_j| + a_j |log q_j| c_k
            rate_q = aj * abs(cmath.log(qj))
            if rate_q and abs(abs(qj) - 1.0) < _UNIT_CIRCLE_ATOL:  # 1/|[k]_q| = |br|^(1/a)
                spread = rate_z * mass.sum(axis=1)
                mass *= 1 + 2 * np.abs(br[:K]) ** (1 / aj)
                spread += rate_q * mass.sum(axis=1)
            else:
                spread = (rate_z + rate_q) * mass.sum(axis=1)
            growth = growth + spread / np.where(total > 0, total, 1.0)  # 0 / 0 for no terms
        return (bound * growth).tolist()

    for K, group in sorted(groups.items()):
        try:
            size = math.prod(c * K + 1 for c in slots_on)
            if size > _MAX_CELLS:
                raise ConvergenceError(f"cone sum: a {K}-term lattice exceeds {_MAX_CELLS} cells")
            reach = min(max(256, K), params.k_max)
            if len(ks) < reach:
                new = np.arange(len(ks) + 1, reach + 1, dtype=np.float64)
                grown = [_inv_bracket_pow(new, qj, aj) for qj, aj in zip(q_list, a)]
                ks = np.concatenate((ks, new))
                brs = [br if g is None else np.concatenate((br, g)) for br, g in zip(brs, grown)]
        except POINT_ERRORS as exc:
            for _, k in group:
                out[k] = exc
            continue
        blocks = lattice_blocks(K)  # and per slot, the rows' log z_j as a column
        lgs = np.array([[cmath.log(zj) for zj in zs[k]] for _, k in group]).T[:, :, None]
        chunk = max(1, _MAX_CELLS // (size + m * (K + 1)))
        ones = np.ones((min(chunk, len(group)),) + (1,) * len(lattice_w), dtype=np.complex128)
        for s in range(0, len(group), chunk):
            fs = []  # per slot, f[p, k] = exp(k log z_j) / [k]^(a_j) of row p, f[p, 0] = 0
            for lg, br in zip(lgs[:, s:s + chunk], brs):
                fs.append(f := np.zeros((len(lg), K + 1), dtype=np.complex128))
                np.exp(np.multiply(ks[:K], lg, out=f[:, 1:]), out=f[:, 1:])
                if br is not None:  # a_j = 0: ones could change only the sign of a zero
                    f[:, 1:] *= br[:K]
            values, floors = fold(fs, blocks, ones), roundoff_floor(fs, lgs[:, s:s + chunk])
            for (tail, k), value, floor in zip(group[s:s + chunk], values, floors):
                out[k] = (value, tail + floor, {"terms": K, "tail": tail})
            del fs  # before the next chunk forms its terms
    return out


def octant_polylog(
    n: Sequence[int], z: Sequence[complex], params: SeriesParams | None = None
) -> EvalResult:
    """Octant sum over k_1,...,k_m >= 1 of prod_j z_j^(k_j) / K_j^(n_j) with
    plain prefix sums K_j = k_1 + ... + k_j (no q-brackets).

    Equals the simplex series at the ratio arguments:
    octant(n, z) = Li_n(z_1/z_2, ..., z_{m-1}/z_m, z_m)."""
    params = params or SeriesParams()
    n = _as_int_tuple(n, "n")
    z = tuple(ensure_finite_complex(v, "z") for v in z)
    m = len(n)
    if m < 1 or len(z) != m:
        raise DomainError("n and z must be non-empty and of equal length")
    value, err, diag = unwrap(_cone_sum(
        (0,) * m, n, (z,), (0.5,) * m, (1.0 + 0j,) * m, params
    )[0])
    return EvalResult(value, err, "series", diag)


def q_multiple_polylog(
    a: Sequence[int],
    n: Sequence[int],
    z: Sequence[complex],
    q: complex,
    params: SeriesParams | None = None,
) -> EvalResult:
    """q-deformed octant polylogarithm
        sum over k >= 1 of prod_j z_j^(k_j) / ([k_j]_q^(a_j) * K_j^(n_j)),
    [k]_q = q^k - q^(-k), K_j = k_1 + ... + k_j.

    Requires 0 < |q| < 1 and |z_j| * |q|^(a_j) < 1 for every j.
    """
    params = params or SeriesParams()
    a = _as_int_tuple(a, "a")
    n = _as_int_tuple(n, "n")
    z = tuple(ensure_finite_complex(v, "z") for v in z)
    q = ensure_finite_complex(q, "q")
    m = len(n)
    if m < 1 or len(a) != m or len(z) != m:
        raise DomainError("a, n, z must be non-empty and of equal length")
    if any(v < 0 for v in a):
        raise DomainError("bracket exponents must be >= 0")
    if not 0 < abs(q) < 1:
        raise DomainError("q must satisfy 0 < |q| < 1")
    for j in range(m):
        if abs(z[j]) * abs(q) ** a[j] >= 1:
            raise DomainError(f"argument {j}: need |z_j| * |q|^a_j < 1")
    value, err, diag = unwrap(_cone_sum(a, n, (z,), (q,) * m, (1.0 + 0j,) * m, params)[0])
    return EvalResult(value, err, "series", diag)


# ---------------------------------------------------------------------------
# Companion series
# ---------------------------------------------------------------------------


def companion_series(
    a: Sequence[int],
    n: Sequence[int],
    w: Sequence[complex],
    epsilon: EpsilonVector,
    params: SeriesParams | None = None,
) -> EvalResult:
    """The companion series attached to one sign vector (see module docstring):

        CS(eps) = (prod_j eps_j) * sum_{k>0} (-1)^(|k|)
                  * prod_c exp(K_c w_c) / (prod_j [k_j]_{q(eps_j)}^(a_j) * prod_c K_c^(n_c))

    computed as a weighted cone sum with arguments z_j = -exp(eps_j * omega_j),
    omega_j = w_j + w_{j+1} + ... + w_m.
    """
    return unwrap(companion_series_batch(a, n, (w,), epsilon, params)[0])


def companion_series_batch(
    a: Sequence[int],
    n: Sequence[int],
    ws: Sequence,
    epsilon: EpsilonVector,
    params: SeriesParams | None = None,
) -> list:
    """companion_series at every point of ws, as one cone sum (see _cone_sum):
    for each point the EvalResult companion_series returns, or the error it
    raises.  An entry that is already an exception passes through."""
    params = params or SeriesParams()
    a = _as_int_tuple(a, "a")
    n = _as_int_tuple(n, "n")
    ws = map_points(functools.partial(_checked_w, a, n, epsilon.depth), ws)
    pref, raws = _companion_cone(a, n, ws, epsilon, params)
    slots = "".join("d" if s == "1/h" else "p" for s in epsilon.slots)
    return map_points(
        lambda raw: EvalResult(pref * raw[0], abs(pref) * raw[1], "companion",
                               {**raw[2], "slots": slots}),
        raws,
    )


def _suffix_sums(w: Sequence[complex]) -> tuple:
    """omega_j = w_j + w_{j+1} + ... + w_m for every j."""
    return tuple(sum(w[j:], 0j) for j in range(len(w)))


def _checked_w(a: tuple, n: tuple, depth: int, w) -> tuple:
    """One companion point as a tuple of finite complex numbers, of the depth
    of a, n and the sign vector."""
    m = len(n)
    w = tuple(ensure_finite_complex(v, "w") for v in w)
    if m < 1 or len(a) != m or len(w) != m or depth != m:
        raise DomainError("a, n, w, epsilon must agree in depth")
    return w


def _companion_cone(
    a: tuple, n: tuple, ws: list, epsilon: EpsilonVector, params: SeriesParams
) -> tuple[complex, list]:
    """(prod_j eps_j, the cone sum of the companion series of epsilon at every
    checked point of ws): the raw (value, err, diagnostics) of _cone_sum,
    before the prefactor, or the error of the point."""
    try:
        weights = epsilon.weights()
        q_list = epsilon.q_values()
    except POINT_ERRORS as exc:
        return 0j, fail_points(ws, exc)

    def arguments(w: tuple) -> tuple:
        return tuple(-cmath.exp(wt * omega) for wt, omega in zip(weights, _suffix_sums(w)))

    pref = 1.0 + 0j
    for wt in weights:
        pref *= wt
    return pref, _cone_sum(a, n, map_points(arguments, ws), q_list, weights, params)


def companion_sum_I(
    n: Sequence[int],
    w: Sequence[complex],
    hbar: complex,
    params: SeriesParams | None = None,
) -> EvalResult:
    """Sum of all 2^m companion series for the first-order index
    a = b = (1, ..., 1); for real hbar > 0 and Re w_j < 0 this reproduces the
    oscillatory integral in its difference variables."""
    return unwrap(companion_sum_I_batch(n, (w,), hbar, params)[0])


def companion_sum_I_batch(
    n: Sequence[int],
    ws: Sequence,
    hbar: complex,
    params: SeriesParams | None = None,
) -> list:
    """companion_sum_I at every point of ws: for each point the EvalResult
    companion_sum_I returns, or the error it raises.  The cones run on the
    outside, each one stacked cone sum of the points still alive (see
    _cone_sum), so only one cone's lattice is alive at a time.  Each cone's
    raw per-point results go straight into the per-point sums, checked as
    companion_series_batch checks them; a point that fails in one cone skips
    the rest."""
    params = params or SeriesParams()
    n = _as_int_tuple(n, "n")
    m = len(n)
    try:
        hbar = validate_hbar(hbar)
        cones = EpsilonVector.all_vectors(m, hbar)
    except POINT_ERRORS as exc:
        return fail_points(ws, exc)
    a = (1,) * m
    state = map_points(functools.partial(_checked_w, a, n, m), ws)
    sums = [KahanSum() for _ in state]
    errs = [0.0] * len(state)
    terms = [0] * len(state)
    for eps in cones:
        pref, raws = _companion_cone(a, n, state, eps, params)
        for k, raw in enumerate(raws):
            if isinstance(raw, Exception):
                state[k] = raw
                continue
            try:
                value = ensure_finite_complex(pref * raw[0], "result value")
                err = _ensure_err_estimate(abs(pref) * raw[1])
            except POINT_ERRORS as exc:
                state[k] = exc
                continue
            sums[k].add(value)
            errs[k] += err
            terms[k] += raw[2]["terms"]
    return map_points(
        lambda k: EvalResult(sums[k].value(), errs[k], "companion",
                             {"cones": 2**m, "terms": terms[k]}),
        [s if isinstance(s, Exception) else k for k, s in enumerate(state)],
    )


# ---------------------------------------------------------------------------
# Pochhammer-type infinite products
# ---------------------------------------------------------------------------


def _log_pochhammer_psi(
    a: int, x: complex, q: complex, params: SeriesParams
) -> tuple[complex, float, int]:
    """sum_{n>=0} (-1)^a * C(n+a-1, a-1) * Log(1 + q^(2n+a) x); the product
    Psi_a is exp of this (exponents are integers, so branches are immaterial
    for the product's value).  Needs a >= 1."""
    sign = (-1) ** a
    total = KahanSum()
    absq = abs(q)
    n_idx = 0
    while True:
        if n_idx % 64 == 0:  # q^(2n+a) for the next 64 factors
            powers = _q_power(q, 2 * np.arange(n_idx, n_idx + 64) + a)
        u = powers[n_idx % 64] * x
        if 1 + u == 0:
            raise DomainError("Psi product hits a zero factor")
        c = math.comb(n_idx + a - 1, a - 1)
        total.add(sign * c * cmath.log(1 + u))
        # tail: |log(1+u)| <= 2|u| once |u| < 1/2, and C(n+a-1,a-1) <= (n+1)^(a-1)
        if abs(u) < 0.5:
            tail = (
                2
                * abs(x)
                * (n_idx + 2) ** (a - 1)
                * absq ** (2 * n_idx + 2 + a)
                / (1 - absq**2)
                * (a)
            )
            if tail <= params.tol:
                return total.value(), tail, n_idx + 1
        n_idx += 1
        if n_idx > params.k_max:
            raise ConvergenceError("Psi product did not converge")


def pochhammer_psi(
    a: int, x: complex, q: complex, params: SeriesParams | None = None
) -> EvalResult:
    """The level-a Pochhammer-type product

        Psi_a(x; q) = prod_{n>=0} (1 + q^(2n+a) x)^((-1)^a * C(n+a-1, a-1)),

    with Psi_0(x; q) = 1 + x.  Requires a >= 0 and 0 < |q| < 1.
    Satisfies Psi_a(q x) / Psi_a(x / q) = Psi_{a-1}(x) and
    log Psi_a(x; q) = -qLi_{a,1 coupling}(-x; q) in the sense that
    Psi_a(x; q) = exp(-sum_{k>=1} (-x)^k / ([k]_q^a k)).
    """
    params = params or SeriesParams()
    (a,) = _as_int_tuple((a,), "a")
    x = ensure_finite_complex(x, "x")
    q = ensure_finite_complex(q, "q")
    if a < 0:
        raise DomainError("a must be >= 0")
    if not 0 < abs(q) < 1:
        raise DomainError("q must satisfy 0 < |q| < 1")
    if a == 0:
        return EvalResult(1 + x, 1e-16 * abs(1 + x), "series", {"factors": 1})
    log_val, tail, factors = _log_pochhammer_psi(a, x, q, params)
    value = cmath.exp(log_val)
    return EvalResult(value, abs(value) * (tail + 1e-15), "series", {"factors": factors})


# ---------------------------------------------------------------------------
# Numeric q-calculus on truncated series
# ---------------------------------------------------------------------------


def _bracket_map(series: TruncatedSeries, q: complex, term: Callable) -> TruncatedSeries:
    """series with c_0 -> 0 and c_k -> term(c_k, [k]_q), every q^k from one
    _q_power call; a DomainError for q = 0 or a bracket or term out of range."""
    if q == 0:
        raise DomainError("q must be nonzero")
    with np.errstate(over="ignore"):  # an infinite q^k is refused below
        powers = _q_power(q, np.arange(1, len(series.coeffs))).tolist()
    out = [0j]
    try:
        for c, qk in zip(series.coeffs[1:], powers):
            bracket = qk - 1.0 / qk
            if not cmath.isfinite(bracket):
                raise OverflowError
            out.append(term(c, bracket))
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"q-bracket [{len(out)}]_q or its power overflows at q = {q}") from None
    return TruncatedSeries(tuple(out), series.var)


def q_integral(series: TruncatedSeries, a: int, q: complex) -> TruncatedSeries:
    """Level-a q-integration acting coefficient-wise:
    c_k -> -c_k / [k]_q^a for k >= 1.  A nonzero constant term is rejected
    (it is not in the image of the coupling).  a = 0 acts as minus identity.
    """
    (a,) = _as_int_tuple((a,), "a")
    if a < 0:
        raise DomainError("integration level a must be >= 0")
    q = ensure_finite_complex(q, "q")
    if abs(q) in (0.0, 1.0) and a > 0:
        raise DomainError("q must not be 0 or on the unit circle")
    if series.coefficient(0) != 0:
        raise DomainError("q_integral requires a zero constant term")
    return _bracket_map(series, q, lambda c, bracket: -c / bracket**a)


def q_difference(series: TruncatedSeries, q: complex) -> TruncatedSeries:
    """The q-difference operator acting coefficient-wise: c_k -> [k]_q c_k
    (the constant term is annihilated)."""
    q = ensure_finite_complex(q, "q")
    return _bracket_map(series, q, lambda c, bracket: c * bracket)
