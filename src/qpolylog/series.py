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

Numerics: octant, q-deformed and companion sums are one cone sum at any
depth, an FFT fold over a lattice of weighted prefix sums (see _cone_sum).
Series error estimates include a round-off floor.

Batches: companion_series_batch and companion_sum_I_batch sum many points
that share the index, h and tolerance.  In their cone sums the points are
the rows of stacked arrays that raise the truncation K together: each fold
step convolves every row with its own terms and multiplies all rows by one
shared block of the reciprocal lattice, and each row reads its value and
convergence test from itself and leaves the stack when it converges.  When
K doubles, the rows' terms and bracket powers of k <= K are carried over
while the terms fit the cell budget.  Rows fold in chunks that keep a
chunk's stacked lattices and terms within that budget, and each point's
result is bit for bit that of a batch of one.
companion_sum_I_batch runs the cones outside and adds each cone's raw
per-point results into the per-point sums, so one lattice is alive at a
time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    POINT_ERRORS,
    ConvergenceError,
    DomainError,
    EvalResult,
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
# Cell budget of one cone-sum lattice (80 MB of complex128), of the lattices
# and terms of a chunk of cone-sum rows, and of the terms the rows carry from
# one truncation to the next
_MAX_CELLS = 5_000_000


@dataclass(frozen=True)
class SeriesParams:
    """Tuning knobs shared by the series-summation routines."""

    tol: float = 1e-12
    k_max: int = 10**6

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise DomainError("tol must be positive and finite")
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
        if other.var != self.var:
            raise DomainError("cannot add series in different variables")
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n)), self.var
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.var != self.var:
            raise DomainError("cannot subtract series in different variables")
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(
            tuple(self.coeffs[k] - other.coeffs[k] for k in range(n)), self.var
        )

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
        """Per-slot nome: exp(i pi h) on "1" slots, exp(i pi / h) on "1/h" slots."""
        h = complex(self.hbar)
        q_plain = cmath.exp(1j * math.pi * h)
        q_dual = cmath.exp(1j * math.pi / h)
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


def _bracket(k: int, q: complex) -> complex:
    """[k]_q = q^k - q^(-k) for a single integer k."""
    qk = complex(_q_power(complex(q), np.array([float(k)]))[0])
    return qk - 1.0 / qk


# ---------------------------------------------------------------------------
# Classical polylogarithm
# ---------------------------------------------------------------------------


def _negative_polylog_exact(n: int, z: complex) -> complex:
    """Li_n(z) for n <= 0 from the rational closed form
    Li_{-j}(z) = A_j(z) / (1-z)^(j+1), A_0 = z,
    A_{j+1} = z * (A_j' * (1-z) + (j+1) * A_j)."""
    j = -n
    coeffs: list[Fraction] = [Fraction(0), Fraction(1)]  # A_0 = z
    for step in range(j):
        deriv = [k * c for k, c in enumerate(coeffs)][1:] + [Fraction(0)]
        # A' * (1 - z)
        part1 = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(deriv):
            part1[k] += c
            part1[k + 1] -= c
        # + (step+1) * A
        for k, c in enumerate(coeffs):
            part1[k] += (step + 1) * c
        # * z
        coeffs = [Fraction(0)] + part1
    num = 0j
    for c in reversed(coeffs):
        num = num * z + complex(c)
    return num / (1 - z) ** (j + 1)


def classical_polylog(n: int, z: complex, params: SeriesParams | None = None) -> EvalResult:
    """Li_n(z) = sum_{k>=1} z^k / k^n.

    For n <= 0 the exact rational closed form in z is used (any z != 1).
    For n >= 1 the series is summed with compensation; requires |z| < 1,
    or |z| = 1 with n >= 2 (algebraic tail, may exhaust the term cap).
    """
    params = params or SeriesParams()
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

    acc = KahanSum()
    log_z = cmath.log(z)
    abs_sum = k_abs_sum = 0.0  # sum |t_k| and sum k |t_k|, for the round-off floor
    chunk = 4096
    k0 = 1
    while k0 <= params.k_max:
        k1 = min(k0 + chunk - 1, params.k_max)
        ks = np.arange(k0, k1 + 1, dtype=np.float64)
        # exp(x) underflows to exactly 0 below x = -745.13, so a term with
        # k Re log z < -800 is exactly 0 in any faithful libm.  Only the
        # prefix above that cut (k Re log z falls with k) is computed; zeros
        # fill the chunk to its length, on which np.sum's pairwise grouping
        # depends.  The sums and the floor below then see the same numbers;
        # only the signs of zeros differ, which a sum with a nonzero k = 1
        # term cannot see.
        live = ks[:np.count_nonzero(ks * log_z.real >= -800.0)]
        terms = np.exp(live * log_z) / live**n
        if live.size < ks.size:
            terms = np.concatenate((terms, np.zeros(ks.size - live.size, dtype=np.complex128)))
        acc.add(complex(np.sum(terms)))
        mags = np.abs(terms)
        abs_sum += float(np.sum(mags))
        k_abs_sum += float(np.dot(ks, mags))
        K = k1
        if r < 1:
            tail = r ** (K + 1) / (1 - r) / (K + 1) ** n
        else:
            tail = (K ** (1 - n)) / (n - 1)
        if tail <= params.tol:
            # floor as in multiple_polylog with m = 1
            floor = _UNIT_ROUNDOFF * (3 * abs_sum + abs(log_z) * k_abs_sum)
            return EvalResult(acc.value(), tail + floor, "series", {"n": n, "terms": K})
        k0 = k1 + 1
    raise ConvergenceError(
        f"classical_polylog: tail bound {tail:.3e} above tol {params.tol:.3e} "
        f"after {params.k_max} terms"
    )


# ---------------------------------------------------------------------------
# Simplex multiple polylogarithm
# ---------------------------------------------------------------------------


def multiple_polylog(
    n: Sequence[int], z: Sequence[complex], params: SeriesParams | None = None
) -> EvalResult:
    """Simplex sum Li_n(z) = sum over 0 < k_1 < ... < k_m of
    prod_j z_j^(k_j) / k_j^(n_j).  Requires n_j >= 1 and |z_j| < 1 for all j.
    """
    params = params or SeriesParams()
    n = tuple(int(v) for v in n)
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
    suffix = 1.0
    r = 0.0
    for v in reversed(mods):
        suffix *= v
        r = max(r, suffix)

    def simplex_sum(args: Sequence[complex], expo: Sequence[int], K: int) -> complex:
        ks = np.arange(1, K + 1, dtype=np.float64)
        B = np.ones(K, dtype=np.complex128)
        for c in range(m - 1, -1, -1):
            A = np.exp(ks * cmath.log(args[c])) * ks ** (-expo[c]) * B
            if c == 0:
                break
            # exclusive suffix sums: B[k] = sum_{j > k} A[j]
            B = np.concatenate([np.cumsum(A[::-1])[::-1][1:], [0j]])
        return complex(np.sum(A))

    K = 64
    prev = None
    while True:
        value = simplex_sum(z, n, K)
        tail = m * (K ** max(m - 1, 0)) * r ** (K + 1) / (1 - r)
        if prev is not None:
            delta = abs(value - prev)
            if delta + tail <= params.tol:
                # floor u sum|t| (1 + 2m + sum_j k_j |log z_j|) as in _cone_sum:
                # at |z| the terms are moduli, and k_j |t| lowers n_j by one
                floor = _UNIT_ROUNDOFF * (1 + 2 * m) * simplex_sum(mods, n, K).real + sum(
                    _UNIT_ROUNDOFF * abs(cmath.log(z[j]))
                    * simplex_sum(mods, n[:j] + (n[j] - 1,) + n[j + 1:], K).real
                    for j in range(m)
                )
                err = delta + tail + floor
                return EvalResult(value, err, "series", {"terms": K, "tail": tail})
        prev = value
        if K >= params.k_max:
            raise ConvergenceError(
                f"multiple_polylog: not converged within {params.k_max} terms"
            )
        K = min(2 * K, params.k_max)


# ---------------------------------------------------------------------------
# Cone (octant) sums with per-slot q-brackets and weights
# ---------------------------------------------------------------------------


def _fftconvolve(a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Full linear convolution of a with b along one axis of a, through
    numpy.fft.  A 1-D b is one sequence for every lane of a; a 2-D b holds
    one sequence per row, and row p of b convolves a[p] (axis must not be 0).
    numpy transforms each lane of a stacked array as it transforms that lane
    alone, so row p of the result is bit for bit the convolution of a[p]
    with b[p] on its own."""
    axis %= a.ndim
    shape = [1] * a.ndim
    shape[axis] = -1
    if b.ndim == 2:
        shape[0] = b.shape[0]
    if a.shape[axis] == 1:
        return a * b.reshape(shape)
    size = a.shape[axis] + b.shape[-1] - 1
    nfft = 1 << (size - 1).bit_length()
    fa = np.fft.fft(a, nfft, axis=axis)
    fa *= np.fft.fft(b, nfft).reshape(shape)
    out = np.fft.ifft(fa, axis=axis)
    return out[(slice(None),) * axis + (slice(size),)]


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

    Truncated to the cube k_j <= K, the sum is folded slot by slot on a
    lattice with one array axis per distinct weight, whose cell i collects
    the partial paths with K_c = sum_d w_d i_d: an FFT convolution with f_c
    along the slot's axis, then a multiply by the block of the reciprocal
    lattice 1/K_c.  K doubles until two values agree to tol, within k_max
    and _MAX_CELLS.  The estimate adds to that delta and the tail bound
    m K^(m-1) r^(K+1) / (1 - r) a round-off floor u S (1 + 2m + kappa): S =
    prod_j sum|f_j| * prod_c (sum_{j<=c} Re w_j)^(-n_c) bounds sum|terms| as
    |K_c| >= Re K_c; 2m counts a rounding per exp and per multiply; and kappa =
    sum_j (|log z_j| + a_j |log q_j|) * (mean k under |f_j|) covers exp(k log z_j)
    and the bracket powers, whose relative error grows like u k |log|.

    The arguments are rows of one stack that climbs K together.  At each K
    the terms of slot j form one (rows, K+1) array; a fold step is one FFT
    convolution of every row with its own f_j along the slot's axis and one
    broadcast multiply by the shared block.  Each row reads its value, floor
    and convergence test from its own lattice, and leaves the stack when it
    converges.  While the terms of all rows fit in _MAX_CELLS cells, they
    and the bracket powers are carried when K doubles, and only k in
    (K, 2K] gets new ones; past that the bracket powers of every k <= K are
    formed again and each chunk forms its rows' terms whole.  The first two
    truncations cut their blocks from one reciprocal lattice.  Rows are
    folded in chunks whose stacked lattices and terms stay within
    _MAX_CELLS cells.  Every operation acts on a row as it acts on that row
    alone, so a result is bit for bit the result it has alone.
    """
    m = len(n)
    out: list = [None] * len(zs)
    live = []
    for k, z in enumerate(zs):
        if isinstance(z, Exception):
            out[k] = z
            continue
        ratios = []
        for j in range(m):
            rj = abs(z[j])
            if a[j] > 0 and abs(q_list[j]) < 1 - _UNIT_CIRCLE_ATOL:
                rj *= abs(q_list[j]) ** a[j]
            ratios.append(rj)
        if any(r >= 1 for r in ratios):
            out[k] = DomainError("cone sum does not converge: per-axis ratio >= 1")
        elif any(abs(v) == 0 for v in z):
            out[k] = (0j, 0.0, {"terms": 0})
        else:
            live.append((k, max(ratios), [cmath.log(zj) for zj in z]))

    lattice_w = [complex(wt) for wt in dict.fromkeys(weights)]
    axis_of = [lattice_w.index(complex(wt)) for wt in weights]
    slots_on = [axis_of.count(d) for d in range(len(lattice_w))]

    unit = (1,) * len(lattice_w)
    row_axes = [d + 1 for d in axis_of]  # slot axes of an array with a row axis first

    def cells(K: int) -> int:
        return math.prod(c * K + 1 for c in slots_on)

    def reciprocal_lattice(K: int) -> np.ndarray:
        lat = functools.reduce(
            np.add.outer, [wt * np.arange(c * K + 1) for wt, c in zip(lattice_w, slots_on)]
        )
        lat[(0,) * lat.ndim] = 1.0  # the only zero of K_c; every path has k_j >= 1
        return np.reciprocal(lat, out=lat)

    def lattice_blocks(recip: np.ndarray, K: int) -> list:
        """Per slot, the block of 1/K_c^(n_c) its fold multiplies by (None for
        n_c = 0), cut to the slot's partial shape from a reciprocal lattice of
        K or more terms: its cells i_d <= c_d K are those of K, bit for bit.
        A new axis as the last slot gets the whole lattice of K, which fold
        contracts it against (ones for n_c = 0)."""
        shape = [1] * recip.ndim
        blocks = []
        for c in range(m):
            d = axis_of[c]
            skip = n[c] == 0 and not (c == m - 1 and shape[d] == 1)
            shape[d] += K
            block = recip[tuple(slice(s) for s in shape)]
            blocks.append(None if skip else block if n[c] == 1 else block ** n[c])
        return blocks

    def fold(fs: list[np.ndarray], blocks: list) -> list[complex]:
        """The sum over the cube of each row, given fs[j][p, k] = f_j[k] of
        row p for k = 0..K, f_j[0] = 0."""
        rows = range(len(fs[0]))
        acc = ones[:len(rows)]  # only read: the first step makes a new array
        for c, (f, d) in enumerate(zip(fs, row_axes)):
            if c == m - 1 and acc.shape[d] == 1:
                # a new axis is the last; contract it without the outer product
                return [complex((acc[p, ..., 0] * (blocks[c] @ f[p])).sum()) for p in rows]
            acc = _fftconvolve(acc, f, axis=d)
            if blocks[c] is not None:
                acc *= blocks[c]
        return [complex(acc[p].sum()) for p in rows]

    def roundoff_floor(fs: list[np.ndarray], p: int, logs: list) -> float:
        """u S (1 + 2m + kappa) of row p, in O(mK)."""
        K = fs[0].shape[1] - 1
        ks = np.arange(K + 1, dtype=np.float64)
        bound, growth, re_prefix, abs_prefix = 1.0, 1.0 + 2 * m, 0.0, 0.0
        for f, log_z, qj, aj, wt, nc in zip(fs, logs, q_list, a, weights, n):
            mass = np.abs(f[p])
            total = float(mass.sum())
            re_prefix += wt.real
            abs_prefix += abs(wt)
            # 1/|K_c| <= 1/Re K_c; a negative n_c needs |K_c| <= K sum |w_j| instead
            bound *= total * (re_prefix**-nc if nc >= 0 else (abs_prefix * K) ** -nc)
            if total:
                rate = abs(log_z) + aj * abs(cmath.log(qj))
                growth += rate * float(mass @ ks) / total  # kappa_j
        return _UNIT_ROUNDOFF * bound * growth

    def grow(f: np.ndarray, lg: np.ndarray, br, ks: np.ndarray) -> np.ndarray:
        """The terms f[p, k] = exp(k log z_j) / [k]^(a_j) of each row for
        k = 0..K, grown from the prefix f of k = 0..d: ks = 1..K, lg the
        rows' log z_j as a column, br the bracket powers of k = d+1..K (None
        for a_j = 0)."""
        d = f.shape[1] - 1
        grown = np.empty((len(f), len(ks) + 1), dtype=np.complex128)
        grown[:, :d + 1] = f
        new = np.multiply(ks[d:], lg, out=grown[:, d + 1:])
        np.exp(new, out=new)
        if br is not None:  # a_j = 0: ones could change only the sign of a zero
            new *= br
        return grown

    # per slot, the rows' log z_j as a column, and their terms of k = 0..d
    # while all rows' terms fit the cell budget (d = 0 past it)
    lgs = np.array([logs for _, _, logs in live], dtype=np.complex128)
    lgs = lgs.reshape(-1, m).T[:, :, None]
    f0 = np.zeros((len(live), 1), dtype=np.complex128)  # f_j[0] of every row
    carried = [f0] * m
    ones = np.ones((len(live),) + unit, dtype=np.complex128)
    prev = [None] * len(live)  # each live row's value at the previous K
    K, lattice_K = min(128, params.k_max), 0
    while live:
        carry = len(live) * m * (K + 1) <= _MAX_CELLS
        if not carry:
            carried = [f0] * m
        try:
            size = cells(K)
            if size > _MAX_CELLS:
                raise ConvergenceError(f"cone sum: a {K}-term lattice exceeds {_MAX_CELLS} cells")
            ks = np.arange(1, K + 1, dtype=np.float64)
            d = carried[0].shape[1] - 1
            brackets = [_inv_bracket_pow(ks[d:], qj, aj) for qj, aj in zip(q_list, a)]
        except POINT_ERRORS as exc:
            for k, _, _ in live:
                out[k] = exc
            break
        if lattice_K < K:
            # the first truncation builds the second's lattice when it fits
            ahead = min(2 * K, params.k_max)
            lattice_K = ahead if not lattice_K and cells(ahead) <= _MAX_CELLS else K
            recip = reciprocal_lattice(lattice_K)
        blocks = lattice_blocks(recip, K)
        if carry:
            carried = [grow(f, lg, br, ks) for f, lg, br in zip(carried, lgs, brackets)]
        chunk, keep = max(1, _MAX_CELLS // (size + m * (K + 1))), []
        for s in range(0, len(live), chunk):
            rows = slice(s, s + chunk)
            if carry:
                fs = [f[rows] for f in carried]
            else:
                fs = [grow(f0[rows], lg[rows], br, ks) for lg, br in zip(lgs, brackets)]
            for p, value in enumerate(fold(fs, blocks), s):
                k, r, logs = live[p]
                tail = m * (K ** max(m - 1, 0)) * r ** (K + 1) / (1 - r)
                if prev[p] is not None:
                    delta = abs(value - prev[p])
                    if delta + tail <= params.tol:
                        err = delta + tail + roundoff_floor(fs, p - s, logs)
                        out[k] = (value, err, {"terms": K, "tail": tail})
                        continue
                prev[p] = value
                keep.append(p)
            del fs  # before the next chunk forms its terms
        if not keep:
            break
        if len(keep) < len(live):
            live, prev = [live[p] for p in keep], [prev[p] for p in keep]
            lgs, f0, carried = lgs[:, keep], f0[keep], [f[keep] for f in carried]
        if K >= params.k_max:
            exc = ConvergenceError(f"cone sum: not converged within {K} terms per axis")
            for k, _, _ in live:
                out[k] = exc
            break
        K = min(2 * K, params.k_max)
    return out


def octant_polylog(
    n: Sequence[int], z: Sequence[complex], params: SeriesParams | None = None
) -> EvalResult:
    """Octant sum over k_1,...,k_m >= 1 of prod_j z_j^(k_j) / K_j^(n_j) with
    plain prefix sums K_j = k_1 + ... + k_j (no q-brackets).

    Equals the simplex series at the ratio arguments:
    octant(n, z) = Li_n(z_1/z_2, ..., z_{m-1}/z_m, z_m)."""
    params = params or SeriesParams()
    n = tuple(int(v) for v in n)
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
    a = tuple(int(v) for v in a)
    n = tuple(int(v) for v in n)
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
    a = tuple(int(v) for v in a)
    n = tuple(int(v) for v in n)
    ws = map_points(functools.partial(_checked_w, a, n, epsilon.depth), ws)
    pref, raws = _companion_cone(a, n, ws, epsilon, params)
    slots = "".join("d" if s == "1/h" else "p" for s in epsilon.slots)
    return map_points(
        lambda raw: EvalResult(pref * raw[0], abs(pref) * raw[1], "companion",
                               {**raw[2], "slots": slots}),
        raws,
    )


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
    m = len(n)
    try:
        weights = epsilon.weights()
        q_list = epsilon.q_values()
    except POINT_ERRORS as exc:
        return 0j, fail_points(ws, exc)

    def arguments(w: tuple) -> tuple:
        omegas = [sum(w[j:], 0j) for j in range(m)]
        return tuple(-cmath.exp(weights[j] * omegas[j]) for j in range(m))

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
    n = tuple(int(v) for v in n)
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
    for the product's value)."""
    if a == 0:
        if x == -1:
            raise DomainError("Psi_0(-1) = 0 has no logarithm")
        return cmath.log(1 + x), 0.0, 1
    sign = (-1) ** a
    total = KahanSum()
    absq = abs(q)
    n_idx = 0
    while True:
        u = _q_power(q, np.array([2 * n_idx + a]))[0] * x
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


def q_integral(series: TruncatedSeries, a: int, q: complex) -> TruncatedSeries:
    """Level-a q-integration acting coefficient-wise:
    c_k -> -c_k / [k]_q^a for k >= 1.  A nonzero constant term is rejected
    (it is not in the image of the coupling).  a = 0 acts as minus identity.
    """
    if a < 0:
        raise DomainError("integration level a must be >= 0")
    q = ensure_finite_complex(q, "q")
    if abs(q) in (0.0, 1.0) and a > 0:
        raise DomainError("q must not be 0 or on the unit circle")
    if series.coefficient(0) != 0:
        raise DomainError("q_integral requires a zero constant term")
    out = [0j]
    for k in range(1, len(series.coeffs)):
        out.append(-series.coeffs[k] / _bracket(k, q) ** a)
    return TruncatedSeries(tuple(out), series.var)


def q_difference(series: TruncatedSeries, q: complex) -> TruncatedSeries:
    """The q-difference operator acting coefficient-wise: c_k -> [k]_q c_k
    (the constant term is annihilated)."""
    q = ensure_finite_complex(q, "q")
    out = [0j]
    for k in range(1, len(series.coeffs)):
        out.append(series.coeffs[k] * _bracket(k, q))
    return TruncatedSeries(tuple(out), series.var)
