"""Tests for the series engine: classical and multiple polylogarithms,
q-deformed cone sums, companion series, Pochhammer products, and the
coefficient-wise q-calculus."""

import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpolylog import ConvergenceError, DomainError, QpolylogError, series
from qpolylog.contour import quad_I
from qpolylog.core import MultiIndex
from qpolylog.series import (
    EpsilonVector,
    KahanSum,
    SeriesParams,
    TruncatedSeries,
    classical_polylog,
    companion_series,
    companion_series_batch,
    companion_sum_I,
    companion_sum_I_batch,
    multiple_polylog,
    octant_polylog,
    pochhammer_psi,
    q_difference,
    q_integral,
    q_multiple_polylog,
)

ZETA3 = 1.2020569031595942854
CATALAN = 0.9159655941772190151


def bracket(k: int, q: complex) -> complex:
    return q**k - q**-k


# ---------------------------------------------------------------------------
# Infrastructure
# ---------------------------------------------------------------------------


class TestSeriesParams:
    def test_defaults(self):
        p = SeriesParams()
        assert p.tol == 1e-12
        assert p.k_max == 10**6

    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesParams(tol=0.0)
        with pytest.raises(DomainError):
            SeriesParams(tol=float("inf"))
        with pytest.raises(DomainError):
            SeriesParams(k_max=4)


class TestTruncatedSeries:
    def test_coefficient_and_degree(self):
        s = TruncatedSeries((1 + 0j, 2j, 3 + 0j))
        assert s.degree == 2
        assert s.coefficient(1) == 2j
        assert s.coefficient(5) == 0j
        assert s.coefficient(-1) == 0j

    def test_add_sub_truncate_to_shorter(self):
        s = TruncatedSeries((1 + 0j, 2 + 0j, 3 + 0j))
        t = TruncatedSeries((10 + 0j, 20 + 0j))
        assert (s + t).coeffs == (11 + 0j, 22 + 0j)
        assert (s - t).coeffs == (-9 + 0j, -18 + 0j)

    def test_var_mismatch(self):
        s = TruncatedSeries((1 + 0j,), var="x")
        t = TruncatedSeries((1 + 0j,), var="y")
        with pytest.raises(DomainError):
            s + t
        with pytest.raises(DomainError):
            s - t

    def test_sub_keeps_signed_zeros(self):
        s = TruncatedSeries((complex(0.0, -0.0), complex(-0.0, 0.0), 1.5 - 2j))
        t = TruncatedSeries((0j, complex(-0.0, -0.0), 0.25 + 0j))
        for got, x, y in zip((s - t).coeffs, s.coeffs, t.coeffs):
            want = x - y
            assert (math.copysign(1, got.real), math.copysign(1, got.imag)) == (
                math.copysign(1, want.real), math.copysign(1, want.imag))
            assert got == want

    def test_scale_and_eval(self):
        s = TruncatedSeries((1 + 0j, -2 + 0j, 0.5 + 0j))
        x = 0.3 + 0.1j
        assert s.eval(x) == pytest.approx(1 - 2 * x + 0.5 * x * x)
        assert s.scale(2j).eval(x) == pytest.approx(2j * s.eval(x))
        assert s.max_abs() == 2.0

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries((float("nan") + 0j,))


class TestEpsilonVector:
    def test_slot_validation(self):
        with pytest.raises(DomainError):
            EpsilonVector((), 1.0)
        with pytest.raises(DomainError):
            EpsilonVector(("1", "h"), 1.0)

    def test_weights_and_nomes(self):
        h = 1.4
        eps = EpsilonVector(("1", "1/h"), h)
        assert eps.depth == 2
        assert eps.weights() == (1.0 + 0j, pytest.approx(1 / h))
        q_plain, q_dual = eps.q_values()
        assert q_plain == pytest.approx(cmath.exp(1j * math.pi * h))
        assert q_dual == pytest.approx(cmath.exp(1j * math.pi / h))

    def test_all_vectors(self):
        vecs = EpsilonVector.all_vectors(3, 1.2)
        assert len(vecs) == 8
        assert len({v.slots for v in vecs}) == 8
        assert all(v.depth == 3 for v in vecs)


class TestKahanSum:
    def test_compensation(self):
        acc = KahanSum()
        for _ in range(10**5):
            acc.add(0.1 + 0j)
        expected = math.fsum([0.1] * 10**5)
        assert abs(acc.value().real - expected) <= 1e-9
        assert acc.value().imag == 0.0


# ---------------------------------------------------------------------------
# Classical polylogarithm
# ---------------------------------------------------------------------------


class TestClassicalPolylog:
    def test_li1_is_minus_log(self):
        for z in (0.5, 0.3 + 0.4j, -0.8):
            res = classical_polylog(1, z)
            assert res.value == pytest.approx(-cmath.log(1 - z), abs=1e-12)
            assert res.backend == "series"

    def test_li2_half(self):
        expected = math.pi**2 / 12 - math.log(2) ** 2 / 2
        res = classical_polylog(2, 0.5)
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_li3_at_i_unit_circle(self):
        # sum of i^k/k^3 = -3 zeta(3)/32 + i pi^3/32
        res = classical_polylog(3, 1j)
        expected = -3 * ZETA3 / 32 + 1j * math.pi**3 / 32
        assert res.value == pytest.approx(expected, abs=1e-11)

    def test_li2_at_i_needs_loose_tolerance(self):
        # 1/K tail: reachable only with a relaxed tolerance
        res = classical_polylog(2, 1j, SeriesParams(tol=1e-6))
        expected = -math.pi**2 / 48 + 1j * CATALAN
        assert res.value == pytest.approx(expected, abs=1e-5)
        with pytest.raises(ConvergenceError):
            classical_polylog(2, 1j, SeriesParams(tol=1e-12, k_max=10**5))

    def test_duplication(self):
        # Li_n(z) + Li_n(-z) = 2^(1-n) Li_n(z^2)
        for n in (1, 2, 3):
            z = 0.6 - 0.2j
            lhs = classical_polylog(n, z).value + classical_polylog(n, -z).value
            rhs = 2 ** (1 - n) * classical_polylog(n, z * z).value
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nonpositive_order_closed_forms(self):
        # Li_0 = z/(1-z), Li_(-1) = z/(1-z)^2, Li_(-2) = z(1+z)/(1-z)^3
        z = 3.0  # closed forms hold outside the unit disc
        assert classical_polylog(0, z).value == pytest.approx(z / (1 - z))
        assert classical_polylog(-1, z).value == pytest.approx(z / (1 - z) ** 2)
        assert classical_polylog(-2, z).value == pytest.approx(
            z * (1 + z) / (1 - z) ** 3
        )
        zc = 0.4 + 1.7j
        assert classical_polylog(-3, zc).value == pytest.approx(
            zc * (1 + 4 * zc + zc**2) / (1 - zc) ** 4
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classical_polylog(0, 1.0)  # pole
        with pytest.raises(DomainError):
            classical_polylog(2, 1.5)  # outside closure of the disc
        with pytest.raises(DomainError):
            classical_polylog(1, 1j)  # |z| = 1 needs n >= 2
        with pytest.raises(DomainError):
            classical_polylog(2, complex("nan"))

    def test_zero_argument(self):
        res = classical_polylog(4, 0.0)
        assert res.value == 0j
        assert res.err_estimate == 0.0


def all_terms_polylog(n: int, z: complex, params: SeriesParams):
    """classical_polylog for n >= 1 and 0 < |z| <= 1 as one sum of every
    term k <= K, underflowing ones included, K the first rung of 64, 128,
    256, ... (capped at k_max) whose tail bound meets tol, with the round-off
    floor u (3 sum|t_k| + |log z| sum k |t_k|).  The (value, estimate,
    diagnostics) it returns, or the error it raises."""
    r = abs(z)

    def tail_at(K):
        return r ** (K + 1) / (1 - r) / (K + 1) ** n if r < 1 else K ** (1 - n) / (n - 1)

    K = min(64, params.k_max)
    while tail_at(K) > params.tol and K < params.k_max:
        K = min(2 * K, params.k_max)
    tail = tail_at(K)
    if tail > params.tol:
        return ConvergenceError(
            f"classical_polylog: tail bound {tail:.3e} above tol {params.tol:.3e} "
            f"after {params.k_max} terms"
        )
    log_z = cmath.log(z)
    ks = np.arange(1, K + 1, dtype=np.float64)
    terms = np.exp(ks * log_z) / ks**n
    mags = np.abs(terms)
    floor = series._UNIT_ROUNDOFF * (3 * float(np.sum(mags)) + abs(log_z) * float(np.dot(ks, mags)))
    return 0j + complex(np.sum(terms)), tail + floor, {"n": n, "terms": K}


class TestClassicalPolylogCutoff:
    """classical_polylog sums k <= K once, K the first rung whose tail bound
    meets tol; every value, estimate and diagnostic is that of one sum of
    every term, with no term cut for underflow."""

    # terms underflow from k ~ 406 and 804 in the sum, ~ 4030 near its end,
    # ~ 7,600 at K = 8192 (tol 1e-300), past 8e5, and never at |z| = 1,
    # where the tail bound never falls below 1e-12; k_max = 100 caps the
    # rung above 64; theta = -0.0 gives -0.0 imaginary terms
    @pytest.mark.parametrize(
        "r,n",
        [(r, n) for r in (0.14, 0.37, 0.82, 0.9, 0.999, 1.0) for n in (1, 2, 3, 4)
         if r < 1 or n >= 2],
    )
    def test_matches_full_chunks(self, r, n):
        tols = (1e-12, 1e-300) if r < 1 else (1e-12,)
        for theta, k_max, tol in itertools.product(
            (0.0, -0.0, 0.7, math.pi, -2.2), (8, 100, 4095, 4097, 10**6), tols
        ):
            z = cmath.rect(r, theta)
            params = SeriesParams(tol=tol, k_max=k_max)
            want = all_terms_polylog(n, z, params)
            try:
                res = classical_polylog(n, z, params)
            except ConvergenceError as exc:
                assert isinstance(want, ConvergenceError) and str(exc) == str(want)
                continue
            # repr tells the signs of zero parts apart
            assert repr((res.value, res.err_estimate, dict(res.diagnostics))) == repr(want)

    def test_cut_falls_in_a_later_chunk(self):
        # at |z| = 0.9 and tol 1e-300 the sum reaches K = 8192, and its
        # terms past k ~ 7,593 underflow to 0
        z, params = cmath.rect(0.9, 0.7), SeriesParams(tol=1e-300)
        res = classical_polylog(2, z, params)
        assert 4096 < -800 / math.log(0.9) < res.diagnostics["terms"] == 8192
        want = all_terms_polylog(2, z, params)
        assert (res.value, res.err_estimate, dict(res.diagnostics)) == want

    def test_cell_budget_refuses_before_any_array(self, monkeypatch):
        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was formed")

        monkeypatch.setattr(np, "arange", no_arrays)
        # at |z| = 1 the tail 1/K is above 1e-9 at k_max = 10^8, so no sum is formed
        with pytest.raises(ConvergenceError, match="tail bound 1.000e-08 above tol"):
            classical_polylog(2, 1j, SeriesParams(tol=1e-9, k_max=10**8))
        # the rung that meets tol, K = 64 * 2^24, or 2^22 at depth 2, is past the budget
        with pytest.raises(ConvergenceError, match="1073741824 terms in 1 slots exceed"):
            classical_polylog(2, 1j, SeriesParams(tol=1e-9, k_max=10**10))
        with pytest.raises(ConvergenceError, match="4194304 terms in 2 slots exceed"):
            multiple_polylog((1, 1), (0.5, 0.99998), SeriesParams(k_max=10**7))

    @pytest.mark.parametrize(
        "r,terms",
        [(0.14, [64] * 4), (0.37, [64] * 4), (0.9, [256, 256, 256, 128]),
         (0.99, [4096, 2048, 2048, 1024])],
    )
    def test_terms_stop_at_the_first_rung_that_meets_tol(self, r, terms):
        # at tol 1e-12: the rung below is short of tol, the one taken meets it
        for n, K in zip((1, 2, 3, 4), terms):
            res = classical_polylog(n, cmath.rect(r, 0.7))
            assert res.diagnostics["terms"] == K
            assert r ** (K + 1) / (1 - r) / (K + 1) ** n <= 1e-12
            assert K == 64 or r ** (K // 2 + 1) / (1 - r) / (K // 2 + 1) ** n > 1e-12

    @pytest.mark.parametrize(
        "n,z",
        [(1, 0.99), (1, -0.99), (1, cmath.rect(0.95, -1.0)), (2, 0.99),
         (2, cmath.rect(0.99, 2.0)), (3, 0.5), (4, 0.99), (4, cmath.rect(0.95, -1.0))],
    )
    def test_estimate_bounds_the_gap_to_a_finer_sum(self, n, z):
        res = classical_polylog(n, z)
        fine = classical_polylog(n, z, SeriesParams(tol=1e-15))
        assert abs(res.value - fine.value) <= res.err_estimate


# ---------------------------------------------------------------------------
# Multiple polylogarithm (simplex sum)
# ---------------------------------------------------------------------------


def brute_simplex(n, z, K):
    total = 0j
    m = len(n)
    for ks in itertools.combinations(range(1, K + 1), m):
        term = 1 + 0j
        for j in range(m):
            term *= z[j] ** ks[j] / ks[j] ** n[j]
        total += term
    return total


def nested_simplex_sum(z, n, K):
    """The simplex sum over 0 < k_1 < ... < k_m <= K as m nested exclusive
    suffix sums, each slot's terms formed as z^k * k^(-n)."""
    ks = np.arange(1, K + 1, dtype=np.float64)
    B = np.ones(K, dtype=np.complex128)
    for c in range(len(n) - 1, -1, -1):
        A = np.exp(ks * cmath.log(z[c])) * ks ** (-n[c]) * B
        B = np.concatenate([np.cumsum(A[::-1])[::-1][1:], [0j]])
    return complex(np.sum(A))


def series_decay_rate(z):
    """max over c of prod_{j >= c} |z_j|, the decay rate of a simplex sum."""
    return max(math.prod(abs(v) for v in reversed(z[c:])) for c in range(len(z)))


class TestMultiplePolylog:
    def test_depth_one_collapses_to_classical(self):
        pts = [0.5, -0.7, 0.3 + 0.4j, 0.8j, -0.2 - 0.6j]
        for n in (1, 2, 3):
            for z in pts:
                a = multiple_polylog((n,), (z,)).value
                b = classical_polylog(n, z).value
                assert abs(a - b) <= 1e-13 * (1 + abs(b))

    def test_depth_two_brute_force(self):
        n = (2, 1)
        z = (0.3 + 0.1j, -0.4)
        res = multiple_polylog(n, z)
        ref = brute_simplex(n, z, 120)  # |z2|^120 ~ 1e-48
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_depth_three_brute_force(self):
        n = (1, 2, 1)
        z = (0.15, 0.1 - 0.05j, -0.12)
        res = multiple_polylog(n, z)
        ref = brute_simplex(n, z, 60)
        assert res.value == pytest.approx(ref, abs=1e-12)

    def test_stuffle_depth_two(self):
        # Li_a(x) Li_b(y) = Li_{a,b}(x,y) + Li_{b,a}(y,x) + Li_{a+b}(xy)
        a, b = 2, 1
        x, y = 0.35, -0.45 + 0.2j
        lhs = classical_polylog(a, x).value * classical_polylog(b, y).value
        rhs = (
            multiple_polylog((a, b), (x, y)).value
            + multiple_polylog((b, a), (y, x)).value
            + classical_polylog(a + b, x * y).value
        )
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_zero_argument_gives_zero(self):
        res = multiple_polylog((1, 2), (0.0, 0.5))
        assert res.value == 0j
        assert res.err_estimate == 0.0
        res = octant_polylog((1, 2), (0.5, 0.0))
        assert res.value == 0j
        assert res.err_estimate == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            multiple_polylog((0, 1), (0.3, 0.3))  # exponent < 1
        with pytest.raises(DomainError):
            multiple_polylog((1,), (1.0,))  # |z| = 1
        with pytest.raises(DomainError):
            multiple_polylog((1, 1), (0.3,))  # length mismatch
        with pytest.raises(DomainError):
            multiple_polylog((), ())

    def test_term_cap_raises(self):
        # |z| = 0.99 needs thousands of terms; the cap stops the rungs at 200
        with pytest.raises(ConvergenceError, match="not converged within 200 terms"):
            multiple_polylog((1,), (0.99,), SeriesParams(k_max=200))

    @pytest.mark.parametrize(
        "n,z,terms",
        [((2, 1), (0.4, 0.3), 64), ((2, 1), (0.5, 0.95), 1024), ((1, 1), (0.99, 0.99), 8192),
         ((1, 2, 1), (0.15, 0.1 - 0.05j, -0.12), 64),
         # tails between tol/100 and tol at the rung below
         ((1,), (0.88,), 512), ((2, 1), (-0.5, 0.75j), 256)],
    )
    def test_sums_once_at_the_first_rung_that_meets_tol(self, n, z, terms):
        # the tail bound at the rung taken is at most tol / 100, the one below
        # it is not, and the estimate is that bound plus the round-off floor
        res = multiple_polylog(n, z)
        K, r = res.diagnostics["terms"], series_decay_rate(z)
        assert K == terms and res.diagnostics["tail"] == series._tail_bound(len(n), K, r)
        assert res.diagnostics["tail"] <= 1e-14
        assert K == 64 or series._tail_bound(len(n), K // 2, r) > 1e-14
        assert res.diagnostics["tail"] < res.err_estimate

    @pytest.mark.parametrize(
        "n,z,K",
        [((2,), (0.5 - 0.3j,), 64), ((1,), (-0.9,), 1024), ((2, 1), (0.4, 0.3), 64),
         ((1, 2), (0.6j, -0.5 + 0.2j), 128), ((2, 1), (0.5, 0.95), 1024),
         ((1, 2, 1), (0.15, 0.1 - 0.05j, -0.12), 64), ((2, 1, 3), (0.3 + 0.4j, -0.99, 0.8), 256),
         ((1, 1, 1), (0.95, 0.95, 0.95), 512)],
    )
    def test_one_pass_floor_is_the_floor_of_m_plus_one_sums(self, n, z, K):
        # the floor u ((1 + 2m) S + W) of one pass against u (1 + 2m) S plus
        # u |log z_j| times the sum over |z| with n_j lowered by one, for each j
        value, floor = series._simplex_sum(n, z, K)
        m, mods, u = len(n), tuple(abs(v) for v in z), series._UNIT_ROUNDOFF
        want = u * (1 + 2 * m) * nested_simplex_sum(mods, n, K).real + sum(
            u * abs(cmath.log(z[j]))
            * nested_simplex_sum(mods, n[:j] + (n[j] - 1,) + n[j + 1:], K).real
            for j in range(m))
        assert floor == pytest.approx(want, rel=1e-12, abs=0)
        assert abs(value - nested_simplex_sum(z, n, K)) <= floor

    @pytest.mark.parametrize(
        "n,z",
        [((1,), (0.99,)), ((2,), (-0.99,)), ((3,), (0.9j,)), ((2, 1), (0.5, 0.95)),
         ((1, 1), (0.99, 0.99)), ((2, 1), (-0.99, 0.9j)), ((1, 2, 1), (0.99, -0.9, 0.99j)),
         ((1, 1, 1), (0.95, 0.95, 0.95)), ((2, 1, 3), (0.3 + 0.4j, -0.99, 0.8))],
    )
    def test_estimate_bounds_the_gap_to_a_finer_sum(self, n, z):
        # with no second sum to compare, _tail_bound is the only truncation
        # estimate; the sum at tol 1e-15 stays within it
        res = multiple_polylog(n, z)
        fine = multiple_polylog(n, z, SeriesParams(tol=1e-15))
        assert abs(res.value - fine.value) <= res.err_estimate


# ---------------------------------------------------------------------------
# Octant sums and their q-deformation
# ---------------------------------------------------------------------------


class TestOctantPolylog:
    def test_depth_one_is_classical(self):
        res = octant_polylog((2,), (0.4 - 0.3j,))
        assert res.value == pytest.approx(
            classical_polylog(2, 0.4 - 0.3j).value, abs=1e-12
        )

    def test_ratio_relation_depth_two(self):
        # octant(n, z) = Li_n(z1/z2, z2) as a simplex sum
        n = (1, 2)
        z = (0.1 + 0.05j, 0.5)
        lhs = octant_polylog(n, z).value
        rhs = multiple_polylog(n, (z[0] / z[1], z[1])).value
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_brute_force_depth_two(self):
        n = (1, 1)
        z = (0.3, -0.25 + 0.1j)
        total = 0j
        for k1 in range(1, 90):
            for k2 in range(1, 90):
                total += (
                    z[0] ** k1 * z[1] ** k2 / (k1 ** n[0] * (k1 + k2) ** n[1])
                )
        assert octant_polylog(n, z).value == pytest.approx(total, abs=1e-11)

    def test_ratio_relation_depth_four(self):
        n = (1, 2, 1, 2)
        z = (0.05 + 0.02j, 0.1, -0.2 + 0.1j, 0.4)
        ratios = tuple(z[j] / z[j + 1] for j in range(3)) + (z[3],)
        lhs = octant_polylog(n, z).value
        rhs = multiple_polylog(n, ratios).value
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_k_max_caps_terms_per_axis(self):
        # the tail at |z| = 0.999 needs about 35000 terms
        with pytest.raises(ConvergenceError):
            octant_polylog((1,), (0.999,), SeriesParams(k_max=256))


class TestQMultiplePolylog:
    def test_depth_one_brute_force(self):
        q, z, a, n = 0.6, 0.9 - 0.3j, 2, 1
        total = 0j
        for k in range(1, 400):
            total += z**k / (bracket(k, q) ** a * k**n)
        res = q_multiple_polylog((a,), (n,), (z,), q)
        assert res.value == pytest.approx(total, abs=1e-12)

    def test_depth_two_brute_force(self):
        q = 0.55 + 0.1j
        a, n = (1, 2), (1, 1)
        z = (0.8, -0.7 + 0.2j)
        total = 0j
        for k1 in range(1, 160):
            for k2 in range(1, 160):
                denom = (
                    bracket(k1, q) ** a[0]
                    * bracket(k2, q) ** a[1]
                    * k1 ** n[0]
                    * (k1 + k2) ** n[1]
                )
                total += z[0] ** k1 * z[1] ** k2 / denom
        res = q_multiple_polylog(a, n, z, q)
        assert res.value == pytest.approx(total, abs=1e-11)

    def test_undeformed_limit_consistency(self):
        # a = 0 slots ignore q entirely and reduce to the octant sum
        n = (2,)
        z = (0.45,)
        res = q_multiple_polylog((0,), n, z, 0.3)
        assert res.value == pytest.approx(octant_polylog(n, z).value, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_multiple_polylog((1,), (1,), (0.5,), 1.0)  # |q| = 1
        with pytest.raises(DomainError):
            q_multiple_polylog((1,), (1,), (0.5,), 0.0)
        with pytest.raises(DomainError):
            q_multiple_polylog((1,), (1,), (3.0,), 0.6)  # |z| q^a >= 1
        with pytest.raises(DomainError):
            q_multiple_polylog((-1,), (1,), (0.5,), 0.6)

    def test_growth_allowed_when_bracket_compensates(self):
        # |z| > 1 is fine as long as |z| |q|^a < 1
        q, a = 0.4, 2
        z = 2.0  # 2 * 0.16 = 0.32 < 1
        total = 0j
        for k in range(1, 300):
            total += z**k / bracket(k, q) ** a
        res = q_multiple_polylog((a,), (0,), (z,), q)
        assert res.value == pytest.approx(total, abs=1e-11)


# ---------------------------------------------------------------------------
# Companion series
# ---------------------------------------------------------------------------


def brute_companion(a, n, w, eps, K):
    """Direct evaluation of the defining sum with mixed weighted prefix sums."""
    weights = eps.weights()
    q_list = eps.q_values()
    m = len(n)
    pref = 1 + 0j
    for wt in weights:
        pref *= wt
    total = 0j
    for ks in itertools.product(range(1, K + 1), repeat=m):
        term = (-1) ** sum(ks)
        prefix = 0j
        for c in range(m):
            prefix += weights[c] * ks[c]
            term *= cmath.exp(prefix * w[c]) / prefix ** n[c]
        for j in range(m):
            term /= bracket(ks[j], q_list[j]) ** a[j]
        total += term
    return pref * total


class TestCompanionSeries:
    def test_depth_one_brute_force(self):
        hbar = math.sqrt(2.0)
        eps = EpsilonVector(("1",), hbar)
        res = companion_series((2,), (1,), (-1.0,), eps)
        ref = brute_companion((2,), (1,), (-1.0,), eps, 80)
        assert res.value == pytest.approx(ref, abs=1e-11)

    def test_depth_one_dual_slot(self):
        hbar = math.sqrt(2.0)
        eps = EpsilonVector(("1/h",), hbar)
        res = companion_series((1,), (2,), (-1.2,), eps)
        ref = brute_companion((1,), (2,), (-1.2,), eps, 90)
        assert res.value == pytest.approx(ref, abs=1e-11)

    def test_depth_two_mixed_brute_force(self):
        hbar = math.sqrt(2.0)
        eps = EpsilonVector(("1", "1/h"), hbar)
        a, n, w = (1, 1), (1, 2), (-0.9, -1.1)
        res = companion_series(a, n, w, eps)
        ref = brute_companion(a, n, w, eps, 70)
        assert res.value == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("mask", range(8))
    def test_depth_three_all_sign_vectors(self, mask):
        hbar = (1 + math.sqrt(5)) / 2
        eps = EpsilonVector.all_vectors(3, hbar)[mask]
        a, n, w = (1, 2, 1), (1, 1, 2), (-1.0, -1.1 + 0.2j, -2.0)
        res = companion_series(a, n, w, eps)
        ref = brute_companion(a, n, w, eps, 30)
        assert res.value == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_lattice_cell_budget(self, monkeypatch):
        # the point folds once, at K = 64.  One weight keeps the lattice a
        # line of 2K+1 = 129 cells; two weights make it a (K+1) x (K+1)
        # plane of 4225 cells, which the budget refuses
        monkeypatch.setattr(series, "_MAX_CELLS", 1 << 12)
        hbar = math.sqrt(2.0)
        args = ((1, 1), (1, 1), (-1.0, -1.0))
        companion_series(*args, EpsilonVector(("1", "1"), hbar))
        with pytest.raises(ConvergenceError):
            companion_series(*args, EpsilonVector(("1", "1/h"), hbar))

    def test_slots_recorded_in_diagnostics(self):
        eps = EpsilonVector(("1", "1/h"), math.sqrt(2.0))
        res = companion_series((1, 1), (1, 1), (-2.0, -2.0), eps)
        assert res.diagnostics["slots"] == "pd"
        assert res.backend == "companion"

    def test_depth_mismatch(self):
        eps = EpsilonVector(("1",), 1.3)
        with pytest.raises(DomainError):
            companion_series((1, 1), (1, 1), (-2.0, -2.0), eps)


class TestCompanionSumI:
    def test_is_sum_over_all_sign_vectors(self):
        hbar = 1.0 + 0.3j  # any valid coupling, no symmetry assumed
        n, w = (1,), (-2.0,)
        total = 0j
        for eps in EpsilonVector.all_vectors(1, hbar):
            total += companion_series((1,), n, w, eps).value
        res = companion_sum_I(n, w, hbar)
        assert res.value == pytest.approx(total, abs=1e-13)
        assert res.diagnostics["cones"] == 2

    def test_rational_coupling_rejected(self):
        # a rational coupling makes some unit-circle bracket vanish
        with pytest.raises(DomainError):
            companion_sum_I((1,), (-1.0,), 2.3)
        with pytest.raises(DomainError):
            companion_sum_I((1,), (-1.0,), 0.5)

    def test_irrational_coupling_accepted(self):
        res = companion_sum_I((1,), (-1.0,), math.sqrt(2.0))
        assert abs(res.value) > 0

    @pytest.mark.parametrize("hbar,refused", [(1.005, True), (1.51, True), (1.501, False)])
    def test_guard_checks_every_k_to_256(self, hbar, refused):
        # each cone folds the point once, at K = 64, yet the bracket guard
        # sees every k <= 256: [200]_q vanishes at h = 201/200 and [100]_q at
        # h = 151/100, while no |[k]_q| with k <= 256 is below 1e-6 at 1.501
        if refused:
            with pytest.raises(DomainError, match="nearly vanishes"):
                companion_sum_I((2,), (-1.0,), hbar)
        else:
            assert companion_sum_I((2,), (-1.0,), hbar).diagnostics["terms"] == 2 * 64

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 4),
        hbar=st.sampled_from([(1 + math.sqrt(5)) / 2, math.sqrt(2.0), 1.3 + 0.4j]),
        parts=st.lists(
            st.tuples(st.floats(-2.5, -1.0), st.floats(-1.0, 1.0)), min_size=4, max_size=4),
        n=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    )
    def test_ladder_start_agrees_with_tighter_sums_and_quadrature(self, m, hbar, parts, n):
        # each row folds once, on the rung its certificate names; the value
        # agrees within the summed estimates with the same sum to tol 1e-15,
        # which folds higher, and at depth 1-3 with the contour quadrature
        n, w = tuple(n[:m]), tuple(complex(re, im) for re, im in parts[:m])
        res = companion_sum_I(n, w, hbar)
        tight = companion_sum_I(n, w, hbar, SeriesParams(tol=1e-15))
        assert abs(res.value - tight.value) <= res.err_estimate + tight.err_estimate
        if m <= 3:
            quad = quad_I(MultiIndex((1,) * m, (1,) * m, n), w, hbar)
            assert abs(res.value - quad.value) <= res.err_estimate + quad.err_estimate

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 2),
        hbar=st.sampled_from([(1 + math.sqrt(5)) / 2, math.sqrt(2.0), 0.7 + 0.2j, 1.501,
                              1.50001, 1.5000003, 2 / 3 + 1e-5]),
        parts=st.lists(
            st.tuples(st.floats(-2.0, -0.2), st.floats(-1.0, 1.0)), min_size=2, max_size=2),
        n=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    )
    @example(m=1, hbar=1.501, parts=[(-1.0, 0.0)] * 2, n=[0, 0])
    @example(m=1, hbar=1.501, parts=[(-0.2, 0.0)] * 2, n=[1, 0])
    @example(m=1, hbar=1.50001, parts=[(-1.0, 0.0)] * 2, n=[0, 0])
    @example(m=1, hbar=1.50001, parts=[(-0.2, 0.0)] * 2, n=[2, 0])
    @example(m=1, hbar=1.5000003, parts=[(-1.0, 0.0)] * 2, n=[0, 0])
    @example(m=1, hbar=1.5000003, parts=[(-0.2, 0.0)] * 2, n=[1, 0])
    def test_agrees_with_quadrature_or_refuses(self, m, hbar, parts, n):
        # near rational hbar the certificate reads small brackets: the sum
        # and the contour quadrature agree within their summed estimates,
        # unless one of them refuses the point
        n, w = tuple(n[:m]), tuple(complex(re, im) for re, im in parts[:m])
        try:
            comp = companion_sum_I(n, w, hbar)
            quad = quad_I(MultiIndex((1,) * m, (1,) * m, n), w, hbar)
        except QpolylogError:
            return
        assert abs(comp.value - quad.value) <= comp.err_estimate + quad.err_estimate

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 4),
        mask=st.integers(0, 15),
        hbar=st.sampled_from([(1 + math.sqrt(5)) / 2, 1.3 + 0.4j, 1.501]),
        parts=st.lists(
            st.tuples(st.floats(-1.2, -0.15), st.floats(-0.5, 0.5)), min_size=4, max_size=4),
        n=st.lists(st.integers(-1, 2), min_size=4, max_size=4),
    )
    def test_tail_bounds_the_truncation(self, m, mask, hbar, parts, n):
        # at tol 1e-3 a cone sum folds at a rung whose certified tail is up
        # to 1e-5: what its value differs by from the sum to tol 1e-15,
        # beyond the round-off floors of both, is within that tail
        eps = EpsilonVector.all_vectors(m, hbar)[mask % 2**m]
        a, n, w = (1,) * m, tuple(n[:m]), tuple(complex(re, im) for re, im in parts[:m])
        try:
            res = companion_series(a, n, w, eps, SeriesParams(tol=1e-3))
            tight = companion_series(a, n, w, eps, SeriesParams(tol=1e-15))
        except QpolylogError:
            return
        tail = abs(math.prod(eps.weights())) * res.diagnostics["tail"]  # of the cone sum
        floors = res.err_estimate - tail + tight.err_estimate
        assert abs(res.value - tight.value) - floors <= tail


def one_by_one(call, points):
    """call at each point alone: its result, or the error it raised."""
    out = []
    for point in points:
        try:
            out.append(call(point))
        except (ConvergenceError, DomainError) as exc:
            out.append(exc)
    return out


def assert_identical(batch, loop):
    """Batch entries equal the one-point results bit for bit, errors in place."""
    assert len(batch) == len(loop)
    for got, want in zip(batch, loop):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got.value == want.value
            assert got.err_estimate == want.err_estimate
            assert got.backend == want.backend
            assert dict(got.diagnostics) == dict(want.diagnostics)


class TestCompanionBatch:
    PHI = (1 + math.sqrt(5)) / 2

    @pytest.mark.parametrize(
        "n,ws,tol",
        [
            # w = 0.3 makes the ratio e^0.3 >= 1 inside a good batch
            ((2,), [(-1.0,), (-2.0 + 0.5j,), (0.3,), (-0.4 - 0.2j,), (-3.0,)], 1e-12),
            ((1, 1), [(-1.0, -0.8), (-0.7 + 0.3j, -1.1), (0.3, 0.3), (-2.0, -0.3 - 0.5j)],
             1e-12),
            ((1, 2), [(-0.5, -1.5 + 0.2j), (-2.5, -0.7), (-1.0, 0.4)], 1e-9),
        ],
    )
    def test_sum_matches_one_point_calls_bit_for_bit(self, n, ws, tol):
        params = SeriesParams(tol=tol)
        batch = companion_sum_I_batch(n, ws, self.PHI, params)
        loop = one_by_one(lambda w: companion_sum_I(n, w, self.PHI, params), ws)
        assert any(isinstance(r, DomainError) for r in loop)
        assert_identical(batch, loop)

    def test_series_matches_one_point_calls_bit_for_bit(self):
        eps = EpsilonVector(("1", "1/h"), math.sqrt(2.0))
        a, n = (1, 2), (1, 1)
        ws = [(-0.9, -1.1), (-1.5 + 0.4j, -0.6), (0.2, -1.0), (-1.0,)]
        assert_identical(
            companion_series_batch(a, n, ws, eps),
            one_by_one(lambda w: companion_series(a, n, w, eps), ws),
        )

    def test_terms_stay_per_point(self):
        # a point near the edge needs more terms than one deep inside
        batch = companion_sum_I_batch((1,), [(-3.0,), (-0.2,)], self.PHI)
        assert batch[0].diagnostics["terms"] < batch[1].diagnostics["terms"]

    def test_shared_refusal_fails_every_point(self):
        # a rational coupling is refused whatever the point
        batch = companion_sum_I_batch((1,), [(-1.0,), (-2.0,)], 1.5)
        assert all(isinstance(r, DomainError) and "nearly vanishes" in str(r) for r in batch)

    def test_invalid_hbar_fails_every_live_point(self):
        # an hbar on the negative real axis fails before any cone; an entry
        # that is already an error passes through
        earlier = ConvergenceError("earlier")
        batch = companion_sum_I_batch((1,), [(-1.0,), earlier, (-2.0,)], -1.0)
        assert batch[1] is earlier
        assert batch[0] is batch[2]
        assert isinstance(batch[0], DomainError) and "negative real axis" in str(batch[0])

    def test_depth_three_mixed_weight_cones(self):
        # the six mixed cones fold two-axis lattices, every row on one block
        n = (1, 2, 1)
        ws = [(-1.0, -1.0, -1.0), (-0.5 + 0.3j, -1.0, -0.8), (-2.0, -0.6, -1.2 - 0.2j)]
        params = SeriesParams(tol=1e-9)
        batch = companion_sum_I_batch(n, ws, self.PHI, params)
        assert not any(isinstance(r, Exception) for r in batch)
        assert_identical(batch, one_by_one(lambda w: companion_sum_I(n, w, self.PHI, params), ws))

    @staticmethod
    def spy_on_folds(monkeypatch) -> list:
        """Every (rows, K + 1) stack of terms a fold step convolves."""
        stacks = []
        convolve = series._fftconvolve

        def spy(a, b, sizes, axis):
            stacks.append(b)
            return convolve(a, b, sizes, axis)

        monkeypatch.setattr(series, "_fftconvolve", spy)
        return stacks

    def test_rows_fold_in_chunks(self, monkeypatch):
        # every row folds once, at K = 128.  Two weights: a (K + 1) x (K + 1)
        # lattice and 2 (K + 1) terms a row, so a budget of 70000 cells
        # folds 4 rows at a time
        monkeypatch.setattr(series, "_MAX_CELLS", 70000)
        stacks = self.spy_on_folds(monkeypatch)
        eps = EpsilonVector(("1", "1/h"), self.PHI)
        ws = [(-1.0 - 0.1 * k, -0.8 + 0.1j * k) for k in range(8)]
        batch = companion_series_batch((1, 1), (1, 1), ws, eps)
        assert [b.shape for b in stacks] == [(4, 129)] * 2
        assert_identical(
            batch, one_by_one(lambda w: companion_series((1, 1), (1, 1), w, eps), ws)
        )

    def test_terms_past_the_budget_are_formed_per_chunk(self, monkeypatch):
        # the rows fold once, at K = 64.  A chunk's 2K + 1 lattice cells and
        # 2 (K + 1) terms a row fit 4 rows in a budget of 1036 cells, and
        # each chunk forms its own terms, none a view of a larger stack
        monkeypatch.setattr(series, "_MAX_CELLS", 1036)
        stacks = self.spy_on_folds(monkeypatch)
        eps = EpsilonVector(("1", "1"), self.PHI)
        ws = [(-1.0 - 0.1 * k, -0.8 + 0.1j * k) for k in range(8)]
        batch = companion_series_batch((1, 1), (1, 1), ws, eps)
        assert [b.shape for b in stacks] == [(4, 65)] * 4
        assert all(b.base is None for b in stacks)
        assert_identical(
            batch, one_by_one(lambda w: companion_series((1, 1), (1, 1), w, eps), ws)
        )

    def test_rows_share_one_ascent(self, monkeypatch):
        # rows whose certified tail stays above tol/100 on every rung up to
        # k_max fail without a fold: the bracket powers of k <= 256, which
        # their certificates read, are computed once for all of them
        seen = self.spy_on_brackets(monkeypatch)
        eps = EpsilonVector(("1",), self.PHI)
        ws = [(-0.04 - 0.002 * k + 0.01j * k,) for k in range(8)]
        params = SeriesParams(k_max=512)
        batch = companion_series_batch((1,), (1,), ws, eps, params)
        assert all(isinstance(r, ConvergenceError) for r in batch)
        assert seen == [256]
        assert_identical(
            batch, one_by_one(lambda w: companion_series((1,), (1,), w, eps, params), ws)
        )

    def test_rows_join_at_their_own_rungs(self, monkeypatch):
        # rows that fold on different rungs read the value, estimate and
        # terms they read alone; the mixed-weight cones fold (K + 1) x (K + 1)
        # lattices
        ws = [(-0.6, -0.4 + 0.2j), (-2.5, -1.5), (-1.0, -0.7)]
        batch = companion_sum_I_batch((1, 2), ws, self.PHI)
        assert [r.diagnostics["terms"] for r in batch] == [768, 256, 384]
        assert_identical(batch, one_by_one(lambda w: companion_sum_I((1, 2), w, self.PHI), ws))
        # rows that fold at K = 256, 64, 128, 64 and 64: a chunk's 2K + 1
        # lattice cells and 2 (K + 1) terms a row fit 4 rows at K = 64, 2 at
        # K = 128 and 1 past it
        budget = 1100
        monkeypatch.setattr(series, "_MAX_CELLS", budget)
        stacks = self.spy_on_folds(monkeypatch)
        eps = EpsilonVector(("1", "1"), self.PHI)
        ws = [(-0.2, -0.3), (-3.0, -2.0), (-0.5, -0.5), (-1.0, -0.8 + 0.3j), (-2.0, -0.9 - 0.5j)]
        batch = companion_series_batch((1, 1), (1, 1), ws, eps)
        assert [r.diagnostics["terms"] for r in batch] == [256, 64, 128, 64, 64]
        assert {b.shape for b in stacks} == {(3, 65), (1, 129), (1, 257)}
        assert all(len(b) == 1 or len(b) * (4 * b.shape[1] - 1) <= budget for b in stacks)
        assert_identical(
            batch, one_by_one(lambda w: companion_series((1, 1), (1, 1), w, eps), ws)
        )

    @pytest.mark.parametrize("k_max", [64, 200])
    def test_short_ascents(self, k_max):
        # k_max = 200 caps the rungs at 64, 128, 200; k_max = 64 at 64 alone.
        # (-0.4,) folds one cone at 128 and the other at the cap, 200
        params = SeriesParams(k_max=k_max)
        ws = [(-3.0,), (-1.0 + 0.5j,), (-0.05,), (-0.4,)]
        batch = companion_sum_I_batch((1,), ws, self.PHI, params)
        assert [r.diagnostics["terms"] for r in batch[:2]] == [128, 128]
        assert isinstance(batch[2], ConvergenceError)
        if k_max == 64:
            assert isinstance(batch[3], ConvergenceError)
        else:
            assert batch[3].diagnostics["terms"] == 128 + 200
        loop = one_by_one(lambda w: companion_sum_I((1,), w, self.PHI, params), ws)
        assert_identical(batch, loop)

    @pytest.mark.parametrize("cells,error", [(None, DomainError), (200, ConvergenceError)])
    def test_budget_error_before_bracket_error(self, monkeypatch, cells, error):
        # at h = 301/300 the bracket [300]_q nearly vanishes, past the
        # k <= 256 whose brackets every cone sum forms ahead; these points
        # fold at K = 512, whose brackets refuse h, and a budget of 200 cells
        # refuses the 513-cell lattice first
        if cells:
            monkeypatch.setattr(series, "_MAX_CELLS", cells)
        h, ws = 301 / 300, [(-0.15,), (-0.2 + 0.5j,)]
        batch = companion_sum_I_batch((1,), ws, h)
        assert all(type(r) is error for r in batch)
        assert_identical(batch, one_by_one(lambda w: companion_sum_I((1,), w, h), ws))

    @staticmethod
    def spy_on_brackets(monkeypatch) -> list:
        """The number of k of every call to _inv_bracket_pow."""
        seen = []
        brackets = series._inv_bracket_pow

        def spy(ks, q, a):
            seen.append(len(ks))
            return brackets(ks, q, a)

        monkeypatch.setattr(series, "_inv_bracket_pow", spy)
        return seen

    def test_bracket_powers_are_formed_once_per_k(self, monkeypatch):
        # a point that folds at K = 512 gets bracket powers for k <= 256
        # before its rung is certified, and only for 256 < k <= 512 to fold
        seen = self.spy_on_brackets(monkeypatch)
        res = companion_series((1,), (1,), (-0.15,), EpsilonVector(("1",), self.PHI))
        assert res.diagnostics["terms"] == 512
        assert seen == [256, 256]


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def same_bytes(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestStackedFoldNumpy:
    """What the stacked cone-sum fold needs of numpy: an operation on a stack
    of rows gives each row the bytes it gives that row alone, and bracket
    powers formed in two parts are those formed at once."""

    def test_fft_along_an_axis_matches_rows(self):
        rng = np.random.default_rng(11)
        x = crandn(rng, 5, 129, 33)
        for axis, nfft in ((1, 512), (2, 64), (1, None)):
            got = np.fft.fft(x, nfft, axis=axis)
            rows = [np.fft.fft(row, nfft, axis=axis - 1) for row in x]
            assert same_bytes(got, np.stack(rows))
            back = [np.fft.ifft(row, axis=axis - 1) for row in got]
            assert same_bytes(np.fft.ifft(got, axis=axis), np.stack(back))
        # the per-row kernels: a (rows, K + 1) array along its last axis
        b = crandn(rng, 5, 129)
        assert same_bytes(np.fft.fft(b, 512), np.stack([np.fft.fft(row, 512) for row in b]))

    def test_row_sums_of_a_sliced_fft_output(self):
        # a row of a stacked view is walked as the lone view is; a
        # reshape(rows, -1) of it would copy and regroup the pairwise sum
        rng = np.random.default_rng(12)
        x = crandn(rng, 4, 1024)
        rows = np.fft.ifft(x)[:, :700]
        assert same_bytes(rows.sum(axis=1), [np.fft.ifft(r)[:700].sum() for r in x])
        x = crandn(rng, 4, 1024, 40)
        planes = np.fft.ifft(x, axis=1)[:, :700]
        for plane, lone in zip(planes, x):
            assert same_bytes(plane.sum(), np.fft.ifft(lone, axis=0)[:700].sum())

    def test_broadcast_products_match_rows(self):
        rng = np.random.default_rng(13)
        a, b, block = crandn(rng, 5, 512, 33), crandn(rng, 5, 512, 1), crandn(rng, 512, 33)
        assert same_bytes(a * b, np.stack([r * s for r, s in zip(a, b)]))
        acc = a[:, :300]
        want = np.stack([r * block[:300] for r in acc])
        acc *= block[:300]
        assert same_bytes(acc, want)
        # the terms: ks * log z over a column of logs, then * brackets, in place
        ks, lgs, br = np.arange(1, 257, dtype=np.float64), crandn(rng, 5, 1), crandn(rng, 256)
        terms = np.multiply(ks, lgs, out=np.zeros((5, 257), dtype=np.complex128)[:, 1:])
        np.exp(terms, out=terms)
        terms *= br
        assert same_bytes(terms, np.stack([np.exp(ks * complex(lg)) * br for lg in lgs[:, 0]]))

    def test_gemv_on_a_slice_of_a_larger_lattice(self):
        rng = np.random.default_rng(14)
        K, w = 128, 1 / (1.3 + 0.4j)
        big = np.reciprocal(np.add.outer(np.arange(2 * K + 1), w * np.arange(2 * K + 1)) + 0.5)
        f = crandn(rng, K + 1)
        cut = big[:K + 1, :K + 1]
        assert same_bytes(cut @ f, np.ascontiguousarray(cut) @ f)
        cut3 = np.multiply.outer(big[:40, :40], big[0])[:20, :20, :K + 1]
        assert same_bytes(cut3 @ f, np.ascontiguousarray(cut3) @ f)

    def test_carried_prefixes(self):
        ks = np.arange(1, 257, dtype=np.float64)
        lg = cmath.log(-0.3 + 0.2j)
        carried = np.concatenate((np.exp(ks[:128] * lg), np.exp(ks[128:] * lg)))
        assert same_bytes(carried, np.exp(ks * lg))
        phi = (1 + math.sqrt(5)) / 2
        for q, a in ((0.5, 1), (0.3 + 0.4j, 2), (cmath.exp(1j * math.pi * phi), 1),
                     (cmath.exp(1j * math.pi / (1.3 + 0.4j)), 1)):
            carried = np.concatenate((series._inv_bracket_pow(ks[:128], q, a),
                                      series._inv_bracket_pow(ks[128:], q, a)))
            assert same_bytes(carried, series._inv_bracket_pow(ks, q, a))

        def reciprocal_lattice(weights, slots, K):
            lat = np.add.outer(*[w * np.arange(c * K + 1) for w, c in zip(weights, slots)])
            lat[0, 0] = 1.0
            return np.reciprocal(lat, out=lat)

        weights, slots = (1.0 + 0j, 1 / (1.3 + 0.4j)), (2, 1)
        big = reciprocal_lattice(weights, slots, 256)
        assert same_bytes(big[:257, :129], reciprocal_lattice(weights, slots, 128))


class TestFFTConvolve:
    """The one FFT row convolver of the contour fold and the cone sum: row p
    of a stack is bit for bit that row convolved alone, at the transform
    length and size it has alone."""

    def test_rows_in_two_fft_length_groups(self):
        # a contour stack: rows of different lengths, zero-padded to one
        # width; their own convolutions fit 512 or 256 entries, where the
        # stack's 300 + 300 - 1 would round to 1024.  Without row 2 the
        # rows of different sizes are one 512-entry group.
        rng = np.random.default_rng(21)
        lens_a, lens_b = (300, 100, 100, 300, 241), (100, 300, 50, 212, 20)
        for rows in ((0, 1, 2, 3, 4), (0, 1, 3, 4)):
            rows_a = [crandn(rng, lens_a[p]) for p in rows]
            rows_b = [crandn(rng, lens_b[p]) for p in rows]
            a = np.zeros((len(rows), 300), dtype=np.complex128)
            b = np.zeros((len(rows), 300), dtype=np.complex128)
            for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
                a[r, :ra.size], b[r, :rb.size] = ra, rb
            sizes = [ra.size + rb.size - 1 for ra, rb in zip(rows_a, rows_b)]
            out = series._fftconvolve(a, b, sizes, 1)
            assert out.shape == (len(rows), 511)
            for r, (ra, rb, size) in enumerate(zip(rows_a, rows_b, sizes)):
                nfft = 1 << (size - 1).bit_length()
                alone = np.fft.ifft(np.fft.fft(ra, nfft) * np.fft.fft(rb, nfft))[:size]
                assert same_bytes(out[r, :size], alone)
                assert same_bytes(out[r, size:], np.zeros(511 - size, dtype=np.complex128))
                direct = np.convolve(ra, rb)
                assert np.max(np.abs(alone - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_lattice_stack_along_an_axis(self):
        # a cone-sum stack: one size for every row, along axis 2 of a lattice
        rng = np.random.default_rng(6)
        a, b = crandn(rng, 3, 4, 29), crandn(rng, 3, 41)
        out = series._fftconvolve(a, b, [69] * 3, 2)
        assert out.shape == (3, 4, 69)
        for p in range(3):
            one_row = series._fftconvolve(a[p:p + 1], b[p:p + 1], [69], 2)
            assert same_bytes(out[p], one_row[0])
            for got, lane in zip(out[p], a[p]):
                direct = np.convolve(lane, b[p])
                assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_length_one_axis_is_a_broadcast_multiply(self):
        # a cone sum's first slot on its axis: each row times its own terms
        rng = np.random.default_rng(7)
        a, b = crandn(rng, 3, 4, 1), crandn(rng, 3, 41)
        out = series._fftconvolve(a, b, [41] * 3, 2)
        assert out.shape == (3, 4, 41)
        for p in range(3):
            assert same_bytes(out[p], a[p] * b[p])


# ---------------------------------------------------------------------------
# Error estimates against a 40-digit reference
# ---------------------------------------------------------------------------


def mp_simplex(mp, n, z, K):
    if len(n) == 1:
        return mp.polylog(n[0], z[0])
    total = inner = mp.mpc(0)
    for k in range(1, K + 1):
        total += mp.mpc(z[1]) ** k / mp.mpf(k) ** n[1] * inner
        inner += mp.mpc(z[0]) ** k / mp.mpf(k) ** n[0]
    return total


def mp_cone(mp, a, n, z, q, K):
    q = mp.mpc(q)
    f = [
        [mp.mpc(zj) ** k / (q**k - q**-k) ** aj for k in range(1, K + 1)]
        for zj, aj in zip(z, a)
    ]
    if len(n) == 1:
        return mp.fsum(f[0][k - 1] / mp.mpf(k) ** n[0] for k in range(1, K + 1))
    return mp.fsum(
        f[0][k1 - 1] / mp.mpf(k1) ** n[0]
        * mp.fsum(f[1][k2 - 1] / mp.mpf(k1 + k2) ** n[1] for k2 in range(1, K + 1))
        for k1 in range(1, K + 1)
    )


class TestErrorEstimates:
    """Every err_estimate bounds the distance to the reference, including the
    round-off that dominates once the tail is negligible."""

    @pytest.mark.parametrize("n,z", [
        ((1,), (0.5,)),
        ((3,), (-0.6 + 0.2j,)),
        ((2, 1), (0.3 + 0.1j, -0.4)),
        ((1, 2), (0.6j, 0.5)),
        ((1, 1), (-0.5, 0.55)),
    ])
    def test_multiple_polylog(self, n, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp_simplex(mp, n, z, 300))
        res = multiple_polylog(n, z)
        assert abs(res.value - ref) <= res.err_estimate

    @pytest.mark.parametrize("n,z", [
        (2, 0.3),
        (2, 0.8),
        (2, 0.5 + 0.5j),
        (3, -0.9),
        (1, 0.95j),
    ])
    def test_classical_polylog(self, n, z):
        # the tail underflows at the rung taken here, so only the floor remains
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = complex(mp.polylog(n, mp.mpc(z)))
        res = classical_polylog(n, z)
        assert abs(res.value - ref) <= res.err_estimate

    @pytest.mark.parametrize("n,z", [
        ((2,), (0.4 - 0.3j,)),
        ((1,), (0.6,)),
        ((1, 1), (0.3, -0.25 + 0.1j)),
        ((1, 2), (0.1 + 0.05j, 0.5)),
        ((2, 0), (-0.4, 0.3j)),
    ])
    def test_octant_polylog(self, n, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp_cone(mp, (0,) * len(n), n, z, 0.5, 140))
        res = octant_polylog(n, z)
        assert abs(res.value - ref) <= res.err_estimate

    @pytest.mark.parametrize("a,n,z,q", [
        ((2,), (1,), (0.9 - 0.3j,), 0.6),
        ((1, 1), (1, 2), (0.5, -0.4 + 0.2j), 0.5 + 0.1j),
        ((0, 1), (2, 1), (0.3j, 0.6), 0.4),
    ])
    def test_q_multiple_polylog(self, a, n, z, q):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp_cone(mp, a, n, z, q, 120))
        res = q_multiple_polylog(a, n, z, q)
        assert abs(res.value - ref) <= res.err_estimate


# ---------------------------------------------------------------------------
# Pochhammer-type products
# ---------------------------------------------------------------------------


class TestPochhammerPsi:
    def test_level_zero(self):
        res = pochhammer_psi(0, 0.3 + 0.2j, 0.5)
        assert res.value == pytest.approx(1.3 + 0.2j)
        assert pochhammer_psi(0, -1.0, 0.5).value == 0

    def test_product_against_direct_factors(self):
        # level 1 carries exponent (-1)^1 C(k, 0) = -1 on every factor
        a, x, q = 1, 0.7, 0.45
        direct = 1.0
        for k in range(0, 200):
            direct /= 1 + q ** (2 * k + 1) * x
        res = pochhammer_psi(a, x, q)
        assert res.value == pytest.approx(direct, rel=1e-12)

    def test_level_two_binomial_exponents(self):
        a, x, q = 2, 0.4 - 0.2j, 0.5
        direct = 1 + 0j
        for k in range(0, 200):
            direct *= (1 + q ** (2 * k + 2) * x) ** (k + 1)
        res = pochhammer_psi(a, x, q)
        assert res.value == pytest.approx(direct, rel=1e-11)

    def test_exponential_series_representation(self):
        # Psi_a(x; q) = exp(-sum_{k>=1} (-x)^k / ([k]_q^a k))
        for a in (1, 2, 3):
            x, q = 0.6 - 0.1j, 0.4
            s = 0j
            for k in range(1, 120):  # q^(-k a) overflows beyond this
                s += (-x) ** k / (bracket(k, q) ** a * k)
            assert pochhammer_psi(a, x, q).value == pytest.approx(
                cmath.exp(-s), rel=1e-11
            )

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_shift_recursion(self, a):
        # Psi_a(q x) / Psi_a(x / q) = Psi_{a-1}(x)
        x, q = 0.35 + 0.15j, 0.55
        lhs = pochhammer_psi(a, q * x, q).value / pochhammer_psi(a, x / q, q).value
        rhs = pochhammer_psi(a - 1, x, q).value
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pochhammer_psi(-1, 0.5, 0.5)
        with pytest.raises(DomainError):
            pochhammer_psi(1, 0.5, 1.0)
        with pytest.raises(DomainError):
            pochhammer_psi(1, 0.5, 0.0)


# ---------------------------------------------------------------------------
# q-calculus on truncated series
# ---------------------------------------------------------------------------


class TestQCalculus:
    def test_q_integral_coefficientwise(self):
        q = 0.5
        s = TruncatedSeries((0j, 2 + 0j, -1j))
        out = q_integral(s, 1, q)
        assert out.coefficient(0) == 0j
        assert out.coefficient(1) == pytest.approx(-2 / bracket(1, q))
        assert out.coefficient(2) == pytest.approx(1j / bracket(2, q))

    def test_q_integral_level_zero_is_minus_identity(self):
        s = TruncatedSeries((0j, 1 + 1j, 2 - 1j, 0.5 + 0j))
        out = q_integral(s, 0, 0.7)
        assert out.coeffs == tuple(-c for c in s.coeffs)

    def test_q_difference_annihilates_constant(self):
        q = 0.6
        s = TruncatedSeries((5 + 0j, 1 + 0j, 1 + 0j))
        out = q_difference(s, q)
        assert out.coefficient(0) == 0j
        assert out.coefficient(2) == pytest.approx(bracket(2, q))

    def test_difference_inverts_integration(self):
        q = 0.45 - 0.2j
        s = TruncatedSeries((0j, 1 + 2j, -3 + 0j, 0.25j, 7 + 0j))
        roundtrip = q_difference(q_integral(s, 1, q), q)
        assert (roundtrip - s.scale(-1)).max_abs() <= 1e-13

    def test_iterated_integration_levels(self):
        # each application carries one minus sign, so composing two level-1
        # integrations is minus the level-2 operator
        q = 0.5
        s = TruncatedSeries((0j, 1 + 0j, 1 + 0j, 1 + 0j))
        twice = q_integral(q_integral(s, 1, q), 1, q)
        direct = q_integral(s, 2, q)
        assert (twice - direct.scale(-1)).max_abs() <= 1e-13

    def test_nonzero_constant_rejected(self):
        s = TruncatedSeries((1 + 0j, 1 + 0j))
        with pytest.raises(DomainError):
            q_integral(s, 1, 0.5)

    def test_bad_q_rejected(self):
        s = TruncatedSeries((0j, 1 + 0j))
        with pytest.raises(DomainError):
            q_integral(s, 1, 1.0)
        with pytest.raises(DomainError):
            q_integral(s, -1, 0.5)

    @pytest.mark.parametrize("a", [None, 0, 1, 2])
    def test_zero_q_rejected(self, a):
        # a = None is q_difference; q = 0 has no logarithm, so no q^k
        s = TruncatedSeries((0j, 1 + 0j, 2j))
        with pytest.raises(DomainError, match="q must"):
            q_difference(s, 0) if a is None else q_integral(s, a, 0j)

    @pytest.mark.parametrize(
        "a, q, degree",
        [
            (None, 0.01, 200),  # q^k underflows to 0
            (None, 0.01, 155),  # q^k is subnormal: 1 / q^k overflows
            (None, 10.0, 400),  # q^k overflows
            (0, 0.01, 200),
            (1, 0.01, 200),  # [k]_q^a overflows
            (2, 0.01, 100),
            (1, 10.0, 400),
        ],
    )
    def test_brackets_out_of_double_range_rejected(self, a, q, degree):
        s = TruncatedSeries((0j,) + (1 + 0j,) * degree)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning first
            with pytest.raises(DomainError, match=r"q-bracket \[\d+\]_q or its power overflows"):
                q_difference(s, q) if a is None else q_integral(s, a, q)


def reference_bracket(k: int, q: complex) -> complex:
    """[k]_q as the per-term formula formed it: one _q_power call per k."""
    qk = complex(series._q_power(q, np.array([k]))[0])
    return qk - 1.0 / qk


def reference_log_psi(a: int, x: complex, q: complex, tol: float) -> tuple:
    """_log_pochhammer_psi for a >= 1 as the per-term formula formed it."""
    sign, total, absq, n_idx = (-1) ** a, KahanSum(), abs(q), 0
    while True:
        u = series._q_power(q, np.array([2 * n_idx + a]))[0] * x
        c = math.comb(n_idx + a - 1, a - 1)
        total.add(sign * c * cmath.log(1 + u))
        if abs(u) < 0.5:
            tail = (
                2 * abs(x) * (n_idx + 2) ** (a - 1) * absq ** (2 * n_idx + 2 + a)
                / (1 - absq**2) * (a)
            )
            if tail <= tol:
                return total.value(), tail, n_idx + 1
        n_idx += 1


def q_values(moduli) -> list:
    return [v for r in moduli for v in (r, -r, cmath.rect(r, 0.4), cmath.rect(r, 2.1))]


class TestQPowerSequences:
    """q_difference, q_integral and the Psi product form all their powers q^k
    with one array call, and give the bits of one _q_power call per k."""

    INSIDE = q_values((0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)) + [0.7 + 0.1j, 0.7 - 0.1j]
    OUTSIDE = q_values((1.001, 1.5, 10.0))

    def expect(self, coeffs, q, term):
        """term(c_k, [k]_q) per k from reference_bracket, or None where the
        per-term formula raised."""
        try:
            return [0j] + [term(c, reference_bracket(k, q)) for k, c in enumerate(coeffs, 1)]
        except (ZeroDivisionError, OverflowError):
            return None

    @pytest.mark.parametrize("degree", [1, 2, 12, 40, 120])
    def test_operators_match_the_per_term_formula(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = [complex(c) for c in crandn(rng, degree)]
        s = TruncatedSeries((0j, *coeffs))
        operators = [(None, lambda c, br: c * br)] + [
            (a, lambda c, br, a=a: -c / br**a) for a in (0, 1, 2, 3)
        ]
        checked = 0
        for q in self.INSIDE + self.OUTSIDE:
            for a, term in operators:
                want = self.expect(coeffs, q, term)
                op = (lambda: q_difference(s, q)) if a is None else (lambda: q_integral(s, a, q))
                if want is None:
                    with pytest.raises(DomainError):
                        op()
                else:
                    assert same_bytes(op().coeffs, want), (q, a)
                    checked += 1
        assert checked >= 5 * len(self.INSIDE)

    @pytest.mark.parametrize(
        "a, x, q",
        [
            (1, 0.3, 0.3),
            (2, -0.2, 0.5),
            (1, 0.4j, 0.7 + 0.1j),
            (2, 0.25, 0.4),
            (3, 0.6 - 0.1j, -0.45),
            (1, 0.5 + 0.5j, 0.95),  # more than one 64-factor chunk
            (2, -0.3 + 0.1j, cmath.rect(0.97, 1.1)),
            (1, 0.2, -0.99),
        ],
    )
    def test_psi_matches_the_per_term_formula(self, a, x, q):
        params = SeriesParams()
        got = series._log_pochhammer_psi(a, x, q, params)
        want = reference_log_psi(a, x, q, params.tol)
        assert same_bytes(got[0], want[0]) and got[1:] == want[1:]
        if abs(q) > 0.9:
            assert got[2] > 64
