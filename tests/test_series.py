"""Tests for the series engine: classical and multiple polylogarithms,
q-deformed cone sums, companion series, Pochhammer products, and the
coefficient-wise q-calculus."""

import cmath
import itertools
import math

import pytest

from qpolylog import ConvergenceError, DomainError, series
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
    polylog_from_iterated_args,
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


class TestIteratedArgs:
    def test_ratio_path(self):
        path = (2.0, 1.0, 0.5 + 0.5j)
        assert polylog_from_iterated_args((1, 1), path) == (
            0.5,
            pytest.approx(0.5 + 0.5j),
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            polylog_from_iterated_args((1, 1), (1.0, 2.0))
        with pytest.raises(DomainError):
            polylog_from_iterated_args((1,), (1.0, 0.0))


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
        # one weight keeps the lattice a line of 2K+1 cells; two weights make
        # it a (K+1) x (K+1) plane, which the budget refuses past K = 128
        monkeypatch.setattr(series, "_MAX_CELLS", 1 << 16)
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
        # the tail underflows after one chunk here, so only the floor remains
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
