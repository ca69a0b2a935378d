"""Tests for the oscillatory contour-quadrature backend: the kernel itself,
the iterated line integrals in both argument conventions, zeta values,
circle residues, the depth-one closed form, and the generating integral."""

import cmath
import math

import numpy as np
import pytest

from qpolylog import ConvergenceError, DomainError, contour
from qpolylog.contour import (
    KernelParams,
    QuadratureSpec,
    depth1_closed_form,
    gen_series_depth1,
    kernel,
    quad_F,
    quad_F_batch,
    quad_I,
    quad_I_batch,
    quad_Li,
    quad_bernoulli_circle,
    quad_zeta_hbar,
)
from qpolylog.core import MultiIndex
from qpolylog.exact import bernoulli_exact, q_poly
from qpolylog.series import (
    _fftconvolve,
    classical_polylog,
    companion_sum_I,
    multiple_polylog,
)

ANCHOR_OMEGA = -1.0
ANCHOR_VALUE = -math.exp(-1.0) / (1.0 + math.exp(-1.0))


def idx1(a: int, b: int, n: int) -> MultiIndex:
    return MultiIndex((a,), (b,), (n,))


def sh(x: complex) -> complex:
    return cmath.exp(x) - cmath.exp(-x)


# ---------------------------------------------------------------------------
# Configuration objects
# ---------------------------------------------------------------------------


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.epsilon is None and spec.T is None
        assert spec.tol == 1e-10 and spec.max_refine == 4

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(epsilon=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(epsilon=1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(T=0.5)
        with pytest.raises(DomainError):
            QuadratureSpec(T=1000.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_refine=0)
        with pytest.raises(DomainError):
            QuadratureSpec(tol=-1.0)


class TestKernelParams:
    def test_requires_integrable_factor(self):
        with pytest.raises(DomainError):
            KernelParams(0, 0, 1.0, -1.0)
        with pytest.raises(DomainError):
            KernelParams(-1, 2, 1.0, -1.0)

    def test_requires_valid_coupling(self):
        with pytest.raises(DomainError):
            KernelParams(1, 1, -1.0, -1.0)
        with pytest.raises(DomainError):
            KernelParams(1, 0, 1.0, complex("inf"))


class TestKernel:
    @pytest.mark.parametrize(
        "a,b,hbar,p",
        [
            (1, 0, 1.0, 0.7 + 0.4j),
            (2, 1, 1.3, 0.7 + 0.4j),
            (2, 1, 1.3, -0.7 + 0.4j),  # left half-plane uses the flipped branch
            (1, 2, 0.8 + 0.3j, -1.2 - 0.5j),
            (3, 0, 1.0, 2.0 + 0.1j),
        ],
    )
    def test_matches_naive_formula(self, a, b, hbar, p):
        omega = -1.1 + 0.2j
        params = KernelParams(a, b, hbar, omega)
        naive = cmath.exp(-1j * p * omega) / (
            sh(math.pi * p) ** a * sh(math.pi * hbar * p) ** b
        )
        val = kernel(params, p)
        assert val == pytest.approx(naive, rel=1e-12)

    def test_vectorized(self):
        params = KernelParams(1, 1, 1.2, -0.9)
        ps = np.array([0.5 + 0.3j, -1.0 + 0.3j, 2.5 + 0.3j])
        vals = kernel(params, ps)
        for p, v in zip(ps, vals):
            assert v == pytest.approx(kernel(params, complex(p)), rel=1e-13)

    def test_no_overflow_far_out(self):
        # log-space assembly keeps sh^(-a) finite at |p| ~ 200
        params = KernelParams(3, 2, 1.4, -1.0)
        val = kernel(params, 200.0 + 0.25j)
        assert val == 0 or abs(val) < 1e-300


# ---------------------------------------------------------------------------
# Line integrals: anchors and internal consistency
# ---------------------------------------------------------------------------


class TestQuadF:
    def test_anchor_value(self):
        res = quad_F(idx1(1, 0, 0), (ANCHOR_OMEGA,), 1.0)
        assert res.backend == "contour"
        assert abs(res.value - ANCHOR_VALUE) <= 1e-12

    def test_pure_first_family_displays(self):
        # a = 2: Q_1(w) e^w / (1 - e^w);  a = 3: Q_2(w) (-e^w) / (1 + e^w)
        w = -1.3 + 0.4j
        e = cmath.exp(w)
        res2 = quad_F(idx1(2, 0, 0), (w,), 1.0)
        assert res2.value == pytest.approx(q_poly(1).eval(w) * e / (1 - e), abs=1e-10)
        res3 = quad_F(idx1(3, 0, 0), (w,), 1.0)
        assert res3.value == pytest.approx(
            q_poly(2).eval(w) * (-e) / (1 + e), abs=1e-10
        )

    def test_contour_height_independence(self):
        idx = MultiIndex((1,), (1,), (2,))
        w, hbar = -0.8 + 0.9j, 1.2
        hi = quad_F(idx, (w,), hbar, QuadratureSpec(epsilon=0.25))
        lo = quad_F(idx, (w,), hbar, QuadratureSpec(epsilon=0.125))
        assert hi.value == pytest.approx(lo.value, abs=1e-9)

    def test_depth_two_matches_closed_form_at_unit_coupling(self):
        # at h = 1 the (1,0)+(0,1) kernel pair collapses to a = 2
        idx = MultiIndex((1, 1), (0, 0), (1, 1))
        om = (-1.0, -1.5)
        res = quad_F(idx, om, 1.0)
        alt = quad_F(MultiIndex((1, 1), (0, 0), (1, 1)), om, 1.0,
                     QuadratureSpec(epsilon=0.2))
        assert res.value == pytest.approx(alt.value, abs=1e-9)

    def test_strip_violation_rejected(self):
        with pytest.raises(DomainError):
            quad_F(idx1(1, 0, 1), (-1.0 + 3.3j,), 1.0)  # |Im| > pi
        with pytest.raises(DomainError):
            quad_F(idx1(1, 1, 1), (-1.0 + 4.2j,), 0.3)  # pi(1 + 0.3) < 4.2

    def test_bare_axis_rejected(self):
        with pytest.raises(DomainError):
            quad_F(MultiIndex((1, 0), (0, 0), (1, 1)), (-1.0, -1.0), 1.0)

    def test_depth_four_matches_series(self):
        # no depth cap: F_{1,0,n} at depth 4 is a multiple polylogarithm
        idx = MultiIndex((1,) * 4, (0,) * 4, (1,) * 4)
        res = quad_F(idx, (-4.0, -3.0, -2.0, -1.0), 1.0)
        e = math.exp(-1.0)
        expected = multiple_polylog((1,) * 4, (e, e, e, -e)).value
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert len(res.diagnostics["nodes_per_axis"]) == 4

    def test_node_budget_refuses_tiny_line_height(self):
        # h = 1 + 2000i puts the line about 1e-7 above the real axis
        with pytest.raises(ConvergenceError):
            quad_F(idx1(1, 1, 1), (-1.0,), 1.0 + 2000j)

    def test_epsilon_must_stay_below_lowest_pole(self):
        # h = 3 puts the lowest sh(pi h p) pole at height 1/3
        with pytest.raises(DomainError):
            quad_F(idx1(1, 1, 1), (-1.0,), 3.0, QuadratureSpec(epsilon=0.4))

    def test_argument_count_checked(self):
        with pytest.raises(DomainError):
            quad_F(idx1(1, 0, 1), (-1.0, -2.0), 1.0)


class TestPrefixSumConvolution:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=37) + 1j * rng.normal(size=37)
        b = rng.normal(size=101) + 1j * rng.normal(size=101)
        direct = np.convolve(a, b)
        assert np.max(np.abs(_fftconvolve(a, b) - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert np.array_equal(_fftconvolve(np.array([2.0 + 0j]), b), 2.0 * b)
        # along axis 1 of a 2-D array, every row convolves on its own
        grid = rng.normal(size=(3, 29)) + 1j * rng.normal(size=(3, 29))
        out = _fftconvolve(grid, b, axis=1)
        assert out.shape == (3, 29 + 101 - 1)
        for row, got in zip(grid, out):
            direct = np.convolve(row, b)
            assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))


class TestTruncationAndNodeReuse:
    @pytest.mark.parametrize(
        "a,b,n,omega,hbar",
        [
            (2, 1, 1, -1.0, 50.0),
            (1, 1, 1, -1.0, 1 + 5j),
            (1, 1, 3, 0.8 + 0.2j, 1.2),
            (1, 0, 4, 6.0, 1.0),
            (1, 1, 1, -1 + 2.5j, 0.9),
        ],
    )
    def test_auto_window_matches_widest_window(self, a, b, n, omega, hbar):
        # the automatic cut leaves only a tail below unit round-off
        auto = quad_F(idx1(a, b, n), (omega,), hbar)
        wide = quad_F(idx1(a, b, n), (omega,), hbar, QuadratureSpec(T=200))
        assert wide.diagnostics["T"] == [200]
        assert auto.diagnostics["T"][0] < 200
        assert abs(auto.value - wide.value) <= auto.err_estimate

    def test_large_hbar_grid_stays_small(self):
        # at h = 50 the integrand is gone past |p| ~ 0.2
        res = quad_F(idx1(2, 1, 1), (-1.0,), 50.0)
        assert sum(res.diagnostics["nodes_per_axis"]) <= 1000

    @pytest.mark.parametrize(
        "idx,omega,hbar",
        [
            (idx1(1, 1, 2), (-0.7,), 1.2),
            (MultiIndex((1, 1), (1, 1), (1, 2)), (-1.0, -0.5), 1.3),
        ],
    )
    def test_kernel_sampled_once_per_node(self, monkeypatch, idx, omega, hbar):
        # the h/2 pass reuses the h nodes and samples only the new odd ones;
        # with a = b = 1 each node takes two sh logs, sh(pi p) and sh(pi h p)
        computed = []
        logsh = contour._logsh

        def counting(z):
            computed.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        diag = quad_F(idx, omega, hbar).diagnostics
        assert diag["levels"] == 1
        assert sum(computed) == 2 * sum(diag["nodes_per_axis"])
        assert 2 * diag["nodes_evaluated"] == sum(computed)

    def test_diagnostics_report_refinement_history(self):
        spec = QuadratureSpec(tol=1e-12)
        res = quad_F(MultiIndex((1, 1), (1, 1), (1, 2)), (-1.0, -0.5), 1.3, spec)
        diag = res.diagnostics
        assert len(diag["deltas"]) == diag["levels"] >= 1
        assert diag["deltas"][-1] <= spec.tol
        assert res.err_estimate >= diag["deltas"][-1] + diag["tail"]
        assert diag["nodes_evaluated"] == sum(diag["nodes_per_axis"])
        assert set(diag) == {
            "levels", "nodes_per_axis", "nodes_evaluated", "deltas", "T", "epsilon", "tail"
        }


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


class TestBatch:
    @pytest.mark.parametrize(
        "idx,hbar,tol,points",
        [
            # |Im omega| differs, so does each point's truncation; 1 + 9i
            # lies outside the strip pi (1 + 1.2) and keeps its error in place
            (idx1(1, 1, 1), 1.2, 1e-10,
             [(-1.0,), (-1 + 2j,), (-1 + 9j,), (-0.5 + 3.5j,), (-3 + 0.5j,)]),
            (MultiIndex((1, 1), (1, 1), (1, 2)), 1.3, 1e-12,
             [(-1.0, -0.5), (-1 + 2j, -0.5), (-1 + 7.5j, -1.0), (-2 + 1j, -1 - 1j)]),
            (MultiIndex((2, 1, 1), (1, 0, 1), (1, 1, 2)), 1 + 0.5j, 1e-10,
             [(-2.0, -1.0, -0.5), (-2 + 1j, -1.0, -0.5 - 0.5j)]),
            # at h = 50 and tol 1e-13, 6 + i refines one level past the others
            (idx1(2, 1, 1), 50.0, 1e-13, [(-1.0,), (6 + 1j,), (-4.0,), (3 + 1j,)]),
            # mixed stopping levels 1 and 4, and points that stop converging
            (idx1(1, 1, 3), 50.0, 1e-13,
             [(-4.0,), (-1 + 1j,), (0.5 + 1j,), (-1.0,), (6 + 1j,)]),
        ],
    )
    def test_matches_one_point_calls_bit_for_bit(self, idx, hbar, tol, points):
        spec = QuadratureSpec(tol=tol)
        batch = quad_F_batch(idx, points, hbar, spec)
        assert_identical(batch, one_by_one(lambda p: quad_F(idx, p, hbar, spec), points))

    def test_stopping_levels_and_errors_stay_per_point(self):
        points = [(-4.0,), (-1 + 1j,), (0.5 + 1j,), (-1.0,)]
        batch = quad_F_batch(idx1(1, 1, 3), points, 50.0, QuadratureSpec(tol=1e-13))
        assert isinstance(batch[0], ConvergenceError)
        assert batch[1].diagnostics["levels"] == 1
        assert isinstance(batch[2], ConvergenceError)
        assert batch[3].diagnostics["levels"] == 4

    def test_node_budget_is_per_point(self, monkeypatch):
        # the wide point leaves the batch over budget; the narrow one goes on
        idx, points = idx1(1, 1, 1), [(-1.0,), (-1 + 6j,)]
        monkeypatch.setattr(contour, "_MAX_NODES", 1500)
        batch = quad_F_batch(idx, points, 1.2)
        assert batch[0].diagnostics["levels"] == 1
        assert isinstance(batch[1], ConvergenceError)
        assert_identical(batch, one_by_one(lambda p: quad_F(idx, p, 1.2), points))

    def test_overflow_fails_its_point_alone(self):
        # exp(eps Re omega) overflows on the line at omega = 1e6; the call
        # raises no numpy warning (tier-1 runs with -W error)
        idx, points = idx1(1, 1, 1), [(-1.0,), (1e6,), (-2.0,)]
        batch = quad_F_batch(idx, points, 1.2)
        assert isinstance(batch[1], DomainError)
        assert "overflows" in str(batch[1])
        assert_identical(batch, one_by_one(lambda p: quad_F(idx, p, 1.2), points))

    def test_errors_pass_through(self):
        marker = DomainError("raised upstream")
        batch = quad_F_batch(idx1(1, 1, 1), [marker, (-1.0,), (-1.0, -2.0)], 1.2)
        assert batch[0] is marker
        assert batch[1].value == quad_F(idx1(1, 1, 1), (-1.0,), 1.2).value
        assert str(batch[2]) == "omega must have one entry per axis"

    def test_shared_failure_fails_every_point(self):
        batch = quad_F_batch(idx1(1, 1, 1), [(-1.0,), (-2.0,)], -1.0)
        assert all(isinstance(r, DomainError) for r in batch)

    def test_quad_I_batch_matches_one_point_calls(self):
        idx = MultiIndex((1, 1), (1, 1), (1, 2))
        ws = [(-1.0, -0.5), (-0.7 + 0.2j, -1.1), (-1 + 9j, -1.0), (-1.0,)]
        assert_identical(
            quad_I_batch(idx, ws, 1.3), one_by_one(lambda w: quad_I(idx, w, 1.3), ws)
        )

    def test_kernel_logs_sampled_once_per_node_of_the_widest_grid(self, monkeypatch):
        # three points, three truncations: every level samples sh(pi p) and
        # sh(pi h p) once on the widest point's grid, not once per point
        idx, hbar = MultiIndex((1, 1), (1, 1), (1, 1)), 1.3
        points = [(-1.0, -0.5), (-1 + 2j, -0.5 + 1j), (-2 + 4j, -1.0)]
        sizes = []
        logsh = contour._logsh

        def counting(z):
            sizes.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        batch = quad_F_batch(idx, points, hbar)
        diags = [r.diagnostics for r in batch]
        assert {d["levels"] for d in diags} == {1}
        widest = [max(d["nodes_per_axis"][i] for d in diags) for i in range(2)]
        assert len({tuple(d["nodes_per_axis"]) for d in diags}) == 3
        # two sh logs per axis and level, each over the widest grid's new nodes
        assert len(sizes) == 2 * 2 * 2
        assert sum(sizes) == 2 * sum(widest)
        assert sum(sizes) < 2 * sum(d["nodes_evaluated"] for d in diags)


class TestQuadI:
    def test_transport_to_suffix_sums(self):
        idx = MultiIndex((1, 1), (0, 0), (1, 2))
        w = (-0.7, -1.1 + 0.5j)
        lhs = quad_I(idx, w, 1.0)
        rhs = quad_F(idx, (w[0] + w[1], w[1]), 1.0)
        assert lhs.value == pytest.approx(rhs.value, abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            quad_I(idx1(1, 0, 1), (-1.0, -2.0), 1.0)


class TestQuadLi:
    def test_depth_one_dilog(self):
        w = -0.7
        res = quad_Li((2,), (w,))
        expected = classical_polylog(2, -math.exp(w)).value
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_depth_two_vs_series(self):
        n = (1, 2)
        w = (-0.9, -1.2)
        res = quad_Li(n, w)
        z = (math.exp(w[0]), -math.exp(w[1]))
        expected = multiple_polylog(n, z).value
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_complex_arguments(self):
        n = (2,)
        w = (-0.5 + 1.1j,)
        res = quad_Li(n, w)
        expected = classical_polylog(2, -cmath.exp(w[0])).value
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_depth_four_vs_series(self):
        n = (1, 2, 1, 2)
        w = (-0.6, -0.8 + 0.3j, -0.5, -0.9)
        res = quad_Li(n, w)
        z = tuple(cmath.exp(v) for v in w[:-1]) + (-cmath.exp(w[-1]),)
        expected = multiple_polylog(n, z).value
        assert abs(res.value - expected) <= 1e-12 * abs(expected)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            quad_Li((), ())


class TestQuadZeta:
    def test_unit_coupling_anchor(self):
        # s = 2 at h = 1 gives i pi / 12
        res = quad_zeta_hbar((2,), 1.0)
        assert res.value == pytest.approx(1j * math.pi / 12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            quad_zeta_hbar((1,), 1.0)
        with pytest.raises(DomainError):
            quad_zeta_hbar((), 1.0)
        with pytest.raises(DomainError):
            quad_zeta_hbar((2,), 1.0 + 0.5j)  # complex coupling
        with pytest.raises(DomainError):
            quad_zeta_hbar((2,), -1.0)


# ---------------------------------------------------------------------------
# Circle residues vs exact polynomials
# ---------------------------------------------------------------------------


class TestBernoulliCircle:
    @pytest.mark.parametrize(
        "a,b,n", [(1, 0, 0), (1, 0, 2), (2, 0, 0), (1, 1, 1), (2, 1, 1), (2, 2, 0)]
    )
    def test_matches_exact_polynomial(self, a, b, n):
        omega, hbar = 0.4 - 0.2j, 1.2
        res = quad_bernoulli_circle(a, b, n, omega, hbar)
        expected = bernoulli_exact(a, b, n).eval(omega, hbar)
        assert abs(res.value - expected) <= 1e-12 * max(1.0, abs(expected))
        assert res.backend == "contour"

    def test_zero_when_no_pole(self):
        res = quad_bernoulli_circle(1, 0, -1, 0.3, 1.0)
        assert abs(res.value) <= 1e-13

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_domain_error(self):
        # exp(-i p omega) overflows on the circle at omega = 1e6; the call
        # names the overflow and raises no numpy warning
        with pytest.raises(DomainError, match="overflows on the circle"):
            quad_bernoulli_circle(2, 1, 1, 1e6, 1.2)

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            quad_bernoulli_circle(1, 0, 1, 0.0, 1.0, radius=1.5)
        with pytest.raises(DomainError):
            quad_bernoulli_circle(1, 0, 1, 0.0, 1.0, radius=0.0)
        with pytest.raises(DomainError):
            quad_bernoulli_circle(-1, 0, 1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Depth-one closed form
# ---------------------------------------------------------------------------


class TestDepth1ClosedForm:
    @pytest.mark.parametrize("a,n", [(1, 0), (1, 2), (2, 1), (3, 2)])
    def test_matches_quadrature(self, a, n):
        omega = -1.1 + 0.3j
        closed = depth1_closed_form(a, n, omega)
        quad = quad_F(idx1(a, 0, n), (omega,), 1.0)
        assert closed.value == pytest.approx(quad.value, abs=1e-9)
        assert closed.backend == "closed_form"

    @pytest.mark.parametrize("tol", [None, 1e-14])
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_error_estimates_cover_the_gap(self, a, tol):
        # the two backends agree within the sum of their error estimates; at
        # tol = 1e-14 the quadrature estimate rests on its round-off floor
        spec = QuadratureSpec(tol=tol) if tol else None
        for n in range(4):
            for omega in (-0.3, -1.0 + 0.5j, -2.0 - 1.0j, -0.1 + 2.0j, -3.5 + 0.2j):
                quad = quad_F(idx1(a, 0, n), (omega,), 1.0, spec)
                closed = depth1_closed_form(a, n, omega)
                gap = abs(quad.value - closed.value)
                assert gap <= quad.err_estimate + closed.err_estimate, (n, omega)

    def test_depth_one_polylog_specialization(self):
        # a = 1: F_{1,0,n}(w) = Li_n(-e^w)
        w = -0.8
        res = depth1_closed_form(1, 3, w)
        assert res.value == pytest.approx(
            classical_polylog(3, -math.exp(w)).value, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            depth1_closed_form(0, 1, -1.0)
        with pytest.raises(DomainError):
            depth1_closed_form(1, 1, 0.5)  # needs Re omega < 0


# ---------------------------------------------------------------------------
# Generating integral in the pole variable
# ---------------------------------------------------------------------------


class TestGenSeries:
    def test_value_at_origin_is_first_order_integral(self):
        omega, hbar = -1.2, 1.3
        g0 = gen_series_depth1(omega, hbar, 0j)
        f = quad_F(MultiIndex((1,), (1,), (1,)), (omega,), hbar)
        assert g0.value == pytest.approx(f.value, abs=1e-10)

    def test_taylor_slope_gives_next_coupling_power(self):
        omega, hbar = -1.2, 1.3
        delta = 3e-3
        spec = QuadratureSpec(tol=1e-12)
        gp = gen_series_depth1(omega, hbar, delta, spec=spec)
        gm = gen_series_depth1(omega, hbar, -delta, spec=spec)
        slope = (gp.value - gm.value) / (2 * delta)
        f2 = quad_F(MultiIndex((1,), (1,), (2,)), (omega,), hbar)
        assert slope == pytest.approx(f2.value, abs=5e-5)

    def test_pole_shift_equivalence(self):
        omega, hbar, u = -1.0, 1.2, 0.07
        g = gen_series_depth1(omega, hbar, u)
        f = quad_F(
            MultiIndex((1,), (1,), (1,)), (omega,), hbar, pole_shifts=(u,)
        )
        assert_identical([g], [f])

    def test_shift_must_stay_below_line(self):
        with pytest.raises(DomainError):
            gen_series_depth1(-1.0, 1.0, 0.6)  # auto epsilon is 0.5 here


# ---------------------------------------------------------------------------
# Depth-three smoke test against the companion backend
# ---------------------------------------------------------------------------


class TestDepthThree:
    def test_coarse_quadrature_matches_companion(self):
        hbar = math.sqrt(2.0)
        n = (1, 1, 1)
        w = (-2.0, -2.0, -2.0)
        idx = MultiIndex((1, 1, 1), (1, 1, 1), n)
        spec = QuadratureSpec(T=4.0, tol=1e-4, max_refine=1)
        quad = quad_I(idx, w, hbar, spec)
        comp = companion_sum_I(n, w, hbar)
        assert quad.value == pytest.approx(comp.value, abs=1e-3)

    def test_default_quadrature_matches_companion(self):
        hbar = math.sqrt(2.0)
        n = (1, 1, 1)
        w = (-2.0, -2.0, -2.0)
        quad = quad_I(MultiIndex((1, 1, 1), (1, 1, 1), n), w, hbar)
        comp = companion_sum_I(n, w, hbar)
        assert abs(quad.value - comp.value) <= 1e-9


class TestDepthFour:
    def test_companion_matches_quadrature(self):
        hbar = (1 + math.sqrt(5)) / 2
        n = (1, 2, 1, 1)
        w = (-0.9 + 0.2j, -0.8 - 0.3j, -1.1 + 0.1j, -0.9)
        quad = quad_I(MultiIndex((1,) * 4, (1,) * 4, n), w, hbar)
        comp = companion_sum_I(n, w, hbar)
        assert comp.diagnostics["cones"] == 16
        assert abs(quad.value - comp.value) <= quad.err_estimate + comp.err_estimate
        assert abs(quad.value - comp.value) <= 1e-12 * abs(quad.value)
