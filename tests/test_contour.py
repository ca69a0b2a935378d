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


class TestMirroredLogsh:
    """On a grid p = h j + i eps and for real c > 0, c p at -j is -conj(c p)
    at j, so _logsh's flip branch gives conj(right half) + i pi there: the
    mirrored fill is _logsh(c p), bit for bit."""

    def test_exp_and_log_are_conjugate_symmetric(self):
        # what the mirror needs of numpy's complex exp and log
        rng = np.random.default_rng(3)
        w = rng.uniform(-800, 700, 20000) + 1j * rng.uniform(-50, 50, 20000)
        w[::2] /= 400.0
        assert np.exp(np.conj(w)).tobytes() == np.conj(np.exp(w)).tobytes()
        assert np.log(np.conj(w)).tobytes() == np.conj(np.log(w)).tobytes()

    # c as the engine forms it: pi for sh(pi p), pi * h with complex h for
    # sh(pi h p); at c = 50 pi the far nodes' exp(-2 c p) underflows
    @pytest.mark.parametrize(
        "c", [math.pi, math.pi * (1.2 + 0j), math.pi * complex(math.sqrt(2)), math.pi * (50 + 0j)]
    )
    @pytest.mark.parametrize(
        "h,eps", [(0.137, 0.5), (0.05, 0.4166666666666667), (0.3, 0.25), (0.0123, 0.1)]
    )
    # full grids |j| <= half, as _sample_pass builds them, with a half-width
    # of either parity (the mirror splits the grid at mid = half)
    @pytest.mark.parametrize("odd_half", [False, True])
    def test_equals_full_evaluation(self, c, h, eps, odd_half):
        half = 97 if odd_half else 96
        j = np.arange(-half, half + 1)
        p = h * j + 1j * eps
        got = contour._mirrored_logsh(c, p)
        assert got.tobytes() == contour._logsh(c * p).tobytes()


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

    def test_one_sequence_per_row(self):
        # a 2-D b gives row p of a its own sequence b[p]: bit for bit the
        # convolution of that row alone, and of a lone one-row stack
        rng = np.random.default_rng(6)
        b = rng.normal(size=(3, 41)) + 1j * rng.normal(size=(3, 41))
        for a, axis in (
            (rng.normal(size=(3, 29)) + 1j * rng.normal(size=(3, 29)), 1),
            (rng.normal(size=(3, 29, 5)) + 1j * rng.normal(size=(3, 29, 5)), 1),
            (rng.normal(size=(3, 4, 29)) + 1j * rng.normal(size=(3, 4, 29)), 2),
            (np.ones((3, 1, 1), dtype=complex), 2),
        ):
            out = _fftconvolve(a, b, axis=axis)
            for p in range(3):
                alone = _fftconvolve(a[p], b[p], axis=axis - 1)
                assert out[p].tobytes() == alone.tobytes()
                one_row = _fftconvolve(a[p:p + 1], b[p:p + 1], axis=axis)[0]
                assert out[p].tobytes() == one_row.tobytes()


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
            (idx1(1, 1, 2), (-0.7,), 1.2 + 0.3j),
        ],
    )
    def test_kernel_sampled_once_per_node(self, monkeypatch, idx, omega, hbar):
        # one pass covers levels 0 and 1: sh(pi p) and sh(pi h p) take one sh
        # log each per node of the widest level-1 grid over the axes, and
        # only on its right half j >= 0 where the left half is the mirror:
        # always for sh(pi p), and for sh(pi h p) when h is real
        computed = []
        logsh = contour._logsh

        def counting(z):
            computed.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        diag = quad_F(idx, omega, hbar).diagnostics
        assert diag["levels"] == 1
        widest = max(diag["nodes_per_axis"])
        half = (widest + 1) // 2
        assert computed == [half, half if hbar.imag == 0 else widest]

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
        # three points, three truncations: the one pass over levels 0 and 1
        # samples sh(pi p) and sh(pi h p) once on the widest grid over the
        # points and axes, not once per point, axis or level
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
        widest = max(max(d["nodes_per_axis"]) for d in diags)
        assert len({tuple(d["nodes_per_axis"]) for d in diags}) == 3
        # one sh log of each kind for both axes, over the right half of the
        # widest level-1 grid; h is real, so the left half is the mirror
        assert sizes == [(widest + 1) // 2] * 2
        assert sum(sizes) < 2 * sum(d["nodes_evaluated"] for d in diags)


def _interleave(even, odd):
    """The array even[0], odd[0], even[1], ..., odd[-1], even[-1]."""
    out = np.empty(even.size + odd.size, dtype=np.result_type(even, odd))
    out[0::2] = even
    out[1::2] = odd
    return out


def two_pass(idx, omegas, hbar, spec, pole_shifts=None):
    """_line_integral refined another way: level 0 sampled on its own grid at
    step h0, each later level on its new odd nodes only and interleaved with
    the kept samples, and every point alone on its own grid.  It is built
    from the engine's own set-up, _log_kernel and _fold, so both sides round
    alike on any machine; nodes_evaluated is counted here."""
    out, live, h0, eps, shifts = contour._line_points(idx, omegas, hbar, spec, pole_shifts)
    with np.errstate(over="ignore", invalid="ignore"):
        for pt in live:
            out[pt.k] = _refine_alone(pt, idx, hbar, spec, h0, eps, shifts)
    return out


def _refine_alone(pt, idx, hbar, spec, h0, eps, shifts):
    samples, nodes = [None] * idx.depth, 0
    for level in range(spec.max_refine + 1):
        h = h0 / 2**level
        pt.counts = [2 * (half << level) + 1 for half in pt.halves]
        if sum(pt.counts) > contour._MAX_NODES:
            return ConvergenceError(
                f"line quadrature at step {h:.3g} needs more than {contour._MAX_NODES} nodes"
            )
        error = None
        for i in range(idx.depth):
            span = pt.halves[i] << level
            j = np.arange(1 - span, span, 2) if level else np.arange(-span, span + 1)
            p = h * j + 1j * eps
            lg = contour._log_kernel(idx.a[i], idx.b[i], hbar, pt.omega[i], p)
            nodes += p.size
            fresh = (np.exp(lg), np.abs(lg))
            if not np.isfinite(fresh[0]).all():
                error = DomainError(
                    f"the integrand overflows on the line at omega[{i}] = {pt.omega[i]!r}"
                )
            samples[i] = tuple(map(_interleave, samples[i], fresh)) if level else fresh
        if error is not None:
            return error
        value, pt.floor = contour._fold(samples, h, idx.n, eps, shifts)
        if level:
            pt.deltas.append(abs(value - pt.value))
        pt.value = value
        if level and pt.deltas[-1] <= spec.tol:
            outcome = pt.result(level, eps)
            break
    else:
        outcome = pt.unconverged(spec, eps)
    if isinstance(outcome, Exception):
        return outcome
    value, err, diag = outcome
    return value, err, {**diag, "nodes_evaluated": nodes}


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert g == w  # value, estimate and diagnostics, bit for bit


# overflows on the odd nodes of its level-1 grid only, at h = 1.2 and tol 1e-10
ODD_OVERFLOW = 1706.4508 + 3j


class TestOnePass:
    """The first pass samples the level-1 grid once and folds level 0 from
    its even entries, and every later pass samples its whole grid; the
    result is the odd-node refinement's, bit for bit."""

    @pytest.mark.parametrize(
        "idx,hbar,tol,points,shifts",
        [
            (idx1(1, 1, 1), 1.2, 1e-10,
             [(-1.0,), (-1 + 2j,), (-1 + 9j,), (-0.5 + 3.5j,), (-3 + 0.5j,)], None),
            (MultiIndex((1, 1), (1, 1), (1, 2)), 1.3 + 0.4j, 1e-12,
             [(-1.0, -0.5), (-1 + 2j, -0.5), (-2 + 1j, -1 - 1j)], None),
            (MultiIndex((2, 1, 1), (1, 0, 1), (1, 1, 2)), 1 + 0.5j, 1e-10,
             [(-2.0, -1.0, -0.5), (-2 + 1j, -1.0, -0.5 - 0.5j)], None),
            # the pole shift of gen_series_depth1
            (idx1(1, 1, 1), 1.3, 1e-12, [(-1.2,), (-0.4 + 1j,)], (0.1 - 0.05j,)),
            # 24,753 nodes per axis
            (MultiIndex((1, 1), (0, 1), (1, 2)), 3.1, 1e-13,
             [(-2.6208992563278373 + 2.9145008940925963j,
               -2.7587133628012634 - 11.000295837076807j)], None),
            # overflow on the level-0 grid; overflow on level-1 odd nodes only
            (idx1(1, 1, 1), 1.2, 1e-10, [(5000.0,), (ODD_OVERFLOW,), (-1.0,)], None),
            (MultiIndex((1, 1), (1, 1), (1, 1)), 1.2, 1e-10,
             [(5000.0, ODD_OVERFLOW), (ODD_OVERFLOW, 5000.0), (ODD_OVERFLOW, -1.0),
              (-1.0, ODD_OVERFLOW), (-1.0, -0.5)], None),
            # levels 2 and 4; points that stop converging
            (idx1(1, 1, 2), 50.0, 1e-13, [(-4.0,), (-1 + 1j,), (-1.0,), (6 + 1j,)], None),
            (idx1(1, 1, 3), 50.0, 1e-13, [(-4.0,), (-1 + 1j,), (0.5 + 1j,), (-1.0,)], None),
            # depth 3, mixed axes share the log sh samples of one grid
            (MultiIndex((2, 0, 1), (0, 1, 1), (1, 0, 2)), 1.2, 1e-10,
             [(-1.0, -0.5 + 0.2j, -0.3), (-2.0, -1.0, -0.5)], None),
            # tiny and subnormal samples: exp(-i p omega) ~ exp(-700 - ...)
            (idx1(1, 1, 1), 1.2, 1e-10, [(-1400.0,), (-1700 + 1j,)], None),
            # complex h, depth 2: levels 2, 3, 4 and 2 with no mirror for
            # sh(pi h p)
            (MultiIndex((2, 1), (1, 1), (1, 1)), 50 + 20j, 1e-13,
             [(-1.0, -1.0), (-4.0, -4.0), (-1 + 1j, -1 + 1j), (-2.0, -0.5)], None),
        ],
    )
    def test_matches_two_passes(self, idx, hbar, tol, points, shifts):
        spec = QuadratureSpec(tol=tol)
        got = contour._line_integral(idx, points, hbar, spec, shifts)
        assert_same_outcomes(got, two_pass(idx, points, hbar, spec, shifts))

    def test_wide_grid_and_deep_levels_are_reached(self):
        big = contour._line_integral(
            MultiIndex((1, 1), (0, 1), (1, 2)),
            [(-2.6208992563278373 + 2.9145008940925963j,
              -2.7587133628012634 - 11.000295837076807j)],
            3.1, QuadratureSpec(tol=1e-13),
        )[0]
        assert max(big[2]["nodes_per_axis"]) == 24753
        deep = contour._line_integral(
            idx1(1, 1, 2), [(-4.0,), (-1.0,)], 50.0, QuadratureSpec(tol=1e-13)
        )
        assert [r[2]["levels"] for r in deep] == [4, 2]
        complex_h = contour._line_integral(
            MultiIndex((2, 1), (1, 1), (1, 1)),
            [(-1.0, -1.0), (-4.0, -4.0), (-1 + 1j, -1 + 1j), (-2.0, -0.5)],
            50 + 20j, QuadratureSpec(tol=1e-13),
        )
        assert [r[2]["levels"] for r in complex_h] == [2, 3, 4, 2]

    def test_every_level_samples_its_whole_grid(self, monkeypatch):
        # each pass takes both sh logs on the right half of its level's
        # widest grid (h is real, so the left half is the mirror); levels
        # 2-4 sample the whole grid again, even nodes included
        sizes = []
        logsh = contour._logsh

        def counting(z):
            sizes.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        points = [(-4.0,), (-1 + 1j,), (0.5 + 1j,), (-1.0,), (6 + 1j,)]
        contour._line_integral(idx1(1, 1, 3), points, 50.0, QuadratureSpec(tol=1e-13))
        assert sizes == [461, 461, 921, 921, 1841, 1841, 3681, 3681]

    def test_level_zero_overflows_are_reported_first(self):
        # each level reports its last overflowing axis, and an overflow on
        # level-1 odd nodes counts only if no axis overflows at level 0; so
        # (5000, ODD_OVERFLOW) failing on axis 0 shows ODD_OVERFLOW is finite
        # on its level-0 nodes
        idx, spec = MultiIndex((1, 1), (1, 1), (1, 1)), QuadratureSpec()
        points = [(ODD_OVERFLOW, -1.0), (-1.0, ODD_OVERFLOW), (5000.0, ODD_OVERFLOW),
                  (ODD_OVERFLOW, 5000.0), (ODD_OVERFLOW, ODD_OVERFLOW)]
        axes = [0, 1, 0, 1, 1]
        got = contour._line_integral(idx, points, 1.2, spec)
        for err, axis, point in zip(got, axes, points):
            assert isinstance(err, DomainError)
            omega = complex(point[axis])
            assert str(err) == f"the integrand overflows on the line at omega[{axis}] = {omega!r}"

    def test_level_one_budget_failure_alone(self, monkeypatch):
        # level 1 would need more than _MAX_NODES nodes: only the level-0
        # grid is sampled, and the point fails at the level-1 step
        spec, idx = QuadratureSpec(), idx1(1, 1, 1)
        want = two_pass(idx, [(-1.0,)], 1 + 65j, spec)
        sizes = []
        logsh = contour._logsh

        def counting(z):
            sizes.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        got = contour._line_integral(idx, [(-1.0,)], 1 + 65j, spec)
        assert isinstance(got[0], ConvergenceError) and "step 3.71e-06" in str(got[0])
        assert_same_outcomes(got, want)
        # h is complex: sh(pi p) is evaluated on the right half of the
        # level-0 grid, sh(pi h p) on all of it
        level0 = max(sizes)
        assert sizes == [(level0 + 1) // 2, level0]
        assert 2 * level0 - 1 > contour._MAX_NODES >= level0

    @pytest.mark.parametrize(
        "budget,kinds",
        [
            # -1 + 6i fails at level 0, -1 + 3i at level 1
            (300, [tuple, ConvergenceError, ConvergenceError, ConvergenceError]),
            # -1 + 6i fails at level 1; 3000 + 6i overflows at level 0 first
            (1500, [tuple, ConvergenceError, DomainError, tuple]),
        ],
    )
    def test_budget_failures_beside_points_that_go_on(self, monkeypatch, budget, kinds):
        monkeypatch.setattr(contour, "_MAX_NODES", budget)
        idx, spec = idx1(1, 1, 1), QuadratureSpec()
        points = [(-1.0,), (-1 + 6j,), (3000 + 6j,), (-1 + 3j,)]
        got = contour._line_integral(idx, points, 1.2, spec)
        assert [type(r) for r in got] == kinds
        assert_same_outcomes(got, two_pass(idx, points, 1.2, spec))


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

    def test_memoized_q_poly_changes_no_bit(self, monkeypatch):
        grid = [(a, n, omega) for a in (1, 2, 3) for n in (0, 1, 2)
                for omega in (-0.3, -1.0 + 0.5j, -2.0 - 1.0j)]
        memo = [depth1_closed_form(a, n, omega) for a, n, omega in grid]
        monkeypatch.setattr(contour, "q_poly", q_poly.__wrapped__)
        fresh = [depth1_closed_form(a, n, omega) for a, n, omega in grid]
        assert memo == fresh

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


class TestCompanionComplexCoupling:
    # at complex hbar the two nomes leave the unit circle on opposite sides;
    # outside it (|q| = 1.97 for the dual nome at hbar = 1.3 + 0.4i),
    # q^k - q^(-k) overflows unless the bracket is formed from 1/q
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n,w,hbar",
        [
            ((2,), (-0.28665954253255865 + 0.8299859091252129j,), 1.3 + 0.4j),
            ((0,), (-1.55 - 0.27j,), 1.34 - 0.89j),
            ((1,), (-1.2 + 0.3j,), 2.1 + 0.7j),
            ((1, 2), (-1.79 - 0.14j, -2.21 + 0.36j), 1.16 - 0.98j),
            ((2, 1), (-1.6 + 0.2j, -0.9 - 0.1j), 0.8 + 0.6j),
        ],
    )
    def test_companion_matches_quadrature(self, n, w, hbar):
        m = len(n)
        quad = quad_I(MultiIndex((1,) * m, (1,) * m, n), w, hbar)
        comp = companion_sum_I(n, w, hbar)
        assert abs(quad.value - comp.value) <= quad.err_estimate + comp.err_estimate
