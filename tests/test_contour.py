"""Tests for the oscillatory contour-quadrature backend: the kernel itself,
the iterated line integrals in both argument conventions, zeta values,
circle residues, the depth-one closed form, and the generating integral."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _UNIT_ROUNDOFF,
    classical_polylog,
    companion_sum_I,
    multiple_polylog,
)

ANCHOR_OMEGA = -1.0
ANCHOR_VALUE = -math.exp(-1.0) / (1.0 + math.exp(-1.0))


def idx1(a: int, b: int, n: int) -> MultiIndex:
    return MultiIndex((a,), (b,), (n,))


# one row of a contour call (see contour._quad_rows)
Row = contour._Row


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
    mirrored fill is _logsh(c p), and its rounding _logsh_rounding, bit for
    bit."""

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
        ((log, rounding),) = contour._mirrored_logsh([(c, p)])
        full = contour._logsh(c * p)
        assert log.tobytes() == full.tobytes()
        assert rounding.tobytes() == contour._logsh_rounding(c * p, full).tobytes()


def logsh_flip_branch(z):
    """The _logsh formula that reflects every entry with Re z < 0."""
    z = np.asarray(z, dtype=np.complex128)
    flip = z.real < 0
    zz = np.where(flip, -z, z)
    out = zz + np.log(1.0 - np.exp(-2.0 * zz))
    return np.where(flip, out + 1j * math.pi, out)


class TestLogsh:
    # right halves as _mirrored_logsh passes them (j = 0 included), and
    # whole grids; at c = 50 pi the far nodes' exp(-2 z) underflows
    @pytest.mark.parametrize(
        "c", [math.pi, math.pi * 1.3, math.pi * (1.2 + 0.4j), math.pi * (1 - 0.3j),
              math.pi * 50, math.pi * 60]
    )
    @pytest.mark.parametrize("h,eps", [(0.137, 0.5), (0.0123, 0.1), (0.3, 0.25)])
    @pytest.mark.parametrize("left", [0, 97])
    def test_matches_flip_branch_formula(self, c, h, eps, left):
        p = h * np.arange(-left, 98) + 1j * eps
        with np.errstate(under="ignore"):
            assert contour._logsh(c * p).tobytes() == logsh_flip_branch(c * p).tobytes()


# ---------------------------------------------------------------------------
# Line integrals: anchors and internal consistency
# ---------------------------------------------------------------------------


class TestQuadF:
    def test_anchor_value(self):
        res = quad_F(idx1(1, 0, 0), (ANCHOR_OMEGA,), 1.0, QuadratureSpec(tol=1e-14))
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


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedLineFoldNumpy:
    """What the stacked contour fold needs of numpy besides its row
    convolver (tests/test_series.py::TestFFTConvolve): rows of different
    lengths, zero-padded to one width, give each row the bytes it has alone
    under 1 f in place and under a sum of its own slice; and a product with
    a new temporary runs in the operand order its size gives, which is why
    the fold, and fold_alone below, multiply in place."""

    @pytest.mark.parametrize("size", [16383, 16384, 27745])
    def test_elided_temporary_swaps_operands_from_256_kib(self, size):
        rng = np.random.default_rng(size)
        acc = crandn(rng, size)
        J = np.arange(size) - size // 2
        elided = acc * (0.01 * J + 0.3j) ** (-2)  # the factor is a temporary
        factor = (0.01 * J + 0.3j) ** (-2)
        acc_first = np.multiply(acc, factor, out=acc.copy())
        factor_first = np.multiply(factor, acc, out=acc.copy())
        if acc.nbytes >= 256 * 1024:
            assert same_bytes(elided, factor_first)
            # out= keeps the order it is given; where the two orders round
            # apart, acc-first is not what the elided temporary gives
            assert same_bytes(elided, acc_first) == same_bytes(acc_first, factor_first)
        else:
            assert same_bytes(elided, acc_first)
        # the fold multiplies in place, on a row of a wider stack
        stack = np.zeros((3, size + 7), dtype=np.complex128)
        stack[1, :size] = acc
        for first, want in ((True, factor_first), (False, acc_first)):
            row = stack[1, :size]
            row[:] = acc
            if first:
                np.multiply(factor, row, row)
            else:
                np.multiply(row, factor, row)
            assert same_bytes(row, want)

    def test_first_axis_in_place(self):
        # 1 f in place on a zero-padded stack is the lone 1 f, signed zeros
        # and subnormals included, and leaves the padding +0
        rng = np.random.default_rng(24)
        rows = [crandn(rng, size) * 10.0 ** rng.integers(-320, 5, size) for size in (5, 329, 3)]
        rows[0][:4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
        stack = np.zeros((3, 329), dtype=np.complex128)
        for r, row in enumerate(rows):
            stack[r, :row.size] = row
        np.multiply(1 + 0j, stack, stack)
        for r, row in enumerate(rows):
            assert same_bytes(stack[r, :row.size], np.ones(1, dtype=np.complex128) * row)
            assert same_bytes(stack[r, row.size:], np.zeros(329 - row.size, dtype=np.complex128))

    def test_sums_of_left_aligned_row_slices(self):
        rng = np.random.default_rng(23)
        lens = (2233, 27745, 9, 1024, 1)
        stack = np.zeros((len(lens), max(lens)), dtype=np.complex128)
        rows = [crandn(rng, size) for size in lens]
        for r, row in enumerate(rows):
            stack[r, :row.size] = row
        for r, row in enumerate(rows):
            seg = stack[r, :row.size]
            assert same_bytes(seg.sum(), row.sum())
            assert same_bytes(np.abs(seg).sum(), np.abs(row).sum())


def same_bytes(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
        # always for sh(pi p), and for sh(pi h p) when h is real; both go
        # through one _logsh call
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
        assert computed == [half + (half if hbar.imag == 0 else widest)]

    def test_diagnostics_report_refinement_history(self):
        spec = QuadratureSpec(tol=1e-12)
        res = quad_F(MultiIndex((1, 1), (1, 1), (1, 2)), (-1.0, -0.5), 1.3, spec)
        diag = res.diagnostics
        assert len(diag["deltas"]) == diag["levels"] == 1
        # the step-h0 value is certified far below its delta to step 2 h0
        assert diag["deltas"] == [1.7807028840355343e-07]
        assert diag["tail"] < res.err_estimate == 1.0979644416273764e-14
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


# (h, tol): real, complex, and h = 50 at tol 1e-13, where the line sits
# 1/100 above the axis
SWEEP_HBAR_TOL = [(1.2, 1e-10), (1.3 + 0.4j, 1e-12), ((1 + math.sqrt(5)) / 2, 1e-10),
                  (50.0, 1e-13), (50 + 20j, 1e-13)]


@st.composite
def line_batches(draw):
    """(idx, points, h, tol, node budget) of a batched line integral: depth
    1-3, 1-16 points in and out of the strip, some at large -Re omega, which
    refine past the first pass, some that overflow on the line (on the
    step-2h0 grid, or on the odd nodes of the step-h0 grid only), and node
    budgets that fail some points at the first pass or later."""
    hbar, tol = draw(st.sampled_from(SWEEP_HBAR_TOL))
    # at h = 50 the line sits 1/100 above the axis, where grids are fine and
    # refine to level 4: depth 1-2 only, and every axis has sh(pi h p),
    # without which an axis decays slowly and its grid grows to ~10^5 nodes
    deep = abs(hbar) < 50
    m = draw(st.integers(1, 3 if deep else 2))
    kinds = [(0, 1), (1, 1), (2, 1), (1, 2)] + [(1, 0)] * deep
    ab = draw(st.lists(st.sampled_from(kinds), min_size=m, max_size=m))
    n = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    idx = MultiIndex(tuple(a for a, _ in ab), tuple(b for _, b in ab), tuple(n))
    finite = st.builds(complex, st.floats(-4.0, 0.5), st.floats(-1.5, 1.5))
    far = st.builds(complex, st.floats(-300.0, -30.0), st.floats(-1.5, 1.5))
    omega = st.one_of(finite, finite, finite, far, st.sampled_from([5000.0, ODD_OVERFLOW]))
    points = draw(st.lists(st.tuples(*[omega] * m), min_size=1, max_size=16))
    budget = draw(st.sampled_from([contour._MAX_NODES] * 2 + [1500, 300]))
    return idx, points, hbar, tol, budget


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
            # at h = 50 and tol 1e-13, Re omega of -4000 to -12000 shifts the
            # aliasing frequency past pi / h0: levels 1-4
            (idx1(2, 1, 1), 50.0, 1e-13, [(-1.0,), (-4000.0,), (-7000 + 1j,), (-12000.0,)]),
            # mixed stopping levels 1, 2 and 4, and a point that stops converging
            (idx1(1, 1, 3), 50.0, 1e-13, [(-4.0,), (-4000.0,), (-20000.0,), (60000.0,)]),
        ],
    )
    def test_matches_one_point_calls_bit_for_bit(self, idx, hbar, tol, points):
        spec = QuadratureSpec(tol=tol)
        batch = quad_F_batch(idx, points, hbar, spec)
        assert_identical(batch, one_by_one(lambda p: quad_F(idx, p, hbar, spec), points))

    def test_stopping_levels_and_errors_stay_per_point(self):
        # -Re omega shifts the aliasing frequency, so the rate model
        # certifies a step only once pi / h exceeds it (see _LinePoint.error)
        points = [(-250.0,), (-4.0,), (700.0,), (-120 + 1j,), (-60.0,)]
        batch = quad_F_batch(idx1(1, 1, 2), points, 1.2)
        assert [r.diagnostics["levels"] for r in batch[:2]] == [4, 1]
        assert isinstance(batch[2], ConvergenceError)
        assert [r.diagnostics["levels"] for r in batch[3:]] == [3, 2]

    def test_node_budget_is_per_point(self, monkeypatch):
        # the wide point leaves the batch over budget; the narrow one goes on
        idx, points = idx1(1, 1, 1), [(-1.0,), (-1 + 6j,)]
        monkeypatch.setattr(contour, "_MAX_NODES", 1000)
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

    def test_sum_that_overflows_fails_its_row_alone(self):
        # every sample is finite but the nested sum is not: the row fails
        # with a DomainError at its first pass (step h0) rather than refine
        # on NaN deltas, and its neighbours keep their bits
        idx, hbar = MultiIndex((0, 0, 0), (1, 1, 1), (0, 0, 0)), 1.3 + 0.4j
        spec = QuadratureSpec(tol=1e-12)
        points = [(-1.0, -0.5, -0.3), (0, 1706.4508 + 3j, 1706.4508 + 3j), (-2.0, -1.0, -0.5)]
        got = quad_F_batch(idx, points, hbar, spec)
        assert isinstance(got[1], DomainError)
        assert str(got[1]) == "the nested sum overflows on the line at step 0.0685"
        assert_identical(got, one_by_one(lambda p: quad_F(idx, p, hbar, spec), points))
        assert_same_outcomes(line_integral(idx, points, hbar, spec),
                             two_pass(idx, points, hbar, spec))

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
        # widest level-1 grid (h is real, so the left half is the mirror),
        # in one _logsh call
        assert sizes == [(widest + 1) // 2 * 2]
        assert sum(sizes) < 2 * sum(d["nodes_evaluated"] for d in diags)

    def test_rows_in_different_fft_groups(self, monkeypatch):
        # each later axis is one FFT per group of rows whose own convolution
        # rounds to the same power of two: at step h0, the (599, 145) row
        # takes 1024 entries and the other five 512, (321, 145) and
        # (145, 245) among them, where the stack's widths would round to 1024
        idx, hbar, spec = MultiIndex((1, 1), (1, 1), (1, 2)), 1.3, QuadratureSpec()
        points = [(-1.0, -0.5), (-1 + 2j, -0.5), (-2 + 1j, -1 - 1j), (-1 + 4j, -0.5),
                  (-1.5 + 5.5j, -0.7), (-2.0, -1 + 3j)]
        shapes = []
        ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        got = line_integral(idx, points, hbar, spec)
        monkeypatch.undo()
        assert [r[2]["nodes_per_axis"] for r in got][3:] == [[321, 145], [599, 145], [145, 245]]
        # one inverse transform per group: step h0, then step 2h0
        assert shapes == [(5, 512), (1, 1024), (5, 256), (1, 512)]
        assert_same_outcomes(got, two_pass(idx, points, hbar, spec))
        assert_identical(quad_F_batch(idx, points, hbar, spec),
                         one_by_one(lambda p: quad_F(idx, p, hbar, spec), points))

    def test_row_past_the_elision_boundary_beside_small_rows(self, monkeypatch):
        # a row of 16,384 entries or more (256 KiB, where numpy would run
        # acc * factor with a new temporary factor as factor * acc) in one
        # stack with small rows: it is multiplied in place on its slice of
        # the stack, as it is alone.  Depth 2: 20,793 entries beside rows of
        # about 1,700; depth 1: 19,047 entries at h = 1 + 10i beside rows of
        # 139 and 163
        spec, stacks = QuadratureSpec(tol=1e-13), []
        fold_rows = contour._fold_rows

        def spy(pts, samples, *args):
            stacks.append([sum(e.size for e, _ in row) - len(row) + 1 for row in samples])
            return fold_rows(pts, samples, *args)

        monkeypatch.setattr(contour, "_MAX_STACK", 1 << 17)
        monkeypatch.setattr(contour, "_fold_rows", spy)
        idx, hbar = MultiIndex((1, 1), (0, 1), (1, 2)), 5.0
        points = [(-2.6208992563278373 + 2.9145008940925963j,
                   -2.7587133628012634 - 11.000295837076807j), (-1.0, -0.5), (-2 + 0.3j, -1.0)]
        got = line_integral(idx, points, hbar, spec)
        folded = [sum(r[2]["nodes_per_axis"]) - 1 for r in got]
        assert folded[0] == 20793 and max(folded[1:]) < 16384
        assert_same_outcomes(got, two_pass(idx, points, hbar, spec))
        rows = [Row(idx, om, hbar) for om in points] + [
            Row(idx1(1, 1, 1), (-2 + 1j,), 1 + 10j), Row(idx1(1, 1, 1), (-1.0,), 1.2),
            Row(idx1(1, 1, 1), (-1 + 2j,), 1.2)]
        for batch in (rows[:3], rows[3:]):
            stacks.clear()
            got = contour._quad_rows(batch, spec)
            assert any(len(s) == len(batch) and s[0] >= 16384 and max(s[1:]) < 16384
                       for s in stacks)
            alone = one_by_one(lambda row: quad_F(row.idx, row.omega, row.hbar, spec), batch)
            assert list(map(result_key, got)) == list(map(result_key, alone))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(line_batches())
    # levels 1, 2 and 4 and points that stop converging, at real and complex h
    @example((idx1(1, 1, 2), [(-4.0,), (-1 + 1j,), (-1.0,), (6 + 1j,)], 50.0, 1e-13, 1 << 21))
    @example((MultiIndex((2, 1), (1, 1), (1, 1)),
              [(-1.0, -1.0), (-4.0, -4.0), (-1 + 1j, -1 + 1j), (-2.0, -0.5)],
              50 + 20j, 1e-13, 1 << 21))
    def test_sweep_matches_one_point_calls_and_two_passes(self, case):
        idx, points, hbar, tol, budget = case
        spec = QuadratureSpec(tol=tol)
        with mock.patch.object(contour, "_MAX_NODES", budget):
            got = line_integral(idx, points, hbar, spec)
            alone = [line_integral(idx, [p], hbar, spec)[0] for p in points]
            want = two_pass(idx, points, hbar, spec)
        # repr tells -0.0 from 0.0; a fold that overflows on finite samples
        # fails its row, in a batch and alone
        assert list(map(outcome_key, got)) == list(map(outcome_key, alone))
        assert_same_outcomes(got, want)


def outcome_key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return repr(outcome)


def result_key(result):
    """Value, estimate, backend and diagnostics of an EvalResult (repr tells
    -0.0 from 0.0), or the type and text of an error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return repr((result.value, result.err_estimate, result.backend, dict(result.diagnostics)))


GOLDEN = (1 + math.sqrt(5)) / 2
AXIS_KINDS = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2) if a + b >= 1]


@st.composite
def mixed_rows(draw):
    """(rows, tol) of one contour call whose rows each have their own index,
    h and pole shifts: depth 1-3, per axis a, b in {0, 1, 2} with a + b >= 1
    and n in 0..3, real and complex h, pole shifts on a = b = n = 1 rows, and
    omega inside and outside the strip."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, 3))
        ab = draw(st.lists(st.sampled_from(AXIS_KINDS), min_size=m, max_size=m))
        n = tuple(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        idx = MultiIndex(tuple(a for a, _ in ab), tuple(b for _, b in ab), n)
        hbar = draw(st.sampled_from([1.2, GOLDEN, 0.8, 1.3 + 0.4j, 2.5 - 0.7j]))
        inside = st.builds(complex, st.floats(-4.0, 0.5), st.floats(-1.2, 1.2))
        outside = st.builds(complex, st.floats(-2.0, 0.0), st.sampled_from([-12.0, 15.0]))
        omega = tuple(draw(st.one_of(inside, inside, inside, outside)) for _ in range(m))
        shifts = None
        if ab == [(1, 1)] * m and n == (1,) * m and draw(st.booleans()):
            shift = st.builds(complex, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
            shifts = tuple(draw(shift) for _ in range(m))
        rows.append(Row(idx, omega, hbar, shifts))
    return rows, draw(st.sampled_from([1e-10, 1e-12]))


@st.composite
def mixed_calls(draw):
    """(rows, tol, stack): mixed_rows with the rows folded in stacks of at
    most `stack` cells."""
    rows, tol = draw(mixed_rows())
    return rows, tol, draw(st.sampled_from([contour._MAX_STACK, 2000]))


class TestMixedRows:
    """Rows of any index, h and pole shifts in one call each get the result
    of their one-point quad_F call, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mixed_calls())
    # h = 50 at tol 1e-13: rows that refine to levels 2-4 beside level-1 rows
    @example(([Row(idx1(1, 1, 2), (-20000.0,), 50.0), Row(idx1(1, 1, 2), (-4000.0,), 50.0),
               Row(idx1(1, 1, 3), (-1.0,), 50.0), Row(idx1(2, 1, 1), (-1.0,), 1.2),
               Row(MultiIndex((1, 1), (1, 1), (1, 2)), (-1.0, -0.5), 1.3)], 1e-13, 1 << 14))
    # a row over the node budget, one that overflows on the line, good rows
    # and a duplicated one; 300 cells stack two of the 139-node rows
    @example(([Row(idx1(1, 1, 1), (-1.0,), 1 + 110j), Row(idx1(1, 1, 1), (5000.0,), 1.2),
               Row(idx1(1, 1, 1), (-1.0,), 1.2), Row(idx1(2, 0, 1), (-1.0,), 1.2),
               Row(idx1(1, 1, 1), (-1.0,), 1.2)], 1e-10, 300))
    def test_each_row_matches_its_one_point_call(self, case):
        rows, tol, stack = case
        spec = QuadratureSpec(tol=tol)
        with mock.patch.object(contour, "_MAX_STACK", stack):
            got = contour._quad_rows(rows, spec)
        alone = one_by_one(lambda row: quad_F(row.idx, row.omega, row.hbar, spec, row.pole_shifts),
                           rows)
        assert list(map(result_key, got)) == list(map(result_key, alone))

    def test_levels_and_errors_of_the_explicit_rows(self):
        spec = QuadratureSpec(tol=1e-13)
        rows = [Row(idx1(1, 1, 2), (-20000.0,), 50.0), Row(idx1(1, 1, 2), (-4000.0,), 50.0),
                Row(idx1(1, 1, 1), (-1.0,), 1 + 110j), Row(idx1(1, 1, 1), (5000.0,), 1.2),
                Row(idx1(2, 1, 1), (-1.0,), 1.2)]
        got = contour._quad_rows(rows, spec)
        assert [r.diagnostics["levels"] for r in (got[0], got[1])] == [4, 2]
        assert isinstance(got[2], ConvergenceError) and "nodes" in str(got[2])
        assert isinstance(got[3], DomainError) and "overflows" in str(got[3])
        assert got[4].diagnostics["levels"] == 1

    def test_identical_rows_are_computed_once(self, monkeypatch):
        row = Row(MultiIndex((1, 1), (1, 1), (1, 2)), (-1.0, -0.5), 1.3)
        twin = Row(row.idx, (-1.0, -0.5), 1.3 + 0j)
        signed = Row(row.idx, (-1.0, -0.0), 1.3)  # -0.0 may round apart from 0.0
        zero = Row(row.idx, (-1.0, 0.0), 1.3)
        folded = []
        fold_rows = contour._fold_rows

        def spy(pts, samples, *args):
            folded.append(len(pts))
            return fold_rows(pts, samples, *args)

        monkeypatch.setattr(contour, "_fold_rows", spy)
        got = contour._line_integral([row, twin, signed, zero, row], QuadratureSpec())
        # row, signed and zero are folded; twin and the repeat take row's result
        assert folded[0] == 3
        assert got[0] is got[1] is got[4]
        assert got[2] is not got[3]

    def test_stacks_hold_one_depth_within_the_cell_budget(self, monkeypatch):
        # depth-1 rows of 139-163 nodes around one of 1041 (|Im omega| near
        # the strip edge), then depth-2 rows of 289 and 343 cells
        rows = [Row(idx1(1, 1, 1), (w,), 1.2)
                for w in (-1.0, -2.0, -1 + 1j, -1 + 6j, -1.5, -3.0, -0.5 + 0.5j)]
        rows += [Row(MultiIndex((1, 1), (1, 1), (1, 2)), w, 1.3)
                 for w in ((-1.0, -0.5), (-1 + 2j, -0.5), (-2.0, -1.0))]
        stacks = []
        fold_rows = contour._fold_rows

        def spy(pts, samples, steps, factors):
            # the first pass's step-h0 folds: samples with roundings, at h0
            if samples[0][0][1] is not None and steps == [pt.line.h0 for pt in pts]:
                stacks.append([pt.k for pt in pts])
            depths = {len(row) for row in samples}
            widest = max(sum(e.size for e, _ in row) for row in samples) - len(samples[0]) + 1
            assert len(depths) == 1
            assert len(pts) == 1 or len(pts) * widest <= 1000
            return fold_rows(pts, samples, steps, factors)

        monkeypatch.setattr(contour, "_MAX_STACK", 1000)
        monkeypatch.setattr(contour, "_fold_rows", spy)
        got = contour._quad_rows(rows, QuadratureSpec())
        monkeypatch.undo()
        # the wide row folds alone; the narrow rows on either side of it
        # still stack, and so do the depth-2 rows while they fit
        assert stacks == [[0, 1, 2], [3], [4, 5, 6], [7, 8], [9]]
        alone = one_by_one(lambda row: quad_F(row.idx, row.omega, row.hbar), rows)
        assert list(map(result_key, got)) == list(map(result_key, alone))


def _interleave(kept, fresh, span):
    """The samples at j = -span..span: kept at the even j, fresh at the odd."""
    out = np.empty(2 * span + 1, dtype=np.result_type(kept, fresh))
    out[span % 2::2] = kept
    out[1 - span % 2::2] = fresh
    return out


def fold_alone(samples, h, n, eps, shifts):
    """The trapezoid sum of one point and its round-off floor, folded alone
    with one FFT convolution per axis: the one-point fold that the stacked
    _fold_rows replaced, kept here as its reference."""
    kappa = 0.0
    for i, (e, rounding) in enumerate(samples):
        f = h * e
        weight = np.abs(f)
        if weight.any():
            kappa += float(weight @ rounding) / float(weight.sum())
        if i == 0:
            acc = (1 + 0j) * f
        else:  # a full FFT convolution at the next power of two
            size = acc.size + f.size - 1
            nfft = 1 << (size - 1).bit_length()
            acc = np.fft.ifft(np.fft.fft(acc, nfft) * np.fft.fft(f, nfft))[:size]
        if n[i] != 0:
            J = np.arange(acc.size) - acc.size // 2
            # in place: acc * factor with a new temporary factor of 256 KiB
            # or more runs as factor * acc (TestStackedLineFoldNumpy)
            acc *= (h * J + 1j * ((i + 1) * eps - shifts[i])) ** (-n[i])
    return complex(acc.sum()), _UNIT_ROUNDOFF * (1.0 + kappa) * float(np.abs(acc).sum())


def line_integral(idx, omegas, hbar, spec, pole_shifts=None):
    """contour._line_integral at the row (idx, omega, hbar, pole_shifts) of
    each point of omegas."""
    rows = [Row(idx, om, hbar, pole_shifts) for om in omegas]
    return contour._line_integral(rows, spec)


def two_pass(idx, omegas, hbar, spec, pole_shifts=None):
    """_line_integral refined another way: the step-2h0 grid sampled on its
    own, each later grid (steps h0, h0/2, ...) on its new odd nodes only and
    interleaved with the kept samples, and every point alone on its own grid
    and in its own fold (fold_alone), whose value the next level takes as
    its step-2h sum.  At depth 1 that sum is the direct sum of the step-2h
    terms (2h) e P^(-n), where the engine doubles its step-h terms at even
    J: the same bits wherever every term is a normal number.  It is built
    from the engine's own set-up, _log_kernel and rate model
    (_LinePoint.error), so both sides round alike on any machine;
    nodes_evaluated is counted here."""
    rows = [Row(idx, om, hbar, pole_shifts) for om in omegas]
    out, live = contour._line_points(rows, spec)
    shifts = tuple(pole_shifts) if pole_shifts is not None else (0j,) * idx.depth
    with np.errstate(over="ignore", invalid="ignore"):
        for pt in live:
            out[pt.k] = _refine_alone(pt, idx, hbar, spec, shifts)
    return [out[r] if isinstance(r, int) else r for r in out]


def _refine_alone(pt, idx, hbar, spec, shifts):
    h0, eps = pt.line.h0, pt.line.eps
    samples, nodes = [None] * idx.depth, 0
    for level in range(-1, spec.max_refine + 1):
        h = h0 / 2**level
        spans = [half << level if level >= 0 else half >> 1 for half in pt.halves]
        pt.counts = [2 * (half << max(level, 0)) + 1 for half in pt.halves]
        if sum(pt.counts) > contour._MAX_NODES:
            return ConvergenceError(
                f"line quadrature at step {h0 / 2**max(level, 0):.3g} needs more than "
                f"{contour._MAX_NODES} nodes"
            )
        for i, span in enumerate(spans):
            j = np.arange(-span, span + 1)
            if level >= 0:
                j = j[j % 2 != 0]
            p = h * j + 1j * eps
            lg = contour._log_kernel(idx.a[i], idx.b[i], hbar, pt.omega[i], p)
            nodes += p.size
            fresh = (np.exp(lg), _kernel_rounding(idx.a[i], idx.b[i], hbar, p, lg))
            if level >= 0:
                fresh = tuple(_interleave(k, f, span) for k, f in zip(samples[i], fresh))
            samples[i] = fresh
        value, pt.floor = fold_alone(samples, h, idx.n, eps, shifts)
        if level < 0:
            pt.value = value
            continue
        if not (cmath.isfinite(pt.value) and cmath.isfinite(value) and math.isfinite(pt.floor)):
            # the first axis with a step-h sample that is not finite, if any
            for i, (e, _) in enumerate(samples):
                if not np.isfinite(e).all():
                    return DomainError(
                        f"the integrand overflows on the line at omega[{i}] = {pt.omega[i]!r}")
            return DomainError(f"the nested sum overflows on the line at step {h:.3g}")
        pt.h = h
        pt.deltas.append(abs(value - pt.value))
        pt.value = value
        err = pt.error()
        if err <= spec.tol:
            outcome = pt.result(err)
            break
    else:
        outcome = pt.unconverged(spec)
    if isinstance(outcome, Exception):
        return outcome
    value, err, diag = outcome
    return value, err, {**diag, "nodes_evaluated": nodes}


def _kernel_rounding(a, b, hbar, p, lg):
    """|lg| plus the _logsh_rounding of each sh factor, as _sample_pass forms it."""
    rounding = 0
    for c, k in ((math.pi, a), (math.pi * hbar, b)):
        if k:
            z = c * p
            rounding = rounding + k * contour._logsh_rounding(z, contour._logsh(z))
    return np.abs(lg) + rounding


def assert_same_outcomes(got, want):
    """got has the outcomes of want (two_pass), repr for repr (so -0.0 is
    not 0.0): value, estimate and diagnostics, or the type and text of the
    error.  One exception: at depth 1 a step-2h term that is subnormal may
    round apart (see two_pass), so a delta may differ by two subnormal
    units per step-2h term, which holds every delta of terms * 2^-1019 or
    more bit for bit; and only where a delta differs may the estimate
    differ, by one ulp."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if not isinstance(w, Exception) and not isinstance(g, Exception):
            (g_value, g_err, g_diag), (w_value, w_err, w_diag) = g, w
            if len(w_diag["nodes_per_axis"]) == 1 and repr(g_diag["deltas"]) != repr(
                    w_diag["deltas"]):
                terms = w_diag["nodes_per_axis"][0] // 4 * 2 + 1  # at any level
                assert len(g_diag["deltas"]) == len(w_diag["deltas"])
                for a, b in zip(g_diag["deltas"], w_diag["deltas"]):
                    assert abs(a - b) <= 2 * terms * math.ulp(0.0)
                assert abs(g_err - w_err) <= math.ulp(w_err)
                g, w = [(value, {**diag, "deltas": None})
                        for value, diag in ((g_value, g_diag), (w_value, w_diag))]
        assert outcome_key(g) == outcome_key(w)


# overflows on the odd nodes of its step-h0 grid only, at h = 1.2 and tol 1e-10
ODD_OVERFLOW = 1705.597 + 5j


class TestOnePass:
    """Every pass samples its whole step-h grid once and folds the step-2h
    grid from its even entries; the result is the odd-node refinement's,
    which carries each level's value to the next, bit for bit."""

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
            # 12,377 nodes on the first axis
            (MultiIndex((1, 1), (0, 1), (1, 2)), 3.1, 1e-13,
             [(-2.6208992563278373 + 2.9145008940925963j,
               -2.7587133628012634 - 11.000295837076807j)], None),
            # overflow on the step-2h0 grid; overflow on the odd nodes of the
            # step-h0 grid only
            (idx1(1, 1, 1), 1.2, 1e-10, [(5000.0,), (ODD_OVERFLOW,), (-1.0,)], None),
            (MultiIndex((1, 1), (1, 1), (1, 1)), 1.2, 1e-10,
             [(5000.0, ODD_OVERFLOW), (ODD_OVERFLOW, 5000.0), (ODD_OVERFLOW, -1.0),
              (-1.0, ODD_OVERFLOW), (-1.0, -0.5)], None),
            # levels 2, 1, 4 and 1, 3, 3; points that stop converging
            (idx1(1, 1, 2), 50.0, 1e-13,
             [(-4000.0,), (-1 + 1j,), (-20000.0,), (60000.0,)], None),
            (idx1(1, 1, 3), 50.0, 1e-13,
             [(-4.0,), (-7000 + 1j,), (60000.0,), (-12000.0,)], None),
            # depth 3, mixed axes share the log sh samples of one grid
            (MultiIndex((2, 0, 1), (0, 1, 1), (1, 0, 2)), 1.2, 1e-10,
             [(-1.0, -0.5 + 0.2j, -0.3), (-2.0, -1.0, -0.5)], None),
            # tiny and subnormal samples: exp(-i p omega) ~ exp(-700 - ...)
            (idx1(1, 1, 1), 1.2, 1e-10, [(-1400.0,), (-1700 + 1j,)], None),
            # complex h, depth 2: levels 2, 3, 4 and 1 with no mirror for
            # sh(pi h p)
            (MultiIndex((2, 1), (1, 1), (1, 1)), 50 + 20j, 1e-13,
             [(-4000.0, -4.0), (-8000.0, -1 + 1j), (-15000.0, -1.0), (-2.0, -0.5)], None),
        ],
    )
    def test_matches_two_passes(self, idx, hbar, tol, points, shifts):
        spec = QuadratureSpec(tol=tol)
        got = line_integral(idx, points, hbar, spec, shifts)
        assert_same_outcomes(got, two_pass(idx, points, hbar, spec, shifts))

    def test_wide_grid_and_deep_levels_are_reached(self):
        big = line_integral(
            MultiIndex((1, 1), (0, 1), (1, 2)),
            [(-2.6208992563278373 + 2.9145008940925963j,
              -2.7587133628012634 - 11.000295837076807j)],
            5.0, QuadratureSpec(tol=1e-13),
        )[0]
        assert big[2]["nodes_per_axis"] == [20207, 587]
        deep = line_integral(
            idx1(1, 1, 2), [(-20000.0,), (-4000.0,)], 50.0, QuadratureSpec(tol=1e-13)
        )
        assert [r[2]["levels"] for r in deep] == [4, 2]
        complex_h = line_integral(
            MultiIndex((2, 1), (1, 1), (1, 1)),
            [(-4000.0, -4.0), (-8000.0, -1 + 1j), (-15000.0, -1.0), (-2.0, -0.5)],
            50 + 20j, QuadratureSpec(tol=1e-13),
        )
        assert [r[2]["levels"] for r in complex_h] == [2, 3, 4, 1]

    def test_every_level_samples_its_whole_grid(self, monkeypatch):
        # each pass takes both sh logs on the right half of its level's
        # widest grid (h is real, so the left half is the mirror), in one
        # _logsh call; levels 1-4 sample the whole grid again, even nodes
        # included
        sizes = []
        logsh = contour._logsh

        def counting(z):
            sizes.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        points = [(-4.0,), (-4000.0,), (-7000 + 1j,), (-20000.0,), (60000.0,)]
        line_integral(idx1(1, 1, 3), points, 50.0, QuadratureSpec(tol=1e-13))
        assert sizes == [2 * 231, 2 * 461, 2 * 921, 2 * 1833, 2 * 3665]

    def test_level_zero_overflows_are_reported_first(self):
        # each row fails at its first pass and names the first axis whose
        # step-h0 samples are not finite; ODD_OVERFLOW is finite on the
        # step-2h0 nodes, and that grid is read from the step-h0 grid
        idx, spec = MultiIndex((1, 1), (1, 1), (1, 1)), QuadratureSpec()
        points = [(ODD_OVERFLOW, -1.0), (-1.0, ODD_OVERFLOW), (5000.0, ODD_OVERFLOW),
                  (ODD_OVERFLOW, 5000.0), (ODD_OVERFLOW, ODD_OVERFLOW), (-1.0, 5000.0)]
        axes = [0, 1, 0, 0, 0, 1]
        got = line_integral(idx, points, 1.2, spec)
        for err, axis, point in zip(got, axes, points):
            assert isinstance(err, DomainError)
            omega = complex(point[axis])
            assert str(err) == f"the integrand overflows on the line at omega[{axis}] = {omega!r}"
        assert_same_outcomes(got, two_pass(idx, points, 1.2, spec))

    def test_level_one_budget_failure_alone(self, monkeypatch):
        # -60 shifts the aliasing frequency past pi / h0, so the first pass
        # certifies nothing, and level 1 (step h0 / 2) would need more than
        # _MAX_NODES nodes: only the first pass is sampled, and the point
        # fails at the level-1 step
        spec, idx, hbar = QuadratureSpec(), idx1(1, 1, 1), 1.3 + 0.4j
        monkeypatch.setattr(contour, "_MAX_NODES", 200)
        want = two_pass(idx, [(-60.0,)], hbar, spec)
        sizes = []
        logsh = contour._logsh

        def counting(z):
            sizes.append(z.size)
            return logsh(z)

        monkeypatch.setattr(contour, "_logsh", counting)
        got = line_integral(idx, [(-60.0,)], hbar, spec)
        assert isinstance(got[0], ConvergenceError) and "step 0.0324" in str(got[0])
        assert_same_outcomes(got, want)
        # h is complex: sh(pi p) is evaluated on the right half of the
        # first-pass grid, sh(pi h p) on all of it, in one _logsh call
        (size,) = sizes
        first = (2 * size - 1) // 3
        assert size == (first + 1) // 2 + first
        assert 2 * first - 1 > contour._MAX_NODES >= first

    @pytest.mark.parametrize(
        "budget,kinds",
        [
            # -1 + 6i and 3000 + 6i fail at the first pass, -60 + 3i at level 1
            (300, [tuple, ConvergenceError, ConvergenceError, tuple, ConvergenceError]),
            # 3000 + 6i overflows on the line
            (1500, [tuple, tuple, DomainError, tuple, tuple]),
        ],
    )
    def test_budget_failures_beside_points_that_go_on(self, monkeypatch, budget, kinds):
        monkeypatch.setattr(contour, "_MAX_NODES", budget)
        idx, spec = idx1(1, 1, 1), QuadratureSpec()
        points = [(-1.0,), (-1 + 6j,), (3000 + 6j,), (-1 + 3j,), (-60 + 3j,)]
        got = line_integral(idx, points, 1.2, spec)
        assert [type(r) for r in got] == kinds
        assert_same_outcomes(got, two_pass(idx, points, 1.2, spec))


def fold_spy(monkeypatch):
    """Record each _fold_rows call as (whether it forms a floor, a step-h
    fold, and for each row (pt, its step, its first axis's node count, its
    (value, floor, step-2h sum))); a fold with no floor, a second fold of
    its pass, must hold rows of depth 2 or more."""
    calls, fold = [], contour._fold_rows

    def recording(pts, samples, steps, factors):
        out = fold(pts, samples, steps, factors)
        floor = samples[0][0][1] is not None
        assert floor or len(samples[0]) >= 2
        calls.append((floor, [(pt, h, row[0][0].size, res)
                              for pt, h, row, res in zip(pts, steps, samples, out)]))
        return out

    monkeypatch.setattr(contour, "_fold_rows", recording)
    return calls


def direct_step_two_sum(idx, hbar, pt, h, size):
    """The step-2h trapezoid sum of a depth-1 row whose step-h grid has size
    nodes, summed directly: the terms (2h) e(2h j) P(2h j)^(-n) at the even
    J = 2j of that grid, each from _log_kernel; and whether every term is a
    normal number or 0."""
    span = size // 2 // 2
    j = np.arange(-span, span + 1)
    pole, n = pt.line.couplings[0]
    p = (2 * h) * j + 1j * pt.line.eps
    with np.errstate(over="ignore", invalid="ignore"):
        lg = contour._log_kernel(idx.a[0], idx.b[0], hbar, pt.omega[0], p)
        terms = (1 + 0j) * ((2 * h) * np.exp(lg))
        if n:
            terms *= ((2 * h) * j + pole) ** (-n)
    parts = np.abs(np.concatenate((terms.real, terms.imag)))
    return complex(terms.sum()), terms.size, bool(((parts == 0) | (parts >= 2.0**-1022)).all())


# rows of idx1(1, 1, 1) at h = 1.2 and tol 1e-10 either side of omega =
# -1229.74: at level 0 the row of -1229.4 keeps every |h e P^(-n)| at or
# above 2^-800, that of -1230.1 does not
NEAR_GUARD = (-1229.4 + 0j, -1230.1 + 0j)


class TestDepthOneStepTwoSum:
    """At depth 1 the step-2h sum is twice the step-h fold's sum over even
    J, so a pass folds once, whatever its samples: the same bits as the
    direct sum of the step-2h terms wherever every term is a normal number,
    and within one subnormal unit per term and part elsewhere.  Rows of
    depth 2 or more fold their step-2h grids."""

    def test_depth_one_folds_once_and_depth_two_twice(self, monkeypatch):
        calls = fold_spy(monkeypatch)
        spec = QuadratureSpec(tol=1e-10)
        got = line_integral(idx1(1, 1, 1), [(-1.0,), (-1 + 2j,), (-3 + 0.5j,)], 1.2, spec)
        levels = max(r[2]["levels"] for r in got)
        assert levels >= 1 and len(calls) == levels
        assert all(floor and all(res[2] is not None for *_, res in rows) for floor, rows in calls)
        calls.clear()
        idx, points = MultiIndex((1, 1), (1, 1), (1, 2)), [(-1.0, -0.5), (-1 + 2j, -0.5)]
        got = line_integral(idx, points, 1.3 + 0.4j, QuadratureSpec(tol=1e-12))
        levels = max(r[2]["levels"] for r in got)
        assert [floor for floor, _ in calls] == [True, False] * levels
        assert all(res[2] is None for _, rows in calls for *_, res in rows)

    @pytest.mark.parametrize(
        "epsilon,points,redo",
        [
            # redo marks the rows with a step-2h term that is not a normal
            # number; the others are bit for bit the direct sum.
            # Overflows on the line; one on the odd nodes only; a plain row
            (None, [(ODD_OVERFLOW,), (5000.0,), (-1.0,)], [False, True, False]),
            # tiny samples: exp(-i p omega) ~ exp(omega eps), eps = 5/12 at
            # h = 1.2, and exp(-700 * 0.8) on a line at height 0.8
            (None, [(-700.0,), (-1400.0,), (-1700 + 1j,)], [False, False, True]),
            (0.8, [(-700.0,), (-1.0,)], [False, False]),
            (None, [(NEAR_GUARD[0],), (NEAR_GUARD[1],)], [False, False]),
            # a step-h row of 19,025 entries
            (0.004, [(-1 + 0.3j,)], [False]),
            # all of them in one stack
            (None, [(-1.0,), (ODD_OVERFLOW,), (NEAR_GUARD[0],), (5000.0,), (NEAR_GUARD[1],),
                    (-700.0,)], [False, False, False, True, False, False]),
        ],
    )
    def test_fallback_rows_match_two_folds(self, monkeypatch, epsilon, points, redo):
        # the reference folds each row's step-h grid alone and sums its
        # step-2h terms directly
        idx, spec = idx1(1, 1, 1), QuadratureSpec(tol=1e-10, epsilon=epsilon)
        want = two_pass(idx, points, 1.2, spec)
        calls = fold_spy(monkeypatch)
        got = line_integral(idx, points, 1.2, spec)
        assert all(floor for floor, _ in calls)
        assert len(calls[0][1]) == len(points)
        flagged = set()
        for _, rows in calls:
            for pt, h, size, (_, _, value_2h) in rows:
                direct, terms, normal = direct_step_two_sum(idx, 1.2, pt, h, size)
                if not normal:
                    flagged.add(complex(pt.omega[0]))
                if normal:
                    assert same_bytes(value_2h, direct)
                elif cmath.isfinite(direct):
                    assert abs(value_2h.real - direct.real) <= terms * math.ulp(0.0)
                    assert abs(value_2h.imag - direct.imag) <= terms * math.ulp(0.0)
                else:
                    assert not cmath.isfinite(value_2h)
        assert flagged == {complex(p[0]) for p, flag in zip(points, redo) if flag}
        assert_same_outcomes(got, want)


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
        res = quad_Li(n, w, QuadratureSpec(tol=1e-14))
        z = tuple(cmath.exp(v) for v in w[:-1]) + (-cmath.exp(w[-1]),)
        expected = multiple_polylog(n, z).value
        assert abs(res.value - expected) <= 1e-12 * abs(expected)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            quad_Li((), ())


class TestQuadZeta:
    def test_unit_coupling_anchor(self):
        # s = 2 at h = 1 gives i pi / 12
        res = quad_zeta_hbar((2,), 1.0, QuadratureSpec(tol=1e-14))
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
        quad = quad_I(MultiIndex((1,) * 4, (1,) * 4, n), w, hbar, QuadratureSpec(tol=1e-14))
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
