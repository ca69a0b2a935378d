"""Calibration grid: every error estimate of the contour backend bounds its
actual error against an independent reference.

The contour engine returns the value at step h and certifies its error from
the difference to the value at step 2h, by the trapezoid rule's convergence
rate times the fixed margin contour._RATE_MARGIN.  This grid fixes that
margin.  Its references:

* stored 35-digit line quadratures at depth 1 (tests/calibration_refs.json,
  remade by tests/make_calibration_refs.py);
* depth1_closed_form, at b = 0 or h = 1, where F_{a,b,n} = F_{a+b,0,n};
* the depth-2 closed form at h = 1 of the h1 identity family;
* companion sums at irrational h, with their own estimate added, at
  tol >= 1e-10 only;

and, for the Bernoulli layer, the stored residue against the circle
quadrature and the float evaluation of the exact polynomial.  The companion
series' own estimate is checked against stored line quadratures at h near
rational, where its q-brackets cancel.
"""

import json
import math
from pathlib import Path

import pytest

from qpolylog import contour
from qpolylog.contour import QuadratureSpec, depth1_closed_form, quad_bernoulli_circle, quad_F
from qpolylog.core import MultiIndex, convergence_strip, unwrap
from qpolylog.exact import bernoulli_exact
from qpolylog.identities import _h1_depth2_closed
from qpolylog.series import SeriesParams, companion_sum_I

REFS = json.loads(Path(__file__).with_name("calibration_refs.json").read_text())
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)
GOLDEN = (1 + 5**0.5) / 2
Row = contour._Row


def stored(entry) -> complex:
    return complex(float(entry["re"]), float(entry["im"]))


def entry_row(entry) -> Row:
    idx = MultiIndex((entry["a"],), (entry["b"],), (entry["n"],))
    return Row(idx, (complex(*entry["omega"]),), complex(*entry["hbar"]))


def shortfalls(rows, refs, tol, ref_errs=None) -> list:
    """(row, actual error, estimate) of each row of one contour call at tol
    whose estimate, plus its reference's error, is below the actual error;
    a row that fails raises its error."""
    ref_errs = ref_errs or [0.0] * len(rows)
    short = []
    for row, res, ref, ref_err in zip(rows, contour._quad_rows(rows, QuadratureSpec(tol=tol)),
                                      refs, ref_errs):
        res = unwrap(res)
        if abs(res.value - ref) > res.err_estimate + ref_err:
            short.append((row, abs(res.value - ref), res.err_estimate))
    return short


def strip_points(kinds, hbar_of, fracs, res):
    """Depth-1 (a, b, n, omega, h) points over kinds, with n = 0..3 and
    |Im omega| the given fractions of the strip, alternating in sign."""
    points = []
    for i, (a, b) in enumerate(kinds):
        h = hbar_of(a, b)
        strip = convergence_strip(MultiIndex((a,), (b,), (0,)), h)[0]
        for j, (frac, re) in enumerate(zip(fracs, res)):
            sign = (-1) ** (i + j)
            points.append((a, b, (i + j) % 4, complex(re, sign * frac * strip), h))
    return points


# b = 0 (h plays no part) and h = 1; Re omega < 0, as the closed form needs,
# and three points where Re omega shifts the aliasing frequency
CLOSED_DEPTH1 = strip_points(
    [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (2, 2)],
    lambda a, b: 1.0 if b else 2.3,
    (0.0, 0.5, 0.9, 0.97), (-0.4, -1.7, -3.0, -0.9),
) + [(1, 1, 2, -35 + 1j, 1.0), (2, 0, 1, -25 - 2j, 2.3), (1, 0, 3, -60 + 0.5j, 2.3)]

# depth 2 at h = 1: a = b = (1, 1), Re omega < 0, |Im omega| up to 0.97 of 2 pi
H1_DEPTH2 = [
    ((0, 1), (-1.0, -0.5)),
    ((1, 1), (-2.0 + 3.0j, -1.0 - 2.0j)),
    ((2, 1), (-0.7 - 5.5j, -1.3 + 0.4j)),
    ((1, 2), (-1.5 + 1.0j, -0.6 + 6.09j)),
    ((3, 2), (-2.5 - 6.09j, -2.0 - 6.09j)),
    ((2, 3), (-0.4 + 4.0j, -3.0 + 0.2j)),
]

# companion sums at irrational h, a = b = 1: (n, w, h) in difference variables
COMPANION = [
    ((1, 1), (-1.0, -0.5), math.sqrt(2)),
    ((0, 2), (-0.8 + 2.5j, -1.2 + 3.0j), GOLDEN),
    ((2, 3), (-1.5 - 3.0j, -0.7 - 4.0j), math.sqrt(3)),
    ((3, 1), (-0.6 + 1.0j, -0.9 - 5.5j), GOLDEN),
    ((1, 2), (-1.2 + 0.3j, -0.5 - 0.2j), 1.3 + 0.4j),
    ((2, 0), (-0.9 - 1.0j, -1.4 + 2.5j), 2.1 + 0.7j),
    ((1, 2, 1), (-2.0, -1.5, -1.0), math.sqrt(2)),
    ((0, 1, 3), (-0.7 + 1.0j, -0.8 - 2.0j, -1.2 + 3.5j), GOLDEN),
    ((2, 2, 0), (-1.0 - 0.5j, -0.6 + 0.5j, -0.9 - 4.0j), math.sqrt(3)),
    ((1, 1, 2), (-1.5, -1.0 + 0.5j, -0.7 - 0.2j), 0.8 + 0.6j),
]


@pytest.mark.parametrize("tol", TOLS)
def test_stored_line_references(tol):
    entries = REFS["line"]
    rows = [entry_row(e) for e in entries]
    assert shortfalls(rows, [stored(e) for e in entries], tol, [e["err"] for e in entries]) == []


@pytest.mark.parametrize("tol", TOLS)
def test_depth_one_closed_forms(tol):
    rows = [Row(MultiIndex((a,), (b,), (n,)), (w,), h) for a, b, n, w, h in CLOSED_DEPTH1]
    refs = [depth1_closed_form(a + b, n, w) for a, b, n, w, _ in CLOSED_DEPTH1]
    assert shortfalls(rows, [r.value for r in refs], tol, [r.err_estimate for r in refs]) == []


@pytest.mark.parametrize("tol", TOLS)
def test_depth_two_closed_form_at_unit_coupling(tol):
    rows = [Row(MultiIndex((1, 1), (1, 1), n), w, 1.0) for n, w in H1_DEPTH2]
    refs = [_h1_depth2_closed(n, w, SeriesParams()) for n, w in H1_DEPTH2]
    # the closed form adds five octant sums: allow it a few units of round-off
    assert shortfalls(rows, refs, tol, [1e-15 * max(1.0, abs(r)) for r in refs]) == []


def companion_shortfalls(tol) -> list:
    rows, refs = [], []
    for n, w, h in COMPANION:
        idx = MultiIndex((1,) * len(n), (1,) * len(n), n)
        rows.append(Row(idx, contour._transport(idx, w), h))
        refs.append(companion_sum_I(n, w, h))
    return shortfalls(rows, [r.value for r in refs], tol, [r.err_estimate for r in refs])


@pytest.mark.parametrize("tol", TOLS[:3])
def test_companion_at_irrational_hbar(tol):
    assert companion_shortfalls(tol) == []


def test_grid_needs_the_margin(monkeypatch):
    # the rate model alone falls short on the grid (by up to 1.15x), so the
    # margin is not slack
    monkeypatch.setattr(contour, "_RATE_MARGIN", 1.0)
    assert companion_shortfalls(1e-6) != []


def test_grid_reaches_the_strip_edge_and_complex_hbar():
    # the stored grid covers what the estimates must hold across
    entries = REFS["line"]
    edge = max(abs(complex(*e["omega"]).imag)
               / convergence_strip(entry_row(e).idx, complex(*e["hbar"]))[0] for e in entries)
    assert edge == pytest.approx(0.97)
    assert any(complex(*e["hbar"]).imag for e in entries)
    assert {(e["a"], e["b"]) for e in entries} == {(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)}
    assert {e["n"] for e in entries} == {0, 1, 2, 3}


def entry_id(entry) -> str:
    return f"n={entry['n']},omega={complex(*entry['omega'])},h={complex(*entry['hbar'])}"


@pytest.mark.parametrize("entry", REFS["changed"], ids=entry_id)
def test_rows_that_used_to_fail_return_values_within_their_estimates(entry):
    # the tests/cli_compare.txt rows that the old engine refused (over the
    # node budget at its level 1, or not converging at h = 50 and tol
    # 1e-13) now return values, each within its estimate of the reference
    row = entry_row(entry)
    res = quad_F(row.idx, row.omega, row.hbar, QuadratureSpec(tol=entry["tol"]))
    assert abs(res.value - stored(entry)) <= res.err_estimate + entry["err"]


@pytest.mark.parametrize("entry", REFS["near_rational"], ids=entry_id)
def test_companion_estimate_near_rational_hbar(entry):
    # near h = 3/2 some [k]_q = q^k - q^(-k) nearly cancel, and at
    # h = 3.3166247903554 the sum meets round-off: the floor's bracket
    # conditioning keeps each estimate above the actual error
    res = companion_sum_I((entry["n"],), (complex(*entry["omega"]),), complex(*entry["hbar"]))
    assert abs(res.value - stored(entry)) <= res.err_estimate + entry["err"]


@pytest.mark.parametrize("entry", REFS["bernoulli"], ids=lambda e: f"{e['a']},{e['b']},{e['n']}")
def test_bernoulli_estimates(entry):
    a, b, n = entry["a"], entry["b"], entry["n"]
    omega, hbar = complex(*entry["omega"]), complex(*entry["hbar"])
    ref = stored(entry)
    circle = quad_bernoulli_circle(a, b, n, omega, hbar)
    assert abs(circle.value - ref) <= circle.err_estimate
    poly = bernoulli_exact(a, b, n)
    assert abs(poly.eval(omega, hbar) - ref) <= poly._eval_rounding(omega, hbar)
