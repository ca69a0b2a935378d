"""The benchmark's three workloads: inputs made from the seed, one round of
operations, and the check of every output against an independent reference.

A round is the same list of operations every time, so ``attempted`` and
``failed`` grow by the same amounts with each round whatever the seed.

* ``suite``  - ``qpolylog verify <family> --seed <s>`` for every check
  family: the 156-check identity web, at two seeds drawn from the run's seed.
* ``points`` - point-by-point ``eval`` (``--workers 1`` and ``2``), the
  companion backend, an hbar ``table`` sweep and ``eval --fn bernoulli``.
* ``deep``   - depth-3 contour, companion and nested-series evaluations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp

import oracle

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

#: The fixed irrational deformation used wherever a workload needs one hbar.
HBAR0 = (1 + math.sqrt(5)) / 2

# Tolerances: the program's own defaults (QuadratureSpec.tol, SeriesParams.tol),
# scaled by max(1, |reference|).
TOL_CONTOUR = 1e-10
TOL_SERIES = 1e-12
TOL_EXACT = 1e-10  # double-precision evaluation of the exact polynomial
TOL_FAULT = 1e-9

# Near-rational hbar at which the companion backend accepts the point but
# loses accuracy (series._inv_bracket_pow tests |[k]_q| only for the k it
# visits, and the error estimate has no cancellation term).
FAULT_POINTS = ((2, -1.0, 1.5 + 1e-5), (2, -1.0, 1.5 + 3e-7))


# ---------------------------------------------------------------------------
# Stored-reference pool (30-digit line quadrature, remade by make_refs.py)
# ---------------------------------------------------------------------------

POOL_SIZE = 32
POOL_N = (1, 2)
TABLE_OMEGA = -1.25 + 0.5j
TABLE_N = 1
TABLE_STARTS = tuple(round(1.05 + 0.0137 * j, 4) for j in range(8))
TABLE_STEP = 0.0417
TABLE_ROWS = 24


def pool_omegas() -> list[complex]:
    rng = random.Random(20261017)
    return [
        complex(round(rng.uniform(-2.5, -0.6), 4), round(rng.uniform(-1.5, 1.5), 4))
        for _ in range(POOL_SIZE)
    ]


def table_hbars(start: float) -> list[float]:
    # the same arithmetic as cli.Sweep.values
    return [start + i * TABLE_STEP for i in range(TABLE_ROWS)]


def pool_inputs() -> list[tuple]:
    """Every (a, b, n, omega, hbar) whose reference refs.json stores."""
    items = [(1, 1, n, w, HBAR0) for n in POOL_N for w in pool_omegas()]
    items += [(1, 1, TABLE_N, TABLE_OMEGA, h) for s in TABLE_STARTS for h in table_hbars(s)]
    items += [(1, 1, n, w, h) for n, w, h in FAULT_POINTS]
    return items


def _key(a, b, n, omega, hbar) -> str:
    omega, hbar = complex(omega), complex(hbar)
    return f"{a},{b},{n},{omega.real!r},{omega.imag!r},{hbar.real!r},{hbar.imag!r}"


def load_refs() -> dict:
    data = json.loads(REFS_PATH.read_text())
    refs = {e["key"]: mp.mpc(e["re"], e["im"]) for e in data["values"]}
    missing = [k for k in (_key(*item) for item in pool_inputs()) if k not in refs]
    if missing:
        raise RuntimeError(
            f"{REFS_PATH.name} lacks {len(missing)} references; run bench/make_refs.py"
        )
    return refs


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    layer: str  # which layer produced the value: contour, series, exact
    ref: object  # mpmath reference value
    tol: float
    known_fault: bool = False


@dataclass(frozen=True)
class Outcome:
    ok: bool
    layer: str
    rel_err: float = 0.0
    est_below: bool = False
    known_fault: bool = False


def judge(value, err_estimate, error, check: Check) -> Outcome:
    """One operation's verdict.  A value passes when it lies within
    tol * max(1, |ref|) of the reference; a known-fault operation also passes
    when it refuses with DomainError or when its own error estimate covers
    the distance."""
    if error is not None:
        ok = check.known_fault and str(error).startswith("DomainError")
        return Outcome(ok, check.layer, known_fault=check.known_fault)
    actual = oracle.close(value, check.ref)
    scale = abs(complex(check.ref))
    bound = check.tol * max(1.0, scale)
    if check.known_fault:
        bound = max(bound, float(err_estimate))
    rel = actual / scale if scale else actual
    est_below = err_estimate is not None and float(err_estimate) < actual
    return Outcome(actual <= bound, check.layer, rel, est_below, check.known_fault)


# ---------------------------------------------------------------------------
# Command-line calls
# ---------------------------------------------------------------------------


def _lit(z) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _points_arg(points) -> str:
    return ";".join(",".join(_lit(c) for c in p) for p in points)


def _run_cli(cli, argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_eval(text: str, checks: list) -> list:
    try:
        records = json.loads(text)["results"]
    except (ValueError, KeyError):
        records = []
    if len(records) != len(checks):
        return [Outcome(False, c.layer, known_fault=c.known_fault) for c in checks]
    out = []
    for rec, check in zip(records, checks):
        if rec.get("error") is not None:
            out.append(judge(None, None, rec["error"], check))
        else:
            v = complex(rec["value"]["re"], rec["value"]["im"])
            out.append(judge(v, rec["err_estimate"], None, check))
    return out


def _parse_table(text: str, hbars: list, checks: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != len(checks):
        return [Outcome(False, c.layer) for c in checks]
    out = []
    for row, h, check in zip(rows, hbars, checks):
        if float(row[0]) != h:
            out.append(Outcome(False, check.layer))
        elif row[1] == "":
            out.append(judge(None, None, row[3], check))
        else:
            out.append(judge(complex(float(row[1]), float(row[2])), float(row[3]), None, check))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Subclasses fill ``self.ops`` with (phase, run, verdict): ``run()``
    performs the timed operation, ``verdict(result)`` returns one Outcome
    per output checked."""

    def round(self) -> tuple[dict, dict, list]:
        """Run every operation once.  Returns seconds per operation and
        outputs checked, by phase, and the outcomes."""
        times: dict[str, list] = defaultdict(list)
        units: dict[str, int] = defaultdict(int)
        outcomes: list[Outcome] = []
        for phase, run, verdict in self.ops:
            t0 = time.perf_counter()
            result = run()
            times[phase].append(time.perf_counter() - t0)
            got = verdict(result)
            units[phase] += len(got)
            outcomes.extend(got)
        return dict(times), dict(units), outcomes


class Suite(Workload):
    """The full identity suite through ``qpolylog verify <family> --seed <s>``,
    one call per check family, at VERIFY_SEEDS seeds drawn from the run's
    seed.  The calls together run every check of ``verify --seed <s>``.
    One call per family keeps each timed operation under about a second, so
    the fastest of its repetitions in a run is seldom caught in one of the
    host's slow spells.  The seed moves the randomized check grids, and with
    them the quadrature cost by up to 15%; a round over several seeds keeps
    that out of the run-to-run spread.  Every report's pass flag is
    recomputed from residual <= tolerance."""

    VERIFY_SEEDS = 2

    FAMILIES = frozenset(
        {"asymptotic", "companion", "difference_and_differential", "distribution", "h1",
         "q_calculus", "rational_hbar", "series_vs_contour", "shuffle", "symmetries"}
    )

    def __init__(self, qp, seed: int) -> None:
        rng = random.Random(f"suite:{seed}")
        families = sorted(self.FAMILIES | set(qp.CHECKS))
        self.ops = []
        for _ in range(self.VERIFY_SEEDS):
            verify_seed = str(rng.randrange(1, 2**31))
            for family in families:
                argv = ["verify", family, "--seed", verify_seed]
                self.ops.append(("verify", lambda argv=argv: _run_cli(qp.cli, argv),
                                 lambda result, family=family: self._verdict(family, result)))
        self.worst_margin = 0.0

    def _verdict(self, family: str, result) -> list:
        code, text = result
        try:
            reports = json.loads(text)["results"]
        except (ValueError, KeyError):
            return [Outcome(False, "identities")]
        outcomes = []
        for r in reports:
            ok = (r["identity_name"] == family and r["pass"] is True
                  and r["residual"] <= r["tolerance"])
            if r["tolerance"] > 0:
                self.worst_margin = max(self.worst_margin, r["residual"] / r["tolerance"])
            outcomes.append(Outcome(ok, "identities"))
        if code != 0 or not reports:
            outcomes.append(Outcome(False, "identities"))
        return outcomes


#: Fixed spread over a, b, n <= 4, so that a round's cost does not depend on the seed.
BERNOULLI_INDICES = ((1, 0, 0), (1, 1, 1), (2, 1, 1), (2, 2, 2), (4, 0, 4), (3, 3, 3), (1, 4, 4), (4, 4, 4))


class Points(Workload):
    def __init__(self, qp, seed: int) -> None:
        rng = random.Random(f"points:{seed}")
        refs = load_refs()
        h = _lit(HBAR0)
        self.ops = []

        def eval_call(phase, argv, checks):
            self.ops.append((phase, lambda: _run_cli(qp.cli, argv),
                             lambda result: _parse_eval(result[1], checks)))

        # depth 1, undeformed: F_{1,0,2}(w) = Li_2(-e^w).  |Im w| <= 0.3 keeps the
        # quadrature's truncation, and so its cost, independent of the seed.
        und = [(complex(rng.uniform(-2.5, -0.6), rng.uniform(-0.3, 0.3)),) for _ in range(16)]
        und_checks = [Check("contour", oracle.f_undeformed(2, p[0]), TOL_CONTOUR) for p in und]
        # depth 1, deformed: drawn from the stored line-quadrature pool
        pool = pool_omegas()
        d1 = [(pool[i],) for i in rng.sample(range(POOL_SIZE), 16)]
        d1_checks = [Check("contour", refs[_key(1, 1, 1, p[0], HBAR0)], TOL_CONTOUR) for p in d1]
        c1 = [(pool[i],) for i in rng.sample(range(POOL_SIZE), 16)]
        c1_checks = [Check("series", refs[_key(1, 1, 2, p[0], HBAR0)], TOL_SERIES) for p in c1]
        # depth 2, deformed, checked contour against companion (two independent
        # methods).  Re w_j <= -0.6 keeps the companion sums at a fixed length.
        d2 = []
        for _ in range(16):
            w1 = complex(rng.uniform(-2.0, -0.6), rng.uniform(-1.0, 1.0))
            w2 = complex(rng.uniform(-2.0, -0.6), rng.uniform(-1.0, 1.0))
            d2.append((w1 + w2, w2))
        idx2 = qp.MultiIndex((1, 1), (1, 1), (1, 1))
        d2_contour_checks, d2_companion_checks = [], []
        for p in d2:
            comp = qp.series.companion_sum_I((1, 1), (p[0] - p[1], p[1]), HBAR0).value
            quad = qp.contour.quad_F(idx2, p, HBAR0).value
            d2_contour_checks.append(Check("contour", oracle.mpc(comp), TOL_CONTOUR))
            d2_companion_checks.append(Check("series", oracle.mpc(quad), TOL_CONTOUR))

        for phase, extra in (("eval", []), ("eval_w2", ["--workers", "2"])):
            eval_call(phase, ["eval", "--fn", "F", "--a", "1", "--b", "0", "--n", "2",
                              f"--omega={_points_arg(und)}", f"--hbar={h}"] + extra, und_checks)
            eval_call(phase, ["eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "1",
                              f"--omega={_points_arg(d1)}", f"--hbar={h}"] + extra, d1_checks)
            eval_call(phase, ["eval", "--fn", "F", "--a", "1,1", "--b", "1,1", "--n", "1,1",
                              f"--omega={_points_arg(d2)}", f"--hbar={h}"] + extra,
                      d2_contour_checks)

        comp = ["--backend", "companion"]
        eval_call("companion", ["eval", "--fn", "F", "--a", "1", "--b", "1", "--n", "2",
                                f"--omega={_points_arg(c1)}", f"--hbar={h}"] + comp, c1_checks)
        eval_call("companion", ["eval", "--fn", "F", "--a", "1,1", "--b", "1,1", "--n", "1,1",
                                f"--omega={_points_arg(d2)}", f"--hbar={h}"] + comp,
                  d2_companion_checks)
        for n, w, hb in FAULT_POINTS:
            check = Check("series", refs[_key(1, 1, n, w, hb)], TOL_FAULT, known_fault=True)
            eval_call("companion", ["eval", "--fn", "F", "--a", "1", "--b", "1", "--n", str(n),
                                    f"--omega={_lit(w)}", f"--hbar={_lit(hb)}"] + comp, [check])

        # hbar sweep: every row has a new hbar
        start = rng.choice(TABLE_STARTS)
        hbars = table_hbars(start)
        stop = start + (TABLE_ROWS - 0.5) * TABLE_STEP
        t_checks = [Check("contour", refs[_key(1, 1, TABLE_N, TABLE_OMEGA, hb)], TOL_CONTOUR)
                    for hb in hbars]
        t_argv = ["table", "--fn", "F", "--a", "1", "--b", "1", "--n", str(TABLE_N),
                  f"--omega={_lit(TABLE_OMEGA)}", "--sweep", f"hbar={start!r}:{stop!r}:{TABLE_STEP!r}"]
        self.ops.append(("table", lambda: _run_cli(qp.cli, t_argv),
                         lambda result: _parse_table(result[1], hbars, t_checks)))

        # exact layer: three seeded omega per fixed index
        for a, b, n in BERNOULLI_INDICES:
            pts = [(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)),) for _ in range(3)]
            checks = [Check("exact", oracle.bernoulli_residue(a, b, n, p[0], HBAR0), TOL_EXACT)
                      for p in pts]
            eval_call("bernoulli", ["eval", "--fn", "bernoulli", "--a", str(a), "--b", str(b),
                                    "--n", str(n), f"--omega={_points_arg(pts)}", f"--hbar={h}"],
                      checks)


class Deep(Workload):
    def __init__(self, qp, seed: int) -> None:
        rng = random.Random(f"deep:{seed}")
        contour, series = qp.contour, qp.series
        self.ops = []

        # depth-3 deformed integral, contour against companion (a = b = 1)
        w = tuple(complex(rng.uniform(-1.5, -0.6), rng.uniform(-0.5, 0.5)) for _ in range(3))
        idx = qp.MultiIndex((1, 1, 1), (1, 1, 1), (1, 1, 1))
        pair = {}

        def keep_contour(res):
            pair["contour"] = res
            return []

        def judge_pair(res):
            quad = pair.pop("contour")
            return [
                judge(quad.value, quad.err_estimate, None,
                      Check("contour", oracle.mpc(res.value), TOL_CONTOUR)),
                judge(res.value, res.err_estimate, None,
                      Check("series", oracle.mpc(quad.value), TOL_CONTOUR)),
            ]

        self.ops.append(("deep_contour", lambda: contour.quad_I(idx, w, HBAR0), keep_contour))
        self.ops.append(("deep_companion", lambda: series.companion_sum_I((1, 1, 1), w, HBAR0),
                         judge_pair))

        # depth-3 undeformed integral against the 30-digit nested sum:
        # F_{(1,1,1),(0,0,0),n}(omega) = Li_n(e^v1, e^v2, -e^v3), v_j = omega_j - omega_{j+1}.
        # |Im omega_j| <= 0.3 keeps the truncation independent of the seed.
        v = [complex(rng.uniform(-1.5, -0.6), rng.uniform(-0.1, 0.1)) for _ in range(3)]
        omega = tuple(sum(v[j:], 0j) for j in range(3))
        n3 = (1, 2, 1)
        idx0 = qp.MultiIndex((1, 1, 1), (0, 0, 0), n3)
        ev = [mp.exp(oracle.mpc(x)) for x in v]
        check0 = Check("contour", oracle.simplex_li(n3, [ev[0], ev[1], -ev[2]]), TOL_CONTOUR)
        self.ops.append(("deep_contour", lambda: contour.quad_F(idx0, omega, HBAR0),
                         lambda res: [judge(res.value, res.err_estimate, None, check0)]))

        # depth-3 nested series against 30-digit nested sums
        def zpoint(rmin, rmax):
            return tuple(
                complex(r * math.cos(t), r * math.sin(t))
                for r, t in ((rng.uniform(rmin, rmax), rng.uniform(-math.pi, math.pi)) for _ in range(3))
            )

        cases = []
        for _ in range(8):
            z = zpoint(0.2, 0.6)
            cases.append((lambda z=z: series.multiple_polylog((1, 2, 1), z),
                          Check("series", oracle.simplex_li((1, 2, 1), z), TOL_SERIES)))
        for _ in range(8):
            z = zpoint(0.2, 0.6)
            cases.append((lambda z=z: series.octant_polylog((1, 1, 2), z),
                          Check("series", oracle.octant((1, 1, 2), z), TOL_SERIES)))
        for _ in range(8):
            z, q = zpoint(0.2, 0.6), zpoint(0.3, 0.6)[0]
            cases.append((lambda z=z, q=q: series.q_multiple_polylog((1, 1, 1), (1, 1, 1), z, q),
                          Check("series", oracle.q_octant((1, 1, 1), (1, 1, 1), z, q), TOL_SERIES)))
        self.ops.append((
            "deep_series",
            lambda: [f() for f, _ in cases],
            lambda results: [judge(r.value, r.err_estimate, None, c)
                             for r, (_, c) in zip(results, cases)],
        ))


WORKLOADS = {"suite": Suite, "points": Points, "deep": Deep}
