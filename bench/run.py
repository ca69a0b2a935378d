#!/usr/bin/env python3
"""qpolylog benchmark.

    python3 bench/run.py --workload {suite,points,deep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The run repeats whole rounds of the workload's operations until S
seconds have passed (at least one round), checks every output against an
independent reference (see oracle.py) and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, taken from rounds traced from outside
(tracer.py) alternating with untraced rounds.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: with --workers 2 the run then uses at most two threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Set-up samples are taken between rounds, one each SETUP_EVERY seconds, so
# that they spread over the host's changing speed like the rounds do.
SETUP_EVERY = 4.0
SETUP_MIN = 5
SETUP_CODE = "import qpolylog.cli as cli; cli.build_parser()"

# Throughput of each workload phase, measured on untraced rounds:
# name -> (phase, reduction).  "per_op": mean seconds of one operation;
# "per_verify": seconds per full verify (the round's verify calls cover
# VERIFY_SEEDS full verifies); "rate": outputs checked per second.
PHASE_METRICS = {
    "verify_s": ("verify", "per_verify"),
    "eval_points_per_s": ("eval", "rate"),
    "eval_points_per_s_w2": ("eval_w2", "rate"),
    "companion_points_per_s": ("companion", "rate"),
    "table_rows_per_s": ("table", "rate"),
    "bernoulli_points_per_s": ("bernoulli", "rate"),
    "deep_contour_s": ("deep_contour", "per_op"),
    "deep_companion_s": ("deep_companion", "per_op"),
    "deep_series_points_per_s": ("deep_series", "rate"),
}


def setup_once() -> float:
    """Wall time of a fresh interpreter importing qpolylog and building the
    command-line parser: what every ``qpolylog`` invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: Popen.wait polls in 50 ms steps when given one
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def self_check(workloads, oracle) -> None:
    """The oracle reproduces F_{1,0,0}(w) = -e^w / (1 + e^w), and the verdict
    used for every operation rejects a value 1e-6 away from it."""
    for w in (-2.0, -0.75 + 0.3j, -0.1 - 0.2j):
        exact = -cmath.exp(w) / (1 + cmath.exp(w))
        ref = oracle.f_undeformed(0, w)
        if oracle.close(exact, ref) > 1e-15:
            raise RuntimeError(f"oracle self-check: F_(1,0,0)({w}) off by {oracle.close(exact, ref):.3g}")
        check = workloads.Check("contour", ref, workloads.TOL_CONTOUR)
        if not workloads.judge(exact, 1e-16, None, check).ok:
            raise RuntimeError("oracle self-check: the exact value was rejected")
        if workloads.judge(exact + 1e-6, 1e-16, None, check).ok:
            raise RuntimeError("oracle self-check: a value perturbed by 1e-6 passed")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def best_round(rounds) -> float:
    """Sum over one round's operations of each operation's fastest time in
    the run.  Every round runs the same operations in the same order, so
    ``times[phase][i]`` is the same operation in every round.  The host's
    speed drifts while a run lasts; the fastest repetition of an operation
    is the one least slowed by it."""
    first = rounds[0][0]
    return sum(
        min(times[phase][i] for times, _, _ in rounds)
        for phase in first
        for i in range(len(first[phase]))
    )


def phase_metrics(rounds, workload) -> dict:
    """PHASE_METRICS as medians over rounds; 0 for a phase the workload lacks."""
    out = {}
    for name, (phase, how) in PHASE_METRICS.items():
        per_round = []
        for times, units, _ in rounds:
            if phase not in times:
                continue
            total = sum(times[phase])
            if how == "per_op":
                per_round.append(total / len(times[phase]))
            elif how == "per_verify":
                per_round.append(total / workload.VERIFY_SEEDS)
            else:
                per_round.append(units[phase] / total)
        out[name] = _median(per_round)
    return out


def accuracy_metrics(outcomes) -> dict:
    out = {}
    for layer in ("contour", "series"):
        mine = [o for o in outcomes if o.layer == layer]
        out[f"{layer}.max_rel_err"] = max((o.rel_err for o in mine if not o.known_fault), default=0.0)
        out[f"{layer}.est_below_actual"] = sum(1 for o in mine if o.est_below)
    return out


def run(workload, seconds: float, tracer=None, setup=None):
    """Repeat untraced rounds, each followed by a traced one when a tracer
    is given, until `seconds` have passed.  When `setup` is a list, a
    set-up sample is appended to it after a round whenever SETUP_EVERY
    seconds have passed since the last one.  Returns untraced rounds, traced
    rounds, per-round span summaries and every outcome."""
    plain, traced, summaries, outcomes = [], [], [], []
    t_start = next_setup = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, units, got = workload.round()
        plain.append((times, units, time.perf_counter() - t0))
        outcomes.extend(got)
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                times, units, got = workload.round()
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            traced.append((times, units, elapsed))
            summaries.append(tracer.summarize())
            outcomes.extend(got)
        if setup is not None and time.perf_counter() >= next_setup:
            setup.append(setup_once())
            next_setup = time.perf_counter() + SETUP_EVERY
        if time.perf_counter() - t_start >= seconds:
            return plain, traced, summaries, outcomes


def layer_metrics(names, summaries, plain, traced, first_round, workload, wrapped) -> dict:
    """Per-layer values for the names listed in BENCHMARK.json.  Counts come
    from the first traced round (every round is the same work), times are
    means over traced rounds."""
    computed = {}
    keys = set().union(*summaries)
    for key in keys:
        vals = [s.get(key, 0.0) for s in summaries]
        is_time = key.endswith(".s") or key.endswith(".self_s")
        computed[key] = statistics.fmean(vals) if is_time else vals[0]
    computed["series.cones"] = computed.get("series.companion_series.calls", 0)
    computed["identities.worst_margin"] = getattr(workload, "worst_margin", 0.0)
    computed.update(accuracy_metrics(first_round))
    computed.update(phase_metrics(plain, workload))
    plain_s = _median([r[2] for r in plain])
    computed["round_s"] = plain_s
    traced_s = _median([r[2] for r in traced])
    computed["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    out = {}
    for name in names:
        if name in computed:
            out[name] = computed[name]
            continue
        base, _, kind = name.rpartition(".")
        if base in wrapped and kind in ("calls", "self_s", "s", "rebuilds"):
            out[name] = 0  # the workload never called this function
        elif name in ("contour.grid_points", "contour.levels", "series.terms"):
            out[name] = 0
        else:
            raise KeyError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpolylog" / "__init__.py").is_file():
        print(f"bench: no qpolylog package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qpolylog
    import qpolylog.cli  # noqa: F401  (binds qpolylog.cli)

    import oracle
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    self_check(workloads, oracle)
    workload = workloads.WORKLOADS[args.workload](qpolylog, args.seed)
    tracer = Tracer() if args.trace else None
    setup = None if args.trace else []
    plain, traced, summaries, outcomes = run(workload, args.seconds, tracer, setup)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_round = len(outcomes) // (len(plain) + len(traced))
        values = layer_metrics(
            names, summaries, plain, traced, outcomes[:per_round], workload, tracer.wrapped_names()
        )
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(
                setup + [setup_once() for _ in range(SETUP_MIN - len(setup))]
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "best_round_s": best_round(plain),
        }
    failed = sum(1 for o in outcomes if not o.ok)
    correct = all(o.ok or o.known_fault for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
