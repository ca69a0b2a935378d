#!/usr/bin/env python3
"""Remake bench/refs.json: 30-digit line-quadrature references for the
depth-1 deformed points of the ``points`` workload (its stored pool, the
hbar sweep rows and the two near-rational companion points).

    python3 bench/make_refs.py

Takes about 1.5 minutes.  Before computing anything it checks the line
quadrature against the two closed forms (F_{1,0,n} and the merged index at
hbar = 1) and stops if they disagree by more than 1e-25.
"""

from __future__ import annotations

import json
import sys
import time

import mpmath as mp

import oracle
import workloads


def validate() -> float:
    worst = 0.0
    for n in (0, 1, 2):
        for w in (-1.0, -0.7 + 0.5j, -2.2 - 1.1j):
            line, _ = oracle.f_line(1, 0, n, w, 1.0)
            worst = max(worst, float(abs(line - oracle.f_undeformed(n, w))))
            line, _ = oracle.f_line(1, 1, n, w, 1.0)
            worst = max(worst, float(abs(line - oracle.f_merged(n, w))))
    return worst


def main() -> int:
    worst = validate()
    print(f"line quadrature vs closed forms: max difference {worst:.3g}", file=sys.stderr)
    if worst > 1e-25:
        print("make_refs: the line quadrature does not reproduce the closed forms", file=sys.stderr)
        return 1
    values = []
    t0 = time.perf_counter()
    for a, b, n, w, h in workloads.pool_inputs():
        value, err = oracle.f_line(a, b, n, w, h)
        if err > 1e-25:
            print(f"make_refs: quadrature error estimate {float(err):.3g} at {(a, b, n, w, h)}", file=sys.stderr)
            return 1
        values.append({
            "key": workloads._key(a, b, n, w, h),
            "re": mp.nstr(value.real, 25),
            "im": mp.nstr(value.imag, 25),
        })
    doc = {
        "about": "F_{a,b,n}(omega) at depth 1 by 30-digit tanh-sinh quadrature on the line "
                 "Im p = 0.3 * min(1, Re h / |h|^2); key = a,b,n,Re omega,Im omega,Re h,Im h. "
                 "Remake with: python3 bench/make_refs.py",
        "values": values,
    }
    workloads.REFS_PATH.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(values)} references in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
