#!/usr/bin/env python3
"""Remake tests/calibration_refs.json: the stored references of the
calibration grid in tests/test_calibration.py.

    python3 tests/make_calibration_refs.py

Every value is computed with mpmath at 35 significant digits, from the
defining integrals, and nothing here imports qpolylog:

* ``line``       depth-1 F_{a,b,n}(omega) by tanh-sinh quadrature on the line
                 Im p = eps (half the lowest pole height), cut where the
                 integrand's tail drops below 10^-35, split into pieces
                 shorter than its oscillation and closing in on the poles
                 near the line, so points near the strip edge and at complex
                 h are resolved;
* ``changed``    the same at the rows of tests/cli_compare.txt that the
                 rate-certified contour stop turned from errors into values;
* ``near_rational`` the same at depth-1 points where the companion series'
                 q-brackets nearly vanish (h close to 3/2) or cancel
                 (h = 3.3166247903554);
* ``bernoulli``  the Bernoulli residue of bench/oracle.py.

Each line value is stored with mpmath's estimate of its error, which the
test adds to the allowance.  Takes about ten minutes.  Before computing
anything it checks the line quadrature against the two closed forms of
bench/oracle.py and stops if they disagree by more than 1e-25; it stops too
if a value's error estimate exceeds 1e-14.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402

DPS = 35
OUT = Path(__file__).with_name("calibration_refs.json")
GOLDEN = (1 + 5**0.5) / 2


def line_value(a: int, b: int, n: int, omega, hbar) -> tuple[mp.mpc, mp.mpf]:
    """Depth-1 F_{a,b,n}(omega) and mpmath's error estimate."""
    with mp.workdps(DPS):
        w, h = oracle.mpc(omega), oracle.mpc(hbar)
        pi = mp.pi
        eps = (min(mp.mpf(1), h.real / abs(h) ** 2) if b else mp.mpf(1)) / 2
        # |integrand| ~ exp(-rate |x|) far out; pieces span about one period
        rate = pi * (a + b * h.real) - abs(w.imag)
        end = (DPS * mp.log(10) + 20) / rate
        freq = abs(w.real) + pi * (a + b * abs(h))
        step = min(mp.mpf(1), 6 / freq)

        def integrand(x):
            p = mp.mpc(x, eps)
            v = mp.exp(-1j * p * w) * p ** (-n)
            if a:
                v /= (mp.exp(pi * p) - mp.exp(-pi * p)) ** a
            if b:
                v /= (mp.exp(pi * h * p) - mp.exp(-pi * h * p)) ** b
            return v

        def near(x0, dist):  # cuts closing in geometrically on x0
            out, r = [], dist / 4
            while r < step:
                out += [x0 - r, x0 + r]
                r *= 2
            return out

        # the poles i k / h of 1 / sh(pi h p) lie at heights k top off the
        # line; at complex h they also move along it, k Im h / |h|^2
        cuts = near(mp.mpf(0), eps) + [step * k for k in range(-int(end / step) - 1,
                                                                int(end / step) + 2)]
        if b and h.imag:
            top = 2 * eps
            for k in range(-int(0.1 / top) - 1, int(0.1 / top) + 2):
                if k:
                    cuts += near(k * h.imag / abs(h) ** 2, abs(k * top - eps))
        cuts = sorted(set(cuts))
        value, err = mp.quad(integrand, cuts, error=True)
        return oracle._ipow(n - 1) * value, err


def line_points() -> list[tuple]:
    """(a, b, n, omega, hbar): every axis kind with b >= 1 (b = 0 and h = 1
    are covered by the closed forms), n = 0..3, real and complex h, |Im omega|
    up to 0.97 of the strip pi (a + b Re h), and four points at large
    |Re omega|, of either sign."""
    rng = random.Random(16)
    hbars = [1.3, GOLDEN, 0.7, 2.6, 1.2 + 0.5j, 0.9 - 0.4j, 2.2 + 1.1j, 3.1 - 0.55j]
    fracs = [0.0, 0.4, 0.8, 0.97]
    points = []
    for i, (a, b) in enumerate([(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]):
        for j, frac in enumerate(fracs):
            h = complex(hbars[(2 * i + j) % len(hbars)])
            strip = mp.pi * (a + b * h.real)
            im = rng.choice((-1, 1)) * frac * float(strip)
            points.append((a, b, (i + j) % 4, complex(round(rng.uniform(-3.0, 0.5), 3), im), h))
    points += [
        (1, 1, 2, -20 + 1j, 1.3 + 0j),
        (2, 1, 1, 12 + 0.5j, complex(GOLDEN)),
        (0, 1, 0, -15 + 0j, 1.2 + 0.5j),
        (1, 2, 3, 8 - 2j, 2.6 + 0j),
    ]
    return points


# (a, b, n, omega, hbar, tol) of the tests/cli_compare.txt rows that used to
# fail: over the node budget at the old level 1, and not converging at
# h = 50, tol 1e-13
CHANGED = [
    (1, 1, 1, -1 + 0j, 1 + 65j, 1e-10),
    (1, 1, 1, -1 + 5j, 1 + 40j, 1e-10),
    (1, 1, 3, -4 + 0j, 50 + 0j, 1e-13),
    (1, 1, 3, 0.5 + 1j, 50 + 0j, 1e-13),
    (1, 1, 1, -1 + 0j, 1 + 80j, 1e-10),
]

# (a, b, n, omega, hbar) near rational h, where [k]_q = q^k - q^(-k) cancels
NEAR_RATIONAL = [
    (1, 1, 2, -1 + 0j, 1.5 + 1e-5),
    (1, 1, 2, -1 + 0j, 1.5 + 3e-7),
    (1, 1, 0, -0.6181253958177637 - 1.3114986206545796j, 3.3166247903554),
]

BERNOULLI = [(3, 2, 3, -0.7 + 0.2j, 1.7 + 0.3j), (0, 1, 3, 0.4 + 0j, 1.3 + 0j)]


def validate() -> float:
    worst = mp.mpf(0)
    for n in (0, 1, 2):
        for w in (-1.0, -0.7 + 2.9j, -2.2 - 1.1j):
            worst = max(worst, abs(line_value(1, 0, n, w, 1.0)[0] - oracle.f_undeformed(n, w)))
            worst = max(worst, abs(line_value(1, 1, n, w, 1.0)[0] - oracle.f_merged(n, w)))
    return float(worst)


def pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def entry(value, **fields) -> dict:
    return {**fields, "re": mp.nstr(value.real, 22), "im": mp.nstr(value.imag, 22)}


def main() -> int:
    worst = validate()
    print(f"line quadrature vs closed forms: max difference {worst:.3g}", file=sys.stderr)
    if worst > 1e-25:
        print("make_calibration_refs: the line quadrature misses the closed forms",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    doc = {
        "about": "References of tests/test_calibration.py, from mpmath at 35 digits; "
                 "remake with: python3 tests/make_calibration_refs.py",
        "line": [], "changed": [], "near_rational": [], "bernoulli": [],
    }
    for key, points in (("line", line_points()), ("changed", CHANGED),
                        ("near_rational", NEAR_RATIONAL)):
        for a, b, n, omega, hbar, *tol in points:
            value, err = line_value(a, b, n, omega, hbar)
            if err > 1e-14:
                print(f"make_calibration_refs: error estimate {float(err):.3g} at "
                      f"{(a, b, n, omega, hbar)}", file=sys.stderr)
                return 1
            extra = {"tol": tol[0]} if tol else {}
            doc[key].append(entry(value, a=a, b=b, n=n, omega=pair(omega), hbar=pair(hbar),
                                  err=float(err), **extra))
    for a, b, n, omega, hbar in BERNOULLI:
        value = oracle.bernoulli_residue(a, b, n, omega, hbar)
        doc["bernoulli"].append(entry(value, a=a, b=b, n=n, omega=pair(omega), hbar=pair(hbar)))
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT.name} in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
