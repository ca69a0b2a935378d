"""Independent references for the benchmark's checks, computed with mpmath.

Nothing here imports qpolylog: every value is derived from the defining sums
or integrals at 30 significant digits, so a check against these references
does not share code with the program it checks.

* ``f_undeformed``  F_{1,0,n}(w) = Li_n(-e^w)             (closed form)
* ``f_merged``      F_{1,1,n}(w) at hbar = 1 = F_{2,0,n}(w)
                    = (w Li_n(e^w) - n Li_{n+1}(e^w)) / (2 pi i)  (double poles)
* ``f_line``        depth-1 F_{a,b,n}(w) by tanh-sinh quadrature on the line
                    Im p = eps_ref, eps_ref = 0.3 * (lowest pole height)
* ``simplex_li``    sum over 0 < k_1 < ... < k_m of prod z_j^k_j / k_j^n_j
* ``octant``        sum over k_j >= 1 of prod z_j^k_j / prod K_j^n_j
* ``q_octant``      the same with extra 1/[k_j]_q^a_j, [k]_q = q^k - q^-k
* ``bernoulli_residue``  i^(n-1) * contour integral of the kernel times p^-n
                    around p = 0, trapezoid rule on a circle of radius
                    0.3 * (nearest nonzero pole distance)

Both closed forms follow from closing the line contour upward (Re w < 0):
the poles of 1/sh(pi p) at p = i k are simple with residue (-1)^k / (2 pi),
those of 1/sh(pi p)^2 are double with leading coefficient 1 / (4 pi^2).
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def mpc(z) -> mp.mpc:
    """A double (or mpmath number) as an mpmath complex, without rounding."""
    if isinstance(z, (mp.mpc, mp.mpf)):
        return mp.mpc(z)
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _ipow(k: int) -> mp.mpc:
    return (mp.mpc(1), mp.mpc(0, 1), mp.mpc(-1), mp.mpc(0, -1))[k % 4]


def f_undeformed(n: int, omega) -> mp.mpc:
    with mp.workdps(DPS):
        return mp.polylog(n, -mp.exp(mpc(omega)))


def f_merged(n: int, omega) -> mp.mpc:
    with mp.workdps(DPS):
        w = mpc(omega)
        z = mp.exp(w)
        return (w * mp.polylog(n, z) - n * mp.polylog(n + 1, z)) / (2j * mp.pi)


def f_line(a: int, b: int, n: int, omega, hbar) -> tuple[mp.mpc, mp.mpf]:
    """Depth-1 F_{a,b,n}(omega) and mpmath's own quadrature error estimate.
    Requires |Im omega| inside the strip pi (a + b Re hbar) and real hbar > 0
    when b > 0."""
    with mp.workdps(DPS):
        w = mpc(omega)
        h = mpc(hbar)
        top = min(mp.mpf(1), h.real / abs(h) ** 2) if b else mp.mpf(1)
        eps = mp.mpf("0.3") * top
        pi = mp.pi

        def integrand(x):
            p = mp.mpc(x, eps)
            v = mp.exp(-1j * p * w) * p ** (-n)
            if a:
                v /= (mp.exp(pi * p) - mp.exp(-pi * p)) ** a
            if b:
                v /= (mp.exp(pi * h * p) - mp.exp(-pi * h * p)) ** b
            return v

        cuts = [-mp.inf, -8, -3, -1, -0.25, 0, 0.25, 1, 3, 8, mp.inf]
        value, err = mp.quad(integrand, cuts, error=True)
        return _ipow(n - 1) * value, err


def _cutoff(ratio: float, depth: int, digits: int = DPS) -> int:
    """Smallest K with K^depth * ratio^K below 10^-digits."""
    K = 8
    while K**depth * ratio**K > 10.0 ** (-digits):
        K += 8
    return K


def simplex_li(n, z) -> mp.mpc:
    m = len(n)
    with mp.workdps(DPS):
        zs = [mpc(v) for v in z]
        suffix, ratio = 1.0, 0.0
        for v in reversed(z):
            suffix *= abs(complex(v))
            ratio = max(ratio, suffix)
        K = _cutoff(ratio, m)
        # prefix[k] = sum over the inner chain with outer index < k
        prefix = [mp.mpc(1)] * (K + 1)
        for j in range(m):
            terms = [mp.mpc(0)] * (K + 1)
            for k in range(1, K + 1):
                terms[k] = zs[j] ** k / mp.mpf(k) ** n[j] * prefix[k]
            acc = mp.mpc(0)
            nxt = [mp.mpc(0)] * (K + 1)
            for k in range(1, K + 1):
                nxt[k] = acc  # strictly smaller index
                acc += terms[k]
            prefix = nxt
        return acc


def octant(n, z) -> mp.mpc:
    """Prefix-sum recursion T_j(K+1) = z_j (T_j(K) + S_{j-1}(K)) over the
    running total K = k_1 + ... + k_j."""
    m = len(n)
    with mp.workdps(DPS):
        zs = [mpc(v) for v in z]
        K = _cutoff(max(abs(complex(v)) for v in z), m)
        level = [mp.mpc(0)] + [zs[0] ** k / mp.mpf(k) ** n[0] for k in range(1, K + 1)]
        for j in range(1, m):
            nxt = [mp.mpc(0)] * (K + 1)
            carry = mp.mpc(0)
            for k in range(1, K + 1):
                carry = zs[j] * (carry + level[k - 1])
                nxt[k] = carry / mp.mpf(k) ** n[j]
            level = nxt
        return mp.fsum(level)


def q_octant(a, n, z, q) -> mp.mpc:
    """Direct convolution over the running totals (the bracket depends on
    each k_j separately, so no first-order recursion applies)."""
    m = len(n)
    with mp.workdps(DPS):
        zs = [mpc(v) for v in z]
        qq = mpc(q)
        ratio = max(abs(complex(z[j])) * abs(complex(q)) ** a[j] for j in range(m))
        K = _cutoff(ratio, m)
        axis = []
        for j in range(m):
            row = [mp.mpc(0)]
            for k in range(1, K + 1):
                row.append(zs[j] ** k / (qq**k - qq ** (-k)) ** a[j])
            axis.append(row)
        level = [mp.mpc(0)] + [axis[0][k] / mp.mpf(k) ** n[0] for k in range(1, K + 1)]
        for j in range(1, m):
            nxt = [mp.mpc(0)] * (K + 1)
            for k in range(2, K + 1):
                s = mp.fsum(level[k - i] * axis[j][i] for i in range(1, k))
                nxt[k] = s / mp.mpf(k) ** n[j]
            level = nxt
        return mp.fsum(level)


def bernoulli_residue(a: int, b: int, n: int, omega, hbar, nodes: int = 64) -> mp.mpc:
    with mp.workdps(DPS):
        w = mpc(omega)
        h = mpc(hbar)
        radius = mp.mpf("0.3") * (min(mp.mpf(1), 1 / abs(h)) if b else 1)
        pi = mp.pi
        total = mp.mpc(0)
        for k in range(nodes):
            p = radius * mp.expjpi(mp.mpf(2 * k) / nodes)
            v = mp.exp(-1j * p * w) * p ** (1 - n)
            if a:
                v /= (mp.exp(pi * p) - mp.exp(-pi * p)) ** a
            if b:
                v /= (mp.exp(pi * h * p) - mp.exp(-pi * h * p)) ** b
            total += v
        return _ipow(n - 1) * 2j * pi * total / nodes


def close(value, ref) -> float:
    """|value - ref| evaluated in extended precision, as a float."""
    with mp.workdps(DPS):
        return float(abs(mpc(value) - ref))
