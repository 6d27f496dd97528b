#!/usr/bin/env python3
"""Check the benchmark's scalar-curvature formula against the metric's definition.

    python3 cgmbench/derive.py          # n = 2..5, a few seconds

`independent.scalar_curvature` and `independent.poly_C` are a transcription
of a symbolic computation of the scalar curvature of h_{p,q} from its
definition.  This script repeats that computation in exact rational
arithmetic and compares, at seeded rational points (integer p, rational q,
c and t), for n = 2, 3, 4 and 5.  It exits 1 on the first mismatch.

The computation shares only the metric's definition with the program:
over the conformal chart g = delta / (1 + c|x|^2/4)^2 of the curvature-c
space form, a tangent vector (dx, du) of TM at (x, u) has vertical part
V^k = du^k + Gamma^k_ij dx^i u^j, and

    h = g(dx, dx) + omega^p (g(V, V) + q g(u, V)^2),   omega = 1/(1 + g(u, u)).

Every entry of h is expanded to second order around x = 0, u = (s, 0, ..., 0)
(so t = s^2) by forward-mode jets with `Fraction` coefficients; the
Christoffel symbols of h, their derivatives and the contraction to the scalar
curvature follow the coordinate formulas.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import independent


class Jet:
    """A function of m variables to second order: value, gradient, Hessian."""

    __slots__ = ("v", "d", "h")

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    @classmethod
    def const(cls, v, m: int) -> "Jet":
        return cls(Fraction(v), [Fraction(0)] * m, [[Fraction(0)] * m for _ in range(m)])

    @classmethod
    def var(cls, v, k: int, m: int) -> "Jet":
        jet = cls.const(v, m)
        jet.d[k] = Fraction(1)
        return jet

    def _lift(self, other) -> "Jet":
        return other if isinstance(other, Jet) else Jet.const(other, len(self.d))

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.v + o.v, [a + b for a, b in zip(self.d, o.d)],
                   [[a + b for a, b in zip(r, s)] for r, s in zip(self.h, o.h)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, [-a for a in self.d], [[-a for a in r] for r in self.h])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            k = Fraction(other)
            return Jet(self.v * k, [a * k for a in self.d], [[a * k for a in r] for r in self.h])
        f, g = self, other
        m = len(f.d)
        return Jet(
            f.v * g.v,
            [f.v * g.d[i] + g.v * f.d[i] for i in range(m)],
            [[f.v * g.h[i][j] + g.v * f.h[i][j] + f.d[i] * g.d[j] + f.d[j] * g.d[i] for j in range(m)]
             for i in range(m)],
        )

    __rmul__ = __mul__

    def compose(self, h0, h1, h2) -> "Jet":
        """phi(self) for a function phi with phi, phi', phi'' equal to h0, h1, h2 at self.v."""
        m = len(self.d)
        return Jet(h0, [h1 * a for a in self.d],
                   [[h2 * self.d[i] * self.d[j] + h1 * self.h[i][j] for j in range(m)] for i in range(m)])

    def inverse(self) -> "Jet":
        v = self.v
        return self.compose(1 / v, -1 / v**2, 2 / v**3)


def tm_metric_jets(n: int, p: int, q: Fraction, c: Fraction, s: Fraction) -> list:
    """The 2n x 2n metric h as jets in z = (x, u) around x = 0, u = (s, 0, ..., 0)."""
    m = 2 * n
    x = [Jet.var(0, k, m) for k in range(n)]
    u = [Jet.var(s if k == 0 else 0, n + k, m) for k in range(n)]
    r2 = sum((xi * xi for xi in x), Jet.const(0, m))
    inv_d = (1 + r2 * (c / 4)).inverse()
    lam = inv_d * inv_d
    psi = [xi * inv_d * (-c / 2) for xi in x]  # d/dx_i of log sqrt(lam)
    psi_u = sum((a * b for a, b in zip(psi, u)), Jet.const(0, m))
    # M[k][i] = Gamma^k_ij u^j with Gamma^k_ij = delta_ik psi_j + delta_jk psi_i - delta_ij psi_k
    M = [[(psi_u if i == k else Jet.const(0, m)) + psi[i] * u[k] - psi[k] * u[i] for i in range(n)]
         for k in range(n)]
    uu = sum((a * a for a in u), Jet.const(0, m))
    omega = (1 + lam * uu).inverse()
    omega0 = 1 / (1 + s * s)
    ratio = omega * (1 / omega0)  # omega / omega(point), value 1
    wp = ratio.compose(Fraction(1), Fraction(p), Fraction(p * (p - 1))) * (omega0**p)
    W = [[wp * ((lam if k == l else Jet.const(0, m)) + lam * lam * u[k] * u[l] * q) for l in range(n)]
         for k in range(n)]
    WM = [[sum((W[k][l] * M[l][i] for l in range(n)), Jet.const(0, m)) for i in range(n)] for k in range(n)]
    H = [[None] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            mtwm = sum((M[k][i] * WM[k][j] for k in range(n)), Jet.const(0, m))
            H[i][j] = (lam if i == j else Jet.const(0, m)) + mtwm
            H[i][n + j] = WM[j][i]
            H[n + j][i] = WM[j][i]
            H[n + i][n + j] = W[i][j]
    return H


def invert(A: list) -> list:
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    m = len(A)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(A)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def scalar_from_metric(H: list) -> Fraction:
    """Scalar curvature at the jets' point from h, its first and second derivatives."""
    m = len(H)
    R = range(m)
    g = [[H[i][j].v for j in R] for i in R]
    dg = [[[H[i][j].d[k] for k in R] for j in R] for i in R]  # dg[i][j][k] = d_k h_ij
    gi = invert(g)
    # Gamma_{l,ij} and Gamma^a_ij
    low = [[[(dg[l][j][i] + dg[l][i][j] - dg[i][j][l]) / 2 for j in R] for i in R] for l in R]
    gam = [[[sum(gi[a][l] * low[l][i][j] for l in R) for j in R] for i in R] for a in R]
    # d_c g^{al} = -g^{am} d_c g_{mk} g^{kl}
    dgi = [[[-sum(gi[a][mm] * dg[mm][k][cc] * gi[k][l] for mm in R for k in R) for cc in R] for l in R]
           for a in R]

    def d_gam(a, i, j, cc):
        """d_c Gamma^a_ij."""
        return sum(
            dgi[a][l][cc] * low[l][i][j]
            + gi[a][l] * (H[l][j].h[i][cc] + H[l][i].h[j][cc] - H[i][j].h[l][cc]) / 2
            for l in R
        )

    total = Fraction(0)
    for b in R:
        for d in R:
            if gi[b][d] == 0:
                continue
            ric = Fraction(0)
            for a in R:
                ric += d_gam(a, d, b, a) - d_gam(a, a, b, d)
                ric += sum(gam[a][a][e] * gam[e][d][b] - gam[a][d][e] * gam[e][a][b] for e in R)
            total += gi[b][d] * ric
    return total


def sample_points(rng: random.Random, count: int) -> list:
    """Integer p (negative too), rational q, c and s with 1 + q s^2 > 0."""
    points = []
    while len(points) < count:
        p = rng.choice([k for k in range(-4, 6) if k != 0])
        q = Fraction(rng.randint(-12, 30), rng.randint(5, 11))
        c = Fraction(rng.randint(-40, 40), rng.randint(3, 9))
        s = Fraction(rng.randint(1, 19), rng.randint(5, 13))
        if 1 + q * s * s > 0:
            points.append((p, q, c, s))
    return points


def main() -> int:
    rng = random.Random(20260418)
    for n in (2, 3, 4, 5):
        for p, q, c, s in sample_points(rng, 4):
            derived = scalar_from_metric(tm_metric_jets(n, p, q, c, s))
            formula = independent.scalar_curvature(p, q, n, c, s * s)
            if derived != formula:
                print(f"mismatch at n={n}, p={p}, q={q}, c={c}, t={s * s}: "
                      f"from the metric {derived}, formula {formula}")
                return 1
        print(f"n={n}: formula equals the metric's scalar curvature at 4 rational points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
