"""Reference computations the benchmark checks the program against.

Nothing here imports `cgm`.  The scalar curvature of h_{p,q} over a
curvature-c space form is a transcription of a symbolic computation from the
metric's definition (coordinates, Christoffel symbols, Ricci contraction);
`derive.py` repeats that computation in exact arithmetic and confirms the
transcription for n = 2..5.  G(t) is expanded from its three-term definition
in exact rational arithmetic with binomial coefficients, with the C(t) below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def poly_C(p, q, n: int) -> list:
    """Ascending coefficients of the cubic C(t) in the scalar curvature.

    Read off the symbolic computation for n = 2 and n = 3; C is linear in n,
    C_n = C_2 + (n - 2)(C_3 - C_2), which `derive.py` confirms for n = 4, 5.
    """
    c2 = [4 * p + 2 * q, 2 * p * q + 4 * q, 2 * q - 2 * p * q, 0 * q]
    step = [2 * p + q, 2 * p + 2 * q + 2 * p * q - p * p + q * q, q + 2 * p * q + 2 * q * q - p * p * q, q * q]
    return [a + (n - 2) * b for a, b in zip(c2, step)]


def scalar_curvature(p, q, n: int, c, t):
    """Scalar curvature of h_{p,q} over the curvature-c space form at radius t = g(u, u).

    S = (n-1) [n c - (c^2/2) t (1+t)^(-p) + (1+t)^(p-2) (1+qt)^(-2) C_n(t)].
    Works on floats and numpy arrays, and exactly on `Fraction`s with integer p.
    """
    cubic = poly_C(p, q, n)
    c_t = cubic[0] + t * (cubic[1] + t * (cubic[2] + t * cubic[3]))
    return (n - 1) * (n * c - c * c / 2 * t * (1 + t) ** (-p) + (1 + t) ** (p - 2) * c_t / (1 + q * t) ** 2)


def radius_grid(q: float, points: int = 4000) -> np.ndarray:
    """Dense radii over the admissible range: log-spaced to 1e8, or up to -1/q."""
    if q >= 0:
        return np.concatenate([[0.0], np.geomspace(1e-6, 1e8, points - 1)])
    tb = -1.0 / q
    low = np.linspace(0.0, tb * (1 - 1e-3), points // 2)
    near = tb * (1.0 - np.geomspace(1e-9, 1e-3, points - points // 2))
    return np.concatenate([low, near])


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _add(*polys: list) -> list:
    out = [Fraction(0)] * max(len(x) for x in polys)
    for poly in polys:
        for k, v in enumerate(poly):
            out[k] += v
    return out


def _binomial(k: int) -> list:
    """Coefficients of (1+t)^k."""
    return [Fraction(math.comb(k, j)) for j in range(k + 1)]


def poly_G_three_term(p: int, q: Fraction, n: int, c: Fraction) -> list:
    """Exact ascending coefficients of G, trailing zeros removed.

    G(t) = n c (1+t)^p (1+qt)^2 - (c^2/2) t (1+qt)^2 + (1+t)^(2p-2) C(t).
    """
    one_qt2 = [Fraction(1), 2 * q, q * q]
    term1 = [n * c * v for v in _mul(_binomial(p), one_qt2)]
    term2 = [Fraction(0)] + [-c * c / 2 * v for v in one_qt2]
    term3 = _mul(_binomial(2 * p - 2), poly_C(Fraction(p), q, n))
    out = _add(term1, term2, term3)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
