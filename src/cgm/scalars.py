"""Scalar kernels of the metric family h_{p,q} on tangent bundles.

Everything in this module is a plain function of the parameters (p, q), the
squared fibre radius t = |e|^2, the base dimension n and (where relevant) the
base curvature c: weight functions, the curvature coefficients A, B, C and the
Ricci coefficients alpha, beta, the sign-controlling polynomials P, Q, C, G,
and the auxiliary functions mu, lambda, nu.  The windows k sqrt(1 + r) s of
the sufficient conditions for positive scalar curvature, with r per case, are
written in :func:`cgm.regions.sufficient_cases`.

The weights, the coefficients, phi and the scalar curvature also accept a
numpy array of radii and evaluate elementwise, in the same order of
operations as for a scalar radius: the weights and coefficients bit for bit,
while phi and the scalar curvature, whose powers (1 + t)**p numpy evaluates
by its own routine, may differ in the last bits.  The domain check, the
weights and the coefficients also accept float arrays of p and q (shape
(m, 1): one point per row).

Polynomial coefficients are expanded in exact arithmetic whenever the inputs
are rational (int / Fraction); float inputs propagate as floats.  :func:`as_exact`
is the one rule for exact values: an integral value is an ``int``, any other a
``Fraction``, so the expansions of G run on Python ints for integral p, q, c;
an infinity or a NaN is refused there, naming the value.  Sign decisions made
downstream (coefficient-positivity searches, region boundaries) rely on this
exactness.  :func:`check_n` is the one rule for the base dimension, n >= 2, and
:func:`float_in_range` takes every float of c: one past the float range is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]
#: Radii t = |e|^2: a scalar, or a float array evaluated elementwise.
Radius = Union[Number, np.ndarray]

#: Evaluations require q*t > -1 + EPS_DOM; closer approaches to the singular
#: sphere-bundle boundary must go through the explicit limit formulas.
EPS_DOM = 1e-9


class DomainError(ValueError):
    """Raised when an evaluation point leaves the Riemannian ball bundle."""


def as_exact(x: Number) -> Number:
    """The exact value of x: an int when it is integral, a Fraction otherwise (Fraction(float) never
    rounds).  An infinity or a NaN has no exact value: ValueError naming it."""
    try:
        f = x if isinstance(x, Fraction) else Fraction(x)
    except (OverflowError, ValueError):  # Fraction(inf) overflows, Fraction(nan) is a ValueError
        raise ValueError(f"{x} has no exact value: a finite number is required") from None
    return f.numerator if f.denominator == 1 else f


def check_n(n: int) -> None:
    """The one rule for the base dimension: n >= 2, else ValueError."""
    if n < 2:
        raise ValueError("n >= 2 required")


def float_in_range(x: Number, name: str) -> float:
    """float(x), and for an int or Fraction past the float range a ValueError naming x as ``name``."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} is outside the float range") from None


@dataclass(frozen=True)
class Params:
    """Metric parameters (p, q); no sign restriction, q < 0 permitted."""

    p: Number
    q: Number

    def __post_init__(self):
        for v in (self.p, self.q):
            try:
                finite = np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(float(v))
            except OverflowError:  # an int or Fraction past the float range
                finite = False
            if not finite:
                raise ValueError("parameters must be finite")

    def contains_t(self, t: Number) -> bool:
        return t >= 0 and float(self.q) * float(t) > -1.0 + EPS_DOM


def as_float(x: Radius) -> Radius:
    """A scalar as a float; an array as it is."""
    return x if isinstance(x, np.ndarray) else float(x)


def fibre_end(params: Params) -> float:
    """The fibre radii end at T = -1/q: inf for float(q) >= 0 and where -1/q overflows (|q| < 5.6e-309)."""
    q = float(params.q)
    return -1.0 / q if q < 0 else math.inf


def check_fiber_radius(params: Params, t: Radius) -> None:
    """Raise DomainError unless t >= 0 and q t > -1 + EPS_DOM, naming the first array row that fails."""
    q = as_float(params.q)
    if not isinstance(q, np.ndarray) and not isinstance(t, np.ndarray):
        if not params.contains_t(t):
            raise DomainError(f"q = {q}, t = {t} outside the ball bundle")
        return
    ok = (t >= 0) & (q * t > -1.0 + EPS_DOM)
    if not ok.all():
        q, t = np.broadcast_arrays(q, t)
        i = tuple(np.argwhere(~ok)[0])
        raise DomainError(f"row {i[0]}: q = {q[i]}, t = {t[i]} outside the ball bundle")


def omega(t: Radius) -> Radius:
    """Radial weight 1/(1 + t) for t = |e|^2 >= 0."""
    lo = t.min(initial=0.0) if isinstance(t, np.ndarray) else t
    if lo < 0:
        raise DomainError(f"t = {lo} must be non-negative")
    return 1.0 / (1.0 + as_float(t))


def omega_q(t: Radius, params: Params) -> Radius:
    """Deformed weight 1/(1 + q t), positive on the ball bundle."""
    check_fiber_radius(params, t)
    return 1.0 / (1.0 + as_float(params.q) * as_float(t))


@dataclass(frozen=True)
class CoefficientSet:
    """Vertical curvature coefficients A, B, C and Ricci coefficients alpha, beta.

    Floats for a scalar radius, arrays over the radii for an array of radii.
    """

    A: Radius
    B: Radius
    C: Radius
    alpha: Radius
    beta: Radius


def weights_AB(params: Params, t: Radius) -> tuple:
    """The weights omega, omega_q and the coefficients A, B of :func:`coefficients` at radii t."""
    wq = omega_q(t, params)  # the domain check
    w = omega(t)
    p, q = as_float(params.p), as_float(params.q)
    A = p * w * wq * ((p + 2 * q - 2) * w - q)
    B = wq * (p * p * w * w - p * (p - 2) * w + q)
    return w, wq, A, B


def coefficients(params: Params, t: Radius, n: int) -> CoefficientSet:
    """Evaluate A, B, C, alpha, beta at squared fibre radius t (scalar or array).

    A, B, C weight the three tensor shapes of the purely vertical curvature.
    alpha and beta are the base-curvature-independent parts of the vertical
    Ricci form; they carry the dimension n.  C is evaluated from its own
    closed form and must satisfy omega_q * (A - q*B) == C to rounding.
    """
    check_n(n)
    w, wq, A, B = weights_AB(params, t)
    p, q = as_float(params.p), as_float(params.q)
    C = wq * wq * (p * (p - 2) * (1 - q) * w * w + p * q * (p - 3) * w - q * q)
    alpha = as_float(t) * wq * A + (n - 2 + wq) * B
    beta = (n - 1 - wq) * A + q * wq * B
    return CoefficientSet(A, B, C, alpha, beta)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class PolySpec:
    """Polynomial given by ascending coefficients."""

    coefficients: tuple

    def evaluate(self, t):
        acc = 0.0
        for ck in reversed(self.coefficients):
            acc = acc * t + float(ck)
        return acc

    def as_floats(self) -> tuple:
        return tuple(float(c) for c in self.coefficients)

    def degree(self) -> int:
        for k in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[k] != 0:
                return k
        return 0


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0 * (a[0] * b[0])] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _poly_add(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a)) if len(b) > len(a) else list(a)
    for j, bj in enumerate(b):
        out[j] = out[j] + bj
    return out


def _binomial_row(k: int) -> list:
    """Coefficients of (1 + t)^k."""
    return [math.comb(k, i) for i in range(k + 1)]


def pq_coefficients(a, b, d=1) -> tuple:
    """Ascending coefficients of d^2 P and d^2 Q at p = a/d, q = b/d: integral for integral a, b, d."""
    return (d * (2 * a + b), (a + 2 * d) * b, (d - a) * b), (d * (2 * a + b), 2 * (a + b) * d - a * a, b * d)


def poly_P(params: Params) -> PolySpec:
    """Sign polynomial of vertical planes containing the canonical vector."""
    return PolySpec(pq_coefficients(params.p, params.q)[0])


def poly_Q(params: Params) -> PolySpec:
    """Sign polynomial of vertical planes orthogonal to the fibre point."""
    return PolySpec(pq_coefficients(params.p, params.q)[1])


def poly_C(params: Params, n: int) -> PolySpec:
    """Cubic 2*P(t) + (n-2)*(1+q.t)*Q(t) controlling the flat-base scalar sign."""
    check_n(n)
    q = params.q
    two_p = [2 * c for c in poly_P(params).coefficients]
    rest = _poly_mul([1, q], poly_Q(params).coefficients)
    out = _poly_add(two_p + [0 * q], [(n - 2) * c for c in rest])
    return PolySpec(tuple(out))


def poly_G(params: Params, n: int, c: Number) -> PolySpec:
    """Scalar-sign polynomial over a curvature-c space form, for integer p >= 1.

    G(t) = n c (1+t)^p (1+q t)^2 - (c^2/2) t (1+q t)^2 + (1+t)^(2p-2) C(t),
    expanded by exact polynomial arithmetic on ints wherever the values are
    integral (:func:`as_exact`); G > 0 on t >= 0 certifies
    positive scalar curvature (q >= 0).
    """
    p, q, cc = as_exact(params.p), as_exact(params.q), as_exact(c)
    if not isinstance(p, int) or p < 1:
        raise ValueError("poly_G requires a positive integer p")
    one_qt2 = _poly_mul([1, q], [1, q])
    term1 = [n * cc * v for v in _poly_mul(_binomial_row(p), one_qt2)]
    term2 = [as_exact(Fraction(-cc * cc * v, 2)) for v in _poly_mul([0, 1], one_qt2)]
    cpoly = poly_C(Params(p, q), n).coefficients
    term3 = _poly_mul(_binomial_row(2 * p - 2), list(cpoly))
    out = _poly_add(_poly_add(term1, term2), term3)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return PolySpec(tuple(out))


# ---------------------------------------------------------------------------
# auxiliary functions of p alone


def mu(p: Number) -> Number:
    """p^p / (p-1)^(p-1) for p >= 1, with mu(1) = 1; exact for integer p <= 2^14, a float otherwise."""
    if p < 1:
        raise DomainError("mu is defined for p >= 1")
    k = as_exact(p)
    if isinstance(k, int) and k <= 2**14:  # mu(1) = 1**1 / 0**0; an exact k^k at k = 10^5 takes seconds
        return Fraction(k**k, (k - 1) ** (k - 1))
    fp = float(p)
    try:
        return fp**fp / (fp - 1) ** (fp - 1)
    except OverflowError:  # p >~ 143; mu itself stays near e*p
        return fp * math.exp((fp - 1) * math.log1p(1 / (fp - 1)))


def hyperbola_lambda(p: Number) -> Fraction:
    """q-value of the hyperbola p q + 8 p + 8 q = 8 at abscissa p = a/b (p != -8): 8 (b - a) / (8 b + a)."""
    if p == -8:
        raise DomainError("lambda has a pole at p = -8")
    a, b = p.as_integer_ratio()
    return Fraction(8 * (b - a), 8 * b + a)


def hyperbola_nu(p: Number) -> Number:
    """q-value of the hyperbola p q + 2 p + 2 q = 2 at abscissa p (p != -2); exact for int or Fraction p."""
    if p == -2:
        raise DomainError("nu has a pole at p = -2")
    if not isinstance(p, (int, Fraction)):
        return 2.0 * (1.0 - p) / (2.0 + p)
    a, b = p.as_integer_ratio()
    return Fraction(2 * (b - a), 2 * b + a)


# ---------------------------------------------------------------------------
# the horizontal-bound function f and the scalar curvature over space forms


def f_value(t, p):
    """t / (1+t)^p, the squared-radius weight bounding horizontal curvature."""
    return t / (1.0 + t) ** p


def f_sup(params: Params) -> float:
    """Supremum of f(t) = t/(1+t)^p over the admissible fibre radii.

    For p <= 1 the function increases, so the supremum is its limit at the
    end of the fibre: f(-1/q) for q < 0, and for q >= 0 1 (p = 1) or inf
    (p < 1).  For p > 1 the supremum is 1/mu(p), the value at t = 1/(p-1),
    unless that point lies past the open boundary -1/q (p + q < 1, q < 0),
    where the supremum is the limit at the boundary.
    """
    p, q, tb = float(params.p), float(params.q), fibre_end(params)
    if p <= 1:
        if tb == math.inf:
            return 1.0 if p == 1 else math.inf
        with np.errstate(over="ignore", divide="ignore"):  # f(T) may exceed the float range for p < 0
            return float(f_value(np.float64(tb), p))
    if tb == math.inf or p + q >= 1:
        return 1.0 / float(mu(p))
    return f_value(tb, p)  # the limit at the end of the fibre


def phi(params: Params, n: int, t: Radius) -> Radius:
    """(1+t)^(p-2) (1+qt)^(-2) C(t), the fibre contribution to the scalar curvature."""
    p, q = float(params.p), float(params.q)
    cpoly = poly_C(Params(p, q), n)  # on the floats, so exact and float inputs of equal value agree
    return (1.0 + t) ** (p - 2) * (1.0 + q * t) ** (-2) * cpoly.evaluate(t)


def scalar_parts(params: Params, n: int, t: Radius) -> tuple[Radius, Radius]:
    """f(t) and phi(t) at checked radii t: the part of the scalar curvature that does not depend on c."""
    check_n(n)
    check_fiber_radius(params, t)
    return f_value(as_float(t), float(params.p)), phi(params, n, as_float(t))


def scalar_curvature_spaceform(params: Params, n: int, c: Number, t: Radius) -> Radius:
    """Scalar curvature of h_{p,q} over a curvature-c space form at radius t (scalar or array)."""
    f, phi_t = scalar_parts(params, n, t)
    c = float_in_range(c, "c")
    return (n - 1) * (n * c - 0.5 * c * c * f + phi_t)
