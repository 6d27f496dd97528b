"""Closed-form connection and curvature of h_{p,q} on explicit frame vectors.

All computations happen in an orthonormal frame of the base tangent space, so
the base inner product is the Euclidean dot product.  Tangent vectors of the
total space are split into horizontal and vertical frame components
(LiftVector); the canonical vertical vector at a fibre point e is the vertical
lift of e itself, and the U-terms of the formulas are folded into vertical
components as multiples of e.

Field-extension data (the covariant derivative of the second argument, the
covariant derivative of the base curvature, and its coderivative) enter as
caller-supplied values defaulting to zero, which reproduces evaluation in a
normal frame.

The metric and the curvature operator (``metric_h``, ``riemann``,
``riemann_full``) broadcast over leading batch axes of the frame vectors when
the base is a space form: components of shape (m, n) give m values at once.
On space forms the batch may also carry one point per row: parameters p, q
and curvature c of shape (m, 1) and fibre points e of shape (m, n).  A base
from ``BaseCurvature.custom`` is evaluated one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .scalars import DomainError, Params, as_float, check_n, coefficients, float_in_range, omega, omega_q

ORTHO_TOL = 1e-10


def _dot(U: np.ndarray, V: np.ndarray):
    """<U, V> over the last axis: a scalar for two vectors, else shape (..., 1)."""
    if V.ndim == 1:  # matmul unless both sides are batched
        return U @ V if U.ndim == 1 else (U @ V)[..., None]
    if U.ndim == 1:
        return (V @ U)[..., None]
    return np.einsum("...i,...i->...", U, V)[..., None]


@dataclass
class FiberPoint:
    """A point e of the ball bundle in base-orthonormal coordinates; e of shape (m, n) holds m points."""

    e: np.ndarray
    t: float | np.ndarray = field(init=False)

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=float)
        self.t = float(self.e @ self.e) if self.e.ndim == 1 else _dot(self.e, self.e)

    @classmethod
    def zero(cls, n: int) -> "FiberPoint":
        return cls(np.zeros(n))

    @classmethod
    def radial(cls, t: float, n: int) -> "FiberPoint":
        e = np.zeros(n)
        e[0] = math.sqrt(t)
        return cls(e)

    @property
    def n(self) -> int:
        return self.e.shape[-1]


@dataclass
class LiftVector:
    """Tangent vector of the total space: horizontal and vertical components."""

    h: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.v = np.asarray(self.v, dtype=float)

    @classmethod
    def horizontal(cls, X) -> "LiftVector":
        X = np.asarray(X, dtype=float)
        return cls(X, np.zeros_like(X))

    @classmethod
    def vertical(cls, Y) -> "LiftVector":
        Y = np.asarray(Y, dtype=float)
        return cls(np.zeros_like(Y), Y)

    def __add__(self, other: "LiftVector") -> "LiftVector":
        return LiftVector(self.h + other.h, self.v + other.v)

    def __mul__(self, s: float) -> "LiftVector":
        return LiftVector(s * self.h, s * self.v)

    __rmul__ = __mul__


@dataclass
class BaseCurvature:
    """Curvature data of the base manifold as operators on frame vectors.

    ``r_op(X, Y, Z)`` returns R(X,Y)Z.  ``nabla_op(W, X, Y, Z)`` returns
    (nabla_W R)(X,Y)Z and ``delta_op(X, e)`` the coderivative vector whose
    pairing with Y gives the horizontal-vertical Ricci; both vanish for space
    forms and default to None for custom bases.  The space-form operators
    broadcast over leading batch axes, and c may hold one value per row; c is
    None for a custom base.
    """

    c: Optional[float]
    r_op: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    nabla_op: Optional[Callable] = None
    delta_op: Optional[Callable] = None

    @classmethod
    def space_form(cls, c: float | np.ndarray) -> "BaseCurvature":
        c = c if isinstance(c, np.ndarray) else float_in_range(c, "c")

        def r_op(X, Y, Z):
            return c * _r_shape(X, Y, Z)

        zero2 = lambda X, e: np.zeros_like(X)  # the coderivative vanishes, so "hv" Ricci is 0
        return cls(c, r_op, None, zero2)

    @classmethod
    def custom(cls, r_op, nabla_op=None, delta_op=None) -> "BaseCurvature":
        return cls(None, r_op, nabla_op, delta_op)

    def R(self, X, Y, Z) -> np.ndarray:
        return self.r_op(X, Y, Z)

    def nabla_R(self, W, X, Y, Z) -> np.ndarray:
        if self.nabla_op is None:
            return np.zeros_like(np.asarray(X, dtype=float))
        return self.nabla_op(W, X, Y, Z)

    def scalar(self, n: int) -> float:
        if self.c is not None:
            return n * (n - 1) * self.c
        basis = np.eye(n)
        return float(
            sum(
                basis[i] @ self.R(basis[i], basis[j], basis[j])
                for i in range(n)
                for j in range(n)
            )
        )


def _r_shape(X, Y, Z):
    """The curvature-type tensor r(X,Y)Z = <Y,Z>X - <X,Z>Y."""
    return _dot(Y, Z) * X - _dot(X, Z) * Y


def _point(params: Params, e: FiberPoint) -> tuple:
    """p, q, omega and omega_q at the fibre point e, after the one domain check (made by omega_q)."""
    wq = omega_q(e.t, params)
    return as_float(params.p), as_float(params.q), omega(e.t), wq


def metric_h(params: Params, e: FiberPoint, A: LiftVector, B: LiftVector) -> float | np.ndarray:
    """Pairing of two lifted vectors under h_{p,q} at the fibre point e.

    A float for single vectors, an array over the batch axes for batches.
    """
    p, q, w, _ = _point(params, e)
    val = _dot(A.h, B.h) + w ** p * (
        _dot(A.v, B.v) + q * _dot(A.v, e.e) * _dot(B.v, e.e)
    )
    return float(val) if np.ndim(val) == 0 else val[..., 0]


def connection(
    params: Params,
    e: FiberPoint,
    case: str,
    X: np.ndarray,
    Y: np.ndarray,
    base: BaseCurvature,
    nabla_xy: Optional[np.ndarray] = None,
) -> LiftVector:
    """Covariant derivative of a lift along a lift, by (case of) lifted arguments.

    ``case`` names the lift types of the direction and of the differentiated
    field: "hh", "hv", "vh" or "vv".  ``nabla_xy`` is the base covariant
    derivative of Y along X at the foot point (zero in a normal frame).
    """
    p, q, w, wq = _point(params, e)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if nabla_xy is None:
        nabla_xy = np.zeros_like(X)
    ev = e.e
    if case == "hh":
        return LiftVector(nabla_xy, -0.5 * base.R(X, Y, ev))
    if case == "hv":
        return LiftVector(0.5 * w**p * base.R(ev, Y, X), nabla_xy)
    if case == "vh":
        return LiftVector(0.5 * w**p * base.R(ev, X, Y), np.zeros_like(X))
    if case == "vv":
        coeff = wq * ((p * w + q) * (X @ Y) + p * q * w * (X @ ev) * (Y @ ev))
        vert = coeff * ev - p * w * ((X @ ev) * Y + (Y @ ev) * X)
        return LiftVector(np.zeros_like(X), vert)
    raise ValueError(f"unknown connection case {case!r}")


def riemann(
    params: Params,
    e: FiberPoint,
    case: str,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    base: BaseCurvature,
) -> LiftVector:
    """Curvature operator value R~(X^a, Y^b)Z^c for the named lift-type case.

    Cases: hhh, hhv, hvh, hvv, vvh, vvv; the first two letters give the lift
    types of X and Y, the last that of Z.  X, Y, Z may carry leading batch
    axes when the base operators broadcast (space forms).
    """
    p, q, w, wq = _point(params, e)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    ev = e.e
    R = base.R
    wp = w**p

    if case == "hhh":
        hor = R(X, Y, Z) - 0.25 * wp * (
            R(ev, R(Y, Z, ev), X) - R(ev, R(X, Z, ev), Y) - 2 * R(ev, R(X, Y, ev), Z)
        )
        ver = 0.5 * base.nabla_R(Z, X, Y, ev)
        return LiftVector(hor, ver)
    if case == "hhv":
        hor = 0.5 * wp * (base.nabla_R(X, ev, Z, Y) - base.nabla_R(Y, ev, Z, X))
        rxye = R(X, Y, ev)
        ver = (
            R(X, Y, Z)
            + 0.25 * wp * (R(Y, R(ev, Z, X), ev) - R(X, R(ev, Z, Y), ev))
            - p * w * _dot(Z, ev) * rxye
            + (p * w + q) * wq * _dot(rxye, Z) * ev
        )
        return LiftVector(hor, ver)
    if case == "hvh":
        hor = 0.5 * wp * base.nabla_R(X, ev, Y, Z)
        rxze = R(X, Z, ev)
        ver = (
            -0.25 * wp * R(X, R(ev, Y, Z), ev)
            - 0.5 * p * w * _dot(Y, ev) * rxze
            + 0.5 * R(X, Z, Y)
            + 0.5 * (p * w + q) * wq * _dot(rxze, Y) * ev
        )
        return LiftVector(hor, ver)
    if case == "hvv":
        hor = (
            0.5 * p * w ** (p + 1) * (_dot(Y, ev) * R(ev, Z, X) - _dot(Z, ev) * R(ev, Y, X))
            - 0.5 * wp * R(Y, Z, X)
            - 0.25 * w ** (2 * p) * R(ev, Y, R(ev, Z, X))
        )
        return LiftVector(hor, np.zeros_like(X))
    if case == "vvh":
        hor = (
            wp * R(X, Y, Z)
            + p * w ** (p + 1) * (_dot(Y, ev) * R(ev, X, Z) - _dot(X, ev) * R(ev, Y, Z))
            + 0.25
            * w ** (2 * p)
            * (R(ev, X, R(ev, Y, Z)) - R(ev, Y, R(ev, X, Z)))
        )
        return LiftVector(hor, np.zeros_like(X))
    if case == "vvv":
        cs = coefficients(params, e.t, 2)
        ver = (
            cs.A * _dot(Z, ev) * _r_shape(X, Y, ev)
            + cs.B * _r_shape(X, Y, Z)
            + cs.C * _dot(_r_shape(X, Y, Z), ev) * ev
        )
        return LiftVector(np.zeros_like(X), ver)
    raise ValueError(f"unknown riemann case {case!r}")


def riemann_full(
    params: Params,
    e: FiberPoint,
    A: LiftVector,
    B: LiftVector,
    C: LiftVector,
    base: BaseCurvature,
) -> LiftVector:
    """R~(A, B)C for arbitrary lifted vectors, assembled from the six cases.

    Broadcasts over leading batch axes of the components (space-form base).
    """
    n = e.n
    out = LiftVector(np.zeros(n), np.zeros(n))
    for cpart, ctag in ((C.h, "h"), (C.v, "v")):
        if not cpart.any():
            continue
        # (h,h), (h,v), (v,v) blocks directly; (v,h) by antisymmetry.
        out = out + riemann(params, e, "hh" + ctag, A.h, B.h, cpart, base)
        out = out + riemann(params, e, "hv" + ctag, A.h, B.v, cpart, base)
        out = out + (-1.0) * riemann(params, e, "hv" + ctag, B.h, A.v, cpart, base)
        out = out + riemann(params, e, "vv" + ctag, A.v, B.v, cpart, base)
    return out


def _check_orthonormal(X, Y):
    if abs(X @ X - 1) > ORTHO_TOL or abs(Y @ Y - 1) > ORTHO_TOL or abs(X @ Y) > ORTHO_TOL:
        raise ValueError("X, Y must be orthonormal in the base frame")


def sectional(
    params: Params,
    e: FiberPoint,
    plane: str,
    X: np.ndarray,
    Y: np.ndarray,
    base: BaseCurvature,
) -> float:
    """Sectional curvature of the plane spanned by the named lifts of X and Y.

    X and Y must be orthonormal base vectors.  For mixed planes spanned by
    non-orthogonal base vectors use :func:`sectional_plane`.  The "vv" plane also
    takes a per-row batch (p, q of shape (m, 1), e of shape (m, n)): an (m,) array.
    """
    p, q, w, _ = _point(params, e)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_orthonormal(X, Y)
    ev = e.e
    if plane == "hh":
        base_k = float(base.R(X, Y, Y) @ X)
        rxye = base.R(X, Y, ev)
        return base_k - 0.75 * w**p * float(rxye @ rxye)
    if plane == "hv":
        reyx = base.R(ev, Y, X)
        return w**p * float(reyx @ reyx) / (4.0 * (1.0 + q * (Y @ ev) ** 2))
    if plane == "vv":
        u = _dot(X, ev) ** 2 + _dot(Y, ev) ** 2
        den = 1.0 + q * u
        if np.any(den <= 0):
            raise DomainError("vertical plane leaves the positive-definite cone")
        cs = coefficients(params, e.t, 2)
        val = w ** (-p) * (cs.A * u + cs.B) / den
        return float(val) if np.ndim(val) == 0 else val[..., 0]
    raise ValueError(f"unknown plane {plane!r}")


def sectional_plane(
    params: Params,
    e: FiberPoint,
    A: LiftVector,
    B: LiftVector,
    base: BaseCurvature,
) -> float:
    """Sectional curvature of an arbitrary 2-plane span(A, B) in the total space (or a batch)."""
    num = metric_h(params, e, riemann_full(params, e, A, B, B, base), A)
    gram = (
        metric_h(params, e, A, A) * metric_h(params, e, B, B)
        - metric_h(params, e, A, B) ** 2
    )
    if np.any(gram <= 0):
        raise ValueError("A, B do not span a non-degenerate 2-plane")
    return num / gram


def ricci(
    params: Params,
    n: int,
    e: FiberPoint,
    case: str,
    X: np.ndarray,
    Y: np.ndarray,
    base: BaseCurvature,
) -> float:
    """Ricci form on the named lifts of X and Y (frame sums over the standard basis)."""
    check_n(n)
    p, _, w, _ = _point(params, e)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    ev = e.e
    basis = np.eye(n)
    if case == "hh":
        rho = sum(float(base.R(X, basis[i], basis[i]) @ Y) for i in range(n))
        s1 = sum(
            float(base.R(X, basis[i], ev) @ base.R(Y, basis[i], ev)) for i in range(n)
        )
        s2 = sum(
            float(base.R(ev, basis[i], X) @ base.R(ev, basis[i], Y)) for i in range(n)
        )
        return rho - 0.75 * w**p * s1 + 0.25 * w**p * s2
    if case == "hv":
        if base.delta_op is None:
            raise ValueError("horizontal-vertical Ricci needs the base coderivative")
        return 0.5 * w**p * float(base.delta_op(X, ev) @ Y)
    if case == "vv":
        s = sum(
            float(base.R(X, ev, basis[i]) @ base.R(Y, ev, basis[i])) for i in range(n)
        )
        cs = coefficients(params, e.t, n)
        return (
            0.25 * w ** (2 * p) * s
            + cs.alpha * float(X @ Y)
            + cs.beta * float(X @ ev) * float(Y @ ev)
        )
    raise ValueError(f"unknown ricci case {case!r}")


def scalar(params: Params, n: int, e: FiberPoint, base: BaseCurvature) -> float:
    """Scalar curvature of h_{p,q} at the fibre point e."""
    check_n(n)
    p, _, w, _ = _point(params, e)
    basis = np.eye(n)
    frame_sum = sum(
        float(np.dot(rij := base.R(basis[i], basis[j], e.e), rij))
        for i in range(n)
        for j in range(n)
    )
    cs = coefficients(params, e.t, n)
    return (
        base.scalar(n)
        - 0.25 * w**p * frame_sum
        + (n - 1) * w ** (-p) * (2 * cs.alpha - (n - 2) * cs.B)
    )


def tangent_frame(params: Params, e: FiberPoint) -> list[LiftVector]:
    """h-orthonormal frame of the total tangent space at e (horizontal first)."""
    p, _, w, wq = _point(params, e)
    n = e.n
    basis = np.eye(n)
    if e.t > 0:
        ehat = e.e / math.sqrt(e.t)
        # complete ehat to a base-orthonormal frame by Gram-Schmidt
        cols = [ehat]
        for i in range(n):
            v = basis[i] - sum((basis[i] @ c) * c for c in cols)
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                cols.append(v / nv)
            if len(cols) == n:
                break
        scale = w ** (-p / 2)
        vert = [math.sqrt(wq) * scale * cols[0]]
        vert.extend(scale * c for c in cols[1:])
    else:
        cols = [basis[i] for i in range(n)]
        vert = cols
    frame = [LiftVector.horizontal(c) for c in cols]
    frame.extend(LiftVector.vertical(v) for v in vert)
    return frame


# ---------------------------------------------------------------------------
# batched space-form sectional curvature for random-plane scans


def sectional_batch_spaceform(
    params: Params,
    c: float,
    e: FiberPoint,
    Ah: np.ndarray,
    Av: np.ndarray,
    Bh: np.ndarray,
    Bv: np.ndarray,
) -> np.ndarray:
    """Sectional curvatures of m arbitrary planes span(A_k, B_k), space-form base.

    The inputs are (m, n) arrays of horizontal and vertical components; the
    result is an (m,) array: :func:`sectional_plane` over the batch axis.
    """
    return sectional_plane(params, e, LiftVector(Ah, Av), LiftVector(Bh, Bv), BaseCurvature.space_form(c))
