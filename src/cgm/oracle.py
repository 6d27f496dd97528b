"""Independent finite-difference verification of the closed-form curvature.

Space forms are realized as explicit conformal charts (flat, stereographic
sphere, Poincare ball).  The induced metric of h_{p,q} on the tangent bundle
is assembled in coordinates from the chart metric and finite-difference base
Christoffel symbols, then differentiated numerically a second time to produce
Christoffel symbols and the Riemann tensor of the total space.  No closed
curvature formula from the rest of the package enters this pipeline, so
agreement between the two is a genuine cross-check.

Index convention: R^a_{bcd} components satisfy R(dc, dd)db = R^a_{bcd} da
with R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .curvature import BaseCurvature, FiberPoint, LiftVector
from . import curvature as closed
from .scalars import DomainError, Params, check_fiber_radius, float_in_range, omega

#: the step of every first-order central difference; only the nested step of
#: fd_riemann (and compare) can be set
FIRST_STEP = 1e-5
DEFAULT_NESTED_STEP = 1e-3
#: compare() keeps q|e|^2 at least this far from the singular boundary
BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class Chart:
    """Conformal coordinate chart of a space form of curvature c: flat at c = 0, the
    stereographic sphere for c > 0 and the Poincare ball for c < 0."""

    n: int
    c: float

    @classmethod
    def space_form(cls, n: int, c: float) -> "Chart":
        return cls(n, float_in_range(c, "c"))

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.c == 0:
            return np.eye(self.n)
        r2 = math.copysign(float(x @ x), self.c)  # 1 + |x|^2 on the sphere, 1 - |x|^2 on the ball
        return (1.0 / abs(self.c)) * (2.0 / (1.0 + r2)) ** 2 * np.eye(self.n)

    def in_domain(self, x: np.ndarray) -> bool:
        """Whether x lies in the safe coordinate radius: 0.8 on the sphere, 0.9 on the ball, any when flat."""
        radius = math.inf if self.c == 0 else 0.8 if self.c > 0 else 0.9
        return float(np.linalg.norm(x)) <= radius


@dataclass
class TMPoint:
    """Point of the tangent bundle in induced chart coordinates (x, u)."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)

    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.u])


def _central_differences(f: Callable, pt: np.ndarray, step: float) -> np.ndarray:
    """The derivatives of f along each coordinate of pt, stacked on a new first axis."""
    return np.array([(f(pt + e) - f(pt - e)) / (2 * step) for e in step * np.eye(pt.size)])


def fd_christoffel(metric_field: Callable, pt: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc} of a metric field by central differences."""
    pt = np.asarray(pt, dtype=float)
    ginv = np.linalg.inv(metric_field(pt))
    dg = _central_differences(metric_field, pt, FIRST_STEP)
    T = dg + np.einsum("cbd->bdc", dg) - np.einsum("dbc->bdc", dg)
    return 0.5 * np.einsum("ad,bdc->abc", ginv, T)


def fd_riemann(metric_field: Callable, pt: np.ndarray, step: float = DEFAULT_NESTED_STEP) -> np.ndarray:
    """Riemann tensor R^a_{bcd} by nested central differences of Gamma."""
    pt = np.asarray(pt, dtype=float)
    gamma = lambda z: fd_christoffel(metric_field, z)
    G0 = gamma(pt)
    dG = _central_differences(gamma, pt, step)
    return (
        np.einsum("cadb->abcd", dG)
        - np.einsum("dacb->abcd", dG)
        + np.einsum("ace,edb->abcd", G0, G0)
        - np.einsum("ade,ecb->abcd", G0, G0)
    )


def tm_metric(params: Params, chart: Chart, pt: TMPoint) -> np.ndarray:
    """Induced metric of h_{p,q} on TM in chart coordinates, as a 2n x 2n matrix.

    The connection-map component of a tangent vector (dx, du) is
    du^k + Gamma^k_{ij} dx^i u^j with finite-difference base Christoffels, the
    horizontal block pairs with the chart metric and the vertical block with
    omega^p (g + q (g u)(g u)^T).
    """
    n = chart.n
    g = chart.metric(pt.x)
    t = float(pt.u @ g @ pt.u)
    q = float(params.q)
    check_fiber_radius(params, t)
    gam = fd_christoffel(chart.metric, pt.x)
    M = np.einsum("kij,j->ki", gam, pt.u)
    gu = g @ pt.u
    W = omega(t) ** float(params.p) * (g + q * np.outer(gu, gu))
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = g + M.T @ W @ M
    H[:n, n:] = M.T @ W
    H[n:, :n] = W @ M
    H[n:, n:] = W
    return 0.5 * (H + H.T)


def tm_metric_field(params: Params, chart: Chart):
    n = chart.n

    def h_field(z: np.ndarray) -> np.ndarray:
        return tm_metric(params, chart, TMPoint(z[:n], z[n:]))

    return h_field


# ---------------------------------------------------------------------------
# numeric curvature contractions


def _ricci_matrix(R: np.ndarray, H: np.ndarray, Hinv: np.ndarray) -> np.ndarray:
    """rho[c,a] such that rho(Y,Z) = rho[c,a] Y^c Z^a (trace of the curvature)."""
    return np.einsum("ebcd,ea,bd->ca", R, H, Hinv)


def numeric_sectional(R: np.ndarray, H: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    rab_b = np.einsum("abcd,b,c,d->a", R, B, A, B)  # R(A,B)B
    num = float(rab_b @ H @ A)
    gram = float((A @ H @ A) * (B @ H @ B) - (A @ H @ B) ** 2)
    return num / gram


def base_frame(g: np.ndarray, u: Optional[np.ndarray] = None) -> np.ndarray:
    """g-orthonormal frame by Gram-Schmidt on the coordinate basis.

    When a nonzero fibre vector u is given, the first frame vector points
    along it so that closed-form comparisons exercise radial-aligned planes.
    """
    n = g.shape[0]
    seeds = []
    if u is not None and float(u @ g @ u) > 0:
        seeds.append(np.asarray(u, dtype=float))
    seeds.extend(np.eye(n))
    frame = []
    for s in seeds:
        v = s.copy()
        for w in frame:
            v = v - (w @ g @ v) * w
        norm2 = float(v @ g @ v)
        if norm2 > 1e-12:
            frame.append(v / math.sqrt(norm2))
        if len(frame) == n:
            break
    return np.array(frame)


@dataclass
class QuantityCheck:
    name: str
    closed_form: float
    numeric: float
    rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.rel_err <= self.tol

    @property
    def headroom(self) -> float:
        """tol / rel_err: how many times over the error would still pass (inf for no error)."""
        return self.tol / self.rel_err if self.rel_err else math.inf


@dataclass
class ComparisonReport:
    """Per-quantity closed-form vs numeric record with pass/fail verdict."""

    records: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)

    def add(self, name: str, closed_val, numeric_val, tol: float):
        """Record a quantity (a vector by its norms and the norm of the difference); the error
        is relative unless the closed form is below 1e-8, then absolute."""
        if np.ndim(closed_val):
            size, diff = float(np.linalg.norm(closed_val)), float(np.linalg.norm(closed_val - numeric_val))
            closed_val, numeric_val = size, float(np.linalg.norm(numeric_val))
        else:
            size, diff = abs(closed_val), abs(closed_val - numeric_val)
        err = diff / size if size >= 1e-8 else diff
        self.records.append(QuantityCheck(name, closed_val, numeric_val, err, tol))

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def max_rel_err(self) -> float:
        return max((r.rel_err for r in self.records), default=0.0)

    def tightest(self) -> Optional[QuantityCheck]:
        """The record with the least headroom, or None for an empty report."""
        return min(self.records, key=lambda r: r.headroom, default=None)

    def failures(self) -> list:
        return [r for r in self.records if not r.ok]


DEFAULT_TOLERANCES = {"sectional": 1e-3, "ricci": 1e-3, "scalar": 1e-3, "connection": 1e-4}

LIFTS = {"h": LiftVector.horizontal, "v": LiftVector.vertical}

# (name, lift types of X and Y, frame indices of X and Y); a plane needs both indices below n
SECTIONAL_PLANES = [
    ("sectional_hh_radial", "hh", 0, 1),
    ("sectional_hv_radial", "hv", 0, 1),
    ("sectional_hv_vertical_radial", "hv", 1, 0),
    ("sectional_vv_radial", "vv", 0, 1),
    ("sectional_vv_orthogonal", "vv", 1, 2),
]
RICCI_CASES = [
    ("ricci_hh", "hh", 0, 0),
    ("ricci_hh_mixed", "hh", 0, 1),
    ("ricci_hv", "hv", 0, 1),
    ("ricci_vv_radial", "vv", 0, 0),
    ("ricci_vv", "vv", 1, 1),
]


def _lift_coords(frame: np.ndarray, gam: np.ndarray, u: np.ndarray, lv: LiftVector) -> np.ndarray:
    """Induced coordinates (dx, du) at fibre vector u of a lift vector in frame components:
    dx = h and du = v - Gamma(dx, u), with gam the base Christoffels at the foot point of u."""
    hor = np.einsum("i,ij->j", lv.h, frame)
    ver = np.einsum("i,ij->j", lv.v, frame)
    return np.concatenate([hor, ver - np.einsum("kij,i,j->k", gam, hor, u)])


def compare(
    params: Params,
    chart: Chart,
    pt: TMPoint,
    suites: Iterable[str] = ("sectional", "ricci", "scalar", "connection"),
    nested_step: float = DEFAULT_NESTED_STEP,
) -> ComparisonReport:
    """Evaluate both curvature pipelines at a tangent-bundle point and diff them.

    Builds a g-orthonormal base frame (radial-aligned when the fibre vector is
    nonzero), maps frame vectors to induced coordinates, runs the named suites
    and reports per-quantity relative errors (absolute when the closed form
    vanishes).
    """
    tol = dict(DEFAULT_TOLERANCES)  # the report's own copy
    n = chart.n
    if not chart.in_domain(pt.x):
        raise DomainError("base point outside the chart's safe domain")
    g = chart.metric(pt.x)
    t = float(pt.u @ g @ pt.u)
    if float(params.q) * t <= -1.0 + BOUNDARY_MARGIN:
        raise DomainError("too close to the singular boundary for differencing")

    frame = base_frame(g, pt.u if t > 0 else None)
    e_frame = FiberPoint(np.array([float(pt.u @ g @ frame[i]) for i in range(n)]))
    base = BaseCurvature.space_form(chart.c)
    gam0 = fd_christoffel(chart.metric, pt.x)
    basis = np.eye(n)
    # induced coordinates at pt of the kind ("h" or "v") lift of frame vector i
    lifted = {(kind, i): _lift_coords(frame, gam0, pt.u, LIFTS[kind](basis[i]))
              for kind in "hv" for i in range(n)}

    z = pt.coords()
    h_field = tm_metric_field(params, chart)
    H = h_field(z)
    Hinv = np.linalg.inv(H)
    report = ComparisonReport(tolerances=tol)
    if {"sectional", "ricci", "scalar"} & set(suites):
        R = fd_riemann(h_field, z, nested_step)
        rho = _ricci_matrix(R, H, Hinv)

    if "sectional" in suites:
        for name, kinds, i, j in SECTIONAL_PLANES:
            if j < n:
                k_closed = closed.sectional(params, e_frame, kinds, basis[i], basis[j], base)
                k_num = numeric_sectional(R, H, lifted[kinds[0], i], lifted[kinds[1], j])
                report.add(name, k_closed, k_num, tol["sectional"])

    if "ricci" in suites:
        for name, kinds, i, j in RICCI_CASES:
            r_closed = closed.ricci(params, n, e_frame, kinds, basis[i], basis[j], base)
            r_num = float(np.einsum("ca,c,a->", rho, lifted[kinds[0], i], lifted[kinds[1], j]))
            report.add(name, r_closed, r_num, tol["ricci"])

    if "scalar" in suites:
        s_closed = closed.scalar(params, n, e_frame, base)
        s_num = float(np.einsum("ca,ca->", rho, Hinv))
        report.add("scalar", s_closed, s_num, tol["scalar"])

    if "connection" in suites:
        # nabla_A B = dB(A) + Gamma_TM(A, B): the lift field B differenced around z
        GamTM = fd_christoffel(h_field, z)
        for suffix, i, j in (("", 0, 1), ("_swapped", 1, 0)):
            nabla_xy_coord = np.einsum("kij,i,j->k", gam0, lifted["h", i][:n], lifted["h", j][:n])
            nab = np.array([float(nabla_xy_coord @ g @ frame[k]) for k in range(n)])
            for kinds in ("hh", "hv", "vh", "vv"):
                A, B = lifted[kinds[0], i], LIFTS[kinds[1]](basis[j])

                def field(zz):
                    """B lifted over zz; a vertical lift does not read the Christoffels."""
                    gam = fd_christoffel(chart.metric, zz[:n]) if kinds[1] == "h" else gam0
                    return _lift_coords(frame, gam, zz[n:], B)

                jac = _central_differences(field, z, FIRST_STEP)
                num = np.einsum("a,ac->c", A, jac) + np.einsum("cab,a,b->c", GamTM, A, field(z))
                closed_lv = closed.connection(params, e_frame, kinds, basis[i], basis[j], base, nabla_xy=nab)
                closed_coord = _lift_coords(frame, gam0, pt.u, closed_lv)
                report.add(f"connection_{kinds}{suffix}", closed_coord, num, tol["connection"])

    return report


def chart_base_check(chart: Chart, x: np.ndarray):
    """Numeric sectional and scalar curvature of the chart itself at x."""
    x = np.asarray(x, dtype=float)
    R = fd_riemann(chart.metric, x)
    g = chart.metric(x)
    ginv = np.linalg.inv(g)
    frame = base_frame(g)
    K = numeric_sectional(R, g, frame[0], frame[1])
    rho = _ricci_matrix(R, g, ginv)
    s = float(np.einsum("ca,ca->", rho, ginv))
    return K, s
