"""Parameter-plane region classifiers and constructive positivity searches.

Region membership follows the defining inequalities verbatim, each region
written once: one component rule gives Gamma and Gamma', one rule gives Delta_c
and Delta'_c together, and that rule alone puts every c < 0 outside both.
Strict versus non-strict comparisons are preserved, comparisons are performed
in exact rational arithmetic on the values of :func:`cgm.scalars.as_exact`
(floats are compared exactly as the rationals they represent, never with an
epsilon; an infinite or NaN input is refused there), the dimension is checked by
:func:`cgm.scalars.check_n`, and the boundary curves lambda, nu are evaluated exactly.
Two decisions are floats: the cut mu(p) >= 3c/4 for non-integer p, and the
window test |c - k s| < k sqrt(1 + r) s of :func:`sufficient_cases`, the one
rule set of the sufficient conditions for positive scalar curvature, where each
case has its own r.  :func:`column_values` runs the same rules on a column of
exact p and float q.  There every comparison compares q with an exact
threshold tau(p), and the correctly rounded float(tau) settles it unless
q == float(tau): a tie, left to the per-cell rule :func:`cell_value`, as are
the sufficient cases' regions, whose windows depend on q.

The sampled minima :func:`vertical_curvature_minimum` and
:func:`sectional_witness_min` evaluate the vertical plane families on the
certificate grid alone, and the horizontal family by its exact infimum; they are
diagnostics, and `verify` decides the region checks exactly instead.

The end of the fibre, T = :func:`cgm.scalars.fibre_end`, sets the radius grid:
one shared read-only log grid for T = inf, mapped onto [0, T) for finite T.
:func:`scalar_grid_min` is the one evaluation of the scalar curvature on that
grid; :func:`scalar_positivity_interval` evaluates f and phi on it once and
takes its ends from their roots in c, in one pass, with the limit of phi at T
decided exactly, for every (p, q).  The constructive searches return a :class:`SearchResult` whose certificate
records that grid minimum (always positive), its overflow count when nonzero
and, for the nonnegative-q route, the all-positive coefficient list of the
sign polynomial G, the first of the candidates of one generator that has it.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .scalars import (
    Params,
    as_exact,
    check_n,
    f_sup,
    fibre_end,
    float_in_range,
    hyperbola_lambda,
    hyperbola_nu,
    mu,
    omega,
    poly_C,
    poly_G,
    scalar_curvature_spaceform,
    scalar_parts,
    weights_AB,
)

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# memberships


def _compare(op):
    def compare(self, tau):
        t = float(tau)
        if tau != 0:
            self.tie |= self.q == t
        return op(self.q, t)
    return compare


class _Column:
    """The float q axis of a scan column; comparing it with a tau(p) != 0 marks q == float(tau) as ties."""

    def __init__(self, q: np.ndarray):
        self.q, self.tie = q, np.zeros(q.shape, dtype=bool)

    __gt__, __ge__, __lt__, __le__, __eq__ = map(
        _compare, (operator.gt, operator.ge, operator.lt, operator.le, operator.eq))


# The rules below take p exact and q exact or a _Column: they join conditions on q
# with & and |, and guard them by conditions on p alone with `and`.
_COMPONENTS = ("gamma_plus_1", "gamma_plus_2", "gamma_plus_3", "gamma_minus", "gamma_zero",
               "gamma_prime_minus", "gamma_prime_zero")
_GAMMA = _COMPONENTS[:5]


def _gamma_conditions(p, q):
    """The conditions of the Gamma' components in order, lazily; Gamma is the first five.
    Gamma_minus and Gamma_zero lie inside Gamma'_minus and Gamma'_zero."""
    yield -8 < p <= -2 and q > hyperbola_lambda(p)
    yield -2 <= p <= 0 and q > -2 * p
    yield 0 <= p <= 1 and q > 0
    line, below, axis = 1 - p, q < 0, q == 0
    yield (q == line) & below
    yield axis & (0 < p <= 2)
    yield (q >= line) & below
    yield axis & (p > 0)


def _vertical_positive(p, q, n: int):
    """Gamma for n >= 3, Gamma' for n = 2: where every vertical plane has K > 0."""
    conditions = list(_gamma_conditions(p, q))
    return functools.reduce(operator.or_, conditions[:5] if n >= 3 else conditions)


def _in_omega(p, q) -> bool:
    if (p > 2 or p < -2) and q > (p - 2) * (p - 2) / Fraction(4):  # q above kappa1(p)
        return True
    if -2 <= p <= 0 and 2 * p + q > 0:
        return True
    if 0 <= p <= 2 and q > 0:
        return True
    return False


def _delta_pair(p, q, c):
    """Membership of (p, q) in Delta_c and in Delta'_c, for exact c: none for c < 0, where K >= 0
    fails on the base.  The two agree for q > 0.  For q <= 0, Delta'_c is p + q >= 1 (q < 0) and
    the axis q = 0 from p = 0 (c = 0) or p = 1 (c > 0), cut by mu(p) >= 3c/4;
    Delta_c narrows the first to the line p + q = 1 and caps the axis at p <= 2.
    """
    if c < 0:
        return False, False
    if c == 0:  # closures of the q > 0 components of Gamma except the third
        upper = (
            (-8 < p <= -2 and q >= hyperbola_lambda(p))
            | (-2 <= p <= 0 and q >= -2 * p)
            | (0 <= p <= 1)
        )
    else:
        upper = c <= Fraction(4, 3) and p == 1
    upper = (q > 0) & upper
    cut = c == 0 or (p >= 1 and mu(p) >= Fraction(3 * c, 4))  # for c > 0, q <= 0 needs p >= 1
    line, below, axis = 1 - p, q < 0, (q == 0) & (p >= (0 if c == 0 else 1))
    narrow = upper | (cut & ((below & (q == line)) | (axis & (p <= 2))))
    wide = upper | (cut & ((below & (q >= line)) | axis))
    return narrow, wide


@dataclass(frozen=True)
class RegionVerdict:
    """Membership record across the positivity regions of the parameter plane."""

    in_gamma: bool
    in_gamma_prime: bool
    in_omega: bool
    in_delta: Optional[bool]
    in_delta_prime: Optional[bool]
    gamma_component: str
    scalar_condition: Optional[str]
    delta_reason: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


def classify(params: Params, n: int, c: Optional[Number] = None) -> RegionVerdict:
    """Evaluate every region membership for (p, q), dimension n, curvature c.

    Gamma and Gamma' are read off one component rule, Delta_c and Delta'_c off one pair rule.
    """
    check_n(n)
    p, q = as_exact(params.p), as_exact(params.q)
    component = next((name for name, hit in zip(_COMPONENTS, _gamma_conditions(p, q)) if hit), "none")
    if c is None:
        delta, reason = (None, None), "no base curvature supplied"
    else:
        c = as_exact(c)
        delta = _delta_pair(p, q, c)
        reason = "nonnegative sectional curvature requires c >= 0" if c < 0 else None
    return RegionVerdict(
        in_gamma=component in _GAMMA,
        in_gamma_prime=component != "none",
        in_omega=_in_omega(p, q),
        in_delta=delta[0],
        in_delta_prime=delta[1],
        gamma_component=component,
        scalar_condition=None if c is None else scalar_pos_sufficient(params, n, c),
        delta_reason=reason,
    )


def vertical_positivity(params: Params, n: int) -> bool:
    """Whether every vertical 2-plane has strictly positive sectional curvature."""
    check_n(n)
    return _vertical_positive(as_exact(params.p), as_exact(params.q), n)


def nonneg_sectional(params: Params, n: int, c: Number) -> bool:
    """Whether h_{p,q} over a curvature-c space form has K >= 0 on every plane spanned by lifts."""
    check_n(n)
    return _delta_pair(as_exact(params.p), as_exact(params.q), as_exact(c))[n == 2]


def sufficient_cases(p, q, n: int):
    """The sufficient conditions for positive scalar curvature at c != 0, in order and lazily:
    (case, region, window).  ``window()`` is (k s, k sqrt(1 + r) s), the center and radius of the
    open window |c - k s| < k sqrt(1 + r) s of c, with s = mu(p) or 1 and r the case's own float
    expression in p, q and mu(p), >= 0 on its region up to rounding.  The region, decided exactly, is
    the only domain test; where r divides by zero in floats (case (d) at float(p) == 1 < p) it is
    evaluated on the exact p and q.  p is exact, q exact
    or a _Column (whose cases give regions only): cases (a)-(e) for n = 2, (a)-(d) for n >= 3."""

    def window(k, r, scaled=True):  # r takes float p, q and mu(p)
        def bounds():
            mp = float(mu(p))
            try:
                m = math.sqrt(1 + r(float(p), float(q), mp))
            except ZeroDivisionError:  # float(p) == 1 < p in case (d): the same r on the exact values
                m = math.sqrt(1 + r(p, q, Fraction(mp)))
            s = mp if scaled else 1
            return k * s, k * m * s
        return bounds

    def r1(p, q, mp):
        return 2 * (n - 2) / (n * n * p)

    def r2(p, q, mp):
        return 4 * p / (n * mp)

    yield "a", p == 1 and q > 0, window(n, r1, scaled=False)
    yield "b", 1 <= p < 2 and q == 0, window(n, r1)
    if n == 2:
        yield "c", p >= 2 and q == 0, window(2, r2)
        if p > 1:  # cases (d) and (e) lie in q < 0 < p - 1, where nu(p) < 0
            nu = hyperbola_nu(p)
            yield "d", (q < 0) & (q >= nu), window(
                2, lambda p, q, mp: p * q * (p * q + 8 * p + 8 * q - 8) / (4 * (p - 1) * (q - 1) * mp))
            yield "e", (q >= 1 - p) & (q <= nu), window(2, lambda p, q, mp: (p + q - 1) / mp)
    else:
        yield "c", p == 2 and q == 0, window(4 * n, r2, scaled=False)
        yield "d", p > 1 and q == 1 - p, window(n, lambda p, q, mp: 2 * (p * p - 1) / (n * p * mp))


def scalar_pos_sufficient(params: Params, n: int, c: Number) -> Optional[str]:
    """First matching sufficient condition for positive scalar curvature, or None."""
    check_n(n)
    p, q = as_exact(params.p), as_exact(params.q)
    cx = as_exact(c)
    if cx == 0:
        if not _vertical_positive(p, q, n):
            return None
        return "gamma" if n >= 3 else "gamma_prime"

    cf = float_in_range(cx, "c")
    for case, region, window in sufficient_cases(p, q, n):
        if region:
            center, radius = window()
            if abs(cf - center) < radius:
                return case
    return None


SCAN_PREDICATES = ("gamma", "gamma_prime", "delta", "delta_prime", "scalar_sufficient", "vertical_positive")


def _scan_c(predicate: str, n: int, c: Optional[Number]) -> Optional[Number]:
    """A scan's c, exact, or None for the predicates that read none; a missing c is one ValueError."""
    if predicate not in SCAN_PREDICATES:
        raise ValueError(predicate)
    check_n(n)
    if predicate in ("gamma", "gamma_prime", "vertical_positive"):
        return None
    if c is None:
        raise ValueError(f"{predicate} needs the base curvature c")
    float_in_range(c, "c")  # as in the per-cell rules, which take its float in scalar_pos_sufficient
    return as_exact(c)


def cell_value(predicate: str, p: float, q: float, n: int, c: Optional[Number] = None) -> float:
    """The per-cell rule of a scan, 1.0 inside and 0.0 outside: the predicate's field of :func:`classify`,
    or :func:`vertical_positivity` and :func:`scalar_pos_sufficient` for the two it does not report."""
    c, params = _scan_c(predicate, n, c), Params(p, q)
    if predicate == "vertical_positive":
        return 1.0 if vertical_positivity(params, n) else 0.0
    if predicate == "scalar_sufficient":
        return 1.0 if scalar_pos_sufficient(params, n, c) is not None else 0.0
    return 1.0 if getattr(classify(params, n, c), "in_" + predicate) else 0.0


def column_values(predicate: str, p: float, q: np.ndarray, n: int, c: Optional[Number]) -> tuple[np.ndarray, int]:
    """A scan column as a float array, exact p and float q, by the predicate's rule on a _Column, its ties
    and, for scalar_sufficient at c != 0, its case regions decided by :func:`cell_value`; and the tie count."""
    c, px, col = _scan_c(predicate, n, c), as_exact(p), _Column(q)
    if c is None or (predicate == "scalar_sufficient" and c == 0):
        inside = _vertical_positive(px, col, {"gamma": 3, "gamma_prime": 2}.get(predicate, n))  # Gamma: n >= 3
    elif predicate != "scalar_sufficient":
        inside = _delta_pair(px, col, c)[predicate == "delta_prime"]
    else:  # col.tie is read once every region has marked it
        regions = functools.reduce(operator.or_, [region for _, region, _ in sufficient_cases(px, col, n)])
        inside, col.tie = False, regions | col.tie
    values = np.broadcast_to(inside, q.shape).astype(float)
    ties = np.flatnonzero(col.tie)
    for j in ties.tolist():
        values[j] = cell_value(predicate, p, float(q[j]), n, c)
    return values, len(ties)


# ---------------------------------------------------------------------------
# scalar curvature grids and tail analysis

GRID_POINTS, GRID_CAP = 10000, 1e6  # the radius grid of scalar_grid_min and the certificates
THM1_K_MAX = 2 ** 17  # find_params_thm1 searches p = 2 + k/10 for k <= THM1_K_MAX
THM3_K_MAX = 2 ** 6  # find_params_thm3 starts at p = 2 + k, k <= THM3_K_MAX, for c > 0 and n >= 3
THM3_NEG_K_MAX = 2 ** 9  # and at p <= 2 + THM3_NEG_K_MAX for c < 0: past p ~ 508 no G fits in floats


_GRID_UNBOUNDED = np.concatenate([[0.0], np.geomspace(1e-8, GRID_CAP, GRID_POINTS - 1)])
_GRID_UNBOUNDED.setflags(write=False)
_GRID_UNIT = (_GRID_UNBOUNDED / (1.0 + _GRID_UNBOUNDED))[1:]  # u = g/(1 + g) in (0, 1 - 1e-6]
_GRID_UNIT.setflags(write=False)


def _t_grid(params: Params) -> np.ndarray:
    """The radii [0, T), T = :func:`fibre_end`: for T = inf the shared read-only log grid g (0, then
    1e-8 to 1e6); else the g below T u_1, then T u, u = g/(1 + g) > 0, two increasing parts joined
    sorted: 10,000 radii for T <= 1 to 19,999 past T = 1e14, the last at 1 - t/T ~ 1e-6."""
    tb = fibre_end(params)
    if tb == math.inf:
        return _GRID_UNBOUNDED
    head = _GRID_UNBOUNDED[:np.searchsorted(_GRID_UNBOUNDED, tb * _GRID_UNIT[0])]
    return np.concatenate([head, tb * _GRID_UNIT])


def scalar_grid_min(params: Params, n: int, c: Number) -> tuple[float, int]:
    """The minimum of the scalar curvature on the radius grid, and how many grid values overflowed."""
    with np.errstate(over="ignore"):
        s = scalar_curvature_spaceform(params, n, c, _t_grid(params))
    return float(s.min()), int(np.count_nonzero(~np.isfinite(s)))


def _phi_limit(params: Params, n: int) -> float:
    """Limit of phi(t) at the end of the fibre, exactly.  q < 0: +inf for p + q >= 1, -inf below, as
    C(T) = 2 P(T) = 2 (q - 1)(p + q - 1)/q and, where that is 0, C'(T) = 2 p (1 - p) < 0.  q >= 0: the
    leading term of C over q^2 (in floats (n - 2) q^2 and q * q underflow below q ~ 1e-162)."""
    p, q = as_exact(params.p), as_exact(params.q)
    if q < 0:
        return math.inf if p + q >= 1 else -math.inf
    cpoly = poly_C(Params(p, q), n)
    d = cpoly.degree()
    lead = Fraction(cpoly.coefficients[d]) / (q * q if q > 0 else 1)
    expo = d + p - 2 - (2 if q > 0 else 0)
    if lead == 0 or expo < 0:
        return 0.0
    if expo == 0:
        try:
            return float(lead)
        except OverflowError:  # past the float range: the limit reads as an infinity
            pass
    return math.inf if lead > 0 else -math.inf


def _sign_change_ends(n: int, f, phi):
    """The roots lower <= upper in c of n c - (c^2/2) f + phi, f >= 0, which is positive between them:
    -2 phi/(n + s) and (n + s)/f, s = sqrt(n^2 + 2 f phi), stable also where f = 0 (upper = inf).
    Both are nan where the roots are complex: no c."""
    s = np.sqrt(n * n + 2 * f * phi)
    return 0.0 - 2 * phi / (n + s), (n + s) / f  # 0.0 - x, so phi = 0 gives 0.0 and not -0.0


def _positivity_set(params: Params, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The base curvatures c with positive scalar curvature, as (grid, tail): the open interval of c
    with S/(n - 1) = n c - (c^2/2) f + phi > 0 at every radius of :func:`_t_grid`, and the closed
    interval of c where its limit at the end of the fibre is >= 0, one rule for every q: phi tends to
    :func:`_phi_limit`, f for q >= 0 to 0 (p > 1), 1 (p = 1) or inf (p < 1), for q < 0 to f(T) while
    phi -> +-inf.  A radius where phi overflows to +inf bounds nothing.  An empty interval has lo >= hi
    (grid) or lo > hi (tail), or an end nan: a radius with complex roots, or f or phi not finite."""
    p = as_exact(params.p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, phi_t = scalar_parts(params, n, _t_grid(params))
        lower, upper = _sign_change_ends(n, f, phi_t)
        bound = ~(np.isposinf(phi_t) & np.isfinite(f))
        grid = (float(lower.max(initial=-math.inf, where=bound)), float(upper.min(initial=math.inf, where=bound)))
        phi_inf = _phi_limit(params, n)
        if p < 1:  # the limit is -inf or nan at every c but 0 (for q < 0, phi_inf = -inf)
            tail = (0.0, 0.0) if phi_inf >= 0 else (math.inf, -math.inf)
        elif abs(phi_inf) == math.inf:
            tail = (-math.inf, math.inf) if phi_inf > 0 else (math.inf, -math.inf)
        else:
            tail = tuple(map(float, _sign_change_ends(n, float(p == 1), phi_inf)))
    return grid, tail


def scalar_positivity_interval(params: Params, n: int) -> tuple[float, float]:
    """Interval of base curvatures c around 0 with positive scalar curvature: the ends of
    :func:`_positivity_set`, read off f and phi on the radius grid in one pass, for every (p, q).

    An end from the tail belongs to the set: for h_{1,1}, n = 2, the end c = 4 has
    G = 14 + 22t + 8t^2.  One from the grid does not.  Returns (nan, nan) when c = 0 is outside
    the set, as for q < 0 < 1 - p - q, where S -> -inf at the end of the fibre for every c.
    """
    (lo, hi), (tail_lo, tail_hi) = _positivity_set(params, n)
    if not (lo < 0 < hi and tail_lo <= 0 <= tail_hi):
        return (math.nan, math.nan)
    return (max(lo, tail_lo), min(hi, tail_hi))


# ---------------------------------------------------------------------------
# radial plane families and the sectional-curvature minima (space forms)


class RadialPlanes(NamedTuple):
    """Sectional curvatures of the radial lifted-plane families at radii t.

    ``hh``: horizontal plane containing the radial direction; ``hv``: radial
    horizontal against a vertical direction orthogonal to the fibre point;
    ``vv_through``: vertical plane containing the canonical vector (u = t);
    ``vv_perp``: vertical plane orthogonal to it (u = 0, n >= 3 only).
    """

    hh: np.ndarray
    hv: np.ndarray
    vv_through: np.ndarray
    vv_perp: np.ndarray

    def vertical_min(self, n: int) -> np.ndarray:
        """The least vertical curvature at each radius: ``vv_through`` for n = 2, else the lesser family."""
        return np.minimum(self.vv_through, self.vv_perp) if n >= 3 else self.vv_through


def radial_planes(params: Params, c: float, t: np.ndarray) -> RadialPlanes:
    """The radial plane families over a curvature-c space form, at radii t."""
    p, c = float(params.p), float_in_range(c, "c")
    w_p, lift = omega(t) ** p, (1.0 + t) ** p
    _, _, A, B = weights_AB(params, t)
    return RadialPlanes(c - 0.75 * c * c * w_p * t, 0.25 * c * c * w_p * t,
                        lift * (A * t + B) / (1.0 + float(params.q) * t), lift * B)


def vertical_curvature_minimum(params: Params, n: int) -> float:
    """Minimum sectional curvature of vertical 2-planes on the certificate grid :func:`_t_grid`.

    A vertical plane at radius t has curvature (1+t)^p (A u + B)/(1 + q u),
    where u in [0, t] is the squared length of the fibre point's projection
    onto it (u = t for every plane when n = 2).  Its u-derivative is
    C / (omega_q (1 + q u)^2) with C of fixed sign, so the minimum over the
    planes at t is at u = 0 or u = t, :meth:`RadialPlanes.vertical_min`.
    """
    return float(radial_planes(params, 0.0, _t_grid(params)).vertical_min(n).min())


def sectional_witness_min(params: Params, n: int, c: Number) -> float:
    """Minimum sectional curvature over the lifted-plane families: exact for horizontal and
    vertizontal planes, on the certificate grid :func:`_t_grid` for vertical ones.

    The families are those of :func:`radial_planes`.  They bound every lifted
    plane spanned by an orthonormal base pair (X, Y), which is the scope of the
    K >= 0 characterization: with u = <X,e>^2 + <Y,e>^2 <= t, a horizontal
    plane has c - (3/4) c^2 u/(1+t)^p >= the u = t value, whose infimum is
    c - (3/4) c^2 :func:`f_sup`, a vertizontal plane a nonnegative value (0 at
    t = 0), and a vertical plane lies between its u = 0 and u = t values
    (:func:`vertical_curvature_minimum`).  Fully general 2-planes of the total
    space can be negative even where every lifted plane is nonnegative (e.g.
    (p,q)=(1.108,0), n=2, c=1 near the zero section, confirmed by finite
    differences); they are not probed.
    """
    cf = float_in_range(c, "c")
    horizontal = cf - 0.75 * cf * cf * f_sup(params) if cf != 0 else 0.0
    return float(min(0.0, horizontal, vertical_curvature_minimum(params, n)))


# ---------------------------------------------------------------------------
# constructive searches


@dataclass
class SearchResult:
    """Parameters returned by a search plus a positivity certificate, and the seconds the certificate took."""

    params: Params
    certificate: dict = field(default_factory=dict)
    certificate_s: float = field(default=0.0, compare=False, repr=False)


def _certified(params: Params, n: int, c: Number, extra: dict) -> SearchResult:
    """``params`` certified by the grid minimum of the scalar curvature, the overflow count, ``extra``."""
    t0 = time.perf_counter()
    m, nonfinite = scalar_grid_min(params, n, c)
    if not m > 0:
        raise AssertionError(f"search postcondition violated: grid minimum {m} at {params}")
    tb = fibre_end(params)
    where = "(t <= 1e6)" if tb == math.inf else f"[0, T), T = -1/q = {tb:g}"
    cert = {"min_scalar_on_grid": m, "grid": f"{len(_t_grid(params))}-point log grid on the admissible radii {where}"}
    if nonfinite:
        cert["nonfinite_on_grid"] = nonfinite
    cert.update(extra)
    return SearchResult(params, cert, time.perf_counter() - t0)


def _least_above(above, k_max: int, refusal: str) -> int:
    """The least k >= 0 with above(k), for above monotone in k, by doubling k and then bisecting.
    Raises ValueError(refusal) when above(k_max) fails; k_max is a power of 2."""
    lo, hi = -1, 0  # the least k with above(k) lies in (lo, hi] once above(hi)
    while not above(hi):
        if hi == k_max:
            raise ValueError(refusal)
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return hi


def find_params_thm1(n: int, c: Number) -> SearchResult:
    """Smallest-on-grid parameters with positive scalar curvature over M(c).

    Dimension 2 searches the line q = 0; higher dimensions the line p+q = 1
    (so q < 0 and the result metric lives on the ball bundle).  The grid is
    p = 2 + k/10, driven by the growth of mu: the least k with mu(p) above the
    threshold, found by doubling k and then bisecting, as mu increases strictly.
    Raises ValueError when that p would pass 2 + THM1_K_MAX/10 = 13109.2.
    """
    check_n(n)
    c = as_exact(c)
    cf = float_in_range(c, "c")
    if n == 2 and c == 0:
        params = Params(1, 0)
        return _certified(params, n, c, {"path": "c=0: any p>0 on q=0"})
    if cf > 0:
        threshold = cf
    elif cf == 0:
        threshold = 0.0
    else:
        root = math.sqrt(math.e + 2) - math.sqrt(math.e) if n == 2 else math.sqrt(n + 0.75) - math.sqrt(n)
        threshold = -cf / root

    hi = _least_above(lambda k: float(mu(2 + Fraction(k, 10))) > threshold, THM1_K_MAX,
                      f"no p <= {2 + THM1_K_MAX / 10} on the grid has mu(p) > {threshold:.6g} (c = {cf:g})")
    pf = 2 + Fraction(hi, 10)
    p = float(pf)
    params = Params(p, 0.0) if n == 2 else Params(p, 1.0 - p)
    extra = {"path": f"grid p=2.0+0.1k, {hi} rejections, mu(p)={float(mu(pf)):.6g} > {threshold:.6g}"}
    return _certified(params, n, c, extra)


def _coeff_polys_in_q(p: int, n: int) -> tuple[tuple, tuple]:
    """The t^2 and t^1 coefficients of C(t) as quadratics in q (ascending), read off C at q = 0, 1, 2."""
    rows = [poly_C(Params(p, q), n).coefficients for q in (0, 1, 2)]
    quads = []
    for k in (2, 1):
        v0, v1, v2 = (row[k] for row in rows)
        q2 = (v2 - 2 * v1 + v0) // 2  # half the second difference, exact: C has integer coefficients here
        quads.append((v0, v1 - v0 - q2, q2))
    return tuple(quads)


def _larger_root(quad: tuple) -> float:
    c0, c1, c2 = (float(v) for v in quad)
    if c2 == 0:
        return 0.0 if c1 == 0 else max(0.0, -c0 / c1)
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return 0.0
    return (-c1 + math.sqrt(disc)) / (2 * c2)


def _thm3_candidates(n: int, c: Number):
    """The (p, q) that find_params_thm3 tries, in order, each with its path text ({} = rejections).
    A c that rounds to 0 tries the Cheeger-Gromoll point first; one that is not 0 goes on by its sign."""
    cf = float(c)
    if cf == 0:
        yield 1, 1, "c=0: Cheeger-Gromoll point" if c == 0 else "c rounds to 0: Cheeger-Gromoll point"
    if c == 0:
        return
    if n == 2:
        for p in range(2, 402):
            yield p, 0, f"q=0, integer p ascent: accepted p={p} ({{}} rejections)"
    else:
        if c > 0:
            p0 = 2 + _least_above(lambda k: float(mu(2 + k)) > cf / (2 * n), THM3_K_MAX,
                                  f"no starting p <= {2 + THM3_K_MAX} has mu(p) > c/(2n) (n = {n}, c = {cf:g})")
        else:
            p0 = max(2, math.ceil(1 - 9 * cf / 8), math.ceil(1 + math.log(-3 * cf) / math.log(2)))
            if p0 > 2 + THM3_NEG_K_MAX:
                raise ValueError(f"the starting p for c < 0 passes {2 + THM3_NEG_K_MAX} (n = {n}, c = {cf:g})")
        for p in range(p0, p0 + 60):
            aq, bq = _coeff_polys_in_q(p, n)
            q = max(
                1,
                math.ceil(-cf - 2 * p) + 1,
                math.ceil(_larger_root(aq)) + 1,
                math.ceil(_larger_root(bq)) + 1,
            )
            for _ in range(40):
                yield p, q, f"started p={p0}, accepted (p,q)=({p},{q}) after {{}} rejections"
                q *= 2


def find_params_thm3(n: int, c: Number) -> SearchResult:
    """Parameters with q >= 0 and positive scalar curvature over M(c).

    The certificate is the all-positive coefficient list of the sign
    polynomial G (sufficient for G > 0 on t >= 0, hence stilde > 0), found by
    an ascending integer-p / doubling-q search seeded at the analytic bounds.
    Exact rational arithmetic keeps the coefficient signs trustworthy.  For c > 0
    and n >= 3 the search starts at the least p with mu(p) > c/(2n), and raises
    ValueError naming c when that p would pass 2 + THM3_K_MAX = 66; for c < 0 and n >= 3, naming n and c
    when the starting p passes 2 + THM3_NEG_K_MAX = 514, and naming p when G overflows floats.
    """
    check_n(n)
    cx = as_exact(c)
    cf = float_in_range(cx, "c")
    for rejections, (p, q, path) in enumerate(_thm3_candidates(n, cx)):
        g = poly_G(Params(p, q), n, cx)
        if all(coef > 0 for coef in g.coefficients):
            try:
                coefficients = g.as_floats()
            except OverflowError:
                raise ValueError(f"G at p = {p}, q = {q} has coefficients past the float range") from None
            return _certified(Params(p, q), n, cx, {"G_coefficients": coefficients, "path": path.format(rejections)})
    raise RuntimeError(f"coefficient search found no candidate with all G coefficients positive (n={n}, c={cf:g})")


def find_params_general(n: int, a: Number, b: Number) -> tuple[float, SearchResult]:
    """Parameters with positive scalar curvature from scalar/curvature bounds.

    ``a`` bounds the base scalar curvature from below and ``b`` bounds the
    squared curvature frame sum by b|e|^2; the comparison space form uses
    c_used = min(a / n(n-1), -sqrt(b / 2(n-1))) minus a safety margin.
    """
    check_n(n)
    a, b = float_in_range(a, "a"), float_in_range(b, "b")
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{value} has no exact value: a finite {name} is required")
    if b < 0:
        raise ValueError("b >= 0 required")
    base = min(a / (n * (n - 1)), -math.sqrt(b / (2 * (n - 1))))
    margin = max(1.0, 0.01 * abs(base))
    c_used = base - margin
    return c_used, find_params_thm3(n, c_used)
