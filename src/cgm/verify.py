"""Invariant suites behind the `verify` command.

Each suite returns a list of named checks with the worst observed error, so
the CLI can emit one JSON line per check and exit nonzero when anything
fails.  All sampling is seeded and deterministic.  Every check is built by
one constructor, :func:`_result`.  A float check compares its worst error
with a tol: mostly |got - want| / max(|want|, 1); the two identities
omega_q (A - q B) = C and phi_consistency divide by the largest of their
terms (and a floor), since those terms cancel; the chart, boundary-limit and
alpha checks take the pure relative error.

The regions suite checks the region classifiers against exact decisions: the
signs of the quadratics P and Q on the fibre radii, settled by three sign tests
each on Python ints (P and Q scaled by the square of the common denominator of
p and q), and for K >= 0 the horizontal cut mu(p) >= 3c/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import curvature as cv
from . import oracle as oc
from . import regions as rg
from .scalars import (
    Params,
    as_exact,
    coefficients,
    f_sup,
    f_value,
    fibre_end,
    hyperbola_lambda,
    hyperbola_nu,
    mu,
    omega_q,
    phi,
    poly_C,
    poly_G,
    poly_P,
    poly_Q,
    pq_coefficients,
    scalar_curvature_spaceform,
)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    max_err: Optional[float] = None
    detail: str = ""
    tol: Optional[float] = None  # what max_err was compared with; None for boolean checks
    extra: dict = field(default_factory=dict)  # further JSON keys of this check

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "max_err": self.max_err}
        if self.tol is not None:
            out["tol"] = self.tol
            out["headroom"] = self.tol / self.max_err if self.max_err else None
        out.update(self.extra)
        if self.detail:
            out["detail"] = self.detail
        return out


def _result(name: str, err: Optional[float] = None, tol: Optional[float] = None, ok: bool = True,
            detail: str = "", **extra) -> CheckResult:
    """The one constructor of a check.  It passes when ok holds and, given a tol, err <= tol; max_err is
    err as a float, the detail defaults to the tol, and extra holds the further JSON keys in order."""
    ok = ok and (tol is None or err <= tol)
    detail = detail or ("" if tol is None else f"tol={tol:g}")
    return CheckResult(name, "pass" if ok else "fail", None if err is None else float(err), detail,
                       None if tol is None else float(tol), extra)


# ---------------------------------------------------------------------------
# identities


def suite_identities(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # omega_q (A - qB) = C over 1e4 domain-valid samples, as one array (A, B, C do not depend on n)
    ps = rng.uniform(-6, 6, 10_000)
    qs = rng.uniform(-4, 4, 10_000)
    ts = rng.uniform(0, 3, 10_000)
    ns = rng.integers(2, 7, 10_000)
    ts = np.where(qs * ts <= -0.9, np.minimum(ts, -0.9 / qs), ts)  # keep 1 + q t >= 0.1
    cs, wq = coefficients(Params(ps, qs), ts, 2), omega_q(ts, Params(ps, qs))
    scale = np.maximum.reduce([abs(wq * cs.A), abs(wq * qs * cs.B), abs(cs.C), np.full_like(ts, 1e-12)])
    out.append(_result("identity_omega_q_A_qB_C", (abs(wq * (cs.A - qs * cs.B) - cs.C) / scale).max(), 1e-12))

    # C(t) defining combination, against the expanded coefficients
    worst = 0.0
    for p, q, t, n in zip(ps[:2000], qs[:2000], ts[:2000], ns[:2000]):
        params = Params(p, q)
        direct = 2 * poly_P(params).evaluate(t) + (int(n) - 2) * (1 + q * t) * poly_Q(params).evaluate(t)
        via = poly_C(params, int(n)).evaluate(t)
        worst = max(worst, abs(direct - via) / max(abs(direct), 1.0))
    out.append(_result("poly_C_definition", worst, 1e-12))

    # coefficientwise C == 2P at n = 2, exactly
    exact = True
    for p, q in zip(ps[:200], qs[:200]):
        c2 = poly_C(Params(p, q), 2).coefficients
        twop = tuple(2 * c for c in poly_P(Params(p, q)).coefficients) + (0.0,)
        exact &= all(a == b for a, b in zip(c2, twop))
    out.append(_result("poly_C_n2_equals_2P", ok=exact))

    # Sasaki degeneration
    cs = coefficients(Params(0, 0), 1.7, 4)
    sas = max(abs(v) for v in (cs.A, cs.B, cs.C, cs.alpha, cs.beta))
    sas = max(
        sas,
        max(abs(float(c)) for c in poly_P(Params(0, 0)).coefficients),
        max(abs(float(c)) for c in poly_Q(Params(0, 0)).coefficients),
        max(abs(float(c)) for c in poly_C(Params(0, 0), 5).coefficients),
    )
    out.append(_result("sasaki_degeneration", sas, 0.0))

    # mu strictly increasing on the 0.1 grid
    grid = [1 + k / 10 for k in range(91)]
    mono = all(float(mu(a)) < float(mu(b)) for a, b in zip(grid, grid[1:]))
    out.append(_result("mu_strictly_increasing", ok=mono))

    # phi from poly_C vs the coefficient form (1+t)^p (2 alpha - (n-2) B), whose two terms cancel
    worst = 0.0
    for p, q, t, n in zip(ps[:2000], qs[:2000], ts[:2000], ns[:2000]):
        params, n = Params(p, q), int(n)
        cs = coefficients(params, t, n)
        weight = (1 + t) ** p
        direct = weight * (2 * cs.alpha - (n - 2) * cs.B)
        scale = max(abs(weight * 2 * cs.alpha), abs(weight * (n - 2) * cs.B), 1.0)
        worst = max(worst, abs(direct - phi(params, n, t)) / scale)
    out.append(_result("phi_consistency", worst, 1e-12))

    # f_sup against a grid maximum
    worst_low, ok_upper = 0.0, True
    for _ in range(1000):
        p = rng.uniform(1, 6)
        q = rng.uniform(-2, 3)
        params = Params(p, q)
        sup = f_sup(params)
        cap = 1e3 if q >= 0 else fibre_end(params) * (1 - 1e-9)
        grid_t = np.concatenate([[0.0], np.geomspace(1e-9, cap, 9_999)])
        gmax = float(f_value(grid_t, p).max())
        ok_upper &= gmax <= sup + 1e-12
        worst_low = max(worst_low, sup - gmax)
    out.append(_result("f_sup_grid_lower", worst_low, 1e-3))
    out.append(_result("f_sup_grid_upper", ok=ok_upper))

    # G coefficient expansion vs its defining three-term expression
    worst = 0.0
    for p, q, n, c in [
        (1, 0, 3, -1),
        (2, 1, 3, 1),
        (3, 2, 4, -2),
        (2, Fraction(1, 2), 2, Fraction(16, 3)),
        (4, 3, 5, -10),
    ]:
        g = poly_G(Params(p, q), n, c)
        for t in rng.uniform(0, 5, 20):
            qf, cf = float(q), float(c)
            direct = (
                n * cf * (1 + t) ** p * (1 + qf * t) ** 2
                - 0.5 * cf * cf * t * (1 + qf * t) ** 2
                + (1 + t) ** (2 * p - 2) * poly_C(Params(p, q), n).evaluate(t)
            )
            worst = max(worst, abs(g.evaluate(t) - direct) / max(abs(direct), 1.0))
    out.append(_result("poly_G_three_term", worst, 1e-10))

    # zero-section scalar curvature identity
    worst = 0.0
    for p, q in zip(ps[:200], qs[:200]):
        n = int(rng.integers(2, 6))
        c = float(rng.uniform(-5, 5))
        got = scalar_curvature_spaceform(Params(p, q), n, c, 0.0)
        want = n * (n - 1) * (c + 2 * p + q)
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    out.append(_result("scalar_zero_section", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# curvature symmetries


def _random_point(rng, n, params: Params) -> cv.FiberPoint:
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    cap = 3.0 if params.q >= 0 else fibre_end(params) * 0.9
    t = rng.uniform(0, cap)
    return cv.FiberPoint(math.sqrt(t) * direction)


def _row_batch(rows: list) -> tuple:
    """Rows (p, q, c, e, *more) as one per-row batch: Params, FiberPoint, space-form base, more columns."""
    p, q, c, e, *more = (np.array(col) for col in zip(*rows))
    return Params(p[:, None], q[:, None]), cv.FiberPoint(e), cv.BaseCurvature.space_form(c[:, None]), more


def suite_symmetries(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # each loop draws its samples in the per-sample order (a check reads the generator where the one
    # before left it), then evaluates them as one batch per n; first 1000 samples of four random lifts
    rows = {2: [], 3: []}
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        p, q, c = rng.uniform(-3, 4), rng.uniform(-2, 3), rng.uniform(-2, 2)
        e = _random_point(rng, n, Params(p, q)).e
        rows[n].append((p, q, c, e, *(rng.standard_normal(n) for _ in range(8))))
    worst_anti = worst_pair = worst_bianchi = 0.0
    for group in rows.values():
        params, e, base, parts = _row_batch(group)
        A, B, C, D = (cv.LiftVector(h, v) for h, v in zip(parts[::2], parts[1::2]))
        RAB = cv.riemann_full(params, e, A, B, C, base)
        RBA = cv.riemann_full(params, e, B, A, C, base)
        RCD = cv.riemann_full(params, e, C, D, A, base)
        hRABCD = cv.metric_h(params, e, RAB, D)
        scale = np.maximum(np.abs(hRABCD), 1.0)
        anti = np.abs(hRABCD + cv.metric_h(params, e, RBA, D)) / scale
        pair = np.abs(hRABCD - cv.metric_h(params, e, RCD, B)) / scale
        worst_anti, worst_pair = max(worst_anti, anti.max()), max(worst_pair, pair.max())
        bi = RAB + cv.riemann_full(params, e, B, C, A, base) + cv.riemann_full(params, e, C, A, B, base)
        bnorm = np.linalg.norm(bi.h, axis=-1) + np.linalg.norm(bi.v, axis=-1)
        rnorm = np.linalg.norm(RAB.h, axis=-1) + np.linalg.norm(RAB.v, axis=-1)
        worst_bianchi = max(worst_bianchi, (bnorm / np.maximum(rnorm, 1.0)).max())
    out.append(_result("curvature_antisymmetry", worst_anti, 1e-9))
    out.append(_result("curvature_pair_symmetry", worst_pair, 1e-9))
    out.append(_result("first_bianchi", worst_bianchi, 1e-9))

    # vertical sectional formula vs assembled curvature / metric quotient, on the planes of e_1, e_2
    rows, worst = {2: [], 3: [], 4: []}, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        p, q, c = rng.uniform(-3, 4), rng.uniform(-2, 3), rng.uniform(-2, 2)
        e = _random_point(rng, n, Params(p, q)).e
        if 1 + q * (e[0] ** 2 + e[1] ** 2) > 1e-3:
            rows[n].append((p, q, c, e))
    for n, group in rows.items():
        (params, e, base, _), (X, Y) = _row_batch(group), np.eye(n)[:2]
        direct = cv.sectional(params, e, "vv", X, Y, base)
        via = cv.sectional_plane(params, e, cv.LiftVector.vertical(X), cv.LiftVector.vertical(Y), base)
        worst = max(worst, (np.abs(direct - via) / np.maximum(np.abs(direct), 1.0)).max())
    out.append(_result("metric_compatibility_vv", worst, 1e-10))

    # flat fibres characterize the Sasaki point
    base0, sasaki = cv.BaseCurvature.space_form(0.0), Params(0, 0)
    points = {2: [], 3: []}
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        points[n].append(_random_point(rng, n, sasaki).e)
    worst = max(np.abs(cv.sectional(sasaki, cv.FiberPoint(np.array(es)), "vv", *np.eye(n)[:2], base0)).max()
                for n, es in points.items())
    out.append(_result("sasaki_flat_fibres", worst, 1e-13))
    nonflat = True
    for _ in range(20):
        p, q = rng.uniform(-3, 4), rng.uniform(-2, 3)
        if abs(p) + abs(q) < 1e-3:
            continue
        params = Params(p, q)
        e = cv.FiberPoint(np.array([_random_point(rng, 3, params).e for _ in range(50)]))
        nonflat &= bool(np.abs(cv.sectional(params, e, "vv", *np.eye(3)[:2], base0)).max() > 1e-12)
    out.append(_result("non_sasaki_curved_fibres", ok=nonflat))

    # bounded vertical curvature at the boundary for p + q = 1
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        params = Params(p, 1 - p)
        tb = fibre_end(params)
        e = cv.FiberPoint.radial(tb - 1e-6, 3)
        k = cv.sectional(params, e, "vv", np.eye(3)[1], np.eye(3)[2], cv.BaseCurvature.space_form(0.0))
        worst = max(worst, abs(k - float(mu(p))) / float(mu(p)))
    out.append(_result("boundary_vertical_limit", worst, 1e-4))

    # Ricci = sum of sectional curvatures over an orthonormal completion
    rows, rhos, worst = {2: [], 3: []}, {2: [], 3: []}, 0.0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        params = Params(rng.uniform(-2, 3), rng.uniform(-1.5, 2))
        base = cv.BaseCurvature.space_form(rng.uniform(-2, 2))
        e = _random_point(rng, n, params)
        frame = cv.tangent_frame(params, e)
        V = frame[n]  # first vertical frame vector
        rhos[n].append(cv.ricci(params, n, e, "vv", V.v, V.v, base) / cv.metric_h(params, e, V, V))
        rows[n] += [(params.p, params.q, base.c, e.e, V.h, V.v, F.h, F.v) for F in frame if F is not V]
    for n, group in rows.items():
        params, e, base, (Vh, Vv, Fh, Fv) = _row_batch(group)
        planes = cv.sectional_plane(params, e, cv.LiftVector(Vh, Vv), cv.LiftVector(Fh, Fv), base)
        total, rho = sum(planes.reshape(-1, 2 * n - 1).T), np.array(rhos[n])  # summed in frame order
        worst = max(worst, (np.abs(total - rho) / np.maximum(np.abs(rho), 1.0)).max())
    out.append(_result("ricci_sectional_trace", worst, 1e-8))

    # scalar = full Ricci trace over the 2n-frame
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        params = Params(rng.uniform(-2, 3), rng.uniform(-1.5, 2))
        base = cv.BaseCurvature.space_form(rng.uniform(-2, 2))
        e = _random_point(rng, n, params)
        trace = sum(
            cv.ricci(params, n, e, "hh", F.h, F.h, base)
            if F.h.any()
            else cv.ricci(params, n, e, "vv", F.v, F.v, base)
            for F in cv.tangent_frame(params, e)
        )
        s = cv.scalar(params, n, e, base)
        worst = max(worst, abs(trace - s) / max(abs(s), 1.0))
    out.append(_result("scalar_ricci_trace", worst, 1e-10))

    # zero-section identities
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p, q, c = rng.uniform(-3, 4), rng.uniform(-2, 3), rng.uniform(-3, 3)
        params = Params(p, q)
        base = cv.BaseCurvature.space_form(c)
        e0 = cv.FiberPoint.zero(n)
        basis = np.eye(n)
        kvv = cv.sectional(params, e0, "vv", basis[0], basis[1], base)
        khv = cv.sectional(params, e0, "hv", basis[0], basis[1], base)
        s = cv.scalar(params, n, e0, base)
        want_s = n * (n - 1) * c + n * (n - 1) * (2 * p + q)
        worst = max(
            worst,
            abs(kvv - (2 * p + q)) / max(abs(2 * p + q), 1.0),
            abs(khv),
            abs(s - want_s) / max(abs(want_s), 1.0),
        )
    out.append(_result("zero_section_identities", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# regions


def strata_parameter_points() -> dict:
    """Deterministic 500-point strata of the (p, q) plane: q<0, q=0, q>0."""
    neg, zero, pos = [], [], []
    for i in range(25):
        p = -9.7 + 13.57 * i / 24
        for j in range(20):
            neg.append((p, -3.91 + 3.72 * j / 19))
            pos.append((p, 0.11 + 3.7 * j / 19))
    for i in range(500):
        zero.append((-10 + (i + 0.5) * 14 / 500, 0.0))
    return {"q<0": neg, "q=0": zero, "q>0": pos}


def _sign_holds(coefficients: tuple, q: int | float | Fraction, strict: bool) -> bool:
    """Whether c0 + c1 t + c2 t^2 (exact) is > 0 (strict) or >= 0 on the radii [0, T), T = -1/q for q < 0,
    else inf: at 0, at a vertex inside (0, T) and at the open end T, where 0 passes even when strict
    (a crossing inside (0, T) fails the vertex test, so such a zero is approached from above).  With
    q = b/d, d > 0, each test is the sign of a polynomial in the c_k, b and d, so ints stay ints: the
    vertex -c1/(2 c2) < T is c1 b < 2 c2 d, its value has the sign of 4 c0 c2 - c1^2, and b^2 P(T) >= 0."""
    c0, c1, c2 = coefficients
    b, d = q.as_integer_ratio()
    holds = (lambda v: v > 0) if strict else (lambda v: v >= 0)
    if not holds(c0) or (c2 > 0 > c1 and (b >= 0 or c1 * b < 2 * c2 * d) and not holds(4 * c0 * c2 - c1 * c1)):
        return False
    return c0 * b * b - c1 * d * b + c2 * d * d >= 0 if b < 0 else c2 > 0 or (c2 == 0 and c1 >= 0)


def _exact_vertical(params: Params, n: int, strict: bool = True) -> bool:
    """Whether every vertical plane has K > 0 (K >= 0 unless strict), from the signs of P and (n >= 3) Q:
    at radius t the planes lie between (1+t)^p (A t + B)/(1 + q t) and (1+t)^p B
    (:func:`regions.vertical_curvature_minimum`), and A t + B = w^2 w_q P(t), B = w^2 w_q Q(t).  With
    p = a/d and q = b/d, P d^2 and Q d^2 (:func:`scalars.pq_coefficients`) are integral."""
    (a, da), (b, db) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    polys = pq_coefficients(a * db, b * da, da * db)
    return all(_sign_holds(poly, params.q, strict) for poly in polys[: 1 if n == 2 else 2])


def _exact_nonneg(params: Params, n: int, c) -> bool:
    """Whether every lifted plane over a curvature-c space form has K >= 0: vertizontal planes do, vertical
    ones need P, Q >= 0, and the horizontal c - (3/4) c^2 f(t) needs c <= 4/(3 sup f).  Once P >= 0, sup f
    is 1/mu(p) for p >= 1 and inf for p < 1 (for q < 0, p + q < 1 gives P(-1/q) < 0)."""
    c, p = as_exact(c), params.p
    return c >= 0 and (c == 0 or (p >= 1 and mu(p) >= Fraction(3 * c, 4))) and _exact_vertical(params, n, False)


def _mismatches(cases: list, classifier: Callable, exact: Callable) -> tuple[int, list]:
    """The classifier against the exact decision on each case (p, q, n, *c): the number of cases, and the
    (p, q, n, *c, verdict) rows where they differ, c as a float."""
    bad = [(p, q, n, *map(float, c), verdict) for p, q, n, *c in cases
           if (verdict := classifier(Params(p, q), n, *c)) != exact(Params(p, q), n, *c)]
    return len(cases), bad


def vertical_mismatches() -> tuple[int, list]:
    """The number of exact vertical decisions on the strata points for n = 2, 3, and the
    (p, q, n, verdict) rows where vertical_positivity differs from them."""
    points = [point for pts in strata_parameter_points().values() for point in pts]
    return _mismatches([(p, q, n) for n in (2, 3) for p, q in points], rg.vertical_positivity, _exact_vertical)


def witness_mismatches(seed: int = 0) -> tuple[int, list]:
    """The number of exact K >= 0 decisions on the witness points for n = 2, 3, and the
    (p, q, n, c, verdict) rows where nonneg_sectional differs from them."""
    points = {c: nonneg_witness_points(float(c), seed) for c in (0, 1, Fraction(16, 3), 6)}
    cases = [(p, q, n, c) for c, pts in points.items() for n in (2, 3) for p, q in pts]
    return _mismatches(cases, rg.nonneg_sectional, _exact_nonneg)


DELTA_C = (6, Fraction(16, 3), 1, 0)


def delta_grid_verdicts(p_axis, q_axis: np.ndarray) -> tuple[dict, int]:
    """n = 3 verdicts on p_axis x q_axis by :func:`regions.column_values`, a boolean [p, q] array
    per key (gamma | gamma_prime, None) and (delta | delta_prime, c), c in DELTA_C; and the tie count."""
    keys = [("gamma", None), ("gamma_prime", None)] + [(d, c) for c in DELTA_C for d in ("delta", "delta_prime")]
    grid, ties = {}, 0
    for predicate, c in keys:
        values, counts = zip(*(rg.column_values(predicate, float(p), q_axis, 3, c) for p in p_axis))
        grid[predicate, c] = np.stack(values) == 1.0
        ties += sum(counts)
    return grid, ties


def _agreement(compared: int, bad: list, columns: str) -> str:
    """The detail of a classifier-vs-exact check."""
    if not bad:
        return f"{compared} exact decisions agree"
    return f"{len(bad)} of {compared} exact decisions disagree; first {columns}: {bad[:4]}"


def suite_regions(seed: int = 0) -> list[CheckResult]:
    out = []

    # the classifier against the exact decisions from the signs of P and Q
    compared, bad = vertical_mismatches()
    out.append(_result("classifier_vs_bruteforce", ok=not bad,
                       detail=_agreement(compared, bad, "(p, q, n, verdict)")))

    # Delta monotonicity in c, subset relations, and Delta_0 \ Gamma (the closure curves) next to Gamma
    p_axis, q_axis = np.linspace(-9, 4, 100), np.linspace(-4, 4, 100)
    grid, _ = delta_grid_verdicts(p_axis, q_axis)
    deltas = [grid["delta", c] for c in DELTA_C]
    mono = not any((narrow & ~wide).any() for narrow, wide in zip(deltas, deltas[1:]))
    subset = not (grid["gamma", None] & ~grid["gamma_prime", None]).any()
    subset &= not any((grid["delta", c] & ~grid["delta_prime", c]).any() for c in DELTA_C)
    edge = [(p_axis[i], q_axis[j]) for i, j in np.argwhere(grid["delta", 0] & ~grid["gamma", None]).tolist()]
    eighths = [Fraction(k, 8) for k in range(-72, 33)]
    curves = {(p, hyperbola_lambda(p)) for p in eighths if p != -8} | {(p, -2 * p) for p in eighths}
    verdicts = [(p, q, rg.classify(Params(p, q), 3, 0)) for p, q in sorted(curves)]
    edge += [(p, q) for p, q, v in verdicts if v.in_delta and not v.in_gamma]
    probes = [(1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6), (1e-6, 1e-6), (-1e-6, 1e-6)]
    closure = all(any(rg.classify(Params(p + dp, q + dq), 3).in_gamma for dp, dq in probes) for p, q in edge)
    out.append(_result("delta_monotone_in_c", ok=mono))
    out.append(_result("subset_relations", ok=subset))
    out.append(_result("delta_in_gamma_closure", ok=closure))

    # scalar-positivity sufficiency is sound on a labeled sample
    labeled = sufficient_condition_samples(seed)
    label_ok = all(rg.scalar_pos_sufficient(params, n, c) is not None for params, n, c in labeled)
    worst_min, params, n, c = min(
        ((rg.scalar_grid_min(params, n, c)[0], params, n, c) for params, n, c in labeled), key=lambda row: row[0]
    )
    out.append(_result("scalar_sufficiency_sound", ok=label_ok and worst_min > 0,
                       detail=f"{len(labeled)} labeled samples, min stilde {worst_min:.3g}",
                       worst=f"p={params.p:g}, q={params.q:g}, n={n}, c={c:g}"))

    # the K >= 0 classifier against the exact decisions from P, Q and mu
    compared, bad = witness_mismatches(seed)
    out.append(_result("nonneg_sectional_witness", ok=not bad,
                       detail=_agreement(compared, bad, "(p, q, n, c, verdict)")))

    # constructive searches, the full (n, c) matrix
    ok = True
    detail = []
    for n in (2, 3, 5):
        for c in (-10, -1, 0, 1, 10):
            r1 = rg.find_params_thm1(n, c)
            ok &= r1.certificate["min_scalar_on_grid"] > 0
            r3 = rg.find_params_thm3(n, c)
            ok &= r3.certificate["min_scalar_on_grid"] > 0
            ok &= float(r3.params.q) >= 0
            ok &= all(g > 0 for g in r3.certificate["G_coefficients"])
            detail.append(
                f"n={n},c={c}:({float(r1.params.p):g},{float(r1.params.q):g})"
                f"/({float(r3.params.p):g},{float(r3.params.q):g})"
            )
    for a, b in ((0, 0), (-12, 8)):
        c_used, res = rg.find_params_general(3, a, b)
        ok &= res.certificate["min_scalar_on_grid"] > 0 and c_used < 0
    out.append(_result("constructive_searches", ok=ok, detail="; ".join(detail)))
    return out


def sufficient_condition_samples(seed: int = 0) -> list:
    """Deterministic (params, n, c) samples inside each sufficiency case."""
    rng = np.random.default_rng(seed + 17)
    samples = []

    def centered(params, n):
        # c in the window of the first case whose region holds: strictly inside the open bound, away from 0
        p, q = as_exact(params.p), as_exact(params.q)
        center, radius = next(window() for _, region, window in rg.sufficient_cases(p, q, n) if region)
        for _ in range(50):
            c = center + radius * rng.uniform(-0.95, 0.95)
            if abs(c) > 1e-3:
                return params, n, c
        return params, n, center + 0.5 * radius

    for _ in range(112):  # per family
        # dimension 2 cases (a)-(e)
        samples.append((Params(1.0, rng.uniform(0.01, 5)), 2, rng.uniform(0.05, 3.95)))
        p = rng.uniform(1, 1.99)
        samples.append((Params(p, 0.0), 2, rng.uniform(0.05, 4 * float(mu(p)) - 0.05)))
        samples.append(centered(Params(rng.uniform(2, 6), 0.0), 2))
        p = rng.uniform(1.05, 4)
        samples.append(centered(Params(p, float(hyperbola_nu(p)) * rng.uniform(0.02, 0.98)), 2))
        p = rng.uniform(1.05, 4)
        nu = float(hyperbola_nu(p))
        samples.append(centered(Params(p, 1 - p + (nu - (1 - p)) * rng.uniform(0.02, 0.98)), 2))
        # dimension >= 3 cases (a)-(d)
        samples.append(centered(Params(1.0, rng.uniform(0.01, 5)), 3))
        samples.append(centered(Params(rng.uniform(1, 1.99), 0.0), 3))
        samples.append(centered(Params(2.0, 0.0), 3))
        p = rng.uniform(1.05, 4)
        samples.append(centered(Params(p, 1 - p), 3))
    return samples[:1000]


def nonneg_witness_points(c: float, seed: int = 0) -> list:
    """Mixture of 500 random and boundary-targeted (p, q) points for the K >= 0 test."""
    rng = np.random.default_rng(seed + int(c * 977) + 31)
    count = 500
    targeted = count // 3
    pts = [(rng.uniform(-9, 4), rng.uniform(-4, 4)) for _ in range(count - targeted)]
    if c == 0:
        for _ in range(targeted):
            pts.append((rng.uniform(-2, 1), rng.uniform(0.01, 4)))
        return pts
    # members and near-members of the c > 0 regions
    p_min = 1.0
    while float(mu(p_min)) < 3 * c / 4 and p_min < 60:
        p_min += 1e-3
    for _ in range(targeted - 2 * (targeted // 4)):
        p = p_min + rng.uniform(0.05, 3)
        pts.append((p, 1 - p))
        pts.append((p, 0.0))
    for _ in range(targeted // 4):
        p = max(1.0, p_min - rng.uniform(0.05, 0.5))
        pts.append((p, 1 - p))  # mu cut fails just below the threshold
        pts.append((1.0, rng.uniform(0.1, 3)))
    return pts[:count]


# ---------------------------------------------------------------------------
# oracle


ORACLE_PARAM_POINTS = [(0, 0), (1, 1), (2, 0), (1, -0.5), (2, -1), (-1, 3)]


def oracle_matrix_cells() -> list:
    cells = []
    for n in (2, 3):
        for c in (-1.0, 0.0, 1.0):
            for p, q in ORACLE_PARAM_POINTS:
                tmax = 1.0 if q >= 0 else fibre_end(Params(p, q))
                for t in (0.0, 0.25, 0.81 * tmax):
                    cells.append((Params(p, q), n, c, t))
    return cells


def _cell_point(n: int, c: float, t: float) -> oc.TMPoint:
    chart = oc.Chart.space_form(n, c)
    x = np.array([0.12, -0.07, 0.05][:n])
    g = chart.metric(x)
    d = np.array([0.3, 1.0, -0.2][:n])
    d = d / math.sqrt(float(d @ g @ d))
    return oc.TMPoint(x, math.sqrt(t) * d)


def _oracle_record(params: Params, n: int, c: float, t: float, name: str = "scalar", **steps):
    """The named record of :func:`oracle.compare` (its suite alone) at the oracle cell point."""
    suite = name.split("_")[0]
    report = oc.compare(params, oc.Chart.space_form(n, c), _cell_point(n, c, t), suites=(suite,), **steps)
    return next(r for r in report.records if r.name == name)


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # chart self-certification (samples stay inside the safe coordinate radius)
    worst = 0.0
    for n in (2, 3):
        for c in (-2.0, -1.0, 1.0, 2.0):
            chart = oc.Chart.space_form(n, c)
            for _ in range(50):
                x = rng.uniform(-0.4, 0.4, n)
                K, _ = oc.chart_base_check(chart, x)
                worst = max(worst, abs(K - c) / abs(c))
    out.append(_result("chart_self_certification", worst, 1e-5))

    # cross-validation matrix; the tightest record of each cell, with the cell
    worst = 0.0
    failures, tightest = [], []
    for params, n, c, t in oracle_matrix_cells():
        rep = oc.compare(params, oc.Chart.space_form(n, c), _cell_point(n, c, t))
        worst = max(worst, rep.max_rel_err())
        tightest.append((rep.tightest(), params, n, c, t))
        if not rep.passed:
            failures.append((params, n, c, t, [r.name for r in rep.failures()]))
    rec, params, n, c, t = min(tightest, key=lambda cell: cell[0].headroom)
    out.append(_result("oracle_cross_validation", worst, ok=not failures,
                       detail=f"failures: {failures[:3]}" if failures else f"{len(oracle_matrix_cells())} cells",
                       headroom=rec.headroom,
                       worst=f"{rec.name} at p={params.p:g}, q={params.q:g}, n={n}, c={c:g}, t={t:g}"))

    # vertical Ricci at the zero section: (n-1)(2p+q), not (n-2)(2p+q)
    n = 3
    val = _oracle_record(Params(1, 1), n, 1.0, 0.0, "ricci_vv_radial").numeric
    want = (n - 1) * 3
    reject = (n - 2) * 3
    out.append(_result("alpha_zero_section_adjudication", abs(val - want) / want, 1e-4,
                       detail=f"numeric {val:.6f} matches (n-1)(2p+q)={want}, excludes (n-2)(2p+q)={reject}"))

    # step halving improves the sectional comparison
    recs = [_oracle_record(Params(1, 1), 3, 1.0, 0.49, "sectional_hh_radial", nested_step=step)
            for step in (4e-3, 2e-3)]
    errs = [abs(r.numeric - r.closed_form) for r in recs]
    ratio = errs[0] / max(errs[1], 1e-300)
    out.append(_result("fd_step_halving", ratio, ok=ratio >= 2.0, detail=f"errors {errs[0]:.3e} -> {errs[1]:.3e}"))
    return out


# ---------------------------------------------------------------------------
# scalar positivity interval

INTERVAL_END_TOL = 1e-9  # each end of scalar_positivity_interval against its exact value


def _upper_end_check(name: str, n: int, c_hi: float, exact: float, exact_label: str, quoted: str,
                     c_quoted: float) -> CheckResult:
    """Computed upper end against its exact value; the oracle rules on the quoted bound.

    `c_quoted` lies inside the interval that the quoted bound claims, so a
    negative oracle scalar curvature there refutes the quoted bound.
    """
    rec, tol = _oracle_record(Params(1, 1), n, c_quoted, 0.3), INTERVAL_END_TOL
    return _result(name, abs(c_hi - exact), tol, ok=rec.ok and rec.numeric < 0,
                   detail=f"c_hi={c_hi:.6f}, exact {exact_label}, tol={tol:g}; quoted {quoted}: oracle scalar "
                   f"at c={c_quoted:g}, t=0.3 is {rec.numeric:.4f} (closed form {rec.closed_form:.4f}, "
                   f"rel err {rec.rel_err:.1e})")


def suite_interval(seed: int = 0) -> list[CheckResult]:
    """Scalar-positivity interval of h_{1,1}: exact ends 0, 4 (n = 2) and 3 -+ sqrt(11) (n = 3).

    The quoted bounds C_2 >= 40 and C_3 > 60 are checked against the
    finite-difference oracle, which finds negative scalar curvature inside
    the intervals they claim.
    """
    out = []
    tol = INTERVAL_END_TOL
    lo2, hi2 = rg.scalar_positivity_interval(Params(1, 1), 2)
    lo3, hi3 = rg.scalar_positivity_interval(Params(1, 1), 3)
    out.append(_result("interval_h11_n2_lower", abs(lo2), tol, detail=f"c_lo={lo2:.2e}"))
    out.append(_upper_end_check("interval_h11_n2_upper_reported", 2, hi2, 4.0, "4", "C_2 >= 40", 39.0))
    out.append(_result("interval_h11_n3_lower", ok=lo3 < 0, detail=f"c_lo={lo3:.6f}"))
    out.append(_upper_end_check("interval_h11_n3_upper_reported", 3, hi3, 3 + math.sqrt(11), "3+sqrt(11)",
                                "C_3 > 60", 60.0))
    lo10, hi10 = rg.scalar_positivity_interval(Params(1, 0), 2)
    out.append(_result("interval_h10_n2_contains_0_4", ok=lo10 <= tol and hi10 >= 4 - tol,
                       detail=f"interval ({lo10:.6f}, {hi10:.6f})"))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "identities": suite_identities,
    "symmetries": suite_symmetries,
    "regions": suite_regions,
    "oracle": suite_oracle,
    "interval": suite_interval,
}


def run_suites(names: Iterable[str], seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed))
    return results
