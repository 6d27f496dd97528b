"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Criterion 5 rules on the scalar-positivity interval of the Cheeger-Gromoll
metric h_{1,1} over space forms of curvature c.  With t = |e|^2 the scalar
curvature is

    n = 2:  S = [(4c - c^2) t^2 + (8c - c^2) t + 4c + 12] / (2 (1+t)^2),
    n = 3:  S = [(6c + 2 - c^2) t^2 + (12c + 6 - c^2) t + 6c + 18] / (1+t)^2,

whose t -> infinity limits c (4 - c) / 2 and -(c^2 - 6c - 2) force the
intervals [0, 4] and [3 - sqrt(11), 3 + sqrt(11)]; the ends belong to the
set (G = 14 + 22t + 8t^2 at n = 2, c = 4).  The test asserts the computed
ends, the exact sign change of the leading coefficient of the sign
polynomial G across each upper end, and the finite-difference oracle's
verdict on the bounds C_2 >= 40 and C_3 > 60 quoted as literature values:
the scalar curvature is negative at c = 39 (n = 2) and c = 60 (n = 3),
inside the intervals those bounds claim, and just past the computed ends.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
from numpy.testing import assert_allclose

from cgm.scalars import Params, mu, poly_G
from cgm import curvature as cv
from cgm import oracle as oc
from cgm import regions as rg
from cgm.verify import (
    _oracle_record,
    sufficient_condition_samples,
    suite_identities,
    suite_oracle,
    suite_symmetries,
    vertical_mismatches,
    witness_mismatches,
)


def report(k: int, ok: bool, detail: str) -> bool:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    start = time.time()
    checks = {r.name: r for r in suite_oracle(seed=0)}
    elapsed = time.time() - start
    cross = checks["oracle_cross_validation"]
    names = {"chart_self_certification", "oracle_cross_validation", "alpha_zero_section_adjudication",
             "fd_step_halving"}
    ok = set(checks) == names and all(r.ok for r in checks.values()) and elapsed < 60
    assert report(
        1, ok,
        f"suite_oracle: {cross.detail}, sectional/ricci/scalar 1e-3 + connection 1e-4, "
        f"worst rel err {cross.max_err:.2e}; chart, zero-section Ricci and step halving pass; "
        f"{elapsed:.1f}s (< 60s)",
    ), [r.as_dict() for r in checks.values() if not r.ok]


def test_criterion_2_identity_suite():
    names_i = {"identity_omega_q_A_qB_C", "poly_C_definition"}
    checks = {r.name: r for r in suite_identities(seed=0)}
    ok = all(checks[n].ok for n in names_i)
    worst_i = max(checks[n].max_err for n in names_i)
    names_s = {"curvature_antisymmetry", "curvature_pair_symmetry", "first_bianchi"}
    sym = {r.name: r for r in suite_symmetries(seed=0)}
    ok &= all(sym[n].ok for n in names_s)
    worst_s = max(sym[n].max_err for n in names_s)
    assert report(
        2, ok,
        f"identities at 1e-12 over 1e4 samples (worst {worst_i:.2e}); "
        f"symmetries + Bianchi at 1e-9 over 1e3 samples (worst {worst_s:.2e})",
    )


def test_criterion_3_region_equivalence():
    # the loops of verify.suite_regions at seed 0: the classifiers against the exact decisions
    vertical, disagreements = vertical_mismatches()
    witnessed, witness_bad = witness_mismatches(seed=0)
    ok = not disagreements and not witness_bad
    assert report(
        3, ok,
        f"vertical positivity vs the signs of P and Q: {vertical} exact decisions on 1500 points x n in "
        f"{{2,3}} ({len(disagreements)} disagree); K>=0 vs P, Q and mu: {witnessed} exact decisions on "
        f"500 points per c in {{0,1,16/3,6}} x n in {{2,3}} ({len(witness_bad)} disagree)",
    ), (disagreements[:3], witness_bad[:3])


def test_criterion_4_scalar_positivity_soundness():
    samples = sufficient_condition_samples(seed=0)
    assert len(samples) == 1000
    # recorded before the sample windows were read off the sufficient-case rule set
    key = repr([(params.p, params.q, n, c) for params, n, c in samples]).encode()
    assert hashlib.sha256(key).hexdigest() == "16cb003d433c09ec3eb4c84d024a48e8e8f2e5bd0eaa5b5ae5f7902df9fb2def"
    worst = math.inf
    labeled = True
    for params, n, c in samples:
        labeled &= rg.scalar_pos_sufficient(params, n, c) is not None
        worst = min(worst, rg.scalar_grid_min(params, n, c)[0])
    ok = labeled and worst > 0
    assert report(
        4, ok,
        f"1000 labeled parameter samples, 1e4-point grids, min stilde = {worst:.4g} > 0",
    )


def test_criterion_5_h11_curvature_interval():
    start = time.time()
    lo2, hi2 = rg.scalar_positivity_interval(Params(1, 1), 2)
    lo3, hi3 = rg.scalar_positivity_interval(Params(1, 1), 3)
    elapsed = time.time() - start
    ok_lower = abs(lo2) <= 1e-6 and lo3 < 0 and elapsed < 30
    ok_upper = abs(hi2 - 4) <= 1e-6 and abs(hi3 - (3 + math.sqrt(11))) <= 1e-6

    # leading coefficient of G changes sign across each upper end, exactly
    lead = lambda n, c: poly_G(Params(1, 1), n, c).coefficients[-1]
    g_at_4 = poly_G(Params(1, 1), 2, 4).coefficients
    ok_exact = (
        lead(2, Fraction(399, 100)) == Fraction(399, 20000)
        and lead(2, Fraction(401, 100)) == Fraction(-401, 20000)
        and g_at_4 == (14, 22, 8)
        and lead(3, Fraction(6316624, 10**6)) > 0
        and lead(3, Fraction(6316625, 10**6)) < 0
    )

    # oracle: negative scalar inside the quoted intervals and past the computed ends
    probes = {
        "C_2 >= 40 claims c=39": _oracle_record(Params(1, 1), 2, 39.0, 0.3),
        "C_3 > 60 claims c=60": _oracle_record(Params(1, 1), 3, 60.0, 0.3),
        "past C_2, c=4.5": _oracle_record(Params(1, 1), 2, 4.5, 1e3),
        "past C_3, c=6.5": _oracle_record(Params(1, 1), 3, 6.5, 1e3),
    }
    ok_oracle = all(r.ok and r.numeric < 0 and r.closed_form < 0 for r in probes.values())
    assert report(
        5, ok_lower and ok_upper and ok_exact and ok_oracle,
        f"n=2: ({lo2:.2e}, {hi2:.6f}) vs exact [0, 4]; "
        f"n=3: ({lo3:.6f}, {hi3:.6f}) vs exact 3 -+ sqrt(11); {elapsed:.1f}s (< 30s); "
        f"exact sign change of G's leading coefficient: {ok_exact}; oracle scalar "
        + ", ".join(f"{k}: {r.numeric:.4f} (rel err {r.rel_err:.1e})" for k, r in probes.items()),
    ), (lo2, hi2, lo3, hi3, elapsed, ok_exact, probes)


def test_criterion_6_constructive_searches():
    start = time.time()
    problems = []
    found = hashlib.sha256()  # the grid minimum is left out: numpy's vectorised pow is machine-dependent
    for n in (2, 3, 5):
        for c in (-10, -1, 0, 1, 10):
            r1 = rg.find_params_thm1(n, c)
            if not r1.certificate["min_scalar_on_grid"] > 0:
                problems.append(("thm1", n, c))
            r3 = rg.find_params_thm3(n, c)
            found.update(repr((repr(r3.params), r3.certificate["path"], r3.certificate["G_coefficients"])).encode())
            if (
                not r3.certificate["min_scalar_on_grid"] > 0
                or float(r3.params.q) < 0
                or not all(g > 0 for g in r3.certificate["G_coefficients"])
            ):
                problems.append(("thm3", n, c))
    for a, b in ((0, 0), (-12, 8)):
        c_used, res = rg.find_params_general(3, a, b)
        if not res.certificate["min_scalar_on_grid"] > 0:
            problems.append(("general", a, b))
    elapsed = time.time() - start
    # recorded before the coefficient search became one candidate generator and one acceptance loop
    if found.hexdigest() != "1ab5d5893bc43ddaa91c0a15694189de5fc2c3f8393cfc995112809f4f38e949":
        problems.append(("thm3 digest", found.hexdigest()))
    ok = not problems and elapsed < 120
    assert report(
        6, ok,
        f"both routes certified on (n,c) in {{2,3,5}}x{{-10,-1,0,1,10}}, q>=0 and "
        f"positive G coefficients on the second route, curvature-bound route at "
        f"(a,b) in {{(0,0),(-12,8)}}; {elapsed:.1f}s (< 120s)",
    ), problems


def test_criterion_7_limit_behaviour():
    base0 = cv.BaseCurvature.space_form(0.0)
    e = cv.FiberPoint.radial(1 - 1e-6, 3)
    k = cv.sectional(Params(2, -1), e, "vv", np.eye(3)[1], np.eye(3)[2], base0)
    ok = abs(k - 4.0) / 4.0 <= 1e-4
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p, q, c = rng.uniform(-3, 4), rng.uniform(-2, 3), rng.uniform(-3, 3)
        params, base = Params(p, q), cv.BaseCurvature.space_form(c)
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
    ok &= worst <= 1e-12
    assert report(
        7, ok,
        f"boundary vertical curvature = mu(2) = 4 within 1e-4 (got {k:.6f}); "
        f"zero-section identities within 1e-12 (worst {worst:.2e})",
    )


def test_criterion_8_alpha_discrepancy_adjudication():
    n, params = 3, Params(1, 1)
    chart = oc.Chart.space_form(n, 1.0)
    pt = oc.TMPoint(np.array([0.12, -0.07, 0.05]), np.zeros(3))
    h_field = oc.tm_metric_field(params, chart)
    z = pt.coords()
    H = h_field(z)
    R = oc.fd_riemann(h_field, z)
    rho = oc._ricci_matrix(R, H, np.linalg.inv(H))
    g = chart.metric(pt.x)
    Y = np.zeros(3)
    Y[0] = 1.0 / math.sqrt(float(g[0, 0]))
    V = np.concatenate([np.zeros(3), Y])
    val = float(np.einsum("ca,c,a->", rho, V, V) / (V @ H @ V))
    want, reject = (n - 1) * 3, (n - 2) * 3
    ok = abs(val - want) / want <= 1e-4 and abs(val - reject) / reject > 0.5
    assert report(
        8, ok,
        f"numeric vertical Ricci at the zero section = {val:.6f}; matches "
        f"(n-1)(2p+q) = {want} within 1e-4 and excludes (n-2)(2p+q) = {reject}",
    )
