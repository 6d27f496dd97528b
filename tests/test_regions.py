import ast
import hashlib
import importlib.util
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cgm.curvature import BaseCurvature, FiberPoint, LiftVector, sectional_plane
from cgm import regions
from cgm.scalars import (
    DomainError, Params, hyperbola_lambda, hyperbola_nu, mu, poly_G, poly_P, poly_Q, pq_coefficients,
)
from cgm.verify import (
    DELTA_C, _exact_nonneg, _exact_vertical, _oracle_record, _sign_holds, delta_grid_verdicts, suite_regions,
)
from cgm.regions import (
    THM3_K_MAX,
    _GRID_UNBOUNDED,
    _coeff_polys_in_q,
    _phi_limit,
    _positivity_set,
    _t_grid,
    _thm3_candidates,
    classify,
    find_params_general,
    find_params_thm1,
    find_params_thm3,
    nonneg_sectional,
    radial_planes,
    scalar_grid_min,
    scalar_pos_sufficient,
    scalar_positivity_interval,
    sectional_witness_min,
    sufficient_cases,
    vertical_curvature_minimum,
    vertical_positivity,
)

finite = st.floats(min_value=-9, max_value=5, allow_nan=False, allow_subnormal=False)


class TestClassify:
    def test_cheeger_gromoll_point(self):
        v = classify(Params(1, 1), 3)
        assert v.in_gamma and v.gamma_component == "gamma_plus_3"

    def test_stereographic_point(self):
        v = classify(Params(2, 0), 3)
        assert v.in_gamma and v.gamma_component == "gamma_zero"

    def test_prime_only_point(self):
        v = classify(Params(3, -1), 3)
        assert not v.in_gamma and v.in_gamma_prime
        assert v.gamma_component == "gamma_prime_minus"

    def test_sasaki_outside(self):
        v = classify(Params(0, 0), 3)
        assert not v.in_gamma and not v.in_gamma_prime
        assert v.gamma_component == "none"

    def test_delta_empty_above_16_3(self):
        assert classify(Params(2, 0), 3, 6).in_delta is False

    def test_delta_boundary_exact_rational(self):
        v = classify(Params(2, -1), 3, Fraction(16, 3))
        assert v.in_delta is True  # mu(2) = 4 equals 3c/4 exactly

    def test_delta_plus_small_c(self):
        assert classify(Params(1, 2), 3, 1).in_delta is True

    def test_delta_na_reasons(self):
        v = classify(Params(1, 1), 3)
        assert v.in_delta is None and v.delta_reason
        v = classify(Params(1, 1), 3, -2)
        assert v.in_delta is False and "c >= 0" in v.delta_reason

    @given(p=finite, q=finite)
    @settings(max_examples=300, deadline=None)
    def test_gamma_subset_gamma_prime(self, p, q):
        v = classify(Params(p, q), 3)
        assert not v.in_gamma or v.in_gamma_prime

    @given(p=finite, q=finite, c=st.floats(min_value=0, max_value=8, allow_subnormal=False))
    @settings(max_examples=300, deadline=None)
    def test_delta_subset_delta_prime(self, p, q, c):
        v = classify(Params(p, q), 3, c)
        assert not v.in_delta or v.in_delta_prime


class TestVerticalPositivity:
    @pytest.mark.parametrize(
        "p,q,n,expected",
        [
            (1, 1, 3, True),
            (3, 0, 3, False),
            (3, 0, 2, True),
            (2, -1, 3, True),
            (0, 0, 3, False),
        ],
    )
    def test_examples(self, p, q, n, expected):
        assert vertical_positivity(Params(p, q), n) is expected

    def test_brute_force_examples(self):
        assert _exact_vertical(Params(1, 1), 3)
        assert not _exact_vertical(Params(3, 0), 3)
        assert not _exact_vertical(Params(0, 0), 3)

    def test_agrees_with_classifier_on_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            p, q = rng.uniform(-9, 4), rng.uniform(-3, 3)
            for n in (2, 3):
                cl = vertical_positivity(Params(p, q), n)
                bmin = vertical_curvature_minimum(Params(p, q), n)
                if abs(bmin) > 1e-7:
                    assert cl == (bmin > 0), (p, q, n, bmin)

    def test_minimum_sees_sign_changes_past_1e3(self):
        # P(t) = 6.000001 + 5e-6 t - 2e-6 t^2 turns negative only past t = 1733
        assert not _exact_vertical(Params(3, 1e-6), 2)
        assert vertical_curvature_minimum(Params(3, 1e-6), 2) < 0


class TestExactDecisions:
    """The sign rule of verify's region checks, and the two decisions built on it."""

    @pytest.mark.parametrize("coeffs, q, strict, nonstrict", [
        ((2, -2, 1), 0, True, True),  # vertex t = 1 inside, discriminant < 0
        ((1, -2, 1), 0, False, True),  # discriminant = 0: a double root at the vertex
        ((2, -3, 1), 0, False, False),  # discriminant > 0: roots 1 and 2
        ((2, -2, 1), Fraction(-1, 4), True, True),  # the same vertex inside a bounded fibre
        ((25, -10, 1), Fraction(-1, 4), True, True),  # vertex 5 past T = 4: decreasing to P(4) = 1
        ((2, -1, 0), Fraction(-1, 2), True, True),  # root at T = 2, approached from above
        ((2, -3, 1), Fraction(-1, 2), False, False),  # root at T = 2 with positive slope, negative on (1, 2)
        ((4, -4, 1), Fraction(-1, 2), True, True),  # double root at T = 2
        ((1, 0, -1), 0, False, False),  # c2 < 0 on an unbounded fibre
        ((1, 0, -1), Fraction(1, 2), False, False),
        ((1, 0, -1), -2, True, True),  # c2 < 0, T = 1/2: P(T) = 3/4
        ((1, 1, 0), 0, True, True),  # linear
        ((1, -1, 0), 0, False, False),
        ((1, -1, 0), -1, True, True),  # linear with its root at T = 1
        ((0, 1, 0), 0, False, True),
        ((1, 0, 0), 0, True, True),  # constant
        ((0, 0, 0), 0, False, True),
        ((-1, 0, 0), Fraction(-1, 2), False, False),
    ])
    def test_sign_rule_on_hand_quadratics(self, coeffs, q, strict, nonstrict):
        coeffs, q = tuple(map(Fraction, coeffs)), Fraction(q)
        assert _sign_holds(coeffs, q, True) is strict
        assert _sign_holds(coeffs, q, False) is nonstrict

    @staticmethod
    def _fraction_sign_holds(coefficients, q, strict):
        """The reference: the sign rule on Fractions, with the vertex and the end T = -1/q as values."""
        c0, c1, c2 = coefficients
        holds = (lambda v: v > 0) if strict else (lambda v: v >= 0)
        end = -1 / q if q < 0 else math.inf
        vertex = -c1 / (2 * c2) if c2 > 0 else 0
        if not holds(c0) or (0 < vertex < end and not holds(c0 + c1 * vertex / 2)):
            return False
        return c0 + (c1 + c2 * end) * end >= 0 if q < 0 else c2 > 0 or (c2 == 0 and c1 >= 0)

    def test_integer_decisions_match_the_fraction_rule(self):
        # dyadic p = k/8 with q on the region boundaries (rounded to floats) and 1/64 off them
        points = []
        for k in range(-80, 48):
            p = k / 8
            curves = [0.0, 1 - p, -2 * p] + [float(f(p)) for f, pole in ((hyperbola_lambda, -8), (hyperbola_nu, -2))
                                             if p != pole]
            points += [(p, q + dq) for q in curves for dq in (-1 / 64, 0.0, 1 / 64)]
        assert len(points) == 1914
        for p, q in points:
            exact = Params(Fraction(p), Fraction(q))
            polys = [poly(exact).coefficients for poly in (poly_P, poly_Q)]
            for strict in (True, False):
                p_holds, q_holds = (self._fraction_sign_holds(c, exact.q, strict) for c in polys)
                for n in (2, 3, 4):
                    assert _exact_vertical(Params(p, q), n, strict) is (p_holds and (n == 2 or q_holds)), (p, q, n)

    def test_denormal_q_nonneg_decision(self):
        # P = 4 + 4qt - qt^2 turns negative near t ~ 9e161, where A and B underflow
        for n in (2, 3):
            for c in (0, 1):
                assert not _exact_nonneg(Params(2, 5e-324), n, c)
                assert not nonneg_sectional(Params(2, 5e-324), n, c)


class TestNonnegSectional:
    def test_boundary_case(self):
        assert nonneg_sectional(Params(2, -1), 3, Fraction(16, 3))

    def test_cheeger_gromoll_large_c_fails(self):
        assert not nonneg_sectional(Params(1, 1), 3, 2)

    def test_c0_equals_delta0(self):
        assert nonneg_sectional(Params(1, 0), 3, 0)
        assert nonneg_sectional(Params(0, 0), 3, 0)  # Delta_Z includes p = 0
        assert not nonneg_sectional(Params(3, 0), 3, 0)

    def test_negative_c_always_false(self):
        assert not nonneg_sectional(Params(1, 1), 3, -1)

    def test_witness_both_directions_spot(self):
        for (p, q, n, c) in [(2, -1, 3, 1.0), (1, 2, 2, 1.0), (2, 0, 3, 1.0)]:
            assert nonneg_sectional(Params(p, q), n, c)
            assert sectional_witness_min(Params(p, q), n, c) >= -1e-9
        for (p, q, n, c) in [(1, 1, 3, 2.0), (3, 0, 3, 0.0), (2, -1, 3, 6.0)]:
            assert not nonneg_sectional(Params(p, q), n, c)
            assert sectional_witness_min(Params(p, q), n, c) < -1e-9

    def test_witness_probes_past_1e3_for_q_nonnegative(self):
        # Q(t) = 4.00052 - 0.00052 t changes sign near t = 7.7e3, so the
        # vertical planes orthogonal to e turn negative only beyond it
        assert not nonneg_sectional(Params(2.00026, 0), 3, 1)
        assert sectional_witness_min(Params(2.00026, 0), 3, 1) < -1e-9


class TestFibreAsRotationallySymmetric:
    """On a fibre, with r = |e| and t = r^2, h is a(r)^2 dr^2 + b(r)^2 g_S, a = (1+t)^(-p/2) (1+qt)^(1/2) and
    b = (1+t)^(-p/2) r: its radial curvature -(ab)^-1 d/dr(b'/a) and tangential curvature (1 - (b'/a)^2)/b^2
    are the families vv_through and vv_perp."""

    def test_curvatures_from_a_and_b_are_the_closed_forms(self):
        sp = pytest.importorskip("sympy")
        p, q = sp.symbols("p q", real=True)
        r = sp.symbols("r", positive=True)
        t, L = r * r, sp.Function("L")(r)  # L = (1+t)^(-p/2), so L' = -p r L/(1+t) and L^2 (1+t)^p = 1
        dL = -p * r * L / (1 + t)
        assert sp.diff((1 + t) ** (-p / 2), r) * (1 + t) / (1 + t) ** (-p / 2) == -p * r
        a, b = L * sp.sqrt(1 + q * t), L * r
        rules = {sp.Derivative(L, (r, 2)): sp.diff(dL, r).subs(sp.Derivative(L, r), dL), sp.Derivative(L, r): dL}
        slope = sp.diff(b, r) / a  # b'/a
        k_rad = (-sp.diff(slope, r) / (a * b)).subs(rules)
        k_tan = ((1 - slope**2) / b**2).subs(rules)
        P, Q = (sum(coef * t**k for k, coef in enumerate(poly)) for poly in pq_coefficients(p, q))
        assert sp.cancel(k_rad * L**2 * (1 + t) ** 2 - P / (1 + q * t) ** 2) == 0  # (1+t)^(p-2) (1+qt)^-2 P
        assert sp.cancel(k_tan * L**2 * (1 + t) ** 2 - Q / (1 + q * t)) == 0  # (1+t)^(p-2) (1+qt)^-1 Q
        # b'/a = (1 + (1-p) t)/((1+t) sqrt(1+qt)), and 1 - (b'/a)^2 has the sign of Q
        assert sp.cancel(slope.subs(rules) * (1 + t) * sp.sqrt(1 + q * t) - (1 + (1 - p) * t)) == 0
        assert sp.expand((1 + t) ** 2 * (1 + q * t) - (1 + (1 - p) * t) ** 2 - t * Q) == 0
        # the families, from weights_AB's A and B, are these curvatures to rounding
        closed = sp.lambdify((p, q, r), [k.subs(L, (1 + t) ** (-p / 2)) for k in (k_rad, k_tan)], "math")
        rng = np.random.default_rng(12)
        for pv, qv, u in rng.uniform((-4, -4, 0), (4, 4, 1), (30, 3)):
            tv = 3 * u if qv >= 0 else -0.99 * u / qv
            fam = radial_planes(Params(pv, qv), 0.0, np.array([tv]))
            assert_allclose([fam.vv_through[0], fam.vv_perp[0]], closed(pv, qv, math.sqrt(tv)), rtol=1e-11)


class TestEndpointBounds:
    """Lifted planes of orthonormal base pairs lie within the radial families.

    Curvatures come from the assembled tensor (sectional_plane), the bounds
    from the closed-form families at the same radius.
    """

    def test_lifted_planes_bounded_by_radial_families(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            n = int(rng.integers(2, 5))
            params = Params(rng.uniform(-3, 4), rng.uniform(-2, 3))
            c = rng.uniform(-2, 2)
            q = float(params.q)
            d = rng.standard_normal(n)
            t = rng.uniform(0, 3.0 if q >= 0 else -0.9 / q)
            e = FiberPoint(math.sqrt(t) * d / np.linalg.norm(d))
            X, Y = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
            fam = radial_planes(params, c, np.array([e.t]))
            base = BaseCurvature.space_form(c)

            def K(A, B):
                return sectional_plane(params, e, A, B, base)

            def tol(*vals):
                return 1e-9 * max(1.0, *(abs(float(v)) for v in vals))

            k_v = K(LiftVector.vertical(X), LiftVector.vertical(Y))
            lo, hi = sorted((float(fam.vv_perp[0]), float(fam.vv_through[0])))
            assert lo - tol(lo, hi) <= k_v <= hi + tol(lo, hi), (params, n, c, t, k_v, lo, hi)
            k_h = K(LiftVector.horizontal(X), LiftVector.horizontal(Y))
            assert k_h >= fam.hh[0] - tol(fam.hh[0]), (params, n, c, t, k_h, fam.hh[0])
            for A, B in ((X, Y), (Y, X)):
                assert K(LiftVector.horizontal(A), LiftVector.vertical(B)) >= -tol(c * c)


class TestScalarSufficient:
    def test_examples(self):
        assert scalar_pos_sufficient(Params(1, 1), 2, 3) == "a"
        assert scalar_pos_sufficient(Params(2, -1), 3, 4) == "d"
        assert scalar_pos_sufficient(Params(1, 1), 3, -5) is None

    def test_c0_routes_through_regions(self):
        assert scalar_pos_sufficient(Params(1, 1), 3, 0) == "gamma"
        assert scalar_pos_sufficient(Params(3, -1), 2, 0) == "gamma_prime"
        assert scalar_pos_sufficient(Params(3, -1), 3, 0) is None

    def test_labels_are_sound_on_grid(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 60:
            p, q = rng.uniform(-2, 5), rng.uniform(-2, 3)
            n = int(rng.integers(2, 4))
            c = float(rng.uniform(-5, 30))
            if scalar_pos_sufficient(Params(p, q), n, c) is None:
                continue
            assert scalar_grid_min(Params(p, q), n, c)[0] > 0, (p, q, n, c)
            checked += 1

    @staticmethod
    def _window_pin_points() -> list:
        """Float (p, q) on q = 0, q = 1 - p, q = nu(p), inside cases (d) and (e), and at p = 1, 2."""
        rng = np.random.default_rng(16)
        pts = [(1.0, 0.5), (1.0, 2.0), (1.0, 0.0), (2.0, 0.0), (2.0, -1.0), (2.0, -0.5), (2.0, -0.25)]
        pts += [(float(p), 0.0) for p in rng.uniform(1, 2, 8)]
        for _ in range(16):
            p = float(rng.uniform(1.05, 6))
            nu = float(hyperbola_nu(p))
            pts += [(p, 0.0), (p, 1 - p), (p, nu), (p, nu * rng.uniform(0.02, 0.98)),
                    (p, 1 - p + (nu - (1 - p)) * rng.uniform(0.02, 0.98))]
        return pts

    def test_windows_pinned(self):
        # sha256 of float.hex of (center, radius) of every case whose region holds, n = 2, 3, 5;
        # recorded before each case had its own r, when all cases shared one function of five square roots
        lines = []
        for p, q in self._window_pin_points():
            for n in (2, 3, 5):
                for case, region, window in sufficient_cases(Fraction(p), Fraction(q), n):
                    if region:
                        center, radius = window()
                        lines.append(f"{p!r},{q!r},{n},{case},{float(center).hex()},{float(radius).hex()}\n")
        assert len(lines) == 160
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "8a7218231a45c826c9ba25c6806e5386cf841392df5bbcbcd22b143fcf9eb673"

    def test_d_and_e_windows_coincide_on_nu(self):
        # on q = nu(p), D = 6 p q (p + q - 1) and 6 p q = 4 (p - 1)(q - 1), so both r equal (p + q - 1)/mu(p)
        for p in (Fraction(3, 2), 2, 3, Fraction(27, 10)):
            windows = {case: window() for case, region, window in sufficient_cases(p, hyperbola_nu(p), 2) if region}
            assert_allclose(windows["d"], windows["e"], rtol=1e-12)

    def test_window_closed_forms(self):
        # (p, q) = (3, -1/2): D = p q (p q + 8 p + 8 q - 8) = -15.75, mu(3) = 27/4
        windows = {case: window() for case, region, window in sufficient_cases(3, Fraction(-1, 2), 2) if region}
        r = -15.75 / (4 * 2 * -1.5 * 6.75)
        assert_allclose(windows["d"], (13.5, 13.5 * math.sqrt(1 + r)), rtol=1e-15)
        # on p + q = 1, case (e)'s r is 0: the window is (0, 4 mu(p))
        windows = {case: window() for case, region, window in sufficient_cases(2, -1, 2) if region}
        assert windows["e"] == (8.0, 8.0)

    @pytest.mark.parametrize("p, q", [(Fraction(7, 5), Fraction(-2, 5)), (Fraction(201, 200), Fraction(-1, 200))])
    def test_case_e_on_the_exact_line(self, p, q):
        # p + q = 1 exactly, but float(p) + float(q) rounds below 1
        assert float(p) + float(q) < 1
        assert classify(Params(p, q), 2, 1).scalar_condition == "e"
        assert scalar_grid_min(Params(p, q), 2, 1)[0] > 0

    def test_case_d_window_where_float_p_is_1(self):
        # exact p > 1 with float(p) == 1: case (d)'s float r divides by float(p) - 1 = 0, so r is taken on
        # the exact p and q (about 4e-21 at p = 1 + 10^-20), and the window is |c - 2| < 2
        for p in (1 + Fraction(1, 10**20), 1 + Fraction(1, 10**400)):
            q = hyperbola_nu(p) / 2
            windows = {case: window() for case, region, window in sufficient_cases(p, q, 2) if region}
            assert windows == {"d": (2.0, 2.0)}
            for c in (-1, 4):
                assert scalar_pos_sufficient(Params(p, q), 2, c) is None
            for c in (Fraction(1, 3), 1, 3):
                assert scalar_pos_sufficient(Params(p, q), 2, c) == "d"
                assert scalar_grid_min(Params(p, q), 2, c)[0] > 0


class TestSearches:
    def test_thm1_examples(self):
        res = find_params_thm1(2, -1)
        assert (float(res.params.p), float(res.params.q)) == (2.0, 0.0)
        res = find_params_thm1(3, 1)
        assert (float(res.params.p), float(res.params.q)) == (2.0, -1.0)
        res = find_params_thm1(2, 0)
        assert (float(res.params.p), float(res.params.q)) == (1.0, 0.0)

    def test_thm1_certificates_positive(self):
        for n, c in [(2, -4), (3, 7), (5, -2)]:
            res = find_params_thm1(n, c)
            assert res.certificate["min_scalar_on_grid"] > 0

    def test_thm1_large_p_past_float_overflow(self):
        # the accepted p lies past p ~ 143, where p**p overflows a float
        for n in (3, 5):
            res = find_params_thm1(n, -100)
            assert float(res.params.p) > 143
            assert res.certificate["min_scalar_on_grid"] > 0

    def test_certificate_counts_overflowed_radii(self):
        # p = 211.4: (1+t)^(p-2) overflows from t ~ 27.8 on, so part of the grid reads +inf
        assert find_params_thm1(2, -300).certificate["nonfinite_on_grid"] == 3255
        assert "nonfinite_on_grid" not in find_params_thm1(3, -1).certificate

    @pytest.mark.parametrize("c, p, k", [(1400, 515.6, 5136), (-300, 540.4, 5384)])
    def test_thm1_past_5000_grid_steps(self, c, p, k):
        # the least k on p = 2 + k/10, past the 5000 steps a plain ladder would walk
        res = find_params_thm1(3, c)
        assert float(res.params.p) == p and res.certificate["min_scalar_on_grid"] > 0
        assert res.certificate["path"].startswith(f"grid p=2.0+0.1k, {k} rejections,")

    def test_thm1_bound_on_p(self):
        with pytest.raises(ValueError, match=r"\(c = 1e\+09\)$"):
            find_params_thm1(3, 1e9)

    @pytest.mark.parametrize("c, named", [(1e300, "c = 1e+300"), (10**5, "c = 100000")])
    def test_thm3_bound_on_starting_p(self, c, named):
        # c > 0, n >= 3: no starting p <= 2 + THM3_K_MAX has mu(p) > c/(2n), so the search refuses at once
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(named)):
            find_params_thm3(3, c)
        assert time.perf_counter() - start < 1.0

    def test_thm3_starting_p_is_the_least_above_the_threshold(self):
        # the starting p a step-by-step walk from p = 2 finds, up to the bound 2 + THM3_K_MAX and not past it
        p_max = 2 + THM3_K_MAX
        edge = 2 * 3 * float(mu(p_max))  # mu(p_max) > c/6 fails exactly at c = edge
        for c in (1e-9, 1, 5.5, 100, 693.1458758850989, math.nextafter(edge, 0)):
            p0 = 2
            while float(mu(p0)) <= c / 6:
                p0 += 1
            assert next(_thm3_candidates(3, c))[2].startswith(f"started p={p0},"), c
        assert p0 == p_max
        with pytest.raises(ValueError, match=f"no starting p <= {p_max} "):
            next(_thm3_candidates(3, edge))

    def test_thm3_bound_on_starting_p_for_negative_c(self):
        # n = 3, c < 0: p0 = ceil(1 - 9c/8) is 514 = 2 + 2^9 at c = -456, the last start; 516 at c = -457 is refused
        assert next(_thm3_candidates(3, -456))[2].startswith("started p=514,")
        with pytest.raises(ValueError, match=re.escape("passes 514 (n = 3, c = -457)")):
            next(_thm3_candidates(3, -457))

    def test_certificate_grid_text(self):
        # q >= 0: the shared log grid to 1e6; q < 0 (p = 46, q = -45): [0, T) with T = 1/45
        pos, neg = find_params_thm3(3, -1), find_params_thm1(5, -20)
        assert pos.certificate["grid"] == "10000-point log grid on the admissible radii (t <= 1e6)"
        for res in (pos, neg):
            grid, text = _t_grid(res.params), res.certificate["grid"]
            assert int(text.split("-point")[0]) == len(grid)
        assert float(neg.params.q) == -45 and text.endswith("[0, T), T = -1/q = 0.0222222")
        assert len(grid) == 10000 and grid[0] == 0 and grid[1] < 1e-8 and grid[-1] < 1 / 45

    def test_coeff_polys_in_q_match_hand_expansion(self):
        # the t^2 and t^1 coefficients of C = 2P + (n-2)(1+qt)Q, expanded by hand in q
        for n in range(2, 7):
            for p in range(1, 61):
                a = (0, n + 2 * (n - 3) * p - (n - 2) * p * p, 2 * (n - 2))
                b = ((n - 2) * p * (2 - p), 2 * (n + (n - 1) * p), n - 2)
                assert _coeff_polys_in_q(p, n) == (a, b), (p, n)

    def test_thm3_zero_curvature_returns_cheeger_gromoll(self):
        res = find_params_thm3(3, 0)
        assert (float(res.params.p), float(res.params.q)) == (1.0, 1.0)

    def test_thm3_rejects_negative_G_candidates(self):
        # (p,q) = (1,0) has G = [3, -5/2] at n=3, c=-1, so the search moves on
        g = poly_G(Params(1, 0), 3, -1)
        assert not all(v > 0 for v in g.coefficients)
        res = find_params_thm3(3, -1)
        assert all(v > 0 for v in res.certificate["G_coefficients"])
        assert float(res.params.q) >= 0

    def test_thm3_positive_coefficients_imply_positive_values(self):
        res = find_params_thm3(3, -1)
        g = poly_G(res.params, 3, -1)
        for t in (0, 0.5, 1, 10, 100):
            assert g.evaluate(t) > 0

    def test_general_route(self):
        c_used, res = find_params_general(3, 0, 0)
        assert c_used <= -1
        assert res.certificate["min_scalar_on_grid"] > 0
        c_used, res = find_params_general(3, 30, 0)
        assert c_used <= -1  # the sqrt term dominates the min downward
        with pytest.raises(ValueError):
            find_params_general(3, 0, -1)

    @pytest.mark.parametrize("n", [0, 1])
    def test_general_route_needs_n_at_least_2(self, n):
        with pytest.raises(ValueError, match="n >= 2 required"):
            find_params_general(n, 0, 0)


def _positivity_predicate(params, n, c):
    """The set of :func:`scalar_positivity_interval` as a predicate on c: the scalar curvature's grid
    minimum is positive, and for q >= 0 its limit as t -> infinity is nonnegative (here p >= 1)."""
    p, q = float(params.p), float(params.q)
    tail = q < 0 or n * c - 0.5 * c * c * (p == 1) + _phi_limit(params, n) >= 0
    return scalar_grid_min(params, n, c)[0] > 0 and tail


class TestInterval:
    def test_h11_surface(self):
        lo, hi = scalar_positivity_interval(Params(1, 1), 2)
        assert abs(lo) <= 1e-9 and abs(hi - 4) <= 1e-9

    def test_h11_dimension3(self):
        lo, hi = scalar_positivity_interval(Params(1, 1), 3)
        assert abs(lo - (3 - math.sqrt(11))) <= 1e-9
        assert abs(hi - (3 + math.sqrt(11))) <= 1e-9

    def test_h10_contains_0_4(self):
        lo, hi = scalar_positivity_interval(Params(1, 0), 2)
        assert lo <= 1e-5 and hi >= 4 - 1e-5

    def test_seed_failure_reports_nan(self):
        lo, hi = scalar_positivity_interval(Params(3, 0), 3)  # not in Gamma: fails at c=0
        assert math.isnan(lo) and math.isnan(hi)

    def test_unsupported_family_rejected(self):
        # q < 0 < 1 - p - q is answered, not refused: phi -> -inf at T = -1/q for every c, as the
        # oracle's scalar curvature at 0.99 T confirms
        for p, q in ((1, -0.5), (0.5, -0.25), (1.5, -0.75), (0, -2)):
            for n in (2, 3):
                assert all(math.isnan(v) for v in scalar_positivity_interval(Params(p, q), n))
                for c in (-1.0, 0.0, 1.0):
                    s = _oracle_record(Params(p, q), n, c, 0.99 / -q).numeric
                    assert -1.2e5 < s < -6e3, (p, q, n, c, s)

    def test_ball_bundle_end_decided_by_p_plus_q(self):
        # a seeded sample below the line p + q = 1 gives (nan, nan), and at its first four points the
        # oracle's scalar curvature at 0.99 T is negative; on the line the end is +inf, exactly
        rng = np.random.default_rng(3)
        for k in range(50):
            q = -rng.uniform(0.05, 3)
            p = 1 - q - rng.uniform(0.05, 3)
            for n in (2, 3):
                assert all(math.isnan(v) for v in scalar_positivity_interval(Params(p, q), n)), (p, q, n)
                for c in (-1.0, 0.0, 1.0) if k < 4 else ():
                    assert _oracle_record(Params(p, q), n, c, 0.99 / -q).numeric < 0, (p, q, n, c)
        line = Params(Fraction(19, 10), Fraction(-9, 10))  # float(p) + float(q) rounds below 1
        assert _phi_limit(line, 2) == math.inf and _phi_limit(Params(2, -1 - 1e-12), 2) == -math.inf
        lo, hi = scalar_positivity_interval(line, 2)
        assert -2.881 < lo < -2.879 and 20.13 < hi < 20.14
        assert all(math.isnan(v) for v in scalar_positivity_interval(Params(2, -1 - 1e-12), 2))

    @pytest.mark.parametrize("q", [-1e-300, -1e-12, -1e-9, -1e-6])
    def test_small_negative_q_meets_q_0(self, q):
        # the q < 0 grid reaches down to 1e-8 whatever T is, so the ends tend to those of q = 0
        ends, zero = scalar_positivity_interval(Params(2, q), 2), scalar_positivity_interval(Params(2, 0), 2)
        assert zero == pytest.approx((-3.3137085, 19.3137094), abs=1e-7)
        assert ends == pytest.approx(zero, abs=1e-4)
        assert scalar_grid_min(Params(2, q), 2, 100)[0] < 0  # needs radii near t = 1 whatever T is

    # float.hex of both ends for the cases of scripts/positivity_intervals.py
    ENDS = {
        (1, 1, 2): ("0x0.0p+0", "0x1.0000000000000p+2"),
        (1, 1, 3): ("-0x1.443949feb79a1p-2", "0x1.9443949feb79ap+2"),
        (1, 0, 2): ("0x0.0p+0", "0x1.0000000000000p+2"),
        (1, 0, 3): ("-0x1.443949feb79a1p-2", "0x1.9443949feb79ap+2"),
        (2, 0, 2): ("-0x1.a82799d715583p+1", "0x1.3504f41eb0fafp+4"),
        (2, 0, 3): ("-0x1.bef7ac80a733cp+1", "0x1.b7def6e5ca5e5p+4"),
        (1, 2, 2): ("0x0.0p+0", "0x1.0000000000000p+2"),
        (1, 2, 3): ("-0x1.443949feb79a1p-2", "0x1.9443949feb79ap+2"),
        (2, 1, 2): ("nan", "nan"),
        (2, 1, 3): ("-0x1.e33b2038f796ep+0", "0x1.a64e8e72fc061p+4"),
        (3, 2, 2): ("nan", "nan"),
        (3, 2, 3): ("-0x1.0595ad24092d3p+2", "0x1.697b0d20adbc7p+5"),
        (2, -1, 2): ("-0x1.7fb2531fd6c24p+1", "0x1.5c490555e7ad0p+4"),
        (2, -1, 3): ("-0x1.8000000000000p+1", "0x1.de9b6049bb32ap+4"),
        (3, -2, 2): ("-0x1.0000000000000p+2", "0x1.2ea244fbd2f8dp+5"),
        (3, -2, 3): ("-0x1.0000000000000p+2", "0x1.9c9a3ec75dc07p+5"),
    }

    @pytest.mark.parametrize("p, q, n", list(ENDS))
    def test_ends_pinned(self, p, q, n):
        assert tuple(v.hex() for v in scalar_positivity_interval(Params(p, q), n)) == self.ENDS[p, q, n]

    def test_ends_are_the_ends_of_the_predicate(self):
        # 1e-9 relative inside each finite end the predicate holds, 1e-9 outside it fails
        for p, q, n in self.ENDS:
            lo, hi = scalar_positivity_interval(Params(p, q), n)
            for end, inward in ((lo, 1), (hi, -1)):
                if math.isnan(end):
                    continue
                delta = 1e-9 * max(1.0, abs(end))
                assert _positivity_predicate(Params(p, q), n, end + inward * delta), (p, q, n, end)
                assert not _positivity_predicate(Params(p, q), n, end - inward * delta), (p, q, n, end)

    def test_set_without_zero(self):
        # phi -> -2 at p = 2, q = 1, n = 2: the tail 2c - 2 >= 0 closes the set below at c = 1
        (lo, hi), (tail_lo, tail_hi) = _positivity_set(Params(2, 1), 2)
        assert (tail_lo, tail_hi) == (1.0, math.inf) and lo < 1.0
        assert 17.70 < hi < 17.71
        assert all(math.isnan(v) for v in scalar_positivity_interval(Params(2, 1), 2))
        assert scalar_grid_min(Params(2, 1), 2, 1.01)[0] > 0 and scalar_grid_min(Params(2, 1), 2, 5)[0] > 0
        assert scalar_grid_min(Params(2, 1), 2, 17.8)[0] < 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_p_below_1_is_c_0_alone(self, n):
        # f -> inf as t -> infinity: the tail keeps c = 0 alone, inside a grid interval around it
        (lo, hi), tail = _positivity_set(Params(0.5, 1), n)
        assert lo < 0 < hi and tail == (0.0, 0.0)
        assert scalar_positivity_interval(Params(0.5, 1), n) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_sasaki_reports_nan(self, n):
        # phi = 0 at every radius: the grid's open interval starts at c = 0, which it leaves out
        assert _positivity_set(Params(0, 0), n)[0][0] == 0.0
        assert all(math.isnan(v) for v in scalar_positivity_interval(Params(0, 0), n))

    def test_large_p_ends_are_finite(self):
        # the lower end is -phi(0)/n at t = 0; the upper end is about 8.2e52
        with np.errstate(over="ignore"):  # (1 + t)^p overflows at p = 1e10
            lo, hi = scalar_positivity_interval(Params(1e10, 0), 2)
        assert lo == -2e10 and 0 < hi < math.inf

    def test_exact_inputs_evaluate_as_floats(self):
        # phi expands C on float(p), float(q): past the float range the ends read nan, and an exact
        # point has the bits of its float twin
        assert all(math.isnan(v) for v in scalar_positivity_interval(Params(3, 10**200), 3))
        exact, floats = Params(Fraction(5, 2), Fraction(1, 3)), Params(2.5, 1 / 3)
        assert scalar_positivity_interval(exact, 3) == scalar_positivity_interval(floats, 3)

    def test_script_tabulates_the_pinned_cases(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "positivity_intervals.py"
        spec = importlib.util.spec_from_file_location("positivity_intervals", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert [(p, q, n) for p, q in script.CASES for n in (2, 3)] == list(self.ENDS)
        assert script.main() == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 16 and sum("not positive at c=0" in row for row in rows) == 2

    @pytest.mark.parametrize("q", [1e-170, 1e-200, 5e-324])
    def test_underflowing_q_keeps_the_leading_term_of_C(self, q):
        # q * q and the coefficient (n - 2) q^2 of C underflow in floats; phi's limit still reads C / q^2
        for p, n in ((1, 2), (1, 3), (2, 3)):
            assert scalar_positivity_interval(Params(p, q), n) == scalar_positivity_interval(Params(p, 1e-160), n)
        assert all(math.isnan(v) for v in scalar_positivity_interval(Params(2, q), 2))  # phi -> -2/q


class TestRadiusGrid:
    # sha256 of the grid bytes as built afresh on every call: the shared and read-only arrays keep every bit
    SHA256 = {
        0: "b148699cf44ad744d94b6742ccb901c8a57f7dbe9945862df1495c0d92c7b1e8",
        0.5: "b148699cf44ad744d94b6742ccb901c8a57f7dbe9945862df1495c0d92c7b1e8",
        -0.5: "ca6801d3e2ff1c6935892466534777f6ba37bc5b5d13963fb5355b29b76e49f9",
        -2: "1471f26f07c5feec526d588485552c9926fe8a3d976f43f5be89dcf11719ecf0",
        -1e-3: "54bc10f098439495d89571acb0ff373b28c65ad8a456c010a4eded425ee14914",
    }

    @pytest.mark.parametrize("q", list(SHA256))
    def test_grid_pinned(self, q):
        assert hashlib.sha256(_t_grid(Params(1, q)).tobytes()).hexdigest() == self.SHA256[q]

    def test_bounded_grid_is_sorted_without_a_sort(self):
        # the log grid g below T u_1, then T u with u = g/(1 + g): the parts do not overlap, so their
        # concatenation is np.unique's; the first positive radius is at most 1e-8, the last has 1 + q t ~ 1e-6
        g = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, 9999)])
        u = (g / (1 + g))[1:]
        for q in -np.logspace(-300, 300, 200):
            tb = -1.0 / q
            grid = _t_grid(Params(1, q))
            assert grid.tobytes() == np.unique(np.concatenate([g[g < tb * u[0]], tb * u])).tobytes(), q
            assert 10000 <= len(grid) <= 19999 and (np.diff(grid) > 0).all()
            assert grid[1] <= 1e-8 and 1e-7 <= 1 + q * grid[-1] < 2e-6
        assert len(_t_grid(Params(1, -1))) == 10000 and len(_t_grid(Params(1, -1e-14))) == 19998

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [-5e-324, -1e-310])
    def test_denormal_negative_q_reads_the_unbounded_grid(self, q):
        # -1/q overflows: T = inf, so the q >= 0 grid; nothing raises, and (2, q) has the (2, 0) interval
        params = Params(2, q)
        assert _t_grid(params) is _GRID_UNBOUNDED
        for n in (2, 3):
            assert scalar_positivity_interval(params, n) == scalar_positivity_interval(Params(2, 0), n)
            vertical_curvature_minimum(params, n), sectional_witness_min(params, n, 1)
            assert scalar_grid_min(params, n, 1)[0] > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q", [-5e-324, -1e-310])
    def test_denormal_negative_q_minima_agree_with_the_exact_rules(self, q):
        # on the q >= 0 grid that T = inf gives, n = 2: Gamma' and Delta'_c hold, and the minima read
        # P(0) = 4 > 0 and 0 (a vertizontal plane at t = 0), with no overflow on the way
        params = Params(2, q)
        assert vertical_positivity(params, 2) and vertical_curvature_minimum(params, 2) > 0
        for c in (0, 1):
            assert nonneg_sectional(params, 2, c) and sectional_witness_min(params, 2, c) == 0

    def test_sampled_minima_read_the_one_grid(self):
        # every plane-family and scalar-curvature evaluation of the module takes _t_grid(params) as
        # its radii, so no private radius set reaches past the certificate grid
        tree = ast.parse(Path(regions.__file__).read_text())
        evaluations = ("radial_planes", "scalar_curvature_spaceform", "scalar_parts")
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func) in evaluations]
        assert {ast.unparse(node.func) for node in calls} == set(evaluations)
        assert all(ast.unparse(node.args[-1]) == "_t_grid(params)" for node in calls), [ast.unparse(n) for n in calls]

    def test_unbounded_grid_is_shared_and_read_only(self):
        grid = _t_grid(Params(1, 0))
        assert _t_grid(Params(3, 0.5)) is grid
        with pytest.raises(ValueError):
            grid[0] = 1.0


@pytest.mark.parametrize("c", [-1, 0, 1])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [-5e-324, -1e-310, -0.0, 0.0, 5e-324, 1e-310])
@pytest.mark.parametrize("p", [-8, -2, 1, 2])
def test_edge_table(p, q, n, c):
    # the poles of lambda and nu, n = 2 against n >= 3, q = +-0 and denormal q of either sign:
    # every decision and every sampled reading answers, and only the poles themselves raise
    params = Params(p, q)
    classify(params, n, c), vertical_positivity(params, n), nonneg_sectional(params, n, c)
    scalar_pos_sufficient(params, n, c), scalar_grid_min(params, n, c), scalar_positivity_interval(params, n)
    pole = {-8: hyperbola_lambda, -2: hyperbola_nu}.get(p)
    if pole is not None:
        with pytest.raises(DomainError):
            pole(p)


def test_delta_monotone_in_c_on_grid():
    for p in np.linspace(-3, 4, 30):
        for q in np.linspace(-3, 3, 30):
            v6 = classify(Params(p, q), 3, 6).in_delta
            v53 = classify(Params(p, q), 3, Fraction(16, 3)).in_delta
            v1 = classify(Params(p, q), 3, 1).in_delta
            assert not v6 or v53
            assert not v53 or v1


class TestOmega:
    def test_omega_membership_examples(self):
        assert classify(Params(3, 0.3), 3).in_omega  # |p| > 2 and q > kappa1(3) = 1/4
        assert not classify(Params(3, 0.2), 3).in_omega
        assert classify(Params(1, 1), 3).in_omega
        assert not classify(Params(2, -1), 3).in_omega

    @given(p=finite, q=finite)
    @settings(max_examples=200, deadline=None)
    def test_gamma_plus_inside_omega(self, p, q):
        # the q > 0 component of the positivity region generates no new
        # conditions: it sits inside the transverse-positivity region
        v = classify(Params(p, q), 3)
        if v.gamma_component.startswith("gamma_plus"):
            assert v.in_omega


def _classify_digest_points() -> list:
    """(p, q) in steps of 1/4, plus points on the region boundaries and the p cuts."""
    quarter = [Fraction(k, 4) for k in range(-36, 13)]
    pts = {(p, q) for p in quarter for q in quarter if -3 <= q <= 3}
    pts |= {(p, hyperbola_lambda(p)) for p in quarter if p != -8}
    pts |= {(p, -2 * p) for p in quarter}
    pts |= {(p, 1 - p) for p in quarter}
    pts |= {(Fraction(p), Fraction(k, 8)) for p in (-8, -2, 0, 1, 2) for k in range(-24, 25)}
    return sorted(pts)


def test_classify_record_digest():
    # sha256 of every classify record plus the vertical-positivity and K >= 0
    # verdicts on a grid through the region boundaries; the digest was
    # recorded before the region rules were merged, and pins every bit.
    # The two verdicts also equal verify's exact decisions from P, Q and mu
    # (K >= 0 at c in {-1} and DELTA_C).
    h = hashlib.sha256()
    for p, q in _classify_digest_points():
        params = Params(p, q)
        for n in (2, 3):
            vertical = vertical_positivity(params, n)
            assert vertical == _exact_vertical(params, n), (p, q, n)
            h.update(f"{p},{q},{n},{vertical}\n".encode())
            for c in (None, -1, 0, Fraction(1, 2), 1, Fraction(4, 3), 2, 4, Fraction(16, 3), 6):
                rec = json.dumps(classify(params, n, c).as_dict())
                nonneg = None if c is None else nonneg_sectional(params, n, c)
                if c in (-1,) + DELTA_C:
                    assert nonneg == _exact_nonneg(params, n, c), (p, q, n, c)
                h.update(f"{c},{rec},{nonneg}\n".encode())
    assert h.hexdigest() == "8a00ed91ee23e2a4141c0ccc85870495e0c282799730532339ad9ce119b26003"


def test_plane_family_minima_digest():
    # sha256 of repr of the vertical minimum and the lifted-plane witness
    # minimum at 200 seeded points (every fifth on q = 0, every seventh on
    # p + q = 1), n = 2 and 3; recorded when both minima came to read the
    # certificate grid alone and the witness the exact horizontal infimum for
    # every q (13 of the 800 values moved, all witness values, none across -1e-9)
    rng = np.random.default_rng(23)
    h = hashlib.sha256()
    for k in range(200):
        p, q = rng.uniform(-9, 4), rng.uniform(-4, 4)
        q = 0.0 if k % 5 == 0 else (1 - p if k % 7 == 0 else q)
        params, c = Params(p, q), (0, 1, 16 / 3, 6)[k % 4]
        for n in (2, 3):
            pair = (vertical_curvature_minimum(params, n), sectional_witness_min(params, n, c))
            h.update(f"{p!r},{q!r},{n},{pair!r}\n".encode())
    assert h.hexdigest() == "91b445a96db440aaccc628c97f89b774435b1fe0e5134a1eb599366ca0687d5f"


@pytest.mark.parametrize("p_axis, q_axis", [
    ([k / 8 for k in range(-24, 25)], np.arange(-16, 17) / 8),
    ([float(Fraction(-26, 7) + Fraction(k, 7)) for k in range(13)], 4 + np.arange(26) / 5),
], ids=["eighths", "sevenths_fifths"])
def test_delta_grid_verdicts_match_classify(p_axis, q_axis):
    # the eighths put q = 0, q = 1 - p and q = -2p on grid nodes, the sevenths x
    # fifths put float(lambda(p)) there: only the tie path decides those cells
    grid, ties = delta_grid_verdicts(p_axis, q_axis)
    assert ties > 0
    for i, p in enumerate(p_axis):
        for j, q in enumerate(q_axis):
            for c in DELTA_C:
                v = classify(Params(p, q), 3, c)
                want = {"gamma": v.in_gamma, "gamma_prime": v.in_gamma_prime}
                want.update(delta=v.in_delta, delta_prime=v.in_delta_prime)
                for predicate, inside in want.items():
                    key = (predicate, None if predicate.startswith("gamma") else c)
                    assert grid[key][i, j] == inside, (p, q, c, predicate)


def test_suite_regions_passes():
    checks = suite_regions(seed=0)
    assert [r.name for r in checks] == [
        "classifier_vs_bruteforce", "delta_monotone_in_c", "subset_relations", "delta_in_gamma_closure",
        "scalar_sufficiency_sound", "nonneg_sectional_witness", "constructive_searches",
    ]
    assert all(r.ok for r in checks), [r.as_dict() for r in checks if not r.ok]
