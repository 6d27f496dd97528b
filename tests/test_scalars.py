import ast
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from cgm.scalars import (
    DomainError,
    Params,
    as_exact,
    coefficients,
    f_sup,
    f_value,
    hyperbola_lambda,
    hyperbola_nu,
    mu,
    omega,
    omega_q,
    phi,
    poly_C,
    poly_G,
    poly_P,
    poly_Q,
    scalar_curvature_spaceform,
    weights_AB,
)
from cgm import scalars

from cgm.regions import classify, nonneg_sectional

finite = st.floats(min_value=-6, max_value=6, allow_nan=False)
radius = st.floats(min_value=0, max_value=4, allow_nan=False)


def test_omega_values():
    assert omega(0) == 1.0
    assert omega(1) == 0.5
    assert omega(3) == 0.25
    with pytest.raises(DomainError):
        omega(-0.1)


def test_omega_q_values():
    assert omega_q(0, Params(1, -3)) == 1.0
    assert omega_q(2, Params(5, 0)) == 1.0
    assert omega_q(0.5, Params(0, -1)) == 2.0
    with pytest.raises(DomainError):
        omega_q(1.0, Params(0, -1))
    with pytest.raises(DomainError):
        omega_q(1.5, Params(0, -1))


def test_coefficients_sasaki_all_zero():
    for t in (0.0, 0.7, 12.0):
        cs = coefficients(Params(0, 0), t, 3)
        assert cs.A == cs.B == cs.C == cs.alpha == cs.beta == 0.0


def test_coefficients_cheeger_gromoll_origin():
    cs = coefficients(Params(1, 1), 0.0, 3)
    assert_allclose([cs.A, cs.B, cs.C, cs.alpha, cs.beta], [0, 3, -3, 6, 3], atol=1e-15)


def test_coefficients_boundary_limit_p_plus_q_1():
    # A -> (q-1) omega^2 = -1/2 and B -> -q = 1 as t -> 1 for (p,q) = (2,-1)
    cs = coefficients(Params(2, -1), 1 - 1e-8, 3)
    assert_allclose(cs.A, -0.5, rtol=1e-6)
    assert_allclose(cs.B, 1.0, rtol=1e-6)


@pytest.mark.parametrize(
    "p,q,expected",
    [(0, 0, (0, 0, 0)), (1, 1, (3, 3, 0)), (2, -1, (3, -4, 1))],
)
def test_poly_P_coefficients(p, q, expected):
    assert poly_P(Params(p, q)).coefficients == expected


def test_poly_P_roots_for_stereographic_ballbundle():
    spec = poly_P(Params(2, -1))
    assert spec.evaluate(1.0) == 0.0  # root at -1/q when p + q = 1
    assert spec.evaluate(3.0) == 0.0


@pytest.mark.parametrize(
    "p,q,expected",
    [(0, 0, (0, 0, 0)), (2, 0, (4, 0, 0)), (3, 0, (6, -3, 0))],
)
def test_poly_Q_coefficients(p, q, expected):
    assert poly_Q(Params(p, q)).coefficients == expected


def test_poly_Q_sign_change_above_p2():
    assert poly_Q(Params(3, 0)).evaluate(3.0) < 0
    assert all(poly_Q(Params(2, 0)).evaluate(s) == 4 for s in (0, 1, 10))


def test_poly_C_examples():
    assert poly_C(Params(1, 0), 3).coefficients == (6, 1, 0, 0)
    # 2(5+4t-t^2) + (1+t)(5+2t+t^2), cross-checked by evaluating both sides
    spec = poly_C(Params(2, 1), 3)
    assert spec.coefficients == (15, 15, 1, 1)
    for t in (1.0, 2.0):
        direct = 2 * poly_P(Params(2, 1)).evaluate(t) + (1 + t) * poly_Q(Params(2, 1)).evaluate(t)
        assert_allclose(spec.evaluate(t), direct, rtol=1e-14)


@given(p=finite, q=finite)
@settings(max_examples=150, deadline=None)
def test_poly_C_n2_is_twice_P(p, q):
    c2 = poly_C(Params(p, q), 2).coefficients
    twop = tuple(2 * v for v in poly_P(Params(p, q)).coefficients) + (0.0,)
    assert c2 == twop


@given(p=finite, q=finite, n=st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_poly_C_leading_coefficient(p, q, n):
    assert poly_C(Params(p, q), n).coefficients[3] == (n - 2) * (q * q)


def test_poly_G_examples():
    g = poly_G(Params(1, 0), 3, -1)
    assert g.coefficients == (3, Fraction(-5, 2))
    g0 = poly_G(Params(1, 0), 2, 0)
    assert g0.as_floats() == (4.0,)
    with pytest.raises(ValueError):
        poly_G(Params(1.5, 0), 3, 1)


def test_poly_G_matches_three_term_definition_at_p40():
    # G(t) = n c (1+t)^p (1+qt)^2 - (c^2/2) t (1+qt)^2 + (1+t)^(2p-2) C(t),
    # C = 2P + (n-2)(1+qt)Q, compared in exact rational arithmetic; float inputs count exactly
    p, q7 = 40, Fraction(3, 7)
    for n, c_in, q_in in ((2, Fraction(-5, 2), q7), (3, Fraction(16, 3), q7), (5, Fraction(-30), q7), (4, -7.25, 0.375)):
        g = poly_G(Params(p, q_in), n, c_in)
        q, c = Fraction(q_in), Fraction(c_in)
        for t in (Fraction(0), Fraction(1, 3), Fraction(7, 2), Fraction(-2, 5)):
            P = (2 * p + q) + (p + 2) * q * t + (1 - p) * q * t * t
            Q = (2 * p + q) + (2 * p + 2 * q - p * p) * t + q * t * t
            C = 2 * P + (n - 2) * (1 + q * t) * Q
            want = (
                n * c * (1 + t) ** p * (1 + q * t) ** 2
                - c * c / 2 * t * (1 + q * t) ** 2
                + (1 + t) ** (2 * p - 2) * C
            )
            assert sum(ck * t**k for k, ck in enumerate(g.coefficients)) == want


def test_as_exact_keeps_integral_values_int():
    for x in (Fraction(4, 2), 3.0, Fraction(6, 3)):
        assert type(as_exact(x)) is int and as_exact(x) == x
    for x in (0.5, Fraction(16, 3)):
        assert type(as_exact(x)) is Fraction and as_exact(x) == x


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, -(10**400), Fraction(10**400, 3)],
                         ids=["inf", "minus_inf", "nan", "int_1e400", "minus_int_1e400", "fraction_1e400_over_3"])
def test_params_refuse_values_past_the_float_range(value):
    # an int or Fraction too large for a float is refused as inf is, by ValueError and not OverflowError
    for p, q in ((value, 0), (0, value)):
        with pytest.raises(ValueError, match="parameters must be finite"):
            Params(p, q)


def test_poly_G_integral_values_are_ints():
    # integral p, q, c expand on ints; only c^2/2 can make a coefficient non-integral
    assert all(type(v) is int for v in poly_G(Params(3, 2), 3, -2).coefficients)
    g = poly_G(Params(3, 2), 3, -1)
    assert g.coefficients[1] == Fraction(223, 2)
    assert all(type(v) is int for k, v in enumerate(g.coefficients) if k != 1)
    # float p and q with integral values take the same path
    assert poly_G(Params(3.0, 2.0), 3, -2.0).coefficients == poly_G(Params(3, 2), 3, -2).coefficients


@given(
    p=st.integers(min_value=1, max_value=5),
    q=st.fractions(min_value=0, max_value=4),
    n=st.integers(min_value=2, max_value=5),
    c=st.fractions(min_value=-6, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_poly_G_constant_term(p, q, n, c):
    g = poly_G(Params(p, q), n, c)
    assert g.coefficients[0] == n * c + n * (2 * p + q)


def test_mu_values():
    assert mu(1) == 1
    assert mu(2) == 4
    assert float(mu(3)) == 6.75
    assert mu(2) == Fraction(4)  # exact for integer p
    with pytest.raises(DomainError):
        mu(0.5)


def test_hyperbola_values():
    assert hyperbola_lambda(1) == 0
    assert hyperbola_nu(1) == 0
    assert hyperbola_lambda(3) == Fraction(-16, 11)
    assert hyperbola_nu(3) == Fraction(-4, 5)
    # 1 - p < lambda < nu < 0 for p > 1
    for p in (1.5, 2.0, 3.0, 7.0):
        assert 1 - p < hyperbola_lambda(p) < hyperbola_nu(p) < 0
    with pytest.raises(DomainError):
        hyperbola_lambda(-8)
    with pytest.raises(DomainError):
        hyperbola_nu(-2)


def test_hyperbola_exact_values():
    # exact p gives the Fraction of the four-operation forms 8 (1 - p) / (8 + p) and 2 (1 - p) / (2 + p)
    for p in [Fraction(k, 40) for k in range(-400, 201)] + list(range(-20, 21)):
        if p != -8:
            lam = hyperbola_lambda(p)
            assert type(lam) is Fraction and lam == Fraction(8 * (1 - p)) / Fraction(8 + p), p
        if p != -2:
            nu = hyperbola_nu(p)
            assert type(nu) is Fraction and nu == Fraction(2 * (1 - p)) / Fraction(2 + p), p
    for pole in (-8, Fraction(-320, 40), -8.0):
        with pytest.raises(DomainError):
            hyperbola_lambda(pole)
    for pole in (-2, Fraction(-80, 40), -2.0):
        with pytest.raises(DomainError):
            hyperbola_nu(pole)
    assert hyperbola_nu(2.7) == 2.0 * (1.0 - 2.7) / (2.0 + 2.7)  # a float p keeps the float formula


def test_mu_exact_up_to_2_14_then_float():
    # an exact k^k past k = 2^14 would take seconds (mu(10**5)) or hang (p = 10**300 from a flag)
    assert type(mu(2**14)) is Fraction and type(mu(2**14 + 1)) is float
    assert math.e * 2**14 < mu(2**14 + 1) < math.e * (2**14 + 1)
    for call in (lambda: mu(10**5), lambda: nonneg_sectional(Params(10**5, 0), 2, 1),
                 lambda: classify(Params(10**300, 10**300), 3, 1)):
        t0 = time.perf_counter()
        call()
        assert time.perf_counter() - t0 < 0.1


def test_mu_float_path_past_overflow():
    # below the overflow of p**p the float path keeps its bits; past it mu ~ e*p
    assert mu(142.5) == 142.5**142.5 / 141.5**141.5
    for p in (143.5, 180.5, 1000.5):
        with pytest.raises(OverflowError):
            p**p
        want = math.exp(p * math.log(p) - (p - 1) * math.log(p - 1))
        assert_allclose(float(mu(p)), want, rtol=1e-12)
        assert math.e * (p - 1) < mu(p) < math.e * p


def test_kernels_accept_radius_arrays():
    # the coefficients and omega_q take no power, so each element equals the scalar evaluation bit for bit;
    # phi and f take (1 + t)**p, where numpy's array power may differ from the scalar one in the last bits,
    # so the scalar curvature is held to 1e-14 of the size of its terms (at most 3 eps on x86-64, numpy 2.4.6)
    rng = np.random.default_rng(71)
    for params, n in [(Params(1.3, 0.6), 3), (Params(2, -0.4), 2), (Params(-1.5, 2), 4), (Params(4.35, -3.79), 6)]:
        t = np.concatenate([[0.0], rng.uniform(0, 0.9 * min(scalars.fibre_end(params), 3), 300)])
        cs, wq = coefficients(params, t, n), omega_q(t, params)
        s = scalar_curvature_spaceform(params, n, 1.25, t)
        for i, ti in enumerate(t.tolist()):
            one = coefficients(params, ti, n)
            assert [getattr(cs, k)[i] for k in ("A", "B", "C", "alpha", "beta")] == [
                getattr(one, k) for k in ("A", "B", "C", "alpha", "beta")]
            assert wq[i] == omega_q(ti, params)
            f, phi_t = scalars.scalar_parts(params, n, ti)
            size = (n - 1) * max(n * 1.25, 0.5 * 1.25**2 * f, abs(phi_t))
            assert abs(s[i] - scalar_curvature_spaceform(params, n, 1.25, ti)) <= 1e-14 * size
    with pytest.raises(DomainError):
        coefficients(Params(1, -0.5), np.array([0.0, 1.0, 2.0]), 3)
    with pytest.raises(DomainError):
        omega(np.array([0.5, -0.1]))


def test_f_sup_cases():
    assert f_sup(Params(2, 0)) == 0.25
    assert f_sup(Params(1, 0)) == 1.0
    assert f_sup(Params(2, -1)) == 0.25  # p + q = 1: supremum at the open boundary
    assert f_sup(Params(3, -1)) == 1 / 6.75  # p + q > 1: the value at t = 1/(p-1) = 0.5
    assert_allclose(f_sup(Params(1.5, -2)), f_value(0.5, 1.5), rtol=1e-14)  # p + q < 1: endpoint limit
    assert f_sup(Params(0.5, 1)) == math.inf
    # p < 1 and q < 0: f increases up to the open end -1/q
    for p, q, sup in ((0.5, -1, 2**-0.5), (0, -2, 0.5), (-1, -0.5, 6.0)):
        assert_allclose(f_sup(Params(p, q)), sup, rtol=1e-14)


@given(
    p=st.floats(min_value=1, max_value=6),
    q=st.floats(min_value=-2, max_value=3, allow_subnormal=False),
)
@settings(max_examples=100, deadline=None)
def test_f_sup_dominates_grid(p, q):
    if -1e-6 < q < 0:
        q = -1e-6
    sup = f_sup(Params(p, q))
    cap = 1e3 if q >= 0 else -1 / q * (1 - 1e-9)
    grid = np.concatenate([[0.0], np.geomspace(1e-9, cap, 2000)])
    gmax = float(f_value(grid, p).max())
    assert gmax <= sup + 1e-12
    assert gmax >= sup - 1e-3


def test_vertical_families_are_P_and_Q():
    # (1+t)^2 (A t + B) = omega_q P(t) and (1+t)^2 B = omega_q Q(t), which let the signs of P
    # and Q decide the vertical planes; the error is measured against the size of the summands,
    # since A cancels in p + 2q - 2 (the first point)
    rng = np.random.default_rng(29)
    points = [(2.0, 1e-7, 0.0), (2.0, 1e-7, 3.0)]
    for _ in range(2000):
        p, q = rng.uniform(-9, 4), rng.uniform(-4, 4)
        points.append((p, q, rng.uniform(0, 0.99 / -q if q < 0 else 50.0)))
    for p, q, t in points:
        params = Params(p, q)
        _, wq, A, B = weights_AB(params, t)
        lift = (1 + t) ** 2
        size = wq * (
            abs(p) * t * (abs(p) + 3 * abs(q) * (1 + t) + 2)
            + p * p + abs(p * (p - 2)) * (1 + t) + abs(q) * (1 + t) ** 2
            + sum(abs(float(ck)) * t**k for poly in (poly_P(params), poly_Q(params))
                  for k, ck in enumerate(poly.coefficients))
        )
        assert abs(lift * (A * t + B) - wq * poly_P(params).evaluate(t)) <= 1e-14 * size, (p, q, t)
        assert abs(lift * B - wq * poly_Q(params).evaluate(t)) <= 1e-14 * size, (p, q, t)


def test_scalar_curvature_zero_section():
    assert_allclose(scalar_curvature_spaceform(Params(1, 0), 2, 0, 0), 4.0, rtol=1e-14)
    assert_allclose(scalar_curvature_spaceform(Params(1, 1), 3, 1, 0), 24.0, rtol=1e-14)


@given(p=finite, q=finite, n=st.integers(min_value=2, max_value=6), c=finite)
@settings(max_examples=200, deadline=None)
def test_scalar_zero_section_identity(p, q, n, c):
    got = scalar_curvature_spaceform(Params(p, q), n, c, 0.0)
    want = n * (n - 1) * (c + 2 * p + q)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@given(p=finite, q=finite, t=radius, n=st.integers(min_value=2, max_value=6))
@example(p=2.0, q=1e-07, t=0.0, n=2)  # A's factor p + 2q - 2 cancels terms of size 4 down to 2e-7
@settings(max_examples=300, deadline=None)
def test_identity_omega_q_A_qB_equals_C(p, q, t, n):
    if q * t <= -0.9:
        t = -0.9 / q
    cs = coefficients(Params(p, q), t, n)
    w, wq = omega(t), omega_q(t, Params(p, q))
    # the error is relative to the terms A is summed from, not to A after their cancellation
    terms = abs(p) * w * wq * w * (abs(p) + 2 * abs(q) + 2)
    scale = max(abs(wq * cs.A), abs(wq * q * cs.B), abs(cs.C), terms, 1e-12)
    assert abs(wq * (cs.A - q * cs.B) - cs.C) / scale <= 1e-12


@given(p=finite, q=finite, t=radius, n=st.integers(min_value=2, max_value=6))
@settings(max_examples=200, deadline=None)
def test_phi_matches_coefficient_form(p, q, t, n):
    if q * t <= -0.9:
        t = -0.9 / q
    params = Params(p, q)
    cs = coefficients(params, t, n)
    direct = (1 + t) ** p * (2 * cs.alpha - (n - 2) * cs.B)
    assert_allclose(phi(params, n, t), direct, rtol=1e-11, atol=1e-11)


def test_domain_guard_excludes_boundary():
    with pytest.raises(DomainError):
        coefficients(Params(2, -1), 1.0, 3)
    with pytest.raises(DomainError):
        scalar_curvature_spaceform(Params(2, -1), 3, 0, 1.0 + 1e-12)


def test_fibre_end_is_the_only_minus_one_over_q():
    # the end of the fibre T = -1/q is computed once in src/cgm, inside scalars.fibre_end
    hits = []
    for path in sorted(Path(scalars.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        hits += [(path.name, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                 and ast.unparse(node.left) in ("-1", "-1.0") and re.search(r"\bq\b", ast.unparse(node.right))]
        if path.name == "scalars.py":
            end = next(f for f in tree.body if getattr(f, "name", "") == "fibre_end")
    assert hits and all(name == "scalars.py" and end.lineno <= i <= end.end_lineno for name, i in hits), hits
