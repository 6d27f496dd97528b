import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cgm import oracle as oc
from cgm.scalars import DomainError, Params, mu, phi, scalar_curvature_spaceform
from cgm.verify import suite_symmetries
from cgm.curvature import (
    BaseCurvature,
    FiberPoint,
    LiftVector,
    connection,
    metric_h,
    ricci,
    riemann,
    riemann_full,
    scalar,
    sectional,
    sectional_batch_spaceform,
    sectional_plane,
    tangent_frame,
)

RNG = np.random.default_rng(2024)
E1, E2, E3 = np.eye(3)
RIEMANN_CASES = ("hhh", "hhv", "hvh", "hvv", "vvh", "vvv")


def rand_point(n, q, rng=RNG):
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    cap = 3.0 if q >= 0 else -0.9 / q
    return FiberPoint(math.sqrt(rng.uniform(0, cap)) * d)


def per_row_points(n, m, rng=RNG):
    """m rows of (p, q, c, e) as arrays: p, q, c of shape (m, 1), e of shape (m, n).

    Row 0 is on the zero section and every third row from row 1 has q < 0
    with t at 0.9 of the fibre bound -1/q.
    """
    p, q, c = rng.uniform(-3, 4, (m, 1)), rng.uniform(-2, 3, (m, 1)), rng.uniform(-2, 2, (m, 1))
    q[1::3] = -rng.uniform(0.2, 2, q[1::3].shape)
    t = rng.uniform(0, 1, (m, 1)) * np.where(q >= 0, 3.0, -0.9 / q)
    t[0], t[1::3] = 0.0, -0.9 / q[1::3]
    d = rng.standard_normal((m, n))
    return p, q, c, np.sqrt(t) * d / np.linalg.norm(d, axis=1, keepdims=True)


def row(V, i):
    return LiftVector(V.h[i], V.v[i])


class TestMetric:
    def test_sasaki_is_euclidean_pairing(self):
        params = Params(0, 0)
        e = FiberPoint(np.array([0.3, -0.2, 0.9]))
        A = LiftVector(RNG.standard_normal(3), RNG.standard_normal(3))
        B = LiftVector(RNG.standard_normal(3), RNG.standard_normal(3))
        assert_allclose(metric_h(params, e, A, B), A.h @ B.h + A.v @ B.v, rtol=1e-14)

    def test_canonical_vector_null_on_boundary(self):
        params = Params(1.3, -1)
        vals = []
        for eps in (1e-2, 1e-4, 1e-6):
            e = FiberPoint.radial(1 - eps, 3)
            U = LiftVector.vertical(e.e)  # the canonical vertical vector
            vals.append(metric_h(params, e, U, U))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_unit_vertical_at_origin(self):
        e = FiberPoint.zero(2)
        V = LiftVector.vertical(np.array([1.0, 0.0]))
        assert metric_h(Params(1, 1), e, V, V) == 1.0


class TestConnection:
    def test_vv_sasaki_vanishes(self):
        base = BaseCurvature.space_form(1.0)
        e = rand_point(3, 0)
        out = connection(Params(0, 0), e, "vv", E1, E2 + E1, base)
        assert_allclose(out.h, 0, atol=1e-15)
        assert_allclose(out.v, 0, atol=1e-15)

    def test_vv_zero_section_vanishes(self):
        out = connection(Params(2, -1), FiberPoint.zero(3), "vv", E1, E2, BaseCurvature.space_form(2.0))
        assert_allclose(out.v, 0, atol=1e-15)

    def test_hh_space_form_vertical_part(self):
        c, params = 1.7, Params(1, 1)
        e = FiberPoint(np.array([0.4, 0.1, -0.2]))
        out = connection(params, e, "hh", E1, E2, BaseCurvature.space_form(c))
        want = -0.5 * c * ((E2 @ e.e) * E1 - (E1 @ e.e) * E2)
        assert_allclose(out.v, want, rtol=1e-14)
        assert_allclose(out.h, 0, atol=1e-15)

    def test_hh_carries_supplied_derivative(self):
        nab = np.array([0.3, 0.0, -0.1])
        out = connection(Params(1, 1), FiberPoint.zero(3), "hh", E1, E2, BaseCurvature.space_form(0), nabla_xy=nab)
        assert_allclose(out.h, nab, rtol=1e-15)


class TestRiemann:
    def test_vvv_sasaki_flat(self):
        out = riemann(Params(0, 0), rand_point(3, 0), "vvv", E1, E2, E2, BaseCurvature.space_form(1.0))
        assert_allclose(out.v, 0, atol=1e-15)

    def test_vvv_origin_is_B_times_X(self):
        out = riemann(Params(1, 1), FiberPoint.zero(3), "vvv", E1, E2, E2, BaseCurvature.space_form(1.0))
        assert_allclose(out.v, 3 * E1, rtol=1e-14)

    def test_hvv_flat_base_vanishes(self):
        out = riemann(Params(1.7, 0.4), rand_point(3, 0.4), "hvv", E1, E2, E3, BaseCurvature.space_form(0.0))
        assert_allclose(out.h, 0, atol=1e-15)
        assert_allclose(out.v, 0, atol=1e-15)


class TestSectional:
    def test_zero_section_values(self):
        base = BaseCurvature.space_form(0.3)
        e = FiberPoint.zero(3)
        assert_allclose(sectional(Params(1, 1), e, "vv", E1, E2, base), 3.0, rtol=1e-14)
        assert sectional(Params(1, 1), e, "hv", E1, E2, base) == 0.0

    def test_hh_radial_plane_on_unit_sphere(self):
        # p = 0, t = 1, X along e, Y orthogonal: 1 - 3/4 = 1/4
        e = FiberPoint.radial(1.0, 3)
        k = sectional(Params(0, 2), e, "hh", E1, E2, BaseCurvature.space_form(1.0))
        assert_allclose(k, 0.25, rtol=1e-14)

    def test_boundary_value_is_mu(self):
        e = FiberPoint.radial(1 - 1e-6, 3)
        k = sectional(Params(2, -1), e, "vv", E2, E3, BaseCurvature.space_form(0.0))
        assert_allclose(k, float(mu(2)), rtol=1e-4)

    def test_orthonormality_enforced(self):
        e = FiberPoint.zero(3)
        with pytest.raises(ValueError):
            sectional(Params(1, 1), e, "vv", E1, E1, BaseCurvature.space_form(0.0))
        with pytest.raises(ValueError):
            sectional(Params(1, 1), e, "hh", 2 * E1, E2, BaseCurvature.space_form(0.0))

    def test_flat_fibres_iff_sasaki(self):
        base = BaseCurvature.space_form(0.0)
        for _ in range(200):
            assert sectional(Params(0, 0), rand_point(3, 0), "vv", E1, E2, base) == 0.0
        for p, q in [(1, 1), (2, 0), (0.5, -0.3), (-1, 3)]:
            vals = [
                abs(sectional(Params(p, q), rand_point(3, q), "vv", E1, E2, base))
                for _ in range(100)
            ]
            assert max(vals) > 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_per_row_vv_batch_matches_scalar_calls(self, n):
        m = 12
        p, q, c, e = per_row_points(n, m, np.random.default_rng(12))
        X, Y = np.eye(n)[:2]
        batch = sectional(Params(p, q), FiberPoint(e), "vv", X, Y, BaseCurvature.space_form(c))
        assert batch.shape == (m,) and not e[0].any() and (q < 0).sum() >= m // 3
        for i in range(m):
            one = sectional(Params(p[i, 0], q[i, 0]), FiberPoint(e[i]), "vv", X, Y, BaseCurvature.space_form(c[i, 0]))
            assert_allclose(batch[i], one, rtol=1e-12, err_msg=f"row {i}")

    def test_per_row_vv_batch_names_the_row_outside_the_ball_bundle(self):
        p, q, c, e = per_row_points(3, 6, np.random.default_rng(13))
        q[4], e[4] = -1.0, [0.0, 1.0, 0.0]  # q t = -1
        with pytest.raises(DomainError, match=r"row 4: q = -1\.0, t = 1\.0 outside the ball bundle"):
            sectional(Params(p, q), FiberPoint(e), "vv", E1, E2, BaseCurvature.space_form(c))


class TestRicci:
    def test_hv_space_form_zero(self):
        e = rand_point(3, 1)
        assert ricci(Params(1, 1), 3, e, "hv", E1, E2, BaseCurvature.space_form(2.0)) == 0.0

    def test_vv_origin_alpha(self):
        got = ricci(Params(1, 1), 3, FiberPoint.zero(3), "vv", E1, E1, BaseCurvature.space_form(1.0))
        assert_allclose(got, 2 * 3, rtol=1e-14)  # (n-1)(2p+q)

    def test_hh_example(self):
        e = FiberPoint.radial(1.0, 3)
        got = ricci(Params(0, 1), 3, e, "hh", E2, E2, BaseCurvature.space_form(1.0))
        assert_allclose(got, 1.5, rtol=1e-14)

    def test_hv_needs_coderivative_for_custom_base(self):
        def r_op(X, Y, Z):
            return (Y @ Z) * X - (X @ Z) * Y

        base = BaseCurvature.custom(r_op)
        with pytest.raises(ValueError):
            ricci(Params(1, 1), 3, rand_point(3, 1), "hv", E1, E2, base)


class TestScalar:
    def test_zero_section(self):
        got = scalar(Params(1, 1), 3, FiberPoint.zero(3), BaseCurvature.space_form(1.0))
        assert_allclose(got, 6 + 18, rtol=1e-14)
        # a custom base (c is None) with the same operator: its scalar curvature is the frame sum
        custom = BaseCurvature.custom(BaseCurvature.space_form(1.0).r_op)
        got = scalar(Params(1, 1), 3, FiberPoint.zero(3), custom)
        assert_allclose(got, 6 + 18, rtol=1e-14)

    def test_flat_base_equals_phi(self):
        params = Params(1.4, 0.6)
        for t in (0.0, 0.8, 2.5):
            e = FiberPoint.radial(t, 3)
            got = scalar(params, 3, e, BaseCurvature.space_form(0.0))
            assert_allclose(got, 2 * phi(params, 3, t), rtol=1e-12)

    def test_matches_space_form_kernel(self):
        for p, q, n, c, t in [(1, 1, 2, 1.0, 0.5), (2, -1, 3, -1.0, 0.6), (0, 0, 3, 2.0, 1.2)]:
            e = FiberPoint.radial(t, n)
            got = scalar(Params(p, q), n, e, BaseCurvature.space_form(c))
            want = scalar_curvature_spaceform(Params(p, q), n, c, t)
            assert_allclose(got, want, rtol=1e-10)


class TestAssembledTensor:
    def rand_lift(self, n):
        return LiftVector(RNG.standard_normal(n), RNG.standard_normal(n))

    def test_symmetries_and_bianchi(self):
        worst = 0.0
        for n in (2, 3):
            p, q, c, e = per_row_points(n, 100)
            params, base, e = Params(p, q), BaseCurvature.space_form(c), FiberPoint(e)
            A, B, C, D = (self.rand_lift((100, n)) for _ in range(4))
            RAB = riemann_full(params, e, A, B, C, base)
            RBA = riemann_full(params, e, B, A, C, base)
            RCD = riemann_full(params, e, C, D, A, base)
            val = metric_h(params, e, RAB, D)
            scale = np.maximum(np.abs(val), 1.0)
            worst = max(worst, (np.abs(val + metric_h(params, e, RBA, D)) / scale).max())
            worst = max(worst, (np.abs(val - metric_h(params, e, RCD, B)) / scale).max())
            bi = RAB + riemann_full(params, e, B, C, A, base) + riemann_full(params, e, C, A, B, base)
            bnorm = np.linalg.norm(bi.h, axis=-1) + np.linalg.norm(bi.v, axis=-1)
            worst = max(worst, (bnorm / scale).max())
        assert worst <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_per_row_batch_matches_scalar_calls(self, n):
        m = 12
        p, q, c, e = per_row_points(n, m)
        params, base, fp = Params(p, q), BaseCurvature.space_form(c), FiberPoint(e)
        assert fp.t.shape == (m, 1) and fp.t[0, 0] == 0.0 and (q < 0).sum() >= m // 3
        X, Y, Z = (RNG.standard_normal((m, n)) for _ in range(3))
        A, B, C = (self.rand_lift((m, n)) for _ in range(3))
        cases = {case: riemann(params, fp, case, X, Y, Z, base) for case in RIEMANN_CASES}
        full = riemann_full(params, fp, A, B, C, base)
        pairing = metric_h(params, fp, A, B)
        for i in range(m):
            params_i, fp_i = Params(p[i, 0], q[i, 0]), FiberPoint(e[i])
            base_i = BaseCurvature.space_form(c[i, 0])
            for case, out in cases.items():
                one = riemann(params_i, fp_i, case, X[i], Y[i], Z[i], base_i)
                assert_allclose(out.h[i], one.h, rtol=1e-10, atol=1e-12, err_msg=f"{case} row {i}")
                assert_allclose(out.v[i], one.v, rtol=1e-10, atol=1e-12, err_msg=f"{case} row {i}")
            one = riemann_full(params_i, fp_i, row(A, i), row(B, i), row(C, i), base_i)
            assert_allclose(full.h[i], one.h, rtol=1e-10, atol=1e-12)
            assert_allclose(full.v[i], one.v, rtol=1e-10, atol=1e-12)
            one = metric_h(params_i, fp_i, row(A, i), row(B, i))
            assert_allclose(pairing[i], one, rtol=1e-10, atol=1e-12)

    def test_per_row_batch_names_the_row_outside_the_ball_bundle(self):
        p, q, c, e = per_row_points(3, 6)
        q[4], e[4] = -1.0, [0.0, 1.0, 0.0]  # q t = -1
        A = self.rand_lift((6, 3))
        with pytest.raises(DomainError, match=r"row 4: q = -1\.0, t = 1\.0 outside the ball bundle"):
            riemann_full(Params(p, q), FiberPoint(e), A, A, A, BaseCurvature.space_form(c))

    def test_vv_plane_matches_quotient(self):
        for _ in range(50):
            params = Params(RNG.uniform(-2, 3), RNG.uniform(-1.5, 2))
            base = BaseCurvature.space_form(RNG.uniform(-2, 2))
            e = rand_point(3, float(params.q))
            direct = sectional(params, e, "vv", E1, E2, base)
            via = sectional_plane(params, e, LiftVector.vertical(E1), LiftVector.vertical(E2), base)
            assert_allclose(via, direct, rtol=1e-10, atol=1e-12)

    def test_batch_matches_scalar_assembly(self):
        params = Params(1.3, -0.4)
        base = BaseCurvature.space_form(0.7)
        e = FiberPoint(np.array([0.4, 0.1, -0.3]))
        raw = RNG.standard_normal((30, 4, 3))
        batch = sectional_batch_spaceform(params, 0.7, e, raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3])
        for i in range(30):
            one = sectional_plane(
                params, e, LiftVector(raw[i, 0], raw[i, 1]), LiftVector(raw[i, 2], raw[i, 3]), base
            )
            assert_allclose(batch[i], one, rtol=1e-10, atol=1e-12)

    def test_batch_rejects_a_degenerate_row(self):
        raw = RNG.standard_normal((4, 5, 3))
        raw[2:, 3] = 2 * raw[:2, 3]  # row 3: B = 2A spans no plane
        with pytest.raises(ValueError):
            sectional_batch_spaceform(Params(1, 1), 1.0, FiberPoint.zero(3), *raw)

    @pytest.mark.parametrize(
        "p, q, n, c, t",
        [(2, -1, 2, 1.0, 0.3), (1, 1, 3, -1.0, 0.49)],
        ids=["n2_q_negative", "n3_q_positive"],
    )
    def test_batch_mixed_planes_match_finite_differences(self, p, q, n, c, t):
        # general planes span(A, B) of the total space, against the oracle's
        # finite-difference Riemann tensor at its sectional tolerance
        params = Params(p, q)
        chart = oc.Chart.space_form(n, c)
        x = np.array([0.12, -0.07, 0.05][:n])
        g = chart.metric(x)
        d = np.array([0.3, 1.0, -0.2][:n])
        pt = oc.TMPoint(x, math.sqrt(t) * d / math.sqrt(float(d @ g @ d)))
        frame = oc.base_frame(g, pt.u)
        e = FiberPoint(np.array([float(pt.u @ g @ frame[i]) for i in range(n)]))
        gam0 = oc.fd_christoffel(chart.metric, pt.x)

        def coords(h, v):
            hor, ver = h @ frame, v @ frame
            return np.concatenate([hor, ver - np.einsum("kij,i,j->k", gam0, hor, pt.u)])

        h_field = oc.tm_metric_field(params, chart)
        H = h_field(pt.coords())
        R = oc.fd_riemann(h_field, pt.coords())
        raw = np.random.default_rng(5).standard_normal((4, 8, n))
        batch = sectional_batch_spaceform(params, c, e, *raw)
        report = oc.ComparisonReport()
        for k in range(raw.shape[1]):
            A, B = coords(raw[0, k], raw[1, k]), coords(raw[2, k], raw[3, k])
            numeric = oc.numeric_sectional(R, H, A, B)
            report.add(f"mixed_{k}", float(batch[k]), numeric, oc.DEFAULT_TOLERANCES["sectional"])
        assert report.passed, [(r.closed_form, r.numeric, r.rel_err) for r in report.failures()]

    def test_ricci_is_sectional_sum_over_completion(self):
        for n in (2, 3):
            params = Params(1.2, 0.7)
            base = BaseCurvature.space_form(1.3)
            e = rand_point(n, 0.7)
            frame = tangent_frame(params, e)
            V = frame[n]
            total = sum(sectional_plane(params, e, V, F, base) for F in frame if F is not V)
            rho = ricci(params, n, e, "vv", V.v, V.v, base) / metric_h(params, e, V, V)
            assert_allclose(total, rho, rtol=1e-8)

    def test_scalar_is_ricci_trace(self):
        for n in (2, 3):
            params = Params(0.8, -0.4)
            base = BaseCurvature.space_form(-1.1)
            e = rand_point(n, -0.4)
            trace = sum(
                ricci(params, n, e, "hh", F.h, F.h, base)
                if F.h.any()
                else ricci(params, n, e, "vv", F.v, F.v, base)
                for F in tangent_frame(params, e)
            )
            assert_allclose(trace, scalar(params, n, e, base), rtol=1e-10)

    def test_frame_at_the_zero_section_is_orthonormal(self):
        # at t = 0 the frame is the coordinate basis, lifted horizontally and vertically
        for n in (2, 3):
            e = FiberPoint.zero(n)
            for params in (Params(1, 1), Params(2.5, -0.7)):
                frame = tangent_frame(params, e)
                gram = [[metric_h(params, e, F, G) for G in frame] for F in frame]
                assert len(frame) == 2 * n and np.array_equal(gram, np.eye(2 * n))


def test_symmetry_suite_draw_order_digest():
    # The seven checks after the batched curvature loop of suite_symmetries
    # read the generator after that loop's draws; this digest was recorded
    # with the loop still per sample, so it pins the draw order.
    checks = [(r.name, r.status, r.max_err) for r in suite_symmetries(seed=0)[3:]]
    assert len(checks) == 7
    digest = hashlib.sha256(repr(checks).encode()).hexdigest()
    assert digest == "d1cfc943bf68c8a274e30427e0b3959e8754dc06c445c10ff9415a1462844888"


def test_space_form_frame_sum_scaling():
    # sum over the frame of |R(e_i, e_j)e|^2 grows as 2(n-1) c^2 t, which the
    # scalar curvature consumes through its quarter-weighted middle term
    for n, c, t in [(2, 1.0, 0.7), (3, -2.0, 1.3), (4, 0.5, 2.0)]:
        e = FiberPoint.radial(t, n)
        base = BaseCurvature.space_form(c)
        basis = np.eye(n)
        total = sum(
            float(np.dot(rij := base.R(basis[i], basis[j], e.e), rij))
            for i in range(n)
            for j in range(n)
        )
        assert_allclose(total, 2 * (n - 1) * c * c * t, rtol=1e-13)


def test_boundary_u_plane_ratio_for_regular_family():
    # for p + q = 1 the vertical plane through the canonical vector satisfies
    # (1+t)^(1+q) K = (2 - q + q t) / (1 + q t), unbounded at the boundary
    base = BaseCurvature.space_form(0.0)
    for p, t in [(2.0, 0.3), (2.0, 0.9), (1.5, 1.2)]:
        q = 1 - p
        e = FiberPoint.radial(t, 2)
        k = sectional(Params(p, q), e, "vv", E1[:2], E2[:2], base)
        want = (2 - q + q * t) / (1 + q * t) / (1 + t) ** (1 + q)
        assert_allclose(k, want, rtol=1e-12)


class TestFieldExtensionOperators:
    """Synthetic operators exercise the derivative-term slots of the formulas."""

    def probe_base(self):
        w_mark = np.array([1.0, 2.0, 3.0])

        def r_op(X, Y, Z):
            return (Y @ Z) * X - (X @ Z) * Y

        def nabla_op(W, X, Y, Z):
            return (W @ w_mark) * ((Y @ Z) * X - (X @ Z) * Y)

        def delta_op(X, e):
            return (X @ w_mark) * e

        return BaseCurvature.custom(r_op, nabla_op, delta_op)

    def test_nabla_terms_enter_expected_slots(self):
        base = self.probe_base()
        zero_base = BaseCurvature.custom(base.r_op)  # same curvature, no derivative data
        e = FiberPoint(np.array([0.2, 0.1, -0.3]))
        params = Params(1.0, 0.5)
        w = 1 / (1 + e.t)

        got = riemann(params, e, "hhh", E1, E2, E3, base)
        ref = riemann(params, e, "hhh", E1, E2, E3, zero_base)
        want = 0.5 * base.nabla_op(E3, E1, E2, e.e)
        assert_allclose(got.v - ref.v, want, rtol=1e-13)
        assert_allclose(got.h, ref.h, rtol=1e-13)

        got = riemann(params, e, "hhv", E1, E2, E3, base)
        ref = riemann(params, e, "hhv", E1, E2, E3, zero_base)
        want = 0.5 * w * (base.nabla_op(E1, e.e, E3, E2) - base.nabla_op(E2, e.e, E3, E1))
        assert_allclose(got.h - ref.h, want, rtol=1e-13)

        got = riemann(params, e, "hvh", E1, E2, E3, base)
        ref = riemann(params, e, "hvh", E1, E2, E3, zero_base)
        want = 0.5 * w * base.nabla_op(E1, e.e, E2, E3)
        assert_allclose(got.h - ref.h, want, rtol=1e-13)

    def test_coderivative_enters_hv_ricci(self):
        base = self.probe_base()
        e = FiberPoint(np.array([0.2, 0.1, -0.3]))
        params = Params(2.0, 0.0)
        got = ricci(params, 3, e, "hv", E1, E2, base)
        w = 1 / (1 + e.t)
        want = 0.5 * w**2 * float(base.delta_op(E1, e.e) @ E2)
        assert_allclose(got, want, rtol=1e-13)
