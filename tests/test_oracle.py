import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cgm.scalars import DomainError, Params
from cgm.curvature import BaseCurvature, FiberPoint, sectional
from cgm.oracle import (
    DEFAULT_TOLERANCES,
    Chart,
    ComparisonReport,
    TMPoint,
    chart_base_check,
    compare,
    fd_christoffel,
    fd_riemann,
    tm_metric,
    tm_metric_field,
)
from cgm.verify import _cell_point

X0 = np.array([0.12, -0.07, 0.05])


def test_chart_kinds():
    # the sign of c decides the chart: flat, the stereographic sphere with safe
    # radius 0.8, the Poincare ball with safe radius 0.9
    x = np.array([0.3, -0.4])  # |x|^2 = 1/4
    assert_allclose(Chart.space_form(2, 0).metric(x), np.eye(2), rtol=0, atol=0)
    assert_allclose(Chart.space_form(2, 2).metric(x), 0.5 * (2 / 1.25) ** 2 * np.eye(2), rtol=1e-15)
    assert_allclose(Chart.space_form(2, -1).metric(x), (2 / 0.75) ** 2 * np.eye(2), rtol=1e-15)
    for c, inside, outside in ((0, 1e150, None), (2, 0.8, 0.8000001), (-1, 0.9, 0.9000001)):
        chart = Chart.space_form(2, c)
        assert chart == Chart(2, float(c))
        assert chart.in_domain(np.array([0.0, inside]))
        assert outside is None or not chart.in_domain(np.array([outside, 0.0]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [-2.0, -1.0, 1.0, 2.0])
def test_chart_self_certification(n, c):
    chart = Chart.space_form(n, c)
    rng = np.random.default_rng(n * 7 + int(c))
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, n)
        K, s = chart_base_check(chart, x)
        assert abs(K - c) / abs(c) <= 1e-5
        assert abs(s - n * (n - 1) * c) / abs(n * (n - 1) * c) <= 1e-5


def test_tm_metric_flat_sasaki_identity():
    chart = Chart.space_form(3, 0.0)
    H = tm_metric(Params(0, 0), chart, TMPoint(X0, np.array([0.4, -0.1, 0.2])))
    assert_allclose(H, np.eye(6), atol=1e-12)


def test_tm_metric_block_diagonal_at_zero_section():
    chart = Chart.space_form(2, 1.0)
    x = X0[:2]
    H = tm_metric(Params(2, -1), chart, TMPoint(x, np.zeros(2)))
    g = chart.metric(x)
    assert_allclose(H[:2, :2], g, rtol=1e-9)
    assert_allclose(H[2:, 2:], g, rtol=1e-9)
    assert_allclose(H[:2, 2:], 0, atol=1e-12)


def test_tm_metric_degenerates_toward_boundary():
    chart = Chart.space_form(2, 0.0)
    params = Params(1, -1)
    eigs = []
    for eps in (1e-1, 1e-2, 1e-3):
        u = np.array([math.sqrt(1 - eps), 0.0])
        H = tm_metric(params, chart, TMPoint(X0[:2], u))
        eigs.append(np.linalg.eigvalsh(H).min())
    assert eigs[0] > eigs[1] > eigs[2] > 0
    assert eigs[2] < 1e-3
    with pytest.raises(DomainError):
        tm_metric(params, chart, TMPoint(X0[:2], np.array([1.0, 0.0])))


def test_fd_christoffel_flat_and_symmetry():
    chart = Chart.space_form(3, 0.0)
    h_field = tm_metric_field(Params(0, 0), chart)
    z = np.concatenate([X0, np.array([0.3, 0.2, -0.1])])
    gam = fd_christoffel(h_field, z)
    assert_allclose(gam, 0, atol=1e-10)
    # symmetric in the lower pair by construction
    chart = Chart.space_form(2, 1.0)
    h_field = tm_metric_field(Params(1, 1), chart)
    z = np.concatenate([X0[:2], np.array([0.5, -0.2])])
    gam = fd_christoffel(h_field, z)
    assert_allclose(gam, np.einsum("abc->acb", gam), atol=1e-8)


def test_fd_vertical_christoffels_vanish_at_zero_section():
    # matches connection(case=vv, e=0) = 0 over a flat base
    chart = Chart.space_form(2, 0.0)
    h_field = tm_metric_field(Params(1, 1), chart)
    z = np.concatenate([X0[:2], np.zeros(2)])
    gam = fd_christoffel(h_field, z)
    assert_allclose(gam[:, 2:, 2:], 0, atol=1e-8)


def test_fd_riemann_flat_sasaki_zero():
    chart = Chart.space_form(3, 0.0)
    h_field = tm_metric_field(Params(0, 0), chart)
    z = np.concatenate([X0, np.array([0.3, 0.2, -0.1])])
    assert_allclose(fd_riemann(h_field, z), 0, atol=1e-6)


def test_fd_riemann_base_matches_constant_curvature_tensor():
    chart = Chart.space_form(3, 1.0)
    R = fd_riemann(chart.metric, X0)
    g = chart.metric(X0)
    lowered = np.einsum("ae,ebcd->abcd", g, R)
    # R(X,Y)Z = c( <Y,Z> X - <X,Z> Y ) lowers to c (g_ac g_bd - g_ad g_bc)
    want = np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
    scale = np.abs(want).max()
    assert np.abs(lowered - want).max() / scale <= 1e-4
    # pair symmetry of the lowered tensor
    assert np.abs(lowered - np.einsum("abcd->cdab", lowered)).max() / scale <= 1e-4


def test_compare_passes_reference_cell():
    chart = Chart.space_form(2, 1.0)
    g = chart.metric(X0[:2])
    d = np.array([0.3, 1.0])
    d = d / math.sqrt(d @ g @ d)
    pt = TMPoint(X0[:2], math.sqrt(0.49) * d)
    rep = compare(Params(1, 1), chart, pt)
    assert rep.passed, [(r.name, r.rel_err) for r in rep.failures()]


def test_compare_near_boundary_trends_to_mu():
    chart = Chart.space_form(3, 0.0)
    t = 0.9
    u = math.sqrt(t) * np.array([1.0, 0, 0])
    rep = compare(Params(2, -1), chart, TMPoint(X0, u))
    assert rep.passed
    rec = {r.name: r for r in rep.records}
    k = rec["sectional_vv_orthogonal"]
    assert abs(k.closed_form - 4.0) < 1.0  # trending to mu(2) = 4
    e = FiberPoint.radial(0.999999, 3)
    k_lim = sectional(Params(2, -1), e, "vv", np.eye(3)[1], np.eye(3)[2], BaseCurvature.space_form(0.0))
    assert_allclose(k_lim, 4.0, rtol=1e-4)


def test_compare_sasaki_fibres_flat_both_pipelines():
    chart = Chart.space_form(2, -1.0)
    g = chart.metric(X0[:2])
    d = np.array([1.0, 0.4])
    d = d / math.sqrt(d @ g @ d)
    rep = compare(Params(0, 0), chart, TMPoint(X0[:2], 0.5 * d))
    rec = {r.name: r for r in rep.records}
    assert abs(rec["sectional_vv_radial"].closed_form) < 1e-12
    assert abs(rec["sectional_vv_radial"].numeric) < 1e-6
    assert rep.passed
    # the report holds its own copy of the one tolerance table
    assert rep.tolerances == DEFAULT_TOLERANCES and rep.tolerances is not DEFAULT_TOLERANCES


def test_compare_rejects_boundary_points():
    chart = Chart.space_form(2, 0.0)
    with pytest.raises(DomainError):
        compare(Params(1, -1), chart, TMPoint(X0[:2], np.array([0.9999, 0.0])))
    sphere = Chart.space_form(2, 1.0)
    with pytest.raises(DomainError):
        compare(Params(1, 1), sphere, TMPoint(np.array([0.9, 0.0]), np.zeros(2)))


def test_step_halving_improves_sectional():
    chart = Chart.space_form(2, 1.0)
    params = Params(1, 1)
    g = chart.metric(X0[:2])
    d = np.array([0.3, 1.0])
    d = d / math.sqrt(d @ g @ d)
    pt = TMPoint(X0[:2], 0.7 * d)
    errs = []
    for step in (4e-3, 2e-3):
        rep = compare(params, chart, pt, suites=("sectional",), nested_step=step)
        rec = {r.name: r for r in rep.records}["sectional_hh_radial"]
        errs.append(abs(rec.closed_form - rec.numeric))
    assert errs[0] / max(errs[1], 1e-300) >= 2.0


def _digest_cells():
    """n in {2, 3}, c in {-1, 0, 1}; (2, -1) and (-1, 3) take turns at t = 0 and 0.81 of the bound."""
    for n in (2, 3):
        for c in (-1.0, 0.0, 1.0):
            for k, (p, q) in enumerate([(2, -1), (-1, 3)]):
                t_max = 1.0 if q >= 0 else -1.0 / q
                yield Params(p, q), n, c, 0.81 * t_max if (n + k) % 2 else 0.0


def test_compare_records_digest():
    # pins every oracle number bit for bit: a change to a step, the frame or a contraction shows here
    h = hashlib.sha256()
    for params, n, c, t in _digest_cells():
        for r in compare(params, Chart.space_form(n, c), _cell_point(n, c, t)).records:
            h.update(f"{r.name} {r.closed_form.hex()} {r.numeric.hex()} {r.rel_err.hex()}\n".encode())
    assert h.hexdigest() == "1c3e198141f01af424a8575edf7aab24e59601231203f8875c0d26b3cdf34719"


def test_report_tightest_is_least_headroom():
    rep = ComparisonReport()
    assert rep.tightest() is None
    rep.add("small_err", 1.0, 1.0 + 1e-6, 1e-4)  # headroom 100
    rep.add("exact", 2.0, 2.0, 1e-3)  # no error: headroom inf
    rep.add("near_zero", 0.0, 4e-5, 1e-4)  # absolute error below 1e-8: headroom 2.5
    rep.add("vector", np.array([3.0, 4.0]), np.array([3.0, 4.001]), 1e-3)  # 1e-3 / 5: headroom 5
    assert [r.name for r in rep.records if r.headroom == math.inf] == ["exact"]
    tight = rep.tightest()
    assert tight.name == "near_zero"
    assert tight.headroom == pytest.approx(2.5)
    vec = rep.records[-1]
    assert (vec.closed_form, vec.rel_err) == (5.0, pytest.approx(2e-4))
