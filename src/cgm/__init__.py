"""Curvature toolkit for the metric family h_{p,q} on tangent bundles."""

from .scalars import (
    CoefficientSet,
    DomainError,
    EPS_DOM,
    Params,
    PolySpec,
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
)
from .curvature import (
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
    sectional_plane,
    tangent_frame,
)
from .regions import (
    RegionVerdict,
    SearchResult,
    classify,
    find_params_general,
    find_params_thm1,
    find_params_thm3,
    nonneg_sectional,
    scalar_pos_sufficient,
    scalar_positivity_interval,
    vertical_positivity,
)
from .oracle import Chart, ComparisonReport, TMPoint, compare, fd_christoffel, fd_riemann, tm_metric

__all__ = [name for name in dir() if not name.startswith("_")]
