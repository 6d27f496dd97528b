"""Curvature toolkit for the metric family h_{p,q} on tangent bundles; each name is imported from its submodule."""
