#!/usr/bin/env python3
"""Emit CSV + SVG rasters of the parameter-plane regions.

Produces the fibre-positivity regions (both dimensional variants, and the
vertical-positivity raster for n = 2, which equals Gamma'), the K >= 0
regions for a few base curvatures and the scalar-sufficient region into an
output directory: the eight rasters of the benchmark's atlas workload, under
the same names without its "atlas_" prefix.  Each line printed gives a
raster's inside count and how many cells took the exact per-cell path.

Usage: python scripts/region_atlas.py [outdir]
"""

import pathlib
import sys
from fractions import Fraction

import numpy as np

from cgm.cli import ScanSpec, _scan, write_scan_csv, write_scan_svg


def emit(outdir: pathlib.Path, name: str, spec: ScanSpec) -> None:
    cells, exact = _scan(spec)
    write_scan_csv(str(outdir / f"{name}.csv"), spec, cells)
    write_scan_svg(str(outdir / f"{name}.svg"), spec, cells)
    inside = np.count_nonzero(cells[:, 2] == 1.0)
    print(f"{name}: {inside}/{len(cells)} cells inside, {exact} on the exact per-cell path")


def main() -> int:
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("atlas")
    outdir.mkdir(parents=True, exist_ok=True)
    p_range = (-9, 3, Fraction(1, 20))
    q_range = (-3, 3, Fraction(1, 20))
    emit(outdir, "gamma_n3", ScanSpec(p_range, q_range, 3, None, "gamma"))
    emit(outdir, "gamma_prime_n2", ScanSpec(p_range, q_range, 2, None, "gamma_prime"))
    for c in (0, 1, Fraction(16, 3), 6):
        emit(outdir, f"delta_c{float(c):g}", ScanSpec(p_range, q_range, 3, c, "delta"))
    emit(outdir, "scalar_sufficient_c4", ScanSpec(p_range, q_range, 3, 4, "scalar_sufficient"))
    emit(outdir, "vertical_positive_n2", ScanSpec(p_range, q_range, 2, None, "vertical_positive"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
