"""Command-line surface: classify, scan, curvature, find-params, verify.

Flags accept exact rationals ("16/3", "0.05") so that region boundaries are
testable without floating fuzz.  Scans evaluate at the float value of each
grid node, which is exactly what the CSV records, so re-parsing a CSV row and
re-evaluating reproduces the stored value bit-for-bit.  A scan's cells are one
(N, 3) float64 array of rows (p, q, value), from the column kernel to the writers.

Exit codes: 0 success, 1 verification failure or no certified candidate, 2 usage error, 3 I/O error.
Subcommands raise and :func:`main` alone turns the outcome into the code: a ValueError (DomainError
included) is a usage error, a RuntimeError a search without a certified candidate, an OSError I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import regions as rg
from .regions import classify, find_params_thm1, find_params_thm3, radial_planes
from .scalars import Params, as_exact, check_n, fibre_end, scalar_curvature_spaceform
from .verify import SUITES, run_suites

MAX_GRID_CELLS = 10_000_000


def parse_number(text: str):
    """Exact rational flag parsing: "16/3", "0.05", "-2" all stay exact (an int when integral).
    A zero denominator and a value past the float range are usage errors."""
    try:
        value = Fraction(text)  # exact for decimal strings
        float(value)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is outside the float range") from None
    return as_exact(value)


def parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ranges are lo:hi:step")
    lo, hi, step = (parse_number(s) for s in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    if hi < lo:
        raise argparse.ArgumentTypeError("hi must be >= lo")
    return lo, hi, step


def _fmt(v) -> str:
    return f"{float(v):.12g}"


@dataclass(frozen=True)
class ScanSpec:
    p_range: tuple
    q_range: tuple
    n: int
    c: Optional[object]
    predicate: str

    def axis_count(self, which: str) -> int:
        lo, hi, step = self.p_range if which == "p" else self.q_range
        return int(Fraction(hi - lo) / Fraction(step)) + 1

    def axis(self, which: str) -> list:
        lo, hi, step = self.p_range if which == "p" else self.q_range
        return [lo + k * step for k in range(self.axis_count(which))]


def _scan(spec: ScanSpec) -> tuple[np.ndarray, int]:
    """The cells of :func:`run_scan` by :func:`regions.column_values`, and how many were ties."""
    if spec.axis_count("p") * spec.axis_count("q") > MAX_GRID_CELLS:
        raise ValueError("grid exceeds the 1e7 cell limit")
    p_axis, q_axis = (np.array([float(v) for v in spec.axis(which)]) for which in ("p", "q"))
    cells = np.empty((p_axis.size, q_axis.size, 3))
    cells[:, :, 0], cells[:, :, 1] = p_axis[:, None], q_axis
    exact = 0
    for i, p in enumerate(p_axis.tolist()):
        cells[i, :, 2], ties = rg.column_values(spec.predicate, p, q_axis, spec.n, spec.c)
        exact += ties
    return cells.reshape(-1, 3), exact


def run_scan(spec: ScanSpec) -> np.ndarray:
    """Evaluate the scan grid in deterministic row-major order (p outer, q inner): a C-contiguous
    float64 array of shape (N, 3), one row (p, q, value) per cell."""
    return _scan(spec)[0]


def _write_cells(fh, cells, head, tail) -> None:
    """Write each cell (p, q, v) of the scan's (N, 3) array, or of any sequence of (p, q, v), as head(p) +
    tail(q, v), in blocks of 4096 rows that bound the transient memory: one tail per distinct (q, v) bit
    pattern, one write h + h.join(tails) per run of equal p bits."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 3)
    for part in (cells[i:i + 4096] for i in range(0, len(cells), 4096)):
        bits = part.view(np.int64)  # -0.0 == 0.0, but "-0" != "0"
        # return_index=True: the stable sort of the tail key below, not a second sort kernel to page in
        (_, _, q_of), (_, _, v_of) = (np.unique(bits[:, j], return_index=True, return_inverse=True) for j in (1, 2))
        _, first, tail_of = np.unique(q_of * (v_of.max() + 1) + v_of, return_index=True, return_inverse=True)
        tails = np.array([tail(q, v) for q, v in part[first, 1:].tolist()], dtype=object)
        runs = (np.flatnonzero(bits[1:, 0] != bits[:-1, 0]) + 1).tolist()
        for a, b in zip([0] + runs, runs + [len(part)]):
            h = head(part[a, 0])  # an np.float64, a float subclass
            fh.write(h + h.join(tails[tail_of[a:b]].tolist()))


def write_scan_csv(path: str, spec: ScanSpec, cells) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("p,q,predicate,value\n")
        _write_cells(fh, cells, lambda p: f"{_fmt(p)},", lambda q, v: f"{_fmt(q)},{spec.predicate},{_fmt(v)}\n")


def write_scan_svg(path: str, spec: ScanSpec, cells) -> None:
    cells = np.asarray(cells, dtype=float).reshape(-1, 3)
    for j, axis in enumerate("pq"):
        if np.isnan(cells[:, j]).any():  # NaN equals no position key
            raise ValueError(f"a cell has NaN {axis}: no position in the SVG")
    p_vals, q_vals = (np.unique(cells[:, j]).tolist() for j in (0, 1))  # -0.0 and 0.0 share one position
    cell_px = 6
    legend_h = 24
    width = len(p_vals) * cell_px + 2
    height = len(q_vals) * cell_px + legend_h + 2
    xs = {v: i * cell_px + 1 for i, v in enumerate(p_vals)}
    ys = {v: (len(q_vals) - 1 - i) * cell_px + 1 for i, v in enumerate(q_vals)}  # q grows upward
    dark, light = "#1f3a6e", "#e8ecf4"

    def tail(q, v):
        fill = "url(#hatch)" if math.isnan(v) else (dark if v > 0.5 else light)
        return f'{ys[q]}" width="{cell_px}" height="{cell_px}" fill="{fill}"/>\n'
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            "<defs><pattern id=\"hatch\" width=\"4\" height=\"4\" patternUnits=\"userSpaceOnUse\">"
            "<path d=\"M0,4 L4,0\" stroke=\"#8a8a8a\" stroke-width=\"1\"/></pattern></defs>\n"
        )
        _write_cells(fh, cells, lambda p: f'<rect x="{xs[p]}" y="', tail)  # positions by value, as dict keys
        ly = len(q_vals) * cell_px + 6
        for x, fill, label in ((2, dark, spec.predicate), (90, light, "outside"), (160, "url(#hatch)", "n/a")):
            fh.write(f'<rect x="{x}" y="{ly}" width="10" height="10" fill="{fill}"/>\n')
            fh.write(f'<text x="{x + 14}" y="{ly + 9}" font-size="9">{label}</text>\n')
        fh.write("</svg>\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    params = Params(args.p, args.q)
    verdict = classify(params, args.n, args.c)
    payload = verdict.as_dict()
    payload["p"], payload["q"], payload["n"] = float(args.p), float(args.q), args.n
    if args.c is not None:
        payload["c"] = float(args.c)
        exact = args.n * (args.n - 1) * (args.c + 2 * args.p + args.q)
        try:
            payload["scalar_at_zero"] = float(exact)
        except OverflowError:  # past the float range, where the sign is still exact
            payload["scalar_at_zero"] = math.inf if exact > 0 else -math.inf
    for key in ("in_gamma", "in_gamma_prime", "in_omega", "in_delta", "in_delta_prime",
                "gamma_component", "scalar_condition"):
        print(f"{key} = {payload[key]}")
    if "scalar_at_zero" in payload:
        print(f"scalar_at_zero = {_fmt(payload['scalar_at_zero'])}")
    print(json.dumps(payload, default=str))
    return 0


def cmd_scan(args) -> int:
    spec = ScanSpec(args.p_range, args.q_range, args.n, args.c, args.predicate)
    t0 = time.perf_counter()
    cells, exact = _scan(spec)
    t1 = time.perf_counter()
    write_scan_csv(args.csv, spec, cells)
    t2 = t3 = time.perf_counter()
    if args.svg:
        write_scan_svg(args.svg, spec, cells)
        t3 = time.perf_counter()
    print(f"scan: {len(cells)} cells, {exact} on the exact per-cell path", file=sys.stderr)
    svg_s = f", svg {t3 - t2:.3f} s" if args.svg else ""
    print(f"scan: columns with ties {t1 - t0:.3f} s, csv {t2 - t1:.3f} s{svg_s}", file=sys.stderr)
    print(f"wrote {len(cells)} cells to {args.csv}" + (f" and {args.svg}" if args.svg else ""))
    return 0


def cmd_curvature(args) -> int:
    params = Params(args.p, args.q)
    n, c = args.n, float(args.c)
    t_max = float(args.t_max)
    for flag, value in (("--t-max", t_max), ("--samples", args.samples)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0")
    if args.samples > MAX_GRID_CELLS:
        raise ValueError("--samples exceeds the 1e7 sample limit")
    if not params.contains_t(t_max):
        t_max = (1 - 1e-6) * fibre_end(params)
        print(f"warning: t-max clipped to {t_max:.9g} (ball-bundle boundary)", file=sys.stderr)
    t = np.linspace(0.0, t_max, args.samples)
    with np.errstate(all="ignore"):  # at the edge of the float range the rows read inf and nan
        fam = radial_planes(params, c, t)
        k_vv_min = np.minimum(fam.vv_through, fam.vv_perp) if n >= 3 else fam.vv_through
        s = scalar_curvature_spaceform(params, n, c, t)
    lines = ["t,K_hh_max_e,K_hv_max_e,K_vv_min,K_vv_U,scalar"]
    for i in range(t.size):
        row = (t[i], fam.hh[i], fam.hv[i], k_vv_min[i], fam.vv_through[i], s[i])
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_find_params(args) -> int:
    t0 = time.perf_counter()
    if args.nonneg_q:
        result, route = find_params_thm3(args.n, args.c), "nonnegative-q coefficient search"
    else:
        result, route = find_params_thm1(args.n, args.c), "minimal-mu grid search"
    search_s = time.perf_counter() - t0 - result.certificate_s
    print(f"find-params: {route}, search {search_s:.3f} s, certificate {result.certificate_s:.3f} s", file=sys.stderr)
    p, q = float(result.params.p), float(result.params.q)
    print(f"route = {route}")
    print(f"p = {_fmt(p)}")
    print(f"q = {_fmt(q)}" + ("  (ball-bundle metric: q < 0)" if q < 0 else ""))
    print(f"search = {result.certificate.get('path', '')}")
    print(f"certificate_min_scalar = {_fmt(result.certificate['min_scalar_on_grid'])}")
    if "G_coefficients" in result.certificate:
        coeffs = ", ".join(_fmt(v) for v in result.certificate["G_coefficients"])
        print(f"G_coefficients = [{coeffs}]")
    payload = {"p": p, "q": q, "route": route}
    payload.update({k: v for k, v in result.certificate.items()})
    print(json.dumps(payload, default=str))
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    results = []
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        t0, k0 = time.perf_counter(), len(results)
        results += run_suites([name], seed=args.seed)
        print(f"verify: {name} {len(results) - k0} checks in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for res in results:
        print(json.dumps(res.as_dict()))
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgm",
        description="Curvature toolkit for the h_{p,q} family of tangent-bundle metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="region memberships of one (p, q) point")
    cl.add_argument("--p", type=parse_number, required=True)
    cl.add_argument("--q", type=parse_number, required=True)
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--c", type=parse_number, default=None)
    cl.set_defaults(func=cmd_classify)

    sc = sub.add_parser("scan", help="rasterize a region predicate over a (p, q) grid")
    sc.add_argument("--p-range", type=parse_range, required=True, metavar="LO:HI:STEP")
    sc.add_argument("--q-range", type=parse_range, required=True, metavar="LO:HI:STEP")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--c", type=parse_number, default=None)
    sc.add_argument("--predicate", choices=rg.SCAN_PREDICATES, required=True)
    sc.add_argument("--csv", required=True)
    sc.add_argument("--svg", default=None)
    sc.set_defaults(func=cmd_scan)

    cu = sub.add_parser("curvature", help="curvature profiles along the fibre radius")
    cu.add_argument("--p", type=parse_number, required=True)
    cu.add_argument("--q", type=parse_number, required=True)
    cu.add_argument("--n", type=int, required=True)
    cu.add_argument("--c", type=parse_number, required=True)
    cu.add_argument("--t-max", type=parse_number, default=4)
    cu.add_argument("--samples", type=int, default=200)
    cu.add_argument("--csv", default=None)
    cu.set_defaults(func=cmd_curvature)

    fp = sub.add_parser("find-params", help="search parameters with positive scalar curvature")
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--c", type=parse_number, required=True)
    fp.add_argument("--nonneg-q", action="store_true")
    fp.set_defaults(func=cmd_find_params)

    vf = sub.add_parser("verify", help="run the invariant suites")
    vf.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; argparse exits 2 itself on a malformed flag."""
    args = build_parser().parse_args(argv)
    try:
        check_n(getattr(args, "n", 2))
        return args.func(args)
    except (ValueError, RuntimeError) as exc:  # a usage error (2), or no certified candidate (1)
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
