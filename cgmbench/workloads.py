"""The four benchmark workloads: inputs from a seed, one round of timed
operations, and the checks of their outputs.

A workload object is built once per process (that is part of set-up).  Its
`ops()` are the timed operations of one round; the worker runs whole rounds.
After each operation, outside the timed region, `record(i, out)` turns the
output into a comparable value: every later round must reproduce the first
round's records exactly.  `check(records)` examines the first round and
returns, per operation, how many operations it stands for, how many of them
failed and what went wrong.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import independent
from cgm import cli, curvature, oracle, regions, verify
from cgm.scalars import Params


class Raised:
    """Record of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fhex(x) -> str:
    return float(x).hex()


# base point and fibre direction of the oracle probes (chart coordinates)
_PROBE_X = np.array([0.12, -0.07, 0.05, 0.03, -0.02])
_PROBE_DIR = np.array([0.3, 1.0, -0.2, 0.1, 0.4])


def oracle_scalar(params: Params, n: int, c, t: float) -> float:
    """Finite-difference scalar curvature of h_{p,q} over M(c) at radius t."""
    chart = oracle.Chart.space_form(n, float(c))
    x = _PROBE_X[:n]
    d = _PROBE_DIR[:n] / math.sqrt(float(_PROBE_DIR[:n] @ chart.metric(x) @ _PROBE_DIR[:n]))
    pt = oracle.TMPoint(x, math.sqrt(t) * d)
    return oracle.compare(params, chart, pt, suites=("scalar",)).records[0].numeric


# ---------------------------------------------------------------------------
# atlas


class Atlas:
    """The region atlas of scripts/region_atlas.py plus vertical_positive n=2."""

    name = "atlas"

    def __init__(self, seed: int, quick: bool, outdir: Path):
        self.outdir = outdir
        step = Fraction(1, 4) if quick else Fraction(1, 20)
        self.p_range, self.q_range = (-9, 3, step), (-3, 3, step)
        specs = [
            ("gamma_n3", cli.ScanSpec(self.p_range, self.q_range, 3, None, "gamma")),
            ("gamma_prime_n2", cli.ScanSpec(self.p_range, self.q_range, 2, None, "gamma_prime")),
        ]
        for c in (0, 1, Fraction(16, 3), 6):
            specs.append((f"delta_c{float(c):g}", cli.ScanSpec(self.p_range, self.q_range, 3, c, "delta")))
        specs.append(
            ("scalar_sufficient_c4", cli.ScanSpec(self.p_range, self.q_range, 3, 4, "scalar_sufficient"))
        )
        specs.append(
            ("vertical_positive_n2", cli.ScanSpec(self.p_range, self.q_range, 2, None, "vertical_positive"))
        )
        # the grid is fixed; the seed orders the rasters and picks the one repeated in the checks
        rng = random.Random(seed)
        rng.shuffle(specs)
        self.specs = specs
        self.repeat = rng.randrange(len(specs))
        self.kept: dict = {}

    def _paths(self, name: str) -> tuple[Path, Path]:
        return self.outdir / f"atlas_{name}.csv", self.outdir / f"atlas_{name}.svg"

    def _raster(self, name: str, spec):
        csv_path, svg_path = self._paths(name)
        cells = cli.run_scan(spec)
        cli.write_scan_csv(str(csv_path), spec, cells)
        cli.write_scan_svg(str(svg_path), spec, cells)
        return cells

    def ops(self):
        return [(name, lambda name=name, spec=spec: self._raster(name, spec)) for name, spec in self.specs]

    def _files(self, name: str) -> tuple[bytes, bytes]:
        csv_path, svg_path = self._paths(name)
        return csv_path.read_bytes(), svg_path.read_bytes()

    def record(self, i: int, cells):
        csv, svg = self._files(self.specs[i][0])
        self.kept.setdefault(i, (cells, csv.decode("utf-8")))
        return (_digest(csv), _digest(svg), len(csv) + len(svg))

    def bytes_written(self, records) -> int:
        return sum(r[2] for r in records if not isinstance(r, Raised))

    def _axis(self, lo, hi, step) -> list:
        count = int(Fraction(hi - lo) / step) + 1
        return [float(Fraction(lo) + k * step) for k in range(count)]

    def check(self, records):
        names = [name for name, _ in self.specs]
        index = {name: i for i, name in enumerate(names)}
        problems: dict = {i: [] for i in range(len(names))}
        ps, qs = self._axis(*self.p_range), self._axis(*self.q_range)
        expected = [(p, q) for p in ps for q in qs]
        sets: dict = {}
        for i, (name, spec) in enumerate(self.specs):
            if isinstance(records[i], Raised):
                continue
            cells, csv = self.kept[i]
            if len(cells) != len(expected):
                problems[i].append(f"{len(cells)} cells, expected {len(expected)}")
                continue
            if [(p, q) for p, q, _ in cells] != expected:
                problems[i].append("cells are not the grid in row-major order (p outer, q inner)")
            lines = csv.split("\n")
            if lines[0] != "p,q,predicate,value" or lines[-1] != "" or len(lines) != len(cells) + 2:
                problems[i].append("CSV header, row count or final newline wrong")
            else:
                for line, (p, q, v) in zip(lines[1:-1], cells):
                    fp, fq, pred, fv = line.split(",")
                    if (float(fp), float(fq), pred, float(fv)) != (p, q, spec.predicate, v):
                        problems[i].append(f"CSV row {line!r} does not parse back to {(p, q, v)}")
                        break
            sets[name] = {(p, q) for p, q, v in cells if v == 1.0}

        def subset(small: str, big: str):
            if small in sets and big in sets and not sets[small] <= sets[big]:
                extra = sorted(sets[small] - sets[big])
                problems[index[small]].append(f"{small} not inside {big}: {extra[:3]}")

        subset("gamma_n3", "gamma_prime_n2")
        if "vertical_positive_n2" in sets and "gamma_prime_n2" in sets:
            if sets["vertical_positive_n2"] != sets["gamma_prime_n2"]:
                problems[index["vertical_positive_n2"]].append("vertical_positive n=2 differs from Gamma'")
        chain = ["delta_c6", "delta_c5.33333", "delta_c1", "delta_c0"]
        for small, big in zip(chain, chain[1:]):
            subset(small, big)
        if "gamma_n3" in sets:
            if (1.0, 1.0) not in sets["gamma_n3"] or (0.0, 0.0) in sets["gamma_n3"]:
                problems[index["gamma_n3"]].append("(1,1) must lie in Gamma and (0,0) outside it")
        # Delta_c inside Delta'_c: the prime verdict of every cell inside Delta_c
        for c, name in zip((6, Fraction(16, 3), 1, 0), chain):
            outside = [
                (p, q) for p, q in sorted(sets.get(name, ()))
                if not regions.classify(Params(p, q), 3, c).in_delta_prime
            ]
            if outside:
                problems[index[name]].append(f"{name} cells outside Delta'_c: {outside[:3]}")
        # positive scalar curvature inside the sufficient region, on a dense radius grid
        for p, q in sorted(sets.get("scalar_sufficient_c4", ())):
            s_min = float(independent.scalar_curvature(p, q, 3, 4.0, independent.radius_grid(q)).min())
            if not s_min > 0:
                problems[index["scalar_sufficient_c4"]].append(f"scalar curvature {s_min:.3g} at {(p, q)}")
        # a repeat of one raster has the same bytes
        name, spec = self.specs[self.repeat]
        if not isinstance(records[self.repeat], Raised):
            first = self._files(name)
            self._raster(name, spec)
            if self._files(name) != first:
                problems[self.repeat].append("a repeat of the raster wrote different bytes")
        return [(1, int(bool(problems[i])), problems[i]) for i in range(len(names))]


# ---------------------------------------------------------------------------
# verify


class Verify:
    """`cgm verify` on the symmetries and regions suites, at its default seed 0.

    The suites keep seed 0 whatever the benchmark seed is: at seed 2 the
    regions suite's `nonneg_sectional_witness` check fails (see CHANGES.md),
    and a check that fails on some seeds only would make the share of failed
    operations depend on the seed.
    """

    name = "verify"

    def __init__(self, seed: int, quick: bool, outdir: Path):
        self.suites = ["symmetries"] if quick else ["symmetries", "regions"]

    def ops(self):
        return [("run_suites", lambda: verify.run_suites(self.suites, seed=0))]

    def record(self, i: int, results):
        return tuple((r.name, r.status, repr(r.max_err), r.detail) for r in results)

    def check(self, records):
        rec = records[0]
        if isinstance(rec, Raised):
            return [(1, 1, [])]
        bad = [f"{name}: {detail}" for name, status, _, detail in rec if status != "pass"]
        return [(len(rec), len(bad), bad)]


# ---------------------------------------------------------------------------
# crosscheck


ANCHORS = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, -0.5), (2.0, -1.0), (-1.0, 3.0)]


class Crosscheck:
    """Closed forms against the finite-difference oracle, plus batched mixed planes."""

    name = "crosscheck"
    planes = 1000

    def __init__(self, seed: int, quick: bool, outdir: Path):
        rng = np.random.default_rng(seed)
        self.cells = []
        anchors = ANCHORS[1:2] if quick else ANCHORS
        levels = (1,) if quick else (0, 1, 2)
        for n in (2, 3):
            for c in (-1.0, 0.0, 1.0):
                for p0, q0 in anchors:
                    for level in levels:
                        if level == 0:
                            t = 0.0
                        elif level == 1:
                            t = 0.25 * rng.uniform(0.9, 1.1)
                        else:
                            t = -1.0 / q0 * rng.uniform(0.3, 0.4) if q0 < 0 else rng.uniform(0.4, 0.6)
                        x = rng.uniform(-0.15, 0.15, n)
                        chart = oracle.Chart.space_form(n, c)
                        d = rng.standard_normal(n)
                        d /= math.sqrt(float(d @ chart.metric(x) @ d))
                        raw = rng.standard_normal((4, self.planes, n))
                        mix = (rng.standard_normal(self.planes), rng.uniform(0.5, 2.0, (2, self.planes)))
                        self.cells.append(
                            (Params(p0, q0), n, c, t, chart, oracle.TMPoint(x, math.sqrt(t) * d), raw, mix)
                        )
        self.kept: dict = {}

    def _cell(self, params, n, c, t, chart, pt, raw):
        report = oracle.compare(params, chart, pt)
        k = curvature.sectional_batch_spaceform(params, c, curvature.FiberPoint.radial(t, n), *raw)
        return report, k

    def ops(self):
        return [
            (f"cell{i}", lambda cell=cell: self._cell(*cell[:7])) for i, cell in enumerate(self.cells)
        ]

    def record(self, i: int, out):
        report, k = out
        self.kept.setdefault(i, out)
        rows = tuple((r.name, _fhex(r.closed_form), _fhex(r.numeric), _fhex(r.rel_err)) for r in report.records)
        return rows, _digest(k.tobytes())

    def headroom(self) -> float:
        """Smallest tolerance / relative error over every record of the first round."""
        ratios = [
            r.tol / r.rel_err if r.rel_err > 0 else math.inf
            for report, _ in self.kept.values()
            for r in report.records
        ]
        return min(ratios)

    def check(self, records):
        out = []
        for i, (params, n, c, t, chart, pt, raw, mix) in enumerate(self.cells):
            if isinstance(records[i], Raised):
                out.append((1, 1, []))
                continue
            report, k = self.kept[i]
            problems = []
            if report.tolerances != oracle.DEFAULT_TOLERANCES or not report.passed:
                problems.append(f"oracle mismatch at {params}, n={n}, c={c}, t={t:.4g}: "
                                f"{[(r.name, r.rel_err) for r in report.failures()]}")
            e = curvature.FiberPoint.radial(t, n)
            lam, (s1, s2) = mix
            ah, av, bh, bv = raw
            variants = {
                "A+lambda*B": (ah + lam[:, None] * bh, av + lam[:, None] * bv, bh, bv),
                "swap": (bh, bv, ah, av),
                "scale": (s1[:, None] * ah, s1[:, None] * av, s2[:, None] * bh, s2[:, None] * bv),
            }
            for label, args in variants.items():
                k2 = curvature.sectional_batch_spaceform(params, c, e, *args)
                err = float(np.max(np.abs(k2 - k) / np.maximum(np.abs(k), 1.0)))
                if not err <= 1e-9:
                    problems.append(f"mixed-plane curvature not invariant under {label}: {err:.2e}")
            out.append((1, int(bool(problems)), problems))
        return out


# ---------------------------------------------------------------------------
# search


C_CENTERS = (-30, -20, -10, -3, 3, 10, 20, 30)
INTERVAL_CASES = [(1, 1), (1, 0), (2, 0), (1, 2), (2, 1), (3, 2), (2, -1), (3, -2)]
EXACT_H11 = {2: (0.0, 4.0), 3: (3 - math.sqrt(11), 3 + math.sqrt(11))}


class Search:
    """Constructive positive-scalar-curvature searches and the c-intervals."""

    name = "search"

    def __init__(self, seed: int, quick: bool, outdir: Path):
        rng = random.Random(seed)
        centers = [(2, -10), (3, -10), (3, 3), (5, 10)] if quick else [
            (n, c) for n in (2, 3, 4, 5) for c in C_CENTERS
        ]
        # c moves toward 0 by a seeded rational in [1/199, 1/100]: |c| <= 30 stays true
        self.pairs = []
        for n, c in centers:
            den = rng.randint(100, 199)
            self.pairs.append((n, Fraction(c) - int(math.copysign(1, c)) * Fraction(1, den)))
        self.radii = [rng.random() for _ in range(2 * len(self.pairs))]
        cases = INTERVAL_CASES[:3] if quick else INTERVAL_CASES
        self.intervals = [(p, q, n) for p, q in cases for n in (2, 3)]
        self.kept: dict = {}

    def ops(self):
        ops = []
        for n, c in self.pairs:
            ops.append((f"thm3_n{n}_c{c}", lambda n=n, c=c: regions.find_params_thm3(n, c)))
            ops.append((f"thm1_n{n}_c{c}", lambda n=n, c=c: regions.find_params_thm1(n, c)))
        for p, q, n in self.intervals:
            ops.append((f"interval_{p}_{q}_n{n}", lambda p=p, q=q, n=n: regions.scalar_positivity_interval(Params(p, q), n)))
        return ops

    def record(self, i: int, out):
        self.kept.setdefault(i, out)
        if isinstance(out, tuple):
            return tuple(_fhex(v) for v in out)
        return repr(out.params), repr(sorted(out.certificate.items()))

    def _positive_at_sampled_radius(self, params: Params, n: int, c, u: float) -> list:
        q = float(params.q)
        t = math.exp(math.log(0.05) + u * math.log(100.0)) if q >= 0 else -1.0 / q * (0.05 + 0.85 * u)
        s = oracle_scalar(params, n, c, t)
        return [] if s > 0 else [f"oracle scalar curvature {s:.4g} at t={t:.4g} for {params}, n={n}, c={c}"]

    def _thm3_problems(self, result, n: int, c) -> list:
        p, q = result.params.p, result.params.q
        if not (isinstance(p, int) and p >= 1 and q >= 0):
            return [f"thm3 returned {result.params}: need integer p >= 1 and q >= 0"]
        g = independent.poly_G_three_term(p, Fraction(q), n, Fraction(c))
        problems = []
        if not all(v > 0 for v in g):
            problems.append(f"exact G at {result.params} has a coefficient <= 0")
        if [float(v) for v in g] != list(result.certificate["G_coefficients"]):
            problems.append(f"certificate G at {result.params} differs from the exact expansion")
        return problems

    def _lowest_radius(self, p, q, n: int, c: float) -> float:
        """Where the benchmark's own scalar curvature formula is lowest, for t <= 1e3
        (q >= 0) or t <= 0.99 of the fibre bound (q < 0), inside the oracle's reach."""
        t = independent.radius_grid(float(q))
        t = t[t <= (1e3 if q >= 0 else -0.99 / q)]
        return float(t[np.argmin(independent.scalar_curvature(p, q, n, c, t))])

    def _sign_change(self, p, q, n: int, end: float, side: int) -> list:
        """The oracle's scalar curvature is negative just outside an interval end
        and positive just inside it, at the lowest radius just outside."""
        params = Params(p, q)
        delta = 0.02 * max(1.0, abs(end))
        c_out, c_in = end + side * delta, end - side * delta
        t_star = self._lowest_radius(p, q, n, c_out)
        outside = oracle_scalar(params, n, c_out, t_star)
        inside = oracle_scalar(params, n, c_in, t_star)
        if outside < 0 < inside:
            return []
        return [f"{params}, n={n}, end {end:.6g}: oracle scalar curvature {outside:.4g} at c={c_out:.6g} "
                f"and {inside:.4g} at c={c_in:.6g}, t={t_star:.4g}"]

    def _interval_problems(self, p, q, n: int, lo: float, hi: float) -> list:
        if math.isnan(lo) or math.isnan(hi):
            t_star = self._lowest_radius(p, q, n, 0.0)
            s = oracle_scalar(Params(p, q), n, 0.0, t_star)
            return [] if s < 0 else [f"({p}, {q}), n={n}: reported not positive at c=0, oracle {s:.4g} at t={t_star:.4g}"]
        if not lo <= 0 <= hi:
            return [f"interval ({lo}, {hi}) does not contain 0"]
        if (p, q) == (1, 1):
            want = EXACT_H11[n]
            if abs(lo - want[0]) > 1e-6 or abs(hi - want[1]) > 1e-6:
                return [f"h_11 n={n} interval ({lo}, {hi}), exact {want}"]
            return []
        problems = []
        for end, side in ((lo, -1), (hi, 1)):
            if math.isfinite(end):
                problems += self._sign_change(p, q, n, end, side)
        return problems

    def check(self, records):
        out = []
        for i, out_i in enumerate(records):
            if isinstance(out_i, Raised):
                out.append((1, 1, []))
                continue
            result = self.kept[i]
            if i < 2 * len(self.pairs):
                n, c = self.pairs[i // 2]
                problems = self._thm3_problems(result, n, c) if i % 2 == 0 else []
                problems += self._positive_at_sampled_radius(result.params, n, c, self.radii[i])
            else:
                p, q, n = self.intervals[i - 2 * len(self.pairs)]
                problems = self._interval_problems(p, q, n, *result)
            out.append((1, int(bool(problems)), problems))
        return out


WORKLOADS = {w.name: w for w in (Atlas, Verify, Crosscheck, Search)}
