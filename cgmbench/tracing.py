"""Spans around the public functions of each cgm module, recorded from outside.

`Tracer.install()` replaces every module attribute (and `verify.SUITES`
entry) that holds one of the traced functions, so calls made through an
imported name are recorded too: `cli` imports `classify` by name, `regions`
imports `poly_G`, `curvature` imports `coefficients`.  A span is
(name, start, end, parent); spans stay in memory while `active` and are
written out by `write()` when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "scalars": ["coefficients", "poly_G"],
    "regions": [
        "classify", "vertical_positivity", "vertical_curvature_minimum", "sectional_witness_min",
        "scalar_grid_min", "scalar_positivity_interval", "find_params_thm1", "find_params_thm3",
    ],
    "curvature": [
        "riemann_full", "riemann", "sectional_plane", "metric_h", "sectional_batch_spaceform",
        "sectional", "ricci", "scalar", "connection",
    ],
    "oracle": ["compare", "fd_riemann", "fd_christoffel"],
    "verify": ["suite_symmetries", "suite_regions"],
    "cli": ["run_scan", "write_scan_csv", "write_scan_svg"],
}
CLOSED_FORMS = ("curvature.sectional", "curvature.ricci", "curvature.scalar", "curvature.connection")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.planes = 0  # rows handed to sectional_batch_spaceform
        self.active = False

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter
        count_planes = name == "curvature.sectional_batch_spaceform"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            if count_planes:
                self.planes += len(args[3])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import cgm.cli  # noqa: F401  (loads every module of the package)
        from cgm import oracle, verify

        modules = [m for key, m in sys.modules.items() if key == "cgm" or key.startswith("cgm.")]
        for short, attrs in TRACED.items():
            home = sys.modules[f"cgm.{short}"]
            for attr in attrs:
                fn = getattr(home, attr)
                wrapper = self.wrap(f"{short}.{attr}", fn)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapper)
                for key, suite in verify.SUITES.items():
                    if suite is fn:
                        verify.SUITES[key] = wrapper
        oracle.Chart.metric = self.wrap("oracle.chart_metric", oracle.Chart.metric)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, d, c in zip(self.names, dur, child):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - c
        return out

    def count_under(self, name: str, parent_name: str) -> tuple[int, float]:
        """Calls of `name` made directly from `parent_name`, and their seconds."""
        calls, total = 0, 0.0
        for i, (n, parent) in enumerate(zip(self.names, self.parents)):
            if n == name and parent >= 0 and self.names[parent] == parent_name:
                calls += 1
                total += self.ends[i] - self.starts[i]
        return calls, total

    def write(self, path) -> None:
        """Spans as CSV: index, name, start and end in microseconds from the first span, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for i, (n, s, e, parent) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{n},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{parent}\n")


def per_layer(tracer: Tracer, cells_scanned: int) -> dict:
    """The span-derived per-layer metrics of BENCHMARK.json from one traced round."""
    s = tracer.summary()

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def per_call(name, scale):
        return s[name]["total_s"] / calls(name) * scale if calls(name) else 0.0

    def self_s(name):
        return s[name]["self_s"] if name in s else 0.0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    compares = calls("oracle.compare")
    closed_s = sum(tracer.count_under(name, "oracle.compare")[1] for name in CLOSED_FORMS)
    g_tried = tracer.count_under("scalars.poly_G", "regions.find_params_thm3")[0]
    return {
        "scalars.coefficients.calls": calls("scalars.coefficients"),
        "scalars.coefficients.us_per_call": per_call("scalars.coefficients", 1e6),
        "scalars.poly_G.calls": calls("scalars.poly_G"),
        "scalars.poly_G.ms_per_call": per_call("scalars.poly_G", 1e3),
        "scalars.poly_G.self_s": self_s("scalars.poly_G"),
        "regions.classify.calls": calls("regions.classify"),
        "regions.classify.us_per_call": per_call("regions.classify", 1e6),
        "regions.classify.self_s": self_s("regions.classify"),
        "regions.vertical_positivity.calls": calls("regions.vertical_positivity"),
        "regions.vertical_curvature_minimum.ms_per_call": per_call("regions.vertical_curvature_minimum", 1e3),
        "regions.vertical_curvature_minimum.self_s": self_s("regions.vertical_curvature_minimum"),
        "regions.sectional_witness_min.ms_per_call": per_call("regions.sectional_witness_min", 1e3),
        "regions.scalar_grid_min.calls": calls("regions.scalar_grid_min"),
        "regions.scalar_grid_min.us_per_call": per_call("regions.scalar_grid_min", 1e6),
        "regions.scalar_positivity_interval.ms_per_call": per_call("regions.scalar_positivity_interval", 1e3),
        "regions.find_params_thm1.ms_per_call": per_call("regions.find_params_thm1", 1e3),
        "regions.find_params_thm3.ms_per_call": per_call("regions.find_params_thm3", 1e3),
        "regions.find_params_thm3.g_tried_per_accept": (
            g_tried / calls("regions.find_params_thm3") if calls("regions.find_params_thm3") else 0.0
        ),
        "curvature.riemann_full.calls": calls("curvature.riemann_full"),
        "curvature.riemann_full.us_per_call": per_call("curvature.riemann_full", 1e6),
        "curvature.riemann_full.self_s": self_s("curvature.riemann_full"),
        "curvature.riemann.calls": calls("curvature.riemann"),
        "curvature.sectional_plane.us_per_call": per_call("curvature.sectional_plane", 1e6),
        "curvature.metric_h.calls": calls("curvature.metric_h"),
        "curvature.sectional_batch_spaceform.us_per_plane": (
            total("curvature.sectional_batch_spaceform") / tracer.planes * 1e6 if tracer.planes else 0.0
        ),
        "curvature.closed_forms.us_per_compare": closed_s / compares * 1e6 if compares else 0.0,
        "oracle.compare.calls": compares,
        "oracle.compare.ms_per_call": per_call("oracle.compare", 1e3),
        "oracle.compare.self_s": self_s("oracle.compare"),
        "oracle.fd_riemann.ms_per_call": per_call("oracle.fd_riemann", 1e3),
        "oracle.fd_christoffel.calls_per_compare": calls("oracle.fd_christoffel") / compares if compares else 0.0,
        "oracle.chart_metric.calls_per_compare": calls("oracle.chart_metric") / compares if compares else 0.0,
        "verify.suite_symmetries.s": total("verify.suite_symmetries"),
        "verify.suite_regions.s": total("verify.suite_regions"),
        "cli.run_scan.us_per_cell": total("cli.run_scan") / cells_scanned * 1e6 if cells_scanned else 0.0,
        "cli.write_scan_csv.ms_per_call": per_call("cli.write_scan_csv", 1e3),
        "cli.write_scan_svg.ms_per_call": per_call("cli.write_scan_svg", 1e3),
    }
