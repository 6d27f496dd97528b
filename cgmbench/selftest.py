#!/usr/bin/env python3
"""Quick self-test of the benchmark (well under a minute).

    python3 cgmbench/selftest.py

Runs every workload on small inputs (`--quick`), untraced and traced twice,
with all output checks, and asserts the result contract: exit code 0, the
last line has exactly the keys correct/attempted/failed/metrics, no failed
operation, the metric names of BENCHMARK.json, counts that repeat
exactly between the two traced runs, and a value above 0 for each layer
metric that the workload is meant to move (`MOVES`; the regions-suite
metrics of verify are left to full runs, since the quick verify runs the
symmetries suite only).  It also checks that the benchmark
fails, without printing a result, in a directory holding only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "bytes")
MOVES = {
    "atlas": [
        "regions.classify.us_per_call", "regions.classify.self_s", "regions.vertical_positivity.calls",
        "cli.run_scan.us_per_cell", "cli.write_scan_csv.ms_per_call", "cli.write_scan_svg.ms_per_call",
        "cli.bytes_written",
    ],
    "verify": [
        "scalars.coefficients.us_per_call", "curvature.riemann_full.us_per_call", "curvature.riemann_full.self_s",
        "curvature.riemann.calls", "curvature.sectional_plane.us_per_call", "curvature.metric_h.calls",
        "verify.suite_symmetries.s", "verify.checks",
    ],
    "crosscheck": [
        "curvature.sectional_batch_spaceform.us_per_plane", "curvature.closed_forms.us_per_compare",
        "oracle.compare.ms_per_call", "oracle.compare.self_s", "oracle.compare.headroom",
        "oracle.fd_riemann.ms_per_call", "oracle.fd_christoffel.calls_per_compare",
        "oracle.chart_metric.calls_per_compare",
    ],
    "search": [
        "scalars.poly_G.ms_per_call", "scalars.poly_G.self_s", "regions.scalar_grid_min.us_per_call",
        "regions.scalar_positivity_interval.ms_per_call", "regions.find_params_thm1.ms_per_call",
        "regions.find_params_thm3.ms_per_call", "regions.find_params_thm3.g_tried_per_accept",
    ],
}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list]:
    proc = subprocess.run(
        [sys.executable, "cgmbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int) -> dict:
    code, lines = run(ROOT, workload, trace)
    assert code == 0, f"{workload} trace={trace}: exit code {code}"
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: v["unit"] for name, v in res["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json"
    return res


def main() -> int:
    t0 = time.perf_counter()
    for w in SPEC["workloads"]:
        name = w["name"]
        e2e = result(name, 0)
        assert all(v["value"] > 0 for v in e2e["metrics"].values()), e2e
        first, second = result(name, 1), result(name, 1)
        for metric, spec_unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"]):
            if spec_unit in EXACT_UNITS:
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                assert a == b, f"{name}: {metric} differs between two traced runs ({a} != {b})"
        for metric in MOVES[name] + ["process.cpu_s", "process.cpu_per_wall"]:
            assert first["metrics"][metric]["value"] > 0, f"{name}: {metric} reads 0"
        print(f"ok {name}: {e2e['attempted']} operations, wall_s {e2e['metrics']['wall_s']['value']:.3f}")

    bare = ROOT / "cgmbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "cgmbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "cgmbench").glob("*.*"):
        shutil.copy(f, bare / "cgmbench")
    code, lines = run(bare, "search", 0)
    assert code != 0 and not lines, "without src/cgm the benchmark must fail and print no result"
    shutil.rmtree(bare)
    print(f"ok bare directory: exit code {code}")
    print(f"self-test passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
