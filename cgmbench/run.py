#!/usr/bin/env python3
"""The cgm benchmark.

    python3 cgmbench/run.py --workload atlas --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload process is started from here,
one at a time, single-threaded, with PYTHONPATH=src.  `--trace 0` prints the
end-to-end metrics; `--trace 1` runs one untraced and one traced round and
prints the per-layer metrics.  The last line of standard output is the result
object; the line before it is the environment block.  Both are also written
to cgmbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUTDIR = HERE / "out"
WORKLOADS = ("atlas", "verify", "crosscheck", "search")
SETUP_SAMPLES = 5  # set-up-only processes before and again after the measuring one (1 with --quick)


def calibration_ms() -> float:
    """A fixed pure-Python loop; a slow host shows as a larger figure."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, *extra: str) -> dict:
    """Run one worker process to its end and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--outdir", str(OUTDIR),
        *(["--quick"] if args.quick else []), *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "CGM_THREADS": os.environ.get("CGM_THREADS", "unset (default 1)"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def with_units(kind: str, values: dict) -> dict:
    """Every metric of BENCHMARK.json's list `kind`, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(args) -> tuple:
    """Set-up samples come before and after the measuring process, so that they span the run."""
    k = 1 if args.quick else SETUP_SAMPLES
    setups = [spawn(args, "--setup-only")["setup_s"] for _ in range(k)]
    res = spawn(args, "--seconds", repr(args.seconds))
    setups += [spawn(args, "--setup-only")["setup_s"] for _ in range(k)] + [res["setup_s"]]
    values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
    details = {"setup_samples_s": setups, "round_walls_s": res["round_walls"], "cpu_s": res["cpu_s"],
               "op_times_s": res["op_times"]}
    return res, with_units("end_to_end", values), details


def per_layer(args) -> tuple:
    """One untraced and one traced round; the tracing overhead is their difference."""
    plain = spawn(args)  # without --seconds a worker runs one round
    traced = spawn(args, "--trace")
    m = dict(traced["per_layer"])
    m["oracle.compare.headroom"] = traced.get("headroom", 0.0)
    m["verify.checks"] = traced.get("checks", 0)
    m["cli.bytes_written"] = traced.get("bytes_written", 0)
    m["process.cpu_s"] = plain["cpu_s"]
    m["process.cpu_per_wall"] = plain["cpu_s"] / plain["elapsed_s"]
    m["trace.overhead_pct"] = 100.0 * (traced["elapsed_s"] / plain["elapsed_s"] - 1.0)
    merged = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "correct": plain["correct"] and traced["correct"],
    }
    details = {"untraced_wall_s": plain["elapsed_s"], "traced_wall_s": traced["elapsed_s"]}
    return merged, with_units("per_layer", m), details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cgm" / "__init__.py").is_file():
        print("error: run from the root of a cgm checkout (src/cgm not found)", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    env = environment(args)
    env["calibration_ms_start"] = calibration_ms()
    res, metrics, details = per_layer(args) if args.trace else end_to_end(args)
    env["calibration_ms_end"] = calibration_ms()
    env.update(details)
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUTDIR / f"{stem}.json").write_text(json.dumps({"environment": env, "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": {k: v for k, v in env.items() if k != "op_times_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
