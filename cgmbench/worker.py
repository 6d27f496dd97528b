"""One workload process: set up, run whole rounds, check outputs, report.

Started by run.py, one process at a time.  `--spawned-at` is the parent's
`time.monotonic()` just before it started this process, so set-up time
includes interpreter start.  With `--setup-only` the process stops where the
first timed operation would begin.  The last line of standard output is a
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def run_rounds(wl, ops, args, tracer):
    """Whole rounds, as many as fit in `--seconds`, and at least one.

    Returns the records of every round, the time of every operation and the
    CPU time of the operations (the same spans as the times).
    """
    from workloads import Raised

    rounds, op_times = [], []
    cpu_s = 0.0
    t_first = None
    while True:
        records, times = [], []
        for i, (_, fn) in enumerate(ops):
            if tracer is not None:
                tracer.active = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            if t_first is None:
                t_first = t0
            try:
                out = fn()
            except Exception as exc:  # an operation that raises counts as failed
                out = Raised(exc)
                traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - t0)
            cpu_s += time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            records.append(out if isinstance(out, Raised) else wl.record(i, out))
        rounds.append(records)
        op_times.append(times)
        if time.perf_counter() - t_first + sum(times) > args.seconds:
            break
    return rounds, op_times, cpu_s


def tally(wl, labels, rounds):
    """attempted, failed and the problems found: first round checked, later ones compared to it."""
    first = rounds[0]
    verdicts = wl.check(first)
    attempted = failed = 0
    problems = [p for _, _, ps in verdicts for p in ps]
    for k, records in enumerate(rounds):
        for i, (weight, bad, _) in enumerate(verdicts):
            attempted += weight
            if records[i] == first[i]:
                failed += bad
            else:
                failed += weight
                problems.append(f"round {k}: {labels[i]} differs from round 0")
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads  # imports cgm and numpy

    outdir = Path(args.outdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, outdir)
    ops = wl.ops()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds, op_times, cpu_s = run_rounds(wl, ops, args, tracer)
    walls = [sum(times) for times in op_times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = tally(wl, [label for label, _ in ops], rounds)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "round_walls": walls,
        "op_times": op_times,
        "wall_s": statistics.median(walls),
        "cpu_s": cpu_s,
        "elapsed_s": sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
    }
    first = rounds[0]
    if args.workload == "atlas":
        result["bytes_written"] = wl.bytes_written(first)
        result["cells_scanned"] = sum(len(cells) for cells, _ in wl.kept.values())
    if args.workload == "verify":
        result["checks"] = attempted // len(rounds)
    if args.workload == "crosscheck":
        result["headroom"] = wl.headroom()
    if tracer is not None:
        import tracing

        result["per_layer"] = tracing.per_layer(tracer, result.get("cells_scanned", 0))
        tracer.write(outdir / f"spans_{args.workload}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
