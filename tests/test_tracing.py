"""The names and signatures that the benchmark relies on exist in the package.

`cgmbench/tracing.py` wraps `cgm` functions by module attribute name, so a
renamed or deleted function breaks the traced benchmark run.  The module is
loaded from its path and only read: no tracer is installed.  The workloads
(`cgmbench/workloads.py`) call the scan, search, verify, oracle and batched
curvature functions with fixed argument lists, so renamed, reordered or
dropped parameters would break only a benchmark run.  The search workload's
`regions.scalar_grid_min` metric reads 0 unless each certificate calls it.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from cgm import cli, curvature, oracle, regions, verify  # cli loads every module of the package

TRACING = Path(__file__).resolve().parent.parent / "cgmbench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("cgmbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{short}.{attr}" for short, attrs in tracing.TRACED.items()
               for attr in attrs if not callable(getattr(sys.modules[f"cgm.{short}"], attr, None))]
    assert not missing, missing
    assert isinstance(verify.SUITES, dict) and verify.SUITES
    assert callable(oracle.Chart.metric)


def test_atlas_scan_signatures():
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for func, names in ((cli.run_scan, ["spec"]), (cli.write_scan_csv, ["path", "spec", "cells"]),
                        (cli.write_scan_svg, ["path", "spec", "cells"])):
        params = list(inspect.signature(func).parameters.values())
        assert [p.name for p in params] == names, func.__name__
        assert all(p.kind in positional and p.default is p.empty for p in params), func.__name__
    # the other workloads' calls: (function, number of positional arguments, keyword arguments)
    for func, count, keywords in ((regions.find_params_thm1, 2, ()), (regions.find_params_thm3, 2, ()),
                                  (regions.scalar_positivity_interval, 2, ()), (verify.run_suites, 1, ("seed",)),
                                  (oracle.compare, 3, ("suites",)), (curvature.sectional_batch_spaceform, 7, ()),
                                  (curvature.FiberPoint.radial, 2, ())):
        inspect.signature(func).bind(*range(count), **dict.fromkeys(keywords))


def test_certificates_call_scalar_grid_min(monkeypatch):
    grid_min, calls = regions.scalar_grid_min, []
    monkeypatch.setattr(regions, "scalar_grid_min", lambda *args: calls.append(args) or grid_min(*args))
    for search in (regions.find_params_thm1, regions.find_params_thm3):
        for n, c in ((2, -1), (3, 4), (5, 0)):
            calls.clear()
            result = search(n, c)
            assert len(calls) == 1, (search.__name__, n, c)
            assert calls[0][0] == result.params
            assert result.certificate["min_scalar_on_grid"] == grid_min(*calls[0])[0]
