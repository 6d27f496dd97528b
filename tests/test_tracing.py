"""The names and signatures that the benchmark relies on exist in the package.

`cgmbench/tracing.py` wraps `cgm` functions by module attribute name, so a
renamed or deleted function breaks the traced benchmark run.  The module is
loaded from its path and only read: no tracer is installed.  The atlas
workload (`cgmbench/workloads.py`, `Atlas._raster`) calls the scan functions
positionally, so renamed or reordered parameters would break only a
benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from cgm import cli, oracle, verify  # cli loads every module of the package

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
