"""The names that the benchmark's tracer patches exist in the package.

`cgmbench/tracing.py` wraps `cgm` functions by module attribute name, so a
renamed or deleted function breaks the traced benchmark run.  The module is
loaded from its path and only read: no tracer is installed.
"""

import importlib.util
import sys
from pathlib import Path

import cgm.cli  # noqa: F401  (loads every module of the package)
from cgm import oracle, verify

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
