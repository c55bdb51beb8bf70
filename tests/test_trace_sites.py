"""Every site the benchmark's tracer wraps must exist in gapcover.

perfbench/tracing.py patches each (module, attribute) of its SITES table at
run time; a renamed or moved function would otherwise break the traced run
without failing any test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({site for sites in tracing.SITES.values() for site in sites})


@pytest.mark.parametrize("module, attr", traced_sites())
def test_traced_site_resolves(module, attr):
    mod = importlib.import_module(f"gapcover.{module}")
    assert callable(getattr(mod, attr, None)), f"gapcover.{module}.{attr} is missing"
