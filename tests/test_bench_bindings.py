"""The benchmark tracer binds only names the package still defines.

``bench/tracing.py`` wraps awgp functions by looking each one up with
``vars(owner)[attr]``; a name dropped from a module would break the traced
benchmark run.  This test loads the tracer as it is and checks every binding.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_defined():
    spec = importlib.util.spec_from_file_location("awgp_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _, _ in tracing.bindings() if attr not in vars(owner)]
    finally:
        del sys.modules[spec.name]
    assert not missing
