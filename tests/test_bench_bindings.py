"""The benchmark tracer binds only names the package still defines.

``bench/tracing.py`` wraps awgp functions by looking each one up with
``vars(owner)[attr]``; a name dropped from a module would break the traced
benchmark run.  The first test loads the tracer as it is and checks every
binding, the second that every kernel kind is traced once under its own name,
and the third keeps the hyp2f1 counts it reads meaning what they did.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
from awgp import kernels
from awgp.gauss_aw import _nodes, _pair_gammas
from awgp.quadrature import QuadratureGrid

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """``bench/tracing.py`` as it is, loaded as a module."""
    spec = importlib.util.spec_from_file_location("awgp_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return tracing


def test_every_traced_name_is_defined():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _load_tracing().bindings() if attr not in vars(owner)]
    assert not missing


def test_kernel_spans_are_the_kernel_kinds():
    # each concrete kernel class binds its own eval under its own kind: an eval or a kind on a
    # shared base class would move or drop the per-kind point counts
    tracing = _load_tracing()
    bound = tracing.bindings()
    evals = [name for owner, attr, name, _ in bound if isinstance(owner, type) and attr == "eval"]
    expect = [f"kernels.{k}" for k in tracing.KERNEL_KINDS]
    assert sorted(evals) == sorted(expect) and len(set(expect)) == len(expect)
    assert {name for _, _, name, _ in bound if name.startswith("kernels.")} == set(expect)


def test_one_hyp2f1_call_per_mg_evaluation(monkeypatch):
    # the tracer counts specfun.hyp2f1 calls and lanes at kernels.hyp2f1: one MG evaluation
    # on the grid-256 distance-core node set must stay one call of 65536 lanes
    real, lanes = kernels.hyp2f1, []

    def spy(a, b, c, z, *args, **kwargs):
        lanes.append(np.size(z))
        return real(a, b, c, z, *args, **kwargs)

    monkeypatch.setattr(kernels, "hyp2f1", spy)
    mg = kernels.MolchanGolosov
    gamma_s, gamma_t = _pair_gammas([mg(h=0.3)], [mg(h=0.7)])
    s, _, t_mat, _ = _nodes(kernels.IntensityMeasure.lebesgue(), 1.0, QuadratureGrid(256, 256),
                            gamma_s, gamma_t)
    kernels.eval_mg_kernel(0.3, t_mat, s[:, None])
    assert lanes == [65536]
