"""Boundary tracer for awgp, installed from outside the package.

The tracer replaces the names one awgp module uses to call another with thin
wrappers that record a span (name, start, end, parent, task) and the array
sizes of the call.  Nothing under ``src/`` changes: the wrappers are set on
the module and class attributes at install time and the originals are put
back by ``uninstall``.  Spans are taken only on the installing thread and
only inside a task span, so reference checks and worker threads pass
straight through.  Spans stay in memory; ``layer_metrics`` folds them into
per-layer counts, self times and shares.
"""

from __future__ import annotations

import inspect
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from awgp import cli, fsde, gauss_aw, kernels, mart_approx, oracles
from awgp.kernels import VolterraKernel


@dataclass
class Span:
    name: str
    task: int
    parent: int | None
    start: float
    end: float = 0.0
    grid: int | None = None
    counts: dict = field(default_factory=dict)


def _points(args, kwargs, out) -> dict:
    t, s = args[-2:]
    return {"points": int(np.broadcast(np.asarray(t), np.asarray(s)).size)}


def _lanes(args, kwargs, out) -> dict:
    return {"lanes": int(np.size(out))}


def _nodes(args, kwargs, out) -> dict:
    return {"nodes": int(np.size(out[0]))}


def _cholesky(args, kwargs, out) -> dict:
    n = out.entries.shape[0]
    return {"flops": n ** 3 // 3}


def _discrete(args, kwargs, out) -> dict:
    n = int(out.grid_meta["n_steps"])
    return {"gauss_aw.discrete.bytes": 2 * 8 * n * n}  # the two causal factors


def _cov_matrix(args, kwargs, out) -> dict:
    n = out.dim
    return {"gauss_aw.discrete.bytes": 8 * n * n}


def _report_grid(args, kwargs, out) -> dict:
    return {"grid": int(out.grid_meta["n_s"])}


def _file_bytes(args, kwargs, out) -> dict:
    path = args[-1]
    return {"cli.io_bytes": os.path.getsize(path)} if isinstance(path, (str, os.PathLike)) else {}


def _path_steps(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, out):
        a = sig.bind(*args, **kwargs).arguments
        return {"fsde.path_steps": 2 * int(a["n_steps"]) * int(a["n_paths"])}
    return count


def bindings() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count function) for every wrapped name."""
    out = [(kernels, "hyp2f1", "specfun.hyp2f1", _lanes)]
    stack = list(VolterraKernel.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "eval" in vars(cls):
            out.append((cls, "eval", f"kernels.{cls.kind}", _points))
    out.append((mart_approx, "eval_mg_kernel", "kernels.molchan_golosov", _points))
    for mod in (kernels, gauss_aw, mart_approx, fsde):
        for name in ("graded_midpoint", "graded_gauss"):
            out.append((mod, name, "quadrature", _nodes))
    out += [
        (gauss_aw, "cholesky_causal_factor", "gauss_aw.cholesky", _cholesky),
        (gauss_aw, "discrete_aw", "gauss_aw.discrete", _discrete),
        (gauss_aw, "fbm_cov_matrix", "gauss_aw.fbm_cov_matrix", _cov_matrix),
        (oracles, "continuous_aw_unit", "gauss_aw.continuous", _report_grid),
        (gauss_aw.CovMatrix, "from_csv", "gauss_aw.csv_read", _file_bytes),
        # the library names imported into the CLI
        (cli, "build_process_spec", "config", _file_bytes),
        (cli, "build_scenario", "config", _file_bytes),
        (cli, "continuous_aw_fbm", "gauss_aw.continuous", _report_grid),
        (cli, "continuous_aw_unit", "gauss_aw.continuous", _report_grid),
        (cli, "continuous_aw_multi", "gauss_aw.multi", None),
        (cli, "discrete_aw", "gauss_aw.discrete", _discrete),
        (cli, "mart_approx_distance", "mart_approx", None),
        (cli, "estimate_coupling_cost", "fsde.estimate", _path_steps(fsde.estimate_coupling_cost)),
        (cli, "simulate_coupled_noise", "fsde.noise", None),
        (cli, "euler_fsde", "fsde.euler", None),
        (cli, "assumption_checker", "fsde.assumptions", None),
        (cli, "regenerate_goldens", "oracles.regenerate_goldens", None),
    ]
    return out


class Tracer:
    """Records spans at awgp's module boundaries while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self._task: int | None = None

    def _open(self, name: str, grid: int | None = None) -> Span:
        span = Span(name, self._task, self._stack[-1] if self._stack else None,
                    time.perf_counter(), grid=grid)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_task(self, task_id: int, name: str, call, grid: int | None = None,
                 counts: dict | None = None):
        """Call ``call`` inside a task span; inner wrapped calls become its children."""
        self._task = task_id
        span = self._open(name, grid)
        try:
            return call()
        finally:
            self._close(span)
            span.counts.update(counts or {})
            self._task = None

    def _wrap(self, fn, name: str, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._task is None or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                extra = count(args, kwargs, out)
                span.grid = extra.pop("grid", None)
                span.counts.update(extra)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        for owner, attr, name, count in bindings():
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, count))
            else:
                wrapped = self._wrap(raw, name, count)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# folding spans into per-layer metrics
# ---------------------------------------------------------------------------

SHARE_LAYERS = (
    "specfun.hyp2f1", "quadrature",
    "kernels.molchan_golosov", "kernels.riemann_liouville", "kernels.fou", "kernels.brownian",
    "kernels.constant_volatility", "kernels.tabulated", "kernels.callable",
    "gauss_aw.continuous", "gauss_aw.cholesky", "gauss_aw.fbm_cov_matrix", "gauss_aw.discrete",
    "gauss_aw.multi", "gauss_aw.triangular", "gauss_aw.csv_read", "mart_approx",
    "fsde.estimate", "oracles.mc_formula_check", "config", "cli",
)
KERNEL_KINDS = ("molchan_golosov", "riemann_liouville", "fou", "brownian",
                "constant_volatility", "tabulated", "callable")


def _ancestor(spans: list[Span], i: int, name: str) -> int | None:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None


def pass_profile(spans: list[Span]) -> dict:
    """Per-layer counts and times of one traced pass (its spans only)."""
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for i, sp in enumerate(spans):
        self_s[sp.name] += (sp.end - sp.start) - child_time[i]
        counts[f"{sp.name}.calls"] += 1
        for key, val in sp.counts.items():
            counts[key if "." in key else f"{sp.name}.{key}"] += val

    per_call = {i: 0 for i, sp in enumerate(spans) if sp.name == "gauss_aw.continuous"}
    per_estimate = {i: 0 for i, sp in enumerate(spans) if sp.name == "fsde.estimate"}
    fou_inner, fou_mg = 0, set()  # hyp2f1 lanes under fOU spans; fOU spans with an MG base
    for i, sp in enumerate(spans):
        if sp.name.startswith("kernels."):
            pts = sp.counts.get("points", 0)
            for table, owner in ((per_call, "gauss_aw.continuous"), (per_estimate, "fsde.estimate")):
                anc = _ancestor(spans, i, owner)
                if anc is not None:
                    table[anc] += pts
        elif sp.name == "specfun.hyp2f1" and sp.parent is not None \
                and spans[sp.parent].name == "kernels.fou":
            fou_inner += sp.counts["lanes"]
            fou_mg.add(sp.parent)
    fou_mg_points = sum(spans[i].counts["points"] for i in fou_mg)

    total = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    by_grid = defaultdict(list)
    for sp in spans:
        if sp.name == "gauss_aw.continuous" and sp.grid is not None:
            by_grid[sp.grid].append(sp.end - sp.start)
    chol_s = self_s["gauss_aw.cholesky"]
    return {
        "counts": dict(counts),
        "self_s": dict(self_s),
        "task_s": total,
        "continuous_kernel_points_per_call":
            statistics.median_low(per_call.values()) if per_call else 0,
        "fsde_kernel_points_per_estimate":
            statistics.median_low(per_estimate.values()) if per_estimate else 0,
        "fou_inner_lanes_per_point": fou_inner / fou_mg_points if fou_mg_points else 0.0,
        "continuous_call_s": {g: statistics.median(v) for g, v in by_grid.items()},
        "cholesky_gflops_per_s": counts["gauss_aw.cholesky.flops"] / chol_s / 1e9 if chol_s else 0.0,
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


COUNTS = ("specfun.hyp2f1.lanes", "specfun.hyp2f1.calls", "quadrature.nodes",
          *(f"kernels.{k}.points" for k in KERNEL_KINDS),
          "gauss_aw.continuous.calls", "gauss_aw.cholesky.calls", "gauss_aw.cholesky.flops",
          "gauss_aw.discrete.bytes", "fsde.estimate.calls", "fsde.path_steps", "cli.io_bytes")


def layer_metrics(profiles: list[dict]) -> tuple[dict, dict, dict, bool]:
    """Fold per-pass profiles into (counts, times, extra times, counts repeat).

    Counts are those of one pass and must be identical in every pass; times
    are medians over passes.  Shares are self time as a percentage of the
    pass's task time.  ``extra`` holds the times that are 0 by design on some
    workload; they are reported but kept out of the per-layer metric list.
    """
    def counts_of(p):
        return {**{k: p["counts"].get(k, 0) for k in COUNTS},
                "kernels.fou.inner_lanes_per_point": p["fou_inner_lanes_per_point"],
                "gauss_aw.continuous.kernel_points_per_call": p["continuous_kernel_points_per_call"],
                "fsde.kernel_points": p["fsde_kernel_points_per_estimate"]}

    counts = counts_of(profiles[0])
    repeat = all(counts_of(p) == counts for p in profiles[1:])

    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    def self_of(layer):
        return lambda p: p["self_s"].get(layer, 0.0)

    def rate_of(count, layer):
        return lambda p: _rate(p["counts"].get(count, 0), p["self_s"].get(layer, 0.0))

    def grid_of(n):
        return lambda p: p["continuous_call_s"].get(n, 0.0)

    times = {
        "specfun.hyp2f1.self_s": med(self_of("specfun.hyp2f1")),
        "specfun.hyp2f1.lanes_per_s": med(rate_of("specfun.hyp2f1.lanes", "specfun.hyp2f1")),
        "quadrature.self_s": med(self_of("quadrature")),
        "kernels.molchan_golosov.self_s": med(self_of("kernels.molchan_golosov")),
        "kernels.molchan_golosov.points_per_s": med(
            rate_of("kernels.molchan_golosov.points", "kernels.molchan_golosov")),
        "gauss_aw.continuous.self_s": med(self_of("gauss_aw.continuous")),
        "gauss_aw.continuous.g256_s": med(grid_of(256)),
        **{f"{n}.self_pct": med(lambda p, n=n: 100.0 * p["self_s"].get(n, 0.0) / p["task_s"])
           for n in SHARE_LAYERS},
    }
    extra = {
        "gauss_aw.continuous.g512_s": med(grid_of(512)),
        "gauss_aw.continuous.g1024_s": med(grid_of(1024)),
        "gauss_aw.cholesky.gflops_per_s": med(lambda p: p["cholesky_gflops_per_s"]),
        "fsde.path_steps_per_s": med(rate_of("fsde.path_steps", "fsde.estimate")),
        **{f"{n}.self_s": med(self_of(n)) for n in SHARE_LAYERS},
        **{f"kernels.{k}.points_per_s": med(rate_of(f"kernels.{k}.points", f"kernels.{k}"))
           for k in KERNEL_KINDS},
    }
    return counts, times, extra, repeat
