"""Tests of the benchmark itself: reference checks, tracing, counts, contract.

    python3 -m pytest bench/test_bench.py

They run real awgp calls (a few minutes in all: the per-workload traced runs
take about half a minute each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from awgp import fsde, gauss_aw, kernels  # noqa: E402
from awgp.fsde import CouplingControl  # noqa: E402
from awgp.kernels import fbm_spec  # noqa: E402
from awgp.quadrature import QuadratureGrid  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _only(tasks, *names):
    by_name = {t.name: t for t in tasks}
    return [by_name[n] for n in names]


def test_perturbed_results_count_as_failed(tmp_path):
    fbm = _only(workloads.fbm_table(SEED, 0, tmp_path, 1), "golden", "sweep[0,0]")
    _, results = run.run_pass(fbm)
    assert run.failed_tasks(fbm, results) == []
    results["golden"].distance_squared *= 1.0 + 1e-3
    results["sweep[0,0]"].distance_squared = 1e-300
    assert run.failed_tasks(fbm, results) == ["golden", "sweep[0,0]"]

    zoo = _only(workloads.kernel_zoo(SEED, 0, tmp_path, 1), "bm_cantor", "discrete_nonuniform")
    _, results = run.run_pass(zoo)
    assert run.failed_tasks(zoo, results) == []
    results["bm_cantor"].cross_term = 1e-12
    del results["discrete_nonuniform"]  # as if the call had raised
    assert run.failed_tasks(zoo, results) == ["bm_cantor", "discrete_nonuniform"]

    mc = _only(workloads.monte_carlo(SEED, 0, tmp_path, 1), "pair_a.synchronous", "pair_a.antithetic")
    sync = fsde.CostEstimate(mean=1.0, std_error=0.01, n_paths=8192)
    other = fsde.CostEstimate(mean=0.5, std_error=0.01, n_paths=8192)
    results = {"pair_a.synchronous": sync, "pair_a.antithetic": other}
    assert run.failed_tasks(mc, results) == ["pair_a.antithetic"]


def _snapshot():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.bindings()}


def test_traced_results_are_bit_identical_and_bindings_restored(tmp_path):
    tasks = (_only(workloads.fbm_table(SEED, 0, tmp_path, 1), "sweep[0,1]", "transfer[512]", "mart[0]")
             + _only(workloads.kernel_zoo(SEED, 0, tmp_path, 1), "mg_rl", "bm_cv", "tab_bm",
                     "multi_2v1", "discrete_nonuniform", "cli_aw_unit", "cli_aw_discrete")
             + _only(workloads.monte_carlo(SEED, 0, tmp_path, 2), "pair_a.independent",
                     "mc_formula_check", "cli_simulate"))
    before = _snapshot()
    _, plain = run.run_pass(tasks)
    tracer = tracing.Tracer()
    with tracer:
        assert _snapshot() != before
        _, traced = run.run_pass(tasks, tracer)
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)
    assert len(plain) == len(traced) == len(tasks)
    for task in tasks:
        assert workloads.digest(traced[task.name]) == workloads.digest(plain[task.name]), task.name
    names = {s.name for s in tracer.spans}
    assert {"specfun.hyp2f1", "quadrature", "kernels.molchan_golosov", "config", "cli",
            "gauss_aw.csv_read", "gauss_aw.cholesky", "fsde.estimate"} <= names


def _profile(call, name, grid=None):
    tracer = tracing.Tracer()
    with tracer:
        tracer.run_task(0, name, call, grid)
    return tracing.pass_profile(tracer.spans)


def test_kernel_point_counts():
    grid = QuadratureGrid(n_s=256, n_t=256)
    unit = _profile(lambda: gauss_aw.continuous_aw_unit(fbm_spec(0.3), fbm_spec(0.7), grid),
                    "gauss_aw.continuous", 256)
    assert unit["continuous_kernel_points_per_call"] == 262144
    assert unit["counts"]["specfun.hyp2f1.lanes"] == 262144
    fbm = _profile(lambda: gauss_aw.continuous_aw_fbm(0.3, 0.7, 1.0, grid), "gauss_aw.continuous", 256)
    assert fbm["continuous_kernel_points_per_call"] == 131072

    s1, s2 = workloads.pair_a(np.random.default_rng(0))
    est = _profile(lambda: fsde.estimate_coupling_cost(s1, s2, CouplingControl.synchronous(),
                                                       256, 4096, 0), "fsde.estimate")
    assert est["fsde_kernel_points_per_estimate"] == 204032

    fou = _profile(lambda: kernels.FractionalOU(h=0.6, lam=1.0).eval(np.full(1000, 0.9),
                                                                     np.linspace(0.01, 0.8, 1000)),
                   "kernels.fou")
    assert fou["fou_inner_lanes_per_point"] == 65.0  # the base point and 64 inner nodes


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert np.isfinite(metrics["trace.overhead_frac"])
    if workload == "fbm-table":
        assert metrics["gauss_aw.continuous.kernel_points_per_call"] == 131072
    else:
        assert metrics["gauss_aw.continuous.kernel_points_per_call"] == 262144
    if workload == "monte-carlo":
        assert metrics["fsde.kernel_points"] == 204032


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "monte-carlo", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
