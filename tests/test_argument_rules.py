"""One rule per argument kind: counts and horizons are checked by ``awgp.errors`` alone.

A count is an integer (not a bool, and not a float such as 2.5 or 256.0, which would be
truncated) of at least a stated minimum; a horizon is finite and > 0.  Every public entry
that takes one rejects a bad value with a DomainError naming the argument and its value.
"""

import json
import re

import numpy as np
import pytest

from awgp.cli import main
from awgp.config import build_controls, build_kernel, build_process_spec, build_scenario
from awgp.errors import DomainError
from awgp.fsde import (CouplingControl, FsdeSpec, estimate_coupling_cost,
                       lamperti_inverse_interpolator, make_diffusion, make_drift,
                       simulate_coupled_noise)
from awgp.gauss_aw import continuous_aw_fbm, discretized_fbm_aw, triangular_integral
from awgp.kernels import (Brownian, FractionalOU, IntensityMeasure, covariance,
                          eval_fou_kernel, fbm_spec)
from awgp.mart_approx import mart_approx_distance, optimal_volatility
from awgp.oracles import bruteforce_discrete_cross_term, mc_formula_check, psd_feasibility_sampler
from awgp.quadrature import QuadratureGrid

BM = Brownian(T=1.0)
SYNC = CouplingControl.synchronous()


def _sde(T=1.0):
    return FsdeSpec(drift=make_drift("zero")[0], diffusion=make_diffusion("const")[0], x0=0.0,
                    noise_kernel=Brownian(T=T), T=T)


def _scenario_cfg(**overrides):
    return {"h1": 0.6, "h2": 0.8, "T": 1.0, "M": 16, "n_paths": 10, "seed": 0,
            "controls": ["synchronous"], **overrides}


def _piecewise(**fields):
    return build_controls([{"kind": "random_piecewise", **fields}], T=1.0)


# (argument name in the message, its minimum, the call taking it)
COUNTS = {
    "grid-n_s": ("grid n_s", 1, lambda v: QuadratureGrid(n_s=v)),
    "grid-n_t": ("grid n_t", 1, lambda v: QuadratureGrid(n_t=v)),
    "discretized_fbm_aw-n_steps": ("n_steps", 1, lambda v: discretized_fbm_aw(0.5, 0.7, 1.0, v)),
    "triangular_integral-partition_count": (
        "partition_count", 1, lambda v: triangular_integral(fbm_spec(0.6), fbm_spec(0.7), v)),
    "FractionalOU-n_inner": ("fOU node count", 8,
                             lambda v: FractionalOU(T=1.0, h=0.7, lam=1.0, n_inner=v)),
    "eval_fou_kernel-quad_nodes": ("fOU node count", 8,
                                   lambda v: eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=v)),
    "simulate_coupled_noise-n_steps": (
        "n_steps", 8, lambda v: simulate_coupled_noise(BM, BM, SYNC, 1.0, v, 10, seed=0)),
    "simulate_coupled_noise-n_paths": (
        "n_paths", 1, lambda v: simulate_coupled_noise(BM, BM, SYNC, 1.0, 16, v, seed=0)),
    "estimate_coupling_cost-n_steps": (
        "n_steps", 8, lambda v: estimate_coupling_cost(_sde(), _sde(), SYNC, v, 10, 0)),
    "estimate_coupling_cost-n_paths": (
        "n_paths", 1, lambda v: estimate_coupling_cost(_sde(), _sde(), SYNC, 16, v, 0)),
    "estimate_coupling_cost-n_workers": (
        "n_workers", 1, lambda v: estimate_coupling_cost(_sde(), _sde(), SYNC, 16, 10, 0,
                                                         n_workers=v)),
    "mc_formula_check-n_paths": (
        "n_paths", 2, lambda v: mc_formula_check(fbm_spec(0.5), fbm_spec(0.75), n_paths=v)),
    "mc_formula_check-n_steps": (
        "n_steps", 1, lambda v: mc_formula_check(fbm_spec(0.5), fbm_spec(0.75), n_steps=v)),
    "bruteforce-grid_steps": (
        "grid_steps", 2, lambda v: bruteforce_discrete_cross_term(np.eye(2), np.eye(2), v)),
    "config-fou-n_inner": ("fOU node count", 8,
                           lambda v: build_kernel({"kind": "fou", "h": 0.7, "n_inner": v}, 1.0)),
    "lamperti_inverse_interpolator-n": (
        "n", 2, lambda v: lamperti_inverse_interpolator(np.cosh, 0.0, (-1.0, 1.0), n=v)),
    "psd_feasibility_sampler-n_samples": (
        "n_samples", 1, lambda v: next(psd_feasibility_sampler(np.eye(2), np.eye(2), v))),
    "config-random_piecewise-cells": ("random_piecewise cells", 1, lambda v: _piecewise(cells=v)),
    "config-random_piecewise-count": ("random_piecewise count", 1, lambda v: _piecewise(count=v)),
    "config-random_piecewise-seed": ("random_piecewise seed", 0, lambda v: _piecewise(seed=v)),
    "config-scenario-M": ("scenario grid M", 8, lambda v: build_scenario(_scenario_cfg(M=v))),
    "config-scenario-n_paths": ("scenario n_paths", 2,
                                lambda v: build_scenario(_scenario_cfg(n_paths=v))),
    "config-scenario-seed": ("scenario seed", 0, lambda v: build_scenario(_scenario_cfg(seed=v))),
}

HORIZONS = {
    "fbm_spec": lambda T: fbm_spec(0.5, T),
    "continuous_aw_fbm": lambda T: continuous_aw_fbm(0.5, 0.7, T),
    "mart_approx_distance": lambda T: mart_approx_distance(0.7, T),
    "optimal_volatility": lambda T: optimal_volatility(0.7, 0.5, T),
    "discretized_fbm_aw": lambda T: discretized_fbm_aw(0.5, 0.7, T, 16),
    "simulate_coupled_noise": lambda T: simulate_coupled_noise(BM, BM, SYNC, T, 16, 10, seed=0),
    "estimate_coupling_cost": lambda T: estimate_coupling_cost(_sde(T), _sde(T), SYNC, 16, 10, 0),
    "build_process_spec": lambda T: build_process_spec(
        {"T": T, "components": [{"kernel": {"kind": "mg", "h": 0.7}}]}),
    "build_scenario": lambda T: build_scenario(_scenario_cfg(T=T)),
    "piecewise_constant": lambda T: CouplingControl.piecewise_constant([0.5, -0.5], T),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", COUNTS.keys())
def test_count_rule(site):
    name, minimum, call = COUNTS[site]
    for value in (2.5, True, minimum - 1):
        with pytest.raises(DomainError, match=re.escape(name)) as exc:
            call(value)
        assert repr(value) in str(exc.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("site", HORIZONS.keys())
@pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
def test_horizon_rule(site, T):
    with pytest.raises(DomainError, match="horizon T"):
        HORIZONS[site](T)


class TestInputsOnceAccepted:
    """Inputs that earlier gave a wrong result or an untyped error."""

    def test_fractional_step_count(self):
        # 16.5 steps once ran 18 grid times reaching 17/16.5 T
        with pytest.raises(DomainError, match="n_steps"):
            estimate_coupling_cost(_sde(), _sde(), CouplingControl.independent(), 16.5, 50, 0)

    def test_float_path_count(self):
        with pytest.raises(DomainError, match="n_paths"):
            estimate_coupling_cost(_sde(), _sde(), CouplingControl.independent(), 16, 50.0, 0)

    def test_bruteforce_needs_both_endpoints(self):
        # one grid step is rho = -1 alone: the 2 x 2 golden pair read -2 for its maximum 2
        k1 = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError, match="grid_steps"):
            bruteforce_discrete_cross_term(k1, np.eye(2), grid_steps=1)

    def test_covariance_negative_time(self):
        with pytest.raises(DomainError, match="times"):
            covariance(Brownian(T=1.0), IntensityMeasure.lebesgue(), -1.0, 0.5)

    def test_triangular_integral_float_partition(self):
        with pytest.raises(DomainError, match="partition_count"):
            triangular_integral(fbm_spec(0.6), fbm_spec(0.7), 2.0)

    def test_simulate_fractional_counts_exit_2(self, tmp_path, capsys):
        # once ran with 16 steps and 100 paths and exited 0
        _expect_validation_error(tmp_path, capsys, _scenario_cfg(M=16.7, n_paths=100.9))

    @pytest.mark.parametrize("controls", [[{"kind": "random_piecewise", "count": 0}], []],
                             ids=["count-0", "empty"])
    @pytest.mark.parametrize("paths_csv", [False, True], ids=["records", "paths-csv"])
    def test_simulate_without_controls_exit_2(self, tmp_path, capsys, controls, paths_csv):
        # once printed [] and exited 0, or with --paths-csv died on an IndexError
        _expect_validation_error(tmp_path, capsys, _scenario_cfg(controls=controls), paths_csv)


def _expect_validation_error(tmp_path, capsys, cfg: dict, paths_csv: bool = True) -> None:
    """``awgp simulate`` on ``cfg`` exits 2 with a validation error and writes no file."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(cfg))
    out, csv = tmp_path / "out.json", tmp_path / "paths.csv"
    argv = ["simulate", "--scenario", str(scenario), "--output", str(out)]
    code = main(argv + (["--paths-csv", str(csv)] if paths_csv else []))
    err = capsys.readouterr().err
    assert code == 2
    assert "validation error" in err and "Traceback" not in err
    assert not out.exists() and not csv.exists()
