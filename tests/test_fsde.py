import threading
import tracemalloc

import numpy as np
import pytest

from awgp import fsde
from awgp.config import build_controls
from awgp.errors import DomainError, SimulationError
from awgp.fsde import (CostEstimate, CouplingControl, FsdeSpec, PathEnsemble, assumption_checker,
                       estimate_coupling_cost, euler_fsde, lamperti_inverse,
                       lamperti_inverse_interpolator, lamperti_transform, make_diffusion,
                       make_drift, simulate_coupled_noise)
from awgp.gauss_aw import continuous_aw_fbm
from awgp.kernels import (Brownian, IntensityMeasure, MolchanGolosov, RiemannLiouville,
                          Tabulated, covariance)
from awgp.quadrature import QuadratureGrid

BM = Brownian(T=1.0)
SYNC = CouplingControl.synchronous()
CONTROLS = {"synchronous": SYNC, "antithetic": CouplingControl.antithetic(),
            "independent": CouplingControl.independent(),
            "piecewise": CouplingControl.piecewise_constant([0.3, -1.0, 1.0, 0.0, -0.6], T=1.0)}


def _additive_spec(kernel, x0=0.0):
    drift, dn = make_drift("zero")
    diff, sn = make_diffusion({"name": "const", "c": 1.0})
    return FsdeSpec(drift=drift, diffusion=diff, x0=x0, noise_kernel=kernel, T=kernel.T,
                    drift_name=dn, diffusion_name=sn)


class TestCoupledNoise:
    def test_synchronous_identical(self):
        z1, z2 = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 500, seed=42)
        assert np.array_equal(z1.paths, z2.paths)

    def test_seed_determinism(self):
        z1, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 500, seed=42)
        z1b, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 500, seed=42)
        assert np.array_equal(z1.paths, z1b.paths)
        z1c, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 500, seed=43)
        assert not np.array_equal(z1.paths, z1c.paths)

    def test_starts_at_zero(self):
        z1, z2 = simulate_coupled_noise(MolchanGolosov(T=1.0, h=0.7), BM, SYNC, 1.0, 32, 50, seed=1)
        assert np.all(z1.paths[:, 0] == 0.0)
        assert np.all(z2.paths[:, 0] == 0.0)

    def test_independent_control_uncorrelated(self):
        n = 10_000
        z1, z2 = simulate_coupled_noise(BM, BM, CouplingControl.independent(), 1.0, 64, n, seed=1)
        corr = np.corrcoef(z1.paths[:, -1], z2.paths[:, -1])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_antithetic_control(self):
        z1, z2 = simulate_coupled_noise(BM, BM, CouplingControl.antithetic(), 1.0, 64, 200, seed=1)
        assert np.allclose(z1.paths, -z2.paths, atol=1e-12)

    def test_marginal_variance_matches_quadrature(self):
        n = 10_000
        mg = MolchanGolosov(T=1.0, h=0.75)
        z, _ = simulate_coupled_noise(mg, mg, SYNC, 1.0, 256, n, seed=3)
        var = z.paths[:, -1].var(ddof=1)
        target = covariance(mg, IntensityMeasure.lebesgue(), 1.0, 1.0, QuadratureGrid(n_t=1024))
        se = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - target) < 3.0 * se

    def test_weak_convergence_at_grid_times(self):
        n = 100_000
        mg = MolchanGolosov(T=1.0, h=0.7)
        z, _ = simulate_coupled_noise(mg, mg, SYNC, 1.0, 128, n, seed=4)
        leb = IntensityMeasure.lebesgue()
        grid = QuadratureGrid(n_t=512)
        idx = [32, 64, 96, 128]
        times = z.times[idx]
        sample = np.cov(z.paths[:, idx].T, ddof=1)
        for i in range(4):
            for j in range(4):
                target = covariance(mg, leb, times[i], times[j], grid)
                se = np.sqrt((sample[i, i] * sample[j, j] + sample[i, j] ** 2) / (n - 1))
                assert abs(sample[i, j] - target) < 4.0 * se

    def test_control_validation(self):
        with pytest.raises(DomainError):
            CouplingControl.piecewise_constant([0.5, 1.5], T=1.0)

    @pytest.mark.parametrize("make", [
        lambda: CouplingControl.piecewise_constant([], T=1.0),
        lambda: CouplingControl.piecewise_constant([0.2, np.nan], T=1.0),
        lambda: CouplingControl.piecewise_constant([np.inf], T=1.0),
        lambda: CouplingControl.tabulated([0.5, 0.0, 1.0], [0.1, 0.2, 0.3]),
        lambda: CouplingControl.tabulated([0.0, 0.5, 0.5], [0.1, 0.2, 0.3]),
        lambda: CouplingControl.tabulated([0.0, np.nan, 1.0], [0.1, 0.2, 0.3]),
        lambda: CouplingControl.tabulated([0.0, 1.0], [0.1, 0.2, 0.3]),
        lambda: CouplingControl.tabulated([], []),
        lambda: build_controls([{"kind": "random_piecewise", "cells": 0}], T=1.0),
        lambda: build_controls([{"kind": "random_piecewise", "cells": -2}], T=1.0),
        lambda: CouplingControl(kind="bogus"),
        lambda: CouplingControl(kind="piecewise_constant", values=[0.5, -0.5]),
        lambda: CouplingControl(kind="piecewise_constant", values=[0.5, -0.5], times=[0.5, 0.0]),
        lambda: CouplingControl(kind="tabulated", times=[0.0, 1.0]),
        lambda: CouplingControl(kind="synchronous", values=[0.5]),
        lambda: CouplingControl(kind="antithetic", values=[-1.0], times=[0.0]),
        lambda: CouplingControl(kind="independent", times=[0.0]),
    ], ids=["empty", "nan", "inf", "times-decreasing", "times-repeated", "times-nan",
            "length-mismatch", "tabulated-empty", "no-cells", "negative-cells", "unknown-kind",
            "piecewise-no-times", "piecewise-times-decreasing", "tabulated-no-values",
            "synchronous-values", "antithetic-values", "independent-times"])
    def test_bad_control_values_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    def test_direct_construction_is_whole(self):
        # the control's arrays are its own float copies, checked like the factories' tables
        direct = CouplingControl(kind="piecewise_constant", values=[0.5, -0.5], times=[0.0, 0.5])
        made = CouplingControl.piecewise_constant([0.5, -0.5], T=1.0)
        for control in (direct, made):
            np.testing.assert_array_equal(control.rho_at([0.1, 0.6]), [0.5, -0.5])

    def test_grid_too_coarse(self):
        with pytest.raises(DomainError):
            simulate_coupled_noise(BM, BM, SYNC, 1.0, 4, 10, seed=0)

    def test_rejects_no_paths(self):
        with pytest.raises(DomainError):
            simulate_coupled_noise(BM, BM, SYNC, 1.0, 16, 0, seed=0)

    @pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
    def test_bitwise_equal_to_reference_generator(self, control):
        # the per-block generator of earlier releases, both streams always drawn
        k1, k2 = MolchanGolosov(T=1.0, h=0.6), RiemannLiouville(T=1.0, h=0.8)
        meas2 = IntensityMeasure.from_density(lambda s: 0.5 + s, name="affine")
        n_steps, n_paths, seed = 64, 5000, 21
        dt = 1.0 / n_steps
        times = np.arange(n_steps + 1) * dt
        mids = times[:-1] + 0.5 * dt
        a1, a2 = fsde._kernel_matrix(k1, times, mids), fsde._kernel_matrix(k2, times, mids)
        scale1 = np.sqrt(fsde._cell_mass(None, mids, dt))
        scale2 = np.sqrt(fsde._cell_mass(meas2, mids, dt))
        rho = control.rho_at(times[:-1])
        mix = np.sqrt(np.clip(1.0 - rho * rho, 0.0, 1.0))
        ref1, ref2 = [], []
        for b, lo in enumerate(range(0, n_paths, 4096)):
            nb = min(4096, n_paths - lo)
            xi1 = fsde._normals(seed, 0, b, (nb, n_steps))
            xi_t = fsde._normals(seed, 1, b, (nb, n_steps))
            dm1 = scale1[None, :] * xi1
            dm2 = scale2[None, :] * (rho[None, :] * xi1 + mix[None, :] * xi_t)
            ref1.append(dm1 @ a1.T)
            ref2.append(dm2 @ a2.T)
        z1, z2 = simulate_coupled_noise(k1, k2, control, 1.0, n_steps, n_paths, seed,
                                        measure2=meas2)
        assert np.array_equal(z1.paths, np.concatenate(ref1))
        assert np.array_equal(z2.paths, np.concatenate(ref2))


class TestEuler:
    def test_additive_is_shifted_noise(self):
        z, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 200, seed=5)
        spec = _additive_spec(BM, x0=2.0)
        x = euler_fsde(spec, z)
        assert np.allclose(x.paths, 2.0 + z.paths, atol=1e-12, rtol=0.0)
        assert np.all(x.paths[:, 0] == 2.0)

    def test_deterministic_exponential(self):
        drift, _ = make_drift({"name": "linear", "a": -1.0})
        diff, _ = make_diffusion({"name": "const", "c": 0.0})
        spec = FsdeSpec(drift=drift, diffusion=diff, x0=1.0, noise_kernel=BM, T=1.0)
        z, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 64, 3, seed=0)
        x = euler_fsde(spec, z)
        expect = (1.0 - 1.0 / 64) ** np.arange(65)
        assert np.abs(x.paths - expect[None, :]).max() < 1e-14

    def test_explosion_reports_path(self):
        drift, _ = make_drift({"name": "linear", "a": 1e4})
        diff, _ = make_diffusion({"name": "const", "c": 0.0})
        spec = FsdeSpec(drift=drift, diffusion=diff, x0=1.0, noise_kernel=BM, T=1.0)
        z, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 8, 3, seed=0)
        with pytest.raises(SimulationError) as exc:
            euler_fsde(spec, z)
        assert exc.value.path_index == 0

    def test_empty_ensemble(self):
        times = np.linspace(0.0, 1.0, 17)
        x = euler_fsde(_additive_spec(BM), PathEnsemble(times, np.empty((0, 17)), seed=0))
        assert x.paths.shape == (0, 17)

    def test_horizon_check(self):
        z, _ = simulate_coupled_noise(BM, BM, SYNC, 1.0, 16, 3, seed=0)
        spec = _additive_spec(Brownian(T=2.0))
        with pytest.raises(DomainError):
            euler_fsde(spec, z)


class TestCouplingCost:
    def test_same_spec_synchronous_zero(self):
        spec = _additive_spec(BM, x0=1.0)
        est = estimate_coupling_cost(spec, spec, SYNC, 64, 500, seed=5)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_independent_brownian_pair(self):
        # E int_0^1 |B1 - B2|^2 dt = int 2t dt = 1
        spec = _additive_spec(BM)
        est = estimate_coupling_cost(spec, spec, CouplingControl.independent(), 256, 10_000, seed=6)
        assert abs(est.mean - 1.0) < 3.0 * est.std_error

    def test_matches_formula_for_fbm_pair(self):
        s1 = _additive_spec(MolchanGolosov(T=1.0, h=0.5))
        s2 = _additive_spec(MolchanGolosov(T=1.0, h=0.75))
        est = estimate_coupling_cost(s1, s2, SYNC, 256, 4_000, seed=7)
        target = continuous_aw_fbm(0.5, 0.75, 1.0).distance_squared
        assert abs(est.mean - target) <= 3.0 * est.std_error + 0.02 * target

    def test_bit_stable_across_workers(self):
        s1 = _additive_spec(MolchanGolosov(T=1.0, h=0.6))
        s2 = _additive_spec(MolchanGolosov(T=1.0, h=0.8))
        a = estimate_coupling_cost(s1, s2, CouplingControl.independent(), 64, 9000, seed=8,
                                   n_workers=1)
        b = estimate_coupling_cost(s1, s2, CouplingControl.independent(), 64, 9000, seed=8,
                                   n_workers=4)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    @pytest.mark.parametrize("lamperti", [False, True], ids=["tanh pair", "lamperti pair"])
    @pytest.mark.parametrize("control", CONTROLS.values(), ids=CONTROLS.keys())
    def test_matches_public_route(self, control, lamperti):
        # noise, Euler, state maps and the left-endpoint rule through the public calls
        n_steps, n_paths, seed = 64, 5000, 31
        maps = (None, None)
        if lamperti:
            sigma, _ = make_diffusion({"name": "sin_offset", "c": 2.0})
            s1 = s2 = _additive_spec(MolchanGolosov(T=1.0, h=0.75))
            maps = tuple(lamperti_inverse_interpolator(sigma, x0, (-15.0, 15.0), n=8193)
                         for x0 in (0.0, 0.5))
        else:
            unit, _ = make_diffusion({"name": "const", "c": 1.0})
            s1 = FsdeSpec(np.tanh, unit, 0.0, MolchanGolosov(T=1.0, h=0.6), 1.0)
            s2 = FsdeSpec(np.tanh, unit, 0.3, MolchanGolosov(T=1.0, h=0.8), 1.0)
        z1, z2 = simulate_coupled_noise(s1.noise_kernel, s2.noise_kernel, control, 1.0,
                                        n_steps, n_paths, seed)
        x1, x2 = euler_fsde(s1, z1).paths, euler_fsde(s2, z2).paths
        if lamperti:
            x1, x2 = maps[0](x1), maps[1](x2)
        diff = x1[:, :-1] - x2[:, :-1]
        costs = np.sum(diff * diff, axis=1) / n_steps
        estimates = [estimate_coupling_cost(s1, s2, control, n_steps, n_paths, seed,
                                            n_workers=w, state_map1=maps[0], state_map2=maps[1])
                     for w in (1, 2, 3)]
        assert estimates[0].mean == pytest.approx(np.mean(costs), rel=1e-12, abs=0.0)
        assert estimates[0].std_error == pytest.approx(
            np.std(costs, ddof=1) / np.sqrt(n_paths), rel=1e-12, abs=0.0)
        assert estimates[1] == estimates[0] and estimates[2] == estimates[0]

    def test_state_maps_hold_no_block_sized_temporary(self):
        # maps run in place a few time steps at a time, so the peak stays that of the noise
        sigma, _ = make_diffusion({"name": "sin_offset", "c": 2.0})
        spec = _additive_spec(MolchanGolosov(T=1.0, h=0.75))
        inv = lamperti_inverse_interpolator(sigma, 0.0, (-15.0, 15.0), n=8193)
        peaks = []
        for state_map in (None, inv):
            tracemalloc.start()
            estimate_coupling_cost(spec, spec, SYNC, 128, 4096, seed=3, state_map1=state_map,
                                   state_map2=state_map)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.25 * 4096 * 129 * 8

    def test_kernels_evaluated_on_calling_thread(self, monkeypatch):
        # a tracer that wraps VolterraKernel.eval sees only the calling thread
        callers = []
        evaluate = MolchanGolosov.eval

        def recording(kernel, t, s):
            callers.append(threading.get_ident())
            return evaluate(kernel, t, s)

        monkeypatch.setattr(MolchanGolosov, "eval", recording)
        s1 = _additive_spec(MolchanGolosov(T=1.0, h=0.6))
        s2 = _additive_spec(MolchanGolosov(T=1.0, h=0.8))
        estimate_coupling_cost(s1, s2, CouplingControl.independent(), 64, 9000, seed=8,
                               n_workers=2)
        assert callers and set(callers) == {threading.get_ident()}

    def test_equal_kernels_share_one_matrix(self):
        grid = np.linspace(0.0, 1.0, 5)
        tab = [Tabulated(t_grid=grid, s_grid=grid, values=np.tril(np.ones((5, 5))))
               for _ in range(2)]
        for k1, k2 in ((MolchanGolosov(h=0.75), MolchanGolosov(h=0.75)), tab):
            a1, a2 = fsde._coupling(k1, k2, SYNC, 1.0, 16, None, None)[:2]
            assert a1 is a2
        a1, a2 = fsde._coupling(MolchanGolosov(h=0.75), MolchanGolosov(h=0.7), SYNC, 1.0, 16,
                                None, None)[:2]
        assert a1 is not a2

    @pytest.mark.parametrize("n_paths, n_workers", [(0, 1), (5, 0), (5, -3)])
    def test_rejects_no_paths_or_workers(self, n_paths, n_workers):
        spec = _additive_spec(BM)
        with pytest.raises(DomainError):
            estimate_coupling_cost(spec, spec, SYNC, 16, n_paths, seed=0, n_workers=n_workers)

    def test_estimate_serialization(self):
        est = CostEstimate(mean=0.5, std_error=0.01, n_paths=100, control={"kind": "synchronous"})
        assert CostEstimate.from_dict(est.to_dict()) == est


class TestBattery:
    """A sequence of controls shares each block's stream-0 draw and spec-1 pass."""

    @pytest.mark.parametrize("maps", [False, True], ids=["no maps", "lamperti maps"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_paths", [4095, 8192, 10_000])
    def test_entries_are_the_single_calls(self, n_paths, n_workers, maps):
        controls = [*CONTROLS.values(), CouplingControl.tabulated([0.0, 0.5, 1.0], [1.0, -0.2, 0.7])]
        unit, _ = make_diffusion({"name": "const", "c": 1.0})
        s1 = FsdeSpec(np.tanh, unit, 0.0, MolchanGolosov(T=1.0, h=0.6), 1.0)
        s2 = FsdeSpec(np.tanh, unit, 0.3, RiemannLiouville(T=1.0, h=0.8), 1.0)
        state_maps = (None, None)
        if maps:
            sigma, _ = make_diffusion({"name": "sin_offset", "c": 2.0})
            state_maps = tuple(lamperti_inverse_interpolator(sigma, x0, (-15.0, 15.0), n=1025)
                               for x0 in (0.0, 0.5))
        run = lambda c: estimate_coupling_cost(s1, s2, c, 16, n_paths, 21, n_workers=n_workers,
                                               state_map1=state_maps[0], state_map2=state_maps[1])
        assert run(controls) == [run(c) for c in controls]
        assert run(controls[2:3]) == [run(controls[2])]

    @pytest.mark.parametrize("controls", [[], ()], ids=["list", "tuple"])
    def test_empty_sequence_rejected(self, controls):
        spec = _additive_spec(BM)
        with pytest.raises(DomainError):
            estimate_coupling_cost(spec, spec, controls, 16, 10, seed=0)

    def test_holds_at_most_one_more_block_array(self):
        # an earlier control keeps the raw stream-0 draw (4096 x M) for the next, and the
        # second row of costs is 4096 more: one 4096 x (M+1) array, plus 1% for small objects;
        # the last control works in that draw, so one control alone holds three, as before
        spec = _additive_spec(MolchanGolosov(T=1.0, h=0.75))
        peaks = []
        for control in (CONTROLS["independent"], [CONTROLS["independent"]] * 2):
            tracemalloc.start()
            estimate_coupling_cost(spec, spec, control, 128, 4096, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] < 3.25 * 4096 * 129 * 8
        assert peaks[1] - peaks[0] <= 1.01 * 4096 * 129 * 8


class TestExplosionScan:
    """The first exploding path, as a per-step scan reports it.

    Injected noise holds one spike per listed (path, step): the Brownian noise
    jumps by about 0.1 * size at that step and stays there.  Spec 1 has unit
    diffusion and spec 2 diffusion 1e3, so a spike of 1e11 explodes only
    spec 2 and one of 1e14 explodes both.
    """

    @staticmethod
    def _run(monkeypatch, spikes, n_steps, n_paths, n_workers, control=SYNC):
        def spiked(seed, stream, block, shape):
            xi = np.zeros(shape)
            for path, step, size in spikes:
                if stream == 0 and path // 4096 == block:
                    xi[path % 4096, step - 1] = size
            return xi

        monkeypatch.setattr(fsde, "_normals", spiked)
        zero, _ = make_drift("zero")
        specs = [FsdeSpec(zero, make_diffusion({"name": "const", "c": c})[0], 0.0, BM, 1.0)
                 for c in (1.0, 1e3)]
        with pytest.raises(SimulationError) as exc:
            estimate_coupling_cost(*specs, control, n_steps, n_paths, seed=0, n_workers=n_workers)
        return exc.value.path_index

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_mid_chunk_earliest_step_then_lowest_path(self, monkeypatch, n_workers):
        c = fsde._SCAN_STEPS
        mid = 2 * c + c // 2
        spikes = [(9, mid, 1e14), (7, mid, 1e14), (3, mid + 1, 1e14), (1, 3 * c, 1e14)]
        assert self._run(monkeypatch, spikes, 6 * c + 4, 100, n_workers) == 7

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_last_partial_chunk(self, monkeypatch, n_workers):
        n_steps = 6 * fsde._SCAN_STEPS + 4
        spikes = [(2, n_steps, 1e14), (5, n_steps - 1, 1e14)]
        assert self._run(monkeypatch, spikes, n_steps, 100, n_workers) == 5

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_second_block_earlier_step_wins_over_lower_path(self, monkeypatch, n_workers):
        spikes = [(4100, 50, 1e14), (4500, 10, 1e14)]
        assert self._run(monkeypatch, spikes, 100, 5000, n_workers) == 4500

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_first_block_wins_over_earlier_step(self, monkeypatch, n_workers):
        spikes = [(4000, 100, 1e14), (4100, 1, 1e14)]
        assert self._run(monkeypatch, spikes, 100, 5000, n_workers) == 4000

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_spec1_error_wins_within_block(self, monkeypatch, n_workers):
        spikes = [(3, 5, 1e11), (9, 40, 1e14)]
        assert self._run(monkeypatch, spikes, 100, 100, n_workers) == 9
        assert self._run(monkeypatch, spikes, 100, 100, n_workers, [SYNC, SYNC]) == 9

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_later_control_of_first_block_wins(self, monkeypatch, n_workers):
        # the independent control reads only stream 1 (zeros here), so path 3 explodes only
        # under the second control; path 4100 explodes spec 1 of the second block
        spikes = [(3, 5, 1e11), (4100, 1, 1e14)]
        battery = [CouplingControl.independent(), SYNC]
        assert self._run(monkeypatch, spikes, 100, 5000, n_workers, battery) == 3

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_first_control_wins_within_block(self, monkeypatch, n_workers):
        # early couples the first half of [0, 1] and late the second: each sees one spike
        early, late = (CouplingControl.piecewise_constant(v, T=1.0) for v in ([1, 0], [0, 1]))
        spikes = [(7, 10, 1e11), (3, 80, 1e11)]
        assert self._run(monkeypatch, spikes, 100, 100, n_workers, [early, late]) == 7
        assert self._run(monkeypatch, spikes, 100, 100, n_workers, [late, early]) == 3


@pytest.fixture
def blas_threads():
    """The real OpenBLAS (get, set), with a thread count of 2 while the test runs."""
    api = fsde._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get, put = api
    before = get()
    put(2)
    yield get, put
    put(before)


class TestBlasCap:
    """While more than one worker runs, OpenBLAS runs on one thread; the count comes back."""

    SPECS = tuple(_additive_spec(MolchanGolosov(T=1.0, h=h)) for h in (0.6, 0.8))

    def _recorded(self, monkeypatch, blas_threads):
        get, put = blas_threads
        counts = []
        monkeypatch.setattr(fsde, "_openblas_threads",
                            lambda: (get, lambda n: counts.append(n) or put(n)))
        return counts

    def test_count_restored_after_return(self, monkeypatch, blas_threads):
        counts = self._recorded(monkeypatch, blas_threads)
        estimate_coupling_cost(*self.SPECS, SYNC, 32, 5000, seed=1, n_workers=2)
        assert counts == [1, 2]
        assert blas_threads[0]() == 2

    def test_count_restored_after_worker_error(self, monkeypatch, blas_threads):
        counts = self._recorded(monkeypatch, blas_threads)
        spikes = [(4100, 50, 1e14), (4500, 10, 1e14)]
        assert TestExplosionScan._run(monkeypatch, spikes, 100, 5000, 2) == 4500
        assert counts == [1, 2]
        assert blas_threads[0]() == 2

    @pytest.mark.parametrize("n_workers, n_paths", [(1, 9000), (2, 4000)])
    def test_not_capped_with_one_running_worker(self, monkeypatch, blas_threads, n_workers,
                                                n_paths):
        counts = self._recorded(monkeypatch, blas_threads)
        estimate_coupling_cost(*self.SPECS, SYNC, 32, n_paths, seed=1, n_workers=n_workers)
        assert counts == []

    def test_other_blas_runs_uncapped_with_same_estimate(self, monkeypatch):
        capped = estimate_coupling_cost(*self.SPECS, CouplingControl.independent(), 64, 9000,
                                        seed=2, n_workers=2)
        monkeypatch.setattr(fsde, "_openblas_threads", lambda: None)
        uncapped = estimate_coupling_cost(*self.SPECS, CouplingControl.independent(), 64, 9000,
                                          seed=2, n_workers=2)
        assert uncapped == capped


class TestLamperti:
    def test_unit_diffusion(self):
        diff, _ = make_diffusion({"name": "const", "c": 1.0})
        assert lamperti_transform(diff, 0.0, 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_linear_diffusion_log(self):
        sigma = lambda x: np.asarray(x, dtype=float)
        assert lamperti_transform(sigma, 1.0, 3.0) == pytest.approx(np.log(3.0), rel=1e-10)

    def test_self_refinement(self):
        sigma = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2 / (1.0 + np.asarray(x, dtype=float) ** 2)
        val = lamperti_transform(sigma, 0.0, 2.0)
        # fixed-rule oracle at two resolutions
        from awgp.quadrature import graded_gauss
        refs = []
        for n in (256, 2560):
            x, w = graded_gauss(0.0, 2.0, n, order=6, gamma=1.0)
            refs.append(float(np.sum(w / sigma(x))))
        assert abs(refs[0] - refs[1]) < 1e-9
        assert val == pytest.approx(refs[1], abs=1e-9)

    def test_inverse_roundtrip(self):
        sigma = lambda x: 2.0 + np.sin(np.asarray(x, dtype=float))
        for y in (-1.0, -0.2, 0.0, 0.4, 1.7):
            x = lamperti_inverse(sigma, 0.5, y)
            assert lamperti_transform(sigma, 0.5, x) == pytest.approx(y, abs=1e-10)

    @staticmethod
    def _inverse_error(x0, x_range, n):
        sigma = lambda x: 2.0 + np.sin(np.asarray(x, dtype=float))
        inv = lamperti_inverse_interpolator(sigma, x0, x_range, n=n)
        ys = np.linspace(-1.5, 1.5, 11)
        exact = np.array([lamperti_inverse(sigma, x0, float(y)) for y in ys])
        return np.abs(inv(ys) - exact).max()

    def test_interpolating_inverse_matches_rootfinder(self):
        assert self._inverse_error(0.0, (-6.0, 6.0), 4097) < 1e-7

    def test_interpolating_inverse_on_criterion_10_table(self):
        assert self._inverse_error(0.5, (-15.0, 15.0), 8193) < 1e-7

    def test_nonpositive_sigma_rejected(self):
        sigma = lambda x: np.asarray(x, dtype=float)
        with pytest.raises(DomainError):
            lamperti_transform(sigma, -1.0, 1.0)

    def test_interpolator_rejects_vanishing_or_infinite_sigma(self):
        vanishing = lambda x: np.where(np.abs(x) < 0.5, 0.0, 1.0)
        infinite = lambda x: np.where(np.abs(x) < 0.5, np.inf, 1.0)
        for sigma in (vanishing, infinite):
            with pytest.raises(DomainError):
                lamperti_inverse_interpolator(sigma, 0.0, (-2.0, 2.0))

    def test_consistency_with_direct_simulation(self):
        # multiplicative SDE vs Lamperti-transformed additive SDE mapped back
        h, n_steps, n_paths = 0.75, 512, 10_000
        mg = MolchanGolosov(T=1.0, h=h)
        sigma, sig_name = make_diffusion({"name": "sin_offset", "c": 2.0})
        zero, _ = make_drift("zero")
        direct = FsdeSpec(drift=zero, diffusion=sigma, x0=0.0, noise_kernel=mg, T=1.0)
        transformed = FsdeSpec(drift=zero, diffusion=make_diffusion({"name": "const", "c": 1.0})[0],
                               x0=0.0, noise_kernel=mg, T=1.0)
        z, _ = simulate_coupled_noise(mg, mg, SYNC, 1.0, n_steps, n_paths, seed=9)
        x_direct = euler_fsde(direct, z).paths[:, -1]
        y = euler_fsde(transformed, z).paths[:, -1]
        inv = lamperti_inverse_interpolator(sigma, 0.0, (-12.0, 12.0), n=8193)
        x_mapped = inv(y)
        se = np.sqrt(x_direct.var(ddof=1) / n_paths + x_mapped.var(ddof=1) / n_paths)
        assert abs(x_direct.mean() - x_mapped.mean()) <= 3.0 * se


class TestAssumptionChecker:
    def test_tanh_drift_passes(self):
        spec = FsdeSpec(drift=np.tanh, diffusion=make_diffusion({"name": "const", "c": 1.0})[0],
                        x0=0.0, noise_kernel=RiemannLiouville(T=1.0, h=0.7), T=1.0)
        rep = assumption_checker(spec)
        assert rep.all_regularity_passed
        assert rep.drift_sigma_ratio_monotone
        assert rep.monotonicity_satisfied

    def test_mean_reversion_needs_kernel_branch(self):
        drift, _ = make_drift({"name": "linear", "a": -1.0})
        spec = FsdeSpec(drift=drift, diffusion=make_diffusion({"name": "const", "c": 1.0})[0],
                        x0=0.0, noise_kernel=RiemannLiouville(T=1.0, h=0.7), T=1.0)
        rep = assumption_checker(spec)
        assert not rep.drift_sigma_ratio_monotone
        assert rep.kernel_monotone
        assert rep.monotonicity_satisfied

    def test_degenerate_diffusion_fails(self):
        sigma = lambda x: np.asarray(x, dtype=float)
        spec = FsdeSpec(drift=make_drift("zero")[0], diffusion=sigma, x0=0.5,
                        noise_kernel=BM, T=1.0)
        rep = assumption_checker(spec, state_range=(0.0, 1.0))
        assert not rep.checks["sigma_positive"]["passed"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("state_range", [(1.0, 1.0), (1.0, -1.0), (np.nan, 1.0),
                                             (-1.0, np.inf)],
                             ids=["empty", "reversed", "nan", "inf"])
    def test_bad_state_range_rejected(self, state_range):
        # an empty range divided by dx = 0; a reversed one flipped the b/sigma verdict
        spec = FsdeSpec(drift=lambda x: x, diffusion=make_diffusion("const")[0], x0=0.0,
                        noise_kernel=BM, T=1.0)
        with pytest.raises(DomainError, match="state_range"):
            assumption_checker(spec, state_range=state_range)
        assert assumption_checker(spec, state_range=(-1.0, 1.0)).drift_sigma_ratio_monotone

    def test_report_serializes(self):
        spec = FsdeSpec(drift=np.tanh, diffusion=make_diffusion({"name": "const", "c": 1.0})[0],
                        x0=0.0, noise_kernel=BM, T=1.0)
        rep = assumption_checker(spec)
        out = rep.to_dict()
        assert {"checks", "monotonicity_satisfied", "all_regularity_passed"} <= set(out)


class TestRegistry:
    def test_unknown_names_rejected(self):
        with pytest.raises(DomainError):
            make_drift("cubic")
        with pytest.raises(DomainError):
            make_diffusion("bessel")

    def test_tabulated_fn(self):
        drift, _ = make_drift({"name": "tabulated", "x": [0.0, 1.0], "y": [0.0, 2.0]})
        assert drift(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("x,y", [([0.5, 0.0, 1.0], [1.0, 2.0, 3.0]),
                                     ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
                                     ([0.0, float("nan")], [1.0, 2.0]),
                                     ([0.0, 1.0], [1.0, float("inf")]),
                                     ([0.0, 1.0], [1.0]), ([], [])])
    def test_tabulated_fn_rejects_bad_tables(self, x, y):
        for make in (make_drift, make_diffusion):
            with pytest.raises(DomainError, match="table"):
                make({"name": "tabulated", "x": x, "y": y})
