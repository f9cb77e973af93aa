import dataclasses

import numpy as np
import pytest

from awgp.errors import DomainError
from awgp.gauss_aw import (_self_similar_cross, cholesky_causal_factor, continuous_aw_fbm,
                           continuous_aw_unit)
from awgp.kernels import (Brownian, FractionalOU, GaussianProcessSpec, IntensityMeasure,
                          MolchanGolosov, RiemannLiouville, _unit_row, fbm_spec)
from awgp.oracles import (bruteforce_discrete_cross_term, fbm_aw_reference, get_golden,
                          load_goldens, mc_formula_check, psd_feasibility_sampler,
                          regenerate_goldens)
from awgp.quadrature import QuadratureGrid, _graded_unit_nodes


class TestBruteforce:
    def test_identity(self):
        assert bruteforce_discrete_cross_term(np.eye(4), np.eye(4)) == pytest.approx(4.0)

    def test_separable_signs(self):
        k1 = np.diag([2.0, 3.0])
        k2 = np.diag([1.0, -1.0])
        # diagonal of K1^T K2 is (2, -3); the optimum flips the second sign
        assert bruteforce_discrete_cross_term(k1, k2) == pytest.approx(5.0)

    def test_matches_abs_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(8, 8))
            s1 = a @ a.T + 0.5 * np.eye(8)
            b = rng.normal(size=(8, 8))
            s2 = b @ b.T + 0.5 * np.eye(8)
            k1 = cholesky_causal_factor(s1).entries
            k2 = cholesky_causal_factor(s2).entries
            expect = np.abs(np.sum(k1 * k2, axis=0)).sum()
            assert bruteforce_discrete_cross_term(k1, k2) == pytest.approx(expect, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            bruteforce_discrete_cross_term(np.eye(2), np.eye(3))


class TestMcFormulaCheck:
    def test_identical_specs(self):
        v = mc_formula_check(fbm_spec(0.6), fbm_spec(0.6), QuadratureGrid(n_s=96, n_t=96),
                             n_steps=64, n_paths=500, seed=1)
        assert v.passed
        assert v.target == pytest.approx(0.0, abs=1e-10)
        assert v.oracle == pytest.approx(0.0, abs=1e-10)

    def test_control_is_the_reports_coupling(self, monkeypatch):
        # RL-base fOU at H = 0.15, lam = 4, mild against forward: the cross integral changes
        # sign at s = 0.14605 (mpmath: -2.6e-4 at 0.146, +9.7e-3 at 0.148), where the report's
        # rule has a breakpoint, so the cells at midpoints 0.1465 and 0.1504 take +1
        from awgp import oracles
        controls, coupling = [], oracles._coupling
        monkeypatch.setattr(oracles, "_coupling", lambda k1, k2, control, *rest: (
            controls.append(control) or coupling(k1, k2, control, *rest)))
        mild, forward = (GaussianProcessSpec(components=[(FractionalOU(
            T=1.0, h=0.15, lam=4.0, base="rl", convention=c), IntensityMeasure.lebesgue())],
            T=1.0) for c in ("mild", "forward"))
        mc_formula_check(mild, forward, n_steps=256, n_paths=2)
        (control,) = controls
        mids = control.times + 0.5 / 256
        # midpoints 0.1426, 0.1465, 0.1504 and 0.1543
        assert control.values[(mids > 0.14) & (mids < 0.155)].tolist() == [-1.0, 1.0, 1.0, 1.0]

    def test_exact_expectation_within_allowance(self, monkeypatch):
        # the estimator's expectation, without sampling: one block of two
        # identical "paths" holding sqrt E(Z1 - Z2)^2 against zero noise
        # turns the sample mean into the exact mean and the standard error
        # into 0, so only the discretization allowance is left
        from awgp import oracles

        def second_moments(cp, seed, b, n_paths):
            a1, a2, scale1, scale2, rho, _ = cp  # the call's kernel matrices and control
            a1, a2 = a1 * scale1, a2 * scale2
            root = np.sqrt(np.sum(a1 * a1 + a2 * a2 - 2.0 * rho * a1 * a2, axis=1))
            return np.stack([root, root]), np.zeros((2, root.size))

        monkeypatch.setattr(oracles, "_noise_block", second_moments)
        v = mc_formula_check(fbm_spec(0.5), fbm_spec(0.75), n_steps=256, n_paths=2)
        assert v.passed, v.diagnostics
        assert v.tolerance == 0.02 * abs(v.target)  # standard error 0: the stub was sampled

    @pytest.mark.parametrize("n_paths, n_steps", [(0, 16), (1, 16), (10, 0)])
    def test_rejects_too_few_paths_or_steps(self, n_paths, n_steps):
        with pytest.raises(DomainError):
            mc_formula_check(fbm_spec(0.5), fbm_spec(0.75), n_steps=n_steps, n_paths=n_paths)

    def test_singular_measure_rejected(self):
        from awgp.kernels import cantor_martingale_spec
        with pytest.raises(DomainError):
            mc_formula_check(fbm_spec(0.5), cantor_martingale_spec(), n_paths=10)


class TestPsdSampler:
    def test_samples_feasible(self):
        rng = np.random.default_rng(1)
        a_ = rng.normal(size=(3, 3)); a = a_ @ a_.T
        b_ = rng.normal(size=(4, 4)); b = b_ @ b_.T
        count = 0
        for gamma in psd_feasibility_sampler(a, b, 200, seed=5):
            block = np.block([[a, gamma], [gamma.T, b]])
            assert np.linalg.eigvalsh(block).min() >= -1e-10
            count += 1
        assert count == 200

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            list(psd_feasibility_sampler(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2), 1))


class TestFbmReference:
    """The self-similar fBM route against the multiprecision reduction."""

    @pytest.mark.parametrize("h1,h2", [(0.3, 0.7), (0.15, 0.85), (0.5, 0.75),
                                       (0.05, 0.95), (0.05, 0.55), (0.45, 0.95)])
    def test_route_matches(self, h1, h2):
        rep = continuous_aw_fbm(h1, h2, 1.0)
        assert abs(rep.distance_squared - fbm_aw_reference(h1, h2, 1.0)) <= 1e-8 * rep.trace_term

    def test_horizon_scaling(self):
        rep = continuous_aw_fbm(0.3, 0.7, 2.5)
        assert abs(rep.distance_squared - fbm_aw_reference(0.3, 0.7, 2.5)) <= 1e-8 * rep.trace_term

    @pytest.mark.parametrize("h", np.round(np.arange(0.05, 0.96, 0.05), 2))
    def test_equal_hurst_cross_integral_is_one(self, h):
        # c_HH = Var B_H(1) = 1 exactly, so the reference distance vanishes; the
        # route's rule, which the route skips at h1 == h2, sums it to 1 as well
        assert abs(fbm_aw_reference(h, h)) <= 1e-14
        row = _unit_row(MolchanGolosov(h=h))
        rule = _graded_unit_nodes(-2.0 * row.p0, 2.0 * row.h - 1.0, 256)
        assert _self_similar_cross(row, row, rule) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("h1,h2", [(0.1, 0.45), (0.55, 0.9)])
    def test_error_falls_with_nodes(self, h1, h2):
        # pairs with an end power near another (H near 1/2), whose rule still converges past
        # 64 nodes; the three pairs above are at rounding there already
        ref = fbm_aw_reference(h1, h2)
        errs = [abs(continuous_aw_fbm(h1, h2, 1.0, QuadratureGrid(n_s=n)).distance_squared - ref)
                for n in (64, 128, 256)]
        assert errs[0] > errs[1] > errs[2] and errs[2] <= 1e-13

    def test_close_hurst_distance_nonnegative(self):
        for h in np.arange(0.05, 0.951, 0.05):
            for dh in (1e-2, 1e-4, 1e-6):
                assert continuous_aw_fbm(h - dh, h, 1.0).distance_squared >= 0.0


HS = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
HOMOGENEOUS_PAIRS = {
    "mg-rl": lambda h1, h2: (MolchanGolosov(h=h1), RiemannLiouville(h=h2)),
    "rl-rl": lambda h1, h2: (RiemannLiouville(h=h1), RiemannLiouville(h=h2)),
    "rl-bm": lambda h1, h2: (RiemannLiouville(h=h1), Brownian()),
    "mg-bm": lambda h1, h2: (MolchanGolosov(h=h1), Brownian()),
}


def _lebesgue(kernel, T=1.0):
    return GaussianProcessSpec(components=[(kernel, IntensityMeasure.lebesgue())], T=T)


class TestSelfSimilarReference:
    """The self-similar route of the general entry point against the multiprecision
    reduction, for every kind of homogeneous kernel."""

    @pytest.mark.parametrize("pair", sorted(HOMOGENEOUS_PAIRS))
    def test_route_matches(self, pair):
        # H1 runs over the grid and H2 over it reversed; the Brownian pairs ignore H2
        for h1, h2 in zip(HS, HS[::-1]):
            k1, k2 = HOMOGENEOUS_PAIRS[pair](h1, h2)
            rep = continuous_aw_unit(_lebesgue(k1), _lebesgue(k2), QuadratureGrid(n_s=256))
            assert rep.grid_meta["scheme"] == "self_similar"
            ref = fbm_aw_reference(k1, k2)
            assert abs(rep.distance_squared - ref) <= 1e-12 * ref, (h1, h2)

    @pytest.mark.parametrize("pair", sorted(HOMOGENEOUS_PAIRS))
    def test_label_swap_is_bitwise(self, pair):
        for h1, h2 in [(0.05, 0.95), (0.3, 0.7), (0.65, 0.35)]:
            k1, k2 = HOMOGENEOUS_PAIRS[pair](h1, h2)
            a = continuous_aw_unit(_lebesgue(k1), _lebesgue(k2))
            b = continuous_aw_unit(_lebesgue(k2), _lebesgue(k1))
            assert (a.distance_squared, a.trace_term, a.cross_term) == \
                (b.distance_squared, b.trace_term, b.cross_term)

    @pytest.mark.parametrize("kernel", [MolchanGolosov(h=0.3), RiemannLiouville(h=0.05),
                                        RiemannLiouville(h=0.8), Brownian()],
                             ids=["mg", "rl-rough", "rl-smooth", "bm"])
    def test_equal_kernels_exactly_zero(self, kernel):
        for T in (1.0, 2.7):
            # two specs with equal kernels, each with its own measure object
            k = dataclasses.replace(kernel, T=T)
            assert continuous_aw_unit(_lebesgue(k, T), _lebesgue(k, T)).distance_squared == 0.0
        assert abs(fbm_aw_reference(kernel, kernel)) <= 1e-14


class TestGoldenRegistry:
    def test_registry_complete(self):
        reg = load_goldens()
        for name, entry in reg.items():
            assert {"value", "oracle", "config", "derived_at"} <= set(entry), name

    def test_missing_entry_is_hard_failure(self):
        with pytest.raises(KeyError):
            get_golden("no_such_golden")

    def test_regeneration_reproduces_registry(self, tmp_path):
        # every oracle is deterministic, so a fresh run must reproduce the
        # shipped values (timestamps aside)
        out = tmp_path / "goldens.json"
        fresh = regenerate_goldens(path=out)
        shipped = load_goldens()
        assert set(fresh) == set(shipped)
        for name in shipped:
            a, b = fresh[name]["value"], shipped[name]["value"]
            if isinstance(a, str):
                assert a == b
            else:
                assert a == pytest.approx(b, rel=1e-12)

    def test_fou_convention_recorded(self):
        assert get_golden("fou_sign_convention") == "mild"
