import numpy as np
import pytest

from awgp import kernels
from awgp.errors import ConvergenceError, DomainError
from awgp.gauss_aw import continuous_aw_fbm
from awgp.kernels import eval_mg_kernel
from awgp.mart_approx import MartingaleApproxResult, mart_approx_distance, optimal_volatility
from awgp.oracles import _mart_distance_reference, _mg_forward_mean, get_golden
from awgp.quadrature import QuadratureGrid


class TestOptimalVolatility:
    def test_brownian_case(self):
        assert optimal_volatility(0.5, 0.3, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_golden(self):
        golden = get_golden("rho_h070_r050_T1")
        assert optimal_volatility(0.7, 0.5, 1.0) == pytest.approx(golden, abs=1e-10)

    def test_near_horizon_limit(self):
        # over a small window [r, T] the kernel behaves like (s - r)^(H - 1/2),
        # whose forward average is the endpoint value divided by H + 1/2
        h, T = 0.7, 1.0
        r = T - 1e-4
        avg = optimal_volatility(h, r, T, quad_nodes=512)
        assert avg * (h + 0.5) == pytest.approx(eval_mg_kernel(h, T, r), rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            optimal_volatility(0.7, 0.0, 1.0)
        with pytest.raises(DomainError):
            optimal_volatility(0.7, 1.0, 1.0)

    def test_vectorized(self):
        rs = np.array([0.2, 0.5, 0.8])
        vec = optimal_volatility(0.7, rs, 1.0)
        assert vec.shape == (3,)
        assert vec[0] == pytest.approx(optimal_volatility(0.7, 0.2, 1.0), rel=1e-14)


class TestMartApproxDistance:
    def test_brownian_is_already_martingale(self):
        res = mart_approx_distance(0.5, 1.0)
        assert res.distance_squared <= 1e-10
        assert np.max(np.abs(res.rho - 1.0)) < 1e-12

    def test_golden(self):
        golden = get_golden("mart_dist_h070_T1")
        res = mart_approx_distance(0.7, 1.0)
        assert res.distance_squared == pytest.approx(golden, rel=1e-10)

    def test_below_any_specific_martingale(self):
        # plain Brownian motion is one admissible martingale, so the infimum
        # cannot exceed the fBM-vs-BM distance
        for h in (0.3, 0.6, 0.75):
            inf_val = mart_approx_distance(h, 1.0).distance_squared
            bm_val = continuous_aw_fbm(h, 0.5, 1.0).distance_squared
            assert inf_val <= bm_val + 1e-12

    def test_perturbations_increase_cost(self):
        h, T = 0.7, 1.0
        grid = QuadratureGrid(n_s=64, n_t=128)
        res = mart_approx_distance(h, T, grid)
        from awgp.gauss_aw import _t_matrix
        from awgp.quadrature import grading_exponent
        s_mat, w_mat = _t_matrix(res.r_nodes, T, grid.n_t, grading_exponent(max(0.0, 0.5 - h), h))
        vals = eval_mg_kernel(h, s_mat.ravel(),
                              np.repeat(res.r_nodes, s_mat.shape[1])).reshape(s_mat.shape)
        base = np.sum((vals - res.rho[:, None]) ** 2 * w_mat, axis=1)
        rng = np.random.default_rng(0)
        r_w = np.gradient(res.r_nodes)
        for _ in range(100):
            eps = rng.choice([-0.05, 0.05])
            bump = eps * np.exp(-((res.r_nodes - rng.uniform(0.1, 0.9)) ** 2) / 0.02)
            pert = np.sum((vals - (res.rho + bump)[:, None]) ** 2 * w_mat, axis=1)
            assert np.sum((pert - base) * r_w) > 0.0

    def test_rho_interpolation(self):
        res = mart_approx_distance(0.7, 1.0, QuadratureGrid(n_s=64, n_t=64))
        mid = 0.5 * (res.r_nodes[10] + res.r_nodes[11])
        lo, hi = sorted((res.rho[10], res.rho[11]))
        assert lo <= res.rho_at(mid) <= hi

    def test_json_roundtrip(self):
        res = mart_approx_distance(0.6, 1.0, QuadratureGrid(n_s=32, n_t=32))
        again = MartingaleApproxResult.from_dict(res.to_dict())
        assert again.distance_squared == res.distance_squared
        assert np.array_equal(again.rho, res.rho)
        assert np.array_equal(again.r_nodes, res.r_nodes)
        assert again.grid_meta == res.grid_meta == {"distance_nodes": 32}

    def test_hurst_domain(self):
        with pytest.raises(DomainError):
            mart_approx_distance(1.2, 1.0)


class TestInputChecks:
    @pytest.mark.parametrize("nodes", [0, -4, 2.5, True])
    def test_quad_nodes(self, nodes):
        with pytest.raises(DomainError, match="quad_nodes"):
            optimal_volatility(0.7, 0.5, 1.0, quad_nodes=nodes)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_horizon(self, T):
        # checked up front: no RuntimeWarning (an error under this suite) comes first
        with pytest.raises(DomainError, match="horizon"):
            optimal_volatility(0.7, 0.5, T)
        with pytest.raises(DomainError, match="horizon"):
            mart_approx_distance(0.7, T)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, 1.0])
    def test_hurst(self, h):
        with pytest.raises(DomainError, match="Hurst"):
            optimal_volatility(h, 0.5, 1.0)
        with pytest.raises(DomainError, match="Hurst"):
            mart_approx_distance(h, 1.0)

    def test_non_finite_r(self):
        with pytest.raises(DomainError, match="finite"):
            optimal_volatility(0.7, np.array([0.5, np.nan]), 1.0)

    def test_quad_nodes_is_the_end_rule(self):
        # a lone r above 1/2 is all end rule: another node count is another rule, as exact
        r, ref = 0.9, _mg_forward_mean(0.7, 0.9, 1.0)
        small, large = (optimal_volatility(0.7, r, 1.0, quad_nodes=n) for n in (32, 512))
        assert small != large
        assert small == pytest.approx(ref, rel=1e-12) and large == pytest.approx(ref, rel=1e-12)


class TestAgainstQuadpack:
    """The cumulative rule against nested QUADPACK (``oracles._mg_forward_mean``)."""

    @pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.7, 0.9])
    def test_distance(self, h):
        res = mart_approx_distance(h, 1.0)
        assert res.distance_squared == pytest.approx(_mart_distance_reference(h, 1.0), rel=1e-7)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.9])
    def test_rho_lone_and_together(self, h):
        rs = np.array([1e-4, 1e-2, 0.3, 0.9999])
        ref = np.array([_mg_forward_mean(h, r, 1.0) for r in rs])
        lone = np.array([optimal_volatility(h, r, 1.0) for r in rs])
        assert np.max(np.abs(lone - ref) / ref) < 1e-10
        assert np.max(np.abs(optimal_volatility(h, rs, 1.0) - ref) / ref) < 1e-10

    def test_rho_table(self):
        res = mart_approx_distance(0.05, 1.0)
        idx = [0, 3, 100, 255]  # from r near 1e-61 to the last midpoint
        ref = np.array([_mg_forward_mean(0.05, r, 1.0) for r in res.r_nodes[idx]])
        assert np.max(np.abs(res.rho[idx] - ref) / ref) < 1e-10

    def test_time_scaling(self):
        h = 0.3
        base = mart_approx_distance(h, 1.0)
        for T in (0.3, 7.0):
            res = mart_approx_distance(h, T)
            assert res.distance_squared == pytest.approx(T ** (2 * h + 1) * base.distance_squared,
                                                         rel=1e-13)
            assert np.allclose(res.r_nodes, T * base.r_nodes, rtol=1e-14, atol=0.0)
            assert np.allclose(res.rho, T ** (h - 0.5) * base.rho, rtol=1e-13, atol=0.0)

    def test_error_shrinks_with_nodes(self):
        # 32 nodes are within 1e-9; from 64 on the rule sits at the oracle's rounding
        h = 0.05
        ref = _mart_distance_reference(h, 1.0)
        err = {n: abs(mart_approx_distance(h, 1.0, QuadratureGrid(n_s=n)).distance_squared - ref)
               / ref for n in (32, 64, 256)}
        assert err[32] > 100 * err[64]
        assert err[256] <= max(err[64], 1e-13)


class TestGridSemantics:
    def test_node_count_recorded_and_n_t_unused(self):
        for n_s, nodes in ((1, 32), (48, 48), (100, 96)):
            res = mart_approx_distance(0.7, 1.0, QuadratureGrid(n_s=n_s, n_t=8))
            again = mart_approx_distance(0.7, 1.0, QuadratureGrid(n_s=n_s, n_t=512))
            assert res.grid_meta == {"distance_nodes": nodes}
            assert res.r_nodes.size == n_s
            assert again.distance_squared == res.distance_squared
            assert np.array_equal(again.rho, res.rho)

    def test_crosscheck_passes_and_fails(self):
        ok = mart_approx_distance(0.7, 1.0, QuadratureGrid(n_s=8, n_t=8, crosscheck_rtol=1e-12))
        assert ok.distance_squared == pytest.approx(get_golden("mart_dist_h070_T1"), rel=1e-8)
        assert ok.grid_meta["crosscheck_rel"] == 0.0  # n_s = 8 and 4 both take 32 nodes
        loose = mart_approx_distance(0.05, 1.0, QuadratureGrid(n_s=64, crosscheck_rtol=1e-6))
        assert 0.0 < loose.grid_meta["crosscheck_rel"] < 1e-6
        with pytest.raises(ConvergenceError, match="half-grid"):
            mart_approx_distance(0.05, 1.0, QuadratureGrid(n_s=64, crosscheck_rtol=1e-13))

    @pytest.mark.parametrize("n_s", [64, 256])
    def test_one_kernel_pass_per_call(self, monkeypatch, n_s):
        # 16 lanes per node (n_s midpoints, n_s distance nodes) plus the 32-node end rule,
        # whatever H: 8224 at n_s = 256, where the n_s x n_t grid took 65536
        real, lanes = kernels.hyp2f1, []

        def spy(a, b, c, z, *args, **kwargs):
            lanes.append(np.size(z))
            return real(a, b, c, z, *args, **kwargs)

        monkeypatch.setattr(kernels, "hyp2f1", spy)
        for h in (0.01, 0.05, 0.3, 0.5, 0.7, 0.99):
            lanes.clear()
            mart_approx_distance(h, 1.0, QuadratureGrid(n_s=n_s))
            assert lanes == [16 * 2 * n_s + 32]
