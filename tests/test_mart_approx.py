import numpy as np
import pytest

from awgp.errors import DomainError
from awgp.gauss_aw import continuous_aw_fbm
from awgp.kernels import eval_mg_kernel
from awgp.mart_approx import MartingaleApproxResult, mart_approx_distance, optimal_volatility
from awgp.oracles import get_golden
from awgp.quadrature import QuadratureGrid, graded_midpoint, grading_exponent


class TestOptimalVolatility:
    def test_brownian_case(self):
        assert optimal_volatility(0.5, 0.3, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_golden(self):
        golden = get_golden("rho_h070_r050_T1")
        assert optimal_volatility(0.7, 0.5, 1.0) == pytest.approx(golden, abs=1e-5)

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
        assert res.distance_squared == pytest.approx(golden, rel=5e-4)

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

    def test_hurst_domain(self):
        with pytest.raises(DomainError):
            mart_approx_distance(1.2, 1.0)


def _old_rows(h, r, T, n, rule):
    u, w = rule(0.0, 1.0, n, gamma=grading_exponent(max(0.0, 0.5 - h), h), cluster="left")
    span = (T - r)[:, None]
    s_mat, w_mat = r[:, None] + span * u[None, :], span * w[None, :]
    vals = eval_mg_kernel(h, s_mat.ravel(), np.repeat(r, s_mat.shape[1])).reshape(s_mat.shape)
    return vals, w_mat, np.sum(vals * w_mat, axis=1) / (T - r)


class TestSharedNodeBuilders:
    """The distance core's node builders give bitwise what the old inline rule gave."""

    @pytest.mark.parametrize("rule", [graded_midpoint], ids=["midpoint"])
    @pytest.mark.parametrize("h", [0.2, 0.5, 0.7])
    def test_mart_approx_distance(self, h, rule):
        T, grid = 1.3, QuadratureGrid(n_s=48, n_t=80)
        r, r_w = rule(0.0, T, grid.n_s, gamma=grading_exponent(2.0 * abs(h - 0.5), h),
                      cluster="left")
        vals, w_mat, rho = _old_rows(h, r, T, grid.n_t, rule)
        dist = float(np.sum(np.sum((vals - rho[:, None]) ** 2 * w_mat, axis=1) * r_w))
        res = mart_approx_distance(h, T, grid)
        assert np.array_equal(res.r_nodes, r)
        assert np.array_equal(res.rho, rho)
        assert res.distance_squared == dist

    @pytest.mark.parametrize("rule", [graded_midpoint], ids=["midpoint"])
    @pytest.mark.parametrize("h", [0.2, 0.7])
    def test_optimal_volatility(self, h, rule):
        r = np.linspace(0.05, 0.95, 19)
        assert np.array_equal(optimal_volatility(h, r, 1.0, 96), _old_rows(h, r, 1.0, 96, rule)[2])
