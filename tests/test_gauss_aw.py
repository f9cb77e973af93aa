import tracemalloc
from math import gamma

import numpy as np
import pytest

from awgp import gauss_aw
from awgp.errors import ConvergenceError, DomainError, NotPositiveDefiniteError
from awgp.gauss_aw import (CovMatrix, DistanceReport, _densities, _distance_core,
                           _eval_components, _nodes, _pair_gammas, _run_with_crosscheck,
                           _t_matrix, _trace_term, cholesky_causal_factor, continuous_aw_fbm,
                           continuous_aw_multi, continuous_aw_unit, discrete_aw,
                           discretized_fbm_aw, fbm_cov_matrix, levy_noncanonical_check,
                           trace_bound_optimal_gamma, triangular_integral)
from awgp.kernels import (Brownian, CallableKernel, ConstantVolatility, FractionalOU,
                          GaussianProcessSpec, IntensityMeasure, MolchanGolosov, RiemannLiouville,
                          Tabulated, cantor_martingale_spec, eval_mg_kernel, fbm_spec, fou_spec)
from awgp.mart_approx import mart_approx_distance, optimal_volatility
from awgp.oracles import bruteforce_discrete_cross_term, get_golden, psd_feasibility_sampler
from awgp.quadrature import QuadratureGrid, graded_midpoint
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

B = gauss_aw._SCHUR_BLOCK


def core(s1, s2, grid):
    """The 2-D quadrature core, which the entry points skip for homogeneous kernels."""
    return _run_with_crosscheck(lambda g: _distance_core(s1, s2, g), grid)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * 0.05 * np.eye(n)


def python_first_failing_pivot(a):
    """Reference: unblocked Cholesky in Python, stopping at the first pivot <= 0."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(low[j, :j], low[j, :j])
        if d <= 0.0:
            return j
        low[j, j] = np.sqrt(d)
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return n - 1


class TestCholesky:
    def test_identity(self):
        k = cholesky_causal_factor(np.eye(3))
        assert np.array_equal(k.entries, np.eye(3))

    def test_hand_2x2(self):
        k = cholesky_causal_factor(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(k.entries, [[2.0, 0.0], [1.0, 1.0]], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = random_spd(rng, 8)
            k = cholesky_causal_factor(sigma).entries
            err = np.abs(k @ k.T - sigma).max() / np.abs(sigma).max()
            assert err < 1e-10

    def test_not_positive_definite_names_pivot(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_causal_factor(bad)
        assert exc.value.pivot_index == 1

    def test_pivot_index_matches_python_search(self):
        # A = L D L^T with L unit lower triangular has the pivots D; the first
        # non-positive one is at least 0.1 below 0, so rounding cannot move it
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            n = int(rng.integers(2, 13))
            j = int(rng.integers(n))
            low = np.tril(rng.normal(scale=0.5, size=(n, n)), -1) + np.eye(n)
            d = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
            d[:j] = np.abs(d[:j])
            d[j] = -abs(d[j])
            a = (low * d) @ low.T
            a = np.tril(a) + np.tril(a, -1).T
            with pytest.raises(NotPositiveDefiniteError) as exc:
                cholesky_causal_factor(a)
            assert exc.value.pivot_index == python_first_failing_pivot(a) == j

    def test_first_small_pivot_named(self):
        # both pivots after the first are at or below 1e-10; the first of them is named
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_causal_factor(np.diag([1.0, 1e-11, 1e-13]))
        assert exc.value.pivot_index == 1

    @pytest.mark.parametrize("entries", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
    ], ids=["nan-diag", "nan-offdiag", "inf-diag", "inf-offdiag"])
    def test_non_finite_rejected(self, entries):
        with pytest.raises(DomainError):
            CovMatrix(np.array(entries))
        with pytest.raises(DomainError):
            discrete_aw(np.array(entries), np.eye(2))

    def test_degenerate_rejected_not_regularized(self):
        v = np.array([[1.0], [1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_causal_factor(v @ v.T)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            cholesky_causal_factor(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_factor_validation(self):
        from awgp.gauss_aw import TriangularFactor
        with pytest.raises(DomainError):
            TriangularFactor(np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            TriangularFactor(np.array([[1.0, 0.0], [0.5, -1.0]]))
        for bad in (np.ones(2), np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                    np.array([[np.nan, 0.0], [0.0, 1.0]])):
            with pytest.raises(DomainError):
                TriangularFactor(bad)
        # the upper triangle is checked in row blocks: entries in, beside and past a block
        for i, j in [(3, 5), (3, 100), (63, 64), (64, 65), (129, 129 + 1)]:
            a = np.eye(131)
            a[i, j] = np.nan if i == 3 else 1e-300
            with pytest.raises(DomainError, match="lower triangular"):
                TriangularFactor(a)
        TriangularFactor(np.tril(np.ones((131, 131))))


class TestDiscreteAw:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 5)
        rep = discrete_aw(sigma, sigma)
        assert rep.distance_squared == pytest.approx(0.0, abs=1e-10)
        assert np.all(rep.optimal_correlation == 1.0)

    def test_identity_pair(self):
        assert discrete_aw(np.eye(2), np.eye(2)).distance_squared == pytest.approx(0.0, abs=1e-14)

    def test_worked_example_golden(self):
        golden = get_golden("discrete_aw_2x2_example")
        rep = discrete_aw(np.array([[1.0, 1.0], [1.0, 2.0]]), np.eye(2))
        assert rep.distance_squared == pytest.approx(golden, abs=1e-12)
        assert golden == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            discrete_aw(np.eye(2), np.eye(3))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s1, s2, s3 = (random_spd(rng, n) for _ in range(3))
            d12 = discrete_aw(s1, s2).distance_squared
            d21 = discrete_aw(s2, s1).distance_squared
            assert d12 == pytest.approx(d21, abs=1e-10)
            d13 = discrete_aw(s1, s3).distance_squared
            d23 = discrete_aw(s2, s3).distance_squared
            lhs = np.sqrt(max(d12, 0.0))
            assert lhs <= np.sqrt(max(d13, 0.0)) + np.sqrt(max(d23, 0.0)) + 1e-8

    def test_scaling(self):
        rng = np.random.default_rng(3)
        s1, s2 = random_spd(rng, 4), random_spd(rng, 4)
        base = discrete_aw(s1, s2).distance_squared
        for c in (0.5, 2.0, 7.0):
            scaled = discrete_aw(c * c * s1, c * c * s2).distance_squared
            assert scaled == pytest.approx(c * c * base, rel=1e-10)

    def test_sign_flip_invariance(self):
        # replacing K1 by K1 D with D = diag(+-1) leaves the cross term unchanged
        rng = np.random.default_rng(4)
        k1 = cholesky_causal_factor(random_spd(rng, 6)).entries
        k2 = cholesky_causal_factor(random_spd(rng, 6)).entries
        base = bruteforce_discrete_cross_term(k1, k2)
        for _ in range(5):
            d = np.diag(rng.choice([-1.0, 1.0], size=6))
            assert bruteforce_discrete_cross_term(k1 @ d, k2) == pytest.approx(base, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            s1, s2 = random_spd(rng, n), random_spd(rng, n)
            rep = discrete_aw(s1, s2)
            cross = bruteforce_discrete_cross_term(
                cholesky_causal_factor(s1), cholesky_causal_factor(s2))
            expect = float(np.trace(s1) + np.trace(s2)) - 2.0 * cross
            assert rep.distance_squared == pytest.approx(expect, abs=1e-9)


class TestContinuousUnit:
    def test_identical_fbm_is_zero(self):
        rep = continuous_aw_unit(fbm_spec(0.7), fbm_spec(0.7))
        assert rep.distance_squared == pytest.approx(0.0, abs=1e-12)

    def test_fbm_golden(self):
        golden = get_golden("aw2_fbm_h050_h075_T1")
        rep = continuous_aw_unit(fbm_spec(0.5), fbm_spec(0.75))
        assert rep.distance_squared == pytest.approx(golden, rel=1e-4)

    def test_horizon_mismatch(self):
        with pytest.raises(DomainError):
            continuous_aw_unit(fbm_spec(0.5, T=1.0), fbm_spec(0.7, T=2.0))

    def test_multiplicity_precondition(self):
        leb = IntensityMeasure.lebesgue()
        two = GaussianProcessSpec(
            components=[(Brownian(T=1.0), leb), (Brownian(T=1.0), leb)], T=1.0)
        with pytest.raises(DomainError):
            continuous_aw_unit(two, fbm_spec(0.5))

    @pytest.mark.parametrize("fields", [
        {"n_s": 0}, {"n_t": -3}, {"n_s": 2.5}, {"n_t": True}, {"n_s": "64"},
        {"crosscheck_rtol": float("nan")}, {"crosscheck_rtol": float("inf")},
        {"crosscheck_rtol": -1e-3}, {"crosscheck_rtol": 0.0},
    ])
    def test_bad_grid_rejected(self, fields):
        with pytest.raises(DomainError):
            QuadratureGrid(**fields)

    def test_smallest_grid_runs(self):
        grid = QuadratureGrid(n_s=np.int64(1), n_t=1, crosscheck_rtol=1.0)
        rep = continuous_aw_unit(fbm_spec(0.5), fbm_spec(0.75), grid)
        assert np.isfinite(rep.distance_squared)

    def test_crosscheck_passes_and_fails(self):
        ok = QuadratureGrid(n_s=128, n_t=128, crosscheck_rtol=1e-2)
        rep = core(fbm_spec(0.5), fbm_spec(0.75), ok)
        assert "crosscheck_rel" in rep.grid_meta
        unreachable = QuadratureGrid(n_s=128, n_t=128, crosscheck_rtol=1e-15)
        with pytest.raises(ConvergenceError):
            core(fbm_spec(0.5), fbm_spec(0.75), unreachable)

    def test_crosscheck_flags_the_rough_pair(self):
        # at grid 512 this distance is 2.4% low, and its half-grid gap is 3.9e-4
        with pytest.raises(ConvergenceError, match="half-grid"):
            core(fbm_spec(0.05), fbm_spec(0.95),
                 QuadratureGrid(n_s=512, n_t=512, crosscheck_rtol=1e-4))

    def test_cantor_example(self):
        bm = GaussianProcessSpec(
            components=[(Brownian(T=1.0), IntensityMeasure.lebesgue())], T=1.0)
        rep = continuous_aw_unit(bm, cantor_martingale_spec())
        assert rep.cross_term == 0.0
        assert rep.distance_squared == pytest.approx(1.0, abs=1e-12)

    def test_cantor_under_crosscheck(self):
        bm = GaussianProcessSpec(
            components=[(Brownian(T=1.0), IntensityMeasure.lebesgue())], T=1.0)
        grid = QuadratureGrid(crosscheck_rtol=1e-12)
        for spec in (bm, cantor_martingale_spec()):
            rep = continuous_aw_unit(spec, cantor_martingale_spec(), grid)
            assert rep.grid_meta["crosscheck_rel"] <= 1e-12

    def test_singular_measure_without_cells(self):
        with pytest.raises(DomainError, match="other"):
            IntensityMeasure(singular_tag="other", name="other")
        # the Cantor measure charges times up to 1
        short = GaussianProcessSpec(components=[(Brownian(T=0.5), IntensityMeasure.cantor())],
                                    T=0.5)
        with pytest.raises(DomainError, match="horizon"):
            continuous_aw_unit(short, short)

    def test_cantor_self_distance(self):
        rep = continuous_aw_unit(cantor_martingale_spec(), cantor_martingale_spec())
        assert rep.distance_squared == pytest.approx(0.0, abs=1e-10)

    def test_cantor_records_its_cell_count(self):
        # the Cantor rule takes 2^k >= 8 n_s cells: 128 for n_s = 16, one correlation each
        rep = continuous_aw_unit(cantor_martingale_spec(), cantor_martingale_spec(),
                                 QuadratureGrid(n_s=16, n_t=16))
        assert rep.grid_meta["n_s"] == 128 == rep.optimal_correlation.size


class TestContinuousFbm:
    def test_equal_hurst_zero(self):
        rep = continuous_aw_fbm(0.5, 0.5, 1.0)
        assert rep.distance_squared == 0.0

    def test_label_symmetry(self):
        a = continuous_aw_fbm(0.55, 0.8, 1.0, QuadratureGrid(n_s=96, n_t=96))
        b = continuous_aw_fbm(0.8, 0.55, 1.0, QuadratureGrid(n_s=96, n_t=96))
        assert a.distance_squared == pytest.approx(b.distance_squared, rel=1e-12)

    def test_agrees_with_unit_engine(self):
        # the 2-D core's own error at grid 512 is 2.5e-6 and 5.7e-5 here; 1e-4 is the
        # golden's tolerance
        for h1, h2 in [(0.5, 0.75), (0.6, 0.75)]:
            a = continuous_aw_fbm(h1, h2, 1.0)
            b = core(fbm_spec(h1), fbm_spec(h2), QuadratureGrid(n_s=512, n_t=512))
            assert a.distance_squared == pytest.approx(b.distance_squared, rel=1e-4)

    def test_label_swap_is_bitwise(self):
        for h1, h2 in [(0.55, 0.8), (0.05, 0.95), (0.3, 0.31)]:
            a, b = continuous_aw_fbm(h1, h2, 1.7), continuous_aw_fbm(h2, h1, 1.7)
            assert (a.distance_squared, a.trace_term, a.cross_term) == \
                (b.distance_squared, b.trace_term, b.cross_term)
            assert np.array_equal(a.optimal_correlation, b.optimal_correlation)

    @pytest.mark.parametrize("n_s,nodes", [(256, 256), (100, 96), (8, 32)])
    def test_one_dimensional_rule(self, n_s, nodes):
        rep = continuous_aw_fbm(0.3, 0.7, 1.0, QuadratureGrid(n_s=n_s, n_t=7))
        assert rep.grid_meta["n_s"] == nodes and rep.grid_meta["n_t"] is None
        assert np.array_equal(rep.optimal_correlation, np.ones(nodes))

    @pytest.mark.parametrize("h1,h2,n_s", [(0.001, 0.999, 256), (0.002, 0.003, 256),
                                           (0.3, 0.7, 20000)])
    def test_extreme_inputs_stay_finite(self, h1, h2, n_s):
        # a steep end power or a deep grading must not underflow the innermost nodes to 0
        rep = continuous_aw_fbm(h1, h2, 1.0, QuadratureGrid(n_s=n_s))
        assert np.isfinite(rep.cross_term) and 0.0 < rep.distance_squared < rep.trace_term

    def test_equal_hurst_is_exact(self):
        rep = continuous_aw_fbm(0.3, 0.3, 2.0)
        assert rep.cross_term == 2.0 ** 1.6 / 1.6
        assert rep.trace_term == 2.0 * rep.cross_term and rep.distance_squared == 0.0

    def test_hurst_within_1e_9_of_half(self):
        # the kernel's hyp2f1 keeps its 1/z route there, so small s does not exhaust a series
        assert eval_mg_kernel(0.5 + 1e-9, 1.0, 1e-8) == pytest.approx(1.0, rel=1e-8)
        assert abs(continuous_aw_fbm(0.5, 0.5 + 1e-9).distance_squared) <= 1e-15

    def test_crosscheck(self):
        rep = continuous_aw_fbm(0.3, 0.7, 1.0, QuadratureGrid(crosscheck_rtol=1e-10))
        assert 0.0 <= rep.grid_meta["crosscheck_rel"] <= 1e-10
        with pytest.raises(ConvergenceError):
            continuous_aw_fbm(0.15, 0.25, 1.0, QuadratureGrid(n_s=64, crosscheck_rtol=1e-10))

    def test_report_identity(self):
        rep = continuous_aw_fbm(0.6, 0.8, 1.0, QuadratureGrid(n_s=96, n_t=96))
        assert rep.distance_squared == pytest.approx(
            rep.trace_term - 2.0 * rep.cross_term, rel=1e-10)

    def test_hurst_domain(self):
        with pytest.raises(DomainError):
            continuous_aw_fbm(0.0, 0.5, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [float("inf"), float("nan"), 0.0, -1.0])
    def test_bad_horizon_is_named(self, T):
        for call in (lambda: fbm_spec(0.5, T), lambda: continuous_aw_fbm(0.5, 0.7, T)):
            with pytest.raises(DomainError, match="horizon T"):
                call()


class TestSelfSimilarRoute:
    @pytest.mark.parametrize("kernel", [MolchanGolosov(T=2.0, h=0.3),
                                        RiemannLiouville(T=2.0, h=0.3), Brownian(T=2.0)],
                             ids=["mg", "rl", "bm"])
    def test_chosen_for_homogeneous_kernels_on_lebesgue(self, kernel):
        for aw in (continuous_aw_unit, continuous_aw_multi):
            rep = aw(_unit(kernel, T=2.0), fbm_spec(0.7, T=2.0), QuadratureGrid(n_s=64, n_t=8))
            assert rep.grid_meta["scheme"] == "self_similar" and rep.grid_meta["n_t"] is None

    @pytest.mark.parametrize("spec", [
        lambda: _unit(MolchanGolosov(T=1.0, h=0.3), IntensityMeasure(density=np.ones_like)),
        lambda: _unit(MolchanGolosov(T=1.0, h=0.3), IntensityMeasure.from_density(np.ones_like)),
        lambda: fou_spec(0.3, 1.0),
        lambda: GaussianProcessSpec(components=[(Brownian(T=1.0), IntensityMeasure.lebesgue()),
                                                (Brownian(T=1.0), IntensityMeasure.lebesgue())],
                                    T=1.0),
    ], ids=["named-lebesgue-own-density", "from-density", "fou", "two-components"])
    def test_other_specs_keep_the_core(self, spec):
        s = spec()
        grid = QuadratureGrid(n_s=32, n_t=32)
        rep = continuous_aw_multi(s, fbm_spec(0.6), grid)
        assert rep.grid_meta["scheme"] == "midpoint"
        assert rep.distance_squared == core(s, fbm_spec(0.6), grid).distance_squared

    def test_exact_trace_terms(self):
        # int_0^T t^(2H) dt times int_0^1 k(1, s)^2 ds, and T^2 / 2 for the Brownian partner
        T, h = 2.0, 0.3
        rough, half = T ** (2 * h + 1) / (2 * h + 1), T * T / 2
        for kernel, expect in ((MolchanGolosov(T=T, h=h), rough),
                               (RiemannLiouville(T=T, h=h), rough / (2 * h * gamma(h + 0.5) ** 2)),
                               (Brownian(T=T), half)):
            rep = continuous_aw_unit(_unit(kernel, T=T), _unit(Brownian(T=T), T=T))
            assert rep.trace_term == pytest.approx(expect + half, rel=1e-15)

    def test_half_is_the_brownian_kernel(self):
        # the MG and RL kernels at H = 1/2 are the Brownian kernel 1: equal laws
        kernels = [MolchanGolosov(T=1.0, h=0.5), RiemannLiouville(T=1.0, h=0.5), Brownian(T=1.0)]
        for k1 in kernels:
            for k2 in kernels:
                assert continuous_aw_unit(_unit(k1), _unit(k2)).distance_squared == 0.0

    def test_report_fields_are_python_floats(self):
        reps = [continuous_aw_fbm(np.float64(0.3), 0.7),
                continuous_aw_fbm(0.3, 0.7, np.float64(1.0)),
                continuous_aw_unit(_unit(RiemannLiouville(T=1.0, h=np.float64(0.4))),
                                   _unit(MolchanGolosov(T=1.0, h=np.float32(0.6))))]
        for rep in reps:
            fields = (rep.distance_squared, rep.trace_term, rep.cross_term,
                      rep.grid_meta["h1"], rep.grid_meta["h2"], rep.grid_meta["T"])
            assert all(type(v) is float for v in fields)

    @pytest.mark.parametrize("h,dh", [(0.22, 1e-9), (0.34, 1e-8)])
    def test_close_hurst_never_negative(self, h, dh):
        # trace - 2 cross misses 0 by rounding here; the report reads that miss as 0
        rep = continuous_aw_unit(fbm_spec(h), fbm_spec(h + dh))
        assert rep.distance_squared >= 0.0
        assert abs(rep.distance_squared - (rep.trace_term - 2.0 * rep.cross_term)) \
            <= 4.0 * np.finfo(float).eps * rep.trace_term

    def test_negative_beyond_rounding_raises(self, monkeypatch):
        # a rule 1% high on c12 puts trace - 2 cross far below 0
        monkeypatch.setattr(gauss_aw, "_self_similar_cross", lambda r1, r2, rule: 1.01)
        with pytest.raises(ConvergenceError, match="below 0"):
            continuous_aw_unit(fbm_spec(0.5), fbm_spec(0.6))


def _cv(rho):
    return ConstantVolatility(T=1.0, rho=rho)


def _rl_fou(h, lam, convention):
    return _unit(FractionalOU(T=1.0, h=h, lam=lam, base="rl", convention=convention))


_POLY = IntensityMeasure.from_density(lambda s: 0.5 + 2.0 * s * s)
_ROUTED = {  # one pair of each class the entry points send to the cumulative rule
    "cv": lambda: (_unit(ConstantVolatility(T=1.0)), fbm_spec(0.6)),
    "cantor": lambda: (cantor_martingale_spec(), fbm_spec(0.6)),
    "cv-weighted-bm": lambda: (_unit(_cv(lambda s: 1.0 + 0.5 * s), _POLY), _unit(Brownian(T=1.0))),
    "cantor-cantor": lambda: (cantor_martingale_spec(), cantor_martingale_spec()),
    "bm-cantor": lambda: (_unit(Brownian(T=1.0)), cantor_martingale_spec()),
    "cv-rl": lambda: (_unit(_cv(lambda s: 2.0 - s)), _unit(RiemannLiouville(T=1.0, h=0.3))),
    "rl-weighted-rl": lambda: (_unit(RiemannLiouville(T=1.0, h=0.3), _POLY),
                               _unit(RiemannLiouville(T=1.0, h=0.8))),
    "fou-rl-pair": lambda: (_rl_fou(0.3, 1.0, "mild"), _rl_fou(0.3, 1.0, "forward")),
    "mg-weighted-cv": lambda: (fbm_spec(0.3), _unit(_cv(lambda s: 1.0 + s), _POLY)),
}
_CORE = {  # and of each class that keeps the 2-D core
    "tabulated": lambda: (_unit(Tabulated(T=1.0, t_grid=np.linspace(0.0, 1.0, 5),
                                          s_grid=np.linspace(0.0, 1.0, 5),
                                          values=np.tril(np.ones((5, 5))))),
                          _unit(Brownian(T=1.0))),
    "callable": lambda: (_unit(CallableKernel(T=1.0, fn=lambda t, s: 1.0 + s * t)),
                         _unit(_cv(lambda s: 1.0 + s))),
    "mg-fou": lambda: (fou_spec(0.6, 1.0), _unit(Brownian(T=1.0))),
    "mg-rl-fou": lambda: (fbm_spec(0.6), _rl_fou(0.6, 1.0, "mild")),
    "mg-weighted-rl": lambda: (_unit(MolchanGolosov(T=1.0, h=0.6), _POLY),
                               _unit(RiemannLiouville(T=1.0, h=0.7))),
    "two-components": lambda: (GaussianProcessSpec(
        components=[(Brownian(T=1.0), IntensityMeasure.lebesgue()),
                    (_cv(lambda s: 1.0 + s), _POLY)], T=1.0), _unit(Brownian(T=1.0))),
}


def _cv_closed_form(rho1, rho2, dens1=lambda s: 1.0, dens2=lambda s: 1.0, points=None):
    """int_0^1 (1 - s) (|rho1| sqrt(mu1') - |rho2| sqrt(mu2'))^2 ds by QUADPACK."""
    return quad(lambda s: (1.0 - s) * (abs(rho1(s)) * np.sqrt(dens1(s))
                                       - abs(rho2(s)) * np.sqrt(dens2(s))) ** 2,
                0.0, 1.0, epsabs=1e-14, epsrel=1e-13, points=points, limit=200)[0]


class TestCumulativeRoute:
    @pytest.mark.parametrize("pair", _ROUTED.values(), ids=_ROUTED.keys())
    def test_chosen_for_one_dimensional_pairs(self, pair):
        spec1, spec2 = pair()
        for aw in (continuous_aw_unit, continuous_aw_multi):
            rep = aw(spec1, spec2, QuadratureGrid(n_s=64, n_t=8))
            assert rep.grid_meta["scheme"] == "cumulative" and rep.grid_meta["n_t"] is None
            assert type(rep.grid_meta["n_s"]) is int and rep.distance_squared >= 0.0

    @pytest.mark.parametrize("pair", _CORE.values(), ids=_CORE.keys())
    def test_other_pairs_keep_the_core(self, pair):
        spec1, spec2 = pair()
        grid = QuadratureGrid(n_s=32, n_t=32)
        rep = continuous_aw_multi(spec1, spec2, grid)
        assert rep.grid_meta["scheme"] == "midpoint"
        assert rep.distance_squared == core(spec1, spec2, grid).distance_squared

    @pytest.mark.parametrize("pair", _ROUTED.values(), ids=_ROUTED.keys())
    def test_equal_specs_are_exactly_zero(self, pair):
        for spec in pair():
            rep = continuous_aw_unit(spec, spec)
            assert rep.distance_squared == 0.0 and np.all(rep.optimal_correlation == 1.0)

    @pytest.mark.parametrize("a,b", [(0.2, -0.15), (0.4, 0.1), (0.6, 0.25)])
    def test_brownian_against_cv(self, a, b):
        rho = lambda s: a + b * s  # noqa: E731
        rep = continuous_aw_unit(_unit(Brownian(T=1.0)), _unit(_cv(rho)))
        expect = _cv_closed_form(lambda s: 1.0, rho)
        assert rep.distance_squared == pytest.approx(expect, rel=1e-10)

    def test_weighted_cv_pair(self):
        # a weighted measure against a volatility whose sign changes at s = 5/9, a breakpoint
        rho1, rho2 = (lambda s: 1.3 + 0.2 * s), (lambda s: 0.5 - 0.9 * s)
        dens = lambda s: 1.2 + 0.3 * s  # noqa: E731
        rep = continuous_aw_unit(_unit(_cv(rho1), IntensityMeasure.from_density(dens)),
                                 _unit(_cv(rho2)))
        expect = _cv_closed_form(rho1, rho2, dens1=dens, points=[5.0 / 9.0])
        assert rep.distance_squared == pytest.approx(expect, rel=1e-10)

    def test_cantor_pairs_are_exact(self):
        bm = _unit(Brownian(T=1.0))
        for spec1, spec2 in ((bm, cantor_martingale_spec()), (cantor_martingale_spec(), bm)):
            rep = continuous_aw_unit(spec1, spec2)
            assert rep.cross_term == 0.0 and rep.optimal_correlation is not None
            assert rep.distance_squared == pytest.approx(1.0, abs=1e-12)
        assert continuous_aw_unit(cantor_martingale_spec(),
                                  cantor_martingale_spec()).distance_squared == 0.0

    # mild against forward, RL base, T = 1: int_0^1 (1 - u) (phi1^2 + phi2^2 - 2 phi1 phi2) du
    # with phi = u^(H-1/2) 1F1(1; H+1/2; a u) / Gamma(H+1/2), by mpmath at 30 digits after
    # u = v^(1/2H); at (0.15, 4) Phi_12 changes sign at x = 0.8539472946693476, where the
    # reference splits |Phi_12|
    @pytest.mark.parametrize("h,lam,expect,cross", [
        (0.3, 1.0, 0.569568982328161, 0.7546188012913826),
        (0.7, 2.0, 1.447688648759417, 0.3745322989588185),
        (0.15, 1.0, 0.7585106031525723, 1.302133936115266),
        (0.15, 4.0, 123.5854068315469, 0.7634115033991887),
    ])
    def test_rl_fou_mild_against_forward(self, h, lam, expect, cross):
        rep = continuous_aw_unit(_rl_fou(h, lam, "mild"), _rl_fou(h, lam, "forward"))
        assert rep.distance_squared == pytest.approx(expect, rel=1e-10)
        assert rep.cross_term == pytest.approx(cross, rel=1e-10)

    def test_sign_change_is_a_breakpoint(self):
        # |Phi_12| has a kink at the sign change: the rule splits there, so its pieces carry
        # more nodes than one rule and the node signs switch once
        rep = continuous_aw_unit(_rl_fou(0.15, 4.0, "mild"), _rl_fou(0.15, 4.0, "forward"),
                                 QuadratureGrid(n_s=64))
        assert rep.grid_meta["n_s"] == 128
        assert set(rep.optimal_correlation) == {-1.0, 1.0}

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.7, 0.9])
    def test_best_martingale_is_a_special_case(self, h):
        martingale = _unit(_cv(lambda r: optimal_volatility(h, r, 1.0)))
        rep = continuous_aw_unit(fbm_spec(h), martingale)
        assert rep.grid_meta["scheme"] == "cumulative"
        assert rep.distance_squared == pytest.approx(mart_approx_distance(h).distance_squared,
                                                     rel=1e-10)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.7, 0.95])
    def test_weighted_lebesgue_matches_the_self_similar_rule(self, h):
        # Lebesgue given as a density keeps the pair off the self-similar rule
        one = IntensityMeasure.from_density(np.ones_like)
        for kernel in (MolchanGolosov(T=2.0, h=h), RiemannLiouville(T=2.0, h=h)):
            rep = continuous_aw_unit(_unit(kernel, T=2.0), _unit(Brownian(T=2.0), one, T=2.0))
            ref = continuous_aw_unit(_unit(kernel, T=2.0), _unit(Brownian(T=2.0), T=2.0))
            assert rep.grid_meta["scheme"] == "cumulative"
            assert rep.distance_squared == pytest.approx(ref.distance_squared, rel=1e-10)

    def test_crosscheck_halves_the_nodes(self):
        rep = continuous_aw_unit(_rl_fou(0.3, 1.0, "mild"), _rl_fou(0.3, 1.0, "forward"),
                                 QuadratureGrid(crosscheck_rtol=1e-12))
        assert rep.grid_meta["crosscheck_rel"] <= 1e-12

    def test_equal_kernels_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = ConstantVolatility.eval
        monkeypatch.setattr(ConstantVolatility, "eval",
                            lambda k, t, s: calls.append(k) or evaluate(k, t, s))
        kernel = _cv(lambda s: 1.0 + s)
        rep = continuous_aw_unit(_unit(kernel, _POLY), _unit(kernel))
        assert len(calls) == 1 and rep.distance_squared > 0.0


class TestNonFiniteInputs:
    @pytest.mark.parametrize("pair", [
        lambda m: (_unit(Brownian(T=1.0), m), _unit(_cv(lambda s: 1.0 + s))),
        lambda m: (_unit(Brownian(T=1.0), m), _unit(CallableKernel(T=1.0))),
    ], ids=["cumulative", "core"])
    def test_nan_density_is_rejected(self, pair):
        nan_tail = IntensityMeasure.from_density(lambda s: np.where(s > 0.5, np.nan, 1.0))
        with pytest.raises(DomainError, match="nonnegative"):
            continuous_aw_unit(*pair(nan_tail))

    def test_infinite_volatility_raises(self):
        with pytest.raises(ConvergenceError, match="not finite"):
            continuous_aw_unit(_unit(_cv(lambda s: np.full_like(s, np.inf))),
                               _unit(Brownian(T=1.0)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_horizon_raises(self):
        with pytest.raises(ConvergenceError, match="overflows"):
            continuous_aw_fbm(0.3, 0.7, 1e300)
        with pytest.raises(ConvergenceError, match="overflows"):
            mart_approx_distance(0.7, 1e300)

    @pytest.mark.filterwarnings("error")
    def test_tiny_horizon_raises(self):
        # T^2.4 / 2.4 is about 1e-720 or 1e-360, below the smallest normal float: distinct
        # processes would read distance 0 (or lose the H = 0.7 trace term)
        for T in (1e-300, 1e-150):
            with pytest.raises(ConvergenceError, match="underflows"):
                continuous_aw_fbm(0.3, 0.7, T)
            with pytest.raises(ConvergenceError, match="underflows"):
                mart_approx_distance(0.7, T)

    def test_small_horizon_scales(self):
        # above the underflow both rules still scale as T^(2H+1) (self-similarity)
        T = 1e-100
        for h in (0.3, 0.7):
            scale = T ** (2.0 * h + 1.0)
            assert continuous_aw_fbm(h, h, T).trace_term == pytest.approx(
                continuous_aw_fbm(h, h).trace_term * scale, rel=1e-12)
            assert mart_approx_distance(h, T).distance_squared == pytest.approx(
                mart_approx_distance(h, 1.0).distance_squared * scale, rel=1e-12)

    def test_tiny_horizon_raises_on_the_cumulative_route(self):
        # T Phi_ii and the node weights are each about 1e-300, so both trace terms underflow:
        # two distinct processes would read distance and trace 0
        T = 1e-300
        with pytest.raises(ConvergenceError, match="underflows"):
            continuous_aw_unit(fou_spec(0.3, 2.0, T, base="rl"), _unit(Brownian(T=T), T=T))

    def test_zero_volatility_trace_term_reads_zero(self):
        # a side that is 0 on every node has a trace term of exactly 0, not an underflow
        still = _unit(_cv(lambda s: 0.0 * s))
        assert continuous_aw_unit(still, still).trace_term == 0.0
        rep = continuous_aw_unit(still, _unit(Brownian(T=1.0)))
        assert rep.trace_term == rep.distance_squared == 0.5


class TestEqualKernelsEvaluatedOnce:
    @staticmethod
    def _count(monkeypatch, cls):
        calls = []
        evaluate = cls.eval
        monkeypatch.setattr(cls, "eval", lambda k, t, s: calls.append(k) or evaluate(k, t, s))
        return calls

    def test_equal_fbm_pair(self, monkeypatch):
        calls = self._count(monkeypatch, MolchanGolosov)
        rep = core(fbm_spec(0.6), fbm_spec(0.6), QuadratureGrid(n_s=64, n_t=64))
        assert len(calls) == 1
        assert rep.distance_squared == 0.0
        calls.clear()
        core(fbm_spec(0.6), fbm_spec(0.7), QuadratureGrid(n_s=64, n_t=64))
        assert len(calls) == 2

    def test_cantor_pair(self, monkeypatch):
        calls = self._count(monkeypatch, Brownian)
        rep = continuous_aw_unit(cantor_martingale_spec(), cantor_martingale_spec())
        assert len(calls) == 1
        assert rep.distance_squared == 0.0


def _full_grid_components(kernels, t_mat, s):
    """Reference: every kernel on the whole (s, t) node grid, t-constant ones too."""
    s_mat = np.broadcast_to(s[:, None], t_mat.shape)
    return np.stack([k.eval(t_mat.ravel(), s_mat.ravel()).reshape(t_mat.shape) for k in kernels])


_CV = ConstantVolatility(T=1.0, rho=lambda s: 1.0 + 0.5 * s)
_HALF = IntensityMeasure.from_density(lambda s: 0.5 + 0 * s)
_T_CONSTANT_PAIRS = {
    "brownian-cv": lambda: (_unit(Brownian(T=1.0)), _unit(_CV)),
    "cv-fou": lambda: (_unit(_CV, IntensityMeasure.from_density(lambda s: 0.5 + 2.0 * s * s)),
                       fou_spec(0.6, 1.5)),
    "cantor-bm": lambda: (cantor_martingale_spec(), _unit(Brownian(T=1.0))),
    "cantor-cantor": lambda: (cantor_martingale_spec(), cantor_martingale_spec()),
    "cantor-cv": lambda: (cantor_martingale_spec(), _unit(_CV, IntensityMeasure.cantor())),
    "multi": lambda: tuple(GaussianProcessSpec(components=[(k1, IntensityMeasure.lebesgue()),
                                                           (k2, _HALF)], T=1.0)
                           for k1, k2 in ((MolchanGolosov(T=1.0, h=0.6), Brownian(T=1.0)),
                                          (RiemannLiouville(T=1.0, h=0.7), _CV))),
}


class TestTConstantKernelsOncePerS:
    """Brownian and ConstantVolatility kernels, k(t, s) = rho(s), are evaluated at (s, s) only."""

    @pytest.mark.parametrize("pair", _T_CONSTANT_PAIRS.values(), ids=_T_CONSTANT_PAIRS.keys())
    def test_bitwise_as_full_grid(self, pair, monkeypatch):
        spec1, spec2 = pair()
        grid = QuadratureGrid(n_s=32, n_t=48)
        rep = core(spec1, spec2, grid)
        monkeypatch.setattr(gauss_aw, "_eval_components", _full_grid_components)
        ref = core(spec1, spec2, grid)
        assert (rep.distance_squared, rep.trace_term, rep.cross_term) == (
            ref.distance_squared, ref.trace_term, ref.cross_term)
        assert (rep.optimal_correlation is None and ref.optimal_correlation is None
                or np.array_equal(rep.optimal_correlation, ref.optimal_correlation))

    @pytest.mark.parametrize("cls", [Brownian, ConstantVolatility])
    def test_eval_takes_one_point_per_s(self, cls, monkeypatch):
        sizes = []
        evaluate = cls.eval
        monkeypatch.setattr(cls, "eval",
                            lambda k, t, s: sizes.append(np.size(t)) or evaluate(k, t, s))
        for spec1, spec2 in (_T_CONSTANT_PAIRS["brownian-cv"](), _T_CONSTANT_PAIRS["cantor-cv"]()):
            rep = core(spec1, spec2, QuadratureGrid(n_s=32, n_t=48))
            assert sizes == [rep.grid_meta["n_s"]]
            sizes.clear()


class TestTransferPrinciple:
    def test_fbm_cov_matrix_is_spd(self):
        times = (np.arange(64) + 0.5) / 64
        cov = fbm_cov_matrix(0.75, times)
        cholesky_causal_factor(cov)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_fbm_cov_matrix_exactly_symmetric(self, h):
        # the formula is symmetric in IEEE arithmetic, so it is returned as it is
        rng = np.random.default_rng(7)
        for n in (2, 100, 1000):
            times = np.sort(rng.uniform(0.0, 3.0, n))
            c = fbm_cov_matrix(h, times)
            t, s = times[:, None], times[None, :]
            raw = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
            assert np.array_equal(c.entries, raw)
            assert np.array_equal(c.entries, c.entries.T)

    @pytest.mark.parametrize("n", [32, 64])
    def test_equal_laws_exactly_zero(self, n):
        assert discretized_fbm_aw(0.6, 0.6, 1.0, n).distance_squared == 0.0

    def test_matches_trace_minus_cross(self):
        # the value of the former tr(S1) + tr(S2) - 2 sum |diag| form
        rep = discretized_fbm_aw(0.3, 0.7, 1.0, 512)
        tol = 1e-12 * rep.trace_term
        assert rep.distance_squared == pytest.approx(0.11610003308613026, rel=0, abs=tol)
        assert rep.distance_squared == pytest.approx(
            rep.trace_term - 2.0 * rep.cross_term, rel=0, abs=tol)

    def test_discrete_approaches_continuous(self):
        cont = continuous_aw_fbm(0.5, 0.75, 1.0).distance_squared
        gaps = []
        for n in (64, 128, 256):
            d = discretized_fbm_aw(0.5, 0.75, 1.0, n).distance_squared
            gaps.append(abs(d - cont) / cont)
        assert all(np.diff(gaps) < 0.0)
        assert gaps[-1] < 0.02


class TestStreamedTransfer:
    """`discretized_fbm_aw` streams the Schur factor columns; dense `discrete_aw` is the oracle."""

    @pytest.mark.parametrize("h1,h2,T,n", [
        (0.3, 0.7, 1.0, 0),
        (0.3, 0.7, 1.0, 8.5),
        (0.3, 0.7, 1.0, True),
        (1.5, 0.7, 1.0, 64),
        (0.3, 0.0, 1.0, 64),
        (0.3, 0.7, 0.0, 64),
        (0.3, 0.7, -1.0, 64),
        (0.3, 0.7, float("inf"), 64),
        (0.3, 0.7, float("nan"), 64),
    ], ids=["n0", "n-float", "n-bool", "h-above-1", "h-zero", "T-zero", "T-negative",
            "T-inf", "T-nan"])
    def test_bad_input_is_domain_error(self, h1, h2, T, n):
        with pytest.raises(DomainError):
            discretized_fbm_aw(h1, h2, T, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 512, 2048])
    @pytest.mark.parametrize("h1,h2", [(0.05, 0.95), (0.3, 0.7), (0.5, 0.75), (0.6, 0.6)])
    def test_matches_dense_path(self, h1, h2, n):
        rep = discretized_fbm_aw(h1, h2, 1.0, n)
        dt = 1.0 / n
        times = (np.arange(n) + 0.5) * dt
        dense = discrete_aw(fbm_cov_matrix(h1, times), fbm_cov_matrix(h2, times))
        tol = 1e-12 * rep.trace_term
        assert rep.distance_squared == pytest.approx(dense.distance_squared * dt, rel=0, abs=tol)
        assert rep.cross_term == pytest.approx(dense.cross_term * dt, rel=0, abs=tol)
        assert rep.trace_term == dense.trace_term * dt
        assert np.array_equal(rep.optimal_correlation, dense.optimal_correlation)
        if h1 == h2:
            assert rep.distance_squared == 0.0

    @settings(max_examples=30, deadline=None)
    @given(h1=st.floats(0.05, 0.95), h2=st.floats(0.05, 0.95),
           n=st.sampled_from([B - 1, B, B + 1, 2 * B + 1]))
    def test_blocks_match_dense_path(self, h1, h2, n):
        # N on both sides of the block boundaries of the streamed distance
        rep = discretized_fbm_aw(h1, h2, 1.0, n)
        times = (np.arange(n) + 0.5) / n
        dense = discrete_aw(fbm_cov_matrix(h1, times), fbm_cov_matrix(h2, times))
        tol = 1e-12 * rep.trace_term
        assert abs(rep.distance_squared - dense.distance_squared / n) <= tol
        assert abs(rep.cross_term - dense.cross_term / n) <= tol
        assert np.array_equal(rep.optimal_correlation, dense.optimal_correlation)

    @pytest.mark.parametrize("law", [0, 1])
    def test_pivot_failing_inside_a_block(self, law):
        # a per-law tolerance between two dense pivots past the first block makes the
        # generator fail at the dense rule's index, whichever law carries it; at H = 0.1 the
        # pivots fall below the first one (the variance at dt/2), so the rule can reach them
        n, hs = 64, (0.1, 0.7) if law == 0 else (0.7, 0.1)
        times = (np.arange(n) + 0.5) / n
        pivots = np.diag(np.linalg.cholesky(fbm_cov_matrix(hs[law], times).entries)) ** 2
        k = B + 13
        assert pivots[k] < pivots[:k].min()
        tol = 0.5 * (pivots[k] + pivots[:k].min())
        dense = int(np.flatnonzero(pivots <= tol)[0])
        assert dense == k
        tols = [1e-300, 1e-300]
        tols[law] = tol
        with pytest.raises(NotPositiveDefiniteError) as err:
            for _ in gauss_aw._fbm_path_factor_blocks(hs, 1.0 / n, n, tols):
                pass
        assert err.value.pivot_index == dense

    def test_degenerate_law_raises_like_dense(self):
        h = 1.0 - 1e-8
        times = (np.arange(64) + 0.5) / 64
        with pytest.raises(NotPositiveDefiniteError) as dense:
            discrete_aw(fbm_cov_matrix(h, times), fbm_cov_matrix(0.5, times))
        for pair in ((h, 0.5), (0.5, h)):
            with pytest.raises(NotPositiveDefiniteError) as streamed:
                discretized_fbm_aw(*pair, 1.0, 64)
            # one pivot rule: both paths name the same pivot
            assert streamed.value.pivot_index == dense.value.pivot_index

    def test_memory_is_linear_in_n(self):
        tracemalloc.start()
        try:
            discretized_fbm_aw(0.3, 0.7, 1.0, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense path holds N x N matrices: over 1 GiB at this N
        assert peak < 16 * 2**20

    def test_convergence_rate_and_richardson_limit(self):
        d = [discretized_fbm_aw(0.5, 0.75, 1.0, n).distance_squared for n in (1024, 2048, 4096, 8192)]
        steps = np.diff(d)
        orders = np.log2(steps[:-1] / steps[1:])  # observed 0.723 and 0.726
        assert abs(orders[0] - orders[1]) <= 0.05
        limit = d[-1] + steps[-1] / (2.0 ** orders[-1] - 1.0)
        # an oracle linking the discrete formula to the continuous golden
        assert limit == pytest.approx(get_golden("aw2_fbm_h050_h075_T1"), rel=1e-4)


class TestTriangularIntegral:
    def test_single_cell_brownian_golden(self):
        golden = get_golden("triangular_p1_bm")
        bm = GaussianProcessSpec(
            components=[(Brownian(T=1.0), IntensityMeasure.lebesgue())], T=1.0)
        val = triangular_integral(bm, bm, 1)
        assert val == pytest.approx(golden, rel=1e-3)
        assert golden == pytest.approx(np.sqrt(1.0 / 6.0), rel=1e-6)

    def test_identical_specs_approach_trace_half(self):
        spec = fbm_spec(0.75)
        rep = continuous_aw_unit(spec, spec)
        val = triangular_integral(spec, spec, 256)
        assert val == pytest.approx(rep.trace_term / 2.0, rel=1e-2)

    def test_refinement_approaches_cross_term(self):
        rep = continuous_aw_unit(fbm_spec(0.5), fbm_spec(0.75))
        v64 = triangular_integral(fbm_spec(0.5), fbm_spec(0.75), 64)
        assert v64 == pytest.approx(rep.cross_term, rel=5e-3)

    def test_half_hurst_is_the_brownian_value(self):
        # MG(1/2) and the fOU kernel at lam = 0 on that base are the Brownian kernel,
        # 1 on 0 < s <= t: no origin singularity, so the same cells and the same sum
        bm = GaussianProcessSpec(
            components=[(Brownian(T=1.0), IntensityMeasure.lebesgue())], T=1.0)
        expect = triangular_integral(bm, bm, 32)
        assert triangular_integral(fbm_spec(0.5), bm, 32) == expect
        assert triangular_integral(fou_spec(0.5, 0.0), bm, 32) == expect

    @pytest.mark.parametrize("cells", [1, 7, 32, 64, 1024])
    @pytest.mark.parametrize("pair", ["mg-mg", "rl-bm", "callable-bm", "mg-fou"])
    def test_equals_the_per_cell_loop(self, pair, cells):
        spec1, spec2 = {
            "mg-mg": (fbm_spec(0.3), fbm_spec(0.8)),
            "rl-bm": (_unit(RiemannLiouville(h=0.35)),  # and a weighted measure
                      _unit(Brownian(), IntensityMeasure.from_density(lambda s: 1.0 + s * s))),
            "callable-bm": (_unit(CallableKernel(fn=lambda t, s: np.cos(t - 2.0 * s))),
                            _unit(Brownian())),
            "mg-fou": (fbm_spec(0.6), fou_spec(0.7, 1.3)),
        }[pair]
        value, expect = triangular_integral(spec1, spec2, cells), _triangular_per_cell(spec1, spec2,
                                                                                      cells)
        if pair == "mg-fou":
            # the fOU kernel chains the points of each s by a recursive-doubling scan, and the
            # loop's duplicate rows (the pairs sharing a t-grid) change its association
            assert value == pytest.approx(expect, rel=1e-14, abs=0.0)
        else:
            assert value == expect  # pointwise kernels: the same values in the same sums

    def test_peak_memory_is_that_of_one_chunk(self):
        # at grid 4096 each of 8 cells has q = 64 nodes: 2080 kernel rows of 256 t-nodes
        # (4.3 MB a kernel) and 4096 node pairs (8.4 MB an array).  Measured peaks: 28.7 MiB
        # in chunks, 228 MiB with all cells at once, 49 MiB for the earlier per-cell loop
        spec1, spec2 = _unit(RiemannLiouville(h=0.35)), _unit(Brownian())
        tracemalloc.start()
        try:
            triangular_integral(spec1, spec2, 8, QuadratureGrid(4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_preconditions(self):
        with pytest.raises(DomainError):
            triangular_integral(fbm_spec(0.5), fbm_spec(0.7), 0)
        bm = GaussianProcessSpec(
            components=[(Brownian(T=1.0), IntensityMeasure.lebesgue())], T=1.0)
        with pytest.raises(DomainError):
            triangular_integral(bm, cantor_martingale_spec(), 4)


def _triangular_per_cell(spec1, spec2, partition_count, grid=None):
    """Reference for ``triangular_integral``: each cell on its own, both kernels on all q^2
    node pairs (r1, r2) on the t-grid of max(r1, r2), summed cell after cell."""
    grid = grid or QuadratureGrid()
    (k1, meas1), (k2, meas2), T = spec1.components[0], spec2.components[0], spec1.T
    gamma_s, gamma_t = _pair_gammas([k1], [k2])
    q = int(np.clip(grid.n_s // partition_count, 2, 64))
    edges = np.linspace(0.0, T, partition_count + 1)
    total = 0.0
    for c in range(partition_count):
        graded = c == 0 and (k1.origin_exponent > 0 or k2.origin_exponent > 0)
        r, w = graded_midpoint(edges[c], edges[c + 1], q, gamma=gamma_s if graded else 1.0)
        r1, r2 = np.repeat(r, q), np.tile(r, q)
        t_mat, w_mat = _t_matrix(np.maximum(r1, r2), T, grid.n_t, gamma_t)
        ip = np.sum(_eval_components([k1], t_mat, r1)[0]
                    * _eval_components([k2], t_mat, r2)[0] * w_mat, axis=1)
        w1 = (meas1.density_at(r) * w)[np.repeat(np.arange(q), q)]
        w2 = (meas2.density_at(r) * w)[np.tile(np.arange(q), q)]
        total += float(np.sqrt(np.sum(ip * ip * w1 * w2)))
    return total


def _disjoint_window_kernels(edges):
    """Kernels supported on disjoint t-windows (block-diagonal inner products)."""
    out = []
    for lo, hi in edges:
        def fn(t, s, lo=lo, hi=hi):
            return np.where((t >= lo) & (t < hi), 1.0 + 0.3 * np.sin(5 * s), 0.0)
        out.append(CallableKernel(T=1.0, fn=fn))
    return out


def _unit_report_before_shared_reduction(spec1, spec2, grid):
    """Reference: the unit-multiplicity sum as written before every multiplicity
    shared one reduction (shared nodes only)."""
    (k1, meas1), (k2, meas2) = spec1.components[0], spec2.components[0]
    gamma_s, gamma_t = _pair_gammas([k1], [k2])
    s, ws, t_mat, w_mat = _nodes(meas1, spec1.T, grid, gamma_s, gamma_t)
    v1 = _eval_components([k1], t_mat, s)
    v2 = _eval_components([k2], t_mat, s)
    rho1, rho2 = _densities([meas1], s), _densities([meas2], s)
    trace = _trace_term(v1, rho1, ws, w_mat) + _trace_term(v2, rho2, ws, w_mat)
    ip = np.einsum("ist,jst,st->sij", v1, v2, w_mat)[:, 0, 0]
    geo = np.sqrt(rho1[0] * rho2[0])
    corr = np.where(ip >= 0.0, 1.0, -1.0)
    cross = float(np.sum(np.abs(ip) * geo * ws))
    diff = v1[0] * np.sqrt(rho1[0])[:, None] - (corr * np.sqrt(rho2[0]))[:, None] * v2[0]
    dist = float(np.sum(np.einsum("st,st,st->s", diff, diff, w_mat) * ws))
    return dist, trace, cross, corr


def _unit(kernel, measure=None, T=1.0):
    return GaussianProcessSpec(components=[(kernel, measure or IntensityMeasure.lebesgue())],
                               T=T)


class TestContinuousMulti:
    # homogeneous pairs (fbm, mg-rl) take the self-similar rule from the entry points, and
    # martingale pairs (cv-poly-brownian, cantor-cantor) the cumulative one, so the 2-D core is
    # checked on them directly
    @pytest.mark.parametrize("pair,entries", [
        (lambda: (fbm_spec(0.3), fbm_spec(0.8)), (core,)),
        (lambda: (fbm_spec(0.7), _unit(RiemannLiouville(T=1.0, h=0.4))), (core,)),
        (lambda: (fbm_spec(0.6), fou_spec(0.6, 1.5)), (continuous_aw_unit, continuous_aw_multi)),
        (lambda: (_unit(ConstantVolatility(T=1.0, rho=lambda s: 1.0 + 0.5 * s),
                        IntensityMeasure.from_density(lambda s: 0.5 + 2.0 * s * s)),
                  _unit(Brownian(T=1.0))), (core,)),
        (lambda: (cantor_martingale_spec(), cantor_martingale_spec()), (core,)),
    ], ids=["fbm", "mg-rl", "fbm-fou", "cv-poly-brownian", "cantor-cantor"])
    def test_unit_bitwise_as_before_shared_reduction(self, pair, entries):
        spec1, spec2 = pair()
        grid = QuadratureGrid(n_s=64, n_t=64)
        dist, trace, cross, corr = _unit_report_before_shared_reduction(spec1, spec2, grid)
        for aw in entries:
            rep = aw(spec1, spec2, grid)
            assert (rep.distance_squared, rep.trace_term, rep.cross_term) == (dist, trace, cross)
            assert np.array_equal(rep.optimal_correlation, corr)

    def test_sum_of_squares_is_trace_minus_cross(self):
        leb = IntensityMeasure.lebesgue()
        half = IntensityMeasure.from_density(lambda s: 0.5 + 0 * s)
        two = GaussianProcessSpec(
            components=[(MolchanGolosov(T=1.0, h=0.6), leb), (Brownian(T=1.0), half)], T=1.0)
        other = GaussianProcessSpec(
            components=[(RiemannLiouville(T=1.0, h=0.7), leb),
                        (ConstantVolatility(T=1.0, rho=lambda s: 1.0 + s), half)], T=1.0)
        grid = QuadratureGrid(n_s=64, n_t=64)
        for spec1, spec2 in ((two, fbm_spec(0.7)), (fbm_spec(0.7), two), (two, other)):
            rep = continuous_aw_multi(spec1, spec2, grid)
            assert rep.distance_squared == pytest.approx(
                rep.trace_term - 2.0 * rep.cross_term, rel=0, abs=1e-15 * rep.trace_term)

    def test_reduces_to_unit(self):
        pairs = [
            (fbm_spec(0.6), fbm_spec(0.8)),
            (fbm_spec(0.55), GaussianProcessSpec(
                components=[(RiemannLiouville(T=1.0, h=0.7), IntensityMeasure.lebesgue())], T=1.0)),
            (GaussianProcessSpec(
                components=[(ConstantVolatility(T=1.0, rho=lambda s: 1.0 + s), IntensityMeasure.lebesgue())], T=1.0),
             fbm_spec(0.65)),
        ]
        for s1, s2 in pairs:
            grid = QuadratureGrid(n_s=96, n_t=96)
            a = continuous_aw_unit(s1, s2, grid).distance_squared
            b = continuous_aw_multi(s1, s2, grid).distance_squared
            assert b == pytest.approx(a, abs=1e-10)

    def test_identical_two_component_zero(self):
        leb = IntensityMeasure.lebesgue()
        spec = GaussianProcessSpec(
            components=[(MolchanGolosov(T=1.0, h=0.6), leb),
                        (ConstantVolatility(T=1.0, rho=lambda s: 1.0 + 0.5 * s), leb)], T=1.0)
        rep = continuous_aw_multi(spec, spec)
        assert rep.distance_squared == pytest.approx(0.0, abs=1e-10)

    def test_block_diagonal_additivity(self):
        k1a, k1b = _disjoint_window_kernels([(0.0, 0.5), (0.5, 1.0)])
        k2a = CallableKernel(T=1.0, fn=lambda t, s: np.where(t < 0.5, 1.4 - s, 0.0))
        k2b = CallableKernel(T=1.0, fn=lambda t, s: np.where(t >= 0.5, 0.7 + s * s, 0.0))
        leb = IntensityMeasure.lebesgue()
        spec1 = GaussianProcessSpec(components=[(k1a, leb), (k1b, leb)], T=1.0)
        spec2 = GaussianProcessSpec(components=[(k2a, leb), (k2b, leb)], T=1.0)
        grid = QuadratureGrid(n_s=128, n_t=128)
        total = continuous_aw_multi(spec1, spec2, grid).distance_squared
        part1 = continuous_aw_unit(
            GaussianProcessSpec(components=[(k1a, leb)], T=1.0),
            GaussianProcessSpec(components=[(k2a, leb)], T=1.0), grid).distance_squared
        part2 = continuous_aw_unit(
            GaussianProcessSpec(components=[(k1b, leb)], T=1.0),
            GaussianProcessSpec(components=[(k2b, leb)], T=1.0), grid).distance_squared
        assert total == pytest.approx(part1 + part2, rel=5e-3)

    def test_coupling_factor_shape(self):
        leb = IntensityMeasure.lebesgue()
        spec1 = GaussianProcessSpec(
            components=[(MolchanGolosov(T=1.0, h=0.6), leb), (Brownian(T=1.0), leb)], T=1.0)
        spec2 = fbm_spec(0.7)
        grid = QuadratureGrid(n_s=64, n_t=64)
        rep = continuous_aw_multi(spec1, spec2, grid)
        assert rep.optimal_correlation.shape == (64, 2, 1)
        # each per-node factor is a partial isometry composition: |entries| <= 1
        assert np.all(np.abs(rep.optimal_correlation) <= 1.0 + 1e-12)


class TestTraceBound:
    def test_identity_case(self):
        bound, gamma = trace_bound_optimal_gamma(np.eye(2), np.eye(2), np.eye(2))
        assert bound == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(gamma, np.eye(2), atol=1e-12)

    def test_identity_weights_general_c(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=(3, 3))
        bound, gamma = trace_bound_optimal_gamma(np.eye(3), np.eye(3), c)
        assert bound == pytest.approx(np.linalg.svd(c, compute_uv=False).sum(), rel=1e-12)
        u, _, vh = np.linalg.svd(c)
        assert np.allclose(gamma, u @ vh, atol=1e-10)

    def test_attainment_and_feasibility(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m, n = rng.integers(2, 5), rng.integers(2, 5)
            a = random_spd(rng, int(m))
            b = random_spd(rng, int(n))
            c = rng.normal(size=(int(m), int(n)))
            bound, gamma = trace_bound_optimal_gamma(a, b, c)
            assert np.trace(c @ gamma.T) == pytest.approx(bound, abs=1e-9 * max(1.0, bound))
            block = np.block([[a, gamma], [gamma.T, b]])
            assert np.linalg.eigvalsh(block).min() >= -1e-9
            for g in psd_feasibility_sampler(a, b, 100, seed=3):
                assert np.trace(c @ g.T) <= bound + 1e-9

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            trace_bound_optimal_gamma(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2), np.eye(2))


class TestLevyCounterexample:
    def test_check(self):
        out = levy_noncanonical_check(QuadratureGrid(n_s=128, n_t=256))
        assert out["covariance_max_abs_err"] <= 1e-12
        assert out["naive_distance_squared"] > 0.05
        assert out["bm_self_distance_squared"] == pytest.approx(0.0, abs=1e-12)


class TestReportNodes:
    @pytest.mark.parametrize("route,T", [
        (lambda: continuous_aw_unit(fbm_spec(0.3, T=2.0), fbm_spec(0.7, T=2.0)), 2.0),
        (lambda: continuous_aw_unit(_rl_fou(0.15, 4.0, "mild"), _rl_fou(0.15, 4.0, "forward")),
         1.0),
        (lambda: continuous_aw_unit(fou_spec(0.6, 1.0, T=2.0), _unit(Brownian(T=2.0), T=2.0),
                                    QuadratureGrid(n_s=32, n_t=32)), 2.0),
        (lambda: continuous_aw_multi(*_CORE["two-components"](), QuadratureGrid(n_s=32, n_t=32)),
         1.0),
        (lambda: discretized_fbm_aw(0.3, 0.7, 2.0, 64), 2.0),
    ], ids=["self-similar", "cumulative-breakpoint", "core", "core-multiplicity-2",
            "discretized"])
    def test_one_time_per_coupling_row(self, route, T):
        rep = route()
        assert rep.nodes.shape == (len(rep.optimal_correlation),)
        assert np.all((rep.nodes > 0.0) & (rep.nodes < T))

    def test_no_times_without_a_timed_coupling(self):
        rep = discrete_aw(np.eye(3), 2.0 * np.eye(3))
        assert rep.nodes is None and DistanceReport.from_json(rep.to_json()).nodes is None
        # MG on the Cantor measure against fBM: the core's mutually singular branch
        rep = continuous_aw_unit(_unit(MolchanGolosov(T=1.0, h=0.3), IntensityMeasure.cantor()),
                                 fbm_spec(0.6), QuadratureGrid(n_s=16, n_t=16))
        assert rep.optimal_correlation is None and rep.nodes is None


class TestSerialization:
    def test_report_roundtrip(self):
        rep = continuous_aw_fbm(0.5, 0.75, 1.0, QuadratureGrid(n_s=64, n_t=64))
        again = DistanceReport.from_json(rep.to_json())
        assert again.distance_squared == rep.distance_squared
        assert again.trace_term == rep.trace_term
        assert again.cross_term == rep.cross_term
        assert np.array_equal(again.optimal_correlation, rep.optimal_correlation)
        assert again.grid_meta == rep.grid_meta
        assert np.array_equal(again.nodes, rep.nodes)
        assert DistanceReport.from_json(rep.to_json(include_correlation=False)).nodes is None

    def test_covmatrix_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        sigma = CovMatrix(random_spd(rng, 4))
        path = tmp_path / "cov.csv"
        sigma.to_csv(path)
        again = CovMatrix.from_csv(path)
        assert np.array_equal(again.entries, sigma.entries)
