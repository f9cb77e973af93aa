from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as sp_gamma
from scipy.special import hyp1f1

from awgp.errors import DomainError, MeasureOrderingError, SingularityError
from awgp.kernels import (Brownian, CallableKernel, ConstantVolatility, FractionalOU,
                          GaussianProcessSpec,
                          IntensityMeasure, MolchanGolosov, RiemannLiouville, Tabulated,
                          _same_kernels, cantor_function, covariance, eval_fou_kernel,
                          eval_mg_kernel, eval_rl_kernel, load_tabulated_csv)
from awgp.fsde import _kernel_matrix
from awgp.gauss_aw import _nodes, _pair_gammas
from awgp.oracles import get_golden
from awgp.quadrature import QuadratureGrid, graded_gauss, graded_midpoint
from awgp.specfun import gamma_fn


class TestMolchanGolosov:
    def test_degenerate_hurst_is_one(self):
        ts = np.linspace(0.02, 1.0, 60)
        ss = np.linspace(0.01, 0.99, 60)
        tt, sm = np.meshgrid(ts, ss)
        on = sm < tt
        vals = eval_mg_kernel(0.5, tt[on], sm[on])
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_causality(self):
        assert eval_mg_kernel(0.7, 0.4, 0.9) == 0.0
        assert eval_rl_kernel(0.3, 0.1, 0.2) == 0.0

    def test_singular_origin_rejected(self):
        with pytest.raises(SingularityError):
            eval_mg_kernel(0.7, 1.0, 0.0)

    def test_golden_value(self):
        golden = get_golden("mg_kernel_h070_t100_s050")
        assert eval_mg_kernel(0.7, 1.0, 0.5) == pytest.approx(golden, rel=1e-10)

    def test_nonnegative_above_half(self):
        for h in (0.6, 0.75, 0.9):
            ts = np.linspace(1e-3, 1.0, 200)
            tt, sm = np.meshgrid(ts, ts)
            vals = eval_mg_kernel(h, tt.ravel(), sm.ravel())
            assert vals.min() >= 0.0

    def test_divergent_diagonal_convention(self):
        # H < 1/2 diverges at t = s; the pointwise value is pinned to 0
        assert eval_mg_kernel(0.3, 0.5, 0.5) == 0.0


class TestTimeValidation:
    @pytest.mark.parametrize("evaluate", [
        lambda t, s: eval_mg_kernel(0.7, t, s),
        lambda t, s: eval_rl_kernel(0.3, t, s),
        lambda t, s: eval_fou_kernel(0.7, 1.0, t, s),
        lambda t, s: eval_fou_kernel(0.3, 1.0, t, s, base="rl"),
        Brownian().eval,
        ConstantVolatility().eval,
        Tabulated().eval,
        CallableKernel().eval,
    ], ids=["mg", "rl", "fou-mg", "fou-rl", "brownian", "constant-volatility", "tabulated",
            "callable"])
    @pytest.mark.parametrize("t,s", [
        ([1.0, np.nan], [0.5, 0.5]), ([1.0, 1.0], [0.5, np.nan]),
        ([1.0, np.inf], [0.5, 0.5]), ([1.0, 1.0], [0.5, -0.1]),
    ], ids=["nan-t", "nan-s", "inf-t", "negative-s"])
    def test_bad_times_rejected(self, evaluate, t, s):
        with pytest.raises(DomainError):
            evaluate(np.array(t), np.array(s))


class TestRiemannLiouville:
    def test_exponent_zero(self):
        assert eval_rl_kernel(0.5, 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal_zero_by_convention(self):
        assert eval_rl_kernel(0.75, 1.0, 1.0) == 0.0

    def test_golden_closed_form(self):
        golden = get_golden("rl_kernel_h075_t100_s050")
        val = eval_rl_kernel(0.75, 1.0, 0.5)
        assert val == pytest.approx(golden, rel=1e-12)
        assert val == pytest.approx(0.5 ** 0.25 / gamma_fn(1.25), rel=1e-13)

    def test_monotone_in_t_above_half(self):
        for h in (0.6, 0.75, 0.9):
            ts = np.linspace(1e-3, 1.0, 150)
            for s in (0.1, 0.4, 0.8):
                vals = eval_rl_kernel(h, ts[ts > s], np.full((ts > s).sum(), s))
                assert np.all(np.diff(vals) >= -1e-12)

    def test_no_origin_singularity(self):
        assert np.isfinite(eval_rl_kernel(0.75, 1.0, 0.0))


class TestFractionalOU:
    def test_lambda_zero_reduces_to_base(self):
        assert eval_fou_kernel(0.5, 0.0, 1.0, 0.4) == pytest.approx(1.0, rel=1e-14)
        assert eval_fou_kernel(0.7, 0.0, 1.0, 0.5) == pytest.approx(
            eval_mg_kernel(0.7, 1.0, 0.5), rel=1e-14)

    def test_empty_range_at_diagonal(self):
        assert eval_fou_kernel(0.5, -1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_classical_ou_mild_convention(self):
        # H = 1/2 collapses to the classical OU kernel exp(-lam (t - s))
        for lam in (0.5, 1.0, 2.0):
            for t, s in [(1.0, 0.4), (0.8, 0.1)]:
                val = eval_fou_kernel(0.5, lam, t, s, quad_nodes=128, convention="mild")
                assert val == pytest.approx(np.exp(-lam * (t - s)), rel=1e-8)

    def test_classical_ou_forward_convention(self):
        val = eval_fou_kernel(0.5, 1.0, 1.0, 0.4, quad_nodes=128, convention="forward")
        assert val == pytest.approx(np.exp(0.6), rel=1e-8)

    def test_two_resolution_golden(self):
        golden = get_golden("fou_kernel_h070_lam1_t100_s050_mild")
        coarse = eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=256, convention="mild")
        fine = eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=1024, convention="mild")
        assert abs(coarse - fine) < 1e-6
        assert fine == pytest.approx(golden, rel=1e-12)

    def test_nonnegative_above_half(self):
        k = FractionalOU(T=1.0, h=0.7, lam=1.0, convention="mild")
        ts = np.linspace(1e-3, 1.0, 80)
        tt, sm = np.meshgrid(ts, ts)
        assert k.eval(tt.ravel(), sm.ravel()).min() >= 0.0

    def test_bad_convention(self):
        with pytest.raises(DomainError):
            eval_fou_kernel(0.7, 1.0, 1.0, 0.5, convention="upwind")

    def test_bad_base(self):
        with pytest.raises(DomainError):
            eval_fou_kernel(0.7, 1.0, 1.0, 0.5, base="xyz")
        with pytest.raises(DomainError):
            FractionalOU(T=1.0, h=0.7, lam=1.0, base="xyz")


def _core_points(kernel, n_s, n_t):
    """The (t, s) node set the distance core lays out for an fBM-vs-``kernel`` pair."""
    gamma_s, gamma_t = _pair_gammas([MolchanGolosov(T=kernel.T, h=kernel.h)], [kernel])
    grid = QuadratureGrid(n_s=n_s, n_t=n_t)
    s, _, t_mat, _ = _nodes(IntensityMeasure.lebesgue(), kernel.T, grid, gamma_s, gamma_t,
                            "midpoint")
    return t_mat, np.broadcast_to(s[:, None], t_mat.shape)


def _kernel_matrix_calls(kernel, n_steps):
    """The (t, s) point sets fsde._kernel_matrix passes to ``kernel.eval``, one per call."""
    calls = []
    real = type(kernel).eval

    def record(self, t, s):
        calls.append((np.array(t), np.array(s)))
        return real(self, t, s)

    times = np.linspace(0.0, kernel.T, n_steps + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(kernel), "eval", record)
        _kernel_matrix(kernel, times, 0.5 * (times[1:] + times[:-1]))
    return calls


def _rl_fou_closed_form(h, lam, convention, t, s):
    """k_RL(t, s) + a x^(b+1) / ((b+1) Gamma(H+1/2)) 1F1(1; b+2; a x), x = t - s, b = H - 1/2."""
    a = -lam if convention == "mild" else lam
    x, b = t - s, h - 0.5
    return x ** b / sp_gamma(h + 0.5) * (1.0 + a * x / (b + 1.0) * hyp1f1(1.0, b + 2.0, a * x))


def _pointwise_rule(kernel, t, s):
    """The inner integral on n_inner graded nodes over [s, t] at every point (0 < s < t)."""
    base_eval = eval_mg_kernel if kernel.base == "mg" else eval_rl_kernel
    a = -kernel.lam if kernel.convention == "mild" else kernel.lam
    u, w = graded_gauss(0.0, 1.0, max(kernel.n_inner // 4, 2), order=4,
                        gamma=3.0 / (kernel.h + 0.5), cluster="left")
    r = s[:, None] + (t - s)[:, None] * u[None, :]
    k_inner = base_eval(kernel.h, r.ravel(), np.repeat(s, u.size)).reshape(r.shape)
    inner = np.sum(np.exp(a * (t[:, None] - r)) * k_inner * ((t - s)[:, None] * w[None, :]),
                   axis=1)
    return base_eval(kernel.h, t, s) + a * inner


class TestFouRecursion:
    """The fOU inner integral chained along each s against independent values."""

    @pytest.mark.parametrize("convention", ["mild", "forward"])
    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7])
    def test_rl_base_matches_closed_form(self, h, convention):
        k = FractionalOU(T=1.0, h=h, lam=1.0, base="rl", convention=convention)
        point_sets = [_core_points(k, 128, 128)] + _kernel_matrix_calls(k, 128)
        for t, s in point_sets:
            t, s = np.ravel(t), np.ravel(s)
            exact = _rl_fou_closed_form(h, 1.0, convention, t, s)
            err = np.abs(k.eval(t, s) - exact) / np.max(np.abs(exact))
            _, where, count = np.unique(s, return_inverse=True, return_counts=True)
            lone = count[where] == 1
            assert np.max(err[~lone]) <= 1e-9
            # a point alone on its s (the last cell's nodes against t = T)
            # keeps the n_inner-node rule, about 2e-8 off at H = 0.3
            assert np.max(err[lone], initial=0.0) <= 1e-7

    def test_rl_base_at_origin_includes_the_ou_term(self):
        k = FractionalOU(T=1.0, h=0.7, lam=1.0, base="rl")
        t = np.linspace(0.05, 1.0, 20)
        exact = _rl_fou_closed_form(0.7, 1.0, "mild", t, np.zeros_like(t))
        assert np.max(np.abs(k.eval(t, 0.0) - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize("h,convention", [(0.3, "mild"), (0.7, "forward")])
    def test_mg_base_matches_pointwise_fine_rule(self, h, convention):
        k = FractionalOU(T=1.0, h=h, lam=1.0, convention=convention)
        t_mat, s_mat = _core_points(k, 8, 128)
        vals = k.eval(t_mat.ravel(), s_mat.ravel()).reshape(t_mat.shape)
        # one column holds one point per s, so each is integrated on its own
        fine = replace(k, n_inner=1024)
        ref = np.stack([fine.eval(t_mat[:, j], s_mat[:, j]) for j in range(t_mat.shape[1])],
                       axis=1)
        assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_point_order_does_not_matter(self):
        k = FractionalOU(T=1.0, h=0.6, lam=1.0)
        t_mat, s_mat = _core_points(k, 32, 64)
        (t1, s1), (t2, s2) = _kernel_matrix_calls(k, 64)
        t = np.concatenate([t_mat.ravel(), t1, t2])
        s = np.concatenate([s_mat.ravel(), s1, s2])
        perm = np.random.default_rng(3).permutation(t.size)
        assert np.array_equal(k.eval(t[perm], s[perm]), k.eval(t, s)[perm])

    @pytest.mark.parametrize("base", ["mg", "rl"])
    @pytest.mark.parametrize("convention", ["mild", "forward"])
    def test_points_with_their_own_s_use_the_pointwise_rule(self, base, convention):
        k = FractionalOU(T=1.0, h=0.7, lam=1.3, base=base, convention=convention)
        rng = np.random.default_rng(11)
        s = rng.uniform(0.01, 0.9, 300)
        t = s + rng.uniform(1e-4, 0.5, 300)
        r, _ = graded_midpoint(0.0, 1.0, 64, gamma=2.5, cluster="both")  # as covariance lays out
        for tv, sv in ((t, s), (np.ones_like(r), r)):
            assert np.array_equal(k.eval(tv, sv), _pointwise_rule(k, tv, sv))

    def test_large_mild_rate_stays_finite(self):
        k = FractionalOU(T=1.0, h=0.7, lam=1000.0, convention="mild")
        t_mat, s_mat = _core_points(k, 64, 64)
        assert np.all(np.isfinite(k.eval(t_mat.ravel(), s_mat.ravel())))


class TestCausality:
    def test_every_kind_vanishes_above_diagonal(self):
        from awgp.kernels import CallableKernel
        kinds = [
            MolchanGolosov(T=1.0, h=0.3),
            MolchanGolosov(T=1.0, h=0.8),
            RiemannLiouville(T=1.0, h=0.7),
            FractionalOU(T=1.0, h=0.7, lam=1.0),
            Brownian(T=1.0),
            ConstantVolatility(T=1.0, rho=lambda s: 1.0 + s),
            Tabulated(T=1.0, t_grid=np.array([0.0, 1.0]), s_grid=np.array([0.0, 1.0]),
                      values=np.array([[1.0, 0.0], [1.0, 1.0]])),
            CallableKernel(T=1.0, fn=lambda t, s: np.ones_like(t)),
        ]
        ts = np.array([0.1, 0.3, 0.6])
        ss = np.array([0.4, 0.7, 0.9])  # every pair has s > t
        for k in kinds:
            assert np.all(k.eval(ts, ss) == 0.0), k.kind


class TestCovariance:
    def test_brownian_min(self):
        val = covariance(Brownian(T=1.0), IntensityMeasure.lebesgue(), 0.7, 0.4)
        assert val == pytest.approx(0.4, rel=1e-12)

    def test_mg_half_is_min(self):
        val = covariance(MolchanGolosov(T=1.0, h=0.5), IntensityMeasure.lebesgue(), 0.9, 0.3)
        assert val == pytest.approx(0.3, rel=1e-10)

    def test_mg_075_matches_fbm_closed_form(self):
        golden = get_golden("cov_mg075_t100_s050")
        val = covariance(MolchanGolosov(T=1.0, h=0.75), IntensityMeasure.lebesgue(), 1.0, 0.5,
                         QuadratureGrid(n_t=1024))
        assert val == pytest.approx(golden, rel=1e-12)
        assert val == pytest.approx(0.5, abs=1e-3)

    def test_symmetry(self):
        k = MolchanGolosov(T=1.0, h=0.7)
        leb = IntensityMeasure.lebesgue()
        a = covariance(k, leb, 0.8, 0.3)
        b = covariance(k, leb, 0.3, 0.8)
        assert a == pytest.approx(b, abs=1e-12)

    def test_singular_measure_rejected(self):
        with pytest.raises(DomainError):
            covariance(Brownian(T=1.0), IntensityMeasure.cantor(), 0.5, 0.5)

    def test_negative_density_rejected(self):
        bad = IntensityMeasure.from_density(lambda s: s - 0.5, name="signed")
        with pytest.raises(DomainError):
            bad.density_at(np.array([0.1, 0.9]))


class TestCantorFunction:
    def test_anchor_values(self):
        assert cantor_function(0.0) == 0.0
        assert cantor_function(1.0) == pytest.approx(1.0, abs=1e-12)
        assert cantor_function(1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)
        assert cantor_function(1.0 / 9.0) == pytest.approx(0.25, abs=1e-12)
        assert cantor_function(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        ts = np.linspace(0.0, 1.0, 10_001)
        assert np.all(np.diff(cantor_function(ts)) >= 0.0)

    @given(st.integers(0, 2**13).map(lambda k: k / 2**13))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, t):
        # dyadic points keep 1 - t exactly representable, so the identity is
        # tested free of input-rounding artifacts (F is only Hoelder, so an
        # ulp of input error can move the value by ~1e-10)
        assert cantor_function(t) + cantor_function(1.0 - t) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cantor_function(1.5)


class TestTabulated:
    def _write_csv(self, path, rows):
        with open(path, "w") as fh:
            fh.write("t,s,value\n")
            for r in rows:
                fh.write(",".join(str(v) for v in r) + "\n")

    def test_roundtrip(self, tmp_path):
        tg = np.linspace(0.0, 1.0, 5)
        sg = np.linspace(0.0, 1.0, 5)
        rows = [(t, s, (1.0 + t) if s <= t else 0.0) for t in tg for s in sg]
        path = tmp_path / "k.csv"
        self._write_csv(path, rows)
        k = load_tabulated_csv(path)
        assert k.eval(1.0, 0.5) == pytest.approx(2.0)
        assert k.eval(0.25, 0.75) == 0.0

    def test_rejects_nonzero_above_diagonal(self, tmp_path):
        rows = [(0.0, 0.0, 0.0), (0.0, 1.0, 0.3), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
        path = tmp_path / "bad.csv"
        self._write_csv(path, rows)
        with pytest.raises(DomainError):
            load_tabulated_csv(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        with open(path, "w") as fh:
            fh.write("x,y,z\n0,0,0\n")
        with pytest.raises(DomainError):
            load_tabulated_csv(path)


class TestSameKernels:
    def test_tabulated_by_value(self):
        grid = np.linspace(0.0, 1.0, 3)
        vals = np.tril(np.ones((3, 3)))
        a = Tabulated(t_grid=grid, s_grid=grid, values=vals)
        b = Tabulated(t_grid=grid.copy(), s_grid=grid.copy(), values=vals.copy())
        c = Tabulated(t_grid=grid, s_grid=grid, values=2.0 * vals)
        with pytest.raises(ValueError):
            a == b  # the dataclass comparison of array fields
        assert _same_kernels((a,), (b,))
        assert not _same_kernels((a,), (c,))

    def test_type_field_and_length(self):
        assert _same_kernels((MolchanGolosov(h=0.6), Brownian()),
                             (MolchanGolosov(h=0.6), Brownian()))
        assert not _same_kernels((MolchanGolosov(h=0.6),), (MolchanGolosov(h=0.7),))
        assert not _same_kernels((MolchanGolosov(h=0.6),), (RiemannLiouville(h=0.6),))
        assert not _same_kernels((Brownian(),), (Brownian(), Brownian()))


class TestProcessSpec:
    def test_multiplicity_and_horizon(self):
        leb = IntensityMeasure.lebesgue()
        spec = GaussianProcessSpec(
            components=[(MolchanGolosov(T=2.0, h=0.6), leb), (Brownian(T=2.0), leb)], T=2.0)
        assert spec.multiplicity == 2
        spec.validate_ordering()

    def test_horizon_mismatch(self):
        with pytest.raises(DomainError):
            GaussianProcessSpec(
                components=[(MolchanGolosov(T=1.0, h=0.6), IntensityMeasure.lebesgue())], T=2.0)

    def test_measure_ordering_violation(self):
        lead = IntensityMeasure.from_density(
            lambda s: np.where(s < 0.5, 0.0, 1.0), name="half")
        second = IntensityMeasure.lebesgue()
        spec = GaussianProcessSpec(
            components=[(Brownian(T=1.0), lead),
                        (ConstantVolatility(T=1.0, rho=lambda s: np.ones_like(s)), second)],
            T=1.0)
        with pytest.raises(MeasureOrderingError):
            spec.validate_ordering()

    def test_growth_bound_on_grid(self):
        # |k(t,s)| <= C s^(1/2-H) |t-s|^(H-1/2) with a finite C
        h = 0.75
        ts = np.linspace(5e-3, 1.0, 120)
        tt, sm = np.meshgrid(ts, ts)
        on = sm < tt
        vals = eval_mg_kernel(h, tt[on], sm[on])
        bound = sm[on] ** (0.5 - h) * (tt[on] - sm[on]) ** (h - 0.5)
        assert np.max(vals / bound) < 10.0
