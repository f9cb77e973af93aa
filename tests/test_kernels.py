from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as sp_gamma
from scipy.special import hyp1f1

from awgp.errors import ConvergenceError, DomainError, MeasureOrderingError, SingularityError
from awgp.kernels import (Brownian, CallableKernel, ConstantVolatility, FractionalOU,
                          GaussianProcessSpec,
                          IntensityMeasure, MolchanGolosov, RiemannLiouville, Tabulated,
                          _mg_const, _same_kernels, cantor_function, covariance, eval_fou_kernel,
                          eval_mg_kernel, eval_rl_kernel, load_tabulated_csv)
from awgp.fsde import _kernel_matrix
from awgp.gauss_aw import _nodes, _pair_gammas
from awgp.oracles import get_golden
from awgp.quadrature import QuadratureGrid, _graded_unit_nodes, graded_gauss
from awgp.specfun import gamma_fn, hyp2f1


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

    def test_values_bitwise_those_of_the_direct_formula(self):
        # the kernel as it was written before the offset-form helper: any change
        # of the arithmetic order would show here
        rng = np.random.default_rng(11)
        for h in np.r_[rng.uniform(0.01, 0.99, 8), 0.5]:
            s = rng.uniform(1e-6, 2.0, 3000)
            t = s + rng.uniform(0.0, 2.0, 3000) * rng.choice([0.0, 1e-12, 1.0], 3000)
            with np.errstate(divide="ignore"):
                power = (t - s) ** (h - 0.5)
            if h < 0.5:
                power[t == s] = 0.0
            expect = hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1.0 - t / s) * power * _mg_const(h)
            assert np.array_equal(eval_mg_kernel(h, t, s), expect)

        # the Riemann-Liouville and simple kernels as they were written with their own
        # support masks, on points on, off and exactly on the diagonal
        s = rng.uniform(0.0, 2.0, 3000)
        t = np.where(rng.random(3000) < 0.2, s, rng.uniform(0.0, 2.0, 3000))
        for h in (0.2, 0.5, 0.8):
            expect = np.zeros(t.shape)
            expo = h - 0.5
            off = t > s
            expect[off] = (t[off] - s[off]) ** expo / gamma_fn(h + 0.5)
            if expo == 0.0:
                expect[t == s] = 1.0
            assert np.array_equal(eval_rl_kernel(h, t, s), expect)
        rho = lambda s: 1.0 + np.sin(3.0 * s)  # noqa: E731
        fn = lambda t, s: np.exp(s - t) * np.cos(3.0 * t)  # noqa: E731
        tab = Tabulated(T=2.0, t_grid=np.array([0.0, 0.7, 2.0]), s_grid=np.array([0.0, 0.7, 2.0]),
                        values=np.array([[1.0, 0.0, 0.0], [0.5, 2.0, 0.0], [0.3, -1.0, 1.5]]))
        tc, sc = np.clip(t, 0.0, 2.0), np.clip(s, 0.0, 2.0)
        i = np.clip(np.searchsorted(tab.t_grid, tc) - 1, 0, 1)
        j = np.clip(np.searchsorted(tab.s_grid, sc) - 1, 0, 1)
        ft = (tc - tab.t_grid[i]) / (tab.t_grid[i + 1] - tab.t_grid[i])
        fs = (sc - tab.s_grid[j]) / (tab.s_grid[j + 1] - tab.s_grid[j])
        v = tab.values
        bilinear = (v[i, j] * (1 - ft) * (1 - fs) + v[i + 1, j] * ft * (1 - fs)
                    + v[i, j + 1] * (1 - ft) * fs + v[i + 1, j + 1] * ft * fs)
        for kernel, expect in [
            (Brownian(T=2.0), (s <= t).astype(float)),
            (ConstantVolatility(T=2.0, rho=rho), np.where(s <= t, rho(s), 0.0)),
            (tab, np.where(s <= t, bilinear, 0.0)),
            (CallableKernel(T=2.0, fn=fn), np.where(s <= t, fn(t, s), 0.0)),
        ]:
            assert np.array_equal(kernel.eval(t, s), expect), kernel.kind


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

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate(self, lam):
        with pytest.raises(DomainError):
            FractionalOU(T=1.0, h=0.7, lam=lam)
        with pytest.raises(DomainError):
            eval_fou_kernel(0.7, lam, 1.0, 0.5)

    @pytest.mark.parametrize("nodes", [0, -3, 2.5, 4, 10])
    def test_node_count_not_whole_panels(self, nodes):
        with pytest.raises(DomainError):
            FractionalOU(T=1.0, h=0.7, lam=1.0, n_inner=nodes)
        with pytest.raises(DomainError):
            eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=nodes)
        assert eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=8) == FractionalOU(
            T=1.0, h=0.7, lam=1.0, n_inner=np.int64(8)).eval(1.0, 0.5)


def _core_points(kernel, n_s, n_t):
    """The (t, s) node set the distance core lays out for an fBM-vs-``kernel`` pair."""
    gamma_s, gamma_t = _pair_gammas([MolchanGolosov(T=kernel.T, h=kernel.h)], [kernel])
    grid = QuadratureGrid(n_s=n_s, n_t=n_t)
    s, _, t_mat, _ = _nodes(IntensityMeasure.lebesgue(), kernel.T, grid, gamma_s, gamma_t)
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
    """The MG-base inner integral on 2 n_inner graded nodes over [s, t] at every point
    (0 < s < t)."""
    a = -kernel.lam if kernel.convention == "mild" else kernel.lam
    u, w = graded_gauss(0.0, 1.0, kernel.n_inner // 2, order=4, gamma=6.0 / (kernel.h + 0.5))
    r = s[:, None] + (t - s)[:, None] * u[None, :]
    k_inner = eval_mg_kernel(kernel.h, r.ravel(), np.repeat(s, u.size)).reshape(r.shape)
    inner = np.sum(np.exp(a * (t[:, None] - r)) * k_inner * ((t - s)[:, None] * w[None, :]),
                   axis=1)
    return eval_mg_kernel(kernel.h, t, s) + a * inner


def _rl_fou_error(h, lam, convention, t, s):
    """Error of the RL-base fOU kernel at (t, s) against mpmath (40 digits) on the same
    offsets d = t - s: k_RL(d) M(1, H + 1/2, a d).  Relative to |k|, or to the base kernel's
    size k_RL(d) where |k| is smaller: near the sign change of a mild kernel with H < 1/2
    no rule on a rounded d is relatively accurate."""
    got = eval_fou_kernel(h, lam, t, s, base="rl", convention=convention)
    a = -lam if convention == "mild" else lam
    with mpmath.workdps(40):
        base = [mpmath.mpf(x) ** (h - 0.5) / mpmath.gamma(h + 0.5) for x in t - s]
        exact = np.array([float(b * mpmath.hyp1f1(1, h + 0.5, a * mpmath.mpf(x)))
                          for b, x in zip(base, t - s)])
    return np.abs(got - exact) / np.maximum(np.abs(exact), np.array(base, dtype=float))


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
            # points alone on their s (the last cell's nodes against t = T) included
            err = np.abs(k.eval(t, s) - exact) / np.max(np.abs(exact))
            assert np.max(err) <= 1e-9

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
        """The MG base integrates each lone point on its own; the RL base, in closed form,
        meets the mpmath oracle."""
        k = FractionalOU(T=1.0, h=0.7, lam=1.3, base=base, convention=convention)
        rng = np.random.default_rng(11)
        s = rng.uniform(0.01, 0.9, 300)
        t = s + rng.uniform(1e-4, 0.5, 300)
        # the nodes covariance lays out for k(1, r) k(s, r), s < 1
        r, _, _ = _graded_unit_nodes(-2.0 * k.origin_exponent, k.diag_exponent, 64)
        for tv, sv in ((t, s), (np.ones_like(r), r)):
            if base == "mg":
                assert np.array_equal(k.eval(tv, sv), _pointwise_rule(k, tv, sv))
            else:
                assert np.max(_rl_fou_error(0.7, 1.3, convention, tv, sv)) <= 1e-12

    @pytest.mark.parametrize("h", np.round(np.arange(1, 20) * 0.05, 2))
    def test_rl_base_closed_form_meets_mpmath(self, h):
        s = np.full(24, 0.25)
        t = s + np.concatenate([np.geomspace(1e-8, 0.05, 8), np.linspace(0.1, 1.0, 16)])
        for lam in (0.5, 1.0, 5.0, 50.0):
            for convention in ("mild", "forward"):
                assert np.max(_rl_fou_error(h, lam, convention, t, s)) <= 1e-12, (lam, convention)

    def test_rl_forward_where_scipy_hyp1f1_is_off(self):
        """scipy's hyp1f1(1, 1.1, x) is up to 7e-10 off near x = 2.2375 (H = 0.6, a d)."""
        d = np.linspace(0.444, 0.452, 33)
        assert np.max(_rl_fou_error(0.6, 5.0, "forward", 0.25 + d, np.full(d.size, 0.25))) <= 1e-12

    @pytest.mark.parametrize("base", ["mg", "rl"])
    def test_overflowing_kernel_raises(self, base):
        k = FractionalOU(T=1.0, h=0.7, lam=1000.0, base=base, convention="forward")
        t_mat, s_mat = _core_points(k, 16, 16)
        with pytest.raises(ConvergenceError, match="lam = 1000"):
            k.eval(t_mat.ravel(), s_mat.ravel())

    def test_node_count_is_for_the_mg_base_only(self):
        with pytest.raises(DomainError, match="closed form"):
            FractionalOU(T=1.0, h=0.7, lam=1.0, base="rl", n_inner=128)
        with pytest.raises(DomainError, match="closed form"):
            eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=16, base="rl")
        assert FractionalOU(T=1.0, h=0.7, lam=1.0, base="rl", n_inner=64).eval(1.0, 0.5) > 0.0

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


SUPPORT_KINDS = [
    MolchanGolosov(h=0.3), MolchanGolosov(h=0.5), MolchanGolosov(h=0.8),
    RiemannLiouville(h=0.3), RiemannLiouville(h=0.5), RiemannLiouville(h=0.8),
    *(FractionalOU(h=0.3, lam=1.3, convention=c, n_inner=16) for c in ("mild", "forward")),
    *(FractionalOU(h=0.3, lam=1.3, base="rl", convention=c) for c in ("mild", "forward")),
    Brownian(),
    ConstantVolatility(rho=lambda s: 1.0 + s),
    Tabulated(t_grid=np.array([0.0, 1.0]), s_grid=np.array([0.0, 1.0]),
              values=np.array([[1.0, 0.0], [0.5, 2.0]])),
    CallableKernel(fn=lambda t, s: np.cos(t - 2.0 * s)),
]
SUPPORT_IDS = ["mg-0.3", "mg-0.5", "mg-0.8", "rl-0.3", "rl-0.5", "rl-0.8",
               "fou-mg-mild", "fou-mg-forward", "fou-rl-mild", "fou-rl-forward",
               "brownian", "constant-volatility", "tabulated", "callable"]


@pytest.mark.parametrize("kernel", SUPPORT_KINDS, ids=SUPPORT_IDS)
class TestSupportRule:
    """Every kind is 0 off 0 <= s <= t and is evaluated on the support alone."""

    def test_empty_in_empty_out(self, kernel):
        for shape in [(0,), (0, 3)]:
            out = kernel.eval(np.zeros(shape), np.zeros(shape))
            assert out.shape == shape and out.dtype == float

    def test_scalar_in_float_out(self, kernel):
        on, off = kernel.eval(0.9, 0.4), kernel.eval(0.4, 0.9)
        assert type(on) is float and type(off) is float and off == 0.0
        assert on == kernel.eval(np.array([0.9]), np.array([0.4]))[0]

    def test_broadcast_shape_and_zero_above_the_diagonal(self, kernel):
        t = np.linspace(0.05, 1.0, 7)[:, None]
        s = np.linspace(0.01, 1.0, 5)[None, :]
        out = kernel.eval(t, s)
        assert out.shape == (7, 5) and out.flags.writeable
        assert np.all(out[s > t] == 0.0)
        assert np.array_equal(out[s <= t], kernel.eval(*np.broadcast_arrays(t, s))[s <= t])

    def test_mixed_points_bitwise_those_of_the_on_support_call(self, kernel):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.01, 1.0, 400)
        s = rng.uniform(0.01, 1.0, 400)
        s[:40] = t[:40]  # the diagonal is on the support
        on = s <= t
        mixed = kernel.eval(t, s)
        assert np.all(mixed[~on] == 0.0)
        assert np.array_equal(mixed[on], kernel.eval(t[on], s[on]))
        assert mixed.flags.writeable and kernel.eval(t[on], s[on]).flags.writeable

    def test_output_is_a_fresh_array(self, kernel):
        t, s = np.full(6, 0.8), np.linspace(0.1, 0.8, 6)
        out = kernel.eval(t, s)
        out[:] = -7.0
        assert np.all(t == 0.8) and np.array_equal(s, np.linspace(0.1, 0.8, 6))
        assert not np.array_equal(kernel.eval(t, s), out)


@pytest.mark.parametrize("kernel,value", [
    (ConstantVolatility(rho=lambda s: 2.5), lambda s: 2.5),
    (CallableKernel(fn=lambda t, s: 2.5), lambda s: 2.5),
    (ConstantVolatility(rho=lambda s: s), lambda s: s),
], ids=["volatility-scalar", "callable-scalar", "volatility-identity"])
def test_user_function_result_fills_the_points(kernel, value):
    s = np.array([0.4, 0.6, 0.5])
    # mixed points (the subset call), then every point on the support (one call on all)
    for t in (np.array([[0.9, 0.2, 0.5], [0.7, 0.7, 0.1]]), np.ones((2, 3))):
        out = kernel.eval(t, s)
        assert out.shape == (2, 3) and out.flags.writeable
        assert np.array_equal(out, np.where(s <= t, value(s), 0.0))
        out[:] = 0.0  # the output never aliases the input times
        assert np.array_equal(s, [0.4, 0.6, 0.5])


class TestCovariance:
    def test_brownian_min(self):
        val = covariance(Brownian(T=1.0), IntensityMeasure.lebesgue(), 0.7, 0.4)
        assert val == pytest.approx(0.4, rel=1e-12)

    def test_mg_half_is_min(self):
        val = covariance(MolchanGolosov(T=1.0, h=0.5), IntensityMeasure.lebesgue(), 0.9, 0.3)
        assert val == pytest.approx(0.3, rel=1e-10)

    def test_mg_075_matches_fbm_closed_form(self):
        val = covariance(MolchanGolosov(T=1.0, h=0.75), IntensityMeasure.lebesgue(), 1.0, 0.5,
                         QuadratureGrid(n_t=1024))
        assert val == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("h", np.round(np.arange(1, 20) * 0.05, 2))
    def test_mg_meets_fbm_closed_form(self, h):
        # the rule takes the r^(-2|H - 1/2|) origin and (s - r)^(H - 1/2) diagonal ends exactly
        for t, s in ((1.0, 0.5), (0.7, 0.3), (0.9, 0.2), (0.3, 0.25)):
            exact = 0.5 * (t ** (2 * h) + s ** (2 * h) - (t - s) ** (2 * h))
            val = covariance(MolchanGolosov(h=h), IntensityMeasure.lebesgue(), t, s)
            assert val == pytest.approx(exact, rel=1e-9), (t, s)

    @pytest.mark.parametrize("h", np.round(np.arange(6, 20) * 0.05, 2))
    def test_variances_meet_closed_forms(self, h):
        # t = s doubles the diagonal power; below H = 0.3 rounding of t - r limits the variance
        rl_unit = 1.0 / (2 * h * sp_gamma(h + 0.5) ** 2)
        for t in (1.0, 0.7, 0.3):
            for kernel, exact in ((MolchanGolosov(h=h), 1.0), (RiemannLiouville(h=h), rl_unit)):
                val = covariance(kernel, IntensityMeasure.lebesgue(), t, t)
                assert val == pytest.approx(exact * t ** (2 * h), rel=1e-9), (kernel, t)

    def test_one_node_grid(self):
        # the rule keeps its 32-node floor: no 0/0 and no NaN node at n_t = 1
        val = covariance(Brownian(T=1.0), IntensityMeasure.lebesgue(), 1.0, 0.5,
                         QuadratureGrid(n_t=1))
        assert val == pytest.approx(0.5, rel=1e-12)

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

    @pytest.mark.parametrize("n", [1, 4, 256])
    def test_cells_carry_the_function_increments(self, n):
        s, mass = IntensityMeasure.cantor().cells(n)
        assert 8 * n <= s.size < 16 * n
        # the level-k intervals [L, L + 1] / 3^k, L with ternary digits 0 and 2, in order;
        # each end is one rounding from exact, within what cantor_function snaps
        k = int(np.log2(s.size))
        left = np.zeros(1)
        for j in range(k):
            left = np.concatenate([left, left + 2.0 * 3.0 ** j])
        assert np.max(np.abs(s - (left + 0.5) / 3.0 ** k)) <= 1e-15
        increments = cantor_function((left + 1.0) / 3.0 ** k) - cantor_function(left / 3.0 ** k)
        assert np.max(np.abs(increments - mass)) <= 1e-12
        assert np.sum(mass) == 1.0


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


class TestIntensityMeasure:
    @pytest.mark.parametrize("kwargs", [
        {},
        # read as Cantor, it would put a quarter-density Brownian spec at distance 0 from the
        # Cantor martingale
        {"density": lambda s: 0.25 * np.ones_like(s), "singular_tag": "cantor"},
        {"singular_tag": "other"},
    ], ids=["neither", "density-and-cantor", "unknown-tag"])
    def test_needs_a_density_or_the_cantor_tag(self, kwargs):
        with pytest.raises(DomainError, match="exactly one"):
            IntensityMeasure(**kwargs)


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
