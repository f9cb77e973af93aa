import math

import mpmath as mp
import numpy as np
import pytest
from awgp.errors import ConvergenceError, DomainError
from awgp.oracles import get_golden
from awgp.specfun import _Z_EDGES, gamma_fn, hyp2f1, hyp2f1_series
from hypothesis import given, settings
from hypothesis import strategies as st


class TestGamma:
    def test_integer_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-15)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_accuracy_against_stdlib(self):
        # independent oracles: CPython's libm gamma on [0.1, 50], and mpmath at
        # 40 digits on (0.01, 3], the range the kernel constants use
        xs = np.linspace(0.1, 50.0, 1500)
        ref = np.array([math.gamma(x) for x in xs])
        assert np.max(np.abs(gamma_fn(xs) - ref) / ref) < 1e-13
        xs = np.linspace(0.01, 3.0, 3000)[1:]
        with mp.workdps(40):
            ref = np.array([float(mp.gamma(mp.mpf(float(x)))) for x in xs])
        assert np.max(np.abs(gamma_fn(xs) - ref) / ref) < 1e-15

    def test_recurrence_on_grid(self):
        xs = np.linspace(0.1, 49.0, 1000)
        lhs = gamma_fn(xs + 1.0)
        rhs = xs * gamma_fn(xs)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, np.nan])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(0.3, -0.3, 0.8, 0.0) == 1.0
        assert hyp2f1(1.7, 2.2, 3.1, 0.0) == 1.0

    def test_terminating_a_zero(self):
        assert hyp2f1(0.0, 4.2, 1.0, -5.0) == 1.0

    def test_terminating_polynomial_both_routes(self):
        # a and b non-positive integers: the series stops at the lower degree
        from scipy.special import hyp2f1 as scipy_hyp2f1
        for z in [-0.5, -3.0, -1e3]:
            assert hyp2f1(-2.0, -5.0, 1.5, z) == pytest.approx(
                float(scipy_hyp2f1(-2.0, -5.0, 1.5, z)), rel=1e-13)
        assert hyp2f1_series(-5.0, -2.0, 1.5, 0.5) == pytest.approx(
            float(scipy_hyp2f1(-5.0, -2.0, 1.5, 0.5)), rel=1e-13)

    def test_log_identity(self):
        # F(1,1,2,z) = -log(1-z)/z, checked against the registered value
        golden = get_golden("hyp2f1_1_1_2_m1")
        assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(golden, rel=1e-10)
        assert golden == pytest.approx(math.log(2.0), rel=1e-14)

    def test_parameter_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(-1.5, 2.5, size=2)
            c = rng.uniform(0.4, 3.0)
            z = -rng.uniform(0.0, 50.0)
            va, vb = hyp2f1(a, b, c, z), hyp2f1(b, a, c, z)
            assert va == pytest.approx(vb, rel=1e-12, abs=1e-300)

    def test_pfaff_consistency(self):
        # transformed route vs the direct series at the mapped argument
        rng = np.random.default_rng(6)
        for _ in range(60):
            a, b = rng.uniform(-1.0, 2.0, size=2)
            c = rng.uniform(0.5, 3.0)
            z = -rng.uniform(0.0, 100.0)
            w = z / (z - 1.0)
            rhs = (1.0 - z) ** (-a) * hyp2f1_series(a, c - b, c, w)
            assert hyp2f1(a, b, c, z) == pytest.approx(rhs, rel=1e-10)

    def test_direct_series_where_it_converges(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, b = rng.uniform(-1.0, 2.0, size=2)
            c = rng.uniform(0.5, 3.0)
            z = -rng.uniform(0.0, 0.95)
            assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1_series(a, b, c, z), rel=1e-11)

    def test_scipy_crosscheck_kernel_range(self):
        from scipy.special import hyp2f1 as scipy_hyp2f1
        for h in [0.1, 0.3, 0.55, 0.75, 0.9]:
            a, b, c = h - 0.5, 0.5 - h, h + 0.5
            for z in [-1e-6, -0.5, -3.0, -50.0, -1e4]:
                ref = float(scipy_hyp2f1(a, b, c, z))
                assert hyp2f1(a, b, c, z) == pytest.approx(ref, rel=1e-11)

    def test_vectorized_matches_scalar(self):
        zs = -np.geomspace(1e-3, 1e6, 25)
        vec = hyp2f1(0.2, -0.2, 1.2, zs)
        scal = np.array([hyp2f1(0.2, -0.2, 1.2, z) for z in zs])
        assert np.array_equal(vec, scal)

    def test_mpmath_kernel_range_batch(self):
        # one batch per H through both the Pfaff (z >= -1) and the 1/z routes
        import mpmath
        zs = -np.geomspace(1e-6, 1e7, 80)
        with mpmath.workdps(30):
            for h in [0.05, 0.3, 0.45, 0.55, 0.7, 0.95]:
                a, b, c = h - 0.5, 0.5 - h, h + 0.5
                ref = np.array([float(mpmath.hyp2f1(a, b, c, z)) for z in zs])
                assert np.max(np.abs(hyp2f1(a, b, c, zs) - ref) / np.abs(ref)) <= 5e-15

    def test_batch_order_does_not_matter(self):
        # Molchan-Golosov arguments z = 1 - t/s, enough lanes for several blocks
        import mpmath
        rng = np.random.default_rng(11)
        s = rng.uniform(1e-3, 1.0, 70_000)
        zs = 1.0 - (s + (1.0 - s) * rng.uniform(0.0, 1.0, s.size)) / s
        perm = rng.permutation(zs.size)
        vals = hyp2f1(-0.2, 0.2, 0.8, zs)
        shuffled = np.empty_like(vals)
        shuffled[perm] = hyp2f1(-0.2, 0.2, 0.8, zs[perm])
        assert np.array_equal(vals, shuffled)
        with mpmath.workdps(30):
            for i in perm[:40]:
                ref = float(mpmath.hyp2f1(-0.2, 0.2, 0.8, zs[i]))
                assert abs(vals[i] - ref) <= 5e-15 * abs(ref)

    def test_mpmath_documented_sample_and_class_edges(self):
        # the README sample, plus z = -1 (the route switch) and every class edge, each +-1 ulp
        edges = np.r_[_Z_EDGES, 1.0]
        zs = -np.r_[np.geomspace(1e-6, 1e7, 400), edges, np.nextafter(edges, 0.0),
                    np.nextafter(edges, np.inf)]
        with mp.workdps(30):
            for h in [0.05, 0.3, 0.45, 0.55, 0.7, 0.95]:
                a, b, c = h - 0.5, 0.5 - h, h + 0.5
                ref = np.array([float(mp.hyp2f1(a, b, c, z)) for z in zs])
                assert np.max(np.abs(hyp2f1(a, b, c, zs) - ref) / np.abs(ref)) <= 3.5e-15

    @settings(max_examples=40, deadline=None)
    @given(h=st.floats(0.02, 0.98), data=st.data(),
           logs=st.lists(st.floats(-7.0, 8.0), min_size=1, max_size=100))
    def test_lane_is_a_function_of_its_own_z(self, h, data, logs):
        # bitwise: each lane of a batch equals a single-lane call, and a permuted batch
        # returns the permuted values; z = -1 puts the highest degree in every batch
        a, b, c = h - 0.5, 0.5 - h, h + 0.5
        zs = np.r_[-(10.0 ** np.array(logs)), -1.0, 0.0]
        vals = hyp2f1(a, b, c, zs)
        assert np.array_equal(vals, [hyp2f1(a, b, c, z) for z in zs])
        perm = np.array(data.draw(st.permutations(range(zs.size))))
        assert np.array_equal(hyp2f1(a, b, c, zs[perm]), vals[perm])

    @pytest.mark.parametrize("dh", [1e-12, 1e-9, 5e-9, -3e-9])
    def test_molchan_golosov_near_half(self, dh):
        # a - b = 2 dh lies within 1e-8 of 0, where a Pfaff series would run to max_terms as
        # z -> -inf; the 1/z coefficients stay near 1/2 there, so that route still serves
        a, b, c = dh, -dh, 1.0 + dh
        zs = -np.geomspace(1e-10, 1e12, 60)
        with mp.workdps(30):
            ref = np.array([float(mp.hyp2f1(a, b, c, z)) for z in zs])
        assert np.max(np.abs(hyp2f1(a, b, c, zs) - ref) / np.abs(ref)) <= 2e-15

    def test_generic_near_integer_keeps_pfaff(self):
        # a - b = -1e-9 with 1/z coefficients near 1e9, whose cancellation would cost
        # about 9 digits
        with mp.workdps(30):
            for z in (-3.0, -100.0):
                ref = float(mp.hyp2f1(1.0, 1.0 + 1e-9, 2.0, z))
                assert hyp2f1(1.0, 1.0 + 1e-9, 2.0, z) == pytest.approx(ref, rel=1e-14)

    def test_integer_a_minus_b_takes_pfaff_past_the_switch(self):
        # F(1, 1; 2; z) = log(1 - z) / (-z); the 1/z route is singular at integer a - b
        zs = -np.geomspace(1e-3, 250.0, 60)
        assert np.allclose(hyp2f1(1.0, 1.0, 2.0, zs), np.log1p(-zs) / -zs, rtol=1e-14, atol=0)

    def test_series_budget_exhausted_near_one(self):
        with pytest.raises(ConvergenceError):
            hyp2f1_series(0.3, 0.4, 1.2, 0.999, max_terms=50)
        with pytest.raises(ConvergenceError):
            hyp2f1_series(0.3, 0.4, 1.2, np.array([0.1, 0.999, 0.2]), max_terms=50)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(DomainError):
            hyp2f1(0.2, -0.2, 1.2, [-0.5, bad])
        with pytest.raises(DomainError):
            hyp2f1_series(0.2, -0.2, 1.2, [0.5, bad])

    def test_rejects_positive_argument(self):
        with pytest.raises(DomainError):
            hyp2f1(0.2, -0.2, 1.2, 0.5)

    def test_rejects_bad_c(self):
        with pytest.raises(DomainError):
            hyp2f1(0.2, -0.2, -1.0, -0.5)

    def test_rejects_nan_a(self):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(np.nan, 0.2, 1.2, -0.5)

    def test_rejects_minus_infinite_c(self):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(0.2, 0.3, -np.inf, -0.5)

    def test_rejects_infinite_c(self):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(0.2, 0.3, np.inf, -0.5)

    def test_series_rejects_nan_a(self):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1_series(np.nan, 0.2, 1.2, 0.5)

    def test_nonconvergence_reported(self):
        # integer a - b disables the 1/z route; a tiny term budget must fail loudly
        with pytest.raises(ConvergenceError):
            hyp2f1(0.3, 1.3, 1.7, -1e6, max_terms=50)

