"""Metric properties of the continuous distance over a small kernel zoo.

AW2 is a squared metric on Gaussian laws, so the quadrature value must be
nonnegative, symmetric, zero on identical inputs, homogeneous of degree 2
under X -> cX, and its square root must satisfy the triangle inequality.
Each pair grades its own nodes, so the triangle check allows every value its
quadrature accuracy: at grid 64 that is 1e-3 of the pair's trace term (the
zoo's worst pair is 8.1e-4 away from its grid-512 value).  The discrete
formula on a refining grid must also approach the continuous fBM value.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awgp.gauss_aw import (continuous_aw_fbm, continuous_aw_multi, continuous_aw_unit,
                           discretized_fbm_aw)
from awgp.kernels import (Brownian, ConstantVolatility, FractionalOU, GaussianProcessSpec,
                          IntensityMeasure, MolchanGolosov, RiemannLiouville)
from awgp.quadrature import QuadratureGrid

GRID = QuadratureGrid(n_s=64, n_t=64)
ACCURACY = 1e-3  # of the trace term, at GRID

hurst = st.floats(0.2, 0.9)


def _affine(a: float, b: float):
    return lambda s: a + b * np.asarray(s, dtype=float)


kernels = st.one_of(
    st.builds(MolchanGolosov, h=hurst),
    st.builds(RiemannLiouville, h=hurst),
    st.just(Brownian()),
    st.builds(lambda a, b: ConstantVolatility(rho=_affine(a, b)),
              st.floats(-1.0, 1.5), st.floats(-2.0, 2.0)),
    st.builds(lambda h, lam: FractionalOU(h=h, lam=lam, n_inner=16),
              st.floats(0.3, 0.9), st.floats(0.2, 2.0)),
)
densities = st.one_of(st.none(), st.tuples(st.floats(0.2, 2.0), st.floats(0.0, 2.0)))


@st.composite
def processes(draw):
    """(kernel, density coefficients or None for Lebesgue)."""
    return draw(kernels), draw(densities)


def _spec(*processes, scale: float | None = None) -> GaussianProcessSpec:
    """One component per process; every density is positive, so any order is valid.

    Unscaled, a None density is ``IntensityMeasure.lebesgue()``, on which homogeneous kernels
    take the self-similar rule; scaled, every density is built from its coefficients."""
    components = []
    for kernel, dens in processes:
        if dens is None and scale is None:
            components.append((kernel, IntensityMeasure.lebesgue()))
            continue
        c2 = 1.0 if scale is None else scale * scale
        a, b = dens if dens is not None else (1.0, 0.0)
        components.append((kernel, IntensityMeasure.from_density(_affine(c2 * a, c2 * b))))
    return GaussianProcessSpec(components=components, T=1.0)


def _aw(x, y, scale: float | None = None):
    return continuous_aw_unit(_spec(x, scale=scale), _spec(y, scale=scale), GRID)


_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@_SETTINGS
@given(processes(), processes())
def test_nonnegative(x, y):
    assert _aw(x, y).distance_squared >= 0.0


@_SETTINGS
@given(processes(), processes())
def test_symmetric(x, y):
    a, b = _aw(x, y), _aw(y, x)
    assert abs(a.distance_squared - b.distance_squared) <= 1e-12 * a.trace_term


@_SETTINGS
@given(processes())
def test_self_distance_zero(x):
    assert _aw(x, x).distance_squared == 0.0


@_SETTINGS
@given(processes(), processes(), st.floats(0.1, 10.0))
def test_homogeneous_of_degree_two(x, y, c):
    base, scaled = _aw(x, y, scale=1.0), _aw(x, y, scale=c)
    assert abs(scaled.distance_squared - c * c * base.distance_squared) \
        <= 1e-12 * c * c * base.trace_term


# higher multiplicity is summed as squares too, so its values are never negative
# and a self-distance is a sum of rounding squares, far below the trace term
@_SETTINGS
@given(processes(), processes())
@example((MolchanGolosov(h=0.7), None), (Brownian(), (0.5, 0.0)))
@example((ConstantVolatility(rho=_affine(1.0, 0.0)), None),
         (ConstantVolatility(rho=_affine(1.0, 0.0)), None))
def test_multiplicity_two_self_distance(x, y):
    rep = continuous_aw_multi(_spec(x, y), _spec(x, y), GRID)
    assert 0.0 <= rep.distance_squared <= 1e-20 * rep.trace_term


@_SETTINGS
@given(processes(), processes(), processes(), processes())
def test_multiplicity_two_nonnegative_and_symmetric(x, y, z, w):
    for spec1, spec2 in ((_spec(x, y), _spec(z)), (_spec(x, y), _spec(z, w))):
        a = continuous_aw_multi(spec1, spec2, GRID)
        b = continuous_aw_multi(spec2, spec1, GRID)
        assert a.distance_squared >= 0.0 and b.distance_squared >= 0.0
        assert abs(a.distance_squared - b.distance_squared) <= 1e-12 * a.trace_term


@settings(max_examples=20, deadline=None, derandomize=True)
@given(processes(), processes(), processes())
def test_triangle_inequality(x, y, z):
    def bounds(p, q):
        rep = _aw(p, q)
        err = ACCURACY * rep.trace_term
        return np.sqrt(max(rep.distance_squared - err, 0.0)), np.sqrt(rep.distance_squared + err)

    lo_xz, _ = bounds(x, z)
    _, hi_xy = bounds(x, y)
    _, hi_yz = bounds(y, z)
    assert lo_xz <= hi_xy + hi_yz


# martingales and convolution kernels on Lebesgue, weighted and Cantor measures: pairs the
# entry points send to the cumulative 1-D rule (or, homogeneous on Lebesgue, to the
# self-similar one), both accurate to about 1e-10 of the trace term at the default grid
ROUTED_ACCURACY = 1e-9

routed_kernels = st.one_of(
    st.just(Brownian()),
    st.builds(lambda a, b: ConstantVolatility(rho=_affine(a, b)),
              st.floats(-1.0, 1.5), st.floats(-2.0, 2.0)),
    st.builds(RiemannLiouville, h=hurst),
    st.builds(lambda h, lam, convention: FractionalOU(h=h, lam=lam, base="rl",
                                                      convention=convention),
              hurst, st.floats(0.2, 2.0), st.sampled_from(["mild", "forward"])),
)
routed_measures = st.one_of(
    st.just(IntensityMeasure.lebesgue()), st.just(IntensityMeasure.cantor()),
    st.builds(lambda a, b: IntensityMeasure.from_density(_affine(a, b)),
              st.floats(0.2, 2.0), st.floats(0.0, 2.0)))
routed = st.builds(lambda k, m: GaussianProcessSpec(components=[(k, m)], T=1.0),
                   routed_kernels, routed_measures)


@_SETTINGS
@given(routed)
def test_routed_self_distance_zero(x):
    assert continuous_aw_unit(x, x).distance_squared == 0.0


@_SETTINGS
@given(routed, routed)
def test_routed_symmetric(x, y):
    a, b = continuous_aw_unit(x, y), continuous_aw_unit(y, x)
    assert a.distance_squared >= 0.0
    assert abs(a.distance_squared - b.distance_squared) <= 1e-12 * a.trace_term


@settings(max_examples=20, deadline=None, derandomize=True)
@given(routed, routed, routed)
def test_routed_triangle_inequality(x, y, z):
    def bounds(p, q):
        rep = continuous_aw_unit(p, q)
        err = ROUTED_ACCURACY * rep.trace_term
        return np.sqrt(max(rep.distance_squared - err, 0.0)), np.sqrt(rep.distance_squared + err)

    lo_xz, _ = bounds(x, z)
    _, hi_xy = bounds(x, y)
    _, hi_yz = bounds(y, z)
    assert lo_xz <= hi_xy + hi_yz


# the discrete formula on N midpoint samples approaches the continuous fBM
# distance as N doubles; its gap may stop shrinking once it is within the
# 0.1% of the value the benchmark allows
TRANSFER_FLOOR = 1e-3


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_discrete_distance_refines_to_continuous(h1, h2):
    cont = continuous_aw_fbm(h1, h2, 1.0, QuadratureGrid(n_s=256, n_t=256))
    floor = TRANSFER_FLOOR * cont.distance_squared
    gaps = [abs(discretized_fbm_aw(h1, h2, 1.0, n).distance_squared - cont.distance_squared)
            for n in (32, 64, 128, 256)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine < coarse or fine <= floor
