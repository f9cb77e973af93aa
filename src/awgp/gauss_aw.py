"""Closed-form adapted 2-Wasserstein distances between Gaussian processes.

Discrete time: for nondegenerate N-step Gaussians with covariances S1, S2
and lower-triangular factors K1, K2,

    AW2^2 = tr(S1) + tr(S2) - 2 sum_n |(K1^T K2)_{n,n}|.

Continuous time, unit multiplicity: with canonical kernels k_i and intensity
measures mu_i,

    AW2^2 = int ||k1(., s)||^2 mu1(ds) + int ||k2(., s)||^2 mu2(ds)
            - 2 int |<k1(., s), k2(., s)>| sqrt(mu1 mu2)(ds),

where the geometric mean sqrt(mu1 mu2) vanishes on mutually singular parts.
With densities on shared nodes this equals int ||k1 sqrt(rho1) - sigma k2
sqrt(rho2)||^2 ds, sigma = sign <k1, k2>, which is how it is summed.  Kernels
homogeneous under time scaling on the Lebesgue measure (Molchan-Golosov,
Riemann-Liouville, Brownian) make the t-integral exact, leaving one 1-D integral.
Higher multiplicity replaces the absolute value by a trace norm of the
matrix of component inner products and the sign by its orthogonal Procrustes
factor U V^H (Schoenemann 1966).  A partition-based triangular integral
approximates the cross term directly and serves as a structural cross-check.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import (ConvergenceError, DomainError, NotPositiveDefiniteError, check_count,
                     check_horizon, shared_horizon)
from .kernels import (Brownian, CallableKernel, ConstantVolatility, GaussianProcessSpec,
                      IntensityMeasure, MolchanGolosov, VolterraKernel, _check_hurst,
                      _conv_profile, _same_kernels, _unit_row, _UnitRow, covariance, fbm_spec)
# graded_gauss goes unused here: the benchmark tracer binds it by name
from .quadrature import (_W16, _X16, QuadratureGrid, _graded_unit_nodes,  # noqa: F401
                         _unit_gauss, graded_gauss, graded_midpoint, grading_exponent,
                         linear_scan)

__all__ = [
    "CovMatrix",
    "TriangularFactor",
    "DistanceReport",
    "cholesky_causal_factor",
    "discrete_aw",
    "continuous_aw_unit",
    "continuous_aw_fbm",
    "continuous_aw_multi",
    "triangular_integral",
    "trace_bound_optimal_gamma",
    "levy_noncanonical_check",
    "discretized_fbm_aw",
]

_PIVOT_TOL = 1e-10
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-definite covariance matrix."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("covariance matrix must be square")
        scale = float(np.abs(a).max())  # NaN and inf propagate into the maximum
        if not math.isfinite(scale):
            raise DomainError("covariance matrix entries must be finite")
        if np.abs(a - a.T).max() > _SYM_TOL * max(1.0, scale):
            raise DomainError("covariance matrix is not symmetric")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_csv(cls, path) -> "CovMatrix":
        a = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(entries=a)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.entries:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class TriangularFactor:
    """Lower-triangular matrix with positive diagonal (discrete causal factor)."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"factor must be a square matrix, got shape {a.shape}")
        for lo in range(0, a.shape[0], 64):  # row blocks: no N x N temporary; NaN counts as nonzero
            if np.any(a[lo:lo + 64, lo + 64:]) or np.any(np.triu(a[lo:lo + 64, lo:lo + 64], k=1)):
                raise DomainError("factor must be strictly lower triangular above the diagonal")
        if not np.all(np.diag(a) > 0.0):
            raise DomainError("factor diagonal must be positive")
        object.__setattr__(self, "entries", a)


@dataclass
class DistanceReport:
    """Distance value with its trace/cross decomposition and grid metadata.

    ``optimal_correlation`` is a per-step/per-node sign array in the unit
    multiplicity and discrete cases, or a stack of per-node coupling factor
    matrices U V^H, shape (n_s, m, n), in the higher-multiplicity case.
    ``nodes`` holds the time of each of its entries; None in :func:`discrete_aw`,
    whose steps carry no times, and where no coupling is given.
    ``distance_squared`` is never negative: it is a sum of squares, or, from the
    self-similar rule, trace - 2 cross with a miss of 0 by rounding read as 0.
    """

    distance_squared: float
    trace_term: float
    cross_term: float
    optimal_correlation: np.ndarray | None = None
    grid_meta: dict = field(default_factory=dict)
    nodes: np.ndarray | None = None

    def to_dict(self, include_correlation: bool = True) -> dict:
        d = {
            "distance_squared": self.distance_squared,
            "trace_term": self.trace_term,
            "cross_term": self.cross_term,
            "grid_meta": self.grid_meta,
        }
        if include_correlation:
            for key in ("optimal_correlation", "nodes"):
                if getattr(self, key) is not None:
                    d[key] = np.asarray(getattr(self, key)).tolist()
        return d

    def to_json(self, include_correlation: bool = True) -> str:
        return json.dumps(self.to_dict(include_correlation=include_correlation), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "DistanceReport":
        corr, nodes = (d.get(key) for key in ("optimal_correlation", "nodes"))
        return cls(
            distance_squared=float(d["distance_squared"]),
            trace_term=float(d["trace_term"]),
            cross_term=float(d["cross_term"]),
            optimal_correlation=None if corr is None else np.asarray(corr, dtype=float),
            grid_meta=dict(d.get("grid_meta", {})),
            nodes=None if nodes is None else np.asarray(nodes, dtype=float),
        )

    @classmethod
    def from_json(cls, text: str) -> "DistanceReport":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# discrete time
# ---------------------------------------------------------------------------

def cholesky_causal_factor(sigma: CovMatrix | np.ndarray) -> TriangularFactor:
    """Cholesky factor K with K K^T = sigma, positive diagonal.

    Raises NotPositiveDefiniteError naming the first pivot at or below 1e-10
    times the largest diagonal entry, or that LAPACK could not take, as
    :func:`discretized_fbm_aw` does; degenerate inputs are not regularized.
    """
    a = sigma.entries if isinstance(sigma, CovMatrix) else CovMatrix(np.asarray(sigma)).entries
    low, info = dpotrf(a, lower=1, clean=1)
    pivots = np.diag(low) ** 2
    if info > 0:
        # LAPACK could not take pivot info (1-based) and took none after it
        pivots[info - 1:] = -np.inf
    failing = np.flatnonzero(pivots <= _PIVOT_TOL * float(np.diag(a).max()))
    if failing.size:
        raise NotPositiveDefiniteError(int(failing[0]))
    return TriangularFactor(entries=low)


def discrete_aw(sigma1: CovMatrix | np.ndarray, sigma2: CovMatrix | np.ndarray) -> DistanceReport:
    """Adapted 2-Wasserstein distance (squared) between N(0, S1) and N(0, S2)."""
    s1 = sigma1 if isinstance(sigma1, CovMatrix) else CovMatrix(np.asarray(sigma1))
    s2 = sigma2 if isinstance(sigma2, CovMatrix) else CovMatrix(np.asarray(sigma2))
    if s1.dim != s2.dim:
        raise DomainError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    k1 = cholesky_causal_factor(s1).entries
    k2 = cholesky_causal_factor(s2).entries
    diag = np.einsum("ij,ij->j", k1, k2)  # (K1^T K2)_{n,n}
    trace = float(np.trace(s1.entries) + np.trace(s2.entries))
    cross = float(np.sum(np.abs(diag)))
    corr = np.where(diag >= 0.0, 1.0, -1.0)  # tie (exact 0) resolved to +1
    # sum_n ||K1[:, n] - corr_n K2[:, n]||^2 in place on the two fresh factors,
    # so equal laws give exactly 0 and no value is negative
    k2 *= corr
    k1 -= k2
    return DistanceReport(
        distance_squared=float(np.einsum("ij,ij->", k1, k1)),
        trace_term=trace,
        cross_term=cross,
        optimal_correlation=corr,
        grid_meta={"n_steps": s1.dim, "scheme": "cholesky"},
    )


# ---------------------------------------------------------------------------
# continuous time: shared node machinery
# ---------------------------------------------------------------------------

def _pair_gammas(kernels1: Sequence[VolterraKernel], kernels2: Sequence[VolterraKernel]
                 ) -> tuple[float, float]:
    """Grading exponents for the shared s-grid and per-s t-grids."""
    all_k = list(kernels1) + list(kernels2)
    h_min = min(k.grading_hurst for k in all_k)
    alpha_s = 2.0 * max(k.origin_exponent for k in all_k)
    d1 = min(k.diag_exponent for k in kernels1)
    d2 = min(k.diag_exponent for k in kernels2)
    alpha_t = max(0.0, -2.0 * min(d1, d2))
    return grading_exponent(alpha_s, h_min), grading_exponent(alpha_t, h_min)


def _t_matrix(s: np.ndarray, T: float, n_t: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-s-node t-quadrature on [s, T], graded toward t = s; shapes (n_s, n_t)."""
    u, w = graded_midpoint(0.0, 1.0, n_t, gamma=gamma)
    span = (T - s)[:, None]
    return s[:, None] + span * u[None, :], span * w[None, :]


def _eval_components(kernels: Sequence[VolterraKernel], t_mat: np.ndarray, s: np.ndarray
                     ) -> np.ndarray:
    s_mat = np.broadcast_to(s[:, None], t_mat.shape)
    out = np.empty((len(kernels),) + t_mat.shape)
    for i, k in enumerate(kernels):
        if type(k) in (Brownian, ConstantVolatility):  # k(t, s) = rho(s): once per s, t >= s
            out[i] = k.eval(s, s)[:, None]
        else:
            out[i] = k.eval(t_mat.ravel(), s_mat.ravel()).reshape(t_mat.shape)
    return out


def _nodes(measure: IntensityMeasure, T: float, grid: QuadratureGrid, gamma_s: float,
           gamma_t: float) -> tuple[np.ndarray, ...]:
    """Node set (s, ws, t_mat, w_mat) for the s-integral against ``measure``.

    An absolutely continuous measure gets ``n_s`` graded midpoint s-nodes with
    Lebesgue weights (its density enters separately); a singular one the
    Stieltjes sum over its own cells (:meth:`IntensityMeasure.cells`).
    """
    if measure.is_singular:
        s, ws = _cells(measure, T, grid.n_s)
    else:
        s, ws = graded_midpoint(0.0, T, grid.n_s, gamma=gamma_s)
    t_mat, w_mat = _t_matrix(s, T, grid.n_t, gamma_t)
    return s, ws, t_mat, w_mat


def _cells(measure: IntensityMeasure, T: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A singular measure's cells for a rule of ``n`` nodes, all inside [0, T)."""
    s, ws = measure.cells(n)
    if s[-1] >= T:
        raise DomainError(f"measure '{measure.name}' charges times beyond the horizon {T}")
    return s, ws


def _densities(measures: Sequence[IntensityMeasure], s: np.ndarray) -> np.ndarray:
    """Component densities relative to the node weights; shape (m, n_s)."""
    if measures[0].is_singular:
        return np.ones((1, s.size))
    return np.stack([meas.density_at(s) for meas in measures])


def _trace_term(vals: np.ndarray, rho: np.ndarray, ws: np.ndarray, w_mat: np.ndarray) -> float:
    return float(np.sum(np.einsum("ist,ist,st->is", vals, vals, w_mat) * rho * ws))


def _distance_core(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                   grid: QuadratureGrid) -> DistanceReport:
    """One quadrature pass that evaluates each kernel once per node set, and equal kernel
    lists (as in AW(X, X)) once in all.

    Each node scales the components by their root densities (V1, V2), takes the
    coupling factor C of M = V1 W V2^T (sign M at unit multiplicity, U V^H of the
    thin SVD otherwise) and adds ||V_more - C V_fewer||_W^2: no cancellation, and
    exactly 0 for identical unit-multiplicity inputs.
    """
    T = shared_horizon(spec1.T, spec2.T, "process specs")
    spec1.validate_ordering()
    spec2.validate_ordering()
    kernels1, measures1 = zip(*spec1.components)
    kernels2, measures2 = zip(*spec2.components)
    m, n = len(kernels1), len(kernels2)
    singular1, singular2 = measures1[0].is_singular, measures2[0].is_singular
    if (singular1 or singular2) and (m > 1 or n > 1):
        raise DomainError("singular measures are supported at unit multiplicity only")

    gamma_s, gamma_t = _pair_gammas(kernels1, kernels2)
    meta = grid.meta()
    meta.update({"scheme": "midpoint", "gamma_s": gamma_s, "gamma_t": gamma_t,
                 "multiplicity": [m, n]})

    if singular1 != singular2:
        # mutually singular: the geometric mean vanishes, any coupling is optimal
        trace = 0.0
        for kernels, measures in ((kernels1, measures1), (kernels2, measures2)):
            s, ws, t_mat, w_mat = _nodes(measures[0], T, grid, gamma_s, gamma_t)
            trace += _trace_term(_eval_components(kernels, t_mat, s),
                                 _densities(measures, s), ws, w_mat)
        return DistanceReport(distance_squared=trace, trace_term=trace, cross_term=0.0,
                              grid_meta=meta)

    # shared nodes; for a singular pair (both Cantor) the geometric mean is the measure itself
    s, ws, t_mat, w_mat = _nodes(measures1[0], T, grid, gamma_s, gamma_t)
    meta["n_s"] = s.size  # a singular measure's own cells, not the requested n_s
    v1 = _eval_components(kernels1, t_mat, s)
    v2 = v1 if _same_kernels(kernels1, kernels2) else _eval_components(kernels2, t_mat, s)
    rho1, rho2 = _densities(measures1, s), _densities(measures2, s)
    trace = _trace_term(v1, rho1, ws, w_mat) + _trace_term(v2, rho2, ws, w_mat)
    prod = (np.einsum("ist,jst,st->sij", v1, v2, w_mat)  # M, shape (n_s, m, n)
            * np.sqrt(rho1.T[:, :, None] * rho2.T[:, None, :]))
    if m == n == 1:
        coupling = np.where(prod >= 0.0, 1.0, -1.0)  # tie (exact 0) resolved to +1
        sing = np.abs(prod[:, 0])
    else:
        u_svd, sing, vh_svd = np.linalg.svd(prod, full_matrices=False)
        coupling = np.matmul(u_svd, vh_svd)
    cross = float(np.sum(np.sum(sing, axis=1) * ws))
    # C is an isometry on the side with fewer components, so this sums trace - 2 cross
    if m >= n:
        diff = v1 * np.sqrt(rho1)[:, :, None]
        diff -= np.einsum("sij,jst,js->ist", coupling, v2, np.sqrt(rho2))
    else:
        diff = v2 * np.sqrt(rho2)[:, :, None]
        diff -= np.einsum("sij,ist,is->jst", coupling, v1, np.sqrt(rho1))
    dist = float(np.sum(np.einsum("ist,ist,st->s", diff, diff, w_mat) * ws))
    return DistanceReport(distance_squared=dist, trace_term=trace, cross_term=cross,
                          optimal_correlation=coupling[:, 0, 0] if m == n == 1 else coupling,
                          grid_meta=meta, nodes=s)


def _finite(rule, grid: QuadratureGrid):
    """``rule(grid)``; a Python float that overflows, or a distance, trace or cross term that is
    not finite, raises ConvergenceError, and numpy does not warn on the way."""
    with np.errstate(all="ignore"):
        try:
            report = rule(grid)
        except OverflowError:
            report = None
    if report is None or not all(map(math.isfinite, (report.distance_squared, report.trace_term,
                                                     getattr(report, "cross_term", 0.0)))):
        raise ConvergenceError("the distance overflows the float range or is not finite")
    return report


def _run_with_crosscheck(rule, grid: QuadratureGrid):
    """``rule(grid)``'s result (a report with ``distance_squared``, ``trace_term`` and
    ``grid_meta``), checked by :func:`_finite`; with ``grid.crosscheck_rtol`` set, its distance
    is checked against the same rule at half ``n_s`` and ``n_t`` (at least 4 each), a quarter
    of the cost."""
    report = _finite(rule, grid)
    rtol = grid.crosscheck_rtol
    if rtol is not None:
        alt = _finite(rule, QuadratureGrid(n_s=max(grid.n_s // 2, 4), n_t=max(grid.n_t // 2, 4)))
        scale = max(abs(report.distance_squared), abs(report.trace_term), 1e-30)
        rel = abs(alt.distance_squared - report.distance_squared) / scale
        if rel > rtol:
            raise ConvergenceError(
                f"half-grid quadrature gap {rel:.3e} exceeds tolerance {rtol:.3e}")
        report.grid_meta["crosscheck_rel"] = rel
    return report


def continuous_aw_unit(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                       grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance, unit multiplicity canonical specs."""
    if spec1.multiplicity != 1 or spec2.multiplicity != 1:
        raise DomainError("continuous_aw_unit requires unit multiplicity")
    return continuous_aw_multi(spec1, spec2, grid)


def continuous_aw_multi(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                        grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance for finite multiplicities.

    At each node the matrix of scaled component inner products is reduced by
    singular value decomposition; its trace norm enters the cross term and
    U V^H is the per-node optimal coupling factor C of the sum of squares
    ||V_more - C V_fewer||^2.  A unit pair gives :func:`continuous_aw_unit`'s report.
    Two single-component specs on the Lebesgue measure whose kernels are Molchan-Golosov,
    Riemann-Liouville or Brownian take :func:`_self_similar`'s 1-D rule instead; other unit
    pairs whose t-integrals are 1-D take :func:`_cumulative`'s (see :func:`_cumulative_side`).
    """
    grid = grid or QuadratureGrid()
    row1, row2 = _lebesgue_row(spec1), _lebesgue_row(spec2)
    if row1 is not None and row2 is not None:
        return _self_similar(row1, row2, shared_horizon(spec1.T, spec2.T, "process specs"), grid)
    sides = _cumulative_side(spec1), _cumulative_side(spec2)
    if None not in sides:
        (_, f1), (_, f2) = sides
        # an MG row only against a martingale
        if f1 is None or f2 is None or not (isinstance(f1, _UnitRow) or isinstance(f2, _UnitRow)):
            T = shared_horizon(spec1.T, spec2.T, "process specs")
            return _run_with_crosscheck(lambda g: _cumulative(spec1, spec2, sides, T, g), grid)
    return _run_with_crosscheck(lambda g: _distance_core(spec1, spec2, g), grid)


def _lebesgue_row(spec: GaussianProcessSpec) -> _UnitRow | None:
    """The unit row of a one-component spec's kernel on the Lebesgue measure, else None."""
    if spec.multiplicity != 1:
        return None
    kernel, measure = spec.components[0]
    return _unit_row(kernel) if measure.is_lebesgue else None


_GAUSS6 = _unit_gauss(6)
_END_NODES = 32  # end rule of the cumulative integrals, whose nodes reach within 1e-8 of the end


def _tail_integrals(row: _UnitRow, a: float, y: np.ndarray, d: np.ndarray, n_end: int,
                    gauss: tuple[np.ndarray, np.ndarray] = (_X16, _W16)) -> np.ndarray:
    """F(y) = y^a int_y^1 x^(-a-1) g(x) dx, g = ``row.at`` (rows stacked on leading axes allowed),
    at nodes y in (0, 1) with offsets d = 1 - y: the cumulative 1-D rule.

    The node values and 1/2 cut [min y, 1] into panels of ``gauss`` nodes (16 by default) in
    log x below 1/2 and log(1 - x) above; a panel whose half-width passes its distance to that
    coordinate's singular point 0 (x = 1, or x = 0) is cut evenly, which only sparse nodes near
    1/2 need.  Below 1/2 the integrand is about e^(-mu v), v = log(x/x_j), mu = a + p0 (g ~ x^-p0):
    a panel across which that falls past e^-30 (H near 1) takes Gauss nodes in e^(-mu v) instead,
    where it is flat.  [max(y, 1/2), 1] takes the graded unit rule of ``n_end`` nodes with the end
    power d^(h-1/2), h = ``row.h``, built on the offsets.  Each panel is scaled by its left end
    x_j: F_j = Q_j + (x_j/x_(j+1))^a F_(j+1), summed by :func:`~awgp.quadrature.linear_scan` on
    reversed views, so no partial sum overflows where the integral would (H near 1, y below
    1e-150).
    """
    xg, wg = gauss
    order = np.lexsort((-d, y))
    bx, bd = y[order], d[order]
    cut = np.searchsorted(bx, 0.5)
    if bx[0] < 0.5:
        bx, bd = np.insert(bx, cut, 0.5), np.insert(bd, cut, 0.5)
    right = bx >= 0.5
    coord = np.where(right, np.log(bd), np.log(bx))  # the two meet at 1/2
    width = np.diff(coord)
    k = np.ceil(np.abs(width) / (-2.0 * np.maximum(coord[:-1], coord[1:]))).astype(int)
    k = np.maximum(k, 1)
    pid = np.repeat(np.arange(k.size), k)
    step = (width / k)[pid]
    sub = np.arange(pid.size) - np.repeat(np.cumsum(k) - k, k)
    mu = a + row.p0
    off = step[:, None] * xg
    steep = ~right[pid] & (mu * step > 30.0)
    fall = -np.expm1(-mu * step[steep, None])
    off[steep] = -np.log1p(-fall * xg) / mu
    e = np.exp((coord[pid] + step * sub)[:, None] + off)
    on_right = right[pid][:, None]
    x, xd = np.where(on_right, 1.0 - e, e), np.where(on_right, e, 1.0 - e)
    _, d_end, w_end = _graded_unit_nodes(0.0, row.h - 0.5, n_end)
    xe, de = 1.0 - bd[-1] * d_end, bd[-1] * d_end
    g = row.at(np.concatenate([x.ravel(), xe]), np.concatenate([xd.ravel(), de]))
    # x^-(a+1) dx is x^-a du below 1/2 and x^-(a+1) (1 - x) dv above
    panel = ((bx[pid, None] / x) ** a * g[..., :x.size].reshape(g.shape[:-1] + x.shape)
             * np.where(on_right, xd / x, 1.0))
    panel[..., steep, :] *= np.exp(mu * off[steep]) * fall / (mu * step[steep, None])
    end = bx[-1] ** a * bd[-1] * ((xe ** -(a + 1.0) * g[..., x.size:]) @ w_end)
    q = np.concatenate([np.add.reduceat(panel @ wg * np.abs(step), np.cumsum(k) - k, axis=-1),
                        end[..., None]], axis=-1)
    f = linear_scan(q[..., ::-1], np.append((bx[:-1] / bx[1:]) ** a, 0.0)[::-1])[..., ::-1]
    if bx.size > y.size:
        f = np.delete(f, cut, axis=-1)
    out = np.empty_like(f)
    out[..., order] = f
    return out


def _cumulative_side(spec: GaussianProcessSpec) -> tuple | None:
    """(h, f) for a one-component spec whose kernel is k(t, s) = v(s) phi(t - s): f is None for
    a martingale (Brownian or ConstantVolatility: phi = 1, h = 1/2), the profile phi of a
    convolution kernel (:func:`~awgp.kernels._conv_profile`, v = 1), or the unit row of a
    Molchan-Golosov kernel on the Lebesgue measure; None for any other spec."""
    if spec.multiplicity != 1:
        return None
    kernel, measure = spec.components[0]
    if type(kernel) in (Brownian, ConstantVolatility):
        return 0.5, None
    if type(kernel) is MolchanGolosov:
        return (float(kernel.h), _unit_row(kernel)) if measure.is_lebesgue else None
    phi = _conv_profile(kernel)
    return None if phi is None else (float(kernel.h), phi)


def _profile_integrals(pairs: list, beta: float, T: float, y: np.ndarray, d: np.ndarray
                       ) -> np.ndarray:
    """Phi_ij(T d) = T int_0^d phi_i(T w) phi_j(T w) dw at unit offsets d = 1 - y, one row per
    pair of profiles (None for phi = 1), with phi_i phi_j ~ w^beta at w -> 0: T d itself for two
    martingales, else one pass of :func:`_tail_integrals` in x = 1 - w with a = 0 (so g =
    x phi_i phi_j) on 6-node panels, each profile evaluated once."""
    phi = np.tile(T * d, (len(pairs), 1))
    live = [pq != (None, None) for pq in pairs]
    if any(live):
        def at(x, xd):
            vals = {p: np.ones(x.shape) if p is None else p(T * xd)
                    for p in dict.fromkeys(sum(pairs, ()))}
            return x * np.stack([vals[p] * vals[q] for (p, q), on in zip(pairs, live) if on])
        # h = beta + 1/2 gives the end power w^beta, and g ~ x at x -> 0 (p0 = -1)
        phi[live] = T * _tail_integrals(_UnitRow(beta + 0.5, -1.0, 0.0, at), 0.0, y, d,
                                        _END_NODES, _GAUSS6)
    return phi


def _self_similar_cross(r1: _UnitRow, r2: _UnitRow, rule: tuple) -> float:
    """c12 = int_0^1 k1(1, s) k2(1, s) ds on ``rule`` = (s, d, w) of :func:`_graded_unit_nodes`
    with the product's end powers: s^-(p0_1 + p0_2) and d^(h1 + h2 - 1)."""
    s, d, w = rule
    return float(w @ (r1.at(s, d) * r2.at(s, d)))


def _clamped_at_zero(dist: float, trace: float) -> float:
    """A squared distance computed as a difference: a value within 4 eps of ``trace`` below 0
    is rounding and reads 0; one further below raises ConvergenceError."""
    if dist < 0.0:
        if dist < -4.0 * np.finfo(float).eps * trace:
            raise ConvergenceError(f"distance {dist:.3e} is below 0 by more than rounding of "
                                   f"the trace term {trace:.3e}")
        dist = 0.0
    return dist


def _normal_trace(*terms: float) -> float:
    """Sum of positive trace terms; one below the smallest normal float raises ConvergenceError."""
    if min(terms) < np.finfo(float).tiny:  # T^(2H+1) underflows as T -> 0
        raise ConvergenceError(f"a trace term {min(terms):.3e} underflows the float range")
    return sum(terms)


def _self_similar(r1: _UnitRow, r2: _UnitRow, T: float, grid: QuadratureGrid) -> DistanceReport:
    """Distance between two homogeneous kernels on the Lebesgue measure, k(ct, cs) =
    c^(H-1/2) k(t, s).  Such kernels are positive (optimal sign +1) and the t-integral is
    exact: AW2 = a1 c11 + a2 c22 - 2 f12 c12, ai = T^(2Hi+1)/(2Hi+1),
    f12 = T^(H1+H2+1)/(H1+H2+1), cij = int_0^1 ki(1, s) kj(1, s) ds.  The cii are exact, and
    so is c12 = c11 for equal rows (AW2 exactly 0); otherwise c12 is
    :func:`_self_similar_cross`'s rule of ``grid.n_s`` nodes (a multiple of 16, at least 32).
    ``n_t`` does not apply (None in ``grid_meta``); ``crosscheck_rtol`` compares with the
    rule of half the nodes.  A difference within 4 eps of the trace term below 0 is rounding
    and reads 0; one further below raises ConvergenceError.
    """
    # (h, p0, sq) fix a row: equal triples are one kernel (MG, RL and Brownian meet at H = 1/2)
    same = r1[:3] == r2[:3]

    def report(g: QuadratureGrid) -> DistanceReport:
        # an overflow of these powers raises in _run_with_crosscheck
        a1, a2, f12 = (T ** (e + 1.0) / (e + 1.0) for e in (2.0 * r1.h, 2.0 * r2.h, r1.h + r2.h))
        trace = _normal_trace(a1 * r1.sq, a2 * r2.sq)
        s, d, w = _graded_unit_nodes(-(r1.p0 + r2.p0), r1.h + r2.h - 1.0, g.n_s)
        cross = f12 * (r1.sq if same else _self_similar_cross(r1, r2, (s, d, w)))
        return DistanceReport(distance_squared=_clamped_at_zero(trace - 2.0 * cross, trace),
                              trace_term=trace, cross_term=cross,
                              optimal_correlation=np.ones(s.size), nodes=T * s,
                              grid_meta={"n_s": s.size, "n_t": None, "scheme": "self_similar",
                                         "h1": r1.h, "h2": r2.h, "T": T})
    return _run_with_crosscheck(report, grid)


def _cumulative(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec, sides: tuple, T: float,
                grid: QuadratureGrid) -> DistanceReport:
    """Distance between two kernels k(t, s) = v(s) phi(t - s) (``sides`` from
    :func:`_cumulative_side`), whose t-integrals are 1-D: int_s^T ki kj dt = vi vj Phi_ij(T - s)
    (:func:`_profile_integrals`), and against a Molchan-Golosov kernel on the Lebesgue measure
    v F, F(s) = int_s^T k(t, s) dt = T^(H+1/2) y^(H+1/2) G(y), y = s/T (:func:`_tail_integrals`),
    with the MG trace exact, T^(2H+1)/(2H+1).

    The s-integral takes a singular measure's own cells, else the graded unit rule of
    ``grid.n_s`` nodes (a multiple of 16, at least 32; end powers s^-2p0 and (T - s)^(2 min H))
    on each piece between breakpoints: a sign change of the cross integrand is a kink, located
    by two passes of linear interpolation on the pieces it cuts.  Mutually singular measures
    take both node sets, each density 0 on the other's.  With a = v1 sqrt(rho1), b = v2
    sqrt(rho2) and c = |Phi_12| each node adds c (|a| - |b|)^2 + (Phi_11 - c) a^2 +
    (Phi_22 - c) b^2, a sum of squares for two martingales (every Phi_ij = T - s) and exactly 0
    for equal specs; an MG pair gives trace - 2 cross.  A value within 4 eps of the trace
    below 0 reads 0.  A trace that underflows raises ConvergenceError unless the specs are
    equal or both 0 on every node, where it is exactly 0 apart.
    """
    (k1, m1), (k2, m2) = spec1.components[0], spec2.components[0]
    (h1, f1), (h2, f2) = sides
    row = next((f for _, f in sides if isinstance(f, _UnitRow)), None)
    same = _same_kernels([k1], [k2])
    beta = 2.0 * min(h1, h2) - 1.0  # phi_i phi_j ~ (T - s)^beta at s -> T

    def nodes(measure, edges):  # unit nodes y = s/T, offsets d = 1 - y, weights, densities
        if measure.is_singular:
            s, w = _cells(measure, T, grid.n_s)
            return s / T, (T - s) / T, w, np.ones(s.size)
        y, d, w = (np.concatenate(parts) for parts in zip(*(
            (lo + (hi - lo) * u, 1.0 - hi + (hi - lo) * du, T * (hi - lo) * wu)
            for lo, hi in zip(edges[:-1], edges[1:])
            for u, du, wu in [_graded_unit_nodes(-2.0 * row.p0 if row and lo == 0.0 else 0.0,
                                                 beta + 1.0 if hi == 1.0 else 0.0,
                                                 grid.n_s)])))
        return y, d, w, measure.density_at(T * y)

    edges = [0.0, 1.0]
    for rebuild in range(3):
        y, d, w, rho1 = nodes(m1, edges)
        if m1.is_singular == m2.is_singular:
            rho2 = _densities([m2], T * y)[0]
        else:
            y2, d2, w2, rho2 = nodes(m2, edges)
            y, d, w = np.concatenate([y, y2]), np.concatenate([d, d2]), np.concatenate([w, w2])
            rho1, rho2 = np.append(rho1, 0.0 * rho2), np.append(0.0 * rho1, rho2)
        v1 = k1.eval(T * y, T * y) if f1 is None else 1.0  # a martingale's volatility rho(s)
        v2 = v1 if same else k2.eval(T * y, T * y) if f2 is None else 1.0
        a, b = v1 * np.sqrt(rho1), v2 * np.sqrt(rho2)
        if row is not None:  # F takes Phi_12's place; Phi_ii only serves the martingale
            phi11 = phi22 = T * d
            phi12 = T ** (row.h + 0.5) * _tail_integrals(row, row.h + 0.5, y, d, _END_NODES)
        else:
            phi = _profile_integrals([(f1, f1)] if same else [(f1, f1), (f2, f2), (f1, f2)],
                                     beta, T, y, d)
            phi11, phi22, phi12 = phi[[0, 0, 0]] if same else phi
        order = np.argsort(y)
        g, yo = (phi12 * a * b)[order], y[order]
        k = np.flatnonzero(g[:-1] * g[1:] < 0.0)
        if m1.is_singular or not k.size or rebuild == 2:
            break
        edges = [0.0, *(yo[k] - g[k] * (yo[k + 1] - yo[k]) / (g[k + 1] - g[k])), 1.0]
    c = np.abs(phi12)
    cross = float(w @ (c * np.abs(a * b)))
    trace = sum(T ** (2.0 * h + 1.0) / (2.0 * h + 1.0) if isinstance(f, _UnitRow)
                else float(w @ (phi_ii * v * v))
                for (h, f), phi_ii, v in zip(sides, (phi11, phi22), (a, b)))
    if (a.any() or b.any()) and not (same and np.array_equal(a, b)):
        trace = _normal_trace(trace)  # distinct processes would read distance and trace 0
    dist = trace - 2.0 * cross if row is not None else float(
        w @ (c * (np.abs(a) - np.abs(b)) ** 2 + (phi11 - c) * a * a + (phi22 - c) * b * b))
    return DistanceReport(distance_squared=_clamped_at_zero(dist, trace), trace_term=trace,
                          cross_term=cross,
                          optimal_correlation=np.where(phi12 * a * b >= 0.0, 1.0, -1.0),
                          grid_meta={"n_s": y.size, "n_t": None, "scheme": "cumulative"},
                          nodes=T * y)


def continuous_aw_fbm(h1: float, h2: float, T: float = 1.0,
                      grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance between fractional Brownian motions:
    :func:`continuous_aw_multi` on ``fbm_spec(h1, T)`` and ``fbm_spec(h2, T)``, which
    takes the self-similar 1-D rule of :func:`_self_similar`."""
    return continuous_aw_multi(fbm_spec(h1, T), fbm_spec(h2, T), grid)


def triangular_integral(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                        partition_count: int, grid: QuadratureGrid | None = None) -> float:
    """Partition sum of Hilbert-Schmidt norms of diagonal-block compressions.

    For a uniform partition of [0, T] into ``partition_count`` cells, returns
    sum over cells of [ int int_{cell^2} |<k1(., r1), k2(., r2)>|^2
    mu1(dr1) mu2(dr2) ]^{1/2}.  As the partition refines this approaches the
    cross term of the unit-multiplicity distance formula.
    """
    if spec1.multiplicity != 1 or spec2.multiplicity != 1:
        raise DomainError("triangular_integral requires unit multiplicity")
    T = shared_horizon(spec1.T, spec2.T, "process specs")
    partition_count = check_count(partition_count, "partition_count")
    grid = grid or QuadratureGrid()
    k1, meas1 = spec1.components[0]
    k2, meas2 = spec2.components[0]
    if meas1.is_singular or meas2.is_singular:
        raise DomainError("triangular_integral requires absolutely continuous measures")

    gamma_s, gamma_t = _pair_gammas([k1], [k2])
    q = int(np.clip(grid.n_s // partition_count, 2, 64))
    edges = np.linspace(0.0, T, partition_count + 1)
    graded = k1.origin_exponent > 0 or k2.origin_exponent > 0
    r, w = (np.array(x) for x in zip(*(
        graded_midpoint(edges[c], edges[c + 1], q, gamma=gamma_s if c == 0 and graded else 1.0)
        for c in range(partition_count))))
    rho1, rho2 = meas1.density_at(r) * w, meas2.density_at(r) * w
    # pair (r_i, r_j) of a cell's increasing nodes takes k1 on row (top, i) and k2 on row
    # (top, j), top = max(i, j), of the q(q+1)/2 rows k(t-grid of r_a, r_b), b <= a
    a, b = np.tril_indices(q)
    i, j = np.divmod(np.arange(q * q), q)
    top = np.maximum(i, j)
    row1, row2 = top * (top + 1) // 2 + i, top * (top + 1) // 2 + j
    per_chunk = max(1, (1 << 16) // (q * q * grid.n_t))  # 512 KiB of (pair, t) values
    cell_sums = []
    for c in (slice(lo, lo + per_chunk) for lo in range(0, partition_count, per_chunk)):
        t_mat, w_mat = _t_matrix(r[c].ravel(), T, grid.n_t, gamma_t)
        t_rows, s_rows = t_mat.reshape(-1, q, grid.n_t)[:, a].ravel(), np.repeat(r[c][:, b], grid.n_t)
        prod = np.take(k1.eval(t_rows, s_rows).reshape(-1, a.size, grid.n_t), row1, axis=1)
        prod *= np.take(k2.eval(t_rows, s_rows).reshape(-1, a.size, grid.n_t), row2, axis=1)
        prod *= np.take(w_mat.reshape(-1, q, grid.n_t), top, axis=1)
        ip = np.sum(prod, axis=2)  # C-ordered, as every row below: numpy sums rows pairwise
        cell_sums.append(np.sqrt(np.sum(
            ip * ip * np.take(rho1[c], i, axis=1) * np.take(rho2[c], j, axis=1), axis=1)))
    return float(np.cumsum(np.concatenate(cell_sums))[-1])  # cell after cell, as a running sum


# ---------------------------------------------------------------------------
# trace-norm bound and the non-canonical counterexample
# ---------------------------------------------------------------------------

def _psd_sqrt(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    scale = max(1.0, float(np.abs(vals).max()))
    if vals.min() < -tol * scale:
        raise DomainError(f"matrix is not positive semidefinite (eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def trace_bound_optimal_gamma(a: np.ndarray, b: np.ndarray, c: np.ndarray
                              ) -> tuple[float, np.ndarray]:
    """Sharp bound on tr(C Gamma^T) over feasible cross-covariances Gamma.

    Feasible means the block matrix [[A, Gamma], [Gamma^T, B]] is positive
    semidefinite.  Returns (bound, gamma) with bound = ||A^1/2 C B^1/2||_tr
    and gamma = A^1/2 U V B^1/2 attaining it, where A^1/2 C B^1/2 = U S V.
    """
    c = np.asarray(c, dtype=float)
    ra = _psd_sqrt(a)
    rb = _psd_sqrt(b)
    if c.shape != (ra.shape[0], rb.shape[0]):
        raise DomainError("C must be m x n for A (m x m) and B (n x n)")
    u, sing, vh = np.linalg.svd(ra @ c @ rb, full_matrices=False)
    bound = float(np.sum(sing))
    gamma = ra @ u @ vh @ rb
    return bound, gamma


_LEVY_POLY = (3.0, -12.0, 10.0)


def _levy_kernel() -> CallableKernel:
    def phi(t, s):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(t > 0.0, s / np.where(t > 0.0, t, 1.0), 0.0)
        return _LEVY_POLY[0] + _LEVY_POLY[1] * u + _LEVY_POLY[2] * u * u
    return CallableKernel(T=1.0, fn=phi)


def levy_noncanonical_check(grid: QuadratureGrid | None = None) -> dict:
    """Numeric demonstration that the distance formula needs canonicality.

    The kernel phi_t(s) = 3 - 12 (s/t) + 10 (s/t)^2 reproduces the Brownian
    covariance min(t, s), yet feeding this non-canonical representation into
    the distance formula against the true Brownian kernel yields a strictly
    positive value even though both processes are standard Brownian motions.
    """
    grid = grid or QuadratureGrid()
    phi = _levy_kernel()
    leb = IntensityMeasure.lebesgue()

    # (a) covariance reproduction on a grid of (t, s) pairs
    pts = np.linspace(0.1, 1.0, 10)
    worst = max(abs(covariance(phi, leb, t, s, grid) - min(t, s)) for t in pts for s in pts)

    spec_phi = GaussianProcessSpec(components=[(phi, leb)], T=1.0)
    spec_bm = GaussianProcessSpec(components=[(Brownian(T=1.0), leb)], T=1.0)
    naive = continuous_aw_unit(spec_phi, spec_bm, grid)
    self_bm = continuous_aw_unit(spec_bm, spec_bm, grid)
    return {
        "covariance_max_abs_err": worst,
        "naive_distance_squared": naive.distance_squared,
        "bm_self_distance_squared": self_bm.distance_squared,
    }


# ---------------------------------------------------------------------------
# transfer-principle discretization
# ---------------------------------------------------------------------------

def fbm_cov_matrix(h: float, times: np.ndarray) -> CovMatrix:
    """Exact fBM covariance 0.5 (t^2H + s^2H - |t-s|^2H) at the given times."""
    t = np.asarray(times, dtype=float)[:, None]
    s = np.asarray(times, dtype=float)[None, :]
    return CovMatrix(entries=0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h)))


_SCHUR_BLOCK = 16  # factor columns per block of the streamed Schur distance
_ROTATIONS = struct.Struct("32d")  # both laws' 4 x 4 maps, row-major


def _put_rotations(g0: tuple, j: int, tols: list[float], rot: np.ndarray) -> None:
    """Write into ``rot`` (2, 4, 4) each law's J-unitary map (signature +, -, -, +) leaving
    its generator column (p1, n1, n2, p2) = g0[4 i:4 i + 4] as (delta, 0, 0, 0): a Givens
    rotation of the positive pair, one of the negative pair and a hyperbolic rotation
    between the two.  Raises NotPositiveDefiniteError(j) when |rho| = q/p >= 1 or the
    pivot delta^2 = p^2 - q^2 is at most that law's ``tols`` entry (> 0), NaN included.
    """
    flat = []
    for (p1, n1, n2, p2), tol in ((g0[:4], tols[0]), (g0[4:], tols[1])):
        p, q = math.hypot(p1, p2), math.hypot(n1, n2)
        if not (p - q) * (p + q) > tol:
            raise NotPositiveDefiniteError(j)
        cp, sp = p1 / p, p2 / p
        cn, sn = (n1 / q, n2 / q) if q > 0.0 else (1.0, 0.0)
        rho = q / p
        eta = math.sqrt((1.0 - rho) * (1.0 + rho))
        flat += (cp / eta, -rho * cn / eta, -rho * sn / eta, sp / eta,
                 -rho * cp / eta, cn / eta, sn / eta, -rho * sp / eta,
                 0.0, -sn, cn, 0.0, -sp, 0.0, 0.0, cp)
    _ROTATIONS.pack_into(rot, 0, *flat)


def _fbm_path_factor_blocks(hs: tuple[float, float], dt: float, n: int, tols: list[float]):
    """Yield (j0, k): columns j0 ... j0 + b - 1 of both laws' path Cholesky factors, as the
    (2, b, n - j0) view k[i, j - j0] = column j of law i on rows j0 ... n - 1, 0 above row j,
    which the caller may overwrite.

    The increments Y_0 = X(dt/2), Y_n = X(t_n) - X(t_{n-1}) have covariance
    [[a, b^T], [b, T]], T the fGn Toeplitz matrix of lags r(k).  After the
    explicit first column, T - b b^T / a has the displacement generator
    [t/sqrt(t_0), (t - t_0 e_0)/sqrt(t_0), b/sqrt(a), Z b/sqrt(a)] of
    signature (+, -, -, +); each generalised Schur step peels one factor
    column.  As X = cumsum Y, the generator is summed down its rows once: the
    J-unitary maps act on its columns and commute with that sum.  Two (2, 4, n)
    buffers take the generator in turn, row i at index i.
    """
    lag = np.arange(n - 1)
    r, col = np.empty((2, n - 1)), np.empty((2, n))
    for i, h in enumerate(hs):
        e = 2.0 * h
        c = 0.5 * dt ** e
        k = np.arange(n + 1.0) ** e
        half = (np.arange(n) + 0.5) ** e
        r[i] = c * (k[lag + 1] - 2.0 * k[lag] + k[abs(lag - 1)])
        a = (0.5 * dt) ** e
        if not a > tols[i]:
            raise NotPositiveDefiniteError(0)
        col[i, 0] = math.sqrt(a)
        col[i, 1:] = c * (k[:n - 1] + half[1:] - k[1:n] - half[:-1]) / col[i, 0]
    blk = _SCHUR_BLOCK
    out = np.zeros((2, blk, n))
    out[:, 0] = np.cumsum(col, axis=1)
    g = np.zeros((2, 4, n))
    g[:, 0, 1:] = r / np.sqrt(r[:, :1])
    g[:, 1, 2:] = g[:, 0, 2:]
    g[:, 2, 1:] = col[:, 1:]
    g[:, 3, 2:] = col[:, 1:-1]
    g = np.cumsum(g, axis=2)
    nxt, rot = np.empty_like(g), np.empty((2, 4, 4))
    column = struct.Struct(f"d{8 * n - 8}x" * 7 + "d").unpack_from  # g[:, :, j] at 8 j bytes
    for j in range(1, n):
        b = j % blk
        if b == 0:
            yield j - blk, out[:, :, j - blk:]
            out[:, :, j:j + blk] = 0.0
        _put_rotations(column(g, 8 * j), j, tols, rot)
        np.matmul(rot, g[:, :, j:], out=nxt[:, :, j:])
        out[:, b, j:] = nxt[:, 0, j:]
        # Z times the column taken; the others' entry j is now 0 and is left behind
        nxt[:, 0, j + 1:] = out[:, b, j:-1]
        g, nxt = nxt, g
    j0 = (n - 1) // blk * blk
    yield j0, out[:, :n - j0, j0:]


def discretized_fbm_aw(h1: float, h2: float, T: float, n_steps: int) -> DistanceReport:
    """Discrete-formula approximation of the continuous fBM distance.

    Samples both processes at the midpoints t_n = (n + 1/2) dt of a uniform
    n-step grid and scales the discrete squared distance by the step so that
    it approximates the L^2([0, T]) path cost.  It streams in O(N^2) time and
    O(N) memory, one generalised Schur step per column of both causal factors and
    one diag and distance sum per block of _SCHUR_BLOCK columns, and builds no
    N x N matrix; :func:`discrete_aw` on :func:`fbm_cov_matrix` is the dense
    general path it agrees with up to rounding.
    """
    for h in (h1, h2):
        _check_hurst(h)
    T = check_horizon(T)
    n = check_count(n_steps, "n_steps")
    dt = T / n
    times = (np.arange(n) + 0.5) * dt
    variances = [times ** (2 * h) for h in (h1, h2)]
    tols = [_PIVOT_TOL * float(v.max()) for v in variances]
    diag, dist = np.empty(n), np.empty(n)
    for j0, (k1, k2) in _fbm_path_factor_blocks((h1, h2), dt, n, tols):
        d = np.einsum("jk,jk->j", k1, k2, out=diag[j0:j0 + len(k1)])  # (K1^T K2)_{j,j}
        k2[d < 0.0] *= -1.0  # in place, the block being ours: corr K2, corr = +1 at a tie
        np.subtract(k1, k2, out=k2)  # equal laws give exactly 0
        np.einsum("jk,jk->j", k2, k2, out=dist[j0:j0 + len(k1)])
    return DistanceReport(
        distance_squared=float(np.sum(dist)) * dt,
        trace_term=float(np.sum(variances[0]) + np.sum(variances[1])) * dt,
        cross_term=float(np.sum(np.abs(diag))) * dt,
        optimal_correlation=np.where(diag >= 0.0, 1.0, -1.0),
        grid_meta={"n_steps": n, "dt": dt, "scheme": "cholesky-midpoint-sampling"},
        nodes=times,
    )
