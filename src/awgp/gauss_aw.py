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
sqrt(rho2)||^2 ds, sigma = sign <k1, k2>, which is how it is summed.
Higher multiplicity replaces the absolute value by a trace norm of the
matrix of component inner products and the sign by its orthogonal Procrustes
factor U V^H (Schoenemann 1966).  A partition-based triangular integral
approximates the cross term directly and serves as a structural cross-check.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import ConvergenceError, DomainError, NotPositiveDefiniteError
from .kernels import (Brownian, CallableKernel, GaussianProcessSpec, IntensityMeasure,
                      VolterraKernel, _check_hurst, _same_kernels, covariance, fbm_spec)
from .quadrature import QuadratureGrid, graded_gauss, graded_midpoint, grading_exponent

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
_N_SINGULAR = 100_000  # cells of the Stieltjes sum against a singular measure


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
        if np.any(np.triu(a, k=1) != 0.0):
            raise DomainError("factor must be strictly lower triangular above the diagonal")
        if np.any(np.diag(a) <= 0.0):
            raise DomainError("factor diagonal must be positive")
        object.__setattr__(self, "entries", a)


@dataclass
class DistanceReport:
    """Distance value with its trace/cross decomposition and grid metadata.

    ``optimal_correlation`` is a per-step/per-node sign array in the unit
    multiplicity and discrete cases, or a stack of per-node coupling factor
    matrices U V^H, shape (n_s, m, n), in the higher-multiplicity case.
    ``distance_squared`` is a sum of squares, so it is never negative.
    """

    distance_squared: float
    trace_term: float
    cross_term: float
    optimal_correlation: np.ndarray | None = None
    grid_meta: dict = field(default_factory=dict)

    def to_dict(self, include_correlation: bool = True) -> dict:
        d = {
            "distance_squared": self.distance_squared,
            "trace_term": self.trace_term,
            "cross_term": self.cross_term,
            "grid_meta": self.grid_meta,
        }
        if include_correlation and self.optimal_correlation is not None:
            d["optimal_correlation"] = np.asarray(self.optimal_correlation).tolist()
        return d

    def to_json(self, include_correlation: bool = True) -> str:
        return json.dumps(self.to_dict(include_correlation=include_correlation), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "DistanceReport":
        corr = d.get("optimal_correlation")
        return cls(
            distance_squared=float(d["distance_squared"]),
            trace_term=float(d["trace_term"]),
            cross_term=float(d["cross_term"]),
            optimal_correlation=None if corr is None else np.asarray(corr, dtype=float),
            grid_meta=dict(d.get("grid_meta", {})),
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


def _s_nodes(T: float, n: int, gamma: float, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, T] clustered at 0: ``n`` graded midpoint cells, or
    ``max(n // 4, 4)`` four-point Gauss panels graded one power steeper."""
    if scheme == "midpoint":
        return graded_midpoint(0.0, T, n, gamma=gamma, cluster="left")
    return graded_gauss(0.0, T, max(n // 4, 4), order=4, gamma=gamma + 1.0, cluster="left")


def _t_matrix(s: np.ndarray, T: float, n_t: int, gamma: float, scheme: str
              ) -> tuple[np.ndarray, np.ndarray]:
    """Per-s-node t-quadrature on [s, T], clustered at t = s; shapes (n_s, n_t)."""
    u, w = _s_nodes(1.0, n_t, gamma, scheme)
    span = (T - s)[:, None]
    return s[:, None] + span * u[None, :], span * w[None, :]


def _eval_components(kernels: Sequence[VolterraKernel], t_mat: np.ndarray, s: np.ndarray
                     ) -> np.ndarray:
    s_mat = np.broadcast_to(s[:, None], t_mat.shape)
    out = np.empty((len(kernels),) + t_mat.shape)
    for i, k in enumerate(kernels):
        out[i] = k.eval(t_mat.ravel(), s_mat.ravel()).reshape(t_mat.shape)
    return out


def _nodes(measure: IntensityMeasure, T: float, grid: QuadratureGrid, gamma_s: float,
           gamma_t: float, scheme: str) -> tuple[np.ndarray, ...]:
    """Node set (s, ws, t_mat, w_mat) for the s-integral against ``measure``.

    An absolutely continuous measure gets graded s-nodes with Lebesgue weights
    (its density enters separately); a singular one a Stieltjes sum over its
    charged cells, with midpoint rules in t.
    """
    if measure.is_singular:
        edges = np.linspace(0.0, T, _N_SINGULAR + 1)
        dmu = measure.cdf_increments(edges)
        live = dmu > 0.0
        s, ws = 0.5 * (edges[1:] + edges[:-1])[live], dmu[live]
        scheme = "midpoint"
    else:
        s, ws = _s_nodes(T, grid.n_s, gamma_s, scheme)
    t_mat, w_mat = _t_matrix(s, T, grid.n_t, gamma_t, scheme)
    return s, ws, t_mat, w_mat


def _densities(measures: Sequence[IntensityMeasure], s: np.ndarray) -> np.ndarray:
    """Component densities relative to the node weights; shape (m, n_s)."""
    if measures[0].is_singular:
        return np.ones((1, s.size))
    return np.stack([meas.density_at(s) for meas in measures])


def _trace_term(vals: np.ndarray, rho: np.ndarray, ws: np.ndarray, w_mat: np.ndarray) -> float:
    return float(np.sum(np.einsum("ist,ist,st->is", vals, vals, w_mat) * rho * ws))


def _distance_core(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                   grid: QuadratureGrid, scheme: str) -> DistanceReport:
    """One quadrature pass that evaluates each kernel once per node set, and equal kernel
    lists (as in AW(X, X)) once in all.

    Each node scales the components by their root densities (V1, V2), takes the
    coupling factor C of M = V1 W V2^T (sign M at unit multiplicity, U V^H of the
    thin SVD otherwise) and adds ||V_more - C V_fewer||_W^2: no cancellation, and
    exactly 0 for identical unit-multiplicity inputs.
    """
    if abs(spec1.T - spec2.T) > 1e-12:
        raise DomainError("horizon mismatch between process specs")
    T = spec1.T
    spec1.validate_ordering()
    spec2.validate_ordering()
    kernels1, measures1 = zip(*spec1.components)
    kernels2, measures2 = zip(*spec2.components)
    m, n = len(kernels1), len(kernels2)
    singular1, singular2 = measures1[0].is_singular, measures2[0].is_singular
    if (singular1 or singular2) and (m > 1 or n > 1):
        raise DomainError("singular measures are supported at unit multiplicity only")
    if singular1 and singular2 and measures1[0].singular_tag != measures2[0].singular_tag:
        raise DomainError("cannot mix distinct singular measures")

    gamma_s, gamma_t = _pair_gammas(kernels1, kernels2)
    meta = grid.meta()
    meta.update({"scheme": scheme, "gamma_s": gamma_s, "gamma_t": gamma_t,
                 "multiplicity": [m, n]})

    if singular1 != singular2:
        # mutually singular: the geometric mean vanishes, any coupling is optimal
        trace = 0.0
        for kernels, measures in ((kernels1, measures1), (kernels2, measures2)):
            s, ws, t_mat, w_mat = _nodes(measures[0], T, grid, gamma_s, gamma_t, scheme)
            trace += _trace_term(_eval_components(kernels, t_mat, s),
                                 _densities(measures, s), ws, w_mat)
        return DistanceReport(distance_squared=trace, trace_term=trace, cross_term=0.0,
                              grid_meta=meta)

    # shared nodes; for a same-tag singular pair the geometric mean is the measure itself
    s, ws, t_mat, w_mat = _nodes(measures1[0], T, grid, gamma_s, gamma_t, scheme)
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
                          grid_meta=meta)


def _run_with_crosscheck(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                         grid: QuadratureGrid) -> DistanceReport:
    report = _distance_core(spec1, spec2, grid, "midpoint")
    if grid.crosscheck_rtol is not None:
        alt = _distance_core(spec1, spec2, grid, "gauss")
        scale = max(abs(report.distance_squared), abs(report.trace_term), 1e-30)
        rel = abs(alt.distance_squared - report.distance_squared) / scale
        if rel > grid.crosscheck_rtol:
            raise ConvergenceError(
                f"two-scheme quadrature disagreement {rel:.3e} exceeds "
                f"tolerance {grid.crosscheck_rtol:.3e}")
        report.grid_meta["crosscheck_rel"] = rel
    return report


def continuous_aw_unit(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                       grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance, unit multiplicity canonical specs."""
    if spec1.multiplicity != 1 or spec2.multiplicity != 1:
        raise DomainError("continuous_aw_unit requires unit multiplicity")
    return _run_with_crosscheck(spec1, spec2, grid or QuadratureGrid())


def continuous_aw_multi(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                        grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance for finite multiplicities.

    At each node the matrix of scaled component inner products is reduced by
    singular value decomposition; its trace norm enters the cross term and
    U V^H is the per-node optimal coupling factor C of the sum of squares
    ||V_more - C V_fewer||^2.  A unit pair gives :func:`continuous_aw_unit`'s report.
    """
    return _run_with_crosscheck(spec1, spec2, grid or QuadratureGrid())


def continuous_aw_fbm(h1: float, h2: float, T: float = 1.0,
                      grid: QuadratureGrid | None = None) -> DistanceReport:
    """Squared adapted Wasserstein distance between fractional Brownian motions.

    :func:`continuous_aw_unit` on the two Molchan-Golosov specs, with the
    Hurst parameters and the horizon added to the grid metadata.
    """
    report = continuous_aw_unit(fbm_spec(h1, T), fbm_spec(h2, T), grid)
    report.grid_meta.update({"h1": h1, "h2": h2, "T": T})
    return report


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
    if abs(spec1.T - spec2.T) > 1e-12:
        raise DomainError("horizon mismatch between process specs")
    if partition_count < 1:
        raise DomainError("partition_count must be >= 1")
    grid = grid or QuadratureGrid()
    T = spec1.T
    k1, meas1 = spec1.components[0]
    k2, meas2 = spec2.components[0]
    if meas1.is_singular or meas2.is_singular:
        raise DomainError("triangular_integral requires absolutely continuous measures")

    gamma_s, gamma_t = _pair_gammas([k1], [k2])
    q = int(np.clip(grid.n_s // partition_count, 2, 64))
    edges = np.linspace(0.0, T, partition_count + 1)

    total = 0.0
    for c in range(partition_count):
        lo, hi = edges[c], edges[c + 1]
        if c == 0 and (k1.singular_at_origin or k2.singular_at_origin
                       or k1.origin_exponent > 0 or k2.origin_exponent > 0):
            r, w = graded_midpoint(lo, hi, q, gamma=gamma_s, cluster="left")
        else:
            r, w = graded_midpoint(lo, hi, q, gamma=1.0, cluster="left")
        r1 = np.repeat(r, q)
        r2 = np.tile(r, q)
        rmax = np.maximum(r1, r2)
        t_mat, w_mat = _t_matrix(rmax, T, grid.n_t, gamma_t, "midpoint")
        ip = np.sum(_eval_components([k1], t_mat, r1)[0]
                    * _eval_components([k2], t_mat, r2)[0] * w_mat, axis=1)
        w1 = (meas1.density_at(r) * w)[np.repeat(np.arange(q), q)]
        w2 = (meas2.density_at(r) * w)[np.tile(np.arange(q), q)]
        total += float(np.sqrt(np.sum(ip * ip * w1 * w2)))
    return total


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
    r = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
    # r is already exactly symmetric, so this returns r bit for bit.  The step stays
    # for the heap holes its N x N temporaries leave: without them a process's later
    # large numpy temporaries regrow the trimmed glibc heap, page-faulting on every call
    return CovMatrix(entries=0.5 * (r + r.T))


def _proper_rotation(p1: float, n1: float, n2: float, p2: float, j: int, tol: float
                     ) -> list[list[float]]:
    """J-unitary map (signature +, -, -, +) leaving a generator row as (delta, 0, 0, 0).

    A Givens rotation of the positive pair, one of the negative pair and a
    hyperbolic rotation between the two, composed; raises when |rho| = q/p >= 1
    or the pivot delta^2 = p^2 - q^2 is at most ``tol`` (> 0), NaN included.
    """
    p, q = math.hypot(p1, p2), math.hypot(n1, n2)
    if not (p - q) * (p + q) > tol:
        raise NotPositiveDefiniteError(j)
    cp, sp = p1 / p, p2 / p
    cn, sn = (n1 / q, n2 / q) if q > 0.0 else (1.0, 0.0)
    rho = q / p
    eta = math.sqrt((1.0 - rho) * (1.0 + rho))
    return [[cp / eta, -rho * cn / eta, -rho * sn / eta, sp / eta],
            [-rho * cp / eta, cn / eta, sn / eta, -rho * sp / eta],
            [0.0, -sn, cn, 0.0],
            [-sp, 0.0, 0.0, cp]]


def _fbm_path_factor_columns(hs: tuple[float, float], dt: float, n: int,
                             tols: list[float]):
    """Yield column j of both laws' path Cholesky factors, rows j..n-1, as a (2, n-j) view.

    The increments Y_0 = X(dt/2), Y_n = X(t_n) - X(t_{n-1}) have covariance
    [[a, b^T], [b, T]], T the fGn Toeplitz matrix of lags r(k).  After the
    explicit first column, T - b b^T / a has the displacement generator
    [t/sqrt(t_0), (t - t_0 e_0)/sqrt(t_0), b/sqrt(a), Z b/sqrt(a)] of
    signature (+, -, -, +); each generalised Schur step peels one factor
    column.  As X = cumsum Y, the generator is summed down its rows once: the
    J-unitary maps act on its columns and commute with that sum.
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
    yield np.cumsum(col, axis=1)
    g = np.zeros((2, 4, n - 1))
    g[:, 0] = r / np.sqrt(r[:, :1])
    g[:, 1, 1:] = g[:, 0, 1:]
    g[:, 2] = col[:, 1:]
    g[:, 3, 1:] = col[:, 1:-1]
    g = np.cumsum(g, axis=2)
    for j in range(1, n):
        g = np.array([_proper_rotation(*row, j, tol)
                      for row, tol in zip(g[:, :, 0].tolist(), tols)]) @ g
        yield g[:, 0]
        # Z times the column taken; the others' first row is now 0, so drop it
        g[:, 0, 1:] = g[:, 0, :-1]
        g = g[:, :, 1:]


def discretized_fbm_aw(h1: float, h2: float, T: float, n_steps: int) -> DistanceReport:
    """Discrete-formula approximation of the continuous fBM distance.

    Samples both processes at the midpoints t_n = (n + 1/2) dt of a uniform
    n-step grid and scales the discrete squared distance by the step so that
    it approximates the L^2([0, T]) path cost.  It streams in O(N^2) time and
    O(N) memory, one column of both causal factors at a time, and builds no
    N x N matrix; :func:`discrete_aw` on :func:`fbm_cov_matrix` is the dense
    general path it agrees with up to rounding.
    """
    for h in (h1, h2):
        _check_hurst(h)
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"horizon T must be finite and positive, got {T}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise DomainError(f"n_steps must be a positive integer, got {n_steps!r}")
    n = int(n_steps)
    dt = T / n
    times = (np.arange(n) + 0.5) * dt
    variances = [times ** (2 * h) for h in (h1, h2)]
    tols = [_PIVOT_TOL * float(v.max()) for v in variances]
    diag, dist = np.empty(n), np.empty(n)
    for j, (k1, k2) in enumerate(_fbm_path_factor_columns((h1, h2), dt, n, tols)):
        diag[j] = k1 @ k2  # (K1^T K2)_{j,j}
        diff = k1 - k2 if diag[j] >= 0.0 else k1 + k2  # equal laws give exactly 0
        dist[j] = diff @ diff
    return DistanceReport(
        distance_squared=float(np.sum(dist)) * dt,
        trace_term=float(np.sum(variances[0]) + np.sum(variances[1])) * dt,
        cross_term=float(np.sum(np.abs(diag))) * dt,
        optimal_correlation=np.where(diag >= 0.0, 1.0, -1.0),
        grid_meta={"n_steps": n, "dt": dt, "scheme": "cholesky-midpoint-sampling"},
    )
