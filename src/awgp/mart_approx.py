"""Best martingale approximation to a fractional Brownian motion.

Among all martingales adapted to the fBM's own filtration, the closest one
in adapted 2-Wasserstein distance has deterministic volatility equal to the
forward average of the fractional kernel,

    rho_H(r) = (1 / (T - r)) * int_r^T k_H(s, r) ds,

and the squared distance is int_0^T int_r^T (k_H(s, r) - rho_H(r))^2 ds dr.
rho_H(r) is the pointwise L^2 minimizer over constants of the inner
integral, so any perturbation strictly increases the cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gauss_aw import _t_matrix
from .kernels import eval_mg_kernel
# graded_gauss goes unused here: the benchmark tracer binds it by name
from .quadrature import QuadratureGrid, graded_gauss, graded_midpoint, grading_exponent  # noqa: F401

__all__ = ["MartingaleApproxResult", "optimal_volatility", "mart_approx_distance"]


@dataclass
class MartingaleApproxResult:
    """Tabulated optimal volatility r -> rho_H(r) and the attained distance."""

    r_nodes: np.ndarray
    rho: np.ndarray
    distance_squared: float
    h: float
    T: float

    def rho_at(self, r) -> np.ndarray:
        """Linear interpolation of the tabulated volatility (left-closed)."""
        return np.interp(np.asarray(r, dtype=float), self.r_nodes, self.rho)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "T": self.T,
            "distance_squared": self.distance_squared,
            "r": self.r_nodes.tolist(),
            "rho": self.rho.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "MartingaleApproxResult":
        return cls(r_nodes=np.asarray(d["r"], dtype=float),
                   rho=np.asarray(d["rho"], dtype=float),
                   distance_squared=float(d["distance_squared"]),
                   h=float(d["h"]), T=float(d["T"]))


def _kernel_rows(h: float, r: np.ndarray, T: float, n: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k_H(s, r) on each r's s-grid over [r, T], the grid's weights, and rho_H(r).

    The grid clusters at s = r, where k_H(s, r) behaves like (s - r)^(H - 1/2),
    singular for H < 1/2.
    """
    s_mat, w_mat = _t_matrix(r, T, n, grading_exponent(max(0.0, 0.5 - h), h))
    vals = eval_mg_kernel(h, s_mat.ravel(), np.repeat(r, s_mat.shape[1])).reshape(s_mat.shape)
    return vals, w_mat, np.sum(vals * w_mat, axis=1) / (T - r)


def optimal_volatility(h: float, r, T: float, quad_nodes: int = 256):
    """Forward-averaged kernel rho_H(r) = (T - r)^{-1} int_r^T k_H(s, r) ds."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise DomainError("optimal_volatility requires r > 0 (kernel singular at r = 0)")
    if np.any(r_arr >= T):
        raise DomainError("optimal_volatility requires r < T")
    out = _kernel_rows(h, r_arr, T, quad_nodes)[2]
    return float(out[0]) if (np.isscalar(r) or np.asarray(r).ndim == 0) else out


def mart_approx_distance(h: float, T: float = 1.0,
                         grid: QuadratureGrid | None = None) -> MartingaleApproxResult:
    """Distance to the best martingale approximation, with its volatility table.

    Both integrals are the distance core's graded midpoint sums: ``grid.n_s`` r-cells
    graded toward r = 0 (kernel origin singularity) and, for each r, ``grid.n_t`` s-cells
    on [r, T] from the core's t-grid builder.  The final r-cell [T - delta, T] contributes
    O(delta) and uses the same rule, with rho extended by its last node value.
    """
    if not 0.0 < h < 1.0:
        raise DomainError("Hurst parameter must lie in (0, 1)")
    grid = grid or QuadratureGrid()
    r_nodes, r_w = graded_midpoint(0.0, T, grid.n_s, grading_exponent(2.0 * abs(h - 0.5), h))
    vals, w_mat, rho = _kernel_rows(h, r_nodes, T, grid.n_t)
    inner = np.sum((vals - rho[:, None]) ** 2 * w_mat, axis=1)
    dist = float(np.sum(inner * r_w))
    return MartingaleApproxResult(r_nodes=r_nodes, rho=rho, distance_squared=dist, h=h, T=T)
