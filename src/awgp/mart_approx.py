"""Best martingale approximation to a fractional Brownian motion.

Among all martingales adapted to the fBM's own filtration, the closest one
in adapted 2-Wasserstein distance has deterministic volatility equal to the
forward average of the fractional kernel,

    rho_H(r) = (1 / (T - r)) * int_r^T k_H(s, r) ds,

and the squared distance is int_0^T int_r^T (k_H(s, r) - rho_H(r))^2 ds dr.
rho_H(r) is the pointwise L^2 minimizer over constants of the inner
integral, so any perturbation strictly increases the cost.

The kernel is homogeneous, k(cs, cr) = c^(H-1/2) k(s, r), so with y = r/T and g(x) = k(1, x),
int_r^T k(s, r) ds = T^(H+1/2) y^(H+1/2) G(y) with G(y) = int_y^1 x^(-H-3/2) g(x) dx: every
inner integral is a tail of one cumulative 1-D integral, summed at all nodes in one pass
(:func:`~awgp.gauss_aw._tail_integrals` with a = H + 1/2).  As
int_0^T int_r^T k^2 ds dr = int_0^T s^(2H) ds,
AW2 = T^(2H+1) [1/(2H+1) - int_0^1 (1 - y) rho_1(y)^2 dy], rho_1(y) = rho_H(yT) T^(1/2-H),
with the integral on the self-similar distance's graded unit rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_horizon
from .gauss_aw import (_END_NODES, _clamped_at_zero, _graded_unit_nodes, _normal_trace,
                       _run_with_crosscheck, _tail_integrals)
# eval_mg_kernel and graded_gauss go unused here: the benchmark tracer binds them by name
from .kernels import MolchanGolosov, _check_hurst, _unit_row, eval_mg_kernel  # noqa: F401
from .quadrature import (QuadratureGrid, graded_gauss, graded_midpoint,  # noqa: F401
                         grading_exponent)

__all__ = ["MartingaleApproxResult", "optimal_volatility", "mart_approx_distance"]

@dataclass
class MartingaleApproxResult:
    """Tabulated optimal volatility r -> rho_H(r) and the attained distance; ``grid_meta``
    holds the distance rule's node count (``distance_nodes``) and any ``crosscheck_rel``."""

    r_nodes: np.ndarray
    rho: np.ndarray
    distance_squared: float
    h: float
    T: float
    grid_meta: dict = field(default_factory=dict)

    @property
    def trace_term(self) -> float:
        """int_0^T int_r^T k_H(s, r)^2 ds dr = T^(2H+1)/(2H+1), the distance's scale."""
        return self.T ** (2.0 * self.h + 1.0) / (2.0 * self.h + 1.0)

    def rho_at(self, r) -> np.ndarray:
        """Linear interpolation of the tabulated volatility (left-closed)."""
        return np.interp(np.asarray(r, dtype=float), self.r_nodes, self.rho)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "T": self.T,
            "distance_squared": self.distance_squared,
            "grid_meta": self.grid_meta,
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
                   h=float(d["h"]), T=float(d["T"]), grid_meta=dict(d.get("grid_meta", {})))


def optimal_volatility(h: float, r, T: float):
    """Forward-averaged kernel rho_H(r) = (T - r)^{-1} int_r^T k_H(s, r) ds, on the cumulative
    rule of :mod:`awgp.gauss_aw` with a 256-node end rule on [max(r/T, 1/2), 1]: a lone r needs that
    many (32 are 3.5e-12 off at H = 0.05, r = 0.3)."""
    _check_hurst(h)
    h, T = float(h), check_horizon(T)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((r_arr > 0.0) & (r_arr < T)):  # NaN fails too
        raise DomainError("optimal_volatility requires finite 0 < r < T (singular at r = 0)")
    if r_arr.size == 0:
        return np.empty(r_arr.shape)
    flat = r_arr.ravel()
    d = (T - flat) / T
    out = T ** (h - 0.5) * _tail_integrals(_unit_row(MolchanGolosov(h=h)), h + 0.5, flat / T, d,
                                           256) / d
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(r_arr.shape)


def mart_approx_distance(h: float, T: float = 1.0,
                         grid: QuadratureGrid | None = None) -> MartingaleApproxResult:
    """Distance to the best martingale approximation, with its volatility table.

    rho is tabulated at ``grid.n_s`` midpoints of [0, T] graded toward r = 0 (the kernel's
    origin singularity); the distance takes the graded unit rule of 16 * max(n_s // 16, 2)
    nodes (``grid_meta["distance_nodes"]``); both node sets go through one pass of the
    cumulative rule.  ``n_t`` does not apply.  ``crosscheck_rtol`` compares with the rule at
    half ``n_s`` and raises ConvergenceError past it.
    """
    _check_hurst(h)
    h, T = float(h), check_horizon(T)
    row = _unit_row(MolchanGolosov(h=h))
    gamma = grading_exponent(2.0 * abs(h - 0.5), h)

    def rule(g: QuadratureGrid) -> MartingaleApproxResult:
        scale = T ** (2.0 * h + 1.0)  # an overflow raises in _run_with_crosscheck
        trace = _normal_trace(scale / (2.0 * h + 1.0))
        r_nodes, _ = graded_midpoint(0.0, T, g.n_s, gamma)
        s, d, w = _graded_unit_nodes(-2.0 * row.p0, 2.0 * h, g.n_s)
        d_all = np.concatenate([(T - r_nodes) / T, d])
        rho1 = _tail_integrals(row, h + 0.5, np.concatenate([r_nodes / T, s]), d_all,
                               _END_NODES) / d_all
        dist = scale * (1.0 / (2.0 * h + 1.0) - float(w @ (d * rho1[r_nodes.size:] ** 2)))
        return MartingaleApproxResult(r_nodes, T ** (h - 0.5) * rho1[:r_nodes.size],
                                      _clamped_at_zero(dist, trace), h, T,
                                      {"distance_nodes": s.size})
    return _run_with_crosscheck(rule, grid or QuadratureGrid())
