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
(:func:`_forward_rho`).  As int_0^T int_r^T k^2 ds dr = int_0^T s^(2H) ds,
AW2 = T^(2H+1) [1/(2H+1) - int_0^1 (1 - y) rho_1(y)^2 dy], rho_1(y) = rho_H(yT) T^(1/2-H),
with the integral on the self-similar distance's graded unit rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_horizon
from .gauss_aw import (_W16, _X16, _clamped_at_zero, _graded_unit_nodes, _run_with_crosscheck,
                       _unit_rule_size)
# eval_mg_kernel and graded_gauss go unused here: the benchmark tracer binds them by name
from .kernels import MolchanGolosov, _check_hurst, _unit_row, _UnitRow, eval_mg_kernel  # noqa: F401
from .quadrature import (QuadratureGrid, graded_gauss, graded_midpoint,  # noqa: F401
                         grading_exponent, linear_scan)

__all__ = ["MartingaleApproxResult", "optimal_volatility", "mart_approx_distance"]

_END_NODES = 32  # end rule of the distance, whose own nodes reach within 1e-8 of y = 1


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


def _forward_rho(row: _UnitRow, y: np.ndarray, d: np.ndarray, n_end: int) -> np.ndarray:
    """rho_1(y) = y^(h+1/2) G(y) / d at nodes y in (0, 1) with offsets d = 1 - y.

    The node values and 1/2 cut [min y, 1] into panels of 16 Gauss nodes in log x below 1/2
    and log(1 - x) above; a panel whose half-width passes its distance to that coordinate's
    singular point 0 (x = 1, or x = 0) is cut evenly, which only sparse nodes near 1/2 need.
    Below 1/2 the integrand is about e^(-mu v), v = log(x/x_j), mu = h + 1/2 + p0: a panel across
    which that falls past e^-30 (H near 1) takes Gauss nodes in e^(-mu v) instead, where it is flat.
    [max(y, 1/2), 1] takes the graded unit rule of ``n_end`` nodes with the end power
    d^(h-1/2), built on the offsets.  Each panel is scaled by its left end x_j:
    F_j = x_j^(h+1/2) G(x_j) = Q_j + (x_j/x_(j+1))^(h+1/2) F_(j+1), summed by
    :func:`~awgp.quadrature.linear_scan` on reversed views, so no partial sum overflows where G
    would (H near 1, y below 1e-150).
    """
    a = row.h + 0.5
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
    off = step[:, None] * _X16
    steep = ~right[pid] & (mu * step > 30.0)
    fall = -np.expm1(-mu * step[steep, None])
    off[steep] = -np.log1p(-fall * _X16) / mu
    e = np.exp((coord[pid] + step * sub)[:, None] + off)
    on_right = right[pid][:, None]
    x, xd = np.where(on_right, 1.0 - e, e), np.where(on_right, e, 1.0 - e)
    _, d_end, w_end = _graded_unit_nodes(0.0, row.h - 0.5, n_end)
    xe, de = 1.0 - bd[-1] * d_end, bd[-1] * d_end
    g = row.at(np.concatenate([x.ravel(), xe]), np.concatenate([xd.ravel(), de]))
    # x^-(a+1) dx is x^-a du below 1/2 and x^-(a+1) (1 - x) dv above
    panel = (bx[pid, None] / x) ** a * g[:x.size].reshape(x.shape) * np.where(on_right, xd / x, 1.0)
    panel[steep] *= np.exp(mu * off[steep]) * fall / (mu * step[steep, None])
    q = np.append(np.bincount(pid, panel @ _W16 * np.abs(step), minlength=k.size),
                  bx[-1] ** a * bd[-1] * (w_end @ (xe ** -(a + 1.0) * g[x.size:])))
    f = linear_scan(q[::-1], np.append((bx[:-1] / bx[1:]) ** a, 0.0)[::-1])[::-1] / bd
    if bx.size > y.size:
        f = np.delete(f, cut)
    out = np.empty_like(f)
    out[order] = f
    return out


def optimal_volatility(h: float, r, T: float):
    """Forward-averaged kernel rho_H(r) = (T - r)^{-1} int_r^T k_H(s, r) ds, on the cumulative
    rule of this module with a 256-node end rule on [max(r/T, 1/2), 1]: a lone r needs that
    many (32 are 3.5e-12 off at H = 0.05, r = 0.3)."""
    _check_hurst(h)
    h, T = float(h), check_horizon(T)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((r_arr > 0.0) & (r_arr < T)):  # NaN fails too
        raise DomainError("optimal_volatility requires finite 0 < r < T (singular at r = 0)")
    if r_arr.size == 0:
        return np.empty(r_arr.shape)
    flat = r_arr.ravel()
    out = T ** (h - 0.5) * _forward_rho(_unit_row(MolchanGolosov(h=h)), flat / T,
                                        (T - flat) / T, 256)
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
    scale = T ** (2.0 * h + 1.0)

    def rule(g: QuadratureGrid) -> MartingaleApproxResult:
        r_nodes, _ = graded_midpoint(0.0, T, g.n_s, gamma)
        nodes = _unit_rule_size(g.n_s)
        s, d, w = _graded_unit_nodes(-2.0 * row.p0, 2.0 * h, nodes)
        rho1 = _forward_rho(row, np.concatenate([r_nodes / T, s]),
                            np.concatenate([(T - r_nodes) / T, d]), _END_NODES)
        dist = scale * (1.0 / (2.0 * h + 1.0) - float(w @ (d * rho1[r_nodes.size:] ** 2)))
        return MartingaleApproxResult(r_nodes, T ** (h - 0.5) * rho1[:r_nodes.size],
                                      _clamped_at_zero(dist, scale / (2.0 * h + 1.0)), h, T,
                                      {"distance_nodes": nodes})
    return _run_with_crosscheck(rule, grid or QuadratureGrid())
