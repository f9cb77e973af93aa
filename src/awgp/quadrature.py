"""Graded quadrature rules for kernel integrals with endpoint singularities.

* a composite midpoint rule on a graded mesh (nodes clustered at one or both
  endpoints with a power-law grading), the continuous distance core's one
  rule,
* composite Gauss-Legendre panels on a graded mesh, and
* the scan that chains panel integrals into cumulative ones.

Midpoint and graded nodes never touch the interval endpoints, so kernel
singularities at s = 0 and on the diagonal t = s are never sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, check_count

__all__ = ["QuadratureGrid", "graded_midpoint", "graded_gauss", "grading_exponent",
           "linear_scan"]


def grading_exponent(alpha: float, h_min: float = 0.5) -> float:
    """Mesh grading for an integrand ~ x^(-alpha) at the clustered endpoint.

    The baseline 2 / (h_min + 1/2) resolves diagonal kinks of fractional
    kernels; when the endpoint power alpha is known, the exponent is raised
    so the transformed integrand stays smooth (alpha must be < 1 for the
    integral to exist at all), up to 40.
    """
    base = 2.0 / (h_min + 0.5)
    if alpha <= 0.0:
        return base
    if alpha >= 1.0:
        raise DomainError("endpoint exponent must be < 1 for integrability")
    return min(max(base, 2.5 / (1.0 - alpha)), 40.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Resolution record shared by the distance and simulation code.

    ``n_s`` outer (s-integral) nodes and ``n_t`` inner (t-integral) nodes per
    s-node.  Mesh grading follows from the kernels (``grading_exponent``); a
    singular intensity measure brings its own cells (``IntensityMeasure.cells``).
    With ``crosscheck_rtol`` set, continuous distances are recomputed on the
    same rule at half ``n_s`` and ``n_t`` (at least 4 each) and must agree to
    that relative tolerance of the trace term.
    """

    n_s: int = 256
    n_t: int = 256
    crosscheck_rtol: float | None = None

    def __post_init__(self):
        check_count(self.n_s, "grid n_s")
        check_count(self.n_t, "grid n_t")
        rtol = self.crosscheck_rtol
        if rtol is not None and not (math.isfinite(rtol) and rtol > 0.0):
            raise DomainError(f"crosscheck_rtol must be None or finite and > 0, got {rtol!r}")

    def meta(self) -> dict:
        return {"n_s": self.n_s, "n_t": self.n_t}


def _graded_edges(a: float, b: float, n: int, gamma: float, cluster: str) -> np.ndarray:
    if b <= a:
        raise DomainError("empty integration range")
    u = (np.arange(n + 1) / n) ** gamma
    if cluster == "left":
        return a + (b - a) * u
    if cluster == "both":
        half = n // 2
        left = a + (b - a) / 2.0 * (np.arange(half + 1) / half) ** gamma
        right = b - (b - a) / 2.0 * ((np.arange(n - half, -1, -1)) / (n - half)) ** gamma
        return np.concatenate([left, right[1:]])
    raise DomainError(f"unknown cluster mode {cluster!r}")


def graded_midpoint(a: float, b: float, n: int, gamma: float = 2.0,
                    cluster: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and weights of a composite midpoint rule on a graded mesh."""
    edges = _graded_edges(a, b, n, gamma, cluster)
    return 0.5 * (edges[1:] + edges[:-1]), np.diff(edges)


def graded_gauss(a: float, b: float, n_panels: int, order: int = 4,
                 gamma: float = 2.0, cluster: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre panels on a graded mesh."""
    edges = _graded_edges(a, b, n_panels, gamma, cluster)
    x, w = roots_legendre(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def linear_scan(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """f with f_j = q_j + c_j f_(j-1), f_(-1) = 0 (a link c_j = 0 starts a chain at j), by
    recursive doubling (Blelloch, "Prefix sums and their applications", 1990): ceil(log2 n)
    vectorised passes.  A reverse recurrence is this scan of reversed views.  Stacked
    recurrences, q of shape (..., n), share the links c along the last axis."""
    f, c = q.copy(), c.copy()
    step = 1
    while step < c.size:
        f[..., step:] += c[step:] * f[..., :-step]
        c[step:] *= c[:-step]
        step *= 2
    return f
