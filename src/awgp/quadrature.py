"""Graded quadrature rules for kernel integrals with endpoint singularities.

* a composite midpoint rule on a mesh graded by a power law toward its left end: the 2-D
  distance core, the martingale table's nodes, ``triangular_integral`` and the first cell of
  the Monte Carlo kernel matrix;
* Gauss-Legendre panels on that mesh: the fOU kernel's inner integral, the other cells;
* the two-ended graded unit rule, order-16 Gauss panels that take a known power at each end
  of [0, 1] exactly: the self-similar, cumulative and martingale 1-D rules and
  ``kernels.covariance``;
* the scan that chains panel integrals into cumulative ones (fOU inner integral, 1-D rules).

No node touches an interval end, so singularities at s = 0 and t = s are never sampled.
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
    """Mesh grading for an integrand ~ x^(-alpha) at the graded endpoint.

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


def graded_midpoint(a: float, b: float, n: int, gamma: float = 2.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the cells of [a, b] with edges a + (b - a) (i/n)^gamma,
    i = 0..n: a composite midpoint rule graded toward a."""
    if b <= a:
        raise DomainError("empty integration range")
    edges = a + (b - a) * (np.arange(n + 1) / n) ** gamma
    return 0.5 * (edges[1:] + edges[:-1]), np.diff(edges)


def graded_gauss(a: float, b: float, n_panels: int, order: int = 4,
                 gamma: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels of ``order`` nodes on the cells of :func:`graded_midpoint`."""
    mid, width = graded_midpoint(a, b, n_panels, gamma)
    x, w = roots_legendre(order)
    half = 0.5 * width[:, None]
    return (mid[:, None] + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def _unit_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X16, _W16 = _unit_gauss(16)


def _graded_unit_nodes(beta0: float, beta1: float, n: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s, offsets d = 1 - s and weights of a rule on [0, 1] for an integrand that behaves
    as s^beta0 at s -> 0 and as d^beta1 at s -> 1: max(n // 16, 2) order-16 Gauss-Legendre
    panels, graded by 1/4 toward both ends; an end's innermost panel [0, eps] takes eps v^p,
    p = q/(beta+1) (the power now v^(q-1)), q = 4 unless p would pass 12, down to q = 1: a
    steeper p pushes the next powers beyond the panel's degree.  The s -> 1 half is built as
    offsets, so d is exact where s rounds to 1."""
    x, w = _X16, _W16
    n = 16 * max(n // 16, 2)
    m0 = n // 16 - n // 32  # panels at the s -> 0 end, n // 32 at the s -> 1 end
    levels = [np.arange(m) * min(1.0, 60.0 / m) for m in (m0, n // 32)]  # past 60 the ratio widens
    edges = 0.5 * 0.25 ** np.concatenate(levels)  # distances of both ends' panel edges to the end
    span = edges[:-1, None] - edges[1:, None]
    u, wu = np.empty((2, edges.size, 16))  # one row per panel; each end's last is set below
    u[:-1], wu[:-1] = edges[1:, None] + span * x, span * w
    for i, beta in ((m0 - 1, beta0), (-1, beta1)):  # each end's innermost panel
        q = min(4, max(1, int(12.0 * (beta + 1.0))))
        p = min(q / (beta + 1.0), 100.0)  # the cap keeps eps v^p a normal float
        u[i], wu[i] = edges[i] * x ** p, edges[i] * p * x ** (p - 1.0) * w
    return (np.concatenate([u[:m0], 1.0 - u[m0:]], axis=None),
            np.concatenate([1.0 - u[:m0], u[m0:]], axis=None), wu.ravel())


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
