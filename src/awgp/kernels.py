"""Volterra kernels, intensity measures, and canonical process specifications.

A Gaussian process enters the library through its canonical representation:
an ordered list of (kernel, intensity measure) pairs.  Each kernel k(t, s)
vanishes for s > t (causality); ``_on_times`` alone knows this support, so
every kernel core is written for 0 <= s <= t.  Fractional kernels are
singular at s = 0 and, for H < 1/2, on the diagonal: s = 0 raises for the
Molchan-Golosov kernel and the fOU kernel on that base, and a divergent
diagonal is 0 by convention.  Quadrature callers use midpoint/graded nodes
and never sample those points.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import gammainc, hyp1f1

from .errors import (ConvergenceError, DomainError, MeasureOrderingError, SingularityError,
                     check_count, check_horizon, shared_horizon)
# graded_midpoint goes unused here: the benchmark tracer binds it by name
from .quadrature import (QuadratureGrid, _graded_unit_nodes, graded_gauss,  # noqa: F401
                         graded_midpoint, linear_scan)
from .specfun import gamma_fn, hyp2f1

__all__ = [
    "VolterraKernel",
    "MolchanGolosov",
    "RiemannLiouville",
    "FractionalOU",
    "Brownian",
    "ConstantVolatility",
    "Tabulated",
    "CallableKernel",
    "IntensityMeasure",
    "GaussianProcessSpec",
    "eval_mg_kernel",
    "eval_rl_kernel",
    "eval_fou_kernel",
    "covariance",
    "cantor_function",
    "load_tabulated_csv",
]


def _check_hurst(h: float) -> None:
    if not 0.0 < h < 1.0:
        raise DomainError(f"Hurst parameter must lie in (0, 1), got {h}")


def _on_times(core, t, s, singular_name: str | None = None):
    """``core(t, s)`` on t and s broadcast together: a float for scalar input, else a fresh
    array of the broadcast shape.  The times must be finite and nonnegative, and s = 0 raises
    a SingularityError for a kernel named by ``singular_name``.  The support is known here
    alone: the core sees only points with 0 <= s <= t, all at once when every point is on it,
    and never an empty set; the kernel is 0 wherever s > t.
    """
    t_arr, s_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    # one reduction per bound and array; a NaN propagates, so it fails the first test
    if not (t_arr.min(initial=0.0) >= 0.0 and s_arr.min(initial=0.0) >= 0.0):
        raise DomainError("times must be nonnegative")
    if not (t_arr.max(initial=0.0) < np.inf and s_arr.max(initial=0.0) < np.inf):
        raise DomainError("times must be finite")
    if singular_name and np.any(s_arr == 0.0):
        raise SingularityError(f"{singular_name} is singular at s = 0; use interior nodes")
    t1, s1 = np.atleast_1d(t_arr), np.atleast_1d(s_arr)
    on = s1 <= t1
    if t1.size and on.all():
        out = core(t1, s1)
    else:
        out = np.zeros(t1.shape)
        if on.any():
            out[on] = core(t1[on], s1[on])
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def _diag_power(d: np.ndarray, expo: float) -> np.ndarray:
    """d^expo for d = t - s >= 0, with 0^0 = 1 (H = 1/2) and a divergent diagonal set to 0."""
    with np.errstate(divide="ignore"):
        power = d ** expo
    if expo < 0.0 and d.min() == 0.0:
        power[d == 0.0] = 0.0
    return power


def _mg_const(h: float) -> float:
    """Normalization making the represented fBM have Var B_H(1) = 1.

    Replaces the bare 1/Gamma(H + 1/2) prefactor, which reproduces the
    covariance only up to the factor Gamma(2-2H) cos(pi H) / (pi H (1-2H));
    equals 1 at H = 1/2.
    """
    return math.sqrt(2.0 * h * gamma_fn(1.5 - h) / (gamma_fn(h + 0.5) * gamma_fn(2.0 - 2.0 * h)))


def _mg_core(h: float, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Molchan-Golosov kernel for 0 < s <= t only (0 on a divergent diagonal); no validation."""
    return _mg_at(h, 1.0 - t / s, t - s)


def _mg_at(h: float, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Molchan-Golosov kernel from z = 1 - t/s and d = t - s >= 0 (or z = -d/s, exact where
    t would round to s) on flat arrays; no validation."""
    f = np.atleast_1d(hyp2f1(h - 0.5, 0.5 - h, h + 0.5, z))
    del z  # the caller holds no other reference: free it before the power's temporaries
    return f * _diag_power(d, h - 0.5) * _mg_const(h)


def eval_mg_kernel(h: float, t, s):
    """Molchan-Golosov kernel k_H(t, s); 0 for s > t.

    Accepts scalars or broadcastable arrays.  Raises SingularityError when
    s = 0 is requested pointwise: the kernel blows up as s -> 0, and every
    integral in the library uses interior nodes instead.
    """
    _check_hurst(h)
    return _on_times(partial(_mg_core, h), t, s, "Molchan-Golosov kernel")


def _rl_at(h: float, d: np.ndarray) -> np.ndarray:
    """Riemann-Liouville kernel from d = t - s >= 0 on flat arrays; no validation."""
    return _diag_power(d, h - 0.5) / gamma_fn(h + 0.5)


def eval_rl_kernel(h: float, t, s):
    """Riemann-Liouville kernel (t - s)^(H - 1/2) / Gamma(H + 1/2); 0 for s > t."""
    _check_hurst(h)
    return _on_times(lambda t, s: _rl_at(h, t - s), t, s)


def _fou_rate(lam: float, base: str, convention: str, n_inner: int) -> float:
    """Rate a with which lam enters the fOU kernel; rejects bad lam, n_inner, base or convention."""
    if not math.isfinite(lam):
        raise DomainError(f"fOU rate lam must be finite, got {lam}")
    if check_count(n_inner, "fOU node count", 8) % 4:
        raise DomainError(f"fOU node count must be a multiple of 4, got {n_inner!r}")
    if base not in ("mg", "rl"):
        raise DomainError(f"fOU base kernel must be 'mg' or 'rl', got {base!r}")
    if base == "rl" and n_inner != 64:  # the node count is the 'mg' base's inner rule
        raise DomainError(f"fOU base 'rl' is in closed form: n_inner must stay 64, got {n_inner!r}")
    if convention not in ("mild", "forward"):
        raise DomainError(f"fOU convention must be 'mild' or 'forward', got {convention!r}")
    return lam if convention == "forward" else -lam


def _fou_core(h: float, lam: float, t: np.ndarray, s: np.ndarray,
              n_inner: int, base: str, convention: str) -> np.ndarray:
    a = _fou_rate(lam, base, convention, n_inner)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        if base == "rl":
            # k_RL(d) + a int_0^d e^(a (d - u)) k_RL(u) du, d = t - s: by incomplete gamma for a > 0
            # (scipy's hyp1f1 is up to 7e-10 off near H = 0.6, a d = 2.24), else by DLMF 13.4.1
            d = t - s
            if a > 0.0:
                out = _rl_at(h, d) + a ** (0.5 - h) * np.exp(a * d) * gammainc(h + 0.5, a * d)
            else:
                out = _rl_at(h, d) * hyp1f1(1.0, h + 0.5, a * d)
        else:
            out = _mg_core(h, t, s)
            if a != 0.0:
                out += a * _fou_inner(h, a, t.ravel(), s.ravel(), n_inner).reshape(t.shape)
    if not math.isfinite(out.sum()):  # one reduction: any inf or NaN makes the sum so
        raise ConvergenceError(f"fOU kernel overflows the float range at rate lam = {lam}")
    return out


def _fou_inner(h: float, a: float, t: np.ndarray, s: np.ndarray, n_inner: int) -> np.ndarray:
    """I(t, s) = int_s^t exp(a (t - r)) k_MG(r, s) dr for 0 < s <= t, on flat arrays: the
    fOU kernel's inner integral on the Molchan-Golosov base (the RL base is in closed form).

    Points sharing an s are taken in increasing t and chained by the Volterra
    recursion I(t_j) = exp(a (t_j - t_{j-1})) I(t_{j-1}) + the integral over
    [t_{j-1}, t_j], that panel on a 4-node Gauss-Legendre rule.  A point whose
    panel lies closer to s than its own length, where the integrand's r = s
    singularity is still near, is integrated directly over [s, t] on nodes
    graded toward r = s and starts a new chain, a point alone on its s too.
    A chain start's error is carried to every later point of the chain, so it
    gets 2 * n_inner nodes with the grading steepened to the 4-node rule's
    order.  :func:`~awgp.quadrature.linear_scan` sums the chains, a link 0 at
    each start.  Points already in (s, t) order, as the distance core lays
    them out, are not sorted.  Only differences of t enter an exponential, so
    a large |a| T cannot overflow a mild (a < 0) kernel.  A diagonal point
    integrates an empty range to exactly 0 and chains to no later point.
    """
    ds = np.diff(s)
    order = np.lexsort((t, s)) if np.any((ds < 0) | (ds == 0) & (np.diff(t) < 0)) else slice(None)
    t, s = t[order], s[order]
    t_prev = np.concatenate([[0.0], t[:-1]])
    chained = np.concatenate([[False], s[1:] == s[:-1]]) & (t_prev - s >= t - t_prev)
    lo = np.where(chained, t_prev, s)
    rules = [
        (~chained, graded_gauss(0.0, 1.0, n_inner // 2, order=4, gamma=6.0 / (h + 0.5))),
        (chained, graded_gauss(0.0, 1.0, 1, order=4, gamma=1.0)),
    ]
    acc = np.empty(t.shape)
    for sel, (u, w) in rules:
        if not sel.any():
            continue  # no chained point: the base core gets no empty input
        span = (t - lo)[sel, None]
        r = lo[sel, None] + span * u[None, :]
        k_r = _mg_core(h, r.ravel(), np.repeat(s[sel], u.size)).reshape(r.shape)
        acc[sel] = np.sum(np.exp(a * (t[sel, None] - r)) * k_r * (span * w[None, :]), axis=1)

    link = np.zeros(t.shape)
    np.exp(a * (t - t_prev), out=link, where=chained)
    out = np.empty(t.shape)
    out[order] = linear_scan(acc, link)
    return out


def eval_fou_kernel(h: float, lam: float, t, s, quad_nodes: int = 64,
                    base: str = "mg", convention: str = "mild"):
    """Canonical kernel of the fractional Ornstein-Uhlenbeck process.

    k(t, s) = k_base(t, s) + a * int_s^t exp(a (t - r)) k_base(r, s) dr,
    where the sign convention fixes how the rate enters: ``mild`` uses
    a = -lam (solution kernel of dX = -lam X dt + dZ) and ``forward`` uses
    a = +lam (solution kernel of dX = +lam X dt + dZ).  Exactly one of the
    two reproduces a simulated OU driven with drift -lam * x; the Monte
    Carlo probe in the acceptance suite records which (it is ``mild``).
    At lam = 0 both reduce to the base kernel.  The ``rl`` base is in closed
    form: ``quad_nodes`` sets the inner rule of the ``mg`` base only.
    """
    _check_hurst(h)
    core = partial(_fou_core, h, lam, n_inner=quad_nodes, base=base, convention=convention)
    return _on_times(core, t, s, "fOU kernel with Molchan-Golosov base" if base == "mg" else None)


@dataclass(frozen=True)
class VolterraKernel:
    """Base class: a causal kernel k(t, s) on [0, T]^2, zero for s > t."""

    T: float = 1.0

    kind = "abstract"

    @property
    def grading_hurst(self) -> float:
        """Hurst-like exponent controlling mesh grading (0.5 when smooth)."""
        return 0.5

    @property
    def diag_exponent(self) -> float:
        """Power-law exponent of k(t, s) in (t - s) as t -> s+."""
        return 0.0

    @property
    def origin_exponent(self) -> float:
        """Power-law exponent alpha with k(t, s) ~ s^(-alpha) as s -> 0."""
        return 0.0

    def eval(self, t, s):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class _Fractional(VolterraKernel):
    """Kernel with Hurst index h; each subclass brings its own ``kind`` and ``eval``."""

    h: float = 0.5

    def __post_init__(self):
        _check_hurst(self.h)

    @property
    def grading_hurst(self) -> float:
        return self.h

    @property
    def diag_exponent(self) -> float:
        return self.h - 0.5


@dataclass(frozen=True)
class MolchanGolosov(_Fractional):
    kind = "molchan_golosov"

    @property
    def origin_exponent(self) -> float:
        return abs(self.h - 0.5)

    def eval(self, t, s):
        return eval_mg_kernel(self.h, t, s)


@dataclass(frozen=True)
class RiemannLiouville(_Fractional):
    kind = "riemann_liouville"

    @property
    def origin_exponent(self) -> float:
        return max(0.5 - self.h, 0.0)

    def eval(self, t, s):
        return eval_rl_kernel(self.h, t, s)


@dataclass(frozen=True)
class FractionalOU(_Fractional):
    """fOU kernel (:func:`eval_fou_kernel`); ``n_inner`` sets the ``mg`` base's inner rule only."""

    h: float = 0.7
    lam: float = 1.0
    base: str = "mg"
    convention: str = "mild"
    n_inner: int = 64
    kind = "fou"

    def __post_init__(self):
        super().__post_init__()
        _fou_rate(self.lam, self.base, self.convention, self.n_inner)

    @property
    def origin_exponent(self) -> float:
        return abs(self.h - 0.5) if self.base == "mg" else max(0.5 - self.h, 0.0)

    def eval(self, t, s):
        return eval_fou_kernel(self.h, self.lam, t, s, quad_nodes=self.n_inner,
                               base=self.base, convention=self.convention)


@dataclass(frozen=True)
class Brownian(VolterraKernel):
    kind = "brownian"

    def eval(self, t, s):
        return _on_times(lambda t, s: np.ones(t.shape), t, s)


@dataclass(frozen=True)
class ConstantVolatility(VolterraKernel):
    """Martingale kernel k(t, s) = rho(s) 1{s <= t}: volatility varies in s only."""

    rho: Callable[[np.ndarray], np.ndarray] = field(default=lambda s: np.ones_like(s))
    kind = "constant_volatility"

    def eval(self, t, s):
        # a fresh float array of the points' shape, also when rho returns a scalar or s itself
        return _on_times(lambda t, s: np.array(np.broadcast_to(self.rho(s), s.shape), float), t, s)


@dataclass(frozen=True)
class Tabulated(VolterraKernel):
    """Kernel given on a rectangular (t, s) grid, bilinearly interpolated."""

    t_grid: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    s_grid: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    values: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    kind = "tabulated"

    def __post_init__(self):
        t_g, s_g = np.asarray(self.t_grid, float), np.asarray(self.s_grid, float)
        vals = np.asarray(self.values, float)
        if np.any(np.diff(t_g) <= 0) or np.any(np.diff(s_g) <= 0):
            raise DomainError("tabulated kernel grids must be strictly increasing")
        if vals.shape != (t_g.size, s_g.size):
            raise DomainError("tabulated kernel values must be shaped (len(t_grid), len(s_grid))")
        above = s_g[None, :] > t_g[:, None]
        if np.any(vals[above] != 0.0):
            raise DomainError("tabulated kernel must vanish for s > t")

    def eval(self, t, s):
        return _on_times(self._bilinear, t, s)

    def _bilinear(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        t_g, s_g = np.asarray(self.t_grid, float), np.asarray(self.s_grid, float)
        vals = np.asarray(self.values, float)
        tc = np.clip(t, t_g[0], t_g[-1])
        sc = np.clip(s, s_g[0], s_g[-1])
        i = np.clip(np.searchsorted(t_g, tc) - 1, 0, t_g.size - 2)
        j = np.clip(np.searchsorted(s_g, sc) - 1, 0, s_g.size - 2)
        ft = (tc - t_g[i]) / (t_g[i + 1] - t_g[i])
        fs = (sc - s_g[j]) / (s_g[j + 1] - s_g[j])
        return (vals[i, j] * (1 - ft) * (1 - fs) + vals[i + 1, j] * ft * (1 - fs)
                + vals[i, j + 1] * (1 - ft) * fs + vals[i + 1, j + 1] * ft * fs)


@dataclass(frozen=True)
class CallableKernel(VolterraKernel):
    """Escape hatch wrapping an arbitrary vectorized k(t, s), called at points with
    s <= t only; the kernel is 0 elsewhere.  Meshes grade it as a smooth kernel."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(default=lambda t, s: np.ones_like(t))
    kind = "callable"

    def eval(self, t, s):
        return _on_times(lambda t, s: np.array(np.broadcast_to(self.fn(t, s), t.shape), float),
                         t, s)


def _same_kernels(ks1: Sequence[VolterraKernel], ks2: Sequence[VolterraKernel]) -> bool:
    """Equal by value, component by component.  The dataclass ``==`` raises on array fields
    (a ``Tabulated`` grid), so each field is compared with ``np.array_equal``."""
    return len(ks1) == len(ks2) and all(
        a is b or (type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                              for f in fields(a)))
        for a, b in zip(ks1, ks2))


class _UnitRow(NamedTuple):
    """Row k(1, s) of a kernel homogeneous under time scaling, k(ct, cs) = c^(h - 1/2) k(t, s).

    ``at(s, d)`` evaluates it on flat arrays of s and d = 1 - s; it behaves as s^-p0 at
    s -> 0 and as d^(h - 1/2) at s -> 1, and ``sq`` = int_0^1 k(1, s)^2 ds.
    """

    h: float
    p0: float
    sq: float
    at: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _unit_row(kernel: VolterraKernel) -> _UnitRow | None:
    """The row of a Molchan-Golosov, Riemann-Liouville or Brownian kernel; None for any other."""
    kind = type(kernel)
    if kind is MolchanGolosov:
        h = float(kernel.h)
        return _UnitRow(h, abs(h - 0.5), 1.0, lambda s, d: _mg_at(h, -d / s, d))
    if kind is RiemannLiouville:
        h = float(kernel.h)
        return _UnitRow(h, 0.0, 1.0 / (2.0 * h * gamma_fn(h + 0.5) ** 2), lambda s, d: _rl_at(h, d))
    if kind is Brownian:
        return _UnitRow(0.5, 0.0, 1.0, lambda s, d: np.ones(s.shape))
    return None


def _conv_profile(kernel: VolterraKernel) -> Callable[[np.ndarray], np.ndarray] | None:
    """phi with k(t, s) = phi(t - s), on flat offsets, of a Riemann-Liouville or RL-base fOU
    kernel (its value at s = 0); None for any other."""
    if type(kernel) is RiemannLiouville or type(kernel) is FractionalOU and kernel.base == "rl":
        return lambda d: kernel.eval(d, np.zeros(d.shape))
    return None


def load_tabulated_csv(path, T: float | None = None) -> Tabulated:
    """Load a tabulated kernel from CSV with header ``t,s,value``.

    Grid coordinates must be strictly increasing and form a full rectangle;
    values at s > t must be 0 (validated).
    """
    ts, ss, vs = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["t", "s", "value"]:
            raise DomainError("tabulated kernel CSV must have header 't,s,value'")
        for row in reader:
            ts.append(float(row[0])); ss.append(float(row[1])); vs.append(float(row[2]))
    t_grid = np.unique(ts)
    s_grid = np.unique(ss)
    if len(ts) != t_grid.size * s_grid.size:
        raise DomainError("tabulated kernel CSV must cover a full rectangular grid")
    values = np.zeros((t_grid.size, s_grid.size))
    ti = np.searchsorted(t_grid, ts)
    si = np.searchsorted(s_grid, ss)
    values[ti, si] = vs
    return Tabulated(T=T if T is not None else float(t_grid[-1]),
                     t_grid=t_grid, s_grid=s_grid, values=values)


# ---------------------------------------------------------------------------
# intensity measures
# ---------------------------------------------------------------------------

def cantor_function(t):
    """Cantor function F(t) on [0, 1], from the ternary expansion (52 digits).

    The digit ladder runs in 64-bit integer arithmetic (t scaled by 2^60), so
    no rounding error accumulates across digits; only the initial binary
    representation of t and the 52-digit truncation (both below 1e-15) limit
    the accuracy.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("cantor_function requires t in [0, 1]")
    shift = 60
    den = np.int64(1) << shift
    m = np.round(np.ldexp(arr, shift)).astype(np.int64)
    out = np.zeros(arr.shape)
    done = m >= den  # t == 1 exactly
    out[done] = 1.0
    scale = 1.0
    # remainders within the input's own representation error of a digit
    # boundary are snapped onto it, so floats standing for rationals like
    # 1/3 land exactly on their plateau value; the tolerance grows with the
    # initial error (x3 per digit) and is capped so exact inputs are safe
    tol = np.int64(192)
    max_tol = np.int64(1) << 46
    for _ in range(52):
        scale *= 0.5
        m = 3 * m
        d = m >> shift
        m -= d << shift
        if tol <= max_tol:
            near_low = m <= tol
            near_high = (den - m <= tol) & (d < 2)
            d = np.where(near_high, d + 1, d)
            m = np.where(near_low | near_high, np.int64(0), m)
            tol *= 3
        hit_mid = ~done & (d == 1)
        out[hit_mid] += scale
        done = done | hit_mid
        live = ~done
        out[live] += np.where(d[live] == 2, scale, 0.0)
        done = done | (m == 0)  # terminating expansion: all later digits are 0
        if np.all(done):
            break
    return float(out[0]) if (np.isscalar(t) or np.asarray(t).ndim == 0) else out.reshape(np.shape(t))


def _lebesgue_density(s: np.ndarray) -> np.ndarray:
    return np.ones_like(s)


@dataclass(frozen=True)
class IntensityMeasure:
    """Quadratic-variation measure of a driving Gaussian martingale on [0, T].

    Either absolutely continuous with the given density, or singular with the
    tag "cantor" and no density (only the Cantor measure is implemented); any
    other construction raises DomainError.  Geometric means between a singular
    measure and an absolutely continuous one vanish identically.
    """

    density: Callable[[np.ndarray], np.ndarray] | None = None
    singular_tag: str | None = None
    name: str = "lebesgue"

    def __post_init__(self):
        if (self.density is None, self.singular_tag) not in ((False, None), (True, "cantor")):
            raise DomainError(f"measure '{self.name}' needs a density or the singular tag "
                              f"'cantor', exactly one (tag {self.singular_tag!r})")

    @classmethod
    def lebesgue(cls) -> "IntensityMeasure":
        return cls(density=_lebesgue_density, name="lebesgue")

    @classmethod
    def from_density(cls, fn: Callable[[np.ndarray], np.ndarray], name: str = "custom") -> "IntensityMeasure":
        return cls(density=fn, name=name)

    @classmethod
    def cantor(cls) -> "IntensityMeasure":
        return cls(density=None, singular_tag="cantor", name="cantor")

    @property
    def is_singular(self) -> bool:
        return self.singular_tag is not None

    @property
    def is_lebesgue(self) -> bool:
        """Built by :meth:`lebesgue`, known by its density: ``name`` defaults to "lebesgue"
        whatever the density."""
        return self.density is _lebesgue_density

    def density_at(self, s: np.ndarray) -> np.ndarray:
        if self.is_singular:
            raise DomainError(f"measure '{self.name}' has no density")
        rho = np.asarray(self.density(np.asarray(s, dtype=float)), dtype=float)
        if not np.all(rho >= 0.0):  # NaN fails too
            raise DomainError("intensity density must be nonnegative")
        return rho

    def cells(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints and masses of the cells that carry a singular measure, in increasing
        order: Stieltjes nodes and weights for a rule of ``n`` nodes.  The Cantor measure
        gives its 2^k level-k triadic intervals, each of mass 2^-k, with 2^k >= 8 n."""
        level = (8 * n - 1).bit_length()
        left = np.zeros(1)
        for _ in range(level):
            left = np.concatenate([left / 3.0, left / 3.0 + 2.0 / 3.0])
        return left + 0.5 * 3.0 ** -level, np.full(left.size, 0.5 ** level)


@dataclass(frozen=True)
class GaussianProcessSpec:
    """Canonical representation: ordered (kernel, measure) pairs on [0, T]."""

    components: Sequence[tuple[VolterraKernel, IntensityMeasure]]
    T: float

    def __post_init__(self):
        check_horizon(self.T)
        if len(self.components) < 1:
            raise DomainError("a process spec needs at least one component")
        for k, _ in self.components:
            shared_horizon(k.T, self.T, "a component kernel and its spec")

    @property
    def multiplicity(self) -> int:
        return len(self.components)

    def validate_ordering(self) -> None:
        """Check mu^1 >> mu^2 >> ... by density support (above 1e-12) at 256 points of (0, T]."""
        if self.multiplicity == 1:
            return
        if any(m.is_singular for _, m in self.components):
            raise MeasureOrderingError("higher-multiplicity specs require absolutely continuous measures")
        s = np.linspace(0.0, self.T, 257)[1:]
        prev = self.components[0][1].density_at(s)
        for _, meas in list(self.components)[1:]:
            cur = meas.density_at(s)
            bad = (prev <= 1e-12) & (cur > 1e-12)
            if np.any(bad):
                raise MeasureOrderingError(
                    f"measure ordering violated at s = {s[bad][0]:.6g}")
            prev = cur


def fbm_spec(h: float, T: float = 1.0) -> GaussianProcessSpec:
    """Fractional Brownian motion as a unit-multiplicity canonical spec."""
    return GaussianProcessSpec(components=[(MolchanGolosov(T=T, h=h), IntensityMeasure.lebesgue())], T=T)


def fou_spec(h: float, lam: float, T: float = 1.0, base: str = "mg",
             convention: str = "mild") -> GaussianProcessSpec:
    """Centered fractional Ornstein-Uhlenbeck process as a canonical spec."""
    kernel = FractionalOU(T=T, h=h, lam=lam, base=base, convention=convention)
    return GaussianProcessSpec(components=[(kernel, IntensityMeasure.lebesgue())], T=T)


def cantor_martingale_spec(T: float = 1.0) -> GaussianProcessSpec:
    """Gaussian martingale with the Cantor function as quadratic variation."""
    if abs(T - 1.0) > 1e-12:
        raise DomainError("the Cantor martingale is defined on [0, 1]")
    return GaussianProcessSpec(components=[(Brownian(T=T), IntensityMeasure.cantor())], T=T)


def covariance(kernel: VolterraKernel, measure: IntensityMeasure, t: float, s: float,
               grid: QuadratureGrid | None = None) -> float:
    """R(t, s) = int_0^m k(t, r) k(s, r) density(r) dr, m = min(t, s), on the two-ended graded
    unit rule scaled to [0, m], its ends taking the kernel's powers r^(-2 origin_exponent) and
    (m - r)^diag_exponent, doubled at t = s: 16 max(n_t // 16, 2) nodes, at least 32.  At the
    default grid fBM and RL covariances meet their closed forms to 1e-9 relative; the variance
    at H < 0.3 only to 1e-8 (H = 0.25) to 3e-2 (H = 0.05): its last nodes lie closer to t than
    t - r resolves."""
    if measure.is_singular:
        raise DomainError("covariance by quadrature requires an absolutely continuous measure")
    if not (t >= 0.0 and s >= 0.0):  # NaN fails too
        raise DomainError(f"covariance times must be >= 0, got t={t}, s={s}")
    grid = grid or QuadratureGrid()
    upper = min(t, s)
    if upper <= 0.0:
        return 0.0
    u, _, w = _graded_unit_nodes(-2.0 * kernel.origin_exponent,
                                 kernel.diag_exponent * (2.0 if t == s else 1.0), grid.n_t)
    r, w = upper * u, upper * w
    vals = kernel.eval(np.full_like(r, t), r) * kernel.eval(np.full_like(r, s), r)
    return float(np.sum(vals * measure.density_at(r) * w))
