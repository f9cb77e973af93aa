"""Coupled simulation of Gaussian Volterra noises and fractional SDEs.

The driving noises are built from explicit Brownian increments through the
kernel, Z(t_m) = sum_{j<m} A[m, j] dW_j with A[m, j] the per-cell RMS kernel
value, so a coupling control rho(t) acts directly on the increments:
dW_2 = rho dW_1 + sqrt(1-rho^2) dW~.  An exact-Cholesky generator would
reproduce joint laws better per step but exposes no increments for the
control to act on.

State recursions use the explicit Euler scheme, valid in the Young regime
(noise kernels with H > 1/2).  The kernel matrices are built once per call,
on the calling thread.  The unit of work is a block of _BLOCK paths: normals
from counter-based Philox streams keyed on (seed, stream, block), stream 1
(dW~) skipped when sqrt(1-rho^2) is 0 on every cell; the kernel matmul;
time-major Euler (one contiguous row per step, an admissibility scan per
_SCAN_STEPS steps); per-path costs.  A battery of controls shares each block's
stream-0 draw and spec-1 pass.  Blocks are reduced in index order, so results
are bit-for-bit reproducible for any number of worker threads; while more than
one runs, numpy's bundled OpenBLAS is held at one thread.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SimulationError, check_count, check_horizon, shared_horizon
from .kernels import IntensityMeasure, VolterraKernel, _same_kernels
from .quadrature import graded_gauss, graded_midpoint, grading_exponent

__all__ = [
    "FsdeSpec",
    "CouplingControl",
    "PathEnsemble",
    "CostEstimate",
    "AssumptionReport",
    "make_drift",
    "make_diffusion",
    "simulate_coupled_noise",
    "euler_fsde",
    "estimate_coupling_cost",
    "lamperti_transform",
    "lamperti_inverse",
    "lamperti_inverse_interpolator",
    "assumption_checker",
]

_BLOCK = 4096
_EXPLOSION = 1e12
_MIN_STEPS = 8
_SCAN_STEPS = 16  # Euler steps per admissibility scan
_MAP_ROWS = 16  # time steps per state-map call: its temporaries stay in cache


# ---------------------------------------------------------------------------
# drift / diffusion registry
# ---------------------------------------------------------------------------

def _increasing_table(xs, ys, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) as float arrays; raises DomainError unless the abscissae are 1-D, finite and
    strictly increasing, one per value.  np.interp needs that and does not check it."""
    xs_a, ys_a = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (xs_a.ndim == 1 and xs_a.shape == ys_a.shape and np.all(np.isfinite(xs_a))
            and np.all(np.diff(xs_a) > 0.0)):
        raise DomainError(f"{what} abscissae must be finite, strictly increasing and one per value")
    return xs_a, ys_a


def _tabulated_fn(xs: Sequence[float], ys: Sequence[float], what: str) -> Callable:
    """Piecewise-linear interpolant of a table with finite values, constant beyond its ends."""
    xs_a, ys_a = _increasing_table(xs, ys, what)
    if not (xs_a.size and np.all(np.isfinite(ys_a))):
        raise DomainError(f"{what} needs at least one value, each finite")
    return lambda x: np.interp(x, xs_a, ys_a)


def make_drift(spec) -> tuple[Callable, str]:
    """Build a drift function from a registry name or config dict."""
    if callable(spec):
        return spec, getattr(spec, "__name__", "custom")
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec["name"]
    if name == "zero":
        return (lambda x: np.zeros_like(np.asarray(x, dtype=float))), "zero"
    if name == "linear":
        a = float(spec.get("a", 1.0))
        return (lambda x: a * np.asarray(x, dtype=float)), f"linear({a})"
    if name == "tanh":
        return np.tanh, "tanh"
    if name == "tabulated":
        return _tabulated_fn(spec["x"], spec["y"], "drift table"), "tabulated"
    raise DomainError(f"unknown drift {name!r}")


def make_diffusion(spec) -> tuple[Callable, str]:
    """Build a diffusion function from a registry name or config dict."""
    if callable(spec):
        return spec, getattr(spec, "__name__", "custom")
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec["name"]
    if name == "const":
        c = float(spec.get("c", 1.0))
        return (lambda x: np.full_like(np.asarray(x, dtype=float), c)), f"const({c})"
    if name == "sin_offset":
        c = float(spec.get("c", 2.0))
        return (lambda x: c + np.sin(np.asarray(x, dtype=float))), f"sin_offset({c})"
    if name == "tabulated":
        return _tabulated_fn(spec["x"], spec["y"], "diffusion table"), "tabulated"
    raise DomainError(f"unknown diffusion {name!r}")


@dataclass(frozen=True)
class FsdeSpec:
    """1D SDE dX = b(X) dt + sigma(X) dZ driven by a Gaussian Volterra noise."""

    drift: Callable
    diffusion: Callable
    x0: float
    noise_kernel: VolterraKernel
    T: float
    drift_name: str = "custom"
    diffusion_name: str = "custom"


_CONSTANT_RHO = {"synchronous": 1.0, "antithetic": -1.0, "independent": 0.0}


@dataclass(frozen=True)
class CouplingControl:
    """Correlation control rho: [0, T] -> [-1, 1] between driving increments."""

    kind: str
    values: np.ndarray | None = None
    times: np.ndarray | None = None

    def __post_init__(self):
        if self.kind in _CONSTANT_RHO:
            if self.values is not None or self.times is not None:
                raise DomainError(f"the {self.kind} coupling takes no values or times")
            return
        if self.kind not in ("piecewise_constant", "tabulated"):
            raise DomainError(f"unknown control kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        # a NaN fails the bound, so it is rejected with the rest; None reads as NaN
        if not (vals.size and np.all(np.abs(vals) <= 1.0 + 1e-12)):
            raise DomainError("coupling correlation needs at least one value, each with |rho| <= 1")
        times, vals = _increasing_table(self.times, vals, f"{self.kind} coupling")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", vals)

    @classmethod
    def synchronous(cls) -> "CouplingControl":
        return cls(kind="synchronous")

    @classmethod
    def antithetic(cls) -> "CouplingControl":
        return cls(kind="antithetic")

    @classmethod
    def independent(cls) -> "CouplingControl":
        return cls(kind="independent")

    @classmethod
    def piecewise_constant(cls, values, T: float) -> "CouplingControl":
        vals = np.asarray(values, dtype=float)
        edges = np.linspace(0.0, check_horizon(T), vals.size + 1)[:-1]
        return cls(kind="piecewise_constant", values=vals, times=edges)

    @classmethod
    def tabulated(cls, times, values) -> "CouplingControl":
        return cls(kind="tabulated", values=values, times=times)

    def rho_at(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        if self.kind in _CONSTANT_RHO:
            return np.full_like(t_arr, _CONSTANT_RHO[self.kind])
        if self.kind == "piecewise_constant":
            # right-continuous on uniform cells: cell j applies from its left edge
            idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0, self.values.size - 1)
            return self.values[idx]
        return np.clip(np.interp(t_arr, self.times, self.values), -1.0, 1.0)

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.values is not None:
            d["values"] = np.asarray(self.values).tolist()
        return d


@dataclass
class PathEnsemble:
    """Simulated paths on a uniform grid, with their reproducibility record."""

    times: np.ndarray
    paths: np.ndarray  # (n_paths, M+1)
    seed: int
    substream_policy: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


@dataclass
class CostEstimate:
    """Monte Carlo estimate of the bicausal transport cost for one control."""

    mean: float
    std_error: float
    n_paths: int
    control: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CostEstimate":
        return cls(mean=float(d["mean"]), std_error=float(d["std_error"]),
                   n_paths=int(d["n_paths"]), control=dict(d.get("control", {})))


def _normals(seed: int, stream: int, block_index: int, shape: tuple[int, int]) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), stream, block_index))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.standard_normal(shape)


def _kernel_matrix(kernel: VolterraKernel, times: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """A[m, j] = per-cell RMS of k(t_m, .) over cell j, for j < m; shape (M+1, M).

    The root-mean-square value sqrt((1/dt) int_cell k(t_m, s)^2 ds) makes
    Var Z(t_m) = sum_j A[m, j]^2 dt reproduce the exact kernel L^2 norm, so
    the driving increments stay explicit (the coupling control acts on them
    directly) without the variance deficit a pointwise midpoint evaluation
    suffers on the singular first cell.  Away from the singular cells the
    RMS value coincides with the midpoint value to O(dt^2).
    """
    m_count, j_count = times.size, mids.size
    dt = times[1] - times[0]
    rows, cols = np.tril_indices(m_count, k=-1, m=j_count)  # cells j < m

    # in-cell quadrature: graded toward s = 0 in the first cell (kernel
    # origin singularity), a short Gauss panel elsewhere
    gamma0 = grading_exponent(min(2.0 * kernel.origin_exponent, 0.95), kernel.grading_hurst)
    u_plain, w_plain = graded_gauss(0.0, 1.0, 1, order=3, gamma=1.0, cluster="left")
    u_first, w_first = graded_midpoint(0.0, 1.0, 16, gamma=gamma0, cluster="left")

    out = np.zeros((m_count, j_count))
    for sel, u, w in ((cols > 0, u_plain, w_plain), (cols == 0, u_first, w_first)):
        r, c = rows[sel], cols[sel]
        s_nodes = times[c][:, None] + dt * u[None, :]
        t_nodes = np.broadcast_to(times[r][:, None], s_nodes.shape)
        vals = kernel.eval(t_nodes.ravel(), s_nodes.ravel()).reshape(s_nodes.shape)
        out[r, c] = np.sqrt(np.sum(vals * vals * w[None, :], axis=1))
    return out


def _cell_mass(measure: IntensityMeasure | None, mids: np.ndarray, dt: float) -> np.ndarray:
    if measure is None:
        return np.full(mids.shape, dt)
    return measure.density_at(mids) * dt  # DomainError for a singular measure


def _coupling(k1: VolterraKernel, k2: VolterraKernel, control: CouplingControl, T: float,
              n_steps: int, measure1: IntensityMeasure | None,
              measure2: IntensityMeasure | None) -> tuple:
    """(A1, A2, scale1, scale2, rho, mix) for one call's noise blocks: kernel matrices, sqrt cell
    masses and the control's :func:`_weights`."""
    dt = check_horizon(T) / check_count(n_steps, "n_steps", _MIN_STEPS)
    times = np.arange(n_steps + 1) * dt
    mids = times[:-1] + 0.5 * dt
    a1 = _kernel_matrix(k1, times, mids)
    a2 = a1 if _same_kernels((k1,), (k2,)) else _kernel_matrix(k2, times, mids)
    scales = [np.sqrt(_cell_mass(m, mids, dt)) for m in (measure1, measure2)]
    return a1, a2, *scales, *_weights(control, times[:-1])


def _weights(control: CouplingControl, left: np.ndarray) -> tuple:
    """(rho, mix): the control on cells with these left edges, sqrt(1 - rho^2) or None if all 0."""
    rho = control.rho_at(left)
    mix = np.sqrt(np.clip(1.0 - rho * rho, 0.0, 1.0))
    return rho, (mix if mix.any() else None)


def _noise2(xi1: np.ndarray, a2, scale2, rho, mix, seed: int, b: int, in_place=False) -> np.ndarray:
    """Spec 2's path-major noise ((rho xi1 + mix xi~) scale2) A2^T, formed in xi1 if ``in_place``.
    xi~ (Philox stream 1) is not drawn when mix is None: rho xi1 + 0 xi~ is bitwise rho xi1."""
    dm2 = np.multiply(xi1, rho, out=xi1 if in_place else None)
    if mix is not None:
        xi_t = _normals(seed, 1, b, xi1.shape)
        xi_t *= mix
        dm2 += xi_t
        del xi_t
    dm2 *= scale2
    return dm2 @ a2.T


def _noise_block(cp: tuple, seed: int, b: int, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Paths b*_BLOCK, ... of both noises, path-major (n_b, M+1)."""
    a1, a2, scale1, scale2, rho, mix = cp
    xi1 = _normals(seed, 0, b, (min(_BLOCK, n_paths - b * _BLOCK), rho.size))
    z2 = _noise2(xi1, a2, scale2, rho, mix, seed, b)  # reads xi1 before it is scaled
    return np.multiply(xi1, scale1, out=xi1) @ a1.T, z2


def simulate_coupled_noise(k1: VolterraKernel, k2: VolterraKernel, control: CouplingControl,
                           T: float, n_steps: int, n_paths: int, seed: int,
                           measure1: IntensityMeasure | None = None,
                           measure2: IntensityMeasure | None = None
                           ) -> tuple[PathEnsemble, PathEnsemble]:
    """Simulate the pair of Volterra noises under a correlation control.

    Both ensembles are built from the same seed-derived substreams, so the
    coupling is exact path by path: under the synchronous control with
    identical kernels the two ensembles are identical arrays.
    """
    check_count(n_paths, "n_paths")
    cp = _coupling(k1, k2, control, T, n_steps, measure1, measure2)
    times = np.arange(n_steps + 1) * (T / n_steps)
    z1, z2 = np.empty((2, n_paths, n_steps + 1))
    for b, lo in enumerate(range(0, n_paths, _BLOCK)):
        z1[lo:lo + _BLOCK], z2[lo:lo + _BLOCK] = _noise_block(cp, seed, b, n_paths)
    policy = {"scheme": "philox-seedsequence", "key": "(seed, stream, block)",
              "block_size": _BLOCK, "streams": {"w1": 0, "w_tilde": 1}, "seed": int(seed)}
    return (PathEnsemble(times=times, paths=z1, seed=seed, substream_policy=policy),
            PathEnsemble(times=times, paths=z2, seed=seed, substream_policy=policy))


def _euler(spec: FsdeSpec, dt: float, z: np.ndarray, path_offset: int) -> np.ndarray:
    """Explicit Euler along path-major noise z (n, M+1), one contiguous row per step; states
    come back time-major.  Scanned per _SCAN_STEPS steps for the earliest bad step's lowest path."""
    n_steps, n = z.shape[1] - 1, z.shape[0]
    # padded rows: transposing a power-of-two row stride (n = _BLOCK) thrashes the cache
    x = np.empty((n_steps + 1, n + 8))[:, :n]
    np.subtract(z.T[1:], z.T[:-1], out=x[1:])
    x[0] = spec.x0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite states raise below
        for lo in range(0, n_steps, _SCAN_STEPS):
            for m in range(lo, min(lo + _SCAN_STEPS, n_steps)):
                cur, nxt = x[m], x[m + 1]
                step = spec.drift(cur) * dt
                step += cur
                nxt *= spec.diffusion(cur)
                nxt += step
            rows = x[lo + 1:lo + _SCAN_STEPS + 1]
            if not (rows.max(initial=0.0) <= _EXPLOSION and rows.min(initial=0.0) >= -_EXPLOSION):
                bad = ~np.isfinite(rows) | (np.abs(rows) > _EXPLOSION)
                raise SimulationError(path_offset + int(np.argmax(bad[np.argmax(bad.any(axis=1))])))
    return x


def euler_fsde(spec: FsdeSpec, noise: PathEnsemble) -> PathEnsemble:
    """Explicit Euler solution of the SDE along the given noise paths."""
    shared_horizon(noise.times[-1], spec.T, "the noise grid and the SDE spec")
    x = _euler(spec, float(noise.times[1] - noise.times[0]), noise.paths, 0)
    return PathEnsemble(times=noise.times, paths=np.ascontiguousarray(x.T), seed=noise.seed,
                        substream_policy=noise.substream_policy)


@functools.cache
def _openblas_threads() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None under another BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    for lib in map(ctypes.CDLL, libs):  # the copy numpy has loaded
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _blas_capped(capped: bool):
    """Hold numpy's OpenBLAS at one thread (a process-wide setting), then restore its count."""
    api = _openblas_threads() if capped else None
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def estimate_coupling_cost(spec1: FsdeSpec, spec2: FsdeSpec,
                           control: CouplingControl | Sequence[CouplingControl],
                           n_steps: int, n_paths: int, seed: int,
                           n_workers: int = 1,
                           state_map1: Callable | None = None,
                           state_map2: Callable | None = None) -> CostEstimate | list[CostEstimate]:
    """Monte Carlo estimate of E int_0^T |X1(t) - X2(t)|^2 dt under the control; for a
    sequence of controls (a battery), a list of one estimate per control, in order.

    The time integral uses the left-endpoint rule, matching the information
    pattern of the Euler scheme.  ``state_map*`` post-compose the simulated
    states (used to map Lamperti-transformed paths back to the original
    coordinates); a map must act elementwise, as it is applied in place to a
    few time steps of a block at a time.

    The kernel matrices are built once (one if the kernels are equal), on the
    calling thread.  The unit of work is a block ``(seed, block_index)`` of _BLOCK paths on
    one of up to ``n_workers`` threads: stream-0 Philox normals and spec 1's matmul and Euler
    pass, shared by the controls (common random numbers), and per control spec 2's (stream 1
    drawn only if the control weights it) and the per-path costs, so each entry is bitwise its
    control's estimate alone; an earlier control of a battery holds one more block array.
    While more than one worker runs, numpy's OpenBLAS is held at one thread, a process-wide
    setting restored on return.  Blocks are reduced in index order, so estimates are
    bit-stable for any worker count, and a ``SimulationError`` names the path a per-step scan
    would: first block, spec 1 before spec 2, first control, earliest step, lowest path index.
    An empty sequence raises DomainError.
    """
    controls = [control] if isinstance(control, CouplingControl) else list(control)
    if not controls:
        raise DomainError("a battery needs at least one coupling control")
    T = shared_horizon(spec1.T, spec2.T, "SDE specs")
    check_count(n_paths, "n_paths")
    check_count(n_workers, "n_workers")
    a1, a2, scale1, scale2, *_ = _coupling(spec1.noise_kernel, spec2.noise_kernel, controls[0],
                                           T, n_steps, None, None)
    dt = T / n_steps
    weights = [_weights(c, np.arange(n_steps) * dt) for c in controls]
    n_blocks = -(-n_paths // _BLOCK)
    costs = np.empty((len(controls), n_paths))

    def mapped(x: np.ndarray, state_map: Callable | None) -> np.ndarray:  # in place, in steps
        if state_map is not None:
            for m in range(0, x.shape[0], _MAP_ROWS):
                x[m:m + _MAP_ROWS] = state_map(x[m:m + _MAP_ROWS])
        return x

    def block_costs(b: int) -> None:
        lo = b * _BLOCK
        xi1 = [_normals(seed, 0, b, (min(_BLOCK, n_paths - lo), n_steps))]
        z = [np.multiply(xi1[0], scale1) @ a1.T]  # popped: freed once Euler read it
        for k, (rho, mix) in enumerate(weights):
            last = k == len(weights) - 1  # pops xi1 and works in it: one control holds 3 arrays
            z.append(_noise2(xi1.pop() if last else xi1[0], a2, scale2, rho, mix, seed, b, last))
            if k == 0:  # both noises first, then both states: the states reuse the draws' heap
                x1 = mapped(_euler(spec1, dt, z.pop(0), lo), state_map1)
            x2 = mapped(_euler(spec2, dt, z.pop(), lo), state_map2)
            x2 -= x1  # bitwise -(x1 - x2), so its squares are the same
            # into the caller's array: a result allocated here keeps the worker heap from shrinking
            np.sum(np.square(x2[:-1], out=x2[:-1]), axis=0, out=costs[k, lo:lo + _BLOCK])
            del x2

    with _blas_capped(min(n_workers, n_blocks) > 1), ThreadPoolExecutor(n_workers) as pool:
        list(pool.map(block_costs, range(n_blocks)))  # a worker's error raises here
    costs *= dt
    out = [CostEstimate(mean=float(np.mean(row)), n_paths=n_paths, control=c.describe(),
                        std_error=float(np.std(row, ddof=1) / np.sqrt(n_paths)) if n_paths > 1
                        else float("inf")) for row, c in zip(costs, controls)]
    return out[0] if isinstance(control, CouplingControl) else out


# ---------------------------------------------------------------------------
# Lamperti transform
# ---------------------------------------------------------------------------

def lamperti_transform(sigma: Callable, x0: float, x: float) -> float:
    """State-space change g(x) = int_{x0}^x dxi / sigma(xi) by adaptive quadrature (at most
    64 subintervals), after checking sigma > 0 at 64 evenly spaced points."""
    from scipy.integrate import quad  # imported here: it adds about 0.2 s to `import awgp`
    lo, hi = min(x0, x), max(x0, x)
    if hi > lo:
        probe = np.linspace(lo, hi, 64)
        if np.any(np.asarray(sigma(probe)) <= 0.0):
            raise DomainError("diffusion must be positive on the integration range")
    val, _ = quad(lambda u: 1.0 / float(np.asarray(sigma(u))), x0, x, limit=64)
    return float(val)


def lamperti_inverse(sigma: Callable, x0: float, y: float) -> float:
    """Inverse of the Lamperti map by monotone root finding (to 1e-12 in x).

    g is strictly increasing (sigma > 0), so the root is bracketed by
    expanding around x0; the result satisfies |g(g^-1(y)) - y| <= 1e-10.
    """
    from scipy.optimize import brentq
    g = lambda x: lamperti_transform(sigma, x0, x)
    if y == 0.0:
        return float(x0)
    sign, step = (1.0 if y > 0 else -1.0), 1.0
    while sign * g(x0 + sign * step) < abs(y):  # expand away from x0 until y is passed
        step *= 2.0
        if step > 1e12:
            raise DomainError("failed to bracket the Lamperti inverse")
    lo, hi = sorted((x0, x0 + sign * step))
    return float(brentq(lambda x: g(x) - y, lo, hi, xtol=1e-12, rtol=8.9e-16))


def lamperti_inverse_interpolator(sigma: Callable, x0: float,
                                  x_range: tuple[float, float], n: int = 4097) -> Callable:
    """Vectorized g^-1 on ``x_range`` by index arithmetic, with no search per lookup.

    g is summed by Simpson's rule over the n - 1 cells of ``x_range`` and g^-1
    tabulated once on 4n equally spaced values of y, each refined by two
    Newton steps on the cubic Hermite interpolant of g (g' = 1/sigma).  A
    lookup scales, clips and interpolates linearly: its error is about
    dy^2 max|sigma sigma'| / 8 with dy = (g(b) - g(a)) / (4n - 1).  Values
    beyond g(x_range) map to its ends.
    """
    n = check_count(n, "n", 2)
    xs = np.linspace(x_range[0], x_range[1], 2 * n - 1)  # nodes and cell midpoints
    sig = np.asarray(sigma(xs), dtype=float)
    if not (np.all(sig > 0.0) and np.isfinite(sig).all()):
        raise DomainError("diffusion must be positive and finite on the tabulated range")
    f, fm = 1.0 / sig[::2], 1.0 / sig[1::2]
    xs, h = xs[::2], 2.0 * (xs[1] - xs[0])
    gs = np.concatenate([[0.0], np.cumsum(h / 6.0 * (f[:-1] + 4.0 * fm + f[1:]))])

    def hermite(x):  # cubic through the node values of g and g'
        t = np.clip((x - xs[0]) / h, 0.0, n - 1.0)
        i = np.minimum(t.astype(np.intp), n - 2)
        t -= i
        d = (gs[i + 1] - gs[i]) / h
        return gs[i] + h * t * (d + (1.0 - t) * ((1.0 - t) * (f[i] - d) - t * (f[i + 1] - d)))

    gs -= hermite(np.array([x0]))  # g(x0) = 0
    ys = np.linspace(gs[0], gs[-1], 4 * n)
    table = np.interp(ys, gs, xs)
    for _ in range(2):
        table -= (hermite(table) - ys) / np.interp(table, xs, f)
    step, y0, scale = np.diff(table), ys[0], (ys.size - 1) / (ys[-1] - ys[0])

    def inverse(y):  # three temporaries the size of y: more fragment the worker heaps
        u = np.subtract(y, y0, dtype=float)
        u *= scale
        np.clip(u, 0.0, ys.size - 1.0, out=u)
        with np.errstate(invalid="ignore"):  # NaN indexes anywhere and stays NaN
            i = u.astype(np.intp)
        u -= i
        x = step.take(i, mode="clip")
        x *= u
        x += table.take(i, mode="clip", out=u)
        return x
    return inverse


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Pass/fail report of the monotonicity and regularity conditions."""

    checks: dict

    @property
    def drift_sigma_ratio_monotone(self) -> bool:
        return self.checks["drift_sigma_ratio_monotone"]["passed"]

    @property
    def kernel_monotone(self) -> bool:
        return self.checks["kernel_t_monotone"]["passed"]

    @property
    def monotonicity_satisfied(self) -> bool:
        """Either branch of the monotonicity assumption suffices."""
        return self.drift_sigma_ratio_monotone or self.kernel_monotone

    @property
    def all_regularity_passed(self) -> bool:
        return all(self.checks[k]["passed"] for k in
                   ("sigma_positive", "derivatives_bounded", "kernel_nonnegative",
                    "kernel_growth_bounded"))

    def to_dict(self) -> dict:
        return {"checks": self.checks,
                "monotonicity_satisfied": self.monotonicity_satisfied,
                "all_regularity_passed": self.all_regularity_passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def assumption_checker(spec: FsdeSpec, state_range: tuple[float, float] | None = None
                       ) -> AssumptionReport:
    """Evaluate the standing assumptions on sampled grids (report only): 512 states and a
    200 x 200 (t, s) grid.

    Checks diffusion positivity and boundedness, finite-difference bounds on
    b' and sigma', kernel nonnegativity and growth, kernel monotonicity in t,
    and monotonicity of b/sigma; the last two are alternative branches.
    """
    if state_range is None:
        s0 = max(abs(float(np.asarray(spec.diffusion(spec.x0)))), 1e-6)
        half = 5.0 * s0 * np.sqrt(spec.T)
        state_range = (spec.x0 - half, spec.x0 + half)
    lo, hi = state_range
    if not -np.inf < lo < hi < np.inf:  # NaN fails every comparison
        raise DomainError(f"state_range must be finite with lo < hi, got {state_range!r}")
    xs = np.linspace(lo, hi, 512)
    dx = xs[1] - xs[0]
    sig = np.asarray(spec.diffusion(xs), dtype=float)
    drift = np.asarray(spec.drift(xs), dtype=float)
    checks: dict = {}

    sig_min = float(sig.min())
    checks["sigma_positive"] = {
        "passed": bool(sig_min > 1e-8 and np.isfinite(sig).all() and sig.max() < 1e8),
        "min_sigma": sig_min, "max_sigma": float(sig.max()),
        "witness_x": float(xs[np.argmin(sig)]),
    }

    db = np.diff(drift) / dx
    ds = np.diff(sig) / dx
    deriv_max = float(max(np.abs(db).max(), np.abs(ds).max()))
    checks["derivatives_bounded"] = {
        "passed": bool(np.isfinite(deriv_max) and deriv_max < 1e6),
        "max_abs_derivative": deriv_max,
    }

    t_grid = np.linspace(spec.T / 200, spec.T, 200)
    s_grid = t_grid * (1.0 - 1e-9)
    tt, ss = np.meshgrid(t_grid, s_grid, indexing="ij")
    kv = spec.noise_kernel.eval(tt.ravel(), ss.ravel()).reshape(tt.shape)
    k_min = float(kv.min())
    checks["kernel_nonnegative"] = {
        "passed": bool(k_min >= -1e-12),
        "min_value": k_min,
    }

    h = spec.noise_kernel.grading_hurst
    on = ss < tt
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = ss ** (0.5 - h) * np.abs(tt - ss) ** (h - 0.5)
        ratio = np.where(on & (bound > 0), np.abs(kv) / np.where(bound > 0, bound, 1.0), 0.0)
    c_max = float(ratio.max())
    checks["kernel_growth_bounded"] = {
        "passed": bool(np.isfinite(c_max)),
        "growth_constant": c_max,
    }

    dk = np.diff(kv, axis=0)
    mono_min = float(dk[ss[1:, :] < tt[:-1, :]].min()) if np.any(ss[1:, :] < tt[:-1, :]) else 0.0
    checks["kernel_t_monotone"] = {
        "passed": bool(mono_min >= -1e-9),
        "min_increment": mono_min,
    }

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_bs = np.where(sig != 0.0, drift / np.where(sig != 0.0, sig, 1.0), np.inf)
    dr = np.diff(ratio_bs)
    checks["drift_sigma_ratio_monotone"] = {
        "passed": bool(dr.min() >= -1e-9),
        "min_increment": float(dr.min()),
        "witness_x": float(xs[np.argmin(dr)]),
    }

    return AssumptionReport(checks=checks)
