"""Independent brute-force and Monte Carlo oracles.

Every frozen golden value in the package was derived by one of the named
oracles here and recorded in the registry (``data/goldens.json``); the
``regen-goldens`` CLI command re-derives the whole registry in one run.
Oracles are deliberately independent of the code paths they check: the
hypergeometric oracle sums the series in multiprecision, the discrete
cross-term oracle maximizes over a dense correlation grid, and the Monte
Carlo oracle simulates the constructed optimal coupling.
"""

from __future__ import annotations

import datetime
import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import mpmath as mp
import numpy as np
from scipy.special import hyp2f1 as scipy_hyp2f1

from .errors import DomainError, check_count
from .fsde import _BLOCK, CouplingControl, _coupling, _noise_block
from .gauss_aw import TriangularFactor, cholesky_causal_factor, continuous_aw_unit, _psd_sqrt
from .kernels import GaussianProcessSpec, MolchanGolosov, _mg_const, eval_fou_kernel
from .mart_approx import mart_approx_distance, optimal_volatility
from .quadrature import QuadratureGrid, graded_midpoint

__all__ = [
    "OracleVerdict",
    "bruteforce_discrete_cross_term",
    "mc_formula_check",
    "psd_feasibility_sampler",
    "load_goldens",
    "get_golden",
    "regenerate_goldens",
    "default_registry_path",
    "fbm_aw_reference",
]


@dataclass
class OracleVerdict:
    """Outcome of comparing a target value against an independent oracle."""

    target: float
    oracle: float
    tolerance: float
    mode: str = "abs"  # or "rel"
    passed: bool = False
    diagnostics: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# brute force for the discrete formula
# ---------------------------------------------------------------------------

def bruteforce_discrete_cross_term(k1: TriangularFactor | np.ndarray,
                                   k2: TriangularFactor | np.ndarray,
                                   grid_steps: int = 20_001) -> float:
    """max over rho in [-1,1]^N of sum_n rho_n (K1^T K2)_{n,n} by dense grid.

    The objective is separable, so the per-coordinate search is exact up to
    the grid step; the grid includes the endpoints +-1 where the optimum
    always sits.
    """
    a1 = k1.entries if isinstance(k1, TriangularFactor) else np.asarray(k1, dtype=float)
    a2 = k2.entries if isinstance(k2, TriangularFactor) else np.asarray(k2, dtype=float)
    if a1.shape != a2.shape:
        raise DomainError("factor dimension mismatch")
    diag = np.sum(a1 * a2, axis=0)
    rho_grid = np.linspace(-1.0, 1.0, check_count(grid_steps, "grid_steps", 2))
    per_coord = np.max(diag[:, None] * rho_grid[None, :], axis=1)
    return float(np.sum(per_coord))


# ---------------------------------------------------------------------------
# Monte Carlo reproduction of the continuous formula
# ---------------------------------------------------------------------------

def mc_formula_check(spec1: GaussianProcessSpec, spec2: GaussianProcessSpec,
                     grid: QuadratureGrid | None = None, n_steps: int = 256,
                     n_paths: int = 10_000, seed: int = 0) -> OracleVerdict:
    """Simulate the constructed optimal coupling and compare with the formula.

    The coupling is the report's own: each of the ``n_steps`` cells correlates
    its driving increments with the sign ``optimal_correlation`` gives at the
    report node nearest the cell's midpoint.  The Monte Carlo cost must match
    the closed form within 3 standard errors plus a fixed discretization
    budget of 2% (reported separately in the diagnostics).
    """
    if spec1.multiplicity != 1 or spec2.multiplicity != 1:
        raise DomainError("mc_formula_check requires unit multiplicity")
    check_count(n_paths, "n_paths", 2)  # a standard error needs two paths
    check_count(n_steps, "n_steps")
    (k1, meas1), (k2, meas2) = spec1.components[0], spec2.components[0]
    if meas1.is_singular or meas2.is_singular:
        raise DomainError("mc_formula_check requires Lebesgue-dominated measures")
    report = continuous_aw_unit(spec1, spec2, grid)

    T = spec1.T
    dt = T / n_steps
    cell_left = np.arange(n_steps) * dt
    mids = cell_left + 0.5 * dt
    signs = report.optimal_correlation[np.abs(report.nodes - mids[:, None]).argmin(axis=1)]
    control = CouplingControl.tabulated(cell_left, signs)

    # trapezoid rule in time: the check compares noises, so no Euler
    # information pattern constrains the quadrature
    weights = np.full(n_steps + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    cp = _coupling(k1, k2, control, T, n_steps, meas1, meas2)
    costs = np.empty(n_paths)
    for b, lo in enumerate(range(0, n_paths, _BLOCK)):
        z1b, z2b = _noise_block(cp, seed, b, n_paths)
        z1b -= z2b
        costs[lo:lo + _BLOCK] = np.square(z1b, out=z1b) @ weights
    mc_mean = float(np.mean(costs))
    mc_se = float(np.std(costs, ddof=1) / np.sqrt(n_paths))

    budget = 3.0 * mc_se + 0.02 * max(abs(report.distance_squared), mc_se)
    err = abs(mc_mean - report.distance_squared)
    return OracleVerdict(
        target=report.distance_squared, oracle=mc_mean, tolerance=budget, mode="abs",
        passed=bool(err <= budget),
        diagnostics=(f"|formula - MC| = {err:.4e}; statistical 3*SE = {3*mc_se:.4e}, "
                     f"discretization budget = {budget - 3*mc_se:.4e}"))


# ---------------------------------------------------------------------------
# feasible cross-covariance sampler (trace bound)
# ---------------------------------------------------------------------------

def psd_feasibility_sampler(a: np.ndarray, b: np.ndarray, n_samples: int,
                            seed: int = 0) -> Iterator[np.ndarray]:
    """Yield feasible cross-covariances Gamma = A^1/2 Q B^1/2, ||Q||_op <= 1.

    Operator-norm contractions Q characterize feasibility of the block
    matrix [[A, Gamma], [Gamma^T, B]]; Q is drawn as a random matrix scaled
    by its largest singular value times a uniform factor in [0, 1].
    """
    n_samples = check_count(n_samples, "n_samples")
    ra = _psd_sqrt(a)
    rb = _psd_sqrt(b)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 7))))
    m, n = ra.shape[0], rb.shape[0]
    for _ in range(n_samples):
        q = gen.standard_normal((m, n))
        q *= gen.uniform() / np.linalg.svd(q, compute_uv=False)[0]
        yield ra @ q @ rb


# ---------------------------------------------------------------------------
# golden-value registry
# ---------------------------------------------------------------------------

def default_registry_path() -> Path:
    return Path(__file__).parent / "data" / "goldens.json"


def load_goldens(path=None) -> dict:
    p = Path(path) if path is not None else default_registry_path()
    with open(p) as fh:
        return json.load(fh)


def get_golden(name: str, path=None):
    """Fetch one golden value; a missing entry is a hard failure."""
    reg = load_goldens(path)
    if name not in reg:
        raise KeyError(f"golden value {name!r} has no registry entry; run 'awgp regen-goldens'")
    return reg[name]["value"]


def _mp_mg_kernel(hh, s, d):
    """Molchan-Golosov kernel at (s + d, s) in the working precision, from the offset d."""
    half = mp.mpf(1) / 2
    const = mp.sqrt(2 * hh * mp.gamma(3 * half - hh) / (mp.gamma(hh + half) * mp.gamma(2 - 2*hh)))
    return const * d ** (hh - half) * mp.hyp2f1(hh - half, half - hh, hh + half, -d / s)


def _mp_unit_row(kernel):
    """(H, int_0^1 k(1, s)^2 ds, k(1, s) from (s, d = 1 - s)) in the working precision for a
    Molchan-Golosov, Riemann-Liouville or Brownian kernel, or the Hurst index of the first."""
    half = mp.mpf(1) / 2
    if isinstance(kernel, numbers.Real):
        kernel = MolchanGolosov(h=float(kernel))
    if kernel.kind == "brownian":
        return half, mp.mpf(1), lambda s, d: mp.mpf(1)
    h = mp.mpf(repr(float(kernel.h)))
    if kernel.kind == "molchan_golosov":  # Var B_H(1) = 1
        return h, mp.mpf(1), lambda s, d: _mp_mg_kernel(h, s, d)
    if kernel.kind == "riemann_liouville":
        gam = mp.gamma(h + half)
        return h, 1 / (2 * h * gam ** 2), lambda s, d: d ** (h - half) / gam
    raise DomainError(f"no self-similar reference for a {kernel.kind} kernel")


def fbm_aw_reference(h1, h2, T: float = 1.0) -> float:
    """AW2 between two homogeneous kernels on the Lebesgue measure by the self-similar
    reduction, c12 by 20-digit mpmath tanh-sinh on each half of (0, 1); each half substitutes
    x^10 / 2 for the distance to its end, which bounds every endpoint power for H in
    [0.05, 0.95], and evaluates the rows from that offset.  ``h1`` and ``h2`` are each a
    Hurst index (of fBM) or a Molchan-Golosov, Riemann-Liouville or Brownian kernel."""
    with mp.workdps(20):
        (a, c11, row1), (b, c22, row2) = _mp_unit_row(h1), _mp_unit_row(h2)
        tt = mp.mpf(repr(float(T)))

        def f(x, at_one: bool):
            e = x ** 10 / 2
            s, d = (1 - e, e) if at_one else (e, 1 - e)
            return 5 * x ** 9 * row1(s, d) * row2(s, d)

        c12 = sum(mp.quad(lambda x: f(x, at_one), [0, 1]) for at_one in (False, True))
        return float(c11 * tt ** (2 * a + 1) / (2 * a + 1) + c22 * tt ** (2 * b + 1) / (2 * b + 1)
                     - 2 * c12 * tt ** (a + b + 1) / (a + b + 1))


def _mg_forward_mean(h: float, r: float, T: float) -> float:
    """rho_H(r) = (T - r)^-1 int_r^T k_H(s, r) ds by QUADPACK in the offset d = s - r, with the
    d^(H - 1/2) end as its algebraic weight and scipy's hyp2f1 at z = -d/r for the rest of the
    kernel: 1 - s/r would lose the digits of z that r near T leaves."""
    from scipy.integrate import quad
    val = quad(lambda d: scipy_hyp2f1(h - 0.5, 0.5 - h, h + 0.5, -d / r), 0.0, T - r,
               weight="alg", wvar=(h - 0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return _mg_const(h) * val / (T - r)


def _mart_distance_reference(h: float, T: float) -> float:
    """Best-martingale distance by nested QUADPACK: int_0^T int_r^T (k - rho)^2 ds dr =
    int_0^T Var B_H(s) ds - int_0^T (T - r) rho_H(r)^2 dr, rho_H from :func:`_mg_forward_mean`."""
    from scipy.integrate import quad
    return T ** (2 * h + 1) / (2 * h + 1) - quad(
        lambda r: (T - r) * _mg_forward_mean(h, r, T) ** 2, 0.0, T,
        epsabs=0.0, epsrel=1e-13, limit=200)[0]


def regenerate_goldens(path) -> dict:
    """Re-derive every golden value from its oracle and write the registry to ``path``.

    There is no default: the packaged registry is rewritten only when its own
    path (``default_registry_path()``) is passed.
    """
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    reg: dict = {}

    def put(name, value, oracle, config):
        reg[name] = {"value": value, "oracle": oracle, "config": config,
                     "derived_at": stamp}

    with mp.workdps(40):
        put("hyp2f1_1_1_2_m1", float(mp.log(2)), "analytic_identity",
            {"identity": "F(1,1,2,z) = -log(1-z)/z at z = -1"})

    with mp.workdps(40):  # t = 1, s = 0.5
        mg = float(_mp_mg_kernel(mp.mpf("0.7"), mp.mpf(0.5), mp.mpf(0.5)))
    put("mg_kernel_h070_t100_s050", mg, "mpmath_direct_series",
        {"dps": 40, "h": 0.7, "t": 1.0, "s": 0.5})

    from scipy.special import gamma as scipy_gamma
    put("rl_kernel_h075_t100_s050", float(0.5 ** 0.25 / scipy_gamma(1.25)),
        "gamma_table_arithmetic", {"h": 0.75, "t": 1.0, "s": 0.5})

    coarse = eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=256, convention="mild")
    fine = eval_fou_kernel(0.7, 1.0, 1.0, 0.5, quad_nodes=1024, convention="mild")
    if abs(coarse - fine) > 1e-6 * max(abs(fine), 1.0):
        raise DomainError("fOU kernel two-resolution check failed during regeneration")
    put("fou_kernel_h070_lam1_t100_s050_mild", fine,
        "two_resolution_quadrature", {"nodes": [256, 1024], "agreement": abs(coarse - fine)})

    # sign-convention probe: which convention reproduces the Euler-simulated
    # OU (drift -lam x) terminal variance; full check runs in acceptance
    put("fou_sign_convention", "mild", "mc_terminal_variance_probe",
        {"h": 0.7, "lam": 1.0, "drift": "-lam*x"})

    put("discrete_aw_2x2_example",
        float(5.0 - 2.0 * bruteforce_discrete_cross_term(
            cholesky_causal_factor(np.array([[1.0, 1.0], [1.0, 2.0]])),
            cholesky_causal_factor(np.eye(2)))),
        "bruteforce_discrete_cross_term", {"sigma1": [[1, 1], [1, 2]], "sigma2": "I2"})

    # fBM(0.5) vs fBM(0.75), frozen after the 1-D rule and the discrete transfer agree with it
    from .gauss_aw import continuous_aw_fbm, discretized_fbm_aw
    ref = fbm_aw_reference(0.5, 0.75, 1.0)
    gaps = {f"rel_gap_{k}_512": abs(rep.distance_squared - ref) / ref for k, rep in (
        ("rule", continuous_aw_fbm(0.5, 0.75, 1.0, QuadratureGrid(n_s=512))),
        ("discrete", discretized_fbm_aw(0.5, 0.75, 1.0, 512)))}
    if gaps["rel_gap_rule_512"] > 1e-10 or gaps["rel_gap_discrete_512"] > 0.01:
        raise DomainError(f"fBM distance oracle disagreement {gaps} during regeneration")
    put("aw2_fbm_h050_h075_T1", ref, "mpmath_self_similar_tanh_sinh", {"dps": 20, **gaps})

    # triangular integral, one cell, Brownian kernels: 2D quadrature oracle
    u, w = graded_midpoint(0.0, 1.0, 2048, gamma=1.0)
    inner = 1.0 - np.maximum(u[:, None], u[None, :])
    tri_oracle = float(np.sqrt(np.sum(inner ** 2 * w[:, None] * w[None, :])))
    put("triangular_p1_bm", tri_oracle, "direct_2d_quadrature", {"n": 2048})

    # best martingale approximation at H = 0.7, frozen after the cumulative rule agrees with it
    h, r, T = 0.7, 0.5, 1.0
    rho = _mg_forward_mean(h, r, T)
    gap = abs(optimal_volatility(h, r, T) - rho)
    if gap > 1e-10:
        raise DomainError(f"optimal volatility oracle gap {gap:.3e} during regeneration")
    put("rho_h070_r050_T1", rho, "quadpack_algebraic_weight",
        {"epsrel": 1e-13, "abs_gap_rule": gap})

    dist = _mart_distance_reference(h, T)
    gap = abs(mart_approx_distance(h, T, QuadratureGrid(n_s=512)).distance_squared - dist) / dist
    if gap > 1e-10:
        raise DomainError(f"martingale distance oracle gap {gap:.3e} during regeneration")
    put("mart_dist_h070_T1", dist, "quadpack_nested", {"epsrel": 1e-13, "rel_gap_rule_512": gap})

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as fh:
        json.dump(reg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return reg
