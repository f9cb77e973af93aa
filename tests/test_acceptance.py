"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and asserts the criterion at its stated tolerance.
"""

import time

import numpy as np

from awgp.fsde import (CouplingControl, FsdeSpec, assumption_checker, estimate_coupling_cost,
                       lamperti_inverse_interpolator, make_diffusion, make_drift,
                       _coupling, _euler, _noise_block)
from awgp.gauss_aw import (cholesky_causal_factor, continuous_aw_fbm, continuous_aw_multi,
                           continuous_aw_unit, discrete_aw, discretized_fbm_aw,
                           levy_noncanonical_check, trace_bound_optimal_gamma,
                           triangular_integral)
from awgp.kernels import (Brownian, CallableKernel, ConstantVolatility, FractionalOU,
                          GaussianProcessSpec, IntensityMeasure, MolchanGolosov,
                          RiemannLiouville, cantor_martingale_spec, covariance, eval_mg_kernel,
                          fbm_spec, fou_spec)
from awgp.mart_approx import mart_approx_distance
from awgp.oracles import (bruteforce_discrete_cross_term, get_golden, mc_formula_check,
                          psd_feasibility_sampler)
from awgp.quadrature import QuadratureGrid
from awgp.specfun import hyp2f1, hyp2f1_series

LEB = IntensityMeasure.lebesgue()


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:2d}] {name}: {status} ({time.time() - t0:.1f}s) - {detail}")
    return ok


def test_criterion_01_kernel_degeneracy():
    t0 = time.time()
    ts = np.linspace(0.01, 1.0, 100)
    ss = np.linspace(0.005, 0.995, 100)
    tt, sm = np.meshgrid(ts, ss)
    on = sm < tt
    err = np.max(np.abs(eval_mg_kernel(0.5, tt[on], sm[on]) - 1.0))
    ok = err <= 1e-12
    assert _report(1, "kernel degeneracy at H=1/2", ok, f"max abs err {err:.2e}", t0)


def test_criterion_02_hypergeometric_identities():
    t0 = time.time()
    rng = np.random.default_rng(21)
    exact_one = all(hyp2f1(a, b, c, 0.0) == 1.0
                    for a, b, c in [(0.2, -0.2, 1.2), (1.3, 0.7, 2.4), (-0.45, 0.45, 0.55)])
    worst_pfaff = 0.0
    for _ in range(200):
        a, b = rng.uniform(-1.0, 2.0, size=2)
        c = rng.uniform(0.5, 3.0)
        z = -rng.uniform(0.0, 1.0)  # z in (-1, 0]: direct series converges
        rhs = (1.0 - z) ** (-a) * hyp2f1_series(a, c - b, c, z / (z - 1.0))
        worst_pfaff = max(worst_pfaff, abs(hyp2f1(a, b, c, z) - rhs) / max(abs(rhs), 1e-300))
    log2_err = abs(hyp2f1(1.0, 1.0, 2.0, -1.0) - np.log(2.0)) / np.log(2.0)
    ok = exact_one and worst_pfaff <= 1e-10 and log2_err <= 1e-10
    assert _report(2, "hypergeometric identities", ok,
                   f"F(.,0)=1 exact={exact_one}, pfaff {worst_pfaff:.2e}, ln2 {log2_err:.2e}", t0)


def test_criterion_03_discrete_vs_bruteforce():
    t0 = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        s1 = a @ a.T + 0.1 * n * np.eye(n)
        b = rng.normal(size=(n, n))
        s2 = b @ b.T + 0.1 * n * np.eye(n)
        rep = discrete_aw(s1, s2)
        cross = bruteforce_discrete_cross_term(cholesky_causal_factor(s1),
                                               cholesky_causal_factor(s2))
        expect = float(np.trace(s1) + np.trace(s2)) - 2.0 * cross
        worst = max(worst, abs(rep.distance_squared - expect))
    ok = worst <= 1e-9
    assert _report(3, "discrete formula vs brute force (200 pairs)", ok,
                   f"worst abs gap {worst:.2e}", t0)


def test_criterion_04_transfer_principle_convergence():
    t0 = time.time()
    cont = continuous_aw_fbm(0.5, 0.75, 1.0).distance_squared
    gaps = []
    for n in (64, 128, 256, 512, 1024, 2048):
        disc = discretized_fbm_aw(0.5, 0.75, 1.0, n).distance_squared
        gaps.append(abs(disc - cont) / cont)
    monotone = bool(np.all(np.diff(gaps) < 0.0))
    ok = monotone and gaps[-1] <= 0.01
    assert _report(4, "transfer-principle convergence", ok,
                   "gaps " + ", ".join(f"{g:.3%}" for g in gaps) + f", monotone={monotone}", t0)


def test_criterion_05_monte_carlo_reproduction():
    t0 = time.time()
    v1 = mc_formula_check(fbm_spec(0.5), fbm_spec(0.75), n_steps=256, n_paths=10_000, seed=105)
    v2 = mc_formula_check(fbm_spec(0.6), fou_spec(0.6, 1.0), n_steps=256, n_paths=10_000, seed=106)
    ok = v1.passed and v2.passed
    assert _report(5, "Monte Carlo reproduction of the formula", ok,
                   f"fbm pair: {v1.diagnostics} | fbm-fou: {v2.diagnostics}", t0)


def test_criterion_06_cantor_example():
    t0 = time.time()
    bm = GaussianProcessSpec(components=[(Brownian(T=1.0), LEB)], T=1.0)
    rep = continuous_aw_unit(bm, cantor_martingale_spec())
    ok = rep.cross_term == 0.0 and abs(rep.distance_squared - 1.0) <= 1e-3
    assert _report(6, "Cantor martingale example", ok,
                   f"distance^2 {rep.distance_squared:.6f}, cross {rep.cross_term}", t0)


def test_criterion_07_fou_sign_convention_probe():
    t0 = time.time()
    h, lam, T, n_steps, n_paths = 0.7, 1.0, 1.0, 512, 100_000
    mg = MolchanGolosov(T=T, h=h)
    drift, _ = make_drift({"name": "linear", "a": -lam})
    diffusion, _ = make_diffusion({"name": "const", "c": 1.0})
    spec = FsdeSpec(drift=drift, diffusion=diffusion, x0=0.0, noise_kernel=mg, T=T)
    cp = _coupling(mg, mg, CouplingControl.synchronous(), T, n_steps, None, None)
    terminal = []
    for b in range(-(-n_paths // 4096)):
        z1b, _ = _noise_block(cp, 707, b, n_paths)
        terminal.append(_euler(spec, T / n_steps, z1b, b * 4096)[-1])
    terminal = np.concatenate(terminal)
    mc_var = terminal.var(ddof=1)
    se = mc_var * np.sqrt(2.0 / (n_paths - 1))
    grid = QuadratureGrid(n_t=1024)
    matches = {}
    for conv in ("mild", "forward"):
        qv = covariance(FractionalOU(T=T, h=h, lam=lam, convention=conv), LEB, T, T, grid)
        matches[conv] = abs(mc_var - qv) <= 3.0 * se
    winners = [c for c, m in matches.items() if m]
    recorded = get_golden("fou_sign_convention")
    ok = len(winners) == 1 and winners[0] == recorded
    assert _report(7, "fOU sign-convention probe", ok,
                   f"MC var {mc_var:.5f} (se {se:.5f}), matches {matches}, registry={recorded}", t0)


def test_criterion_08_trace_bound():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst_violation = -np.inf
    worst_attain = 0.0
    worst_eig = 0.0
    for i in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        a_ = rng.normal(size=(m, m)); a = a_ @ a_.T
        b_ = rng.normal(size=(n, n)); b = b_ @ b_.T
        c = rng.normal(size=(m, n))
        bound, gamma = trace_bound_optimal_gamma(a, b, c)
        worst_attain = max(worst_attain, abs(np.trace(c @ gamma.T) - bound))
        block = np.block([[a, gamma], [gamma.T, b]])
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(block).min()))
        for g in psd_feasibility_sampler(a, b, 1000, seed=1000 + i):
            worst_violation = max(worst_violation, float(np.trace(c @ g.T)) - bound)
    ok = worst_violation <= 1e-9 and worst_attain <= 1e-9 and worst_eig >= -1e-9
    assert _report(8, "trace-norm bound (200 x 1000 samples)", ok,
                   f"max violation {worst_violation:.2e}, attainment gap {worst_attain:.2e}, "
                   f"min block eig {worst_eig:.2e}", t0)


def test_criterion_09_martingale_approximation():
    t0 = time.time()
    bm_dist = mart_approx_distance(0.5, 1.0).distance_squared
    h, T = 0.7, 1.0
    grid = QuadratureGrid(n_s=64, n_t=256)
    res = mart_approx_distance(h, T, grid)
    from awgp.gauss_aw import _t_matrix
    from awgp.quadrature import grading_exponent
    idx = np.linspace(2, grid.n_s - 2, 50).astype(int)
    r_sel = res.r_nodes[idx]
    s_mat, w_mat = _t_matrix(r_sel, T, grid.n_t, grading_exponent(max(0.0, 0.5 - h), h))
    vals = eval_mg_kernel(h, s_mat.ravel(), np.repeat(r_sel, s_mat.shape[1])).reshape(s_mat.shape)
    rho = np.sum(vals * w_mat, axis=1) / (T - r_sel)
    base = np.sum((vals - rho[:, None]) ** 2 * w_mat, axis=1)
    rng = np.random.default_rng(99)
    min_margin = np.inf
    for _ in range(20):
        c = rho + rng.choice([-1.0, 1.0], size=rho.size) * rng.uniform(0.05, 0.5, size=rho.size)
        pert = np.sum((vals - c[:, None]) ** 2 * w_mat, axis=1)
        min_margin = min(min_margin, float(np.min(pert - base)))
    ok = bm_dist <= 1e-10 and min_margin > 0.0
    assert _report(9, "best martingale approximation", ok,
                   f"dist(H=0.5) {bm_dist:.2e}, min optimality margin {min_margin:.2e}", t0)


def _battery():
    tanh_drift, _ = make_drift("tanh")
    unit_sigma, _ = make_diffusion({"name": "const", "c": 1.0})
    rev_drift, _ = make_drift({"name": "linear", "a": -1.0})
    zero_drift, _ = make_drift("zero")
    sin_sigma, _ = make_diffusion({"name": "sin_offset", "c": 2.0})

    pair_a = (FsdeSpec(tanh_drift, unit_sigma, 0.0, MolchanGolosov(T=1.0, h=0.6), 1.0,
                       "tanh", "const(1)"),
              FsdeSpec(tanh_drift, unit_sigma, 0.3, MolchanGolosov(T=1.0, h=0.8), 1.0,
                       "tanh", "const(1)"),
              None, None)
    pair_b = (FsdeSpec(rev_drift, unit_sigma, 0.0, RiemannLiouville(T=1.0, h=0.7), 1.0,
                       "linear(-1)", "const(1)"),
              FsdeSpec(rev_drift, unit_sigma, 1.0, RiemannLiouville(T=1.0, h=0.7), 1.0,
                       "linear(-1)", "const(1)"),
              None, None)
    # multiplicative case via the Lamperti reduction: additive dynamics in the
    # transformed coordinate, cost evaluated after mapping back through g^-1
    inv1 = lamperti_inverse_interpolator(sin_sigma, 0.0, (-15.0, 15.0), n=8193)
    inv2 = lamperti_inverse_interpolator(sin_sigma, 0.5, (-15.0, 15.0), n=8193)
    pair_c = (FsdeSpec(zero_drift, unit_sigma, 0.0, MolchanGolosov(T=1.0, h=0.75), 1.0,
                       "zero", "const(1)"),
              FsdeSpec(zero_drift, unit_sigma, 0.0, MolchanGolosov(T=1.0, h=0.75), 1.0,
                       "zero", "const(1)"),
              lambda x: inv1(x), lambda x: inv2(x))
    return [("tanh drift, H 0.6/0.8", pair_a),
            ("mean reversion, RL 0.7", pair_b),
            ("multiplicative via Lamperti, H 0.75", pair_c)]


def test_criterion_10_synchronous_dominance():
    t0 = time.time()
    n_steps, n_paths = 256, 10_000
    controls = [CouplingControl.synchronous(), CouplingControl.antithetic(),
                CouplingControl.independent()]
    gen = np.random.default_rng(1010)
    for _ in range(8):
        controls.append(CouplingControl.piecewise_constant(gen.uniform(-1, 1, size=16), T=1.0))

    # the multiplicative entry is checked through its Lamperti reduction, whose
    # transformed drift/diffusion are (0, 1); assumptions are verified on the
    # original coefficients
    sin_sigma, _ = make_diffusion({"name": "sin_offset", "c": 2.0})
    zero_drift, _ = make_drift("zero")
    mult_orig = FsdeSpec(zero_drift, sin_sigma, 0.0, MolchanGolosov(T=1.0, h=0.75), 1.0)
    assert assumption_checker(mult_orig).monotonicity_satisfied

    detail = []
    all_ok = True
    for label, (s1, s2, map1, map2) in _battery():
        for spec in (s1, s2):
            rep = assumption_checker(spec)
            assert rep.monotonicity_satisfied and rep.all_regularity_passed, label
        costs = estimate_coupling_cost(s1, s2, controls, n_steps, n_paths, seed=777,
                                       state_map1=map1, state_map2=map2)
        sync = costs[0]
        slack = min(c.mean + 3.0 * np.sqrt(sync.std_error ** 2 + c.std_error ** 2) - sync.mean
                    for c in costs[1:])
        all_ok &= slack >= 0.0
        detail.append(f"{label}: sync {sync.mean:.4f}, min slack {slack:.4f}")
    assert _report(10, "synchronous dominance battery", all_ok, "; ".join(detail), t0)


def test_criterion_11_noncanonical_counterexample():
    t0 = time.time()
    out = levy_noncanonical_check()
    ok = out["covariance_max_abs_err"] <= 1e-12 and out["naive_distance_squared"] > 0.05
    assert _report(11, "non-canonical representation counterexample", ok,
                   f"cov err {out['covariance_max_abs_err']:.2e}, "
                   f"naive distance^2 {out['naive_distance_squared']:.4f}", t0)


def test_criterion_12_triangular_integral():
    t0 = time.time()
    cross = continuous_aw_unit(fbm_spec(0.5), fbm_spec(0.75)).cross_term
    rels = []
    for p in (16, 64, 256, 1024):
        val = triangular_integral(fbm_spec(0.5), fbm_spec(0.75), p)
        rels.append(abs(val - cross) / cross)
    ok = rels[-1] <= 0.01 and rels[-1] < rels[0]
    assert _report(12, "triangular integral refinement", ok,
                   "rel gaps " + ", ".join(f"{r:.4%}" for r in rels), t0)


def _random_unit_spec(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        kernel = MolchanGolosov(T=1.0, h=float(rng.uniform(0.55, 0.85)))
    elif kind == 1:
        kernel = RiemannLiouville(T=1.0, h=float(rng.uniform(0.55, 0.85)))
    else:
        a, b = rng.uniform(0.2, 1.5), rng.uniform(0.0, 1.0)
        kernel = ConstantVolatility(T=1.0, rho=lambda s, a=a, b=b: a + b * s)
    if rng.uniform() < 0.5:
        meas = LEB
    else:
        c0, c1 = rng.uniform(0.3, 1.5), rng.uniform(0.0, 1.0)
        meas = IntensityMeasure.from_density(lambda s, c0=c0, c1=c1: c0 + c1 * s, name="poly")
    return GaussianProcessSpec(components=[(kernel, meas)], T=1.0)


def test_criterion_13_higher_multiplicity_reduction():
    t0 = time.time()
    rng = np.random.default_rng(1313)
    grid = QuadratureGrid(n_s=96, n_t=96)
    worst_unit = 0.0
    for _ in range(20):
        s1, s2 = _random_unit_spec(rng), _random_unit_spec(rng)
        a = continuous_aw_unit(s1, s2, grid).distance_squared
        b = continuous_aw_multi(s1, s2, grid).distance_squared
        worst_unit = max(worst_unit, abs(a - b))

    worst_block = 0.0
    grid_b = QuadratureGrid(n_s=128, n_t=128)
    for trial in range(5):
        split = float(rng.uniform(0.35, 0.65))
        amps = rng.uniform(0.5, 1.5, size=4)

        def win(lo, hi, amp, slope):
            return CallableKernel(T=1.0, fn=lambda t, s, lo=lo, hi=hi, amp=amp, slope=slope:
                                  np.where((t >= lo) & (t < hi), amp + slope * s, 0.0))

        k1a, k1b = win(0.0, split, amps[0], 0.2), win(split, 1.0, amps[1], -0.1)
        k2a, k2b = win(0.0, split, amps[2], -0.3), win(split, 1.0, amps[3], 0.25)
        spec1 = GaussianProcessSpec(components=[(k1a, LEB), (k1b, LEB)], T=1.0)
        spec2 = GaussianProcessSpec(components=[(k2a, LEB), (k2b, LEB)], T=1.0)
        total = continuous_aw_multi(spec1, spec2, grid_b).distance_squared
        parts = sum(continuous_aw_unit(GaussianProcessSpec(components=[(ka, LEB)], T=1.0),
                                       GaussianProcessSpec(components=[(kb, LEB)], T=1.0),
                                       grid_b).distance_squared
                    for ka, kb in ((k1a, k2a), (k1b, k2b)))
        worst_block = max(worst_block, abs(total - parts) / parts)
    ok = worst_unit <= 1e-10 and worst_block <= 0.005
    assert _report(13, "higher-multiplicity reduction", ok,
                   f"unit gap {worst_unit:.2e}, block-diagonal rel gap {worst_block:.3%}", t0)
