"""JSON config parsing: kernels, measures, process specs, and scenarios.

These builders back both the CLI and the file-based interfaces, so every
numeric parameter is validated against the receiving operation's
preconditions before any computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .fsde import CouplingControl, FsdeSpec, _tabulated_fn, make_diffusion, make_drift
from .kernels import (Brownian, ConstantVolatility, FractionalOU, GaussianProcessSpec,
                      IntensityMeasure, MolchanGolosov, RiemannLiouville, Tabulated,
                      VolterraKernel, load_tabulated_csv)

__all__ = ["build_kernel", "build_measure", "build_process_spec", "Scenario",
           "build_scenario", "build_controls"]


def _poly(coeffs):
    c = np.asarray(coeffs, dtype=float)
    return lambda s: np.polyval(c[::-1], np.asarray(s, dtype=float))


def build_kernel(cfg: dict | str, T: float) -> VolterraKernel:
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg.get("kind")
    if kind in ("molchan_golosov", "mg"):
        return MolchanGolosov(T=T, h=float(cfg["h"]))
    if kind in ("riemann_liouville", "rl"):
        return RiemannLiouville(T=T, h=float(cfg["h"]))
    if kind == "fou":
        return FractionalOU(T=T, h=float(cfg["h"]), lam=float(cfg.get("lam", 1.0)),
                            base=cfg.get("base", "mg"),
                            convention=cfg.get("convention", "mild"),
                            n_inner=int(cfg.get("n_inner", 64)))
    if kind == "brownian":
        return Brownian(T=T)
    if kind == "constant_volatility":
        if "coeffs" in cfg:
            return ConstantVolatility(T=T, rho=_poly(cfg["coeffs"]))
        return ConstantVolatility(T=T, rho=_tabulated_fn(cfg["s"], cfg["rho"], "volatility table"))
    if kind == "tabulated":
        if "csv" in cfg:
            return load_tabulated_csv(cfg["csv"], T=T)
        return Tabulated(T=T, t_grid=np.asarray(cfg["t_grid"], dtype=float),
                         s_grid=np.asarray(cfg["s_grid"], dtype=float),
                         values=np.asarray(cfg["values"], dtype=float))
    raise DomainError(f"unknown kernel kind {kind!r}")


def build_measure(cfg: dict | str | None) -> IntensityMeasure:
    if cfg is None:
        return IntensityMeasure.lebesgue()
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg.get("kind", "lebesgue")
    if kind == "lebesgue":
        return IntensityMeasure.lebesgue()
    if kind == "cantor":
        return IntensityMeasure.cantor()
    if kind == "poly":
        return IntensityMeasure.from_density(_poly(cfg["coeffs"]), name="poly")
    if kind == "tabulated":
        return IntensityMeasure.from_density(_tabulated_fn(cfg["s"], cfg["rho"], "density table"),
                                             name="tabulated")
    raise DomainError(f"unknown measure kind {kind!r}")


def build_process_spec(cfg: dict | str | Path) -> GaussianProcessSpec:
    """Process spec from a config dict or a path to a JSON file."""
    if isinstance(cfg, (str, Path)):
        with open(cfg) as fh:
            cfg = json.load(fh)
    T = float(cfg.get("T", 1.0))
    comps = []
    for comp in cfg["components"]:
        comps.append((build_kernel(comp["kernel"], T), build_measure(comp.get("measure"))))
    return GaussianProcessSpec(components=comps, T=T)


def build_controls(cfg_list, T: float, n_cells_default: int = 16) -> list[CouplingControl]:
    controls: list[CouplingControl] = []
    for cfg in cfg_list:
        if isinstance(cfg, str):
            cfg = {"kind": cfg}
        kind = cfg["kind"]
        if kind in ("synchronous", "antithetic", "independent"):
            controls.append(getattr(CouplingControl, kind)())
        elif kind == "piecewise_constant":
            controls.append(CouplingControl.piecewise_constant(cfg["values"], T))
        elif kind == "tabulated":
            controls.append(CouplingControl.tabulated(cfg["times"], cfg["values"]))
        elif kind == "random_piecewise":
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=(int(cfg.get("seed", 0)), 13))))
            cells = int(cfg.get("cells", n_cells_default))
            if cells < 1:
                raise DomainError(f"random_piecewise control needs cells >= 1, got {cells}")
            for _ in range(int(cfg.get("count", 1))):
                controls.append(CouplingControl.piecewise_constant(
                    gen.uniform(-1.0, 1.0, size=cells), T))
        else:
            raise DomainError(f"unknown control kind {kind!r}")
    return controls


@dataclass
class Scenario:
    """Parsed simulation scenario: two SDE specs, grid, and control battery."""

    spec1: FsdeSpec
    spec2: FsdeSpec
    n_steps: int
    n_paths: int
    seed: int
    controls: list[CouplingControl]


def build_scenario(cfg: dict | str | Path) -> Scenario:
    if isinstance(cfg, (str, Path)):
        with open(cfg) as fh:
            cfg = json.load(fh)
    T = float(cfg.get("T", 1.0))
    specs = []
    for i in (1, 2):
        kcfg = cfg.get(f"kernel{i}", {"kind": "molchan_golosov"})
        if isinstance(kcfg, str):
            kcfg = {"kind": kcfg}
        if "h" not in kcfg and f"h{i}" in cfg:
            kcfg = {**kcfg, "h": cfg[f"h{i}"]}
        kernel = build_kernel(kcfg, T)
        drift, drift_name = make_drift(cfg.get(f"drift{i}", "zero"))
        diffusion, diff_name = make_diffusion(cfg.get(f"sigma{i}", {"name": "const", "c": 1.0}))
        specs.append(FsdeSpec(drift=drift, diffusion=diffusion,
                              x0=float(cfg.get(f"x0{i}", 0.0)), noise_kernel=kernel, T=T,
                              drift_name=drift_name, diffusion_name=diff_name))
    n_steps = int(cfg.get("M", 256))
    if n_steps < 8:
        raise DomainError("scenario grid M must be at least 8")
    n_paths = int(cfg.get("n_paths", 10_000))
    if n_paths < 2:
        raise DomainError("scenario needs at least 2 paths")
    controls = build_controls(cfg.get("controls", ["synchronous"]), T)
    return Scenario(spec1=specs[0], spec2=specs[1], n_steps=n_steps, n_paths=n_paths,
                    seed=int(cfg.get("seed", 0)), controls=controls)
