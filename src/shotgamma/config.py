"""Declarative experiment configuration: YAML parsing, validation, presets.

A config file fully determines a run: system parameters, policy (fixed or
grids), costs (needed only by ``optimize`` and ``sensitivity``), simulation
controls and the master seed. Unknown keys are rejected so typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .arrivals import ShotNoiseParams
from .degradation import DeterministicScale, GammaModel, UniformInverseScale
from .errors import ValidationError
from .lifetime import SystemSpec
from .maintenance import CostRates, PolicyParams, SimControl

PRESETS = {
    "benchmark_deterministic": """
system:
  lambda0: 1.0
  mu: 2.0
  delta: 0.5
  shape_rate: 1.1
  scale: {beta: 1.4}
  failure_threshold: 10.0
policy:
  T_grid: {start: 1.0, stop: 25.0, count: 10}
  M_grid: {start: 1.0, stop: 10.0, count: 8}
costs: {preventive: 100.0, corrective: 200.0, inspection: 50.0, downtime_rate: 60.0}
simulation: {n_cycles: 6000, substeps: 16, max_inspections: 200}
master_seed: 20240
""",
    "benchmark_random_effects": """
system:
  lambda0: 1.0
  mu: 2.0
  delta: 0.5
  shape_rate: 1.1
  scale: {uniform_inverse: {a: 0.6142857142857143, b: 0.8142857142857143}}
  failure_threshold: 10.0
policy:
  T_grid: {start: 1.0, stop: 25.0, count: 10}
  M_grid: {start: 1.0, stop: 10.0, count: 8}
costs: {preventive: 100.0, corrective: 200.0, inspection: 50.0, downtime_rate: 60.0}
simulation: {n_cycles: 6000, substeps: 16, max_inspections: 200}
master_seed: 20241
""",
}


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _integer(section: dict, key: str, default: int, where: str, minimum: int) -> int:
    """``section[key]``, or ``default`` when absent, as an integer of at least ``minimum``.

    Booleans, floats, strings and null are rejected, never coerced.
    """
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{where} must be at least {minimum}, got {value}")
    return value


def _number(value, where: str) -> None:
    """Reject ``value`` unless it is an integer or a float: never a bool, string or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")


def _grid_from(node, where: str) -> np.ndarray:
    if isinstance(node, (list, tuple)):
        return np.asarray(node, float)
    if isinstance(node, dict):
        _require_keys(node, {"start", "stop", "count"}, where)
        return np.linspace(float(node["start"]), float(node["stop"]), int(node["count"]))
    raise ValidationError(f"{where} must be a list or a start/stop/count mapping")


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    system: SystemSpec
    t_grid: np.ndarray | None
    m_grid: np.ndarray | None
    fixed_policy: PolicyParams | None
    costs: CostRates | None
    n_cycles: int
    sim: SimControl
    master_seed: int
    horizon: float
    n_trajectories: int
    fit: dict = field(default_factory=dict)
    sensitivity: dict = field(default_factory=dict)
    validation: dict = field(default_factory=dict)

    def policy_or_error(self) -> PolicyParams:
        if self.fixed_policy is None:
            raise ValidationError("this command needs a fixed policy: set policy.T and policy.M")
        return self.fixed_policy

    def costs_or_error(self) -> CostRates:
        if self.costs is None:
            raise ValidationError("this command needs a costs section")
        return self.costs

    def grids_or_error(self) -> tuple[np.ndarray, np.ndarray]:
        if self.t_grid is None or self.m_grid is None:
            raise ValidationError("this command needs policy.T_grid and policy.M_grid")
        return self.t_grid, self.m_grid

    def as_dict(self) -> dict:
        scale = self.system.growth.scale_spec
        if isinstance(scale, DeterministicScale):
            scale_d = {"beta": scale.beta}
        else:
            scale_d = {"uniform_inverse": {"a": scale.a, "b": scale.b}}
        out = {
            "system": {
                "lambda0": self.system.arrivals.lambda0,
                "mu": self.system.arrivals.mu,
                "delta": self.system.arrivals.delta,
                "shape_rate": self.system.growth.shape_rate,
                "scale": scale_d,
                "failure_threshold": self.system.failure_threshold,
            },
            "policy": {},
            "simulation": {
                "n_cycles": self.n_cycles,
                "substeps": self.sim.substeps,
                "max_inspections": self.sim.max_inspections,
                "crossing_refinement": self.sim.crossing_refinement,
            },
            "master_seed": self.master_seed,
            "horizon": self.horizon,
            "n_trajectories": self.n_trajectories,
        }
        if self.t_grid is not None:
            out["policy"]["T_grid"] = list(map(float, self.t_grid))
            out["policy"]["M_grid"] = list(map(float, self.m_grid))
        if self.fixed_policy is not None:
            out["policy"]["T"] = self.fixed_policy.inspection_period
            out["policy"]["M"] = self.fixed_policy.preventive_threshold
        if self.costs is not None:
            out["costs"] = {
                "preventive": self.costs.preventive,
                "corrective": self.costs.corrective,
                "inspection": self.costs.inspection,
                "downtime_rate": self.costs.downtime_rate,
            }
        if self.fit:
            out["fit"] = self.fit
        if self.sensitivity:
            out["sensitivity"] = self.sensitivity
        if self.validation:
            out["validation"] = self.validation
        return out


def load_config(source: str) -> ExperimentConfig:
    """Load a config from a preset name or a YAML file path."""
    if source in PRESETS:
        text = PRESETS[source]
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(
                f"config '{source}' is neither a preset ({', '.join(sorted(PRESETS))}) "
                f"nor a readable file: {exc}"
            ) from None
    raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ValidationError("config must be a mapping")
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require_keys(
        raw,
        {"system", "policy", "costs", "simulation", "master_seed", "horizon",
         "n_trajectories", "fit", "sensitivity", "validation"},
        "config",
    )
    sys_raw = raw.get("system")
    if not isinstance(sys_raw, dict):
        raise ValidationError("config needs a system section")
    _require_keys(
        sys_raw,
        {"lambda0", "mu", "delta", "shape_rate", "scale", "failure_threshold"},
        "system",
    )
    try:
        arrivals = ShotNoiseParams(
            float(sys_raw["lambda0"]), float(sys_raw["mu"]), float(sys_raw["delta"])
        )
    except KeyError as exc:
        raise ValidationError(f"system section is missing {exc}") from None
    scale_raw = sys_raw.get("scale")
    if not isinstance(scale_raw, dict) or len(scale_raw) != 1:
        raise ValidationError("system.scale must be {beta: ...} or {uniform_inverse: {a, b}}")
    if "beta" in scale_raw:
        scale = DeterministicScale(float(scale_raw["beta"]))
    elif "uniform_inverse" in scale_raw:
        ui = scale_raw["uniform_inverse"]
        _require_keys(ui, {"a", "b"}, "system.scale.uniform_inverse")
        scale = UniformInverseScale(float(ui["a"]), float(ui["b"]))
    else:
        raise ValidationError("system.scale must be {beta: ...} or {uniform_inverse: {a, b}}")
    growth = GammaModel(float(sys_raw["shape_rate"]), scale)
    system = SystemSpec(arrivals, growth, float(sys_raw["failure_threshold"]))

    pol_raw = raw.get("policy", {}) or {}
    _require_keys(pol_raw, {"T", "M", "T_grid", "M_grid"}, "policy")
    t_grid = m_grid = None
    if "T_grid" in pol_raw or "M_grid" in pol_raw:
        if not ("T_grid" in pol_raw and "M_grid" in pol_raw):
            raise ValidationError("policy grids must give both T_grid and M_grid")
        t_grid = _grid_from(pol_raw["T_grid"], "policy.T_grid")
        m_grid = _grid_from(pol_raw["M_grid"], "policy.M_grid")
        if np.any(m_grid > system.failure_threshold):
            raise ValidationError("policy.M_grid exceeds the failure threshold")
    fixed = None
    if "T" in pol_raw or "M" in pol_raw:
        if not ("T" in pol_raw and "M" in pol_raw):
            raise ValidationError("a fixed policy must give both T and M")
        fixed = PolicyParams(float(pol_raw["T"]), float(pol_raw["M"]))
        fixed.validate_against(system)

    cost_raw = raw.get("costs")
    costs = None
    if cost_raw is not None:
        if not isinstance(cost_raw, dict):
            raise ValidationError("costs must be a mapping")
        _require_keys(cost_raw, {"preventive", "corrective", "inspection", "downtime_rate"}, "costs")
        try:
            costs = CostRates(
                float(cost_raw["preventive"]),
                float(cost_raw["corrective"]),
                float(cost_raw["inspection"]),
                float(cost_raw["downtime_rate"]),
            )
        except KeyError as exc:
            raise ValidationError(f"costs section is missing {exc}") from None

    sim_raw = raw.get("simulation", {}) or {}
    _require_keys(
        sim_raw, {"n_cycles", "substeps", "max_inspections", "crossing_refinement"}, "simulation"
    )
    sim = SimControl(
        substeps=_integer(sim_raw, "substeps", 16, "simulation.substeps", 1),
        max_inspections=_integer(sim_raw, "max_inspections", 200, "simulation.max_inspections", 1),
        crossing_refinement=_integer(
            sim_raw, "crossing_refinement", 0, "simulation.crossing_refinement", 0
        ),
    )
    n_cycles = _integer(sim_raw, "n_cycles", 6000, "simulation.n_cycles", 1)

    # The CLI has its own defaults for these sections; only given keys are checked.
    fit_raw = raw.get("fit", {}) or {}
    _require_keys(fit_raw, {"center", "grid_start", "grid_stop", "grid_count", "data"}, "fit")
    for key in ("center", "grid_start", "grid_stop"):
        if key in fit_raw:
            _number(fit_raw[key], f"fit.{key}")
    if "grid_count" in fit_raw:
        _integer(fit_raw, "grid_count", None, "fit.grid_count", 1)
    sens_raw = raw.get("sensitivity", {}) or {}
    _require_keys(sens_raw, {"kind", "axis1", "axis2", "n_cycles"}, "sensitivity")
    for key in ("axis1", "axis2"):
        axis = sens_raw.get(key, [])
        if not isinstance(axis, list):
            raise ValidationError(f"sensitivity.{key} must be a list of numbers, got {axis!r}")
        for i, value in enumerate(axis):
            _number(value, f"sensitivity.{key}[{i}]")
    if "n_cycles" in sens_raw:
        _integer(sens_raw, "n_cycles", None, "sensitivity.n_cycles", 1)
    val_raw = raw.get("validation", {}) or {}
    _require_keys(val_raw, {"tolerance_scale"}, "validation")
    if "tolerance_scale" in val_raw:
        _number(val_raw["tolerance_scale"], "validation.tolerance_scale")

    return ExperimentConfig(
        system=system,
        t_grid=t_grid,
        m_grid=m_grid,
        fixed_policy=fixed,
        costs=costs,
        n_cycles=n_cycles,
        sim=sim,
        master_seed=_integer(raw, "master_seed", 0, "master_seed", 0),
        horizon=float(raw.get("horizon", 10.0)),
        n_trajectories=_integer(raw, "n_trajectories", 10000, "n_trajectories", 1),
        fit=dict(fit_raw),
        sensitivity=dict(sens_raw),
        validation=dict(val_raw),
    )
