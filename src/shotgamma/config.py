"""Declarative experiment configuration: YAML parsing, validation, presets.

A config file fully determines a run: system parameters, policy (fixed or
grids), costs (needed only by ``optimize`` and ``sensitivity``), simulation
controls and the master seed. Unknown keys are rejected so typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import yaml

from .arrivals import ShotNoiseParams
from .degradation import DeterministicScale, GammaModel, UniformInverseScale
from .errors import ValidationError, checked_number
from .lifetime import SystemSpec
from .maintenance import CostRates, PolicyParams, SimControl

# libyaml's parser where PyYAML was built with it, about 9x faster than the
# pure-Python one; both build values with the same safe constructor and resolver.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


def _section(node, where: str, required=(), optional=()) -> dict:
    """``node`` as a mapping with every ``required`` key and no key outside
    ``required`` and ``optional``; an absent (null) section reads as empty."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ValidationError(f"{where} must be a mapping, got {node!r}")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = [key for key in required if key not in node]
    if missing:
        raise ValidationError(f"{where} is missing key(s) {missing}")
    return node


@contextmanager
def _fields_of(where: str, keys=None):
    """Re-raise a parameter type's ``ValidationError`` once, with its section's
    prefix; ``keys`` maps a field's name to the config key it is read from."""
    try:
        yield
    except ValidationError as exc:
        name, sep, rest = str(exc).partition(" ")
        raise ValidationError(f"{where}.{(keys or {}).get(name, name)}{sep}{rest}") from None


def _grid_from(node, where: str) -> np.ndarray:
    if isinstance(node, list):
        return np.array([checked_number(v, f"{where}[{i}]", above=0) for i, v in enumerate(node)])
    grid = _section(node, where, required=("start", "stop", "count"))
    return np.linspace(
        checked_number(grid["start"], f"{where}.start", above=0),
        checked_number(grid["stop"], f"{where}.stop", above=0),
        checked_number(grid["count"], f"{where}.count", at_least=1, integer=True),
    )


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
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config '{source}' is not valid YAML: {exc}") from None
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    raw = _section(raw, "config", optional=(
        "system", "policy", "costs", "simulation", "master_seed", "horizon",
        "n_trajectories", "fit", "sensitivity", "validation",
    ))
    sys_raw = _section(raw.get("system"), "system", required=(
        "lambda0", "mu", "delta", "shape_rate", "scale", "failure_threshold",
    ))
    scale_raw = _section(sys_raw["scale"], "system.scale", optional=("beta", "uniform_inverse"))
    if len(scale_raw) != 1:
        raise ValidationError("system.scale must be {beta: ...} or {uniform_inverse: {a, b}}")
    if "beta" in scale_raw:
        with _fields_of("system.scale"):
            scale = DeterministicScale(scale_raw["beta"])
    else:
        where = "system.scale.uniform_inverse"
        ui = _section(scale_raw["uniform_inverse"], where, required=("a", "b"))
        with _fields_of(where):
            scale = UniformInverseScale(**ui)
    with _fields_of("system"):
        system = SystemSpec(
            ShotNoiseParams(sys_raw["lambda0"], sys_raw["mu"], sys_raw["delta"]),
            GammaModel(sys_raw["shape_rate"], scale),
            sys_raw["failure_threshold"],
        )

    pol_raw = _section(raw.get("policy"), "policy", optional=("T", "M", "T_grid", "M_grid"))
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
        with _fields_of("policy", {"inspection_period": "T", "preventive_threshold": "M"}):
            fixed = PolicyParams(pol_raw["T"], pol_raw["M"])
        fixed.validate_against(system)

    costs = None
    if raw.get("costs") is not None:
        cost_raw = _section(raw["costs"], "costs", required=(
            "preventive", "corrective", "inspection", "downtime_rate",
        ))
        with _fields_of("costs"):
            costs = CostRates(**cost_raw)

    sim_raw = dict(_section(raw.get("simulation"), "simulation", optional=(
        "n_cycles", "substeps", "max_inspections", "crossing_refinement",
    )))
    n_cycles = checked_number(
        sim_raw.pop("n_cycles", 6000), "simulation.n_cycles", at_least=1, integer=True
    )
    with _fields_of("simulation"):
        sim = SimControl(**sim_raw)

    # The CLI has its own defaults for these sections; only given keys are checked.
    fit_raw = _section(raw.get("fit"), "fit", optional=(
        "center", "grid_start", "grid_stop", "grid_count", "data",
    ))
    for key in ("center", "grid_start", "grid_stop"):
        if key in fit_raw:
            checked_number(fit_raw[key], f"fit.{key}")
    if "grid_count" in fit_raw:
        checked_number(fit_raw["grid_count"], "fit.grid_count", at_least=1, integer=True)
    sens_raw = _section(raw.get("sensitivity"), "sensitivity", optional=(
        "kind", "axis1", "axis2", "n_cycles",
    ))
    if sens_raw.get("kind", "parameters") not in ("parameters", "costs"):
        raise ValidationError(f"sensitivity.kind must be 'parameters' or 'costs', got {sens_raw['kind']!r}")
    for key in ("axis1", "axis2"):
        axis = sens_raw.get(key, [])
        if not isinstance(axis, list):
            raise ValidationError(f"sensitivity.{key} must be a list of numbers, got {axis!r}")
        for i, value in enumerate(axis):
            checked_number(value, f"sensitivity.{key}[{i}]")
    if "n_cycles" in sens_raw:
        checked_number(sens_raw["n_cycles"], "sensitivity.n_cycles", at_least=1, integer=True)
    val_raw = _section(raw.get("validation"), "validation", optional=("tolerance_scale",))
    if "tolerance_scale" in val_raw:
        checked_number(val_raw["tolerance_scale"], "validation.tolerance_scale")

    return ExperimentConfig(
        system=system,
        t_grid=t_grid,
        m_grid=m_grid,
        fixed_policy=fixed,
        costs=costs,
        n_cycles=n_cycles,
        sim=sim,
        master_seed=checked_number(raw.get("master_seed", 0), "master_seed", at_least=0, integer=True),
        horizon=checked_number(raw.get("horizon", 10.0), "horizon", above=0),
        n_trajectories=checked_number(
            raw.get("n_trajectories", 10000), "n_trajectories", at_least=1, integer=True
        ),
        fit=dict(fit_raw),
        sensitivity=dict(sens_raw),
        validation=dict(val_raw),
    )
