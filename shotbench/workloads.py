"""The benchmark's workloads: inputs, operations and output parsing.

Each workload writes its own config from the headline system below, runs
whole rounds of the same operations through the public CLI
(``shotgamma.cli.main``) or library, keeps what each round returned, and
checks every round after the timed part of the run. A round's inputs
depend only on the run's seed and the round number.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import oracles

# The headline scenario: base level 1, shock rate 2, decay 0.5, shape rate
# 1.1, rate 1.4 (or inverse rate uniform on 1/1.4 +- 0.1), failure level 10.
SYSTEM_DET = oracles.System(1.0, 2.0, 0.5, 1.1, 10.0, beta=1.4)
SYSTEM_RE = oracles.System(1.0, 2.0, 0.5, 1.1, 10.0, inv_scale=(1 / 1.4 - 0.1, 1 / 1.4 + 0.1))
COSTS = {"preventive": 100.0, "corrective": 200.0, "inspection": 50.0, "downtime_rate": 60.0}
SUBSTEPS = 16
MAX_INSPECTIONS = 200


def system_yaml(system: oracles.System) -> dict:
    scale = (
        {"beta": system.beta}
        if system.beta is not None
        else {"uniform_inverse": {"a": system.inv_scale[0], "b": system.inv_scale[1]}}
    )
    return {
        "lambda0": system.lambda0,
        "mu": system.mu,
        "delta": system.delta,
        "shape_rate": system.shape_rate,
        "scale": scale,
        "failure_threshold": system.failure_threshold,
    }


def write_config(path: Path, config: dict) -> None:
    # JSON is a subset of YAML 1.2 and every value here is a plain number.
    path.write_text(json.dumps(config, indent=1) + "\n")


def round_seed(seed: int, rnd: int) -> int:
    return int(np.random.SeedSequence([seed, rnd]).generate_state(1, dtype=np.uint32)[0])


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], float).reshape(-1, len(names))
    return {n: data[:, i] for i, n in enumerate(names)}


@dataclass
class Op:
    """One timed operation of a round."""

    kind: str
    seconds: float
    ok: bool
    result: object = None


class Workload:
    name = ""
    config_name = "config.yaml"

    def __init__(self, workdir: Path, seed: int, tracer):
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.rounds: list[list[Op]] = []

    @property
    def config_path(self) -> Path:
        return self.workdir / self.config_name

    def cli(self, kind: str, argv: list[str]) -> Op:
        from shotgamma import cli

        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with self.tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - t0
        if code != 0:
            print(f"{kind}: exit code {code}", file=sys.stderr)
        return Op(kind, seconds, code == 0)

    def op_rates(self) -> dict:
        """Per-command rates for the traced run, where a round mixes commands."""
        return {}

    # Subclasses: prepare(), warm_up(), run_round(r) -> list[Op],
    # check() -> list[str], throughput(ops) -> float, work_done() -> dict.


class GridDet(Workload):
    """``shotgamma optimize`` over the full 10x8 headline grid."""

    name = "grid_det"
    n_cycles = 100
    t_grid = np.linspace(1.0, 25.0, 10)
    m_grid = np.linspace(1.0, 10.0, 8)

    def config(self, n_cycles, t_grid, m_grid) -> dict:
        return {
            "system": system_yaml(SYSTEM_DET),
            "policy": {"T_grid": [float(t) for t in t_grid], "M_grid": [float(m) for m in m_grid]},
            "costs": COSTS,
            "simulation": {"n_cycles": n_cycles, "substeps": SUBSTEPS, "max_inspections": MAX_INSPECTIONS},
            "master_seed": 0,
        }

    def prepare(self):
        write_config(self.config_path, self.config(self.n_cycles, self.t_grid, self.m_grid))
        write_config(self.workdir / "warm.yaml", self.config(2, self.t_grid[:2], self.m_grid[-2:]))

    def warm_up(self):
        self.cli("warm", ["optimize", "--config", str(self.workdir / "warm.yaml"),
                          "--out", str(self.workdir / "warm"), "--threads", "1", "--deterministic"])

    def run_round(self, r: int) -> list[Op]:
        out = self.workdir / "optimize"
        op = self.cli("optimize", ["optimize", "--config", str(self.config_path), "--out", str(out),
                                   "--seed", str(round_seed(self.seed, r)), "--threads", "1",
                                   "--deterministic"])
        if op.ok:
            op.result = (read_csv(out / "surface.csv"), json.loads((out / "run_manifest.json").read_text()))
        return [op]

    def cell_cycles_per_round(self) -> int:
        return self.t_grid.size * self.m_grid.size * self.n_cycles

    def throughput(self, ops: list[Op]) -> float:
        return self.cell_cycles_per_round() / ops[0].seconds

    def work_done(self) -> dict:
        return {"cell_cycles": self.cell_cycles_per_round() * len(self.rounds)}

    def oracle(self) -> dict:
        times = np.unique(np.concatenate([oracles.inspection_times(T) for T in self.t_grid]))
        tables = {float(m): oracles.survival_table(SYSTEM_DET, m, times) for m in self.m_grid}
        return {
            "moments": {(float(T), float(m)): oracles.renewal_moments(tables[float(m)], T)
                        for T in self.t_grid for m in self.m_grid},
            "failure_mean": tables[SYSTEM_DET.failure_threshold].mean_time,
        }

    def check(self) -> list[str]:
        ref = self.oracle()
        fails = []
        for r, ops in enumerate(self.rounds):
            op = ops[0]
            if not op.ok:
                continue
            surface, manifest = op.result
            fails += [f"round {r}: {m}" for m in checks.check_grid(
                surface, manifest, self.t_grid, self.m_grid, self.n_cycles, ref["moments"],
                ref["failure_mean"], SYSTEM_DET.failure_threshold, COSTS, SUBSTEPS)]
        return fails


class CostSweepRE(Workload):
    """``shotgamma sensitivity`` with ``kind: costs`` at one fixed policy, random effects."""

    name = "cost_sweep_re"
    n_cycles = 250
    policy = (1.5, 8.0)
    n_corrective = 3
    n_preventive = 3

    def config(self, axis1, axis2, n_cycles) -> dict:
        return {
            "system": system_yaml(SYSTEM_RE),
            "policy": {"T": self.policy[0], "M": self.policy[1]},
            "costs": COSTS,
            "simulation": {"n_cycles": n_cycles, "substeps": SUBSTEPS, "max_inspections": MAX_INSPECTIONS},
            "sensitivity": {"kind": "costs", "axis1": axis1, "axis2": axis2, "n_cycles": n_cycles},
            "master_seed": 0,
        }

    def cost_axes(self, r: int) -> tuple[list[float], list[float]]:
        """Corrective costs in [150, 400) and preventive in [20, 150): every pair has C_c >= C_p."""
        rng = np.random.default_rng([self.seed, r, 1])
        cc = np.sort(np.round(rng.uniform(150.0, 400.0, self.n_corrective), 4))
        cp = np.sort(np.round(rng.uniform(20.0, 150.0, self.n_preventive), 4))
        return [float(v) for v in cc], [float(v) for v in cp]

    def prepare(self):
        self.round_config(0)
        write_config(self.workdir / "warm.yaml", self.config([200.0, 300.0], [100.0], 2))

    def warm_up(self):
        self.cli("warm", ["sensitivity", "--config", str(self.workdir / "warm.yaml"),
                          "--out", str(self.workdir / "warm"), "--threads", "1", "--deterministic"])

    def round_config(self, r: int) -> Path:
        cc, cp = self.cost_axes(r)
        write_config(self.config_path, self.config(cc, cp, self.n_cycles))
        return self.config_path

    def run_round(self, r: int) -> list[Op]:
        path = self.round_config(r)
        out = self.workdir / "sensitivity"
        op = self.cli("sensitivity", ["sensitivity", "--config", str(path), "--out", str(out),
                                      "--seed", str(round_seed(self.seed, r)), "--threads", "1",
                                      "--deterministic"])
        if op.ok:
            op.result = read_csv(out / "sensitivity.csv")
        return [op]

    def cell_cycles_per_round(self) -> int:
        return self.n_corrective * self.n_preventive * self.n_cycles

    def throughput(self, ops: list[Op]) -> float:
        return self.cell_cycles_per_round() / ops[0].seconds

    def work_done(self) -> dict:
        return {"cell_cycles": self.cell_cycles_per_round() * len(self.rounds)}

    def oracle(self) -> oracles.RenewalMoments:
        T, M = self.policy
        table = oracles.survival_table(SYSTEM_RE, M, oracles.inspection_times(T))
        return oracles.renewal_moments(table, T)

    def check(self) -> list[str]:
        moments = self.oracle()
        fails = []
        for r, ops in enumerate(self.rounds):
            op = ops[0]
            if not op.ok:
                continue
            fails += [f"round {r}: {m}" for m in checks.check_sweep(
                op.result, self.policy, moments, self.n_cycles)]
        return fails


class AnalyticStack(Workload):
    """Analytic cost cells, ``shotgamma reliability`` and ``shotgamma fit``; no cycle simulation."""

    name = "analytic_stack"
    # M < L values shared across T, plus one pure-corrective cell (M = L).
    cells = [(6.0, 5.0), (8.0, 5.0), (6.0, 7.0), (8.0, 7.0), (6.0, 10.0)]
    n_trajectories = 20000
    horizon = 10.0
    n_processes = 250
    obs_times = np.arange(2.0, 21.0, 2.0)
    half_width = 0.25
    center = 1 / 1.4
    fit_grid = (0.02, 0.6, 30)

    def config(self) -> dict:
        return {
            "system": system_yaml(SYSTEM_DET),
            "costs": COSTS,
            "master_seed": 0,
            "horizon": self.horizon,
            "n_trajectories": self.n_trajectories,
            "fit": {"center": self.center, "grid_start": self.fit_grid[0],
                    "grid_stop": self.fit_grid[1], "grid_count": self.fit_grid[2]},
        }

    def prepare(self):
        from shotgamma import CostRates, GammaModel, ShotNoiseParams, SystemSpec

        write_config(self.config_path, self.config())
        s = SYSTEM_DET
        self.spec = SystemSpec(ShotNoiseParams(s.lambda0, s.mu, s.delta),
                               GammaModel.deterministic(s.shape_rate, s.beta), s.failure_threshold)
        self.costs = CostRates(**COSTS)
        self.fit_data: list[tuple] = []

    def warm_up(self):
        from shotgamma import PolicyParams
        from shotgamma.analytics import cost_rate_analytic

        cost_rate_analytic(self.spec, PolicyParams(*self.cells[-1]), self.costs)
        self.clear_caches()

    @staticmethod
    def clear_caches():
        """Empty every function cache of the library (today the two law caches).

        A CLI process pays for every law build; so does each round.
        """
        for name, module in list(sys.modules.items()):
            if name.startswith("shotgamma."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    def write_observations(self, r: int) -> Path:
        """Gamma paths whose inverse rates are uniform on ``center +- half_width``."""
        rng = np.random.default_rng([self.seed, r, 2])
        theta = rng.uniform(self.center - self.half_width, self.center + self.half_width, self.n_processes)
        dts = np.diff(np.concatenate(([0.0], self.obs_times)))
        levels = np.cumsum(rng.gamma(SYSTEM_DET.shape_rate * dts, theta[:, None]), axis=1)
        path = self.workdir / "observations.csv"
        lines = ["process_id,time,level"]
        for p in range(self.n_processes):
            lines += [f"{p},{t:.12g},{x:.12g}" for t, x in zip(self.obs_times, levels[p])]
        path.write_text("\n".join(lines) + "\n")
        # Keep the values as written, which is what the program reads.
        written = read_csv(path)
        ids = written["process_id"].astype(int)
        self.fit_data.append(([written["time"][ids == p] for p in range(self.n_processes)],
                              [written["level"][ids == p] for p in range(self.n_processes)]))
        return path

    def run_round(self, r: int) -> list[Op]:
        from shotgamma import PolicyParams
        from shotgamma.analytics import cost_rate_analytic

        self.clear_caches()
        ops = []
        for T, M in self.cells:
            t0 = time.perf_counter()
            try:
                with self.tracer.span("analytics.cost_rate_analytic"):
                    value = cost_rate_analytic(self.spec, PolicyParams(T, M), self.costs)
                ok = True
            except Exception:
                traceback.print_exc(file=sys.stderr)
                value, ok = None, False
            ops.append(Op("cell", time.perf_counter() - t0, ok, value))
        seed = str(round_seed(self.seed, r))
        out = self.workdir / "reliability"
        op = self.cli("reliability", ["reliability", "--config", str(self.config_path), "--out", str(out),
                                      "--seed", seed, "--threads", "1", "--deterministic"])
        if op.ok:
            op.result = read_csv(out / "lifetime.csv")
        ops.append(op)
        data = self.write_observations(r)
        out = self.workdir / "fit"
        op = self.cli("fit", ["fit", "--config", str(self.config_path), "--data", str(data),
                              "--out", str(out), "--seed", seed, "--threads", "1", "--deterministic"])
        if op.ok:
            op.result = (read_csv(out / "fit_curve.csv"), json.loads((out / "run_manifest.json").read_text()))
        ops.append(op)
        return ops

    def throughput(self, ops: list[Op]) -> float:
        return 1.0 / sum(op.seconds for op in ops)

    def op_rates(self) -> dict:
        """Median per-command rates over the run's rounds."""
        def med(kind, work):
            per_round = [work / sum(o.seconds for o in ops if o.kind == kind) for ops in self.rounds]
            return float(np.median(per_round))

        return {
            "analytics.cost_rate_analytic.cells_per_s": med("cell", len(self.cells)),
            "cli.reliability.systems_per_s": med("reliability", self.n_trajectories),
            "cli.fit.fits_per_s": med("fit", 1.0),
        }

    def work_done(self) -> dict:
        return {"cells": len(self.cells) * len(self.rounds), "fits": len(self.rounds)}

    def cell_reference(self, T: float, M: float) -> tuple:
        """A cell's parts from ``analytic_cycle_quantities`` and its independent values.

        Returns ``(parts, S_M at the window ends, renewal moments, exact
        pure-corrective rate or None)``.
        """
        from shotgamma import PolicyParams
        from shotgamma.analytics import analytic_cycle_quantities

        q = analytic_cycle_quantities(self.spec, PolicyParams(T, M))
        parts = {"P_p": q.preventive_probs, "P_c": q.corrective_probs, "E_d": q.downtimes,
                 "E_R": q.expected_cycle_length, "E_N": q.expected_inspections}
        table = oracles.survival_table(SYSTEM_DET, M, oracles.inspection_times(T))
        moments = oracles.renewal_moments(table, T)
        surv = [table.at(T * j) for j in range(q.preventive_probs.size + 1)]
        pure = (oracles.pure_corrective_rate(moments, table.mean_time, COSTS)
                if M == SYSTEM_DET.failure_threshold else None)
        return parts, surv, moments, pure

    def lifetime_reference(self) -> dict:
        """Independent survival of the failure level at t = 1, 2, .., horizon."""
        times = np.arange(1.0, self.horizon + 0.5, 1.0)
        table = oracles.survival_table(SYSTEM_DET, SYSTEM_DET.failure_threshold, times)
        return {float(t): table.at(t) for t in times}

    def fit_reference(self, r: int, half_widths) -> np.ndarray:
        """Independent negative log-likelihoods of round ``r``'s data."""
        times, levels = self.fit_data[r]
        return np.array([oracles.mixture_neg_log_likelihood(SYSTEM_DET.shape_rate, self.center - w,
                                                            self.center + w, times, levels)
                         for w in half_widths])

    def check(self) -> list[str]:
        fails = []
        for i, (T, M) in enumerate(self.cells):
            values = [ops[i].result for ops in self.rounds if ops[i].ok]
            if values:
                parts, surv, moments, pure = self.cell_reference(T, M)
                fails += [f"cell T={T} M={M}: {m}" for m in checks.check_analytic_cell(
                    T, parts, values, surv, moments, COSTS, pure)]
        ref = self.lifetime_reference()
        limit = oracles.hazard_limit(SYSTEM_DET)
        for r, ops in enumerate(self.rounds):
            rel, fit = ops[-2], ops[-1]
            if rel.ok:
                fails += [f"round {r} reliability: {m}" for m in checks.check_lifetime(
                    rel.result, ref, limit, self.n_trajectories)]
            if fit.ok:
                curve, manifest = fit.result
                fails += [f"round {r} fit: {m}" for m in checks.check_fit(
                    curve, self.fit_reference(r, curve["alpha_star"]), manifest["alpha_star_hat"],
                    manifest["neg_log_likelihood"], self.center)]
        return fails


WORKLOADS = {w.name: w for w in (GridDet, CostSweepRE, AnalyticStack)}
