"""Spans around the public calls between the program's modules.

Used only by the traced run (``--trace 1``). :func:`install` rebinds each
traced name in the module that calls it -- ``cli.grid_search``,
``maintenance.simulate_cycle``, ``analytics.first_passage_law``,
``lifetime.FirstPassageLaw`` and so on -- to a wrapper that records a span
(name, start, end, parent) and, where the call returns work done, a count.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] += n

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is the span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            rec = out.setdefault(self.names[i], [0, 0, 0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return {k: (c, t * 1e-9, s * 1e-9) for k, (c, t, s) in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")


NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stand-in for the untraced run: spans cost one attribute lookup."""

    def span(self, name: str):
        return NULL_SPAN


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(out, args, kwargs)
        return out

    return traced


def install(tracer: Tracer):
    """Rebind the traced names; returns a function that restores them."""
    from shotgamma import analytics, cli, degradation, lifetime, maintenance

    originals = []

    def patch(module, attr, name, on_result=None):
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, name, fn, on_result))

    def on_cycle(out, args, kwargs):
        tracer.count("maintenance.cycles")
        tracer.count("maintenance.windows", out.inspections)
        if out.action == maintenance.CENSORED:
            tracer.count("maintenance.censored_cycles")

    def on_draws(out, args, kwargs):
        tracer.count("lifetime.HittingTimeSampler.draws", len(out))

    def on_arrivals(out, args, kwargs):
        tracer.count("arrivals.arrivals", len(out[1]))

    patch(cli, "load_config", "config.load_config")
    patch(cli, "grid_search", "maintenance.grid_search")
    patch(cli, "sensitivity_sweep", "maintenance.sensitivity_sweep")
    patch(maintenance, "estimate_cost_rate", "maintenance.estimate_cost_rate")
    patch(maintenance, "simulate_cycle", "maintenance.simulate_cycle", on_cycle)
    patch(maintenance, "cycle_rng", "maintenance.cycle_rng")

    patch(cli, "first_passage_law", "lifetime.first_passage_law")
    patch(analytics, "first_passage_law", "lifetime.first_passage_law")
    patch(lifetime, "FirstPassageLaw", "lifetime.FirstPassageLaw.build")
    patch(cli, "simulate_first_passage_batch", "lifetime.simulate_first_passage_batch")
    patch(lifetime.HittingTimeSampler, "sample", "lifetime.HittingTimeSampler.sample", on_draws)
    patch(lifetime, "simulate_arrival_batch", "arrivals.simulate_arrival_batch", on_arrivals)

    patch(degradation, "DeltaHittingLaw", "degradation.DeltaHittingLaw.build")
    patch(cli, "log_likelihood", "degradation.log_likelihood")
    patch(degradation, "log_likelihood", "degradation.log_likelihood")
    patch(cli, "fit_half_width", "degradation.fit_half_width")
    patch(degradation, "log_gamma_diff", "special.log_gamma_diff")

    pa = analytics.PolicyAnalytics
    patch(pa, "__init__", "analytics.PolicyAnalytics.build")
    patch(pa, "window_split", "analytics.window_split")
    patch(pa, "secondary_void", "analytics.secondary_void")
    patch(pa, "cycle_length_series", "analytics.cycle_length_series")

    def uninstall():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return uninstall


# Every per-layer metric of the traced run, in the order printed, with its
# unit. The three per-command rates come from the workload (analytic_stack).
UNITS = {
    "run.throughput_per_s": "1/s",
    "config.load_config.ms": "ms",
    "cli.self_ms": "ms",
    "maintenance.cycle_rng.us_per_call": "us",
    "maintenance.simulate_cycle.us_per_window": "us",
    "maintenance.simulate_cycle.us_per_cycle": "us",
    "maintenance.estimate_cost_rate.self_us_per_cycle": "us",
    "maintenance.grid_search.self_ms": "ms",
    "maintenance.sensitivity_sweep.self_ms": "ms",
    "maintenance.cycles": "count",
    "maintenance.windows": "count",
    "maintenance.windows_per_cycle": "ratio",
    "maintenance.cycles_simulated_per_cell_cycle": "ratio",
    "maintenance.censored_cycles": "count",
    "lifetime.FirstPassageLaw.build_ms": "ms",
    "lifetime.FirstPassageLaw.builds": "count",
    "lifetime.first_passage_law.hit_ratio": "ratio",
    "lifetime.simulate_first_passage_batch.self_ms": "ms",
    "lifetime.HittingTimeSampler.sample.ns_per_draw": "ns",
    "arrivals.simulate_arrival_batch.ns_per_arrival": "ns",
    "degradation.DeltaHittingLaw.build_ms": "ms",
    "degradation.DeltaHittingLaw.builds": "count",
    "degradation.log_likelihood.us_per_call": "us",
    "degradation.log_likelihood.calls_per_fit": "count",
    "degradation.fit_half_width.self_ms": "ms",
    "special.log_gamma_diff.us_per_call": "us",
    "analytics.PolicyAnalytics.build_self_ms": "ms",
    "analytics.window_split.ms_per_window": "ms",
    "analytics.secondary_void.calls_per_cell": "count",
    "analytics.secondary_void.us_per_call": "us",
    "analytics.cycle_length_series.ms": "ms",
    "analytics.cost_rate_analytic.cells_per_s": "1/s",
    "cli.reliability.systems_per_s": "1/s",
    "cli.fit.fits_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, cell_cycles: float, cells: float, fits: float) -> dict:
    """The per-layer figures of one traced run, 0 for a layer the workload leaves idle.

    ``cell_cycles`` is the number of cycles the run's commands delivered
    (cells x cycles per cell), ``cells`` the analytic cost cells and
    ``fits`` the ``fit`` commands. Counts are per round.
    """
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def mean(name, scale):
        return scale * _ratio(total(name), calls(name))

    def mean_self(name, scale):
        return scale * _ratio(self_time(name), calls(name))

    cli_names = [k for k in tot if k.startswith("cli.")]
    cli_calls = sum(calls(k) for k in cli_names)
    cli_self = sum(self_time(k) for k in cli_names)
    cycles = c["maintenance.cycles"]
    windows = c["maintenance.windows"]
    fp_builds = calls("lifetime.FirstPassageLaw.build")
    fp_calls = calls("lifetime.first_passage_law")
    draws = c["lifetime.HittingTimeSampler.draws"]
    arrivals = c["arrivals.arrivals"]
    return {
        "config.load_config.ms": mean("config.load_config", 1e3),
        "cli.self_ms": 1e3 * _ratio(cli_self, cli_calls),
        "maintenance.cycle_rng.us_per_call": mean("maintenance.cycle_rng", 1e6),
        "maintenance.simulate_cycle.us_per_window": 1e6 * _ratio(total("maintenance.simulate_cycle"), windows),
        "maintenance.simulate_cycle.us_per_cycle": mean("maintenance.simulate_cycle", 1e6),
        "maintenance.estimate_cost_rate.self_us_per_cycle":
            1e6 * _ratio(self_time("maintenance.estimate_cost_rate"), cycles),
        "maintenance.grid_search.self_ms": mean_self("maintenance.grid_search", 1e3),
        "maintenance.sensitivity_sweep.self_ms": mean_self("maintenance.sensitivity_sweep", 1e3),
        "maintenance.cycles": cycles / rounds,
        "maintenance.windows": windows / rounds,
        "maintenance.windows_per_cycle": _ratio(windows, cycles),
        "maintenance.cycles_simulated_per_cell_cycle": _ratio(cycles, cell_cycles),
        "maintenance.censored_cycles": c["maintenance.censored_cycles"] / rounds,
        "lifetime.FirstPassageLaw.build_ms": mean("lifetime.FirstPassageLaw.build", 1e3),
        "lifetime.FirstPassageLaw.builds": fp_builds / rounds,
        "lifetime.first_passage_law.hit_ratio": 1.0 - _ratio(fp_builds, fp_calls) if fp_calls else 0.0,
        "lifetime.simulate_first_passage_batch.self_ms": mean_self("lifetime.simulate_first_passage_batch", 1e3),
        "lifetime.HittingTimeSampler.sample.ns_per_draw":
            1e9 * _ratio(total("lifetime.HittingTimeSampler.sample"), draws),
        "arrivals.simulate_arrival_batch.ns_per_arrival":
            1e9 * _ratio(total("arrivals.simulate_arrival_batch"), arrivals),
        "degradation.DeltaHittingLaw.build_ms": mean("degradation.DeltaHittingLaw.build", 1e3),
        "degradation.DeltaHittingLaw.builds": calls("degradation.DeltaHittingLaw.build") / rounds,
        "degradation.log_likelihood.us_per_call": mean("degradation.log_likelihood", 1e6),
        "degradation.log_likelihood.calls_per_fit": _ratio(calls("degradation.log_likelihood"), fits),
        "degradation.fit_half_width.self_ms": mean_self("degradation.fit_half_width", 1e3),
        "special.log_gamma_diff.us_per_call": mean("special.log_gamma_diff", 1e6),
        "analytics.PolicyAnalytics.build_self_ms": mean_self("analytics.PolicyAnalytics.build", 1e3),
        "analytics.window_split.ms_per_window": mean("analytics.window_split", 1e3),
        "analytics.secondary_void.calls_per_cell": _ratio(calls("analytics.secondary_void"), cells),
        "analytics.secondary_void.us_per_call": mean("analytics.secondary_void", 1e6),
        "analytics.cycle_length_series.ms": mean("analytics.cycle_length_series", 1e3),
    }
