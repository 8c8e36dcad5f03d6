import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from shotgamma import analytics, cli, degradation, lifetime, maintenance
from shotgamma.cli import main
from shotgamma.config import PRESETS, _YAML_LOADER, load_config, parse_config
from shotgamma.degradation import GammaModel, simulate_observation_paths, write_observations_csv
from shotgamma.errors import ValidationError

SMALL_CONFIG = """
system:
  lambda0: 1.0
  mu: 2.0
  delta: 0.5
  shape_rate: 1.1
  scale: {beta: 1.4}
  failure_threshold: 10.0
policy:
  T: 6.3333333
  M: 6.1428571
  T_grid: [4.0, 6.3333333]
  M_grid: [4.0, 6.1428571]
costs: {preventive: 100.0, corrective: 200.0, inspection: 50.0, downtime_rate: 60.0}
simulation: {n_cycles: 120, substeps: 16, max_inspections: 200}
master_seed: 33
horizon: 8.0
n_trajectories: 4000
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfig:
    def test_presets_load(self):
        for name in ["benchmark_deterministic", "benchmark_random_effects"]:
            cfg = load_config(name)
            assert cfg.system.failure_threshold == 10.0
            assert cfg.t_grid is not None and cfg.t_grid.size == 10
            assert cfg.m_grid.size == 8
            # reported optima lie on the reconstructed grids
            assert np.any(np.isclose(cfg.t_grid, 19.0 / 3.0))
            assert np.any(np.isclose(cfg.m_grid, 43.0 / 7.0))
            assert np.any(np.isclose(cfg.m_grid, 34.0 / 7.0))

    def test_unknown_keys_rejected(self):
        raw = {"system": {"lambda0": 1, "mu": 1, "delta": 1, "shape_rate": 1,
                          "scale": {"beta": 1}, "failure_threshold": 5, "typo": 1},
               "costs": {"preventive": 1, "corrective": 2, "inspection": 1, "downtime_rate": 1}}
        with pytest.raises(ValidationError, match="typo"):
            parse_config(raw)

    def test_invalid_delta_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL_CONFIG.replace("delta: 0.5", "delta: -1.0"))
        rc = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["16.7", "true", "'x'", "null", ".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "field, line, template",
        [("simulation.substeps", "substeps: 16", "substeps: {}"),
         ("simulation.max_inspections", "max_inspections: 200", "max_inspections: {}"),
         ("simulation.crossing_refinement", "max_inspections: 200",
          "max_inspections: 200, crossing_refinement: {}"),
         ("simulation.n_cycles", "n_cycles: 120", "n_cycles: {}"),
         ("master_seed", "master_seed: 33", "master_seed: {}"),
         ("n_trajectories", "n_trajectories: 4000", "n_trajectories: {}"),
         ("sensitivity.n_cycles", "horizon: 8.0",
          "horizon: 8.0\nsensitivity: {{kind: costs, axis1: [1], axis2: [1], n_cycles: {}}}"),
         ("fit.grid_count", "horizon: 8.0", "horizon: 8.0\nfit: {{grid_count: {}}}"),
         ("policy.M_grid.count", "M_grid: [4.0, 6.1428571]",
          "M_grid: {{start: 4.0, stop: 6.0, count: {}}}")],
    )
    def test_non_integer_fields_rejected(self, tmp_path, field, line, template, bad):
        # a float, bool, string or null must not be coerced to an int
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace(line, template.format(bad)))
        with pytest.raises(ValidationError, match=field.replace(".", r"\.")):
            load_config(str(path))

    @pytest.mark.parametrize("bad", ["true", "'x'", "null", "[1.0]", ".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "field, line, template",
        [("fit.center", "horizon: 8.0", "horizon: 8.0\nfit: {{center: {}}}"),
         ("fit.grid_start", "horizon: 8.0", "horizon: 8.0\nfit: {{grid_start: {}}}"),
         ("fit.grid_stop", "horizon: 8.0", "horizon: 8.0\nfit: {{grid_stop: {}}}"),
         ("sensitivity.axis1[1]", "horizon: 8.0",
          "horizon: 8.0\nsensitivity: {{axis1: [1.0, {}], axis2: [2]}}"),
         ("sensitivity.axis2[0]", "horizon: 8.0",
          "horizon: 8.0\nsensitivity: {{axis1: [1.0], axis2: [{}]}}"),
         ("validation.tolerance_scale", "horizon: 8.0",
          "horizon: 8.0\nvalidation: {{tolerance_scale: {}}}"),
         ("system.lambda0", "lambda0: 1.0", "lambda0: {}"),
         ("system.mu", "mu: 2.0", "mu: {}"),
         ("system.delta", "delta: 0.5", "delta: {}"),
         ("system.shape_rate", "shape_rate: 1.1", "shape_rate: {}"),
         ("system.failure_threshold", "failure_threshold: 10.0", "failure_threshold: {}"),
         ("system.scale.beta", "scale: {beta: 1.4}", "scale: {{beta: {}}}"),
         ("system.scale.uniform_inverse.a", "scale: {beta: 1.4}",
          "scale: {{uniform_inverse: {{a: {}, b: 0.8}}}}"),
         ("system.scale.uniform_inverse.b", "scale: {beta: 1.4}",
          "scale: {{uniform_inverse: {{a: 0.6, b: {}}}}}"),
         ("costs.preventive", "preventive: 100.0", "preventive: {}"),
         ("costs.corrective", "corrective: 200.0", "corrective: {}"),
         ("costs.inspection", "inspection: 50.0", "inspection: {}"),
         ("costs.downtime_rate", "downtime_rate: 60.0", "downtime_rate: {}"),
         ("policy.T", "T: 6.3333333", "T: {}"),
         ("policy.M", "M: 6.1428571", "M: {}"),
         ("policy.T_grid[1]", "T_grid: [4.0, 6.3333333]", "T_grid: [4.0, {}]"),
         ("policy.M_grid.start", "M_grid: [4.0, 6.1428571]",
          "M_grid: {{start: {}, stop: 6.0, count: 2}}"),
         ("policy.M_grid.stop", "M_grid: [4.0, 6.1428571]",
          "M_grid: {{start: 4.0, stop: {}, count: 2}}"),
         ("horizon", "horizon: 8.0", "horizon: {}")],
    )
    def test_non_numeric_fields_rejected(self, tmp_path, field, line, template, bad):
        # a bool, string, null, list, NaN or infinity must name its field, never be coerced
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG.replace(line, template.format(bad)))
        with pytest.raises(ValidationError, match=re.escape(field)):
            load_config(str(path))

    def test_sensitivity_axis_must_be_a_list(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_CONFIG + "sensitivity: {axis1: 1.0, axis2: [1.0]}\n")
        with pytest.raises(ValidationError, match=r"sensitivity\.axis1 must be a list"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "field, line, template",
        [("system.lambda0", "lambda0: 1.0", "lambda0: .nan"),
         ("system.lambda0", "lambda0: 1.0", "lambda0: \"x\""),
         ("horizon", "horizon: 8.0", "horizon: .inf"),
         ("system.scale.beta", "scale: {beta: 1.4}", "scale: {beta: true}"),
         ("policy.M_grid[1]", "M_grid: [4.0, 6.1428571]", "M_grid: [1.0, \"5\"]"),
         ("policy.M_grid.count", "M_grid: [4.0, 6.1428571]", "M_grid: {start: 4.0, stop: 6.0, count: 2.7}"),
         ("policy.M_grid.count", "M_grid: [4.0, 6.1428571]", "M_grid: {start: 4.0, stop: 6.0, count: -1}"),
         ("policy.T_grid[0]", "T_grid: [4.0, 6.3333333]", "T_grid: [0.0, 6.3333333]"),
         ("shape_rate", "  shape_rate: 1.1\n", ""),
         ("policy", SMALL_CONFIG[SMALL_CONFIG.index("policy:"):SMALL_CONFIG.index("costs:")],
          "policy: 5\n"),
         ("system.scale.uniform_inverse", "scale: {beta: 1.4}", "scale: {uniform_inverse: 3}"),
         ("is not valid YAML", "M_grid: [4.0, 6.1428571]", "M_grid: [4.0, 6.1428571")],
        ids=["lambda0_nan", "lambda0_str", "horizon_inf", "beta_bool", "grid_entry_str",
             "count_float", "count_negative", "grid_entry_zero", "missing_shape_rate", "policy_not_mapping",
             "uniform_inverse_not_mapping", "invalid_yaml"],
    )
    def test_malformed_config_exits_cleanly(self, tmp_path, capsys, field, line, template):
        path = tmp_path / "bad.yaml"
        text = SMALL_CONFIG.replace(line, template)
        assert text != SMALL_CONFIG
        path.write_text(text)
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        *PRESETS.values(),
        SMALL_CONFIG,
        "a: 1e-3\nb: .nan\nc: yes\nd: 0x1f\ne: 1.0e-3\nf: ~\ng: 0o17\nh: 1_000\ni: -.inf\n"
        "j: 2001-12-14\nk: [on, Off, NO]\nl: '1e-3'\nm: 0b101\nn: 12:30:00\no: !!float 3\n",
    ], ids=[*PRESETS, "small", "tricky_scalars"])
    def test_parser_matches_pure_python_safe_loader(self, text):
        def canonical(value):
            # NaN never equals itself, so compare representations
            return repr(value) if isinstance(value, float) else value

        def walk(node):
            if isinstance(node, dict):
                return {k: walk(v) for k, v in node.items()}
            if isinstance(node, list):
                return [walk(v) for v in node]
            return (type(node), canonical(node))

        assert walk(yaml.load(text, Loader=_YAML_LOADER)) == walk(yaml.load(text, Loader=yaml.SafeLoader))

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert rc == 1


class TestFlags:
    def test_negative_seed_rejected(self, small_config, tmp_path, capsys):
        rc = main(["reliability", "--config", small_config, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("validation error: --seed")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_rejected(self, small_config, tmp_path, capsys, threads):
        rc = main(["reliability", "--config", small_config, "--threads", threads, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("validation error: --threads")
        assert not (tmp_path / "run_manifest.json").exists()


class TestSimulateArrivals(object):
    def test_outputs_and_accuracy(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate-arrivals", "--config", small_config, "--out", str(out),
                   "--deterministic"])
        assert rc == 0
        assert (out / "arrivals.csv").read_text().splitlines()[0] == "time"
        rows = (out / "arrival_check.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            t, emp, ana, se, n = row.split(",")
            assert float(emp) / float(ana) == pytest.approx(1.0, abs=0.03)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "simulate-arrivals"
        assert manifest["master_seed"] == 33
        assert "written_at" not in manifest

    def test_count_mismatch_is_validation_failure(self, small_config, tmp_path, capsys, monkeypatch):
        from shotgamma import cli

        exact = cli.expected_num_arrivals
        monkeypatch.setattr(cli, "expected_num_arrivals", lambda params, t: 1.2 * exact(params, t))
        rc = main(["simulate-arrivals", "--config", small_config, "--out", str(tmp_path)])
        assert rc == 1
        assert "worst |z|" in capsys.readouterr().err
        assert json.loads((tmp_path / "run_manifest.json").read_text())["worst_abs_z"] > 4.0

    def test_one_trajectory_rejected(self, tmp_path, capsys):
        # one trajectory has no standard error, so no z-score can pass or fail
        cfg = tmp_path / "one.yaml"
        cfg.write_text(SMALL_CONFIG.replace("n_trajectories: 4000", "n_trajectories: 1"))
        out = tmp_path / "run"
        assert main(["simulate-arrivals", "--config", str(cfg), "--out", str(out)]) == 1
        assert "n_trajectories" in capsys.readouterr().err
        assert not (out / "arrival_check.csv").exists()


class TestReliability:
    def test_runs_without_costs(self, tmp_path):
        cfg = tmp_path / "nocost.yaml"
        cfg.write_text(SMALL_CONFIG.replace(
            "costs: {preventive: 100.0, corrective: 200.0, inspection: 50.0, downtime_rate: 60.0}\n", ""
        ).replace("n_trajectories: 4000", "n_trajectories: 500"))
        out = tmp_path / "rel"
        assert main(["reliability", "--config", str(cfg), "--out", str(out), "--deterministic"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "costs" not in manifest["config"]
        assert (out / "lifetime.csv").exists()

    def test_curve_and_overlay(self, small_config, tmp_path):
        out = tmp_path / "rel"
        rc = main(["reliability", "--config", small_config, "--out", str(out), "--deterministic"])
        assert rc == 0
        header, *rows = (out / "lifetime.csv").read_text().strip().splitlines()
        assert header == "t,survival,hazard,hazard_limit,mc_survival"
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.allclose(data[:, 3], data[0, 3])  # hazard limit column constant
        assert data[0, 3] == pytest.approx(1.0 + 2.0 * (1 - np.exp(-2.0)), rel=1e-9)
        assert np.max(np.abs(data[:, 1] - data[:, 4])) <= 0.02

    def test_poisson_closed_form(self, tmp_path):
        cfg = tmp_path / "p.yaml"
        cfg.write_text(SMALL_CONFIG.replace("mu: 2.0", "mu: 0.0"))
        out = tmp_path / "rel0"
        assert main(["reliability", "--config", str(cfg), "--out", str(out), "--deterministic"]) == 0
        header, *rows = (out / "lifetime.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        from shotgamma.degradation import hitting_cdf
        from shotgamma.special import integrate

        for idx in [50, 120, 200]:
            t = data[idx, 0]
            closed = np.exp(-integrate(lambda u: hitting_cdf(1.1, 1.4, 10.0, u), 0.0, float(t)))
            assert data[idx, 1] == pytest.approx(closed, abs=1e-7)


class TestFit:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = GammaModel.uniform_inverse_scale(1.1, 0.75, 1.25)
        data = simulate_observation_paths(model, 20, np.arange(1.0, 31.0), rng)
        data_path = tmp_path / "obs.csv"
        write_observations_csv(data_path, data)
        cfg = tmp_path / "fit.yaml"
        cfg.write_text(SMALL_CONFIG + "\nfit: {center: 1.0, grid_start: 0.05, grid_stop: 0.6, grid_count: 18}\n")
        out = tmp_path / "fit_out"
        rc = main(["fit", "--config", str(cfg), "--data", str(data_path), "--out", str(out)])
        assert rc == 0
        header, *rows = (out / "fit_curve.csv").read_text().strip().splitlines()
        assert header == "alpha_star,neg_log_likelihood"
        grid = [float(r.split(",")[0]) for r in rows]
        assert grid == sorted(grid)
        from shotgamma.degradation import log_likelihood, read_observations_csv

        back = read_observations_csv(data_path)
        for w, row in zip(np.linspace(0.05, 0.6, 18), rows):
            assert row == f"{w:.10g},{-log_likelihood(1.1, 1.0 - w, 1.0 + w, back):.10g}"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert abs(manifest["alpha_star_hat"] - 0.25) < 0.2

    def test_missing_data_is_validation_error(self, small_config, tmp_path, capsys):
        rc = main(["fit", "--config", small_config, "--out", str(tmp_path)])
        assert rc == 1
        assert "data" in capsys.readouterr().err

    def test_empty_data_rejected(self, small_config, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("process_id,time,level\n")
        rc = main(["fit", "--config", small_config, "--data", str(empty), "--out", str(tmp_path)])
        assert rc == 1


class TestOptimize:
    def test_without_costs_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "nocost.yaml"
        cfg.write_text(SMALL_CONFIG.replace(
            "costs: {preventive: 100.0, corrective: 200.0, inspection: 50.0, downtime_rate: 60.0}\n", ""
        ))
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "opt")]) == 1
        assert "costs" in capsys.readouterr().err

    def test_single_cell_passthrough(self, tmp_path):
        cfg = tmp_path / "one.yaml"
        cfg.write_text(SMALL_CONFIG.replace("T_grid: [4.0, 6.3333333]", "T_grid: [6.0]")
                       .replace("M_grid: [4.0, 6.1428571]", "M_grid: [5.0]"))
        out = tmp_path / "opt1"
        assert main(["optimize", "--config", str(cfg), "--out", str(out), "--deterministic"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["t_opt"] == 6.0 and manifest["m_opt"] == 5.0

    def test_seed_and_thread_determinism(self, small_config, tmp_path):
        outs = []
        for name, threads in [("a", "1"), ("b", "2"), ("c", "1")]:
            out = tmp_path / name
            rc = main(["optimize", "--config", small_config, "--out", str(out),
                       "--threads", threads, "--deterministic"])
            assert rc == 0
            outs.append((out / "surface.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_counts_simulated_work(self, small_config, tmp_path):
        counts = []
        for name, threads in [("a", "1"), ("b", "2")]:
            out = tmp_path / name
            assert main(["optimize", "--config", small_config, "--out", str(out),
                         "--threads", threads, "--deterministic"]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            counts.append({k: manifest[k] for k in ("cycles", "windows", "censored_cycles")})
        assert counts[0] == counts[1]
        assert counts[0]["cycles"] == 4 * 120 and counts[0]["censored_cycles"] == 0
        assert counts[0]["windows"] >= counts[0]["cycles"]

    def test_seed_override_changes_surface(self, small_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["optimize", "--config", small_config, "--out", str(out1), "--deterministic"])
        main(["optimize", "--config", small_config, "--out", str(out2), "--seed", "99",
              "--deterministic"])
        assert (out1 / "surface.csv").read_bytes() != (out2 / "surface.csv").read_bytes()


class TestSensitivity:
    def test_cost_sweep(self, tmp_path):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(
            SMALL_CONFIG
            + "\nsensitivity: {kind: costs, axis1: [190, 210], axis2: [95, 105], n_cycles: 80}\n"
        )
        out = tmp_path / "sens"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out), "--deterministic"]) == 0
        header, *rows = (out / "sensitivity.csv").read_text().strip().splitlines()
        assert header == "axis1,axis2,cost_opt,T_opt,M_opt"
        assert len(rows) == 4
        # the four cost pairs re-price one simulation of 80 cycles
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["cycles"] == 80 and manifest["censored_cycles"] == 0

    def test_missing_section_rejected(self, small_config, tmp_path):
        assert main(["sensitivity", "--config", small_config, "--out", str(tmp_path)]) == 1

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "s.yaml"
        cfg.write_text(SMALL_CONFIG + "\nsensitivity: {kind: parameter, axis1: [1.0], axis2: [1.4]}\n")
        with pytest.raises(ValidationError, match=r"sensitivity\.kind must be 'parameters' or 'costs'"):
            load_config(str(cfg))
        assert main(["sensitivity", "--config", str(cfg), "--out", str(tmp_path / "sens")]) == 1
        assert "sensitivity.kind" in capsys.readouterr().err


class TestValidate:
    def test_benchmark_preset_passes(self, tmp_path, capsys):
        rc = main(["validate", "--config", "benchmark_deterministic", "--out", str(tmp_path),
                   "--deterministic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all checks passed" in out

    def test_corrupted_tolerance_names_check(self, tmp_path, capsys):
        cfg = tmp_path / "v.yaml"
        cfg.write_text(SMALL_CONFIG + "\nvalidation: {tolerance_scale: 1.0e-9}\n")
        rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.out
        assert "lifetime_mc_overlay" in captured.err or "lifetime_mc_overlay" in captured.out


class TestTracedRun:
    def test_install_and_uninstall_restore_every_name(self, monkeypatch):
        # The benchmark's traced run (shotbench/run.py --trace 1) rebinds names
        # in these namespaces: install raises AttributeError if one is gone,
        # and uninstall must put back the very objects it replaced.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "shotbench"))
        import tracing

        spaces = [cli, analytics, degradation, lifetime, maintenance,
                  lifetime.HittingTimeSampler, analytics.PolicyAnalytics]
        before = [dict(vars(ns)) for ns in spaces]
        uninstall = tracing.install(tracing.Tracer())
        try:
            assert any(vars(ns)[k] is not v for ns, old in zip(spaces, before) for k, v in old.items())
        finally:
            uninstall()
        for ns, old in zip(spaces, before):
            now = dict(vars(ns))
            assert now.keys() == old.keys()
            assert [k for k, v in old.items() if now[k] is not v] == []


class TestWriteCsv:
    def test_header_then_one_line_per_row(self, tmp_path):
        path = tmp_path / "table.csv"
        cli._write_csv(path, "t,value", [(0.5, 1.0 / 3.0), (2, np.float64(1e-12))])
        assert path.read_text() == "t,value\n0.5,0.3333333333\n2,1e-12\n"
        cli._write_csv(path, "time", np.array([[np.pi], [10.0]]), ".12g")
        assert path.read_text() == "time\n3.14159265359\n10\n"


class TestCliOutputsTool:
    def test_relative_out_is_resolved_before_commands_run(self, tmp_path, monkeypatch):
        # The tool runs each command with cwd=--root, so every path it hands
        # them must already be absolute and lie under the caller's --out.
        tool = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
        spec = importlib.util.spec_from_file_location("cli_outputs", tool)
        cli_outputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli_outputs)
        calls = []

        def fake_run(root, command, config, data, outdir):
            calls.append((root, data, outdir))
            outdir.mkdir(parents=True)
            (outdir / "exit_code.txt").write_text("0\n")

        monkeypatch.setattr(cli_outputs, "run_command", fake_run)
        (tmp_path / "tree").mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli_outputs.main(["--out", "out", "--root", "tree"]) == 0
        out = (tmp_path / "out").resolve()
        assert len(calls) == len(cli_outputs.PRESETS) * len(cli_outputs.COMMANDS)
        for root, data, outdir in calls:
            assert root == (tmp_path / "tree").resolve()
            assert data == out / "observations.csv" and data.is_file()
            assert outdir.is_absolute() and outdir.parent.parent == out
