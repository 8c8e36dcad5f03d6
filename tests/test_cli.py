import json

import numpy as np
import pytest

from shotgamma.cli import main
from shotgamma.config import load_config, parse_config
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

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["optimize", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert rc == 1


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
