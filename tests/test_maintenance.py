import re

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from shotgamma.arrivals import ShotNoiseParams
from shotgamma.degradation import GammaModel
from shotgamma.errors import NumericalError, ValidationError
from shotgamma.lifetime import SystemSpec
from shotgamma.maintenance import (
    ACTIONS,
    CENSORED,
    CORRECTIVE,
    PREVENTIVE,
    CostRates,
    PolicyParams,
    SimControl,
    _first_crossings,
    _simulate_block,
    cycle_rng,
    estimate_cost_rate,
    grid_search,
    sensitivity_sweep,
    simulate_cycle,
)

PARAMS = ShotNoiseParams(1.0, 2.0, 0.5)
SPEC = SystemSpec(PARAMS, GammaModel.deterministic(1.1, 1.4), 10.0)
COSTS = CostRates(preventive=100.0, corrective=200.0, inspection=50.0, downtime_rate=60.0)
POLICY = PolicyParams(19.0 / 3.0, 43.0 / 7.0)
SIM = SimControl()


def _pure_corrective_exact(T):
    """Exact cost rate and E[R] at M = L, where every cycle ends at the first inspection after the failure.

    The rate is (C_I E[N] + C_c + C_d (E[R] - E[sigma_L])) / E[R] with
    E[N] = sum_k S_L(kT) and E[R] = T E[N].
    """
    from shotgamma.lifetime import first_passage_law
    from shotgamma.special import integrate

    law = first_passage_law(SPEC, SPEC.failure_threshold, 60.0)
    e_sigma = integrate(lambda t: float(law.survival(t)), 0.0, 60.0)
    e_n = law.survival(T * np.arange(int(60.0 / T) + 1)).sum()
    e_r = T * e_n
    return (COSTS.inspection * e_n + COSTS.corrective + COSTS.downtime_rate * (e_r - e_sigma)) / e_r, e_r


class TestTypes:
    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            PolicyParams(0.0, 5.0)
        with pytest.raises(ValidationError):
            PolicyParams(1.0, -1.0)
        PolicyParams(1.0, 10.0).validate_against(SPEC)  # M == L is a valid policy
        with pytest.raises(ValidationError):
            PolicyParams(1.0, 10.5).validate_against(SPEC)

    def test_cost_validation_and_warning(self):
        with pytest.raises(ValidationError):
            CostRates(-1.0, 200.0, 50.0, 60.0)
        with pytest.warns(UserWarning):
            CostRates(300.0, 200.0, 50.0, 60.0)

    def test_sim_control_validation(self):
        with pytest.raises(ValidationError):
            SimControl(substeps=0)
        for bad in (16.7, True, "16", None):
            with pytest.raises(ValidationError, match="substeps"):
                SimControl(substeps=bad)
        with pytest.raises(ValidationError, match="crossing_refinement"):
            SimControl(crossing_refinement=False)
        assert type(SimControl(substeps=np.int64(8)).substeps) is int
        for bad in (2.5, True, 0):
            with pytest.raises(ValidationError, match="n_cycles"):
                estimate_cost_rate(SPEC, POLICY, COSTS, bad, SIM, 0, 0)


class TestSimulateCycle:
    def test_outcome_invariants(self):
        for i in range(300):
            out = simulate_cycle(SPEC, POLICY, COSTS, SIM, cycle_rng(1, 0, i))
            assert out.length == pytest.approx(out.inspections * POLICY.inspection_period)
            assert 0.0 <= out.downtime < POLICY.inspection_period
            if out.action == PREVENTIVE:
                assert out.downtime == 0.0
                want = COSTS.inspection * out.inspections + COSTS.preventive
            elif out.action == CORRECTIVE:
                want = (
                    COSTS.inspection * out.inspections
                    + COSTS.corrective
                    + COSTS.downtime_rate * out.downtime
                )
            else:
                want = COSTS.inspection * out.inspections
            assert out.cycle_cost == pytest.approx(want, rel=1e-12)

    def test_censored_when_nothing_arrives(self):
        dead = SystemSpec(ShotNoiseParams(0.0, 0.0, 0.5), SPEC.growth, 10.0)
        out = simulate_cycle(dead, POLICY, COSTS, SimControl(max_inspections=5), cycle_rng(2, 0, 0))
        assert out.action == CENSORED
        assert out.inspections == 5

    def test_high_threshold_reduces_corrective_share(self):
        # preventive threshold close to a huge failure level: long cycles,
        # essentially no corrective replacements
        roomy = SystemSpec(PARAMS, SPEC.growth, 200.0)
        policy = PolicyParams(8.0, 180.0)
        n_corr = 0
        lengths = []
        for i in range(150):
            out = simulate_cycle(roomy, policy, COSTS, SIM, cycle_rng(3, 0, i))
            lengths.append(out.length)
            n_corr += out.action == CORRECTIVE
        assert np.mean(lengths) > 100.0
        assert n_corr / 150 < 0.05

    def test_determinism(self):
        a = simulate_cycle(SPEC, POLICY, COSTS, SIM, cycle_rng(9, 3, 7))
        b = simulate_cycle(SPEC, POLICY, COSTS, SIM, cycle_rng(9, 3, 7))
        assert a == b


class TestEstimate:
    def test_inspection_only_cost_identity(self):
        only_insp = CostRates(0.0, 0.0, 50.0, 0.0)
        est = estimate_cost_rate(SPEC, POLICY, only_insp, 400, SIM, 11, 0)
        assert est.point == pytest.approx(50.0 / POLICY.inspection_period, rel=1e-12)

    def test_event_partition(self):
        est = estimate_cost_rate(SPEC, POLICY, COSTS, 500, SIM, 12, 0)
        total = est.preventive_fraction + est.corrective_fraction + est.censored_fraction
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_se_scales_like_clt(self):
        a = estimate_cost_rate(SPEC, POLICY, COSTS, 1500, SIM, 13, 0)
        b = estimate_cost_rate(SPEC, POLICY, COSTS, 6000, SIM, 13, 1)
        ratio = b.std_error / a.std_error
        assert 0.32 <= ratio <= 0.75  # ~1/2 with sampling noise

    def test_all_censored_reported(self):
        dead = SystemSpec(ShotNoiseParams(0.0, 0.0, 0.5), SPEC.growth, 10.0)
        with pytest.raises(NumericalError):
            estimate_cost_rate(dead, POLICY, COSTS, 10, SimControl(max_inspections=3), 14, 0)

    def test_deterministic_in_seed(self):
        a = estimate_cost_rate(SPEC, POLICY, COSTS, 200, SIM, 15, 4)
        b = estimate_cost_rate(SPEC, POLICY, COSTS, 200, SIM, 15, 4)
        assert a == b


class TestGridSearch:
    def test_single_cell_passthrough(self):
        res = grid_search(SPEC, COSTS, [6.0], [5.0], 150, SIM, 16)
        assert res.t_opt == 6.0 and res.m_opt == 5.0
        assert len(res.surface) == 1

    def test_thread_count_invariance(self):
        kwargs = dict(t_grid=[4.0, 8.0], m_grid=[3.0, 6.0], n_cycles=120, sim=SIM, master_seed=17)
        res1 = grid_search(SPEC, COSTS, threads=1, **kwargs)
        res2 = grid_search(SPEC, COSTS, threads=2, **kwargs)
        assert res1.surface == res2.surface
        assert (res1.t_opt, res1.m_opt) == (res2.t_opt, res2.m_opt)

    def test_tie_breaks_to_smaller_policy(self):
        # zero costs make every cell identically zero
        free = CostRates(0.0, 0.0, 0.0, 0.0)
        res = grid_search(SPEC, free, [4.0, 8.0], [3.0, 6.0], 40, SIM, 18)
        assert (res.t_opt, res.m_opt) == (4.0, 3.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            grid_search(SPEC, COSTS, [], [5.0], 10, SIM, 0)


class TestSweep:
    def test_single_cell_matches_grid_search(self):
        rows = sensitivity_sweep(
            SPEC, COSTS, "parameters", [1.1], [1.4], [4.0, 8.0], [3.0, 6.0], 120, SIM, 19
        )
        res = grid_search(SPEC, COSTS, [4.0, 8.0], [3.0, 6.0], 120, SIM, 19)
        assert len(rows) == 1
        assert rows[0].cost_opt == pytest.approx(res.cost)
        assert rows[0].t_opt == res.t_opt and rows[0].m_opt == res.m_opt

    def test_cost_sweep_holds_policy_fixed(self):
        rows = sensitivity_sweep(
            SPEC, COSTS, "costs", [190.0, 210.0], [95.0, 105.0], None, None, 150, SIM, 20,
            fixed_policy=POLICY,
        )
        assert len(rows) == 4
        assert all(r.t_opt == POLICY.inspection_period for r in rows)
        # same seed, same cycles: corrective-cost increase cannot lower cost
        assert rows[2].cost_opt >= rows[0].cost_opt

    def test_cost_sweep_rows_equal_direct_estimates(self):
        # the sweep prices one set of cycles; each row must be the estimate
        # that simulating at that row's costs gives
        spec = SystemSpec(PARAMS, GammaModel.uniform_inverse_scale(1.1, 0.61, 0.81), 10.0)
        policy = PolicyParams(1.5, 8.0)
        axis1, axis2 = [150.0, 250.0, 400.0], [20.0, 80.0, 150.0]
        rows = sensitivity_sweep(spec, COSTS, "costs", axis1, axis2, None, None, 60, SIM, 21,
                                 fixed_policy=policy)
        assert [(r.axis1, r.axis2) for r in rows] == [(a, b) for a in axis1 for b in axis2]
        for row in rows:
            cell_costs = CostRates(row.axis2, row.axis1, COSTS.inspection, COSTS.downtime_rate)
            est = estimate_cost_rate(spec, policy, cell_costs, 60, SIM, 21, 0)
            assert row.cost_opt == est.point

    def test_cycle_cost_by_action(self):
        assert COSTS.cycle_cost(CORRECTIVE, 3, 0.5) == 50.0 * 3 + 200.0 + 60.0 * 0.5
        assert COSTS.cycle_cost(PREVENTIVE, 2, 0.0) == 50.0 * 2 + 100.0
        assert COSTS.cycle_cost(CENSORED, 7, 0.0) == 50.0 * 7

    def test_cost_sweep_requires_policy(self):
        with pytest.raises(ValidationError):
            sensitivity_sweep(SPEC, COSTS, "costs", [190.0], [95.0], None, None, 10, SIM, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            sensitivity_sweep(SPEC, COSTS, "nope", [1.0], [1.0], [4.0], [3.0], 10, SIM, 0)


class TestAgainstExactLength:
    def test_mean_cycle_length_matches_renewal_series(self):
        # the exact series from the first-exceedance survival at M
        from shotgamma.lifetime import first_passage_law

        law = first_passage_law(SPEC, POLICY.preventive_threshold, 40 * POLICY.inspection_period)
        T = POLICY.inspection_period
        series = T * sum(float(law.survival(i * T)) for i in range(40))
        est = estimate_cost_rate(SPEC, POLICY, COSTS, 8000, SIM, 21, 0)
        se = 3 * est.mean_cycle_length / np.sqrt(8000)  # generous bound on 3*SE
        assert abs(est.mean_cycle_length - series) <= se

    def test_random_effects_cycle_length_matches_series(self):
        spec_re = SystemSpec(
            PARAMS, GammaModel.uniform_inverse_scale(1.1, 1 / 1.4 - 0.1, 1 / 1.4 + 0.1), 10.0
        )
        from shotgamma.lifetime import first_passage_law

        law = first_passage_law(spec_re, POLICY.preventive_threshold, 40 * POLICY.inspection_period)
        T = POLICY.inspection_period
        series = T * sum(float(law.survival(i * T)) for i in range(40))
        est = estimate_cost_rate(spec_re, POLICY, COSTS, 8000, SIM, 22, 0)
        se = 3 * est.mean_cycle_length / np.sqrt(8000)
        assert abs(est.mean_cycle_length - series) <= se


class TestBlockEngine:
    def test_block_of_one_equals_simulate_cycle(self):
        sim = SimControl(crossing_refinement=6)
        for i in range(40):
            out = simulate_cycle(SPEC, POLICY, COSTS, sim, cycle_rng(23, 0, i))
            block = _simulate_block(SPEC, POLICY, sim, 1, cycle_rng(23, 0, i))
            assert (out.inspections, out.action, out.downtime) == (
                block.inspections[0], ACTIONS[block.action[0]], block.downtime[0])

    @pytest.mark.parametrize("v0, born, threshold", [(7.0, 0.0, 10.0), (0.0, 2.3, 3.0)])
    def test_bridge_crossing_column_matches_direct_fine_grid(self, v0, born, threshold):
        # Rows alive at the window start (v0 = 7) and rows born inside step 7
        # of 16 (born = 2.3, T = 6), each its own cycle: the crossing column
        # of the bisected bridge between the window's endpoints must have
        # the law of the column read off independent fine-grid increments.
        alpha, rate, T, n = 1.1, 1.4, 6.0, 60_000
        sim = SimControl()
        h = T / sim.substeps
        grid = h * np.arange(1, sim.substeps + 1)
        dts = np.minimum(np.maximum(grid - born, 0.0), h)
        rng = np.random.default_rng(31)
        direct = v0 + np.cumsum(rng.standard_gamma(alpha * np.tile(dts, (n, 1))) / rate, axis=1)
        direct = direct[direct[:, -1] >= threshold]
        col_direct = (direct >= threshold).argmax(axis=1)
        v1 = v0 + rng.standard_gamma(alpha * (T - born), size=n) / rate
        v1 = v1[v1 >= threshold]
        t_cross = _first_crossings(rng, alpha, T, sim, threshold, np.arange(v1.size),
                                   np.full(v1.size, v0), v1, np.full(v1.size, born), v1.size)
        col_bridge = np.rint(t_cross / h).astype(int) - 1
        assert np.array_equal(grid[col_bridge], t_cross)
        table = np.array([np.bincount(c, minlength=sim.substeps) for c in (col_direct, col_bridge)])
        table = table[:, table.sum(axis=0) >= 20]
        assert table.shape[1] >= 5
        assert chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("substeps", [16, 10])
    def test_first_crossing_column_of_many_rows_matches_direct_minimum(self, substeps):
        # 2-6 rows per cycle with mixed births and start levels: the earliest
        # crossing column of a cycle, after the bisection drops the rows that
        # cannot be earliest, must have the law of the minimum over the
        # cycle's rows of columns read off independent full fine paths.
        alpha, rate, T, threshold, n = 1.1, 1.4, 6.0, 3.0, 20_000
        sim = SimControl(substeps=substeps)
        h = T / substeps
        grid = h * np.arange(1, substeps + 1)
        design = np.random.default_rng(32)
        cyc = np.repeat(np.arange(n), design.integers(2, 7, size=n))
        alive = design.uniform(size=cyc.size) < 0.5
        v0 = np.where(alive, design.choice([0.5, 1.5, 2.5], size=cyc.size), 0.0)
        born = np.where(alive, 0.0, design.uniform(0.0, 3.0, size=cyc.size))

        rng = np.random.default_rng(33)
        dts = np.minimum(np.maximum(grid - born[:, None], 0.0), h)
        direct = v0[:, None] + np.cumsum(rng.standard_gamma(alpha * dts) / rate, axis=1)
        crosses = direct[:, -1] >= threshold
        col = np.where(crosses, (direct >= threshold).argmax(axis=1), substeps)
        col_direct = np.full(n, substeps)
        np.minimum.at(col_direct, cyc, col)
        col_direct = col_direct[col_direct < substeps]

        v1 = v0 + rng.standard_gamma(alpha * (T - born)) / rate
        rows = v1 >= threshold
        t_cross = _first_crossings(rng, alpha, T, sim, threshold, cyc[rows], v0[rows], v1[rows],
                                   born[rows], n)
        t_cross = t_cross[np.isfinite(t_cross)]
        col_bridge = np.rint(t_cross / h).astype(int) - 1
        assert np.array_equal(grid[col_bridge], t_cross)
        table = np.array([np.bincount(c, minlength=substeps) for c in (col_direct, col_bridge)])
        table = table[:, table.sum(axis=0) >= 20]
        assert table.shape[1] >= 5
        assert chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("T", [1.0, 9.0, 25.0])
    def test_pure_corrective_rate_within_grid_bias(self, T):
        # At the default SimControl a failure is dated at the next fine-grid
        # point, so downtime is low by at most T/substeps per cycle: the
        # estimate must lie in [exact - C_d*T/(substeps*E[R]) - 4 SE, exact + 4 SE].
        exact, e_r = _pure_corrective_exact(T)
        est = estimate_cost_rate(SPEC, PolicyParams(T, SPEC.failure_threshold), COSTS, 20_000,
                                 SIM, 27, 0)
        bias = COSTS.downtime_rate * T / (SIM.substeps * e_r)
        assert est.corrective_fraction == 1.0
        assert exact - bias - 4 * est.std_error <= est.point <= exact + 4 * est.std_error

    @pytest.mark.parametrize("T", [1.0, 9.0, 25.0])
    def test_pure_corrective_rate_matches_exact(self, T):
        # 20000 cycles with 14 refinement halvings: |z| <= 4
        exact, _ = _pure_corrective_exact(T)
        est = estimate_cost_rate(SPEC, PolicyParams(T, SPEC.failure_threshold), COSTS, 20_000,
                                 SimControl(crossing_refinement=14), 24, 0)
        assert est.corrective_fraction == 1.0
        assert abs(est.point - exact) <= 4 * est.std_error

    def test_counts_thread_invariant_and_per_cell(self):
        kwargs = dict(t_grid=[2.0, 7.0], m_grid=[4.0, 10.0], n_cycles=150, sim=SIM, master_seed=25)
        one = grid_search(SPEC, COSTS, threads=1, **kwargs)
        two = grid_search(SPEC, COSTS, threads=2, **kwargs)
        assert one.counts == two.counts
        assert one.counts.cycles == 4 * 150 and one.counts.censored == 0
        assert one.counts.windows == sum(est.n_windows for _, _, est in one.surface)
        for T, _, est in one.surface:
            assert est.n_windows / est.n_cycles == pytest.approx(est.mean_cycle_length / T, rel=1e-12)

    def test_censored_cycles_raise_with_context(self):
        # slow wear: failure and preventive levels of 40 and 12 with a cap of
        # 3 windows of 4 leave about half the cycles running; they must not
        # silently drop out of the ratio
        slow = SystemSpec(PARAMS, SPEC.growth, 40.0)
        with pytest.raises(NumericalError) as err:
            estimate_cost_rate(slow, PolicyParams(4.0, 12.0), COSTS, 400, SimControl(max_inspections=3), 26, 0)
        msg = str(err.value)
        n_cens = int(re.search(r"\b(\d+) of 400 cycles censored", msg).group(1))
        assert 0 < n_cens < 400
        assert "max_inspections=3" in msg and "T=4" in msg and "M=12" in msg
