"""Reliability and condition-based maintenance for systems whose defects
arrive by a shot-noise Cox process and grow as gamma processes."""

__version__ = "0.1.0"

from .arrivals import (
    ArrivalTrajectory,
    ShockTrajectory,
    ShotNoiseParams,
    expected_intensity,
    expected_num_arrivals,
    intensity_at,
    simulate_arrivals,
    simulate_shocks,
)
from .degradation import (
    DegradationObservations,
    DeterministicScale,
    GammaModel,
    UniformInverseScale,
    fit_half_width,
    hitting_cdf,
    log_likelihood,
    matched_variance_comparison,
    random_effect_hitting_cdf,
    random_effect_moments,
    random_effect_pdf,
)
from .errors import NumericalError, ValidationError
from .lifetime import (
    SystemSpec,
    displaced_expected_intensity,
    expected_exceedances,
    first_passage_law,
    hazard_limit,
)
from .maintenance import (
    CostRateEstimate,
    CostRates,
    CycleOutcome,
    PolicyParams,
    SimControl,
    estimate_cost_rate,
    grid_search,
    sensitivity_sweep,
    simulate_cycle,
)
from .analytics import CycleAnalytics, analytic_cycle_quantities, cost_rate_analytic
from .special import integrate
