import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotgamma.arrivals import ShotNoiseParams
from shotgamma.degradation import DeterministicScale, GammaModel, UniformInverseScale
from shotgamma.errors import ValidationError, checked_number
from shotgamma.lifetime import SystemSpec
from shotgamma.maintenance import CostRates, PolicyParams, SimControl

# Each parameter type with valid values for every field; the int or float
# fields are the ones the number rule governs.
TYPES = [
    (ShotNoiseParams, {"lambda0": 1.0, "mu": 2.0, "delta": 0.5}),
    (DeterministicScale, {"beta": 1.4}),
    (UniformInverseScale, {"a": 0.6, "b": 0.8}),
    (GammaModel, {"shape_rate": 1.1, "scale_spec": DeterministicScale(1.4)}),
    (SystemSpec, {"arrivals": ShotNoiseParams(1.0, 2.0, 0.5),
                  "growth": GammaModel.deterministic(1.1, 1.4), "failure_threshold": 10.0}),
    (PolicyParams, {"inspection_period": 6.0, "preventive_threshold": 5.0}),
    (CostRates, {"preventive": 100.0, "corrective": 200.0, "inspection": 50.0, "downtime_rate": 60.0}),
    (SimControl, {"substeps": 16, "max_inspections": 200, "crossing_refinement": 0}),
]
IDS = [cls.__name__ for cls, _ in TYPES]
SCALARS = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=4), st.none())


def number_fields(base):
    return [name for name, value in base.items() if isinstance(value, (int, float))]


def build(cls, base, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # CostRates warns when corrective < preventive
        return cls(**{**base, name: value})


@pytest.mark.parametrize("cls, base", TYPES, ids=IDS)
@settings(max_examples=150)
@given(data=st.data())
def test_any_scalar_builds_plain_fields_or_is_rejected(cls, base, data):
    name = data.draw(st.sampled_from(number_fields(base)))
    value = data.draw(SCALARS)
    try:
        obj = build(cls, base, name, value)
    except ValidationError:
        return
    for f in fields(obj):
        if f.name in base and isinstance(base[f.name], (int, float)):
            assert type(getattr(obj, f.name)) is type(base[f.name])
    stored = getattr(obj, name)
    assert math.isfinite(stored) and stored == type(stored)(value)


@pytest.mark.parametrize("cls, base", TYPES, ids=IDS)
def test_nan_inf_bool_and_str_rejected(cls, base):
    for name in number_fields(base):
        for bad in (np.nan, np.inf, -np.inf, True, "1"):
            with pytest.raises(ValidationError, match=name):
                build(cls, base, name, bad)


@pytest.mark.parametrize(
    "value, rule, want",
    [(np.float64(2.5), {}, 2.5), (np.int64(3), {"integer": True}, 3), (3, {}, 3.0),
     (0, {"at_least": 0}, 0.0), (1, {"above": 0, "integer": True}, 1)],
)
def test_checked_number_returns_plain_values(value, rule, want):
    got = checked_number(value, "x", **rule)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "value, rule, message",
    [(-1e-300, {"at_least": 0}, "x must be >= 0, got -1e-300"),
     (0.0, {"above": 0}, "x must be > 0, got 0.0"),
     (2.0, {"integer": True}, "x must be an integer, got 2.0"),
     (np.float64(-2.0), {"at_least": 0}, "x must be >= 0, got -2.0"),
     (np.bool_(True), {}, "x must be a number, got np.True_"),
     ([1.0], {}, "x must be a number, got [1.0]"),
     (10**400, {}, "x must be finite")],
)
def test_checked_number_messages_name_field_and_value(value, rule, message):
    with pytest.raises(ValidationError, match=message.replace("[", r"\[").replace("]", r"\]")):
        checked_number(value, "x", **rule)
