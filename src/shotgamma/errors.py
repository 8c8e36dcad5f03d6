"""Exception types shared across the package, and the one rule for a valid number."""

import math
import numbers


class ValidationError(ValueError):
    """Invalid parameters, configuration or observation data."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or lost all precision.

    The message names the quantity (and, for nested quadratures, the axis)
    that failed, so callers never receive a silently wrong value.
    """


def checked_number(value, name: str, *, at_least=None, above=None, integer: bool = False):
    """``value`` as a plain ``int`` (``integer=True``) or finite ``float``.

    Any real number passes a real field and any integral number an integer
    field, numpy scalars included; bool, str, None, containers, NaN and
    ±inf raise :class:`ValidationError`, as does a value below ``at_least``
    or not above ``above``. The message names the field and shows the value.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not integer and not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    if at_least is not None and number < at_least:
        raise ValidationError(f"{name} must be >= {at_least}, got {number!r}")
    if above is not None and number <= above:
        raise ValidationError(f"{name} must be > {above}, got {number!r}")
    return number


def store_checked(obj, name: str, **rule) -> None:
    """Replace field ``name`` of the frozen dataclass ``obj`` by its :func:`checked_number` value."""
    object.__setattr__(obj, name, checked_number(getattr(obj, name), name, **rule))
