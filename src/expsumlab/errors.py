"""Shared error types.

Every guard that refuses work names the violated budget or inequality in its
message, so a failing run can be diagnosed from the report alone.
"""

import math

import numpy as np

COEFF_TOL = 1e-9  # slack on the unit-modulus bound of a coefficient
# the largest double reduced mod 1, by a sawtooth window's quotient x/(d+delta)
# or by the phase of eval_exp_sum or bilinear_form: at 2^46 a double keeps 6
# bits of the fractional part, beyond it the reduction is rounding noise
QUOTIENT_GUARD = 2.0 ** 46


def check_peak(values, bound: float, what: str) -> None:
    """Refuse values whose largest modulus is not within bound.  The test is
    `not peak <= bound`, so a NaN is refused too: it compares false with
    everything."""
    peak = float(np.max(np.abs(values))) if np.size(values) else 0.0
    if not peak <= bound:
        raise ValueError(f"{what}: peak modulus {peak:.6g} is not within {bound:.6g}")


def check_phase(peak: float, what: str) -> None:
    """Refuse a run whose largest value reduced mod 1 (what names it: a
    sawtooth window's quotient, a triple sum's phase, a bilinear form's
    phase phi(y) * y, bounded by X * Y, or the Vaaler approximant's largest
    multiple of its reduced point) is not within QUOTIENT_GUARD,
    rather than sum values the double cannot resolve.  A NaN peak, from an
    overflowed inf/inf, is refused too."""
    if not peak <= QUOTIENT_GUARD:
        raise CapacityError(f"peak {what} {peak:.3g} exceeds the precision guard 2^46")


def check_window(x: float, delta: float) -> None:
    """Refuse a sawtooth window unless x is a finite number >= 3 and delta
    a finite number >= 0."""
    if not math.isfinite(x) or x < 3:
        raise ValueError(f"x must be a finite number >= 3, got {x!r}")
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"delta must be a finite number >= 0, got {delta!r}")


def require_integer(name: str, value, least: int) -> int:
    """value as an int, refused with ValueError unless it is an integer
    >= least.  A non-finite float is refused first: int() would raise
    OverflowError at inf and a message naming neither value at nan."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value != int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class CapacityError(ValueError):
    """A requested range or term count exceeds a configured budget."""


class RejectedInstanceError(ValueError):
    """An instance violates a precondition of the requested check or bound."""


class TabulationMismatchError(ValueError):
    """A function family is not tabulated over the supplied point set."""


class DegenerateFitError(ValueError):
    """Too few usable points remain for a least-squares fit."""


class UnsupportedStructureError(ValueError):
    """An expression does not reduce to the shape an exact routine handles."""
