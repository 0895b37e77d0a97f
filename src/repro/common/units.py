"""Time units for the multi-clock-domain simulator.

DozzNoC routers run at one of five frequencies: 1, 1.5, 1.8, 2 and
2.25 GHz.  Their clock periods (1, 2/3, 5/9, 1/2 and 4/9 ns) are all exact
integer multiples of **1/18 ns**, so the simulator keeps every timestamp as
an integer count of *base ticks* of 1/18 ns.  Integer time makes the
event-driven kernel exact (no floating-point clock drift between voltage
domains) and cheap to compare.

==========  =======  ==========  ===================
Mode        Voltage  Frequency   Period (base ticks)
==========  =======  ==========  ===================
M3          0.8 V    1.00 GHz    18
M4          0.9 V    1.50 GHz    12
M5          1.0 V    1.80 GHz    10
M6          1.1 V    2.00 GHz    9
M7          1.2 V    2.25 GHz    8
==========  =======  ==========  ===================
"""

from __future__ import annotations

from fractions import Fraction

#: Number of base ticks in one nanosecond.  1 tick == 1/18 ns.
BASE_TICKS_PER_NS: int = 18

#: Exact clock periods, in base ticks, for the five DozzNoC frequencies.
GHZ_PERIOD_TICKS: dict[float, int] = {
    1.0: 18,
    1.5: 12,
    1.8: 10,
    2.0: 9,
    2.25: 8,
}


def period_ticks_for_ghz(freq_ghz: float) -> int:
    """Return the exact clock period in base ticks for ``freq_ghz``.

    Raises :class:`ValueError` when the period is not an integer number of
    base ticks (i.e. the frequency is not representable on the 1/18 ns
    grid).  All five paper frequencies are representable.
    """
    if freq_ghz in GHZ_PERIOD_TICKS:
        return GHZ_PERIOD_TICKS[freq_ghz]
    period = Fraction(BASE_TICKS_PER_NS) / Fraction(freq_ghz).limit_denominator(10**6)
    if period.denominator != 1 or period.numerator <= 0:
        raise ValueError(
            f"frequency {freq_ghz} GHz has no exact period on the "
            f"1/{BASE_TICKS_PER_NS} ns tick grid"
        )
    return int(period)


def ns_to_ticks(t_ns: float) -> int:
    """Convert a duration in nanoseconds to base ticks (rounded to nearest)."""
    return round(t_ns * BASE_TICKS_PER_NS)


def ticks_to_ns(ticks: int) -> float:
    """Convert a base-tick count back to nanoseconds."""
    return ticks / BASE_TICKS_PER_NS


# --------------------------------------------------------------------- #
# Exact fixed-point micro-units
# --------------------------------------------------------------------- #
# Used by the telemetry layer (repro.telemetry.metrics re-exports both
# names): float observations quantized to integer micro-units accumulate
# with exact integer adds, so aggregates merge associatively and are
# independent of --jobs and merge order.

#: Fixed-point scale for float-valued observations (micro-units): a
#: utilization of 0.25 is observed as 250_000.
MICRO = 1_000_000


def quantize(value: float) -> int:
    """Round a float to integer micro-units (exact-merge representation)."""
    return round(value * MICRO)
