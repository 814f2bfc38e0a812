"""Mid-rise uniform quantizer on a shiftable grid.

The quantizer the network shares is a grid: a basis ``b_q`` (center of the
dynamic range) and a level ``delta`` (bin width).  Bins are closed on the
left and open on the right, and the bin ``[b_q + t*delta, b_q + (t+1)*delta)``
has the midpoint ``b_q + (2t + 1) * delta / 2``; ``quantize`` returns it, for
any input and with unlimited levels.  The adaptive policy's dynamic range
and the zoom moves belong to each policy's ``on_repeat``, not to the grid;
the clamped ``width``-bit quantizer is the tests' oracle.

The grid holds one integer form of itself, worked out once when it is
built: ``b_q = base/den`` and ``delta = step/den`` over
``den = lcm(b_q.denominator, delta.denominator)``.  ``point(level)`` gives
``b_q + level*delta`` at a level ``ln/ld`` as the unreduced pair
``(base*ld + ln*step, den*ld)``, and ``grid_point`` reduces it.  The
optimizer keeps its estimate as a level between zooms, and its masses, the
error metric and the run records read the grid through this form only.

``quantize`` is an oracle: only ``engine.init_consensus``, itself one, calls
it, and it stays because ``perfbench/tracing.py`` ``HOOKS`` hooks the
engine's import of it.

All arithmetic is exact, so repeat detection and grid membership are
reliable equality tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["QuantizerState", "grid_point", "quantize"]


@dataclass(frozen=True, slots=True)
class QuantizerState:
    """The shared grid: basis ``b_q = base/den`` and step ``delta = step/den`` > 0."""

    b_q: Fraction
    delta: Fraction
    den: int = field(init=False, repr=False, compare=False)
    base: int = field(init=False, repr=False, compare=False)
    step: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        den = math.lcm(self.b_q.denominator, self.delta.denominator)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "base", self.b_q.numerator * (den // self.b_q.denominator))
        object.__setattr__(self, "step", self.delta.numerator * (den // self.delta.denominator))

    def point(self, level):
        """``b_q + level*delta`` for an int or ``Fraction`` level, as an unreduced (num, den) pair."""
        ld = level.denominator
        return self.base * ld + level.numerator * self.step, self.den * ld


def grid_point(q: QuantizerState, level) -> Fraction:
    """The point ``b_q + level*delta`` of the grid ``q``, reduced."""
    return Fraction(*q.point(level))


def quantize(q: QuantizerState, xi: Fraction) -> Fraction:
    """Midpoint of the bin containing ``xi``.

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2
