"""Mid-rise uniform quantizer on a shiftable grid.

The quantizer the network shares is a grid: a basis ``b_q`` (center of the
dynamic range) and a level ``delta`` (bin width).  Bins are closed on the
left and open on the right, and the bin ``[b_q + t*delta, b_q + (t+1)*delta)``
has the midpoint ``b_q + (2t + 1) * delta / 2``; ``quantize`` returns it, for
any input and with unlimited levels.  The adaptive policy's dynamic range
and the zoom rules belong to each policy's ``on_repeat``, not to the grid;
the clamped ``width``-bit quantizer is the tests' oracle.

The grid is three integers and nothing else: ``b_q = base/den`` and
``delta = step/den`` with ``gcd(base, step, den) = 1``, so ``den`` is the
lcm of the two reduced denominators and equal grids hold equal integers.
``QuantizerState.of`` builds it from the two rationals, and a grid move
(a zoom or a refine) is ``moved``: it re-centres on a level and scales the
step by a rational factor with one three-argument gcd, so no move builds a
``Fraction``.  ``b_q`` and ``delta`` are built only when read, by the
report writers and the oracles; the optimizer and the error metric work
out their per-grid constants from the integers.  ``grid_point`` builds a
point ``b_q + level*delta`` as a ``Fraction``, for the records' estimate.

``quantize`` is an oracle: only ``engine.init_consensus``, itself one, calls
it, and it stays because ``perfbench/tracing.py`` ``HOOKS`` hooks the
engine's import of it.

All arithmetic is exact, so repeat detection and grid membership are
reliable equality tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["QuantizerState", "grid_point", "quantize"]


@dataclass(frozen=True, slots=True)
class QuantizerState:
    """The shared grid ``b_q = base/den``, ``delta = step/den`` > 0, with
    ``gcd(base, step, den) = 1``.  Build one with ``of`` or ``moved``."""

    den: int
    base: int
    step: int

    @classmethod
    def of(cls, b_q, delta):
        """The grid of basis ``b_q`` and step ``delta`` (ints or ``Fraction``s)."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        den = math.lcm(b_q.denominator, delta.denominator)
        return cls(den, b_q.numerator * (den // b_q.denominator), delta.numerator * (den // delta.denominator))

    @property
    def b_q(self):
        return Fraction(self.base, self.den)

    @property
    def delta(self):
        return Fraction(self.step, self.den)

    def moved(self, level, num, den):
        """The grid with basis ``b_q + level*delta`` (an int level) and step
        ``delta*num/den`` (positive ints), reduced by one gcd."""
        base = (self.base + level * self.step) * den
        step = self.step * num
        den *= self.den
        g = math.gcd(base, step, den)
        return QuantizerState(den // g, base // g, step // g)


def grid_point(q: QuantizerState, level) -> Fraction:
    """The point ``b_q + level*delta`` of the grid ``q``, for an int or ``Fraction`` level."""
    ld = level.denominator
    return Fraction(q.base * ld + level.numerator * q.step, q.den * ld)


def quantize(q: QuantizerState, xi: Fraction) -> Fraction:
    """Midpoint of the bin containing ``xi``.

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2
