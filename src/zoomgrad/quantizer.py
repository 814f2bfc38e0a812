"""Mid-rise uniform quantizer on a shiftable grid.

The grid the network shares (``QuantizerState``) has a basis ``b_q``, the
center of the dynamic range, and a level ``delta``, the bin width.  Bins are
closed on the left and open on the right, and ``quantize`` returns the
midpoint of an input's bin, with unlimited levels.  The adaptive policy's
dynamic range and the zoom rules belong to each policy's ``on_repeat``, not
to the grid; the clamped ``width``-bit quantizer is the tests' oracle.

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
    """The shared grid ``b_q = base/den``, ``delta = step/den`` > 0, as three
    integers and nothing else.

    ``gcd(base, step, den) = 1``, so ``den`` is the lcm of the two reduced
    denominators and equal grids hold equal integers.  Build one with ``of``
    or ``moved``, which builds no ``Fraction``.  ``b_q`` and ``delta`` build
    one on each read, for the report writers and the oracles; the optimizer
    and the error metric work out their per-grid constants from the
    integers.
    """

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
    so it maps to ``b_q + delta/2``.  Its one caller is the oracle
    ``engine.init_consensus``.
    """
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2
