"""Mid-rise uniform quantizer on a shiftable grid.

The quantizer the network shares is a grid: a basis ``b_q`` (center of the
dynamic range) and a level ``delta`` (bin width).  Bins are closed on the
left and open on the right, and the bin ``[b_q + t*delta, b_q + (t+1)*delta)``
has the midpoint ``b_q + (2t + 1) * delta / 2``; ``quantize`` returns it, for
any input and with unlimited levels.  The width of the adaptive policy's
dynamic range is not part of the grid: ``optimizer.AdaptiveZoom.on_repeat``
tests against that range itself, and the clamped ``width``-bit quantizer is
the tests' oracle.  The zoom moves, which re-center the grid and scale its
step, are each policy's ``on_repeat`` too.

A point of the grid is ``b_q + level*delta``; ``grid_point`` builds it from
its level, which is how the optimizer keeps its estimate between zooms.

``quantize`` is an oracle: only ``engine.init_consensus``, itself one, calls
it, and it stays because ``perfbench/tracing.py`` ``HOOKS`` hooks the
engine's import of it.

All arithmetic is exact: values are `fractions.Fraction`, and zoom updates
multiply/divide ``delta`` by exact rational factors, so repeat detection and
grid membership are reliable equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["QuantizerState", "grid_point", "quantize"]


@dataclass(frozen=True)
class QuantizerState:
    """The shared grid: basis ``b_q`` and step ``delta`` > 0."""

    b_q: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def grid_point(b_q: Fraction, delta: Fraction, level) -> Fraction:
    """The point ``b_q + level*delta`` for a rational (int or Fraction) level.

    Built over the common denominator of its three terms and reduced by the
    one gcd of the ``Fraction`` constructor.
    """
    ln, ld = level.numerator, level.denominator
    bn, bd = b_q.numerator, b_q.denominator
    dn, dd = delta.numerator, delta.denominator
    return Fraction(bn * dd * ld + ln * dn * bd, bd * dd * ld)


def quantize(q: QuantizerState, xi: Fraction) -> Fraction:
    """Midpoint of the bin containing ``xi``.

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2
