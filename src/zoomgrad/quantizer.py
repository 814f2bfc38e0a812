"""Mid-rise uniform quantizer on a shiftable grid, and the zoom moves on it.

The quantizer the network shares is a grid: a basis ``b_q`` (center of the
dynamic range) and a level ``delta`` (bin width).  Bins are closed on the
left and open on the right, and the bin ``[b_q + t*delta, b_q + (t+1)*delta)``
has the midpoint ``b_q + (2t + 1) * delta / 2``; ``quantize`` returns it, for
any input and with unlimited levels.  The width of the adaptive policy's
dynamic range is not part of the grid: ``optimizer.zoom_decide`` tests
against that range itself, and the clamped ``width``-bit quantizer is the
tests' oracle.

``zoom_in`` and ``zoom_out`` re-center the grid and divide or multiply its
step by a factor the caller supplies; the zoom policy that fires them owns
the factors and the width.

All arithmetic is exact: values are `fractions.Fraction`, and zoom updates
multiply/divide ``delta`` by exact rational factors, so repeat detection and
grid membership are reliable equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["QuantizerState", "quantize", "zoom_in", "zoom_out"]


@dataclass(frozen=True)
class QuantizerState:
    """The shared grid: basis ``b_q`` and step ``delta`` > 0."""

    b_q: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def quantize(q: QuantizerState, xi: Fraction) -> Fraction:
    """Midpoint of the bin containing ``xi``.

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2


def zoom_out(q: QuantizerState, x_new: Fraction, c_out: Fraction) -> QuantizerState:
    """Re-center on x_new and widen the range: delta *= c_out."""
    return QuantizerState(x_new, q.delta * c_out)


def zoom_in(q: QuantizerState, x_new: Fraction, c_in: Fraction) -> QuantizerState:
    """Re-center on x_new and refine the grid: delta /= c_in."""
    return QuantizerState(x_new, q.delta / c_in)
