"""Mid-rise uniform quantizer on a shiftable grid, and the zoom moves on it.

The quantizer the network shares is a grid: a basis ``b_q`` (center of the
dynamic range) and a level ``delta`` (bin width).  Bins are closed on the
left and open on the right, and the bin ``[b_q + t*delta, b_q + (t+1)*delta)``
has the midpoint ``b_q + (2t + 1) * delta / 2``.  A ``width``-bit quantizer
keeps the ``2**width`` midpoints

    b_q + (2c - (2**width - 1)) * delta / 2,   c = 0 .. 2**width - 1,

and clamps inputs outside its dynamic range ``[b_q - H*delta, b_q + H*delta)``
with ``H = 2**(width-1) - 1`` to the extreme midpoints.  The width is not part
of the grid: the functions that need it take it as an argument, and without
one ``quantize`` is the unsaturated variant (same grid, unlimited levels).

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

__all__ = [
    "QuantizerState",
    "quantize",
    "level_index",
    "zoom_in",
    "zoom_out",
]


@dataclass(frozen=True)
class QuantizerState:
    """The shared grid: basis ``b_q`` and step ``delta`` > 0."""

    b_q: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def level_index(q: QuantizerState, xi: Fraction, width: int) -> int:
    """Code c in [0, 2**width) with quantize(q, xi, width) = b_q + (2c - (2**w-1))*delta/2."""
    t = (xi - q.b_q) // q.delta  # signed bin count; Fraction floor-division is exact
    return min(max(t + 2 ** (width - 1), 0), 2**width - 1)


def quantize(q: QuantizerState, xi: Fraction, width: int | None = None) -> Fraction:
    """Midpoint of the bin containing ``xi``, clamped when a width is given.

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    if width is not None:
        return q.b_q + (2 * level_index(q, xi, width) - (2**width - 1)) * q.delta / 2
    return q.b_q + (2 * ((xi - q.b_q) // q.delta) + 1) * q.delta / 2


def zoom_out(q: QuantizerState, x_new: Fraction, c_out: Fraction) -> QuantizerState:
    """Re-center on x_new and widen the range: delta *= c_out."""
    return QuantizerState(x_new, q.delta * c_out)


def zoom_in(q: QuantizerState, x_new: Fraction, c_in: Fraction) -> QuantizerState:
    """Re-center on x_new and refine the grid: delta /= c_in."""
    return QuantizerState(x_new, q.delta / c_in)
