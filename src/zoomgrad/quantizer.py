"""Mid-rise uniform quantizer with a shiftable basis and zoom re-parameterization.

The quantizer is shared state for the whole network: a basis ``b_q`` (center
of the dynamic range), a level ``delta`` (bin width), and the zoom counters.
With ``width`` bits there are ``2**width`` output midpoints

    b_q + (2c - (2**width - 1)) * delta / 2,   c = 0 .. 2**width - 1,

bins closed on the left and open on the right, and inputs outside the dynamic
range ``[b_q - H*delta, b_q + H*delta)`` with ``H = 2**(width-1) - 1`` clamp
to the extreme midpoints.  ``width=None`` selects the unsaturated variant
(same grid, unlimited levels), used by the fixed-grid baseline policies.

All arithmetic is exact: values are `fractions.Fraction`, and zoom updates
multiply/divide ``delta`` by exact rational factors, so repeat detection and
grid membership are reliable equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = [
    "QuantizerState",
    "quantize",
    "level_index",
    "zoom_in",
    "zoom_out",
    "saturation_half_range",
]


@dataclass(frozen=True)
class QuantizerState:
    """Shared quantizer parameters plus zoom counters.

    ``nu_total`` counts repeat events (each triggers exactly one zoom), so
    ``nu_total == nu_in + nu_out``; each zoom op bumps its own counter and
    ``nu_total`` in the one state it builds.
    """

    b_q: Fraction
    delta: Fraction
    c_in: Fraction = Fraction(4, 3)
    c_out: Fraction = Fraction(2)
    width: int | None = 3
    nu_in: int = 0
    nu_out: int = 0
    nu_total: int = 0

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.c_in <= 1 or self.c_out <= 1:
            raise ValueError("zoom factors must exceed 1")
        if self.width is not None and self.width < 1:
            raise ValueError("width must be >= 1 bit")


def saturation_half_range(q: QuantizerState) -> Fraction:
    """Half-width H*delta of the dynamic range (H = 2**(w-1) - 1)."""
    if q.width is None:
        raise ValueError("unsaturated quantizer has no dynamic range limit")
    return (2 ** (q.width - 1) - 1) * q.delta


def _bin_index(q: QuantizerState, xi: Fraction) -> int:
    # Signed bin count from the basis; Fraction floor-division is exact.
    return (xi - q.b_q) // q.delta


def quantize(q: QuantizerState, xi: Fraction) -> Fraction:
    """Midpoint of the bin containing ``xi`` (clamped when saturated).

    ``xi = b_q`` falls in the bin just above the basis (left-closed bins),
    so it maps to ``b_q + delta/2``.
    """
    t = _bin_index(q, xi)
    if q.width is not None:
        top = 2**q.width - 1
        c = t + 2 ** (q.width - 1)
        if c < 0:
            c = 0
        elif c > top:
            c = top
        return q.b_q + (2 * c - top) * q.delta / 2
    return q.b_q + (2 * t + 1) * q.delta / 2


def level_index(q: QuantizerState, xi: Fraction) -> int:
    """Code c in [0, 2**width) with quantize(q, xi) = b_q + (2c - (2**w-1))*delta/2."""
    if q.width is None:
        raise ValueError("level_index requires a finite-width quantizer")
    t = _bin_index(q, xi)
    top = 2**q.width - 1
    return min(max(t + 2 ** (q.width - 1), 0), top)


def zoom_out(q: QuantizerState, x_new: Fraction) -> QuantizerState:
    """Re-center on x_new and widen the range: delta *= c_out, nu_out and nu_total += 1."""
    return replace(
        q, b_q=x_new, delta=q.delta * q.c_out, nu_out=q.nu_out + 1, nu_total=q.nu_total + 1
    )


def zoom_in(q: QuantizerState, x_new: Fraction) -> QuantizerState:
    """Re-center on x_new and refine the grid: delta /= c_in, nu_in and nu_total += 1."""
    return replace(
        q, b_q=x_new, delta=q.delta / q.c_in, nu_in=q.nu_in + 1, nu_total=q.nu_total + 1
    )
