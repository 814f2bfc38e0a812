"""Reporting-side math: the normalized error metric, communication-bit
accounting, and the reference communication-cost tables.

Everything here is a pure function.  Internal arithmetic sticks to exact
rationals; floats appear only where a quantity is explicitly a reported
real (square roots, CSV cells).
"""

import math
from fractions import Fraction


def error_metric(x, x_star, spread):
    """Normalized distance sqrt(sum_j ((x - x*)/(x_init_j - x*))^2).

    Every node holds the common estimate ``x``, so the sum is the exact
    rational ``(x - x*)^2 * spread``, where ``spread`` is
    sum_j 1/(x_init_j - x*)^2, computed once per run; the root is taken in
    double precision.  With ``x - x* = e/d`` the rational is
    ``e*e*Sn / (d*d*Sd)`` over the spread's numerator and denominator, and
    int true division rounds it correctly, so the float is the one a
    ``Fraction`` would give, without reducing the rational first.
    """
    sn, sd = x_star.numerator, x_star.denominator
    e = x.numerator * sd - sn * x.denominator
    d = x.denominator * sd
    return math.sqrt(e * e * spread.numerator / (d * d * spread.denominator))


# Standard message width (bits) of each fixed quantizer level: what the
# fixed-level baseline charges per transmission unless b_pm is given.
FIXED_LEVEL_WIDTHS = {
    Fraction(1, 10): 7,
    Fraction(1, 100): 10,
    Fraction(1, 1000): 14,
}


def bits_total(c_s, b_pm, n_tt):
    """Total bits = steps x bits-per-message x messages-per-step."""
    if c_s < 0 or b_pm < 0 or n_tt < 0:
        raise ValueError("bit accounting factors must be nonnegative")
    return c_s * b_pm * n_tt


def avg_bits_per_node_per_step(b_pm, n_tt, n):
    if n < 1:
        raise ValueError("need at least one node")
    return b_pm * n_tt / n


# --- reference constants for the communication-cost table builders ---

TABLE_N_TT = Fraction(21188, 100)  # mean transmissions per consensus execution
TABLE_THRESHOLDS = ("1e-2", "1e-3", "1e-5")

# (steps within segment, message width) consumed in order by the
# refine-only baseline.  The table's arithmetic switches widths after
# steps 3 and 8 — one step earlier than the live k-indexed schedule, which
# switches at k = 9; the table builders keep the table's own convention.
REFINE_TABLE_SEGMENTS = ((3, 7), (5, 10), (8, 14))

ADAPTIVE_TABLE_STEPS = (18, 27, 40)
ADAPTIVE_TABLE_WIDTH = 3

# label, quantizer level (its message width is FIXED_LEVEL_WIDTHS[level]),
# steps to reach each threshold (None = never)
FIXED_TABLE_ROWS = (
    ("fixed_0.1", Fraction(1, 10), (3, None, None)),
    ("fixed_0.01", Fraction(1, 100), (3, 5, None)),
    ("fixed_0.001", Fraction(1, 1000), (3, 5, 11)),
)


def table_bits_rows(n_tt=TABLE_N_TT):
    """Total-bits table: [(policy, [(steps, bits) per threshold])].

    Cells are exact rationals; None marks thresholds a policy never
    reaches.
    """
    rows = []
    rows.append(
        (
            "adaptive_zoom",
            [(c, bits_total(c, ADAPTIVE_TABLE_WIDTH, n_tt)) for c in ADAPTIVE_TABLE_STEPS],
        )
    )
    cells = []
    steps = 0
    units = 0
    for count, width in REFINE_TABLE_SEGMENTS:
        steps += count
        units += count * width
        cells.append((steps, units * n_tt))
    rows.append(("refine_only", cells))
    for label, level, step_list in FIXED_TABLE_ROWS:
        width = FIXED_LEVEL_WIDTHS[level]
        cells = [
            (c, bits_total(c, width, n_tt)) if c is not None else (None, None)
            for c in step_list
        ]
        rows.append((label, cells))
    return rows


def table_avg_bits_rows(n_tt=TABLE_N_TT, n=20):
    """Average bits per node per step: [(policy, [value per threshold])]."""
    adaptive = avg_bits_per_node_per_step(ADAPTIVE_TABLE_WIDTH, n_tt, n)
    rows = [("adaptive_zoom", [adaptive] * 3)]
    cells = []
    steps = 0
    units = 0
    for count, width in REFINE_TABLE_SEGMENTS:
        steps += count
        units += count * width
        cells.append(Fraction(units * n_tt, 1) / (steps * n))
    rows.append(("refine_only", cells))
    for label, level, _ in FIXED_TABLE_ROWS:
        rows.append((label, [avg_bits_per_node_per_step(FIXED_LEVEL_WIDTHS[level], n_tt, n)] * 3))
    return rows


def exact_decimal(value):
    """Render a rational with terminating decimal expansion, no padding."""
    fr = Fraction(value)
    den = fr.denominator
    e2 = e5 = 0
    while den % 2 == 0:
        den //= 2
        e2 += 1
    while den % 5 == 0:
        den //= 5
        e5 += 1
    if den != 1:
        raise ValueError("%s has no terminating decimal expansion" % fr)
    return decimal_fixed(fr, max(e2, e5))


def decimal_fixed(value, places):
    """Render a rational as a decimal with exactly ``places`` digits.

    Raises if the value is not exactly representable at that precision
    (this formatter never rounds).
    """
    fr = Fraction(value)
    scaled = fr * 10**places
    if scaled.denominator != 1:
        raise ValueError("%s is not exact at %d decimal places" % (fr, places))
    digits = abs(scaled.numerator)
    sign = "-" if fr < 0 else ""
    if places == 0:
        return sign + str(digits)
    s = str(digits).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, s[:-places], s[-places:])
