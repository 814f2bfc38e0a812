"""Reporting-side math: the normalized error metric, the message widths
that price each transmission, and the reference communication-cost table.

Every price is a ``((end, width), ...)`` width schedule, read by
``schedule_width`` (a constant width is a one-entry schedule): each live
run's, which ``runner.width_schedule`` picks from its config, and every row
of Table 1 (``TABLE_ROWS``, whose cells ``table_cells`` builds).
``FIXED_LEVEL_WIDTHS`` holds the width that a fixed level charges by default.

Everything here is a pure function.  Internal arithmetic sticks to exact
rationals; floats appear only where a quantity is explicitly a reported
real (square roots, CSV cells).
"""

import math
from fractions import Fraction


def error_metric(q, m, x_star, spread):
    """Normalized distance sqrt(sum_j ((x - x*)/(x_init_j - x*))^2).

    Every node holds the common estimate ``x``, the point of the grid ``q``
    at the integer level ``m``, so the sum is the exact rational
    ``(x - x*)^2 * spread``, where ``spread`` is sum_j 1/(x_init_j - x*)^2,
    computed once per run.  It is formed over the unreduced integers of
    ``q.point(m)`` and ``x*``, and one correctly rounded int true division
    gives the float whose root is taken.
    """
    num, den = q.point(m)
    sn, sd = x_star.numerator, x_star.denominator
    e = num * sd - sn * den
    d = den * sd
    return math.sqrt(e * e * spread.numerator / (d * d * spread.denominator))


# Standard message width (bits) of each fixed quantizer level: what the
# fixed-level baseline charges per transmission unless policy.b_pm is given.
FIXED_LEVEL_WIDTHS = {
    Fraction(1, 10): 7,
    Fraction(1, 100): 10,
    Fraction(1, 1000): 14,
}


def schedule_width(schedule, k):
    """Message width of 0-based step ``k`` under a width schedule.

    A schedule is a tuple of ``(end, width)`` entries: ``width`` prices
    every step before ``end`` not covered by an earlier entry, and an
    ``end`` of ``None`` covers every remaining step.
    """
    for end, width in schedule:
        if end is None or k < end:
            return width


# The refine-only baseline's live schedule, and Table 1's, which switches
# to 14 bits one step earlier (after step 8 rather than 9); the table keeps
# its own convention.
REFINE_WIDTH_SCHEDULE = ((3, 7), (9, 10), (None, 14))
TABLE_REFINE_WIDTH_SCHEDULE = ((3, 7), (8, 10), (None, 14))

TABLE_N_TT = Fraction(21188, 100)  # mean transmissions per consensus execution
TABLE_THRESHOLDS = ("1e-2", "1e-3", "1e-5")

# Table 1: label, width schedule, steps to reach each threshold (None =
# never).  A fixed level's row charges its FIXED_LEVEL_WIDTHS width.
TABLE_ROWS = (
    ("adaptive_zoom", ((None, 3),), (18, 27, 40)),
    ("refine_only", TABLE_REFINE_WIDTH_SCHEDULE, (3, 8, 16)),
    ("fixed_0.1", ((None, FIXED_LEVEL_WIDTHS[Fraction(1, 10)]),), (3, None, None)),
    ("fixed_0.01", ((None, FIXED_LEVEL_WIDTHS[Fraction(1, 100)]),), (3, 5, None)),
    ("fixed_0.001", ((None, FIXED_LEVEL_WIDTHS[Fraction(1, 1000)]),), (3, 5, 11)),
)


def table_cells():
    """Table 1 as [(policy, [(steps, bits, average) per threshold])].

    A cell's bits are ``TABLE_N_TT`` times the summed widths of its first
    ``steps`` steps, and its average is bits per node per step at the
    table's n = 20, both exact rationals.  A threshold a policy never
    reaches has steps and bits None and keeps the average of the last
    threshold reached: only fixed levels miss thresholds, and their width
    never changes.
    """
    rows = []
    for label, schedule, step_counts in TABLE_ROWS:
        cells = []
        for steps in step_counts:
            if steps is None:
                cells.append((None, None, cells[-1][2]))
                continue
            bits = sum(schedule_width(schedule, k) for k in range(steps)) * TABLE_N_TT
            cells.append((steps, bits, bits / (steps * 20)))
        rows.append((label, cells))
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
