"""Reporting-side math: the normalized error metric, communication-bit
accounting, the theoretical contraction envelope, and the zoom-out count
bound.

Everything here is a pure function.  Internal arithmetic sticks to exact
rationals; floats appear only where a quantity is explicitly a reported
real (square roots, logarithms, CSV cells).
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class EnvelopePoint:
    k: int
    bound: object  # theoretical distance bound (exact rational)
    empirical: object  # measured |x_hat - x*| (exact rational)


def error_metric(x, x_star, spread):
    """Normalized distance sqrt(sum_j ((x - x*)/(x_init_j - x*))^2).

    Every node holds the common estimate ``x``, so the sum is the exact
    rational ``(x - x*)^2 * spread``, where ``spread`` is
    sum_j 1/(x_init_j - x*)^2, computed once per run; the root is taken in
    double precision.
    """
    return math.sqrt(float((x - x_star) ** 2 * spread))


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


def contraction_envelope(alpha, mu, L, n, delta_seq, d0):
    """Theoretical distance bounds bound_0..bound_K, exact.

    bound_0 = d0 and bound_{k+1} = (1 - alpha*mu/n) * bound_k
    + (4*alpha*L/n + 2) * delta_seq[k].  Warns (does not fail) when alpha
    lies outside the admissible interval (0, 2n/(mu+L)].
    """
    alpha = Fraction(alpha)
    mu = Fraction(mu)
    L = Fraction(L)
    if not 0 < alpha <= Fraction(2 * n) / (mu + L):
        warnings.warn(
            "step size %s outside the admissible interval (0, %s]; the "
            "contraction guarantee does not apply" % (alpha, Fraction(2 * n) / (mu + L)),
            stacklevel=2,
        )
    rho = 1 - alpha * mu / n
    coeff = 4 * alpha * L / n + 2
    bounds = [Fraction(d0)]
    for delta in delta_seq:
        bounds.append(rho * bounds[-1] + coeff * Fraction(delta))
    return bounds


def envelope_from_history(history, alpha, mu, L, n, x_star):
    """Per-step (bound, empirical) pairs for a completed adaptive run.

    The recursion is anchored at the first common estimate (step 1), the
    earliest point where a single network-wide distance to the optimum
    exists; each later bound consumes the quantizer step that was in force
    during that iteration's consensus.
    """
    if not history:
        return []
    d0 = abs(history[0].x_value - x_star)
    delta_seq = [rec.delta for rec in history[1:]]
    bounds = contraction_envelope(alpha, mu, L, n, delta_seq, d0)
    return [
        EnvelopePoint(k=rec.k, bound=b, empirical=abs(rec.x_value - x_star))
        for rec, b in zip(history, bounds)
    ]


def zoom_out_bound(x_star, delta0, c_out):
    """Upper bounds on how many zoom-outs are needed to capture x*.

    Returns (literal, corrected).  The literal form evaluates
    ceil((x* - log(3*delta0)) / log(c_out)) exactly as the bound is
    conventionally stated, even though it mixes a raw value with
    logarithms; the corrected form is the smallest nu >= 0 with
    3*delta0*c_out**nu >= |x*|, computed exactly.  Both are reported so
    the discrepancy stays visible.
    """
    delta0 = Fraction(delta0)
    c_out = Fraction(c_out)
    if delta0 <= 0 or c_out <= 1:
        raise ValueError("need delta0 > 0 and c_out > 1")
    if x_star == 0:
        raise ValueError("corrected zoom-out bound undefined for x* = 0")
    literal = math.ceil(
        (float(x_star) - math.log(3 * float(delta0))) / math.log(float(c_out))
    )
    abs_x = abs(Fraction(x_star))
    reach = 3 * delta0
    nu = 0
    while reach < abs_x:
        reach *= c_out
        nu += 1
    return literal, nu


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
