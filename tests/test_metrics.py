"""Reporting math: error metric, message-width schedules, contraction
envelope, zoom-out bounds, and the reference communication-cost table cells.

All table constants are checked against independently recomputed exact
rationals (steps x width x 211.88), not against the code's own helpers.
"""

import math
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    EnvelopePoint,
    contraction_envelope,
    cost_suite,
    envelope_from_history,
    fraction_error_metric,
    per_node_spread,
    start_values,
    starts_of,
    zoom_out_bound,
)
from zoomgrad.config import RunConfig
from zoomgrad.metrics import (
    FIXED_LEVEL_WIDTHS,
    REFINE_WIDTH_SCHEDULE,
    TABLE_N_TT,
    TABLE_REFINE_WIDTH_SCHEDULE,
    TABLE_ROWS,
    decimal_fixed,
    error_metric,
    error_terms,
    exact_decimal,
    step_widths,
    table_cells,
)
from zoomgrad.objective import QuadraticCost
from zoomgrad.optimizer import Instance, RunRecord, initial_state
from zoomgrad.quantizer import QuantizerState
from zoomgrad.runner import run_single, sample_x_init

N_TT = F(21188, 100)  # the reference mean transmissions per consensus


# --- error metric -----------------------------------------------------------


def per_node_error(x, x_init, x_star):
    """Oracle: sqrt(sum_j ((x_j - x*)/(x_init_j - x*))^2), one term per node.

    Summed exactly over rationals and rooted in double precision, as the
    metric was computed before the optimizer kept one common estimate.
    """
    total = F(0)
    for j, (xj, x0j) in enumerate(zip(x, x_init)):
        den = x0j - x_star
        if den == 0:
            raise ValueError("initial estimate at node %d equals the optimum" % j)
        r = F(xj - x_star, 1) / den
        total += r * r
    return math.sqrt(float(total))


def error_at(x, x_star, spread, m=3, delta=F(1, 7)):
    """``error_metric`` at the estimate ``x``, given as level ``m`` on a grid
    whose basis lies ``m`` steps below ``x``."""
    return error_metric(error_terms(QuantizerState.of(x - m * delta, delta), x_star, spread), m)


def test_error_zero_at_optimum():
    assert error_at(F(3), F(3), per_node_spread([F(1), F(5)], F(3))) == 0.0
    assert per_node_error([F(3), F(3)], [F(1), F(5)], F(3)) == 0.0


def test_error_is_sqrt_n_at_start():
    # every node at its own start contributes 1
    x0 = [F(k) for k in (1, 2, 4, 5)]
    assert per_node_error(x0, x0, F(3)) == math.sqrt(4)
    x20 = [F(k % 4 + 1) for k in range(20)]
    assert per_node_error(x20, x20, F(-7)) == pytest.approx(4.4721, abs=5e-5)
    # so does a common estimate as far from x* as every start
    assert error_at(F(1), F(3), per_node_spread([F(1), F(5), F(5), F(1)], F(3))) == math.sqrt(4)
    assert error_at(F(1), F(-7), per_node_spread([F(1), F(-15)] * 10, F(-7))) == pytest.approx(4.4721, abs=5e-5)


def test_error_hand_example():
    got = error_at(F(1, 2), F(1), per_node_spread([F(0), F(2)], F(1)))
    assert got == math.sqrt(0.5)  # sqrt(1/4 + 1/4)
    assert per_node_error([F(1, 2), F(3, 2)], [F(0), F(2)], F(1)) == math.sqrt(0.5)


def test_error_rejects_degenerate_start():
    # the instance computes the normalizer once, before the first step, and
    # names the node whose start sits on the optimum
    s = cost_suite([QuadraticCost(F(1), F(1)), QuadraticCost(F(1), F(2))])  # x* = 3/2
    with pytest.raises(ValueError, match="node 1"):
        initial_state(Instance.of(None, s, starts_of([F(1), F(3, 2)]), F(3, 25)), QuantizerState.of(b_q=F(0), delta=F(1, 2)))
    with pytest.raises(ValueError, match="node 1"):
        per_node_error([F(0), F(0)], [F(1), F(2)], F(2))


def test_error_normalizes_per_node():
    # a node that starts close to the optimum dominates the metric
    loose = error_at(F(1, 10), F(0), per_node_spread([F(1), F(1)], F(0)))
    tight = error_at(F(1, 10), F(0), per_node_spread([F(1), F(1, 5)], F(0)))
    assert tight > loose


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=30), RATIONALS, RATIONALS)
def test_error_metric_matches_per_node_oracle(x_init, x, x_star):
    # (x - x*)^2 * S is the per-node sum's rational, so the floats are equal
    assume(all(x0 != x_star for x0 in x_init))
    got = error_at(x, x_star, per_node_spread(x_init, x_star))
    assert got == per_node_error([x] * len(x_init), x_init, x_star)


def scaled(magnitude, exponents):
    """Fractions of either sign whose size is ``magnitude`` times 2**k, k in ``exponents``."""
    return st.builds(
        lambda m, k, sign: sign * m * F(2) ** k,
        magnitude,
        exponents,
        st.sampled_from([1, -1]),
    )


MAGNITUDE = st.fractions(min_value=1, max_value=2, max_denominator=10**6)
WIDE = scaled(MAGNITUDE, st.integers(-200, 200))  # 2**-200 .. 2**201 in size


LEVELS = st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70))


@settings(max_examples=500, deadline=None)
@given(WIDE, WIDE.map(abs), LEVELS, WIDE, st.booleans(), scaled(MAGNITUDE, st.integers(-700, 700)).map(abs))
@example(F(2) ** 200, F(1), 0, F(-(2**200)), False, F(2) ** 700)  # (x - x*)^2 * S ~ 2**1102: beyond a float
@example(F(3, 7), F(1, 2), 0, F(3, 7), True, F(5, 11))
def test_error_metric_matches_the_fraction_formula(b_q, delta, m, x_star, at_optimum, spread):
    # error_metric reads the estimate x = b_q + m*delta from its grid's
    # error_terms and divides integers it never reduces; the Fraction formula
    # builds x and reduces first.  Both round the same rational once, so
    # the floats agree bit for bit, from underflow to 0.0 up to the
    # OverflowError both raise.
    x = b_q + m * delta
    if at_optimum:
        x_star = x
    q = QuantizerState.of(b_q, delta)
    try:
        want = fraction_error_metric(x, x_star, spread)
    except OverflowError:
        with pytest.raises(OverflowError):
            error_metric(error_terms(q, x_star, spread), m)
        return
    assert error_metric(error_terms(q, x_star, spread), m).hex() == want.hex()
    if at_optimum:
        assert want == 0.0


@pytest.mark.parametrize(
    "policy,delta0", [("adaptive_zoom", F(1, 2)), ("refine_only", F(1, 10)), ("fixed_level", F(1, 10))]
)
def test_logged_error_matches_per_node_oracle(policy, delta0):
    # every logged error of a run equals the per-node sum over its starts
    config = RunConfig(n=6, seed=4, delta0=delta0, policy={"variant": policy}, stop={"max_steps": 60})
    state = run_single(config)
    x_init = start_values(sample_x_init(config, state.instance.x_star))
    for rec in state.history:
        assert rec.error == per_node_error([rec.x_value] * 6, x_init, state.instance.x_star)


# --- message widths -------------------------------------------------------


def test_table_refine_schedule_switches_one_step_earlier():
    # Table 1 prices the refine-only baseline's step index 8 at 14 bits,
    # the live schedule at 10; every other step of the first 40 agrees.
    table = list(islice(step_widths(TABLE_REFINE_WIDTH_SCHEDULE), 40))
    live = list(islice(step_widths(REFINE_WIDTH_SCHEDULE), 40))
    differ = [k for k in range(40) if table[k] != live[k]]
    assert differ == [8]
    assert table[8] == 14
    assert live[8] == 10


# --- contraction envelope ---------------------------------------------------

MU = L = F(60)  # summed curvature of a typical 20-node suite
ALPHA = F(3, 25)


def test_envelope_one_step_hand_value():
    # rho = 1 - (3/25)(60)/20 = 16/25; coeff = 4*(3/25)*60/20 + 2 = 86/25;
    # bound_1 = (16/25) + (86/25)(1/2) = 59/25 = 2.36
    bounds = contraction_envelope(ALPHA, MU, L, 20, [F(1, 2)], F(1))
    assert bounds == [F(1), F(59, 25)]


def test_envelope_geometric_when_delta_zero():
    bounds = contraction_envelope(ALPHA, MU, L, 20, [F(0)] * 5, F(1))
    rho = F(16, 25)
    assert bounds == [rho**k for k in range(6)]


def test_envelope_alpha_zero_is_additive():
    deltas = [F(1, 2), F(1, 4), F(1, 8)]
    bounds = contraction_envelope(F(1, 10**9), MU, L, 20, deltas, F(2))
    # alpha ~ 0: contraction ~1, coefficient ~2 -> d0 + 2*sum(deltas)
    assert float(bounds[-1]) == pytest.approx(2 + 2 * float(sum(deltas)), rel=1e-6)


def test_envelope_warns_outside_admissible_range():
    # admissible step sizes are (0, 2n/(mu+L)] = (0, 1/3]
    with pytest.warns(UserWarning, match="admissible"):
        contraction_envelope(F(1), MU, L, 20, [F(1, 2)], F(1))


def rec(x, delta):
    # the estimate x as level 0 on a grid based at x
    return RunRecord(0, 0.0, QuantizerState.of(x, delta), "none", 1, 3)


def test_envelope_from_history_anchoring():
    x_star = F(2)
    history = [rec(F(4), F(1, 2)), rec(F(3), F(1, 2)), rec(F(5, 2), F(3, 8))]
    points = envelope_from_history(history, ALPHA, MU, L, 20, x_star)
    assert [p.k for p in points] == [1, 2, 3]
    assert points[0].bound == F(2)  # anchored at |x1 - x*|
    assert points[0].empirical == F(2)
    # second bound consumes the delta in force during step 2
    assert points[1].bound == F(16, 25) * 2 + F(86, 25) * F(1, 2)
    assert points[1].empirical == F(1)
    assert isinstance(points[0], EnvelopePoint)


def test_envelope_from_history_empty():
    assert envelope_from_history([], ALPHA, MU, L, 20, F(0)) == []


# --- zoom-out bound ---------------------------------------------------------


def test_zoom_out_bound_reference_values():
    literal, corrected = zoom_out_bound(F(100), F(1, 2), F(2))
    assert corrected == 7  # 1.5 * 2^7 = 192 >= 100, 1.5 * 2^6 = 96 < 100
    assert literal == 144  # ceil((100 - ln 1.5)/ln 2), the formula as printed
    literal10, corrected10 = zoom_out_bound(F(10), F(1, 2), F(2))
    assert corrected10 == 3 and literal10 == 14


def test_zoom_out_bound_against_brute_force():
    for x_star in (F(1), F(7, 2), F(23), F(-40), F(1000)):
        _, corrected = zoom_out_bound(x_star, F(1, 2), F(2))
        reach = F(3, 2)
        nu = 0
        while reach < abs(x_star):
            reach *= 2
            nu += 1
        assert corrected == nu


def test_zoom_out_bound_already_in_range():
    _, corrected = zoom_out_bound(F(1), F(1, 2), F(2))
    assert corrected == 0  # |x*| <= 3*delta0


def test_zoom_out_bound_validation():
    with pytest.raises(ValueError):
        zoom_out_bound(F(0), F(1, 2), F(2))
    with pytest.raises(ValueError):
        zoom_out_bound(F(1), F(0), F(2))
    with pytest.raises(ValueError):
        zoom_out_bound(F(1), F(1, 2), F(1))


# --- reference table --------------------------------------------------------


def test_table_bits_rows_exact():
    rows = {label: [cell[:2] for cell in cells] for label, cells in table_cells()}
    assert rows["adaptive_zoom"] == [
        (18, F(1144152, 100)),
        (27, F(1716228, 100)),
        (40, F(2542560, 100)),
    ]
    # refine-only: cumulative width units 3*7=21, +5*10=71, +8*14=183
    assert rows["refine_only"] == [
        (3, 21 * N_TT),
        (8, 71 * N_TT),
        (16, 183 * N_TT),
    ]
    assert rows["fixed_0.1"] == [(3, 3 * 7 * N_TT), (None, None), (None, None)]
    assert rows["fixed_0.01"] == [
        (3, 3 * 10 * N_TT),
        (5, 5 * 10 * N_TT),
        (None, None),
    ]
    assert rows["fixed_0.001"] == [
        (3, 3 * 14 * N_TT),
        (5, 5 * 14 * N_TT),
        (11, 11 * 14 * N_TT),
    ]


def test_table_constants():
    assert TABLE_N_TT == N_TT
    assert [label for label, _, _ in TABLE_ROWS] == [
        "adaptive_zoom",
        "refine_only",
        "fixed_0.1",
        "fixed_0.01",
        "fixed_0.001",
    ]
    schedules = {label: schedule for label, schedule, _ in TABLE_ROWS}
    assert schedules["adaptive_zoom"] == ((None, 3),)
    assert schedules["refine_only"] == TABLE_REFINE_WIDTH_SCHEDULE == ((3, 7), (8, 10), (None, 14))
    for level, width in FIXED_LEVEL_WIDTHS.items():
        assert schedules["fixed_%s" % float(level)] == ((None, width),)


def test_table_avg_bits_rows_exact():
    rows = {label: [cell[2] for cell in cells] for label, cells in table_cells()}
    assert rows["adaptive_zoom"] == [F(31782, 1000)] * 3
    assert rows["refine_only"] == [
        21 * N_TT / 60,
        71 * N_TT / 160,
        183 * N_TT / 320,
    ]
    assert rows["fixed_0.1"] == [7 * N_TT / 20] * 3
    assert rows["fixed_0.01"] == [10 * N_TT / 20] * 3
    assert rows["fixed_0.001"] == [14 * N_TT / 20] * 3


# --- decimal renderers ------------------------------------------------------


def test_decimal_fixed():
    assert decimal_fixed(F(59, 25), 2) == "2.36"
    assert decimal_fixed(F(1059400, 100), 2) == "10594.00"
    assert decimal_fixed(F(-3, 4), 2) == "-0.75"
    assert decimal_fixed(F(5), 0) == "5"
    with pytest.raises(ValueError, match="not exact"):
        decimal_fixed(F(1, 3), 2)
    with pytest.raises(ValueError, match="not exact"):
        decimal_fixed(F(1, 8), 2)  # needs three places


def test_exact_decimal():
    assert exact_decimal(F(31782, 1000)) == "31.782"
    assert exact_decimal(F(5)) == "5"
    assert exact_decimal(F(1, 8)) == "0.125"
    assert exact_decimal(F(969351, 8000)) == "121.168875"
    with pytest.raises(ValueError, match="terminating"):
        exact_decimal(F(1, 3))
