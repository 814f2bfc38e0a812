"""Outer loop: gradient arithmetic, zoom decisions, per-step bookkeeping,
agreement/grid invariants, and the stopping logic.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    ADAPTIVE,
    CC,
    CLASS_EDGES,
    REFINE,
    bidirectional_pair,
    consensus_point,
    cost_suite,
    fraction_cost_classes,
    fraction_error_metric,
    fraction_zoom_decide,
    masked_digest,
    node_costs,
    per_node_spread,
    per_node_step,
    saturation_half_range,
    start_values,
    starts_of,
)
from zoomgrad import graph, optimizer
from zoomgrad.config import RunConfig
from zoomgrad.consensus import run_consensus
from zoomgrad.consensus.engine import init_consensus
from zoomgrad.graph import generate_random_digraph
from zoomgrad.objective import QuadraticCost
from zoomgrad.optimizer import (
    AdaptiveZoom,
    CostClasses,
    FixedLevel,
    OptimizerState,
    RefineOnly,
    RunRecord,
    Starts,
    cost_classes,
    gradient_step,
    grid_masses,
    initial_state,
    run_until,
    start_masses,
    start_spread,
    step,
    zoom_decide,
)
from zoomgrad.quantizer import QuantizerState, grid_point
from zoomgrad.rng import PCG32, STREAM_PROTOCOL
from zoomgrad.runner import cmd_run, compare, step_costs, sweep

Q0 = QuantizerState.of(b_q=F(0), delta=F(1, 2))
ALPHA = F(3, 25)


def suite(pairs):
    return cost_suite([QuadraticCost(F(b), F(x)) for b, x in pairs])


# --- gradient step ----------------------------------------------------------


def test_gradient_step_arithmetic():
    s = suite([(2, 3)])
    assert gradient_step([F(1)], s, ALPHA) == [F(37, 25)]  # 1 + (3/25)*4


def test_gradient_step_fixed_point():
    s = suite([(2, 3), (5, -1)])
    x = [F(3), F(-1)]  # each node at its own local optimum
    assert gradient_step(x, s, ALPHA) == x


def test_gradient_step_zero_alpha():
    s = suite([(1, 4), (2, 0)])
    x = [F(7, 3), F(-2, 5)]
    assert gradient_step(x, s, F(0)) == x


# --- zoom decisions ---------------------------------------------------------
# zoom_decide reads levels on the grid Q0 (b_q = 0, delta = 1/2): level m is
# the point m/2, and the 3-bit range [-3, 3) of levels is [-3/2, 3/2).


def test_no_event_without_repeat():
    assert zoom_decide(Q0, 3, 2, ADAPTIVE) == (Q0, "none", 3)


def test_adaptive_out_of_range_zooms_out():
    # The grid re-centres on the estimate, whose level on it is 0.
    assert zoom_decide(Q0, 4, 4, ADAPTIVE) == (QuantizerState.of(F(2), F(1)), "zoom_out", 0)  # x = 2


def test_adaptive_in_range_zooms_in():
    assert zoom_decide(Q0, 2, 2, ADAPTIVE) == (QuantizerState.of(F(1), F(3, 8)), "zoom_in", 0)  # x = 1


def test_adaptive_range_boundaries():
    # dynamic range is [b_q - 3d, b_q + 3d): the upper edge saturates, the
    # lower edge is still inside, the level below it is out
    hi, event, _ = zoom_decide(Q0, 3, 3, ADAPTIVE)
    assert event == "zoom_out"
    assert hi.delta == F(1)
    lo, event, _ = zoom_decide(Q0, -3, -3, ADAPTIVE)
    assert event == "zoom_in"
    below, event, _ = zoom_decide(Q0, -4, -4, ADAPTIVE)
    assert event == "zoom_out"
    assert below.b_q == F(-2)


def test_refine_only_shrinks_in_place():
    q, event, level = zoom_decide(Q0, 2, 2, REFINE)
    assert event == "refine"
    assert q.delta == F(1, 20)
    assert q.b_q == Q0.b_q  # basis never moves
    assert level == 20  # the same point on the finer grid


def test_fixed_level_never_changes():
    assert zoom_decide(Q0, 2, 2, FixedLevel()) == (Q0, "none", 2)


# Where the level sits against the width-bit range [-H, H) of levels: on
# either rim, one level under it, or anywhere.
RIM_LEVELS = {"upper": (1, 0), "upper-": (1, -1), "lower": (-1, 0), "lower-": (-1, -1)}


@settings(max_examples=400, deadline=None)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=997),  # negative and non-grid bases
    st.fractions(min_value=F(1, 997), max_value=20, max_denominator=997),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(sorted(RIM_LEVELS) + ["free"]),
    st.one_of(st.integers(min_value=-300, max_value=300), st.integers(min_value=-(10**6), max_value=10**6)),
    st.sampled_from([(F(4, 3), F(2)), (F(3, 2), F(5, 2)), (F(7), F(10, 9))]),
)
def test_zoom_decide_matches_the_fraction_rule(b_q, delta, width, where, m_free, factors):
    # zoom_decide compares integer levels; the rule it replaces compares
    # the estimates, as Fractions against saturation_half_range and as the
    # cross-multiplied integers of fraction_zoom_decide.  Same event, same
    # next grid, and no event when the previous level differs.
    q = QuantizerState.of(b_q, delta)
    half = saturation_half_range(q, width)
    if where == "free":
        m = m_free
    else:
        side, nudge = RIM_LEVELS[where]
        m = int(side * half / delta) + nudge
    x_new = b_q + m * delta
    policy = AdaptiveZoom(quantizer_width=width, c_in=factors[0], c_out=factors[1])
    if x_new >= q.b_q + half or x_new < q.b_q - half:
        expected = QuantizerState.of(x_new, delta * policy.c_out), "zoom_out"
    else:
        expected = QuantizerState.of(x_new, delta / policy.c_in), "zoom_in"
    assert fraction_zoom_decide(q, x_new, x_new, policy) == expected
    assert zoom_decide(q, m, m, policy) == expected + (0,)
    assert zoom_decide(q, m, m + 1, policy)[:2] == fraction_zoom_decide(q, x_new, x_new + delta, policy) == (q, "none")
    if where in ("upper", "lower-"):
        assert expected[1] == "zoom_out"  # the upper rim saturates, below the lower rim too
    if where in ("lower", "upper-") and width > 1:
        assert expected[1] == "zoom_in"  # the lower rim and just under the upper one are inside


@settings(max_examples=600, deadline=None)
@given(st.integers(min_value=1, max_value=70), st.sampled_from([1, -1]), st.integers(min_value=-3, max_value=3))
def test_the_saturation_test_by_bit_length_is_the_power_form(width, side, nudge):
    # on_repeat tests m >= H or m < -H, H = 2**(width-1) - 1, as the bit
    # length of m + 1 (or of -m) reaching the width, so that a huge width
    # builds no huge power.  Both forms agree at and around either rim.
    m = side * 2 ** (width - 1) + nudge
    rim = 2 ** (width - 1) - 1
    _, event, _ = replace(ADAPTIVE, quantizer_width=width).on_repeat(Q0, m)
    assert (event == "zoom_out") == (m >= rim or m < -rim)


# --- single steps -----------------------------------------------------------


def two_node_instance(x0_pair=((1, 1), (1, 2))):
    g = bidirectional_pair()
    s = suite(x0_pair)
    return g, s


def test_step_agreement_and_grid():
    g, s = two_node_instance()
    state = initial_state(starts_of([F(1), F(2)]), Q0, s, ALPHA, None)
    rng = PCG32(3, STREAM_PROTOCOL)
    rec = step(state, g, ADAPTIVE, rng)
    assert grid_point(state.q, state.level) == rec.x_value  # one common estimate
    assert state.history == [rec]  # step 1's record is history[0]
    # consensus output is a whole number of steps from the pre-step basis
    assert ((rec.x_value - rec.q.b_q) / rec.q.delta).denominator == 1
    assert rec.q == Q0  # the pre-zoom grid is logged
    # the error against the optimum 3/2, normalized by the starts' spread
    assert rec.error == fraction_error_metric(rec.x_value, F(3, 2), per_node_spread([F(1), F(2)], F(3, 2)))


def test_step_counts_and_bits():
    g, s = two_node_instance()
    seed = 6
    state = initial_state(starts_of([F(1), F(2)]), Q0, s, ALPHA, None)
    rec = step(state, g, ADAPTIVE, PCG32(seed, STREAM_PROTOCOL))
    # replay the embedded consensus call to cross-check the accounting
    x_half = gradient_step([F(1), F(2)], s, ALPHA)
    result, stats = consensus_point(init_consensus(x_half, Q0), Q0, g, PCG32(seed, STREAM_PROTOCOL))
    assert rec.x_value == result
    assert rec.consensus_rounds == stats.rounds
    assert rec.alphabet_size == len(set(stats.measured_alphabet))
    # the runner prices those counts: n pieces per round, at 3 bits in paper
    # mode and at the bits that index the alphabet in measured mode
    tx = stats.mass_transmissions
    width = (len(stats.measured_alphabet) - 1).bit_length()
    assert step_costs(rec, g.n, 3) == (tx, 3 * tx, width * tx)


def test_first_step_repeat_is_disabled_with_distinct_inits():
    # Before the first consensus the nodes hold different estimates, so no
    # network-wide repeat can exist -- even if the consensus output happens
    # to equal one node's previous value, no zoom may fire.
    # inits {1/2, 1} quantize to masses {3, 5}: the global ratio is exactly
    # 2 levels, so every reachable output (1/2 or 1) equals one node's init
    g, s = two_node_instance(((1, "1/2"), (1, 1)))
    for seed in range(10):
        state = initial_state(starts_of([F(1, 2), F(1)]), Q0, s, F(1, 1000), None)
        rec = step(state, g, ADAPTIVE, PCG32(seed, STREAM_PROTOCOL))
        assert rec.x_value in (F(1, 2), F(1))  # the corner case, every run
        assert rec.zoom_event == "none"
        assert state.q == Q0


def test_equal_start_at_grid_point_triggers_zoom_within_two_steps():
    # Both nodes at the grid point 1/2, a hundredth below the optimum, with
    # a tiny step size: the half-steps stay in the start's cell, so the
    # iterate has nowhere to go, and a repeat (and its zoom) fires by k=2.
    g = bidirectional_pair()
    s = suite([(1, "51/100"), (1, "51/100")])
    for seed in range(5):
        state = initial_state(starts_of([F(1, 2), F(1, 2)]), Q0, s, F(1, 100), None)
        events = []
        for _ in range(2):
            rec = step(state, g, ADAPTIVE, PCG32(seed, STREAM_PROTOCOL))
            events.append(rec.zoom_event)
            assert ((rec.x_value - rec.q.b_q) / rec.q.delta).denominator == 1
        assert any(e != "none" for e in events)
        # every start equals the step-1 output, so step 1 is already a repeat
        assert events[0] == "zoom_in"


def test_zoom_exclusivity_and_delta_sync():
    # Across a real multi-step run: at most one event per step, and the
    # shared quantizer's step moves exactly with the logged events.
    g = generate_random_digraph(6, F(1, 2), 9)
    s = suite([(2, 1), (1, 4), (3, 2), (1, 5), (2, 3), (4, 2)])
    state = initial_state(starts_of([F(k) for k in (1, 2, 3, 4, 5, 1)]), Q0, s, ALPHA, None)
    rng = PCG32(9, STREAM_PROTOCOL)
    for _ in range(40):
        step(state, g, ADAPTIVE, rng)
    ins = sum(1 for r in state.history if r.zoom_event == "zoom_in")
    outs = sum(1 for r in state.history if r.zoom_event == "zoom_out")
    assert ins > 0
    assert state.q.delta == Q0.delta * F(2) ** outs / F(4, 3) ** ins
    assert all(
        r.zoom_event in ("none", "zoom_in", "zoom_out", "refine")
        for r in state.history
    )
    # delta keeps shrinking: over any window after the first zoom-in, at
    # least one strict decrease
    first_in = next(i for i, r in enumerate(state.history) if r.zoom_event == "zoom_in")
    deltas = [r.q.delta for r in state.history[first_in:]]
    window = 20
    for start in range(0, len(deltas) - window):
        w = deltas[start : start + window + 1]
        assert any(b < a for a, b in zip(w, w[1:]))


def test_per_node_quantizer_copies_stay_identical():
    # The shared QuantizerState stands in for n per-node copies; with a
    # common starting estimate the literal per-node updates must agree with
    # the shared state at every step.
    g = generate_random_digraph(5, F(1, 2), 4)
    s = suite([(1, 1), (2, 3), (1, 5), (3, 2), (2, 4)])
    policy = ADAPTIVE
    x_init = [F(2)] * 5
    state = initial_state(starts_of(x_init), Q0, s, ALPHA, None)
    rng = PCG32(4, STREAM_PROTOCOL)
    per_node = [Q0] * 5
    for _ in range(25):
        x_prev = [state.history[-1].x_value] * 5 if state.history else x_init
        rec = step(state, g, policy, rng)
        per_node = [
            zoom_decide(q, int((rec.x_value - q.b_q) / q.delta), (x_prev[i] - q.b_q) / q.delta, policy)[0]
            for i, q in enumerate(per_node)
        ]
        assert all(q == state.q for q in per_node)


def test_fixed_level_repeat_is_absorbing():
    # Once the estimate repeats under a static quantizer, it never moves
    # again -- the mechanism behind the error floor.
    g = generate_random_digraph(5, F(1, 2), 3)
    s = suite([(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)])
    q = QuantizerState.of(b_q=F(0), delta=F(1, 10))
    state = initial_state(starts_of([F(k) for k in (1, 2, 3, 4, 5)]), q, s, ALPHA, None)
    rng = PCG32(3, STREAM_PROTOCOL)
    for _ in range(30):
        step(state, g, FixedLevel(), rng)
    xs = [r.x_value for r in state.history]
    stall = next((i for i in range(1, len(xs)) if xs[i] == xs[i - 1]), None)
    assert stall is not None
    assert all(x == xs[stall] for x in xs[stall:])
    assert state.q == q  # policy never touches the quantizer


# --- run_until --------------------------------------------------------------


UNTIL_STARTS = [F(1), F(2)]


def until_instance():
    g = bidirectional_pair()
    s = suite([(1, 1), (1, 2)])  # optimum 3/2
    state = initial_state(starts_of(UNTIL_STARTS), Q0, s, ALPHA, None)
    return state, g, s


def test_run_until_max_steps_exact():
    state, g, _ = until_instance()
    run_until(state, g, ADAPTIVE, {"max_steps": 5, "target_error": None}, PCG32(1, STREAM_PROTOCOL))
    assert len(state.history) == 5


def test_run_until_stops_at_target():
    state, g, _ = until_instance()
    run_until(state, g, ADAPTIVE, {"max_steps": 200, "target_error": 1e-4}, PCG32(1, STREAM_PROTOCOL))
    history = state.history
    assert history[-1].error <= 1e-4
    assert all(r.error > 1e-4 for r in history[:-1])
    assert len(history) < 200
    # distance to the known optimum shrank accordingly
    assert abs(history[-1].x_value - F(3, 2)) < F(1, 100)


def test_run_record_is_frozen():
    rec = RunRecord(0, 0.0, Q0, "none", 1, 3)
    with pytest.raises(AttributeError, match="can't set attribute|has no setter"):
        rec.level = 2
    assert rec.level == 0


def test_initial_state_copies_inputs():
    # The state keeps what the starts fix, not the starts themselves: the
    # optimum, the error's spread and step 1's masses.
    s = suite([(1, 1), (1, 2)])
    st = initial_state(starts_of([F(1), F(2)]), Q0, s, ALPHA, None)
    assert st.x_star == F(3, 2) and st.spread == per_node_spread([F(1), F(2)], F(3, 2)) == 8
    assert st.level is None and st.history == []  # no common estimate before step 1
    assert st.classes == cost_classes(s, ALPHA)
    assert st.masses == start_masses(st.classes, Q0, starts_of([F(1), F(2)]))
    assert isinstance(st, OptimizerState)


@pytest.mark.parametrize("x0, level", [(F(3, 2), 3), (F(3, 4), F(3, 2)), (F(-1, 3), F(-2, 3))])
def test_equal_starts_hold_their_level_before_step_1(x0, level):
    # Nodes that all start at one value already share an estimate, at
    # ``level`` on the start grid.  On the grid the state holds it as an
    # int; off it the state's level is None, as no consensus output (a grid
    # point) can equal the start.  The table holds one entry, over a
    # denominator that need not be the start's own.
    s = suite([(1, 1), (2, 3), (1, 5)])
    st = initial_state(Starts(3 * x0.denominator, (3 * x0.numerator,), (0, 0, 0)), Q0, s, ALPHA, None)
    want = level if F(level).denominator == 1 else None
    assert st.level == want and type(st.level) is type(want)
    # step 1's masses are every node's half-step from the start, on or off
    # the grid: those of its own level
    assert st.masses == grid_masses(st.classes, Q0, level)


# --- grid-index half-steps against the per-node oracle ---------------------

BETAS = st.fractions(min_value=F(1, 100), max_value=10, max_denominator=100)
X0S = st.fractions(min_value=-20, max_value=20, max_denominator=100)


def draw_suite(data, n, betas=BETAS, x0s=X0S):
    """n costs drawn from a pool of classes: duplicates, or all distinct."""
    pool = data.draw(st.lists(st.tuples(betas, x0s), min_size=1, max_size=n))
    extra = n - len(pool)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=extra, max_size=extra))
    return cost_suite([QuadraticCost(b, x0) for b, x0 in pool + [pool[i] for i in picks]])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grid_masses_match_the_per_node_path(data):
    # The masses come from one integer floor per cost class, from the
    # grid's integers; the oracle is n exact gradient
    # steps, each quantized on the unsaturated grid.  The grid is drawn, or
    # is the one a zoom-out, a zoom-in or a refine moves a drawn grid to.
    # The level is an int (the floor on small integers), a Fraction of
    # denominator 1, a Fraction, negative ones included, or the level of an
    # estimate x drawn independently of b_q, so x - b_q need not be a whole
    # number of steps: any rational, as after a refine.
    n = data.draw(st.integers(min_value=1, max_value=40))
    s = draw_suite(data, n)
    alpha = data.draw(st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100))
    q = QuantizerState.of(
        b_q=data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000)),
        delta=data.draw(st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000)),
    )
    c = data.draw(st.fractions(min_value=F(10, 9), max_value=4, max_denominator=9))
    m = data.draw(st.integers(-40, 40))
    move = data.draw(st.sampled_from(["none", "zoom_out", "zoom_in", "refine"]))
    if move == "zoom_out":
        q = q.moved(m, c.numerator, c.denominator)
    elif move == "zoom_in":
        q = q.moved(m, c.denominator, c.numerator)
    elif move == "refine":
        q = q.moved(0, c.denominator, c.numerator)
    levels = st.integers(-60, 60)
    estimates = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
    level = data.draw(
        st.one_of(
            levels,
            levels.map(F),
            st.fractions(min_value=-60, max_value=60, max_denominator=12),
            estimates.map(lambda x: (x - q.b_q) / q.delta),
        )
    )
    classes = cost_classes(s, alpha)
    want = init_consensus(gradient_step([grid_point(q, level)] * n, s, alpha), q)
    assert grid_masses(classes, q, level) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_start_masses_match_the_per_node_path(data):
    # Step 1: every node takes the integer floor from its own start, over
    # one denominator shared by b_q and the starts' table.  The starts are
    # drawn from a pool, so nodes share entries, fractional, and independent
    # of b_q.
    ratios = st.builds(F, st.integers(min_value=-50_000, max_value=50_000), st.integers(min_value=1, max_value=1000))
    pool = data.draw(st.lists(ratios, min_size=1, max_size=40, unique=True))
    x_init = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    s = draw_suite(data, len(x_init))
    alpha = data.draw(st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100))
    q = QuantizerState.of(
        b_q=data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000)),
        delta=data.draw(st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000)),
    )
    want = init_consensus(gradient_step(x_init, s, alpha), q)
    classes = cost_classes(s, alpha)
    assert start_masses(classes, q, starts_of(x_init)) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spread_over_distinct_starts_matches_the_per_node_sum(data):
    # The same rational from a few repeated values or all-distinct starts;
    # a start at the optimum raises the same error, naming the same node.
    pool = data.draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=60), min_size=1, max_size=8))
    x_init = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    x_star = data.draw(st.one_of(st.sampled_from(pool), st.fractions(min_value=-20, max_value=20, max_denominator=90)))
    try:
        want = per_node_spread(x_init, x_star)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            start_spread(starts_of(x_init), x_star)
        assert str(got.value) == str(exc)
    else:
        assert start_spread(starts_of(x_init), x_star) == want


def test_spread_names_the_first_node_at_the_optimum():
    with pytest.raises(ValueError, match="node 2 equals the optimum"):
        start_spread(starts_of([F(1), F(3, 2), F(2), F(5, 2), F(2)]), F(2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tree_spread_matches_the_per_node_sum(data):
    # Repeated starts, negative starts and a fractional optimum off the
    # start grid: the tree sum over the table's entries, reduced once, is the
    # per-node Fraction sum.
    negative = st.fractions(min_value=-30, max_value=-F(1, 7), max_denominator=40)
    pool = data.draw(st.lists(negative, min_size=1, max_size=10))
    x_init = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    x_init += data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=20))
    fractional = st.fractions(min_value=-10, max_value=10, max_denominator=97).filter(lambda f: f.denominator > 1)
    x_star = data.draw(fractional)
    if x_star in x_init:
        with pytest.raises(ValueError, match="node %d equals" % x_init.index(x_star)):
            start_spread(starts_of(x_init), x_star)
    else:
        assert start_spread(starts_of(x_init), x_star) == per_node_spread(x_init, x_star)


def test_spread_names_the_first_node_among_repeats():
    # The optimum's value is held by node 1 and again by node 3, one entry
    # of the table.
    x_init = [F(1), F(-3, 2), F(1), F(-3, 2), F(5, 3)]
    with pytest.raises(ValueError, match="node 1 equals the optimum"):
        start_spread(starts_of(x_init), F(-3, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_start_table_over_any_common_denominator_gives_one_state(data):
    # The runner's table keeps its starts over the grid's denominator, which
    # need not be their reduced one: the masses, the spread and the start
    # level read only the values.
    pool = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=4))
    x_init = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    s = draw_suite(data, len(x_init))
    assume(s.global_optimum not in x_init)
    k = data.draw(st.integers(min_value=2, max_value=30))
    table = starts_of(x_init)
    wide = Starts(table.den * k, tuple(a * k for a in table.nums), table.node_start)
    q = QuantizerState.of(
        b_q=data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=12)),
        delta=data.draw(st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16)),
    )
    want, got = initial_state(table, q, s, ALPHA, None), initial_state(wide, q, s, ALPHA, None)
    assert (got.level, got.masses, got.spread) == (want.level, want.masses, want.spread)
    assert want.masses == init_consensus(gradient_step(x_init, s, ALPHA), q)
    on_grid = len(set(x_init)) == 1 and ((x_init[0] - q.b_q) / q.delta).denominator == 1
    assert (want.level is None) == (not on_grid)
    if on_grid:
        assert want.level == (x_init[0] - q.b_q) / q.delta and type(want.level) is int


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cost_classes_match_the_per_node_pulls(data):
    # Every node's row of the table is its own exact pull (1 - alpha*beta,
    # alpha*beta*x0) over the table's denominator, also when equal costs
    # are held by distinct objects.
    n = data.draw(st.integers(min_value=1, max_value=30))
    costs = [QuadraticCost(F(c.beta.numerator, c.beta.denominator), c.x0) for c in node_costs(draw_suite(data, n))]
    alpha = data.draw(st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100))
    classes = cost_classes(cost_suite(costs), alpha)
    assert len(classes.coeffs) == len({(c.beta, c.x0) for c in costs})
    for j, c in enumerate(costs):
        u, v = classes.coeffs[classes.node_class[j]]
        assert (F(u, classes.lcm), F(v, classes.lcm)) == (1 - alpha * c.beta, alpha * c.beta * c.x0)


def test_cost_classes_group_equal_costs():
    s = suite([(2, 1), (1, 4), (2, 1), (1, "-1/3"), (1, 4)])
    classes = cost_classes(s, F(1, 10))
    assert classes.node_class == (0, 1, 0, 2, 1)
    assert len(classes.coeffs) == 3
    # Keys are the reduced integers, so 4/2 and 2 are one class.
    again = cost_classes(cost_suite([QuadraticCost(F(4, 2), F(1)), QuadraticCost(F(2), F(2, 2))]), F(1, 10))
    assert again.node_class == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cost_classes_equal_the_fraction_formula(data):
    # The integer table equals the Fraction formula's, field for field.
    s = draw_suite(data, data.draw(st.integers(min_value=1, max_value=30)))
    alpha = data.draw(st.fractions(min_value=F(1, 1000), max_value=3, max_denominator=1000))
    assert cost_classes(s, alpha) == fraction_cost_classes(s, alpha)


@pytest.mark.parametrize("alpha", [F(3, 25), F(1, 3), F(1), F(7, 4), F(1, 10**6)])
def test_cost_classes_equal_the_fraction_formula_on_explicit_suites(alpha):
    # Negative and zero x0, alpha*beta above, at and below 1, and numbers
    # that reduce: the table equals the Fraction formula's, field for field.
    suites = [
        [(2, 3)],
        [(1, -4), (5, "-7/3"), (10, 0)],
        [("3/2", "-1/6"), (4, 4), ("9/4", -100), ("25/3", "6/4")],
        [(25, 1), ("1/4", "-3/8"), (2 * 10**6, "1/2")],
    ]
    for pairs in suites:
        s = suite(pairs)
        assert cost_classes(s, alpha) == fraction_cost_classes(s, alpha), pairs
    assert any(alpha * F(b) > 1 for pairs in suites for b, _ in pairs)


POLICIES = [
    ADAPTIVE,
    replace(ADAPTIVE, quantizer_width=5),
    REFINE,
    RefineOnly(c_refine=F(5, 2)),
    FixedLevel(),
]


@st.composite
def run_instances(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    p = draw(st.sampled_from([F(1, 3), F(1, 2), F(1)]))
    g = generate_random_digraph(n, p, draw(st.integers(0, 1000)))
    data = draw(st.data())
    s = draw_suite(
        data,
        n,
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
    )
    policy = draw(st.sampled_from(POLICIES))
    q = QuantizerState.of(
        b_q=draw(st.fractions(min_value=-2, max_value=2, max_denominator=8)),
        delta=draw(st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16)),
    )
    kind = draw(st.sampled_from(["distinct", "equal on the grid", "equal off the grid"]))
    if kind == "distinct":
        starts = st.fractions(min_value=-5, max_value=5, max_denominator=16)
        x_init = draw(st.lists(starts, min_size=n, max_size=n))
    else:
        # One start for every node, a few cells from the optimum, so that
        # step 1's output often equals it (a repeat at step 1).
        near = (s.global_optimum - q.b_q) // q.delta + draw(st.integers(-3, 3))
        off = 0 if kind == "equal on the grid" else draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        x_init = [q.b_q + (near + off) * q.delta] * n
    c_in = draw(st.sampled_from([F(4, 3), F(7, 5)]))
    c_out = draw(st.sampled_from([F(2), F(5, 2)]))
    if isinstance(policy, AdaptiveZoom):
        policy = replace(policy, c_in=c_in, c_out=c_out)
    alpha = draw(st.fractions(min_value=F(1, 50), max_value=F(1, 4), max_denominator=50))
    return g, s, x_init, q, alpha, policy, draw(st.integers(0, 2**32 - 1))


def oracle_run(step_fn, g, s, x_init, q, alpha, policy, seed, stop):
    """One ``run_until`` with ``optimizer.step`` replaced by ``step_fn``.

    Returns the history, the final quantizer, the RNG state and, after
    every step, the state's level and its estimate twice: for the product
    the state's level on its grid and ``rec.x_value``, for the oracle the
    ``Fraction`` it keeps.  The oracle's error spread is the per-node sum.
    """
    estimates = []

    def recorded(state, g, policy, rng):
        if step_fn is per_node_step:
            rec = per_node_step(state, g, x_init, s, alpha, policy, rng)
            estimates.append((state.level, state.oracle_x, state.oracle_x))
        else:
            rec = step_fn(state, g, policy, rng)
            estimates.append((state.level, grid_point(state.q, state.level), rec.x_value))
        return rec

    rng = PCG32(seed, STREAM_PROTOCOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "step", recorded)
        if step_fn is per_node_step:
            mp.setattr(optimizer, "start_spread", lambda starts, x_star: per_node_spread(start_values(starts), x_star))
        state = initial_state(starts_of(x_init), q, s, alpha, None)
        run_until(state, g, policy, stop, rng)
    return state.history, state.q, rng.getstate(), estimates


@pytest.mark.parametrize("backend", ["kernel", "no_kernel"])
def test_runs_match_the_per_node_oracle(backend, request):
    # Every RunRecord (level, error, quantizer, event, rounds, bits), the
    # final quantizer and the RNG position equal the per-node path's, step 1
    # and the error's spread included, for all three policies, widths 3 and
    # 5 and a non-integer refine factor, from distinct starts and from one
    # start on or off the grid (step 1's repeat rule); after every step the
    # state's level, the point it names on the state's grid and the record's
    # x_value equal the oracle's Fraction estimate.
    request.getfixturevalue(backend)

    @settings(max_examples=60, deadline=None)
    @given(run_instances())
    def check(instance):
        g, s, x_init, q, alpha, policy, seed = instance
        if s.global_optimum in x_init:
            return  # initial_state rejects a start at the optimum
        args = (g, s, x_init, q, alpha, policy, seed, {"max_steps": 15, "target_error": 1e-9})
        assert oracle_run(step, *args) == oracle_run(per_node_step, *args)

    check()


def test_a_refine_by_five_halves_leaves_a_half_level_and_matches_the_oracle():
    # A refine by c_refine = 5/2 turns the level m into 5m/2, a half level
    # on the finer grid when m is odd; the next step's masses, repeat test
    # and error read it as a numerator/denominator pair.
    state, g, s = until_instance()
    args = (g, s, UNTIL_STARTS, state.q, ALPHA, RefineOnly(c_refine=F(5, 2)), 1, {"max_steps": 15})
    got = oracle_run(step, *args)
    assert got == oracle_run(per_node_step, *args)
    history, levels = got[0], [level for level, _, _ in got[3]]
    assert [r.zoom_event for r in history].count("refine") == 5
    assert levels[1] == F(15, 2) and levels[2] == 7  # 3 on the step-1 grid, then a repeat
    assert sum(1 for level in levels if F(level).denominator != 1) == 4


# A grid whose one denominator, 12, is not the product of its basis's and
# its step's (6 and 4), and the adaptive policy under each pair of factors.
DEEP_Q0 = QuantizerState.of(b_q=F(1, 6), delta=F(1, 4))
DEEP_POLICIES = [replace(ADAPTIVE, c_in=c_in, c_out=c_out) for c_in in (F(4, 3), F(7, 5)) for c_out in (F(2), F(5, 2))]


@pytest.mark.parametrize("backend", ["kernel", "no_kernel"])
@pytest.mark.parametrize("policy", DEEP_POLICIES + [RefineOnly(c_refine=F(5, 2))], ids=repr)
def test_a_deep_zoom_chain_matches_the_per_node_oracle(backend, policy, request):
    # 64 steps, so the grid's denominator grows far past the drawn runs' 15
    # steps (to 2**29 after 11 refines, to 2**59 and more after the zooms):
    # every record, the final grid, the RNG position and each step's
    # estimate equal the per-node path's.
    request.getfixturevalue(backend)
    g = generate_random_digraph(5, F(1, 2), 7)
    s = suite([(1, 2), (2, 5), (1, 3), (3, 4), (2, "7/2")])
    args = (g, s, [F(k) for k in (1, 2, 3, 4, 5)], DEEP_Q0, ALPHA, policy, 11, {"max_steps": 64})
    got = oracle_run(step, *args)
    assert got == oracle_run(per_node_step, *args)
    history, q = got[0], got[1]
    events = {r.zoom_event for r in history}
    assert len(history) == 64 and q.den > 2**25
    assert events >= ({"zoom_in", "zoom_out"} if isinstance(policy, AdaptiveZoom) else {"refine"})


@st.composite
def zoom_chains(draw):
    """A run of 40 to 64 steps on a drawn grid under a drawn zoom rule.

    The adaptive rule draws its width and both factors, the refine-only one
    its factor; the starts come from a small pool, so nodes share them and
    may all hold one.  Returns (grid, policy, starts, steps, RNG seed).
    """
    factors = st.fractions(min_value=F(8, 7), max_value=3, max_denominator=7)
    if draw(st.booleans()):
        policy = replace(ADAPTIVE, quantizer_width=draw(st.integers(1, 4)), c_in=draw(factors), c_out=draw(factors))
    else:
        policy = RefineOnly(c_refine=draw(factors))
    q = QuantizerState.of(
        draw(st.fractions(min_value=-2, max_value=2, max_denominator=12)),
        draw(st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16)),
    )
    pool = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=5, unique=True))
    x_init = draw(st.lists(st.sampled_from(pool), min_size=5, max_size=5))
    return q, policy, x_init, draw(st.integers(40, 64)), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("backend", ["kernel", "no_kernel"])
def test_drawn_deep_zoom_chains_match_the_per_node_oracle(backend, request):
    # The deep chain above over drawn chains: every record, the final grid,
    # the RNG position and each step's estimate equal the per-node path's,
    # for any zoom factors, grid, width and starts.
    request.getfixturevalue(backend)
    g = generate_random_digraph(5, F(1, 2), 7)
    s = suite([(1, 2), (2, 5), (1, 3), (3, 4), (2, "7/2")])

    @settings(max_examples=10, deadline=None)
    @given(zoom_chains())
    def check(chain):
        q, policy, x_init, steps, seed = chain
        assume(s.global_optimum not in x_init)  # initial_state rejects a start at the optimum
        args = (g, s, x_init, q, ALPHA, policy, seed, {"max_steps": steps})
        assert oracle_run(step, *args) == oracle_run(per_node_step, *args)

    check()


def fraction_constructions(monkeypatch):
    """A list that gains one entry per ``Fraction`` built from here on."""
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    if "_from_coprime_ints" in vars(F):  # Python >= 3.12 builds arithmetic results here
        from_coprime = F._from_coprime_ints.__func__

        def counting_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return from_coprime(cls, numerator, denominator)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_coprime))
    return built


@pytest.mark.parametrize("policy", [FixedLevel(), ADAPTIVE, RefineOnly(c_refine=F(5, 2))])
def test_a_step_without_an_event_builds_no_fraction(policy, monkeypatch):
    # Between zooms the estimate is a grid level: after step 1, a step whose
    # event is none (every step of a fixed level, its absorbing repeats
    # included) builds no Fraction, error metric included.  A grid move is
    # integer arithmetic too: a zoom, in or out, builds none, and a refine
    # builds at most the level m*c_refine it leaves on the finer grid.  A
    # record's x_value is built only when read.
    g = generate_random_digraph(5, F(1, 2), 3)
    s = suite([(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)])
    q = QuantizerState.of(b_q=F(0), delta=F(1, 10))
    state = initial_state(starts_of([F(k) for k in (1, 2, 3, 4, 5)]), q, s, ALPHA, None)
    built = fraction_constructions(monkeypatch)
    per_step = []
    real_step = optimizer.step

    def counted(*args, **kwargs):
        before = len(built)
        rec = real_step(*args, **kwargs)
        per_step.append((rec.zoom_event, len(built) - before))
        return rec

    monkeypatch.setattr(optimizer, "step", counted)
    run_until(state, g, policy, {"max_steps": 30}, PCG32(3, STREAM_PROTOCOL))
    quiet = [count for event, count in per_step[1:] if event == "none"]
    assert len(quiet) >= 10
    assert quiet == [0] * len(quiet)
    moves = [(event, count) for event, count in per_step[1:] if event != "none"]
    if isinstance(policy, AdaptiveZoom):
        assert {event for event, _ in moves} == {"zoom_in", "zoom_out"}
        assert [count for _, count in moves] == [0] * len(moves)
    elif isinstance(policy, RefineOnly):
        assert moves and max(count for _, count in moves) <= 1
    before = len(built)
    last = state.history[-1]
    x = last.x_value
    assert len(built) > before
    assert x == last.q.b_q + last.level * last.q.delta
    assert state.masses == grid_masses(state.classes, state.q, state.level)  # the next step's


def test_masses_beyond_the_kernel_range_replay_on_the_pure_path(kernel, monkeypatch):
    # delta0 = 2**-60 puts the sum of |y| of every step's masses beyond
    # int64: each call declines without drawing, and the pure path must
    # replay it from the same masses, so the run equals a run without the
    # kernel.
    g = generate_random_digraph(5, F(1, 2), 4)
    s = suite([(1, 1), (2, 3), (1, 5), (3, 2), (2, 4)])
    q = QuantizerState.of(b_q=F(0), delta=F(1, 2**60))
    masses = []

    def recording(y, *args, **kwargs):
        masses.append(list(y))
        return run_consensus(y, *args, **kwargs)

    monkeypatch.setattr(optimizer, "run_consensus", recording)

    def run():
        state = initial_state(starts_of([F(k) for k in (1, 2, 3, 4, 5)]), q, s, ALPHA, None)
        rng = PCG32(4, STREAM_PROTOCOL)
        run_until(state, g, ADAPTIVE, {"max_steps": 4}, rng)
        return state.history, state.q, rng.getstate()

    compiled = run()
    assert len(masses) == 4
    for y in masses:
        assert sum(map(abs, y)) > 2**63 - 1
        assert kernel.run_rounds(y, g.kernel_handle(kernel), 2, 10, 0, 1) is None
    monkeypatch.setattr(graph, "_kernel", None)
    assert run() == compiled


# --- the kernel's class arithmetic against the exact formulas -------------


@pytest.fixture
def class_kernel(built_kernel, no_kernel):
    """The built kernel, called directly, with the package on its pure path,
    so that ``grid_masses`` runs the exact formula."""
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    return built_kernel


def kernel_masses(kernel, classes, q, level):
    return kernel.class_masses(classes.coeffs, classes.lcm, classes.node_class, q.base, q.den, q.step, level)


def reached_levels(kernel, run):
    """Every ``(classes, q, level)`` that ``run()``, on ``kernel``, takes
    masses at, with the masses it took."""
    levels = []

    def masses(classes, q, level):
        ys = grid_masses(classes, q, level)
        levels.append((classes, q, level, ys))
        return ys

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", kernel)
        mp.setattr(optimizer, "grid_masses", masses)
        run()
    return levels


REACHED = {
    "sweep": lambda: sweep(RunConfig(), range(100)),
    "compare": lambda: compare(RunConfig(n=20, seed=1)),
}


@pytest.mark.parametrize("name", sorted(REACHED))
def test_class_kernel_matches_the_exact_formulas_on_every_reached_grid(class_kernel, name):
    # Every grid and level that the compiled 100-seed default sweep and the
    # five compare variants reach: the kernel's masses equal the exact
    # formula's, and it declines none of them.  Every level there is an
    # integer (a refine by 10 keeps it one).
    levels = reached_levels(class_kernel, REACHED[name])
    grids = {(classes, q) for classes, q, _, _ in levels}
    assert len(grids) >= {"sweep": 5000, "compare": 60}[name] and len(levels) >= {"sweep": 9000, "compare": 140}[name]
    for classes, q, level, ys in levels:
        assert F(level).denominator == 1
        assert kernel_masses(class_kernel, classes, q, int(level)) == ys == grid_masses(classes, q, level)


def drawn_classes(data, k, mag):
    coeffs = tuple(data.draw(st.tuples(st.integers(-mag, mag), st.integers(-mag, mag))) for _ in range(k))
    node_class = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12)))
    lcm = data.draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**63 - 1)))
    return CostClasses(node_class, lcm, coeffs)


def wide(data, bits, negative=True):
    top = 2 ** data.draw(st.sampled_from(bits))
    return data.draw(st.integers(-top if negative else 1, top))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_class_kernel_matches_the_exact_formulas_on_drawn_grids(built_kernel, data):
    # Grids of wide denominators and steps and negative bases, coefficients
    # up to and past 2**53, and levels of either sign up to and past int64:
    # each call equals the exact formula or declines.  A grid and its level
    # as the product holds them are drawn too: a drawn grid moved by a zoom.
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", None)
        assert_drawn_class_parity(built_kernel, data)


def assert_drawn_class_parity(kernel, data):
    classes = drawn_classes(data, data.draw(st.integers(1, 6)), data.draw(st.sampled_from([2**10, 2**40, 2**54])))
    if data.draw(st.booleans()):
        den, base = wide(data, [1, 40, 100, 300], False), wide(data, [1, 40, 100, 300])
        q = QuantizerState(den, base, wide(data, [1, 8, 40, 62, 63, 64, 100, 300], False))
    else:
        b_q = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=2**70))
        delta = data.draw(st.fractions(min_value=F(1, 2**60), max_value=10, max_denominator=2**70))
        q = QuantizerState.of(b_q, delta).moved(data.draw(st.integers(-99, 99)), 9, 7)
    level = data.draw(st.one_of(st.integers(-60, 60), st.integers(-(2**64), 2**64)))
    ys = kernel_masses(kernel, classes, q, level)
    assert ys is None or ys == grid_masses(classes, q, level)


def test_class_kernel_at_its_edges(class_kernel, monkeypatch):
    # Each edge call accepts or declines as the table says, an accepted one
    # equals the exact formula, and the product's grid_masses gives the
    # exact formula's result either way.
    for (coeffs, lcm, node_class, base, den, step, level), declines in CLASS_EDGES:
        if step == 0 or lcm == 0:  # no grid or class table holds these
            assert class_kernel.class_masses(coeffs, lcm, node_class, base, den, step, level) is None
            continue
        classes, q = CostClasses(node_class, lcm, coeffs), QuantizerState(den, base, step)
        want = grid_masses(classes, q, level)
        got = kernel_masses(class_kernel, classes, q, level)
        assert (got is None) == declines and got in (None, want)
        with monkeypatch.context() as mp:
            mp.setattr(graph, "_kernel", class_kernel)
            assert grid_masses(classes, q, level) == want
    # The first two grids: b_q = 0, delta = 1/2 has both remainders 0, and
    # 1/3 is inexact in a double, though 3 * (1/3) rounds to exactly 1.
    assert QuantizerState.of(F(0), F(1, 2)) == QuantizerState(2, 0, 1)
    assert F(1 / 3) != F(1, 3) and 3 * (1 / 3) == 1.0


def near_integer_grids(seed, count):
    """Grids and classes whose x_c = (a*rb + v*rd)/step lies within a hair of
    an integer, below, at or above it, on steps below 2**62, up to 2**64 and
    far beyond: rb is the floor of (j*step + e)/a for an integer j between 0
    and a, and e in -2..2, and a second term v*rd/step stays small."""
    rnd = random.Random(seed)
    for _ in range(count):
        step = rnd.randrange(2, 2 ** rnd.choice([20, 62, 64, 120]))
        a = rnd.randrange(2, 2 ** rnd.choice([3, 20, 45, 48]))
        j = rnd.randrange(0, a)
        rb = (j * step + rnd.randrange(-2, 3)) // a
        if not 0 <= rb < step:
            continue
        sign = rnd.choice([1, -1])
        rd, v = rnd.randrange(0, 3), rnd.randrange(-3, 4)
        lcm = rnd.randrange(1, 1000)
        classes = CostClasses((0,), lcm, ((sign * a + lcm, v),))
        yield classes, QuantizerState(rnd.randrange(1, 5) * step + rd, rnd.randrange(-5, 5) * step + rb, step)


def test_class_offsets_near_an_integer(class_kernel):
    # Where x_c lies within the estimate's error of an integer, the estimate
    # alone may floor kappa_c to the wrong side: the kernel must resolve the
    # class exactly (a step below 2**63) or decline, never return a wrong
    # mass.  Each grid runs at level 0 with its drawn lcm and again with the
    # same a_c, lcm 1 and u_c = a_c + 1, whose mass 2*kappa_c + 1 shows an
    # off-by-one in kappa_c that the floor by a wider lcm could hide.
    resolved = declined = 0
    for classes, q in near_integer_grids(0, 4000):
        ((u, v),) = classes.coeffs
        twin = CostClasses((0,), 1, ((u - classes.lcm + 1, v),))
        got, got_twin = kernel_masses(class_kernel, classes, q, 0), kernel_masses(class_kernel, twin, q, 0)
        assert (got is None) == (got_twin is None), (classes, q)
        declined += got is None
        if got is not None:
            assert got == grid_masses(classes, q, 0) and got_twin == grid_masses(twin, q, 0), (classes, q)
            resolved += q.step < 2**63
    assert resolved > 1000 and declined > 100


# The reports of the deep run below, with the backend column masked.
DEEP_DIGESTS = {
    "history.csv": "dca1a17839341f3b28e53510585731d061a76423da10bc1cdae181ba31f169a7",
    "summary.csv": "63e46a8b510bea3ef59b27e59158583d0b93a26c84e211f423584445dc9d8cc6",
}


def test_a_deep_run_declines_class_and_consensus_calls_mid_run(class_kernel, monkeypatch, tmp_path):
    # n=200, p=1/10, seed 0 to the error target 1e-15 (240 steps): the masses
    # grow like 1/delta until, mid-run, both kernel calls of a step decline,
    # the class arithmetic on wide grid ints and the consensus on a sum of
    # |y| beyond int64.  The pure paths take those calls over, every step's
    # masses equal the exact formula, and the reports keep their bytes.
    calls = {"class_masses": [], "run_rounds": []}

    def logged(call, log):
        def wrapper(*args):
            log.append(call(*args))
            return log[-1]

        return wrapper

    for name, log in calls.items():
        monkeypatch.setattr(class_kernel, name, logged(getattr(class_kernel, name), log))
    config = RunConfig(
        n=200, edge_prob=F(1, 10), seed=0, out_dir=str(tmp_path), stop={"max_steps": 400, "target_error": 1e-15}
    )
    levels = reached_levels(class_kernel, lambda: cmd_run(config))
    assert {path.name: masked_digest(path.read_text()) for path in tmp_path.iterdir()} == DEEP_DIGESTS
    for log in calls.values():
        assert None in log and any(out is not None for out in log)
    for classes, q, level, ys in levels:
        assert ys == grid_masses(classes, q, level)
