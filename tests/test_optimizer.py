"""Outer loop: gradient arithmetic, zoom decisions, per-step bookkeeping,
agreement/grid invariants, and the stopping logic.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bidirectional_pair, per_node_spread, per_node_step
from zoomgrad import optimizer
from zoomgrad.consensus import engine, run_consensus
from zoomgrad.consensus.engine import init_consensus
from zoomgrad.graph import generate_random_digraph
from zoomgrad.objective import CostSuite, QuadraticCost
from zoomgrad.optimizer import (
    AdaptiveZoom,
    FixedLevel,
    OptimizerState,
    RefineOnly,
    RunRecord,
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
from zoomgrad.quantizer import QuantizerState
from zoomgrad.rng import PCG32, STREAM_PROTOCOL

Q0 = QuantizerState(b_q=F(0), delta=F(1, 2))
ALPHA = F(3, 25)


def suite(pairs):
    return CostSuite(QuadraticCost(F(b), F(x)) for b, x in pairs)


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


def test_no_event_without_repeat():
    q, event = zoom_decide(Q0, F(7, 4), F(1), AdaptiveZoom())
    assert event == "none"
    assert q == Q0


def test_adaptive_out_of_range_zooms_out():
    q, event = zoom_decide(Q0, F(2), F(2), AdaptiveZoom())
    assert event == "zoom_out"
    assert q == QuantizerState(F(2), F(1))


def test_adaptive_in_range_zooms_in():
    q, event = zoom_decide(Q0, F(1), F(1), AdaptiveZoom())
    assert event == "zoom_in"
    assert q == QuantizerState(F(1), F(3, 8))


def test_adaptive_range_boundaries():
    # dynamic range is [b_q - 3d, b_q + 3d): the upper edge saturates, the
    # lower edge is still inside
    hi, event = zoom_decide(Q0, F(3, 2), F(3, 2), AdaptiveZoom())
    assert event == "zoom_out"
    assert hi.delta == F(1)
    lo, event = zoom_decide(Q0, F(-3, 2), F(-3, 2), AdaptiveZoom())
    assert event == "zoom_in"
    below, event = zoom_decide(Q0, F(-8, 5), F(-8, 5), AdaptiveZoom())
    assert event == "zoom_out"
    assert below.b_q == F(-8, 5)


def test_refine_only_shrinks_in_place():
    q, event = zoom_decide(Q0, F(1), F(1), RefineOnly())
    assert event == "refine"
    assert q.delta == F(1, 20)
    assert q.b_q == Q0.b_q  # basis never moves


def test_fixed_level_never_changes():
    q, event = zoom_decide(Q0, F(1), F(1), FixedLevel())
    assert event == "none"
    assert q == Q0


def test_unknown_policy_rejected():
    with pytest.raises(TypeError):
        zoom_decide(Q0, F(1), F(1), object())


# --- message width schedules ------------------------------------------------


def test_adaptive_width():
    assert AdaptiveZoom().message_width(0, F(1, 2)) == 3
    assert AdaptiveZoom(quantizer_width=4).message_width(9, F(1)) == 4
    assert AdaptiveZoom(b_pm=3).message_width(5, F(1, 8)) == 3


def test_refine_width_schedule():
    p = RefineOnly()
    widths = [p.message_width(k, F(1, 2)) for k in range(12)]
    assert widths == [7, 7, 7, 10, 10, 10, 10, 10, 10, 14, 14, 14]
    assert p.message_width(1000, F(1, 2)) == 14


def test_fixed_width_lookup():
    p = FixedLevel()
    assert p.message_width(0, F(1, 10)) == 7
    assert p.message_width(0, F(1, 100)) == 10
    assert p.message_width(0, F(1, 1000)) == 14
    with pytest.raises(ValueError, match="set b_pm"):
        p.message_width(0, F(1, 7))
    assert FixedLevel(b_pm=6).message_width(0, F(1, 7)) == 6


# --- single steps -----------------------------------------------------------


def two_node_instance(x0_pair=((1, 1), (1, 2))):
    g = bidirectional_pair()
    s = suite(x0_pair)
    return g, s


def test_step_agreement_and_grid():
    g, s = two_node_instance()
    state = initial_state([F(1), F(2)], Q0)
    rng = PCG32(3, STREAM_PROTOCOL)
    state, rec = step(state, g, s, ALPHA, AdaptiveZoom(), rng)
    assert state.x == rec.x_value  # one common estimate, stored once
    assert len(state.history) == 1 == rec.k
    # consensus output is a whole number of steps from the pre-step basis
    assert ((rec.x_value - rec.b_q) / rec.delta).denominator == 1
    assert rec.delta == Q0.delta and rec.b_q == Q0.b_q  # pre-zoom values logged
    assert math.isnan(rec.error)  # no error_fn supplied


def test_step_counts_and_bits():
    g, s = two_node_instance()
    seed = 6
    state = initial_state([F(1), F(2)], Q0)
    state, rec = step(state, g, s, ALPHA, AdaptiveZoom(), PCG32(seed, STREAM_PROTOCOL))
    # replay the embedded consensus call to cross-check the accounting
    x_half = gradient_step([F(1), F(2)], s, ALPHA)
    result, stats = run_consensus(init_consensus(x_half, Q0), Q0, g, PCG32(seed, STREAM_PROTOCOL))
    assert rec.x_value == result
    assert rec.consensus_rounds == stats.rounds
    assert rec.mass_transmissions == stats.mass_transmissions
    assert rec.bits_paper_mode == 3 * stats.mass_transmissions
    width = (len(stats.measured_alphabet) - 1).bit_length()
    assert rec.bits_measured_mode == width * stats.mass_transmissions


def test_first_step_repeat_is_disabled_with_distinct_inits():
    # Before the first consensus the nodes hold different estimates, so no
    # network-wide repeat can exist -- even if the consensus output happens
    # to equal one node's previous value, no zoom may fire.
    # inits {1/2, 1} quantize to masses {3, 5}: the global ratio is exactly
    # 2 levels, so every reachable output (1/2 or 1) equals one node's init
    g, s = two_node_instance(((1, "1/2"), (1, 1)))
    for seed in range(10):
        state = initial_state([F(1, 2), F(1)], Q0)
        state, rec = step(
            state, g, s, F(1, 1000), AdaptiveZoom(), PCG32(seed, STREAM_PROTOCOL)
        )
        assert rec.x_value in (F(1, 2), F(1))  # the corner case, every run
        assert rec.zoom_event == "none"
        assert state.q == Q0


def test_equal_start_at_grid_point_triggers_zoom_within_two_steps():
    # Both nodes at the optimum grid point with a tiny step size: the
    # iterate has nowhere to go, so a repeat (and its zoom) fires by k=2.
    g = bidirectional_pair()
    s = suite([(1, "1/2"), (1, "1/2")])
    for seed in range(5):
        state = initial_state([F(1, 2), F(1, 2)], Q0)
        events = []
        for _ in range(2):
            state, rec = step(
                state, g, s, F(1, 100), AdaptiveZoom(), PCG32(seed, STREAM_PROTOCOL)
            )
            events.append(rec.zoom_event)
            assert ((rec.x_value - rec.b_q) / rec.delta).denominator == 1
        assert any(e != "none" for e in events)
        # every start equals the step-1 output, so step 1 is already a repeat
        assert events[0] == "zoom_in"


def test_zoom_exclusivity_and_delta_sync():
    # Across a real multi-step run: at most one event per step, and the
    # shared quantizer's step moves exactly with the logged events.
    g = generate_random_digraph(6, F(1, 2), 9)
    s = suite([(2, 1), (1, 4), (3, 2), (1, 5), (2, 3), (4, 2)])
    state = initial_state([F(k) for k in (1, 2, 3, 4, 5, 1)], Q0)
    rng = PCG32(9, STREAM_PROTOCOL)
    for _ in range(40):
        step(state, g, s, ALPHA, AdaptiveZoom(), rng)
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
    deltas = [r.delta for r in state.history[first_in:]]
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
    policy = AdaptiveZoom()
    state = initial_state([F(2)] * 5, Q0)
    rng = PCG32(4, STREAM_PROTOCOL)
    per_node = [Q0] * 5
    for _ in range(25):
        x_prev = state.x_init if state.x is None else [state.x] * 5
        state, rec = step(state, g, s, ALPHA, policy, rng)
        per_node = [
            zoom_decide(q, rec.x_value, x_prev[i], policy)[0]
            for i, q in enumerate(per_node)
        ]
        assert all(q == state.q for q in per_node)


def test_fixed_level_repeat_is_absorbing():
    # Once the estimate repeats under a static quantizer, it never moves
    # again -- the mechanism behind the error floor.
    g = generate_random_digraph(5, F(1, 2), 3)
    s = suite([(1, 2), (2, 1), (1, 3), (3, 4), (2, 2)])
    q = QuantizerState(b_q=F(0), delta=F(1, 10))
    state = initial_state([F(k) for k in (1, 2, 3, 4, 5)], q)
    rng = PCG32(3, STREAM_PROTOCOL)
    for _ in range(30):
        step(state, g, s, ALPHA, FixedLevel(), rng)
    xs = [r.x_value for r in state.history]
    stall = next((i for i in range(1, len(xs)) if xs[i] == xs[i - 1]), None)
    assert stall is not None
    assert all(x == xs[stall] for x in xs[stall:])
    assert state.q == q  # policy never touches the quantizer


# --- run_until --------------------------------------------------------------


def until_instance():
    g = bidirectional_pair()
    s = suite([(1, 1), (1, 2)])  # optimum 3/2
    state = initial_state([F(1), F(2)], Q0)
    return state, g, s


def test_run_until_max_steps_exact():
    state, g, s = until_instance()
    history = run_until(
        state, g, s, ALPHA, AdaptiveZoom(),
        {"max_steps": 5, "target_error": float("inf")},
        PCG32(1, STREAM_PROTOCOL),
    )
    assert len(history) == 5
    assert [r.k for r in history] == [1, 2, 3, 4, 5]


def test_run_until_nan_target_means_unset():
    state, g, s = until_instance()
    history = run_until(
        state, g, s, ALPHA, AdaptiveZoom(),
        {"max_steps": 4, "target_error": float("nan")},
        PCG32(1, STREAM_PROTOCOL),
    )
    assert len(history) == 4


def test_run_until_needs_some_bound():
    state, g, s = until_instance()
    with pytest.raises(ValueError, match="max_steps or"):
        run_until(state, g, s, ALPHA, AdaptiveZoom(), {}, PCG32(1, STREAM_PROTOCOL))


def test_run_until_stops_at_target():
    state, g, s = until_instance()
    history = run_until(
        state, g, s, ALPHA, AdaptiveZoom(),
        {"max_steps": 200, "target_error": 1e-4},
        PCG32(1, STREAM_PROTOCOL),
    )
    assert history[-1].error <= 1e-4
    assert all(r.error > 1e-4 for r in history[:-1])
    assert len(history) < 200
    # distance to the known optimum shrank accordingly
    assert abs(state.x - F(3, 2)) < F(1, 100)


def test_run_record_is_frozen():
    rec = RunRecord(1, F(0), 0.0, F(1, 2), F(0), "none", 1, 1, 3, 3)
    with pytest.raises(AttributeError):
        rec.k = 2


def test_initial_state_copies_inputs():
    xs = [F(1), F(2)]
    st = initial_state(xs, Q0)
    xs.append(F(3))
    assert st.x_init == (F(1), F(2))
    assert st.x is None and st.history == []  # no common estimate before step 1
    assert isinstance(st, OptimizerState)


# --- grid-index half-steps against the per-node oracle ---------------------

BETAS = st.fractions(min_value=F(1, 100), max_value=10, max_denominator=100)
X0S = st.fractions(min_value=-20, max_value=20, max_denominator=100)


def draw_suite(data, n, betas=BETAS, x0s=X0S):
    """n costs drawn from a pool of classes: duplicates, or all distinct."""
    pool = data.draw(st.lists(st.tuples(betas, x0s), min_size=1, max_size=n))
    extra = n - len(pool)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=extra, max_size=extra))
    return CostSuite(QuadraticCost(b, x0) for b, x0 in pool + [pool[i] for i in picks])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_masses_match_the_per_node_path(data):
    # The masses come from one integer floor per cost class; the oracle is
    # n exact gradient steps, each quantized on the unsaturated grid.  x and
    # b_q are drawn independently, so x - b_q need not be a whole number of
    # steps.
    n = data.draw(st.integers(min_value=1, max_value=40))
    s = draw_suite(data, n)
    alpha = data.draw(st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100))
    x = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000))
    q = QuantizerState(
        b_q=data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000)),
        delta=data.draw(st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000)),
    )
    want = init_consensus(gradient_step([x] * n, s, alpha), q)
    assert grid_masses(cost_classes(s, alpha), x, q) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_start_masses_match_the_per_node_path(data):
    # Step 1: every node takes the integer floor from its own start, over
    # one denominator shared by b_q and every start.  The starts are drawn
    # distinct, fractional, and independent of b_q.
    ratios = st.builds(F, st.integers(min_value=-50_000, max_value=50_000), st.integers(min_value=1, max_value=1000))
    x_init = data.draw(st.lists(ratios, min_size=1, max_size=40, unique=True))
    s = draw_suite(data, len(x_init))
    alpha = data.draw(st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100))
    q = QuantizerState(
        b_q=data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000)),
        delta=data.draw(st.fractions(min_value=F(1, 1000), max_value=10, max_denominator=1000)),
    )
    want = init_consensus(gradient_step(x_init, s, alpha), q)
    assert start_masses(cost_classes(s, alpha), x_init, q) == want


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
            start_spread(x_init, x_star)
        assert str(got.value) == str(exc)
    else:
        assert start_spread(x_init, x_star) == want


def test_spread_names_the_first_node_at_the_optimum():
    with pytest.raises(ValueError, match="node 2 equals the optimum"):
        start_spread([F(1), F(3, 2), F(2), F(5, 2), F(2)], F(2))


def test_cost_classes_group_equal_costs():
    s = suite([(2, 1), (1, 4), (2, 1), (1, "-1/3"), (1, 4)])
    classes = cost_classes(s, F(1, 10))
    assert classes.node_class == (0, 1, 0, 2, 1)
    assert len(classes.coeffs) == 3
    # Keys are the reduced integers, so 4/2 and 2 are one class.
    again = cost_classes(CostSuite([QuadraticCost(F(4, 2), F(1)), QuadraticCost(F(2), F(2, 2))]), F(1, 10))
    assert again.node_class == (0, 0)


POLICIES = [
    AdaptiveZoom(),
    AdaptiveZoom(quantizer_width=5),
    RefineOnly(),
    RefineOnly(c_refine=F(5, 2)),
    FixedLevel(b_pm=7),
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
    starts = st.fractions(min_value=-5, max_value=5, max_denominator=16)
    x_init = draw(st.lists(starts, min_size=n, max_size=n))
    policy = draw(st.sampled_from(POLICIES))
    q = QuantizerState(
        b_q=draw(st.fractions(min_value=-2, max_value=2, max_denominator=8)),
        delta=draw(st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16)),
    )
    c_in = draw(st.sampled_from([F(4, 3), F(7, 5)]))
    c_out = draw(st.sampled_from([F(2), F(5, 2)]))
    if isinstance(policy, AdaptiveZoom):
        policy = replace(policy, c_in=c_in, c_out=c_out)
    alpha = draw(st.fractions(min_value=F(1, 50), max_value=F(1, 4), max_denominator=50))
    return g, s, x_init, q, alpha, policy, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("backend", ["kernel", "no_kernel"])
def test_runs_match_the_per_node_oracle(backend, request):
    # Every RunRecord (estimate, error, quantizer, event, rounds, bits), the
    # final quantizer and the RNG position equal the per-node path's, step 1
    # and the error's spread included, for all three policies, widths 3 and
    # 5 and a non-integer refine factor.
    request.getfixturevalue(backend)

    @settings(max_examples=40, deadline=None)
    @given(run_instances())
    def check(instance):
        g, s, x_init, q, alpha, policy, seed = instance
        if s.global_optimum in x_init:
            return  # run_until rejects a start at the optimum

        def run():
            state = initial_state(x_init, q)
            rng = PCG32(seed, STREAM_PROTOCOL)
            run_until(state, g, s, alpha, policy, {"max_steps": 15, "target_error": 1e-9}, rng)
            return state.history, state.q, rng.getstate()

        got = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "step", per_node_step)
            mp.setattr(optimizer, "start_spread", per_node_spread)
            assert run() == got

    check()


def test_masses_beyond_the_kernel_range_replay_on_the_pure_path(kernel, monkeypatch):
    # delta0 = 2**-60 puts the sum of |y| of every step's masses beyond
    # int64: each call declines without drawing, and the pure path must
    # replay it from the same masses, so the run equals a run without the
    # kernel.
    g = generate_random_digraph(5, F(1, 2), 4)
    s = suite([(1, 1), (2, 3), (1, 5), (3, 2), (2, 4)])
    q = QuantizerState(b_q=F(0), delta=F(1, 2**60))
    masses = []

    def recording(y, *args, **kwargs):
        masses.append(list(y))
        return run_consensus(y, *args, **kwargs)

    monkeypatch.setattr(optimizer, "run_consensus", recording)

    def run():
        state = initial_state([F(k) for k in (1, 2, 3, 4, 5)], q)
        rng = PCG32(4, STREAM_PROTOCOL)
        run_until(state, g, s, ALPHA, AdaptiveZoom(), {"max_steps": 4}, rng)
        return state.history, state.q, rng.getstate()

    compiled = run()
    assert len(masses) == 4
    for y in masses:
        assert sum(map(abs, y)) > 2**63 - 1
        assert kernel.run_rounds(y, g.out_adj, 2, 10, 0, 1) is None
    monkeypatch.setattr(engine, "_kernel", None)
    assert run() == compiled
