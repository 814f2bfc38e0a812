"""End-to-end run orchestration: config -> problem instance -> history ->
CSV reports, plus the sweep/compare/table entry points."""

import io
import math
from dataclasses import replace as dc_replace
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cost_suite,
    node_costs,
    per_draw_x_init,
    per_node_optimum,
    per_node_spread,
    per_node_step,
    start_values,
    starts_of,
)
from zoomgrad import optimizer
from zoomgrad.config import RunConfig
from zoomgrad.consensus.engine import ROUND_CAP, ConsensusCapError
from zoomgrad.metrics import (
    FIXED_LEVEL_WIDTHS,
    REFINE_WIDTH_SCHEDULE,
    TABLE_ROWS,
    TABLE_THRESHOLDS,
    step_widths,
)
from zoomgrad.objective import CostSuite, QuadraticCost
from zoomgrad.optimizer import AdaptiveZoom, FixedLevel, RefineOnly, RunRecord, Starts
from zoomgrad.quantizer import QuantizerState
from zoomgrad.runner import (
    AGGREGATE_COLUMNS,
    COMPARE_VARIANTS,
    HISTORY_COLUMNS,
    SUMMARY_COLUMNS,
    SWEEP_COLUMNS,
    build_costs,
    build_policy,
    cmd_compare,
    cmd_run,
    cmd_sweep,
    cmd_table1,
    compare,
    resolve_out_dir,
    run_single,
    sample_x_init,
    step_costs,
    steps_to_threshold,
    summarize,
    sweep,
    width_schedule,
    write_history_csv,
    write_rows_csv,
    write_table_csv,
)

import zoomgrad.runner as runner_mod


# --- instance construction --------------------------------------------------


def test_build_policy_adaptive_paper_faithful():
    p = build_policy(RunConfig(c_in=F(7, 5)))
    assert p == AdaptiveZoom(quantizer_width=3, c_in=F(7, 5), c_out=F(2))


def test_build_policy_adaptive_measured():
    # accounting prices the run's messages (width_schedule); it never
    # reaches the zoom rule
    c = RunConfig(policy={"variant": "adaptive_zoom", "quantizer_width": 5}, accounting={"mode": "measured"})
    assert build_policy(c) == build_policy(dc_replace(c, accounting={"mode": "paper_faithful", "b_pm": 3}))


def test_build_policy_refine_parses_ratio():
    c = RunConfig(policy={"variant": "refine_only", "c_refine": "7/2"})
    p = build_policy(c)
    assert isinstance(p, RefineOnly) and p.c_refine == F(7, 2)


def test_build_policy_fixed():
    # a fixed level has no zoom rule to configure, whatever its width
    assert build_policy(RunConfig(policy={"variant": "fixed_level", "b_pm": 9})) == FixedLevel()
    assert build_policy(RunConfig(policy={"variant": "fixed_level"}, delta0=F(1, 100))) == FixedLevel()


# --- message width schedules ------------------------------------------------


def widths(config, ks):
    widths = list(islice(step_widths(width_schedule(config)), max(ks) + 1))
    return [widths[k] for k in ks]


def test_adaptive_width():
    assert widths(RunConfig(), (0, 1, 1000)) == [3, 3, 3]
    measured = {"mode": "measured"}
    assert widths(RunConfig(policy={"variant": "adaptive_zoom", "quantizer_width": 4}, accounting=measured), (9,)) == [4]
    paper = {"mode": "paper_faithful", "b_pm": 3}
    assert widths(RunConfig(policy={"variant": "adaptive_zoom", "quantizer_width": 5}, accounting=paper), (5,)) == [3]


def test_refine_width_schedule():
    config = RunConfig(policy={"variant": "refine_only"})
    assert widths(config, range(12)) == [7, 7, 7, 10, 10, 10, 10, 10, 10, 14, 14, 14]
    assert widths(config, (1000,)) == [14]
    # accounting does not move the refine-only baseline's schedule
    assert width_schedule(dc_replace(config, accounting={"mode": "measured"})) == REFINE_WIDTH_SCHEDULE


def test_fixed_width_lookup():
    config = RunConfig(policy={"variant": "fixed_level", "b_pm": 6}, delta0=F(1, 7))
    assert widths(config, (0, 1, 1000)) == [6, 6, 6]
    # an explicit width wins over the level's standard one
    assert widths(dc_replace(config, delta0=F(1, 10)), (0,)) == [6]


def test_live_schedules_are_table_1_rows():
    # Table 1 and the live runs price messages in one representation: the
    # default run's schedule is the adaptive row's, and each fixed level's
    # is its row's.  The refine-only row keeps the table's own convention
    # (test_metrics.py::test_table_refine_schedule_switches_one_step_earlier).
    rows = {label: schedule for label, schedule, _ in TABLE_ROWS}
    assert width_schedule(RunConfig()) == rows["adaptive_zoom"]
    for level in FIXED_LEVEL_WIDTHS:
        config = RunConfig(policy={"variant": "fixed_level"}, delta0=level)
        assert width_schedule(config) == rows["fixed_%s" % float(level)]


def test_build_costs_explicit():
    c = RunConfig(
        n=3,
        cost_spec={"kind": "explicit", "costs": [["3", "1/2"], ["1", "4"], ["6/2", "0.5"]]},
    )
    suite = build_costs(c)
    assert [(q.beta, q.x0) for q in node_costs(suite)] == [(F(3), F(1, 2)), (F(1), F(4)), (F(3), F(1, 2))]
    # equal costs, however written, share one class
    assert [(q.beta, q.x0) for q in suite.classes] == [(F(3), F(1, 2)), (F(1), F(4))]
    assert suite.node_class == (0, 1, 0)


def test_build_costs_random_uses_config_seed():
    a = build_costs(RunConfig(seed=11))
    b = build_costs(RunConfig(seed=11))
    assert [(q.beta, q.x0) for q in node_costs(a)] == [(q.beta, q.x0) for q in node_costs(b)]
    other = build_costs(RunConfig(seed=12))
    assert [(q.beta, q.x0) for q in node_costs(a)] != [(q.beta, q.x0) for q in node_costs(other)]


def test_build_costs_spec_seed_overrides_run_seed():
    spec = {"kind": "random", "seed": 77, "value_set": [1, 2, 3, 4, 5]}
    a = build_costs(RunConfig(seed=1, cost_spec=dict(spec)))
    b = build_costs(RunConfig(seed=2, cost_spec=dict(spec)))
    assert [(q.beta, q.x0) for q in node_costs(a)] == [(q.beta, q.x0) for q in node_costs(b)]


def test_sample_x_init_grid_and_range():
    c = RunConfig(seed=4)
    xs = start_values(sample_x_init(c, F(-100)))  # optimum far outside the range: no nudges
    lo, hi = c.x_init_range
    assert len(xs) == c.n
    for x in xs:
        assert lo <= x <= hi
        assert (x - lo) % c.x_init_grid == 0
    assert sample_x_init(c, F(-100)) == sample_x_init(c, F(-100))
    assert xs != start_values(sample_x_init(dc_replace(c, seed=5), F(-100)))


def test_sample_x_init_nudges_off_optimum():
    c = RunConfig(n=3, x_init_range=(F(2), F(2)), x_init_grid=F(1, 100))
    assert sample_x_init(c, F(2)) == Starts(100, (199,), (0, 0, 0))  # top of range: nudged down
    # Every draw lands on x* = 2, nudged up to 3, or on 3 itself: the two
    # grid indices share the table's one entry.
    c = RunConfig(n=5, x_init_range=(F(2), F(3)), x_init_grid=F(1))
    assert sample_x_init(c, F(2)) == Starts(1, (3,), (0,) * 5)


@st.composite
def start_grids(draw):
    """(x_init_range, x_init_grid, x*) with x* on the grid, off it, or at an edge."""
    grid = draw(st.fractions(min_value=F(1, 60), max_value=2, max_denominator=60))
    lo = draw(st.fractions(min_value=-5, max_value=5, max_denominator=30))
    cells = draw(st.integers(min_value=0, max_value=6))
    hi = lo + cells * grid + draw(st.sampled_from([0, grid / 2]))
    x_star = draw(
        st.one_of(
            st.builds(lambda i: lo + i * grid, st.integers(min_value=0, max_value=cells)),
            st.fractions(min_value=math.floor(lo) - 1, max_value=math.ceil(hi) + 1, max_denominator=90),
        )
    )
    return (lo, hi), grid, x_star


@settings(max_examples=200, deadline=None)
@given(start_grids(), st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
def test_memoized_starts_match_the_per_draw_loop(grid_case, n, seed):
    # One draw per node either way, so the same stream gives the same
    # starts, nudges off x* (up, or down at the top of the range) included.
    x_range, grid, x_star = grid_case
    c = RunConfig(n=n, seed=seed, x_init_range=x_range, x_init_grid=grid)
    assert start_values(sample_x_init(c, x_star)) == per_draw_x_init(c, x_star)


@st.composite
def on_grid_optima(draw):
    """(x_init_range, x_init_grid, x*) over at most three cells, with x* on
    the grid: at the bottom, inside, at the top, or at ``lo == hi``."""
    grid = draw(st.fractions(min_value=F(1, 12), max_value=2, max_denominator=12))
    lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    cells = draw(st.integers(min_value=0, max_value=3))
    hi = lo + cells * grid + draw(st.sampled_from([0, grid / 3]))
    return (lo, hi), grid, lo + draw(st.integers(min_value=0, max_value=cells)) * grid


@settings(max_examples=200, deadline=None)
@given(on_grid_optima(), st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_the_start_table_holds_each_start_once(grid_case, n, seed):
    # On a few cells a draw on x* is nudged onto another drawn point, or
    # every draw lands on one value.  The table, expanded node by node, is
    # the per-draw starts; its entries are distinct values in first-draw
    # order, so it holds one entry exactly when every node starts at one
    # value.
    x_range, grid, x_star = grid_case
    c = RunConfig(n=n, seed=seed, x_init_range=x_range, x_init_grid=grid)
    table = sample_x_init(c, x_star)
    want = per_draw_x_init(c, x_star)
    assert start_values(table) == want
    assert len(set(table.nums)) == len(table.nums)
    assert list(dict.fromkeys(table.node_start)) == list(range(len(table.nums)))
    assert (len(table.nums) == 1) == (len(set(want)) == 1)


@st.composite
def fractional_configs(draw):
    """Small run configs: explicit fractional costs, b_q0 != 0, a fractional
    start grid around x*, so draws often land on it and are nudged."""
    n = draw(st.integers(min_value=2, max_value=8))
    costs = draw(
        st.lists(
            st.tuples(
                st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6),
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
            ),
            min_size=n,
            max_size=n,
        )
    )
    x_star = per_node_optimum(cost_suite([QuadraticCost(b, x) for b, x in costs]))
    grid = draw(st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12))
    below, above = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    offset = draw(st.sampled_from([0, 0, grid / 3]))  # x* on the grid, mostly
    return RunConfig(
        n=n,
        edge_prob=draw(st.sampled_from([F(1, 3), F(1, 2), F(1)])),
        seed=draw(st.integers(0, 10_000)),
        alpha=draw(st.fractions(min_value=F(1, 50), max_value=F(1, 4), max_denominator=50)),
        delta0=draw(st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16)),
        b_q0=draw(st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(bool)),
        policy=draw(st.sampled_from([{"variant": "adaptive_zoom"}, {"variant": "refine_only", "c_refine": "5/2"}])),
        x_init_range=(x_star - below * grid + offset, x_star + above * grid + offset),
        x_init_grid=grid,
        cost_spec={"kind": "explicit", "costs": [[str(b), str(x)] for b, x in costs]},
        stop={"max_steps": 8, "target_error": 1e-9},
    )


@settings(max_examples=40, deadline=None)
@given(fractional_configs())
def test_run_single_matches_the_per_node_oracles(config):
    # The whole run, with step 1's masses, the spread, the optimum and the
    # start draws each on its per-node Fraction path, equals the run on the
    # integer and distinct-value paths: history, starts, optimum, spread,
    # final quantizer and protocol RNG state.
    def run(mp):
        starts, rng_states = [], []
        draw = runner_mod.sample_x_init

        def drawing(config, x_star):
            table = draw(config, x_star)
            starts.append(start_values(table))
            return table

        def recording(state, policy, stop, rng):
            optimizer.run_until(state, policy, stop, rng)
            rng_states.append(rng.getstate())

        mp.setattr(runner_mod, "sample_x_init", drawing)
        mp.setattr(runner_mod, "run_until", recording)
        state = run_single(config)
        return state.history, starts, state.instance.x_star, state.instance.spread, state.q, rng_states

    with pytest.MonkeyPatch.context() as mp:
        got = run(mp)
    with pytest.MonkeyPatch.context() as mp:
        s = build_costs(config)

        def oracle_step(state, policy, rng):
            return per_node_step(state, got[1][0], s, config.alpha, policy, rng)

        mp.setattr(optimizer, "step", oracle_step)
        mp.setattr(optimizer, "start_spread", lambda starts, x_star: per_node_spread(start_values(starts), x_star))
        mp.setattr(CostSuite, "global_optimum", property(per_node_optimum))
        mp.setattr(runner_mod, "sample_x_init", lambda c, x_star: starts_of(per_draw_x_init(c, x_star)))
        assert run(mp) == got


# --- single run and summary -------------------------------------------------


@pytest.fixture(scope="module")
def default_run():
    config = RunConfig(seed=1)
    return config, run_single(config)


def test_zoom_factors_reach_the_zoom_rule():
    # c_in and c_out travel from the config through build_policy to the
    # adaptive zoom rule: every logged zoom re-centers the grid on the
    # estimate and rescales the next row's step by exactly its factor.
    c_in, c_out = F(7, 5), F(5, 2)
    config = RunConfig(seed=2, n=6, c_in=c_in, c_out=c_out, stop={"max_steps": 40})
    history = run_single(config).history
    events = [r.zoom_event for r in history]
    assert "zoom_in" in events and "zoom_out" in events
    factor = {"zoom_in": 1 / c_in, "zoom_out": c_out, "none": 1}
    for row, nxt in zip(history, history[1:]):
        assert nxt.q.delta == row.q.delta * factor[row.zoom_event]
        assert nxt.q.b_q == (row.q.b_q if row.zoom_event == "none" else row.x_value)
    # the baselines never read the zoom factors
    for policy in ({"variant": "refine_only"}, {"variant": "fixed_level"}):
        base = RunConfig(seed=2, n=6, policy=policy, delta0=F(1, 10), stop={"max_steps": 40})
        other = dc_replace(base, c_in=c_in, c_out=c_out)
        assert run_single(base).history == run_single(other).history


def test_run_single_structure(default_run):
    config, state = default_run
    history = state.history
    # step k's record is history[k - 1]: history.csv numbers its rows so
    rows = rendered(write_history_csv, history, config.n, width_schedule(config)).splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(k) for k in range(1, len(history) + 1)]
    x_star = state.instance.x_star
    assert x_star == build_costs(config).global_optimum
    assert state.instance.spread == per_node_spread(start_values(sample_x_init(config, x_star)), x_star)
    assert history[-1].error <= 1e-5
    assert len(history) <= 200


def test_run_single_seed1_event_shape(default_run):
    _, state = default_run
    events = [r.zoom_event for r in state.history]
    flagged = [e for e in events if e != "none"]
    assert flagged[0] == "zoom_out"  # the window must first grow to reach x*
    first_out = events.index("zoom_out")
    assert "zoom_in" in events[first_out + 1 :]
    assert events.count("zoom_in") > events.count("zoom_out")


def test_run_single_trajectory_independent_of_topology(default_run):
    _, dense = default_run
    sparse = run_single(RunConfig(seed=1, edge_prob=F(1, 5)))
    key = lambda h: [(r.x_value, r.q, r.zoom_event) for r in h]
    assert key(sparse.history) == key(dense.history)
    # only the communication counts may differ between topologies
    assert [r.error for r in sparse.history] == [r.error for r in dense.history]


def test_summarize_columns_and_consistency(default_run):
    config, state = default_run
    row = summarize(config, state)
    assert set(row) == set(SUMMARY_COLUMNS)
    history = state.history
    assert row["steps"] == len(history)
    assert row["converged"] == 1
    assert row["policy"] == "adaptive_zoom"
    for event in ("zoom_in", "zoom_out", "refine"):
        assert row["%s_events" % event] == sum(r.zoom_event == event for r in history)
    costs = [step_costs(r, config.n, w) for r, w in zip(history, step_widths(width_schedule(config)))]
    assert row["total_mass_transmissions"] == sum(tx for tx, _, _ in costs)
    assert row["total_flood_broadcasts"] == config.n * sum(r.consensus_rounds for r in history)
    assert row["total_bits_paper_mode"] == 3 * row["total_mass_transmissions"] == sum(bits for _, bits, _ in costs)
    assert row["total_bits_measured_mode"] == sum(bits for _, _, bits in costs)
    assert row["mean_mass_tx_per_consensus"] == repr(
        float(F(row["total_mass_transmissions"], row["steps"]))
    )
    assert row["final_error"] == repr(history[-1].error)
    assert row["accounting_mode"] == "paper_faithful"
    assert row["backend"] in ("compiled", "pure")


def test_summarize_sums_the_step_costs_over_the_width_schedule():
    # summarize sums the steps' charges without a step_costs call per step:
    # the refine-only schedule prices its three slices of the steps at 7, 10
    # and 14 bits, and each step's measured width indexes its alphabet.
    config = RunConfig(
        seed=1, delta0=F(1, 10), policy={"variant": "refine_only", "c_refine": "10"}, stop={"max_steps": 12}
    )
    state = run_single(config)
    history = state.history
    assert len(history) == 12
    costs = [step_costs(r, config.n, w) for r, w in zip(history, step_widths(width_schedule(config)))]
    assert {bits // tx for tx, bits, _ in costs} == {7, 10, 14}
    row = summarize(config, state)
    for column, total in zip(
        ("total_mass_transmissions", "total_bits_paper_mode", "total_bits_measured_mode"), zip(*costs)
    ):
        assert row[column] == sum(total), column


def test_accounting_mode_prices_only_the_adaptive_paper_column():
    # Both bit columns are always reported; the mode decides only what the
    # adaptive policy's paper-mode column charges per message: accounting.b_pm
    # under paper_faithful, the quantizer width under measured.  The runs
    # themselves are equal.
    def run(width, accounting):
        config = RunConfig(
            seed=3,
            policy={"variant": "adaptive_zoom", "quantizer_width": width},
            stop={"max_steps": 3},
            accounting=accounting,
        )
        state = run_single(config)
        lines = rendered(write_history_csv, state.history, config.n, width_schedule(config)).splitlines()
        column = lines[0].split(",").index("bits_paper_mode")
        bits = [int(line.split(",")[column]) for line in lines[1:]]
        return state.history, bits, summarize(config, state)

    paper, paper_bits, paper_row = run(5, {"mode": "paper_faithful", "b_pm": 3})
    measured, measured_bits, measured_row = run(5, {"mode": "measured"})
    assert paper == measured
    tx = [20 * r.consensus_rounds for r in paper]  # every round sends n = 20 pieces
    assert (tx[0], paper_bits[0], measured_bits[0]) == (240, 720, 1200)
    assert paper_bits == [3 * t for t in tx]
    assert measured_bits == [5 * t for t in tx]
    assert paper_row["total_bits_paper_mode"] == sum(paper_bits)
    assert measured_row["total_bits_paper_mode"] == sum(measured_bits)
    # At the defaults (3-bit quantizer, 3-bit b_pm) the summaries differ
    # only in the accounting_mode cell.
    _, _, paper_row = run(3, {"mode": "paper_faithful", "b_pm": 3})
    _, _, measured_row = run(3, {"mode": "measured"})
    differ = sorted(c for c in SUMMARY_COLUMNS if paper_row[c] != measured_row[c])
    assert differ == ["accounting_mode"]


def test_summarize_not_converged():
    config = RunConfig(seed=1, stop={"max_steps": 3, "target_error": 1e-5})
    row = summarize(config, run_single(config))
    assert row["steps"] == 3 and row["converged"] == 0


def test_steps_to_threshold():
    def r(e):
        return RunRecord(0, e, QuantizerState.of(F(0), F(1)), "none", 1, 3)

    history = [r(2.0), r(0.5), r(0.009), r(0.0001)]
    assert steps_to_threshold(history, 1e-2) == 3
    assert steps_to_threshold(history, 0.5) == 2
    assert steps_to_threshold(history, 1e-6) is None
    assert steps_to_threshold([], 1.0) is None


# --- CSV output -------------------------------------------------------------


def rendered(write, *args):
    f = io.StringIO()
    write(f, *args)
    return f.getvalue()


def test_history_csv_shape_and_determinism(default_run):
    config, state = default_run
    text = rendered(write_history_csv, state.history, config.n, width_schedule(config))
    assert text == rendered(write_history_csv, state.history, config.n, width_schedule(config))
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 1 + len(state.history)
    first = lines[1].split(",")
    assert first[0] == "1"
    # exact-rational and float renderings of the same value agree
    assert float(F(first[1])) == float(first[2])


def test_write_rows_csv_missing_keys_blank():
    assert rendered(write_rows_csv, ["a", "b"], [{"a": 1}, {"b": "x", "a": 2}]) == "a,b\n1,\n2,x\n"
    assert rendered(write_table_csv, ["a", "b"], [[1, ""], (2, "x")]) == "a,b\n1,\n2,x\n"


def test_resolve_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("ZOOMGRAD_OUT_DIR", raising=False)
    explicit = tmp_path / "explicit"
    assert resolve_out_dir(str(explicit)) == str(explicit)
    assert explicit.is_dir()  # created on demand

    monkeypatch.setenv("ZOOMGRAD_OUT_DIR", str(tmp_path / "env"))
    assert resolve_out_dir("") == str(tmp_path / "env")

    monkeypatch.delenv("ZOOMGRAD_OUT_DIR")
    monkeypatch.chdir(tmp_path)
    assert resolve_out_dir(None) == "out"
    assert (tmp_path / "out").is_dir()


def test_cmd_run_writes_reports(tmp_path, capsys):
    config = RunConfig(seed=1, out_dir=str(tmp_path))
    assert cmd_run(config) == 0
    out = capsys.readouterr().out
    assert "history.csv" in out and "summary.csv" in out
    history = (tmp_path / "history.csv").read_bytes()
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.splitlines()[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary.splitlines()) == 2

    again = tmp_path / "again"
    assert cmd_run(dc_replace(config, out_dir=str(again))) == 0
    assert (again / "history.csv").read_bytes() == history
    assert (again / "summary.csv").read_text() == summary


def test_cmd_run_max_steps_zero(tmp_path):
    config = RunConfig(seed=1, out_dir=str(tmp_path), stop={"max_steps": 0})
    assert cmd_run(config) == 0
    assert (tmp_path / "history.csv").read_text() == ",".join(HISTORY_COLUMNS) + "\n"
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    row = dict(zip(SUMMARY_COLUMNS, summary[1].split(",")))
    assert row["steps"] == "0" and row["converged"] == "0"
    assert row["final_error"] == "nan"


def test_cmd_run_invalid_config(tmp_path, capsys):
    config = RunConfig(n=1, out_dir=str(tmp_path))
    assert cmd_run(config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config")
    assert not (tmp_path / "history.csv").exists()


# --- sweeps -----------------------------------------------------------------


@pytest.mark.parametrize(
    "seeds,medians",
    [
        ([3, 4, 5], ["49.0", "63.0", "91.0"]),
        ([3, 4, 5, 6], ["50.5", "65.0", "93.5"]),
    ],
    ids=["odd", "even"],
)
def test_sweep_aggregate_median(seeds, medians):
    # An odd count's median is its middle value; an even count's is the mean
    # of the middle two.  Both are written as repr(float).
    per_seed, aggregate = sweep(RunConfig(), seeds)
    for label, median in zip(TABLE_THRESHOLDS, medians):
        ks = sorted(row["steps_to_%s" % label] for row in per_seed)
        assert aggregate["reached_%s" % label] == len(ks) == len(seeds)
        mid = len(ks) // 2
        expected = float(ks[mid]) if len(ks) % 2 else (ks[mid - 1] + ks[mid]) / 2
        assert aggregate["median_steps_to_%s" % label] == repr(expected) == median


def test_sweep_rows_and_aggregate():
    per_seed, aggregate = sweep(RunConfig(), [3, 4, 5])
    assert [row["seed"] for row in per_seed] == [3, 4, 5]
    assert all(row["status"] == "ok" for row in per_seed)
    assert aggregate["runs"] == 3 and aggregate["failures"] == 0
    assert aggregate["reached_1e-5"] == 3
    ks = sorted(row["steps_to_1e-5"] for row in per_seed)
    assert aggregate["median_steps_to_1e-5"] == repr(float(ks[1]))
    for row in per_seed:
        assert row["steps_to_1e-2"] <= row["steps_to_1e-3"] <= row["steps_to_1e-5"]
        assert row["converged"] == 1
    assert set(per_seed[0]) == set(SWEEP_COLUMNS)
    assert set(aggregate) == set(AGGREGATE_COLUMNS)


def test_sweep_records_failures_and_continues(monkeypatch):
    # Seed 4's seventh consensus hits the round cap: its row records the
    # step and the cap, and the sweep goes on to seed 5.
    real, real_consensus = run_single, optimizer.run_consensus

    def flaky(config):
        if config.seed != 4:
            return real(config)
        calls = []

        def capped_seventh_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == 7:
                raise ConsensusCapError(ROUND_CAP)
            return real_consensus(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(optimizer, "run_consensus", capped_seventh_call)
            return real(config)

    monkeypatch.setattr(runner_mod, "run_single", flaky)
    per_seed, aggregate = sweep(RunConfig(), [3, 4, 5])
    assert aggregate["runs"] == 3 and aggregate["failures"] == 1
    bad = per_seed[1]
    assert bad["seed"] == 4
    assert bad["status"] == "step 7: consensus did not terminate within %d rounds" % ROUND_CAP
    assert per_seed[0]["status"] == per_seed[2]["status"] == "ok"
    assert aggregate["reached_1e-5"] == 2


def test_cmd_sweep(tmp_path, capsys):
    config = RunConfig(out_dir=str(tmp_path))
    assert cmd_sweep(config, [1]) == 0
    capsys.readouterr()
    seeds_csv = (tmp_path / "sweep_seeds.csv").read_text().splitlines()
    assert seeds_csv[0] == ",".join(SWEEP_COLUMNS)
    assert len(seeds_csv) == 2
    agg_csv = (tmp_path / "sweep_aggregate.csv").read_text().splitlines()
    assert agg_csv[0] == ",".join(AGGREGATE_COLUMNS)
    row = dict(zip(AGGREGATE_COLUMNS, agg_csv[1].split(",")))
    assert row["runs"] == "1" and row["failures"] == "0"


def test_cmd_sweep_rejects_empty_seed_list(tmp_path, capsys):
    assert cmd_sweep(RunConfig(out_dir=str(tmp_path)), []) == 1
    assert "seed list" in capsys.readouterr().err


# --- policy comparison ------------------------------------------------------


@pytest.fixture(scope="module")
def compared():
    return compare(RunConfig(seed=1))


def record_builders(monkeypatch):
    """Record each value that the instance's builders return, per builder
    name, in the order of their first calls: the graph, the costs, the
    starts, the cost-class table and the error's spread."""
    built = {}

    def recorder(name, module):
        real = getattr(module, name)

        def recorded(*args):
            built.setdefault(name, []).append(real(*args))
            return built[name][-1]

        return recorded

    for name in ("generate_random_digraph", "build_costs", "sample_x_init"):
        monkeypatch.setattr(runner_mod, name, recorder(name, runner_mod))
    for name in ("cost_classes", "start_spread"):
        monkeypatch.setattr(optimizer, name, recorder(name, optimizer))
    return built


def test_compare_shares_the_instance(monkeypatch):
    # compare builds one Instance: the graph, costs and starts once,
    # recorded as their builders return them, and the cost-class table and
    # the error's spread once too.  Every variant runs on that one object,
    # and so on the very objects that each builder returned.
    built = record_builders(monkeypatch)
    ran_on = []

    def run_until(state, *args):
        ran_on.append(state.instance)
        return real_run_until(state, *args)

    real_run_until = runner_mod.run_until
    monkeypatch.setattr(runner_mod, "run_until", run_until)
    runs = compare(RunConfig(seed=1, stop={"max_steps": 2}))
    (shared,), (suite,), (starts,), (classes,), (spread,) = built.values()
    assert len(ran_on) == len(runs) == len(COMPARE_VARIANTS)
    assert all(state.instance is ran_on[0] for _, state in runs.values())
    assert all(instance.graph is shared for instance in ran_on)
    assert all(state.instance.classes is classes and state.instance.spread is spread for _, state in runs.values())
    assert {state.instance.x_star for _, state in runs.values()} == {suite.global_optimum}
    assert all(state.instance.classes.node_class == suite.node_class for _, state in runs.values())
    # The shared instance is the one each variant would build on its own.
    for c, _ in runs.values():
        own = runner_mod.build_instance(c)
        s = built["build_costs"][-1]
        assert own.graph.out_adj == shared.out_adj
        assert (s.classes, s.node_class) == (suite.classes, suite.node_class)
        assert own.starts == starts


def test_sweep_builds_one_instance_a_seed(monkeypatch):
    built = record_builders(monkeypatch)
    sweep(RunConfig(stop={"max_steps": 2}), [0, 1, 2])
    assert {name: len(values) for name, values in built.items()} == {
        "generate_random_digraph": 3,
        "build_costs": 3,
        "sample_x_init": 3,
        "cost_classes": 3,
        "start_spread": 3,
    }


def test_compare_floor_ordering(compared):
    final = {label: state.history[-1].error for label, (_, state) in compared.items()}
    # coarser fixed grids stall at higher error floors
    assert final["fixed_0.1"] > final["fixed_0.01"] > final["fixed_0.001"]
    assert final["fixed_0.001"] > 1e-3  # none of the fixed floors reach the target
    assert final["adaptive_zoom"] <= 1e-5
    assert final["refine_only"] <= 1e-5
    for label in ("fixed_0.1", "fixed_0.01", "fixed_0.001"):
        assert len(compared[label][1].history) == 200  # ran out the clock


def test_compare_variant_spellings(compared):
    assert [label for label, _, _ in COMPARE_VARIANTS] == [
        "adaptive_zoom",
        "refine_only",
        "fixed_0.1",
        "fixed_0.01",
        "fixed_0.001",
    ]
    assert compared["fixed_0.01"][0].delta0 == F(1, 100)
    assert compared["refine_only"][0].delta0 == F(1, 10)
    assert compared["adaptive_zoom"][0].delta0 == RunConfig().delta0


def test_cmd_compare_csv(tmp_path):
    config = RunConfig(seed=1, out_dir=str(tmp_path))
    assert cmd_compare(config) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    labels = [label for label, _, _ in COMPARE_VARIANTS]
    assert lines[0] == ",".join(["k"] + ["error_%s" % l for l in labels])
    k0 = lines[1].split(",")
    assert k0[0] == "0"
    assert k0[1:] == [repr(math.sqrt(20))] * 5  # all variants start at sqrt(n)
    assert lines[-1].split(",")[0] == "200"  # deepest run is the 200-step clock
    assert len(lines) == 202  # header + k=0 row + one row per step
    summary = (tmp_path / "compare_summary.csv").read_text().splitlines()
    assert len(summary) == 6
    assert [r.split(",")[2] for r in summary[1:]] == [
        "adaptive_zoom",
        "refine_only",
        "fixed_level",
        "fixed_level",
        "fixed_level",
    ]


# --- reference table command ------------------------------------------------


def test_cmd_table1_cells(tmp_path):
    assert cmd_table1(str(tmp_path)) == 0
    bits = (tmp_path / "table_bits.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in bits[1:]}
    assert rows["adaptive_zoom"][1:] == [
        "18", "11441.52", "27", "17162.28", "40", "25425.60",
    ]
    assert rows["refine_only"][1:] == [
        "3", "4449.48", "8", "15043.48", "16", "38774.04",
    ]
    assert rows["fixed_0.1"][1:] == ["3", "4449.48", "-", "-", "-", "-"]
    assert rows["fixed_0.01"][1:] == [
        "3", "6356.40", "5", "10594.00", "-", "-",
    ]
    assert rows["fixed_0.001"][1:] == [
        "3", "8898.96", "5", "14831.60", "11", "32629.52",
    ]
    avg = (tmp_path / "table_avg_bits.csv").read_text().splitlines()
    arows = {line.split(",")[0]: line.split(",") for line in avg[1:]}
    assert arows["adaptive_zoom"][1:] == ["31.782"] * 3
    assert arows["refine_only"][1:] == ["74.158", "94.02175", "121.168875"]
    assert arows["fixed_0.001"][1:] == ["148.316"] * 3


def test_cmd_table1_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cmd_table1(str(a)) == 0 and cmd_table1(str(b)) == 0
    for name in ("table_bits.csv", "table_avg_bits.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert b"\r" not in (a / name).read_bytes()
