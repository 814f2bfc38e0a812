"""Acceptance gate: ten end-to-end checks, one per shipped guarantee.

Each test prints one ``ACCEPTANCE n: PASS/FAIL - detail`` line (replayed in
the terminal summary by conftest) and then asserts, so a red criterion is
both visible and failing.  Known-red criteria document their measured values
in the printed detail.  Step counts are compared with Table 1 in the table's
own error metric (``table_error``); one further test pins that metric to the
table's fixed-level cells.
"""

import math
import time
from fractions import Fraction as F

import pytest

from conftest import (
    ADAPTIVE,
    clamped_quantize,
    envelope_from_history,
    flood_consensus,
    level_index,
    start_values,
    total_curvature,
    zoom_out_bound,
)
from zoomgrad.config import RunConfig
from zoomgrad.consensus.engine import init_consensus
from zoomgrad.graph import generate_random_digraph
from zoomgrad.metrics import TABLE_N_TT, TABLE_ROWS, TABLE_THRESHOLDS
from zoomgrad.quantizer import QuantizerState
from zoomgrad.rng import PCG32, STREAM_PROTOCOL
from zoomgrad.runner import (
    build_costs,
    cmd_compare,
    cmd_run,
    cmd_sweep,
    cmd_table1,
    run_single,
    sample_x_init,
    steps_to_threshold,
)

SWEEP_SEEDS = range(100)
FIXED_SEEDS = range(1, 8)
FIXED_LEVELS = (F(1, 10), F(1, 100), F(1, 1000))


def table_error(x_value, x_init, x_star):
    """Table 1's error e_T = sum_j (x_j - x*)^2 / sum_j (x_j^0 - x*)^2, exact.

    After a consensus every node holds ``x_value``, so the numerator is
    n * (x_value - x*)^2.  This is the metric Table 1's thresholds are
    stated in, not the logged per-node metric
    sqrt(sum_j ((x_j - x*)/(x_j^0 - x*))^2).  Median steps on unmodified
    histories (adaptive: seeds 0-99; baselines: seeds 0-39) against the
    table's 1e-2/1e-3/1e-5 cells:

        row                    table      logged metric   e_T
        adaptive               18/27/40   49/62.5/91      16/22/37
        refine_only (1/10)     3/8/16     20/27/41        3/6/14
        fixed 0.01             3/5/-      never           3/5.5/never
        fixed 0.001            3/5/11     never           3/5/11

    The aggregate root, the per-node square and the per-node RMS reproduce
    none of the baseline rows.  One cell does not reproduce: e_T reaches
    1e-2 for fixed 0.1 on only about half the seeds, where the table has 3.

    By Cauchy-Schwarz e_T <= (logged error)^2 / n, so a run that stops at a
    logged error of 1e-5 has crossed every e_T threshold before it stopped.
    """
    spread = sum((x0 - x_star) ** 2 for x0 in x_init)
    return len(x_init) * (x_value - x_star) ** 2 / spread


def table_steps(config, state, threshold):
    """First step of the run of ``config`` whose e_T is at or below
    ``threshold`` (None if never); its starts are drawn again."""
    x_init, x_star = start_values(sample_x_init(config, state.x_star)), state.x_star
    return next(
        (
            r.k
            for r in state.history
            if table_error(r.x_value, x_init, x_star) <= threshold
        ),
        None,
    )


def median_steps(ks):
    """Median step count; a run that never reaches the threshold counts as
    infinitely many steps."""
    ks = sorted(math.inf if k is None else k for k in ks)
    mid = len(ks) // 2
    return float(ks[mid]) if len(ks) % 2 else (ks[mid - 1] + ks[mid]) / 2


@pytest.fixture(scope="module")
def reference_default_sweep():
    """100 runs at the reference defaults (n=20, alpha=3/25, delta0=1/2,
    c_in=4/3, c_out=2, random curvatures/targets in {1..5}); shared by the
    convergence, envelope, and transmission-statistics criteria."""
    runs = []
    t0 = time.perf_counter()
    for seed in SWEEP_SEEDS:
        config = RunConfig(seed=seed)
        runs.append((config, run_single(config)))
    return time.perf_counter() - t0, runs


@pytest.fixture(scope="module")
def fixed_level_runs():
    """21 fixed-level baseline runs (seeds 1-7 x delta in {1/10, 1/100,
    1/1000}, at most 200 steps), (config, final state) keyed by (seed,
    delta); shared by the stall criterion and the Table 1 metric
    identification."""
    runs = {}
    for seed in FIXED_SEEDS:
        for level in FIXED_LEVELS:
            config = RunConfig(
                seed=seed,
                policy={"variant": "fixed_level"},
                delta0=level,
                stop={"max_steps": 200, "target_error": 1e-5},
            )
            runs[seed, level] = config, run_single(config)
    return runs


@pytest.fixture(scope="module")
def consensus_batch():
    """500 seeded consensus runs on random strongly connected digraphs,
    instrumented with a per-round mass-conservation check.  The inputs go
    through the 3-bit quantizer, clamped to its range, before the masses are
    formed."""
    q = QuantizerState.of(b_q=F(0), delta=F(1, 2))
    batch = {
        "runs": 0,
        "agreement_failures": 0,
        "worst_error_over_delta": F(0),
        "conservation_violations": 0,
        "nonterminating": 0,
    }
    t0 = time.perf_counter()
    for n in (3, 5, 10, 20):
        for seed in range(125):
            rng = PCG32(seed, STREAM_PROTOCOL)
            g = generate_random_digraph(n, F(1, 2), seed)
            x = [F(rng.randbelow(65) - 32, 4) for _ in range(n)]
            x_q = [clamped_quantize(q, xi, 3) for xi in x]
            expected_y = sum(4 * xq for xq in x_q)
            assert expected_y == int(expected_y)

            final_m = []

            def hook(lam, record, expected_y=expected_y, n=n, final_m=final_m):
                if sum(record["y"]) != expected_y or sum(record["z"]) != 2 * n:
                    batch["conservation_violations"] += 1
                final_m[:] = record["m"]

            try:
                result, stats = flood_consensus(init_consensus(x_q, q), q, g, rng, hook)
            except Exception:
                batch["nonterminating"] += 1
                continue
            batch["runs"] += 1
            # every node's flooded minimum, hence its output, is the returned value
            if set(final_m) != {(result - q.b_q) / q.delta}:
                batch["agreement_failures"] += 1
            target = sum(x_q) / n
            err = abs(result - target)
            if err > batch["worst_error_over_delta"] * q.delta:
                batch["worst_error_over_delta"] = err / q.delta
    batch["elapsed"] = time.perf_counter() - t0
    return batch


def test_criterion_01_quantizer_branch_table(acceptance):
    t0 = time.perf_counter()
    q = QuantizerState.of(b_q=F(0), delta=F(1, 2))
    # (input, quantized midpoint, level code) for every cell of the 8-cell
    # window, each left-closed cell boundary, and both saturation regions
    table = [
        (F(-100), F(-7, 4), 0),
        (F(-2), F(-7, 4), 0),  # lower window edge, left-closed
        (F(-7, 4), F(-7, 4), 0),
        (F(-3, 2), F(-5, 4), 1),  # left-closed boundary of the next cell up
        (F(-29, 20), F(-5, 4), 1),
        (F(-1), F(-3, 4), 2),
        (F(-3, 4), F(-3, 4), 2),
        (F(-1, 2), F(-1, 4), 3),
        (F(-1, 5), F(-1, 4), 3),
        (F(0), F(1, 4), 4),
        (F(1, 5), F(1, 4), 4),
        (F(1, 2), F(3, 4), 5),
        (F(7, 10), F(3, 4), 5),
        (F(1), F(5, 4), 6),
        (F(5, 4), F(5, 4), 6),
        (F(3, 2), F(7, 4), 7),  # top cell is closed upward by saturation
        (F(9, 5), F(7, 4), 7),
        (F(100), F(7, 4), 7),
    ]
    ok = True
    for xi, mid, code in table:
        ok = ok and clamped_quantize(q, xi, 3) == mid and level_index(q, xi, 3) == code
    # re-parameterization arithmetic used by the adaptive policy (c_out=2, c_in=4/3)
    ok = ok and ADAPTIVE.on_repeat(q, 4)[0].delta == F(1)
    ok = ok and ADAPTIVE.on_repeat(q, 1)[0].delta == F(3, 8)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    acceptance(1, ok, "18 branch/boundary/saturation rows exact, %.3fs" % elapsed)
    assert ok


def test_criterion_02_consensus_against_direct_average(acceptance, consensus_batch):
    b = consensus_batch
    ok = (
        b["runs"] == 500
        and b["nonterminating"] == 0
        and b["agreement_failures"] == 0
        and b["worst_error_over_delta"] <= 1
        and b["elapsed"] < 30
    )
    acceptance(
        2,
        ok,
        "%d runs, %d agreement failures, worst |result-mean|/delta = %s, %.1fs"
        % (b["runs"], b["agreement_failures"], b["worst_error_over_delta"], b["elapsed"]),
    )
    assert ok


def test_criterion_03_mass_conservation_every_round(acceptance, consensus_batch):
    b = consensus_batch
    ok = b["conservation_violations"] == 0 and b["runs"] == 500
    acceptance(
        3, ok, "%d violations across %d instrumented runs" % (b["conservation_violations"], b["runs"])
    )
    assert ok


def test_criterion_04_convergence_medians(acceptance, reference_default_sweep):
    elapsed, runs = reference_default_sweep
    bands = dict(zip(TABLE_THRESHOLDS, ((9, 36), (14, 54), (20, 80))))
    medians = {}
    logged_medians = {}
    all_reach = True
    for label in bands:
        logged_ks = [steps_to_threshold(state.history, float(label)) for _, state in runs]
        all_reach = all_reach and None not in logged_ks
        logged_medians[label] = median_steps(logged_ks)
        medians[label] = median_steps(table_steps(c, state, F(label)) for c, state in runs)
    in_band = all(
        lo <= medians[label] <= hi for label, (lo, hi) in bands.items()
    )
    within_200 = all(len(state.history) <= 200 for _, state in runs)
    ok = in_band and all_reach and within_200 and elapsed < 120
    acceptance(
        4,
        ok,
        "Table 1 metric e_T medians 1e-2/1e-3/1e-5 = %.1f/%.1f/%.1f vs bands "
        "[9,36]/[14,54]/[20,80] (logged per-node metric: %.1f/%.1f/%.1f); "
        "all 100 runs reached logged 1e-5 within 200 steps: %s; sweep %.1fs"
        % (
            medians["1e-2"],
            medians["1e-3"],
            medians["1e-5"],
            logged_medians["1e-2"],
            logged_medians["1e-3"],
            logged_medians["1e-5"],
            all_reach and within_200,
            elapsed,
        ),
    )
    assert ok, (
        "step-count medians in Table 1's metric e_T fall outside the "
        "reference bands, or a run missed the logged 1e-5 within 200 steps, "
        "or the sweep took 120 s or more"
    )


def test_criterion_05_fixed_level_floors_vs_adaptive(
    acceptance, reference_default_sweep, fixed_level_runs
):
    _, runs = reference_default_sweep
    adaptive_by_seed = {c.seed: r for c, r in runs}
    stalled = 0
    floor_respected = True
    adaptive_passes = True
    for seed in FIXED_SEEDS:
        for level in FIXED_LEVELS:
            history = fixed_level_runs[seed, level][1].history
            first_repeat = next(
                (
                    i
                    for i in range(1, len(history))
                    if history[i].x_value == history[i - 1].x_value
                ),
                None,
            )
            if first_repeat is None:
                continue
            stalled += 1
            e_stall = history[first_repeat].error
            later = min(r.error for r in history[first_repeat:])
            if later < e_stall / 2:
                floor_respected = False
        adaptive_history = adaptive_by_seed[seed].history
        if adaptive_history[-1].error > 1e-5:
            adaptive_passes = False
    ok = stalled == 21 and floor_respected and adaptive_passes
    acceptance(
        5,
        ok,
        "%d/21 fixed-level runs stalled with no 2x post-stall improvement; "
        "adaptive run passed 1e-5 on every shared seed" % stalled,
    )
    assert ok


def test_table1_metric_matches_fixed_level_cells(fixed_level_runs):
    """e_T reproduces Table 1's fixed 0.01 and fixed 0.001 rows: every
    median lies within [0.5x, 2x] of its cell, and a cell the table leaves
    empty is never reached.  Fixed 0.1 is left out: e_T does not reproduce
    its 1e-2 cell (see ``table_error``)."""
    for label, _, table_ks in TABLE_ROWS:
        if label not in ("fixed_0.01", "fixed_0.001"):
            continue
        level = F(label.split("_")[1])
        for threshold, table_k in zip(TABLE_THRESHOLDS, table_ks):
            ks = [table_steps(*fixed_level_runs[s, level], F(threshold)) for s in FIXED_SEEDS]
            if table_k is None:
                assert ks == [None] * len(FIXED_SEEDS), (label, threshold, ks)
            else:
                median = median_steps(ks)
                assert table_k / 2 <= median <= 2 * table_k, (label, threshold, ks)


def test_criterion_06_contraction_envelope_holds(acceptance, reference_default_sweep):
    _, runs = reference_default_sweep
    violations = 0
    points_checked = 0
    for config, state in runs:
        curv = total_curvature(build_costs(config))
        points = envelope_from_history(
            state.history, config.alpha, curv, curv, config.n, state.x_star
        )
        points_checked += len(points)
        violations += sum(1 for p in points if p.empirical > p.bound)
    ok = violations == 0 and points_checked > 0
    acceptance(
        6,
        ok,
        "%d bound violations across %d per-step comparisons in 100 runs"
        % (violations, points_checked),
    )
    assert ok


def test_criterion_07_zoom_out_recovery(acceptance):
    config = RunConfig(
        seed=3,
        cost_spec={
            "kind": "explicit",
            "costs": [[str(i % 5 + 1), "100"] for i in range(20)],
        },
        stop={"max_steps": 200, "target_error": 1e-3},
    )
    state = run_single(config)
    history = state.history
    assert state.x_star == 100
    zoom_outs = sum(1 for r in history if r.zoom_event == "zoom_out")
    _, corrected = zoom_out_bound(F(100), F(1, 2), F(2))
    limit = corrected + 2
    converged = history[-1].error <= 1e-3
    ok = converged and 1 <= zoom_outs <= limit == 9
    acceptance(
        7,
        ok,
        "%d zoom-outs (bound %d) to reach an optimum at 100 from a half-unit "
        "window at 0; final error %.2g" % (zoom_outs, limit, history[-1].error),
    )
    assert ok


def test_criterion_08_reference_table_cells(acceptance, tmp_path):
    assert cmd_table1(str(tmp_path)) == 0
    lines = (tmp_path / "table_bits.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    exact = (
        rows["adaptive_zoom"] == ["18", "11441.52", "27", "17162.28", "40", "25425.60"]
        and rows["fixed_0.1"] == ["3", "4449.48", "-", "-", "-", "-"]
        and rows["fixed_0.01"] == ["3", "6356.40", "5", "10594.00", "-", "-"]
        and rows["fixed_0.001"] == ["3", "8898.96", "5", "14831.60", "11", "32629.52"]
    )
    refine = rows["refine_only"]
    refine_ok = (
        refine[0:2] == ["3", "4449.48"]
        and refine[2] == "8"
        and abs(float(refine[3]) - 15043.28) <= 0.5
        and refine[4:] == ["16", "38774.04"]
    )
    avg_lines = (tmp_path / "table_avg_bits.csv").read_text().splitlines()
    avg = {line.split(",")[0]: line.split(",")[1:] for line in avg_lines[1:]}
    remark_ok = avg["adaptive_zoom"] == ["31.782"] * 3
    ok = exact and refine_ok and remark_ok
    acceptance(
        8,
        ok,
        "all adaptive/fixed cells exact, refine 1e-3 cell %s (printed 15043.28, "
        "within 0.5 bit), average 31.782 exact" % refine[3],
    )
    assert ok


def test_criterion_09_transmission_statistics(acceptance, reference_default_sweep):
    _, runs = reference_default_sweep
    n = runs[0][0].n
    # Table 1's runs end at e_T <= 1e-5; the logged metric's 1e-5 comes
    # about 2.5x later, so pool each run up to its first e_T crossing.
    pooled = [state.history[: table_steps(c, state, F("1e-5"))] for c, state in runs]
    executions = sum(len(h) for h in pooled)
    rounds = sum(r.consensus_rounds for h in pooled for r in h)
    mean_tx = n * rounds / executions  # every round sends n pieces
    mean_rounds = rounds / executions
    full_executions = sum(len(state.history) for _, state in runs)
    full_mean_tx = n * sum(r.consensus_rounds for _, state in runs for r in state.history) / full_executions
    seed3 = runs[3][1].history
    ok = 100 <= mean_tx <= 350
    acceptance(
        9,
        ok,
        "mean mass transmissions per consensus = %.2f over %d executions up to "
        "e_T <= 1e-5 (%.2f over %d up to the logged 1e-5); band [100, 350], "
        "reference %.2f; mean rounds per consensus %.1f vs %.1f implied by the "
        "reference at n=%d; seed 3 rounds %d at delta=%s -> %d at delta=%.1e"
        % (
            mean_tx,
            executions,
            full_mean_tx,
            full_executions,
            TABLE_N_TT,
            mean_rounds,
            TABLE_N_TT / n,
            n,
            seed3[0].consensus_rounds,
            seed3[0].q.delta,
            seed3[-1].consensus_rounds,
            seed3[-1].q.delta,
        ),
    )
    assert ok, (
        "the mean sits above the band because rounds per consensus grow as "
        "the quantizer zooms in: consensus runs on unclamped offsets (see "
        "optimizer.step), whose size in delta units grows like 1/delta.  A "
        "prototype with a clamped 3-bit input converged on 0 of 20 seeds.  "
        "PAPER.md holds only the abstract, so how the reference keeps 3-bit "
        "payloads with exact convergence is not settled here"
    )


def test_criterion_10_byte_identical_reruns(acceptance, tmp_path):
    outcomes = []
    for name, command in (
        ("run", lambda d: cmd_run(RunConfig(seed=1, out_dir=d))),
        ("sweep", lambda d: cmd_sweep(RunConfig(out_dir=d), [2, 3])),
        (
            "compare",
            lambda d: cmd_compare(
                RunConfig(seed=5, n=5, out_dir=d, stop={"max_steps": 40})
            ),
        ),
        ("table1", lambda d: cmd_table1(d)),
    ):
        a = tmp_path / (name + "_a")
        b = tmp_path / (name + "_b")
        assert command(str(a)) == 0 and command(str(b)) == 0
        for csv_path in sorted(p.name for p in a.iterdir()):
            same = (a / csv_path).read_bytes() == (b / csv_path).read_bytes()
            outcomes.append(((name, csv_path), same))
    ok = all(same for _, same in outcomes) and len(outcomes) == 8
    acceptance(
        10,
        ok,
        "%d/%d report files byte-identical across repeated runs"
        % (sum(same for _, same in outcomes), len(outcomes)),
    )
    assert ok, [key for key, same in outcomes if not same]
