"""Experiment orchestration: build a problem instance from a RunConfig,
drive the optimizer, and emit deterministic CSV artifacts.

Determinism contract: the pair (config, seed) fixes every byte of every
output file.  All floats are written with repr() (shortest round-trip
form), rationals as "num/den", rows in a fixed order, newline="\\n", and
no timestamps or environment-dependent values except the explicitly
labeled backend column.
"""

import csv
import math
import os
import sys
from dataclasses import replace as dc_replace
from fractions import Fraction

from .config import ConfigError, RunConfig, parse_rational
from .consensus import ConsensusCapError, active_backend
from .graph import generate_random_digraph
from .metrics import (
    TABLE_THRESHOLDS,
    decimal_fixed,
    exact_decimal,
    table_avg_bits_rows,
    table_bits_rows,
)
from .objective import CostSuite, QuadraticCost, random_cost_suite
from .optimizer import AdaptiveZoom, FixedLevel, RefineOnly, initial_state, run_until
from .quantizer import QuantizerState
from .rng import PCG32, STREAM_PROTOCOL, STREAM_XINIT

SWEEP_THRESHOLDS = (("1e-2", 1e-2), ("1e-3", 1e-3), ("1e-5", 1e-5))


class StepFailure(Exception):
    """A run aborted mid-optimization; ``step`` is the failing iteration."""

    def __init__(self, step, cause):
        self.step = step
        self.cause = cause
        super().__init__("step %d: %s" % (step, cause))


def build_policy(config):
    spec = config.policy
    variant = spec["variant"]
    if variant == "adaptive_zoom":
        b_pm = None
        if config.accounting.get("mode") == "paper_faithful":
            b_pm = config.accounting.get("b_pm", 3)
        return AdaptiveZoom(
            quantizer_width=spec.get("quantizer_width", 3),
            c_in=config.c_in,
            c_out=config.c_out,
            b_pm=b_pm,
        )
    if variant == "refine_only":
        return RefineOnly(
            c_refine=parse_rational(spec.get("c_refine", 10), "policy.c_refine")
        )
    return FixedLevel(b_pm=spec.get("b_pm"))


def build_costs(config):
    spec = config.cost_spec
    if spec["kind"] == "explicit":
        return CostSuite(
            QuadraticCost(
                parse_rational(b, "cost_spec.costs.beta"),
                parse_rational(x, "cost_spec.costs.x0"),
            )
            for b, x in spec["costs"]
        )
    seed = spec.get("seed")
    if seed is None:
        seed = config.seed
    return random_cost_suite(
        config.n,
        seed,
        value_set=tuple(spec.get("value_set", (1, 2, 3, 4, 5))),
        shared_x0=spec.get("shared_x0", False),
    )


def sample_x_init(config, x_star):
    """Per-node initial estimates on the configured grid.

    A draw that lands exactly on the optimum is nudged one grid cell (up,
    or down at the top of the range) so the normalized error metric stays
    well defined.  Each node draws one grid index; each distinct index is
    turned into its point, and checked against the optimum, once.
    """
    lo, hi = config.x_init_range
    grid = config.x_init_grid
    count = int((hi - lo) // grid) + 1
    rng = PCG32(config.seed, STREAM_XINIT)
    points = {}  # grid index -> start
    xs = []
    for _ in range(config.n):
        r = rng.randbelow(count)
        x = points.get(r)
        if x is None:
            x = lo + r * grid
            if x == x_star:
                x = x + grid if x + grid <= hi else x - grid
            points[r] = x
        xs.append(x)
    return xs


def run_single(config):
    """Execute one configured run; returns history plus problem objects."""
    config.validate()
    policy = build_policy(config)
    g = generate_random_digraph(config.n, config.edge_prob, config.seed)
    s = build_costs(config)
    x_star = s.global_optimum
    x_init = sample_x_init(config, x_star)
    state = initial_state(x_init, QuantizerState(config.b_q0, config.delta0))
    rng = PCG32(config.seed, STREAM_PROTOCOL)
    try:
        history = run_until(state, g, s, config.alpha, policy, config.stop, rng)
    except ConsensusCapError as exc:
        raise StepFailure(len(state.history) + 1, exc) from exc
    return {
        "history": history,
        "state": state,
        "graph": g,
        "costs": s,
        "x_init": x_init,
        "x_star": x_star,
        "policy": policy,
    }


SUMMARY_COLUMNS = [
    "seed",
    "n",
    "policy",
    "steps",
    "converged",
    "final_error",
    "x_final",
    "x_star",
    "zoom_in_events",
    "zoom_out_events",
    "refine_events",
    "total_bits_paper_mode",
    "total_bits_measured_mode",
    "mean_mass_tx_per_consensus",
    "total_mass_transmissions",
    "total_flood_broadcasts",
    "accounting_mode",
    "backend",
]


def summarize(config, result):
    history = result["history"]
    steps = len(history)
    target = config.stop.get("target_error")
    final_error = history[-1].error if history else float("nan")
    total_tx = sum(r.mass_transmissions for r in history)
    total_rounds = sum(r.consensus_rounds for r in history)
    mean_tx = float(Fraction(total_tx, steps)) if steps else float("nan")
    return {
        "seed": config.seed,
        "n": config.n,
        "policy": config.policy["variant"],
        "steps": steps,
        "converged": int(target is not None and steps > 0 and final_error <= target),
        "final_error": repr(final_error),
        "x_final": str(history[-1].x_value) if history else "",
        "x_star": str(result["x_star"]),
        "zoom_in_events": sum(1 for r in history if r.zoom_event == "zoom_in"),
        "zoom_out_events": sum(1 for r in history if r.zoom_event == "zoom_out"),
        "refine_events": sum(1 for r in history if r.zoom_event == "refine"),
        "total_bits_paper_mode": sum(r.bits_paper_mode for r in history),
        "total_bits_measured_mode": sum(r.bits_measured_mode for r in history),
        "mean_mass_tx_per_consensus": repr(mean_tx),
        "total_mass_transmissions": total_tx,
        "total_flood_broadcasts": config.n * total_rounds,
        "accounting_mode": config.accounting["mode"],
        "backend": active_backend(),
    }


HISTORY_COLUMNS = [
    "k",
    "x_value",
    "x_value_decimal",
    "error",
    "delta",
    "delta_decimal",
    "b_q",
    "b_q_decimal",
    "zoom_event",
    "consensus_rounds",
    "mass_transmissions",
    "bits_paper_mode",
    "bits_measured_mode",
]


def _open_csv(path):
    f = open(path, "w", newline="")
    return f, csv.writer(f, lineterminator="\n")


def write_history_csv(path, history):
    f, w = _open_csv(path)
    with f:
        w.writerow(HISTORY_COLUMNS)
        for r in history:
            w.writerow(
                [
                    r.k,
                    str(r.x_value),
                    repr(float(r.x_value)),
                    repr(r.error),
                    str(r.delta),
                    repr(float(r.delta)),
                    str(r.b_q),
                    repr(float(r.b_q)),
                    r.zoom_event,
                    r.consensus_rounds,
                    r.mass_transmissions,
                    r.bits_paper_mode,
                    r.bits_measured_mode,
                ]
            )


def write_rows_csv(path, columns, rows):
    f, w = _open_csv(path)
    with f:
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") for c in columns])


def resolve_out_dir(config_or_path):
    if isinstance(config_or_path, RunConfig):
        out = config_or_path.out_dir
    else:
        out = config_or_path or ""
    out = out or os.environ.get("ZOOMGRAD_OUT_DIR", "") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _fail(message):
    print("error: %s" % message, file=sys.stderr)
    return 1


def cmd_run(config):
    """Single run -> history.csv + summary.csv in the output directory."""
    try:
        config.validate()
        out = resolve_out_dir(config)
        result = run_single(config)
    except ConfigError as exc:
        return _fail("invalid config - %s" % exc)
    except StepFailure as exc:
        return _fail(
            "consensus did not settle (round cap %s) at optimization step %d"
            % (exc.cause.rounds, exc.step)
        )
    write_history_csv(os.path.join(out, "history.csv"), result["history"])
    write_rows_csv(
        os.path.join(out, "summary.csv"), SUMMARY_COLUMNS, [summarize(config, result)]
    )
    print("wrote %s and %s" % (os.path.join(out, "history.csv"), os.path.join(out, "summary.csv")))
    return 0


def steps_to_threshold(history, threshold):
    """First step index whose logged error is at or below threshold."""
    for r in history:
        if r.error <= threshold:
            return r.k
    return None


SWEEP_COLUMNS = SUMMARY_COLUMNS + [
    "status",
    "steps_to_1e-2",
    "steps_to_1e-3",
    "steps_to_1e-5",
]

AGGREGATE_COLUMNS = [
    "runs",
    "failures",
    "median_steps_to_1e-2",
    "median_steps_to_1e-3",
    "median_steps_to_1e-5",
    "reached_1e-2",
    "reached_1e-3",
    "reached_1e-5",
    "mean_mass_tx_per_consensus",
    "mean_consensus_rounds",
]


def sweep(config, seeds):
    """Run one config across seeds; returns (per-seed rows, aggregate row).

    Individual failures are recorded in their row and the sweep continues.
    """
    per_seed = []
    reached = {label: [] for label, _ in SWEEP_THRESHOLDS}
    total_tx = 0
    total_rounds = 0
    total_steps = 0
    failures = 0
    for seed in seeds:
        c = dc_replace(config, seed=seed)
        try:
            result = run_single(c)
        except StepFailure as exc:
            failures += 1
            per_seed.append({"seed": seed, "n": config.n, "status": str(exc)})
            continue
        history = result["history"]
        row = summarize(c, result)
        row["status"] = "ok"
        for label, threshold in SWEEP_THRESHOLDS:
            k = steps_to_threshold(history, threshold)
            row["steps_to_%s" % label] = "" if k is None else k
            if k is not None:
                reached[label].append(k)
        per_seed.append(row)
        total_tx += sum(r.mass_transmissions for r in history)
        total_rounds += sum(r.consensus_rounds for r in history)
        total_steps += len(history)
    aggregate = {"runs": len(per_seed), "failures": failures}
    for label, _ in SWEEP_THRESHOLDS:
        ks = sorted(reached[label])
        aggregate["reached_%s" % label] = len(ks)
        aggregate["median_steps_to_%s" % label] = (
            repr(_median(ks)) if ks else ""
        )
    aggregate["mean_mass_tx_per_consensus"] = (
        repr(float(Fraction(total_tx, total_steps))) if total_steps else ""
    )
    aggregate["mean_consensus_rounds"] = (
        repr(float(Fraction(total_rounds, total_steps))) if total_steps else ""
    )
    return per_seed, aggregate


def _median(sorted_values):
    k = len(sorted_values)
    mid = k // 2
    if k % 2:
        return float(sorted_values[mid])
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2


def cmd_sweep(config, seeds):
    try:
        config.validate()
        out = resolve_out_dir(config)
    except ConfigError as exc:
        return _fail("invalid config - %s" % exc)
    if not seeds:
        return _fail("sweep needs a nonempty seed list")
    per_seed, aggregate = sweep(config, seeds)
    write_rows_csv(os.path.join(out, "sweep_seeds.csv"), SWEEP_COLUMNS, per_seed)
    write_rows_csv(os.path.join(out, "sweep_aggregate.csv"), AGGREGATE_COLUMNS, [aggregate])
    print(
        "wrote %s and %s"
        % (os.path.join(out, "sweep_seeds.csv"), os.path.join(out, "sweep_aggregate.csv"))
    )
    return 0


COMPARE_VARIANTS = (
    ("adaptive_zoom", {"variant": "adaptive_zoom"}, None),
    ("refine_only", {"variant": "refine_only", "c_refine": "10"}, Fraction(1, 10)),
    ("fixed_0.1", {"variant": "fixed_level"}, Fraction(1, 10)),
    ("fixed_0.01", {"variant": "fixed_level"}, Fraction(1, 100)),
    ("fixed_0.001", {"variant": "fixed_level"}, Fraction(1, 1000)),
)


def compare(config):
    """Run the adaptive policy and the baselines on one shared instance.

    The graph, costs, and initial estimates are identical across variants
    (they come from dedicated seed streams); only the zoom policy and its
    conventional starting step differ.  Returns {label: history}.
    """
    histories = {}
    for label, policy_spec, delta0 in COMPARE_VARIANTS:
        c = dc_replace(config, policy=dict(policy_spec))
        if delta0 is not None:
            c = dc_replace(c, delta0=delta0)
        histories[label] = (c, run_single(c))
    return histories


def cmd_compare(config):
    # compare replaces the policy block (and delta0 for the fixed levels), so
    # only what it runs is validated: each variant, in run_single.
    try:
        histories = compare(config)
        out = resolve_out_dir(config)
    except ConfigError as exc:
        return _fail("invalid config - %s" % exc)
    except StepFailure as exc:
        return _fail(
            "consensus did not settle (round cap %s) at optimization step %d"
            % (exc.cause.rounds, exc.step)
        )
    labels = [label for label, _, _ in COMPARE_VARIANTS]
    columns = ["k"] + ["error_%s" % label for label in labels]
    k0 = repr(math.sqrt(config.n))
    rows = [dict({"k": 0}, **{"error_%s" % label: k0 for label in labels})]
    deepest = max(len(res["history"]) for _, res in histories.values())
    for i in range(deepest):
        row = {"k": i + 1}
        for label in labels:
            history = histories[label][1]["history"]
            row["error_%s" % label] = repr(history[i].error) if i < len(history) else ""
        rows.append(row)
    write_rows_csv(os.path.join(out, "compare.csv"), columns, rows)
    summaries = []
    for label in labels:
        c, result = histories[label]
        summaries.append(summarize(c, result))
    write_rows_csv(os.path.join(out, "compare_summary.csv"), SUMMARY_COLUMNS, summaries)
    print(
        "wrote %s and %s"
        % (os.path.join(out, "compare.csv"), os.path.join(out, "compare_summary.csv"))
    )
    return 0


def cmd_table1(out_dir=None):
    """Emit the reference communication-cost table.

    Every cell is recomputed from the fixed step counts and message-width
    schedules in ``metrics`` at the reference average of 211.88
    transmissions per consensus execution.
    """
    out = resolve_out_dir(out_dir)
    columns = ["policy"]
    for label in TABLE_THRESHOLDS:
        columns += ["steps_to_%s" % label, "bits_to_%s" % label]
    rows = []
    for policy, cells in table_bits_rows():
        row = {"policy": policy}
        for label, (steps, bits) in zip(TABLE_THRESHOLDS, cells):
            row["steps_to_%s" % label] = "-" if steps is None else steps
            row["bits_to_%s" % label] = "-" if bits is None else decimal_fixed(bits, 2)
        rows.append(row)
    write_rows_csv(os.path.join(out, "table_bits.csv"), columns, rows)

    avg_columns = ["policy"] + ["avg_bits_per_node_per_step_to_%s" % t for t in TABLE_THRESHOLDS]
    avg_rows = []
    for policy, cells in table_avg_bits_rows():
        row = {"policy": policy}
        for label, value in zip(TABLE_THRESHOLDS, cells):
            row["avg_bits_per_node_per_step_to_%s" % label] = exact_decimal(value)
        avg_rows.append(row)
    write_rows_csv(os.path.join(out, "table_avg_bits.csv"), avg_columns, avg_rows)
    print(
        "wrote %s and %s"
        % (os.path.join(out, "table_bits.csv"), os.path.join(out, "table_avg_bits.csv"))
    )
    return 0
