"""Experiment orchestration: build a problem instance from a RunConfig,
drive the optimizer, and emit deterministic CSV artifacts.

The runner also prices the run: ``width_schedule`` turns the config's
policy and accounting blocks into the run's message-width schedule, and
``step_costs`` charges a step's counts at it for both report writers.

Determinism contract: the pair (config, seed) fixes every byte of every
output file.  All floats are written with repr() (shortest round-trip
form), rationals as "num/den", rows in a fixed order, newline="\\n", and
no timestamps or environment-dependent values except the explicitly
labeled backend column.
"""

import csv
import io
import math
import os
import statistics
import sys
from collections import Counter
from dataclasses import replace as dc_replace
from fractions import Fraction

from .config import ConfigError
from .consensus import ConsensusCapError, active_backend
from .graph import generate_random_digraph, randbelow_each
from .metrics import FIXED_LEVEL_WIDTHS, REFINE_WIDTH_SCHEDULE, TABLE_THRESHOLDS, decimal_fixed, exact_decimal
from .metrics import schedule_width, table_cells
from .objective import CostSuite, QuadraticCost, random_cost_suite
from .optimizer import AdaptiveZoom, FixedLevel, RefineOnly, Starts, initial_state, run_until
from .quantizer import QuantizerState
from .rng import PCG32, STREAM_PROTOCOL, STREAM_XINIT


def build_policy(config):
    spec = config.block("policy")
    if spec["variant"] == "adaptive_zoom":
        return AdaptiveZoom(spec["quantizer_width"], config.c_in, config.c_out)
    if spec["variant"] == "refine_only":
        return RefineOnly(spec["c_refine"])
    return FixedLevel()


def width_schedule(config):
    """The run's message-width schedule (read by ``metrics.schedule_width``).

    The adaptive policy charges ``accounting.b_pm`` bits under paper_faithful
    accounting and its quantizer width under measured (a w-bit quantizer has
    2**w cells, and the payloads are modeled as w-bit symbols); refine-only
    follows ``metrics.REFINE_WIDTH_SCHEDULE``; a fixed level charges
    ``policy.b_pm``, or its level's standard width when that is unset.
    """
    spec = config.block("policy")
    if spec["variant"] == "refine_only":
        return REFINE_WIDTH_SCHEDULE
    if spec["variant"] == "adaptive_zoom":
        accounting = config.block("accounting")
        width = accounting["b_pm"] if accounting["mode"] == "paper_faithful" else spec["quantizer_width"]
    else:
        width = FIXED_LEVEL_WIDTHS[config.delta0] if spec["b_pm"] is None else spec["b_pm"]
    return ((None, width),)


def step_costs(k, r, n, widths):
    """Step ``k``'s (mass transmissions, paper-mode bits, measured-mode bits)
    from its record ``r``.

    n pieces a round, charged at the width schedule ``widths`` and at the
    width that indexes the step's alphabet."""
    tx = n * r.consensus_rounds
    return tx, schedule_width(widths, k - 1) * tx, (r.alphabet_size - 1).bit_length() * tx


def build_costs(config):
    spec = config.block("cost_spec")
    if spec["kind"] == "explicit":
        costs = [QuadraticCost(beta, x0) for beta, x0 in spec["costs"]]
        index = {c: i for i, c in enumerate(dict.fromkeys(costs))}  # equal costs share one class
        return CostSuite(tuple(index), tuple(map(index.__getitem__, costs)))
    return random_cost_suite(
        config.n,
        config.seed if spec["seed"] is None else spec["seed"],
        value_set=spec["value_set"],
        shared_x0=spec["shared_x0"],
    )


def sample_x_init(config, x_star):
    """The run's ``Starts`` table: per-node initial estimates on the configured grid.

    A draw that lands exactly on the optimum is nudged one grid cell (up,
    or down at the top of the range) so the normalized error metric stays
    well defined.  Each node draws one grid index, all in one
    ``randbelow_each`` call.  Each distinct index, in first-draw order, is
    turned into its point once, as an integer over the denominator of the
    start grid ``QuantizerState.of(lo, x_init_grid)``, and checked against
    the optimum by cross-multiplying; the table keys its entries on that
    numerator, so two indices that the nudge lands on one value share an
    entry.
    """
    lo, hi = config.x_init_range
    grid = config.x_init_grid
    count = int((hi - lo) // grid) + 1
    draws = randbelow_each(PCG32(config.seed, STREAM_XINIT), [count] * config.n)
    start_grid = QuantizerState.of(lo, grid)
    d, base, step = start_grid.den, start_grid.base, start_grid.step
    sn, sd = x_star.numerator, x_star.denominator
    entry = {}  # start numerator -> its index in the table
    index = {}  # grid index -> its entry
    for r in dict.fromkeys(draws):
        a = base + r * step  # the start is a/d
        if a * sd == sn * d:
            a = a + step if (a + step) * hi.denominator <= hi.numerator * d else a - step
        index[r] = entry.setdefault(a, len(entry))
    return Starts(d, tuple(entry), tuple(map(index.__getitem__, draws)))


def build_instance(config):
    """The problem instance of a validated config: (graph, cost suite, ``Starts``).

    It reads only ``n``, ``edge_prob``, ``seed``, the cost spec and the
    start range and grid, each from its own seed stream, so configs that
    differ in nothing else share one instance; no run modifies it.
    """
    g = generate_random_digraph(config.n, config.edge_prob, config.seed)
    s = build_costs(config)
    return g, s, sample_x_init(config, s.global_optimum)


def run_instance(config, instance, like=None):
    """Run a validated config on its ``build_instance`` instance; returns
    the final ``OptimizerState``, whose ``history`` is the per-step log.
    ``like``, a state of a run on the same instance and ``alpha``, lends
    ``initial_state`` what depends on nothing else."""
    g, s, starts = instance
    policy = build_policy(config)
    state = initial_state(starts, QuantizerState.of(config.b_q0, config.delta0), s, config.alpha, like)
    rng = PCG32(config.seed, STREAM_PROTOCOL)
    try:
        run_until(state, g, policy, config.block("stop"), rng)
    except ConsensusCapError as exc:
        exc.step = len(state.history) + 1
        raise
    return state


def run_single(config):
    """Execute one configured run on its own instance; returns its final
    ``OptimizerState``."""
    config.validate()
    return run_instance(config, build_instance(config))


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


def summarize(config, state):
    history = state.history
    steps = len(history)
    target = config.block("stop")["target_error"]
    final_error = history[-1].error if history else float("nan")
    widths = width_schedule(config)
    total_tx = paper_bits = measured_bits = 0
    for k, r in enumerate(history, 1):
        tx, paper, measured = step_costs(k, r, config.n, widths)
        total_tx, paper_bits, measured_bits = total_tx + tx, paper_bits + paper, measured_bits + measured
    mean_tx = float(Fraction(total_tx, steps)) if steps else float("nan")
    events = Counter(r.zoom_event for r in history)
    return {
        "seed": config.seed,
        "n": config.n,
        "policy": config.block("policy")["variant"],
        "steps": steps,
        "converged": int(target is not None and steps > 0 and final_error <= target),
        "final_error": repr(final_error),
        "x_final": str(history[-1].x_value) if history else "",
        "x_star": str(state.x_star),
        "zoom_in_events": events["zoom_in"],
        "zoom_out_events": events["zoom_out"],
        "refine_events": events["refine"],
        "total_bits_paper_mode": paper_bits,
        "total_bits_measured_mode": measured_bits,
        "mean_mass_tx_per_consensus": repr(mean_tx),
        "total_mass_transmissions": total_tx,
        "total_flood_broadcasts": total_tx,
        "accounting_mode": config.block("accounting")["mode"],
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


def write_history_csv(f, history, n, widths):
    """Write the per-step log of a run on ``n`` nodes as CSV to the text
    stream ``f``, priced by ``step_costs`` at the width schedule ``widths``."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(HISTORY_COLUMNS)
    for k, r in enumerate(history, 1):
        x, q = r.x_value, r.q
        w.writerow(
            [k, str(x), repr(float(x)), repr(r.error)]
            + [str(q.delta), repr(float(q.delta)), str(q.b_q), repr(float(q.b_q))]
            + [r.zoom_event, r.consensus_rounds, *step_costs(k, r, n, widths)]
        )


def write_rows_csv(f, columns, rows):
    """Write ``rows`` (dicts; a missing key is a blank cell) as CSV to the text stream ``f``."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row.get(c, "") for c in columns])


def resolve_out_dir(path):
    out = path or os.environ.get("ZOOMGRAD_OUT_DIR", "") or "out"
    os.makedirs(out, exist_ok=True)
    return out


class CommandError(Exception):
    """A command refused its arguments; the message is printed as is."""


# Every way a command can fail; ``report_failure`` gives each its line.  An
# OverflowError is a value too large for a float: a diverging run's error
# metric, or a rational that a report renders as a float.
FAILURES = (ConfigError, CommandError, ConsensusCapError, OverflowError, OSError)


def report_failure(exc):
    """Print a command failure (one of ``FAILURES``) as its one ``error:``
    line on stderr and return the exit code, 1."""
    if isinstance(exc, ConfigError):
        error = "invalid config - %s" % exc
    elif isinstance(exc, ConsensusCapError):
        error = "consensus did not settle (round cap %s) at optimization step %d" % (exc.rounds, exc.step)
    elif isinstance(exc, OverflowError):
        error = "a value overflowed a float - %s" % exc
    else:
        error = str(exc)
    print("error: %s" % error, file=sys.stderr)
    return 1


def _command(out_dir, compute):
    """The one command path: compute the reports, render them, then write them.

    ``compute()`` returns the command's reports as (file name, writer,
    writer arguments...) tuples; a writer writes its CSV to a text stream.
    Every report is rendered to text before the output directory is made or
    any file is opened, so a failure in computing or rendering writes
    nothing.  Then the texts are written and one ``wrote ...`` line names
    them.  Any failure goes to ``report_failure`` and exits 1.
    """
    try:
        texts = []
        for name, write, *args in compute():
            f = io.StringIO()
            write(f, *args)
            texts.append((name, f.getvalue()))
        out = resolve_out_dir(out_dir)
        paths = []
        for name, text in texts:
            paths.append(os.path.join(out, name))
            with open(paths[-1], "w", newline="") as f:
                f.write(text)
    except FAILURES as exc:
        return report_failure(exc)
    print("wrote %s" % " and ".join(paths))
    return 0


def cmd_run(config):
    """Single run -> history.csv + summary.csv in the output directory."""

    def reports():
        state = run_single(config)
        return [
            ("history.csv", write_history_csv, state.history, config.n, width_schedule(config)),
            ("summary.csv", write_rows_csv, SUMMARY_COLUMNS, [summarize(config, state)]),
        ]

    return _command(config.out_dir, reports)


def steps_to_threshold(history, threshold):
    """First step number (1-based) whose logged error is at or below threshold."""
    for k, r in enumerate(history, 1):
        if r.error <= threshold:
            return k
    return None


SWEEP_COLUMNS = SUMMARY_COLUMNS + ["status"] + ["steps_to_%s" % label for label in TABLE_THRESHOLDS]

AGGREGATE_COLUMNS = (
    ["runs", "failures"]
    + ["median_steps_to_%s" % label for label in TABLE_THRESHOLDS]
    + ["reached_%s" % label for label in TABLE_THRESHOLDS]
    + ["mean_mass_tx_per_consensus", "mean_consensus_rounds"]
)


def sweep(config, seeds):
    """Run one config across seeds; returns (per-seed rows, aggregate row).

    A run that hits the consensus round cap is recorded in its row's status
    and the sweep continues.  The aggregate is folded from the rows and the
    finished runs' step and round counts.
    """
    per_seed = []
    steps = rounds = 0  # over every run that finished
    for seed in seeds:
        c = dc_replace(config, seed=seed)
        try:
            state = run_single(c)
        except ConsensusCapError as exc:
            per_seed.append({"seed": seed, "n": config.n, "status": "step %d: %s" % (exc.step, exc)})
            continue
        row = summarize(c, state)
        row["status"] = "ok"
        for label in TABLE_THRESHOLDS:
            k = steps_to_threshold(state.history, float(label))
            row["steps_to_%s" % label] = "" if k is None else k
        per_seed.append(row)
        steps += len(state.history)
        rounds += sum(r.consensus_rounds for r in state.history)
    aggregate = {"runs": len(per_seed), "failures": sum(row["status"] != "ok" for row in per_seed)}
    for label in TABLE_THRESHOLDS:
        column = "steps_to_%s" % label
        ks = [row[column] for row in per_seed if row.get(column, "") != ""]
        aggregate["reached_%s" % label] = len(ks)
        aggregate["median_steps_to_%s" % label] = repr(float(statistics.median(ks))) if ks else ""
    for column, total in (
        ("mean_mass_tx_per_consensus", config.n * rounds),  # every round sends n pieces
        ("mean_consensus_rounds", rounds),
    ):
        aggregate[column] = repr(float(Fraction(total, steps))) if steps else ""
    return per_seed, aggregate


def cmd_sweep(config, seeds):
    def reports():
        if not seeds:
            raise CommandError("sweep needs a nonempty seed list")
        per_seed, aggregate = sweep(config, seeds)
        return [
            ("sweep_seeds.csv", write_rows_csv, SWEEP_COLUMNS, per_seed),
            ("sweep_aggregate.csv", write_rows_csv, AGGREGATE_COLUMNS, [aggregate]),
        ]

    return _command(config.out_dir, reports)


COMPARE_VARIANTS = (
    ("adaptive_zoom", {"variant": "adaptive_zoom"}, None),
    ("refine_only", {"variant": "refine_only", "c_refine": "10"}, Fraction(1, 10)),
    ("fixed_0.1", {"variant": "fixed_level"}, Fraction(1, 10)),
    ("fixed_0.01", {"variant": "fixed_level"}, Fraction(1, 100)),
    ("fixed_0.001", {"variant": "fixed_level"}, Fraction(1, 1000)),
)


def compare(config):
    """Run the adaptive policy and the baselines on one shared instance.

    Only the zoom policy and its conventional starting step differ between
    the variants, so every variant config is validated first, the graph,
    costs and initial estimates are built once, from the first, and each
    variant runs on them (``run_instance``).  The cost-class table and the
    error's spread, which depend on the instance and ``alpha`` alone, are
    worked out for the first variant and lent to the others.  Returns
    {label: (config, state)}, each final state as ``run_single`` would give
    it.
    """
    configs = {}
    for label, policy_spec, delta0 in COMPARE_VARIANTS:
        c = dc_replace(config, policy=dict(policy_spec))
        if delta0 is not None:
            c = dc_replace(c, delta0=delta0)
        c.validate()
        configs[label] = c
    instance = build_instance(configs[COMPARE_VARIANTS[0][0]])
    runs, first = {}, None
    for label, c in configs.items():
        state = run_instance(c, instance, first)
        first = first or state
        runs[label] = (c, state)
    return runs


def cmd_compare(config):
    # compare replaces the policy block (and delta0 for the fixed levels), so
    # only what it runs is validated: each variant, in compare.
    def reports():
        runs = compare(config)  # in COMPARE_VARIANTS order
        columns = ["k"] + ["error_%s" % label for label, _, _ in COMPARE_VARIANTS]
        histories = [state.history for _, state in runs.values()]
        k0 = repr(math.sqrt(config.n))
        rows = [dict(zip(columns, [0] + [k0] * len(histories)))]
        for i in range(max(map(len, histories))):
            errors = [repr(h[i].error) if i < len(h) else "" for h in histories]
            rows.append(dict(zip(columns, [i + 1] + errors)))
        summaries = [summarize(c, state) for c, state in runs.values()]
        return [
            ("compare.csv", write_rows_csv, columns, rows),
            ("compare_summary.csv", write_rows_csv, SUMMARY_COLUMNS, summaries),
        ]

    return _command(config.out_dir, reports)


def cmd_table1(out_dir):
    """Emit the reference communication-cost table.

    Every cell is recomputed from the fixed step counts and message-width
    schedules in ``metrics`` at the reference average of 211.88
    transmissions per consensus execution.
    """

    def reports():
        columns, avg_columns = ["policy"], ["policy"]
        for label in TABLE_THRESHOLDS:
            columns += ["steps_to_%s" % label, "bits_to_%s" % label]
            avg_columns.append("avg_bits_per_node_per_step_to_%s" % label)
        rows, avg_rows = [], []
        for policy, cells in table_cells():
            row, avg_row = {"policy": policy}, {"policy": policy}
            for label, (steps, bits, avg) in zip(TABLE_THRESHOLDS, cells):
                row["steps_to_%s" % label] = "-" if steps is None else steps
                row["bits_to_%s" % label] = "-" if bits is None else decimal_fixed(bits, 2)
                avg_row["avg_bits_per_node_per_step_to_%s" % label] = exact_decimal(avg)
            rows.append(row)
            avg_rows.append(avg_row)
        return [
            ("table_bits.csv", write_rows_csv, columns, rows),
            ("table_avg_bits.csv", write_rows_csv, avg_columns, avg_rows),
        ]

    return _command(out_dir, reports)
