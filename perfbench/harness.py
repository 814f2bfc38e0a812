"""Workloads, one in-process CLI invocation, output fingerprints, summaries.

Everything here runs against whatever ``zoomgrad`` is importable; ``run.py``
makes sure that is the checkout's own ``src/``.
"""

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")

# Columns of the per-run summary rows (summary.csv, sweep_seeds.csv,
# compare_summary.csv) that the simulated-work totals are read from.
_TOTALS = ("n", "steps", "total_mass_transmissions", "total_flood_broadcasts")

# What each workload records under "expect" and every invocation must match.
FINGERPRINT_KEYS = ("sim_steps", "sim_rounds", "sim_mass_tx", "csv_sha256")


def load_workloads(path=WORKLOADS_FILE):
    with open(path) as f:
        return json.load(f)


def summarize(values):
    """Median, first and third quartile (``statistics.quantiles``) and count."""
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _serialize(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _hashed_text(text, rows):
    """CSV text with every ``backend`` cell replaced by ``*``.

    The masked text is re-serialized with the writer settings the runner
    uses; if the file was not in that form to begin with, its raw text is
    appended so that no byte change can hide behind the re-serialization.
    """
    if not rows or "backend" not in rows[0]:
        return text
    col = rows[0].index("backend")
    masked = [rows[0]] + [r[:col] + ["*"] + r[col + 1:] if col < len(r) else r for r in rows[1:]]
    out = _serialize(masked)
    if _serialize(rows) != text:
        out += text
    return out


def fingerprint(csv_dir):
    """Simulated-work totals and a SHA-256 over every CSV in ``csv_dir``.

    Returns sim_steps, sim_rounds and sim_mass_tx (summed over the summary
    rows), csv_sha256, and bad_rows: summary rows whose ``status`` is not
    ``ok`` (sweep failures) or whose flood count is not a multiple of n.
    """
    digest = hashlib.sha256()
    steps = rounds = tx = bad = 0
    for name in sorted(os.listdir(csv_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(csv_dir, name), newline="") as f:
            text = f.read()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        digest.update(name.encode() + b"\0" + _hashed_text(text, rows).encode() + b"\0")
        if not rows or not all(c in rows[0] for c in _TOTALS):
            continue
        col = {c: rows[0].index(c) for c in _TOTALS + ("status",) if c in rows[0]}
        for row in rows[1:]:
            if "status" in col and row[col["status"]] != "ok":
                bad += 1
                continue
            n, floods = int(row[col["n"]]), int(row[col["total_flood_broadcasts"]])
            if floods % n:
                bad += 1
            steps += int(row[col["steps"]])
            rounds += floods // n
            tx += int(row[col["total_mass_transmissions"]])
    return {
        "sim_steps": steps,
        "sim_rounds": rounds,
        "sim_mass_tx": tx,
        "csv_sha256": digest.hexdigest(),
        "bad_rows": bad,
    }


def check(expect, observed, exit_code):
    """Why an invocation failed, or "" when it matched its workload record."""
    if exit_code != 0:
        return "exit code %r" % (exit_code,)
    if observed["bad_rows"]:
        return "%d summary rows not ok" % observed["bad_rows"]
    wrong = [
        "%s=%r (expected %r)" % (k, observed.get(k), expect.get(k))
        for k in FINGERPRINT_KEYS
        if observed.get(k) != expect.get(k)
    ]
    return "fingerprint mismatch: " + ", ".join(wrong) if wrong else ""


@dataclass
class Invocation:
    wall_s: float
    error: str  # "" when the invocation succeeded and matched its record
    observed: dict  # fingerprint(); empty when the CLI raised


def invoke(main, workload, work_dir):
    """Run one workload through ``main(argv)`` (the zoomgrad CLI) and check it.

    The config file and CSV reports live in a fresh directory under
    ``work_dir`` that is removed afterwards.  Only the ``main`` call is
    timed; the collector runs before it so garbage from earlier invocations
    is not charged to this one.
    """
    tmp = tempfile.mkdtemp(prefix="inv-", dir=work_dir)
    try:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as f:
            json.dump(workload["config"], f)
        csv_dir = os.path.join(tmp, "out")
        argv = [workload["command"], "--config", config_path, "--out", csv_dir]
        if "seeds" in workload:
            argv += ["--seeds", ",".join(map(str, workload["seeds"]))]
        sink = io.StringIO()
        gc.collect()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a counted failure, not the end of the run
            return Invocation(perf_counter() - start, "raised %r" % (exc,), {})
        wall = perf_counter() - start
        observed = fingerprint(csv_dir) if os.path.isdir(csv_dir) else {"bad_rows": 0}
        error = check(workload["expect"], observed, code)
        if code != 0 and sink.getvalue().strip():
            error += ": " + sink.getvalue().strip().splitlines()[-1]
        return Invocation(wall, error, observed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def instance_builds(workload):
    """The RunConfigs whose instances one invocation builds, one per seed."""
    from zoomgrad.config import RunConfig

    seeds = workload.get("seeds", [workload["config"]["seed"]])
    return [RunConfig.from_dict(dict(workload["config"], seed=s)) for s in seeds]


def time_setup(configs):
    """Host seconds to build every instance through the public builders."""
    from zoomgrad.graph import generate_random_digraph
    from zoomgrad.runner import build_costs, sample_x_init

    gc.collect()
    start = perf_counter()
    for c in configs:
        g = generate_random_digraph(c.n, c.edge_prob, c.seed)
        g.diameter  # computed on first access and cached on the graph
        costs = build_costs(c)
        sample_x_init(c, costs.global_optimum)
    return perf_counter() - start


def git_sha(root):
    """HEAD commit of ``root`` read from ``.git`` directly, or "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"
