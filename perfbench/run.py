"""zoomgrad benchmark: one workload through the zoomgrad CLI, timed or traced.

Run from the root of a zoomgrad checkout (it imports that checkout's
``src/``, never an installed copy):

    python3 perfbench/run.py --workload ref-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ref-sweep --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload ref-sweep --check

Each invocation calls ``zoomgrad.cli.main`` in this process, one at a time
(a closed loop with one client; no worker pool), and checks the CSV reports
against the workload's recorded fingerprint in ``workloads.json``.  The
workloads are fixed instances: ``--seed`` is recorded with the result but
does not change them, because the simulator's work depends strongly on the
instance and the exact-output check needs a recorded fingerprint.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (spans recorded around the calls into each module) and the tracing
overhead, and ``--check`` runs one untimed invocation and prints its
fingerprint.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 1 when any
invocation failed or did not match its fingerprint, and 2 when the
benchmark could not start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import harness
import reference
import tracing

MIN_INVOCATIONS = 3  # timed invocations per run, even when --seconds is short
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per traced run
SETUP_BATCHES = 3  # batches of instance builds per run for setup_s, each ...
SETUP_BATCH_S = 0.5  # ... at least one build and at least this long

# Gated end-to-end metrics (BENCHMARK.json; times in reference seconds, see
# reference.py) and the raw host figures printed beside them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PRINTED = dict(END_TO_END, wall_host_s="s", setup_host_s="s", rounds_per_s="1/s", reference_s="s")


def layer_unit(name):
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("us_per_round"):
        return "us"
    return "s" if name.endswith(("_s", ".s")) else "count"


def build_in_place(root):
    """Build the package's optional extension into ``src/``, once per checkout.

    ``setup.py`` downgrades to a pure build when the kernel cannot be
    compiled, so a failed or skipped build still leaves a usable package;
    the backend that actually loads is reported with every result.
    """
    log_dir = os.path.join(root, ".perfbench_build")
    log_path = os.path.join(log_dir, "build.log")
    if os.path.exists(log_path) or not os.path.isfile(os.path.join(root, "setup.py")):
        return
    os.makedirs(log_dir, exist_ok=True)
    with open(log_path, "w") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=root,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=600,
        )
        log.write("\nexit code %d\n" % proc.returncode)


def cannot_start(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def import_checkout(root):
    """Import ``zoomgrad`` from ``root/src``; exit 2 with a message otherwise."""
    init = os.path.join(root, "src", "zoomgrad", "__init__.py")
    if not os.path.isfile(init):
        cannot_start("%s not found; run from the root of a zoomgrad checkout" % init)
    build_in_place(root)
    sys.path.insert(0, os.path.join(root, "src"))
    import zoomgrad
    import zoomgrad.cli
    import zoomgrad.consensus

    if os.path.realpath(zoomgrad.__file__) != os.path.realpath(init):
        cannot_start("imported zoomgrad from %s, not from this checkout" % zoomgrad.__file__)
    backend = getattr(zoomgrad.consensus, "active_backend", lambda: "unknown")()
    return zoomgrad.cli.main, backend


def repeat(fn, seconds, minimum):
    """Call ``fn`` until ``seconds`` have passed and it ran ``minimum`` times."""
    out = []
    start = perf_counter()
    while len(out) < minimum or perf_counter() - start < seconds:
        out.append(fn())
    return out


def timed_run(cli_main, workload, work_dir, seconds):
    """Batches of instance builds, then timed invocations.

    The reference kernel runs before the first batch and after each batch
    and invocation; each gated sample is scaled by the kernel times around
    it (``reference.scaled``).
    """
    builds = harness.instance_builds(workload)
    refs = [reference.seconds()]
    setups = []
    for _ in range(SETUP_BATCHES):
        batch = repeat(lambda: harness.time_setup(builds), SETUP_BATCH_S, 1)
        refs.append(reference.seconds())
        setups += [(t, reference.scaled(t, refs[-2], refs[-1])) for t in batch]
    walls = []

    def one():
        invocation = harness.invoke(cli_main, workload, work_dir)
        refs.append(reference.seconds())
        walls.append((invocation.wall_s, reference.scaled(invocation.wall_s, refs[-2], refs[-1])))
        return invocation

    invocations = repeat(one, seconds, MIN_INVOCATIONS)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux reports KiB
    rates = [i.observed["sim_rounds"] / i.wall_s for i in invocations if i.observed.get("sim_rounds")]
    metrics = {
        "wall_s": harness.summarize([scaled for _, scaled in walls]),
        "setup_s": harness.summarize([scaled for _, scaled in setups]),
        "peak_rss_mib": harness.summarize([peak_kib / 1024]),
        "wall_host_s": harness.summarize([host for host, _ in walls]),
        "setup_host_s": harness.summarize([host for host, _ in setups]),
        "reference_s": harness.summarize(refs),
    }
    if rates:
        metrics["rounds_per_s"] = harness.summarize(rates)
    return invocations, metrics, []


def traced_run(cli_main, workload, work_dir, seconds):
    """Alternate untraced and traced invocations; per-layer medians.

    The untraced twin of each traced invocation gives the tracing overhead.
    """

    def pair():
        plain = harness.invoke(cli_main, workload, work_dir)
        tracer = tracing.Tracer()
        with tracing.installed(tracer.wrap) as missing:
            traced = harness.invoke(tracer.wrap(cli_main, tracing.ROOT), workload, work_dir)
        return plain, traced, tracing.layer_metrics(tracer, missing), missing

    pairs = repeat(pair, seconds, MIN_TRACED_PAIRS)
    layers = [layer for _, _, layer, _ in pairs]
    metrics = {name: harness.summarize([layer[name] for layer in layers]) for name in layers[0]}
    metrics["trace.wall_s"] = harness.summarize([t.wall_s for _, t, _, _ in pairs])
    metrics["trace_overhead_frac"] = harness.summarize([t.wall_s / p.wall_s - 1 for p, t, _, _ in pairs])
    covered = [sum(layer.get(n, 0.0) for n in tracing.SELF_TIME) / t.wall_s for (_, t, layer, _) in pairs]
    print("layer self times cover %.2f%% of the traced wall_s (median over invocations)" % (100 * statistics.median(covered)))
    return [i for p, t, _, _ in pairs for i in (p, t)], metrics, pairs[-1][3]


def parity_run(cli_main, workload, work_dir):
    """One invocation that replays every consensus call on the pure path.

    A call whose result, rounds, mass transmissions or final RNG state
    differ from its pure replay marks the invocation failed.  Returns the
    invocation and a one-line status.
    """
    calls = []

    def wrap(run_consensus, span, counter):
        def checked(x_half, q, g, rng, **kwargs):
            before = rng.getstate()
            results, stats = run_consensus(x_half, q, g, rng, **kwargs)
            replay = type(rng)(0)
            replay.setstate(before)
            ref, ref_stats = run_consensus(x_half, q, g, replay, force_backend="pure")
            got = (results, stats.rounds, stats.mass_transmissions, rng.getstate())
            calls.append(got != (ref, ref_stats.rounds, ref_stats.mass_transmissions, replay.getstate()))
            return results, stats

        return checked

    with tracing.installed(wrap, [("zoomgrad.optimizer", "run_consensus", "consensus", None)]) as missing:
        if missing:
            return None, "SKIPPED: hook point %s not found" % missing[0]
        invocation = harness.invoke(cli_main, workload, work_dir)
    diverged = sum(calls)
    if diverged:
        invocation.error = invocation.error or "backend parity diverged on %d of %d consensus calls" % (diverged, len(calls))
        return invocation, "DIVERGED on %d of %d consensus calls" % (diverged, len(calls))
    return invocation, "ok: %d consensus calls identical on the pure path" % len(calls)


def result_line(invocations, metrics, names):
    """The JSON object printed last: correctness, counts, metric medians."""
    failed = sum(1 for i in invocations if i.error)
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["median"], "unit": unit}
            for name, unit in names.items()
            if name in metrics
        },
    }


def main(argv=None):
    workloads = harness.load_workloads()
    parser = argparse.ArgumentParser(description="zoomgrad benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0, help="recorded with the result; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="one untimed invocation; print its fingerprint")
    parser.add_argument("--out", metavar="FILE", help="append the full result record to FILE (JSON lines)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli_main, backend = import_checkout(root)
    workload = workloads[args.workload]
    work_root = os.path.join(root, ".perfbench_out")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return _run(args, workload, cli_main, backend, root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, workload, cli_main, backend, root, work_dir):
    label = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": backend,
        "python": platform.python_version(),
        "git_sha": harness.git_sha(root),
    }
    print("zoomgrad benchmark: " + " ".join("%s=%s" % kv for kv in label.items()))

    if args.check:
        invocation = harness.invoke(cli_main, workload, work_dir)
        observed = {k: invocation.observed.get(k) for k in harness.FINGERPRINT_KEYS}
        print("observed fingerprint: " + json.dumps(observed))
        print("check: " + (invocation.error or "matches workloads.json"))
        return 1 if invocation.error else 0

    if args.trace:
        invocations, metrics, missing = traced_run(cli_main, workload, work_dir, args.seconds)
        names = units = {name: layer_unit(name) for name in metrics}
    else:
        invocations, metrics, missing = timed_run(cli_main, workload, work_dir, args.seconds)
        names, units = END_TO_END, PRINTED

    parity = "not run (timed mode)"
    if args.trace and backend == "compiled":
        invocation, parity = parity_run(cli_main, workload, work_dir)
        if invocation is not None:
            invocations.append(invocation)
    elif args.trace:
        parity = (
            "SKIPPED: the compiled consensus kernel is not built, so only the "
            "pure path was measured and nothing was compared"
        )
    print("backend parity check: " + parity)

    failed = [i.error for i in invocations if i.error]
    for error in failed:
        print("FAILED invocation: " + error)
    for name, s in sorted(metrics.items()):
        print("%-28s %14.6g %-5s  q1 %.6g  q3 %.6g  n=%d" % (name, s["median"], units[name], s["q1"], s["q3"], s["n"]))
    print("%-28s %14.6g %-5s  (%d of %d invocations)" % ("failed_frac", len(failed) / len(invocations), "ratio", len(failed), len(invocations)))
    if missing:
        print("hook points not found (their layer metrics are absent): " + ", ".join(missing))

    line = result_line(invocations, metrics, names)
    if args.out:
        record = dict(label, parity=parity, missing_hooks=missing, attempted=line["attempted"], failed=line["failed"], metrics=metrics)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
