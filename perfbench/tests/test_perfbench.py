"""Tests for the benchmark's own arithmetic and checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from zoomgrad.cli import main as cli_main  # noqa: E402

TINY = {
    "command": "run",
    "config": {"n": 6, "edge_prob": "1/2", "seed": 3, "stop": {"max_steps": 3}},
}


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 3],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"root": 3.0, "a": 5.0, "b": 1.0, "c": 1.0}
    assert sum(selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, None], ["x", 1.0, 3.0, 0], ["y", 2.0, 5.0, 0]]
    # children cover [1, 4] of the parent once, however they overlap
    assert tracing.self_times(spans)["p"] == 1.0


def test_tracer_links_nested_calls_to_their_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner() or inner(), "outer")
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    selfs = tracing.self_times(tracer.spans)
    assert selfs["outer"] + selfs["inner"] == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def test_summary_median_and_quartiles():
    assert harness.summarize([5, 1, 4, 2, 3]) == {"median": 3, "q1": 1.5, "q3": 4.5, "n": 5}
    assert harness.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        harness.summarize([])


def _recorded(tmp_path):
    """TINY with the fingerprint its first invocation produced."""
    first = harness.invoke(cli_main, dict(TINY, expect={}), str(tmp_path))
    assert first.error.startswith("fingerprint mismatch")
    return dict(TINY, expect={k: first.observed[k] for k in harness.FINGERPRINT_KEYS})


def test_fingerprint_mismatch_counts_as_failure(tmp_path):
    workload = _recorded(tmp_path)
    good = harness.invoke(cli_main, workload, str(tmp_path))
    assert good.error == ""
    wrong = dict(workload, expect=dict(workload["expect"], sim_rounds=workload["expect"]["sim_rounds"] + 1))
    bad = harness.invoke(cli_main, wrong, str(tmp_path))
    assert "fingerprint mismatch" in bad.error and "sim_rounds" in bad.error
    line = run.result_line([good, bad], {"wall_s": harness.summarize([good.wall_s])}, run.END_TO_END)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert list(line["metrics"]) == ["wall_s"]
    assert os.listdir(tmp_path) == []  # invocation directories are removed


def test_cli_failure_counts_as_failure(tmp_path):
    broken = dict(TINY, config=dict(TINY["config"], n=1), expect={})
    error = harness.invoke(cli_main, broken, str(tmp_path)).error
    assert error.startswith("exit code 1: error: invalid config - n:")


def _write_csv(path, backend, cell="7"):
    path.write_text("seed,steps,backend\n1,%s,%s\n" % (cell, backend))


def test_fingerprint_masks_only_the_backend_column(tmp_path):
    hashes = []
    for backend, cell in (("pure", "7"), ("compiled", "7"), ("pure", "8")):
        _write_csv(tmp_path / "summary.csv", backend, cell)
        hashes.append(harness.fingerprint(str(tmp_path))["csv_sha256"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_missing_hook_point_leaves_its_metrics_out(tmp_path, monkeypatch):
    import zoomgrad.optimizer

    monkeypatch.delattr(zoomgrad.optimizer, "error_metric")
    tracer = tracing.Tracer()
    with tracing.installed(tracer.wrap) as missing:
        pass
    assert missing == ["zoomgrad.optimizer.error_metric"]
    metrics = tracing.layer_metrics(tracer, missing)
    assert "metrics.error_metric_s" not in metrics
    assert "metrics.error_metric_calls" not in metrics
    assert "consensus.s" in metrics


def test_hooks_are_restored_after_a_traced_invocation(tmp_path):
    import zoomgrad.optimizer

    original = zoomgrad.optimizer.run_consensus
    tracer = tracing.Tracer()
    with tracing.installed(tracer.wrap) as missing:
        inv = harness.invoke(tracer.wrap(cli_main, tracing.ROOT), dict(TINY, expect={}), str(tmp_path))
    assert zoomgrad.optimizer.run_consensus is original
    assert missing == [] and inv.observed["sim_steps"] == 3
    metrics = tracing.layer_metrics(tracer, missing)
    assert metrics["optimizer.steps"] == metrics["consensus.calls"] == 3
    assert metrics["consensus.rounds"] == inv.observed["sim_rounds"]
    root = tracer.spans[0]
    covered = sum(metrics[name] for name in tracing.SELF_TIME)
    assert covered == pytest.approx(root[2] - root[1])


def test_benchmark_json_lists_what_the_runs_print(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    tracer = tracing.Tracer()
    with tracing.installed(tracer.wrap) as missing:
        harness.invoke(tracer.wrap(cli_main, tracing.ROOT), dict(TINY, expect={}), str(tmp_path))
    traced = set(tracing.layer_metrics(tracer, missing)) | {"trace.wall_s", "trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(harness.load_workloads())


def test_compare_refuses_different_backends(tmp_path, capsys):
    record = {"workload": "w", "trace": 0, "backend": "pure", "metrics": {"wall_s": {"median": 2.0}}}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record) + "\n")
    new.write_text(json.dumps(dict(record, metrics={"wall_s": {"median": 1.0}})) + "\n")
    assert compare.main([str(base), str(new)]) == 0
    assert "0.5" in capsys.readouterr().out
    new.write_text(json.dumps(dict(record, backend="compiled")) + "\n")
    assert compare.main([str(base), str(new)]) == 2


def test_parity_replay_passes_on_identical_backends(tmp_path):
    inv, status = run.parity_run(cli_main, dict(TINY, expect={}), str(tmp_path))
    assert status.startswith("ok: 3 consensus calls")
    assert inv.observed["sim_steps"] == 3


def test_parity_replay_flags_a_backend_that_diverges(tmp_path, monkeypatch):
    import zoomgrad.optimizer

    real = zoomgrad.optimizer.run_consensus

    def skewed(x_half, q, g, rng, **kwargs):
        out = real(x_half, q, g, rng, **kwargs)
        if kwargs.get("force_backend") != "pure":
            rng.next_u32()  # leaves the RNG one draw ahead of the pure path
        return out

    monkeypatch.setattr(zoomgrad.optimizer, "run_consensus", skewed)
    workload = _recorded(tmp_path)
    inv, status = run.parity_run(cli_main, workload, str(tmp_path))
    assert status == "DIVERGED on 3 of 3 consensus calls"
    assert inv.error.startswith("backend parity diverged")
