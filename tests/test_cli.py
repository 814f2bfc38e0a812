"""Command-line interface: flag parsing, config layering, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import zoomgrad
from zoomgrad import optimizer
from zoomgrad.cli import _build_config, _parse_seeds, main
from zoomgrad.config import RunConfig
from zoomgrad.consensus import ConsensusCapError
from zoomgrad.runner import SUMMARY_COLUMNS, SWEEP_COLUMNS


def summary_row(path):
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def one_error_line(capsys):
    """The single stderr line of a failed command, which starts "error: "."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_parse_seeds():
    assert _parse_seeds(None, [7]) == [7]
    assert _parse_seeds("0:4", [7]) == [0, 1, 2, 3]
    assert _parse_seeds("3,7,11", [0]) == [3, 7, 11]
    assert _parse_seeds("5", [0]) == [5]
    assert _parse_seeds("2:2", [0]) == []


def test_run_with_flags(tmp_path):
    rc = main(
        [
            "run",
            "--seed", "3",
            "--nodes", "5",
            "--alpha", "1/10",
            "--max-steps", "50",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    row = summary_row(tmp_path / "summary.csv")
    assert row["seed"] == "3" and row["n"] == "5"
    assert int(row["steps"]) <= 50
    assert (tmp_path / "history.csv").exists()


def test_config_file_plus_flag_override(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"seed": 9, "n": 4, "stop": {"max_steps": 6}})
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--seed", "12", "--out", str(out)])
    assert rc == 0
    row = summary_row(out / "summary.csv")
    assert row["seed"] == "12"  # the flag wins over the file
    assert row["n"] == "4"  # untouched file values survive
    assert row["steps"] == "6"


def cli_args(command, config=None, **flags):
    """The namespace the parser gives ``command`` with ``flags`` set and every other flag unset."""
    unset = dict.fromkeys(("seed", "n", "alpha", "delta0", "c_in", "c_out", "policy", "max_steps", "target_error"))
    return argparse.Namespace(command=command, config=config, **dict(unset, accounting=None, out_dir=None, **flags))


def write_config(tmp_path, d):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_build_config_merge_rules(tmp_path):
    # A stop flag sets its one key: the other keeps the default block's value.
    assert _build_config(cli_args("run", max_steps=7)) == RunConfig(stop={"max_steps": 7, "target_error": 1e-5})
    assert _build_config(cli_args("run", target_error=0.5)) == RunConfig(stop={"max_steps": 200, "target_error": 0.5})
    # ... or the file's stop block's, when the file has one.
    path = write_config(tmp_path, {"n": 4, "stop": {"max_steps": 6}})
    assert _build_config(cli_args("run", path, target_error=0.5)) == RunConfig(
        n=4, stop={"max_steps": 6, "target_error": 0.5}
    )
    # Without a flag the file's stop block replaces the default block whole.
    assert _build_config(cli_args("run", path)) == RunConfig(n=4, stop={"max_steps": 6})
    # compare drops the file's policy block; run and sweep keep it.
    policy = {"variant": "refine_only", "c_refine": "5/2"}
    path = write_config(tmp_path, {"seed": 3, "policy": policy})
    assert _build_config(cli_args("compare", path)) == RunConfig(seed=3)
    assert _build_config(cli_args("sweep", path)) == RunConfig(seed=3, policy=policy)
    # A flag wins over the file, and an unset one leaves the file's value.
    assert _build_config(cli_args("run", path, seed=8, alpha="1/10")) == RunConfig(
        seed=8, alpha=F(1, 10), policy=policy
    )


def test_flags_match_api_run(tmp_path):
    out = tmp_path / "cli"
    assert main(["run", "--seed", "1", "--out", str(out)]) == 0
    from zoomgrad.runner import cmd_run

    api_out = tmp_path / "api"
    assert cmd_run(RunConfig(seed=1, out_dir=str(api_out))) == 0
    assert (out / "history.csv").read_bytes() == (api_out / "history.csv").read_bytes()
    assert (out / "summary.csv").read_bytes() == (api_out / "summary.csv").read_bytes()


def test_accounting_flag_reaches_summary(tmp_path):
    out = tmp_path / "m"
    rc = main(
        ["run", "--seed", "2", "--nodes", "5", "--max-steps", "30",
         "--accounting", "measured", "--out", str(out)]
    )
    assert rc == 0
    row = summary_row(out / "summary.csv")
    assert row["accounting_mode"] == "measured"
    # both prices are logged; the idealized one is a flat 3 bits per symbol
    assert int(row["total_bits_paper_mode"]) == 3 * int(row["total_mass_transmissions"])
    assert int(row["total_bits_measured_mode"]) > 0


def test_policy_flag(tmp_path):
    out = tmp_path / "r"
    rc = main(
        ["run", "--seed", "2", "--nodes", "5", "--policy", "refine_only",
         "--max-steps", "40", "--out", str(out)]
    )
    assert rc == 0
    assert summary_row(out / "summary.csv")["policy"] == "refine_only"


def test_bad_rational_flag_exits_1(tmp_path, capsys):
    rc = main(["run", "--alpha", "1/0", "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid config" in capsys.readouterr().err


def test_invalid_config_value_exits_1(tmp_path, capsys):
    rc = main(["run", "--nodes", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid config" in capsys.readouterr().err


def test_a_node_count_beyond_the_kernel_bound_exits_1(kernel, tmp_path, capsys):
    # One node more than the kernel takes is a config error, refused before
    # any graph is drawn: no traceback and no output directory.
    out = tmp_path / "out"
    rc = main(["run", "--nodes", "33554431", "--max-steps", "1", "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: invalid config - n: ")
    assert not out.exists()


def test_infinite_target_error_exits_1(tmp_path, capsys):
    rc = main(["run", "--target-error", "inf", "--max-steps", "3", "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid config - stop.target_error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config,field",
    [
        ({"stop": {"max_steps": 3, "target_error": "1e-5"}}, "stop.target_error"),
        (
            {"policy": {"variant": "adaptive_zoom", "quantizer_width": 0}, "stop": {"max_steps": 3}},
            "policy.quantizer_width",
        ),
        ({"policy": {"variant": "fixed_level"}, "delta0": "1/7", "stop": {"max_steps": 3}}, "delta0"),
        (
            {"policy": {"variant": "fixed_level", "b_pm": "x"}, "delta0": "1/10", "stop": {"max_steps": 3}},
            "policy.b_pm",
        ),
        ({"x_init_grid": "1/10000000000", "stop": {"max_steps": 3}}, "x_init_grid"),
        (
            {"cost_spec": {"kind": "random", "value_set": [True, 2]}, "stop": {"max_steps": 3}},
            "cost_spec.value_set",
        ),
        ({"cost_spec": {"kind": "random", "seed": "x"}, "stop": {"max_steps": 3}}, "cost_spec.seed"),
        ({"cost_spec": {"kind": "random", "seed": True}, "stop": {"max_steps": 3}}, "cost_spec.seed"),
        ({"cost_spec": {"kind": "random", "shared_x0": "yes"}, "stop": {"max_steps": 3}}, "cost_spec.shared_x0"),
        (
            {"n": 2, "cost_spec": {"kind": "explicit", "costs": ["12", "34"]}, "stop": {"max_steps": 3}},
            "cost_spec.costs[0]",
        ),
        (
            {"n": 2, "cost_spec": {"kind": "explicit", "costs": [["1", "2", "9"], ["1", "2"]]}, "stop": {"max_steps": 3}},
            "cost_spec.costs[0]",
        ),
        ({"n": 2, "cost_spec": {"kind": "explicit", "costs": 5}, "stop": {"max_steps": 3}}, "cost_spec.costs: "),
        ({"cost_spec": {"kind": "random", "value_set": 5}, "stop": {"max_steps": 3}}, "cost_spec.value_set"),
    ],
)
def test_invalid_config_file_exits_1(config, field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert "invalid config - " + field in capsys.readouterr().err
    assert not out.exists()


def test_unread_nested_keys_exit_1_and_write_nothing(tmp_path, capsys):
    # Each misspelled or foreign key would otherwise be ignored and the run
    # would go ahead on the defaults; the first one is named.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "policy": {"variant": "adaptive_zoom", "quantizer_widht": 5},
        "stop": {"max_steps": 3, "taget_error": 1e-9},
        "cost_spec": {"kind": "random", "valueset": [2]},
        "accounting": {"mode": "measured", "b_pm": 3},
    }))
    out = tmp_path / "out"
    rc = main(["run", "--seed", "3", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: invalid config - policy.quantizer_widht: ")
    assert not out.exists()


def test_malformed_stop_block_with_a_stop_flag_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"stop": 5}))
    rc = main(["run", "--config", str(path), "--max-steps", "3", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "invalid config - stop: expected an object" in capsys.readouterr().err


def test_fixed_level_without_a_step_bound_exits_1_and_writes_nothing(tmp_path, capsys):
    # An error target alone never stops a fixed level, whose error has a floor.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"policy": {"variant": "fixed_level"}, "delta0": "1/10", "stop": {"target_error": 1e-9}}))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: invalid config - stop.max_steps: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0:2"]])
def test_fixed_level_without_standard_width_exits_1(command, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(command + ["--policy", "fixed_level", "--delta0", "1/7", "--out", str(out)])
    assert rc == 1
    assert "invalid config - delta0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["abc", "-3,1", "-3:2", "0:x", "1:2:3", "1.5"])
def test_bad_seeds_exit_1(spec, tmp_path, capsys):
    rc = main(["sweep", "--nodes", "4", "--max-steps", "5", "--seeds=" + spec, "--out", str(tmp_path)])
    assert rc == 1
    assert "error: invalid config - seeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_empty_seed_list_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sweep", "--seeds", "2:2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: sweep needs a nonempty seed list\n"
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_round_cap_failure_exits_1(command, tmp_path, monkeypatch, capsys):
    # A consensus that hits its round cap aborts the command: exit 1, the
    # cap and the failing step on stderr, and no report written.
    real = optimizer.run_consensus
    calls = []

    def capped_third_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise ConsensusCapError(7)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "run_consensus", capped_third_call)
    rc = main([command, "--seed", "1", "--nodes", "4", "--max-steps", "10", "--out", str(tmp_path)])
    assert rc == 1
    assert one_error_line(capsys) == "error: consensus did not settle (round cap 7) at optimization step 3"
    assert not (tmp_path / "history.csv").exists()
    assert list(tmp_path.iterdir()) == []


def test_a_report_value_beyond_a_float_exits_1_and_writes_nothing(tmp_path, capsys):
    # history.csv renders b_q as a float too; a basis of 1e400 overflows it.
    # The reports are rendered before the output directory is made, so no
    # partial history.csv is left behind.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"b_q0": "1e400", "stop": {"max_steps": 2}}))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: a value overflowed a float - ")
    assert not out.exists()


def test_a_diverging_error_metric_exits_1_and_writes_nothing(tmp_path, capsys):
    # At alpha = 100 the estimate diverges until the logged error, a float,
    # overflows mid-run.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": "100", "stop": {"max_steps": 300}}))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: a value overflowed a float - ")
    assert not out.exists()


def test_a_huge_quantizer_width_runs_in_bounded_time_and_memory(tmp_path):
    # The saturation test used to build 2**(width - 1): at width 2**40 a
    # 2**40-bit integer.  The run goes in a child process capped at 1 GiB of
    # address space, so a build that does that fails fast instead of
    # exhausting the host's memory.
    path = write_config(tmp_path, {
        "n": 2, "seed": 7, "policy": {"variant": "adaptive_zoom", "quantizer_width": 2**40}, "stop": {"max_steps": 3},
    })
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from zoomgrad.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    src = os.path.dirname(os.path.dirname(zoomgrad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, "run", "--config", path, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) < 1.0
    assert summary_row(tmp_path / "out" / "summary.csv")["steps"] == "3"


def test_bad_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "warp_drive"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_seeds_flag(tmp_path):
    rc = main(
        ["sweep", "--nodes", "5", "--max-steps", "60", "--seeds", "0:3",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "sweep_seeds.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert (tmp_path / "sweep_aggregate.csv").exists()


def test_sweep_defaults_to_config_seed(tmp_path):
    rc = main(
        ["sweep", "--seed", "8", "--nodes", "4", "--max-steps", "40",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "sweep_seeds.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[0] == "8"


def test_compare_smoke(tmp_path):
    rc = main(
        ["compare", "--seed", "5", "--nodes", "4", "--max-steps", "25",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "k"
    assert len(lines) >= 3
    summary = (tmp_path / "compare_summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 6


@pytest.mark.parametrize(
    "flags,config",
    [
        (["--policy", "fixed_level"], None),  # no standard width at delta0 = 1/2
        ([], {"policy": {"variant": "refine_only", "c_refine": 1}}),
    ],
)
def test_compare_ignores_the_policy_it_replaces(flags, config, tmp_path):
    # compare runs its own five policies, so a policy block that run would
    # refuse does not stop it.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = flags + ["--config", str(path)]
    rc = main(["compare", "--seed", "5", "--nodes", "4", "--max-steps", "25", "--out", str(tmp_path / "out")] + flags)
    assert rc == 0
    assert len((tmp_path / "out" / "compare_summary.csv").read_text().splitlines()) == 6


def test_compare_refuses_a_field_it_uses(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["compare", "--alpha", "0", "--out", str(out)])
    assert rc == 1
    assert "invalid config - alpha" in capsys.readouterr().err
    assert not out.exists()


def test_table1_smoke(tmp_path):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table_bits.csv").read_text()
    assert "11441.52" in text and "25425.60" in text
    assert "31.782" in (tmp_path / "table_avg_bits.csv").read_text()


# A small, fast instance of each command; table1 takes no config flags.
COMMANDS = {
    "run": ["run", "--nodes", "4", "--max-steps", "3"],
    "sweep": ["sweep", "--nodes", "4", "--max-steps", "3", "--seeds", "0:2"],
    "compare": ["compare", "--nodes", "4", "--max-steps", "3"],
    "table1": ["table1"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_out_naming_a_file_exits_1(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(COMMANDS[command] + ["--out", str(taken)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: [Errno 17] File exists: ")
    assert taken.read_text() == "not a directory"
    assert list(tmp_path.iterdir()) == [taken]


def test_out_dir_env_naming_a_file_exits_1(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    monkeypatch.setenv("ZOOMGRAD_OUT_DIR", str(taken))
    monkeypatch.chdir(tmp_path)
    rc = main(COMMANDS["run"])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: [Errno 17] File exists: ")
    assert list(tmp_path.iterdir()) == [taken]


def test_undecodable_config_exits_1_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    out = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith("error: invalid config - <file>: not valid JSON: ")
    assert not out.exists()


def test_empty_out_falls_back_to_env_then_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ZOOMGRAD_OUT_DIR", str(tmp_path / "env"))
    assert main(COMMANDS["run"] + ["--out", ""]) == 0
    assert (tmp_path / "env" / "summary.csv").exists()
    monkeypatch.delenv("ZOOMGRAD_OUT_DIR")
    assert main(COMMANDS["run"] + ["--out", ""]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_module_entry_point_fails_without_traceback(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    src = os.path.dirname(os.path.dirname(zoomgrad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zoomgrad.cli"] + COMMANDS["run"] + ["--out", str(taken)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
