"""The failure contract of the commands, checked by a config fuzzer.

Every config ends one of two ways: exit 0 with the command's reports
written, or exit 1 with exactly one ``error:`` line on stderr, no traceback
and no output directory.  The configs are drawn from ``config.BLOCKS`` and
the top-level fields of ``RunConfig``, each with valid, boundary and
wrong-type values, and run through ``cli.main`` in process for ``run``,
``compare`` and a 2-seed ``sweep``.  An exception that escapes ``main``
fails the test: it is the traceback the command line would print.

Every run stays small: n is at most 8, or the node count 2**25 - 1 that the
config refuses, and every config has a stop block
whose ``max_steps``, when it is valid, is at most 5 (an unset ``max_steps``
would let a run go on to its error target, so it is never drawn).
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zoomgrad.cli import main
from zoomgrad.config import BLOCKS

COMMANDS = {
    "run": (["run"], ["history.csv", "summary.csv"]),
    "compare": (["compare"], ["compare.csv", "compare_summary.csv"]),
    "sweep": (["sweep", "--seeds", "0:2"], ["sweep_aggregate.csv", "sweep_seeds.csv"]),
}

# Each pool is (valid values, boundary and wrong-type values); every value
# has a JSON form.
WRONG = st.sampled_from([True, None, "abc", [1], {"a": 1}, 2.5])
RATIONAL = (
    st.sampled_from(["1/2", "3/25", "4/3", "2", "0.1", 3, 0.25]),
    st.one_of(st.sampled_from(["0", "-1/2", "1", "1e-30", "1e30", "1e400", "1/0", "", 0, -1]), WRONG),
)
SMALL_INT = (st.integers(min_value=1, max_value=9), st.one_of(st.sampled_from([0, -1, 2**64, "3", 3.0]), WRONG))

TOP_LEVEL = {
    "n": (st.integers(min_value=2, max_value=8), st.one_of(st.sampled_from([0, 1, -1, 2**25 - 1, "4", 4.0]), WRONG)),
    "edge_prob": (st.sampled_from(["1/2", "0", "1", "1/50", 0.3]), RATIONAL[1]),
    "seed": SMALL_INT,
    "alpha": RATIONAL,
    "delta0": (st.sampled_from(["1/10", "1/100", "1/1000", "1/2", "3"]), RATIONAL[1]),  # the fixed levels' own first
    "c_in": RATIONAL,
    "c_out": RATIONAL,
    "b_q0": (st.sampled_from(["0", "-3/2", "7", "1e30"]), RATIONAL[1]),
    "x_init_range": (
        st.sampled_from([["1", "5"], [0, 0], ["-1/3", "2"], [-100, 100]]),
        st.one_of(st.lists(st.one_of(*RATIONAL), max_size=3), WRONG),
    ),
    "x_init_grid": (st.sampled_from(["1/100", "1", "7/3", "10"]), RATIONAL[1]),
    "turbo": (st.nothing(), st.just(1)),  # no such field
}

# Per nested key: the values it is drawn from.
KEYS = {
    "quantizer_width": (st.sampled_from([1, 2, 3, 8, 64, 2**20]), st.one_of(st.sampled_from([0, -1, "3"]), WRONG)),
    "c_refine": RATIONAL,
    "b_pm": SMALL_INT,
    "value_set": (
        st.one_of(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4), st.just([10**30])),
        st.one_of(st.sampled_from([[], [0], [True, 2], [1.5], "12"]), WRONG),
    ),
    "seed": (st.one_of(st.none(), st.integers(min_value=-3, max_value=2**64)), st.one_of(st.just("x"), WRONG)),
    "shared_x0": (st.booleans(), st.one_of(st.sampled_from(["yes", 0]), WRONG)),
    # An unset max_steps would let a run go on to its error target.
    "max_steps": (st.integers(min_value=0, max_value=5), st.sampled_from([-1, "3", 2.5, True, [2]])),
    "target_error": (
        st.sampled_from([None, 1e-5, 0.5, 1e300]),
        st.one_of(st.sampled_from([0, -1, float("inf"), float("nan"), "1e-5"]), WRONG),
    ),
    "typo": (st.nothing(), st.just(1)),  # read by no variant
}


def pick(draw, pool, clean):
    """A value of ``pool``: a valid one when ``clean``, else any."""
    return draw(pool[0] if clean else st.one_of(*pool))


@st.composite
def block(draw, name, n, clean):
    """One nested block: a variant (or a bad selector) and a subset of its keys."""
    selector, variants = BLOCKS[name]
    names = list(variants)
    variant = draw(st.sampled_from(names if clean else names + ["no_such_variant", None, 5]))
    spec = {} if selector is None else {selector: variant}
    keys = (list(variants[variant]) if variant in names else []) + ([] if clean else ["typo"])
    for key in draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []:
        spec[key] = draw(costs(n, clean)) if key == "costs" else pick(draw, KEYS[key], clean)
    return spec


@st.composite
def costs(draw, n, clean):
    """An explicit cost list: one (beta, x0) pair per node, or a malformed list."""
    pairs = st.lists(st.lists(RATIONAL[0], min_size=2, max_size=2), min_size=n, max_size=n)
    if clean:
        return draw(pairs)
    pair = st.one_of(st.lists(st.one_of(*RATIONAL), min_size=2, max_size=2), st.lists(RATIONAL[0], max_size=3), WRONG)
    return draw(st.one_of(pairs, st.lists(pair, max_size=3), WRONG))


@st.composite
def configs(draw):
    """A config whose every value is valid (half of them), or one that mixes in bad values."""
    clean = draw(st.booleans())
    n = pick(draw, TOP_LEVEL["n"], clean)
    config = {"n": n}
    size = n if type(n) is int and 0 <= n <= 8 else 2
    for key in draw(st.lists(st.sampled_from(sorted(set(TOP_LEVEL) - {"n"})), unique=True, max_size=4)):
        if clean and key == "turbo":
            continue
        config[key] = pick(draw, TOP_LEVEL[key], clean)
    for name in draw(st.lists(st.sampled_from(["policy", "cost_spec", "accounting"]), unique=True)):
        config[name] = draw(block(name, size, clean) if clean else st.one_of(block(name, size, clean), WRONG))
    stop = draw(block("stop", size, clean))
    stop.setdefault("max_steps", pick(draw, KEYS["max_steps"], clean))  # bounded unless it is refused
    config["stop"] = stop if clean else draw(st.one_of(st.just(stop), WRONG))
    return config


def outcome(command, config):
    """Run ``command`` on ``config`` and check that it kept the contract; returns its exit code."""
    argv, reports = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(config, f)
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--config", path, "--out", out])
        if code == 0:
            assert sorted(os.listdir(out)) == reports
        else:
            lines = stderr.getvalue().splitlines()
            assert code == 1, (code, lines)
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not os.path.exists(out)
    return code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_config_exits_0_with_its_reports_or_1_with_one_error_line(command):
    codes = []

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=timedelta(seconds=10),
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(configs())
    def check(config):
        codes.append(outcome(command, config))

    check()
    assert 0 in codes and 1 in codes  # the draws reach both ends of the contract

