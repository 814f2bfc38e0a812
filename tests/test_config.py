"""Configuration: defaults, exact rational parsing, validation messages,
and reading a config file's JSON object.
"""

import json
import os
from fractions import Fraction as F

import pytest

from zoomgrad.config import BLOCKS, ConfigError, RunConfig, json_object, parse_rational
from zoomgrad.metrics import FIXED_LEVEL_WIDTHS
from zoomgrad.runner import run_single


def test_defaults():
    c = RunConfig()
    assert c.n == 20
    assert c.edge_prob == F(1, 2)
    assert c.seed == 1
    assert c.alpha == F(3, 25)
    assert c.delta0 == F(1, 2)
    assert c.c_in == F(4, 3)
    assert c.c_out == F(2)
    assert c.b_q0 == F(0)
    assert c.policy == {"variant": "adaptive_zoom"}
    assert c.x_init_range == (F(1), F(5))
    assert c.x_init_grid == F(1, 100)
    assert c.cost_spec == {"kind": "random"}
    assert c.stop == {"max_steps": 200, "target_error": 1e-5}
    assert c.accounting == {"mode": "paper_faithful"}
    # a default block is stored as its selector alone, and block() completes it
    assert c.block("cost_spec") == {"kind": "random", "value_set": (1, 2, 3, 4, 5), "seed": None, "shared_x0": False}
    assert c.block("accounting") == {"mode": "paper_faithful", "b_pm": 3}
    c.validate()  # defaults validate as-is


def test_default_blocks_are_not_shared():
    a = RunConfig()
    a.cost_spec["value_set"] = [9]
    a.block("accounting")["b_pm"] = 7
    assert a.block("cost_spec")["value_set"] == [9]
    assert a.block("accounting")["b_pm"] == 3
    assert RunConfig().block("cost_spec")["value_set"] == (1, 2, 3, 4, 5)
    assert RunConfig().block("accounting")["b_pm"] == 3


def test_block_defaults_are_immutable_and_each_view_is_new():
    # A mutable default would be shared by every view that leaves its key
    # out: one caller's append would change every later config's draws.
    for name, (_, variants) in BLOCKS.items():
        for variant, defaults in variants.items():
            for key, value in defaults.items():
                assert not isinstance(value, (list, dict, set)), (name, variant, key)
    config = RunConfig()
    assert config.block("cost_spec") is not config.block("cost_spec")
    # a default block and the same block written out are one config
    assert RunConfig.from_dict({}) == RunConfig.from_dict({"cost_spec": {"kind": "random"}})


def test_block_parses_its_rationals():
    config = RunConfig(
        n=2,
        policy={"variant": "refine_only", "c_refine": "5/2"},
        cost_spec={"kind": "explicit", "costs": [["3", "0.5"], [2, F(1, 3)]]},
    )
    assert config.block("policy")["c_refine"] == F(5, 2)
    assert config.block("cost_spec")["costs"] == ((F(3), F(1, 2)), (F(2), F(1, 3)))
    bad = RunConfig(n=2, cost_spec={"kind": "explicit", "costs": [["3", "0.5"], ["2", "x"]]})
    with pytest.raises(ConfigError) as exc:
        bad.block("cost_spec")
    assert exc.value.field == "cost_spec.costs[1].x0"


@pytest.mark.parametrize(
    "raw,want",
    [
        ("3/25", F(3, 25)),
        ("0.12", F(3, 25)),
        ("2", F(2)),
        (2, F(2)),
        (0.1, F(1, 10)),  # floats go through shortest-repr, not binary value
        (0.5, F(1, 2)),
        (F(7, 3), F(7, 3)),
    ],
)
def test_parse_rational(raw, want):
    assert parse_rational(raw, "alpha") == want


@pytest.mark.parametrize("bad", [True, False, "abc", "1/0", None, [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(ConfigError) as exc:
        parse_rational(bad, "alpha")
    assert exc.value.field == "alpha"
    assert "alpha" in str(exc.value)


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"n": 1}, "n"),
        ({"n": "20"}, "n"),
        ({"edge_prob": F(3, 2)}, "edge_prob"),
        ({"seed": -1}, "seed"),
        ({"alpha": F(0)}, "alpha"),
        ({"delta0": F(0)}, "delta0"),
        ({"c_in": F(1)}, "c_in"),
        ({"c_out": F(1, 2)}, "c_out"),
        ({"x_init_range": (F(5), F(1))}, "x_init_range"),
        ({"x_init_grid": F(0)}, "x_init_grid"),
        ({"policy": {"variant": "warp"}}, "policy.variant"),
        ({"policy": {"variant": "refine_only", "c_refine": "1"}}, "policy.c_refine"),
        ({"cost_spec": {"kind": "mystery"}}, "cost_spec.kind"),
        ({"cost_spec": {"kind": "random", "value_set": []}}, "cost_spec.value_set"),
        ({"cost_spec": {"kind": "random", "value_set": [0]}}, "cost_spec.value_set"),
        ({"cost_spec": {"kind": "explicit", "costs": [["1", "2"]]}}, "cost_spec.costs"),
        ({"stop": {}}, "stop"),
        ({"stop": {"max_steps": -1}}, "stop.max_steps"),
        ({"stop": {"max_steps": 10, "target_error": 0.0}}, "stop.target_error"),
        ({"accounting": {"mode": "estimated"}}, "accounting.mode"),
        ({"accounting": {"mode": "paper_faithful", "b_pm": 0}}, "accounting.b_pm"),
        # non-finite targets and bools standing in for integers
        ({"stop": {"max_steps": 10, "target_error": float("inf")}}, "stop.target_error"),
        ({"stop": {"target_error": float("nan")}}, "stop.target_error"),
        ({"n": True}, "n"),
        ({"seed": True}, "seed"),
        ({"stop": {"max_steps": True}}, "stop.max_steps"),
        ({"accounting": {"mode": "paper_faithful", "b_pm": True}}, "accounting.b_pm"),
        # a target that is not a number, and quantizer widths that are not >= 1
        ({"stop": {"max_steps": 3, "target_error": "1e-5"}}, "stop.target_error"),
        ({"stop": {"max_steps": 3, "target_error": True}}, "stop.target_error"),
        ({"policy": {"variant": "adaptive_zoom", "quantizer_width": 0}}, "policy.quantizer_width"),
        ({"policy": {"variant": "adaptive_zoom", "quantizer_width": True}}, "policy.quantizer_width"),
        ({"policy": {"variant": "adaptive_zoom", "quantizer_width": "3"}}, "policy.quantizer_width"),
        # fixed levels without a standard message width, and message widths
        # that are not integers >= 1
        ({"policy": {"variant": "fixed_level"}, "delta0": F(1, 7)}, "delta0"),
        ({"policy": {"variant": "fixed_level"}}, "delta0"),  # the default 1/2 has no width either
        ({"policy": {"variant": "fixed_level", "b_pm": "x"}}, "policy.b_pm"),
        ({"policy": {"variant": "fixed_level", "b_pm": 0}}, "policy.b_pm"),
        ({"policy": {"variant": "fixed_level", "b_pm": True}}, "policy.b_pm"),
        ({"policy": {"variant": "fixed_level", "b_pm": 7.0}, "delta0": F(1, 10)}, "policy.b_pm"),
        # more start-grid points than one 32-bit draw can pick from, and bools
        # standing in for cost values
        ({"x_init_grid": F(1, 10**10)}, "x_init_grid"),
        ({"x_init_grid": F(4, 2**32)}, "x_init_grid"),
        ({"cost_spec": {"kind": "random", "value_set": [True, 2]}}, "cost_spec.value_set"),
        # cost seeds and flags of the wrong type, and explicit costs that are
        # not a list of n (beta, x0) pairs
        ({"cost_spec": {"kind": "random", "seed": "x"}}, "cost_spec.seed"),
        ({"cost_spec": {"kind": "random", "seed": True}}, "cost_spec.seed"),
        ({"cost_spec": {"kind": "random", "shared_x0": "yes"}}, "cost_spec.shared_x0"),
        ({"n": 2, "cost_spec": {"kind": "explicit", "costs": ["12", "34"]}}, "cost_spec.costs[0]"),
        ({"n": 2, "cost_spec": {"kind": "explicit", "costs": [["1", "2"], ["1", "2", "9"]]}}, "cost_spec.costs[1]"),
        ({"n": 2, "cost_spec": {"kind": "explicit", "costs": 5}}, "cost_spec.costs"),
        ({"cost_spec": {"kind": "random", "value_set": 5}}, "cost_spec.value_set"),
        # keys that no variant of their block reads, and keys that another
        # variant reads but this one does not
        ({"policy": {"variant": "adaptive_zoom", "quantizer_widht": 5}}, "policy.quantizer_widht"),
        ({"stop": {"max_steps": 3, "taget_error": 1e-9}}, "stop.taget_error"),
        ({"cost_spec": {"kind": "random", "valueset": [2]}}, "cost_spec.valueset"),
        ({"policy": {"variant": "adaptive_zoom", "b_pm": 3}}, "policy.b_pm"),
        ({"policy": {"variant": "fixed_level", "c_refine": "10"}, "delta0": F(1, 10)}, "policy.c_refine"),
        ({"accounting": {"mode": "measured", "b_pm": 3}}, "accounting.b_pm"),
        ({"policy": {"variant": "refine_only", "quantizer_width": 0}}, "policy.quantizer_width"),
        ({"policy": {"variant": "refine_only", "quantizer_width": 3}}, "policy.quantizer_width"),
        # a fixed level's error has a floor: an error target alone never stops it
        ({"policy": {"variant": "fixed_level"}, "delta0": F(1, 10), "stop": {"target_error": 1e-9}}, "stop.max_steps"),
        # a rational field that holds no Fraction or int: a config built in
        # Python skips from_dict's parsing, and a float there crashed the
        # run (no .denominator) or moved the start grid, since
        # (5.0 - 1) // (1/100) is 399.0, not 400
        ({"edge_prob": 0.5}, "edge_prob"),
        ({"alpha": 0.12}, "alpha"),
        ({"delta0": 0.5}, "delta0"),
        ({"c_in": 1.5}, "c_in"),
        ({"c_out": 2.0}, "c_out"),
        ({"b_q0": 0.0}, "b_q0"),
        ({"x_init_grid": 0.01}, "x_init_grid"),
        ({"x_init_range": (1.0, F(5))}, "x_init_range[0]"),
        ({"x_init_range": (F(1), 5.0)}, "x_init_range[1]"),
        ({"alpha": True}, "alpha"),
        ({"delta0": "1/2"}, "delta0"),
        ({"x_init_range": (F(1), None)}, "x_init_range[1]"),
        # a range of the wrong shape: validate unpacks it, so it checks the shape first
        ({"x_init_range": (1, 2, 3)}, "x_init_range"),
        ({"x_init_range": 5}, "x_init_range"),
        ({"x_init_range": None}, "x_init_range"),
    ],
)
def test_validation_names_the_offending_field(patch, field):
    kwargs = dict(patch)
    c = RunConfig(**kwargs)
    with pytest.raises(ConfigError) as exc:
        c.validate()
    assert exc.value.field == field


def test_fixed_level_widths_and_fine_grids_that_validate():
    # every level in FixedLevel's width table, and any level with b_pm set
    for level in FIXED_LEVEL_WIDTHS:
        RunConfig(policy={"variant": "fixed_level"}, delta0=level).validate()
    RunConfig(policy={"variant": "fixed_level", "b_pm": 6}, delta0=F(1, 7)).validate()
    # the other policies never read a fixed level's width
    RunConfig(policy={"variant": "refine_only"}, delta0=F(1, 7)).validate()
    # [1, 5] on a grid of 4/(2**32 - 1) holds exactly 2**32 points
    RunConfig(x_init_grid=F(4, 2**32 - 1)).validate()


# A legal integer value of each rational field, and of each bound of x_init_range.
INT_VALUES = {
    "edge_prob": 1, "alpha": 1, "delta0": 1, "c_in": 2, "c_out": 3, "b_q0": -2, "x_init_grid": 1,
    "x_init_range[0]": 1, "x_init_range[1]": 5,
}


def with_rational(field, value):
    """A small config whose rational ``field`` (or ``x_init_range[i]``) is ``value``."""
    if field.startswith("x_init_range"):
        bounds = [F(1), F(5)]
        bounds[int(field[-2])] = value
        return RunConfig(n=5, x_init_range=tuple(bounds), stop={"max_steps": 2})
    return RunConfig(n=5, stop={"max_steps": 2}, **{field: value})


@pytest.mark.parametrize("field", sorted(INT_VALUES))
def test_a_rational_field_takes_an_int_as_its_fraction(field):
    value = INT_VALUES[field]
    assert run_single(with_rational(field, value)).history == run_single(with_rational(field, F(value))).history


def test_explicit_costs_validate():
    c = RunConfig(
        n=2,
        cost_spec={"kind": "explicit", "costs": [["1", "2"], ["3", "4/3"]]},
    )
    c.validate()
    bad = RunConfig(
        n=2, cost_spec={"kind": "explicit", "costs": [["0", "2"], ["3", "4"]]}
    )
    with pytest.raises(ConfigError, match="beta"):
        bad.validate()


def test_max_steps_zero_is_allowed():
    RunConfig(stop={"max_steps": 0}).validate()


def test_measured_accounting_is_valid():
    RunConfig(accounting={"mode": "measured"}).validate()


def test_decimal_strings_parse_exactly():
    c = RunConfig.from_dict({"alpha": "0.12", "delta0": "0.5"})
    assert c.alpha == F(3, 25)
    assert c.delta0 == F(1, 2)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"turbo": 1})
    assert exc.value.field == "turbo"


def test_from_dict_validates():
    with pytest.raises(ConfigError, match="n"):
        RunConfig.from_dict({"n": 0})


def test_from_json_rejects_non_objects():
    with pytest.raises(ConfigError, match="not valid JSON"):
        json_object("{")
    with pytest.raises(ConfigError, match="top level"):
        json_object("[1, 2]")


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"stop": {"target_error": Infinity}}', "stop.target_error"),
        ('{"stop": {"max_steps": 5, "target_error": -Infinity}}', "stop.target_error"),
        ('{"seed": true}', "seed"),
        ('{"n": false}', "n"),
    ],
)
def test_json_rejects_non_finite_and_bool_values(text, field):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(json_object(text))
    assert exc.value.field == field


def test_x_init_range_shape_checked():
    with pytest.raises(ConfigError, match="x_init_range"):
        RunConfig.from_dict({"x_init_range": [1, 2, 3]})
    with pytest.raises(ConfigError, match="expected an object"):
        RunConfig.from_dict({"stop": 5})
    # validate alone checks the shape: from_dict passes a string through
    # and parses each item of a list of any length
    for text in ('{"x_init_range": "1, 5"}', '{"x_init_range": ["1", "2", "3"]}'):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(json_object(text))
        assert exc.value.field == "x_init_range"


def test_readme_example_config_loads():
    # The README's example config file goes through the one schema, so it
    # cannot name a key that no block reads.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    example = readme.split("Example config file:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    config = RunConfig.from_dict(json.loads(example))
    assert config.block("policy") == {"variant": "adaptive_zoom", "quantizer_width": 3}
