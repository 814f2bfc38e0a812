"""Run configuration: defaults, validation and exact-rational parsing.

A config file is one JSON object (``json_object``).  ``RunConfig.from_dict``
parses it, ``validate`` checks it, and ``RunConfig.block`` is the one read
of a nested block: a block is stored as given (a default one as its
selector alone) and ``block`` completes it from ``BLOCKS``.  Every run is
fully determined by the config.

Rationals are written as strings ("3/25", "0.12", "2") and parsed exactly;
raw JSON floats are accepted but go through their shortest decimal repr, so
"0.1" means 1/10, never 0x1.999...p-4.
"""

import json
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import MAX_NODES
from .metrics import FIXED_LEVEL_WIDTHS


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field_name, message):
        self.field = field_name
        super().__init__("%s: %s" % (field_name, message))


def parse_rational(value, field_name):
    """Exact rational from "num/den", decimal string, int, or float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(field_name, "expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(field_name, "not a rational: %r (%s)" % (value, exc))
    raise ConfigError(field_name, "cannot parse %r as a rational" % (value,))


# Each nested block's selector key and, per variant, every key that variant
# reads with its default (``stop`` has no selector).  None means unset:
# validate, width_schedule, build_costs and run_until say what that does.
# No default is mutable, so every ``block`` view may share them.
Block = namedtuple("Block", "selector variants")
BLOCKS = {
    "policy": Block("variant", {
        "adaptive_zoom": {"quantizer_width": 3},
        "refine_only": {"c_refine": 10},
        "fixed_level": {"b_pm": None},
    }),
    "cost_spec": Block("kind", {
        "random": {"value_set": (1, 2, 3, 4, 5), "seed": None, "shared_x0": False},
        "explicit": {"costs": None},
    }),
    "stop": Block(None, {None: {"max_steps": None, "target_error": None}}),
    "accounting": Block("mode", {"paper_faithful": {"b_pm": 3}, "measured": {}}),
}


# The scalar fields that hold an exact rational, as do both bounds of ``x_init_range``:
# ``from_dict`` parses each, and ``validate`` refuses a float or any other non-rational.
# ``block`` parses the nested rationals, ``policy.c_refine`` and the explicit costs.
RATIONALS = ("edge_prob", "alpha", "delta0", "c_in", "c_out", "b_q0", "x_init_grid")


@dataclass
class RunConfig:
    n: int = 20
    edge_prob: Fraction = Fraction(1, 2)
    seed: int = 1
    alpha: Fraction = Fraction(3, 25)
    delta0: Fraction = Fraction(1, 2)
    c_in: Fraction = Fraction(4, 3)
    c_out: Fraction = Fraction(2)
    b_q0: Fraction = Fraction(0)
    policy: dict = field(default_factory=lambda: {"variant": "adaptive_zoom"})
    x_init_range: tuple = (Fraction(1), Fraction(5))
    x_init_grid: Fraction = Fraction(1, 100)
    cost_spec: dict = field(default_factory=lambda: {"kind": "random"})
    stop: dict = field(default_factory=lambda: {"max_steps": 200, "target_error": 1e-5})
    accounting: dict = field(default_factory=lambda: {"mode": "paper_faithful"})
    out_dir: str = ""

    def validate(self):
        if type(self.n) is not int or not 2 <= self.n <= MAX_NODES:
            raise ConfigError("n", "need an integer node count from 2 to %d" % MAX_NODES)
        if not isinstance(self.x_init_range, (list, tuple)) or len(self.x_init_range) != 2:
            raise ConfigError("x_init_range", "expected [lo, hi], got %r" % (self.x_init_range,))
        lo, hi = self.x_init_range
        rationals = [(f, getattr(self, f)) for f in RATIONALS] + [("x_init_range[0]", lo), ("x_init_range[1]", hi)]
        for name, value in rationals:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise ConfigError(name, "need a Fraction or an int, got %r" % (value,))
        if not 0 <= self.edge_prob <= 1:
            raise ConfigError("edge_prob", "must lie in [0, 1]")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed", "need a nonnegative integer")
        if self.alpha <= 0:
            raise ConfigError("alpha", "step size must be positive")
        if self.delta0 <= 0:
            raise ConfigError("delta0", "initial quantizer step must be positive")
        if self.c_in <= 1:
            raise ConfigError("c_in", "zoom-in factor must exceed 1")
        if self.c_out <= 1:
            raise ConfigError("c_out", "zoom-out factor must exceed 1")
        if lo > hi:
            raise ConfigError("x_init_range", "lower bound exceeds upper bound")
        if self.x_init_grid <= 0:
            raise ConfigError("x_init_grid", "grid resolution must be positive")
        if (hi - lo) // self.x_init_grid >= 1 << 32:
            raise ConfigError("x_init_grid", "[lo, hi] holds more than 2**32 grid points")
        policy = self.block("policy")
        if policy["variant"] == "adaptive_zoom":
            width = policy["quantizer_width"]
            if type(width) is not int or width < 1:
                raise ConfigError("policy.quantizer_width", "need an integer width >= 1")
        elif policy["variant"] == "refine_only":
            if policy["c_refine"] <= 1:
                raise ConfigError("policy.c_refine", "refine factor must exceed 1")
        elif policy["b_pm"] is None:
            if self.delta0 not in FIXED_LEVEL_WIDTHS:
                raise ConfigError(
                    "delta0", "no standard message width for fixed level %s; set policy.b_pm"
                    % self.delta0
                )
        elif type(policy["b_pm"]) is not int or policy["b_pm"] < 1:
            raise ConfigError("policy.b_pm", "need a positive integer width")
        costs = self.block("cost_spec")
        if costs["kind"] == "random":
            vs = costs["value_set"]
            if not isinstance(vs, (list, tuple)) or not vs or any(type(v) is not int or v <= 0 for v in vs):
                raise ConfigError("cost_spec.value_set", "need positive integers")
            if costs["seed"] is not None and type(costs["seed"]) is not int:
                raise ConfigError("cost_spec.seed", "need an integer seed")
            if type(costs["shared_x0"]) is not bool:
                raise ConfigError("cost_spec.shared_x0", "need true or false")
        else:
            for i, (beta, _) in enumerate(costs["costs"]):
                if beta <= 0:
                    raise ConfigError("cost_spec.costs[%d].beta" % i, "must be positive")
        stop = self.block("stop")
        max_steps, target = stop["max_steps"], stop["target_error"]
        if max_steps is None and target is None:
            raise ConfigError("stop", "need max_steps and/or target_error")
        if max_steps is None and policy["variant"] == "fixed_level":
            raise ConfigError("stop.max_steps", "a fixed level's error has a floor, so its run needs a step bound")
        if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
            raise ConfigError("stop.max_steps", "need a nonnegative integer")
        if target is not None and (
            isinstance(target, bool)
            or not isinstance(target, (int, float))
            or not 0 < target < float("inf")
        ):
            raise ConfigError("stop.target_error", "need a positive, finite error target")
        accounting = self.block("accounting")
        if accounting["mode"] == "paper_faithful":
            b_pm = accounting["b_pm"]
            if type(b_pm) is not int or b_pm < 1:
                raise ConfigError("accounting.b_pm", "need a positive integer width")
        return self

    def block(self, name):
        """A new dict: block ``name`` merged over its variant's defaults, with
        ``policy.c_refine`` and each ``cost_spec.costs`` pair parsed.

        ConfigError names ``name.selector`` for an unknown variant,
        ``name.key`` for a key that the variant does not read, and the
        field of a rational or a cost pair that does not parse.
        """
        selector, variants = BLOCKS[name]
        spec = getattr(self, name)
        if not isinstance(spec, dict):
            raise ConfigError(name, "expected an object")
        variant = spec.get(selector)
        if variant not in tuple(variants):  # a tuple: an unhashable value is no variant
            raise ConfigError(
                "%s.%s" % (name, selector), "expected one of %s, got %r" % (", ".join(variants), variant)
            )
        defaults = variants[variant]
        for key in spec:
            if key != selector and key not in defaults:
                raise ConfigError(
                    "%s.%s" % (name, key),
                    "not read by %s; it reads %s" % (variant or name, ", ".join(defaults) or "no other key"),
                )
        view = {**defaults, **spec}
        if variant == "refine_only":
            view["c_refine"] = parse_rational(view["c_refine"], "policy.c_refine")
        elif variant == "explicit":
            pairs = view["costs"]
            if not isinstance(pairs, (list, tuple)) or len(pairs) != self.n:
                raise ConfigError("cost_spec.costs", "need a list of one (beta, x0) pair per node")
            parsed = []
            for i, pair in enumerate(pairs):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError("cost_spec.costs[%d]" % i, "need a (beta, x0) pair")
                at = "cost_spec.costs[%d]." % i
                parsed.append((parse_rational(pair[0], at + "beta"), parse_rational(pair[1], at + "x0")))
            view["costs"] = tuple(parsed)
        return view

    @classmethod
    def from_dict(cls, d):
        """The validated config of the object ``d``: its top-level rationals
        and each item of a list ``x_init_range`` parsed, every other value as given."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration key")
        kwargs = dict(d)
        for key in RATIONALS:
            if key in d:
                kwargs[key] = parse_rational(d[key], key)
        bounds = d.get("x_init_range")
        if isinstance(bounds, (list, tuple)):
            kwargs["x_init_range"] = tuple(parse_rational(v, "x_init_range[%d]" % i) for i, v in enumerate(bounds))
        return cls(**kwargs).validate()


def json_object(text):
    """The top-level object of a JSON config (str or bytes), not yet validated."""
    try:
        d = json.loads(text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError("<file>", "not valid JSON: %s" % exc)
    if not isinstance(d, dict):
        raise ConfigError("<file>", "top level must be an object")
    return d
