"""Command-line entry point.

Subcommands:
  run       one optimization run -> history.csv + summary.csv
  sweep     one config across many seeds -> sweep_seeds.csv + sweep_aggregate.csv
  compare   adaptive zoom vs. the refine-only and fixed-level baselines
            on one shared instance -> compare.csv + compare_summary.csv
  table1    recompute the reference communication-cost table -> table_bits.csv
            + table_avg_bits.csv

Configuration comes from an optional JSON file (--config) with individual
flag overrides on top; the merged config is validated once, and every run is
fully determined by it.  compare drops the policy block, since it runs its
own five.  Rational-valued flags accept "num/den" or decimal strings.
"""

import argparse
import sys

from .config import ConfigError, RunConfig, json_object
from .runner import cmd_compare, cmd_run, cmd_sweep, cmd_table1


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed for all derived streams")
    p.add_argument("--nodes", type=int, help="network size n")
    p.add_argument("--alpha", help='gradient step size ("3/25" or "0.12")')
    p.add_argument("--delta0", help="initial quantizer step, rational")
    p.add_argument("--c-in", dest="c_in", help="zoom-in factor, rational > 1")
    p.add_argument("--c-out", dest="c_out", help="zoom-out factor, rational > 1")
    p.add_argument(
        "--policy", choices=["adaptive_zoom", "refine_only", "fixed_level"]
    )
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--target-error", type=float, dest="target_error")
    p.add_argument("--accounting", choices=["paper_faithful", "measured"])
    p.add_argument(
        "--out",
        metavar="DIR",
        help="output directory (default: $ZOOMGRAD_OUT_DIR or ./out)",
    )


def _build_config(args):
    d = RunConfig().to_dict()
    if args.config:
        with open(args.config) as f:
            d.update(json_object(f.read()))
    if args.seed is not None:
        d["seed"] = args.seed
    if args.nodes is not None:
        d["n"] = args.nodes
    for key in ("alpha", "delta0", "c_in", "c_out"):
        value = getattr(args, key)
        if value is not None:
            d[key] = value
    if args.policy is not None:
        d["policy"] = {"variant": args.policy}
    if args.command == "compare":
        del d["policy"]  # neither run nor validated
    if isinstance(d["stop"], dict):  # else from_dict reports the bad block
        for key in ("max_steps", "target_error"):
            if getattr(args, key) is not None:
                d["stop"] = dict(d["stop"], **{key: getattr(args, key)})
    if args.accounting is not None:
        d["accounting"] = {"mode": args.accounting}
        if args.accounting == "paper_faithful":
            d["accounting"]["b_pm"] = 3
    if args.out:
        d["out_dir"] = args.out
    return RunConfig.from_dict(d)


def _parse_seeds(spec, default):
    if spec is None:
        return list(default)
    lo, sep, hi = spec.partition(":")
    tokens = [lo, hi] if sep else [tok for tok in spec.split(",") if tok.strip()]
    if not all(tok.strip().isdecimal() for tok in tokens):
        raise ConfigError("seeds", '"lo:hi" or comma-separated nonnegative integers, got %r' % spec)
    seeds = [int(tok) for tok in tokens]
    return list(range(*seeds)) if sep else seeds


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zoomgrad",
        description="Distributed quantized-gradient optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="single optimization run"))
    p_sweep = sub.add_parser("sweep", help="same config across many seeds")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--seeds", help='seed list: "0:100" (half-open range) or "3,7,11"'
    )
    _add_common(sub.add_parser("compare", help="adaptive policy vs. baselines"))
    p_table = sub.add_parser("table1", help="reference communication-cost table")
    p_table.add_argument("--out", metavar="DIR")
    args = parser.parse_args(argv)

    try:
        if args.command == "table1":
            return cmd_table1(args.out)
        config = _build_config(args)
        if args.command == "sweep":
            seeds = _parse_seeds(args.seeds, [config.seed])
    except ConfigError as exc:
        print("error: invalid config - %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.command == "run":
        return cmd_run(config)
    if args.command == "sweep":
        return cmd_sweep(config, seeds)
    return cmd_compare(config)


if __name__ == "__main__":
    sys.exit(main())
