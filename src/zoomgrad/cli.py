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
fully determined by it.  A stop flag sets its one key of the file's stop
block, or of the default block when the file has none.  compare drops the
policy block, since it runs its own five.  Rational-valued flags accept
"num/den" or decimal strings.

Every failure, of the config, the computation or the report writing, exits
1 with the one stderr line that ``runner.report_failure`` prints.
"""

import argparse
import sys

from .config import BLOCKS, ConfigError, RunConfig, json_object
from .runner import FAILURES, cmd_compare, cmd_run, cmd_sweep, cmd_table1, report_failure


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--seed", type=int, help="master seed for all derived streams")
    p.add_argument("--nodes", type=int, dest="n", help="network size n")
    p.add_argument("--alpha", help='gradient step size ("3/25" or "0.12")')
    p.add_argument("--delta0", help="initial quantizer step, rational")
    p.add_argument("--c-in", dest="c_in", help="zoom-in factor, rational > 1")
    p.add_argument("--c-out", dest="c_out", help="zoom-out factor, rational > 1")
    p.add_argument("--policy", choices=list(BLOCKS["policy"].variants))
    p.add_argument("--max-steps", type=int, dest="max_steps")
    p.add_argument("--target-error", type=float, dest="target_error")
    p.add_argument("--accounting", choices=list(BLOCKS["accounting"].variants))
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (default: $ZOOMGRAD_OUT_DIR or ./out)")


def _build_config(args):
    """The flags merged onto the config file's object; ``from_dict`` fills the rest."""
    d = {}
    if args.config:
        with open(args.config, "rb") as f:
            d = json_object(f.read())
    for key in ("seed", "n", "alpha", "delta0", "c_in", "c_out", "out_dir"):
        value = getattr(args, key)
        if value is not None:
            d[key] = value
    if args.policy is not None:
        d["policy"] = {"variant": args.policy}
    if args.command == "compare":
        d.pop("policy", None)  # neither run nor validated
    stop = {key: getattr(args, key) for key in ("max_steps", "target_error") if getattr(args, key) is not None}
    if stop:
        base = d.get("stop", RunConfig().stop)
        if isinstance(base, dict):  # else from_dict reports the bad block
            d["stop"] = dict(base, **stop)
    if args.accounting is not None:
        d["accounting"] = {"mode": args.accounting}
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


def _parser():
    parser = argparse.ArgumentParser(prog="zoomgrad", description="Distributed quantized-gradient optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="single optimization run"))
    p_sweep = sub.add_parser("sweep", help="same config across many seeds")
    _add_common(p_sweep)
    p_sweep.add_argument("--seeds", help='seed list: "0:100" (half-open range) or "3,7,11"')
    _add_common(sub.add_parser("compare", help="adaptive policy vs. baselines"))
    p_table = sub.add_parser("table1", help="reference communication-cost table")
    p_table.add_argument("--out", dest="out_dir", metavar="DIR")
    return parser


# Built once per process: every call of ``main`` parses with it.
PARSER = _parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    if args.command == "table1":
        return cmd_table1(args.out_dir)
    try:
        config = _build_config(args)
        if args.command == "sweep":
            seeds = _parse_seeds(args.seeds, [config.seed])
    except FAILURES as exc:
        return report_failure(exc)
    if args.command == "run":
        return cmd_run(config)
    if args.command == "sweep":
        return cmd_sweep(config, seeds)
    return cmd_compare(config)


if __name__ == "__main__":
    sys.exit(main())
