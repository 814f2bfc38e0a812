"""Compare two benchmark result sets written with ``run.py --out FILE``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON record per run.  For every workload, trace mode
and metric found in both sets it prints the median over runs of the
per-run medians, and NEW/BASE.  It refuses (exit 2) when the sets were
measured on different consensus backends: their times are not comparable.
This prints numbers only; the rule for claiming a gain is in README.md.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(records):
    """{(workload, trace, metric): median over runs of the run medians}."""
    values = {}
    for r in records:
        for name, s in r["metrics"].items():
            values.setdefault((r["workload"], r["trace"], name), []).append(s["median"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["backend"] for r in base + new}
    if len(backends) != 1:
        print("refusing to compare: result sets measured on backends %s" % sorted(backends), file=sys.stderr)
        return 2
    b, n = medians(base), medians(new)
    print("%-14s %-5s %-28s %14s %14s %8s" % ("workload", "trace", "metric", "base", "new", "new/base"))
    for key in sorted(set(b) & set(n)):
        ratio = n[key] / b[key] if b[key] else float("nan")
        print("%-14s %-5s %-28s %14.6g %14.6g %8.4f" % (key + (b[key], n[key], ratio)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
