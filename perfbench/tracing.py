"""Span tracing for the traced benchmark run, from outside ``src/``.

Each hook replaces one name at the place where a zoomgrad module looks it
up (modules bind their dependencies with ``from ... import``, so the
consensus call seen by the optimizer is ``zoomgrad.optimizer.run_consensus``,
not the engine's own attribute).  The wrapper records a span (name, start,
end, parent) in memory and, for a few calls, pulls counts out of the return
value.  A hook whose module or attribute no longer exists is skipped and
reported; the layer metrics that depend on it are then left out rather
than reported as zero.
"""

import contextlib
import functools
import importlib
from time import perf_counter


def _count_consensus(counts, out):
    stats = out[1]
    for key, attr in (("consensus.rounds", "rounds"), ("consensus.mass_tx", "mass_transmissions")):
        value = getattr(stats, attr, None)
        if value is not None:
            counts[key] = counts.get(key, 0) + value
    alphabet = getattr(stats, "measured_alphabet", None)
    if alphabet is not None:
        counts["consensus.alphabet_max"] = max(counts.get("consensus.alphabet_max", 0), len(alphabet))


def _count_zoom(counts, out):
    event = out[1]
    if event in ("zoom_in", "zoom_out"):
        counts["optimizer." + event] = counts.get("optimizer." + event, 0) + 1


def _count_graph(counts, g):
    counts["graph.edges"] = counts.get("graph.edges", 0) + g.edge_count()


def _count_diameter(counts, d):
    counts["graph.diameter"] = max(counts.get("graph.diameter", 0), d)


# (module, attribute, span name, counter).  The counter, when set, is called
# with (counts, return value) after the span has closed.
HOOKS = (
    ("zoomgrad.cli", "cmd_run", "runner.cmd", None),
    ("zoomgrad.cli", "cmd_sweep", "runner.cmd", None),
    ("zoomgrad.cli", "cmd_compare", "runner.cmd", None),
    ("zoomgrad.runner", "run_single", "runner.run_single", None),
    ("zoomgrad.runner", "generate_random_digraph", "graph.generate", _count_graph),
    ("zoomgrad.graph", "diameter", "graph.diameter", _count_diameter),
    ("zoomgrad.runner", "build_costs", "objective.costs", None),
    ("zoomgrad.runner", "sample_x_init", "runner.x_init", None),
    ("zoomgrad.runner", "run_until", "optimizer.loop", None),
    ("zoomgrad.optimizer", "step", "optimizer.step", None),
    ("zoomgrad.optimizer", "gradient_step", "optimizer.gradient_step", None),
    ("zoomgrad.optimizer", "run_consensus", "consensus", _count_consensus),
    ("zoomgrad.consensus.engine", "init_consensus", "consensus.init", None),
    ("zoomgrad.consensus.engine", "quantize", "quantizer.quantize", None),
    ("zoomgrad.optimizer", "zoom_decide", "optimizer.zoom_decide", _count_zoom),
    ("zoomgrad.optimizer", "error_metric", "metrics.error_metric", None),
    ("zoomgrad.runner", "write_rows_csv", "runner.csv", None),
    ("zoomgrad.runner", "write_history_csv", "runner.csv", None),
)

# The span that the benchmark opens itself around ``zoomgrad.cli.main``.
ROOT = "cli.main"

# Self-time metric -> the spans it sums.  Every span name appears once, so
# the self times add up to the root span's duration, i.e. the traced wall_s.
SELF_TIME = {
    "cli.self_s": (ROOT,),
    "runner.self_s": ("runner.cmd", "runner.run_single"),
    "runner.csv_s": ("runner.csv",),
    "runner.x_init_s": ("runner.x_init",),
    "objective.costs_s": ("objective.costs",),
    "graph.generate_s": ("graph.generate",),
    "graph.diameter_s": ("graph.diameter",),
    "optimizer.step_self_s": ("optimizer.loop", "optimizer.step"),
    "optimizer.gradient_step_s": ("optimizer.gradient_step",),
    "optimizer.zoom_decide_s": ("optimizer.zoom_decide",),
    "consensus.s": ("consensus",),
    "consensus.init_s": ("consensus.init",),
    "quantizer.quantize_s": ("quantizer.quantize",),
    "metrics.error_metric_s": ("metrics.error_metric",),
}

# Call-count metric -> span it counts.
CALLS = {
    "consensus.calls": "consensus",
    "quantizer.quantize_calls": "quantizer.quantize",
    "metrics.error_metric_calls": "metrics.error_metric",
    "optimizer.steps": "optimizer.step",
}

# Counter metric -> span whose hook fills it.
COUNTERS = {
    "consensus.rounds": "consensus",
    "consensus.mass_tx": "consensus",
    "consensus.alphabet_max": "consensus",
    "optimizer.zoom_in": "optimizer.zoom_decide",
    "optimizer.zoom_out": "optimizer.zoom_decide",
    "graph.edges": "graph.generate",
    "graph.diameter": "graph.diameter",
}


class Tracer:
    """In-memory span log: ``spans`` holds [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def open(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counter(self.counts, out)
            return out

        return traced


def self_times(spans):
    """Per span name: summed duration minus the part covered by child spans.

    Children of one span are merged as intervals clipped to the parent, so
    overlapping or out-of-range children never count twice.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


@contextlib.contextmanager
def installed(wrap, hooks=HOOKS):
    """Replace each hooked name by ``wrap(original, span, counter)`` in the block.

    Yields the hooks (``module.attribute``) whose target could not be found;
    those are skipped, and the originals are restored on exit.
    """
    patched = []
    missing = []
    try:
        for module_name, attr, span, counter in hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append("%s.%s" % (module_name, attr))
                continue
            setattr(module, attr, wrap(original, span, counter))
            patched.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(tracer, missing=()):
    """Per-layer metrics of one traced invocation.

    A metric is left out when a span it reads has no installed hook
    (``missing`` as yielded by ``installed``).
    """
    live = {ROOT} | {span for m, a, span, _ in HOOKS if "%s.%s" % (m, a) not in missing}
    selfs = self_times(tracer.spans)
    out = {}
    for metric, names in SELF_TIME.items():
        if all(n in live for n in names):
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
    for metric, name in CALLS.items():
        if name in live:
            out[metric] = sum(1 for s in tracer.spans if s[0] == name)
    for metric, name in COUNTERS.items():
        if name in live:
            out[metric] = tracer.counts.get(metric, 0)
    rounds = out.get("consensus.rounds")
    if "consensus.s" in out and rounds:
        out["consensus.us_per_round"] = out["consensus.s"] / rounds * 1e6
    return out
