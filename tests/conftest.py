"""Shared test fixtures and the acceptance-report terminal section.

The acceptance tests (tests/test_acceptance.py) record one PASS/FAIL line
per criterion through the ``acceptance`` fixture; the lines are replayed in
a dedicated section at the end of the pytest run so they are visible even
for passing tests (pytest normally swallows stdout of passing tests).

The ``kernel`` fixture builds the C kernel (consensus rounds and the graph's
edge draws) from this checkout into a temporary directory once per session,
so the compiled paths are checked wherever a C compiler exists, whether or
not an in-place build is present.

``flood_consensus`` is the per-round flood, the protocol as specified: the
oracle that the engine's epoch-snapshot path and the kernel are checked
against.

The per-node oracles below are the product's former exact-``Fraction``
paths, which its integer and distinct-value paths are checked against:
``per_node_step`` (one outer step from ``optimizer.gradient_step`` and
``engine.init_consensus``), ``per_node_spread``, ``per_node_optimum`` and
``per_draw_x_init``.
"""

import glob
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction

import pytest

from zoomgrad import graph
from zoomgrad.consensus import engine, run_consensus
from zoomgrad.consensus.engine import ROUND_CAP, ConsensusCapError, ConsensusStats, effective_epoch
from zoomgrad.graph import Digraph
from zoomgrad.consensus.engine import init_consensus
from zoomgrad.optimizer import RunRecord, gradient_step, zoom_decide
from zoomgrad.rng import PCG32, STREAM_XINIT

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The compiler setuptools will call: $CC, else the one Python was built with.
CC = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Recorder for one acceptance-criterion result line.

    Usage: ``ok = <verdict>; acceptance(3, ok, "detail"); assert ok, ...``.
    The line is recorded before the assert so a FAIL still reaches the
    terminal summary.
    """

    def record(number, ok, detail):
        line = "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail)
        request.config._acceptance_lines.append(line)
        print(line)
        return ok

    return record


def build_kernel(tmp, env=None):
    """Build ``_ckernel`` from this checkout under ``tmp``.

    Returns (path of the built module, compiler output) and fails the
    calling test when the build fails.  ``env`` replaces the build's
    environment (e.g. to set ``CFLAGS``).  Nothing is written under ``src/``.
    """
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    built = glob.glob(str(tmp / "lib" / "zoomgrad" / "_ckernel*"))
    log = proc.stdout + proc.stderr
    if proc.returncode != 0 or not built:
        pytest.fail("C compiler %r found but the kernel did not build:\n%s" % (CC, log))
    return built[0], log


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The ``_ckernel`` module built into a temp dir, or None without a C compiler.

    A build that fails, or that makes the compiler warn, while a compiler
    exists fails every test that uses the kernel.
    """
    if shutil.which(CC) is None:
        return None
    path, log = build_kernel(tmp_path_factory.mktemp("ckernel"))
    if "warning:" in log:
        pytest.fail("the kernel built with compiler warnings:\n%s" % log)
    spec = importlib.util.spec_from_file_location("zoomgrad._ckernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel(built_kernel, monkeypatch):
    """The freshly built kernel, installed as the engine's and the graph's backend."""
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    monkeypatch.setattr(engine, "_kernel", built_kernel)
    monkeypatch.setattr(graph, "_kernel", built_kernel)
    return built_kernel


@pytest.fixture
def no_kernel(monkeypatch):
    """Neither the engine nor the graph module sees a compiled kernel."""
    monkeypatch.setattr(engine, "_kernel", None)
    monkeypatch.setattr(graph, "_kernel", None)


def flood_consensus(y, q, g, rng, round_hook, *, max_rounds=ROUND_CAP):
    """The per-round flood: ``run_consensus``'s oracle, with a round hook.

    Every node keeps flood values ``M`` and ``m``, resets them to its own
    ``ceil(y/z)`` and ``floor(y/z)`` at epoch starts, and pushes them along
    its out-edges every round; at an epoch end the run stops when every node
    has ``M - m <= 1``.  Splits and deliveries go through the engine's own
    ``_split_and_deliver``, so the RNG is consumed exactly as in
    ``run_consensus``, and the return value is the same (common value,
    ConsensusStats).  ``round_hook(lambda, record)`` runs after every round;
    the record holds the post-reset values (``reset_M``, ``reset_m``; None
    off epoch starts) and the end-of-round ``M``, ``m``, ``y`` and ``z``.
    """
    y = list(y)
    n = g.n
    z = [2] * n
    d_eff = effective_epoch(g.diameter)
    alphabet = set()

    for lam in range(1, max_rounds + 1):
        reset_M = reset_m = None
        if lam % d_eff == 1:
            M = reset_M = [-(-yi // zi) for yi, zi in zip(y, z)]
            m = reset_m = [yi // zi for yi, zi in zip(y, z)]
        new_M, new_m = M[:], m[:]
        for u, targets in enumerate(g.out_adj):
            Mu, mu = M[u], m[u]
            for v in targets:
                if Mu > new_M[v]:
                    new_M[v] = Mu
                if mu < new_m[v]:
                    new_m[v] = mu
        M, m = new_M, new_m
        engine._split_and_deliver(y, z, g, rng, alphabet)
        round_hook(lam, {"reset_M": reset_M, "reset_m": reset_m, "M": M, "m": m, "y": y[:], "z": z[:]})
        if lam % d_eff == 0 and all(Mi - mi <= 1 for Mi, mi in zip(M, m)):
            assert len(set(m)) == 1, "stop fired with disagreeing nodes"
            return q.b_q + m[0] * q.delta, ConsensusStats(n, lam, alphabet)
    raise ConsensusCapError(max_rounds)


def per_node_step(state, g, s, alpha, policy, rng, error_fn=None):
    """``optimizer.step`` on the per-node path: the oracle.

    Every node takes its own exact gradient step from the estimate it holds
    and quantizes it on the unsaturated grid, at every step, step 1
    included.
    """
    pre_q = state.q
    xs = state.x_init if state.x is None else [state.x] * len(state.x_init)
    x_new, stats = run_consensus(init_consensus(gradient_step(xs, s, alpha), pre_q), pre_q, g, rng)
    x_old = x_new if state.x is None and all(x0 == x_new for x0 in state.x_init) else state.x
    new_q, event = zoom_decide(pre_q, x_new, x_old, policy)
    k = len(state.history)
    width = policy.message_width(k, pre_q.delta)
    n_symbols = len(stats.measured_alphabet)
    measured_width = (n_symbols - 1).bit_length() if n_symbols else 0
    rec = RunRecord(
        k=k + 1,
        x_value=x_new,
        error=float("nan") if error_fn is None else error_fn(x_new),
        delta=pre_q.delta,
        b_q=pre_q.b_q,
        zoom_event=event,
        consensus_rounds=stats.rounds,
        mass_transmissions=stats.mass_transmissions,
        bits_paper_mode=width * stats.mass_transmissions,
        bits_measured_mode=measured_width * stats.mass_transmissions,
    )
    state.x, state.q = x_new, new_q
    state.history.append(rec)
    return state, rec


def per_node_spread(x_init, x_star):
    """``optimizer.start_spread`` as one ``Fraction`` term per node."""
    spread = Fraction(0)
    for j, x0 in enumerate(x_init):
        if x0 == x_star:
            raise ValueError("initial estimate at node %d equals the optimum; error metric undefined" % j)
        spread += Fraction(1, (x0 - x_star) ** 2)
    return spread


def per_node_optimum(s):
    """``CostSuite.global_optimum`` as a ``Fraction`` sum over the nodes."""
    return sum(c.beta * c.x0 for c in s.costs) / sum(c.beta for c in s.costs)


def per_draw_x_init(config, x_star):
    """``runner.sample_x_init`` with every draw built and nudged on its own."""
    lo, hi = config.x_init_range
    grid = config.x_init_grid
    count = int((hi - lo) // grid) + 1
    rng = PCG32(config.seed, STREAM_XINIT)
    xs = []
    for _ in range(config.n):
        x = lo + rng.randbelow(count) * grid
        if x == x_star:
            x = x + grid if x + grid <= hi else x - grid
        xs.append(x)
    return xs


def ring(n):
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0 (diameter n-1)."""
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    """Complete digraph on n nodes (diameter 1)."""
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def bidirectional_pair():
    return Digraph(2, [(0, 1), (1, 0)])


@pytest.fixture
def ring3():
    return ring(3)


F = Fraction
