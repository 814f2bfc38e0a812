"""Shared test fixtures and the acceptance-report terminal section.

The acceptance tests (tests/test_acceptance.py) record one PASS/FAIL line
per criterion through the ``acceptance`` fixture; the lines are replayed in
a dedicated section at the end of the pytest run so they are visible even
for passing tests (pytest normally swallows stdout of passing tests).

The ``kernel`` fixture builds the C kernel (consensus rounds, the graph's
shuffle, edge draws, rows and diameter, bulk bounded draws, the optimizer's class
arithmetic) from this checkout into a
temporary directory once per session,
so the compiled paths are checked wherever a C compiler exists, whether or
not an in-place build is present.

``kernel_consensus`` makes one consensus call on a kernel module alone,
with the arguments ``run_consensus`` passes it.

``flood_consensus`` is the per-round flood, the protocol as specified: the
oracle that the engine's epoch-snapshot path and the kernel are checked
against.  It returns the common grid point, as ``consensus_point`` does for
``run_consensus``, which returns only the point's level.  Like the engine it
reads the round cap ``engine.ROUND_CAP`` at each call, so a test that needs a
small cap patches that name.

``ADAPTIVE`` and ``REFINE`` are the reference config's adaptive and
refine-only policies, built by ``runner.build_policy``: their defaults are
declared once, in ``zoomgrad.config``.

The per-node oracles below are the product's former exact-``Fraction``
paths, which its integer, grid-level and distinct-value paths are checked
against: ``per_node_step`` (one outer step from ``optimizer.gradient_step``
and ``engine.init_consensus``, with the estimate kept as a ``Fraction``),
``per_node_spread``, ``per_node_optimum``, ``per_draw_x_init`` and
``fraction_cost_classes`` (``optimizer.cost_classes`` in ``Fraction``
arithmetic).
``fraction_error_metric``, ``saturation_half_range`` and
``fraction_zoom_decide`` are the ``Fraction`` forms of the error metric, of
the zoom rule's range and of the zoom rule, which ``metrics.error_metric``
and ``optimizer.zoom_decide`` (with the policy's ``on_repeat``) evaluate on
grid levels.
The product hands the optimizer its starts as one integer table
(``optimizer.Starts``); ``starts_of`` builds that table from per-node
starts, one entry per distinct value, and ``start_values`` expands a table
node by node, so tests state their starts as lists of ``Fraction``.
``clamped_quantize`` (with its ``level_index``) is the width-bit quantizer
that saturates at the ends of that range: ``quantizer.quantize`` is its
unclamped form, and the product never clamps.
``total_curvature`` is the suite's mu = L, which only the tests read.

The product builds graphs and cost suites from their tables alone
(``Digraph(out_adj)``, ``CostSuite(classes, node_class)``); ``digraph`` builds
a graph from an edge list and ``cost_suite`` a suite from per-node costs,
through ``runner.build_costs``' explicit branch.

``masked_digest`` is the SHA-256 of a report with its ``backend`` column
masked, which the pinned report digests compare.

The theory helpers ``contraction_envelope``, ``envelope_from_history``
(with its ``EnvelopePoint``) and ``zoom_out_bound`` give the analysis's
bounds that acceptance criteria 6 and 7 check runs against; the simulator
itself never evaluates them.
"""

import glob
import hashlib
import importlib.util
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from dataclasses import dataclass
from fractions import Fraction

import pytest

from zoomgrad import graph
from zoomgrad.config import RunConfig
from zoomgrad.consensus import engine, run_consensus
from zoomgrad.consensus.engine import ConsensusCapError, ConsensusStats, effective_epoch
from zoomgrad.graph import Digraph
from zoomgrad.consensus.engine import init_consensus
from zoomgrad.optimizer import AdaptiveZoom, CostClasses, FixedLevel, RefineOnly, RunRecord, Starts, gradient_step
from zoomgrad.quantizer import QuantizerState
from zoomgrad.rng import PCG32, STREAM_XINIT
from zoomgrad.runner import build_costs, build_policy

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


def build_kernel(tmp, env=None, root=ROOT):
    """Build ``_ckernel`` from the checkout at ``root`` under ``tmp``.

    Returns (path of the built module, compiler output) and fails the
    calling test when the build fails.  ``env`` replaces the build's
    environment (e.g. to set ``CFLAGS``).  Nothing is written under ``src/``.
    """
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=root,
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
    exists fails every test that uses the kernel.  The build adds strict C99
    flags to the default ones, so a GNU extension (``__int128``,
    ``({ ... })``) in the kernel warns and fails too.
    """
    if shutil.which(CC) is None:
        return None
    env = dict(os.environ, CFLAGS="-std=c99 -Wall -Wextra -pedantic")
    path, log = build_kernel(tmp_path_factory.mktemp("ckernel"), env)
    if "warning:" in log:
        pytest.fail("the kernel built with compiler warnings:\n%s" % log)
    return load_kernel(path)


def load_kernel(path):
    """The ``_ckernel`` module built at ``path``, imported without installing it."""
    spec = importlib.util.spec_from_file_location("zoomgrad._ckernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel(built_kernel, monkeypatch):
    """The freshly built kernel, installed as the package's backend (``graph._kernel``)."""
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    monkeypatch.setattr(graph, "_kernel", built_kernel)
    return built_kernel


@pytest.fixture
def no_kernel(monkeypatch):
    """No module of the package sees a compiled kernel."""
    monkeypatch.setattr(graph, "_kernel", None)


def flood_consensus(y, q, g, rng, round_hook):
    """The per-round flood: ``run_consensus``'s oracle, with a round hook.

    Every node keeps flood values ``M`` and ``m``, resets them to its own
    ``ceil(y/z)`` and ``floor(y/z)`` at epoch starts, and pushes them along
    its out-edges every round; at an epoch end the run stops when every node
    has ``M - m <= 1``.  Splits and deliveries go through the engine's own
    ``_split_and_deliver``, so the RNG is consumed exactly as in
    ``run_consensus``, and the return value is the same (common value,
    ConsensusStats).  Every piece a round sends must lie in its epoch's
    snapshot ``[min reset_m, max reset_M]`` and in the first one.
    ``round_hook(lambda, record)`` runs after every round; the record holds
    the post-reset values (``reset_M``, ``reset_m``; None off epoch starts)
    and the end-of-round ``M``, ``m``, ``y`` and ``z``.
    """
    y = list(y)
    n = g.n
    z = [2] * n
    d_eff = effective_epoch(g.diameter)
    alphabet = set()

    for lam in range(1, engine.ROUND_CAP + 1):
        reset_M = reset_m = None
        if lam % d_eff == 1:
            M = reset_M = [-(-yi // zi) for yi, zi in zip(y, z)]
            m = reset_m = [yi // zi for yi, zi in zip(y, z)]
            lo, hi = min(reset_m), max(reset_M)  # this epoch's snapshot
            if lam == 1:
                lo0, hi0 = lo, hi
        new_M, new_m = M[:], m[:]
        for u, targets in enumerate(g.out_adj):
            Mu, mu = M[u], m[u]
            for v in targets:
                if Mu > new_M[v]:
                    new_M[v] = Mu
                if mu < new_m[v]:
                    new_m[v] = mu
        M, m = new_M, new_m
        pieces = set()
        engine._split_and_deliver(y, z, g, rng, pieces)
        assert all(lo <= c <= hi for c in pieces), "a piece left its epoch's snapshot"
        assert all(lo0 <= c <= hi0 for c in pieces), "a piece left the first snapshot"
        alphabet |= pieces
        round_hook(lam, {"reset_M": reset_M, "reset_m": reset_m, "M": M, "m": m, "y": y[:], "z": z[:]})
        if lam % d_eff == 0 and all(Mi - mi <= 1 for Mi, mi in zip(M, m)):
            assert len(set(m)) == 1, "stop fired with disagreeing nodes"
            return q.b_q + m[0] * q.delta, ConsensusStats(n, lam, len(alphabet), alphabet)
    raise ConsensusCapError(engine.ROUND_CAP)


def kernel_consensus(kernel, y, g, rng):
    """One consensus call on ``kernel`` alone, made as ``run_consensus``
    makes it: (rounds, m, alphabet size, pieces), or None when the kernel
    declines.  Raises ConsensusCapError at the round cap ``engine.ROUND_CAP``,
    read at each call, and leaves ``rng`` where the kernel left its copy."""
    out = kernel.run_rounds(
        y, g.kernel_handle(kernel), effective_epoch(g.diameter), engine.ROUND_CAP, rng.state, rng.inc
    )
    if out is None:
        return None
    stopped, rounds, m, size, pieces, rng.state = out
    if not stopped:
        raise ConsensusCapError(engine.ROUND_CAP)
    return rounds, m, size, pieces


def consensus_point(y, q, g, rng, **kwargs):
    """``run_consensus`` with its level ``m`` mapped to the grid point ``b_q + m*delta``."""
    m, stats = run_consensus(y, q, g, rng, **kwargs)
    return q.b_q + m * q.delta, stats


def fraction_zoom_decide(q, x_new, x_old, policy):
    """``optimizer.zoom_decide`` on the estimates themselves.

    Fires on ``x_new == x_old``; the adaptive range test cross-multiplies
    the integers of ``x_new``, ``b_q`` and ``delta``: with ``x_new = xn/xd``,
    ``b_q = bn/bd`` and ``delta = dn/dd``, ``x_new - b_q`` compares with
    ``+-H*delta`` as ``(xn*bd - bn*xd)*dd`` with ``+-H*dn*xd*bd``.
    """
    if x_new != x_old:
        return q, "none"
    if isinstance(policy, AdaptiveZoom):
        xn, xd = x_new.numerator, x_new.denominator
        bn, bd = q.b_q.numerator, q.b_q.denominator
        gap = (xn * bd - bn * xd) * q.delta.denominator
        rim = (2 ** (policy.quantizer_width - 1) - 1) * q.delta.numerator * xd * bd
        if gap >= rim or gap < -rim:
            return QuantizerState.of(x_new, q.delta * policy.c_out), "zoom_out"
        return QuantizerState.of(x_new, q.delta / policy.c_in), "zoom_in"
    if isinstance(policy, RefineOnly):
        return QuantizerState.of(q.b_q, q.delta / policy.c_refine), "refine"
    if isinstance(policy, FixedLevel):
        return q, "none"
    raise TypeError("unknown zoom policy %r" % (policy,))


def per_node_step(state, x_init, s, alpha, policy, rng):
    """``optimizer.step`` on the per-node path: the oracle.

    Every node takes its own exact gradient step from the estimate it holds
    and quantizes it on the unsaturated grid, at every step, step 1
    included, and the zoom rule compares estimates.  The oracle keeps its
    estimate as a ``Fraction`` in ``state.oracle_x`` and derives the levels
    the product keeps from it: the record's on the step's grid, the state's
    on the next one; its error is ``fraction_error_metric`` against the
    instance's optimum and spread.  It runs on the instance's graph, takes
    the starts ``x_init``, the suite ``s`` and the step size ``alpha``,
    which ``optimizer.step`` finds in the tables of the state's
    ``Instance``, and derives step 1's repeat rule from the starts itself; a
    caller that patches it in for ``optimizer.step`` binds ``x_init``, ``s``
    and ``alpha``.
    """
    pre_q = state.q
    x_prev = getattr(state, "oracle_x", None)
    xs = x_init if x_prev is None else [x_prev] * len(x_init)
    x_new, stats = consensus_point(init_consensus(gradient_step(xs, s, alpha), pre_q), pre_q, state.instance.graph, rng)
    x_old = x_new if x_prev is None and all(x0 == x_new for x0 in x_init) else x_prev
    new_q, event = fraction_zoom_decide(pre_q, x_new, x_old, policy)
    level = (x_new - pre_q.b_q) / pre_q.delta
    assert level.denominator == 1, "consensus output off the grid"
    rec = RunRecord(
        level=level.numerator,
        error=fraction_error_metric(x_new, state.instance.x_star, state.instance.spread),
        q=pre_q,
        zoom_event=event,
        consensus_rounds=stats.rounds,
        alphabet_size=len(set(stats.measured_alphabet)),
    )
    state.oracle_x, state.q = x_new, new_q
    state.level = (x_new - new_q.b_q) / new_q.delta
    state.history.append(rec)
    return rec


# The reference config's policies.
ADAPTIVE = build_policy(RunConfig())
REFINE = build_policy(RunConfig(policy={"variant": "refine_only"}))


def fraction_error_metric(x, x_star, spread):
    """``metrics.error_metric`` as one ``Fraction`` expression."""
    return math.sqrt(float((x - x_star) ** 2 * spread))


def saturation_half_range(q, width):
    """Half-width H*delta of a width-bit dynamic range (H = 2**(w-1) - 1)."""
    return (2 ** (width - 1) - 1) * q.delta


def level_index(q, xi, width):
    """Code c in [0, 2**width) of the width-bit bin holding ``xi``, saturated at both ends."""
    t = (xi - q.b_q) // q.delta  # signed bin count; Fraction floor-division is exact
    return min(max(t + 2 ** (width - 1), 0), 2**width - 1)


def clamped_quantize(q, xi, width):
    """``quantizer.quantize`` clamped to a width-bit range.

    The 2**width midpoints are ``b_q + (2c - (2**width - 1)) * delta / 2``
    for c = 0 .. 2**width - 1; an input outside ``[b_q - H*delta,
    b_q + H*delta)``, H = 2**(width-1) - 1, maps to the extreme midpoint.
    """
    return q.b_q + (2 * level_index(q, xi, width) - (2**width - 1)) * q.delta / 2


def per_node_spread(x_init, x_star):
    """``optimizer.start_spread`` as one ``Fraction`` term per node."""
    spread = Fraction(0)
    for j, x0 in enumerate(x_init):
        if x0 == x_star:
            raise ValueError("initial estimate at node %d equals the optimum; error metric undefined" % j)
        spread += Fraction(1, (x0 - x_star) ** 2)
    return spread


def node_costs(s):
    """The ``QuadraticCost`` of every node of the cost suite ``s``, in node
    order: the per-node view that ``optimizer.gradient_step`` walks."""
    return tuple(map(s.classes.__getitem__, s.node_class))


def total_curvature(s):
    """mu = L = sum of beta_i for the summed objective of the cost suite ``s``."""
    return sum(c.beta for c in node_costs(s))


@dataclass(frozen=True)
class EnvelopePoint:
    k: int
    bound: object  # theoretical distance bound (exact rational)
    empirical: object  # measured |x_hat - x*| (exact rational)


def contraction_envelope(alpha, mu, L, n, delta_seq, d0):
    """Theoretical distance bounds bound_0..bound_K, exact.

    bound_0 = d0 and bound_{k+1} = (1 - alpha*mu/n) * bound_k
    + (4*alpha*L/n + 2) * delta_seq[k].  Warns (does not fail) when alpha
    lies outside the admissible interval (0, 2n/(mu+L)].
    """
    alpha = Fraction(alpha)
    mu = Fraction(mu)
    L = Fraction(L)
    if not 0 < alpha <= Fraction(2 * n) / (mu + L):
        warnings.warn(
            "step size %s outside the admissible interval (0, %s]; the "
            "contraction guarantee does not apply" % (alpha, Fraction(2 * n) / (mu + L)),
            stacklevel=2,
        )
    rho = 1 - alpha * mu / n
    coeff = 4 * alpha * L / n + 2
    bounds = [Fraction(d0)]
    for delta in delta_seq:
        bounds.append(rho * bounds[-1] + coeff * Fraction(delta))
    return bounds


def envelope_from_history(history, alpha, mu, L, n, x_star):
    """Per-step (bound, empirical) pairs for a completed adaptive run.

    The recursion is anchored at the first common estimate (step 1), the
    earliest point where a single network-wide distance to the optimum
    exists; each later bound consumes the quantizer step that was in force
    during that iteration's consensus.
    """
    if not history:
        return []
    d0 = abs(history[0].x_value - x_star)
    delta_seq = [rec.q.delta for rec in history[1:]]
    bounds = contraction_envelope(alpha, mu, L, n, delta_seq, d0)
    return [
        EnvelopePoint(k=k, bound=b, empirical=abs(rec.x_value - x_star))
        for k, (rec, b) in enumerate(zip(history, bounds), 1)
    ]


def zoom_out_bound(x_star, delta0, c_out):
    """Upper bounds on how many zoom-outs are needed to capture x*.

    Returns (literal, corrected).  The literal form evaluates
    ceil((x* - log(3*delta0)) / log(c_out)) exactly as the bound is
    conventionally stated, even though it mixes a raw value with
    logarithms; the corrected form is the smallest nu >= 0 with
    3*delta0*c_out**nu >= |x*|, computed exactly.  Both are reported so
    the discrepancy stays visible.
    """
    delta0 = Fraction(delta0)
    c_out = Fraction(c_out)
    if delta0 <= 0 or c_out <= 1:
        raise ValueError("need delta0 > 0 and c_out > 1")
    if x_star == 0:
        raise ValueError("corrected zoom-out bound undefined for x* = 0")
    literal = math.ceil(
        (float(x_star) - math.log(3 * float(delta0))) / math.log(float(c_out))
    )
    abs_x = abs(Fraction(x_star))
    reach = 3 * delta0
    nu = 0
    while reach < abs_x:
        reach *= c_out
        nu += 1
    return literal, nu


def per_node_optimum(s):
    """``CostSuite.global_optimum`` as a ``Fraction`` sum over the nodes."""
    return sum(c.beta * c.x0 for c in node_costs(s)) / total_curvature(s)


def fraction_cost_classes(s, alpha):
    """``optimizer.cost_classes`` in ``Fraction`` arithmetic: each class's
    pulls ``(1 - alpha*beta, alpha*beta*x0)`` over their least common
    denominator."""
    pulls = []
    for c in s.classes:
        pull = alpha * c.beta
        pulls.append((1 - pull, pull * c.x0))
    lcm = math.lcm(*(r.denominator for pair in pulls for r in pair))
    coeffs = tuple((int(u * lcm), int(v * lcm)) for u, v in pulls)
    return CostClasses(s.node_class, lcm, coeffs)


def starts_of(xs):
    """The ``optimizer.Starts`` table of the per-node starts ``xs``.

    Equal values share one entry, so ``F(1)`` and ``F(2, 2)`` are one
    start; the entries keep the order in which the nodes first hold them.
    """
    den = math.lcm(*(x.denominator for x in xs))
    entry = {}
    node_start = tuple(entry.setdefault(x, len(entry)) for x in xs)
    return Starts(den, tuple(x.numerator * (den // x.denominator) for x in entry), node_start)


def start_values(starts):
    """Every node's start of the ``Starts`` table ``starts``, as a ``Fraction``."""
    return [Fraction(starts.nums[j], starts.den) for j in starts.node_start]


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


# Bulk bounded draws (``graph.randbelow_n``) as runs of (bound, count),
# taken one after another with the generator state threaded through.  From
# the raw generator state 0 (increment 1), whose first output is 0, "edges"
# gives bounds 0 and 1 and negative ones, which take no draw; 3, which
# rejects that 0 (randbelow(3)'s threshold is 2**32 % 3 = 1); 2; 2**31 + 1,
# which rejects nearly half of all outputs; and 2**32, which rejects none.
# "empty" is a count of 0, and "shuffle" the pure digraph shuffle's falling
# bounds, one draw each.
BULK_DRAW_BOUNDS = {
    "edges": [(b, 1) for b in (0, 1, 3, 2, 2**31 + 1, 2**32, -5, -(2**70), 3, 2)],
    "heavy-rejection": [(2**31 + 1, 40)],
    "full-range": [(2**32, 10)],
    "empty": [(3, 0)],
    "shuffle": [(b, 1) for b in range(300, 1, -1)],
}


# Arguments of the kernel's class arithmetic at its edges, each with
# whether the call declines: ``class_masses(coeffs, lcm, node_class, base,
# den, step, level)``.  The grid's edges, each at level 0 and at level -3:
# both remainders 0; a_c = 3 with rb/step = 1/3, an exact integer x_c = 1
# that the near-integer test resolves; a negative base on wide ints; |a_c|
# just below and at 2**53, on remainders 0 (with a remainder, its bound
# would reach 1/4, and the call declines); base // step beyond int64;
# a_c*qb beyond int64; a sum that passes int64 only when floor(x_c) = 1 is
# added; an exact integer x_c = 1 on a step beyond int64, which cannot be
# resolved; u_c - lcm below int64, and u_c beyond it; lcm 0; and step 0.
# Then the level's edges, on the grid den 1, base 0, step 1, where
# kappa_c = v_c exactly: classes shared by nodes, at a negative level; a
# negative floor; 2t + 1 at both ends of int64 and one past each; u_c*L
# beyond int64; u_c*L + kappa_c beyond it; a level beyond int64; lcm
# beyond int64; and lcm 0.
CLASS_EDGES = [
    ((coeffs, lcm, (0,) * len(coeffs), base, den, step, level), declines)
    for (coeffs, lcm, base, den, step), declines in [
        ((((10, 5),), 7, 0, 2, 1), False),
        ((((10, 5),), 7, 1, 3, 3), False),
        ((((-7, 11), (4, -3), (5, 5)), 5, -(2**90 + 12345), 2**80 + 7, 2**85 + 3), False),
        ((((2**53, 3),), 1, 3, 3, 3), False),
        ((((2**53 + 1, 3),), 1, 3, 3, 3), True),
        ((((1, 1),), 1, 2**70, 1, 1), True),
        ((((5, 0),), 1, 3 * 2**62, 1, 3), True),
        ((((3, 1),), 1, (2**62 - 1) * 7 + 6, 7, 7), True),
        ((((3, 0),), 1, 2**63, 1, 2**64), True),
        ((((-(2**63), 0),), 2**63 - 1, 1, 1, 3), True),
        ((((2**63, 0),), 1, 1, 1, 3), True),
        ((((1, 1),), 0, 1, 1, 3), True),
        ((((1, 1),), 1, 1, 1, 0), True),
    ]
    for level in (0, -3)
] + [
    ((((3, 4), (-5, -9)), 7, (0, 1, 1, 0), 0, 1, 1, -3), False),
    ((((1, -1),), 4, (0,), 0, 1, 1, 0), False),
    ((((1, 0),), 1, (0, 0), 0, 1, 1, 2**62 - 1), False),
    ((((1, 0),), 1, (0,), 0, 1, 1, 2**62), True),
    ((((1, 0),), 1, (0,), 0, 1, 1, -(2**62)), False),
    ((((1, 0),), 1, (0,), 0, 1, 1, -(2**62) - 1), True),
    ((((2**40, 0),), 1, (0,), 0, 1, 1, 2**30), True),
    ((((1, 1),), 1, (0,), 0, 1, 1, 2**63 - 1), True),
    ((((1, 0),), 1, (0,), 0, 1, 1, 2**63), True),
    ((((1, 0),), 2**63, (0,), 0, 1, 1, 1), True),
    ((((1, 0),), 0, (0,), 0, 1, 1, 1), True),
]


def masked_digest(text):
    """SHA-256 of a CSV with every ``backend`` cell replaced by ``*``."""
    assert '"' not in text  # no quoted cells, so splitting on commas is exact
    lines = text.split("\n")
    header = lines[0].split(",")
    if "backend" in header:
        col = header.index("backend")
        for i in range(1, len(lines)):
            if lines[i]:
                cells = lines[i].split(",")
                cells[col] = "*"
                lines[i] = ",".join(cells)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digraph(n, edges):
    """The ``Digraph`` on nodes 0..n-1 with the loop-free edge list ``edges``."""
    rows = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
    return Digraph(tuple(tuple(sorted(r)) for r in rows))


def ring(n):
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0 (diameter n-1)."""
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    """Complete digraph on n nodes (diameter 1)."""
    return digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def bidirectional_pair():
    return digraph(2, [(0, 1), (1, 0)])


def cost_suite(costs):
    """The ``CostSuite`` of the per-node ``QuadraticCost``s ``costs``, grouped
    into classes as ``runner.build_costs`` groups an explicit cost list."""
    pairs = [(c.beta, c.x0) for c in costs]
    return build_costs(RunConfig(n=len(pairs), cost_spec={"kind": "explicit", "costs": pairs}))


@pytest.fixture
def ring3():
    return ring(3)


F = Fraction
