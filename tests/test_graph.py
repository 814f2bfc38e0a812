"""Digraph generation and analysis, cross-checked against oracles.

networkx and an all-pairs BFS (``bfs_diameter``) are the independent
oracles for strong connectivity and diameter; the pure shuffle and edge-draw
loop are the oracle for the C kernel's ``random_out_adj`` and ``rows``, and
``PCG32.randbelow`` draw by draw for its bulk draws ``randbelow_n``.  The generator's own
guarantees (cycle-first construction, determinism, exact edge probabilities
at p in {0, 1}, pinned output bytes) are asserted directly.
"""

import gc
import hashlib
import os
import random
import re
import types
import warnings
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BULK_DRAW_BOUNDS, CC, complete, digraph, ring
from zoomgrad import graph, objective, runner
from zoomgrad.config import RunConfig
from zoomgrad.graph import (
    Digraph,
    diameter,
    generate_random_digraph,
)
from zoomgrad.consensus.engine import ROUND_CAP, effective_epoch, run_consensus
from zoomgrad.quantizer import QuantizerState
from zoomgrad.rng import PCG32, STREAM_GRAPH, STREAM_PROTOCOL


def bfs_diameter(g):
    """All-pairs BFS: the largest eccentricity, or ValueError if some pair is unreachable."""
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.out_adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < g.n:
            raise ValueError("not strongly connected")
        best = max(best, max(dist.values()))
    return best


def assert_diameter_matches_bfs(g):
    try:
        want = bfs_diameter(g)
    except ValueError:
        with pytest.raises(ValueError, match="diameter undefined: digraph is not strongly connected"):
            diameter(g)
    else:
        assert diameter(g) == want


def to_nx(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u, v) for u, targets in enumerate(g.out_adj) for v in targets)
    return G


@pytest.mark.parametrize("n", [3, 5, 10, 20])
@pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2)])
def test_generated_graphs_match_networkx(n, p):
    for seed in range(6):
        g = generate_random_digraph(n, p, seed)
        G = to_nx(g)
        assert nx.is_strongly_connected(G)
        # all-pairs longest shortest path
        want = max(
            max(lengths.values()) for _, lengths in nx.shortest_path_length(G)
        )
        assert diameter(g) == want
        assert g.diameter == want  # cached property agrees


def test_generation_deterministic():
    a = generate_random_digraph(12, Fraction(1, 2), 3)
    b = generate_random_digraph(12, Fraction(1, 2), 3)
    assert a.out_adj == b.out_adj
    c = generate_random_digraph(12, Fraction(1, 2), 4)
    assert a.out_adj != c.out_adj


def test_p_zero_gives_hamiltonian_cycle():
    g = generate_random_digraph(9, 0, 5)
    assert g.edge_count() == 9
    assert all(len(g.out_adj[u]) == 1 for u in range(9))
    assert nx.is_strongly_connected(to_nx(g))
    assert diameter(g) == 8


def test_p_one_gives_complete_digraph():
    g = generate_random_digraph(6, 1, 5)
    assert g.edge_count() == 6 * 5
    assert diameter(g) == 1


def no_draws(*args):
    raise AssertionError("a generator was created before the arguments were validated")


@pytest.mark.parametrize("n", [0, 1])
def test_too_few_nodes_rejected_before_drawing(n, monkeypatch):
    monkeypatch.setattr(graph, "PCG32", no_draws)
    with pytest.raises(ValueError, match="need at least 2 nodes"):
        generate_random_digraph(n, Fraction(1, 2), 0)


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_too_many_nodes_rejected_before_drawing(backend, request, monkeypatch):
    # One node more than the kernel takes is refused before a generator is
    # made, so no generator moves: the pure path would otherwise start a
    # 2**25-node shuffle, and the kernel raise from inside its call.
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    monkeypatch.setattr(graph, "PCG32", no_draws)
    with pytest.raises(ValueError, match="at most %d, got" % graph.MAX_NODES):
        generate_random_digraph(graph.MAX_NODES + 1, Fraction(1, 2), 0)


def test_edge_prob_out_of_range(monkeypatch):
    monkeypatch.setattr(graph, "PCG32", no_draws)
    for p in (Fraction(-1, 10), Fraction(11, 10), Fraction(3, 2)):
        with pytest.raises(ValueError, match="edge_prob"):
            generate_random_digraph(5, p, 0)


def test_ring_and_complete_diameters():
    # Rings give D = n - 1, the longest run of levels before every row is full.
    for n in range(2, 61):
        assert diameter(ring(n)) == bfs_diameter(ring(n)) == n - 1
    for n in range(2, 13):
        assert diameter(complete(n)) == bfs_diameter(complete(n)) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.integers(min_value=0, max_value=2**32),
)
def test_diameter_matches_bfs_on_random_digraphs(n, p, seed):
    # Low p leaves most of these not strongly connected: both must raise.
    rnd = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rnd.random() < p]
    assert_diameter_matches_bfs(digraph(n, edges))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.integers(min_value=0, max_value=2**32),
)
def test_diameter_matches_bfs_on_generated_instances(n, p, seed):
    g = generate_random_digraph(n, p, seed)
    assert diameter(g) == bfs_diameter(g)


NOT_STRONGLY_CONNECTED = [
    # Node 0 reaches every node, but the sink 2 never gets back.
    [(0, 1), (1, 0), (1, 2)],
    # Node 2 reaches every node, but no node reaches it.
    [(0, 1), (1, 0), (2, 0)],
    # An isolated sink.
    [(0, 1), (1, 0)],
]


def test_not_strongly_connected_detected():
    for edges in NOT_STRONGLY_CONNECTED:
        g = digraph(3, edges)
        assert not nx.is_strongly_connected(to_nx(g))
        with pytest.raises(ValueError, match="not strongly connected"):
            bfs_diameter(g)
        with pytest.raises(ValueError, match="diameter undefined: digraph is not strongly connected"):
            diameter(g)


# Random digraphs past one and two 64-bit words per row, at edge
# probabilities that leave some of them not strongly connected.
WIDE_RANDOM = [(n, p, seed) for n in (63, 64, 65, 100, 129, 200) for p in (0.03, 0.05, 0.1) for seed in (0, 1)]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_diameter_across_word_boundaries(backend, request):
    # The kernel packs each reach row into ceil(n / 64) words; rings give
    # the longest run of levels, D = n - 1, at and around each boundary.
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    for n in (63, 64, 65, 127, 128, 129):
        assert diameter(ring(n)) == bfs_diameter(ring(n)) == n - 1
    outcomes = set()
    for n, p, seed in WIDE_RANDOM:
        rnd = random.Random(seed)
        g = digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rnd.random() < p])
        assert_diameter_matches_bfs(g)
        outcomes.add(nx.is_strongly_connected(to_nx(g)))
    assert outcomes == {True, False}
    for n in (65, 129, 200):
        for p in (Fraction(0), Fraction(1, 100)):
            g = generate_random_digraph(n, p, n)
            assert diameter(g) == bfs_diameter(g)
    for edges in NOT_STRONGLY_CONNECTED:
        with pytest.raises(ValueError, match="diameter undefined: digraph is not strongly connected"):
            diameter(digraph(3, edges))


def diameter_cases(n):
    """Digraphs on n nodes for the kernel's diameter: random ones, most not
    strongly connected at low p; the same with a ring added, so strongly
    connected; a path, never strongly connected past one node; a ring with
    a hub that reaches every node in one step, whose rows fill at every
    level from 1 to n - 1; and the complete digraph."""
    rnd = random.Random(n)
    cycle = [(u, (u + 1) % n) for u in range(n)] if n > 1 else []
    cases = [digraph(n, cycle), digraph(n, [(u, u + 1) for u in range(n - 1)])]
    cases.append(digraph(n, cycle + [(0, v) for v in range(1, n)]))
    cases.append(digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v]))
    for p in (0.02, 0.1, 0.5, 0.9):
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rnd.random() < p]
        cases += [digraph(n, edges), digraph(n, edges + cycle)]
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 130])
def test_kernel_diameter_equals_the_bigint_recurrence(kernel, n):
    # The kernel sets level 1 from the rows and stops ORing into a row once
    # it is full; the big-int recurrence is the oracle, -1 included, on
    # rows of one, two and three words.
    ds = [graph._bigint_diameter(g) for g in diameter_cases(n)]
    assert [kernel.diameter(kernel.csr(g.out_adj)) for g in diameter_cases(n)] == ds
    if n > 2:
        assert -1 in ds and n - 1 in ds and 1 in ds


def test_adjacency_is_sorted_and_deduplicated():
    g = digraph(4, [(2, 1), (2, 3), (2, 1), (0, 1), (1, 0), (3, 0)])
    assert g.out_adj == ((1,), (0,), (1, 3), (0,))
    assert g.edge_count() == 5
    # Digraph takes its rows as given: the generator's are sorted and
    # loop-free, with no repeats.
    g = generate_random_digraph(30, Fraction(1, 3), 5)
    assert all(list(row) == sorted(set(row) - {u}) for u, row in enumerate(g.out_adj))


def test_graph_stream_isolated_from_other_draws():
    # The topology must depend only on (n, p, seed), never on how many
    # draws other components consumed; regenerating is enough to prove it
    # (fresh stream), but also pin one concrete graph for regressions.
    g = generate_random_digraph(5, Fraction(1, 2), 1)
    assert g.out_adj == generate_random_digraph(5, Fraction(1, 2), 1).out_adj
    assert nx.is_strongly_connected(to_nx(g))


# Thresholds at both ends of the 32-bit range: p = 1/2**32 keeps a pair only
# on a zero draw, and p = 1 gives threshold 2**32, which no draw reaches.
DRAW_PROBS = [
    Fraction(0),
    Fraction(1, 2**32),
    Fraction(1, 50),
    Fraction(1, 2),
    Fraction(2**32 - 1, 2**32),
    Fraction(1),
]


DRAW_NODES = [2, 3, 17, 64]
DRAW_SEEDS = [0, 1, 7, 2**32]


def pure_shuffled_cycle(n, rng):
    """``generate_random_digraph``'s pure shuffle: the cycle's successors."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    succ = [0] * n
    for k in range(n):
        succ[perm[k]] = perm[(k + 1) % n]
    return succ


@pytest.mark.parametrize("n", DRAW_NODES)
@pytest.mark.parametrize("p", DRAW_PROBS)
@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_kernel_edge_draws_match_pure(kernel, n, p, seed):
    # The kernel draws the shuffle and the edges in one call; the pure
    # shuffle and edge scan, drawn from the same state, are its oracle.
    threshold = (p.numerator << 32) // p.denominator
    pure_rng = PCG32(seed, STREAM_GRAPH)
    succ = pure_shuffled_cycle(n, pure_rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", None)
        want = graph._draw_digraph(succ, threshold, pure_rng).out_adj
    state, inc = PCG32(seed, STREAM_GRAPH).getstate()
    handle, end_state = kernel.random_out_adj(n, threshold, state, inc)
    got = kernel.rows(handle)
    assert got == want
    assert (end_state, inc) == pure_rng.getstate()
    # the kernel's rows hold only ints, so it keeps them out of the cyclic GC
    assert not any(gc.is_tracked(row) for row in got)
    assert all(succ[u] in row and u not in row for u, row in enumerate(got))
    if p == 1:
        assert all(len(row) == n - 1 for row in got)
    if p == 0:
        assert all(row == (succ[u],) for u, row in enumerate(got))


@pytest.mark.parametrize("n", [-1, 0, 1, 2**25 - 1])
def test_kernel_refuses_a_node_count_before_drawing(kernel, n):
    # The kernel takes 2 to 2**25 - 2 nodes; any other count is refused
    # before the shuffle's first draw, so the generator stays where it was.
    rng = PCG32(3, STREAM_GRAPH)
    state = rng.getstate()
    with pytest.raises(ValueError, match="need 2 <= n <= %d" % (2**25 - 2)):
        rng.state = kernel.random_out_adj(n, 2**31, rng.state, rng.inc)[1]
    assert rng.getstate() == state


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_a_graph_with_no_nodes_has_no_diameter(backend, request):
    # Both backends refuse it alike, before the kernel would flatten it.
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    with pytest.raises(ValueError, match="diameter undefined: digraph has no nodes"):
        diameter(Digraph(()))


# n = 65 puts a row's reach set across two 64-bit words.
@pytest.mark.parametrize("n", DRAW_NODES + [65])
@pytest.mark.parametrize("p", DRAW_PROBS)
@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_generated_handle_matches_the_flattened_rows(kernel, n, p, seed):
    # The handle the edge scan builds and the one csr builds from the
    # scan's rows are the same graph to the kernel: the same diameter, and
    # the same consensus run, result, alphabet bytes and RNG state.
    g = generate_random_digraph(n, p, seed)
    assert g._kernel_handle[0] is kernel
    own, flat = g.kernel_handle(kernel), kernel.csr(g.out_adj)
    assert own is g._kernel_handle[1]
    assert kernel.diameter(own) == kernel.diameter(flat) == bfs_diameter(g)
    y = [(u * u * 7919) % 61 - 30 for u in range(n)]
    d_eff = effective_epoch(g.diameter)
    state, inc = PCG32(seed, STREAM_PROTOCOL).getstate()
    want = kernel.run_rounds(y, flat, d_eff, ROUND_CAP, state, inc)
    assert want is not None and want[0]
    assert kernel.run_rounds(y, own, d_eff, ROUND_CAP, state, inc) == want


def test_a_generated_graph_never_flattens_its_rows(kernel, monkeypatch):
    # Generation, the diameter and a consensus run all read the handle the
    # edge scan built: a kernel whose csr fails is never asked to flatten.
    class NoCsr:
        ABI, random_out_adj, rows = kernel.ABI, kernel.random_out_adj, kernel.rows
        diameter, run_rounds = kernel.diameter, kernel.run_rounds

        @staticmethod
        def csr(out_adj):
            raise AssertionError("a generated graph's rows were flattened again")

    monkeypatch.setattr(graph, "_kernel", NoCsr)
    g = generate_random_digraph(65, Fraction(1, 2), 3)
    assert g.diameter == bfs_diameter(g)
    y = [2 * (u % 7) - 5 for u in range(g.n)]  # odd masses, as init_consensus gives
    q = QuantizerState.of(b_q=Fraction(0), delta=Fraction(1))
    assert run_consensus(y, q, g, PCG32(3, STREAM_PROTOCOL))[1].rounds > 0
    assert g._kernel_handle[0] is NoCsr


class CountingRows:
    """``kernel`` with its ``rows`` calls counted in ``made`` and its
    ``run_rounds`` outcomes in ``declined`` (True for a decline)."""

    def __init__(self, kernel):
        self.kernel, self.made, self.declined = kernel, 0, []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def rows(self, handle):
        self.made += 1
        return self.kernel.rows(handle)

    def run_rounds(self, *args):
        out = self.kernel.run_rounds(*args)
        self.declined.append(out is None)
        return out


def test_generated_rows_are_made_only_when_a_pure_path_reads_them(kernel, monkeypatch):
    counting = CountingRows(kernel)
    monkeypatch.setattr(graph, "_kernel", counting)
    # A compiled run to the stop rule with no decline never makes the rows.
    state = runner.run_single(RunConfig(n=40, seed=2))
    assert state.history and counting.declined and not any(counting.declined)
    assert counting.made == 0

    # A declined consensus call (sum |y| beyond int64) makes them once, for
    # the pure path, which replays the all-Python run exactly.
    g = generate_random_digraph(12, Fraction(1, 3), 4)
    pure = Digraph(pure_generated(12, Fraction(1, 3), 4))
    y = [2**61 + 2 * u + 1 for u in range(12)]
    q = QuantizerState.of(b_q=Fraction(0), delta=Fraction(1))

    def run(g, **kw):
        rng = PCG32(4, STREAM_PROTOCOL)
        return run_consensus(y, q, g, rng, **kw), rng.getstate()

    want = run(pure, force_backend="pure")
    for _ in range(2):
        assert run(g) == want
        assert counting.declined[-1] and counting.made == 1
    assert g.out_adj == pure.out_adj

    # Another kernel gets a handle of its own, flattened from the rows that
    # the generating kernel makes from its handle before it is replaced.
    counting.made = 0
    g = generate_random_digraph(65, Fraction(1, 2), 3)
    own = g.kernel_handle(counting)
    other = g.kernel_handle(kernel)
    assert counting.made == 1 and g._kernel_handle == (kernel, other) and other is not own
    assert g.out_adj == pure_generated(65, Fraction(1, 2), 3)
    assert kernel.diameter(other) == kernel.diameter(own) == bfs_diameter(g)


def pure_generated(n, p, seed):
    """The rows ``generate_random_digraph`` draws on the pure path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", None)
        return generate_random_digraph(n, p, seed).out_adj


# --- bulk bounded draws ------------------------------------------------------


def per_draw(runs, state, inc):
    """``randbelow`` draw by draw, over the runs of (bound, count), from the
    raw generator state: (draws, state)."""
    rng = PCG32(0)
    rng.setstate((state, inc))
    return [rng.randbelow(b) for b, count in runs for _ in range(count)], rng.state


def bulk_draws(kernel, runs, state, inc):
    """``kernel.randbelow_n`` on each run of (bound, count) in turn, the
    state threaded from one to the next: (draws, state)."""
    draws = []
    for bound, count in runs:
        out, state = kernel.randbelow_n(bound, count, state, inc)
        draws += out
    return draws, state


@pytest.mark.parametrize("name", sorted(BULK_DRAW_BOUNDS))
@pytest.mark.parametrize("state, inc", [(0, 1), PCG32(7, STREAM_GRAPH).getstate()], ids=["state0", "seeded"])
def test_kernel_bulk_draws_match_randbelow(kernel, name, state, inc):
    runs = BULK_DRAW_BOUNDS[name]
    assert bulk_draws(kernel, runs, state, inc) == per_draw(runs, state, inc)


def test_kernel_bulk_draws_reject_what_randbelow_rejects(kernel):
    # From state 0 the first two outputs are 0, below randbelow(3)'s
    # threshold 1, so bound 3 takes the third; bounds 0 and 1 before it take
    # none.
    probe = PCG32(0)
    probe.setstate((0, 1))
    outputs = [probe.next_u32() for _ in range(3)]
    assert outputs[:2] == [0, 0] and outputs[2] > 0
    assert bulk_draws(kernel, [(0, 1), (1, 1), (3, 1)], 0, 1) == ([0, 0, outputs[2] % 3], probe.state)


@pytest.mark.parametrize("backend", ["compiled", "pure"])
@pytest.mark.parametrize("bound", [2**32 + 1, 2**64, 2**100])
def test_bulk_draws_refuse_a_bound_beyond_32_bits(backend, bound, request):
    # Both backends check the bound before the first draw, whatever the
    # count, so a refused call leaves the generator where it was.
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    rng = PCG32(0)
    state = rng.getstate()
    for count in (0, 1, 2):
        with pytest.raises(ValueError, match="bound %d exceeds the 32-bit output range" % bound):
            graph.randbelow_n(rng, bound, count)
        assert rng.getstate() == state


@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_bulk_draws_refuse_a_negative_count(backend, request):
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    rng = PCG32(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="need count >= 0"):
        graph.randbelow_n(rng, 3, -1)
    assert rng.getstate() == state


def with_draw_states(monkeypatch, build):
    """``build()`` and the RNG state after each bulk draw it takes.  A
    generated graph's draws count as one, ended by its generator's final
    state: the kernel takes them in one ``random_out_adj`` call."""
    states, made = [], []
    draw = graph.randbelow_n

    def recording(rng, bound, count):
        out = draw(rng, bound, count)
        states.append(rng.getstate())
        return out

    for module in (objective, runner):
        monkeypatch.setattr(module, "randbelow_n", recording)

    class Recorded(PCG32):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(graph, "PCG32", Recorded)
    built = build()
    return built, states + [rng.getstate() for rng in made]


def suite_table(s):
    return s.classes, s.node_class


INSTANCE_BUILDERS = {
    "digraph": lambda: generate_random_digraph(300, Fraction(1, 20), 5).out_adj,
    "costs": lambda: suite_table(runner.build_costs(RunConfig(n=500, seed=3))),
    "costs-shared-x0": lambda: suite_table(
        runner.build_costs(RunConfig(n=500, seed=3, cost_spec={"kind": "random", "shared_x0": True}))
    ),
    # x* = 3 is on the start grid, so the draws that land on it are nudged
    "x_init": lambda: runner.sample_x_init(RunConfig(n=500, seed=4), Fraction(3)),
}


@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDERS))
def test_instance_builders_draw_alike_on_both_backends(built_kernel, name):
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    runs = []
    for backend in (None, built_kernel):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_kernel", backend)
            runs.append(with_draw_states(mp, INSTANCE_BUILDERS[name]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 1  # every builder takes its draws in one call


# sha256(repr(out_adj)) of generated instances, pinned from the all-Python
# generator so that a change breaking both backends the same way still fails.
PINNED = [
    pytest.param(
        400, Fraction(1, 2), 0, "19e4ba08ba882d6e72e975a004c846c25c8d4be52995fba8ad877b112644b364", 79677, 2, id="n400"
    ),
    pytest.param(
        1000, Fraction(1, 50), 0, "7021c0394f6b3fadaac58b71c5aee3f2995953277fd7b4af2122221ba34e6c5f", 20964, 4, id="n1000"
    ),
    pytest.param(
        2000, Fraction(1, 50), 0, "65f3bd2930b2517464c19c0d1d4a90d58758be3fdc749b85fc66b79a87a43c39", 82265, 3, id="n2000"
    ),
]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("n, p, seed, digest, edges, diam", PINNED)
def test_generated_bytes_pinned(backend, n, p, seed, digest, edges, diam, request):
    request.getfixturevalue("kernel" if backend == "compiled" else "no_kernel")
    g = generate_random_digraph(n, p, seed)
    assert hashlib.sha256(repr(g.out_adj).encode()).hexdigest() == digest
    assert g.edge_count() == edges
    assert g.diameter == diam


# --- the kernel's ABI check -------------------------------------------------


def fake_kernel(tmp_path, **attrs):
    module = types.ModuleType("zoomgrad._ckernel")
    module.__file__ = str(tmp_path / "_ckernel.so")
    module.__dict__.update(attrs)
    return module


@pytest.mark.parametrize(
    "attrs",
    [{}, {"ABI": graph.KERNEL_ABI + 1}, {"ABI": str(graph.KERNEL_ABI)}]
    + [{"ABI": abi} for abi in range(2, graph.KERNEL_ABI)],
)
def test_a_kernel_built_for_another_abi_is_refused(attrs, tmp_path):
    # A build without ABI (older source) or with another one, each earlier
    # ABI among them, is not used: the pure paths run, and the warning names
    # the file and the rebuild.
    stale = fake_kernel(tmp_path, diameter=None, **attrs)
    with pytest.warns(RuntimeWarning) as caught:
        assert graph._checked_kernel(stale) is None
    message = str(caught[0].message)
    assert stale.__file__ in message
    assert "python3 setup.py build_ext --inplace" in message


def test_a_kernel_built_for_this_abi_or_none_passes(tmp_path):
    current = fake_kernel(tmp_path, ABI=graph.KERNEL_ABI)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert graph._checked_kernel(current) is current
        assert graph._checked_kernel(None) is None


def test_the_kernel_source_declares_this_abi():
    # Read from the C source's text, so that a source change without the
    # bump on both sides fails on a host with no C compiler too.
    with open(os.path.join(os.path.dirname(graph.__file__), "_ckernel.c")) as f:
        declared = re.findall(r"^#define KERNEL_ABI (\d+)$", f.read(), re.M)
    assert declared == [str(graph.KERNEL_ABI)]


def test_the_kernel_source_declares_this_node_bound():
    # Read from the C source's text like the ABI: the kernel refuses a graph
    # of more nodes than its narrow split is exact for, and the package
    # refuses the same count before it reaches the kernel.
    with open(os.path.join(os.path.dirname(graph.__file__), "_ckernel.c")) as f:
        declared = re.findall(r"^#define MAX_NODES \(\(1 << (\d+)\) - (\d+)\)$", f.read(), re.M)
    assert [(1 << int(shift)) - int(less) for shift, less in declared] == [graph.MAX_NODES]


def test_the_built_kernel_passes_the_abi_check(kernel):
    assert kernel.ABI == graph.KERNEL_ABI
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert graph._checked_kernel(kernel) is kernel
