"""Consensus protocol: hand-traced examples, conservation/agreement/accuracy
invariants, epoch flooding correctness, snapshot-vs-flood and backend
parity, and failure modes.

The accuracy oracle throughout is the direct average of the quantized
inputs: the protocol must land every node on one grid point within one
quantization step of that average.
"""

import datetime
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BULK_DRAW_BOUNDS,
    CC,
    ROOT,
    bidirectional_pair,
    build_kernel,
    clamped_quantize,
    complete,
    consensus_point,
    digraph,
    flood_consensus,
    load_kernel,
    ring,
)
from zoomgrad import graph
from zoomgrad.consensus import engine
from zoomgrad.consensus.engine import (
    ROUND_CAP,
    ConsensusCapError,
    ConsensusStats,
    effective_epoch,
    init_consensus,
    run_consensus,
    sample_out_target,
)
from zoomgrad.graph import Digraph, generate_random_digraph
from zoomgrad.quantizer import QuantizerState, grid_point, quantize
from zoomgrad.rng import PCG32, STREAM_PROTOCOL

Q_HALF = QuantizerState.of(b_q=F(0), delta=F(1, 2))


def quantized(q, xi, width):
    """``xi`` on the grid q, clamped to the width-bit range unless width is None."""
    return quantize(q, xi) if width is None else clamped_quantize(q, xi, width)


def masses(x_half, q, width=3):
    """Initial masses of a width-bit quantizer on the grid q.

    The inputs are clamped to the width-bit range first; ``width=None`` is
    the unsaturated grid, on which ``init_consensus`` alone gives the masses.
    """
    return init_consensus([quantized(q, xi, width) for xi in x_half], q)


def oracle_mean(x_half, q, width=3):
    return sum(quantized(q, xi, width) for xi in x_half) / len(x_half)


# --- initialization -------------------------------------------------------


def test_init_basic():
    assert init_consensus([F(1, 4)], Q_HALF) == [1]


def test_init_saturated():
    assert masses([F(-10)], Q_HALF) == [-7]
    assert init_consensus([F(-10)], Q_HALF) == [-39]  # the grid alone never clamps


def test_init_three_nodes():
    y = init_consensus([F(1, 4), F(3, 4), F(5, 4)], Q_HALF)
    assert y == [1, 3, 5]
    assert sum(y) == 9


@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    st.fractions(min_value=F(1, 32), max_value=2, max_denominator=32),
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=256), min_size=1, max_size=6),
    st.sampled_from([3, None]),
)
def test_init_masses_are_odd_integers(b_q, delta, xs, width):
    # y is twice a midpoint offset: 2*((2t+1)*delta/2)/delta = 2t+1, for any
    # basis -- including the non-grid-aligned bases left behind by zooms.
    q = QuantizerState.of(b_q=b_q, delta=delta)
    for y in masses(xs, q, width):
        assert type(y) is int
        assert y % 2 == 1


# --- target sampling ------------------------------------------------------


def test_sample_out_target_frequencies():
    # out-degree 3 -> self and each neighbor with probability 1/4;
    # binomial standard error at 10^5 draws is ~0.0014, so +-0.01 is wide.
    g = complete(4)
    rng = PCG32(3, STREAM_PROTOCOL)
    draws = 100_000
    counts = [0, 0, 0, 0]
    for _ in range(draws):
        counts[sample_out_target(0, g, rng)] += 1
    for c in counts:
        assert abs(c / draws - 0.25) < 0.01


def test_sample_out_target_replay():
    g = generate_random_digraph(10, F(1, 2), 4)
    a = PCG32(9, STREAM_PROTOCOL)
    b = PCG32(9, STREAM_PROTOCOL)
    seq_a = [sample_out_target(i % 10, g, a) for i in range(200)]
    seq_b = [sample_out_target(i % 10, g, b) for i in range(200)]
    assert seq_a == seq_b
    for i, t in enumerate(seq_a):
        assert t == i % 10 or t in g.out_adj[i % 10]


# --- hand-traced examples -------------------------------------------------


def test_all_equal_inputs_trace():
    # Every node holds y=1, z=2: each splits off c = floor(1/2) = 0, so the
    # value mass never moves; resets give M=1, m=0, and the first epoch-end
    # check fires with output b_q + 0*delta = 0.
    g = ring(3)
    records = []
    result, stats = flood_consensus(
        init_consensus([F(1, 4)] * 3, Q_HALF),
        Q_HALF,
        g,
        PCG32(1, STREAM_PROTOCOL),
        lambda lam, rec: records.append((lam, dict(rec))),
    )
    assert result == F(0)
    d_eff = effective_epoch(g.diameter)
    assert stats.rounds == d_eff  # stops at the first epoch end
    lam1, rec1 = records[0]
    assert lam1 == 1
    assert rec1["reset_M"] == [1, 1, 1]
    assert rec1["reset_m"] == [0, 0, 0]
    assert set(stats.measured_alphabet) <= {0}


def test_all_equal_on_complete_graph():
    result, _ = consensus_point(
        init_consensus([F(1, 4)] * 5, Q_HALF), Q_HALF, complete(5), PCG32(2, STREAM_PROTOCOL)
    )
    assert result == F(0)


def test_three_node_split_outcomes():
    # y = {1, 3, 5}: global ratio 9/6 = 3/2 levels, true quantized mean 3/4.
    # Any stop must land within delta of that mean, and on this instance the
    # only reachable grid outputs are 1/2 and 1.
    x = [F(1, 4), F(3, 4), F(5, 4)]
    seen = set()
    for seed in range(40):
        for g in (ring(3), complete(3)):
            out, _ = consensus_point(init_consensus(x, Q_HALF), Q_HALF, g, PCG32(seed, STREAM_PROTOCOL))
            assert abs(out - F(3, 4)) <= F(1, 2)
            assert out in (F(1, 2), F(1))
            seen.add(out)
    assert seen  # at least one outcome observed


def test_two_node_conservation_forever():
    # y = {1, 3} on a bidirectional pair: sum y = 4 and sum z = 4 hold in
    # every round regardless of how the pieces bounce.
    g = bidirectional_pair()
    sums = []
    flood_consensus(
        init_consensus([F(1, 4), F(3, 4)], Q_HALF),
        Q_HALF,
        g,
        PCG32(5, STREAM_PROTOCOL),
        lambda lam, rec: sums.append((sum(rec["y"]), sum(rec["z"]))),
    )
    assert sums
    assert set(sums) == {(4, 4)}


# --- protocol invariants --------------------------------------------------


def random_instance(seed, n):
    rng = PCG32(seed, STREAM_PROTOCOL)
    g = generate_random_digraph(n, F(1, 2), seed)
    # inputs on a quarter grid straddling the quantizer range
    x = [F(rng.randbelow(65) - 32, 4) for _ in range(n)]
    return g, x, rng


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_agreement_accuracy_conservation(n):
    # A compact version of the acceptance batch: every run terminates, all
    # nodes agree exactly, the result is within delta of the quantized-input
    # average, and per-round mass sums never move.
    for seed in range(15):
        g, x, rng = random_instance(seed, n)
        for width in (3, None):
            q = QuantizerState.of(b_q=F(0), delta=F(1, 2))
            y0 = sum(masses(x, q, width))
            violations = []
            final_m = []

            def hook(lam, rec, y0=y0, n=n, final_m=final_m):
                if sum(rec["y"]) != y0 or sum(rec["z"]) != 2 * n:
                    violations.append(lam)
                final_m[:] = rec["m"]

            result, stats = flood_consensus(masses(x, q, width), q, g, rng, hook)
            assert not violations
            # every node's flooded minimum, hence its output, is the same
            assert set(final_m) == {(result - q.b_q) / q.delta}
            assert abs(result - oracle_mean(x, q, width)) <= q.delta
            # output is a grid point: integer number of steps from the basis
            assert ((result - q.b_q) / q.delta).denominator == 1
            assert stats.rounds >= 1
            assert stats.mass_transmissions == n * stats.rounds


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_consensus_property_randomized(n, seed, data):
    g = generate_random_digraph(n, F(1, 2), seed)
    xs = data.draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=16),
            min_size=n,
            max_size=n,
        )
    )
    result, stats = consensus_point(masses(xs, Q_HALF), Q_HALF, g, PCG32(seed, STREAM_PROTOCOL))
    assert abs(result - oracle_mean(xs, Q_HALF)) <= Q_HALF.delta
    assert stats.mass_transmissions >= 0


def test_epoch_flooding_reaches_global_extremes():
    # Within each epoch the flood must propagate the epoch-start extremes to
    # every node by the epoch's last round: this is what makes the stop test
    # simultaneous and network-wide.  The ring has the longest epoch at this
    # size (D' = 9); the complete graph has diameter 1, so D' = 2.
    instances = [random_instance(seed, 10) for seed in range(8)]
    _, x, _ = random_instance(8, 10)
    instances += [(g, x, PCG32(8, STREAM_PROTOCOL)) for g in (ring(10), complete(10))]
    for g, x, rng in instances:
        d_eff = effective_epoch(g.diameter)
        epochs = {}

        def hook(lam, rec, d_eff=d_eff, epochs=epochs):
            if lam % d_eff == 1:
                epochs[(lam - 1) // d_eff] = (max(rec["reset_M"]), min(rec["reset_m"]))
            if lam % d_eff == 0:
                want = epochs[(lam - 1) // d_eff]
                assert all(M == want[0] for M in rec["M"])
                assert all(m == want[1] for m in rec["m"])

        flood_consensus(masses(x, Q_HALF), Q_HALF, g, rng, hook)
        assert epochs


def test_non_grid_basis_instance():
    # After zoom events the basis is generally not a multiple of delta; the
    # offsets stay integral and the output stays on the shifted grid.
    q = QuantizerState.of(b_q=F(573, 256), delta=F(27, 64))
    g = generate_random_digraph(6, F(1, 2), 11)
    x = [F(573, 256) + F(k, 8) for k in (-9, -2, 0, 3, 5, 12)]
    result, _ = consensus_point(init_consensus(x, q), q, g, PCG32(11, STREAM_PROTOCOL))
    assert ((result - q.b_q) / q.delta).denominator == 1
    assert abs(result - oracle_mean(x, q, None)) <= q.delta


# --- determinism and backends ---------------------------------------------


def test_identical_runs_identical_outcomes():
    g, x, _ = random_instance(7, 12)
    y = masses(x, Q_HALF)
    a = consensus_point(y, Q_HALF, g, PCG32(7, STREAM_PROTOCOL))
    b = consensus_point(y, Q_HALF, g, PCG32(7, STREAM_PROTOCOL))
    assert y == masses(x, Q_HALF)  # the caller's masses are never modified
    assert a[0] == b[0]
    assert a[1].rounds == b[1].rounds
    assert a[1].mass_transmissions == b[1].mass_transmissions
    assert set(a[1].measured_alphabet) == set(b[1].measured_alphabet)


@st.composite
def parity_graphs(draw):
    kind = draw(st.sampled_from(["random", "complete", "ring"]))
    n = draw(st.integers(min_value=2, max_value=12))
    if kind == "complete":
        return complete(n)  # diameter 1, so d_eff = 2
    if kind == "ring":
        return ring(n)  # diameter n - 1: the longest epoch at this size
    p = draw(st.fractions(min_value=F(1, 50), max_value=1, max_denominator=50))
    return generate_random_digraph(n, p, draw(st.integers(0, 10_000)))


PARITY_QUANTIZERS = [  # (grid, width)
    (QuantizerState.of(b_q=F(0), delta=F(1, 2)), 3),
    (QuantizerState.of(b_q=F(0), delta=F(1, 2)), None),
    (QuantizerState.of(b_q=F(573, 256), delta=F(27, 64)), None),  # non-grid basis
]


def kernel_point(y, q, g, rng):
    """``consensus_point`` on the kernel alone (``graph._kernel``): a decline
    fails the test instead of replaying on the pure path."""
    out = engine._run_kernel(graph._kernel, y, g, effective_epoch(g.diameter), rng)
    assert out is not None, "the kernel declined the instance"
    rounds, m, size, pieces = out
    return q.b_q + m * q.delta, ConsensusStats(g.n, rounds, size, pieces)


def outcome(run, y, q, g, seed, cap=ROUND_CAP, **kw):
    """Everything observable of one run from a fresh generator, with the
    round cap ``engine.ROUND_CAP`` set to ``cap``.

    (result, rounds, transmissions, alphabet size, alphabet as a set, RNG
    state) on a stop, and ("cap", rounds, RNG state) when the round cap is
    hit.
    """
    rng = PCG32(seed, STREAM_PROTOCOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "ROUND_CAP", cap)
        try:
            res, stats = run(y, q, g, rng, **kw)
        except ConsensusCapError as exc:
            return "cap", exc.rounds, rng.getstate()
    alphabet = set(stats.measured_alphabet)
    return res, stats.rounds, stats.mass_transmissions, stats.alphabet_size, alphabet, rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    parity_graphs(),
    st.sampled_from(PARITY_QUANTIZERS),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
def test_snapshot_matches_flood(built_kernel, g, q_width, seed, data):
    # The pure path snapshots the extremes once per epoch instead of
    # flooding; the per-round flood is the oracle.  The compiled kernel,
    # when a C compiler built it, is the third path.  Equal results, counts,
    # alphabet and RNG position prove every path stops in the same round and
    # consumed exactly the same draws.  The flood's hook also checks the
    # kernel's headroom argument: sum |y| never grows from round to round.
    xs = data.draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=16),
            min_size=g.n,
            max_size=g.n,
        )
    )

    q, width = q_width
    y = masses(xs, q, width)  # every run below starts from this one list

    def flood(cap=ROUND_CAP):
        abs_sums = [sum(map(abs, y))]

        def abs_sum_never_grows(lam, rec):
            abs_sums.append(sum(map(abs, rec["y"])))
            assert abs_sums[-1] <= abs_sums[-2]

        return outcome(flood_consensus, y, q, g, seed, cap, round_hook=abs_sum_never_grows)

    def run(cap=ROUND_CAP):
        return outcome(consensus_point, y, q, g, seed, cap, force_backend="pure")

    def compiled(cap=ROUND_CAP):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_kernel", built_kernel)
            return outcome(kernel_point, y, q, g, seed, cap)

    snap = run()
    assert snap == flood()
    rounds = snap[1]
    assert rounds >= effective_epoch(g.diameter)
    capped = run(rounds - 1)
    assert capped[:2] == ("cap", rounds - 1)
    assert capped == flood(rounds - 1)
    if built_kernel is not None:
        assert snap == compiled()
        assert capped == compiled(rounds - 1)
        assert_each_piece_once(built_kernel, y, g, seed)


@settings(max_examples=150, deadline=None)
@given(
    parity_graphs(),
    st.lists(st.integers(-(10**6), 10**6), min_size=12, max_size=12),
    st.integers(min_value=0, max_value=2**32),
)
def test_every_piece_lies_in_its_epoch_snapshot_and_the_first(built_kernel, g, offsets, seed):
    # The alphabet's two bounds.  A split sends and keeps values in
    # [floor(y/z), ceil(y/z)] and a delivery averages, so every piece sent
    # in an epoch lies in that epoch's snapshot [m_e, M_e], and every piece
    # of a call in the first snapshot [m0, M0].  The kernel's alphabet lies
    # in [m0, M0] too, and lists each of the pure path's pieces once.
    y = [2 * k + 1 for k in offsets[: g.n]]
    m0, M0 = min(v // 2 for v in y), max(-(-v // 2) for v in y)
    d_eff = effective_epoch(g.diameter)
    split_and_deliver = engine._split_and_deliver
    rounds = []  # (snapshot of the round's epoch, pieces sent in the round)

    def recorded(y, z, g, rng, alphabet):
        if len(rounds) % d_eff == 0:  # an epoch starts
            snapshot = (min(yi // zi for yi, zi in zip(y, z)), max(-(-yi // zi) for yi, zi in zip(y, z)))
        else:
            snapshot = rounds[-1][0]
        pieces = set()
        split_and_deliver(y, z, g, rng, pieces)
        alphabet.update(pieces)
        rounds.append((snapshot, pieces))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_split_and_deliver", recorded)
        _, stats = run_consensus(y, Q_HALF, g, PCG32(seed, STREAM_PROTOCOL), force_backend="pure")
    assert len(rounds) == stats.rounds
    assert rounds[0][0] == (m0, M0)
    for (m_e, M_e), pieces in rounds:
        assert all(m_e <= c <= M_e for c in pieces)
    assert all(m0 <= c <= M0 for c in stats.measured_alphabet)
    if built_kernel is not None:
        alphabet = assert_each_piece_once(built_kernel, y, g, seed)
        assert all(m0 <= c <= M0 for c in alphabet)


def kernel_run(kernel, y, g, seed, cap=ROUND_CAP):
    """The kernel's raw output on masses ``y``, or None when it declines."""
    state, inc = PCG32(seed, STREAM_PROTOCOL).getstate()
    return kernel.run_rounds(y, g.kernel_handle(kernel), effective_epoch(g.diameter), cap, state, inc)


def assert_each_piece_once(kernel, y, g, seed):
    """The kernel's alphabet for masses ``y``, read as a list, holds each of
    the pure path's distinct pieces exactly once, in no promised order, and
    its size is their number.  Returns the list."""
    out = kernel_run(kernel, y, g, seed)
    alphabet = memoryview(out[4]).cast("q").tolist()
    pure = engine._run_snapshot(list(y), g, effective_epoch(g.diameter), PCG32(seed, STREAM_PROTOCOL))[3]
    assert out[3] == len(alphabet) == len(set(alphabet)) == len(pure)
    assert set(alphabet) == pure
    return alphabet


def assert_same_run(y, g, seed, cap=ROUND_CAP):
    """The default path stops within ``cap`` rounds and agrees with
    force_backend="pure" on everything observable."""
    auto = outcome(consensus_point, y, Q_HALF, g, seed, cap)
    assert auto[0] != "cap"
    assert auto == outcome(consensus_point, y, Q_HALF, g, seed, cap, force_backend="pure")


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_backend_parity(kernel, n):
    # Same inputs + same seed: the compiled kernel must reproduce the pure
    # path bit-for-bit -- results, stats, and the RNG position afterwards
    # (proving it consumed exactly the same draws).
    for seed in range(6):
        g, x, _ = random_instance(seed, n)
        y = masses(x, Q_HALF)
        assert outcome(consensus_point, y, Q_HALF, g, seed, force_backend="pure") == outcome(
            kernel_point, y, Q_HALF, g, seed
        )
        assert_each_piece_once(kernel, y, g, seed)


def test_kernel_bails_to_pure_on_huge_masses(kernel):
    # Offsets of 2**50 fit the kernel's int64 headroom and run compiled.
    # Offsets whose sum |y| passes int64 are declined before any draw, and
    # the exact path replays the identical run.
    g = ring(4)
    fits = init_consensus([F(2) ** 50, F(1, 4), -(F(2) ** 49), F(3, 4)], Q_HALF)
    beyond = init_consensus([F(2) ** 61, F(1, 4), -(F(2) ** 61), F(3, 4)], Q_HALF)
    assert sum(map(abs, beyond)) > 2**63 - 1
    for y, declined in ((fits, False), (beyond, True)):
        assert (kernel_run(kernel, y, g, 3) is None) == declined
        assert_same_run(y, g, 3)


# Masses at the edge of the kernel's one decline rule, each run on
# complete(len(y)): the sum of |y| must fit int64.
ABS_SUM_FITS = [
    [2**63 - 4, 1, 1, 1],  # sum |y| = 2**63 - 1, the largest accepted
    [-(2**63 - 4), -1, -1, -1],
    [2**45 - 1] * 4,  # once declined mid-run by a per-round |y| <= 2**45 bound
    # On complete(3) node 0 can hold y = -(2**63 - 1) with z = 3 after round
    # 1, where q*z for q = floor(y/3) is below INT64_MIN: the split must
    # never form that product.
    [-(2**63 - 1), 0, 0],
    [2**63 - 1, 0, 0],
]
ABS_SUM_BEYOND = [
    [2**61, -(2**61), 2**61, -(2**61)],  # sum |y| = 2**63, split across nodes
    [2**63 - 1] * 4,
    [-(2**63), 0, 0, 0],  # INT64_MIN itself: its negation overflows
    [2**63, 0, 0, 0],  # beyond int64
    [0, 0, 0, -(2**63) - 1],
]


@pytest.mark.parametrize(
    "y", ABS_SUM_FITS, ids=["sum-max", "sum-max-negative", "old-per-round-bound", "min-on-three", "max-on-three"]
)
def test_kernel_accepts_every_abs_sum_within_int64(kernel, y):
    g = complete(len(y))
    for seed in range(5):
        assert kernel_run(kernel, y, g, seed) is not None
        assert_same_run(y, g, seed)


@pytest.mark.parametrize("y", ABS_SUM_BEYOND, ids=["split", "max-each", "int64-min", "above-int64", "below-int64"])
def test_kernel_declines_an_abs_sum_beyond_int64(kernel, y):
    # A decline happens before any draw: the pure replay is the whole run.
    g = complete(4)
    assert kernel_run(kernel, y, g, 0) is None
    assert_same_run(y, g, 0)


def test_kernel_runs_more_than_4096_nodes(kernel):
    # No node-count limit: masses in {-1, 1, 3} on 4097 nodes stop within a
    # few epochs, compiled, and match the pure path on every observable.
    g = generate_random_digraph(4097, F(1, 100), 0)
    rng = PCG32(1, STREAM_PROTOCOL)
    y = [2 * rng.randbelow(3) - 1 for _ in range(g.n)]
    cap = 6 * effective_epoch(g.diameter)
    assert kernel_run(kernel, y, g, 0, cap)[0] is True
    assert_same_run(y, g, 0, cap)


def spread_masses(n, seed, span):
    """n odd masses drawn uniformly from (-span, span)."""
    rng = PCG32(seed, STREAM_PROTOCOL)
    return [2 * rng.randbelow(span) - span + 1 for _ in range(n)]


def test_kernel_alphabet_survives_table_growth(kernel):
    # Masses spread over +-10**9 send thousands of distinct pieces, so the
    # kernel's piece table starts small and grows several times.  It hands
    # them back packed as int64, each piece once, with their count; as a set
    # they, the count, the round count and the RNG state equal the pure
    # path's.
    g = generate_random_digraph(40, F(1, 5), 0)
    y = spread_masses(g.n, 2, 10**9)
    _, stats = kernel_point(y, Q_HALF, g, PCG32(0, STREAM_PROTOCOL))
    packed = stats.measured_alphabet
    assert type(packed) is memoryview and packed.format == "q" and packed.itemsize == 8
    assert stats.alphabet_size == len(packed) > 1000 and len(set(packed)) == len(packed)
    compiled = outcome(kernel_point, y, Q_HALF, g, 0)
    assert compiled == outcome(consensus_point, y, Q_HALF, g, 0, force_backend="pure")
    assert compiled[4] == set(packed)


def test_kernel_piece_table_is_reset_between_calls_on_one_handle(kernel):
    # The piece table lives on the graph's handle and keeps its largest size.
    # A large alphabet, then small ones, then the large one again, all on
    # one handle: each run equals the pure path, so no piece of an earlier
    # call is left in a later call's alphabet.
    g = generate_random_digraph(40, F(1, 5), 0)
    handle = g.kernel_handle(kernel)
    large = spread_masses(g.n, 2, 10**9)
    runs = [(large, 0), (spread_masses(g.n, 5, 3), 1), ([1] * g.n, 2), (spread_masses(g.n, 6, 40), 3), (large, 0)]
    sizes = []
    for y, seed in runs:
        compiled = outcome(kernel_point, y, Q_HALF, g, seed)
        assert compiled == outcome(consensus_point, y, Q_HALF, g, seed, force_backend="pure")
        sizes.append(compiled[3])
    assert g.kernel_handle(kernel) is handle
    assert sizes[0] == sizes[-1] > 1000 and max(sizes[1:-1]) < 100


# Graphs whose epochs last D' = 2, 3, 4 and 6 rounds: complete(4) has
# diameter 1, the directed ring(n) diameter n - 1.
EPOCH_GRAPHS = {"d_eff-2": complete(4), "d_eff-3": ring(4), "d_eff-4": ring(5), "d_eff-6": ring(7)}


def lone_extremes(y, g, seed):
    """(max, min) counts of the pure run's later epoch starts at which only
    nodes holding z == 1 reach that extreme of the snapshot.

    Such a node does not split, so a snapshot taken node by node during the
    split must still fold in its y; one that skipped it would differ there.
    """
    d_eff = effective_epoch(g.diameter)
    split_and_deliver = engine._split_and_deliver
    lam, counts = [0], [0, 0]

    def recorded(y, z, g, rng, alphabet):
        lam[0] += 1
        if lam[0] > 1 and lam[0] % d_eff == 1:
            split = [(yi, zi) for yi, zi in zip(y, z) if zi > 1]  # never empty: sum(z) = 2n
            counts[0] += max(-(-yi // zi) for yi, zi in zip(y, z)) > max(-(-yi // zi) for yi, zi in split)
            counts[1] += min(yi // zi for yi, zi in zip(y, z)) < min(yi // zi for yi, zi in split)
        split_and_deliver(y, z, g, rng, alphabet)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_split_and_deliver", recorded)
        run_consensus(y, Q_HALF, g, PCG32(seed, STREAM_PROTOCOL), force_backend="pure")
    return tuple(counts)


@pytest.mark.parametrize("name", EPOCH_GRAPHS)
def test_kernel_snapshot_folds_in_the_nodes_that_do_not_split(built_kernel, name):
    # Every epoch start's extremes must count each node, also one whose
    # z == 1 leaves it out of the split.  On each graph, many runs reach a
    # later epoch start where such nodes alone hold the max, or the min;
    # the kernel must agree with the pure path on level, rounds, alphabet
    # and RNG state in every run.
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    g = EPOCH_GRAPHS[name]
    lone = [0, 0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", built_kernel)
        for seed in range(40):
            for span in (9, 1000):
                y = spread_masses(g.n, seed, span)
                compiled = outcome(kernel_point, y, Q_HALF, g, seed)
                assert compiled == outcome(consensus_point, y, Q_HALF, g, seed, force_backend="pure"), (seed, span)
                lone = [a + b for a, b in zip(lone, lone_extremes(y, g, seed))]
    assert min(lone) > 0, lone


def test_kernel_matches_the_pure_path_at_every_round_cap(built_kernel):
    # A capped call stops mid-epoch, with its snapshot half taken or not
    # yet read: every cap short of the stop must leave the kernel and the
    # pure path at the same round count and RNG state.
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    g = EPOCH_GRAPHS["d_eff-4"]
    y = spread_masses(g.n, 3, 1000)
    assert min(lone_extremes(y, g, 3)) > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_kernel", built_kernel)
        rounds = outcome(kernel_point, y, Q_HALF, g, 3)[1]
        assert rounds > 3 * effective_epoch(g.diameter)
        for cap in range(1, rounds + 1):
            compiled = outcome(kernel_point, y, Q_HALF, g, 3, cap)
            assert compiled == outcome(consensus_point, y, Q_HALF, g, 3, cap, force_backend="pure"), cap
            assert (compiled[0] == "cap") == (cap < rounds)


# --- the kernel's window on the piece set, and its self-first rows --------

# The kernel's piece set becomes a bitmap over [m, m + WINDOW) at the first
# epoch start whose snapshot range M - m is below WINDOW.  Once windowed, an
# epoch start whose range is below NARROW makes the rounds after it narrow:
# they collect into one 64-bit word counted from that epoch's m, which is
# merged into the bitmap, over at most two of its WORDS words, at each later
# epoch start and at the stop (_ckernel.c).  OLD_WINDOW is the window's
# earlier width, whose edge now lies inside the window.
WINDOW = 16384
WORDS = WINDOW // 64
NARROW = 64
OLD_WINDOW = 1024

WINDOW_GRAPHS = {"complete-6": complete(6), "ring-7": ring(7), "random-20": generate_random_digraph(20, F(1, 4), 3)}


def epoch_rounds(y, g, seed):
    """Each round of the pure run from masses ``y``: its epoch's snapshot
    (m, M) when it starts an epoch, else None, and the set of pieces it sends."""
    d_eff = effective_epoch(g.diameter)
    split_and_deliver = engine._split_and_deliver
    rounds = []

    def recorded(y, z, g, rng, alphabet):
        snapshot = None
        if len(rounds) % d_eff == 0:
            snapshot = (min(yi // zi for yi, zi in zip(y, z)), max(-(-yi // zi) for yi, zi in zip(y, z)))
        pieces = set()
        split_and_deliver(y, z, g, rng, pieces)
        alphabet.update(pieces)
        rounds.append((snapshot, pieces))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_split_and_deliver", recorded)
        run_consensus(y, Q_HALF, g, PCG32(seed, STREAM_PROTOCOL), force_backend="pure")
    return rounds


def snapshot_ranges(y, g, seed):
    """The range M - m of each epoch's snapshot in the pure run from masses ``y``."""
    return [snapshot[1] - snapshot[0] for snapshot, _ in epoch_rounds(y, g, seed) if snapshot is not None]


def narrow_merges(y, g, seed):
    """The narrow words the kernel merges in its run from masses ``y``, read
    off the pure run: per merge, the offset of the word's base from the
    window's and the offsets of its pieces from the window's base, sorted."""
    base = wb = None
    word, merges = None, []
    for snapshot, pieces in epoch_rounds(y, g, seed):
        if word is not None:
            word |= pieces
        if snapshot is None:
            continue
        m, M = snapshot
        if word is not None:
            merges.append((wb - base, sorted(c - base for c in word)))
        elif base is None and M - m < WINDOW:
            base = m
        if base is not None and M - m < NARROW:
            wb, word = m, set()
    if word is not None:
        merges.append((wb - base, sorted(c - base for c in word)))
    return merges


def window_masses(n, span, seed):
    """n odd masses whose first snapshot is [0, span]: 1 (floor 0 at z = 2),
    2*span - 1 (ceil span) and odd masses drawn between them."""
    rng = PCG32(seed, STREAM_PROTOCOL)
    return [1, 2 * span - 1] + [2 * rng.randbelow(span) + 1 for _ in range(n - 2)]


def top_masses(n, span, seed):
    """n odd masses whose first snapshot is [0, span] and whose average lies
    within span / n of its top: 1, 2*span - 1 and odd masses drawn from the
    top three ceilings."""
    rng = PCG32(seed, STREAM_PROTOCOL)
    return [1, 2 * span - 1] + [2 * (span - rng.randbelow(3)) - 1 for _ in range(n - 2)]


@pytest.mark.parametrize("name", WINDOW_GRAPHS)
def test_kernel_matches_the_pure_path_across_the_window(kernel, name):
    # Masses spread over +-10**6 start far wider than the window and narrow
    # epoch by epoch: the piece set is a hash table first, then a bitmap
    # seeded from it, and some epochs after the crossing still send pieces.
    g = WINDOW_GRAPHS[name]
    for seed in range(4):
        y = spread_masses(g.n, seed, 10**6)
        ranges = snapshot_ranges(y, g, seed)
        assert ranges[0] >= WINDOW and any(1 < r < WINDOW for r in ranges), ranges
        assert_same_run(y, g, seed)
        assert_each_piece_once(kernel, y, g, seed)


@pytest.mark.parametrize("span", [OLD_WINDOW - 2, OLD_WINDOW - 1, OLD_WINDOW, WINDOW - 2, WINDOW - 1, WINDOW])
@pytest.mark.parametrize("name", WINDOW_GRAPHS)
def test_kernel_matches_the_pure_path_at_the_window_edge(kernel, name, span):
    # First ranges of WINDOW - 2 and WINDOW - 1 window the set in round 1,
    # over every word of the bitmap; a first range of WINDOW keeps the hash
    # table for the first epoch.  The old window's edge now windows in
    # round 1 over its first words.
    g = WINDOW_GRAPHS[name]
    for seed in range(4):
        y = window_masses(g.n, span, seed)
        assert snapshot_ranges(y, g, seed)[0] == span
        assert_same_run(y, g, seed)
        assert_each_piece_once(kernel, y, g, seed)


@pytest.mark.parametrize("span", [NARROW - 2, NARROW - 1, NARROW])
@pytest.mark.parametrize("name", WINDOW_GRAPHS)
def test_kernel_matches_the_pure_path_at_the_narrow_edge(kernel, name, span):
    # First ranges of NARROW - 2 and NARROW - 1 window the set and make
    # every round after the first narrow, with the word's base at the
    # window's; a first range of NARROW collects the first epoch into the
    # bitmap.
    g = WINDOW_GRAPHS[name]
    for seed in range(4):
        y = window_masses(g.n, span, seed)
        assert snapshot_ranges(y, g, seed)[0] == span
        merges = narrow_merges(y, g, seed)
        if span < NARROW:
            assert merges[0][0] == 0, merges
        assert_same_run(y, g, seed)
        assert_each_piece_once(kernel, y, g, seed)


def test_kernel_matches_the_pure_path_at_every_narrow_word_offset(kernel):
    # A narrow word's base lies 0, 1 or 63 past a bitmap word's start in
    # some of these runs, and at 63 a word's pieces spill into the next
    # bitmap word: the merge writes both words.
    g = WINDOW_GRAPHS["complete-6"]
    shifts, spills = set(), 0
    for seed in range(20):
        y = spread_masses(g.n, seed, 300)
        merges = narrow_merges(y, g, seed)
        shifts |= {off % 64 for off, pieces in merges if pieces}
        spills += sum(off % 64 == 63 and pieces[-1] // 64 > off // 64 for off, pieces in merges if pieces)
        assert_same_run(y, g, seed)
        assert_each_piece_once(kernel, y, g, seed)
    assert {0, 1, 63} <= shifts and spills > 0, (shifts, spills)


@pytest.mark.parametrize("name", ["complete-400", "random-400"])
def test_kernel_matches_the_pure_path_in_the_bitmaps_top_word(kernel, name):
    # A first range of WINDOW - 1 windows the whole bitmap, and 398 of 400
    # nodes near its top pull the average into the last word: narrow words
    # merge from the word below it into the last word, and from the last
    # word itself, whose part past the bitmap is dropped.
    g = complete(400) if name == "complete-400" else generate_random_digraph(400, F(1, 10), 0)
    into_top = past_top = 0
    for seed in range(3):
        y = top_masses(g.n, WINDOW - 1, seed)
        merges = [(off, pieces) for off, pieces in narrow_merges(y, g, seed) if pieces]
        into_top += sum(off // 64 == WORDS - 2 and pieces[-1] // 64 == WORDS - 1 for off, pieces in merges)
        past_top += sum(off // 64 == WORDS - 1 and off % 64 > 0 for off, pieces in merges)
        assert_same_run(y, g, seed)
        assert_each_piece_once(kernel, y, g, seed)
    assert into_top > 0 and past_top > 0, (into_top, past_top)


def test_kernel_on_one_and_two_nodes(kernel):
    # One node sends its one piece a round to itself: its draw bound is 1, so
    # it takes no draw, and its first range of 1 stops the run at the first
    # epoch end.  Two nodes send each piece to one of the two.
    lone = Digraph(((),))
    for y in ([1], [-7], [2**40 + 1]):
        for seed in range(3):
            compiled = outcome(kernel_point, y, Q_HALF, lone, seed)
            assert compiled[1] == 2 and compiled[-1] == PCG32(seed, STREAM_PROTOCOL).getstate()
            assert_same_run(y, lone, seed)
            assert_each_piece_once(kernel, y, lone, seed)
    pair = bidirectional_pair()
    for seed in range(10):
        y = spread_masses(2, seed, 10**4)
        assert_same_run(y, pair, seed)
        assert_each_piece_once(kernel, y, pair, seed)


def test_scan_and_row_handles_run_alike(kernel):
    # random_out_adj writes each handle row led by the node itself, and
    # csr flattens the returned rows, which leave it out, to the same layout:
    # on either handle the kernel runs as the pure path does, and the
    # diameter, which skips a row's own node, agrees with the pure one.
    for n, p, seed in ((2, F(1, 2), 0), (9, F(0), 1), (30, F(1, 4), 5), (65, F(1, 2), 2)):
        generated = generate_random_digraph(n, p, seed)
        given = Digraph(generated.out_adj)
        assert all(u not in row for u, row in enumerate(generated.out_adj))
        d = graph._bigint_diameter(given)
        assert kernel.diameter(generated.kernel_handle(kernel)) == kernel.diameter(given.kernel_handle(kernel)) == d
        y = spread_masses(n, seed, 10**5)
        for g in (generated, given):
            assert_same_run(y, g, seed)
            assert_each_piece_once(kernel, y, g, seed)
    for rows in ([[1], [2], []], [[1], [0], [3], [2]], [[], [0]], [[1], [1]]):
        assert kernel.diameter(kernel.csr(rows)) == -1, rows


def traced_growth(run, times=10):
    """Traced bytes that ``times`` runs of ``run()`` leave behind, after a
    first run that makes whatever the interpreter caches on first use."""
    run()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    for _ in range(times):
        run()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


# A planted fault for the allocation test: every stop fails its invariant check.
BROKEN_STOP = ("if (z_end != 2 * (int64_t)n ||", "if (z_end == 2 * (int64_t)n ||")


def test_kernel_calls_leave_no_allocation_behind(built_kernel, tmp_path):
    # Allocation balance, which LeakSanitizer cannot check under CPython:
    # tracemalloc traces the kernel's PyMem allocations.  Many calls on one
    # handle, with table growth and window crossings, then the handle
    # dropped, leave the traced memory where it was.  So does each of a
    # decline, a capped run and a call that breaks an invariant at its stop
    # (a build with a planted fault), on a handle whose piece set has grown.
    # Each is repeated ten times.  The calls on one handle include one that
    # windows the whole 2 KiB bitmap in round 1 and ends on the narrow word.
    # Every array a call or a handle on 40 nodes allocates holds at least 40
    # int64s or the bitmap, so one left behind per repetition leaves over
    # 1000 bytes; the interpreter's own caches move the count by a few dozen.
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    kernel = built_kernel
    planted = tmp_path / "planted"
    (planted / "src" / "zoomgrad").mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "setup.py"), planted)
    with open(os.path.join(ROOT, "src", "zoomgrad", "_ckernel.c")) as f:
        source = f.read()
    assert source.count(BROKEN_STOP[0]) == 1
    (planted / "src" / "zoomgrad" / "_ckernel.c").write_text(source.replace(*BROKEN_STOP))
    broken_kernel = load_kernel(build_kernel(tmp_path / "build", root=planted)[0])

    rows = complete(40).out_adj
    large = TABLE_REUSE[0]
    calls = list(enumerate(TABLE_REUSE)) + [(9, spread_masses(40, 7, 10**6)), (10, window_masses(40, WINDOW - 1, 0))]

    def many_calls_then_drop():
        handle = kernel.csr(rows)
        for seed, y in calls:
            assert kernel.run_rounds(y, handle, 2, ROUND_CAP, seed, 1)[0]

    handle, broken_handle = kernel.csr(rows), broken_kernel.csr(rows)

    def decline():
        assert kernel.run_rounds([2**62] * 40, handle, 2, ROUND_CAP, 0, 1) is None

    def capped():
        assert kernel.run_rounds(large, handle, 2, 5, 0, 1)[:2] == (False, 5)

    def broken():
        with pytest.raises(RuntimeError, match="invariant broken"):
            broken_kernel.run_rounds(large, broken_handle, 2, ROUND_CAP, 0, 1)

    kernel.run_rounds(large, handle, 2, ROUND_CAP, 0, 1)  # the piece set grows to its size
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for run in (many_calls_then_drop, decline, capped, broken):
            assert traced_growth(run) < 320, run.__name__
    finally:
        if not tracing:
            tracemalloc.stop()


# --- the kernel's closed-form split and fastmod draws ---------------------

INT64_MAX = 2**63 - 1


def piece_by_piece(y, z):
    """The pure path's split of one node: z - 1 pieces floor(y/z), one at a time."""
    pieces = []
    while z > 1:
        c = y // z
        y -= c
        z -= 1
        pieces.append(c)
    return pieces, y


def closed_form(y, z):
    """The kernel's split of one node: with y = q*z + r, z - max(r, 1) pieces
    q, then max(r, 1) - 1 pieces q + 1; the node keeps q + (r > 0)."""
    q, r = divmod(y, z)
    k = max(r, 1)
    return [q] * (z - k) + [q + 1] * (k - 1), q + (r > 0)


@settings(max_examples=500)
@given(st.integers(-INT64_MAX, INT64_MAX), st.integers(2, 63))
def test_closed_form_split_equals_the_piece_by_piece_split(y, z):
    assert closed_form(y, z) == piece_by_piece(y, z)


def fastmod_u32(r, d):
    """The kernel's r % d for 32-bit r and 2 <= d < 2**32: the high 64 bits of
    (ceil(2**64/d) * r mod 2**64) * d, formed from the two 32-bit halves of
    the left factor as the C99 code forms it."""
    low = (((2**64 - 1) // d + 1) * r) % 2**64
    return ((low >> 32) * d + ((low & 0xFFFFFFFF) * d >> 32)) >> 32


@settings(max_examples=500)
@given(st.integers(0, 2**32 - 1), st.integers(2, 2**32 - 1))
def test_fastmod_equals_the_remainder_for_every_32_bit_bound(r, d):
    assert fastmod_u32(r, d) == r % d


def star(n):
    """Hub 0 linked both ways to n - 1 leaves: the hub draws below n and,
    fed by every leaf, holds z far above 2."""
    return digraph(n, [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)])


def ladder(n):
    """Node u sends to the next 1 + u % (n - 1) nodes around the ring, so the
    out-degrees run through 1 .. n - 1 and the draws through every bound."""
    return digraph(n, [(u, (u + k) % n) for u in range(n) for k in range(1, 2 + u % (n - 1))])


@st.composite
def closed_form_instances(draw):
    """(graph, masses): dense or hub graphs, many draw bounds, and masses
    across int64 whose sum of |y| still fits it."""
    kind = draw(st.sampled_from(["complete", "star", "ladder", "random"]))
    if kind == "complete":
        g = complete(draw(st.integers(2, 12)))
    elif kind == "random":
        p = draw(st.fractions(min_value=F(1, 2), max_value=1, max_denominator=8))
        g = generate_random_digraph(draw(st.integers(2, 40)), p, draw(st.integers(0, 10_000)))
    else:
        g = (star if kind == "star" else ladder)(draw(st.integers(3, 150)))
    y = draw(st.lists(st.integers(-INT64_MAX, INT64_MAX), min_size=g.n, max_size=g.n))
    if sum(map(abs, y)) > INT64_MAX:  # |v| / n each, truncated: the sum then fits
        y = [v // g.n if v >= 0 else -(-v // g.n) for v in y]
    return g, y


@settings(max_examples=60, deadline=None)
@given(closed_form_instances(), st.integers(0, 2**32))
def test_closed_form_kernel_matches_the_per_piece_path(built_kernel, instance, seed):
    # The pure path sheds every piece by its own floor division; the kernel
    # splits each node in closed form and draws through fastmod.  Output,
    # rounds, alphabet and RNG state must agree.
    if built_kernel is None:
        pytest.skip("no C compiler %r found, so the compiled kernel was not built or checked" % CC)
    g, y = instance
    with pytest.MonkeyPatch.context() as mp:  # kernel_point fails if the kernel declines
        mp.setattr(graph, "_kernel", built_kernel)
        compiled = outcome(kernel_point, y, Q_HALF, g, seed)
    assert compiled == outcome(consensus_point, y, Q_HALF, g, seed, force_backend="pure")
    assert_each_piece_once(built_kernel, y, g, seed)


def test_kernel_rejects_the_draws_randbelow_rejects(kernel):
    # From state 0 the first draw is 0, below randbelow(3)'s threshold
    # 2**32 % 3 = 1, so node 0's first piece on complete(3) takes a second
    # draw.  A draw is rejected with probability threshold / 2**32, under
    # 4e-8 at every bound these tests use, so only a set state shows that
    # the kernel rejects the same draws.
    probe = PCG32(0)
    probe.setstate((0, 1))
    assert probe.next_u32() == 0
    runs = []
    for run, kw in ((consensus_point, {"force_backend": "pure"}), (kernel_point, {})):
        rng = PCG32(0)
        rng.setstate((0, 1))
        res, stats = run([5, -3, 1], Q_HALF, complete(3), rng, **kw)
        runs.append((res, stats.rounds, set(stats.measured_alphabet), rng.getstate()))
    assert runs[0] == runs[1]


def wide_fractions(numerators):
    """Fractions whose reduced denominator exceeds 2**64."""
    return st.builds(F, numerators, st.integers(2**64 + 1, 2**80)).filter(lambda f: f.denominator > 2**64)


@settings(max_examples=100, deadline=None)
@given(
    parity_graphs(),
    wide_fractions(st.integers(-(2**80), 2**80)),
    wide_fractions(st.integers(1, 2**80)),
    st.integers(-(2**40), 2**40),
    st.integers(0, 2**32),
    st.data(),
)
def test_output_is_the_grid_point_of_the_common_floor(built_kernel, g, b_q, delta, offset, seed, data):
    # run_consensus returns the common floor m on both backends, and
    # grid_point builds b_q + m*delta from the grid's one integer form
    # (base/den, step/den): on a non-grid basis with wide denominators, for
    # m of either sign, that must be the Fraction expression.
    q = QuantizerState.of(b_q=b_q, delta=delta)
    y = [offset + v for v in data.draw(st.lists(st.integers(-50, 50), min_size=g.n, max_size=g.n))]
    d_eff = effective_epoch(g.diameter)
    m = engine._run_snapshot(list(y), g, d_eff, PCG32(seed, STREAM_PROTOCOL))[1]
    expected = q.b_q + m * q.delta
    assert run_consensus(y, q, g, PCG32(seed, STREAM_PROTOCOL), force_backend="pure")[0] == m
    assert grid_point(q, m) == expected
    if built_kernel is not None:
        assert kernel_run(built_kernel, y, g, seed)[2] == m
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_kernel", built_kernel)
            assert kernel_point(y, q, g, PCG32(seed, STREAM_PROTOCOL))[0] == expected


def test_kernel_handle_is_built_lazily_for_a_constructed_graph(kernel):
    # A graph built from an edge list, not generated, gets its handle on the
    # first kernel call, keeps it, and runs like the pure path.
    g = digraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 0), (1, 4)])
    assert g._kernel_handle is None
    y = masses([F(k, 3) for k in (-4, 1, 7, 2, -1, 5)], Q_HALF)
    compiled = outcome(kernel_point, y, Q_HALF, g, 7)
    handle = g.kernel_handle(kernel)
    assert g._kernel_handle == (kernel, handle)
    assert outcome(kernel_point, y, Q_HALF, g, 7) == compiled
    assert g.kernel_handle(kernel) is handle
    assert compiled == outcome(consensus_point, y, Q_HALF, g, 7, force_backend="pure")


def test_kernel_rejects_a_foreign_or_mismatched_handle(kernel):
    g = complete(4)
    with pytest.raises(ValueError, match="node count"):
        kernel.run_rounds([1, 1, 1], g.kernel_handle(kernel), 2, 10, 0, 1)
    for not_a_handle in (g.out_adj, datetime.datetime_CAPI):
        with pytest.raises(ValueError, match="PyCapsule_GetPointer"):
            kernel.run_rounds([1, 1, 1, 1], not_a_handle, 2, 10, 0, 1)
        with pytest.raises(ValueError, match="PyCapsule_GetPointer"):
            kernel.diameter(not_a_handle)
    with pytest.raises(ValueError, match="out of range"):
        kernel.csr([(1,), (2,)])
    # A cycle successor outside [0, n) is refused before the first draw,
    # not left to drop the cycle edge silently.
    for succ in ([1, 2], [1, 0, -1], [3, 0, 1]):
        with pytest.raises(ValueError, match="out of range"):
            kernel.random_out_adj(succ, 2**31, 0, 1)


# Masses on complete(40) whose alphabets differ in size: over a thousand
# distinct pieces, then a handful, then the large instance again, all through
# the one handle that keeps the piece set.  The large one starts wide, so its
# set crosses from the hash table to the window's bitmap.
TABLE_REUSE = [spread_masses(40, 2, 10**9), spread_masses(40, 5, 3), [1] * 40, spread_masses(40, 2, 10**9)]

# Masses whose runs reach the edges of the window and of the narrow word:
# on complete(6), first ranges at the narrow word's edge, at the old and the
# new window's edge, and spreads whose narrow words start at many offsets
# within a bitmap word, some spilling into the next; on complete(400), narrow
# words that merge into the bitmap's last word and from it.
EDGE_SPANS = (NARROW - 2, NARROW - 1, NARROW, OLD_WINDOW - 2, OLD_WINDOW - 1, OLD_WINDOW, WINDOW - 2, WINDOW - 1, WINDOW)
WINDOW_EDGES = (
    [window_masses(6, span, 0) for span in EDGE_SPANS]
    + [spread_masses(6, seed, 300) for seed in range(4)]
    + [top_masses(400, WINDOW - 1, 0)]
)

# Runs every instance from the raw generator states 0-9 on one
# complete-graph handle per node count, and checks that an instance run
# again gives the same output.  Among them, TABLE_REUSE's wide masses cross
# into the piece set's window and WINDOW_EDGES reach the window's and the
# narrow word's edges, up to the bitmap's last word.  States
# 0-4 never bring node 0 of [-(2**63 - 1), 0, 0] to z = 3 with all the
# mass; state 5 does, in round 1.
# Then takes the bulk draws of every bound sequence from the same states,
# and checks that a bound beyond 2**32 raises.  Then generates graphs on a
# ring cycle at p = 0, 1/2**32, 1/2 and 1, with n across a 64-bit word, and
# runs the diameter and a consensus on each handle the scan returns, and
# the diameter of a path, which is not strongly connected.  Last, runs
# spread masses on the directed ring(7) (D' = 6) to the stop and again
# capped one round short of it, mid-epoch.
SANITIZED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("zoomgrad._ckernel", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
handles, seen = {}, {}
for y in json.loads(sys.argv[2]):
    n = len(y)
    if n not in handles:
        handles[n] = kernel.csr([[v for v in range(n) if v != u] for u in range(n)])
    for seed in range(10):
        out = kernel.run_rounds(y, handles[n], 2, 100000, seed, 2 * seed + 1)
        assert seen.setdefault((str(y), seed), out) == out, (n, seed)
for bounds in json.loads(sys.argv[3]):
    for seed in range(10):
        out = kernel.randbelow_each(bounds, seed, 2 * seed + 1)
        assert kernel.randbelow_each(bounds, seed, 2 * seed + 1) == out, (bounds, seed)
try:
    kernel.randbelow_each([2, 2**32 + 1], 0, 1)
except ValueError:
    pass
else:
    raise AssertionError("bound 2**32 + 1 was accepted")
for n in (2, 3, 65):
    for threshold in (0, 1, 2**31, 2**32):
        rows, handle, state = kernel.random_out_adj([(u + 1) % n for u in range(n)], threshold, 5, 11)
        d = kernel.diameter(handle)
        assert 1 <= d <= n - 1 and kernel.diameter(kernel.csr(rows)) == d, (n, threshold)
        out = kernel.run_rounds([3 * u - n for u in range(n)], handle, max(d, 2), 100000, state, 11)
        assert out is not None and out[0], (n, threshold)
assert kernel.diameter(kernel.csr([[1], [2], []])) == -1
ring = kernel.csr([[(u + 1) % 7] for u in range(7)])
y = [10**6 * (2 * u - 7) + 1 for u in range(7)]
stopped, rounds = kernel.run_rounds(y, ring, 6, 100000, 3, 7)[:2]
assert stopped and rounds > 12 and rounds % 6 == 0, rounds
assert kernel.run_rounds(y, ring, 6, rounds - 1, 3, 7)[:2] == (False, rounds - 1)
"""


def compiler_runtime(name):
    """Path of the C compiler's runtime library ``name``, or None."""
    path = subprocess.run([CC, "-print-file-name=" + name], capture_output=True, text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def run_sanitized(tmp_path, cflags, runtimes, **env):
    """Build the kernel with ``cflags`` and run ``SANITIZED_RUN`` on it with
    the sanitizer ``runtimes`` preloaded and ``env`` set; fails on a report."""
    path, _ = build_kernel(tmp_path, dict(os.environ, CFLAGS=cflags))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SANITIZED_RUN,
            path,
            json.dumps(ABS_SUM_FITS + ABS_SUM_BEYOND + TABLE_REUSE + WINDOW_EDGES),
            json.dumps(list(BULK_DRAW_BOUNDS.values())),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, LD_PRELOAD=" ".join(runtimes), **env),
        timeout=60,  # a probe loop on a full piece table would spin forever
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_kernel_headroom_under_the_overflow_sanitizer(tmp_path):
    # The headroom argument, checked at run time: the kernel built with
    # signed overflow undefined (-fno-wrapv) and trapping under UBSan runs
    # every boundary case, accepted or declined, without an overflow.
    # Without the decline rule, [2**63 - 1] * 4 traps with "signed integer
    # overflow", and a split that forms q*z traps on [-(2**63 - 1), 0, 0].
    # The same build then passes alphabets of different sizes through one
    # reused handle, takes the bulk draws of every bound sequence, and
    # generates graphs whose handles it runs.
    if shutil.which(CC) is None:
        pytest.skip("no C compiler %r found, so the sanitized kernel was not built" % CC)
    runtime = compiler_runtime("libubsan.so")
    if runtime is None:
        pytest.skip("compiler %r has no UBSan runtime (libubsan.so)" % CC)
    run_sanitized(tmp_path, "-fno-wrapv -fsanitize=signed-integer-overflow -fno-sanitize-recover=all", [runtime])


def test_kernel_under_the_address_and_undefined_behaviour_sanitizers(tmp_path):
    # The same run on a kernel built with ASan and every UBSan check, each
    # fatal: no read or write outside a buffer (the piece table's growth
    # and reuse, the window's bitmap up to its last word, the CSR rows, the
    # per-call arrays), no use after free and no undefined shift, cast or
    # overflow.  PYTHONMALLOC=malloc sends the
    # kernel's PyMem allocations through malloc, where ASan guards them.
    # CPython's own allocations at exit would swamp LeakSanitizer, so it is
    # off.
    if shutil.which(CC) is None:
        pytest.skip("no C compiler %r found, so the sanitized kernel was not built" % CC)
    runtimes = [compiler_runtime("libasan.so"), compiler_runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("compiler %r lacks the ASan or the UBSan runtime (libasan.so, libubsan.so)" % CC)
    run_sanitized(
        tmp_path,
        "-fno-wrapv -fsanitize=address,undefined -fno-sanitize-recover=all",
        runtimes,
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONMALLOC="malloc",
    )


def test_force_backend_validation():
    # Only the parity replay's "pure" forces a backend; the kernel's own
    # result is engine._run_kernel's.
    g, x, rng = random_instance(1, 3)
    for backend in ("gpu", "compiled"):
        with pytest.raises(ValueError, match="unknown backend"):
            consensus_point(masses(x, Q_HALF), Q_HALF, g, rng, force_backend=backend)


def test_a_broken_kernel_invariant_raises_and_is_not_replayed(kernel, monkeypatch):
    # The kernel checks its stop's invariants and raises RuntimeError on a
    # violation; the engine passes it on rather than replaying the call on
    # the pure path, which would hide the fault.
    g, x, rng = random_instance(1, 3)
    state = rng.getstate()

    class Broken:
        csr, diameter = kernel.csr, kernel.diameter

        @staticmethod
        def run_rounds(*args):
            raise RuntimeError("consensus invariant broken at the stop")

    monkeypatch.setattr(graph, "_kernel", Broken)
    monkeypatch.setattr(engine, "_run_snapshot", None)  # a replay would call it
    with pytest.raises(RuntimeError, match="invariant broken"):
        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng)
    assert rng.getstate() == state


def test_a_broken_invariant_raises_the_kernels_error_on_the_pure_path(no_kernel, monkeypatch):
    # The pure path checks the stop's invariants with the kernel's test and
    # message, not with asserts that ``python -O`` strips: one unit of
    # value mass planted after the first round moves sum(y).
    g, x, rng = random_instance(1, 3)
    split_and_deliver = engine._split_and_deliver
    planted = []

    def leaking(y, *args):
        split_and_deliver(y, *args)
        if not planted:
            planted.append(1)
            y[0] += 1

    monkeypatch.setattr(engine, "_split_and_deliver", leaking)
    with pytest.raises(RuntimeError) as exc:
        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng)
    assert str(exc.value) == (
        "consensus invariant broken at the stop: sum(z) != 2n, sum(y) moved, or the output left the first snapshot"
    )


# --- failure modes and plumbing -------------------------------------------


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_round_cap_raises(backend, request, monkeypatch):
    # No epoch-end check can fire within a single round (d_eff >= 2), so a
    # one-round cap must always trip, on either backend.
    if backend == "compiled":
        request.getfixturevalue("kernel")
    run, kw = (kernel_point, {}) if backend == "compiled" else (consensus_point, {"force_backend": "pure"})
    g, x, rng = random_instance(2, 5)
    monkeypatch.setattr(engine, "ROUND_CAP", 1)
    with pytest.raises(ConsensusCapError) as exc:
        run(masses(x, Q_HALF), Q_HALF, g, rng, **kw)
    assert exc.value.rounds == 1
    assert "1 rounds" in str(exc.value)


def test_default_cap_is_large():
    assert ROUND_CAP == 100_000


def test_effective_epoch_guard():
    assert effective_epoch(1) == 2  # reset test is vacuous at D=1
    assert effective_epoch(2) == 2
    assert effective_epoch(7) == 7


def test_package_exports_only_the_product_entry_points():
    # The optimizer, the runner and the benchmark import these three; the
    # engine's internals are imported from zoomgrad.consensus.engine.
    import zoomgrad.consensus

    assert zoomgrad.consensus.__all__ == ["ConsensusCapError", "active_backend", "run_consensus"]
    # The engine exports its product API too; the oracle init_consensus and
    # the internals sample_out_target and effective_epoch are imported by name.
    assert engine.__all__ == ["ConsensusStats", "ConsensusCapError", "ROUND_CAP", "run_consensus", "active_backend"]
