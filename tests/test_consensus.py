"""Consensus protocol: hand-traced examples, conservation/agreement/accuracy
invariants, epoch flooding correctness, snapshot-vs-flood and backend
parity, and failure modes.

The accuracy oracle throughout is the direct average of the quantized
inputs: the protocol must land every node on one grid point within one
quantization step of that average.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bidirectional_pair, complete, ring
from zoomgrad.consensus import engine
from zoomgrad.consensus.engine import (
    ROUND_CAP,
    ConsensusCapError,
    effective_epoch,
    init_consensus,
    run_consensus,
    sample_out_target,
)
from zoomgrad.graph import generate_random_digraph
from zoomgrad.quantizer import QuantizerState, quantize
from zoomgrad.rng import PCG32, STREAM_PROTOCOL

Q_HALF = QuantizerState(b_q=F(0), delta=F(1, 2))


def masses(x_half, q, width=3):
    """Initial masses of a width-bit quantizer on the grid q.

    The inputs are clamped to the width-bit range first; ``width=None`` is
    the unsaturated grid, on which ``init_consensus`` alone gives the masses.
    """
    return init_consensus([quantize(q, xi, width) for xi in x_half], q)


def oracle_mean(x_half, q, width=3):
    return sum(quantize(q, xi, width) for xi in x_half) / len(x_half)


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
    q = QuantizerState(b_q=b_q, delta=delta)
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
    result, stats = run_consensus(
        init_consensus([F(1, 4)] * 3, Q_HALF),
        Q_HALF,
        g,
        PCG32(1, STREAM_PROTOCOL),
        round_hook=lambda lam, rec: records.append((lam, dict(rec))),
    )
    assert result == F(0)
    d_eff = effective_epoch(g.diameter)
    assert stats.rounds == d_eff  # stops at the first epoch end
    lam1, rec1 = records[0]
    assert lam1 == 1
    assert rec1["reset_M"] == [1, 1, 1]
    assert rec1["reset_m"] == [0, 0, 0]
    assert stats.measured_alphabet <= {0}


def test_all_equal_on_complete_graph():
    result, _ = run_consensus(
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
            out, _ = run_consensus(init_consensus(x, Q_HALF), Q_HALF, g, PCG32(seed, STREAM_PROTOCOL))
            assert abs(out - F(3, 4)) <= F(1, 2)
            assert out in (F(1, 2), F(1))
            seen.add(out)
    assert seen  # at least one outcome observed


def test_two_node_conservation_forever():
    # y = {1, 3} on a bidirectional pair: sum y = 4 and sum z = 4 hold in
    # every round regardless of how the pieces bounce.
    g = bidirectional_pair()
    sums = []
    run_consensus(
        init_consensus([F(1, 4), F(3, 4)], Q_HALF),
        Q_HALF,
        g,
        PCG32(5, STREAM_PROTOCOL),
        round_hook=lambda lam, rec: sums.append((sum(rec["y"]), sum(rec["z"]))),
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
            q = QuantizerState(b_q=F(0), delta=F(1, 2))
            y0 = sum(masses(x, q, width))
            violations = []
            final_m = []

            def hook(lam, rec, y0=y0, n=n, final_m=final_m):
                if sum(rec["y"]) != y0 or sum(rec["z"]) != 2 * n:
                    violations.append(lam)
                final_m[:] = rec["m"]

            result, stats = run_consensus(masses(x, q, width), q, g, rng, round_hook=hook)
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
    result, stats = run_consensus(masses(xs, Q_HALF), Q_HALF, g, PCG32(seed, STREAM_PROTOCOL))
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

        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng, round_hook=hook)
        assert epochs


def test_non_grid_basis_instance():
    # After zoom events the basis is generally not a multiple of delta; the
    # offsets stay integral and the output stays on the shifted grid.
    q = QuantizerState(b_q=F(573, 256), delta=F(27, 64))
    g = generate_random_digraph(6, F(1, 2), 11)
    x = [F(573, 256) + F(k, 8) for k in (-9, -2, 0, 3, 5, 12)]
    result, _ = run_consensus(init_consensus(x, q), q, g, PCG32(11, STREAM_PROTOCOL))
    assert ((result - q.b_q) / q.delta).denominator == 1
    assert abs(result - oracle_mean(x, q, None)) <= q.delta


# --- determinism and backends ---------------------------------------------


def test_identical_runs_identical_outcomes():
    g, x, _ = random_instance(7, 12)
    y = masses(x, Q_HALF)
    a = run_consensus(y, Q_HALF, g, PCG32(7, STREAM_PROTOCOL))
    b = run_consensus(y, Q_HALF, g, PCG32(7, STREAM_PROTOCOL))
    assert y == masses(x, Q_HALF)  # the caller's masses are never modified
    assert a[0] == b[0]
    assert a[1].rounds == b[1].rounds
    assert a[1].mass_transmissions == b[1].mass_transmissions
    assert a[1].measured_alphabet == b[1].measured_alphabet


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
    (QuantizerState(b_q=F(0), delta=F(1, 2)), 3),
    (QuantizerState(b_q=F(0), delta=F(1, 2)), None),
    (QuantizerState(b_q=F(573, 256), delta=F(27, 64)), None),  # non-grid basis
]


@settings(max_examples=150, deadline=None)
@given(
    parity_graphs(),
    st.sampled_from(PARITY_QUANTIZERS),
    st.integers(min_value=0, max_value=2**32),
    st.data(),
)
def test_snapshot_matches_flood(built_kernel, g, q_width, seed, data):
    # The unhooked path snapshots the extremes once per epoch instead of
    # flooding; a no-op round hook forces the per-round flood, the oracle.
    # The compiled kernel, when a C compiler built it, is the third path.
    # Equal results, counts, alphabet and RNG position prove every path
    # stops in the same round and consumed exactly the same draws.
    xs = data.draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=16),
            min_size=g.n,
            max_size=g.n,
        )
    )

    q, width = q_width
    y = masses(xs, q, width)  # every run below starts from this one list

    def run(max_rounds=ROUND_CAP, backend="pure", **kw):
        rng = PCG32(seed, STREAM_PROTOCOL)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_kernel", built_kernel)
                out = run_consensus(y, q, g, rng, max_rounds=max_rounds, force_backend=backend, **kw)
        except ConsensusCapError as exc:
            return "cap", exc.rounds, rng.getstate()
        res, stats = out
        return res, stats.rounds, stats.mass_transmissions, stats.measured_alphabet, rng.getstate()

    def noop(lam, rec):
        pass

    snap = run()
    assert snap == run(round_hook=noop)
    rounds = snap[1]
    assert rounds >= effective_epoch(g.diameter)
    capped = run(rounds - 1)
    assert capped[:2] == ("cap", rounds - 1)
    assert capped == run(rounds - 1, round_hook=noop)
    if built_kernel is not None:
        assert snap == run(backend="compiled")
        assert capped == run(rounds - 1, backend="compiled")


def assert_same_run(x, q, g, seed):
    """The default path and force_backend="pure" agree on everything observable."""
    rng_auto = PCG32(seed, STREAM_PROTOCOL)
    rng_pure = PCG32(seed, STREAM_PROTOCOL)
    res_auto, st_auto = run_consensus(init_consensus(x, q), q, g, rng_auto)
    res_pure, st_pure = run_consensus(init_consensus(x, q), q, g, rng_pure, force_backend="pure")
    assert res_auto == res_pure
    assert st_auto.rounds == st_pure.rounds
    assert st_auto.mass_transmissions == st_pure.mass_transmissions
    assert st_auto.measured_alphabet == st_pure.measured_alphabet
    assert rng_auto.getstate() == rng_pure.getstate()


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_backend_parity(kernel, n):
    # Same inputs + same seed: the compiled kernel must reproduce the pure
    # path bit-for-bit -- results, stats, and the RNG position afterwards
    # (proving it consumed exactly the same draws).
    for seed in range(6):
        g, x, _ = random_instance(seed, n)
        rng_pure = PCG32(seed, STREAM_PROTOCOL)
        rng_fast = PCG32(seed, STREAM_PROTOCOL)
        y = masses(x, Q_HALF)
        res_pure, st_pure = run_consensus(y, Q_HALF, g, rng_pure, force_backend="pure")
        res_fast, st_fast = run_consensus(y, Q_HALF, g, rng_fast, force_backend="compiled")
        assert res_pure == res_fast
        assert st_pure.rounds == st_fast.rounds
        assert st_pure.mass_transmissions == st_fast.mass_transmissions
        assert st_pure.measured_alphabet == st_fast.measured_alphabet
        assert rng_pure.getstate() == rng_fast.getstate()


def test_kernel_bails_to_pure_on_huge_masses(kernel):
    # Offsets beyond the kernel's int64 headroom: the kernel must decline
    # before drawing, and the exact path replays the identical run.
    q = QuantizerState(b_q=F(0), delta=F(1, 2))
    x = [F(2) ** 50, F(1, 4), -(F(2) ** 49), F(3, 4)]
    assert_same_run(x, q, ring(4), 3)
    # More than 4096 nodes void the headroom argument: declined up front.
    assert kernel.run_rounds([1] * 4097, ring(4097).out_adj, 2, 10, 0, 1) is None


def test_kernel_bails_to_pure_mid_run(kernel):
    # Offsets of W_SAFE - 1 pass the upfront headroom check, but round 1's
    # deliveries on complete(4) push some holding past it: the kernel runs
    # round 1, declines at the start of round 2 without touching the
    # caller's RNG, and the pure path replays the identical run.
    q = QuantizerState(b_q=F(0), delta=F(1))
    x = [F(2**44) - F(1, 2)] * 4
    g = complete(4)
    w = init_consensus(x, q)
    assert w == [kernel.W_SAFE - 1] * 4
    for seed in range(5):
        state, inc = PCG32(seed, STREAM_PROTOCOL).getstate()
        assert kernel.run_rounds(w, g.out_adj, 2, 1, state, inc) is not None
        assert kernel.run_rounds(w, g.out_adj, 2, 2, state, inc) is None
        assert_same_run(x, q, g, seed)


def test_force_backend_validation():
    g, x, rng = random_instance(1, 3)
    with pytest.raises(ValueError, match="unknown backend"):
        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng, force_backend="gpu")


def test_force_compiled_without_kernel_errors(no_kernel):
    g, x, rng = random_instance(1, 3)
    with pytest.raises(RuntimeError, match="not available"):
        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng, force_backend="compiled")


# --- failure modes and plumbing -------------------------------------------


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_round_cap_raises(backend, request):
    # No epoch-end check can fire within a single round (d_eff >= 2), so a
    # one-round budget must always trip the cap, on either backend.
    if backend == "compiled":
        request.getfixturevalue("kernel")
    g, x, rng = random_instance(2, 5)
    with pytest.raises(ConsensusCapError) as exc:
        run_consensus(masses(x, Q_HALF), Q_HALF, g, rng, max_rounds=1, force_backend=backend)
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
