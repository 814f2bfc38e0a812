"""Finite-time quantized average consensus on a strongly connected digraph.

One consensus execution computes, in finitely many synchronous rounds, a
common value within one quantization level of the average of the nodes'
quantized inputs, using only integer-valued messages.

State per node: a value mass ``y`` and a count mass ``z``.  The pair starts
at ``y = 2*(Q(x_i) - b_q)/delta`` (an odd integer: twice the quantized
basis-relative level, so the network-wide ratio sum(y)/sum(z) equals the
average quantized value in basis-relative delta units) and ``z = 2``.
Masses stay integers forever — every transmitted piece is a floor of a
ratio — which is what makes the stop test reachable and the protocol
finite-time.  Both sums are conserved, so ``sum(z) = 2n``; a node ends
every split with ``z = 1`` and only gains count mass, so every node keeps
``z >= 1`` and the round sends exactly ``sum(z) - n = n`` pieces.  Each
round:

1. at epoch starts (``lambda mod D' == 1``) every node resets its flood
   values to ``M = ceil(y/z)``, ``m = floor(y/z)``;
2. every node broadcasts ``(M, m)`` to its out-neighbors and absorbs the
   max/min of what it received and held;
3. every node with ``z > 1`` splits its mass into near-equal integer pieces
   ``c = floor(y/z)``, sending each piece to itself or a uniformly random
   out-neighbor (send phase completes network-wide before any delivery);
4. queued pieces are delivered (``y += c``, ``z += 1``);
5. at epoch ends (``lambda mod D' == 0``) all nodes hold the flooded global
   extremes; if ``M - m <= 1`` every node stops and outputs
   ``b_q + m * delta`` (a grid point within delta of the average quantized
   input).

``D' = max(diameter, 2)`` so a full epoch always floods the extremes to
every node and the reset/check cadence stays meaningful on diameter-1
graphs.

Untraced runs skip steps 1-2 and take one snapshot per epoch instead: at
the epoch start, ``M = max ceil(y_i/z_i)`` and ``m = min floor(y_i/z_i)``
over all nodes, in O(n) rather than O(E) per round.  This is exact: the
flood resets only at epoch starts and absorbs only max/min, and an epoch
has ``D' >= diameter`` rounds, so at the epoch end every node's flood value
equals these global extremes; and flooding draws no randomness, so the
split phase consumes the identical RNG stream.  The per-round flood
(``consensus_round`` + ``check_stop``) runs when a trace or round hook is
requested, and is the oracle the snapshot path is tested against.  Both
paths split and deliver through one function, the only consumer of the RNG.

A compiled kernel (``_speedups``) runs the flood loop on C integers when
the extension is built; it consumes the identical RNG stream, so results
are bit-for-bit equal to the pure paths.  Tracing and instrumentation
always use the pure flood path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..graph import Digraph
from ..quantizer import QuantizerState, quantize
from ..rng import PCG32

try:
    from . import _speedups as _kernel
except ImportError:  # pragma: no cover - build-environment dependent
    _kernel = None

__all__ = [
    "MassState",
    "FloodState",
    "ConsensusStats",
    "ConsensusCapError",
    "ROUND_CAP",
    "init_consensus",
    "sample_out_target",
    "effective_epoch",
    "consensus_round",
    "check_stop",
    "run_consensus",
    "trace_header",
    "active_backend",
]

ROUND_CAP = 100_000


@dataclass
class MassState:
    y: int  # value mass: twice the basis-relative level, always an integer
    z: int  # count mass


@dataclass
class FloodState:
    M: int
    m: int


@dataclass
class ConsensusStats:
    rounds: int = 0
    mass_transmissions: int = 0
    flood_broadcasts: int = 0
    measured_alphabet: set = field(default_factory=set)


class ConsensusCapError(RuntimeError):
    """Raised when the safety round cap is hit (a liveness bug, not an outcome)."""

    def __init__(self, rounds: int):
        super().__init__(f"consensus did not terminate within {rounds} rounds")
        self.rounds = rounds


def active_backend() -> str:
    """Which implementation non-traced runs use: 'compiled' or 'pure'."""
    return "compiled" if _kernel is not None else "pure"


def effective_epoch(diam: int) -> int:
    """Flooding epoch length D' = max(D, 2) (reset test is vacuous at D=1)."""
    return max(diam, 2)


def init_consensus(x_half, q: QuantizerState) -> list[MassState]:
    """Per-node initial masses: y = 2*(Q(x_i) - b_q)/delta, z = 2.

    y is always an odd integer (twice a quantizer midpoint offset).  When
    b_q = 0 this is exactly 2*Q(x_i)/delta; keeping the basis out of the
    circulating masses keeps them integral for every (b_q, delta), which the
    finite-time stop test depends on.
    """
    out = []
    for xh in x_half:
        off = 2 * (quantize(q, xh) - q.b_q) / q.delta
        assert off.denominator == 1
        out.append(MassState(y=off.numerator, z=2))
    return out


def sample_out_target(node: int, g: Digraph, rng: PCG32) -> int:
    """Self or one out-neighbor, each with probability 1/(1 + out-degree)."""
    adj = g.out_adj[node]
    k = rng.randbelow(1 + len(adj))
    return node if k == 0 else adj[k - 1]


def _split_and_deliver(
    states: list[MassState], g: Digraph, rng: PCG32, alphabet: set
) -> list[tuple[int, int]]:
    """Split phase then delivery; returns the (target, piece) pairs delivered.

    Every node with ``z > 1`` sheds ``z - 1`` pieces ``c = floor(y/z)``, each
    to itself or a random out-neighbor; the send phase completes for every
    node before any delivery.  Each piece is added to ``alphabet``.  This is
    the protocol's only use of the RNG, shared by both pure paths.
    """
    queue = []
    for i, st in enumerate(states):
        y, z = st.y, st.z
        while z > 1:
            c = y // z
            y -= c
            z -= 1
            queue.append((sample_out_target(i, g, rng), c))
        st.y, st.z = y, z
    for tgt, c in queue:
        st = states[tgt]
        st.y += c
        st.z += 1
    alphabet.update(c for _, c in queue)
    return queue


def consensus_round(
    states: list[MassState],
    flood: list[FloodState],
    g: Digraph,
    d_eff: int,
    lam: int,
    rng: PCG32,
    stats: ConsensusStats | None = None,
    record: dict | None = None,
) -> list[tuple[int, int]]:
    """Run one synchronous flood round; returns the (target, piece) pairs delivered.

    ``stats``, when given, collects the pieces in ``measured_alphabet``.
    ``record``, when given, is filled with phase snapshots (for tracing and
    instrumentation tests): post-reset flood values, post-flood values, and
    per-node send counts.
    """
    n = g.n

    # (a) epoch start: reset flood values from the current ratio
    if lam % d_eff == 1:
        for st, fl in zip(states, flood):
            fl.m = st.y // st.z
            fl.M = -((-st.y) // st.z)
        if record is not None:
            record["reset_M"] = [fl.M for fl in flood]
            record["reset_m"] = [fl.m for fl in flood]
    elif record is not None:
        record["reset_M"] = record["reset_m"] = None

    # (b) flood: broadcast (M, m) to out-neighbors; absorb max/min incl. own
    new_M = [max((flood[j].M for j in g.in_adj[i]), default=flood[i].M) for i in range(n)]
    new_m = [min((flood[j].m for j in g.in_adj[i]), default=flood[i].m) for i in range(n)]
    for i in range(n):
        fl = flood[i]
        fl.M = max(fl.M, new_M[i])
        fl.m = min(fl.m, new_m[i])

    # (c)+(d) split and deliver; every node keeps z >= 1, so it sends z - 1
    if record is not None:
        record["sent"] = [st.z - 1 for st in states]
    alphabet = stats.measured_alphabet if stats is not None else set()
    delivered = _split_and_deliver(states, g, rng, alphabet)

    if record is not None:
        record["M"] = [fl.M for fl in flood]
        record["m"] = [fl.m for fl in flood]
        record["y"] = [st.y for st in states]
        record["z"] = [st.z for st in states]
        record["delivered"] = delivered

    return delivered


def check_stop(
    flood: list[FloodState], lam: int, d_eff: int, q: QuantizerState
) -> list[Fraction] | None:
    """At epoch ends, stop when M - m <= 1; node output is b_q + m*delta.

    Flooding over a full epoch makes every node's (M, m) the global
    extremes, so the per-node condition fires simultaneously everywhere.
    """
    if lam % d_eff != 0:
        return None
    if all(fl.M - fl.m <= 1 for fl in flood):
        return [q.b_q + fl.m * q.delta for fl in flood]
    return None


def trace_header(n: int) -> list[str]:
    cols = ["lambda"]
    for tag in ("y", "z", "M", "m", "sent"):
        cols += [f"{tag}_{i}" for i in range(n)]
    return cols


def run_consensus(
    x_half,
    q: QuantizerState,
    g: Digraph,
    rng: PCG32,
    *,
    max_rounds: int = ROUND_CAP,
    trace=None,
    round_hook=None,
    force_backend: str | None = None,
):
    """Run the whole protocol; returns (per-node results, ConsensusStats).

    All returned results are identical rationals on the delta-grid.  The
    compiled kernel is used when available unless tracing/instrumentation is
    requested or ``force_backend="pure"``; ``force_backend="compiled"``
    demands the kernel.  Without the kernel, untraced runs take the
    epoch-snapshot path and traced or hooked runs the per-round flood.  Every
    path yields identical output and leaves the RNG in the identical state.
    """
    if force_backend not in (None, "pure", "compiled"):
        raise ValueError(f"unknown backend {force_backend!r}")
    want_kernel = (
        _kernel is not None
        and trace is None
        and round_hook is None
        and force_backend != "pure"
    )
    if force_backend == "compiled" and _kernel is None:
        raise RuntimeError("compiled consensus kernel is not available")

    if want_kernel:
        out = _run_kernel(x_half, q, g, rng, max_rounds)
        if out is not None:
            return out
        # kernel bailed (would exceed its integer range); replay purely

    if trace is None and round_hook is None:
        return _run_snapshot(x_half, q, g, rng, max_rounds)
    return _run_reference(x_half, q, g, rng, max_rounds, trace, round_hook)


def _derived_stats(n: int, rounds: int, alphabet: set) -> ConsensusStats:
    """Every round sends exactly n pieces and n flood broadcasts (sum z = 2n)."""
    return ConsensusStats(
        rounds=rounds,
        mass_transmissions=n * rounds,
        flood_broadcasts=n * rounds,
        measured_alphabet=alphabet,
    )


def _run_snapshot(x_half, q, g, rng, max_rounds):
    """Untraced pure path: one O(n) extremes snapshot per epoch, no flood."""
    states = init_consensus(x_half, q)
    n = g.n
    y0 = sum(st.y for st in states)
    d_eff = effective_epoch(g.diameter)
    alphabet: set = set()

    for lam in range(1, max_rounds + 1):
        if lam % d_eff == 1:
            M = max(-((-st.y) // st.z) for st in states)
            m = min(st.y // st.z for st in states)
        _split_and_deliver(states, g, rng, alphabet)
        if lam % d_eff == 0 and M - m <= 1:
            assert sum(st.z for st in states) == 2 * n, "count mass not conserved"
            assert sum(st.y for st in states) == y0, "value mass not conserved"
            return [q.b_q + m * q.delta] * n, _derived_stats(n, lam, alphabet)
    raise ConsensusCapError(max_rounds)


def _run_reference(x_half, q, g, rng, max_rounds, trace, round_hook):
    """Per-round flood path: serves tracing and round hooks, and is the oracle."""
    states = init_consensus(x_half, q)
    flood = [FloodState(0, 0) for _ in range(g.n)]
    d_eff = effective_epoch(g.diameter)
    stats = ConsensusStats()

    for lam in range(1, max_rounds + 1):
        record = {}
        consensus_round(states, flood, g, d_eff, lam, rng, stats, record)
        if trace is not None:
            trace.writerow(
                [lam]
                + record["y"]
                + record["z"]
                + record["M"]
                + record["m"]
                + record["sent"]
            )
        if round_hook is not None:
            round_hook(lam, record)
        results = check_stop(flood, lam, d_eff, q)
        if results is not None:
            assert len(set(results)) == 1, "stop fired with disagreeing nodes"
            return results, _derived_stats(g.n, lam, stats.measured_alphabet)
    raise ConsensusCapError(max_rounds)


def _run_kernel(x_half, q, g, rng, max_rounds):
    """int64 fast path.  Returns None when the kernel declines the instance.

    The kernel re-checks its headroom every round and bails out (status 1)
    if any mass approaches the int64 limit; the RNG snapshot taken here
    makes the pure replay bit-identical.
    """
    w = [st.y for st in init_consensus(x_half, q)]
    if g.n > 4096 or max(abs(v) for v in w) > _kernel.W_SAFE:
        return None

    snapshot = rng.getstate()
    status, rounds, m_common, mass_tx, alphabet, st_out, inc_out = _kernel.run_rounds(
        w,
        list(g.out_adj),
        list(g.in_adj),
        effective_epoch(g.diameter),
        max_rounds,
        rng.state,
        rng.inc,
    )
    if status == 1:  # overflow bail: restore the stream and let pure redo it
        rng.setstate(snapshot)
        return None
    rng.setstate((st_out, inc_out))
    if status == 2:
        raise ConsensusCapError(max_rounds)
    if status == 3:  # pragma: no cover - protocol bug guard
        raise AssertionError("stop fired with disagreeing nodes")
    stats = ConsensusStats(
        rounds=rounds,
        mass_transmissions=mass_tx,
        flood_broadcasts=g.n * rounds,
        measured_alphabet=set(alphabet),
    )
    result = q.b_q + m_common * q.delta
    return [result] * g.n, stats
