"""Finite-time quantized average consensus on a strongly connected digraph.

One consensus execution computes, in finitely many synchronous rounds, a
common value within one quantization level of the average of the nodes'
quantized inputs, using only integer-valued messages.

State: two int lists, the value masses ``y`` and the count masses ``z``.
``run_consensus`` takes the initial value masses, not the inputs: node i
starts at ``y[i] = 2*(Q(x_i) - b_q)/delta`` (an odd integer: twice the
quantized basis-relative level, so the network-wide ratio sum(y)/sum(z)
equals the average quantized value in basis-relative delta units, as
``init_consensus`` computes it from the inputs; the optimizer computes the
same masses in integers) and ``z[i] = 2``.  The output is the level ``m``
of the common grid point ``b_q + m*delta``; the caller, which owns the grid,
maps it back when it needs the point.  ``run_consensus`` still takes the
quantizer as its second argument, unread, because the benchmark's backend
parity replay (``perfbench/run.py`` ``parity_run``) passes it positionally,
with ``force_backend="pure"``.
Masses stay integers forever — every transmitted piece is a floor of a
ratio — which is what makes the stop test reachable and the protocol
finite-time.  Both sums are conserved, so ``sum(z) = 2n``; a node
ends every split with ``z = 1`` and only gains count mass, so every node
keeps ``z >= 1`` and the round sends exactly ``sum(z) - n = n`` pieces.
Each round:

1. at epoch starts (``lambda mod D' == 1``) the extremes are snapshot once,
   over all nodes: ``M = max ceil(y_i/z_i)``, ``m = min floor(y_i/z_i)``;
2. every node with ``z > 1`` splits its mass into near-equal integer pieces
   ``c = floor(y/z)``, sending each piece to itself or a uniformly random
   out-neighbor (send phase completes network-wide before any delivery);
3. queued pieces are delivered (``y += c``, ``z += 1``);
4. at epoch ends (``lambda mod D' == 0``), if ``M - m <= 1`` every node
   stops and outputs ``b_q + m * delta`` (a grid point within delta of the
   average quantized input).  ``run_consensus`` returns that common level
   ``m`` once.

``D' = max(diameter, 2)`` so the reset/check cadence stays meaningful on
diameter-1 graphs.  In the protocol each node floods ``(M, m)`` along its
out-edges every round, resetting to its own ``ceil(y/z)``, ``floor(y/z)`` at
epoch starts.  The snapshot is exact in its place: the flood resets only at
epoch starts and absorbs only max/min, and an epoch has ``D' >= diameter``
rounds, so at the epoch end every node's flood value equals these global
extremes; and flooding draws no randomness, so the split phase consumes the
identical RNG stream.  The per-round flood lives in the tests, as the oracle
this path is checked against.

Two implementations run these rounds.  The package's optional C extension
(``zoomgrad/_ckernel.c``, shared with the graph generator's edge draws,
the diameter and the bulk draws; ``graph`` imports it and checks its
``ABI`` once, and the engine reads ``graph._kernel`` at each call, so one
name selects the backend) runs them in int64 as ``run_rounds`` when it is
built: same node order, same PCG32 draws, same stop rule, so the output,
rounds, set of distinct pieces, its size and RNG state are bit-for-bit
equal to the pure snapshot path.  The pure path sheds a node's ``z - 1``
pieces one floor division at a time (``_split_and_deliver``) and is the
per-piece oracle.  The kernel splits a node in closed form instead: with
``y = q*z + r`` and ``0 <= r < z`` those pieces are ``z - max(r, 1)``
copies of ``q`` followed by ``max(r, 1) - 1`` copies of ``q + 1``, and the
node keeps ``q + (r > 0)`` with ``z = 1``.  A kernel round is four flat
passes, each doing one kind of work, so none branches per node.  The split
pass makes one floor division per node, whatever its ``z``, folds the
node's floor and ceil into the epoch-start snapshot (exact because
deliveries wait until every node has split, so no node's ``(y, z)``
changes before its turn), and records ``q``, ``z``, ``r`` and the index of
the node's first piece in the round's sending order.  The collect pass
puts each node's ``q`` and ``q + 1``, when it sends them, into the piece
set in node order.  The draw pass walks the round's ``n`` pieces in
sending order, each taking its own draw as in the oracle; a piece's owner
is read from a running sum over the first-piece indices, and its target
is ``row[draw]``, since each of the handle's rows starts with the node
itself.  Then every node takes its deliveries.  Each node's draw bound ``1 + out-degree``, its rejection
threshold and its fastmod constant (Lemire, Kaser and Kurz, "Faster
Remainder by Direct Computation", 2019) are computed once per call, so a
draw takes its remainder by multiplies, not by a division.  The kernel reads the graph
through the CSR handle the graph keeps (``Digraph.kernel_handle``: built by
the edge scan for a generated graph, by flattening the rows once on first
use for a graph given as rows, never per call) and collects the distinct
pieces in a C set kept on that handle, which a call empties in O(1): a
hash table while the epochs' ranges are wide, and from the first epoch
start whose snapshot range ``M - m`` is below 16384 a bitmap over
``[m, m + 16384)`` for the rest of the call.  That is exact because the
ranges nest: once every ``y/z`` lies in ``[m, M]``, every piece (a floor)
and every kept value (a ceil) does too, so every later holding, piece and
snapshot stays there.  For the same reason, once an epoch start's range is
below 64, the rounds after it are narrow: the split pass ORs their pieces
into one 64-bit word counted from that epoch's ``m`` and no collect pass
runs; the word goes into the bitmap at the next epoch start and at the
stop.
A call's ``ConsensusStats`` carries the number of distinct pieces, which
is what the optimizer reads, and the pieces themselves, each once and in
no promised order: the pure path's Python ``set``, or the kernel's bytes
of packed native int64, so no Python int is built per piece.  No value in
a run exceeds the initial ``sum(|y|)`` (a split keeps it and a delivery
never grows it), so the kernel's one decline rule is that sum exceeding int64; it declines
before any draw, and the pure path, which runs whenever the extension is
not built, then replays the instance from the same initial masses.  At the
stop both paths check, in O(n), that ``sum(z) = 2n``, that ``sum(y)`` kept
its initial value and that the output level lies in ``[m0, M0]``, the
first snapshot's extremes; either raises the same RuntimeError on a
violation, and the kernel's is never replayed.  A run that reaches
``ROUND_CAP`` rounds raises ``ConsensusCapError`` on either path.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import NamedTuple

from .. import graph
from ..graph import Digraph
from ..quantizer import QuantizerState, quantize
from ..rng import PCG32

__all__ = ["ConsensusStats", "ConsensusCapError", "ROUND_CAP", "run_consensus", "active_backend"]

ROUND_CAP = 100_000


class ConsensusStats(NamedTuple):
    """Counts of one consensus run.

    ``alphabet_size`` is the number of distinct pieces sent, which is all
    the product reads.  ``pieces`` holds them, each once and in no promised
    order: bytes of packed native int64 from the kernel, a ``set`` on the
    pure path.  ``measured_alphabet`` reads them as a collection, built when
    read: a ``memoryview`` of format ``'q'`` over the kernel's bytes, the set
    itself on the pure path.  Compare two runs' alphabets as ``set(...)``.
    """

    n: int
    rounds: int
    alphabet_size: int
    pieces: bytes | set

    @property
    def measured_alphabet(self) -> Collection[int]:
        pieces = self.pieces
        return memoryview(pieces).cast("q") if isinstance(pieces, bytes) else pieces

    @property
    def mass_transmissions(self) -> int:
        """Every round sends exactly n pieces (sum z = 2n)."""
        return self.n * self.rounds


class ConsensusCapError(RuntimeError):
    """Raised when the safety round cap is hit (a liveness bug, not an outcome)."""

    def __init__(self, rounds: int):
        super().__init__(f"consensus did not terminate within {rounds} rounds")
        self.rounds = rounds
        self.step = None  # the optimization step that hit it; the runner fills it in


def active_backend() -> str:
    """Which implementation runs use by default: 'compiled' or 'pure'."""
    return "compiled" if graph._kernel is not None else "pure"


def effective_epoch(diam: int) -> int:
    """Flooding epoch length D' = max(D, 2) (reset test is vacuous at D=1)."""
    return max(diam, 2)


def init_consensus(x_half, q: QuantizerState) -> list[int]:
    """Per-node initial value masses y = 2*(Q(x_i) - b_q)/delta (z starts at 2).

    Q is the unclamped midpoint quantizer of the grid ``q``; a caller that
    wants a width-bit range clamps the inputs with ``quantize`` first.

    y is always an odd integer (twice a quantizer midpoint offset).  When
    b_q = 0 this is exactly 2*Q(x_i)/delta; keeping the basis out of the
    circulating masses keeps them integral for every (b_q, delta), which the
    finite-time stop test depends on.

    The optimizer computes its masses in integers (``start_masses`` and
    ``grid_masses``); this per-node path is the oracle they are tested
    against.  It stays here, rather than in ``tests/``, because the
    benchmark's ``perfbench/tracing.py`` ``HOOKS`` hook it and ``quantize``.
    """
    out = []
    for xh in x_half:
        off = 2 * (quantize(q, xh) - q.b_q) / q.delta
        assert off.denominator == 1
        out.append(off.numerator)
    return out


def sample_out_target(node: int, g: Digraph, rng: PCG32) -> int:
    """Self or one out-neighbor, each with probability 1/(1 + out-degree)."""
    adj = g.out_adj[node]
    k = rng.randbelow(1 + len(adj))
    return node if k == 0 else adj[k - 1]


def _split_and_deliver(y: list[int], z: list[int], g: Digraph, rng: PCG32, alphabet: set) -> None:
    """Split phase then delivery, in place on the mass lists.

    Every node with ``z > 1`` sheds ``z - 1`` pieces ``c = floor(y/z)``, each
    to itself or a random out-neighbor; the send phase completes for every
    node before any delivery.  Each piece is added to ``alphabet``.  This is
    the protocol's only use of the RNG.
    """
    queue = []
    for i in range(len(y)):
        yi, zi = y[i], z[i]
        while zi > 1:
            c = yi // zi
            yi -= c
            zi -= 1
            queue.append((sample_out_target(i, g, rng), c))
        y[i], z[i] = yi, zi
    for tgt, c in queue:
        y[tgt] += c
        z[tgt] += 1
    alphabet.update(c for _, c in queue)


def run_consensus(y, q: QuantizerState, g: Digraph, rng: PCG32, *, force_backend: str | None = None):
    """Run the whole protocol from the initial value masses ``y``.

    Returns (m, ConsensusStats): every node stops holding the same grid
    point ``b_q + m * delta``, and its integer level ``m`` is returned once.
    ``y`` holds one odd integer per node (see ``init_consensus``) and is
    never modified, so a caller may run the same masses again.  ``q`` is
    not read: the level needs no grid.  It stays the second positional
    argument because the benchmark's backend parity replay
    (``perfbench/run.py``) calls this function positionally with it and
    compares the returned levels.  The compiled kernel is used when it is
    built, unless ``force_backend="pure"``, which the parity replay passes;
    the pure snapshot path runs otherwise, and when the kernel declines the
    instance (its ``sum(|y|)`` exceeds int64).  Both paths yield identical
    output and leave the RNG in the identical state.  A run that reaches
    ``ROUND_CAP`` rounds, read at each call, raises ConsensusCapError.
    """
    if force_backend not in (None, "pure"):
        raise ValueError(f"unknown backend {force_backend!r}")
    kernel = graph._kernel
    d_eff = effective_epoch(g.diameter)
    out = None
    if kernel is not None and force_backend is None:
        out = _run_kernel(kernel, y, g, d_eff, rng)
    if out is None:  # no kernel, or it declined (sum |y| beyond int64)
        out = _run_snapshot(list(y), g, d_eff, rng)  # updates its copy in place
    rounds, m, size, pieces = out
    return m, ConsensusStats(g.n, rounds, size, pieces)


def _run_snapshot(y, g, d_eff, rng):
    """Pure path: one O(n) extremes snapshot per epoch, no flood.

    Returns (rounds, m, alphabet size, alphabet) at the stop; raises at the
    round cap.
    """
    n = g.n
    z = [2] * n
    y0 = sum(y)
    alphabet: set = set()

    for lam in range(1, ROUND_CAP + 1):
        if lam % d_eff == 1:
            M = max(-(-yi // zi) for yi, zi in zip(y, z))
            m = min(yi // zi for yi, zi in zip(y, z))
            if lam == 1:
                M0, m0 = M, m
        _split_and_deliver(y, z, g, rng, alphabet)
        if lam % d_eff == 0 and M - m <= 1:
            if sum(z) != 2 * n or sum(y) != y0 or not m0 <= m <= M0:
                raise RuntimeError(
                    "consensus invariant broken at the stop: sum(z) != 2n, sum(y) moved, "
                    "or the output left the first snapshot"
                )
            return lam, m, len(alphabet), alphabet
    raise ConsensusCapError(ROUND_CAP)


def _run_kernel(kernel, y, g, d_eff, rng):
    """int64 port of ``_run_snapshot``.  Returns None when the kernel declines.

    The kernel reads the graph through its cached handle and returns the
    alphabet's size and the alphabet as bytes of packed int64, which are
    passed on as they are.  It copies ``y`` and runs on a copy of the RNG state,
    so a decline leaves both untouched and the pure replay is bit-identical.
    A broken invariant at the stop raises RuntimeError, which is never
    replayed on the pure path.
    """
    out = kernel.run_rounds(y, g.kernel_handle(kernel), d_eff, ROUND_CAP, rng.state, rng.inc)
    if out is None:
        return None
    stopped, rounds, m, size, pieces, rng.state = out
    if not stopped:
        raise ConsensusCapError(ROUND_CAP)
    return rounds, m, size, pieces
