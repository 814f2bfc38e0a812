"""Finite-time quantized average consensus on a strongly connected digraph.

One consensus execution computes, in finitely many synchronous rounds, a
common value within one quantization level of the average of the nodes'
quantized inputs, using only integer-valued messages.

Inputs.  ``run_consensus(y, q, g, rng)`` takes the initial value masses,
not the inputs: node i starts at ``y[i] = 2*(Q(x_i) - b_q)/delta``, an odd
integer (``init_consensus`` computes it from the inputs, the optimizer in
integers), and at count mass ``z[i] = 2``, so ``sum(y)/sum(z)`` is the
average quantized input in basis-relative ``delta`` units.  ``rng`` is the
run's PCG32, the protocol's only randomness.

Each round, with ``D' = max(diameter, 2)``: at an epoch start
(``lambda mod D' == 1``) the extremes ``M = max ceil(y_i/z_i)`` and
``m = min floor(y_i/z_i)`` are snapshot over all nodes; every node with
``z > 1`` splits its mass into ``z - 1`` pieces ``floor(y/z)``, each sent to
itself or a uniformly random out-neighbour; the pieces are delivered
(``y += c``, ``z += 1``) once every node has sent; at an epoch end
(``lambda mod D' == 0``) the run stops when ``M - m <= 1``.  The snapshot
equals what the protocol's per-round max/min flood holds at each epoch
end, and the flood draws nothing, so the RNG stream is the same.

Result.  The level ``m`` of the common grid point ``b_q + m*delta``, and a
``ConsensusStats``.  ``y`` is never modified, so a caller may run the same
masses again.

Backends and decline.  The C kernel's ``run_rounds`` (``_ckernel.c``,
whose header owns the algorithm) runs when it is built; ``graph._kernel``
is read at each call, so one name selects the backend.  It gives the same
level, rounds, pieces and RNG state as the pure path.  It declines
(returns None) before any draw when the initial ``sum(|y|)`` exceeds
int64, a bound on every value of the run; it works on copies of ``y`` and
of the RNG state, so the pure path then replays the identical call.

Invariants.  Both masses' sums are conserved, so ``sum(z) = 2n``, every node
keeps ``z >= 1`` and a round sends exactly ``n`` pieces.  At the stop both
paths check, in O(n), that ``sum(z) = 2n``, that ``sum(y)`` kept its value,
that ``m`` lies in the first snapshot ``[m0, M0]`` and that
``m = floor(sum(y) / 2n)``, the output's closed form: ``sum(y)/2n`` is a
weighted average of the ``y_i/z_i``, all in ``[m, m + 1]``, and equals
``m + 1`` only when every floor does, whose minimum is ``m``.  A violation
raises RuntimeError, which is never replayed.  A run that reaches
``ROUND_CAP`` rounds raises ``ConsensusCapError`` on either path.

Oracles.  The pure path (``_run_snapshot``), which sheds a node's pieces one
floor division at a time, is the per-piece oracle of the kernel; the
tests' per-round flood is the oracle of the snapshot.
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
    """Counts of one consensus run: its rounds, and the distinct pieces sent,
    their number ``alphabet_size`` and the pieces themselves, each once in no
    promised order (bytes of packed native int64 from the kernel, a ``set``
    on the pure path)."""

    n: int
    rounds: int
    alphabet_size: int
    pieces: bytes | set

    @property
    def measured_alphabet(self) -> Collection[int]:
        """The pieces as a collection; compare two as ``set(...)``.  Read only
        by the benchmark's ``perfbench/tracing.py`` ``_count_consensus``."""
        pieces = self.pieces
        return memoryview(pieces).cast("q") if isinstance(pieces, bytes) else pieces

    @property
    def mass_transmissions(self) -> int:
        """Every round sends exactly n pieces (sum z = 2n).  Read only by the
        benchmark's ``parity_run`` and ``_count_consensus``."""
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
    """Per-node initial value masses y = 2*(Q(x_i) - b_q)/delta (z starts at 2),
    for Q the unclamped midpoint quantizer of the grid ``q``.

    y is always an odd integer (twice a quantizer midpoint offset): keeping
    the basis out of the circulating masses keeps them integral for every
    (b_q, delta), which the finite-time stop test depends on.  This per-node
    path is the oracle of the optimizer's integer masses; it stays here,
    rather than in ``tests/``, because the benchmark's
    ``perfbench/tracing.py`` ``HOOKS`` hook it and its ``quantize``.
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
    """Run the protocol from the masses ``y`` (see the module docstring);
    returns (m, ConsensusStats).

    ``q`` is not read: it stays the second positional argument, and
    ``force_backend="pure"`` the one override of the backend, because the
    benchmark's backend parity replay (``perfbench/run.py`` ``parity_run``)
    calls this function so.  ``ROUND_CAP`` is read at each call.
    """
    if force_backend not in (None, "pure"):
        raise ValueError(f"unknown backend {force_backend!r}")
    kernel = graph._kernel
    out = None
    if kernel is not None and force_backend is None:
        binding = g._binding
        if binding[0] is not kernel:
            binding = _bind(g, kernel)
        out = kernel.run_rounds(y, binding[1], binding[2], ROUND_CAP, rng.state, rng.inc)
        if out is not None:
            stopped, rounds, m, size, pieces, rng.state = out
            if not stopped:
                raise ConsensusCapError(ROUND_CAP)
    if out is None:  # no kernel, or it declined (sum |y| beyond int64)
        rounds, m, size, pieces = _run_snapshot(list(y), g, effective_epoch(g.diameter), rng)
    # tuple.__new__ skips the NamedTuple's Python-level __new__, which costs
    # twice as much on every call
    return m, tuple.__new__(ConsensusStats, (g.n, rounds, size, pieces))


def _bind(g, kernel):
    """Keep on ``g`` and return its binding ``(kernel, handle, D')``; naming
    the kernel, it gives a handle only to the kernel that built it."""
    g._binding = binding = (kernel, g.kernel_handle(kernel), effective_epoch(g.diameter))
    return binding


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
            if sum(z) != 2 * n or sum(y) != y0 or not m0 <= m <= M0 or m != y0 // (2 * n):
                raise RuntimeError(
                    "consensus invariant broken at the stop: sum(z) != 2n, sum(y) moved, the output left the "
                    "first snapshot, or the output is not floor(sum(y) / 2n)"
                )
            return lam, m, len(alphabet), alphabet
    raise ConsensusCapError(ROUND_CAP)
