"""Finite-time quantized average consensus on a strongly connected digraph.

One consensus execution computes, in finitely many synchronous rounds, a
common value within one quantization level of the average of the nodes'
quantized inputs, using only integer-valued messages.

State: two int lists, the value masses ``y`` and the count masses ``z``.
``run_consensus`` takes the initial value masses, not the inputs: node i
starts at ``y[i] = 2*(Q(x_i) - b_q)/delta`` (an odd integer: twice the
quantized basis-relative level, so the network-wide ratio sum(y)/sum(z)
equals the average quantized value in basis-relative delta units, as
``init_consensus`` computes it from the inputs) and ``z[i] = 2``.  The
quantizer is only read to map the output level back to ``b_q + m*delta``.
Masses stay integers forever — every transmitted piece is a floor of a
ratio — which is what makes the stop test reachable and the protocol
finite-time.  Both sums are conserved, so ``sum(z) = 2n``; a node
ends every split with ``z = 1`` and only gains count mass, so every node
keeps ``z >= 1`` and the round sends exactly ``sum(z) - n = n`` pieces.
Each round:

1. at epoch starts (``lambda mod D' == 1``) every node resets its flood
   values to ``M = ceil(y/z)``, ``m = floor(y/z)``;
2. every node pushes ``(M, m)`` along its out-edges and keeps the max/min
   of its own values and what it received;
3. every node with ``z > 1`` splits its mass into near-equal integer pieces
   ``c = floor(y/z)``, sending each piece to itself or a uniformly random
   out-neighbor (send phase completes network-wide before any delivery);
4. queued pieces are delivered (``y += c``, ``z += 1``);
5. at epoch ends (``lambda mod D' == 0``) all nodes hold the flooded global
   extremes; if ``M - m <= 1`` every node stops and outputs
   ``b_q + m * delta`` (a grid point within delta of the average quantized
   input).  ``run_consensus`` returns that common value once.

``D' = max(diameter, 2)`` so a full epoch always floods the extremes to
every node and the reset/check cadence stays meaningful on diameter-1
graphs.

Unhooked runs skip steps 1-2 and take one snapshot per epoch instead: at
the epoch start, ``M = max ceil(y_i/z_i)`` and ``m = min floor(y_i/z_i)``
over all nodes, in O(n) rather than O(E) per round.  This is exact: the
flood resets only at epoch starts and absorbs only max/min, and an epoch
has ``D' >= diameter`` rounds, so at the epoch end every node's flood value
equals these global extremes; and flooding draws no randomness, so the
split phase consumes the identical RNG stream.  The per-round flood runs
when a round hook is given, and is the oracle the snapshot path is tested
against.  Both paths split and deliver through one function, the only
consumer of the RNG.

The package's optional C extension (``zoomgrad/_ckernel.c``, shared with
the graph generator's edge draws) ports the snapshot path to int64 as
``run_rounds`` when it is built: same node order, same PCG32 draws, same
stop rule, so the output, rounds, alphabet and RNG state are bit-for-bit equal
to the pure paths, which run whenever the extension is not built.  It
declines instances that could overflow int64 (n > 4096, or a mass beyond
``W_SAFE = 2**45`` at any round start) without advancing the caller's RNG,
and the pure snapshot path then replays them from the same initial masses.
Round hooks always use the pure flood path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import Digraph
from ..quantizer import QuantizerState, quantize
from ..rng import PCG32

try:
    from .. import _ckernel as _kernel
except ImportError:  # pragma: no cover - build-environment dependent
    _kernel = None

__all__ = [
    "ConsensusStats",
    "ConsensusCapError",
    "ROUND_CAP",
    "init_consensus",
    "sample_out_target",
    "effective_epoch",
    "run_consensus",
    "active_backend",
]

ROUND_CAP = 100_000


@dataclass
class ConsensusStats:
    n: int
    rounds: int
    measured_alphabet: set

    @property
    def mass_transmissions(self) -> int:
        """Every round sends exactly n pieces (sum z = 2n)."""
        return self.n * self.rounds


class ConsensusCapError(RuntimeError):
    """Raised when the safety round cap is hit (a liveness bug, not an outcome)."""

    def __init__(self, rounds: int):
        super().__init__(f"consensus did not terminate within {rounds} rounds")
        self.rounds = rounds


def active_backend() -> str:
    """Which implementation unhooked runs use: 'compiled' or 'pure'."""
    return "compiled" if _kernel is not None else "pure"


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
    the protocol's only use of the RNG, shared by both pure paths.
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


def run_consensus(
    y,
    q: QuantizerState,
    g: Digraph,
    rng: PCG32,
    *,
    max_rounds: int = ROUND_CAP,
    round_hook=None,
    force_backend: str | None = None,
):
    """Run the whole protocol from the initial value masses ``y``.

    Returns (common value, ConsensusStats).  ``y`` holds one odd integer per
    node (see ``init_consensus``) and is never modified, so a caller may run
    the same masses again.  ``q`` is only read for the output: every node
    stops holding the same rational ``b_q + m * delta`` on the delta-grid,
    which is returned once.  The compiled kernel is used when
    available unless a ``round_hook`` is given or ``force_backend="pure"``;
    ``force_backend="compiled"`` demands the kernel.  Without the kernel,
    unhooked runs take the epoch-snapshot path and hooked runs the per-round
    flood, which calls ``round_hook(lambda, record)`` after every round.
    Every path yields identical output and leaves the RNG in the identical
    state.
    """
    if force_backend not in (None, "pure", "compiled"):
        raise ValueError(f"unknown backend {force_backend!r}")
    if force_backend == "compiled" and _kernel is None:
        raise RuntimeError("compiled consensus kernel is not available")

    y = list(y)  # the pure paths update their masses in place
    d_eff = effective_epoch(g.diameter)
    out = None
    if _kernel is not None and round_hook is None and force_backend != "pure":
        out = _run_kernel(y, g, d_eff, rng, max_rounds)
    if out is None:  # no kernel, or it declined (would exceed its integer range)
        if round_hook is None:
            out = _run_snapshot(y, g, d_eff, rng, max_rounds)
        else:
            out = _run_flood(y, g, d_eff, rng, max_rounds, round_hook)
    rounds, m, alphabet = out
    return q.b_q + m * q.delta, ConsensusStats(g.n, rounds, alphabet)


def _run_snapshot(y, g, d_eff, rng, max_rounds):
    """Unhooked pure path: one O(n) extremes snapshot per epoch, no flood.

    Returns (rounds, m, alphabet) at the stop; raises at the round cap.
    """
    n = g.n
    z = [2] * n
    y0 = sum(y)
    alphabet: set = set()

    for lam in range(1, max_rounds + 1):
        if lam % d_eff == 1:
            M = max(-(-yi // zi) for yi, zi in zip(y, z))
            m = min(yi // zi for yi, zi in zip(y, z))
        _split_and_deliver(y, z, g, rng, alphabet)
        if lam % d_eff == 0 and M - m <= 1:
            assert sum(z) == 2 * n, "count mass not conserved"
            assert sum(y) == y0, "value mass not conserved"
            return lam, m, alphabet
    raise ConsensusCapError(max_rounds)


def _run_flood(y, g, d_eff, rng, max_rounds, round_hook):
    """Per-round flood path: serves round hooks, and is the oracle.

    The flood values ``M`` and ``m`` are pushed along out-edges each round.
    The hook's record holds the post-reset values (``reset_M``, ``reset_m``;
    None off epoch starts) and the end-of-round ``M``, ``m``, ``y`` and ``z``.
    """
    n = g.n
    z = [2] * n
    alphabet: set = set()

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
        _split_and_deliver(y, z, g, rng, alphabet)
        round_hook(lam, {"reset_M": reset_M, "reset_m": reset_m, "M": M, "m": m, "y": y[:], "z": z[:]})
        if lam % d_eff == 0 and all(Mi - mi <= 1 for Mi, mi in zip(M, m)):
            assert len(set(m)) == 1, "stop fired with disagreeing nodes"
            return lam, m[0], alphabet
    raise ConsensusCapError(max_rounds)


def _run_kernel(y, g, d_eff, rng, max_rounds):
    """int64 port of ``_run_snapshot``.  Returns None when the kernel declines.

    The kernel copies ``y`` and runs on a copy of the RNG state, so a decline
    leaves both untouched and the pure replay is bit-identical.
    """
    out = _kernel.run_rounds(y, g.out_adj, d_eff, max_rounds, rng.state, rng.inc)
    if out is None:
        return None
    stopped, rounds, m, alphabet, rng.state = out
    if not stopped:
        raise ConsensusCapError(max_rounds)
    return rounds, m, set(alphabet)
