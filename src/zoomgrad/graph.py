"""Directed graphs: generation and diameter, and the package's C kernel.

Graphs are immutable once built and hold one adjacency, the sorted
out-neighbor rows (``Digraph``).  ``generate_random_digraph`` lays down a
Hamiltonian cycle first, so every graph is strongly connected with no
retry, and ``diameter`` sets the consensus flooding epoch.

This module imports the C kernel (``_ckernel.c``, whose header describes
it) for the package, as ``_kernel``: a build whose ``ABI`` differs from
``KERNEL_ABI`` (an in-place build left from an older source) is refused
with a ``RuntimeWarning``, and the pure paths run.  Each kernel path gives
the same results and RNG state as its pure loop.  ``randbelow_each``, the
package's bulk bounded draws, is here for that reason.
"""

from __future__ import annotations

import warnings

from .rng import PCG32, STREAM_GRAPH

# The kernel interface this source calls; _ckernel.c exports the same number
# as ``ABI``.  A build from another source is refused, not half used.
KERNEL_ABI = 7


def _checked_kernel(module):
    """``module`` when it is missing or built for ``KERNEL_ABI``; else None, with a warning."""
    if module is None or getattr(module, "ABI", None) == KERNEL_ABI:
        return module
    warnings.warn(
        "%s was built from another kernel source (ABI %r, expected %d); running the pure "
        "paths. Rebuild it with: python3 setup.py build_ext --inplace"
        % (module.__file__, getattr(module, "ABI", None), KERNEL_ABI),
        RuntimeWarning,
        stacklevel=2,
    )
    return None


try:
    from . import _ckernel as _kernel
except ImportError:  # pragma: no cover - build-environment dependent
    _kernel = None
_kernel = _checked_kernel(_kernel)

__all__ = [
    "Digraph",
    "generate_random_digraph",
    "diameter",
    "randbelow_each",
]


class Digraph:
    """Immutable digraph on nodes 0..n-1, given by its out-adjacency rows.

    ``out_adj[u]``, taken as given, is the sorted tuple of u's out-neighbors,
    none of them u: the consensus layer models self-delivery in its sampling
    set instead, keeping BFS/diameter standard.  The graph keeps its kernel
    handle (``kernel_handle``) and the consensus engine's binding
    (``_binding``).
    """

    __slots__ = ("n", "out_adj", "_diameter", "_kernel_handle", "_binding")

    def __init__(self, out_adj: tuple):
        self.n = len(out_adj)
        self.out_adj = out_adj
        self._diameter = None
        self._kernel_handle = None
        self._binding = (None, None, None)

    def edge_count(self) -> int:
        """The number of edges, read only by the benchmark's
        ``perfbench/tracing.py`` ``_count_graph``."""
        return sum(len(a) for a in self.out_adj)

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = diameter(self)
        return self._diameter

    def kernel_handle(self, kernel):
        """The graph's CSR handle for ``kernel``: the one its edge scan built,
        or ``kernel.csr`` of the rows, made on first use.  The handle is kept
        with the kernel that built it, so a kernel is only ever given a
        handle in its own layout."""
        if self._kernel_handle is None or self._kernel_handle[0] is not kernel:
            self._kernel_handle = (kernel, kernel.csr(self.out_adj))
        return self._kernel_handle[1]


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered pairs.

    Node sets are int bitsets.  ``reach_d[u]``, the nodes within distance
    ``d`` of ``u``, starts at ``{u}`` and follows the recurrence
    ``reach_{d+1}[u] = reach_d[u] | OR over v in out_adj[u] of reach_d[v]``:
    a node is within ``d + 1`` of ``u`` exactly when it is ``u`` or within
    ``d`` of an out-neighbor.  Every level is computed from the previous
    one only, so the first ``d`` at which every row holds all ``n`` nodes is
    exactly the diameter.  A level that changes no row is a fixed point; if
    a row is still short there, some node never reaches another and
    ``ValueError`` is raised.  The kernel runs the recurrence when it is
    built, ``_bigint_diameter`` otherwise.
    """
    if _kernel is not None:
        d = _kernel.diameter(g.kernel_handle(_kernel))
    else:
        d = _bigint_diameter(g)
    if d < 0:
        raise ValueError("diameter undefined: digraph is not strongly connected")
    return d


def _bigint_diameter(g: Digraph) -> int:
    """``diameter``'s recurrence on big-int rows; -1 at a short fixed point."""
    full = (1 << g.n) - 1
    reach = [1 << u for u in range(g.n)]
    d = 0
    while any(r != full for r in reach):
        nxt = []
        for r, targets in zip(reach, g.out_adj):
            if r != full:
                for v in targets:
                    r |= reach[v]
            nxt.append(r)
        if nxt == reach:
            return -1
        reach = nxt
        d += 1
    return d


def generate_random_digraph(n: int, edge_prob, seed: int) -> Digraph:
    """Strongly connected random digraph, deterministic in (n, edge_prob, seed).

    A Hamiltonian cycle over a Fisher-Yates-shuffled permutation is laid down
    first; each remaining ordered pair (u, v), scanned in lexicographic
    order, then draws one 32-bit variate and keeps the edge when it falls
    below ``edge_prob * 2**32``.  ``edge_prob`` is an exact rational, a
    ``Fraction`` or an int, as ``RunConfig`` holds it.  Both arguments are
    validated before the first draw.
    """
    if not 0 <= edge_prob <= 1:
        raise ValueError(f"edge_prob: expected probability in [0,1], got {edge_prob}")
    if n < 2:
        raise ValueError(f"n: need at least 2 nodes, got {n}")
    rng = PCG32(seed, STREAM_GRAPH)

    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), randbelow_each(rng, range(n, 1, -1))):
        perm[i], perm[j] = perm[j], perm[i]
    succ = [0] * n
    for k in range(n):
        succ[perm[k]] = perm[(k + 1) % n]

    threshold = (edge_prob.numerator << 32) // edge_prob.denominator
    return _draw_digraph(succ, threshold, rng)


def _draw_digraph(succ: list[int], threshold: int, rng: PCG32) -> Digraph:
    """The digraph of the cycle ``u -> succ[u]`` plus the drawn pairs.

    Pairs (u, v) are scanned in lexicographic order: ``u == v`` is skipped,
    the cycle pair ``v == succ[u]`` is kept without a draw, and any other
    pair is kept when the next 32-bit draw is below ``threshold``, by the
    kernel when it is built, else by this loop.
    """
    if _kernel is not None:
        out_adj, handle, rng.state = _kernel.random_out_adj(succ, threshold, rng.state, rng.inc)
        g = Digraph(out_adj)
        g._kernel_handle = (_kernel, handle)
        return g
    n = len(succ)
    rows = []
    for u, s in enumerate(succ):
        rows.append(tuple(v for v in range(n) if v != u and (v == s or rng.next_u32() < threshold)))
    return Digraph(tuple(rows))


def randbelow_each(rng: PCG32, bounds) -> list[int]:
    """``[rng.randbelow(b) for b in bounds]``: the same draws, leaving ``rng``
    in the same state, in one call to the C kernel when it is built.  A
    bound above 2**32 raises ValueError before any draw.
    """
    if _kernel is None:
        for b in bounds:
            if b > 1 << 32:
                raise ValueError("randbelow bound %d exceeds the 32-bit output range" % b)
        return [rng.randbelow(b) for b in bounds]
    draws, rng.state = _kernel.randbelow_each(bounds, rng.state, rng.inc)
    return draws
