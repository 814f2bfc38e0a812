"""Directed graphs: generation, connectivity, diameter.

Graphs are immutable once built and hold one adjacency, the sorted
out-neighbor lists ``out_adj``.  Random generation is cycle-first: a
directed Hamiltonian cycle over a seeded random permutation guarantees strong
connectivity, then every remaining ordered pair is added independently with
probability ``edge_prob``.  Construction therefore never retries and is fully
determined by ``(n, edge_prob, seed)``.
"""

from __future__ import annotations

from fractions import Fraction

from .rng import PCG32, STREAM_GRAPH

__all__ = [
    "Digraph",
    "generate_random_digraph",
    "is_strongly_connected",
    "diameter",
]


class Digraph:
    """Immutable digraph on nodes 0..n-1 with sorted out-adjacency lists.

    Self-loops are rejected: the consensus layer models self-delivery in its
    sampling set instead, keeping BFS/diameter standard.
    """

    __slots__ = ("n", "out_adj", "_diameter")

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError(f"n: need at least 2 nodes, got {n}")
        out_adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at node {u} not allowed")
            out_adj[u].add(v)
        self.out_adj = tuple(tuple(sorted(s)) for s in out_adj)
        self.n = n
        self._diameter = None

    def edge_count(self) -> int:
        return sum(len(a) for a in self.out_adj)

    @property
    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = diameter(self)
        return self._diameter

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_adj == other.out_adj
        )


def _bfs_dists(adj, src: int, n: int):
    dist = [-1] * n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    nxt.append(v)
        frontier = nxt
    return dist


def is_strongly_connected(g: Digraph) -> bool:
    """Every node reaches every node: BFS from 0 forward and backward."""
    rev_adj = [[] for _ in range(g.n)]
    for u, targets in enumerate(g.out_adj):
        for v in targets:
            rev_adj[v].append(u)
    return all(d >= 0 for d in _bfs_dists(g.out_adj, 0, g.n)) and all(
        d >= 0 for d in _bfs_dists(rev_adj, 0, g.n)
    )


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered pairs (all-pairs BFS)."""
    best = 0
    for src in range(g.n):
        dist = _bfs_dists(g.out_adj, src, g.n)
        ecc = max(dist)
        if min(dist) < 0:
            raise ValueError("diameter undefined: digraph is not strongly connected")
        best = max(best, ecc)
    return best


def generate_random_digraph(n: int, edge_prob, seed: int) -> Digraph:
    """Strongly connected random digraph, deterministic in (n, edge_prob, seed).

    A Hamiltonian cycle over a Fisher-Yates-shuffled permutation is laid down
    first; each remaining ordered pair (u, v), scanned in lexicographic
    order, then draws one 32-bit variate and keeps the edge when it falls
    below ``edge_prob * 2**32``.  ``edge_prob`` may be int, float, Fraction,
    or a decimal/ratio string; it is converted exactly.
    """
    p = edge_prob if isinstance(edge_prob, Fraction) else Fraction(str(edge_prob))
    if not 0 <= p <= 1:
        raise ValueError(f"edge_prob: expected probability in [0,1], got {edge_prob}")
    rng = PCG32(seed, STREAM_GRAPH)

    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    cycle = {(perm[k], perm[(k + 1) % n]) for k in range(n)}

    threshold = (p.numerator << 32) // p.denominator
    edges = set(cycle)
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in cycle:
                continue
            if rng.next_u32() < threshold:
                edges.add((u, v))
    g = Digraph(n, edges)
    assert is_strongly_connected(g)
    return g

