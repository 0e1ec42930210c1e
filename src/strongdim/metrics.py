"""Shortest-path metric.

Distances are exact hop counts, kept as distance balls grown for all sources
at once, one radius at a time: each ball is the union of its neighbours'
balls one radius smaller, and their intersection, taken in the same loop,
gives the rows of the strong resolving graph.
"""

from __future__ import annotations

from .graph import Graph, component_masks

__all__ = [
    "DistanceMatrix",
    "all_pairs_distances",
    "is_connected",
]


class DistanceMatrix:
    """All-pairs hop distances, kept as per-source distance balls (bitmasks).

    ``balls[v][k]`` is the bitmask of vertices within distance k of v; the
    last entry is v's whole reachable set.  The balls power the O(1)
    maximal-distance tests in the strong resolving machinery.  ``far[v]`` is
    the set of vertices from which v is maximally distant.
    """

    __slots__ = ("n", "balls", "far")

    def __init__(self, n: int, balls: list[list[int]], far: list[int]):
        self.n = n
        self.balls = balls
        self.far = far

    def ball(self, v: int, radius: int) -> int:
        """Bitmask of vertices within ``radius`` of v (clamped to reachability)."""
        if radius < 0:
            return 0
        levels = self.balls[v]
        return levels[radius] if radius < len(levels) else levels[-1]

    def connected(self) -> bool:
        """True iff the graph is connected: vertex 0 reaches every vertex."""
        return self.n > 0 and self.balls[0][-1] == (1 << self.n) - 1


def _grow(g: Graph, keep: bool) -> tuple[list[list[int]] | None, list[int], list[int]]:
    """(balls, F, reach): every vertex's distance balls if ``keep``, else
    ``None``; F[v], the vertices from which v is maximally distant; and each
    vertex's reachable set.  B(v, k + 1) = the union of B(w, k) over w in
    N(v), k >= 1, and a source drops out once its ball stops growing.  v is
    maximally distant from u at distance k iff N(v) lies within k of u, so
    F[v] gains layer_k(v) & AND over w in N(v) of B(w, k).
    """
    n = g.n
    # lists, not tuples: CPython keeps up to 2,000 freed tuples of each short
    # length on free lists, so tuples here leave memory held after the call.
    # Each is read from the top bit down; the pass only ORs and ANDs its balls
    nbrs = []
    for a in g.adj:
        nbrs.append(row := [])
        while a:
            row.append(w := a.bit_length() - 1)
            a ^= 1 << w
    last = [a | 1 << v for v, a in enumerate(g.adj)]  # B(v, 1)
    older = [1 << v for v in range(n)]  # B(v, 0)
    balls = [[b] if a == b else [b, a] for a, b in zip(last, older)] if keep else None
    far = [0] * n
    growing = [v for v in range(n) if g.adj[v]]
    while growing:
        prev = last[:]
        still = []
        for v in growing:
            ball = 0
            hit = prev[v] ^ older[v]  # layer_k(v)
            for w in nbrs[v]:
                b = prev[w]
                ball |= b
                hit &= b
            far[v] |= hit
            if ball != prev[v]:
                last[v] = ball
                if keep:
                    balls[v].append(ball)
                still.append(v)
        growing = still
        older = prev
    return balls, far, last


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Every distance ball of every vertex, with ``far`` recorded."""
    balls, far, _ = _grow(g, keep=True)
    return DistanceMatrix(g.n, balls, far)


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1
