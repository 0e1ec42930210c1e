"""Shortest-path metric and structural classifiers (antipodality, block graphs).

Distances are exact hop counts, kept as distance balls.
``all_pairs_distances`` grows them for all sources at once, one radius at a
time, each ball the union of its neighbours' balls one radius smaller: about
edges times diameter whole-mask unions, not one bit-by-bit search per source.
Unreachable pairs carry ``None`` --- a dedicated sentinel that fails fast in
arithmetic instead of corrupting max/min comparisons.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, bits, component_masks

__all__ = [
    "DistanceMatrix",
    "all_pairs_distances",
    "is_connected",
    "is_two_antipodal",
    "cut_vertices",
    "is_generalized_tree",
    "leaf_count",
]


class DistanceMatrix:
    """All-pairs hop distances, kept as per-source distance balls (bitmasks).

    ``balls[v][k]`` is the bitmask of vertices within distance k of v; the
    last entry is v's whole reachable set.  The balls power the O(1)
    maximal-distance tests in the strong resolving machinery.
    """

    __slots__ = ("n", "balls")

    def __init__(self, n: int, balls: Sequence[Sequence[int]]):
        self.n = n
        self.balls = balls

    def dist(self, u: int, v: int) -> int | None:
        """The first ball level of u that contains v; ``None`` if none does."""
        for d, ball in enumerate(self.balls[u]):
            if ball >> v & 1:
                return d
        return None

    def ball(self, v: int, radius: int) -> int:
        """Bitmask of vertices within ``radius`` of v (clamped to reachability)."""
        if radius < 0:
            return 0
        levels = self.balls[v]
        return levels[radius] if radius < len(levels) else levels[-1]

    def connected(self) -> bool:
        """True iff the graph is connected: vertex 0 reaches every vertex."""
        return self.n > 0 and self.balls[0][-1] == (1 << self.n) - 1


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distance balls of every vertex: B(v, k + 1) = the union of B(w, k) over
    the neighbours w of v, for k >= 1.  A source whose ball did not grow has
    reached its whole component and keeps that ball from then on."""
    n = g.n
    # lists, not tuples: CPython keeps up to 2,000 freed tuples of each short
    # length on free lists, so tuples here leave memory held after the call
    nbrs = [list(bits(a)) for a in g.adj]
    last = [a | 1 << v for v, a in enumerate(g.adj)]  # B(v, 1)
    balls = [[1 << v] for v in range(n)]
    growing = [v for v in range(n) if g.adj[v]]
    for v in growing:
        balls[v].append(last[v])
    while growing:
        prev = last[:]
        still = []
        for v in growing:
            ball = 0
            for w in nbrs[v]:
                ball |= prev[w]
            if ball != prev[v]:
                last[v] = ball
                balls[v].append(ball)
                still.append(v)
        growing = still
    return DistanceMatrix(n, balls)


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


def is_two_antipodal(g: Graph) -> bool:
    """True iff every vertex has exactly one vertex at distance diam(G)."""
    _require_connected(g)
    dm = all_pairs_distances(g)
    d = max(map(len, dm.balls)) - 1
    for v in range(g.n):
        levels = dm.balls[v]
        if len(levels) - 1 != d:
            return False
        at_diam = levels[d] & ~levels[d - 1] if d > 0 else levels[0]
        if at_diam.bit_count() != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# cut vertices and block graphs
# ---------------------------------------------------------------------------


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph: the vertices v that leave
    more than two components (v alone and at least two others) once v's row
    and bit are cleared."""
    _require_connected(g)
    cuts = []
    for v in range(g.n):
        keep = ~(1 << v)
        rest = [a & keep for a in g.adj]
        rest[v] = 0
        if len(component_masks(Graph(g.n, rest))) > 2:
            cuts.append(v)
    return frozenset(cuts)


def is_generalized_tree(g: Graph) -> bool:
    """Block-graph test: every block induces a complete subgraph.

    Block graphs are exactly the chordal, diamond-free graphs.  No diamond:
    the common neighbourhood of every edge is a clique.  Chordal: simplicial
    vertices (whose neighbourhood is a clique) peel off until none are left.
    """
    _require_connected(g)
    adj = g.adj

    def is_clique(mask: int) -> bool:
        return all(mask & ~adj[w] == 1 << w for w in bits(mask))

    for u in range(g.n):
        for v in bits(adj[u] >> u << u):  # each edge once, as u < v
            if not is_clique(adj[u] & adj[v]):
                return False
    left = (1 << g.n) - 1
    while left:
        simplicial = next((v for v in bits(left) if is_clique(adj[v] & left)), None)
        if simplicial is None:
            return False
        left ^= 1 << simplicial
    return True


def leaf_count(g: Graph) -> int:
    _require_connected(g)
    return sum(1 for u in range(g.n) if g.degree(u) == 1)
