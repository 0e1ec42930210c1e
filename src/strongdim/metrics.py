"""Shortest-path metric and structural classifiers (antipodality, block graphs).

Distances are exact BFS hop counts.  Unreachable pairs carry ``None`` --- a
dedicated sentinel that fails fast in arithmetic instead of corrupting
max/min comparisons.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, bits, component_masks

__all__ = [
    "DistanceMatrix",
    "all_pairs_distances",
    "is_connected",
    "diameter",
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

    def eccentricity(self, v: int) -> int:
        """Largest finite distance from v."""
        return len(self.balls[v]) - 1

    def finite_diameter(self) -> int:
        return max(self.eccentricity(v) for v in range(self.n))


def _bfs_balls(adj: Sequence[int], src: int) -> list[int]:
    seen = frontier = 1 << src
    levels = [seen]
    while True:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            return levels
        seen |= frontier
        levels.append(seen)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    return DistanceMatrix(g.n, [_bfs_balls(g.adj, v) for v in range(g.n)])


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) == 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


def diameter(g: Graph) -> int:
    _require_connected(g)
    return all_pairs_distances(g).finite_diameter()


def is_two_antipodal(g: Graph) -> bool:
    """True iff every vertex has exactly one vertex at distance diam(G)."""
    _require_connected(g)
    dm = all_pairs_distances(g)
    d = dm.finite_diameter()
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
