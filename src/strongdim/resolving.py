"""Mutually-maximally-distant machinery: boundary, strong resolving graph
(its rows taken from the distance-ball pass in ``metrics``), and the MMD
pairs of a strong product predicted from factor distances and factor MMD
relations alone, with no BFS on the product: a genuine second route to the
product's directly computed strong resolving graph.
"""

from __future__ import annotations

from operator import and_, xor
from typing import NamedTuple

from .graph import Graph, _transpose
from .metrics import DistanceMatrix, _grow, all_pairs_distances
from .products import _stride

__all__ = [
    "SRGraph",
    "PredictedSR",
    "strong_resolving_graph",
    "boundary",
    "predicted_mmd_edges",
]


class SRGraph:
    """The strong resolving graph of a graph, on the graph's own ids."""

    __slots__ = ("sr",)

    def __init__(self, sr: Graph):
        self.sr = sr

    @property
    def boundary(self) -> frozenset[int]:
        """Vertices in at least one MMD pair = non-isolated vertices of sr."""
        return frozenset(u for u in range(self.sr.n) if self.sr.adj[u])

    def __repr__(self) -> str:
        return f"SRGraph(n={self.sr.n}, sr_edges={self.sr.num_edges})"


def strong_resolving_graph(g: Graph, dm: DistanceMatrix | None = None) -> SRGraph:
    """Graph on V(g) whose edges are exactly the MMD pairs of g: F & transpose(F),
    with F[v] the set of vertices from which v is maximally distant.

    F is ``dm.far`` when ``dm`` is given, and otherwise comes from a pass of
    ``metrics._grow`` over g that holds two radii of balls, not all.
    """
    if g.n < 2:
        raise ValueError("strong resolving graph needs n >= 2")
    if dm is not None:
        connected, far = dm.connected(), dm.far
    else:
        _, far, reach = _grow(g, keep=False)
        connected = reach[0] == (1 << g.n) - 1
    if not connected:
        raise ValueError("strong resolving graph needs a connected graph")
    return SRGraph(Graph(g.n, list(map(and_, far, _transpose(far, g.n)))))


def boundary(g: Graph) -> frozenset[int]:
    return strong_resolving_graph(g).boundary


# ---------------------------------------------------------------------------
# predicted MMD pairs of a strong product (factor-level only)
# ---------------------------------------------------------------------------


class PredictedSR(NamedTuple):
    """Predicted strong resolving graph of a strong product; ``dm_g`` and
    ``dm_h`` are the factor distances it was built on, and ``sr_g`` and
    ``sr_h`` the factors' SR graphs."""

    graph: Graph
    dm_g: DistanceMatrix
    dm_h: DistanceMatrix
    sr_g: Graph
    sr_h: Graph


def _partners_at(dm: DistanceMatrix, sr: list[int]) -> dict[int, list[int]]:
    """d -> [the MMD partners of w at distance exactly d, for each vertex w]."""
    out: dict[int, list[int]] = {}
    for w, partners in enumerate(sr):
        for d, layer in enumerate(map(xor, dm.balls[w][1:], dm.balls[w]), 1):
            if partners & layer:
                out.setdefault(d, [0] * dm.n)[w] = partners & layer
    return out


def predicted_mmd_edges(g: Graph, h: Graph) -> PredictedSR:
    """Predicted MMD edge set of the strong product, from factor data alone:
    with D = max(d_G(u,x), d_H(v,y)), (u,v) and (x,y) are MMD iff every
    coordinate at distance D is MMD in its factor.  With P_F(w,d) w's partners
    at distance d, row (u,v) sums over d stride(P_G(u,d)) * (P_H(v,d) |
    B_H(v,d-1)), G's coordinate at D = d, and stride(B_G(u,d-1)) * P_H(v,d),
    H's alone at D = d: disjoint masks over u*n2+v ids.  The lemma's five
    conditions are the rule's cases: 1. u,x and v,y MMD; 2. u,x MMD, v = y;
    3. v,y MMD, u = x; 4. u,x MMD, d_H(v,y) < d_G(u,x); 5. v,y MMD,
    d_G(u,x) < d_H(v,y).
    """
    dms, sr_graphs = [], []
    for name, f in (("g", g), ("h", h)):
        if f.n < 2:
            raise ValueError(f"factor {name} must be nontrivial (n >= 2)")
        dms.append(dm := all_pairs_distances(f))
        if not dm.connected():
            raise ValueError(f"factor {name} must be connected")
        sr_graphs.append(strong_resolving_graph(f, dm).sr)
    (dm_g, dm_h), (sr_g, sr_h) = dms, (sr.adj for sr in sr_graphs)
    n1, n2 = g.n, h.n
    g_at, h_at = _partners_at(dm_g, sr_g), _partners_at(dm_h, sr_h)
    # (G side by u, H side by v) of each term of the rule's two sums
    terms = [(xs, [dm_h.ball(v, d - 1) | p & dm_h.ball(v, d) for v, p in enumerate(sr_h)])
             for d, xs in g_at.items()]
    terms += [([dm_g.ball(u, d - 1) for u in range(n1)], ys) for d, ys in h_at.items()]
    pred = []
    for u in range(n1):
        strided = [(_stride(xs[u], n2), ys) for xs, ys in terms if xs[u]]
        pred.extend(sum(s * ys[v] for s, ys in strided) for v in range(n2))
    return PredictedSR(Graph(n1 * n2, pred), dm_g, dm_h, *sr_graphs)
