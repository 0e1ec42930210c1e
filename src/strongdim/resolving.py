"""Mutually-maximally-distant machinery: boundary, strong resolving graph
(its rows taken from the distance-ball pass in ``metrics``), and the
factor-level prediction of MMD pairs in a strong product, which evaluates
only factor distances and factor MMD relations --- no BFS on the product ---
so comparing it against the directly computed strong resolving graph of the
product is a genuine two-route check.
"""

from __future__ import annotations

from operator import add, and_, xor
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
    """Predicted strong resolving graph of a strong product.  ``histogram[i]``
    counts its edges whose first matching lemma condition is i (1..5);
    ``dm_g`` and ``dm_h`` are the factor distances it was built on, and
    ``sr_g`` and ``sr_h`` the factors' SR graphs."""

    graph: Graph
    histogram: dict[int, int]
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
    """Predicted MMD edge set of the strong product, from factor data alone.

    The lemma's conditions on (u,v), (x,y), in order: 1. u,x and v,y MMD;
    2. u,x MMD, v = y; 3. v,y MMD, u = x; 4. u,x MMD, d_H(v,y) < d_G(u,x);
    5. v,y MMD, d_G(u,x) < d_H(v,y).  Row (u,v) is the union of one disjoint
    mask per condition over u*n2+v ids; ``_stride`` spreads a G-side mask to
    them, and times an H-side mask (below 2^n2) places it with no carries.
    """
    dms = []
    for name, f in (("g", g), ("h", h)):
        if f.n < 2:
            raise ValueError(f"factor {name} must be nontrivial (n >= 2)")
        dms.append(dm := all_pairs_distances(f))
        if not dm.connected():
            raise ValueError(f"factor {name} must be connected")
    dm_g, dm_h = dms
    sr_graphs = [strong_resolving_graph(f, dm).sr for f, dm in ((g, dm_g), (h, dm_h))]
    sr_g, sr_h = (sr.adj for sr in sr_graphs)
    n1, n2 = g.n, h.n
    g_at = _partners_at(dm_g, sr_g)
    h_at = _partners_at(dm_h, sr_h)
    # d -> for each v, the vertices within d - 1 of v that are neither v nor its partners
    h_near = {d: [dm_h.ball(v, d - 1) & ~(p | 1 << v) for v, p in enumerate(sr_h)]
              for d in g_at}
    counts = [0] * 5
    pred = []
    for u in range(n1):  # the rows (u, v) for every v, one list per condition
        s_u = _stride(sr_g[u], n2)
        g_rest = ~(sr_g[u] | 1 << u)
        c4 = c5 = [0] * n2
        for d, xs in g_at.items():  # x a partner of u at distance d, y nearer v than d
            c4 = list(map(add, c4, map(_stride(xs[u], n2).__mul__, h_near[d])))
        for d, ys in h_at.items():  # y a partner of v at distance d, x nearer u than d
            x_near = _stride(dm_g.ball(u, d - 1) & g_rest, n2)
            c5 = list(map(add, c5, map(x_near.__mul__, ys)))
        c1 = [s_u * ys for ys in sr_h]
        c2 = [s_u << v for v in range(n2)]
        c3 = [ys << u * n2 for ys in sr_h]
        block = (c1, c2, c3, c4, c5)
        pred.extend(map(sum, zip(*block)))  # the masks are disjoint, so sum is union
        counts = [c + sum(map(int.bit_count, col)) for c, col in zip(counts, block)]
    # an edge lies in two rows, under the same condition in both
    histogram = {i: c // 2 for i, c in enumerate(counts, 1)}
    return PredictedSR(Graph(n1 * n2, pred), histogram, dm_g, dm_h, *sr_graphs)

