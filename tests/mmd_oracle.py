"""The maximal-distance relation by its definition, one pair at a time.

The package builds the strong resolving graph for all pairs at once, in the
loop that grows the distance balls (``strongdim.metrics._grow``): from a
``DistanceMatrix``'s ``far`` sets, or from a pass that keeps two radii of
balls (``strongdim.resolving.strong_resolving_graph`` with and without a
matrix).  The tests compare both routes with this pairwise reading of the
definition, which reads only ``dist`` and ``ball``, never ``far``.
"""

from strongdim.graph import Graph
from strongdim.metrics import DistanceMatrix


def is_maximally_distant(dm: DistanceMatrix, g: Graph, u: int, v: int) -> bool:
    """True iff no neighbor of u is strictly farther from v than u is.

    Not symmetric in (u, v).
    """
    d = dm.dist(u, v)
    if d is None:
        raise ValueError("maximal distance is undefined for unreachable pairs")
    return g.adj[u] & ~dm.ball(v, d) == 0


def mutually_maximally_distant(dm: DistanceMatrix, g: Graph, u: int, v: int) -> bool:
    return is_maximally_distant(dm, g, u, v) and is_maximally_distant(dm, g, v, u)
