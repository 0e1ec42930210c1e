"""The maximal-distance relation by its definition, one pair at a time.

The package builds the strong resolving graph from distance balls for all
pairs at once (``strongdim.resolving.strong_resolving_graph``); the tests
compare it with this pairwise reading of the definition.
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
