"""Two definitional readings that the package no longer carries.

``strongly_resolves`` reads strong resolution off one triple of distances;
the package checks a whole basis at once from distance balls
(``strongdim.dimension.is_strong_generator``).  ``is_c1_graph`` composes the
C1-graph test from the package's C-graph test and its split search, as
``strongdim.verify.Env.c1_graph`` does with the run's cached answers.
"""

from strongdim import cover
from strongdim.cover import DEFAULT_RECOGNITION_CAP, c_graph_partition
from strongdim.graph import Graph
from strongdim.metrics import DistanceMatrix


def strongly_resolves(dm: DistanceMatrix, w: int, u: int, v: int) -> bool:
    """True iff some shortest w-u path passes v or some shortest w-v path passes u."""
    if u == v:
        raise ValueError("strong resolution is defined for distinct vertices")
    dwu, dwv, duv = dm.dist(w, u), dm.dist(w, v), dm.dist(u, v)
    if dwu is None or dwv is None or duv is None:
        raise ValueError("strong resolution needs a connected graph")
    return dwu == dwv + duv or dwv == dwu + duv


def is_c1_graph(g: Graph, independent: frozenset[int], node_budget: int,
                cap: int = DEFAULT_RECOGNITION_CAP) -> bool:
    """True iff g is not a C-graph but V(g) minus one vertex b partitions into
    beta(g) cliques, for a maximum independent set that the caller holds and
    ``node_budget`` nodes per exact search."""
    if g.n > cap:
        raise ValueError(f"C1-graph recognition capped at {cap} vertices")
    return (c_graph_partition(g, independent, node_budget, cap) is None
            and cover._splits_less_a_vertex(g, independent, node_budget))
