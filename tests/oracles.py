"""Definitional readings and oracles that the package no longer carries.

``strongly_resolves`` reads strong resolution off one triple of distances;
the package checks a whole basis at once from distance balls
(``strongdim.dimension.is_strong_generator``).  ``is_c1_graph`` composes the
C1-graph test from the package's C-graph test and its split search, as
``strongdim.verify.Env.c1_graph`` does with the run's cached answers.
``brute_force_dimension`` finds dim_s by subset enumeration, apart from the
SR-cover pipeline.  ``max_clique`` runs the package's colour engine on a
complement, which the package itself never builds.
"""

import math
from itertools import combinations
from typing import NamedTuple

from strongdim import cover
from strongdim.cover import DEFAULT_RECOGNITION_CAP, c_graph_partition
from strongdim.graph import Graph, bits, complement
from strongdim.metrics import DistanceMatrix, all_pairs_distances, is_connected

BRUTE_FORCE_SIZE_CAP = 15


class BruteForceResult(NamedTuple):
    dim: int
    basis: frozenset[int]


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


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique: the colour engine on the complement of g, with
    no budget."""
    if g.n == 0:
        return frozenset()
    search = cover._ColourSearch(complement(g).adj, math.inf)
    return frozenset(bits(search.run((1 << g.n) - 1, 1)))


def brute_force_dimension(
    g: Graph, size_cap: int = BRUTE_FORCE_SIZE_CAP
) -> BruteForceResult:
    """Independent oracle: smallest strong generator by subset enumeration,
    increasing size, lexicographic within a size class."""
    if g.n > size_cap:
        raise ValueError(f"brute force capped at {size_cap} vertices")
    if g.n < 2:
        raise ValueError("strong metric dimension needs n >= 2")
    if not is_connected(g):
        raise ValueError("strong metric dimension needs a connected graph")
    dm = all_pairs_distances(g)
    rows = [[dm.dist(u, v) for v in range(g.n)] for u in range(g.n)]
    # resolver mask per vertex pair; a generator must hit every one
    pair_masks = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            duv = rows[u][v]
            mask = 0
            for w in range(g.n):
                if rows[w][u] == rows[w][v] + duv or rows[w][v] == rows[w][u] + duv:
                    mask |= 1 << w
            pair_masks.append(mask)
    pair_masks.sort(key=lambda m: m.bit_count())  # scarcest resolvers first
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            smask = 0
            for w in subset:
                smask |= 1 << w
            if all(smask & m for m in pair_masks):
                return BruteForceResult(k, frozenset(subset))
    raise AssertionError("the full vertex set must be a strong generator")
