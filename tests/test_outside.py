"""Outside oracles: networkx's own builders and shortest paths against strongdim.

The grid finding (SR(P_r x P_c) is the two corner diagonals, so dim_s = 2)
is checked here on networkx's graphs and distances, not on strongdim's.
Every test skips without networkx.
"""

import pytest

from strongdim.dimension import strong_metric_dimension
from strongdim.graph import grid, make_graph
from strongdim.resolving import strong_resolving_graph

nx = pytest.importorskip("networkx")


def _ids(r, c, edges):
    """networkx's (i, j) grid vertices as row-major ids i * c + j."""
    return make_graph(r * c, [(i * c + j, x * c + y) for (i, j), (x, y) in edges])


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("c", range(1, 7))
def test_grid_matches_networkx(r, c):
    built = nx.grid_2d_graph(r, c)
    assert built.number_of_nodes() == r * c
    assert grid(r, c) == _ids(r, c, built.edges())


def _mmd_pairs(g):
    """The pairs of g mutually maximally distant by networkx's distances: no
    neighbour of either end lies farther from the other end."""
    d = dict(nx.all_pairs_shortest_path_length(g))

    def far_end(a, b):  # no neighbour of b is farther from a than b is
        return all(d[a][w] <= d[a][b] for w in g[b])
    nodes = list(g)
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
            if far_end(a, b) and far_end(b, a)]


@pytest.mark.parametrize("r, c", [(3, 3), (3, 4), (4, 5), (5, 6)])
def test_grid_finding_on_networkx_distances(r, c):
    # SR(P_r x P_c) by the MMD definition is the two corner diagonals, so a
    # minimum cover of it, dim_s, is 2: the coefficient of the corrected law
    pairs = _mmd_pairs(nx.grid_2d_graph(r, c))
    assert {frozenset(p) for p in pairs} == {
        frozenset({(0, 0), (r - 1, c - 1)}), frozenset({(0, c - 1), (r - 1, 0)})}
    assert strong_resolving_graph(grid(r, c)).sr == _ids(r, c, pairs)
    assert strong_metric_dimension(grid(r, c)).dim == 2
