import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdim.graph import (
    bits,
    complete,
    cycle,
    disjoint_union,
    generalized_tree,
    grid,
    make_graph,
    path,
    random_connected,
    star,
)
from strongdim.metrics import (
    all_pairs_distances,
    cut_vertices,
    is_connected,
    is_generalized_tree,
    is_two_antipodal,
    leaf_count,
)
from strongdim.products import product

from oracles import bfs_balls, distance_rows
from test_graph import connected_graph_strategy, random_graph_strategy


def hypercube_q3():
    k2 = complete(2)
    return product("cartesian", k2, product("cartesian", k2, k2))


# -- distances ---------------------------------------------------------------


def test_known_distances():
    assert distance_rows(all_pairs_distances(cycle(5)).balls)[0][2] == 2
    assert distance_rows(all_pairs_distances(path(4)).balls)[0][3] == 3


def test_unreachable_vertex_outside_last_ball():
    g = disjoint_union([complete(2), complete(1)])
    balls = all_pairs_distances(g).balls
    assert not balls[0][-1] >> 2 & 1
    assert distance_rows(balls)[0] == [0, 1, None]


@given(random_graph_strategy(max_n=9))
@settings(max_examples=80)
def test_distance_matrix_invariants(g):
    rows = distance_rows(all_pairs_distances(g).balls)
    for u in range(g.n):
        assert rows[u][u] == 0
        for v in range(g.n):
            assert rows[u][v] == rows[v][u]
            if u != v:
                assert (rows[u][v] == 1) == g.has_edge(u, v)
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                duv, dvw, duw = rows[u][v], rows[v][w], rows[u][w]
                if duv is not None and dvw is not None:
                    assert duw is not None and duw <= duv + dvw


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@given(random_graph_strategy(max_n=7), random_graph_strategy(max_n=7))
@settings(max_examples=80)
def test_dist_matches_networkx(nx, g, h):
    # the disjoint union is disconnected whenever both parts are nonempty
    for graph in (g, disjoint_union([g, h])):
        rows = distance_rows(all_pairs_distances(graph).balls)
        ref = nx.Graph()
        ref.add_nodes_from(range(graph.n))
        ref.add_edges_from(graph.edges())
        for u in range(graph.n):
            lengths = nx.single_source_shortest_path_length(ref, u)
            for v in range(graph.n):
                assert rows[u][v] == lengths.get(v)


def test_distance_balls():
    dm = all_pairs_distances(path(4))
    assert dm.ball(0, 0) == 0b0001
    assert dm.ball(0, 1) == 0b0011
    assert dm.ball(0, 5) == 0b1111
    assert dm.ball(0, -1) == 0
    assert len(dm.balls[0]) - 1 == 3  # the eccentricity of an end


def oracle_graphs():
    rng = random.Random(17)
    graphs = [make_graph(n, []) for n in range(4)] + [complete(1), path(60), cycle(41)]
    for _ in range(120):
        n = rng.randrange(1, 30)
        p = rng.choice([0.03, 0.08, 0.15, 0.3, 0.6])
        graphs.append(make_graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    graphs.append(disjoint_union([path(7), complete(1), cycle(9), complete(4)]))
    return graphs


def test_balls_match_per_source_bfs():
    disconnected = 0
    for g in oracle_graphs():
        balls = all_pairs_distances(g).balls
        assert [list(levels) for levels in balls] == [bfs_balls(g, v) for v in range(g.n)]
        disconnected += g.n > 1 and not is_connected(g)
    assert disconnected >= 30


def test_connected_reads_the_first_ball():
    for g in oracle_graphs():
        assert all_pairs_distances(g).connected() == is_connected(g)


# -- connectivity and diameter ------------------------------------------------


def test_is_connected_cases():
    assert is_connected(complete(1))
    assert not is_connected(disjoint_union([complete(2), complete(1)]))
    assert is_connected(grid(3, 3))


def test_diameter_requires_connected():
    # diam(G) is read from the distance balls; a classifier that reads it
    # refuses a disconnected graph
    two_edges = disjoint_union([complete(2), complete(2)])
    assert not all_pairs_distances(two_edges).connected()
    with pytest.raises(ValueError, match="graph must be connected"):
        is_two_antipodal(two_edges)
    assert max(map(len, all_pairs_distances(cycle(6)).balls)) - 1 == 3
    assert max(map(len, all_pairs_distances(grid(3, 4)).balls)) - 1 == 5


def test_two_antipodal_classification():
    assert is_two_antipodal(cycle(6))
    assert not is_two_antipodal(cycle(5))
    assert is_two_antipodal(hypercube_q3())
    assert is_two_antipodal(complete(2))
    assert not is_two_antipodal(path(3))


# -- blocks / cut vertices -----------------------------------------------------


def test_path_blocks():
    assert cut_vertices(path(4)) == frozenset({1, 2})
    assert is_generalized_tree(path(4))


def test_complete_single_block():
    assert cut_vertices(complete(4)) == frozenset()
    assert is_generalized_tree(complete(4))


def test_generalized_tree_block_structure():
    g = generalized_tree([3, 3], seed=3)
    assert g.n == 5 and g.num_edges == 6
    assert len(cut_vertices(g)) == 1
    assert is_generalized_tree(g)


def test_single_vertex_block():
    assert is_generalized_tree(complete(1))
    assert cut_vertices(complete(1)) == frozenset()


def _blocks_match_networkx(nx, g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    assert cut_vertices(g) == frozenset(nx.articulation_points(ref))
    blocks_are_cliques = all(
        ref.subgraph(block).number_of_edges() == len(block) * (len(block) - 1) // 2
        for block in nx.biconnected_components(ref))
    assert is_generalized_tree(g) == blocks_are_cliques
    return blocks_are_cliques


@given(connected_graph_strategy(1, 9),
       st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=60)
def test_blocks_match_networkx(nx, g, block_sizes, seed):
    _blocks_match_networkx(nx, g)
    assert _blocks_match_networkx(nx, generalized_tree(block_sizes, seed))


# -- generalized trees ----------------------------------------------------------


def test_trees_are_generalized_trees():
    for n in range(2, 8):
        assert is_generalized_tree(path(n))
    assert is_generalized_tree(star(6))
    assert leaf_count(path(6)) == 2
    assert leaf_count(star(6)) == 5


def test_c4_is_not_generalized_tree():
    assert not is_generalized_tree(cycle(4))  # a hole: not chordal
    diamond = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert not is_generalized_tree(diamond)  # chordal, one block, not a clique


def test_constructed_gtree_recognized():
    assert is_generalized_tree(generalized_tree([4, 2, 3], seed=11))
    assert is_generalized_tree(complete(4))  # single complete block


def _random_tree(n, seed):
    import random

    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return make_graph(n, edges)


def test_random_trees_vertex_dichotomy():
    # in a generalized tree every vertex is a cut vertex or simplicial
    for seed in range(20):
        g = _random_tree(3 + seed % 10, seed)
        assert is_generalized_tree(g)
        cuts = cut_vertices(g)
        for v in range(g.n):
            closed = list(bits(g.adj[v])) + [v]
            simplicial = all(
                g.has_edge(a, b) or a == b for a in closed for b in closed if a < b
            )
            assert v in cuts or simplicial
