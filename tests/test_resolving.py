import random

import pytest
from hypothesis import given, settings

from strongdim.graph import (
    _transpose,
    bits,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    grid,
    make_graph,
    path,
    star,
)
from strongdim import metrics, resolving
from strongdim.metrics import all_pairs_distances
from strongdim.products import product
from strongdim.resolving import (
    boundary,
    predicted_mmd_edges,
    strong_resolving_graph,
)
from strongdim.verify import _condition_tags

from oracles import (
    bfs_rows,
    distance_rows,
    graphs_isomorphic,
    is_maximally_distant,
    mutually_maximally_distant,
)
from test_graph import connected_graph_strategy


# -- maximal distance ----------------------------------------------------------


def test_path_endpoint_maximality():
    g = path(4)
    rows = bfs_rows(g)
    assert is_maximally_distant(rows, g, 0, 3)
    assert not is_maximally_distant(rows, g, 1, 3)


def test_complete_all_pairs_maximally_distant():
    g = complete(5)
    rows = bfs_rows(g)
    for u in range(5):
        for v in range(5):
            if u != v:
                assert is_maximally_distant(rows, g, u, v)


def test_c5_asymmetry_free_case():
    g = cycle(5)
    rows = bfs_rows(g)
    assert is_maximally_distant(rows, g, 0, 2)
    assert mutually_maximally_distant(rows, g, 0, 2)


def test_relation_not_symmetric():
    g = path(3)
    rows = bfs_rows(g)
    # the endpoint is maximally distant from the middle, not vice versa
    assert is_maximally_distant(rows, g, 0, 1)
    assert not is_maximally_distant(rows, g, 1, 0)


# -- strong resolving graphs -----------------------------------------------------


def test_sr_of_complete_is_complete():
    for n in (2, 3, 5, 7):
        assert strong_resolving_graph(complete(n)).sr == complete(n)


def test_sr_of_p4_single_edge():
    srg = strong_resolving_graph(path(4))
    assert list(srg.sr.edges()) == [(0, 3)]
    assert srg.boundary == frozenset({0, 3})
    assert boundary(path(4)) == frozenset({0, 3})


def test_sr_of_even_cycle_is_perfect_matching():
    srg = strong_resolving_graph(cycle(6))
    assert graphs_isomorphic(srg.sr, disjoint_union([complete(2)] * 3))


def test_sr_of_c5_is_c5_on_distance_two_pairs():
    srg = strong_resolving_graph(cycle(5))
    assert set(srg.sr.edges()) == {(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)}
    assert graphs_isomorphic(srg.sr, cycle(5))


def test_sr_of_kpartite_is_union_of_part_cliques():
    srg = strong_resolving_graph(complete_multipartite([2, 3]))
    assert graphs_isomorphic(
        srg.sr, disjoint_union([complete(2), complete(3)])
    )
    srg = strong_resolving_graph(star(4))
    assert graphs_isomorphic(srg.sr, disjoint_union([complete(3), complete(1)]))


def test_sr_of_grid_is_two_diagonal_edges():
    # the four corners pair up across the diagonals only: a same-side corner
    # has a perpendicular neighbor that is strictly farther away
    for rows, cols in ((2, 3), (3, 3), (3, 4), (4, 4)):
        g = grid(rows, cols)
        srg = strong_resolving_graph(g)
        shape = disjoint_union([complete(2)] * 2 + [complete(1)] * (g.n - 4))
        assert graphs_isomorphic(srg.sr, shape)
        corners = {0, cols - 1, (rows - 1) * cols, rows * cols - 1}
        assert srg.boundary == frozenset(corners)


def test_sr_rejects_trivial_and_disconnected():
    with pytest.raises(ValueError):
        strong_resolving_graph(complete(1))
    for parts in ([complete(2), complete(2)], [complete(1), path(3)], [path(3), complete(1)]):
        with pytest.raises(ValueError, match="strong resolving graph needs a connected graph"):
            strong_resolving_graph(disjoint_union(parts))


def _mmd_graph(g):
    """The SR graph by its definition: every pair put to the MMD test."""
    rows = bfs_rows(g)
    return make_graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                            if mutually_maximally_distant(rows, g, u, v)])


@given(connected_graph_strategy(2, 10))
@settings(max_examples=200, deadline=None)
def test_sr_graph_is_the_mmd_relation(g):
    # from the stored matrix's far sets, and from the pass that holds two radii
    want = _mmd_graph(g)
    assert strong_resolving_graph(g, all_pairs_distances(g)).sr == want
    assert strong_resolving_graph(g).sr == want


@pytest.mark.parametrize("g", [
    path(3),
    path(4),
    path(7),
    star(5),
    make_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]),  # legs 1, 2, 3
    product("strong", path(3), path(5)),
], ids=["P3", "P4", "P7", "K1,4", "spider", "P3xP5"])
def test_sr_graph_where_a_neighbour_is_more_central(g):
    # some v has a neighbour w with ecc(w) < ecc(v): B(w, k) is clamped at
    # k = ecc(w), below v's last layer, which must still be intersected
    dm = all_pairs_distances(g)
    ecc = [len(levels) - 1 for levels in dm.balls]
    assert any(ecc[w] < ecc[v] for v in range(g.n) for w in bits(g.adj[v]))
    want = _mmd_graph(g)
    assert strong_resolving_graph(g, dm).sr == want
    assert strong_resolving_graph(g).sr == want


def test_sr_graph_alone_stores_no_balls(monkeypatch):
    graphs = [path(7), cycle(6), grid(3, 4), product("strong", path(3), path(5))]
    want = [_mmd_graph(g) for g in graphs]

    def refuse(g):
        raise AssertionError("all_pairs_distances ran")

    monkeypatch.setattr(metrics, "all_pairs_distances", refuse)
    monkeypatch.setattr(resolving, "all_pairs_distances", refuse)
    assert [strong_resolving_graph(g).sr for g in graphs] == want


def _transpose_by_bits(rows, n):
    out = [0] * n
    for v, row in enumerate(rows):
        for u in range(n):
            if row >> u & 1:
                out[u] |= 1 << v
    return out


def test_transpose_matches_per_bit_loop_on_every_2x2():
    for a in range(4):
        for b in range(4):
            assert _transpose([a, b], 2) == _transpose_by_bits([a, b], 2)


@pytest.mark.parametrize("n", [130, 257])
def test_transpose_matches_per_bit_loop(n):
    rng = random.Random(n)
    rows = [0, 0, 0] + [rng.getrandbits(n) for _ in range(n - 4)] + [1 << (n - 1)]
    assert _transpose(rows, n) == _transpose_by_bits(rows, n)
    assert _transpose(_transpose(rows, n), n) == rows


@given(connected_graph_strategy(2, 8))
@settings(max_examples=80)
def test_diametral_pairs_are_mmd(g):
    dm = all_pairs_distances(g)
    srg = strong_resolving_graph(g, dm)
    assert srg.sr.num_edges >= 1
    diam = max(map(len, dm.balls)) - 1
    rows = distance_rows(dm.balls)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if rows[u][v] == diam:
                assert srg.sr.adj[u] >> v & 1


# -- predicted MMD edges -----------------------------------------------------------


def test_predicted_k2_k2_complete():
    pred = predicted_mmd_edges(complete(2), complete(2))
    assert pred.graph == complete(4)


@given(connected_graph_strategy(2, 6), connected_graph_strategy(2, 6))
@settings(max_examples=60, deadline=None)
def test_prediction_matches_direct_sr(g, h):
    prod = product("strong", g, h)
    direct = strong_resolving_graph(prod).sr
    pred = predicted_mmd_edges(g, h)
    assert pred.graph == direct


def test_prediction_matches_direct_sr_large():
    # the last five are the benchmark's product ladder
    for g, h in [(cycle(9), cycle(9)), (grid(3, 3), path(7)), (path(20), path(20)),
                 (path(30), path(30)), (path(18), path(48)), (cycle(12), path(50)),
                 (complete(6), path(60)), (cycle(21), path(8))]:
        direct = strong_resolving_graph(product("strong", g, h)).sr
        pred = predicted_mmd_edges(g, h)
        assert pred.graph == direct


def test_boundary_product_law():
    for g, h in [(path(4), cycle(5)), (complete(3), path(3)), (grid(2, 3), complete(2))]:
        prod = product("strong", g, h)
        bd = boundary(prod)
        bd_g, bd_h = boundary(g), boundary(h)
        expected = frozenset(
            u * h.n + v
            for u in range(g.n)
            for v in range(h.n)
            if u in bd_g or v in bd_h
        )
        assert bd == expected


def test_sandwich_subgraph_chain():
    for g, h in [(path(4), cycle(5)), (cycle(6), complete(3))]:
        sr_g = strong_resolving_graph(g).sr
        sr_h = strong_resolving_graph(h).sr
        mid = strong_resolving_graph(product("strong", g, h)).sr
        low = product("strong", sr_g, sr_h)
        high = product("cartesian_sum", sr_g, sr_h)
        for p in range(mid.n):
            assert low.adj[p] & ~mid.adj[p] == 0
            assert mid.adj[p] & ~high.adj[p] == 0


def test_predicted_condition_tags():
    # between them the three products meet every one of the five conditions;
    # the keys come in order 1..5, as the report's condition_tags print them
    for g, h, tags in [
        (path(3), complete(2), [2, 2, 3, 0, 0]),
        (path(4), path(3), [2, 3, 4, 4, 6]),
        (cycle(5), path(4), [10, 20, 5, 30, 10]),
    ]:
        pred = predicted_mmd_edges(g, h)
        assert list(_condition_tags(pred).items()) == list(zip("12345", tags))


def test_predicted_histogram_counts_every_edge():
    pred = predicted_mmd_edges(cycle(5), path(4))
    assert sum(_condition_tags(pred).values()) == pred.graph.num_edges


def test_predicted_rejects_bad_factors():
    with pytest.raises(ValueError, match=r"^factor g must be nontrivial \(n >= 2\)$"):
        predicted_mmd_edges(complete(1), complete(2))
    # each disconnected factor is named, the first one first
    for g, h, name in ((disjoint_union([complete(2)] * 2), complete(2), "g"),
                       (path(3), make_graph(2, []), "h"),
                       (make_graph(3, [(0, 1)]), make_graph(2, []), "g")):
        with pytest.raises(ValueError, match=f"^factor {name} must be connected$"):
            predicted_mmd_edges(g, h)
