import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongdim.cover import max_independent_set
from strongdim.graph import (
    Graph,
    bits,
    complete,
    cycle,
    grid,
    make_graph,
    path,
    random_connected,
)
from strongdim.metrics import all_pairs_distances, is_connected
from strongdim.products import (
    PRODUCT_KINDS,
    coordinate_labels,
    product,
    strong_factors,
)
from strongdim.verify import _all_connected_upto

from oracles import distance_rows, graphs_isomorphic
from test_graph import connected_graph_strategy, random_graph_strategy


def connected_pair():
    return st.tuples(connected_graph_strategy(1, 5), connected_graph_strategy(1, 5))


# -- definitions ---------------------------------------------------------------


def test_strong_k2_k2_is_k4():
    assert product("strong", complete(2), complete(2)) == complete(4)


def test_cartesian_p2_p2_is_c4():
    assert graphs_isomorphic(product("cartesian", path(2), path(2)), cycle(4))


def test_cartesian_sum_k2_k2_is_k4():
    assert product("cartesian_sum", complete(2), complete(2)) == complete(4)


def _by_definition(kind, g, h):
    """The ``kind`` product by its definition, pair by pair, for (u,v) != (x,y):
    strong: u, x equal or adjacent, and so are v, y; Cartesian: one coordinate
    equal, the other adjacent; lexicographic: u ~ x, or u = x and v ~ y;
    Cartesian sum: u ~ x or v ~ y."""
    def adjacent(p, q):
        (u, v), (x, y) = divmod(p, h.n), divmod(q, h.n)
        ug, vh = g.adj[u] >> x & 1, h.adj[v] >> y & 1
        return {"strong": (u == x or ug) and (v == y or vh),
                "cartesian": u == x and vh or v == y and ug,
                "lexicographic": ug or u == x and vh,
                "cartesian_sum": ug or vh}[kind]
    n = g.n * h.n
    return make_graph(n, [(p, q) for p in range(n) for q in range(p + 1, n) if adjacent(p, q)])


@given(st.sampled_from(PRODUCT_KINDS), random_graph_strategy(max_n=5, min_n=1),
       random_graph_strategy(max_n=5, min_n=1))
@example("cartesian_sum", complete(1), path(3))
@example("cartesian_sum", make_graph(3, [(0, 1)]), make_graph(2, []))
@example("lexicographic", make_graph(3, [(0, 1)]), complete(1))
@example("strong", complete(1), complete(1))
@settings(max_examples=200)
def test_every_kind_matches_its_definition(kind, g, h):
    # every kind edge for edge against its definition, the Cartesian sum
    # included, on K1 and disconnected factors too
    assert product(kind, g, h) == _by_definition(kind, g, h)


def test_grid_generator_matches_cartesian_product():
    assert grid(3, 4) == product("cartesian", path(3), path(4))


def test_trivial_factor_is_identity_for_strong_product():
    k1 = complete(1)
    for h in (path(4), cycle(5)):
        assert product("strong", k1, h) == h
        assert graphs_isomorphic(product("strong", h, k1), h)


def test_lexicographic_is_order_sensitive():
    a = product("lexicographic", path(3), complete(2))
    b = product("lexicographic", complete(2), path(3))
    assert a.num_edges != b.num_edges


def test_empty_factor_rejected():
    from strongdim.graph import make_graph

    with pytest.raises(ValueError):
        product("strong", make_graph(0, []), complete(2))
    with pytest.raises(ValueError):
        product("tensor", complete(2), complete(2))


@given(random_graph_strategy(max_n=5, min_n=1), random_graph_strategy(max_n=5, min_n=1))
@settings(max_examples=100)
def test_edge_containment_chain(g, h):
    box = product("cartesian", g, h)
    strong = product("strong", g, h)
    lex = product("lexicographic", g, h)
    csum = product("cartesian_sum", g, h)
    for p in range(box.n):
        assert box.adj[p] & ~strong.adj[p] == 0
        assert strong.adj[p] & ~csum.adj[p] == 0
        assert lex.adj[p] & ~csum.adj[p] == 0


@given(connected_pair())
@settings(max_examples=60)
def test_products_of_connected_are_connected(pair):
    g, h = pair
    for kind in PRODUCT_KINDS:
        assert is_connected(product(kind, g, h))


# -- strong product laws ---------------------------------------------------------


@pytest.mark.parametrize(
    "g,h",
    [
        (cycle(5), cycle(5)),
        (path(4), complete(3)),
        (cycle(3), cycle(11)),
        (grid(3, 3), path(4)),
        (path(20), path(20)),  # 400-vertex product
    ],
)
def test_strong_distance_law(g, h):
    prod = product("strong", g, h)
    rows_g, rows_h, rows_p = (
        distance_rows(all_pairs_distances(x).balls) for x in (g, h, prod))
    for u in range(g.n):
        for v in range(h.n):
            p = u * h.n + v
            for x in range(g.n):
                for y in range(h.n):
                    q = x * h.n + y
                    assert rows_p[p][q] == max(rows_g[u][x], rows_h[v][y])


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


NX_PRODUCTS = {"strong": "strong_product", "cartesian": "cartesian_product",
               "lexicographic": "lexicographic_product"}


@given(st.sampled_from(sorted(NX_PRODUCTS)), random_graph_strategy(max_n=5, min_n=1),
       random_graph_strategy(max_n=5, min_n=1))
@example("strong", complete(1), path(3))
@example("lexicographic", make_graph(3, [(0, 1)]), complete(1))
@example("cartesian", complete(1), complete(1))
@settings(max_examples=150)
def test_products_match_networkx(nx, kind, g, h):
    # an outside builder: networkx's product, with (u, v) mapped to u * n2 + v;
    # K1 and disconnected factors included
    def ref(f):
        out = nx.Graph()
        out.add_nodes_from(range(f.n))
        out.add_edges_from(f.edges())
        return out

    built = getattr(nx, NX_PRODUCTS[kind])(ref(g), ref(h))
    want = make_graph(g.n * h.n, [(u * h.n + v, x * h.n + y) for (u, v), (x, y) in built.edges()])
    assert built.number_of_nodes() == g.n * h.n
    assert product(kind, g, h) == want


@given(random_graph_strategy(max_n=5, min_n=1), random_graph_strategy(max_n=5, min_n=1))
@settings(max_examples=60)
def test_closed_neighborhood_law(g, h):
    prod = product("strong", g, h)
    for u in range(g.n):
        for v in range(h.n):
            p = u * h.n + v
            expected = {
                x * h.n + y
                for x in list(bits(g.adj[u])) + [u]
                for y in list(bits(h.adj[v])) + [v]
            } - {p}
            assert set(bits(prod.adj[p])) == expected


# -- recognising row-major strong products ---------------------------------------


def _is_row_major_product(g):
    """True iff for some divisor n2 of n, 1 < n2 < n, g is G x H with H the
    graph on ids below n2 and G the graph on the multiples of n2."""
    for n2 in range(2, g.n):
        if g.n % n2 == 0:
            h = make_graph(n2, [e for e in g.edges() if e[1] < n2])
            f = make_graph(g.n // n2, [(u // n2, v // n2) for u, v in g.edges()
                                       if u % n2 == v % n2 == 0])
            if _by_definition("strong", f, h) == g:
                return True
    return False


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


LARGE_PRODUCTS = {
    "P30xP30": (path(30), path(30)),
    "C5xP60": (cycle(5), path(60)),
    "K3xC41": (complete(3), cycle(41)),
    "K6xP60": (complete(6), path(60)),
}


def test_strong_factors_rebuild_every_small_product():
    # every ordered pair of connected graphs on 2-4 vertices: 9 x 9 products
    small = _all_connected_upto(4)
    assert len(small) == 9
    for g in small:
        for h in small:
            prod = _by_definition("strong", g, h)
            factors = strong_factors(prod)
            assert factors is not None, (g, h)
            assert all(f.n > 1 for f in factors)
            assert _by_definition("strong", *factors) == prod


@pytest.mark.parametrize("name", LARGE_PRODUCTS)
def test_strong_factors_rebuild_large_products(name):
    prod = product("strong", *LARGE_PRODUCTS[name])
    factors = strong_factors(prod)
    assert factors is not None
    assert product("strong", *factors) == prod


@pytest.mark.parametrize("g, h", [(path(3), path(4)), (cycle(4), complete(2)),
                                  (complete(3), path(3)), (complete(2), cycle(5))])
def test_strong_factors_refuse_single_edge_toggles(g, h):
    # a toggled product is recognised exactly when it is itself a row-major
    # product, checked against the definition; a recognised one rebuilds
    prod = product("strong", g, h)
    for u in range(prod.n):
        for v in range(u + 1, prod.n):
            adj = list(prod.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            toggled = Graph(prod.n, adj)
            factors = strong_factors(toggled)
            assert (factors is not None) == _is_row_major_product(toggled), (u, v)
            if factors is not None:
                assert _by_definition("strong", *factors) == toggled


@pytest.mark.parametrize("name", LARGE_PRODUCTS)
def test_strong_factors_refuse_relabelled_products(name):
    # stage 1 reads row-major ids only: a shuffled product is not recognised
    prod = product("strong", *LARGE_PRODUCTS[name])
    for seed in range(3):
        assert strong_factors(_relabelled(prod, seed)) is None


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 41])
def test_strong_factors_of_prime_orders_are_none(n):
    graphs = [make_graph(n, []), complete(n), path(n), random_connected(n, 0.5, n)]
    if n >= 3:
        graphs.append(cycle(n))
    assert all(strong_factors(g) is None for g in graphs)
    # orders 0 and 1 have no divisor to try either
    assert strong_factors(make_graph(0, [])) is strong_factors(complete(1)) is None


# -- ids / projections ------------------------------------------------------------


def test_index_decode_bijection():
    # (u, v) has id u * n2 + v, and divmod(p, n2) reads it back
    labels = coordinate_labels(4, 7)
    seen = set()
    for u in range(4):
        for v in range(7):
            p = u * 7 + v
            assert divmod(p, 7) == (u, v)
            assert labels[p] == f"{u},{v}"
            seen.add(p)
    assert seen == set(range(28)) == set(labels)


def test_clique_strip_projection_argument():
    # partition C5 into two edge-cliques and a singleton; restricted to each
    # strip A_i x V(H), a maximum independent set of C5 x C5 projects onto H
    # without collisions
    g = cycle(5)
    prod = product("strong", g, g)
    indep = max_independent_set(prod)
    assert len(indep) == 5
    for part in ({0, 1}, {2, 3}, {4}):
        strip = [p for p in indep if divmod(p, 5)[0] in part]
        assert len({divmod(p, 5)[1] for p in strip}) == len(strip)


def test_coordinate_labels():
    labels = coordinate_labels(2, 3)
    assert labels[0] == "0,0"
    assert labels[5] == "1,2"
    for n1, n2 in ((1, 1), (12, 11)):
        assert coordinate_labels(n1, n2) == {
            p: "{},{}".format(*divmod(p, n2)) for p in range(n1 * n2)}
