import random
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongdim import cover, dimension
from strongdim.cover import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    CoverResult,
    c_graph_partition,
    max_independent_set,
    min_vertex_cover,
)
from strongdim.dimension import (
    DimensionResult,
    antipodal_factor,
    c1_lower,
    c3_exact,
    complete_factor,
    general_lower,
    general_upper,
    generalized_tree_factor,
    grid_factor,
    is_strong_generator,
    kpartite_factor,
    odd_cycle_lower,
    odd_cycle_upper,
    odd_odd_lower,
    odd_odd_upper,
    product_dimension,
    product_sr_graph,
    sr_cover_dimension,
    strong_metric_dimension,
    tree_factor,
)
from strongdim.graph import (
    complement,
    complete,
    cycle,
    disjoint_union,
    from_graph6,
    make_graph,
    path,
    random_connected,
)
from strongdim.metrics import all_pairs_distances, is_connected
from strongdim.products import PRODUCT_KINDS, product, strong_product_distances
from strongdim.resolving import predicted_mmd_edges, strong_resolving_graph

from oracles import (
    BRUTE_FORCE_SIZE_CAP,
    bfs_rows,
    brute_force_dimension,
    brute_min_cover,
    max_clique,
    strongly_resolves,
)
from test_cover import brute_clique_cover
from test_graph import connected_graph_strategy


# -- strongly_resolves -------------------------------------------------------


def test_resolver_endpoint_always_works():
    g = cycle(6)
    rows = bfs_rows(g)
    for u in range(6):
        for v in range(6):
            if u != v:
                assert strongly_resolves(rows, u, u, v)


def test_path_geodesic_resolution():
    rows = bfs_rows(path(4))
    assert strongly_resolves(rows, 0, 1, 2)


def test_c4_non_resolution():
    rows = bfs_rows(cycle(4))
    assert not strongly_resolves(rows, 0, 1, 3)


def test_resolver_rejects_equal_pair():
    rows = bfs_rows(path(3))
    with pytest.raises(ValueError):
        strongly_resolves(rows, 0, 1, 1)


# -- generators ---------------------------------------------------------------


def test_full_vertex_set_generates():
    for g in (cycle(5), path(6), complete(4)):
        assert is_strong_generator(g, range(g.n))


def test_path_endpoint_generates():
    for n in range(2, 9):
        assert is_strong_generator(path(n), {0})
        assert is_strong_generator(path(n), {n - 1})


def test_k3_singleton_does_not_generate():
    assert not is_strong_generator(complete(3), {0})


# -- dimension pipeline ---------------------------------------------------------


def test_dim_of_complete():
    for n in range(2, 8):
        assert strong_metric_dimension(complete(n)).dim == n - 1


def test_dim_of_cycles():
    for r in range(1, 5):
        assert strong_metric_dimension(cycle(2 * r + 1)).dim == r + 1
        assert strong_metric_dimension(cycle(2 * r + 2)).dim == r + 1


def test_dim_rejects_trivial_and_disconnected():
    with pytest.raises(ValueError):
        strong_metric_dimension(complete(1))
    for parts in ([complete(2), complete(2)], [complete(1), path(3)], [path(3), complete(1)]):
        with pytest.raises(ValueError, match="strong metric dimension needs a connected graph"):
            strong_metric_dimension(disjoint_union(parts))


def test_basis_is_validated_generator():
    res = strong_metric_dimension(cycle(7))
    assert is_strong_generator(cycle(7), res.basis)
    assert len(res.basis) == res.dim


def test_sr_cover_dimension_refuses_an_unproven_cover():
    g = cycle(7)
    dm = all_pairs_distances(g)
    sr = strong_resolving_graph(g, dm).sr
    # the full vertex set generates, so only the missing proof can raise
    unproven = CoverResult(g.n, frozenset(range(g.n)), 3, False)
    with pytest.raises(BudgetExhausted):
        sr_cover_dimension(g, sr, dm, unproven)
    assert sr_cover_dimension(g, sr, dm, min_vertex_cover(sr)).dim == 4


def test_sr_cover_dimension_checks_the_basis_definitionally():
    # the proven cover of an edgeless graph is empty, and resolves nothing in g
    g = path(4)
    edgeless = make_graph(g.n, [])
    cover = min_vertex_cover(edgeless)
    assert cover.proven_optimal and cover.size == 0
    with pytest.raises(AssertionError, match="definitional generator check"):
        sr_cover_dimension(g, edgeless, all_pairs_distances(g), cover)


def _generates_by_definition(g, members):
    rows = bfs_rows(g)
    return all(
        any(strongly_resolves(rows, w, u, v) for w in members)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def _check_against_definition(g, data):
    drawn = data.draw(st.sets(st.integers(0, g.n - 1)))
    candidates = [drawn, set(), set(range(g.n))]
    if g.n >= 2:
        basis = set(strong_metric_dimension(g).basis)
        candidates += [basis] + [basis - {w} for w in basis]
    for members in candidates:
        assert is_strong_generator(g, members) == _generates_by_definition(g, members)


_small_factors = st.one_of(
    st.integers(2, 7).map(path), st.integers(3, 7).map(cycle), st.integers(1, 4).map(complete)
)
_small_strong_products = st.builds(
    lambda g, h: product("strong", g, h), _small_factors, _small_factors
)


@given(st.one_of(connected_graph_strategy(1, 9), _small_strong_products), st.data())
@settings(max_examples=150, deadline=None)
def test_generator_check_matches_definition(g, data):
    # strong products of paths, cycles and cliques, given as plain graphs,
    # are drawn too: on BFS balls they are checked on rows like any graph
    _check_against_definition(g, data)


def test_plain_balls_never_build_classes(monkeypatch):
    # on BFS balls the check steps by adjacency rows, even on a product whose
    # row-major ids give a handful of edge-difference classes
    def refuse(adj):
        raise AssertionError("edge-difference classes built on BFS balls")

    monkeypatch.setattr(dimension, "_difference_classes", refuse)
    prod = product("strong", path(10), path(10))
    basis = sorted(strong_metric_dimension(prod).basis)
    assert is_strong_generator(prod, basis, all_pairs_distances(prod))
    assert not is_strong_generator(prod, basis[1:])


def test_generator_check_product_basis_minus_one():
    g = product("strong", path(6), cycle(5))
    basis = sorted(strong_metric_dimension(g).basis)
    assert is_strong_generator(g, basis)
    short = basis[1:]
    assert not is_strong_generator(g, short)
    assert not _generates_by_definition(g, short)


# -- the check on strong_product_distances: two stages of factor classes ------


def _factor_distances(g, h):
    pred = predicted_mmd_edges(g, h)
    return strong_product_distances(pred.dm_g, pred.dm_h)


_connected_factors = st.one_of(
    st.integers(2, 7).map(path),
    st.integers(3, 7).map(cycle),
    st.integers(2, 4).map(complete),
    connected_graph_strategy(2, 6),
)


@given(_connected_factors, _connected_factors, st.data())
@settings(max_examples=150, deadline=None)
def test_product_stages_dilate_as_the_product_rows(g, h, data):
    # oracle: N[X] as the union of the built product's rows over X
    prod = product("strong", g, h)
    stages = dimension._product_stages(prod.adj, g.n, h.n)
    for _ in range(5):
        x = data.draw(st.integers(0, (1 << prod.n) - 1))
        by_rows = x
        for v in range(prod.n):
            if x >> v & 1:
                by_rows |= prod.adj[v]
        assert dimension._dilate(x, stages) == by_rows
    members = data.draw(st.sets(st.integers(0, prod.n - 1)))
    want = _generates_by_definition(prod, members)
    assert is_strong_generator(prod, members, _factor_distances(g, h)) == want
    assert is_strong_generator(prod, members, all_pairs_distances(prod)) == want


def test_generator_check_modes_agree_on_k6_p60():
    # K6xP60 checked on its BFS balls (rows) and on its factor balls (the
    # factors' classes) gives the same answers
    g, h = complete(6), path(60)
    prod = product("strong", g, h)
    basis = sorted(product_dimension("strong", g, h, prod=prod).basis)
    sets = [basis] + [basis[:i] + basis[i + 1 :] for i in range(0, len(basis), 7)]
    flat, lazy = all_pairs_distances(prod), _factor_distances(g, h)
    on_rows = [is_strong_generator(prod, s, flat) for s in sets]
    on_stages = [is_strong_generator(prod, s, lazy) for s in sets]
    assert on_rows == on_stages == [True] + [False] * (len(sets) - 1)
    # its 16 classes themselves dilate as the adjacency rows do
    classes = dimension._difference_classes(prod.adj)
    assert len(classes) == 16
    rng = random.Random(13)
    for _ in range(40):
        x = rng.getrandbits(prod.n)
        by_rows = x
        for v in range(prod.n):
            if x >> v & 1:
                by_rows |= prod.adj[v]
        assert dimension._dilate(x, [classes]) == by_rows


@pytest.mark.parametrize(
    "g, h",
    [
        pytest.param(path(6), path(6), id="P6xP6"),
        pytest.param(cycle(6), path(8), id="C6xP8"),
        pytest.param(complete(4), path(9), id="K4xP9"),
        pytest.param(cycle(7), path(4), id="C7xP4"),
    ],
)
def test_product_check_matches_definition_and_generic_check(g, h):
    prod = product("strong", g, h)
    basis = sorted(product_dimension("strong", g, h, prod=prod).basis)
    lazy, flat = _factor_distances(g, h), all_pairs_distances(prod)
    sets = [basis] + [basis[:i] + basis[i + 1 :] for i in range(len(basis))]
    answers = [is_strong_generator(prod, s, lazy) for s in sets]
    assert answers == [is_strong_generator(prod, s, flat) for s in sets]
    assert answers == [_generates_by_definition(prod, s) for s in sets]
    assert answers[0]


@pytest.mark.parametrize("stage", [0, 1], ids=["H-stage", "G-stage"])
def test_wrong_product_stage_raises(monkeypatch, stage):
    # the stages are checked against every row of the product: a stage that
    # lost a class must raise, from the check and from the product route
    g, h = cycle(5), path(4)
    prod = product("strong", g, h)
    basis = product_dimension("strong", g, h, prod=prod).basis
    real = dimension._difference_classes

    def forged(rows):  # H's rows are h.n long, G's g.n
        classes = real(rows)
        return classes[:-1] if len(rows) == (h.n, g.n)[stage] else classes

    monkeypatch.setattr(dimension, "_difference_classes", forged)
    with pytest.raises(AssertionError, match="the factors read from the product miss row"):
        is_strong_generator(prod, basis, _factor_distances(g, h))
    with pytest.raises(AssertionError, match="the factors read from the product miss row"):
        product_dimension("strong", g, h, prod=prod)


def test_product_check_refuses_a_graph_that_is_not_the_product():
    # the factor balls give only the shape; the graph itself is checked
    g, h = cycle(5), path(4)
    prod = product("strong", g, h)
    basis = product_dimension("strong", g, h, prod=prod).basis
    not_prod = make_graph(prod.n, [*prod.edges(), (6, 12)])  # (1,2) ~ (3,0): distance 2
    with pytest.raises(AssertionError, match="the factors read from the product miss row 6"):
        is_strong_generator(not_prod, basis, _factor_distances(g, h))
    with pytest.raises(AssertionError, match="a graph on 20 vertices is not a 4 x 4 product"):
        is_strong_generator(prod, basis, _factor_distances(path(4), path(4)))


def test_factor_route_reads_classes_from_factor_rows_only(monkeypatch):
    # the strong factor route's check sets its stages from the factors: the
    # product's own rows never reach the class build
    g, h = path(10), path(10)
    prod = product("strong", g, h)
    lengths = []
    real = dimension._difference_classes

    def recorded(adj):
        lengths.append(len(adj))
        return real(adj)

    monkeypatch.setattr(dimension, "_difference_classes", recorded)
    res = product_dimension("strong", g, h, prod=prod)
    assert res.dim == 19 and _generates_by_definition(prod, res.basis)
    assert lengths and set(lengths) <= {g.n, h.n}


# -- the pair pass: each pair once, in (|H|, id) order ---------------------------


def _unresolved_pairs(g, members):
    rows = bfs_rows(g)
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not any(strongly_resolves(rows, w, u, v) for w in members)
    ]


@pytest.mark.parametrize(
    "g, h",
    [
        pytest.param(path(5), path(6), id="P5xP6"),
        pytest.param(cycle(6), path(5), id="C6xP5"),
        pytest.param(cycle(5), path(4), id="C5xP4"),
        pytest.param(complete(3), path(6), id="K3xP6"),
    ],
)
def test_pair_pass_finds_a_lone_unresolved_pair(g, h):
    # every unresolved pair is found by the fallback lookup (v outside H_u,
    # then u outside H_v); sets missing exactly one pair are the hardest case
    prod = product("strong", g, h)
    basis = sorted(product_dimension("strong", g, h, prod=prod).basis)
    rng = random.Random(f"{g.n}x{h.n}")
    sets = [basis[:i] + basis[i + 1 :] for i in range(len(basis))]
    sets += [rng.sample(range(prod.n), rng.randrange(1, prod.n)) for _ in range(40)]
    lone = 0
    for members in sets:
        missing = _unresolved_pairs(prod, members)
        lone += len(missing) == 1
        for dm in (all_pairs_distances(prod), _factor_distances(g, h)):
            assert is_strong_generator(prod, members, dm) == (not missing)
    assert lone


def test_generator_check_rejects_bad_input():
    for parts in ([complete(2)] * 2, [complete(1), path(3)], [path(3), complete(1)]):
        with pytest.raises(ValueError, match="strong generators are defined for connected graphs"):
            is_strong_generator(disjoint_union(parts), [0, 2])
    for members in ([0, 4], [-1]):
        with pytest.raises(ValueError, match="member id outside the vertex range"):
            is_strong_generator(path(4), members)


# -- the product route: factors for strong products, the product otherwise ------


def assert_minimum_basis(g, dim, basis):
    """A basis is checked, not compared: another minimum one may be returned."""
    assert len(basis) == dim
    assert _generates_by_definition(g, basis)
    if g.n <= BRUTE_FORCE_SIZE_CAP:
        assert brute_force_dimension(g).dim == dim


@given(
    st.sampled_from(PRODUCT_KINDS),
    connected_graph_strategy(1, 5),
    connected_graph_strategy(1, 5),
)
# the lexicographic and Cartesian-sum products are connected also when one
# factor is not
@example("lexicographic", path(3), make_graph(3, [(0, 1)]))
@example("lexicographic", cycle(4), make_graph(2, []))
@example("cartesian_sum", make_graph(3, [(0, 1)]), path(3))
@example("cartesian_sum", path(2), make_graph(3, []))
@settings(max_examples=80, deadline=None)
def test_factor_route_matches_generic_route(kind, g, h):
    assume(g.n * h.n >= 2)  # K1 x K1 has no dimension
    prod = product(kind, g, h)
    assert is_connected(prod)
    res = product_dimension(kind, g, h, prod=prod)
    direct = strong_metric_dimension(prod)
    assert res.sr == direct.sr == strong_resolving_graph(prod).sr
    assert res.dim == direct.dim
    assert_minimum_basis(prod, res.dim, res.basis)
    assert product_sr_graph(kind, g, h, prod=prod) == res.sr


def _covered_orders(g, h, node_budget=DEFAULT_NODE_BUDGET):
    """product_dimension's strong result and the order of each graph it
    handed to ``min_vertex_cover``."""
    with patch.object(dimension, "min_vertex_cover", wraps=min_vertex_cover) as solve:
        res = product_dimension("strong", g, h, node_budget, prod=product("strong", g, h))
    return res, [call.args[0].n for call in solve.call_args_list]


@given(connected_graph_strategy(2, 6), connected_graph_strategy(2, 6))
@settings(max_examples=120, deadline=None)
def test_certified_route_matches_the_product_cover(g, h):
    # the certificate: a partition of SR(G) or SR(H) into beta cliques; the
    # oracles: the exact cover of the whole predicted SR graph, and the
    # smallest clique partitions of the factors' SR graphs by exhaustive search
    res, orders = _covered_orders(g, h)
    certified = orders == [g.n, h.n]
    prod = product("strong", g, h)
    pred = predicted_mmd_edges(g, h)
    dm = strong_product_distances(pred.dm_g, pred.dm_h)
    searched = sr_cover_dimension(prod, pred.graph, dm, min_vertex_cover(pred.graph))
    assert res.dim == searched.dim
    assert is_strong_generator(prod, res.basis) and len(res.basis) == res.dim
    c_graph = any(brute_clique_cover(sr) == sr.n - brute_min_cover(sr)
                  for sr in (pred.sr_g, pred.sr_h))
    assert certified == c_graph
    if not certified:
        assert orders == [g.n, h.n, prod.n]
    if c_graph:
        dim_g = strong_metric_dimension(g).dim
        dim_h = strong_metric_dimension(h).dim
        assert res.dim == general_upper(g.n, h.n, dim_g, dim_h)


@pytest.mark.parametrize("g, h", [(path(30), path(30)), (cycle(12), path(5))])
def test_certified_basis_is_the_complement_of_the_factor_sets(g, h):
    # each factor cover is solved on the factor's SR graph as given, with
    # I = V - cover, and the basis is the complement of I_G x I_H
    res, orders = _covered_orders(g, h)
    assert orders == [g.n, h.n]
    ind_g, ind_h = (set(range(f.n)) - min_vertex_cover(strong_resolving_graph(f).sr).witness
                    for f in (g, h))
    assert res.basis == frozenset(u * h.n + v for u in range(g.n) for v in range(h.n)
                                  if u not in ind_g or v not in ind_h)
    if g.n == h.n == 30:  # SR(P30) is the edge {0, 29}, covered by 29
        assert res.basis == frozenset(range(29, 900, 30)) | frozenset(range(870, 900))


@pytest.mark.parametrize("r, t, dim", [(2, 3, 29), (3, 4, 51)])
def test_odd_odd_products_fall_back_to_the_product_cover(r, t, dim):
    # SR(C_{2r+1}) is C_{2r+1}: beta = r, theta = r + 1, so neither factor
    # certifies and the whole predicted SR graph is covered
    g, h = cycle(2 * r + 1), cycle(2 * t + 1)
    res, orders = _covered_orders(g, h)
    assert orders == [g.n, h.n, g.n * h.n]
    assert res.dim == dim == strong_metric_dimension(product("strong", g, h)).dim
    assert odd_odd_lower(r, t) <= dim <= odd_odd_upper(r, t)


def test_odd_odd_product_with_a_deep_colour_search():
    # SR(C35 x C35) has theta-hat 323, a share of 0.26 of its 1,225 vertices:
    # the stack holds the colour engine's 324 levels, and the engine proves
    # the cover in about 150 nodes, where branch and reduce spends 200,000
    # without a proof
    g = cycle(35)
    res = product_dimension("strong", g, g, 20_000, prod=product("strong", g, g))
    assert res.dim == odd_odd_upper(17, 17) == 936


def test_forged_factor_partition_raises(monkeypatch):
    # two "cliques" for SR(C5) = C5, as many as beta: the check refuses them
    # before the certificate could claim general_upper
    greedy = cover._greedy_clique_partition
    forged = [0b00111, 0b11000]
    monkeypatch.setattr(cover, "_greedy_clique_partition",
                        lambda adj, active: forged if active == 0b11111 else greedy(adj, active))
    g, h = cycle(5), cycle(7)
    with pytest.raises(AssertionError, match="is not a clique"):
        product_dimension("strong", g, h, prod=product("strong", g, h))
    with pytest.raises(AssertionError, match="is not a clique"):
        c_graph_partition(g, max_independent_set(g), DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("g6, h, dim", [("Erug", cycle(5), 24), ("FqNMg", cycle(7), 40)])
def test_exact_partition_certifies_where_greedy_falls_short(g6, h, dim):
    # SR(Erug) is the path 0-3-5-1-2-4: beta = theta = 3, but the id-order
    # greedy partition has 4 cliques; so has SR(FqNMg).  The exact partition
    # search certifies both, and no product-sized cover runs
    g = from_graph6(g6)
    sr = strong_resolving_graph(g).sr
    assert len(cover._greedy_clique_partition(sr.adj, (1 << sr.n) - 1)) == 4
    with patch.object(cover, "_clique_partition", wraps=cover._clique_partition) as search:
        partition = c_graph_partition(sr, max_independent_set(sr), DEFAULT_NODE_BUDGET)
    assert search.called and len(partition) == 3
    assert cover._checked_partition(sr, partition) == partition
    res, orders = _covered_orders(g, h)
    assert orders == [g.n, h.n]
    prod = product("strong", g, h)
    dim_g, dim_h = strong_metric_dimension(g).dim, strong_metric_dimension(h).dim
    assert res.dim == dim == strong_metric_dimension(prod).dim == general_upper(
        g.n, h.n, dim_g, dim_h)
    assert is_strong_generator(prod, res.basis) and len(res.basis) == dim


def test_factor_partition_search_spends_the_node_budget():
    # SR(Erug)'s cover takes the one node of the budget and leaves none for
    # the exact partition search its greedy partition calls for
    g, h = from_graph6("Erug"), cycle(5)
    with pytest.raises(BudgetExhausted, match="clique partition search exhausted"):
        product_dimension("strong", g, h, 1, prod=product("strong", g, h))


def test_factor_covers_spend_the_node_budget():
    # C5 x C7 takes one node per factor cover and 22 for the product cover,
    # all from one budget: a budget short of any of them ends as
    # BudgetExhausted, never as a number
    for budget in (0, 1, 23):
        with pytest.raises(BudgetExhausted):
            _covered_orders(cycle(5), cycle(7), budget)
    assert _covered_orders(cycle(5), cycle(7), 24)[0].dim == 29


def test_factor_route_rejects_bad_factors():
    two_edges = disjoint_union([complete(2)] * 2)
    for g, h in [(complete(1), complete(1)), (two_edges, path(3)), (complete(1), two_edges)]:
        with pytest.raises(ValueError):
            product_dimension("strong", g, h, prod=product("strong", g, h))
    prod = product("strong", two_edges, path(3))
    with pytest.raises(ValueError):
        product_sr_graph("strong", two_edges, path(3), prod=prod)


def test_product_dimension_at_benchmark_scale():
    # the benchmark's product ladder against the paper's closed forms; every
    # rung is certified from its factors, so no product-sized cover runs
    cases = [
        (path(30), path(30), (tree_factor(30, 30, 2, 1),) * 2),
        (path(18), path(48), (tree_factor(18, 48, 2, 1),) * 2),
        (cycle(12), path(50), (antipodal_factor(12, 50, 1),) * 2),
        (complete(6), path(60), (complete_factor(6, 60, 1),) * 2),
        (cycle(21), path(8), (odd_cycle_lower(10, 8, 1), odd_cycle_upper(10, 8, 1))),
    ]
    for g, h, (lo, hi) in cases:
        res, orders = _covered_orders(g, h)
        assert orders == [g.n, h.n]
        assert lo <= res.dim <= hi
        assert len(res.basis) == res.dim


def test_product_dimension_of_a_long_odd_cycle_strip():
    # the value sits on the paper's upper bound for odd cycles; the product
    # route certifies it through SR(P200), while the cover of the whole
    # predicted SR graph is solved by the frontier DP
    g, h = cycle(5), path(200)
    res, orders = _covered_orders(g, h)
    assert orders == [5, 200]
    assert res.dim == odd_cycle_upper(2, 200, 1) == 602
    assert len(res.basis) == res.dim
    with patch.object(cover, "_frontier_mis", wraps=cover._frontier_mis) as dp:
        searched = min_vertex_cover(predicted_mmd_edges(g, h).graph)
    assert dp.called
    assert (searched.size, searched.proven_optimal) == (602, True)


# -- brute force oracle -----------------------------------------------------------


def test_brute_force_examples():
    assert brute_force_dimension(path(5)).dim == 1
    assert brute_force_dimension(cycle(6)).dim == 3


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_dimension(path(16))


def test_brute_force_minimality_witness():
    g = cycle(6)
    res = brute_force_dimension(g)
    for drop in res.basis:
        smaller = set(res.basis) - {drop}
        assert not smaller or not is_strong_generator(g, smaller)


def test_oracle_equivalence_seeded():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(4, 10)
        g = random_connected(n, rng.choice([0.3, 0.5, 0.7]), rng.randrange(1 << 30))
        assert strong_metric_dimension(g).dim == brute_force_dimension(g).dim


@given(connected_graph_strategy(2, 7))
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_property(g):
    assert strong_metric_dimension(g).dim == brute_force_dimension(g).dim


@given(connected_graph_strategy(2, 8))
@settings(max_examples=60, deadline=None)
def test_dim_range_and_completeness_characterization(g):
    res = strong_metric_dimension(g)
    assert 1 <= res.dim <= g.n - 1
    sr = strong_resolving_graph(g).sr
    sr_complete = sr.num_edges == g.n * (g.n - 1) // 2
    assert (res.dim == g.n - 1) == sr_complete


def test_dimension_two_routes_agree():
    # alpha(SR) directly vs n - beta(SR) with beta from the clique engine
    for g in (cycle(7), path(6), product("strong", cycle(3), cycle(5))):
        sr = strong_resolving_graph(g).sr
        via_cover = strong_metric_dimension(g).dim
        via_clique = g.n - len(max_clique(complement(sr)))
        assert via_cover == via_clique


# -- closed forms ------------------------------------------------------------------


def test_formula_spot_values():
    assert c3_exact(2) == 13
    assert c3_exact(1) == 8
    assert odd_odd_lower(1, 1) == odd_odd_upper(1, 1) == 8
    assert odd_odd_upper(2, 3) == 29
    assert general_upper(2, 3, 1, 1) == 4
    assert general_lower(3, 5, 2, 1) == 10
    assert general_upper(3, 5, 2, 1) == 11
    assert tree_factor(4, 3, 2, 1) == 6
    assert antipodal_factor(6, 3, 1) == 12
    assert grid_factor(9, 2, 1) == 12
    assert complete_factor(4, 3, 1) == 10
    assert kpartite_factor(5, 3, 2, 1) == 11
    assert generalized_tree_factor(5, 3, 1, 1) == 11
    assert odd_cycle_lower(2, 4, 1) == 12
    assert odd_cycle_upper(2, 4, 1) == 14
    assert c1_lower(5, 5, 3, 3) == 19


def test_formula_matches_computation():
    # K2 x P3 has dimension 4, matching the C-graph closed form
    prod = product("strong", complete(2), path(3))
    assert strong_metric_dimension(prod).dim == 4
    assert brute_force_dimension(prod).dim == 4


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        odd_odd_lower(3, 2)
    with pytest.raises(ValueError):
        antipodal_factor(5, 3, 1)
    with pytest.raises(ValueError):
        c3_exact(0)
