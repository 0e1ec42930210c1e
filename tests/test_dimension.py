import random
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongdim import cover, dimension, products
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
    c1_lower,
    general_lower,
    general_upper,
    is_strong_generator,
    odd_odd_lower,
    odd_odd_upper,
    product_dimension,
    product_sr_graph,
    sr_cover_dimension,
    strong_metric_dimension,
)
from strongdim.graph import (
    bits,
    complement,
    complete,
    cycle,
    disjoint_union,
    from_graph6,
    make_graph,
    path,
    random_connected,
    star,
)
from strongdim.metrics import all_pairs_distances, is_connected
from strongdim.products import PRODUCT_KINDS, product
from strongdim.resolving import predicted_mmd_edges, strong_resolving_graph

from oracles import (
    BRUTE_FORCE_SIZE_CAP,
    bfs_balls,
    bfs_rows,
    brute_force_dimension,
    brute_min_cover,
    max_clique,
    per_source_hulls,
    strongly_resolves,
)
from test_cover import brute_clique_cover, id_order_partition
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


# -- the check on the factors' matrices: two stages of factor classes ---------


def _factor_distances(g, h):
    pred = predicted_mmd_edges(g, h)
    return pred.dm_g, pred.dm_h


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
    stages = dimension._product_stages(prod.adj, *_factor_distances(g, h))
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
    flat, factors = all_pairs_distances(prod), _factor_distances(g, h)
    on_rows = [is_strong_generator(prod, s, flat) for s in sets]
    on_stages = [is_strong_generator(prod, s, factors) for s in sets]
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
    factors, flat = _factor_distances(g, h), all_pairs_distances(prod)
    sets = [basis] + [basis[:i] + basis[i + 1 :] for i in range(len(basis))]
    answers = [is_strong_generator(prod, s, factors) for s in sets]
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
    with pytest.raises(AssertionError, match="the product of the balls' factors misses row"):
        is_strong_generator(prod, basis, _factor_distances(g, h))
    with pytest.raises(AssertionError, match="the product of the balls' factors misses row"):
        product_dimension("strong", g, h, prod=prod)


def test_product_check_refuses_a_graph_that_is_not_the_product():
    # the factors come from the balls; the graph itself is only checked
    g, h = cycle(5), path(4)
    prod = product("strong", g, h)
    basis = product_dimension("strong", g, h, prod=prod).basis
    not_prod = make_graph(prod.n, [*prod.edges(), (6, 12)])  # (1,2) ~ (3,0): distance 2
    with pytest.raises(AssertionError, match="the product of the balls' factors misses row 6"):
        is_strong_generator(not_prod, basis, _factor_distances(g, h))
    with pytest.raises(AssertionError, match="a graph on 20 vertices is not a 4 x 4 product"):
        is_strong_generator(prod, basis, _factor_distances(path(4), path(4)))


@pytest.mark.parametrize(
    "prod",
    [
        pytest.param(complete(9), id="K9"),
        pytest.param(product("strong", complete(3), path(3)), id="K3xP3"),
    ],
)
def test_factor_route_refuses_a_prod_of_other_factors(prod):
    # P3xP3 factor balls with a graph of the right order that is not P3xP3:
    # the stages come from the balls' factors, so the graph's rows cannot
    # stand in for them (dim_s(K9) = 8 and dim_s(K3xP3) = 7, not 5)
    g = h = path(3)
    with pytest.raises(AssertionError, match="the product of the balls' factors misses row 0"):
        product_dimension("strong", g, h, prod=prod)
    with pytest.raises(AssertionError, match="the product of the balls' factors misses row 0"):
        is_strong_generator(prod, {2, 5, 6, 7, 8}, _factor_distances(g, h))


@pytest.mark.parametrize(
    "balls",
    [
        pytest.param(all_pairs_distances(path(5)), id="P5"),
        pytest.param(all_pairs_distances(path(6)), id="P6"),
        pytest.param(all_pairs_distances(cycle(4)), id="C4"),
    ],
)
def test_generator_check_refuses_balls_of_another_graph(balls):
    # {0} generates P5 but not C5 (dim_s(C5) = 3): the balls are checked
    # against the graph's rows, and their count against its order
    with pytest.raises(AssertionError, match="the distance balls are not the graph's own"):
        is_strong_generator(cycle(5), {0}, balls)
    with pytest.raises(AssertionError, match="the distance balls are not the graph's own"):
        sr_cover_dimension(cycle(5), cycle(5), balls, CoverResult(1, frozenset({0}), 0, True))


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


# -- the factor route's hulls: shared column and row sweeps -------------------


def _assert_hulls_match(g, h, members):
    # oracle: every source's own sweep over its full-width product balls, by BFS
    prod = product("strong", g, h)
    dms = all_pairs_distances(g), all_pairs_distances(h)
    stages = dimension._product_stages(prod.adj, *dms)
    smask = sum(1 << w for w in members)
    outside = ((1 << prod.n) - 1) & ~smask
    got = dimension._product_hulls(*dms, outside, smask, stages)
    bfs = SimpleNamespace(balls=[bfs_balls(prod, p) for p in range(prod.n)])
    assert got == per_source_hulls(prod, bfs, members)


def _fork_layers(g, h, p):
    """The product vertices at distance e and e + 1 from p = (u, v), with
    e = min(ecc_G(u), ecc_H(v)): where p's own sweep meets the shared one."""
    u, v = divmod(p, h.n)
    e = min(len(bfs_balls(g, u)), len(bfs_balls(h, v))) - 1
    levels = bfs_balls(product("strong", g, h), p)
    return {x for k in (e, e + 1) if 0 < k < len(levels) for x in bits(levels[k] & ~levels[k - 1])}


def _member_sets(g, h, p, drawn):
    n = g.n * h.n
    return [set(), set(range(n)) - {p}, _fork_layers(g, h, p), drawn]


_hull_factors = st.one_of(
    st.sampled_from([complete(1), complete(2)]),
    st.integers(2, 8).map(path),
    st.integers(3, 7).map(cycle),
    st.integers(3, 6).map(star),
    connected_graph_strategy(1, 6),
)


@given(_hull_factors, _hull_factors, st.data())
@settings(max_examples=200, deadline=None)
def test_shared_sweeps_give_the_per_source_hulls(g, h, data):
    n = g.n * h.n
    p = data.draw(st.integers(0, n - 1))
    drawn = data.draw(st.sets(st.integers(0, n - 1)))
    for members in _member_sets(g, h, p, drawn):
        _assert_hulls_match(g, h, members)


@pytest.mark.parametrize(
    "g, h",
    [
        pytest.param(complete(1), path(6), id="K1xP6"),
        pytest.param(path(6), complete(1), id="P6xK1"),
        pytest.param(complete(2), path(7), id="K2xP7"),
        pytest.param(path(3), path(9), id="P3xP9"),
        pytest.param(path(9), path(3), id="P9xP3"),
        pytest.param(cycle(6), cycle(6), id="C6xC6"),
        pytest.param(path(6), path(6), id="P6xP6"),
        pytest.param(star(5), path(7), id="S5xP7"),
        pytest.param(path(7), random_connected(6, 0.4, 3), id="P7xR6"),
        # one source in each column on the basis: its 8 packed columns hold one block each
        pytest.param(complete(6), path(9), id="K6xP9"),
        # n = 35 is no multiple of 8.  Column 3 (ecc 3) enters rows 0 and 4
        # from their row tails and rows 1 to 3 with no reach above layer 3;
        # columns 0, 1, 5 and 6 enter every block from the column's tail
        pytest.param(path(5), path(7), id="P5xP7"),
        # n = 63: every block enters on layer ecc(C7) = 3 from its row tail
        pytest.param(path(9), cycle(7), id="P9xC7"),
    ],
)
def test_shared_sweeps_match_every_source_of_fixed_products(g, h):
    rng = random.Random(f"{g.n}x{h.n}")
    prod = product("strong", g, h)
    _assert_hulls_match(g, h, product_dimension("strong", g, h, prod=prod).basis)
    for p in range(g.n * h.n):
        drawn = set(rng.sample(range(g.n * h.n), rng.randrange(g.n * h.n)))
        for members in _member_sets(g, h, p, drawn):
            _assert_hulls_match(g, h, members)


def test_packed_columns_dilate_a_few_times_per_vertex(monkeypatch):
    # each column sweeps its sources' head layers at once: P20xP20's check
    # dilates about twice per vertex, where one sweep per source and layer
    # took more than ten times per vertex
    g, h = path(20), path(20)
    prod = product("strong", g, h)
    basis = product_dimension("strong", g, h, prod=prod).basis
    calls = []
    real = dimension._dilate

    def counted(x, stages):
        calls.append(1)
        return real(x, stages)

    monkeypatch.setattr(dimension, "_dilate", counted)
    assert is_strong_generator(prod, basis, _factor_distances(g, h))
    assert len(calls) <= 3 * prod.n


def test_factor_route_strides_each_row_once(monkeypatch):
    # a row's G-balls are strided layer by layer, n1 bits a row; striding
    # each ball whole would cost the sum of |B_G(u, k)| over k
    g, h = path(60), cycle(5)
    prod = product("strong", g, h)
    basis = product_dimension("strong", g, h, prod=prod).basis
    stage_dm, check_dm = _factor_distances(g, h), _factor_distances(g, h)
    strided = []
    real = products._stride

    def counted(mask, n2):
        strided.append(mask.bit_count())
        return real(mask, n2)

    monkeypatch.setattr(products, "_stride", counted)
    monkeypatch.setattr(dimension, "_stride", counted)
    dimension._product_stages(prod.adj, *stage_dm)
    stage_bits = sum(strided)
    strided.clear()
    assert is_strong_generator(prod, basis, check_dm)
    assert sum(strided) <= g.n * g.n + stage_bits


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


@pytest.mark.parametrize("g, h", [
    pytest.param(disjoint_union([complete(2)] * 2), path(3), id="2K2xP3"),
    pytest.param(path(3), make_graph(3, [(0, 1)]), id="P3x(K2+K1)"),
    pytest.param(complete(1), make_graph(2, []), id="K1x2K1"),
])
def test_generator_check_on_factors_refuses_a_disconnected_factor(g, h):
    # the product of nonempty factors is connected iff both factors are
    prod = product("strong", g, h)
    assert not is_connected(prod)
    dms = all_pairs_distances(g), all_pairs_distances(h)
    with pytest.raises(ValueError, match="strong generators are defined for connected graphs"):
        is_strong_generator(prod, [0], dms)


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
    dms = pred.dm_g, pred.dm_h
    searched = sr_cover_dimension(prod, pred.graph, dms, min_vertex_cover(pred.graph))
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
                        lambda rows, bit, active, skip=0: (
                            forged[max(skip, 0):] if active == 0b11111
                            else greedy(rows, bit, active, skip)))
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
    assert len(id_order_partition(sr.adj, (1 << sr.n) - 1)) == 4
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
    # the plain route refuses a prod that is not product(kind, g, h): K9 for
    # P3 x P3 in the three other kinds, and for K1 x P9 in all four
    for kind, g, h in [*((kind, path(3), path(3)) for kind in PRODUCT_KINDS[1:]),
                       *((kind, complete(1), path(9)) for kind in PRODUCT_KINDS)]:
        for route in (product_dimension, product_sr_graph):
            with pytest.raises(ValueError, match=f"^prod is not the {kind} product of g and h$"):
                route(kind, g, h, prod=complete(9))


def test_product_dimension_at_benchmark_scale():
    # the benchmark's product ladder against the paper's closed forms, at
    # dim_s(P) = 1, dim_s(C12) = 6, dim_s(K6) = 5 and dim_s(C21) = 11; every
    # rung is certified from its factors, so no product-sized cover runs
    cases = [
        (path(30), path(30), (general_upper(30, 30, 1, 1),) * 2),
        (path(18), path(48), (general_upper(18, 48, 1, 1),) * 2),
        (cycle(12), path(50), (general_upper(12, 50, 6, 1),) * 2),
        (complete(6), path(60), (general_upper(6, 60, 5, 1),) * 2),
        (cycle(21), path(8), (c1_lower(21, 8, 11, 1), general_upper(21, 8, 11, 1))),
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
    assert res.dim == general_upper(5, 200, 3, 1) == 602
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
    # each family is the law at the dim_s the paper states for it
    assert odd_odd_upper(1, 2) == 13  # C3 x C5
    assert odd_odd_lower(1, 1) == odd_odd_upper(1, 1) == 8  # C3 x C3
    assert odd_odd_upper(2, 3) == 29
    assert general_upper(2, 3, 1, 1) == 4
    assert general_lower(3, 5, 2, 1) == 10
    assert general_upper(3, 5, 2, 1) == 11
    assert general_upper(4, 3, 1, 1) == 6  # tree with 2 leaves: l - 1
    assert general_upper(6, 3, 3, 1) == 12  # 2-antipodal of order 6: n/2
    assert general_upper(9, 2, 3, 1) == 12  # 3x3 grid as stated: 3
    assert general_upper(4, 3, 3, 1) == 10  # K4: n - 1
    # K_(p,q) on 5 vertices (n - 2); a generalized tree with one cut vertex (n - c - 1)
    assert general_upper(5, 3, 3, 1) == 11
    assert c1_lower(5, 4, 3, 1) == 12  # C5: r + 1
    assert general_upper(5, 4, 3, 1) == 14
    assert c1_lower(5, 5, 3, 3) == 19


def test_formula_matches_computation():
    # K2 x P3 has dimension 4, matching the C-graph closed form
    prod = product("strong", complete(2), path(3))
    assert strong_metric_dimension(prod).dim == 4
    assert brute_force_dimension(prod).dim == 4


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        odd_odd_lower(3, 2)
