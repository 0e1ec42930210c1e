import binascii
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdim.graph import (
    Graph,
    bits,
    complement,
    complete,
    component_masks,
    complete_multipartite,
    cycle,
    disjoint_union,
    from_graph6,
    generalized_tree,
    generate,
    grid,
    make_graph,
    path,
    random_connected,
    star,
    to_dot,
    to_graph6,
)
from strongdim.metrics import all_pairs_distances, is_connected
from strongdim.products import product
from strongdim.resolving import strong_resolving_graph
from strongdim.verify import cut_vertices, is_generalized_tree

from oracles import graphs_isomorphic


def random_graph_strategy(max_n=10, min_n=0):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        return make_graph(n, edges)

    return build()


def connected_graph_strategy(min_n, max_n):
    """Connected graphs with min_n <= n <= max_n: a random tree in which each
    vertex attaches to an earlier one, plus drawn extra edges, with the ids
    shuffled by a drawn permutation."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges += [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        perm = draw(st.permutations(range(n)))
        return make_graph(n, [(perm[u], perm[v]) for u, v in edges])

    return build()


@given(connected_graph_strategy(1, 8))
def test_connected_graph_strategy_draws_connected_graphs(g):
    assert 1 <= g.n <= 8
    assert is_connected(g)


# -- construction -----------------------------------------------------------


def test_make_graph_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g == complete(3)


def test_make_graph_empty_and_path():
    assert make_graph(2, []).num_edges == 0
    p4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4 == path(4)


def test_make_graph_deduplicates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_make_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(-1, [])


@given(random_graph_strategy())
def test_adjacency_symmetric_irreflexive(g):
    for u in range(g.n):
        assert not (g.adj[u] >> u) & 1
        for v in bits(g.adj[u]):
            assert g.adj[v] >> u & 1


@given(random_graph_strategy(max_n=40))
def test_edges_lists_each_edge_once_in_order(g):
    assert g.edges() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                         if g.adj[u] >> v & 1]
    assert len(g.edges()) == g.num_edges


# -- generators -------------------------------------------------------------


def test_family_edge_counts():
    assert complete(6).num_edges == 15
    assert cycle(5).num_edges == 5
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    assert grid(3, 4).n == 12
    assert grid(3, 4).num_edges == 4 * 2 + 3 * 3
    assert sorted(a.bit_count() for a in star(5).adj) == [1, 1, 1, 1, 4]


def test_kpartite_2_2_is_c4():
    assert graphs_isomorphic(complete_multipartite([2, 2]), cycle(4))


def test_generalized_tree_two_triangles():
    g = generalized_tree([3, 3], seed=7)
    assert g.n == 5
    assert g.num_edges == 6
    assert len(cut_vertices(g)) == 1
    assert is_generalized_tree(g)


def test_generalized_tree_rejects_small_blocks():
    with pytest.raises(ValueError):
        generalized_tree([3, 1], seed=0)


@pytest.mark.parametrize("build, message", [
    (lambda: path(0), "path needs n >= 1"),
    (lambda: complete(0), "complete needs n >= 1"),
    (lambda: complete_multipartite([3]), "complete_multipartite needs at least 2 parts"),
    (lambda: complete_multipartite([2, 0]), "part sizes must be positive"),
    (lambda: grid(0, 3), "grid needs positive dimensions"),
    (lambda: star(1), "star needs n >= 2"),
    (lambda: random_connected(0, 0.5, 1), "random_connected needs n >= 1"),
    (lambda: random_connected(5, 0.0, 1), r"edge probability must be in \(0, 1\]"),
    (lambda: generalized_tree([], 0), "generalized_tree needs at least one block"),
])
def test_family_constructors_refuse_bad_parameters(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_random_connected_is_connected_and_reproducible():
    g1 = random_connected(8, 0.4, seed=5)
    g2 = random_connected(8, 0.4, seed=5)
    assert g1 == g2
    assert is_connected(g1)


def test_random_connected_retry_cap():
    with pytest.raises(ValueError):
        random_connected(30, 0.0001, seed=1)


# -- connected components ------------------------------------------------------


@given(random_graph_strategy())
def test_component_masks_partition_by_lowest_vertex(g):
    comps = component_masks(g)
    union = 0
    for comp in comps:
        assert comp and union & comp == 0
        union |= comp
    assert union == (1 << g.n) - 1
    lowest = [(comp & -comp).bit_length() - 1 for comp in comps]
    assert lowest == sorted(lowest)
    balls = all_pairs_distances(g).balls
    for comp in comps:
        for v in range(g.n):
            if (comp >> v) & 1:
                assert balls[v][-1] == comp
    assert is_connected(g) == (len(comps) == 1)


def test_component_masks_fixed_cases():
    assert component_masks(make_graph(0, [])) == []
    assert not is_connected(make_graph(0, []))
    assert component_masks(make_graph(3, [])) == [0b001, 0b010, 0b100]
    g = make_graph(5, [(1, 3), (3, 4)])
    assert component_masks(g) == [0b00001, 0b11010, 0b00100]
    assert not is_connected(g)
    assert component_masks(complete(1)) == [1]
    assert is_connected(complete(1))


def test_generate_mini_language():
    assert generate("cycle:6") == cycle(6)
    assert generate("grid:3x4") == grid(3, 4)
    assert generate("kpartite:2,2,3") == complete_multipartite([2, 2, 3])
    assert generate("gtree:3,3@7") == generalized_tree([3, 3], 7)
    assert generate("random:8,0.4,17") == random_connected(8, 0.4, 17)
    assert generate("star:5") == star(5)
    assert generate("path:3") == path(3)
    assert generate("complete:4") == complete(4)
    with pytest.raises(ValueError):
        generate("banana:3")
    with pytest.raises(ValueError):
        generate("cycle")
    with pytest.raises(ValueError):
        generate("grid:3by4")


# -- combinators ------------------------------------------------------------


def test_disjoint_union_counts():
    g = disjoint_union([complete(2), complete(1)])
    assert (g.n, g.num_edges) == (3, 1)
    matching = disjoint_union([complete(2), complete(2)])
    assert (matching.n, matching.num_edges) == (4, 2)
    assert sorted(a.bit_count() for a in matching.adj) == [1, 1, 1, 1]


def test_complement_of_complete_is_empty():
    assert complement(complete(5)).num_edges == 0


def test_c5_is_self_complementary():
    assert graphs_isomorphic(complement(cycle(5)), cycle(5))


@given(random_graph_strategy())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


# -- isomorphism ------------------------------------------------------------


def test_isomorphic_classics():
    assert graphs_isomorphic(cycle(4), complete_multipartite([2, 2]))
    assert not graphs_isomorphic(path(4), star(4))
    # regular graphs: equal degree classes prune nothing, so the backtracking alone
    # decides: the triangular prism has triangles, K3,3 none
    prism = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    k33 = complete_multipartite([3, 3])
    assert not graphs_isomorphic(prism, k33)
    assert not brute_isomorphic(prism, k33)
    assert graphs_isomorphic(prism, complement(cycle(6)))
    # the Petersen graph has girth 5, the pentagonal prism 4-cycles
    petersen = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    pentagonal_prism = make_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                                  + [(i, i + 5) for i in range(5)]
                                  + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert not graphs_isomorphic(petersen, pentagonal_prism)
    perm = [3, 7, 0, 9, 4, 1, 8, 2, 6, 5]
    relabelled = make_graph(10, [(perm[u], perm[v]) for u, v in petersen.edges()])
    assert graphs_isomorphic(petersen, relabelled)


def brute_isomorphic(a, b):
    from itertools import permutations

    if a.n != b.n:
        return False
    for perm in permutations(range(a.n)):
        if all(
            a.adj[u] >> v & 1 == b.adj[perm[u]] >> perm[v] & 1
            for u in range(a.n)
            for v in range(u + 1, a.n)
        ):
            return True
    return False


@given(random_graph_strategy(max_n=6), random_graph_strategy(max_n=6))
@settings(max_examples=80)
def test_isomorphism_matches_permutation_oracle(a, b):
    assert graphs_isomorphic(a, b) == brute_isomorphic(a, b)


@given(random_graph_strategy(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_isomorphism_reflexive_and_permutation_invariant(g, rnd):
    assert graphs_isomorphic(g, g)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    permuted = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert graphs_isomorphic(g, permuted)
    assert graphs_isomorphic(permuted, g)


# -- graph6 -----------------------------------------------------------------


def test_graph6_known_codes():
    assert to_graph6(complete(1)) == "@"
    assert from_graph6("A_") == complete(2)
    # decode by hand: 'D' means n=5, '?{' packs the bit stream
    g = from_graph6("D?{")
    assert g.n == 5


def test_graph6_header_strip():
    assert from_graph6(">>graph6<<A_") == complete(2)


@given(random_graph_strategy(max_n=12))
@settings(max_examples=120)
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


def _graph6_bitwise(g):
    """Reference encoder: one bit at a time, upper triangle column-major."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(
        chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    stream = [g.adj[u] >> v & 1 for v in range(1, n) for u in range(v)]
    stream += [0] * (-len(stream) % 6)
    return head + "".join(
        chr(int("".join(map(str, stream[i:i + 6])), 2) + 63)
        for i in range(0, len(stream), 6))


@given(random_graph_strategy(max_n=70))
@settings(max_examples=80)
def test_graph6_matches_bitwise_reference(g):
    assert to_graph6(g) == _graph6_bitwise(g)


def _graph6_by_bit_string(g):
    """The encoder the merged-column one replaced: the upper triangle as one
    bit string, read by int() and written out through base64."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(
        chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    body = "".join([f"{g.adj[v] & ((1 << v) - 1):0{v}b}"[::-1] for v in range(1, n)])
    if not body:
        return head
    pad = -len(body) % 24
    data = int(body + "0" * pad, 2).to_bytes((len(body) + pad) // 8, "big")
    b64 = binascii.b2a_base64(data, newline=False)[:-(-len(body) // 6)]
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    return head + b64.translate(bytes.maketrans(alphabet, bytes(range(63, 127)))).decode()


def test_graph6_matches_bit_string_encoder_for_every_order_to_70():
    rng = random.Random(70)
    for n in range(71):
        for p in (0.0, 0.1, 0.5, 1.0):
            g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
            text = to_graph6(g)
            assert text == _graph6_by_bit_string(g)
            assert from_graph6(text) == g


@pytest.mark.parametrize("g, h", [
    (path(30), path(30)), (path(18), path(48)), (cycle(12), path(50)),
    (complete(6), path(60)), (cycle(21), path(8)),
], ids=["P30xP30", "P18xP48", "C12xP50", "K6xP60", "C21xP8"])
def test_graph6_matches_bit_string_encoder_on_large_products(g, h):
    prod = product("strong", g, h)
    for graph in (prod, strong_resolving_graph(prod).sr):
        text = to_graph6(graph)
        assert text == _graph6_by_bit_string(graph)
        assert from_graph6(text) == graph


def _from_graph6_by_columns(text):
    """Reference decoder: the bit stream as one string of characters, one
    slice per column, and the lower triangle filled edge by edge."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 byte {ch!r}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 order >= 2^18 not supported")
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        if n <= 62:
            raise ValueError("non-canonical graph6 header (small order in long form)")
        body = s[4:]
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) < need:
        raise ValueError("truncated graph6 bit stream")
    if len(body) > need:
        raise ValueError("trailing garbage after graph6 bit stream")
    stream = "".join([f"{ord(ch) - 63:06b}" for ch in body])
    if "1" in stream[npairs:]:
        raise ValueError("nonzero padding bits in graph6 stream")
    adj = [0] * n
    start = 0
    for v in range(1, n):
        col = int(stream[start:start + v][::-1], 2)
        start += v
        adj[v] = col
        for u in bits(col):
            adj[u] |= 1 << v
    return Graph(n, adj)


def _decoded_or_error(decode, text):
    try:
        return decode(text)
    except ValueError as exc:
        return str(exc)


@given(random_graph_strategy(max_n=80))
@settings(max_examples=80)
def test_graph6_decoder_matches_column_reference(g):
    text = to_graph6(g)
    assert from_graph6(text) == _from_graph6_by_columns(text) == g
    assert from_graph6(">>graph6<<" + text + "\n") == g


@st.composite
def _graph6_with_last_byte_replaced(draw):
    text = to_graph6(draw(random_graph_strategy(max_n=30)))
    return text[:-1] + draw(st.characters(min_codepoint=63, max_codepoint=126))


@given(st.text(max_size=14)
       | st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=14)
       | _graph6_with_last_byte_replaced())
@settings(max_examples=300)
def test_graph6_decoder_errors_match_column_reference(text):
    # the same graph or the same ValueError message on any text, non-ASCII too
    assert (_decoded_or_error(from_graph6, text)
            == _decoded_or_error(_from_graph6_by_columns, text))


def test_graph6_round_trip_large_header():
    for g in (path(100), product("strong", path(30), path(30))):
        assert from_graph6(to_graph6(g)) == g


def test_graph6_empty_graph():
    g = make_graph(0, [])
    assert to_graph6(g) == "?"
    assert from_graph6("?") == g


def test_graph6_error_cases():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("D?")        # truncated bit stream
    with pytest.raises(ValueError):
        from_graph6("D?{?")      # trailing garbage
    with pytest.raises(ValueError):
        from_graph6("A,")        # byte outside 63..126
    with pytest.raises(ValueError):
        from_graph6("~~~~~~~~")  # >= 2^18 vertices
    with pytest.raises(ValueError):
        from_graph6("~??@")      # small order written in the long form
    with pytest.raises(ValueError, match="graph6 encoding supported for n < 262144"):
        to_graph6(Graph(1 << 18, [0] * (1 << 18)))


def test_graph6_nonzero_padding_rejected():
    # K2 needs one pair bit; the remaining 5 bits must be zero padding
    with pytest.raises(ValueError):
        from_graph6("A" + chr(63 + 0b111111))
    for pad in (0b10000, 0b01000, 0b00100, 0b00010, 0b00001):
        with pytest.raises(ValueError):
            from_graph6("A" + chr(63 + 0b100000 + pad))


@given(st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12))
@settings(max_examples=200)
def test_graph6_decoder_never_crashes(text):
    # arbitrary printable input either decodes or raises ValueError, and
    # anything that decodes re-encodes to the same canonical string
    try:
        g = from_graph6(text)
    except ValueError:
        return
    assert to_graph6(g) == text.strip().removeprefix(">>graph6<<")


# -- DOT --------------------------------------------------------------------


def test_to_dot_contains_edges_and_labels():
    text = to_dot(path(3), labels={0: "0,0", 1: "0,1", 2: "0,2"})
    assert "graph G {" in text
    assert '0 [label="0,0"];' in text
    assert "1 -- 2;" in text
