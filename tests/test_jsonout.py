"""``EdgeList`` against ``json.dumps`` of the list it stands for."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdim.jsonout import EdgeList, to_json

from oracles import edge_list_form


@st.composite
def _edge_lists(draw):
    """Symmetric bit rows on up to 12 vertices (edgeless ones and isolated
    vertices included) with str names, int names or both, as a list or a dict."""
    n = draw(st.integers(0, 12))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    name = draw(st.sampled_from([st.text(), st.integers(), st.text() | st.integers()]))
    names = draw(st.lists(name, min_size=n, max_size=n))
    if draw(st.booleans()):
        names = dict(enumerate(names))
    return EdgeList(rows, names)


_PLACES = {
    "top": lambda e: e,
    "dict": lambda e: {"n": 1, "edges": e, "after": ["x"]},
    "list": lambda e: [0, [e, "y"], e],
}


@pytest.mark.parametrize("place", _PLACES)
@given(edges=_edge_lists())
@settings(max_examples=300, deadline=None)
def test_edge_list_is_json_dumps_of_its_list_form(place, edges):
    obj = _PLACES[place](edges)
    assert to_json(obj) == json.dumps(obj, indent=2, default=edge_list_form)


def test_edge_list_on_fixed_cases():
    names = ['"q"', "back\\slash", "\x00\n\t", "é中\U0001f600"]
    cases = [
        (EdgeList([], []), []),
        (EdgeList([0, 0, 0], ["a", "b", "c"]), []),
        (EdgeList([0b10, 0b01, 0], [7, -1, 0]), [[7, -1]]),
        (EdgeList([0b1110, 0b0001, 0b0001, 0b0001], names),
         [[names[0], names[1]], [names[0], names[2]], [names[0], names[3]]]),
        (EdgeList([0b100, 0, 0b001], range(3)), [[0, 2]]),
    ]
    for edges, form in cases:
        assert edge_list_form(edges) == form
        assert to_json(edges) == json.dumps(form, indent=2)
        assert to_json({"e": [edges]}) == json.dumps({"e": [form]}, indent=2)
