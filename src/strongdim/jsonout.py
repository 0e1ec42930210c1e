"""The package's JSON writer: ``json.dumps(obj, indent=2)``, byte for byte.

``compute``, ``product`` and the claim report all print through ``to_json``.
It lives apart from the claim verifier so that the commands which do not
verify load none of it, and it takes its string escaper from the C module
``_json`` so that they load no ``json`` package either.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _encode_str

__all__ = ["EdgeList", "to_json"]


class EdgeList:
    """The JSON array of [names[u], names[v]] for each edge u < v of the bit
    rows ``rows``, in (u, v) order; ``to_json`` writes it straight from the rows."""

    __slots__ = ("rows", "names")

    def __init__(self, rows, names):
        self.rows, self.names = rows, names


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for every JSON the package prints.

    ``obj`` is built of dicts with str keys (any other key is a TypeError),
    lists, tuples, str, int, float, bool, None and ``EdgeList``, which
    prints as ``json.dumps`` prints its list form.  CPython's C encoder
    serves only ``indent=None``, so with an indent every value would go
    through the pure-Python one.  Here a flat list of str or of int, and an
    ``EdgeList``, are joined with ``map`` and ``str.join``; everything else
    follows ``json.dumps``'s rules one value at a time.
    """
    return _json_value(obj, "\n")


def _flat_encoder(items):
    """``str.join``-ready encoder when every item is a str, or every one an int."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return _encode_str
    if kinds == {int}:
        return int.__repr__
    return None


def _json_value(obj, nl: str) -> str:
    """One value, ``nl`` being a newline and the indent of the line it starts on."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # spelt as json.dumps spells it
        text = float.__repr__(obj)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _json_value(v, inner) for k, v in obj.items()]
        ) + nl + "}"
    if not isinstance(obj, (list, tuple)):
        if isinstance(obj, EdgeList):
            return _edge_list(obj.rows, obj.names, nl)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    encode = _flat_encoder(obj)
    if encode is not None:
        return "[" + inner + ("," + inner).join(map(encode, obj)) + nl + "]"
    return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in obj]) + nl + "]"


def _edge_list(rows, names, nl: str) -> str:
    """An ``EdgeList``: each name encoded once, each edge one string, one join."""
    names = list(map(names.__getitem__, range(len(rows))))
    names = list(map(_flat_encoder(names) or (lambda name: _json_value(name, nl)), names))
    inner = nl + "  "
    cell = inner + "  "
    edges = []
    for u, row in enumerate(rows):
        head = "[" + cell + names[u] + "," + cell
        m, v = row >> u + 1, u
        while m:  # v steps to the next neighbour above u, lowest first
            step = (m & -m).bit_length()
            v += step
            edges.append(head + names[v])
            m >>= step
    if not edges:
        return "[]"
    return "[" + inner + (inner + "]," + inner).join(edges) + inner + "]" + nl + "]"
