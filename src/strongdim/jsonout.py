"""The package's JSON writer: ``json.dumps(obj, indent=2)``, byte for byte.

``compute``, ``product`` and the claim report all print through ``to_json``.
It lives apart from the claim verifier so that the commands which do not
verify load none of it.
"""

from __future__ import annotations

import json
from itertools import chain

__all__ = ["to_json"]


_encode_str = json.encoder.encode_basestring_ascii


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for every JSON the package prints.

    ``obj`` is built of dicts with str keys (any other key is a TypeError),
    lists, tuples, str, int, float, bool and None.  CPython's C encoder
    serves only ``indent=None``, so with an indent every value would go
    through the pure-Python one.  Here a flat list of str or of int, and a
    list of equal-length lists of either (edge lists), are joined with
    ``map`` and ``str.join``; everything else follows ``json.dumps``'s rules
    one value at a time.
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
    if isinstance(obj, float):
        return json.dumps(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _json_value(v, inner) for k, v in obj.items()]
        ) + nl + "}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    encode = _flat_encoder(obj)
    if encode is not None:
        return "[" + inner + ("," + inner).join(map(encode, obj)) + nl + "]"
    width = set(map(len, obj)) if set(map(type, obj)) <= {list, tuple} else ()
    encode = _flat_encoder(chain.from_iterable(obj)) if len(width) == 1 and 0 not in width else None
    if encode is not None:  # rows of one width: the cells in one C-level join per row
        cell = inner + "  "
        cells = map(encode, chain.from_iterable(obj))
        rows = map(("," + cell).join, zip(*[cells] * width.pop()))
        between = inner + "]," + inner + "[" + cell
        return "[" + inner + "[" + cell + between.join(rows) + inner + "]" + nl + "]"
    return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in obj]) + nl + "]"
