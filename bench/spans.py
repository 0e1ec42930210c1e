"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each layer's public functions with a wrapper in
every ``strongdim`` namespace that holds them (``dimension`` imports
``min_vertex_cover`` and ``all_pairs_distances`` by name, for instance), and
``uninstall`` puts the originals back.  A wrapper appends one span per call:
name, start, end, parent span, request id and a few counts read off the
arguments and the result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _apsp_counts(args, result):
    g = args[0]
    return {"vertices": g.n, "graph": hash(g)}


def _sr_counts(args, result):
    return {"sr_edges": result.sr.num_edges}


def _generator_counts(args, result):
    n = args[0].n
    return {"pairs": n * (n - 1) // 2}


def _cover_counts(args, result):
    return {"nodes": result.nodes_explored, "proven": int(result.proven_optimal)}


# (module, function, counts taken from the call); span name = "module.function"
FUNCTIONS = (
    ("metrics", "all_pairs_distances", _apsp_counts),
    ("resolving", "strong_resolving_graph", _sr_counts),
    ("resolving", "predicted_mmd_edges", None),
    ("dimension", "is_strong_generator", _generator_counts),
    ("dimension", "strong_metric_dimension", None),
    ("cover", "min_vertex_cover", _cover_counts),
    ("cover", "max_clique", None),
    ("cover", "chromatic_number", None),
    ("cover", "clique_cover_number", None),
    ("products", "product", None),
    ("graph", "graphs_isomorphic", None),
    ("graph", "to_graph6", None),
    ("graph", "from_graph6", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request, counts)
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, fn, name, counts=None, name_of=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (label, start, clock(), parent, self.request, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (label, start, end, parent, self.request,
                          counts(args, result) if counts else None)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer function wherever a ``strongdim`` module holds it."""
        import strongdim.verify as vf

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "strongdim" or key.startswith("strongdim."))]

        def everywhere(original, wrapper):
            for mod in modules:
                if vars(mod).get(original.__name__) is original:
                    self._patch(mod, original.__name__, wrapper)

        for mod_name, fn_name, counts in FUNCTIONS:
            original = getattr(sys.modules.get(f"strongdim.{mod_name}"), fn_name, None)
            if original is None:  # a layer function the program no longer has
                self.missing.add(f"{mod_name}.{fn_name}")
                continue
            everywhere(original, self._wrap(original, f"{mod_name}.{fn_name}", counts))
        everywhere(vf.verify_claim, self._wrap(
            vf.verify_claim, "",
            name_of=lambda args, kwargs: "verify.claim." + (args[0] if args else kwargs["claim_id"]),
        ))
        for attr, member in list(vars(vf.Corpus).items()):
            if callable(member) and not attr.startswith("_"):
                self._patch(vf.Corpus, attr, self._wrap(member, "verify.corpus"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def per_layer(spans, claim_ids):
    """Per-layer metrics over all spans: calls, self time and counts.

    Self time is a span's duration minus the time its wrapped children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    totals = defaultdict(int)
    per_request_graphs = defaultdict(set)
    for i, (name, start, end, parent, request, counts) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        incl_s[name] += end - start
        if counts:
            for key, value in counts.items():
                if key == "graph":
                    per_request_graphs[request].add(value)
                else:
                    totals[f"{name}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for mod_name, fn_name, _ in FUNCTIONS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    apsp = "metrics.all_pairs_distances"
    distinct = sum(len(graphs) for graphs in per_request_graphs.values())
    out[f"{apsp}.vertices"] = (totals[f"{apsp}.vertices"], "count")
    out[f"{apsp}.distinct_ratio"] = (ratio(distinct, calls[apsp]), "1")
    out["resolving.strong_resolving_graph.sr_edges"] = (
        totals["resolving.strong_resolving_graph.sr_edges"], "count")
    out["dimension.is_strong_generator.pairs"] = (
        totals["dimension.is_strong_generator.pairs"], "count")
    cover = "cover.min_vertex_cover"
    out[f"{cover}.nodes"] = (totals[f"{cover}.nodes"], "count")
    out[f"{cover}.proven_ratio"] = (ratio(totals[f"{cover}.proven"], calls[cover]), "1")
    out["verify.corpus.self_s"] = (self_s["verify.corpus"], "s")
    for cid in claim_ids:
        out[f"verify.claim.{cid}.incl_s"] = (incl_s[f"verify.claim.{cid}"], "s")
    return out


def counters_by_request(spans):
    """Hardware-independent counts per request: calls per span name, cover
    nodes and SR edges.  A change here means the search behaviour changed."""
    out = defaultdict(lambda: defaultdict(int))
    for name, _, _, _, request, counts in spans:
        row = out[request]
        row[f"{name}.calls"] += 1
        if counts and "nodes" in counts:
            row["cover.min_vertex_cover.nodes"] += counts["nodes"]
        if counts and "sr_edges" in counts:
            row["resolving.strong_resolving_graph.sr_edges"] += counts["sr_edges"]
    return {req: dict(sorted(row.items())) for req, row in sorted(out.items())}
