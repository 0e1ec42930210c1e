"""Command-line front door: compute invariants, build products, verify claims.

Graphs come from the ``family:params`` mini-language (``cycle:7``,
``kpartite:2,2,3``, ``grid:3x4``, ...), from raw graph6 strings, from files
(``@path``), or from stdin (``-``, one graph6 per line).

Exit codes for ``verify``: 0 all claims passed, 2 a counterexample was found,
3 a solver budget left a claim inconclusive.  Other errors, usage errors
among them, exit 1 with a single-line ``error: ...`` message; a run that
exhausts memory prints ``error: out of memory``.

Each shell call is a fresh process, so the import is part of every request.
``compute`` and ``product`` load only the code they run: the claim verifier
(``strongdim.verify``, with ``dataclasses`` and ``csv``) is imported by
``verify`` alone, and the parser holds no copy of its corpus defaults.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cover as cov
from . import dimension as dim
from . import graph as gr
from . import products as pr
from . import resolving as rs
from .graph import Graph
from .jsonout import EdgeList, to_json
from .metrics import is_connected


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other errors, not 2, ``verify``'s counterexample code."""

    def error(self, message):
        raise CliError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse leaves an optional positional empty when an option follows the one
        # before it: take a graph source left over after the options, if any
        ns, extra = super().parse_known_args(args, namespace)
        if extra and getattr(ns, "graph", "") is None:
            if extra[0] == "-" or not extra[0].startswith("-"):  # "-" is stdin
                ns.graph = extra.pop(0)
        return ns, extra


def _node_budget(text: str) -> int:
    """The ``--node-budget`` type: a count of search nodes, 0 or more."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"{budget} is below 0")
    return budget


def _graph6_lines(text: str, empty: str) -> list[Graph]:
    """One graph per nonblank line of ``text``; ``empty`` is the error for none."""
    graphs = [gr.from_graph6(ln) for ln in map(str.strip, text.splitlines()) if ln]
    if not graphs:
        raise CliError(empty)
    return graphs


def _load_graphs(source: str | None) -> list[Graph]:
    """Resolve a graph source argument to one or more graphs; stdin for none or "-"."""
    if source is None or source == "-":
        return _graph6_lines(sys.stdin.read(), "no graph6 input on stdin")
    if source.startswith("@"):
        with open(source[1:], "r", encoding="ascii") as fh:
            return _graph6_lines(fh.read(), f"no graph6 lines in {source[1:]}")
    if ":" in source:
        return [gr.generate(source)]
    return [gr.from_graph6(source)]


def _load_one(source: str) -> Graph:
    graphs = _load_graphs(source)
    if len(graphs) != 1:
        raise CliError("expected exactly one graph for this command")
    return graphs[0]


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _compute_one(what: str, g: Graph, budget: int) -> dict:
    out: dict = {"what": what, "n": g.n, "m": g.num_edges}
    if what == "dim-s":
        # a row-major strong product of connected factors takes the factor route
        factors = pr.strong_factors(g)
        if factors and all(map(is_connected, factors)):
            res = dim.product_dimension("strong", *factors, budget)
        else:
            res = dim.strong_metric_dimension(g, budget)
        out["value"] = res.dim
        out["witness"] = sorted(res.basis)
    elif what == "sr-graph":
        srg = rs.strong_resolving_graph(g)
        out["value"] = srg.sr.num_edges
        out["graph6"] = gr.to_graph6(srg.sr)
        out["edges"] = EdgeList(srg.sr.adj, range(g.n))
    elif what == "alpha":
        witness = cov.min_vertex_cover(g, budget).exact().witness
        out["value"] = len(witness)
        out["witness"] = sorted(witness)
    elif what == "beta":
        witness = cov.max_independent_set(g, budget)
        out["value"] = len(witness)
        out["witness"] = sorted(witness)
    elif what == "boundary":
        members = rs.boundary(g)
        out["value"] = len(members)
        out["witness"] = sorted(members)
    elif what == "theta":
        theta, parts = cov.clique_cover_number(g, budget)
        out["value"] = theta
        out["parts"] = [list(gr.bits(p)) for p in parts]
    return out


def _emit_compute(args, results: list[dict]) -> None:
    if args.format == "json":
        payload = results[0] if len(results) == 1 else results
        print(to_json(payload))
    else:
        for res in results:
            value = res["value"]
            extra = ""
            if "witness" in res:
                extra = " witness=" + ",".join(str(v) for v in res["witness"])
            print(f"{res['what']} = {value}{extra}")


def cmd_compute(args) -> int:
    if args.format == "dot" and args.what != "sr-graph":
        raise CliError("dot output is only available for sr-graph")
    if args.gen is not None and args.graph is not None:
        raise CliError(f"two graph sources, {args.graph!r} and --gen {args.gen!r}; give one")
    graphs = _load_graphs(args.graph) if args.gen is None else [gr.generate(args.gen)]
    if args.format == "dot":
        srgs = [rs.strong_resolving_graph(g) for g in graphs]
        for srg in srgs:
            sys.stdout.write(gr.to_dot(srg.sr, name="SR"))
        return 0
    results = [_compute_one(args.what, g, args.node_budget) for g in graphs]
    _emit_compute(args, results)
    return 0


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


_KIND_ALIASES = {
    "strong": "strong",
    "cartesian": "cartesian",
    "box": "cartesian",
    "lex": "lexicographic",
    "lexicographic": "lexicographic",
    "sum": "cartesian_sum",
    "cartesian_sum": "cartesian_sum",
}


def cmd_product(args) -> int:
    kind = _KIND_ALIASES.get(args.kind)
    if kind is None:
        raise CliError(f"unknown product kind {args.kind!r}")
    if args.dim_s and args.format == "dot":
        raise CliError("dot output is not available with --dim-s")
    g = _load_one(args.g)
    h = _load_one(args.h)
    sr = None
    if args.dim_s:  # the result carries the product its basis is on
        res = dim.product_dimension(kind, g, h, args.node_budget)
        prod, sr = res.graph, res.sr
    else:
        prod = pr.product(kind, g, h)
        if args.sr and args.format != "dot":  # DOT output shows the product alone
            sr = dim.product_sr_graph(kind, g, h)
    labels = pr.coordinate_labels(g.n, h.n)
    out: dict = {
        "kind": kind,
        "n": prod.n,
        "m": prod.num_edges,
        "graph6": gr.to_graph6(prod),
    }
    if sr is not None:
        out["sr_graph6"] = gr.to_graph6(sr)
        out["sr_edges"] = EdgeList(sr.adj, labels)
    if args.dim_s:
        out["dim_s"] = res.dim
        out["basis"] = [labels[v] for v in sorted(res.basis)]
    if args.format == "json":
        print(to_json(out))
    elif args.format == "dot":
        sys.stdout.write(gr.to_dot(prod, labels=labels))
    else:
        print(f"{kind} product: n={out['n']} m={out['m']} graph6={out['graph6']}")
        if "dim_s" in out:
            print(f"dim_s = {out['dim_s']} basis = {'; '.join(out['basis'])}")
        elif "sr_graph6" in out:
            print(f"sr graph6 = {out['sr_graph6']} ({sr.num_edges} edges)")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from . import verify as vf  # the claim verifier loads only for this command

    if (args.r is None) != (args.t is None):
        raise CliError("--r and --t must be given together")
    if args.r is not None and min(args.r, args.t) < 1:
        raise CliError("--r and --t must be at least 1")
    if args.r is not None and args.r > args.t:
        raise CliError(f"--r {args.r} is above --t {args.t}; the odd-odd claims need r <= t")
    try:
        spec = vf.CorpusSpec(
            **{field: getattr(args, field) for field in args.corpus_options
               if hasattr(args, field)},
            odd_odd_fixed=(args.r, args.t) if args.r is not None else None,
        )
    except ValueError as exc:  # the spec names its field; the user typed the option
        field, _, rest = str(exc).partition(" ")
        if field not in args.corpus_options:
            raise
        raise CliError(f"{args.corpus_options[field]} {rest}") from exc
    corpus = vf.Corpus(spec)
    ids = None if args.claim == "all" else [args.claim]
    reports = vf.run_suite(corpus, ids)
    text = vf.suite_to_json(reports, spec, include_timing=args.timings)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(vf.suite_to_csv(reports))
    for rep in reports:
        print(
            f"{rep.claim_id}: {rep.status} "
            f"(checked={rep.instances_checked} skipped={rep.skipped})",
            file=sys.stderr,
        )
    return vf.suite_exit_code(reports)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="strongdim",
        description="Exact strong metric dimension toolkit and claim verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute an invariant of one graph")
    p_compute.add_argument(
        "what",
        choices=["dim-s", "sr-graph", "alpha", "beta", "boundary", "theta"],
    )
    p_compute.add_argument("graph", nargs="?", help="graph6, @file, '-' or family:params")
    p_compute.add_argument("--gen", help="generator spec, e.g. cycle:7")
    p_compute.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_compute.add_argument("--node-budget", type=_node_budget, default=cov.DEFAULT_NODE_BUDGET)
    p_compute.set_defaults(fn=cmd_compute)

    p_product = sub.add_parser("product", help="build a product of two graphs")
    p_product.add_argument("kind", help="strong | cartesian | lex | sum")
    p_product.add_argument("g")
    p_product.add_argument("h")
    p_product.add_argument("--sr", action="store_true", help="also compute the SR graph")
    p_product.add_argument("--dim-s", action="store_true", help="also compute dim_s")
    p_product.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_product.add_argument("--node-budget", type=_node_budget, default=cov.DEFAULT_NODE_BUDGET)
    p_product.set_defaults(fn=cmd_product)

    p_verify = sub.add_parser("verify", help="run claim verification")
    p_verify.add_argument("claim", help="claim id or 'all'")
    # each corpus option's dest is its CorpusSpec field; one not given stays
    # out of the namespace, so the spec's own field default applies
    unset = argparse.SUPPRESS
    corpus = [
        p_verify.add_argument("--seed", type=int, default=unset),
        p_verify.add_argument("--exhaustive-n", type=int, default=unset),
        p_verify.add_argument("--samples", type=int, default=unset,
                              dest="samples_per_n", metavar="SAMPLES"),
        p_verify.add_argument("--pair-samples", type=int, default=unset),
        p_verify.add_argument("--max-product", type=int, default=unset),
        p_verify.add_argument("--t-max", type=int, default=unset),
        p_verify.add_argument("--odd-odd-max", type=int, default=unset),
    ]
    p_verify.add_argument("--r", type=int, help="restrict odd-odd claims to one r")
    p_verify.add_argument("--t", type=int, help="restrict odd-odd claims to one t")
    corpus.append(p_verify.add_argument(
        "--node-budget", type=_node_budget, default=unset))
    p_verify.add_argument("--timings", action="store_true",
                          help="include elapsed_ms in the JSON report")
    p_verify.add_argument("--out", help="write the JSON report to a file")
    p_verify.add_argument("--csv", help="write a one-row-per-claim CSV summary")
    p_verify.set_defaults(fn=cmd_verify, corpus_options={
        action.dest: action.option_strings[0] for action in corpus})
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the frames that held the memory are gone by now
        print("error: out of memory", file=sys.stderr)
        return 1
    except cov.BudgetExhausted as exc:
        print(f"error: budget-exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
