"""Inputs, requests and answer checks for the three benchmark workloads.

Everything here is independent of the program under test: the graphs, the
graph6 encoder, the strong product, the closed forms and the strong-generator
check are written out again, so a change to ``strongdim`` can neither alter a
workload's inputs nor vouch for its own answers.  The program is reached only
through the argument lists built here, as a user would type them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("product-large", "cover-search", "verify-suite")
DEFAULT_SEED = 42

# Per-request cost of each workload when the benchmark was calibrated (the
# program at the commit that added the benchmark, on a 2-vCPU Intel Xeon
# virtual machine).  They fix how many requests a run of --seconds holds; the
# count then stays the same on every later commit, so a faster program
# finishes the same work sooner instead of doing more of it.
PRODUCT_PASS_S = 8.8
COVER_RANDOM_S = 0.1
COVER_FIXED_S = 6.8
VERIFY_REQUEST_S = 2.0
MIN_TAIL_REQUESTS = 11  # the tail needs at least ten requests beyond it

# product-large: (first factor, second factor).  Every SR cover here is
# trivial; time goes into distance balls, the SR graph and the generator check.
PRODUCT_LADDER = (
    (("path", 30), ("path", 30)),
    (("path", 18), ("path", 48)),
    (("cycle", 12), ("path", 50)),
    (("complete", 6), ("path", 60)),
    (("cycle", 21), ("path", 8)),
)

# cover-search: G(n, m) for the seeded random graphs.  One order and one
# size, whose cost varies little from graph to graph, so that the percentiles
# of a run do not hang on a few hard draws (with G(n, p) the edge count varied
# by about 5%, and sparser draws cost more); the time of each goes mostly into
# the exact cover of its SR graph.
COVER_N, COVER_M = 100, 396  # density .08
C3_C41_DIM = 5 * 20 + 3  # dim_s(C3 x C_{2t+1}) = 5t + 3 at t = 20

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
GOLDEN_REPORT = os.path.join(EXPECTED_DIR, "verify-all-seed42.json")
COVER_VALUES = os.path.join(EXPECTED_DIR, "cover-search-seed42.json")


@dataclass
class Request:
    label: str
    argv: list[str]
    expect_rc: int
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graphs (adjacency as a list of neighbour sets)
# ---------------------------------------------------------------------------


def path(n):
    return [{v for v in (u - 1, u + 1) if 0 <= v < n} for u in range(n)]


def cycle(n):
    return [{(u - 1) % n, (u + 1) % n} for u in range(n)]


def complete(n):
    return [set(range(n)) - {u} for u in range(n)]


FAMILIES = {"path": path, "cycle": cycle, "complete": complete}
LETTER = {"path": "P", "cycle": "C", "complete": "K"}


def strong_product(g, h):
    """Vertex (u, v) is u * |h| + v; the row-major order graph6 users expect."""
    n2 = len(h)
    adj = []
    for u in range(len(g)):
        gu = g[u] | {u}
        for v in range(n2):
            hv = h[v] | {v}
            adj.append({x * n2 + y for x in gu for y in hv} - {u * n2 + v})
    return adj


def is_connected(adj):
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def random_connected(n, m, rng):
    """G(n, m) draws from ``rng``, rejected until connected."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        adj = [set() for _ in range(n)]
        for u, v in rng.sample(pairs, m):
            adj[u].add(v)
            adj[v].add(u)
        if is_connected(adj):
            return adj


def edge_count(adj):
    return sum(len(nbrs) for nbrs in adj) // 2


def graph6(adj):
    """Standard graph6: order header, then the upper triangle column by column."""
    n = len(adj)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    acc = nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (u in adj[v])
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def short_hash(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def product_requests(seed, seconds):
    """The ladder, repeated in an order drawn from the seed.

    Factors keep their natural labels: relabeling them turns the trivial SR
    covers of these products into real searches, which is not this workload.
    """
    ladder = []
    for (kg, ng), (kh, nh) in PRODUCT_LADDER:
        g, h = FAMILIES[kg](ng), FAMILIES[kh](nh)
        ladder.append(Request(
            label=f"{LETTER[kg]}{ng}x{LETTER[kh]}{nh}",
            argv=["product", "strong", graph6(g), graph6(h), "--dim-s",
                  "--format", "json"],
            expect_rc=0,
            meta={"g": (kg, ng), "h": (kh, nh), "n": ng * nh,
                  "m": edge_count(strong_product(g, h))},
        ))
    repeats = max(-(-MIN_TAIL_REQUESTS // len(ladder)), round(seconds / PRODUCT_PASS_S))
    requests = ladder * repeats
    random.Random(f"product-large:{seed}").shuffle(requests)
    return requests


def cover_requests(seed, seconds):
    """C5xP60 and C3xC41 as plain graph6, then seeded random graphs."""
    fixed = [("C5xP60", strong_product(cycle(5), path(60))),
             ("C3xC41", strong_product(cycle(3), cycle(41)))]
    count = max(MIN_TAIL_REQUESTS - len(fixed),
                round((seconds - COVER_FIXED_S) / COVER_RANDOM_S))
    rng = random.Random(f"cover-search:{seed}")
    graphs = list(fixed)
    for i in range(count):
        graphs.append((f"G({COVER_N},{COVER_M})#{i}", random_connected(COVER_N, COVER_M, rng)))
    requests = []
    for label, adj in graphs:
        g6 = graph6(adj)
        requests.append(Request(
            label=label,
            argv=["compute", "dim-s", g6, "--format", "json"],
            expect_rc=0,
            meta={"adj": adj, "n": len(adj), "m": edge_count(adj), "key": short_hash(g6)},
        ))
    return requests


def verify_requests(seed, seconds, out_dir):
    """``verify all`` on distinct corpus seeds; the first is the run seed itself."""
    rng = random.Random(f"verify-suite:{seed}")
    count = max(MIN_TAIL_REQUESTS, round(seconds / VERIFY_REQUEST_S))
    seeds = [seed]
    while len(seeds) < count:
        s = rng.randrange(1, 1 << 30)
        if s not in seeds:
            seeds.append(s)
    out = os.path.join(out_dir, f"verify-report-{os.getpid()}.json")
    return [
        Request(
            label=f"verify-all-seed{s}",
            argv=["verify", "all", "--seed", str(s), "--out", out],
            expect_rc=2,
            meta={"verify_seed": s, "out": out},
        )
        for s in seeds
    ]


def build(workload, seed, seconds, out_dir):
    if workload == "product-large":
        return product_requests(seed, seconds)
    if workload == "cover-search":
        return cover_requests(seed, seconds)
    if workload == "verify-suite":
        return verify_requests(seed, seconds, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# answers: reduced right after each request, checked after the timed section
# ---------------------------------------------------------------------------


def digest(req, stdout):
    """The part of one answer that is checked and fingerprinted."""
    if req.argv[0] == "product":
        doc = json.loads(stdout)
        return {"n": doc["n"], "m": doc["m"], "dim_s": doc["dim_s"],
                "basis_size": len(doc["basis"]), "sr_edges": len(doc["sr_edges"])}
    if req.argv[0] == "compute":
        doc = json.loads(stdout)
        return {"n": doc["n"], "m": doc["m"], "value": doc["value"],
                "witness": doc["witness"]}
    with open(req.meta["out"], "rb") as fh:
        report = fh.read()
    os.remove(req.meta["out"])
    doc = json.loads(report)
    return {"report_sha256": hashlib.sha256(report).hexdigest(),
            "statuses": {c["claim_id"]: c["status"] for c in doc["claims"]},
            "report": report if req.meta["verify_seed"] == DEFAULT_SEED else None}


def fingerprint_of(req, answer):
    """Deterministic, hardware-independent summary of one answer."""
    if req.argv[0] == "product":
        return dict(answer)
    if req.argv[0] == "compute":
        return {"n": answer["n"], "value": answer["value"],
                "witness": short_hash(",".join(map(str, answer["witness"])))}
    return {"verify_seed": req.meta["verify_seed"], "report": answer["report_sha256"][:16]}


def _product_closed_form(g, h):
    """(lower, upper) for dim_s(G x H) from the paper's closed forms, H a path."""
    (kg, n1), (kh, n2) = g, h
    if kh != "path":
        raise ValueError(f"no closed form wired for second factor {kh}")
    dim_h = 1  # dim_s(P_n) = 1
    if kg == "path":  # tree_factor with 2 leaves
        exact = n2 * (2 - 1) + n1 * dim_h - (2 - 1) * dim_h
    elif kg == "complete":  # complete_factor
        exact = n2 * (n1 - 1) + n1 * dim_h - (n1 - 1) * dim_h
    elif kg == "cycle" and n1 % 2 == 0:  # antipodal_factor (even cycles are 2-antipodal)
        exact = n2 * n1 // 2 + n1 * dim_h - (n1 // 2) * dim_h
    elif kg == "cycle":  # odd_cycle_lower / odd_cycle_upper, n1 = 2r + 1
        r = n1 // 2
        return n2 * (r + 1) + r * (dim_h - 1), n2 * (r + 1) + r * dim_h
    else:
        raise ValueError(f"no closed form wired for first factor {kg}")
    return exact, exact


def _shortest_path_masks(adj, w):
    """For each v, the bitmask of vertices on some shortest w-v path."""
    n = len(adj)
    dist = [-1] * n
    dist[w] = 0
    on = [0] * n
    on[w] = 1 << w
    order = [w]
    for u in order:  # BFS order: every parent of u is final before u is read
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                on[v] = 1 << v
                order.append(v)
            if dist[v] == dist[u] + 1:
                on[v] |= on[u]
    return on


def is_strong_generator(adj, members):
    """w strongly resolves u, v iff u lies on a shortest w-v path or v on a
    shortest w-u path; every pair needs some member that does."""
    n = len(adj)
    reach = [0] * n  # reach[v]: vertices on a shortest path from a member to v
    for w in set(members):
        for v, mask in enumerate(_shortest_path_masks(adj, w)):
            reach[v] |= mask
    full = (1 << n) - 1
    back = [0] * n  # back[u]: vertices v with u in reach[v]
    for v, mask in enumerate(reach):
        bit = 1 << v
        while mask:
            low = mask & -mask
            back[low.bit_length() - 1] |= bit
            mask ^= low
    return all((reach[v] | back[v]) == full for v in range(n))


def load_cover_values():
    with open(COVER_VALUES, encoding="ascii") as fh:
        return json.load(fh)


def check(req, answer, cover_values=None):
    """Return why an answer is wrong, or None when it checks out."""
    if req.argv[0] == "product":
        lo, hi = _product_closed_form(req.meta["g"], req.meta["h"])
        if (answer["n"], answer["m"]) != (req.meta["n"], req.meta["m"]):
            return f"product has n={answer['n']} m={answer['m']}, want {req.meta['n']} {req.meta['m']}"
        if not lo <= answer["dim_s"] <= hi:
            return f"dim_s={answer['dim_s']} outside closed form [{lo}, {hi}]"
        if answer["basis_size"] != answer["dim_s"]:
            return f"basis has {answer['basis_size']} vertices, dim_s={answer['dim_s']}"
        return None
    if req.argv[0] == "compute":
        witness = answer["witness"]
        if (answer["n"], answer["m"]) != (req.meta["n"], req.meta["m"]):
            return f"graph read as n={answer['n']} m={answer['m']}"
        if len(set(witness)) != answer["value"]:
            return f"witness has {len(set(witness))} vertices, value={answer['value']}"
        if req.label == "C3xC41" and answer["value"] != C3_C41_DIM:
            return f"dim_s(C3xC41)={answer['value']}, want {C3_C41_DIM}"
        if cover_values is not None:
            want = cover_values.get(req.meta["key"])
            if want is not None and answer["value"] != want:
                return f"value={answer['value']}, recorded {want}"
        if not is_strong_generator(req.meta["adj"], witness):
            return "witness is not a strong generator"
        return None
    statuses = answer["statuses"]
    bad = {cid: st for cid, st in statuses.items() if st != "all_passed"}
    if len(statuses) != 22 or bad != {"cor-cgraphs-v": "counterexample"}:
        return f"unexpected claim statuses {bad} over {len(statuses)} claims"
    if answer["report"] is not None:
        with open(GOLDEN_REPORT, "rb") as fh:
            if fh.read() != answer["report"]:
                return "seed-42 report differs from the stored golden report"
    return None
