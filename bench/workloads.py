"""The four seeded workloads: inputs, the timed op, and the answer check.

Inputs come in rounds.  A round is a fixed list of strata (class and
size, or construction and size); the seed and the round number choose only
the random structure inside each stratum, so every round of every seed has
the same mix of work.  ``build_round(seed, r)`` is deterministic.

``op(ctx, item)`` is the timed unit of user work.  It returns the library's
answer, or raises.  Documented outcomes that arrive as exceptions are
caught inside the op and returned.  ``check(item, out)`` runs outside the
timed region and returns None, or the reason the answer is wrong.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import oddholes as oh
import reference as ref

# Per-op budgets, far above the seed's slowest op of each kind, so that a
# runaway op ends as a counted failure instead of a hung run.
OP_BUDGET_S = 30.0
VERIFY_TIMEOUT_S = 10.0  # verify_graph applies it per property


class BudgetExceeded(Exception):
    """verify_graph reported a timeout: the op ran past its budget."""


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: Callable[[int, int], list]
    op: Callable
    check: Callable
    trace_rounds: int  # rounds in the fixed op set of a traced run
    # The percentile latency_tail_ms reports: the highest with at least ten
    # ops beyond it in a baseline run, fixed so that every commit is compared
    # at the same one; members uses p80, as its p90 is not steady (README).
    tail_percentile: float


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def _gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) by geometric skips over the pairs (w, v), w < v (Batagelj and
    Brandes), so that sparse graphs cost time linear in their edges."""
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def _relabel(n: int, edges, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in edges]


def _connected_bipartite(n: int, degree: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree plus random chords, all between the two sides of a
    fixed bipartition (vertex parity)."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(1 - v % 2, v, 2)  # an earlier vertex of the other parity
        edges.add((u, v))
    while len(edges) < degree * n / 2:
        u, v = rng.randrange(0, n, 2), rng.randrange(1, n, 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _connected_sparse(n: int, degree: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree plus random chords up to the given average degree."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < degree * n / 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


# ---------------------------------------------------------------------------
# members: generate_member -> to_graph6 -> parse_graph6 -> verify_graph

# (family, ell, n, average degree c); density is c / n.  Cost rises
# steeply with n and density, and a few graphs of every stratum cost ten
# times its mean, so the average degree falls from 5 at n = 50 to 3 at
# n = 64-80, and the cheaper, steadier strata are drawn twice, which keeps
# the run's tail latency steadier across seeds.  At c = 4, one B3 graph of
# n = 80 costs 0.1 s and the next 17 s, and G2 and A3 at n >= 64 reach
# 2.5-5 s: a single graph would decide a run.  G2 and B3 stop at the exact
# oracle's 64-vertex cap: above it, verify_graph fails with
# OracleCapExceeded on every G2 member and on every B3 member without a
# 7-hole (a known defect), so those sizes run in the separate ``overcap``
# workload, where the failures are counted, and not here, where every op
# must succeed.
MEMBER_STRATA = (  # a stratum listed twice is drawn twice per round
    ("G", 2, 60, 3.5), ("G", 2, 64, 3.0),
    ("A", 3, 50, 5.0), ("A", 3, 56, 4.0), ("A", 3, 56, 4.0), ("A", 3, 60, 3.5),
    ("A", 3, 60, 3.5), ("A", 3, 66, 3.5), ("A", 3, 80, 3.0),
    ("B", 3, 56, 4.0), ("B", 3, 64, 3.0), ("B", 3, 64, 3.0),
    ("F", 2, 50, 3.5), ("F", 2, 56, 3.0), ("F", 2, 56, 3.0),
)
# Members above the oracle cap: every G2 op and about half the B3 ops fail
# with OracleCapExceeded at the seed.
OVERCAP_STRATA = (("G", 2, 66, 3.0), ("B", 3, 72, 3.0), ("B", 3, 72, 3.0))


def _members_round(workload: str, strata, seed: int, r: int) -> list:
    rng = _rng(workload, seed, r)
    return [
        oh.GenSpec(oh.ClassSpec(f, ell), n, c / n, rng.getrandbits(32))
        for f, ell, n, c in strata
    ]


members_round = functools.partial(_members_round, "members", MEMBER_STRATA)
overcap_round = functools.partial(_members_round, "overcap", OVERCAP_STRATA)


def members_op(ctx, spec):
    res = ctx.call("generate.generate_member", oh.generate_member, spec,
                   ctx.deadline("generate", OP_BUDGET_S))
    ctx.count("generate.attempts", res.attempts)
    ctx.count("generate.added", res.added)
    text = ctx.call("graph.to_graph6", oh.to_graph6, res.graph)
    g = ctx.call("graph.parse_graph6", oh.parse_graph6, text)
    ctx.count("graph.parse_bytes", len(text))
    record = ctx.call("verify.verify_graph", oh.verify_graph, g, oh.corpus_filename(spec),
                      spec.cspec, VERIFY_TIMEOUT_S)
    for prop in record.properties:
        ctx.count(f"verify.prop.{prop.name}_s", prop.elapsed_s)
        ctx.count(f"verify.status.{prop.status}")
    statuses = [record.membership_status] + [prop.status for prop in record.properties]
    if "timeout" in statuses:
        raise BudgetExceeded(f"verify_graph timed out ({VERIFY_TIMEOUT_S} s per check)")
    return res, text, g, record


def members_check(spec, out) -> str | None:
    res, text, g, record = out
    adj = ref.adjacency(res.graph.n, res.graph.edges())
    if text.encode() != ref.graph6(adj):
        return "to_graph6 disagrees with the reference encoder"
    if ref.adjacency(g.n, g.edges()) != adj:
        return "parse_graph6 did not return the encoded graph"
    if not ref.is_member(adj, spec.cspec.family, spec.cspec.ell):
        return "generate_member returned a non-member"
    if record.member is not True:
        return "verify_graph rejected a member"
    for prop in record.properties:
        if prop.status in ("fail", "error"):
            return f"verify property {prop.name}: {prop.status}"
    return None


# ---------------------------------------------------------------------------
# rejects: parse_graph6 -> class_membership -> witness_violates

CLASSES = (("G", 2), ("A", 3), ("B", 3), ("F", 2))
REJECT_SIZES = (100, 200, 300, 400)
REJECT_DEGREES = (1.5, 2.5, 4.0)
# Planted odd holes: the length scan of find_long_odd_hole grows about as
# L**3 (C151 ~2 s at the seed), so the lengths stop at 151.  A round holds
# 12 random graphs and the 5 planted holes, so that at any run length the
# p90 latency is one of the C121 ops.
PLANTED_LENGTHS = (31, 61, 91, 121, 151)


@dataclass(frozen=True)
class Reject:
    g6: bytes
    family: str
    ell: int
    adj: list
    planted: frozenset | None


def rejects_round(seed: int, r: int) -> list:
    rng = _rng("rejects", seed, r)
    items = []
    for n in REJECT_SIZES:
        for c in REJECT_DEGREES:
            adj = ref.adjacency(n, _gnp(n, c / n, rng))
            items.append(Reject(ref.graph6(adj), *rng.choice(CLASSES), adj, None))
    for length in PLANTED_LENGTHS:
        # An odd cycle carrying pendant trees: the cycle is the only one.
        n = 2 * length
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges += [(rng.randrange(v), v) for v in range(length, n)]
        perm, edges = _relabel(n, edges, rng)
        adj = ref.adjacency(n, edges)
        planted = frozenset(perm[i] for i in range(length))
        items.append(Reject(ref.graph6(adj), *rng.choice(CLASSES), adj, planted))
    return items


def rejects_op(ctx, item: Reject):
    g = ctx.call("graph.parse_graph6", oh.parse_graph6, item.g6)
    cspec = oh.ClassSpec(item.family, item.ell)
    verdict = ctx.call("holes.class_membership", oh.class_membership, g, cspec,
                       ctx.deadline("holes", OP_BUDGET_S))
    certified = verdict.member or ctx.call(
        "holes.witness_violates", oh.witness_violates, g, verdict.witness, cspec)
    ctx.count("graph.parse_bytes", len(item.g6))
    return verdict, certified


def rejects_check(item: Reject, out) -> str | None:
    verdict, certified = out
    if verdict.member:
        if item.planted is not None or not ref.is_member(item.adj, item.family, item.ell):
            return "class_membership accepted a non-member"
        return None
    cycle = verdict.witness.cycle
    if not certified:
        return "witness_violates rejected the library's own witness"
    if any(cycle[i - 1] not in item.adj[cycle[i]] for i in range(len(cycle))):
        return "witness is not a cycle of the graph"
    induced = ref.is_induced_cycle(item.adj, cycle)
    if not ref.violating_cycle_length(len(cycle), induced, item.family, item.ell):
        return "witness does not violate the class"
    if item.planted is not None and (set(cycle) != item.planted or not induced):
        return "witness is not the planted hole"
    return None


# ---------------------------------------------------------------------------
# chromatic: chromatic_number + dsatur on n <= 64

# (n, p) of the random graphs, and Mycielskian towers (base, times
# applied).  A random base has its chi computed here by brute force;
# chi(M(G)) = chi(G) + 1.  Every stratum keeps its cost spread small enough
# that no single graph decides a run: dense graphs at n = 60 (p = 0.5 can
# take 6 s or more, p = 0.3 up to 1.5 s) and the 47-vertex M(M(M(C5)))
# (6 s) are left out.
CHROMATIC_RANDOM = (
    (30, 0.2), (30, 0.35), (30, 0.5), (40, 0.2), (40, 0.35), (40, 0.5),
    (45, 0.3), (45, 0.45), (50, 0.2), (50, 0.3), (55, 0.2), (60, 0.15),
)
MYCIELSKI_TOWERS = (("C5", 1), ("C5", 2), ("random12", 1), ("random8", 2))


@dataclass(frozen=True)
class Chroma:
    graph: object
    adj: list
    expected_chi: int | None


def _mycielskian(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    """Vertices 0..n-1, shadows n..2n-1 (shadow of i sees the neighbours of
    i), apex 2n adjacent to every shadow."""
    out = list(edges)
    out += [(u, n + v) for u, v in edges] + [(v, n + u) for u, v in edges]
    out += [(n + i, 2 * n) for i in range(n)]
    return 2 * n + 1, out


def chromatic_round(seed: int, r: int) -> list:
    rng = _rng("chromatic", seed, r)
    items = []
    for n, p in CHROMATIC_RANDOM:
        edges = _gnp(n, p, rng)
        items.append(Chroma(oh.Graph(n, edges), ref.adjacency(n, edges), None))
    for base, times in MYCIELSKI_TOWERS:
        if base == "C5":
            n, edges, chi = 5, [(i, (i + 1) % 5) for i in range(5)], 3
        else:
            n = int(base.removeprefix("random"))
            edges = _gnp(n, 0.5, rng)
            chi = ref.chromatic_number(ref.adjacency(n, edges))
        for _ in range(times):
            n, edges = _mycielskian(n, edges)
        _, edges = _relabel(n, edges, rng)
        items.append(Chroma(oh.Graph(n, edges), ref.adjacency(n, edges), chi + times))
    return items


def chromatic_op(ctx, item: Chroma):
    exact = ctx.call("exact.chromatic_number", oh.chromatic_number, item.graph,
                     deadline=ctx.deadline("exact", OP_BUDGET_S))
    greedy = ctx.call("coloring.dsatur", oh.dsatur, item.graph)
    ctx.count("exact.calls")
    ctx.count("exact.dsatur_gap", greedy.colors_used - exact.chi)
    return exact, greedy


def chromatic_check(item: Chroma, out) -> str | None:
    exact, greedy = out
    colouring = exact.coloring.assignment
    if not ref.is_proper(item.adj, colouring) or len(set(colouring.values())) != exact.chi:
        return "exact colouring is not proper with chi colours"
    if not ref.is_proper(item.adj, greedy.assignment):
        return "dsatur colouring is not proper"
    if not ref.greedy_clique(item.adj) <= exact.chi <= greedy.colors_used:
        return "chi lies outside [greedy clique, dsatur colours]"
    if item.expected_chi is not None and exact.chi != item.expected_chi:
        return f"chi {exact.chi} differs from the Mycielski value {item.expected_chi}"
    return None


# ---------------------------------------------------------------------------
# levelling: ceiling_path / floor_path, find_licking, weak_stabilize

# (kind, parity / gain / ell, n, average degree, graph shape).  A path op
# joins two vertices of the level with the most room: the shallowest level
# of two or more vertices for floor paths, the deepest for ceiling paths.
# Odd paths between two vertices of one level of a bipartite graph do not
# exist (every path between them has even length), so those six ops run
# the search to exhaustion and carry most of the round's time (1-90 ms each
# at n 30-36; at n = 60 up to 10 s).  The paths in general graphs are found
# about two times in three; most searches take under a millisecond, a few
# tens of milliseconds.  Lickings and stabilizations mostly take well
# under a millisecond.
LEVELLING_STRATA = (
    ("floor", "odd", 30, 3.0, "bipartite"), ("floor", "odd", 32, 3.0, "bipartite"),
    ("floor", "odd", 34, 2.5, "bipartite"),
    ("ceiling", "odd", 30, 2.5, "bipartite"), ("ceiling", "odd", 30, 3.0, "bipartite"),
    ("ceiling", "odd", 34, 2.5, "bipartite"),
    ("floor", "odd", 36, 3.0, "general"), ("floor", "even", 40, 3.0, "general"),
    ("ceiling", "odd", 36, 3.0, "general"),
    ("floor", "even", 60, 2.2, "general"), ("ceiling", "odd", 40, 2.5, "general"),
    ("licking", 1, 40, 4.0, None), ("licking", 2, 60, 6.0, None),
    ("stabilize", 2, 60, 5.0, None), ("stabilize", 3, 50, 5.0, None),
)


LICKING_CORE_CHI = 3


@dataclass(frozen=True)
class Level:
    kind: str
    param: object
    graph: object
    adj: list
    args: tuple  # the op's positional arguments after the graph


def _path_item(kind, parity, n, degree, shape, rng) -> Level:
    edges = (_connected_bipartite if shape == "bipartite" else _connected_sparse)(n, degree, rng)
    g = oh.Graph(n, edges)
    lv = oh.bfs_layers(g, rng.randrange(n))
    first = 1 if kind == "ceiling" else 0
    levels = [sorted(level) for level in lv.levels[first:] if len(level) >= 2]
    u, v = rng.sample(levels[-1] if kind == "ceiling" else levels[0], 2)
    return Level(kind, parity, g, ref.adjacency(n, edges), (lv, u, v))


def _licking_item(gain, n, degree, rng) -> Level:
    # Core: a connected bipartite graph plus the triangle 0-1-2, so chi(core)
    # is exactly 3 > gain * loss_rate.  Stick: an induced path whose tip
    # alone meets the core.
    stick_len = 2 + rng.randrange(3)
    k = n - stick_len
    core_edges = _connected_bipartite(k, degree, rng)
    core_edges = sorted(set(core_edges) | {(0, 1), (1, 2), (0, 2)})
    stick = list(range(k, n))
    edges = core_edges + list(zip(stick, stick[1:])) + [(stick[-1], rng.randrange(k))]
    perm, edges = _relabel(n, edges, rng)
    lp = oh.Lollipop(frozenset(perm[v] for v in range(k)), tuple(perm[v] for v in stick))
    return Level("licking", gain, oh.Graph(n, edges), ref.adjacency(n, edges), (lp,))


@functools.lru_cache(maxsize=1)
def _stabilize_graphs(seed: int) -> dict:
    """One class-B member per stabilize stratum, generated once per seed;
    each round levels them from a fresh root."""
    rng = _rng("levelling-members", seed, 0)
    return {
        (ell, n): oh.generate_member(oh.GenSpec(oh.ClassSpec("B", ell), n, c / n, rng.getrandbits(32))).graph
        for kind, ell, n, c, _ in LEVELLING_STRATA if kind == "stabilize"
    }


def _stabilize_item(ell, n, g, rng) -> Level:
    comp = max(oh.components(g), key=len)
    lv = oh.bfs_layers(g, rng.choice(comp))
    return Level("stabilize", ell, g, ref.adjacency(n, g.edges()), (lv,))


def levelling_round(seed: int, r: int) -> list:
    rng = _rng("levelling", seed, r)
    items = []
    for kind, param, n, degree, shape in LEVELLING_STRATA:
        if kind in ("ceiling", "floor"):
            items.append(_path_item(kind, param, n, degree, shape, rng))
        elif kind == "licking":
            items.append(_licking_item(param, n, degree, rng))
        else:
            items.append(_stabilize_item(param, n, _stabilize_graphs(seed)[param, n], rng))
    return items


def levelling_op(ctx, item: Level):
    dl = ctx.deadline("levelling", OP_BUDGET_S)
    if item.kind in ("ceiling", "floor"):
        fn = oh.ceiling_path if item.kind == "ceiling" else oh.floor_path
        path = ctx.call(f"levelling.{item.kind}_path", fn, item.graph, *item.args,
                        parity=item.param, deadline=dl)
        ctx.count("levelling.path_calls")
        ctx.count("levelling.paths_found", path is not None)
        return path
    if item.kind == "licking":
        lick = ctx.call("levelling.find_licking", oh.find_licking, item.graph, *item.args,
                        gain=item.param, loss_rate=1, deadline=dl)
        ctx.count("levelling.licking_calls")
        ctx.count("levelling.lickings_found", lick is not None)
        return lick
    try:
        return ctx.call("levelling.weak_stabilize", oh.weak_stabilize, item.graph, *item.args,
                        item.param, deadline=dl)
    except (oh.PreconditionViolated, oh.LickingExhausted) as exc:
        return exc


def _path_check(item: Level, path) -> str | None:
    lv, u, v = item.args
    level_of = lv.level_of()
    i = level_of[u]
    levels = lv.levels[:i] if item.kind == "ceiling" else lv.levels[i + 1:]
    shortest = ref.shortest_induced_path(item.adj, u, v, set().union(*levels), item.param)
    if path is None:
        # No such path is a documented outcome, when it is true.
        return None if shortest is None else f"no path returned, but one of {shortest} edges exists"
    if shortest is None or len(path) - 1 != shortest:
        return f"path of {len(path) - 1} edges, but the shortest has {shortest}"
    if path[0] != u or path[-1] != v or not ref.is_induced_path(item.adj, path):
        return "not an induced u-v path"
    if (len(path) - 1) % 2 != (0 if item.param == "even" else 1):
        return "path has the wrong parity"
    inside = (lambda j: j < i) if item.kind == "ceiling" else (lambda j: j > i)
    if not all(w in level_of and inside(level_of[w]) for w in path[1:-1]):
        return "path interior leaves the required levels"
    return None


def _licking_check(item: Level, lick) -> str | None:
    (lp,) = item.args
    adj, gain = item.adj, item.param
    if lick is None:
        # An exhausted search is a documented outcome, when it is true.
        if ref.licking_exists(adj, lp.core, lp.stick, gain, LICKING_CORE_CHI - gain):
            return "no licking returned, but one exists"
        return None
    err = ref.lollipop_error(adj, lick.core, lick.stick)
    if err is not None:
        return f"licking is not a lollipop: {err}"
    if not lick.core <= lp.core or tuple(lick.stick[: len(lp.stick)]) != tuple(lp.stick):
        return "licking does not refine the lollipop"
    if not set(lick.stick) <= set(lp.stick) | lp.core:
        return "licking stick leaves the allowed vertices"
    if ref.cleanliness(adj, lick.core, lick.stick) < ref.cleanliness(adj, lp.core, lp.stick) + gain:
        return "cleanliness did not rise by the gain"
    if not ref.chi_at_least(adj, lick.core, LICKING_CORE_CHI - gain):
        return "chromatic loss above gain * loss_rate"
    return None


def _stabilize_check(item: Level, out) -> str | None:
    (lv,) = item.args
    ell = item.param
    if isinstance(out, oh.LickingExhausted):
        return None  # documented outcome, reported rather than ignored
    if isinstance(out, oh.PreconditionViolated):
        w = out.witness
        induced = ref.is_induced_cycle(item.adj, w.cycle)
        if not ref.violating_cycle_length(len(w.cycle), induced, "B", ell):
            return "precondition witness does not violate class B"
        return None
    levels = [sorted(level) for level in out.levels]
    err = ref.levelling_error(item.adj, levels)
    if err is not None:
        return f"output is not a levelling: {err}"
    if not ref.is_weak_stable(item.adj, levels):
        return "output is not weak-stable"
    lhs = 2 * ref.chromatic_number(item.adj, levels[-1])
    if lhs < ref.chromatic_number(item.adj, lv.levels[-1]) - 2 * ell + 2:
        return "last level lost too much chromatic number"
    return None


def levelling_check(item: Level, out) -> str | None:
    if item.kind in ("ceiling", "floor"):
        return _path_check(item, out)
    if item.kind == "licking":
        return _licking_check(item, out)
    return _stabilize_check(item, out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("members", members_round, members_op, members_check, 3, 80.0),
        Workload("rejects", rejects_round, rejects_op, rejects_check, 2, 90.0),
        Workload("chromatic", chromatic_round, chromatic_op, chromatic_check, 15, 99.0),
        Workload("levelling", levelling_round, levelling_op, levelling_check, 80, 99.0),
        Workload("overcap", overcap_round, members_op, members_check, 3, 80.0),
    )
}
