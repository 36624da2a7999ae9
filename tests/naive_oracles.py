"""Independent brute-force oracles used only by the tests.

These deliberately share no code with the package's search routines: the
cycle enumerator checks every vertex subset, and the chromatic oracle
enumerates raw color assignments.  The queue-over-sets breadth-first
search, the set-based induced-cycle search, the sweeping 2-core, the
recursive k-colorability search, the set-based DSATUR, the four-check
edge test, the all-roots girth, the all-anchor fixed-length cycle search
and the pairwise chordless-cycle test are the package's earlier
implementations, kept as references for the order and the results of
their replacements.  The four-check edge test and the all-anchor search
run the package's induced-cycle engine: they check how the work splits
into cases and anchor pools, not the engine.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product
from typing import Iterable, Iterator

from oddholes import ClassSpec, Coloring, Graph, is_bipartite_subset
from oddholes.graph import vertex_mask
from oddholes.holes import induced_cycle_search
from oddholes.util import Deadline, check_deadline


def set_bfs_distances(
    g: Graph, sources: Iterable[int], within: set[int] | frozenset[int] | None = None
) -> dict[int, int]:
    """Distances from the nearest source, restricted to ``within`` if given,
    by a queue over vertex sets."""
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sources:
        if (within is None or s in within) and s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist and (within is None or w in within):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def naive_induced_cycles(g: Graph, max_len: int) -> set[tuple[int, ...]]:
    """All induced cycles up to max_len by checking every vertex subset."""
    out: set[tuple[int, ...]] = set()
    for size in range(3, max_len + 1):
        for sub in combinations(range(g.n), size):
            inside = set(sub)
            if any(len(g.neighbors(v) & inside) != 2 for v in sub):
                continue
            start = min(sub)
            prev, cur = None, start
            seq = [start]
            while True:
                nbrs = sorted(g.neighbors(cur) & inside)
                nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
                if nxt == start:
                    break
                seq.append(nxt)
                prev, cur = cur, nxt
            if len(seq) == size:  # a single cycle, not two disjoint ones
                out.add(tuple(seq))
    return out


def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper assignment, by raw enumeration."""
    if g.n == 0:
        return 0
    edges = g.edges()
    for k in range(1, g.n + 1):
        # Fix the first vertex's color; colorings are color-permutable.
        for rest in product(range(k), repeat=g.n - 1):
            assign = (0,) + rest
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def planted_odd_hole(length: int, seed: int) -> tuple[Graph, frozenset[int]]:
    """An odd cycle carrying as many pendant-tree vertices, relabelled by a
    seeded permutation; returns the graph and the hole's vertex set."""
    rng = random.Random(seed)
    n = 2 * length
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(rng.randrange(v), v) for v in range(length, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), frozenset(perm[:length])


def all_roots_girth(g: Graph) -> int | None:
    """Girth by a whole-graph BFS from every vertex."""
    best: int | None = None
    for root in range(g.n):
        dist = {root: 0}
        parent: dict[int, int] = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if best is not None and dist[u] * 2 >= best:
                break
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def all_anchor_cycles_of_length(g: Graph, length: int) -> list[tuple[int, ...]]:
    """Induced cycles of one length from every anchor, pruned by
    whole-graph distances, sorted."""
    out = [
        cyc
        for s in range(g.n)
        for cyc in induced_cycle_search(g.neighbor_masks(), [s], floor=s, exact=length)
    ]
    return sorted(out, key=lambda c: (len(c), c))


def set_induced_cycle_search(
    g: Graph,
    path0: list[int],
    *,
    floor: int,
    max_len: int | None = None,
    exact: int | None = None,
    allowed: set[int] | frozenset[int] | None = None,
    dist: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Induced cycles extending ``path0`` in depth-first order, with path
    membership, chords and the pool tested on sets."""
    anchor = path0[0]
    anchor_adj = g.neighbors(anchor)
    if exact is not None and dist is None:
        dist = set_bfs_distances(g, [anchor])
    canonical = len(path0) == 1
    path = list(path0)
    stack = [(iter(sorted(g.neighbors(path[-1]))), path[1:-1])]
    while stack:
        candidates, interior = stack[-1]
        for w in candidates:
            if w <= floor or w in path:
                continue
            if allowed is not None and w not in allowed:
                continue
            if any(g.has_edge(w, x) for x in interior):
                continue
            length = len(path) + 1
            if len(path) >= 2 and w in anchor_adj:
                if exact is not None:
                    if length != exact:
                        continue
                elif max_len is not None and length > max_len:
                    continue
                if not canonical or path[1] < w:
                    yield tuple(path) + (w,)
                continue
            if exact is not None:
                d = dist.get(w)
                if length + 1 > exact or d is None or d > exact - length + 1:
                    continue
            elif max_len is not None and length + 1 > max_len:
                continue
            path.append(w)
            stack.append((iter(sorted(g.neighbors(w))), path[1:-1]))
            break
        else:
            stack.pop()
            path.pop()


def sweep_two_core(g: Graph, within: Iterable[int]) -> set[int]:
    """The 2-core of the subgraph induced on ``within``, by repeated sweeps."""
    core = set(within)
    changed = True
    while changed:
        changed = False
        for v in sorted(core):
            if len(g.neighbors(v) & core) <= 1:
                core.discard(v)
                changed = True
    return core


def pairwise_is_induced_cycle(g: Graph, cycle: Iterable[int]) -> bool:
    """Chordless-cycle test over all k(k-1)/2 vertex pairs of the sequence."""
    cyc = tuple(cycle)
    k = len(cyc)
    if k < 3 or len(set(cyc)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = (j - i == 1) or (i == 0 and j == k - 1)
            if g.has_edge(cyc[i], cyc[j]) != consecutive:
                return False
    return True


def four_check_edge_admissible(
    g_before: Graph, g_after: Graph, u: int, v: int, cspec: ClassSpec
) -> bool:
    """The generator's edge test as four separate checks: the u-v distance,
    exact 5- and 7-hole searches through the edge, a whole-graph
    bipartiteness test, then an odd-hole search in the 2-core of the
    edge's component."""
    d = set_bfs_distances(g_before, [u]).get(v)
    if d is not None and d + 1 < cspec.girth_min:
        return False
    for length, banned in ((5, cspec.forbids_five_hole), (7, cspec.forbids_seven_hole)):
        if banned and next(
            induced_cycle_search(g_after.neighbor_masks(), [u, v], floor=-1, exact=length), None
        ):
            return False
    if not is_bipartite_subset(g_after):
        comp = set(set_bfs_distances(g_after, [u]))
        core = sweep_two_core(g_after, comp)
        if u in core and v in core:
            for cyc in induced_cycle_search(
                g_after.neighbor_masks(), [u, v], floor=-1, max_len=len(core),
                allowed=vertex_mask(core),
            ):
                if len(cyc) % 2 == 1 and len(cyc) >= cspec.odd_hole_min:
                    return False
    return True


def recursive_is_k_colorable(
    g: Graph, k: int, deadline: Deadline | None = None
) -> Coloring | None:
    """DSATUR branch and bound with one recursive call per node and
    neighbor colors kept in sets."""
    n = g.n
    if n == 0:
        return Coloring({})
    if k == 0:
        return None
    if k >= n:
        return Coloring({v: v + 1 for v in range(n)})
    colors = [0] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))

    def pick() -> int:
        return max(uncolored, key=lambda v: (len(neighbor_colors[v]), g.degree(v), -v))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        uncolored.discard(v)
        touched = []
        for w in g.neighbors(v):
            if colors[w] == 0 and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                touched.append(w)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        for w in touched:
            neighbor_colors[w].discard(c)
        colors[v] = 0
        uncolored.add(v)

    def backtrack(max_used: int) -> bool:
        check_deadline(deadline)
        if not uncolored:
            return True
        v = pick()
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            if c in neighbor_colors[v]:
                continue
            touched = assign(v, c)
            if backtrack(max(max_used, c)):
                return True
            unassign(v, c, touched)
        return False

    if backtrack(0):
        return Coloring({v: colors[v] for v in range(n)})
    return None


def set_dsatur(g: Graph) -> Coloring:
    """DSATUR with neighbor colors kept in sets and a tuple key per pick."""
    n = g.n
    colors: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=lambda x: (len(neighbor_colors[x]), g.degree(x), -x))
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for w in g.neighbors(v):
            if w in uncolored:
                neighbor_colors[w].add(c)
    return Coloring(colors)
