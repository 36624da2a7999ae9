"""Induced cycles, girth, and witness-producing class membership.

The four graph families handled here are parameterized by an integer
``ell >= 2`` and a family letter:

* ``A``: girth at least ``2*ell`` and no odd hole of length ``2*ell + 3``
  or more;
* ``B``: triangle-free, no 5-hole, and no odd hole of length ``2*ell + 3``
  or more;
* ``G``: girth at least ``2*ell + 1`` and no odd hole of length
  ``2*ell + 5`` or more;
* ``F``: girth at least ``2*ell + 1`` and no odd hole of length
  ``2*ell + 3`` or more.

Membership checks decide the odd-hole clauses by exhaustive induced-cycle
search (exponential worst case, accepted at desk scale) and always return
a re-checkable witness on failure.

Every search that looks for cycles by their least vertex s (girth, the
listing, the fixed-length clauses, the long-odd-hole scan) runs inside s's
anchor pool: the 2-core of the vertices >= s.  A cycle whose least vertex
is s lies in that pool, so the pools change no answer; they only drop the
pendant trees and the anchors that lie on no cycle above themselves.
``class_membership`` builds the pools once and every clause shares them.
An exact-length search prunes by distance to the anchor, every other one
by a free route back to the anchor that fits its length bound, if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import (
    Graph,
    GraphError,
    bfs_distances,
    components,
    is_bipartite_subset,
    mask_vertices,
    vertex_mask,
)
from .util import Deadline, check_deadline

TRIANGLE = "triangle"
SHORT_CYCLE = "short-cycle"
K_HOLE = "k-hole"
LONG_ODD_HOLE = "long-odd-hole"


@dataclass(frozen=True)
class HoleWitness:
    """A certified cycle falsifying a class clause.

    For kinds ``k-hole`` and ``long-odd-hole`` the cycle is induced; for
    ``triangle`` and ``short-cycle`` it is a shortest cycle (which is
    always induced as well).
    """

    kind: str
    cycle: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.cycle)


@dataclass(frozen=True)
class ClassSpec:
    """A family letter plus its parameter, e.g. ClassSpec('G', 2)."""

    family: str
    ell: int
    seven_hole_free: bool = False

    def __post_init__(self) -> None:
        if self.family not in ("A", "B", "G", "F"):
            raise GraphError(f"unknown family {self.family!r}; expected A, B, G, or F")
        if self.ell < 2:
            raise GraphError(f"class parameter must be >= 2, got {self.ell}")

    @property
    def girth_min(self) -> int:
        if self.family == "A":
            return 2 * self.ell
        if self.family == "B":
            return 4
        return 2 * self.ell + 1

    @property
    def odd_hole_min(self) -> int:
        if self.family == "G":
            return 2 * self.ell + 5
        return 2 * self.ell + 3

    @property
    def forbids_five_hole(self) -> bool:
        return self.family == "B"

    @property
    def forbids_seven_hole(self) -> bool:
        # The flag is subsumed when the odd-hole clause already bans 7-holes.
        return self.seven_hole_free and self.odd_hole_min > 7

    def forbids(self, k: int) -> bool:
        """True when the class bans induced cycles of length ``k``.

        Cycles shorter than the girth bound are banned chorded or not; the
        other clauses ban induced cycles only.
        """
        return (
            k < self.girth_min
            or (k == 5 and self.forbids_five_hole)
            or (k == 7 and self.forbids_seven_hole)
            or (k % 2 == 1 and k >= self.odd_hole_min)
        )

    def describe(self) -> str:
        parts = [f"girth >= {self.girth_min}"]
        if self.forbids_five_hole:
            parts.append("no 5-hole")
        if self.forbids_seven_hole:
            parts.append("no 7-hole")
        parts.append(f"no odd hole of length >= {self.odd_hole_min}")
        return ", ".join(parts)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: HoleWitness | None

    def __post_init__(self) -> None:
        assert self.member == (self.witness is None)


# ---------------------------------------------------------------------------
# girth


def girth(g: Graph, deadline: Deadline | None = None) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Per-root BFS (Itai & Rodeh): the minimum of d(x) + d(y) + 1 over
    non-tree edges (x, y) across all roots equals the girth.  Each root s
    searches only its anchor pool, the 2-core of the vertices >= s.  The
    result is unchanged: the girth is the minimum over s of the shortest
    cycle through s among the vertices >= s, and that cycle lies in s's
    pool.  The deadline is checked once per root.
    """
    found = _girth_anchor(g, _anchor_pools(g, range(g.n)), deadline)
    return None if found is None else found[0]


def _girth_anchor(
    g: Graph, pools: list[tuple[int, int]], deadline: Deadline | None
) -> tuple[int, int, int] | None:
    """``(girth, s, pool)`` for the first anchor s whose pool holds a cycle
    of girth length (its least vertex is s), or None for acyclic graphs.

    The BFS from s goes level by level over masks.  An edge inside level d
    closes a walk of 2d + 1 edges, a vertex with two neighbors in level d
    one of 2d + 2; at a root on a shortest cycle that walk is the cycle.
    A root stops once its levels cannot beat the best so far.
    """
    adj = g.neighbor_masks()
    best = None
    for s, pool in pools:
        check_deadline(deadline)
        seen = level = 1 << s
        d = 0
        while level and (best is None or 2 * d + 1 < best[0]):
            odd = even = False
            reached = 0
            for u in mask_vertices(level):
                nbrs = adj[u] & pool
                if nbrs & level:
                    odd = True
                    break
                new = nbrs & ~seen
                even = even or bool(new & reached)
                reached |= new
            if odd or even:
                length = 2 * d + 1 if odd else 2 * d + 2
                if best is None or length < best[0]:
                    best = (length, s, pool)
                break
            seen |= reached
            level = reached
            d += 1
    return best


# ---------------------------------------------------------------------------
# induced-cycle search
#
# One engine for every induced-cycle and induced-path search.  It grows
# induced paths from ``path0`` (its first vertex is the anchor) on an
# explicit stack, so depth is not bounded by the recursion limit.  Vertex
# sets are int bitmasks over a sequence of neighbor masks.  Each depth keeps
# ``blocked``, the path's vertices and the neighbors of its interior (all
# but anchor and tip), and the tip's candidates not yet tried: its
# neighbors above ``floor``, inside ``allowed`` and not blocked.  Candidates
# are taken in increasing order; a candidate adjacent to the anchor closes
# a cycle and is never extended past.
#
# From a single vertex s with floor s, each induced cycle whose minimum is
# s is reported once, canonically: minimum first, oriented toward its
# smaller neighbor.  From an edge (u, v) it reports induced cycles through
# that edge; from a non-edge (v, u) it reports induced u-v paths, as an
# induced path closed by the pair of its ends is an induced cycle through
# a non-edge.
#
# An exact-length search prunes by distance: a tip farther from the anchor
# than the edges left cannot close.  Every other search prunes by
# reachability (Uno & Satoh, *An efficient algorithm for enumerating
# chordless cycles and chordless paths*): a tip with no free route to a free
# neighbor of the anchor, or under ``max_len`` none short enough, is cut.
# Each depth keeps a shortest such route from its tip; a tip that is the
# next vertex of its parent's route inherits the rest of it, which stays
# free (a shortest path has no chord to the vertex it leaves behind) and
# fits the bound (the path gains the vertex the route loses), so a path
# that follows its route costs no new flood.  Only subtrees that cannot
# close within the bound are cut, so the order of the cycles is unchanged.


def induced_cycle_search(
    adj: Sequence[int],
    path0: list[int],
    *,
    floor: int,
    max_len: int | None = None,
    exact: int | None = None,
    allowed: int | None = None,
    dist: dict[int, int] | None = None,
    deadline: Deadline | None = None,
) -> Iterator[tuple[int, ...]]:
    """Induced cycles extending ``path0``, in depth-first order.

    ``exact`` fixes the cycle length and prunes by ``dist``, the distances
    from the anchor (over the whole graph when omitted); otherwise
    ``max_len``, if given, bounds it, and tips are pruned by their route
    back to the anchor.  ``allowed`` is a vertex mask the rest of the cycle
    must stay in.
    """
    anchor = path0[0]
    anchor_adj = adj[anchor]
    if exact is not None and dist is None:
        dist = bfs_distances(adj, 1 << anchor)
    canonical = len(path0) == 1
    path = list(path0)
    open_mask = -1 << (floor + 1)
    if allowed is not None:
        open_mask &= allowed
    blocked = vertex_mask(path)
    for x in path[1:-1]:
        blocked |= adj[x]
    check_deadline(deadline)
    blocks = [blocked]
    routes: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (route, tip's index)
    todo = [adj[path[-1]] & open_mask & ~blocked]
    while todo:
        rest = todo[-1]
        if not rest:
            todo.pop()
            blocks.pop()
            path.pop()
            if exact is None:
                routes.pop()
            continue
        bit = rest & -rest
        todo[-1] = rest ^ bit
        w = bit.bit_length() - 1
        length = len(path) + 1
        # The path's second vertex is anchor-adjacent by nature (it is a
        # cycle edge); any later anchor-adjacent vertex can only close.
        if len(path) >= 2 and anchor_adj & bit:
            if exact is not None:
                if length != exact:
                    continue
            elif max_len is not None and length > max_len:
                continue
            if not canonical or path[1] < w:
                yield tuple(path) + (w,)
            continue
        if exact is not None:
            # The rest of the cycle from w back to the anchor spends
            # exact - length + 1 edges, at least two of them.
            d = dist.get(w)
            if length + 1 > exact or d is None or d > exact - length + 1:
                continue
        elif max_len is not None and length + 1 > max_len:
            continue
        # The tip joins the interior unless it is the anchor.
        blocked = blocks[-1] | bit
        if len(path) >= 2:
            blocked |= adj[path[-1]]
        if exact is None:
            route, i = routes[-1]
            if i + 1 < len(route) and route[i + 1] == w:
                routes.append((route, i + 1))
            else:
                depth = None if max_len is None else max_len - length
                route = _route_to_anchor(adj, w, anchor_adj, open_mask & ~blocked, depth)
                if route is None:
                    continue
                routes.append((route, 0))
        path.append(w)
        check_deadline(deadline)
        blocks.append(blocked)
        todo.append(adj[w] & open_mask & ~blocked)


def _route_to_anchor(
    adj: Sequence[int], w: int, anchor_adj: int, free: int, depth: int | None
) -> tuple[int, ...] | None:
    """A shortest path from w through ``free`` to a neighbor of the anchor
    in ``free``, or None when none has at most ``depth`` (>= 1) edges."""
    targets = anchor_adj & free
    levels = [1 << w]
    seen = reach = adj[w] & free
    while reach and not reach & targets:
        if len(levels) == depth:
            return None
        levels.append(reach)
        nxt = 0
        for v in mask_vertices(reach):
            nxt |= adj[v]
        reach = nxt & free & ~seen
        seen |= reach
    if not reach:
        return None
    hits = reach & targets
    route = [(hits & -hits).bit_length() - 1]
    for level in reversed(levels):
        back = adj[route[-1]] & level
        route.append((back & -back).bit_length() - 1)
    route.reverse()
    return tuple(route)


def enumerate_induced_cycles(
    g: Graph, max_len: int, deadline: Deadline | None = None
) -> list[HoleWitness]:
    """Every induced cycle of length 3..max_len, once each, canonical, sorted."""
    if max_len < 3:
        raise GraphError(f"max_len must be >= 3, got {max_len}")
    adj = g.neighbor_masks()
    found = sorted(
        (
            cyc
            for s, pool in _anchor_pools(g, range(g.n))
            for cyc in induced_cycle_search(
                adj, [s], floor=s, max_len=max_len, allowed=pool, deadline=deadline
            )
        ),
        key=lambda c: (len(c), c),
    )
    return [HoleWitness(TRIANGLE if len(c) == 3 else K_HOLE, c) for c in found]


def induced_cycles_of_length(
    g: Graph, length: int, *, deadline: Deadline | None = None
) -> list[tuple[int, ...]]:
    """All induced cycles of exactly this length, sorted."""
    return sorted(
        cyc
        for s, pool in _anchor_pools(g, range(g.n))
        for cyc in _cycles_through(g, s, pool, length, deadline)
    )


def _least_cycle(
    g: Graph, pools: list[tuple[int, int]], length: int, deadline: Deadline | None
) -> tuple[int, ...] | None:
    """The canonically least induced cycle of this length, or None: the least
    one through the first anchor that has any."""
    for s, pool in pools:
        hits = _cycles_through(g, s, pool, length, deadline)
        if hits:
            return min(hits)
    return None


def _cycles_through(
    g: Graph, s: int, pool: int, length: int, deadline: Deadline | None
) -> list[tuple[int, ...]]:
    """The induced cycles of this length whose least vertex is s.  Vertices
    of the pool farther than length // 2 from s lie on none of them."""
    adj = g.neighbor_masks()
    dist = bfs_distances(adj, 1 << s, pool, length // 2)
    return list(
        induced_cycle_search(
            adj, [s], floor=s, exact=length, allowed=pool, dist=dist, deadline=deadline
        )
    )


def shortest_cycle(g: Graph, deadline: Deadline | None = None) -> tuple[int, ...] | None:
    """Canonically smallest cycle of girth length (shortest cycles are induced)."""
    found = _girth_anchor(g, _anchor_pools(g, range(g.n)), deadline)
    if found is None:
        return None
    length, s, pool = found
    return min(_cycles_through(g, s, pool, length, deadline))


def _peel(adj: Sequence[int], core: int, queue: list[int]) -> int:
    """The vertex mask ``core`` without every vertex left with at most one
    neighbor in it, checked from the queued vertices on: the caller queues
    every vertex of ``core`` that may have at most one."""
    while queue:
        v = queue.pop()
        if core >> v & 1 and (adj[v] & core).bit_count() <= 1:
            core ^= 1 << v
            nbrs = adj[v] & core
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                queue.append(low.bit_length() - 1)
    return core


def _two_core(adj: Sequence[int], within: int) -> int:
    """The 2-core of the subgraph induced on the vertex mask ``within``."""
    return _peel(adj, within, list(mask_vertices(within)))


def _anchor_pools(g: Graph, within: Iterable[int]) -> list[tuple[int, int]]:
    """``(s, pool)`` for every anchor s whose pool holds it, in increasing s.

    The pool (a vertex mask) is the 2-core of ``within`` restricted to
    vertices >= s: it holds every cycle inside ``within`` whose least vertex
    is s.  The 2-core of a set minus s is the 2-core of its 2-core minus s,
    so each pool is peeled from the one before it.
    """
    adj = g.neighbor_masks()
    pool = _two_core(adj, vertex_mask(within))
    pools = []
    for s in mask_vertices(pool):
        if pool >> s & 1:
            pools.append((s, pool))
            pool = _peel(adj, pool ^ (1 << s), list(mask_vertices(adj[s] & pool)))
    return pools


def find_long_odd_hole(
    g: Graph, min_len: int, deadline: Deadline | None = None
) -> tuple[int, ...] | None:
    """The shortest induced odd cycle of length >= min_len, canonically least.

    Bipartite components are skipped outright.  Each anchor s searches only
    its pool, the 2-core of the rest restricted to vertices >= s (which
    holds every cycle whose least vertex is s); anchors outside their pool
    are skipped.  An existence pass finds some long odd hole; a length scan
    then tries each odd length upward, pruned by distances to s within the
    pool.  Pools and distance maps are computed once per anchor.  Returns
    None when no such hole exists (decided exhaustively up to the number
    of vertices).
    """
    return _long_odd_hole(g, _anchor_pools(g, range(g.n)), min_len, deadline)


def _long_odd_hole(
    g: Graph, pools: list[tuple[int, int]], min_len: int, deadline: Deadline | None
) -> tuple[int, ...] | None:
    """``find_long_odd_hole`` over the pools of all vertices.  The 2-core
    splits over components, so masking them to the non-bipartite components
    gives those components' own pools."""
    min_len = max(min_len, 3)
    if min_len % 2 == 0:
        min_len += 1
    within = vertex_mask(
        v for comp in components(g) if not is_bipartite_subset(g, comp) for v in comp
    )
    pools = [(s, pool & within) for s, pool in pools if within >> s & 1]
    adj = g.neighbor_masks()
    upper = None
    for s, pool in pools:
        for cyc in induced_cycle_search(adj, [s], floor=s, allowed=pool, deadline=deadline):
            if len(cyc) % 2 == 1 and len(cyc) >= min_len:
                upper = len(cyc)
                break
        if upper is not None:
            break
    if upper is None:
        return None
    dists: dict[int, dict[int, int]] = {}
    for length in range(min_len, upper + 1, 2):
        for s, pool in pools:
            if s not in dists:
                dists[s] = bfs_distances(adj, 1 << s, pool)
            hits = list(
                induced_cycle_search(
                    adj, [s], floor=s, exact=length, allowed=pool, dist=dists[s], deadline=deadline
                )
            )
            if hits:
                return min(hits)
    raise AssertionError("existence pass found a hole the length scan missed")


# ---------------------------------------------------------------------------
# cycles through a fixed edge (incremental generation support)


def forbidden_cycle_through_edge(
    adj: Sequence[int], u: int, v: int, cspec: ClassSpec, within: int,
    deadline: Deadline | None = None,
) -> tuple[int, ...] | None:
    """Some induced cycle through edge (u, v) whose length the class bans, or
    None.  ``within`` is a vertex mask holding u's component; every cycle
    through the edge lies in its 2-core."""
    if not adj[u] >> v & 1:
        raise GraphError(f"({u}, {v}) is not an edge")
    core = _two_core(adj, within)
    if not (core >> u & 1 and core >> v & 1):
        return None
    for cyc in induced_cycle_search(adj, [u, v], floor=-1, allowed=core, deadline=deadline):
        if cspec.forbids(len(cyc)):
            return cyc
    return None


# ---------------------------------------------------------------------------
# membership


def class_membership(
    g: Graph, cspec: ClassSpec, deadline: Deadline | None = None
) -> MembershipVerdict:
    """Decide membership; on failure return the shortest violating cycle.

    Clauses run in length order and the first violation is returned: the
    girth clause (a shortest cycle; a 7-hole of its length is the same
    cycle), each banned length below ``odd_hole_min``, then the long odd
    holes.  Each witness is the canonically least cycle of its length.
    """
    pools = _anchor_pools(g, range(g.n))
    shortest = _girth_anchor(g, pools, deadline)
    if shortest is None:
        return MembershipVerdict(True, None)
    g0, s, pool = shortest
    if g0 < cspec.girth_min:
        cyc = min(_cycles_through(g, s, pool, g0, deadline))
        return MembershipVerdict(False, HoleWitness(TRIANGLE if g0 == 3 else SHORT_CYCLE, cyc))
    for k in range(g0, cspec.odd_hole_min):
        if cspec.forbids(k):
            cyc = _least_cycle(g, pools, k, deadline)
            if cyc is not None:
                return MembershipVerdict(False, HoleWitness(K_HOLE, cyc))
    hole = _long_odd_hole(g, pools, cspec.odd_hole_min, deadline)
    if hole is None:
        return MembershipVerdict(True, None)
    return MembershipVerdict(False, HoleWitness(LONG_ODD_HOLE, hole))


def is_induced_cycle(g: Graph, cycle: Iterable[int]) -> bool:
    """True when the sequence is a chordless cycle of the graph."""
    cyc = tuple(cycle)
    k = len(cyc)
    on_cycle = set(cyc)
    if k < 3 or len(on_cycle) != k or not 0 <= min(cyc) <= max(cyc) < g.n:
        return False
    # Induced iff each vertex's neighbors on the cycle are its two cycle
    # neighbors: k walks over neighborhoods, not k(k-1)/2 pair tests.
    return all(
        g.neighbors(x) & on_cycle == {cyc[i - 1], cyc[(i + 1) % k]} for i, x in enumerate(cyc)
    )


def witness_violates(g: Graph, witness: HoleWitness, cspec: ClassSpec) -> bool:
    """Re-check a witness against the class clauses (self-certification)."""
    cyc = witness.cycle
    k = len(cyc)
    if len(set(cyc)) != k or k < 3:
        return False
    if not all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
        return False
    induced = is_induced_cycle(g, cyc)
    if witness.kind in (K_HOLE, LONG_ODD_HOLE) and not induced:
        return False
    # A cycle below the girth bound violates even with chords.
    return k < cspec.girth_min or (induced and cspec.forbids(k))


# ---------------------------------------------------------------------------
# attachment profiles on odd holes


@dataclass(frozen=True)
class AttachmentProfile:
    """How an outside vertex attaches to a hole.

    ``single``: one neighbor on the hole.  ``pair``: exactly two neighbors
    three steps apart along the hole (in either rotational direction).
    Anything else is ``other`` and certifies the host graph has a short
    cycle or other structure placing it outside class G with ell = 2.
    """

    kind: str
    anchors: tuple[int, ...]


def hole_attachment_profile(
    g: Graph, hole: HoleWitness | Iterable[int], u: int
) -> AttachmentProfile:
    cycle = tuple(hole.cycle) if isinstance(hole, HoleWitness) else tuple(hole)
    if not 0 <= u < g.n:
        raise GraphError(f"vertex {u} out of range for n={g.n}")
    if u in cycle:
        raise GraphError(f"vertex {u} lies on the hole")
    positions = [i for i, x in enumerate(cycle) if g.has_edge(u, x)]
    if not positions:
        raise GraphError(f"vertex {u} has no neighbor on the hole")
    size = len(cycle)
    if len(positions) == 1:
        return AttachmentProfile("single", (cycle[positions[0]],))
    if len(positions) == 2:
        i, j = positions
        if (j - i) % size == 3:
            return AttachmentProfile("pair", (cycle[i], cycle[j]))
        if (i - j) % size == 3:
            return AttachmentProfile("pair", (cycle[j], cycle[i]))
    return AttachmentProfile("other", tuple(cycle[i] for i in positions))
