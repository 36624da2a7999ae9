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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import (
    Graph,
    GraphError,
    bfs_distances,
    components,
    is_bipartite_subset,
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


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    Per-root BFS; the minimum of d(x) + d(y) + 1 over non-tree edges (x, y)
    across all roots equals the girth.
    """
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


# ---------------------------------------------------------------------------
# induced-cycle search
#
# One engine for every induced-cycle and induced-path search.  It grows
# induced paths from ``path0`` (its first vertex is the anchor) on an
# explicit stack, so depth is not bounded by the recursion limit.  A frame
# holds the tip's sorted-neighbor iterator and the path's interior (all but
# anchor and tip).  A path is extended only with vertices above ``floor``,
# inside ``allowed``, adjacent to the tip and to no interior vertex; a
# vertex adjacent to the anchor closes a cycle and is never extended past.
#
# From a single vertex s with floor s, each induced cycle whose minimum is
# s is reported once, canonically: minimum first, oriented toward its
# smaller neighbor.  From an edge (u, v) it reports induced cycles through
# that edge; from a non-edge (v, u) it reports induced u-v paths, as an
# induced path closed by the pair of its ends is an induced cycle through
# a non-edge.


def induced_cycle_search(
    g: Graph,
    path0: list[int],
    *,
    floor: int,
    max_len: int | None = None,
    exact: int | None = None,
    allowed: frozenset[int] | set[int] | None = None,
    dist: dict[int, int] | None = None,
    deadline: Deadline | None = None,
) -> Iterator[tuple[int, ...]]:
    """Induced cycles extending ``path0``, in depth-first order.

    ``exact`` fixes the cycle length, ``max_len`` bounds it.  With ``exact``,
    ``dist`` maps vertices to their distance from the anchor (computed over
    the whole graph when omitted) and prunes paths that cannot close in time.
    """
    anchor = path0[0]
    anchor_adj = g.neighbors(anchor)
    if exact is not None and dist is None:
        dist = bfs_distances(g, [anchor])
    canonical = len(path0) == 1
    path = list(path0)
    check_deadline(deadline)
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
            # The path's second vertex is anchor-adjacent by nature (it is a
            # cycle edge); any later anchor-adjacent vertex can only close.
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
                # The rest of the cycle from w back to the anchor spends
                # exact - length + 1 edges, at least two of them.
                d = dist.get(w)
                if length + 1 > exact or d is None or d > exact - length + 1:
                    continue
            elif max_len is not None and length + 1 > max_len:
                continue
            path.append(w)
            check_deadline(deadline)
            stack.append((iter(sorted(g.neighbors(w))), path[1:-1]))
            break
        else:
            stack.pop()
            path.pop()


def _iter_min_anchored(
    g: Graph,
    *,
    max_len: int | None = None,
    exact: int | None = None,
    allowed_by_anchor=None,
    deadline: Deadline | None = None,
) -> Iterator[tuple[int, ...]]:
    for s in range(g.n):
        allowed = None
        if allowed_by_anchor is not None:
            allowed = allowed_by_anchor(s)
            if allowed is None:
                continue
        yield from induced_cycle_search(
            g, [s], floor=s, max_len=max_len, exact=exact, allowed=allowed, deadline=deadline
        )


def enumerate_induced_cycles(
    g: Graph, max_len: int, deadline: Deadline | None = None
) -> list[HoleWitness]:
    """Every induced cycle of length 3..max_len, once each, canonical, sorted."""
    if max_len < 3:
        raise GraphError(f"max_len must be >= 3, got {max_len}")
    found = sorted(
        _iter_min_anchored(g, max_len=max_len, deadline=deadline),
        key=lambda c: (len(c), c),
    )
    return [HoleWitness(TRIANGLE if len(c) == 3 else K_HOLE, c) for c in found]


def induced_cycles_of_length(
    g: Graph,
    length: int,
    *,
    first_anchor_only: bool = False,
    deadline: Deadline | None = None,
) -> list[tuple[int, ...]]:
    """All induced cycles of exactly this length (or just the ones through
    the smallest anchor that has any, which contain the canonical minimum)."""
    out: list[tuple[int, ...]] = []
    for s in range(g.n):
        hits = list(induced_cycle_search(g, [s], floor=s, exact=length, deadline=deadline))
        out.extend(hits)
        if hits and first_anchor_only:
            break
    return sorted(out, key=lambda c: (len(c), c))


def shortest_cycle(g: Graph, deadline: Deadline | None = None) -> tuple[int, ...] | None:
    """Canonically smallest cycle of girth length (shortest cycles are induced)."""
    g0 = girth(g)
    if g0 is None:
        return None
    hits = induced_cycles_of_length(g, g0, first_anchor_only=True, deadline=deadline)
    assert hits, "girth value without a cycle of that length"
    return hits[0]


def _two_core(g: Graph, within: Iterable[int]) -> set[int]:
    core = set(within)
    changed = True
    while changed:
        changed = False
        for v in sorted(core):
            if len(g.neighbors(v) & core) <= 1:
                core.discard(v)
                changed = True
    return core


def find_long_odd_hole(
    g: Graph, min_len: int, deadline: Deadline | None = None
) -> tuple[int, ...] | None:
    """The shortest induced odd cycle of length >= min_len, canonically least.

    Bipartite components are skipped outright; within the rest the search is
    restricted to the 2-core.  Returns None when no such hole exists (decided
    exhaustively up to the number of vertices).
    """
    min_len = max(min_len, 3)
    if min_len % 2 == 0:
        min_len += 1
    cores: dict[int, frozenset[int]] = {}
    for comp in components(g):
        if is_bipartite_subset(g, comp):
            continue
        core = frozenset(_two_core(g, comp))
        for v in core:
            cores[v] = core
    if not cores:
        return None

    def allowed_by_anchor(s: int):
        return cores.get(s)

    upper = None
    for cyc in _iter_min_anchored(
        g, max_len=g.n, allowed_by_anchor=allowed_by_anchor, deadline=deadline
    ):
        if len(cyc) % 2 == 1 and len(cyc) >= min_len:
            upper = len(cyc)
            break
    if upper is None:
        return None
    for length in range(min_len, upper + 1, 2):
        hits: list[tuple[int, ...]] = []
        for s in sorted(cores):
            hits = list(
                induced_cycle_search(
                    g, [s], floor=s, exact=length, allowed=cores[s], deadline=deadline
                )
            )
            if hits:
                break
        if hits:
            return min(hits)
    raise AssertionError("existence pass found a hole the length scan missed")


# ---------------------------------------------------------------------------
# cycles through a fixed edge (incremental generation support)


def induced_cycle_through_edge(
    g: Graph, u: int, v: int, length: int, deadline: Deadline | None = None
) -> tuple[int, ...] | None:
    """Some induced cycle of exactly this length traversing edge (u, v), or None."""
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    for cyc in induced_cycle_search(g, [u, v], floor=-1, exact=length, deadline=deadline):
        return cyc
    return None


def induced_odd_cycle_through_edge(
    g: Graph, u: int, v: int, min_len: int, deadline: Deadline | None = None
) -> tuple[int, ...] | None:
    """Some induced odd cycle of length >= min_len through edge (u, v), or None."""
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    comp = next(c for c in components(g) if u in c)
    core = _two_core(g, comp)
    if u not in core or v not in core:
        return None
    for cyc in induced_cycle_search(
        g, [u, v], floor=-1, max_len=len(core), allowed=frozenset(core), deadline=deadline
    ):
        if len(cyc) % 2 == 1 and len(cyc) >= min_len:
            return cyc
    return None


# ---------------------------------------------------------------------------
# membership


def class_membership(
    g: Graph, cspec: ClassSpec, deadline: Deadline | None = None
) -> MembershipVerdict:
    """Decide membership; on failure return the shortest violating cycle.

    Ties between equally short violations break toward the lexicographically
    smallest canonical cycle, then by clause order (girth, 5-hole, 7-hole,
    long odd hole), so verdicts are deterministic.
    """
    candidates: list[tuple[tuple[int, ...], str]] = []
    g0 = girth(g)
    if g0 is not None and g0 < cspec.girth_min:
        cyc = shortest_cycle(g, deadline)
        candidates.append((cyc, TRIANGLE if len(cyc) == 3 else SHORT_CYCLE))
    if cspec.forbids_five_hole and g0 is not None and g0 <= 5:
        hits = induced_cycles_of_length(g, 5, first_anchor_only=True, deadline=deadline)
        if hits:
            candidates.append((hits[0], K_HOLE))
    if cspec.forbids_seven_hole and g0 is not None and g0 <= 7:
        hits = induced_cycles_of_length(g, 7, first_anchor_only=True, deadline=deadline)
        if hits:
            candidates.append((hits[0], K_HOLE))
    # A violation shorter than any possible odd hole settles the verdict.
    if not candidates or min(len(c) for c, _ in candidates) >= cspec.odd_hole_min:
        hole = find_long_odd_hole(g, cspec.odd_hole_min, deadline)
        if hole is not None:
            candidates.append((hole, LONG_ODD_HOLE))
    if not candidates:
        return MembershipVerdict(True, None)
    cycle, kind = min(
        ((c, k) for c, k in candidates),
        key=lambda ck: (len(ck[0]), ck[0], _CLAUSE_ORDER[ck[1]]),
    )
    return MembershipVerdict(False, HoleWitness(kind, cycle))


_CLAUSE_ORDER = {TRIANGLE: 0, SHORT_CYCLE: 0, K_HOLE: 1, LONG_ODD_HOLE: 2}


def is_induced_cycle(g: Graph, cycle: Iterable[int]) -> bool:
    """True when the sequence is a chordless cycle of the graph."""
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
    if k < cspec.girth_min:
        return True
    if not induced:
        return False
    if cspec.forbids_five_hole and k == 5:
        return True
    if cspec.forbids_seven_hole and k == 7:
        return True
    return k % 2 == 1 and k >= cspec.odd_hole_min


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
