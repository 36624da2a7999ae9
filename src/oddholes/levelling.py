"""Levellings and the constructive machinery built on top of them.

A levelling is a sequence of disjoint vertex sets (L0, ..., Lk) with a
single root, where every vertex of a level has a neighbor one level up and
none further up.  It is *stable* when levels 0..k-1 are independent sets
and *weak-stable* when levels 1..k-2 are.

The centrepiece is :func:`weak_stabilize`: given a levelling of a
triangle-free graph with no 5-hole and no odd hole of length 2*ell + 3 or
more, it extracts a weak-stable levelling whose last level keeps at least
half the chromatic number of the original last level, minus ell - 1.  The
construction prunes vertices without dependents, follows a spine of
dependents, lifts the cleanliness of a lollipop rooted near the last level
by a bounded licking search, splits the remaining vertices in two by how
they attach to the spine, and rebuilds levels from a backward-minimal
system of covers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

from .exact import OracleCapExceeded, chi_of_subset
from .coloring import dsatur
from .graph import (
    Graph,
    GraphError,
    bfs_distances,
    bfs_levels,
    components_of_subset,
    induced_subgraph,
    is_bipartite_subset,
    is_induced_path,
    mask_vertices,
    vertex_mask,
)
from .holes import ClassSpec, class_membership, induced_cycle_search
from .util import Deadline, check_deadline

STABLE = "stable"
WEAK_STABLE = "weak-stable"
PLAIN = "plain"


class PreconditionViolated(GraphError):
    """A forbidden structure surfaced mid-run; carries the hole witness."""

    def __init__(self, witness) -> None:
        super().__init__(f"input violates the class preconditions: {witness}")
        self.witness = witness


class LickingExhausted(GraphError):
    """The licking search ran out of extensions; reported, never ignored."""


class InexactChiWarning(UserWarning):
    """A chromatic comparison fell back to a greedy upper bound."""


@dataclass(frozen=True)
class Levelling:
    """Ordered disjoint vertex sets; functions take the host graph separately."""

    levels: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.levels) - 1

    def union(self) -> set[int]:
        out: set[int] = set()
        for level in self.levels:
            out |= level
        return out

    def level_of(self) -> dict[int, int]:
        return {v: i for i, level in enumerate(self.levels) for v in level}

    def as_lists(self) -> list[list[int]]:
        return [sorted(level) for level in self.levels]


def bfs_layers(g: Graph, root: int) -> Levelling:
    """Distance layers from the root, covering exactly its component."""
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} out of range for n={g.n}")
    layers = bfs_levels(g.neighbor_masks(), 1 << root)
    return Levelling(tuple(frozenset(mask_vertices(layer)) for layer in layers))


def validate_levelling(g: Graph, levels: Iterable[Iterable[int]]) -> str | None:
    """None when the three levelling invariants hold, else a description."""
    seq = [set(level) for level in levels]
    if not seq:
        return "empty sequence (clause: root size)"
    seen: set[int] = set()
    for i, level in enumerate(seq):
        for v in level:
            if not 0 <= v < g.n:
                return f"vertex {v} in level {i} out of range"
            if v in seen:
                return f"vertex {v} appears in two levels"
        seen |= level
    if len(seq[0]) != 1:
        return f"level 0 has size {len(seq[0])}, expected 1 (clause: root size)"
    for i in range(1, len(seq)):
        for v in sorted(seq[i]):
            if not g.neighbors(v) & seq[i - 1]:
                return f"vertex {v} in level {i} has no neighbor in level {i - 1} (clause: parent)"
            for h in range(i - 1):
                if g.neighbors(v) & seq[h]:
                    return f"vertex {v} in level {i} is adjacent to level {h} (clause: back edge)"
    return None


def _independent(g: Graph, level: frozenset[int] | set[int]) -> bool:
    return all(not (g.neighbors(v) & level) for v in level)


def _require_in_range(g: Graph, vertices: Collection[int]) -> None:
    if vertices and not 0 <= min(vertices) <= max(vertices) < g.n:
        outside = sorted(v for v in vertices if not 0 <= v < g.n)
        raise GraphError(f"levelling vertices {outside} out of range for n={g.n}")


def stability_kind(g: Graph, lv: Levelling) -> str:
    """Strongest of stable > weak-stable > plain that applies."""
    _require_in_range(g, lv.union())
    k = lv.k
    if all(_independent(g, lv.levels[i]) for i in range(k)):
        return STABLE
    if all(_independent(g, lv.levels[i]) for i in range(1, k - 1)):
        return WEAK_STABLE
    return PLAIN


# ---------------------------------------------------------------------------
# dependent pruning and spines


@dataclass(frozen=True)
class SpineLevelling:
    """A pruned levelling plus a dependent chain touching every level."""

    base: Levelling
    spine: tuple[int, ...]


def _has_dependent(g: Graph, levels: list[set[int]], v: int, i: int) -> bool:
    if i + 1 >= len(levels):
        return False
    for u in g.neighbors(v) & levels[i + 1]:
        if len(g.neighbors(u) & levels[i]) == 1:
            return True
    return False


def _prune_dependent_free(g: Graph, levels: list[set[int]]) -> None:
    """Delete vertices below the last level that have no dependent, to fixpoint.

    Deletion order is ascending level then ascending identifier, restarting
    after each deletion, so results are reproducible.
    """
    k = len(levels) - 1
    changed = True
    while changed:
        changed = False
        for i in range(k):
            victim = None
            for v in sorted(levels[i]):
                if not _has_dependent(g, levels, v, i):
                    victim = v
                    break
            if victim is not None:
                levels[i].discard(victim)
                changed = True
                break
    for i in range(k):
        if not levels[i]:
            raise GraphError(f"levelling collapsed: level {i} emptied by pruning")


def _choose_spine(g: Graph, levels: list[set[int]]) -> list[int]:
    spine = [min(levels[0])]
    for i in range(1, len(levels)):
        cands = [
            u
            for u in g.neighbors(spine[-1]) & levels[i]
            if g.neighbors(u) & levels[i - 1] == {spine[-1]}
        ]
        if not cands:
            raise GraphError(
                f"levelling collapsed: spine vertex {spine[-1]} has no dependent in level {i}"
            )
        spine.append(min(cands))
    return spine


def _prune_and_pick_spine(g: Graph, levels: list[set[int]]) -> SpineLevelling:
    """Prune ``levels`` in place to dependent-having vertices and pick a spine."""
    _prune_dependent_free(g, levels)
    spine = _choose_spine(g, levels)
    base = Levelling(tuple(frozenset(level) for level in levels))
    return SpineLevelling(base, tuple(spine))


def prune_to_dependent_spine(g: Graph, lv: Levelling) -> SpineLevelling:
    """Prune dependent-free vertices below the last level and pick a spine.

    Requires a valid levelling covering the whole graph whose last level
    induces a connected subgraph; the last level is never touched.
    """
    err = validate_levelling(g, lv.levels)
    if err:
        raise GraphError(f"invalid levelling: {err}")
    if lv.union() != set(range(g.n)):
        raise GraphError("levelling must cover every vertex of the graph")
    if len(components_of_subset(g, lv.levels[-1])) > 1:
        raise GraphError("last level must induce a connected subgraph")
    return _prune_and_pick_spine(g, [set(level) for level in lv.levels])


# ---------------------------------------------------------------------------
# type split around the spine


def _spine_violation(g: Graph, sp: SpineLevelling) -> str | None:
    _require_in_range(g, sp.base.union() | set(sp.spine))
    levels = [set(level) for level in sp.base.levels]
    spine = sp.spine
    if len(spine) != len(levels):
        return f"spine length {len(spine)} != number of levels {len(levels)}"
    for i, v in enumerate(spine):
        if v not in levels[i]:
            return f"spine vertex {v} not in level {i}"
        if i >= 1:
            parents = g.neighbors(v) & levels[i - 1]
            if parents != {spine[i - 1]}:
                return (
                    f"spine vertex {v} has parents {sorted(parents)}, "
                    f"expected exactly {{{spine[i - 1]}}}"
                )
    for i in range(len(levels) - 1):
        for v in sorted(levels[i]):
            if not _has_dependent(g, levels, v, i):
                return f"vertex {v} in level {i} has no dependent"
    return None


def classify_types(g: Graph, sp: SpineLevelling) -> dict[int, int]:
    """Split spine neighbors by which spine vertex they touch.

    A vertex of level i adjacent to the spine is type 1 when it touches the
    spine vertex one level up, type 2 when it touches the spine vertex of
    its own level.  Touching both (a triangle) or any other spine vertex
    breaks the dependent-spine assumptions and raises.
    """
    err = _spine_violation(g, sp)
    if err:
        raise GraphError(f"spine assumption violated: {err}")
    spine = sp.spine
    chain = set(spine)
    level_of = sp.base.level_of()
    out: dict[int, int] = {}
    for v in sorted(sp.base.union() - chain):
        hits = g.neighbors(v) & chain
        if not hits:
            continue
        i = level_of[v]
        up = spine[i - 1] if i >= 1 else None
        same = spine[i]
        extra = hits - {up, same}
        if extra:
            raise GraphError(
                f"spine assumption violated: vertex {v} in level {i} is adjacent "
                f"to non-consecutive spine vertices {sorted(extra)}"
            )
        if up in hits and same in hits:
            raise GraphError(
                f"spine assumption violated: vertex {v} is adjacent to both "
                f"{up} and {same} (triangle on the spine)"
            )
        out[v] = 1 if up in hits else 2
    return out


def type_closures(
    g: Graph, sp: SpineLevelling, types: dict[int, int]
) -> tuple[set[int], set[int]]:
    """Close each type class downward through parenthood.

    The two sets are the minimal ones containing the typed spine neighbors
    and, for every vertex with no spine neighbor, propagating membership
    from any parent.  Together with the spine they cover the levelling.
    """
    _require_in_range(g, sp.base.union() | set(sp.spine))
    levels = sp.base.levels
    chain = set(sp.spine)
    one: set[int] = set()
    two: set[int] = set()
    for i in range(1, len(levels)):
        for v in sorted(levels[i] - chain):
            if v in types:
                (one if types[v] == 1 else two).add(v)
                continue
            parents = g.neighbors(v) & levels[i - 1]
            if parents & one:
                one.add(v)
            if parents & two:
                two.add(v)
    if not (one | two | chain) >= sp.base.union():
        raise AssertionError("type closures fail to cover the levelling")
    return one, two


# ---------------------------------------------------------------------------
# lollipops, cleanliness, licking


@dataclass(frozen=True)
class Lollipop:
    """A connected vertex set reached by an induced path.

    ``core`` is the connected set; ``stick`` is an induced path of at least
    two vertices, disjoint from the core, whose last vertex alone has
    neighbors in the core.
    """

    core: frozenset[int]
    stick: tuple[int, ...]


def validate_lollipop(g: Graph, lp: Lollipop) -> str | None:
    for v in (*lp.core, *lp.stick):
        if not 0 <= v < g.n:
            return f"vertex {v} out of range for n={g.n}"
    if len(lp.stick) < 2:
        return "stick must have at least two vertices"
    if not lp.core:
        return "core is empty"
    if set(lp.stick) & lp.core:
        return "stick and core intersect"
    if not is_induced_path(g, lp.stick):
        return "stick is not an induced path"
    if len(components_of_subset(g, lp.core)) != 1:
        return "core is not connected"
    if not g.neighbors(lp.stick[-1]) & lp.core:
        return "stick tip has no neighbor in the core"
    for t in lp.stick[:-1]:
        if g.neighbors(t) & lp.core:
            return f"stick vertex {t} (not the tip) has a neighbor in the core"
    return None


def cleanliness(g: Graph, lp: Lollipop) -> int:
    """Longest stick prefix at distance >= 3 from the core (0 if it starts at 2)."""
    err = validate_lollipop(g, lp)
    if err:
        raise GraphError(f"invalid lollipop: {err}")
    ball = sum(bfs_levels(g.neighbor_masks(), vertex_mask(lp.core), depth=2))
    count = 0
    for t in lp.stick:
        if ball >> t & 1:
            break
        count += 1
    return count


def _make_chi(g: Graph, deadline: Deadline | None) -> Callable[[frozenset[int]], int]:
    cache: dict[frozenset[int], int] = {}

    def chi_set(vertices: Iterable[int]) -> int:
        key = frozenset(vertices)
        if key not in cache:
            try:
                cache[key] = chi_of_subset(g, key, deadline=deadline)
            except OracleCapExceeded:
                sub, _, _ = induced_subgraph(g, key)
                cache[key] = dsatur(sub).colors_used
                warnings.warn(
                    f"chromatic comparison on {len(key)} vertices exceeded the "
                    f"exact-oracle cap; using a greedy upper bound",
                    InexactChiWarning,
                    stacklevel=3,
                )
        return cache[key]

    return chi_set


def find_licking(
    g: Graph,
    lp: Lollipop,
    gain: int,
    loss_rate: int,
    deadline: Deadline | None = None,
) -> Lollipop | None:
    """Refine a lollipop: cleanliness up by ``gain``, chromatic loss bounded.

    Searches for a lollipop (core', stick') with core' inside the old core,
    the same end, the old stick as a prefix, and every new stick vertex
    drawn from the old core, such that cleanliness rises by at least
    ``gain`` while chi(core') >= chi(core) - gain * loss_rate.  Backtracking
    over stick extensions; at each step the candidate cores are the maximal
    components of the old core minus the closed 2-neighborhoods of the
    protected stick prefix, largest exact chi first.  Returns None only
    when the whole space is exhausted, which callers report as a
    falsification candidate rather than ignore.

    Requires chi(core) > gain * loss_rate.  Sound by construction: every
    returned licking is re-verified against all clauses.
    """
    err = validate_lollipop(g, lp)
    if err:
        raise GraphError(f"invalid lollipop: {err}")
    if gain < 0 or loss_rate < 0:
        raise GraphError("gain and loss_rate must be nonnegative")
    chi_set = _make_chi(g, deadline)
    chi_core = chi_set(lp.core)
    if chi_core <= gain * loss_rate:
        raise GraphError(
            f"hypothesis unmet: chi(core)={chi_core} <= gain*loss_rate={gain * loss_rate}"
        )
    if gain == 0:
        return lp
    base_clean = cleanliness(g, lp)
    target_clean = base_clean + gain
    target_chi = chi_core - gain * loss_rate
    core = lp.core
    adj = g.neighbor_masks()
    core_mask = vertex_mask(core)
    ball2: dict[int, frozenset[int]] = {}

    def ball2_of(v: int) -> frozenset[int]:
        if v not in ball2:
            ball2[v] = frozenset(mask_vertices(sum(bfs_levels(adj, 1 << v, depth=2)) & core_mask))
        return ball2[v]

    def try_close(path: list[int]) -> Lollipop | None:
        banned: set[int] = set(path)
        for x in path[:-1]:
            banned |= g.neighbors(x)
        for x in path[:target_clean]:
            banned |= ball2_of(x)
        avail = core - banned
        if not avail:
            return None
        tip_adj = g.neighbors(path[-1])
        comps = [K for K in components_of_subset(g, avail) if K & tip_adj]
        comps.sort(key=lambda K: (-chi_set(K), min(K)))
        for K in comps:
            if chi_set(K) >= target_chi:
                cand = Lollipop(K, tuple(path))
                _check_licking(g, lp, cand, target_clean, target_chi, chi_set)
                return cand
        return None

    stack: list[list[int]] = [list(lp.stick)]
    while stack:
        check_deadline(deadline)
        path = stack.pop()
        if len(path) >= target_clean + 2:
            found = try_close(path)
            if found is not None:
                return found
        tip = path[-1]
        prefix = path[:-1]
        in_path = set(path)
        extensions = [
            w
            for w in sorted(core & g.neighbors(tip))
            if w not in in_path and not any(g.has_edge(w, x) for x in prefix)
        ]
        for w in reversed(extensions):
            stack.append(path + [w])
    return None


def _check_licking(
    g: Graph,
    original: Lollipop,
    cand: Lollipop,
    target_clean: int,
    target_chi: int,
    chi_set: Callable[[frozenset[int]], int],
) -> None:
    err = validate_lollipop(g, cand)
    if err:
        raise AssertionError(f"licking candidate is not a lollipop: {err}")
    if not cand.core <= original.core:
        raise AssertionError("licking core escapes the original core")
    if cand.stick[: len(original.stick)] != original.stick:
        raise AssertionError("licking stick does not extend the original stick")
    if not set(cand.stick) <= set(original.stick) | original.core:
        raise AssertionError("licking stick leaves the allowed vertex pool")
    if cleanliness(g, cand) < target_clean:
        raise AssertionError("licking cleanliness below target")
    if chi_set(cand.core) < target_chi:
        raise AssertionError("licking chromatic number below target")


# ---------------------------------------------------------------------------
# ceiling and floor paths


def _level_pair(g: Graph, lv: Levelling, u: int, v: int) -> int:
    if u == v:
        raise GraphError("endpoints must be distinct")
    level_of = lv.level_of()
    _require_in_range(g, level_of)
    if u not in level_of or v not in level_of:
        raise GraphError("endpoints must belong to the levelling")
    if level_of[u] != level_of[v]:
        raise GraphError(
            f"endpoints lie in different levels ({level_of[u]} vs {level_of[v]})"
        )
    return level_of[u]


def _constrained_induced_path(
    g: Graph,
    u: int,
    v: int,
    interior_pool: set[int],
    parity: str,
    deadline: Deadline | None,
) -> tuple[int, ...] | None:
    if parity not in ("any", "even", "odd"):
        raise GraphError(f"parity must be 'any', 'even', or 'odd', got {parity!r}")
    if g.has_edge(u, v):
        # Any longer route would carry the chord u-v, so the edge is the
        # only induced path between them.
        return (u, v) if parity in ("any", "odd") else None
    interior = set(interior_pool) - {u, v}
    allowed = vertex_mask(interior)
    dist_to_v = bfs_distances(g.neighbor_masks(), 1 << v, allowed | 1 << u | 1 << v)
    shortest = dist_to_v.get(u)
    if shortest is None:
        return None
    for edges in range(shortest, len(interior) + 2):
        if parity == "even" and edges % 2 == 1:
            continue
        if parity == "odd" and edges % 2 == 0:
            continue
        # An induced u-v path of this many edges is an induced cycle of one
        # more vertex through the non-edge v-u, reported from v as (v, u, ...).
        for cyc in induced_cycle_search(
            g.neighbor_masks(), [v, u], floor=-1, exact=edges + 1, allowed=allowed, dist=dist_to_v,
            deadline=deadline,
        ):
            return cyc[1:] + cyc[:1]
    return None


def ceiling_path(
    g: Graph,
    lv: Levelling,
    u: int,
    v: int,
    parity: str = "any",
    deadline: Deadline | None = None,
) -> tuple[int, ...] | None:
    """Shortest induced u-v path with interior strictly above their level.

    The parity flag restricts the edge count; 'any' returns the shortest.
    Returns None when no such path exists.
    """
    i = _level_pair(g, lv, u, v)
    if i < 1:
        raise GraphError("ceiling paths need endpoints at level 1 or deeper")
    pool: set[int] = set()
    for level in lv.levels[:i]:
        pool |= level
    return _constrained_induced_path(g, u, v, pool, parity, deadline)


def floor_path(
    g: Graph,
    lv: Levelling,
    u: int,
    v: int,
    parity: str = "any",
    deadline: Deadline | None = None,
) -> tuple[int, ...] | None:
    """Shortest induced u-v path with interior strictly below their level."""
    i = _level_pair(g, lv, u, v)
    pool: set[int] = set()
    for level in lv.levels[i + 1:]:
        pool |= level
    return _constrained_induced_path(g, u, v, pool, parity, deadline)


# ---------------------------------------------------------------------------
# weak-stable extraction


def _blame_preconditions(g: Graph, ell: int, deadline: Deadline | None) -> None:
    verdict = class_membership(g, ClassSpec("B", ell), deadline)
    if verdict.member:
        raise AssertionError(
            "weak stabilization failed on a graph satisfying its preconditions"
        )
    raise PreconditionViolated(verdict.witness)


def weak_stabilize(
    g: Graph, lv: Levelling, ell: int, deadline: Deadline | None = None
) -> Levelling:
    """Extract a weak-stable levelling keeping last-level chromatic weight.

    The caller certifies that ``g`` is triangle-free with no 5-hole and no
    odd hole of length 2*ell + 3 or more (class B membership).  The result
    is a weak-stable levelling (M0, ..., Mt) with
    2 * chi(G[Mt]) >= chi(G[Lk]) - 2*ell + 2.  Forbidden structures
    surfacing mid-run raise :class:`PreconditionViolated` with a witness; a
    failed licking search raises :class:`LickingExhausted`.
    """
    if ell < 2:
        raise GraphError(f"class parameter must be >= 2, got {ell}")
    err = validate_levelling(g, lv.levels)
    if err:
        raise GraphError(f"invalid levelling: {err}")
    union = lv.union()
    if is_bipartite_subset(g, union):
        # Every level is independent here, so the input is already stable.
        return lv
    chi_set = _make_chi(g, deadline)
    k = lv.k
    chi_last = chi_set(lv.levels[k])
    if chi_last <= 2 * ell - 2:
        return Levelling((lv.levels[0], lv.levels[1]))
    if k < 2:
        # chi of the root's neighborhood is 1 in any triangle-free graph.
        _blame_preconditions(g, ell, deadline)

    # Keep only the last-level component with maximal chi, then prune.
    levels = [set(level) for level in lv.levels]
    comps = components_of_subset(g, levels[k])
    levels[k] = set(max(comps, key=lambda K: (chi_set(K), -min(K))))
    sp = _prune_and_pick_spine(g, levels)
    spine = sp.spine
    span = sp.base.union()

    # Lift cleanliness with the licking search, run on the reduced span.
    sub, to_sub, from_sub = induced_subgraph(g, span)
    lp0 = Lollipop(
        frozenset(to_sub[x] for x in levels[k]),
        (to_sub[spine[k - 2]], to_sub[spine[k - 1]]),
    )
    lick = find_licking(sub, lp0, gain=2 * ell - 2, loss_rate=1, deadline=deadline)
    if lick is None:
        raise LickingExhausted(
            "licking search exhausted; this instance falsifies the licking bound"
        )
    c1 = {from_sub[x] for x in lick.core}

    try:
        types = classify_types(g, sp)
    except GraphError:
        _blame_preconditions(g, ell, deadline)
    one, two = type_closures(g, sp, types)
    chi_one = chi_set(one & c1)
    chi_two = chi_set(two & c1)
    alpha, closure = (1, one) if chi_one >= chi_two else (2, two)
    comps2 = components_of_subset(g, closure & c1)
    if not comps2:
        _blame_preconditions(g, ell, deadline)
    c2 = set(max(comps2, key=lambda K: (chi_set(K), -min(K))))

    # Backward-minimal covers: each lower set must parent everything above
    # it that has no spine neighbor.
    chain = set(spine)
    near_spine = {v for v in span - chain if g.neighbors(v) & chain}
    covers: list[set[int]] = [set() for _ in range(k + 1)]
    covers[k] = c2
    for i in range(k - 1, 0, -1):
        demand = {x for x in covers[i + 1] if x not in near_spine}
        pool = closure & levels[i]
        chosen = {p for p in pool if g.neighbors(p) & demand}
        if any(not (g.neighbors(x) & chosen) for x in demand):
            _blame_preconditions(g, ell, deadline)
        for p in sorted(chosen, reverse=True):
            if all(g.neighbors(x) & (chosen - {p}) for x in g.neighbors(p) & demand):
                chosen.discard(p)
        covers[i] = chosen

    if alpha == 1:
        new_levels = [{spine[0]}] + [{spine[i]} | covers[i] for i in range(1, k + 1)]
    else:
        new_levels = (
            [{spine[1]}]
            + [{spine[i + 1]} | covers[i] for i in range(1, k)]
            + [set(covers[k])]
        )
    result = Levelling(tuple(frozenset(level) for level in new_levels))

    err = validate_levelling(g, result.levels)
    if err or stability_kind(g, result) == PLAIN:
        _blame_preconditions(g, ell, deadline)
    if 2 * chi_set(result.levels[-1]) < chi_last - 2 * ell + 2:
        _blame_preconditions(g, ell, deadline)
    return result
