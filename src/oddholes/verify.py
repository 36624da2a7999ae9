"""Corpus verification: structural properties checked with the exact oracle.

For every graph in a corpus directory the harness decides class
membership, then runs each applicable property.  Failures always embed a
falsifying witness; timeouts are recorded as their own status so an
exhausted search can never masquerade as a falsification.

Report schema (version "1"): a JSON object with ``schema_version``,
``records`` (one per graph and class, ordered by filename), and
``summary`` counts.

The paper's colouring theorems live in one table, :data:`THEOREMS`, read
by the verify bound properties and by :func:`certified_class_color` (the
CLI's ``color --class``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

from .coloring import Coloring, dsatur, four_color_a3_components, is_proper
from .exact import OracleCapExceeded, chi_of_subset, chromatic_number
from .graph import (
    Graph,
    GraphError,
    ParseError,
    bfs_levels,
    components,
    is_bipartite_subset,
    mask_vertices,
    parse_graph6,
    vertex_mask,
)
from .holes import (
    ClassSpec,
    class_membership,
    hole_attachment_profile,
    induced_cycles_of_length,
)
from .levelling import (
    STABLE,
    WEAK_STABLE,
    Levelling,
    LickingExhausted,
    PreconditionViolated,
    bfs_layers,
    stability_kind,
    validate_levelling,
    weak_stabilize,
)
from .util import Deadline, DeadlineExceeded

SCHEMA_VERSION = "1"

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
TIMEOUT = "timeout"
ERROR = "error"


@dataclass
class PropertyRecord:
    name: str
    status: str
    detail: str = ""
    witness: dict | None = None
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed_s, 4),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class GraphRecord:
    filename: str
    n: int
    m: int
    family: str
    ell: int
    member: bool | None
    chi: int | None = None
    membership_witness: dict | None = None
    membership_status: str = PASS
    properties: list[PropertyRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "file": self.filename,
            "n": self.n,
            "m": self.m,
            "family": self.family,
            "ell": self.ell,
            "member": self.member,
            "chi": self.chi,
            "membership_witness": self.membership_witness,
            "membership_status": self.membership_status,
            "properties": [p.to_dict() for p in self.properties],
        }


@dataclass
class CorpusReport:
    records: list[GraphRecord] = field(default_factory=list)
    file_errors: list[dict] = field(default_factory=list)

    @property
    def has_failures(self) -> bool:
        return any(p.status == FAIL for r in self.records for p in r.properties)

    def summary(self) -> dict:
        statuses = [p.status for r in self.records for p in r.properties]
        return {
            "graphs": len({r.filename for r in self.records}),
            "records": len(self.records),
            "members": sum(1 for r in self.records if r.member),
            "properties_run": len(statuses),
            "pass": statuses.count(PASS),
            "fail": statuses.count(FAIL),
            "skip": statuses.count(SKIP),
            "timeout": statuses.count(TIMEOUT),
            "error": statuses.count(ERROR),
            "unreadable_files": len(self.file_errors),
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "records": [r.to_dict() for r in self.records],
            "file_errors": self.file_errors,
            "summary": self.summary(),
        }


def _witness_dict(witness) -> dict | None:
    if witness is None:
        return None
    return {"kind": witness.kind, "cycle": list(witness.cycle), "length": witness.length}


# ---------------------------------------------------------------------------
# shared per-graph context


def _stable_bfs_levellings(g: Graph, ctx: dict) -> list[Levelling]:
    """One stable BFS levelling per component, when some root yields one."""
    if "stable_levellings" not in ctx:
        found: list[Levelling] = []
        for comp in components(g):
            for root in comp:
                lv = bfs_layers(g, root)
                if stability_kind(g, lv) == STABLE:
                    found.append(lv)
                    break
        ctx["stable_levellings"] = found
    return ctx["stable_levellings"]


def _spheres(g: Graph, ctx: dict, radius: int) -> list[tuple[Levelling, int, set[int]]]:
    """(levelling, z, sphere) for each z, ascending, of the last level of
    each stable BFS levelling: the vertices at distance exactly ``radius``
    from z inside that last level."""
    key = f"spheres{radius}"
    if key not in ctx:
        adj = g.neighbor_masks()
        ctx[key] = spheres = []
        for lv in _stable_bfs_levellings(g, ctx):
            scope = vertex_mask(lv.levels[-1])
            for z in sorted(lv.levels[-1]):
                # Level ``radius`` of the walk, or nothing when it stops short.
                sphere = sum(bfs_levels(adj, 1 << z, scope, radius)[radius:])
                spheres.append((lv, z, set(mask_vertices(sphere))))
    return ctx[key]


def _small_holes(g: Graph, ctx: dict, length: int) -> list[tuple[int, ...]]:
    key = f"holes{length}"
    if key not in ctx:
        ctx[key] = induced_cycles_of_length(g, length)
    return ctx[key]


# ---------------------------------------------------------------------------
# properties (each returns status, detail, witness)

_NO_STABLE_LEVELLING = (SKIP, "no stable BFS levelling found from any root", None)


def _prop_bipartite_iff_no_5_or_7_hole(g, cspec, ctx, deadline):
    holes5 = _small_holes(g, ctx, 5)
    holes7 = _small_holes(g, ctx, 7)
    bip = is_bipartite_subset(g)
    hole_free = not holes5 and not holes7
    if bip == hole_free:
        return PASS, f"bipartite={bip}, 5-holes={len(holes5)}, 7-holes={len(holes7)}", None
    side = holes5 or holes7
    return FAIL, "bipartiteness disagrees with 5-/7-hole freeness", {
        "bipartite": bip,
        "hole": list(side[0]) if side else None,
    }


def _prop_attachment_profiles(g, cspec, ctx, deadline):
    checked = 0
    for length in (5, 7):
        for hole in _small_holes(g, ctx, length):
            on_hole = set(hole)
            for u in range(g.n):
                if u in on_hole or not g.neighbors(u) & on_hole:
                    continue
                profile = hole_attachment_profile(g, hole, u)
                checked += 1
                if profile.kind == "other":
                    return FAIL, "attachment profile is neither single nor pair", {
                        "hole": list(hole),
                        "vertex": u,
                        "neighbors_on_hole": sorted(g.neighbors(u) & on_hole),
                    }
    return PASS, f"{checked} attachments classified", None


def _prop_second_sphere_bipartite(g, cspec, ctx, deadline):
    spheres = _spheres(g, ctx, 2)
    if not spheres:
        return _NO_STABLE_LEVELLING
    for lv, z, sphere in spheres:
        if not is_bipartite_subset(g, sphere):
            return FAIL, "second sphere inside the last level is not bipartite", {
                "root": min(lv.levels[0]),
                "z": z,
                "sphere": sorted(sphere),
            }
    return PASS, f"{len(spheres)} spheres checked", None


def _prop_filtered_third_sphere_bipartite(g, cspec, ctx, deadline):
    spheres = _spheres(g, ctx, 3)
    if not spheres:
        return _NO_STABLE_LEVELLING
    checked = 0
    for lv, z, sphere in spheres:
        if lv.k < 1:
            continue
        upper = lv.levels[-2]
        z_adj = g.neighbors(z)
        filtered = {v for v in sphere if g.neighbors(v) & upper <= z_adj}
        checked += 1
        if not is_bipartite_subset(g, filtered):
            return FAIL, (
                "third-sphere vertices whose upper parents all touch z "
                "do not induce a bipartite graph"
            ), {"root": min(lv.levels[0]), "z": z, "subset": sorted(filtered)}
    return PASS, f"{checked} filtered spheres checked", None


def _prop_third_sphere_chi_le(g, cspec, ctx, deadline, bound):
    spheres = _spheres(g, ctx, 3)
    if not spheres:
        return _NO_STABLE_LEVELLING
    worst = 0
    for lv, z, sphere in spheres:
        value = chi_of_subset(g, sphere, deadline=deadline)
        worst = max(worst, value)
        if value > bound:
            return FAIL, f"third sphere has chromatic number {value} > {bound}", {
                "root": min(lv.levels[0]),
                "z": z,
                "sphere": sorted(sphere),
            }
    return PASS, f"max third-sphere chromatic number {worst}", None


def _prop_last_level_chi_le(g, cspec, ctx, deadline, bound):
    levellings = _stable_bfs_levellings(g, ctx)
    if not levellings:
        return _NO_STABLE_LEVELLING
    worst = 0
    for lv in levellings:
        value = chi_of_subset(g, lv.levels[-1], deadline=deadline)
        worst = max(worst, value)
        if value > bound:
            return FAIL, f"last level has chromatic number {value} > {bound}", {
                "root": min(lv.levels[0]),
                "last_level": sorted(lv.levels[-1]),
            }
    detail = f"max last-level chromatic number {worst}"
    if worst > 4:
        detail += " (above the expected desk-scale range, logged)"
    return PASS, detail, None


def _prop_class_bound(g, cspec, ctx, deadline):
    # verify_graph has already decided membership, so a proper colouring
    # within the bound proves it: the row's colourer's, re-checked, or else
    # the exact oracle's optimal one (chi colours, computed once per graph).
    theorem = theorem_for(cspec)
    if theorem.no_seven_hole and not cspec.seven_hole_free and _small_holes(g, ctx, 7):
        return SKIP, "graph has a 7-hole; the bound does not apply", None
    bound = theorem.bound(cspec.ell)
    coloring, odd_cycle = theorem.colorer(g)
    if odd_cycle is not None:
        return FAIL, "layered colorer found an odd cycle inside a BFS layer", {
            "odd_cycle": list(odd_cycle),
        }
    colors = coloring.colors_used
    if not is_proper(g, coloring) or colors > bound:
        if ctx["chi"] is None:
            ctx["chi"] = chromatic_number(g, deadline=deadline).chi
        colors = ctx["chi"]
        if colors > bound:
            return FAIL, f"chromatic number {colors} > {bound}", {"chi": colors}
    chi = "" if ctx["chi"] is None else f"chi={ctx['chi']}, "
    return PASS, f"{chi}certified colors={colors}", None


def _prop_weak_stable_extraction(g, cspec, ctx, deadline):
    checked = 0
    for comp in components(g):
        lv = bfs_layers(g, min(comp))
        try:
            out = weak_stabilize(g, lv, cspec.ell, deadline=deadline)
        except LickingExhausted:
            return FAIL, "licking search exhausted (falsification candidate)", {
                "root": min(comp),
            }
        except PreconditionViolated as exc:
            return ERROR, "precondition violation on a verified member", _witness_dict(
                exc.witness
            )
        err = validate_levelling(g, out.levels)
        if err:
            return FAIL, f"extracted sequence is not a levelling: {err}", {
                "levels": out.as_lists(),
            }
        kind = stability_kind(g, out)
        if kind not in (STABLE, WEAK_STABLE):
            return FAIL, "extracted levelling is not weak-stable", {
                "levels": out.as_lists(),
            }
        lhs = 2 * chi_of_subset(g, out.levels[-1], deadline=deadline)
        rhs = chi_of_subset(g, lv.levels[-1], deadline=deadline) - 2 * cspec.ell + 2
        if lhs < rhs:
            return FAIL, f"chromatic inequality fails: 2*{lhs // 2} < {rhs}", {
                "levels": out.as_lists(),
            }
        checked += 1
    return PASS, f"{checked} component levellings stabilized", None


def _prop_contained_in_looser_classes(g, cspec, ctx, deadline):
    for family in ("G", "A"):
        verdict = class_membership(g, ClassSpec(family, cspec.ell), deadline)
        if not verdict.member:
            return FAIL, f"member of F{cspec.ell} rejected by {family}{cspec.ell}", (
                _witness_dict(verdict.witness)
            )
    return PASS, f"contained in G{cspec.ell} and A{cspec.ell}", None


# ---------------------------------------------------------------------------
# the paper's theorems: bounds, colourers and the property suite per class


def _dsatur(g: Graph) -> tuple[Coloring, None]:
    return dsatur(g), None


@dataclass(frozen=True)
class Theorem:
    """A colouring theorem of the paper and the checks verify runs for its class.

    ``bound`` maps ell to the chromatic bound (None: none is proven), which
    with ``no_seven_hole`` holds only for graphs without a 7-hole;
    ``colorer`` returns a colouring, or an odd cycle showing the graph is
    outside the class; ``properties`` are (name, check) pairs in report order.
    """

    bound: Callable[[int], int] | None
    colorer: Callable[[Graph], tuple[Coloring | None, tuple[int, ...] | None]]
    properties: tuple[tuple[str, Callable], ...]
    no_seven_hole: bool = False


# Keyed by (family, ell); ell None stands for every ell of the family.
THEOREMS: dict[tuple[str, int | None], Theorem] = {
    # G2 is 1456-colourable, through the lemmas on the spheres and the last
    # level of a stable levelling.
    ("G", 2): Theorem(lambda ell: 1456, _dsatur, (
        ("bipartite_iff_no_5_or_7_hole", _prop_bipartite_iff_no_5_or_7_hole),
        ("attachment_profiles_single_or_pair", _prop_attachment_profiles),
        ("second_sphere_bipartite", _prop_second_sphere_bipartite),
        ("filtered_third_sphere_bipartite", _prop_filtered_third_sphere_bipartite),
        ("third_sphere_chi_le_7", partial(_prop_third_sphere_chi_le, bound=7)),
        ("last_level_chi_le_104", partial(_prop_last_level_chi_le, bound=104)),
        ("chi_le_1456_certified", _prop_class_bound),
    )),
    # A3 is 4-colourable: every BFS layer is bipartite.
    ("A", 3): Theorem(lambda ell: 4, four_color_a3_components, (
        ("four_coloring_within_4", _prop_class_bound),
    )),
    # 7-hole-free graphs in B_ell are (12 ell + 8)-colourable.
    ("B", None): Theorem(lambda ell: 12 * ell + 8, _dsatur, (
        ("weak_stable_extraction_inequality", _prop_weak_stable_extraction),
        ("chi_le_12ell_plus_8", _prop_class_bound),
    ), no_seven_hole=True),
    ("F", None): Theorem(None, _dsatur, (
        ("contained_in_looser_classes", _prop_contained_in_looser_classes),
    )),
}
_NO_THEOREM = Theorem(None, _dsatur, ())


def theorem_for(cspec: ClassSpec) -> Theorem:
    """The row for the class's family and ell, else for its family, else an empty one."""
    row = THEOREMS.get((cspec.family, cspec.ell))
    return row or THEOREMS.get((cspec.family, None), _NO_THEOREM)


def class_bound(cspec: ClassSpec) -> int | None:
    """The chromatic bound the paper proves for the class, or None.

    Class B gets its bound only with the seven-hole-free flag, the bound's
    hypothesis; for class A with ell = 2 the question is open.
    """
    theorem = theorem_for(cspec)
    if theorem.bound is None or (theorem.no_seven_hole and not cspec.seven_hole_free):
        return None
    return theorem.bound(cspec.ell)


class MembershipError(GraphError):
    """A bounded-coloring request was made for a graph outside the class."""

    def __init__(self, witness) -> None:
        super().__init__(f"graph is not a member of the requested class: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class CertifiedColoring:
    """A coloring together with the chromatic bound that applies, if any."""

    coloring: Coloring
    bound: int | None
    within: bool | None = None


def certified_class_color(g: Graph, cspec: ClassSpec) -> CertifiedColoring:
    """Color a verified class member and report whether the class bound held.

    Raises :class:`MembershipError` carrying the witness when the graph is
    not a member.  The colouring is the class's colourer's in
    :data:`THEOREMS` (layered for class A, ell = 3; DSATUR otherwise).
    """
    verdict = class_membership(g, cspec)
    if not verdict.member:
        raise MembershipError(verdict.witness)
    coloring, odd_cycle = theorem_for(cspec).colorer(g)
    if odd_cycle is not None:
        raise AssertionError(
            f"layered colorer rejected a verified member; evidence {odd_cycle}"
        )
    bound = class_bound(cspec)
    within = None if bound is None else coloring.colors_used <= bound
    return CertifiedColoring(coloring, bound, within)


_NAME_RE = re.compile(r"^([ABGF])(\d+)_")


def specs_for_filename(name: str) -> list[ClassSpec]:
    """Infer the class to check from the corpus naming convention, falling
    back to the two flagship suites."""
    m = _NAME_RE.match(Path(name).name)
    if m:
        return [ClassSpec(m.group(1), int(m.group(2)))]
    return [ClassSpec("G", 2), ClassSpec("A", 3)]


def verify_graph(
    g: Graph,
    filename: str,
    cspec: ClassSpec,
    timeout: float | None = 30.0,
) -> GraphRecord:
    record = GraphRecord(
        filename=filename, n=g.n, m=g.m, family=cspec.family, ell=cspec.ell, member=None
    )
    try:
        verdict = class_membership(g, cspec, Deadline(timeout))
    except DeadlineExceeded:
        record.membership_status = TIMEOUT
        return record
    record.member = verdict.member
    record.membership_witness = _witness_dict(verdict.witness)
    suite = theorem_for(cspec).properties
    if not verdict.member:
        for name, _ in suite:
            record.properties.append(
                PropertyRecord(name, SKIP, "graph is not a member of the class")
            )
        return record
    try:
        record.chi = chromatic_number(g, deadline=Deadline(timeout)).chi
    except (DeadlineExceeded, OracleCapExceeded):
        record.chi = None
    ctx: dict = {"chi": record.chi}
    for name, fn in suite:
        t0 = perf_counter()
        try:
            status, detail, witness = fn(g, cspec, ctx, Deadline(timeout))
        except DeadlineExceeded:
            status, detail, witness = TIMEOUT, f"exceeded {timeout}s", None
        except OracleCapExceeded as exc:
            status, detail, witness = ERROR, f"exact oracle unavailable: {exc}", None
        record.properties.append(
            PropertyRecord(name, status, detail, witness, perf_counter() - t0)
        )
    return record


def verify_corpus(
    directory: str | Path,
    family: str | None = None,
    ell: int | None = None,
    seven_hole_free: bool = False,
    timeout: float | None = 30.0,
) -> CorpusReport:
    """Check every .g6 file in a directory.  A file that cannot be read or
    parsed, or whose name asks for an invalid class, is recorded in
    ``file_errors`` and the run continues."""
    report = CorpusReport()
    root = Path(directory)
    if not root.is_dir():
        raise GraphError(f"{directory} is not a directory")
    if family is None and ell is not None:
        raise GraphError("--ell requires --class")
    if family is None and seven_hole_free:
        raise GraphError("--seven-hole-free requires --class")
    forced = None
    if family is not None:
        if ell is None:
            raise GraphError("a class parameter (ell) is required when a family is forced")
        forced = [ClassSpec(family, ell, seven_hole_free)]
    for path in sorted(root.glob("*.g6")):
        try:
            g = parse_graph6(path.read_text())
            specs = forced or specs_for_filename(path.name)
        except (GraphError, ParseError, OSError) as exc:
            report.file_errors.append({"file": path.name, "error": str(exc)})
            continue
        for cspec in specs:
            report.records.append(verify_graph(g, path.name, cspec, timeout))
    return report
