"""Corpus verification: structural properties checked with the exact oracle.

For every graph in a corpus directory the harness decides class
membership, then runs each applicable property.  Failures always embed a
falsifying witness; timeouts are recorded as their own status so an
exhausted search can never masquerade as a falsification.

Report schema (version "1"): a JSON object with ``schema_version``,
``records`` (one per graph and class, ordered by filename), and
``summary`` counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .coloring import dsatur, four_color_a3_components, is_proper
from .exact import OracleCapExceeded, chi_of_subset, chromatic_number
from .graph import (
    Graph,
    GraphError,
    ParseError,
    bfs_distances,
    components,
    is_bipartite_subset,
    parse_graph6,
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


def _sphere_within(g: Graph, scope: frozenset[int], z: int, radius: int) -> set[int]:
    dist = bfs_distances(g, [z], within=scope)
    return {v for v, d in dist.items() if d == radius}


def _small_holes(g: Graph, ctx: dict, length: int) -> list[tuple[int, ...]]:
    key = f"holes{length}"
    if key not in ctx:
        ctx[key] = induced_cycles_of_length(g, length)
    return ctx[key]


# ---------------------------------------------------------------------------
# properties (each returns status, detail, witness)


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
    levellings = _stable_bfs_levellings(g, ctx)
    if not levellings:
        return SKIP, "no stable BFS levelling found from any root", None
    checked = 0
    for lv in levellings:
        last = lv.levels[-1]
        for z in sorted(last):
            sphere = _sphere_within(g, last, z, 2)
            checked += 1
            if not is_bipartite_subset(g, sphere):
                return FAIL, "second sphere inside the last level is not bipartite", {
                    "root": min(lv.levels[0]),
                    "z": z,
                    "sphere": sorted(sphere),
                }
    return PASS, f"{checked} spheres checked", None


def _prop_filtered_third_sphere_bipartite(g, cspec, ctx, deadline):
    levellings = _stable_bfs_levellings(g, ctx)
    if not levellings:
        return SKIP, "no stable BFS levelling found from any root", None
    checked = 0
    for lv in levellings:
        if lv.k < 1:
            continue
        last = lv.levels[-1]
        upper = lv.levels[-2]
        for z in sorted(last):
            z_adj = g.neighbors(z)
            filtered = {
                v
                for v in _sphere_within(g, last, z, 3)
                if g.neighbors(v) & upper <= z_adj
            }
            checked += 1
            if not is_bipartite_subset(g, filtered):
                return FAIL, (
                    "third-sphere vertices whose upper parents all touch z "
                    "do not induce a bipartite graph"
                ), {"root": min(lv.levels[0]), "z": z, "subset": sorted(filtered)}
    return PASS, f"{checked} filtered spheres checked", None


def _prop_third_sphere_chi_le_7(g, cspec, ctx, deadline):
    levellings = _stable_bfs_levellings(g, ctx)
    if not levellings:
        return SKIP, "no stable BFS levelling found from any root", None
    worst = 0
    for lv in levellings:
        last = lv.levels[-1]
        for z in sorted(last):
            sphere = _sphere_within(g, last, z, 3)
            value = chi_of_subset(g, sphere, deadline=deadline)
            worst = max(worst, value)
            if value > 7:
                return FAIL, f"third sphere has chromatic number {value} > 7", {
                    "root": min(lv.levels[0]),
                    "z": z,
                    "sphere": sorted(sphere),
                }
    return PASS, f"max third-sphere chromatic number {worst}", None


def _prop_last_level_chi_le_104(g, cspec, ctx, deadline):
    levellings = _stable_bfs_levellings(g, ctx)
    if not levellings:
        return SKIP, "no stable BFS levelling found from any root", None
    worst = 0
    for lv in levellings:
        value = chi_of_subset(g, lv.levels[-1], deadline=deadline)
        worst = max(worst, value)
        if value > 104:
            return FAIL, f"last level has chromatic number {value} > 104", {
                "root": min(lv.levels[0]),
                "last_level": sorted(lv.levels[-1]),
            }
    detail = f"max last-level chromatic number {worst}"
    if worst > 4:
        detail += " (above the expected desk-scale range, logged)"
    return PASS, detail, None


def _exact_chi(g: Graph, ctx: dict, deadline) -> int:
    """chi(g): the value verify_graph computed, else the exact oracle's."""
    if ctx["chi"] is None:
        ctx["chi"] = chromatic_number(g, deadline=deadline).chi
    return ctx["chi"]


def _prop_chi_le_1456_certified(g, cspec, ctx, deadline):
    # verify_graph has already decided membership, so DSATUR's colouring,
    # re-checked, certifies the bound; exact chi is needed only when DSATUR
    # overshoots it.
    coloring = dsatur(g)
    if not is_proper(g, coloring):
        return FAIL, "DSATUR coloring is not proper", None
    if coloring.colors_used > 1456:
        value = _exact_chi(g, ctx, deadline)
        if value > 1456:
            return FAIL, f"chromatic number {value} > 1456", {"chi": value}
        return FAIL, "certified coloring not within the 1456 bound", {
            "colors_used": coloring.colors_used,
            "bound": 1456,
        }
    certified = f"certified colors={coloring.colors_used}"
    if ctx["chi"] is None:
        return PASS, certified, None
    return PASS, f"chi={ctx['chi']}, {certified}", None


def _prop_four_coloring_within_4(g, cspec, ctx, deadline):
    coloring, evidence = four_color_a3_components(g)
    if evidence is not None:
        return FAIL, "layered colorer found an odd cycle inside a BFS layer", {
            "odd_cycle": list(evidence),
        }
    if not is_proper(g, coloring):
        return FAIL, "layered coloring is not proper", None
    if coloring.colors_used > 4:
        return FAIL, f"layered coloring used {coloring.colors_used} > 4 colors", None
    return PASS, f"proper coloring with {coloring.colors_used} colors", None


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


def _prop_chi_le_12ell_plus_8(g, cspec, ctx, deadline):
    if not cspec.seven_hole_free and _small_holes(g, ctx, 7):
        return SKIP, "graph has a 7-hole; the bound does not apply", None
    bound = 12 * cspec.ell + 8
    # A proper colouring within the bound proves it; exact chi is needed
    # only when DSATUR's colouring does not.
    coloring = dsatur(g)
    if not is_proper(g, coloring) or coloring.colors_used > bound:
        value = _exact_chi(g, ctx, deadline)
        if value > bound:
            return FAIL, f"chromatic number {value} > {bound}", {"chi": value}
        return PASS, f"chi={value} <= {bound}", None
    if ctx["chi"] is None:
        return PASS, f"proper coloring with {coloring.colors_used} colors <= {bound}", None
    return PASS, f"chi={ctx['chi']} <= {bound}", None


def _prop_contained_in_looser_classes(g, cspec, ctx, deadline):
    for family in ("G", "A"):
        verdict = class_membership(g, ClassSpec(family, cspec.ell), deadline)
        if not verdict.member:
            return FAIL, f"member of F{cspec.ell} rejected by {family}{cspec.ell}", (
                _witness_dict(verdict.witness)
            )
    return PASS, f"contained in G{cspec.ell} and A{cspec.ell}", None


def _suite_for(cspec: ClassSpec) -> list[tuple[str, object]]:
    if cspec.family == "G" and cspec.ell == 2:
        return [
            ("bipartite_iff_no_5_or_7_hole", _prop_bipartite_iff_no_5_or_7_hole),
            ("attachment_profiles_single_or_pair", _prop_attachment_profiles),
            ("second_sphere_bipartite", _prop_second_sphere_bipartite),
            ("filtered_third_sphere_bipartite", _prop_filtered_third_sphere_bipartite),
            ("third_sphere_chi_le_7", _prop_third_sphere_chi_le_7),
            ("last_level_chi_le_104", _prop_last_level_chi_le_104),
            ("chi_le_1456_certified", _prop_chi_le_1456_certified),
        ]
    if cspec.family == "A" and cspec.ell == 3:
        return [("four_coloring_within_4", _prop_four_coloring_within_4)]
    if cspec.family == "B":
        return [
            ("weak_stable_extraction_inequality", _prop_weak_stable_extraction),
            ("chi_le_12ell_plus_8", _prop_chi_le_12ell_plus_8),
        ]
    if cspec.family == "F":
        return [("contained_in_looser_classes", _prop_contained_in_looser_classes)]
    return []


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
    if not verdict.member:
        for name, _ in _suite_for(cspec):
            record.properties.append(
                PropertyRecord(name, SKIP, "graph is not a member of the class")
            )
        return record
    try:
        record.chi = chromatic_number(g, deadline=Deadline(timeout)).chi
    except (DeadlineExceeded, GraphError):
        record.chi = None
    ctx: dict = {"chi": record.chi}
    for name, fn in _suite_for(cspec):
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
    """Check every .g6 file in a directory; unreadable files are recorded
    and the run continues."""
    report = CorpusReport()
    root = Path(directory)
    if family is not None and ell is None:
        raise GraphError("a class parameter (ell) is required when a family is forced")
    for path in sorted(root.glob("*.g6")):
        try:
            g = parse_graph6(path.read_text())
        except (ParseError, OSError) as exc:
            report.file_errors.append({"file": path.name, "error": str(exc)})
            continue
        if family is not None:
            specs = [ClassSpec(family, ell, seven_hole_free)]
        else:
            specs = specs_for_filename(path.name)
        for cspec in specs:
            report.records.append(verify_graph(g, path.name, cspec, timeout))
    return report
