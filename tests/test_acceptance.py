"""Acceptance suite: desk-scale property verification of the package's bounds.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Expected values are either
structural facts checked exhaustively or comparisons against the
independent brute-force oracles in ``naive_oracles``.
"""

import time

import pytest

from oddholes import (
    ClassSpec,
    GenSpec,
    LickingExhausted,
    bfs_layers,
    certified_class_color,
    chi_of_subset,
    chromatic_number,
    class_membership,
    components,
    enumerate_induced_cycles,
    four_color_a3_components,
    grotzsch,
    hole_attachment_profile,
    induced_cycles_of_length,
    is_bipartite_subset,
    is_k_colorable,
    is_proper,
    random_in_class,
    stability_kind,
    validate_levelling,
    weak_stabilize,
)
from oddholes.levelling import STABLE, WEAK_STABLE
from naive_oracles import brute_chromatic, naive_induced_cycles, random_graph, set_bfs_distances


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def g2_corpus():
    params = [(12, 0.2), (16, 0.15), (20, 0.12), (24, 0.1), (30, 0.08), (40, 0.06)]
    return [
        random_in_class(GenSpec(ClassSpec("G", 2), n, d, seed))
        for seed in range(22)
        for n, d in params
    ]


@pytest.fixture(scope="module")
def g2_stable(g2_corpus):
    """(graph, stable BFS levellings per component) for qualifying members."""
    out = []
    for g in g2_corpus:
        levellings = []
        for comp in components(g):
            for root in comp:
                lv = bfs_layers(g, root)
                if stability_kind(g, lv) == STABLE:
                    levellings.append(lv)
                    break
        if levellings:
            out.append((g, levellings))
    return out


@pytest.fixture(scope="module")
def b_corpus():
    graphs = []
    for ell in (3, 4):
        for seed in range(60):
            n = 20 + 4 * (seed % 6)
            d = 0.1 + 0.02 * (seed % 3)
            graphs.append((ell, random_in_class(GenSpec(ClassSpec("B", ell), n, d, seed))))
    return graphs


def _sphere(g, scope, z, radius):
    dist = set_bfs_distances(g, [z], within=scope)
    return {v for v, d in dist.items() if d == radius}


def test_layered_four_coloring_on_a3_corpus():
    start = time.perf_counter()
    sizes = [20, 30, 40, 50, 60]
    densities = [0.08, 0.1, 0.12]
    colored = 0
    for seed in range(200):
        n = sizes[seed % len(sizes)]
        d = densities[seed % len(densities)]
        g = random_in_class(GenSpec(ClassSpec("A", 3), n, d, seed))
        coloring, evidence = four_color_a3_components(g)
        assert evidence is None, f"evidence on a generated member (seed {seed})"
        assert is_proper(g, coloring) and coloring.colors_used <= 4, seed
        colored += 1
    elapsed = time.perf_counter() - start
    _report(
        "four-coloring on 200 class-A ell=3 members",
        colored == 200 and elapsed < 30.0,
        f"{colored} graphs in {elapsed:.1f}s",
    )


def test_second_spheres_bipartite_in_last_levels(g2_stable):
    violations = 0
    checked = 0
    for g, levellings in g2_stable:
        for lv in levellings:
            last = lv.levels[-1]
            for z in sorted(last):
                checked += 1
                if not is_bipartite_subset(g, _sphere(g, last, z, 2)):
                    violations += 1
    _report(
        "second spheres inside last levels are bipartite",
        len(g2_stable) >= 100 and violations == 0,
        f"{len(g2_stable)} graphs with stable levellings, {checked} spheres, "
        f"{violations} violations",
    )


def test_third_spheres_chi_at_most_7(g2_stable):
    violations = 0
    worst = 0
    for g, levellings in g2_stable:
        for lv in levellings:
            last = lv.levels[-1]
            for z in sorted(last):
                value = chi_of_subset(g, _sphere(g, last, z, 3))
                worst = max(worst, value)
                if value > 7:
                    violations += 1
    _report(
        "third spheres have chromatic number at most 7",
        len(g2_stable) >= 100 and violations == 0,
        f"max observed {worst}, {violations} violations",
    )


def test_last_level_chi_at_most_104(g2_stable):
    violations = 0
    above_four = 0
    worst = 0
    for g, levellings in g2_stable:
        for lv in levellings:
            value = chi_of_subset(g, lv.levels[-1])
            worst = max(worst, value)
            if value > 104:
                violations += 1
            elif value > 4:
                above_four += 1  # logged, not failed
    _report(
        "last levels of stable levellings have chromatic number at most 104",
        len(g2_stable) >= 100 and violations == 0,
        f"max observed {worst}, {above_four} values in (4, 104], {violations} violations",
    )


def test_weak_stable_extraction_on_b_corpus(b_corpus):
    violations = 0
    exhaustions = 0
    checked = 0
    for ell, g in b_corpus:
        for comp in components(g):
            lv = bfs_layers(g, min(comp))
            try:
                out = weak_stabilize(g, lv, ell)
            except LickingExhausted:
                exhaustions += 1
                continue
            ok = (
                validate_levelling(g, out.levels) is None
                and stability_kind(g, out) in (STABLE, WEAK_STABLE)
                and 2 * chi_of_subset(g, out.levels[-1])
                >= chi_of_subset(g, lv.levels[-1]) - 2 * ell + 2
            )
            if not ok:
                violations += 1
            checked += 1
    _report(
        "weak-stable extraction keeps the last-level chromatic bound",
        len(b_corpus) >= 100 and violations == 0 and exhaustions == 0,
        f"{len(b_corpus)} graphs, {checked} levellings, {violations} violations, "
        f"{exhaustions} licking exhaustions",
    )


def test_seven_hole_free_b_chi_bound():
    violations = 0
    total = 0
    for ell in (2, 3, 4):
        bound = 12 * ell + 8
        for seed in range(34):
            n = 20 + 4 * (seed % 6)
            g = random_in_class(
                GenSpec(ClassSpec("B", ell, seven_hole_free=True), n, 0.12, seed)
            )
            total += 1
            if chromatic_number(g).chi > bound:
                violations += 1
    _report(
        "seven-hole-free class-B members satisfy chi <= 12*ell + 8",
        total >= 100 and violations == 0,
        f"{total} graphs, {violations} violations",
    )


def test_g2_chi_within_1456_certified(g2_corpus):
    violations = 0
    not_within = 0
    for g in g2_corpus:
        if chromatic_number(g).chi > 1456:
            violations += 1
        cert = certified_class_color(g, ClassSpec("G", 2))
        if cert.within is not True:
            not_within += 1
    _report(
        "class-G ell=2 members are 1456-colorable and certified within bound",
        violations == 0 and not_within == 0,
        f"{len(g2_corpus)} graphs, {violations} chi violations, "
        f"{not_within} certification failures",
    )


def test_grotzsch_is_non_3_colorable_a2_member():
    start = time.perf_counter()
    g = grotzsch()
    member = class_membership(g, ClassSpec("A", 2)).member
    no_three = is_k_colorable(g, 3) is None
    chi4 = chromatic_number(g).chi == 4
    elapsed = time.perf_counter() - start
    _report(
        "the Mycielskian of the 5-cycle is a non-3-colorable class-A ell=2 member",
        member and no_three and chi4 and elapsed < 1.0,
        f"member={member}, 3-colorable={not no_three}, chi4={chi4}, {elapsed:.2f}s",
    )


def test_bipartite_iff_and_attachment_profiles_on_g2_corpus(g2_corpus):
    iff_violations = 0
    other_profiles = 0
    attachments = 0
    non_bipartite = 0
    for g in g2_corpus:
        holes = induced_cycles_of_length(g, 5) + induced_cycles_of_length(g, 7)
        bip = is_bipartite_subset(g)
        if bip != (not holes):
            iff_violations += 1
        if not bip:
            non_bipartite += 1
        for hole in holes:
            inside = set(hole)
            for u in range(g.n):
                if u in inside or not g.neighbors(u) & inside:
                    continue
                attachments += 1
                if hole_attachment_profile(g, hole, u).kind == "other":
                    other_profiles += 1
    _report(
        "bipartite iff no 5-hole and no 7-hole; attachments single or pair",
        iff_violations == 0 and other_profiles == 0,
        f"{len(g2_corpus)} graphs ({non_bipartite} non-bipartite), "
        f"{attachments} attachments, {iff_violations}+{other_profiles} violations",
    )


def test_oracle_equivalence_cycles_and_chromatic():
    cycle_mismatches = 0
    for seed in range(100):
        n = 5 + seed % 5  # 5..9
        g = random_graph(n, 0.2 + 0.05 * (seed % 5), seed)
        got = {w.cycle for w in enumerate_induced_cycles(g, g.n)} if g.n >= 3 else set()
        if got != naive_induced_cycles(g, g.n):
            cycle_mismatches += 1
    chi_mismatches = 0
    for seed in range(100):
        n = 4 + seed % 5  # 4..8
        g = random_graph(n, 0.25 + 0.05 * (seed % 4), 1000 + seed)
        if chromatic_number(g).chi != brute_chromatic(g):
            chi_mismatches += 1
    _report(
        "search and oracle agree with naive enumeration on 100+100 graphs",
        cycle_mismatches == 0 and chi_mismatches == 0,
        f"{cycle_mismatches} cycle mismatches, {chi_mismatches} chi mismatches",
    )


def test_generation_determinism_byte_identical(tmp_path):
    from oddholes.cli import main

    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main([
            "gen", "--class", "G", "--ell", "2", "--n", "24", "--seed", "123",
            "--density", "0.2", "--count", "3", "--out", str(d),
        ])
        assert code == 0
    files = sorted(p.name for p in dirs[0].glob("*.g6"))
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in files
    )
    _report(
        "generation is byte-identical across runs",
        bool(files) and identical,
        f"{len(files)} files compared",
    )
