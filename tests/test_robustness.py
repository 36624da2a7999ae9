"""Randomized robustness checks on inputs outside the certified classes.

The levelling machinery promises: valid output, or a classified error
carrying a genuine witness; never an assertion failure and never a
silently invalid result. Seeds are fixed so failures reproduce.
"""

import random

import oddholes as oh
from oddholes import (
    ClassSpec,
    GraphError,
    LickingExhausted,
    Lollipop,
    PreconditionViolated,
    bfs_layers,
    chi_of_subset,
    cleanliness,
    components,
    components_of_subset,
    find_licking,
    stability_kind,
    validate_levelling,
    validate_lollipop,
    weak_stabilize,
    witness_violates,
)
from oddholes.levelling import STABLE, WEAK_STABLE, Levelling

from naive_oracles import naive_induced_cycles, random_graph, set_bfs_distances


def test_weak_stabilize_never_returns_garbage_on_arbitrary_graphs():
    rng = random.Random(424242)
    for trial in range(80):
        n = rng.randint(4, 16)
        p = rng.choice([0.15, 0.3, 0.5])
        g = oh.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p])
        ell = rng.choice([2, 3])
        for comp in components(g):
            lv = bfs_layers(g, min(comp))
            try:
                out = weak_stabilize(g, lv, ell)
            except PreconditionViolated as exc:
                assert witness_violates(g, exc.witness, ClassSpec("B", ell))
                continue
            except LickingExhausted:
                continue
            assert validate_levelling(g, out.levels) is None
            assert stability_kind(g, out) in (STABLE, WEAK_STABLE)


def test_weak_stabilize_handles_truncated_levellings():
    rng = random.Random(31337)
    for trial in range(60):
        n = rng.randint(6, 16)
        g = oh.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.3])
        comp = components(g)[0]
        full = bfs_layers(g, min(comp))
        if full.k < 1:
            continue
        lv = Levelling(full.levels[: rng.randint(1, full.k) + 1])
        assert validate_levelling(g, lv.levels) is None
        try:
            out = weak_stabilize(g, lv, 2)
        except PreconditionViolated as exc:
            assert witness_violates(g, exc.witness, ClassSpec("B", 2))
            continue
        except LickingExhausted:
            continue
        assert validate_levelling(g, out.levels) is None
        assert stability_kind(g, out) in (STABLE, WEAK_STABLE)


def _random_lollipop(g, rng):
    subset = {v for v in range(g.n) if rng.random() < 0.5}
    comps = components_of_subset(g, subset)
    if not comps:
        return None
    core = comps[rng.randrange(len(comps))]
    dist = set_bfs_distances(g, core)
    far = sorted(v for v, d in dist.items() if d >= 2 and v not in core)
    if not far:
        return None
    stick = [far[rng.randrange(len(far))]]
    while not g.neighbors(stick[-1]) & core:
        stick.append(min(w for w in g.neighbors(stick[-1])
                         if dist.get(w, -1) == dist[stick[-1]] - 1))
    lp = Lollipop(core, tuple(stick))
    return lp if validate_lollipop(g, lp) is None else None


def test_find_licking_results_satisfy_every_clause():
    rng = random.Random(77)
    exercised = 0
    for trial in range(120):
        n = rng.randint(8, 14)
        g = oh.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.3])
        lp = _random_lollipop(g, rng)
        if lp is None:
            continue
        gain = rng.choice([0, 1, 2])
        try:
            out = find_licking(g, lp, gain, 1)
        except GraphError as exc:
            assert "hypothesis unmet" in str(exc)
            assert chi_of_subset(g, lp.core) <= gain
            continue
        if out is None:
            continue
        exercised += 1
        assert validate_lollipop(g, out) is None
        assert out.core <= lp.core
        assert out.stick[: len(lp.stick)] == lp.stick
        assert set(out.stick) <= set(lp.stick) | lp.core
        assert cleanliness(g, out) >= cleanliness(g, lp) + gain
        assert chi_of_subset(g, out.core) >= chi_of_subset(g, lp.core) - gain
    assert exercised >= 20


def test_membership_witness_is_a_shortest_violation():
    specs = [ClassSpec("A", 2), ClassSpec("B", 2), ClassSpec("G", 2),
             ClassSpec("B", 3, seven_hole_free=True)]
    for seed in range(40):
        g = random_graph(5 + seed % 5, 0.25 + 0.05 * (seed % 5), 5000 + seed)
        induced = naive_induced_cycles(g, g.n)
        for cspec in specs:
            verdict = oh.class_membership(g, cspec)
            lengths = []
            g0 = oh.girth(g)
            if g0 is not None and g0 < cspec.girth_min:
                lengths.append(g0)
            if cspec.forbids_five_hole and any(len(c) == 5 for c in induced):
                lengths.append(5)
            if cspec.forbids_seven_hole and any(len(c) == 7 for c in induced):
                lengths.append(7)
            odd = [len(c) for c in induced
                   if len(c) % 2 and len(c) >= cspec.odd_hole_min]
            if odd:
                lengths.append(min(odd))
            if not lengths:
                assert verdict.member
            else:
                assert not verdict.member
                assert verdict.witness.length == min(lengths)
                assert witness_violates(g, verdict.witness, cspec)
