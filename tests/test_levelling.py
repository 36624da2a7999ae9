import pytest

from oddholes import (
    ClassSpec,
    GenSpec,
    Graph,
    GraphError,
    Levelling,
    LickingExhausted,
    Lollipop,
    PLAIN,
    PreconditionViolated,
    STABLE,
    SpineLevelling,
    WEAK_STABLE,
    bfs_layers,
    ceiling_path,
    chi_of_subset,
    classify_types,
    cleanliness,
    complete_bipartite,
    components,
    cycle_graph,
    find_licking,
    floor_path,
    path_graph,
    petersen,
    prune_to_dependent_spine,
    random_in_class,
    stability_kind,
    type_closures,
    validate_levelling,
    validate_lollipop,
    weak_stabilize,
)


def seven_spoke_wheel() -> Graph:
    """Root 0, seven chains 0-x-y-v of length 3, 7-cycle on the v layer.

    BFS from 0 puts the whole 7-cycle in the last level, so the last level
    has chromatic number 3 and the weak-stabilization main path runs.
    """
    edges = []
    for i in range(7):
        edges += [(0, 1 + i), (1 + i, 8 + i), (8 + i, 15 + i)]
    edges += [(15 + i, 15 + (i + 1) % 7) for i in range(7)]
    return Graph(22, edges)


class TestValidateLevelling:
    def test_bfs_output_is_valid(self):
        g = petersen()
        assert validate_levelling(g, bfs_layers(g, 3).levels) is None

    def test_root_size(self):
        g = cycle_graph(5)
        err = validate_levelling(g, [{0, 1}, {2, 4}])
        assert err is not None and "root size" in err

    def test_back_edge(self):
        g = path_graph(4)
        err = validate_levelling(g, [{0}, {1}, {2, 0}])
        assert err is not None  # duplicate root placement
        err = validate_levelling(cycle_graph(4), [{0}, {1}, {2}, {3}])
        assert err is not None and "back edge" in err

    def test_missing_parent(self):
        g = path_graph(4)
        err = validate_levelling(g, [{0}, {1}, {3}])
        assert err is not None and "parent" in err


class TestStabilityKind:
    def test_c7_stable(self):
        g = cycle_graph(7)
        assert stability_kind(g, bfs_layers(g, 0)) == STABLE

    def test_c6_stable(self):
        g = cycle_graph(6)
        assert stability_kind(g, bfs_layers(g, 0)) == STABLE

    def test_pendant_on_c7_weak_stable(self):
        g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(3, 7)])
        lv = bfs_layers(g, 0)
        assert lv.as_lists()[-2:] == [[3, 4], [7]]
        assert stability_kind(g, lv) == WEAK_STABLE

    def test_plain(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)])
        lv = Levelling((frozenset({0}), frozenset({1, 2}), frozenset({3}), frozenset({4})))
        assert validate_levelling(g, lv.levels) is None
        assert stability_kind(g, lv) == PLAIN


class TestPruneToDependentSpine:
    def test_c6_example(self):
        g = cycle_graph(6)
        sp = prune_to_dependent_spine(g, bfs_layers(g, 0))
        assert sp.base.as_lists() == [[0], [5], [4], [3]]
        assert sp.spine == (0, 5, 4, 3)

    def test_path_no_deletions(self):
        g = path_graph(5)
        sp = prune_to_dependent_spine(g, bfs_layers(g, 0))
        assert sp.spine == (0, 1, 2, 3, 4)
        assert sp.base.as_lists() == [[0], [1], [2], [3], [4]]

    def test_k2(self):
        g = Graph(2, [(0, 1)])
        assert prune_to_dependent_spine(g, bfs_layers(g, 0)).spine == (0, 1)

    def test_requires_cover(self):
        g = Graph(3, [(0, 1)])  # vertex 2 outside the levelling
        with pytest.raises(GraphError, match="cover"):
            prune_to_dependent_spine(g, bfs_layers(g, 0))

    def test_requires_connected_last_level(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        with pytest.raises(GraphError, match="connected"):
            prune_to_dependent_spine(g, bfs_layers(g, 0))


class TestTypesAndClosures:
    def test_spine_only_graph(self):
        g = path_graph(5)
        sp = prune_to_dependent_spine(g, bfs_layers(g, 0))
        assert classify_types(g, sp) == {}
        assert type_closures(g, sp, {}) == (set(), set())

    def test_wheel_types_and_closures(self):
        g = seven_spoke_wheel()
        sp = prune_to_dependent_spine(g, bfs_layers(g, 0))
        assert sp.spine == (0, 1, 8, 15)
        types = classify_types(g, sp)
        # Chain heads 2..7 touch the root (one level up): type 1.
        assert {v: t for v, t in types.items() if 2 <= v <= 7} == {v: 1 for v in range(2, 7 + 1)}
        # The two cycle neighbors of spine vertex 15 are type 2.
        assert types[16] == 2 and types[21] == 2
        one, two = type_closures(g, sp, types)
        assert two == {16, 21}
        assert one == set(range(2, 8)) | set(range(9, 15)) | {17, 18, 19, 20}
        # Closures plus the spine cover the levelling.
        assert one | two | set(sp.spine) == set(range(22))

    def test_c7_spine_types_fully_classified(self):
        # The C7 spine is the cycle minus its last three edges; the two
        # remaining off-spine-adjacent vertices both receive a type.
        g = cycle_graph(7)
        sp = prune_to_dependent_spine(g, bfs_layers(g, 0))
        assert sp.spine == (0, 1, 2, 3)
        types = classify_types(g, sp)
        assert types == {6: 1, 4: 2}
        one, two = type_closures(g, sp, types)
        assert one == {5, 6} and two == {4}
        assert one | two | set(sp.spine) == set(range(7))

    def test_restored_vertices_break_spine_assumptions(self):
        # Vertices pruned from the C6 levelling cannot be reintroduced: the
        # restored vertex 2 hangs off spine vertex 3, which then has two
        # parents.
        g = cycle_graph(6)
        full = bfs_layers(g, 0)
        with pytest.raises(GraphError, match="spine assumption violated"):
            classify_types(g, SpineLevelling(full, (0, 5, 4, 3)))

    def test_triangle_on_spine(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        base = Levelling((frozenset({0}), frozenset({1, 2})))
        with pytest.raises(GraphError, match="adjacent to both"):
            classify_types(g, SpineLevelling(base, (0, 1)))

    @pytest.mark.parametrize("outside", [9, -1])
    def test_out_of_range_spine_rejected(self, outside):
        g = cycle_graph(7)
        sp = SpineLevelling(Levelling((frozenset({0}), frozenset({outside}))), (0, outside))
        message = rf"levelling vertices \[{outside}\] out of range for n=7"
        with pytest.raises(GraphError, match=message):
            classify_types(g, sp)
        with pytest.raises(GraphError, match=message):
            type_closures(g, sp, {})


class TestLollipopAndCleanliness:
    def test_validate_catches_bad_sticks(self):
        g = path_graph(12)
        assert validate_lollipop(g, Lollipop(frozenset({10, 11}), tuple(range(10)))) is None
        assert validate_lollipop(g, Lollipop(frozenset({10, 11}), (9,))) is not None
        assert validate_lollipop(g, Lollipop(frozenset({9, 11}), tuple(range(9)))) is not None
        bad = Lollipop(frozenset({10, 11}), tuple(range(9)))  # tip 8 not adjacent
        assert "tip" in validate_lollipop(g, bad)

    def test_out_of_range_vertices_are_reported(self):
        g = cycle_graph(5)
        for lp in (
            Lollipop(frozenset({0, 1}), (9, 3)),
            Lollipop(frozenset({0, 1}), (-1, 3)),
            Lollipop(frozenset({0, 5}), (3, 2)),
        ):
            assert "out of range" in validate_lollipop(g, lp)
            with pytest.raises(GraphError, match="out of range"):
                cleanliness(g, lp)
            with pytest.raises(GraphError, match="out of range"):
                find_licking(g, lp, 1, 1)

    def test_cleanliness_path_examples(self):
        g = path_graph(12)
        assert cleanliness(g, Lollipop(frozenset({10, 11}), tuple(range(10)))) == 8
        assert cleanliness(g, Lollipop(frozenset({11}), tuple(range(11)))) == 9

    def test_cleanliness_zero_at_distance_two(self):
        g = path_graph(4)
        assert cleanliness(g, Lollipop(frozenset({3}), (1, 2))) == 0

    def test_cleanliness_at_most_stick_minus_two(self):
        g = path_graph(12)
        for cut in range(2, 11):
            lp = Lollipop(frozenset(range(cut + 1, 12)), tuple(range(cut + 1)))
            assert cleanliness(g, lp) <= len(lp.stick) - 2


class TestFindLicking:
    def test_zero_gain_returns_input(self):
        g = path_graph(12)
        lp = Lollipop(frozenset({10, 11}), tuple(range(10)))
        assert find_licking(g, lp, 0, 1) is lp

    def test_path_example(self):
        g = path_graph(12)
        lp = Lollipop(frozenset({10, 11}), tuple(range(10)))
        out = find_licking(g, lp, 1, 1)
        assert out.core == frozenset({11})
        assert out.stick == tuple(range(11))
        assert cleanliness(g, out) == 9

    def test_output_is_valid_licking(self):
        g = seven_spoke_wheel()
        core = frozenset(range(15, 22))
        lp = Lollipop(core, (1, 8))
        out = find_licking(g, lp, 2, 1)
        assert validate_lollipop(g, out) is None
        assert out.core <= core
        assert out.stick[:2] == (1, 8)
        assert set(out.stick) <= {1, 8} | core
        assert cleanliness(g, out) >= cleanliness(g, lp) + 2
        assert chi_of_subset(g, out.core) >= chi_of_subset(g, core) - 2

    def test_hypothesis_unmet(self):
        g = path_graph(12)
        with pytest.raises(GraphError, match="hypothesis unmet"):
            find_licking(g, Lollipop(frozenset({11}), tuple(range(11))), 1, 1)


class TestCeilingFloorPaths:
    def test_c6_examples(self):
        g = cycle_graph(6)
        lv = bfs_layers(g, 0)
        assert ceiling_path(g, lv, 2, 4) == (2, 1, 0, 5, 4)
        assert floor_path(g, lv, 2, 4) == (2, 3, 4)

    def test_parity_flags(self):
        g = cycle_graph(6)
        lv = bfs_layers(g, 0)
        assert ceiling_path(g, lv, 2, 4, parity="even") == (2, 1, 0, 5, 4)
        assert ceiling_path(g, lv, 2, 4, parity="odd") is None
        assert floor_path(g, lv, 2, 4, parity="odd") is None
        with pytest.raises(GraphError, match="parity"):
            ceiling_path(g, lv, 2, 4, parity="both")

    def test_shared_parent_two_edge_path(self):
        g = complete_bipartite(1, 2)  # root 0 adjacent to 1 and 2
        lv = bfs_layers(g, 0)
        assert ceiling_path(g, lv, 1, 2) == (1, 0, 2)

    def test_last_level_floor_is_none(self):
        g = petersen()
        lv = bfs_layers(g, 0)
        # 2 and 6 are non-adjacent last-level vertices; nothing lies below.
        assert floor_path(g, lv, 2, 6) is None

    def test_same_vertex_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(GraphError, match="distinct"):
            ceiling_path(g, bfs_layers(g, 0), 2, 2)

    def test_different_levels_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(GraphError, match="different levels"):
            ceiling_path(g, bfs_layers(g, 0), 1, 2)

    def test_levelling_of_a_larger_graph_rejected(self):
        lv = bfs_layers(cycle_graph(9), 0)
        outside = r"levelling vertices \[7, 8\] out of range for n=7"
        for fn in (floor_path, ceiling_path):
            with pytest.raises(GraphError, match=outside):
                fn(cycle_graph(7), lv, 1, 8)
        with pytest.raises(GraphError, match=outside):
            stability_kind(cycle_graph(7), lv)

    def test_negative_levelling_vertex_rejected(self):
        lv = Levelling((frozenset({0}), frozenset({1, -1})))
        outside = r"levelling vertices \[-1\] out of range for n=7"
        with pytest.raises(GraphError, match=outside):
            floor_path(cycle_graph(7), lv, 1, -1)
        with pytest.raises(GraphError, match=outside):
            stability_kind(cycle_graph(7), lv)

    def test_adjacent_endpoints_yield_the_edge(self):
        g = cycle_graph(7)
        lv = bfs_layers(g, 0)
        u, v = sorted(lv.levels[3])
        assert floor_path(g, lv, u, v) == (u, v)
        assert floor_path(g, lv, u, v, parity="even") is None

    def test_matches_naive_search_on_random_graphs(self):
        from oddholes import is_induced_path
        from naive_oracles import random_graph

        def naive_lengths(g, u, v, pool):
            # Edge counts of every induced u-v path with interior in pool.
            lengths = set()
            def extend(path):
                tip = path[-1]
                for w in sorted(g.neighbors(tip)):
                    if w == v:
                        cand = path + [v]
                        if is_induced_path(g, cand):
                            lengths.add(len(cand) - 1)
                        continue
                    if w in path or w not in pool:
                        continue
                    extend(path + [w])
            extend([u])
            return lengths

        for seed in range(15):
            g = random_graph(10, 0.3, seed)
            lv = bfs_layers(g, 0)
            for i in range(1, lv.k + 1):
                level = sorted(lv.levels[i])
                for a in level:
                    for b in level:
                        if a >= b:
                            continue
                        upper = set().union(*lv.levels[:i])
                        lower = set().union(*lv.levels[i + 1:]) if i < lv.k else set()
                        for pool, fn in [(upper, ceiling_path), (lower, floor_path)]:
                            lengths = naive_lengths(g, a, b, pool - {a, b})
                            for parity, keep in [
                                ("any", lengths),
                                ("even", {x for x in lengths if x % 2 == 0}),
                                ("odd", {x for x in lengths if x % 2 == 1}),
                            ]:
                                got = fn(g, lv, a, b, parity=parity)
                                if not keep:
                                    assert got is None
                                else:
                                    assert got is not None
                                    assert len(got) - 1 == min(keep)
                                    assert is_induced_path(g, got)
                                    assert got[0] == a and got[-1] == b
                                    assert set(got[1:-1]) <= pool


    def test_path_deeper_than_the_recursion_limit(self):
        g = cycle_graph(2001)
        assert floor_path(g, bfs_layers(g, 0), 1, 2000) == tuple(range(1, 2001))


class TestWeakStabilize:
    def test_bipartite_identity(self):
        g = cycle_graph(6)
        lv = bfs_layers(g, 0)
        assert weak_stabilize(g, lv, 3) is lv
        h = complete_bipartite(4, 5)
        lvh = bfs_layers(h, 0)
        assert weak_stabilize(h, lvh, 2) is lvh

    def test_c7_small_chi_returns_first_two_levels(self):
        g = cycle_graph(7)
        lv = bfs_layers(g, 0)
        out = weak_stabilize(g, lv, 3)
        assert out.as_lists() == [[0], [1, 6]]
        assert stability_kind(g, out) == STABLE

    def test_main_path_frozen_output(self):
        g = seven_spoke_wheel()
        lv = bfs_layers(g, 0)
        out = weak_stabilize(g, lv, 2)
        assert out.as_lists() == [
            [0],
            [1, 3, 4, 5, 6],
            [8, 10, 11, 12, 13],
            [15, 17, 18, 19, 20],
        ]
        assert validate_levelling(g, out.levels) is None
        assert stability_kind(g, out) in (STABLE, WEAK_STABLE)
        # 2*chi(M_t) >= chi(L_k) - 2*ell + 2 with ell = 2.
        assert 2 * chi_of_subset(g, out.levels[-1]) >= 3 - 4 + 2

    def test_spine_triangle_surfaces_as_precondition_witness(self):
        base = seven_spoke_wheel()
        edges = base.edges()
        # 22 forms a triangle with the spine edge 0-1; its chain 22-23-24
        # hooks into the cycle so pruning cannot remove it.
        edges += [(0, 22), (1, 22), (22, 23), (23, 24), (24, 15)]
        g = Graph(25, edges)
        lv = bfs_layers(g, 0)
        with pytest.raises(PreconditionViolated) as exc_info:
            weak_stabilize(g, lv, 2)
        assert exc_info.value.witness.kind == "triangle"
        assert set(exc_info.value.witness.cycle) == {0, 1, 22}

    def test_licking_exhaustion_is_reported(self):
        # The last level is a triangle entirely inside the 2-ball of the
        # stick, so no licking can reach cleanliness 2.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5), (3, 5)])
        lv = bfs_layers(g, 0)
        with pytest.raises(LickingExhausted):
            weak_stabilize(g, lv, 2)

    def test_generated_members_satisfy_contract(self):
        checked = 0
        for ell, seed in [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2)]:
            g = random_in_class(GenSpec(ClassSpec("B", ell), 28, 0.14, seed))
            for comp in components(g):
                lv = bfs_layers(g, min(comp))
                out = weak_stabilize(g, lv, ell)
                assert validate_levelling(g, out.levels) is None
                assert stability_kind(g, out) in (STABLE, WEAK_STABLE)
                lhs = 2 * chi_of_subset(g, out.levels[-1])
                rhs = chi_of_subset(g, lv.levels[-1]) - 2 * ell + 2
                assert lhs >= rhs
                checked += 1
        assert checked >= 7

    def test_c7_member_of_b3_non_bipartite_path(self):
        g = cycle_graph(7)
        lv = bfs_layers(g, 0)
        out = weak_stabilize(g, lv, 4)
        assert validate_levelling(g, out.levels) is None
        assert stability_kind(g, out) in (STABLE, WEAK_STABLE)

    def test_ell_validation(self):
        g = cycle_graph(6)
        with pytest.raises(GraphError, match=">= 2"):
            weak_stabilize(g, bfs_layers(g, 0), 1)


class TestChiFallback:
    def test_oracle_cap_falls_back_to_greedy_with_warning(self):
        from oddholes import InexactChiWarning
        from oddholes.levelling import _make_chi

        g = cycle_graph(100)  # above the default oracle cap
        chi_set = _make_chi(g, None)
        with pytest.warns(InexactChiWarning):
            value = chi_set(frozenset(range(100)))
        assert value == 2  # DSATUR is exact on even cycles
