import random

import pytest

from oddholes import (
    Graph,
    GraphError,
    ParseError,
    bfs_layers,
    bipartition_or_odd_cycle,
    components,
    components_of_subset,
    cycle_graph,
    induced_subgraph,
    is_induced_path,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    petersen,
    to_edge_list,
    to_graph6,
    validate_levelling,
)
from oddholes.graph import bfs_distances, bfs_levels, mask_vertices, vertex_mask
from naive_oracles import random_graph, set_bfs_distances


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 5)])

    def test_symmetric_and_irreflexive(self):
        g = random_graph(12, 0.4, 7)
        for v in range(g.n):
            assert v not in g.neighbors(v)
            for w in g.neighbors(v):
                assert v in g.neighbors(w)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])


class TestGraph6:
    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]
        assert to_graph6(g) == "A_"

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.m == 0

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_bytes_input(self):
        assert parse_graph6(b"A_").m == 1

    def test_known_c5(self):
        # Dhc is the published encoding of the 5-cycle.
        assert to_graph6(cycle_graph(5)) == "Dhc"

    def test_roundtrip_small_and_large(self):
        cases = [
            Graph(0),
            Graph(1),
            petersen(),
            cycle_graph(9),
            random_graph(40, 0.2, 3),
            random_graph(63, 0.1, 4),  # multi-byte size field
            random_graph(70, 0.05, 5),
        ]
        for g in cases:
            assert parse_graph6(to_graph6(g)) == g

    def test_bad_length(self):
        with pytest.raises(ParseError, match="length"):
            parse_graph6("D")

    def test_bad_byte(self):
        with pytest.raises(ParseError, match="invalid graph6 byte"):
            parse_graph6("A!")

    def test_nonzero_padding(self):
        with pytest.raises(ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 1))  # K2 slot empty but a pad bit set

    @pytest.mark.parametrize("byte", [33, 127])  # below "?" and above "~"
    def test_bad_byte_late_in_a_long_body(self, byte):
        text = to_graph6(random_graph(100, 0.05, 1))
        pos = len(text) - 5
        with pytest.raises(ParseError, match=rf"^invalid graph6 byte {byte} at offset {pos}$"):
            parse_graph6(text[:pos] + chr(byte) + text[pos + 1:])

    def test_nonzero_padding_past_one_byte_size_field(self):
        # n = 63: 1953 bits, so the final byte carries three padding bits.
        text = to_graph6(random_graph(63, 0.1, 2))
        last = chr(((ord(text[-1]) - 63) | 1) + 63)
        with pytest.raises(ParseError, match="^nonzero padding bits in final graph6 byte$"):
            parse_graph6(text[:-1] + last)

    def test_truncated_long_body(self):
        text = to_graph6(random_graph(200, 0.02, 3))
        with pytest.raises(ParseError, match="^graph6 body length 3316 != expected 3317 for n=200$"):
            parse_graph6(text[:-1])

    def test_size_field_encodings(self):
        from oddholes.graph import _g6_encode_size

        # Reference values from the published format description.
        assert _g6_encode_size(30) == chr(93)
        assert _g6_encode_size(12345) == "~B?x"
        assert _g6_encode_size(63) == "~??~"
        assert _g6_encode_size(460175067) == "~~?ZZZZZ"
        assert _g6_encode_size(258048) == "~~???~??"
        with pytest.raises(GraphError, match="too large"):
            _g6_encode_size(1 << 40)


class TestEdgeList:
    def test_roundtrip(self):
        for g in [Graph(0), cycle_graph(6), random_graph(15, 0.3, 9)]:
            assert parse_edge_list(to_edge_list(g)) == g

    def test_bytes_input(self):
        g = cycle_graph(5)
        assert parse_edge_list(to_edge_list(g).encode("ascii")) == g

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 2: self-loop"):
            parse_edge_list("n 2\n0 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("0 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 3: duplicate"):
            parse_edge_list("n 3\n0 1\n1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 2: vertex out of range"):
            parse_edge_list("n 2\n0 2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_edge_list("n 2\n0 x\n")

    def test_unknown_format(self):
        with pytest.raises(ParseError, match="unknown graph format"):
            parse_graph("A_", "dot")


class TestBfsLayers:
    def test_c6_sizes(self):
        lv = bfs_layers(cycle_graph(6), 0)
        assert [len(level) for level in lv.levels] == [1, 2, 2, 1]

    def test_k2(self):
        lv = bfs_layers(Graph(2, [(0, 1)]), 0)
        assert lv.as_lists() == [[0], [1]]

    def test_petersen_any_root(self):
        g = petersen()
        for root in range(10):
            assert [len(level) for level in bfs_layers(g, root).levels] == [1, 3, 6]

    def test_root_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            bfs_layers(cycle_graph(5), 9)

    def test_layers_form_valid_levelling_on_random_graphs(self):
        for seed in range(25):
            g = random_graph(14, 0.25, seed)
            lv = bfs_layers(g, 0)
            assert validate_levelling(g, lv.levels) is None
            level_of = lv.level_of()
            for v, i in level_of.items():
                if i == 0:
                    continue
                ups = [level_of[w] for w in g.neighbors(v) if w in level_of]
                assert i - 1 in ups
                assert all(j >= i - 1 for j in ups)


class TestBipartition:
    def test_c6_two_colored(self):
        coloring, cyc = bipartition_or_odd_cycle(cycle_graph(6))
        assert cyc is None
        assert all(coloring[u] != coloring[v] for u, v in cycle_graph(6).edges())

    def test_c5_odd_cycle(self):
        coloring, cyc = bipartition_or_odd_cycle(cycle_graph(5))
        assert coloring is None
        assert len(cyc) == 5

    def test_petersen_second_layer(self):
        g = petersen()
        layer = bfs_layers(g, 0).levels[2]
        coloring, cyc = bipartition_or_odd_cycle(g, layer)
        assert cyc is None and set(coloring) == set(layer)

    def test_exactly_one_branch_on_random_graphs(self):
        for seed in range(40):
            g = random_graph(12, 0.3, seed)
            coloring, cyc = bipartition_or_odd_cycle(g)
            assert (coloring is None) != (cyc is None)
            if coloring is not None:
                assert all(coloring[u] != coloring[v] for u, v in g.edges())
            else:
                assert len(cyc) % 2 == 1
                assert all(
                    g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                    for i in range(len(cyc))
                )

    def test_cycle_stays_in_scope(self):
        # C5 plus a far-away triangle: scoped search must report the C5.
        g = Graph(8, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (5, 7)])
        _, cyc = bipartition_or_odd_cycle(g, range(5))
        assert set(cyc) <= set(range(5))


class TestDistanceAndComponents:
    def test_components(self):
        g = Graph(7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)])
        assert [len(c) for c in components(g)] == [5, 2]
        assert components(Graph(0)) == []
        assert [len(c) for c in components(cycle_graph(5))] == [5]

    def test_subset_out_of_range(self):
        for subset in ([7], [-1, 0], [0, 5]):
            with pytest.raises(GraphError, match="out of range"):
                components_of_subset(cycle_graph(5), subset)

    def test_bfs_matches_set_based_search(self):
        # Sources inside and outside ``within``, an empty and a full
        # ``within``, and every depth cut-off up to 2.
        rng = random.Random(9)
        for seed in range(30):
            g = random_graph(rng.randint(1, 24), rng.choice([0.05, 0.12, 0.25]), seed)
            adj = g.neighbor_masks()
            for _ in range(4):
                sources = {v for v in range(g.n) if rng.random() < 0.15} or {rng.randrange(g.n)}
                for within in (None, set(), {v for v in range(g.n) if rng.random() < 0.7}):
                    mask = -1 if within is None else vertex_mask(within)
                    expected = set_bfs_distances(g, sources, within)
                    for depth in (None, 0, 1, 2):
                        cut = {v: d for v, d in expected.items() if depth is None or d <= depth}
                        levels = bfs_levels(adj, vertex_mask(sources), mask, depth)
                        assert all(levels)
                        assert [set(mask_vertices(level)) for level in levels] == [
                            {v for v, d in cut.items() if d == i} for i in range(len(levels))
                        ]
                        assert bfs_distances(adj, vertex_mask(sources), mask, depth) == cut

    def test_components_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(4)
        for seed in range(30):
            g = random_graph(rng.randint(0, 30), rng.choice([0.03, 0.08, 0.15]), seed)
            full = set(range(g.n))
            for scope in (full, {v for v in full if rng.random() < 0.6}):
                nxg = nx.Graph(e for e in g.edges() if e[0] in scope and e[1] in scope)
                nxg.add_nodes_from(scope)
                expected = sorted((sorted(c) for c in nx.connected_components(nxg)), key=min)
                assert [sorted(c) for c in components_of_subset(g, scope)] == expected
                if scope is full:
                    assert components(g) == expected
class TestInducedPath:
    def test_paths_and_chords(self):
        g = cycle_graph(5)
        assert is_induced_path(g, [])
        assert is_induced_path(g, [2])
        assert is_induced_path(g, [0, 1, 2, 3])
        assert not is_induced_path(g, [0, 1, 2, 3, 4])  # chord 4-0
        assert not is_induced_path(g, [0, 2])  # not adjacent
        assert not is_induced_path(g, [0, 1, 0])  # repeated vertex

    def test_out_of_range_vertices_are_no_path(self):
        g = cycle_graph(5)
        assert not is_induced_path(g, [-1, 0])
        assert not is_induced_path(g, [7, 0])
        assert not is_induced_path(g, [5])

    def test_matches_pairwise_definition(self):
        rng = random.Random(12)
        for seed in range(40):
            g = random_graph(9, 0.35, seed)
            seq = rng.sample(range(g.n), rng.randint(1, 6))
            expected = all(
                g.has_edge(a, b) == (j == i + 1)
                for i, a in enumerate(seq)
                for j, b in enumerate(seq)
                if i < j
            )
            assert is_induced_path(g, seq) == expected


class TestInducedSubgraph:
    def test_mapping(self):
        g = petersen()
        sub, to_sub, from_sub = induced_subgraph(g, [0, 1, 4, 5])
        assert sub.n == 4
        for u in range(sub.n):
            for v in range(u + 1, sub.n):
                assert sub.has_edge(u, v) == g.has_edge(from_sub[u], from_sub[v])
        assert all(to_sub[from_sub[i]] == i for i in range(sub.n))
