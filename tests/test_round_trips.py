"""Property tests for round trips: graph6 and edge-list encodings parse back
to the same graph, and every membership witness of a non-member re-checks
as a violation of its class."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oddholes import (  # noqa: E402
    ClassSpec,
    Graph,
    class_membership,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
    witness_violates,
)


@st.composite
def graphs(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else set()
    return Graph(n, sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@st.composite
def large_graphs(draw):
    """n past the one-byte graph6 size field, sparse or dense."""
    n = draw(st.integers(63, 300))
    p = draw(st.sampled_from([0.0, 0.01, 0.05, 0.5, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(large_graphs())
def test_graph6_round_trip_past_one_byte_size_field(g):
    text = to_graph6(g)
    assert text[0] == "~"
    assert parse_graph6(text) == g


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


@st.composite
def seeded_non_member_candidates(draw):
    """A planted odd cycle with pendant trees and a few random extra edges,
    relabelled by a seeded permutation.  Without extra edges the cycle is
    an odd hole, so most draws are non-members; extra edges add triangles,
    short cycles and 5- and 7-holes."""
    cspec = draw(st.sampled_from(
        [ClassSpec("G", 2), ClassSpec("A", 3), ClassSpec("B", 3), ClassSpec("F", 2)]
    ))
    length = draw(st.sampled_from(range(3, 26, 2)))
    n = length + draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {(i, (i + 1) % length) for i in range(length)}
    edges.update((rng.randrange(v), v) for v in range(length, n))
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(rng.sample(range(n), 2)))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
    return cspec, Graph(n, sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seeded_non_member_candidates())
def test_non_member_witness_violates_its_class(case):
    cspec, g = case
    verdict = class_membership(g, cspec)
    if not verdict.member:
        assert witness_violates(g, verdict.witness, cspec)
