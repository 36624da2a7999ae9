"""Property tests over the theorem table: for random members of every row's
class, the certified colouring is proper and within the class bound, and
``color --class`` agrees with the verify bound property."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oddholes import (  # noqa: E402
    ClassSpec,
    GenSpec,
    certified_class_color,
    class_bound,
    generate_member,
    is_proper,
    verify_graph,
)
from oddholes.verify import THEOREMS  # noqa: E402

BOUND_PROPERTY = {
    "G": "chi_le_1456_certified",
    "A": "four_coloring_within_4",
    "B": "chi_le_12ell_plus_8",
}


@st.composite
def member_specs(draw):
    family, ell = draw(st.sampled_from(list(THEOREMS)))
    if ell is None:
        ell = draw(st.integers(2, 4))
    seven_hole_free = family == "B" and draw(st.booleans())
    return GenSpec(
        ClassSpec(family, ell, seven_hole_free),
        n=draw(st.integers(8, 24)),
        density=draw(st.sampled_from((0.1, 0.2, 0.3))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(member_specs())
def test_certified_coloring_is_proper_within_bound_and_agrees_with_verify(spec):
    g = generate_member(spec).graph
    cert = certified_class_color(g, spec.cspec)
    assert is_proper(g, cert.coloring)
    assert cert.bound == class_bound(spec.cspec)
    if cert.bound is not None:
        assert cert.within is True and cert.coloring.colors_used <= cert.bound

    record = verify_graph(g, "member.g6", spec.cspec)
    assert record.member is True
    name = BOUND_PROPERTY.get(spec.cspec.family)
    if name is None:
        assert cert.bound is None
        return
    status = {p.name: p.status for p in record.properties}[name]
    if cert.within is None:
        # B without the seven-hole-free flag: the bound applies only when
        # the graph happens to have no 7-hole.
        assert status in ("pass", "skip")
    else:
        assert (status == "pass") == cert.within
