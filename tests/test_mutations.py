"""Broken placements built from real recipes must fail verification."""

import re
from dataclasses import replace

import pytest

from bipartite_tsg.assignments import (
    RECIPES,
    CenterPair,
    FreeOrbitBlock,
    MarkerBlock,
    _TEMPLATES,
    VertexAssignment,
    build_assignment,
    verify_fixed_counts,
)
from bipartite_tsg.decision import InternalMismatch, decide
from bipartite_tsg.hypotheses import (
    check_edge_embedding_hypotheses,
    check_subgroup_theorem,
    subgroup_corollary_witness,
    verify_construction,
)

_OTHER_PART = {"V": "W", "W": "V", "split": "split"}


def flip_every_part(a):
    """The placement with every block moved to the other part."""
    return replace(
        a,
        blocks=tuple(
            tuple(replace(b, part=_OTHER_PART[b.part]) for b in group)
            for group in a.blocks
        ),
    )


def edit_marker(a, key, **changes):
    """The placement with the fields of the marker block ``key`` =
    ``(marker class, copy name)`` changed."""
    return replace(
        a,
        blocks=tuple(
            tuple(
                replace(b, **changes)
                if isinstance(b, MarkerBlock)
                and (b.marker_class, b.copy_name) == key
                else b
                for b in group
            )
            for group in a.blocks
        ),
    )


def drop_swap_partners(a):
    """The placement whose marker copies no longer trade places."""
    return replace(
        a,
        blocks=tuple(
            tuple(
                replace(b, swap_partner=None) if isinstance(b, MarkerBlock) else b
                for b in group
            )
            for group in a.blocks
        ),
    )


@pytest.mark.parametrize("pair", [("S4", 32), ("S4", 44), ("A5", 72)])
def test_flipping_every_part_matches_no_counting_row(pair):
    mutant = flip_every_part(build_assignment(*pair))
    with pytest.raises(AssertionError, match="placement matches 0 counting rows"):
        verify_construction(mutant)


def test_dropping_the_swap_partners_is_rejected():
    a = build_assignment("A4", 16)
    assert a.case_name == "skeleton-4"
    mutant = drop_swap_partners(a)
    with pytest.raises(
        AssertionError, match="a swap-invariant circle admits at most one copy"
    ):
        verify_construction(mutant)


# ---------------------------------------- blocks the constructor must refuse


def test_a_block_on_a_copy_the_placement_lacks_is_rejected():
    a = build_assignment("S4", 32)
    assert a.case_name == "cube-8"
    with pytest.raises(ValueError, match="copy_name='nowhere'.*sits on no copy"):
        edit_marker(a, ("face", "base"), copy_name="nowhere")


@pytest.mark.parametrize("pair", [("S4", 32), ("A5", 72)])
def test_a_swap_partner_on_a_model_without_part_swaps_is_rejected(pair):
    a = build_assignment(*pair)
    with pytest.raises(ValueError, match="swap_partner='base'.*swaps the parts"):
        edit_marker(a, ("face", "base"), swap_partner="base")


@pytest.mark.parametrize("partner", ["nowhere", "base"])
def test_a_swap_partner_that_does_not_name_the_block_back_is_rejected(partner):
    a = build_assignment("A4", 16)
    assert a.case_name == "skeleton-4"
    message = "holds no corner block naming 'inner' back"
    with pytest.raises(ValueError, match=message):
        edit_marker(a, ("corner", "inner"), swap_partner=partner)


def test_a_one_sided_swap_partner_is_rejected():
    a = build_assignment("A4", 16)
    with pytest.raises(ValueError, match="copy_name='outer'.*naming 'outer' back"):
        edit_marker(a, ("corner", "inner"), swap_partner=None)


def test_a_block_repeated_in_the_placement_is_rejected():
    # Part sizes still match, so only the duplicate-label check can refuse:
    # a corner block moved onto the copy another corner block holds, and a
    # second pair of poles in place of W's markers.
    a = build_assignment("A4", 42)
    assert a.case_name == "cube-18"
    with pytest.raises(ValueError, match="duplicate point labels"):
        edit_marker(a, ("corner", "inner"), copy_name="outer")
    a = build_assignment("A5", 62)
    assert a.case_name == "dodecahedron-2"
    with pytest.raises(ValueError, match="duplicate point labels"):
        replace(a, blocks=(a.blocks[0], (CenterPair("W"), FreeOrbitBlock(1, "W"))))


# ------------------------------------- recorded edges a copy move takes away


@pytest.mark.parametrize(
    "pair, case, marker, old, new, field",
    [
        (("A4", 42), "cube-18", "corner", "outer", "base", "step_down"),
        (("A4", 44), "cube-20", "corner", "base", "inner", "witness"),
    ],
)
def test_a_copy_move_that_removes_a_recorded_label_names_it(
    pair, case, marker, old, new, field
):
    a = build_assignment(*pair)
    assert a.case_name == case
    mutant = edit_marker(a, (marker, old), copy_name=new)
    label = re.escape(repr((marker, old, 0)))
    message = f"recipe {case} records the {field} label {label}"
    with pytest.raises(ValueError, match=message):
        verify_construction(mutant)


# ----------------------------- a warm core record must hide no broken placement


def _rejection(a):
    """The stage of ``verify_construction`` that rejects ``a``, in its
    order, with the exception's type and message; None if all pass."""
    stages = [
        ("build", lambda a: a.transversal),
        ("fixed counts", verify_fixed_counts),
        ("conditions", check_edge_embedding_hypotheses),
        ("witness", check_subgroup_theorem),
    ]
    if a.target_group == "A4" and a.model.group.order == 24:
        stages.append(("step-down", subgroup_corollary_witness))
    for stage, check in stages:
        try:
            check(a)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return stage, type(exc), str(exc)
    return None


# Recipe-data mutants: the skeleton-4 recipe with its witness or its
# step-down edge moved to two corners on one third-turn axis.  That rotation
# fixes the pair pointwise, and the pair's forced subgraph lies in the axis
# circle.  A placement follows an edited recipe by its case name.
_SAME_AXIS = (("corner", "inner", 0), ("corner", "outer", 0))
_EDITED_RECIPES = {
    "skeleton-4/witness": {"witness": (_SAME_AXIS,)},
    "skeleton-4/step_down": {"step_down": _SAME_AXIS},
}


def witness_on_one_axis(a):
    return replace(a, case_name="skeleton-4/witness")


def step_down_on_one_axis(a):
    return replace(a, case_name="skeleton-4/step_down")


@pytest.mark.parametrize(
    "pair, mutate, stage",
    [
        (("S4", 32), flip_every_part, "fixed counts"),
        (("S4", 44), flip_every_part, "fixed counts"),
        (("A5", 72), flip_every_part, "fixed counts"),
        (("A4", 16), drop_swap_partners, "conditions"),
        (
            ("A4", 42),
            lambda a: edit_marker(a, ("corner", "outer"), copy_name="base"),
            "step-down",
        ),
        (
            ("A4", 44),
            lambda a: edit_marker(a, ("corner", "base"), copy_name="inner"),
            "witness",
        ),
        (("A4", 16), witness_on_one_axis, "witness"),
        (("A4", 16), step_down_on_one_axis, "step-down"),
    ],
)
def test_a_warm_memo_rejects_a_mutant_as_a_cold_one_does(
    pair, mutate, stage, monkeypatch
):
    for case, edit in _EDITED_RECIPES.items():
        monkeypatch.setitem(RECIPES, case, replace(RECIPES["skeleton-4"], **edit))
    mutant = mutate(build_assignment(*pair))
    _TEMPLATES.clear()
    cold = _rejection(mutant)
    assert cold is not None and cold[0] == stage

    _TEMPLATES.clear()
    verify_construction(build_assignment(*pair))  # the real placement's core
    assert _rejection(mutate(build_assignment(*pair))) == cold


# ------------------------------------------ a numbering fault fails, and fast


def vertex_of_ignoring_the_orbit(self, point):
    """``VertexAssignment.vertex_of`` with the orbit offset dropped: every
    free orbit of a run is numbered as its first, so the vertex map sends
    two labels to one vertex and is no permutation."""
    by_prefix = self.template.by_prefix
    if point[0] == "free":
        runs, k = by_prefix.get(point[:-2], ()), point[-2]
    else:
        runs, k = by_prefix.get(point[:-1], ()), 0
    j = point[-1]
    for run in runs:
        count = run.count + self.m * run.grows
        if 0 <= k - run.first < count and 0 <= j < len(run.vertices):
            return run.vertices[j] + run.parts[j] * self.n
    return None


@pytest.mark.parametrize("pair", [("A5", 182), ("S4", 56), ("A4", 24)])
def test_a_vertex_map_that_drops_the_orbit_offset_names_two_labels(pair, monkeypatch):
    monkeypatch.setattr(VertexAssignment, "vertex_of", vertex_of_ignoring_the_orbit)
    a = build_assignment(*pair)
    message = r"sends \('free', .*\) and \('free', .*\) to one vertex \d+"
    for g in a.model.group.generators:
        with pytest.raises(ValueError, match=message):
            a.induced_perm(g)


def test_a_cold_skeleton_decide_reports_the_numbering_fault(monkeypatch):
    # the fixed-count stage checks the numbering of each part's last vertex
    monkeypatch.setattr(VertexAssignment, "vertex_of", vertex_of_ignoring_the_orbit)
    with pytest.raises(InternalMismatch, match="to one vertex"):
        decide(24, "A4")


@pytest.mark.parametrize("pair", [("A4", 24), ("S4", 56), ("A5", 182)])
def test_the_numbering_fault_fails_a_cold_and_a_warm_decide(pair, monkeypatch):
    # The check runs on every call, not only on a core's first one.
    group, n = pair
    _TEMPLATES.clear()
    assert decide(n, group).realizable  # the honest numbering warms the core
    monkeypatch.setattr(VertexAssignment, "vertex_of", vertex_of_ignoring_the_orbit)
    message = r"the numbering sends \('free', .*\) and \('free', .*\) to one vertex"
    with pytest.raises(InternalMismatch, match=message):
        decide(n, group)  # warm
    _TEMPLATES.clear()
    with pytest.raises(InternalMismatch, match=message):
        decide(n, group)  # cold


def test_a_vertex_map_that_loses_a_later_orbit_names_the_label(monkeypatch):
    honest = VertexAssignment.vertex_of

    def vertex_of_orbit_zero_only(self, point):
        return None if point[0] == "free" and point[-2] else honest(self, point)

    monkeypatch.setattr(VertexAssignment, "vertex_of", vertex_of_orbit_zero_only)
    with pytest.raises(ValueError, match=r"sends \('free', 'VW', 1, \d+\) to no vertex"):
        verify_fixed_counts(build_assignment("A4", 24))
