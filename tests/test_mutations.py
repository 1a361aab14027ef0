"""Broken placements built from real recipes must fail verification."""

import re
from dataclasses import replace

import pytest

from bipartite_tsg.assignments import MarkerBlock, build_assignment
from bipartite_tsg.hypotheses import verify_construction

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
