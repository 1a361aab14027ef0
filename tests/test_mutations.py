"""Broken placements built from real recipes must fail verification."""

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
