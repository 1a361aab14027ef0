"""Complete-bipartite automorphisms, cycle profiles, and fixed subgraphs."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipartite_tsg.bipartite import (
    CycleProfile,
    FixedSubgraphShape,
    MixedParts,
    cycle_profile,
    embeds_in_circle,
    embeds_in_proper_subset_of_circle,
    fixed_shape,
    validate_automorphism,
)
from bipartite_tsg.perms import Perm, generate_group


def adjacency_preserving_perms(n):
    """Brute-force automorphism group of K_{n,n} over all (2n)! permutations."""

    def adjacent(x, y):  # V is 0..n-1, W is n..2n-1
        return (x < n) != (y < n)

    out = []
    for images in itertools.permutations(range(2 * n)):
        p = Perm(images)
        if all(
            adjacent(x, y) == adjacent(p(x), p(y))
            for x in range(2 * n)
            for y in range(x + 1, 2 * n)
        ):
            out.append(p)
    return out


def test_automorphism_group_order_is_2_n_factorial_squared():
    # |Aut(K_{n,n})| = 2 (n!)^2: independent part permutations and the swap.
    assert len(adjacency_preserving_perms(2)) == 8
    assert len(adjacency_preserving_perms(3)) == 72


def test_automorphism_group_of_k22_is_dihedral_of_order_8():
    auts = adjacency_preserving_perms(2)
    group = generate_group(auts)
    assert group.order == 8
    orders = sorted(e.order() for e in group)
    # D4 signature: identity, five involutions... no - D4 has 2 elements of
    # order 4, 5 of order 2 and the identity; the quaternion group (the only
    # other non-abelian order-8 group) has a single involution.
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


# ------------------------------------------------------------------ validation


def test_validate_part_preserving():
    p = Perm.from_cycles(6, [(0, 1, 2), (3, 4, 5)])
    aut = validate_automorphism(p, 3)
    assert aut.part_behavior == "preserves"
    assert aut.order() == 3


def test_validate_part_swapping():
    p = Perm.from_cycles(6, [(0, 3), (1, 4), (2, 5)])
    aut = validate_automorphism(p, 3)
    assert aut.part_behavior == "swaps"


def test_validate_rejects_mixing():
    p = Perm.from_cycles(6, [(0, 3)])
    with pytest.raises(MixedParts):
        validate_automorphism(p, 3)


def test_validate_rejects_wrong_degree():
    with pytest.raises(ValueError):
        validate_automorphism(Perm.identity(5), 3)


@pytest.mark.parametrize("n", [0, -1])
def test_validate_rejects_a_nonpositive_part_size(n):
    # the same message as parse_cycles
    with pytest.raises(ValueError, match=f"part size must be positive, got n = {n}"):
        validate_automorphism(Perm.identity(0), n)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_validate_rejects_a_non_integer_part_size(n):
    with pytest.raises(ValueError, match="part size must be an integer"):
        validate_automorphism(Perm.identity(2), n)


def test_every_adjacency_preserving_perm_validates():
    for p in adjacency_preserving_perms(3):
        validate_automorphism(p, 3)


def test_mixing_perms_are_exactly_the_non_automorphisms():
    valid = set(adjacency_preserving_perms(2))
    for images in itertools.permutations(range(4)):
        p = Perm(images)
        if p in valid:
            validate_automorphism(p, 2)
        else:
            with pytest.raises(MixedParts):
                validate_automorphism(p, 2)


# --------------------------------------------------------------- cycle profile


def test_profile_of_preserving_automorphism():
    p = Perm.from_cycles(8, [(0, 1, 2), (4, 5)])
    profile = cycle_profile(validate_automorphism(p, 4))
    assert profile.r == 6
    assert profile.v_counts == ((1, 1), (3, 1))
    assert profile.w_counts == ((1, 2), (2, 1))
    assert profile.cross_counts == ()
    assert not profile.swapping


def test_profile_of_swapping_automorphism():
    p = Perm.from_cycles(6, [(0, 3, 1, 4), (2, 5)])
    profile = cycle_profile(validate_automorphism(p, 3))
    assert profile.swapping
    assert profile.cross_counts == ((2, 1), (4, 1))
    assert profile.v_counts == () and profile.w_counts == ()


def test_profile_of_counts_reads_a_swap_from_the_v_tally_only():
    profile = CycleProfile.of_counts(3, {4: 1, 2: 1}, {}, swapping=True)
    assert profile == CycleProfile(3, 4, (), (), ((2, 1), (4, 1)))
    assert CycleProfile.of_counts(3, {4: 1, 2: 1}, {}, swapping=False) == (
        CycleProfile(3, 4, ((2, 1), (4, 1)), (), ())
    )
    # Every cycle of a swap meets V, so none is led from W.
    with pytest.raises(ValueError, match="cycle lengths total 4, expected 6"):
        CycleProfile.of_counts(3, {4: 1}, {2: 1}, swapping=True)


def test_swapped_profile_exchanges_parts():
    p = Perm.from_cycles(6, [(0, 1, 2)])
    profile = cycle_profile(validate_automorphism(p, 3))
    flipped = profile.swapped()
    assert flipped.v_counts == profile.w_counts
    assert flipped.w_counts == profile.v_counts


def test_profile_validation_rejects_bad_totals():
    with pytest.raises(ValueError):
        CycleProfile(3, 2, ((2, 1),), ((2, 1),), ())  # totals 4, expected 6
    with pytest.raises(ValueError):
        CycleProfile(3, 4, ((3, 2),), (), ())  # 3 does not divide 4
    with pytest.raises(ValueError):
        CycleProfile(3, 6, ((1, 1), (2, 1)), ((1, 1), (2, 1)), ())  # lcm 2, not 6


@given(st.permutations(range(8)))
def test_profile_totals_and_order_for_random_automorphisms(images):
    # Turn an arbitrary permutation of 8 points into a part-preserving
    # automorphism of K_{8,8} acting on V only.
    p = Perm(tuple(images) + tuple(range(8, 16)))
    profile = cycle_profile(validate_automorphism(p, 8))
    assert sum(x * c for x, c in profile.v_counts) == 8
    assert sum(x * c for x, c in profile.w_counts) == 8
    assert profile.r == p.order()


# --------------------------------------------------------------- fixed shapes


def test_fixed_shape_of_single_automorphism():
    p = Perm.from_cycles(6, [(0, 1)])
    assert fixed_shape([validate_automorphism(p, 3)]) == FixedSubgraphShape(1, 3)


def test_fixed_shape_intersects():
    auts = [
        validate_automorphism(Perm.from_cycles(6, [(0, 1)]), 3),
        validate_automorphism(Perm.from_cycles(6, [(1, 2), (3, 4)]), 3),
    ]
    assert fixed_shape(auts) == FixedSubgraphShape(0, 1)


def test_fixed_shape_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        fixed_shape([])
    with pytest.raises(ValueError):
        fixed_shape(
            [
                validate_automorphism(Perm.identity(4), 2),
                validate_automorphism(Perm.identity(6), 3),
            ]
        )


def test_circle_embeddability_truth_table():
    embeddable = {(0, 0), (0, 5), (7, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    not_embeddable = {(1, 3), (3, 1), (2, 3), (3, 3), (4, 2)}
    for a, b in embeddable:
        assert embeds_in_circle(FixedSubgraphShape(a, b))
    for a, b in not_embeddable:
        assert not embeds_in_circle(FixedSubgraphShape(a, b))


def test_proper_subarc_excludes_the_full_four_cycle():
    assert not embeds_in_proper_subset_of_circle(FixedSubgraphShape(2, 2))
    assert embeds_in_proper_subset_of_circle(FixedSubgraphShape(2, 1))
    assert embeds_in_proper_subset_of_circle(FixedSubgraphShape(0, 9))
    assert not embeds_in_proper_subset_of_circle(FixedSubgraphShape(1, 3))
