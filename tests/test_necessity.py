"""Counting-based necessity: profile tables, Burnside forms, exclusions."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from conftest import enumerate_realizable_profiles
from hypothesis import given
from hypothesis import strategies as st

from bipartite_tsg.bipartite import CycleProfile
from bipartite_tsg.necessity import (
    BURNSIDE_COEFFS,
    GROUP_ORDER,
    ICOSAHEDRAL_ORBIT_SIZES,
    RULES,
    TABLE_MODULUS,
    FixedCount,
    FixedProfile,
    LinearForm,
    _order_options,
    a5_small_case_analysis,
    allowed_residues,
    burnside_residues,
    enumerate_profiles,
    necessity_verdict,
    partition_feasible,
    s4_burnside_orbits,
    s4_n6_analysis,
)
from bipartite_tsg.realizability import profile_cases


def table_as_strings(group):
    """Rows as ((v counts...), (w counts...), residue) with str'd entries."""
    return [
        (
            tuple(str(c) for _, c in profile.v),
            tuple(str(c) for _, c in profile.w),
            residue,
        )
        for profile, residue in enumerate_profiles(group)
    ]


# ----------------------------------------------------------------- primitives


def test_fixed_count_validation():
    assert str(FixedCount.exact(2)) == "2"
    assert str(FixedCount.multiple_of(4)) == "4t"
    with pytest.raises(ValueError):
        FixedCount.exact(3)
    with pytest.raises(ValueError):
        FixedCount.multiple_of(7)
    with pytest.raises(ValueError):
        FixedCount("weird", 1)


def test_profile_slot_enforcement():
    with pytest.raises(ValueError):
        FixedProfile(
            "A4",
            (("3", FixedCount.exact(1)), ("2", FixedCount.exact(1))),
            (("2", FixedCount.exact(1)), ("3", FixedCount.exact(1))),
        )


def test_linear_form_str_and_eval():
    form = LinearForm(Fraction(3, 2), (("m", Fraction(1, 4)),))
    assert str(form) == "3/2 + 1/4*m"
    assert form.evaluate(m=2) == 2
    assert form.evaluate(m=1) == Fraction(7, 4)


# -------------------------------------------------------------- profile tables


def test_tetrahedral_table_frozen():
    assert table_as_strings("A4") == [
        (("2", "2"), ("2", "2"), 2),
        (("2", "3t"), ("2", "0"), 6),
        (("4t", "1"), ("0", "1"), 4),
        (("4t", "2"), ("0", "2"), 8),
        (("4t", "3t"), ("0", "0"), 0),
    ]


def test_icosahedral_table_frozen():
    assert table_as_strings("A5") == [
        (("2", "2", "2"), ("2", "2", "2"), 2),
        (("2", "2", "5t"), ("2", "2", "0"), 50),
        (("2", "3t", "2"), ("2", "0", "2"), 42),
        (("2", "3t", "5t"), ("2", "0", "0"), 30),
        (("4t", "2", "2"), ("0", "2", "2"), 32),
        (("4t", "2", "5t"), ("0", "2", "0"), 20),
        (("4t", "3t", "2"), ("0", "0", "2"), 12),
        (("4t", "3t", "5t"), ("0", "0", "0"), 0),
    ]


def test_octahedral_group_has_no_table_of_its_own():
    with pytest.raises(ValueError):
        enumerate_profiles("S4")


def test_table_rows_have_unique_residues():
    for group in ("A4", "A5"):
        residues = [r for _, r in enumerate_profiles(group)]
        assert len(residues) == len(set(residues))


def test_allowed_residues_frozen():
    assert allowed_residues("A4") == frozenset({0, 2, 4, 6, 8})
    assert allowed_residues("S4") == frozenset({0, 2, 4, 6, 8})
    assert allowed_residues("A5") == frozenset({0, 2, 12, 20, 30, 32, 42, 50})


def _menu_pairs(order, n_max):
    """The (V, W) fixed counts the per-order menu and its mirror allow, a
    multiple of the order instantiated up to ``n_max``."""

    def values(count):
        if count.kind == "exact":
            return {count.value}
        return set(range(0, n_max + 1, count.value))

    pairs = set()
    for v, w in _order_options(order):
        pairs |= set(itertools.product(values(v), values(w)))
        pairs |= set(itertools.product(values(w), values(v)))
    return pairs


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_the_order_menu_and_its_mirror_are_the_realizable_fixed_counts(order):
    """The necessity menu and the realizability patterns type the same fact
    twice: which (V, W) fixed counts one realizable part-preserving
    automorphism of the given order can have.  At desk scale they agree:
    (1, 1), (2, 2), (k * order, 0) and (0, k * order)."""
    seen = set()
    for n in range(3, 13):
        fixed = {
            (dict(p.v_counts).get(1, 0), dict(p.w_counts).get(1, 0))
            for p in enumerate_realizable_profiles(n, order)
            if not p.cross_counts
        }
        assert fixed <= _menu_pairs(order, n), n
        seen |= fixed
    multiples = range(0, 13, order)
    assert seen == _menu_pairs(order, 12) == {(1, 1), (2, 2)} | {
        pair for m in multiples for pair in ((m, 0), (0, m))
    }


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_the_order_menu_is_what_the_patterns_accept_as_given(order):
    """Hold a fixed vertices in V and b in W, a, b <= 3 * order with
    a = b (mod order), and fill the rest of each part with full cycles.  The
    pairs the patterns accept under the given labeling are the menu's
    options, a multiple of the order taken as 0 to 3 times it."""

    def values(count):
        if count.kind == "exact":
            return {count.value}
        return {k * count.value for k in range(4)}

    def part(fixed, n):
        full = ((order, (n - fixed) // order),)  # at least one full cycle
        return ((1, fixed),) + full if fixed else full

    menu = set()
    for v, w in _order_options(order):
        menu |= set(itertools.product(values(v), values(w)))
    accepted = set()
    for a, b in itertools.product(range(3 * order + 1), repeat=2):
        if (a - b) % order == 0:
            n = 4 * order + a % order
            profile = CycleProfile(n, order, part(a, n), part(b, n), ())
            if profile_cases(profile)[1] == "as-given":
                accepted.add((a, b))
    assert accepted == menu


@pytest.mark.parametrize("group", ["A4", "A5"])
def test_the_mirrored_table_admits_no_residue_outside_the_table(group):
    """The engine counts fixed vertices on the V side only.  Swapping V and
    W in every row gives the tables of the mirror convention; every residue
    their Burnside sums admit is one the table already admits, so the
    convention loses no n.  S4 reads A4's table."""
    mirrored = set()
    for profile, _ in enumerate_profiles(group):
        mirror = FixedProfile(group, profile.w, profile.v)
        mirrored |= burnside_residues(group, mirror)
    assert mirrored <= allowed_residues(group)
    assert mirrored  # some mirrored row fixes a residue


def test_each_row_residue_is_consistent_with_burnside():
    for group in ("A4", "A5"):
        modulus = TABLE_MODULUS[group]
        for profile, residue in enumerate_profiles(group):
            assert burnside_residues(group, profile) == {residue}, profile
            assert 0 <= residue < modulus


def test_tables_against_independent_integrality_oracle():
    """Re-derive each row's residue from scratch: instantiate the multiples
    with several witness values of t and check that the Burnside vertex-orbit
    average over each part is an integer exactly at the claimed residue."""
    for group in ("A4", "A5"):
        order = GROUP_ORDER[group]
        coeffs = BURNSIDE_COEFFS[group]
        modulus = TABLE_MODULUS[group]
        for profile, residue in enumerate_profiles(group):
            for t in (1, 2, 3):
                for side in (profile.v, profile.w):
                    counts = {
                        slot: (c.value if c.kind == "exact" else c.value * t)
                        for slot, c in side
                    }
                    weighted = sum(
                        coeffs[slot] * c for slot, c in counts.items()
                    )
                    for k in range(3):
                        n = residue + modulus * k
                        assert (n + weighted) % order == 0, (
                            group, residue, side, t, n,
                        )


@pytest.mark.parametrize(
    "group, kinds",
    [
        ("A4", ["tetrahedron"]),
        ("S4", ["cube", "tetrahedron-skeleton"]),
        ("A5", ["dodecahedron"]),
    ],
)
def test_the_burnside_literals_are_the_models_class_sizes(models, group, kinds):
    # The necessity side keeps its literals, so a denial builds no model;
    # the models' elements, counted by order, must agree with them.  In S4
    # "2" counts the involutions that are squares and "m2" the others.
    for kind in kinds:
        m = models[kind]
        squares = {e * e for e in m.group}
        sizes = Counter()
        for e in m.nontrivial:
            order = str(e.order())
            if order == "2" and group == "S4" and e not in squares:
                order = "m2"
            sizes[order] += 1
        assert m.group.order == GROUP_ORDER[group], kind
        assert dict(sizes) == BURNSIDE_COEFFS[group], kind


# --------------------------------------------------- the octahedral n = 6 case


def test_s4_burnside_form_concrete():
    form = s4_burnside_orbits(6, {"2": 2, "3": 3, "4": 2, "m2": 4})
    assert form.coeffs == ()
    assert form.constant == 3


def test_s4_six_exclusion_branches():
    branch_fix, branch_free = s4_n6_analysis()

    assert branch_fix.n4v == 2
    assert branch_fix.orbit_form.constant == 2
    assert branch_fix.orbit_form.coeffs == (("m2v", Fraction(1, 4)),)
    assert branch_fix.admissible_m2v == (4,)
    assert branch_fix.exclusions == ((4, RULES["s4-six-shared-axis"]),)

    assert branch_free.n4v == 0
    assert branch_free.orbit_form.constant == Fraction(3, 2)
    assert branch_free.orbit_form.coeffs == (("m2v", Fraction(1, 4)),)
    assert branch_free.admissible_m2v == (2, 6)
    assert dict(branch_free.exclusions) == {
        6: RULES["s4-six-axis-overload"],
        2: RULES["s4-six-triple-point"],
    }


def test_s4_six_no_branch_survives():
    # The contradiction: every integral m2v value in every branch is excluded.
    for branch in s4_n6_analysis():
        assert {m for m, _ in branch.exclusions} == set(branch.admissible_m2v)


# ------------------------------------------------------ icosahedral exclusions


def test_icosahedral_orbit_sizes_frozen():
    assert ICOSAHEDRAL_ORBIT_SIZES == frozenset({12, 20, 30, 60})


def brute_force_feasible(count, sizes):
    if count == 0:
        return True
    sizes = sorted(sizes)
    frontier = {0}
    while frontier:
        new = set()
        for total in frontier:
            for s in sizes:
                if total + s == count:
                    return True
                if total + s < count:
                    new.add(total + s)
        frontier = new
    return False


def test_partition_feasible_matches_brute_force():
    for count in range(0, 75):
        assert partition_feasible(count, ICOSAHEDRAL_ORBIT_SIZES) == (
            brute_force_feasible(count, ICOSAHEDRAL_ORBIT_SIZES)
        ), count


def test_partition_feasible_frozen_values():
    assert not partition_feasible(10, ICOSAHEDRAL_ORBIT_SIZES)
    assert not partition_feasible(18, ICOSAHEDRAL_ORBIT_SIZES)
    assert not partition_feasible(28, ICOSAHEDRAL_ORBIT_SIZES)
    assert partition_feasible(32, ICOSAHEDRAL_ORBIT_SIZES)
    assert partition_feasible(0, ICOSAHEDRAL_ORBIT_SIZES)
    assert not partition_feasible(-1, ICOSAHEDRAL_ORBIT_SIZES)


@given(st.integers(min_value=0, max_value=200), st.sets(st.sampled_from([12, 20, 30, 60]), min_size=1))
def test_partition_feasible_property(count, sizes):
    assert partition_feasible(count, sizes) == brute_force_feasible(count, sizes)


def test_a5_small_cases():
    tiny = a5_small_case_analysis(2)
    assert tiny.rules == (RULES["aut-too-small"],)

    for n in (12, 20, 30):
        case = a5_small_case_analysis(n)
        assert case.always_fixed == 2
        assert case.remaining == n - 2
        assert not case.remaining_feasible
    assert RULES["a5-simplex-midpoint-orbit"] in a5_small_case_analysis(30).rules
    with pytest.raises(ValueError):
        a5_small_case_analysis(14)


# ------------------------------------------------------------------- verdicts


def rule_ids(n, group):
    return tuple(r.id for r in necessity_verdict(n, group).rules_fired)


def test_verdict_rule_firings_frozen():
    assert rule_ids(7, "A4") == ("residue-excluded",)
    assert rule_ids(2, "A4") == ("part-size-minimum",)
    assert rule_ids(1, "S4") == ("residue-excluded", "part-size-minimum")
    assert rule_ids(6, "S4") == ("s4-six-exclusion",)
    assert rule_ids(6, "A4") == ("residue-admitted",)
    assert rule_ids(2, "A5") == ("part-size-minimum", "a5-lower-bound")
    assert rule_ids(12, "A5") == ("a5-lower-bound", "a5-orbit-sizes")
    assert rule_ids(30, "A5") == (
        "a5-lower-bound", "a5-orbit-sizes", "a5-simplex-midpoint-orbit",
    )
    assert rule_ids(36, "A5") == ("residue-excluded",)
    assert rule_ids(90, "A5") == ("residue-admitted",)


def test_verdict_witness_profile_present_only_when_allowed():
    allowed = necessity_verdict(16, "A4")
    assert allowed.allowed and allowed.witness_profile is not None
    denied = necessity_verdict(9, "A4")
    assert not denied.allowed and denied.witness_profile is None


def test_verdict_input_validation():
    with pytest.raises(ValueError):
        necessity_verdict(4, "D6")
    with pytest.raises(ValueError):
        necessity_verdict(-1, "A4")
    for n in (True, 16.0):
        with pytest.raises(ValueError, match="part size must be an integer"):
            necessity_verdict(n, "A4")


def test_denials_always_cite_a_rule():
    for group in ("A4", "S4", "A5"):
        for n in range(0, 130):
            verdict = necessity_verdict(n, group)
            if not verdict.allowed:
                assert verdict.rules_fired
            else:
                assert verdict.rules_fired == (RULES["residue-admitted"],)
