"""Block-structured vertex placements and their induced group actions."""

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_tsg.assignments import (
    COUNTING_LABELS,
    RECIPES,
    CenterPair,
    FreeOrbitBlock,
    MarkerBlock,
    NotRealizable,
    PlacementTemplate,
    VertexAssignment,
    build_assignment,
    check_orbit_count,
    class_label,
    fixed_count_report,
    layout_slots,
    necessity_profile_of,
    place,
    _TEMPLATES,
    recipe_case,
    summarize_blocks,
    verify_fixed_counts,
)
from bipartite_tsg.decision import InternalMismatch, decide, theorem_predicate
from bipartite_tsg.hypotheses import verify_construction
from bipartite_tsg.necessity import GROUPS, TABLE_MODULUS, necessity_verdict
from bipartite_tsg.perms import GroupAction, Perm, generate_group
from bipartite_tsg.polyhedra import build_polyhedral_model

from conftest import (
    MODEL_KINDS,
    SAMPLE_PAIRS,
    all_blocks,
    apply,
    elements_of_order,
    fixed_vertices,
    fixers,
    full_action,
    orbit_count,
    orbits_of,
    part_at,
    vertex_labels,
)

EXPECTED_CASES = {
    ("A4", 6): "tetrahedron-6",
    ("A4", 12): "skeleton-0",
    ("S4", 4): "skeleton-4",
    ("A4", 16): "skeleton-4",
    ("S4", 26): "cube-2",
    ("S4", 30): "cube-6",
    ("S4", 8): "cube-8",
    ("S4", 32): "cube-8",
    ("S4", 14): "cube-14",
    ("A4", 18): "cube-18",
    ("S4", 20): "cube-20",
    ("A5", 32): "dodecahedron-32",
    ("A5", 42): "dodecahedron-42",
    ("A5", 50): "dodecahedron-50",
    ("A5", 60): "dodecahedron-0",
    ("A5", 62): "dodecahedron-2",
    ("A5", 72): "dodecahedron-12",
    ("A5", 80): "dodecahedron-20",
    ("A5", 90): "dodecahedron-30",
    ("A5", 110): "dodecahedron-50",
}


# ------------------------------------------------------------------- dispatch


def test_case_dispatch_frozen(assignments):
    for pair, a in assignments.items():
        assert a.case_name == EXPECTED_CASES[pair], pair


def test_sample_pairs_cover_every_recipe(assignments):
    assert {a.case_name for a in assignments.values()} == set(RECIPES)


def test_not_realizable_raises_with_rule_ids():
    with pytest.raises(NotRealizable, match="residue-excluded"):
        build_assignment("A4", 7)
    with pytest.raises(NotRealizable, match="s4-six-exclusion"):
        build_assignment("S4", 6)
    with pytest.raises(NotRealizable, match="a5-lower-bound"):
        build_assignment("A5", 30)
    with pytest.raises(NotRealizable, match="part-size-minimum"):
        build_assignment("A4", 2)


def test_non_integer_part_size_is_rejected_before_any_recipe():
    for n in (16.0, True):
        with pytest.raises(ValueError, match="part size must be an integer"):
            build_assignment("A4", n)


def test_part_sizes_and_distinct_points(assignments):
    for (_, n), a in assignments.items():
        points = vertex_labels(a)
        parts = [part_at(a, p) for p in points]
        assert parts.count("V") == n
        assert parts.count("W") == n
        assert len(set(points)) == 2 * n


# ------------------------------------------------------------- induced action


def test_every_element_induces_a_valid_automorphism(assignments):
    for (_, n), a in assignments.items():
        for e in a.model.group:
            aut = a.induced_aut(e)
            expected = "preserves" if a.model.parity_of(e) == 1 else "swaps"
            assert aut.part_behavior == expected


def test_block_built_action_matches_the_per_label_map(assignments):
    # Every element's permutation of all 2n vertices is read from
    # ``slot_images``; ``apply`` maps one label at a time from the model's
    # tables and is the reference it must agree with.
    for a in assignments.values():
        points = vertex_labels(a)
        index = {p: i for i, p in enumerate(points)}
        for e in a.model.group:
            assert a.induced_perm(e).images == tuple(
                index[apply(a, e, p)] for p in points
            )


def test_actions_are_faithful(assignments):
    # on all 2n vertices, not only on the transversal
    for a in assignments.values():
        perms = {a.induced_perm(e) for e in a.model.group}
        assert len(perms) == a.model.group.order
        assert all(p.degree == 2 * a.n for p in perms)


def _doctor_generator_images(monkeypatch, doctor):
    """Make every placement build pass its generator image lists through
    ``doctor(points, images)`` before they are checked.  The models are
    built first, so that their own actions stay undoctored whichever test
    runs first."""
    for kind in MODEL_KINDS:
        build_polyhedral_model(kind)
    checked = GroupAction.__init__

    def doctored(self, group, points, images):
        checked(self, group, points, doctor(points, dict(images)))

    monkeypatch.setattr(GroupAction, "__init__", doctored)


def test_a_doctored_generator_image_fails_the_build(monkeypatch):
    def exchange_two_free_vertices(points, images):
        g = next(iter(images))
        u, v = [i for i, p in enumerate(points) if p[0] == "free"][:2]
        row = list(images[g])
        row[u], row[v] = row[v], row[u]
        images[g] = row
        return images

    _doctor_generator_images(monkeypatch, exchange_two_free_vertices)
    with pytest.raises(ValueError, match="not a homomorphism"):
        build_assignment("A5", 62)


def test_a_non_faithful_action_fails_the_build(monkeypatch):
    def trivial(points, images):
        return {g: range(len(points)) for g in images}

    _doctor_generator_images(monkeypatch, trivial)
    with pytest.raises(AssertionError, match="not faithful"):
        build_assignment("A5", 62)


def test_an_action_with_a_proper_kernel_fails_the_build(monkeypatch):
    # The cube group permuting the three coordinate axes, on vertices 0, 1, 2:
    # the quarter turn about z swaps the x and y axes, the third turn
    # x -> y -> z cycles them.  This is a homomorphism, so only the
    # faithfulness check can reject it; its kernel is the normal Klein
    # four-group of half-turns about the axes, which holds no generator.
    def on_axes(points, images):
        moves = {4: [(0, 1)], 3: [(0, 1, 2)]}
        return {
            g: Perm.from_cycles(len(points), moves[g.order()]).images
            for g in images
        }

    _doctor_generator_images(monkeypatch, on_axes)
    with pytest.raises(AssertionError, match="not faithful"):
        build_assignment("S4", 26)


def test_an_action_fixing_a_free_point_fails_the_build(monkeypatch):
    # the core still moves faithfully, but the free orbits stand still, so
    # they are not regular and the per-core checks would not hold for all m
    def fix_the_free_points(points, images):
        free = [i for i, p in enumerate(points) if p[0] == "free"]
        doctored = {}
        for g, row in images.items():
            row = list(row)
            for i in free:
                row[i] = i
            doctored[g] = row
        return doctored

    _doctor_generator_images(monkeypatch, fix_the_free_points)
    with pytest.raises(AssertionError, match="a nontrivial element fixes a free point"):
        build_assignment("A5", 62)


def test_a_placement_checks_only_its_generators_image_lists(monkeypatch):
    build_assignment("A5", 62)  # the shared model and its tables
    _TEMPLATES.clear()  # 62 and 482 share their template
    calls = []
    checked = Perm.__init__

    def counting(self, images):
        calls.append(self)
        checked(self, images)

    monkeypatch.setattr(Perm, "__init__", counting)
    a = build_assignment("A5", 482)
    assert 0 < len(calls) <= len(a.model.group.generators)


# Placements with at least two free orbits per free part, so that the
# translated copies k >= 1 are compared too: V and W orbits with an extra V
# orbit (dodecahedron-2), V and W orbits (cube-20), an extra W orbit
# (cube-6), split orbits alone (skeleton-0) and around a marker core
# (skeleton-4).
TRANSLATION_PAIRS = (("A5", 482), ("S4", 500), ("S4", 78), ("A4", 48), ("S4", 28))


@pytest.fixture(scope="module")
def translated():
    return {pair: build_assignment(*pair) for pair in TRANSLATION_PAIRS}


def test_translation_pairs_have_several_free_orbits_per_part(translated):
    cases = {a.case_name for a in translated.values()}
    assert cases == {"dodecahedron-2", "cube-20", "cube-6", "skeleton-0", "skeleton-4"}
    for pair, a in translated.items():
        orbits = [b.count for b in all_blocks(a) if isinstance(b, FreeOrbitBlock)]
        assert orbits and min(orbits) >= 2, pair


@pytest.mark.parametrize("pair", TRANSLATION_PAIRS)
def test_translated_action_matches_the_per_label_map(translated, pair):
    a = translated[pair]
    points = vertex_labels(a)
    index = {p: i for i, p in enumerate(points)}
    for e in a.model.group:
        expected = tuple(index[apply(a, e, p)] for p in points)
        assert a.induced_perm(e).images == expected, e


@pytest.mark.parametrize("pair", TRANSLATION_PAIRS)
def test_lifted_fixed_sets_equal_a_full_scan(translated, pair):
    # fixed sets found on the transversal, as vertex numbers of all 2n
    a = translated[pair]
    for e in a.model.group:
        assert fixed_vertices(a, e) == a.induced_perm(e).fixed_points(), e


@pytest.mark.parametrize("pair", TRANSLATION_PAIRS)
def test_translated_action_equals_the_action_checked_on_every_vertex(translated, pair):
    # the reference checks the generators' lists on all 2n vertices
    a = translated[pair]
    group = a.model.group
    full = full_action(a)
    expected: dict[int, int] = {}
    for e in group:
        images = full.perms[e].images
        assert a.induced_perm(e).images == images, e
        assert fixed_vertices(a, e) == full.perms[e].fixed_points(), e
    for k, e in enumerate(a.model.nontrivial):
        for i in full.perms[e].fixed_points():
            expected[i] = expected.get(i, 0) | 1 << k
    assert fixers(a) == expected
    assert check_orbit_count(a) == orbit_count(full)


@pytest.mark.parametrize("pair", TRANSLATION_PAIRS)
def test_a_doctored_first_free_orbit_fails_the_build(monkeypatch, pair):
    def exchange_two_free_vertices(points, images):
        g = next(iter(images))
        u, v = [i for i, p in enumerate(points) if p[0] == "free"][-2:]
        row = list(images[g])
        row[u], row[v] = row[v], row[u]
        images[g] = row
        return images

    _doctor_generator_images(monkeypatch, exchange_two_free_vertices)
    with pytest.raises(ValueError, match="not a homomorphism"):
        build_assignment(*pair)


def test_a_placement_composes_at_most_one_full_permutation_per_class(monkeypatch):
    # Warm A5 n = 482: the build and every check read the transversal and
    # the core's tables, so none composes a permutation of all 2n vertices.
    verify_construction(build_assignment("A5", 482))
    n = 482
    composed = []
    wrap = Perm._from_checked.__func__

    def counting(cls, images):
        if len(images) == 2 * n:
            composed.append(images)
        return wrap(cls, images)

    monkeypatch.setattr(Perm, "_from_checked", classmethod(counting))
    a = build_assignment("A5", n)
    verify_construction(a)
    assert composed == []


def test_the_orbit_count_check_rejects_a_wrong_fixed_count(monkeypatch):
    # one vertex fewer fixed by every element of one class leaves the
    # Burnside average short of the direct count (or not an integer)
    a = build_assignment("S4", 500)
    counts = dict(a.class_counts)
    label, (order, size, (v, w)) = next(iter(counts.items()))
    counts[label] = (order, size, (v - 1, w))
    doctored = a.template.fixed._replace(class_counts=counts)
    monkeypatch.setattr(a.template, "fixed", doctored)
    with pytest.raises(AssertionError, match="orbit count mismatch"):
        check_orbit_count(a)


def test_the_orbit_count_check_rejects_a_fractional_burnside_average(monkeypatch):
    # one vertex more fixed by every element of a class smaller than the
    # group raises the sum by less than |G|: the average rounds down to the
    # direct count, but it is no integer
    a = build_assignment("S4", 500)
    counts = dict(a.class_counts)
    label, (order, size, (v, w)) = next(iter(counts.items()))
    assert size < a.model.group.order
    counts[label] = (order, size, (v + 1, w))
    doctored = a.template.fixed._replace(class_counts=counts)
    monkeypatch.setattr(a.template, "fixed", doctored)
    message = r"orbit count mismatch: direct \d+, Burnside \d+/\d+"
    with pytest.raises(AssertionError, match=message):
        check_orbit_count(a)


def test_tetrahedral_and_icosahedral_targets_never_swap_parts(assignments):
    # Those targets use rotation-only models, so every element preserves V.
    for (group, _), a in assignments.items():
        if group in ("A4", "A5") and a.model.kind != "tetrahedron-skeleton":
            for e in a.model.group:
                assert a.model.parity_of(e) == 1
                assert a.induced_aut(e).part_behavior == "preserves"


def test_identity_induces_identity(assignments):
    for a in assignments.values():
        assert a.induced_perm(a.model.group.identity).is_identity()


def test_vertex_orbit_sizes_divide_group_order(assignments):
    for a in assignments.values():
        order = a.model.group.order
        orbits = orbits_of(full_action(a))
        assert sum(map(len, orbits)) == 2 * a.n
        for orbit in orbits:
            assert order % len(orbit) == 0


# --------------------------------------------------------------- fixed counts


def test_fixed_count_invariants_frozen(assignments):
    by_order = lambda a, k: {
        a.fixed_counts(e) for e in elements_of_order(a.model.group, k)
    }
    # Octahedral target at n = 32: every order-4 element fixes (4, 0).
    assert by_order(assignments[("S4", 32)], 4) == {(4, 0)}
    # Tetrahedral target at n = 6: order-3 elements fix (3, 0).
    assert by_order(assignments[("A4", 6)], 3) == {(3, 0)}
    # Icosahedral target at n = 90: order-5 elements fix (10, 0).
    assert by_order(assignments[("A5", 90)], 5) == {(10, 0)}
    # The skeleton at n = 4 keeps one corner of each part per triple axis.
    assert by_order(assignments[("S4", 4)], 3) == {(1, 1)}


def test_class_derived_fixed_sets_equal_a_full_scan(assignments):
    # The fixer table and the fixed counts scan one element per conjugacy
    # class and move its fixed set to the conjugates; the full scan of each
    # element is the reference.
    for pair, a in assignments.items():
        for e in a.model.group:
            scanned = a.induced_perm(e).fixed_points()
            assert fixed_vertices(a, e) == scanned, (pair, e)
            in_v = sum(1 for x in scanned if x < a.n)
            assert a.fixed_counts(e) == (in_v, len(scanned) - in_v), (pair, e)


def test_fixer_table_equals_a_scan_of_every_permutation(assignments):
    for pair, a in assignments.items():
        expected: dict[int, int] = {}
        for k, e in enumerate(a.model.nontrivial):
            for i in a.induced_perm(e).fixed_points():
                expected[i] = expected.get(i, 0) | 1 << k
        assert fixers(a) == expected, pair


def scanned_slot_fixers(table):
    """Each slot's fixer mask read off the table's images: bit a - 1 for
    each nontrivial element index a whose image keeps the slot."""
    return tuple(
        sum(1 << (a - 1) for a, image in enumerate(table.images) if a and image[s] == s)
        for s in range(len(table.slots))
    )


def test_slot_fixers_equal_a_scan_of_the_slot_images(assignments):
    for pair, a in assignments.items():
        table = a.template.slot_table
        assert table.fixers == scanned_slot_fixers(table), pair


def test_a_copy_named_as_its_own_swap_partner_keeps_its_fixers():
    # Each block of skeleton-4 names the other copy as its swap partner.
    # The block checks also accept a block naming its own copy; then its
    # copy stays in place under every element, so the part-swapping
    # elements keep the slots they fix.
    a = place("A4", 16)
    assert a.case_name == "skeleton-4"
    blocks = tuple(
        tuple(
            dataclasses.replace(b, swap_partner=b.copy_name)
            if isinstance(b, MarkerBlock)
            else b
            for b in part
        )
        for part in a.blocks
    )
    table = dataclasses.replace(a, blocks=blocks).template.slot_table
    assert table is not a.template.slot_table
    assert table.fixers == scanned_slot_fixers(table)
    odd = [k for k, sign in enumerate(a.model.parities[1:]) if sign == -1]
    assert any(mask >> k & 1 for mask in table.fixers for k in odd)


def test_a_copy_named_as_its_own_swap_partner_lies_on_the_part_swapping_circles():
    # A copy that names itself as its swap partner stays in place under the
    # part-swapping elements, as a copy naming none does, so their circles
    # run through its slots.
    kind, copies, swaps = place("A4", 16).template.layout
    (name,) = {copy for copy, _ in copies} - {copy for copy, _ in swaps}
    table = layout_slots((kind, copies, swaps | {(name, name)}))
    assert table.axes == layout_slots((kind, copies, swaps)).axes
    on_copy = {s for s, slot in enumerate(table.slots) if slot[1:2] == (name,)}
    swapping = [axis for axis in table.axes if 0 not in axis]  # off the poles
    assert swapping
    assert all(on_copy & set(axis) for axis in swapping)


def test_conjugate_elements_fix_equally_many_vertices(assignments):
    for a in assignments.values():
        for cls in a.model.group.conjugacy_classes():
            counts = {a.fixed_counts(e) for e in cls}
            assert len(counts) == 1


def test_verify_fixed_counts_passes_everywhere(assignments):
    for pair, a in assignments.items():
        report = verify_fixed_counts(a)
        assert report.case_name == EXPECTED_CASES[pair]


def test_necessity_profile_matches_residue(assignments):
    for (group, n), a in assignments.items():
        profile, residue = necessity_profile_of(a)
        table_group = "A4" if group in ("A4", "S4") else "A5"
        assert residue == n % TABLE_MODULUS[table_group]


def test_dodecahedron_12_discrepancy_is_flagged_not_hidden(assignments):
    """One stated order-3 count, (4, 0), contradicts the recomputed (6, 0);
    the report must surface exactly that row as a discrepancy."""
    report = fixed_count_report(assignments[("A5", 72)])
    rows = {row.label: row for row in report.rows}
    assert rows["rotation-3"].computed == (6, 0)
    assert rows["rotation-3"].stated == (4, 0)
    assert report.discrepancies == (rows["rotation-3"],)


def test_all_other_cases_match_their_stated_tables(assignments):
    for pair, a in assignments.items():
        if a.case_name == "dodecahedron-12":
            continue
        assert fixed_count_report(a).discrepancies == (), pair


# -------------------------------------------------------------------- blocks


def test_block_summaries_frozen(assignments):
    assert summarize_blocks(assignments[("A4", 6)]) == (
        "both poles -> V",
        "4 corner markers on copy 'base' -> V",
        "6 edge markers on copy 'base' -> W",
    )
    assert summarize_blocks(assignments[("A4", 12)]) == (
        "1 free orbit split between the parts",
    )
    assert summarize_blocks(assignments[("S4", 4)]) == (
        "4 corner markers on copy 'inner' -> V (trades places with copy 'outer')",
        "4 corner markers on copy 'outer' -> W (trades places with copy 'inner')",
    )


def free_count(a):
    return sum(p[0] == "free" for p in vertex_labels(a))


def test_large_instance_reuses_case_blocks_plus_free_orbits(assignments):
    """n = 110 must reuse the n = 50 marker blocks verbatim and absorb the
    extra 60 vertices per part as one free orbit on each side."""
    small = summarize_blocks(assignments[("A5", 50)])
    large = summarize_blocks(assignments[("A5", 110)])
    assert set(small) < set(large)
    extra = set(large) - set(small)
    assert extra == {"1 free orbit -> V", "1 free orbit -> W"}
    assert free_count(assignments[("A5", 110)]) == 120


def _first_admitted_pair(case):
    return next(
        (group, n)
        for n in range(1, 121)
        for group in GROUPS
        if necessity_verdict(n, group).allowed and recipe_case(group, n) == case
    )


@pytest.mark.parametrize("case", sorted(set(RECIPES) - {"tetrahedron-6"}))
def test_one_more_orbit_adds_only_free_points(case):
    """Every recipe is a fixed core plus free orbits: one more orbit's worth
    of ``n`` keeps every other block and adds one orbit's points per part."""
    group, n0 = _first_admitted_pair(case)
    small = build_assignment(group, n0)
    order = small.model.group.order
    orbit = order // 2 if RECIPES[case].extra is None else order
    large = build_assignment(group, n0 + orbit)
    assert large.case_name == case

    def core(a):
        return [b for b in all_blocks(a) if not isinstance(b, FreeOrbitBlock)]

    assert core(large) == core(small)
    added = free_count(large) - free_count(small)
    assert added == 2 * orbit


def test_a_warm_build_holds_memory_of_the_core_only():
    # Vertices are numbered by runs, one per block, so once the core is
    # checked a placement holds nothing that grows with n.
    build_assignment("A5", 100052)
    tracemalloc.start()
    try:
        build_assignment("A5", 100052)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("group, n", [("A5", 100052), ("A4", 100008), ("S4", 100010)])
def test_a_warm_decide_holds_memory_of_the_core_only(group, n):
    # The per-core tables are read, and the witness closure keeps a wholly
    # forced part as "every vertex but a few".
    decide(n, group)
    tracemalloc.start()
    try:
        verdict = decide(n, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.realizable
    assert peak < 2**20, peak


def _warm_decide_peak(group, n):
    """The peak traced allocation, in bytes, of a warm ``decide``."""
    decide(n, group)
    tracemalloc.start()
    try:
        verdict = decide(n, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.realizable
    return peak


def _residue_pairs():
    """Per group and admitted residue class (mod 24 for A4 and S4, whose
    cube recipes go by ``n mod 24``, and mod 60 for A5): the smallest
    admitted ``n >= 24`` of the class and the one at ``10**18`` or just
    past it."""
    out = []
    for group in ("A4", "S4", "A5"):
        modulus = 60 if group == "A5" else 24
        for r in range(modulus):
            large = 10**18 - 10**18 % modulus + r
            if theorem_predicate(large, group):
                small = next(
                    n for n in range(24, 200)
                    if n % modulus == r and theorem_predicate(n, group)
                )
                out.append((group, small, large))
    return out


#: How much more a warm ``decide`` near ``10**18`` may allocate at its peak
#: than the same residue's near 40, in bytes.  The peaks are 1.9-4.7 KB near
#: 40 and at most 0.9 KB more near ``10**18``: only the digits of the
#: numbers grow.
LARGE_N_EXTRA_PEAK = 2048


@pytest.mark.parametrize("group, small, large", _residue_pairs(), ids=str)
def test_a_warm_decide_near_10_to_18_allocates_as_near_40(group, small, large):
    small_peak = _warm_decide_peak(group, small)
    large_peak = _warm_decide_peak(group, large)
    assert large_peak <= small_peak + LARGE_N_EXTRA_PEAK, (small_peak, large_peak)


@pytest.mark.parametrize("group, n", [("A5", 100052), ("A4", 100008), ("S4", 100010)])
def test_a_warm_report_holds_the_core_only(group, n):
    # The witness writes each part of its forced set as the closure keeps
    # it, so the JSON report, like the call, does not grow with n.
    decide(n, group)
    tracemalloc.start()
    try:
        report = json.dumps(decide(n, group).as_dict(), indent=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.encode("utf-8")) < 4096, len(report)
    assert peak < 2**20, peak


def _first_pair_of_each_case(n_min):
    """The least admitted ``n >= n_min`` of each (group, recipe case)."""
    out = {}
    for group in GROUPS:
        for n in range(n_min, n_min + 120):
            if theorem_predicate(n, group):
                out.setdefault((group, recipe_case(group, n)), n)
    return sorted((group, n) for (group, _), n in out.items())


COLD_PAIRS = _first_pair_of_each_case(100000)


def test_a_cold_decide_holds_memory_of_the_core_only():
    # A core's first call checks the core alone: condition 4 reads the
    # fixed table, so no check builds anything of size 2n, cold or warm.
    # The layout's slot table is dropped too, so each call pays for its own.
    assert len(COLD_PAIRS) == 24
    for kind in MODEL_KINDS:
        build_polyhedral_model(kind)
    too_large = []
    for group, n in COLD_PAIRS:
        _TEMPLATES.clear()
        layout_slots.cache_clear()
        tracemalloc.start()
        try:
            report = json.dumps(decide(n, group).as_dict(), indent=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = len(report.encode("utf-8"))
        if peak >= 2**20 or size >= 4096:
            too_large.append((group, n, recipe_case(group, n), peak, size))
    assert too_large == []


@pytest.mark.parametrize("n", [2, 6])
def test_recipe_rejects_n_its_core_cannot_fill_with_whole_orbits(n):
    # S4 at n = 6 is the theorem's exception: its case, cube-6, puts 30
    # core vertices in V, so no placement comes out
    with pytest.raises(AssertionError, match="cannot fill"):
        place("S4", n)


@pytest.mark.parametrize(
    "group, n, message",
    [
        ("X", 14, "unknown group 'X'"),
        ("a4", 14, "unknown group 'a4'"),
        ("A4", 14.0, "part size must be an integer, got 14.0"),
        ("A4", True, "part size must be an integer, got True"),
    ],
)
def test_place_validates_its_inputs_as_decide_does(group, n, message):
    for call in (place, recipe_case, build_assignment):
        with pytest.raises(ValueError) as exc:
            call(group, n)
        assert str(exc.value) == message, call
    with pytest.raises(ValueError) as exc:
        decide(n, group)
    assert str(exc.value) == message


def test_a_placement_holds_the_shared_model_of_its_kind():
    # The per-core checks and the slot tables know a model by its kind, so
    # a placement on an equal but separate model object is refused rather
    # than checked through the shared model's tables.
    a = place("A5", 60)
    copy = dataclasses.replace(a.model)
    assert copy == a.model and copy is not a.model
    with pytest.raises(
        ValueError, match=r"model must be build_polyhedral_model\('dodecahedron'\)"
    ):
        dataclasses.replace(a, model=copy)


def test_blocks_that_do_not_fill_both_parts_are_rejected(monkeypatch):
    # n = 32 of cube-8 holds one free orbit in each part; a second one in W,
    # or an n the blocks do not fill, is refused by the constructor, and a
    # recipe whose W comes out short or long is refused by ``place``.
    a = place("S4", 32)
    assert a.case_name == "cube-8"
    w_core = a.blocks[1][:-1]
    message = r"blocks fill parts of sizes 32, 56; expected 32 each"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(a, blocks=(a.blocks[0], w_core + (FreeOrbitBlock(2, "W"),)))
    with pytest.raises(ValueError, match=r"sizes 32, 32; expected 33 each"):
        dataclasses.replace(a, n=33)
    recipe = RECIPES["cube-8"]
    monkeypatch.setitem(RECIPES, "cube-8", dataclasses.replace(recipe, extra=(0, 1)))
    with pytest.raises(ValueError, match=message):
        place("S4", 32)


def test_a_recipe_whose_free_block_does_not_end_its_part_is_refused(monkeypatch):
    # A recipe's free blocks grow with n, so a block after one would move.
    recipe = RECIPES["cube-8"]
    v_core = (FreeOrbitBlock(0, "V"),) + recipe.v_core
    monkeypatch.setitem(RECIPES, "cube-8", dataclasses.replace(recipe, v_core=v_core))
    with pytest.raises(AssertionError, match="free block must end each part it fills"):
        place("S4", 32)


def test_an_n_whose_case_has_no_recipe_raises_naming_it():
    with pytest.raises(ValueError, match="case 'cube-3' of n = 27 has no recipe"):
        place("S4", 27)


def test_free_point_counts(assignments):
    assert free_count(assignments[("A4", 6)]) == 0
    assert free_count(assignments[("A4", 12)]) == 24
    assert free_count(assignments[("S4", 32)]) == 48


# ---------------------------------------------------------------- axis slots


def numbered_labels(a):
    """Every label of placement ``a`` in the documented vertex order, read
    from its blocks alone: V, then W; in each part the blocks in order, a
    block's orbits in order (free orbits numbered along their tag), and an
    orbit's labels by index, a split orbit's even elements in V."""
    model = a.model
    sizes = {"corner": len(model.corner_vectors), "edge": len(model.edges),
             "face": len(model.faces)}
    parts, numbered = ([], []), {}
    for b in all_blocks(a):
        if isinstance(b, CenterPair):
            parts["VW".index(b.part)].extend([("center", 0), ("center", 1)])
        elif isinstance(b, MarkerBlock):
            parts["VW".index(b.part)].extend(
                (b.marker_class, b.copy_name, i) for i in range(sizes[b.marker_class])
            )
        else:
            tag = "VW" if b.part == "split" else b.part
            first = numbered.get(tag, 0)
            numbered[tag] = first + b.count
            for k in range(first, first + b.count):
                for j, sign in enumerate(model.parities):
                    p = int(sign == -1) if b.part == "split" else "VW".index(b.part)
                    parts[p].append(("free", tag, k, j))
    return parts[0] + parts[1]


def _with_two_free_orbits():
    """The first admitted placement of each recipe case holding at least two
    free orbits (tetrahedron-6, at n = 6 only, holds none)."""
    found = {}
    for n in range(1, 300):
        for group in GROUPS:
            if theorem_predicate(n, group):
                a = place(group, n)
                orbits = sum(
                    b.count for b in all_blocks(a) if isinstance(b, FreeOrbitBlock)
                )
                if orbits >= 2:
                    found.setdefault(a.case_name, a)
    return found


def test_the_label_and_vertex_rules_invert_each_other():
    # Besides the recipes, two hand-built placements whose free tags span
    # several blocks: whole orbits in V and in W around markers on the
    # tetrahedron, and split orbits (one block empty) on the skeleton.
    by_case = _with_two_free_orbits()
    assert set(by_case) == set(RECIPES) - {"tetrahedron-6"}
    tetrahedron = VertexAssignment(
        42, "A4", "hand-built", build_polyhedral_model("tetrahedron"), (("base", 1),),
        (
            (CenterPair("V"), FreeOrbitBlock(1, "V"),
             MarkerBlock("corner", "base", "V"), FreeOrbitBlock(2, "V")),
            (FreeOrbitBlock(2, "W"), MarkerBlock("edge", "base", "W"),
             FreeOrbitBlock(1, "W")),
        ),
    )
    skeleton = VertexAssignment(
        40, "A4", "hand-built", build_polyhedral_model("tetrahedron-skeleton"),
        RECIPES["skeleton-4"].copies,
        (
            RECIPES["skeleton-4"].v_core,
            RECIPES["skeleton-4"].w_core,
            (FreeOrbitBlock(1, "split"), FreeOrbitBlock(0, "split"),
             FreeOrbitBlock(2, "split")),
        ),
    )
    placements = [*by_case.items(), ("tetrahedron", tetrahedron), ("skeleton", skeleton)]
    for case, a in placements:
        points = vertex_labels(a)
        assert list(points) == numbered_labels(a), case
        assert [a.vertex_of(p) for p in points] == list(range(2 * a.n)), case
        for p in points[:1] + points[-1:]:
            assert a.vertex_of(p[:-1] + (10**6,)) is None
            assert a.vertex_of(p[:-1] + (-1,)) is None
        assert a.vertex_of(("free", "V", 10**6, 0)) is None
        assert a.vertex_of(("free", "V", 0)) is None


def test_axis_slots_structure(assignments):
    # The template's circles in slot numbers, one per axis of the model,
    # and the part of each slot on them.
    occupied = 0
    for pair, a in assignments.items():
        template = a.template
        slots, parts = template.slot_table.slots, template.slot_parts
        assert len(template.slot_axes) == len(a.model.axes), pair
        for axis, numbers in zip(a.model.axes, template.slot_axes):
            points = [slots[s] for s in numbers]
            assert len(set(numbers)) == len(numbers)
            # a part-preserving circle runs through both poles, pole 0 first
            centers = [p for p in points if p[0] == "center"]
            if a.model.parity_of(axis.elements[0]) == 1:
                assert centers == [("center", 0), ("center", 1)]
                assert points[0] == ("center", 0)
            else:
                assert centers == []
            for point, s in zip(points, numbers):
                assert parts[s] in ("V", "W", None)
                assert part_at(a, point) == parts[s]
                occupied += parts[s] is not None
    assert occupied


def test_an_image_that_is_no_vertex_fails_the_build_and_the_decision(
    monkeypatch,
):
    honest = PlacementTemplate.slot_images
    lost = ("corner", "nowhere", 0)

    def doctored(self, e, points):
        images = honest(self, e, points)
        return tuple(lost if p == ("center", 1) else q for p, q in zip(points, images))

    monkeypatch.setattr(PlacementTemplate, "slot_images", doctored)
    message = (
        r"action leaves the point set: .* sends \('center', 1\) "
        r"to \('corner', 'nowhere', 0\)"
    )
    with pytest.raises(ValueError, match=message):
        build_assignment("S4", 32)
    with pytest.raises(InternalMismatch) as exc:
        decide(32, "S4")
    assert not exc.value.verdict.realizable
    assert exc.value.verdict.diagnostic.startswith(
        "ValueError: action leaves the point set"
    )


def test_axis_lookup_matches_membership(assignments):
    a = assignments[("S4", 4)]
    model = a.model
    assert len(a.template.slot_axes) == len(model.axes)
    for e, at in zip(model.group, model.axis_at):
        if e.is_identity():
            continue
        holding = [axis for axis in model.axes if e in axis.elements]
        if at is None:
            assert holding == []
        else:
            assert [axis.elements for axis in holding] == [model.axes[at].elements]


def test_axis_markers_carry_every_concentric_copy(assignments):
    # skeleton-4 triple axes interleave the assigned inner and outer corner
    # copies around the bare 'base' copy (the skeleton surface itself).
    a = assignments[("S4", 4)]
    slots = a.template.slot_table.slots
    triple = next(
        numbers
        for axis, numbers in zip(a.model.axes, a.template.slot_axes)
        if axis.elements and axis.elements[0].order() == 3
    )
    copies = {slots[s][1] for s in triple if slots[s][0] == "corner"}
    assert copies == {"inner", "base", "outer"}
    assert a.vertex_of(("corner", "base", 0)) is None
    assert {part_at(a, ("corner", "inner", 0)),
            part_at(a, ("corner", "outer", 0))} == {"V", "W"}


# ------------------------------------------------------------------ properties


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SAMPLE_PAIRS), st.data())
def test_induced_perms_compose_like_the_group(assignments, pair, data):
    a = assignments[pair]
    elements = a.model.group.elements
    e = data.draw(st.sampled_from(elements))
    f = data.draw(st.sampled_from(elements))
    assert a.induced_perm(e * f) == a.induced_perm(e) * a.induced_perm(f)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SAMPLE_PAIRS), st.data())
def test_fixed_counts_invariant_under_conjugation(assignments, pair, data):
    a = assignments[pair]
    elements = a.model.group.elements
    e = data.draw(st.sampled_from(elements))
    g = data.draw(st.sampled_from(elements))
    assert a.fixed_counts(e) == a.fixed_counts(g * e * g.inverse())


# ------------------------------------------------- per-model invariants


def test_a_second_placement_reuses_the_model_classes(monkeypatch):
    from bipartite_tsg.perms import FiniteGroup

    verify_fixed_counts(build_assignment("A5", 62))
    calls = []
    worker = FiniteGroup._partition_into_classes

    def counting(self):
        calls.append(self)
        return worker(self)

    monkeypatch.setattr(FiniteGroup, "_partition_into_classes", counting)
    verify_fixed_counts(build_assignment("A5", 122))
    assert calls == []


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_cached_model_invariants_equal_a_fresh_computation(models, kind):
    group = models[kind].group
    # conjugacy classes, by direct conjugation of Perm objects
    fresh = {
        frozenset(g * e * g.inverse() for g in group.elements)
        for e in group.elements
    }
    classes = group.conjugacy_classes()
    assert isinstance(classes, tuple) and all(isinstance(c, tuple) for c in classes)
    assert {frozenset(c) for c in classes} == fresh
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    assert all(list(c) == sorted(c) for c in classes)
    # element orders
    for k in range(1, group.order + 1):
        expected = tuple(e for e in group.elements if e.order() == k)
        assert elements_of_order(group, k) == expected
    # the counting labels pick the order-2, -3 and -5 classes of the
    # rotation subgroup that the order-3 elements generate
    model = models[kind]
    rotations = generate_group(elements_of_order(group, 3))
    assert {
        e for e in model.nontrivial if class_label(model, e) in COUNTING_LABELS
    } == {e for e in rotations.elements if e.order() in (2, 3, 5)}
    assert models[kind].nontrivial == tuple(
        e for e in group.elements if not e.is_identity()
    )
