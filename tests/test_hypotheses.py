"""Edge-routing conditions, forced-fixation closures, and exactness
witnesses for the block-structured placements."""

import dataclasses
import tracemalloc
from random import Random

import pytest

from bipartite_tsg.assignments import (
    RECIPES,
    CenterPair,
    MarkerBlock,
    PlacementTemplate,
    VertexAssignment,
    _TEMPLATES,
    build_assignment,
    place,
)
from bipartite_tsg.bipartite import embeds_in_circle
from bipartite_tsg.decide import GROUPS, theorem_predicate
from bipartite_tsg.hypotheses import (
    HypothesisViolation,
    NoSuchEdge,
    NoWitnessFound,
    check_edge_embedding_hypotheses,
    check_subgroup_theorem,
    forced_fix_closure,
    point_str,
    subgroup_corollary_witness,
    verify_construction,
)
from bipartite_tsg.perms import Perm, UnionFind
from bipartite_tsg.polyhedra import build_polyhedral_model

from conftest import apply, part_at, vertex_labels
from test_forced_closure import reference_closure, reference_neighbors


@pytest.fixture(scope="module")
def reports(assignments):
    return {pair: verify_construction(a) for pair, a in assignments.items()}


def slot_map(table, moves):
    """The identity on the slots of ``table``, except that label ``p`` goes
    to ``moves[p]``, as a tuple of slot numbers."""
    return tuple(table.number[moves.get(p, p)] for p in table.slots)


def doctor_slot_table(monkeypatch, a, images):
    """Give placement ``a``, for this test only, the slot table whose element
    maps are ``images`` (by element index), with its broken pairs read off
    the product table as generator x element composition failures."""
    group = a.model.group
    product = group.product_table
    broken = tuple(
        (g, x)
        for g in map(group.index, group.generators)
        for x in range(group.order)
        if images[product[g][x]] != tuple(images[g][s] for s in images[x])
    )
    table = a.slot_table._replace(images=tuple(images), broken=broken)
    monkeypatch.setitem(a.__dict__, "slot_table", table)


# -------------------------------------------------------------- positive path


def test_all_sampled_placements_pass_all_five_conditions(reports):
    for pair, report in reports.items():
        assert [c.condition for c in report.conditions] == [1, 2, 3, 4, 5]
        assert report.subgroup_witness is not None, pair
        assert report.fixed_counts is not None


def test_arcs_pair_one_vertex_from_each_part(assignments, reports):
    for pair, report in reports.items():
        a = assignments[pair]
        seen = set()
        for arc in report.arcs:
            ends = frozenset(arc.endpoints)
            assert len(ends) == 2
            assert ends not in seen, "two arcs for the same adjacent pair"
            seen.add(ends)
            parts = {part_at(a, p) for p in arc.endpoints}
            assert parts == {"V", "W"}
            assert all(a.vertex_of(p) is None for p in arc.interior)


def test_arc_interiors_are_pairwise_disjoint(reports):
    for report in reports.values():
        for i, first in enumerate(report.arcs):
            for second in report.arcs[i + 1:]:
                assert not set(first.interior) & set(second.interior)


def test_step_down_edge_present_exactly_for_order_24_models_serving_a4(
    assignments, reports
):
    for (group, n), report in reports.items():
        model = assignments[(group, n)].model
        expects = group == "A4" and model.group.order == 24
        assert (report.corollary_edge is not None) == expects, (group, n)


def test_frozen_corollary_edges(reports):
    assert reports[("A4", 12)].corollary_edge == (0, 12)
    assert reports[("A4", 16)].corollary_edge == (0, 17)
    assert reports[("A4", 18)].corollary_edge == (10, 18)
    assert reports[("A4", 6)].corollary_edge is None


def test_step_down_edge_is_never_pointwise_fixed(assignments, reports):
    for pair, report in reports.items():
        if report.corollary_edge is None:
            continue
        a = assignments[pair]
        v, w = report.corollary_edge
        for e in a.model.group:
            if e.is_identity():
                continue
            perm = a.induced_perm(e)
            assert not (perm(v) == v and perm(w) == w), (pair, e)


def test_report_dict_shape(assignments, reports):
    d = reports[("A4", 16)].as_dict()
    assert list(d) == [
        "case", "blocks", "fixed_counts", "hypotheses", "witness", "step_down_edge"
    ]
    assert d["case"] == "skeleton-4"
    assert len(d["hypotheses"]["conditions"]) == 5
    assert d["hypotheses"]["arcs"] == len(reports[("A4", 16)].arcs)
    assert d["witness"]["edge"] == [4, 16]
    assert d["step_down_edge"] == [0, 17]
    d = check_edge_embedding_hypotheses(assignments[("A4", 16)]).as_dict()
    assert list(d) == ["case", "blocks", "fixed_counts", "hypotheses", "witness"]
    assert d["fixed_counts"] is None and d["witness"] is None


# ------------------------------------------------------------ forced closures


def test_same_axis_edge_forces_only_itself(assignments):
    forced = forced_fix_closure(assignments[("S4", 4)], (0, 4))
    assert forced.vertices == frozenset({0, 4})
    assert (forced.shape.a, forced.shape.b) == (1, 1)


def test_cross_copy_edge_forces_the_four_cycle(assignments):
    forced = forced_fix_closure(assignments[("S4", 4)], (0, 5))
    assert forced.vertices == frozenset({0, 1, 4, 5})
    assert (forced.shape.a, forced.shape.b) == (2, 2)


def test_free_edge_forces_a_large_star(assignments):
    forced = forced_fix_closure(assignments[("A5", 90)], (0, 120))
    assert (forced.shape.a, forced.shape.b) == (90, 1)
    assert not embeds_in_circle(forced.shape)


def test_early_stop_closure_is_a_consistent_subset(assignments):
    # the closure stops early; the explicit closure run in full holds it
    a = assignments[("A5", 90)]
    full, _ = reference_closure(a, (0, 120), False, reference_neighbors(a))
    stopped = forced_fix_closure(a, (0, 120))
    assert stopped.vertices <= full
    assert not embeds_in_circle(stopped.shape)


def test_closure_contains_the_edge_itself(assignments):
    for (_, n), a in assignments.items():
        forced = forced_fix_closure(a, (0, n))
        assert {0, n} <= forced.vertices


# --------------------------------------------------------- exactness witnesses


def test_subgroup_witness_for_the_skeleton_four_case(assignments):
    witness = check_subgroup_theorem(assignments[("S4", 4)])
    assert witness.edge == (0, 5)
    assert witness.condition == 2
    assert witness.psi is not None and witness.psi.order() == 3
    assert (witness.forced.shape.a, witness.forced.shape.b) == (2, 2)


def test_witness_kind_matches_its_forced_subgraph(reports):
    for pair, report in reports.items():
        witness = report.subgroup_witness
        if witness.condition == 1:
            assert not embeds_in_circle(witness.forced.shape), pair
            assert witness.psi is None
        else:
            assert witness.condition == 2
            assert embeds_in_circle(witness.forced.shape), pair
            assert witness.psi is not None and witness.psi.order() >= 3


# (0, 4) joins two corners on one third-turn axis of the skeleton-4
# placement at n = 4; its forced set lies in that axis's fixed circle, so
# it is no exactness witness, and the order-3 rotation fixes it pointwise.
_SAME_AXIS = (("corner", "inner", 0), ("corner", "outer", 0))


def test_no_witness_found_when_candidates_are_exhausted(
    assignments, monkeypatch
):
    # the first recorded pair whose labels are both vertices is the only
    # one checked, even when a later pair would be a witness
    recipe = RECIPES["skeleton-4"]
    witness = (_SAME_AXIS,) + recipe.witness
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, witness=witness)
    )
    with pytest.raises(NoWitnessFound, match=r"witness edge \(0, 4\)"):
        check_subgroup_theorem(assignments[("S4", 4)])


def reference_witness(a, edge):
    """The witness condition for ``edge`` and its ``psi``, found by a scan
    of the nontrivial elements in group order; None if it certifies
    nothing."""
    forced = forced_fix_closure(a, edge)
    if not embeds_in_circle(forced.shape):
        return 1, None
    masks = [(x >= a.n, a.fixers.get(x, 0)) for x in forced.vertices]
    for k, psi in enumerate(a.model.nontrivial):
        meet = [in_w for in_w, mask in masks if mask >> k & 1]
        if any(meet) and not all(meet) and len(meet) < len(masks):
            return 2, psi
    return None


def test_the_witness_finds_the_element_a_scan_finds(assignments, monkeypatch):
    # Seeded V x W pairs of fixed core vertices recorded as the witness:
    # the condition and psi agree with the scan, and an edge the scan finds
    # nothing for raises NoWitnessFound.
    rng = Random("witness scan")
    found = set()
    for pair, a in assignments.items():
        recipe = RECIPES[a.case_name]
        fixed = sorted(a.fixers)
        vs, ws = [x for x in fixed if x < a.n], [x for x in fixed if x >= a.n]
        for edge in [(rng.choice(vs), rng.choice(ws)) for _ in range(20) if vs and ws]:
            labels = tuple(map(a.label_of, edge))
            edited = dataclasses.replace(recipe, witness=(labels,))
            monkeypatch.setitem(RECIPES, a.case_name, edited)
            expected = reference_witness(a, edge)
            if expected is None:
                with pytest.raises(NoWitnessFound):
                    check_subgroup_theorem(a)
            else:
                witness = check_subgroup_theorem(a)
                assert (witness.condition, witness.psi) == expected, (pair, edge)
            found.add(expected and expected[0])
    assert found == {1, 2, None}


def test_a_failing_recorded_witness_raises_no_witness_found(
    assignments, monkeypatch
):
    recipe = RECIPES["skeleton-4"]
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, witness=(_SAME_AXIS,))
    )
    with pytest.raises(
        NoWitnessFound,
        match=r"edge \(0, 4\) certifies no exactness for the skeleton-4 "
        r"placement at n = 4",
    ):
        check_subgroup_theorem(assignments[("S4", 4)])


def test_a_failing_recorded_step_down_edge_raises_no_such_edge(
    assignments, monkeypatch
):
    recipe = RECIPES["skeleton-4"]
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, step_down=_SAME_AXIS)
    )
    with pytest.raises(
        NoSuchEdge,
        match=r"step-down edge \(0, 4\) of the skeleton-4 placement at n = 4 "
        r"is pointwise fixed",
    ):
        subgroup_corollary_witness(assignments[("S4", 4)])


def test_a_placement_without_a_recipe_fails_both_edge_checks_by_name(
    assignments,
):
    a = dataclasses.replace(assignments[("S4", 4)], case_name="control")
    for check in (check_subgroup_theorem, subgroup_corollary_witness):
        with pytest.raises(
            ValueError, match="placement case 'control' follows no recipe"
        ):
            check(a)


def test_a_placement_without_a_recipe_fails_the_fixed_counts_by_name(
    assignments,
):
    a = dataclasses.replace(assignments[("S4", 4)], case_name="control")
    with pytest.raises(ValueError, match="placement case 'control' follows no recipe"):
        verify_construction(a)


def test_corollary_requires_an_order_24_model(assignments):
    with pytest.raises(ValueError):
        subgroup_corollary_witness(assignments[("A4", 6)])
    with pytest.raises(ValueError):
        subgroup_corollary_witness(assignments[("A5", 60)])


def test_corollary_rejects_fixed_candidate_edges(assignments, monkeypatch):
    # (0, 4) is pointwise fixed by an order-3 rotation of the skeleton-4
    # placement, so a recipe recording it as the step-down edge must fail.
    recipe = RECIPES["skeleton-4"]
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, step_down=_SAME_AXIS)
    )
    with pytest.raises(NoSuchEdge):
        subgroup_corollary_witness(assignments[("S4", 4)])


def test_corollary_rejects_candidates_that_are_not_edges(assignments, monkeypatch):
    # two corners of V: the recorded pair resolves but joins no two parts
    recipe = RECIPES["skeleton-4"]
    in_v = (("corner", "inner", 0), ("corner", "inner", 1))
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, step_down=in_v)
    )
    with pytest.raises(ValueError, match="does not join the two parts"):
        subgroup_corollary_witness(assignments[("S4", 4)])


def test_closure_rejects_pairs_that_are_not_edges(assignments):
    a = assignments[("S4", 4)]
    with pytest.raises(ValueError, match="out of range"):
        forced_fix_closure(a, (0, 2 * a.n))
    with pytest.raises(ValueError, match="does not join the two parts"):
        forced_fix_closure(a, (0, 1))


def test_edge_searches_use_bounded_memory_at_large_n():
    # At n = 1204 a list of all n^2 edges alone would take over 100 MB;
    # both checks must stay far below it.
    a = build_assignment("A4", 1204)
    for search in (check_subgroup_theorem, subgroup_corollary_witness):
        tracemalloc.start()
        try:
            search(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (search.__name__, peak)


# ----------------------------------------------------------- negative controls


def build_wvvw_control() -> VertexAssignment:
    """A deliberately bad placement of K_{8,8} on the tetrahedron: both
    corner copies in V, poles and edge markers in W.  Each triple-axis
    circle then reads [W, V, V, W] around the circle, leaving only two
    usable gaps for four adjacent pairs."""
    model = build_polyhedral_model("tetrahedron")
    copies = (("inner", 1), ("outer", 2))
    blocks = (
        (CenterPair("W"), MarkerBlock("edge", "inner", "W")),
        (
            MarkerBlock("corner", "inner", "V"),
            MarkerBlock("corner", "outer", "V"),
        ),
    )
    return VertexAssignment(8, "A4", "control-wvvw", model, copies, blocks)


def test_control_placement_violates_the_gap_matching_condition():
    control = build_wvvw_control()
    with pytest.raises(HypothesisViolation) as exc:
        check_edge_embedding_hypotheses(control)
    assert exc.value.condition == 2
    occupied = exc.value.witness["occupied"]
    assert occupied.count("V") == 2
    assert occupied.count("W") == 2


def test_empty_axis_model_violates_the_shared_circle_condition(assignments):
    from bipartite_tsg.hypotheses import _check_common_fixed_circles

    with pytest.raises(HypothesisViolation) as exc:
        _check_common_fixed_circles(assignments[("A4", 6)], ())
    assert exc.value.condition == 1


def test_truncated_arc_family_violates_equivariance(assignments, reports):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    a = assignments[("A4", 6)]
    arcs = reports[("A4", 6)].arcs
    assert len(arcs) > 1
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, arcs[:-1])
    assert exc.value.condition == 3


def one_placement_per_layout():
    """The least admitted placement of each layout (model kind, copies and
    swap partners) that the recipes use."""
    out = {}
    for group in GROUPS:
        for n in range(4, 124):
            if theorem_predicate(n, group):
                a = place(group, n)
                swaps = frozenset(
                    (b.copy_name, b.swap_partner)
                    for b in a.all_blocks()
                    if isinstance(b, MarkerBlock) and b.swap_partner is not None
                )
                out.setdefault((a.model.kind, a.copies, swaps), a)
    return out


def test_slot_images_match_apply(assignments, reports):
    # Every arc slot label, plus every vertex point so the free-point branch
    # is covered as well.
    for pair, report in reports.items():
        a = assignments[pair]
        labels = tuple(
            dict.fromkeys(
                p for arc in report.arcs for p in arc.endpoints + arc.interior
            )
        ) + vertex_labels(a)
        for e in a.model.nontrivial:
            expected = tuple(apply(a, e, p) for p in labels)
            assert a.template.slot_images(e, labels) == expected, (pair, e)
    # Every slot of every layout, occupied or not, under every element.
    layouts = one_placement_per_layout()
    assert len(layouts) == 8
    for a in layouts.values():
        table = a.slot_table
        assert dict(zip(table.slots, range(len(table.slots)))) == table.number
        assert table.broken == ()
        labels = table.slots + vertex_labels(a)
        for e in a.model.group:
            expected = tuple(apply(a, e, p) for p in labels)
            assert a.template.slot_images(e, labels) == expected, (a.case_name, e)


def test_slot_table_masks_and_orbits_equal_a_scan_of_its_images():
    # Every element's fixed slots scanned one by one, and the slot orbit
    # roots (the direct orbit count reads them) against orbits joined by
    # union-find over the generators' rows, on every layout.
    for a in one_placement_per_layout().values():
        table, group = a.slot_table, a.model.group
        fixers = [0] * len(table.slots)
        for k, e in enumerate(a.model.nontrivial):
            for s, image in enumerate(table.images[group.index(e)]):
                if image == s:
                    fixers[s] |= 1 << k
        assert table.fixers == tuple(fixers), a.case_name
        orbits = UnionFind(len(table.slots))
        for g in group.generators:
            for s, image in enumerate(table.images[group.index(g)]):
                orbits.union(s, image)
        assert table.orbit == tuple(map(orbits.find, range(len(table.slots))))


def test_condition_3_reads_no_slot_images(assignments, reports, monkeypatch):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    # Condition 3 gathers each element's map from the slot table.
    calls = []
    honest = PlacementTemplate.slot_images

    def counting(self, e, points):
        calls.append(e)
        return honest(self, e, points)

    monkeypatch.setattr(PlacementTemplate, "slot_images", counting)
    for pair, report in reports.items():
        result = _check_arc_equivariance(assignments[pair], report.arcs)
        assert result.condition == 3
    assert calls == []


def scan_co_fixed_pairs(a, axes):
    """Condition 1 pair by pair: the number of V x W pairs of fixed vertices
    with a common nontrivial fixer, and the first, in fixer-table order,
    whose common fixers lie on no single circle, as its witness (or None)."""
    circle = {e: i for i, axis in enumerate(axes) for e in axis.elements}
    pairs, first = 0, None
    for v, v_mask in a.fixers.items():
        for w, w_mask in a.fixers.items():
            common = v_mask & w_mask
            if not (v < a.n <= w and common):
                continue
            pairs += 1
            elements = [e for k, e in enumerate(a.model.nontrivial) if common >> k & 1]
            circles = {circle.get(e) for e in elements}
            if first is None and (len(circles) != 1 or None in circles):
                first = {
                    "pair": [point_str(a.label_of(v)), point_str(a.label_of(w))],
                    "elements": [repr(e) for e in elements],
                }
    return pairs, first


def test_condition_1_counts_the_pairs_a_vertex_scan_counts(assignments):
    from bipartite_tsg.hypotheses import _check_common_fixed_circles

    for pair, a in assignments.items():
        pairs, first = scan_co_fixed_pairs(a, a.axis_slots)
        assert first is None, pair
        result = _check_common_fixed_circles(a, a.axis_slots)
        assert result.summary == (
            f"{pairs} co-fixed adjacent pairs, each on a single circle"
        ), pair


def test_condition_1_names_the_first_failing_pair_of_a_vertex_scan(
    assignments, monkeypatch
):
    from bipartite_tsg.hypotheses import _check_common_fixed_circles

    # A doctored fixer table of three vertices of each part, in number
    # order: v1, v3, w2 and w3 are fixed by the elements x and y, v2 and w1
    # by z and t, and each pair of elements lies on two circles.  So every
    # pair of v1 or v3 with w2 or w3 fails, and so does (v2, w1); a scan of
    # V first names (v1, w2), the first vertices holding their masks.
    for pair, a in assignments.items():
        axes = a.axis_slots
        bit = {e: 1 << k for k, e in enumerate(a.model.nontrivial)}
        x, y, z, t = (bit[axis.elements[0]] for axis in axes[:4])
        v1, v2, v3, w1, w2, w3 = 0, 1, 2, a.n, a.n + 1, a.n + 2
        doctored = {
            v1: x | y, v2: z | t, v3: x | y, w1: z | t, w2: x | y, w3: x | y
        }
        monkeypatch.setitem(a.__dict__, "fixers", doctored)
        _, first = scan_co_fixed_pairs(a, axes)
        assert first["pair"] == [point_str(a.label_of(v1)), point_str(a.label_of(w2))]
        with pytest.raises(HypothesisViolation) as exc:
            _check_common_fixed_circles(a, axes)
        assert exc.value.condition == 1
        assert exc.value.witness == first, pair


def test_stabilizer_moving_its_arc_violates_equivariance(
    assignments, reports, monkeypatch
):
    from bipartite_tsg.hypotheses import Arc, _check_arc_equivariance

    # On an honest family only the "outside the family" branch can fire:
    # each endpoint pair has one arc and interiors are disjoint.  So add a
    # twin arc on the endpoints of ``arc`` and let an element that really
    # fixes those endpoints send ``arc`` onto the twin; every other label,
    # and every label under every other element, maps to itself.
    a = assignments[("A5", 42)]
    arcs = reports[("A5", 42)].arcs
    arc, other = [x for x in arcs if x.interior][:2]
    twin = Arc(arc.axis_index, arc.endpoints, other.interior[:1])
    e0 = a.axis_slots[arc.axis_index].elements[0]
    assert all(apply(a, e0, p) == p for p in arc.endpoints)

    table = a.slot_table
    images = [slot_map(table, {})] * a.model.group.order
    images[a.model.group.index(e0)] = slot_map(
        table, dict.fromkeys(arc.interior, other.interior[0])
    )
    doctor_slot_table(monkeypatch, a, images)
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, arcs + (twin,))
    assert exc.value.condition == 3
    assert "stabilizing an arc's boundary" in str(exc.value)
    assert exc.value.witness == {"element": repr(e0), "arc": arc.as_dict()}


def test_an_arc_whose_interior_folds_onto_fewer_slots_is_outside_the_family(
    assignments, reports, monkeypatch
):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    # One element fixes an arc's endpoints and sends the first of its three
    # interior slots onto the second: every interior slot lands in the
    # arc's own interior, but the image holds two of its three slots.
    a = assignments[("A5", 50)]
    arc = next(x for x in reports[("A5", 50)].arcs if len(x.interior) == 3)
    e0 = a.model.nontrivial[0]
    table = a.slot_table
    images = [slot_map(table, {})] * a.model.group.order
    images[a.model.group.index(e0)] = slot_map(
        table, {arc.interior[0]: arc.interior[1]}
    )
    doctor_slot_table(monkeypatch, a, images)
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, (arc,))
    assert "outside the family" in str(exc.value)
    assert exc.value.witness == {"element": repr(e0), "arc": arc.as_dict()}


def test_image_on_unused_labels_is_outside_the_family(
    assignments, reports, monkeypatch
):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    # One element sends the first endpoint of ``arc`` to the second and the
    # second to a slot that no arc uses; the image is then no member of the
    # family, however unused labels are numbered.
    a = assignments[("A4", 6)]
    arc = reports[("A4", 6)].arcs[0]
    e0 = a.model.nontrivial[0]
    v, w = arc.endpoints
    table = a.slot_table
    unused = next(p for p in table.slots if p not in arc.endpoints + arc.interior)
    images = [slot_map(table, {})] * a.model.group.order
    images[a.model.group.index(e0)] = slot_map(table, {v: w, w: unused})
    doctor_slot_table(monkeypatch, a, images)
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, (arc,))
    assert exc.value.condition == 3
    assert "outside the family" in str(exc.value)
    assert exc.value.witness == {"element": repr(e0), "arc": arc.as_dict()}


@pytest.mark.parametrize("sizes", [(0, 3), (3, 3)], ids=["longer", "same-size"])
def test_an_arc_sent_onto_another_arc_s_ends_alone_is_outside_the_family(
    assignments, reports, monkeypatch, sizes
):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    # A family of two arcs, and one element that sends the endpoints of the
    # first onto those of the second and every other slot to itself.  By
    # its endpoints the first arc lands on the second, but its image holds
    # its own interior, not the second's: a shorter one, or one of the
    # same size elsewhere.  So it is no member of the family, and the
    # element is reported for it rather than the broken composition.
    a = assignments[("A5", 50)]
    source, target = (
        [x for x in reports[("A5", 50)].arcs if len(x.interior) == size][k]
        for k, size in enumerate(sizes)
    )
    e0 = a.model.nontrivial[0]
    table = a.slot_table
    images = [slot_map(table, {})] * a.model.group.order
    moves = dict(zip(source.endpoints, target.endpoints))
    images[a.model.group.index(e0)] = slot_map(table, moves)
    doctor_slot_table(monkeypatch, a, images)
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, (source, target))
    assert "outside the family" in str(exc.value)
    assert exc.value.witness == {"element": repr(e0), "arc": source.as_dict()}


def test_label_maps_that_do_not_compose_violate_equivariance(
    assignments, reports, monkeypatch
):
    from bipartite_tsg.hypotheses import _check_arc_equivariance

    # One element that is neither a generator nor the least element of its
    # class is made to fix every slot.  The arc family stays invariant and
    # every arc check on that element passes, but its label map no longer
    # composes along the product table.
    a = assignments[("A5", 42)]
    arcs = reports[("A5", 42)].arcs
    group = a.model.group
    labels = [p for arc in arcs for p in arc.endpoints + arc.interior]
    skipped = set(group.generators) | {cls[0] for cls in group.conjugacy_classes()}
    e1 = next(
        e
        for e in a.model.nontrivial
        if e not in skipped and any(apply(a, e, p) != p for p in labels)
    )
    images = list(a.slot_table.images)
    images[group.index(e1)] = slot_map(a.slot_table, {})
    doctor_slot_table(monkeypatch, a, images)
    with pytest.raises(HypothesisViolation) as exc:
        _check_arc_equivariance(a, arcs)
    assert exc.value.condition == 3
    assert "does not compose along the product table" in str(exc.value)
    by_repr = {repr(e): e for e in group}
    g = by_repr[exc.value.witness["generator"]]
    x = by_repr[exc.value.witness["element"]]
    assert g in group.generators and e1 in (x, g * x)


def test_a_placement_scans_no_fixed_points(monkeypatch):
    # A core's first check reads fixed sets from the layout's fixer masks
    # and asserts the free-point lemma on the free labels alone, so neither
    # the build nor any check scans a permutation's fixed points.
    warm = build_assignment("A5", 62)
    verify_construction(warm)  # the shared model tables
    _TEMPLATES.clear()  # 62 and 482 share their template
    calls = []
    scan = Perm.fixed_points

    def counting(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(Perm, "fixed_points", counting)
    a = build_assignment("A5", 482)
    verify_construction(a)
    assert a.template is not warm.template  # a cold check of the core
    assert calls == []


def test_interchangers_agree_with_a_walk_over_v(assignments):
    from bipartite_tsg.hypotheses import _check_swap_fixed_shapes

    # Reference: an element interchanges the ends of an edge when it sends
    # some v in V to a w in W and w back to v.
    def walks(a, e):
        perm = a.induced_perm(e)
        return any(perm(v) >= a.n and perm(perm(v)) == v for v in range(a.n))

    odd_pairs = found = 0
    for pair, a in assignments.items():
        odd = [e for e in a.model.nontrivial if a.model.parity_of(e) == -1]
        _, interchangers = _check_swap_fixed_shapes(a)
        assert interchangers == tuple(e for e in odd if walks(a, e)), pair
        odd_pairs += bool(odd)
        found += len(interchangers)
    assert odd_pairs == 3  # the skeleton placements
    assert 0 < found < 3 * 12  # some, but not every, odd element interchanges


def test_oversized_fixed_subgraph_violates_the_subarc_condition(
    assignments, monkeypatch
):
    from bipartite_tsg.hypotheses import _check_swap_fixed_shapes

    a = assignments[("S4", 4)]
    # An honest part-swapping automorphism fixes no vertex, so the failure
    # has to be injected: the fixed table reports a pointwise-fixed K_{2,2}
    # for every element (so every square fixes a vertex of V too).
    monkeypatch.setattr(VertexAssignment, "fixed_counts", lambda self, e: (2, 2))
    with pytest.raises(HypothesisViolation) as exc:
        _check_swap_fixed_shapes(a)
    assert exc.value.condition == 4
    assert exc.value.witness["shape"] == [2, 2]


def test_interchanger_without_a_circle_violates_condition_five(assignments):
    from bipartite_tsg.hypotheses import (
        _check_swap_circles,
        _check_swap_fixed_shapes,
    )

    a = assignments[("S4", 4)]
    _, interchangers = _check_swap_fixed_shapes(a)
    assert len(interchangers) == 6  # the six part-swapping half-turns

    with pytest.raises(HypothesisViolation) as exc:
        _check_swap_circles(a, (), interchangers)
    assert exc.value.condition == 5


def test_shared_interchanger_circle_violates_condition_five(assignments):
    from bipartite_tsg.hypotheses import (
        _check_swap_circles,
        _check_swap_fixed_shapes,
    )

    a = assignments[("S4", 4)]
    _, interchangers = _check_swap_fixed_shapes(a)
    doctored = tuple(
        dataclasses.replace(axis, elements=axis.elements + (interchangers[-1],))
        if axis.elements and axis.elements[0] in interchangers
        else axis
        for axis in a.axis_slots
    )
    with pytest.raises(HypothesisViolation) as exc:
        _check_swap_circles(a, doctored, interchangers)
    assert exc.value.condition == 5
    assert "sharing" in exc.value.witness
