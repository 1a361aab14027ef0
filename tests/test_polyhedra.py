"""Exact polyhedral models, their rotation groups, and the two independent
fixed-count oracles (geometric incidence vs. abstract coset actions)."""

import hashlib
import itertools

import pytest

from bipartite_tsg import polyhedra
from bipartite_tsg.perms import Perm, generate_group
from bipartite_tsg.polyhedra import build_polyhedral_model

from conftest import (
    MODEL_KINDS,
    build_coset_model,
    fixed_count_table,
    incidence_fixed_signature,
    label_image,
    orbits_of,
    subgroup,
    validate_group,
)

ROTATION_KINDS = ("tetrahedron", "cube", "dodecahedron")


# ----------------------------------------------------------- model structure


def marker_class_sizes(model):
    return (model.group.degree, len(model.edges), len(model.faces))


def test_marker_class_sizes(models):
    assert marker_class_sizes(models["tetrahedron"]) == (4, 6, 4)
    assert marker_class_sizes(models["tetrahedron-skeleton"]) == (4, 6, 4)
    assert marker_class_sizes(models["cube"]) == (8, 12, 6)
    assert marker_class_sizes(models["dodecahedron"]) == (20, 30, 12)


def test_euler_characteristic(models):
    for kind in ROTATION_KINDS:
        v, e, f = marker_class_sizes(models[kind])
        assert v - e + f == 2


def test_group_orders(models):
    assert models["tetrahedron"].group.order == 12
    assert models["tetrahedron-skeleton"].group.order == 24
    assert models["cube"].group.order == 24
    assert models["dodecahedron"].group.order == 60


def test_generators_are_an_irredundant_generating_set(models):
    # Every core reads one image list per generator and checks the
    # homomorphism law per generator, so a redundant one is wasted work.
    for kind, m in models.items():
        gens = m.group.generators
        assert generate_group(gens).elements == m.group.elements, kind
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1:]
            assert generate_group(rest).order < m.group.order, (kind, i)


def test_parity_split(models):
    for kind, odd in (
        ("tetrahedron", 0),
        ("tetrahedron-skeleton", 12),
        ("cube", 0),
        ("dodecahedron", 0),
    ):
        m = models[kind]
        assert m.parities.count(-1) == odd
        assert len(even_elements(m)) == m.group.order - odd


def test_the_parity_tuple_agrees_with_parity_of(models):
    for kind, m in models.items():
        assert len(m.parities) == m.group.order, kind
        for i, e in enumerate(m.group.elements):
            assert m.parities[i] == m.parity_of(e), (kind, e)


def even_elements(model):
    return [g for g in model.group if model.parity_of(g) == 1]


def test_skeleton_even_subgroup_is_the_tetrahedral_group(models):
    m = models["tetrahedron-skeleton"]
    even = subgroup(m.group, even_elements(m))
    validate_group(even)
    assert even.order == 12
    assert all(e.order() in (1, 2, 3) for e in even)


def test_group_acts_transitively_on_each_marker_class(models):
    for kind in ROTATION_KINDS:
        m = models[kind]
        orbits = orbits_of(m.action)
        by_class = {}
        for orbit in orbits:
            kinds = {p[0] for p in orbit}
            assert len(kinds) == 1, "an orbit mixes marker classes"
            by_class.setdefault(kinds.pop(), []).append(len(orbit))
        assert by_class["corner"] == [m.group.degree]
        assert by_class["edge"] == [len(m.edges)]
        assert by_class["face"] == [len(m.faces)]
        assert by_class["center"] == [1, 1]


# The SHA-256 of each model's combinatorial content: its edges and faces,
# its group's elements and generators, the parities, each axis (elements,
# slots, parts), and the action's labels and permutations.  The digests were
# frozen when the models were derived from exact corner coordinates; built
# from generator permutations they must come out the same, every label with
# its number.
MODEL_SHA256 = {
    "tetrahedron": "11a7d2ddf18d1f5e69d80d9b57d9d5632c95833ae4d82d7a7d95df816d0645cc",
    "tetrahedron-skeleton": "29d96928491b2c76d5688af5ba889c3ec6ddf6d1439e20a6f10b5b98e1a4b270",
    "cube": "13513c76f14a42d35bc662655986bfc486d367721daf23714d48f1367dd21f1f",
    "dodecahedron": "936ad3d9054dacb4a8f975cc30d79752a18b3fce13e01dcac1bd1feca298e1f8",
}


def model_digest(m):
    elements = m.group.elements
    payload = (
        m.edges,
        m.faces,
        tuple(e.images for e in elements),
        tuple(e.images for e in m.group.generators),
        m.parities,
        tuple(  # the () in each entry keeps the frozen digests above
            (tuple(e.images for e in axis.elements), axis.slots, ())
            for axis in m.axes
        ),
        m.action.points,
        tuple(m.action.perms[e].images for e in elements),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize("kind", MODEL_SHA256)
def test_every_model_matches_its_frozen_digest(models, kind):
    assert model_digest(models[kind]) == MODEL_SHA256[kind]


def test_every_element_moves_every_label_by_the_per_label_rule(models):
    # The action is built a point class at a time from bulk image lists;
    # the per-label rule maps one label at a time and is its reference.
    for kind, m in models.items():
        for e in m.group:
            images = m.action.perms[e].images
            assert [m.points[j] for j in images] == [
                label_image(m, e, label) for label in m.points
            ], (kind, e)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_doctored_label_list_fails_the_model_build(monkeypatch, models, kind):
    # Only the generators' label lists are built.  Two edges exchanged in
    # one generator's list still make a permutation, but the lists no
    # longer compose along the product table, so the build fails; each
    # generator is doctored in turn.
    honest = polyhedra._label_images
    generators = models[kind].group.generators
    for doctored_generator in generators:

        def doctored(gens, edges, faces, labels):
            images = honest(gens, edges, faces, labels)
            row = images[doctored_generator]
            i, j = [k for k, label in enumerate(labels) if label[0] == "edge"][:2]
            row[i], row[j] = row[j], row[i]
            return images

        monkeypatch.setattr(polyhedra, "_label_images", doctored)
        with pytest.raises(ValueError, match="not a homomorphism"):
            build_polyhedral_model.__wrapped__(kind)  # past the cache


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_two_corner_images_swapped_in_a_generator_fail_the_build(
    monkeypatch, models, kind
):
    # Every pair of corners in every generator in turn: the doctored
    # generators make no solid of the kind's counts, or no group of its
    # order, or no action on its markers.
    honest = polyhedra._GENERATORS[kind]
    degree = models[kind].group.degree
    for k, (cycles, sign) in enumerate(honest):
        images = Perm.from_cycles(degree, cycles).images
        for a, b in itertools.combinations(range(degree), 2):
            swapped = list(images)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            doctored = (*honest[:k], (Perm(swapped).cycles(), sign), *honest[k + 1:])
            monkeypatch.setitem(polyhedra._GENERATORS, kind, doctored)
            with pytest.raises((AssertionError, ValueError)):
                build_polyhedral_model.__wrapped__(kind)  # past the cache


def test_the_skeleton_s_odd_generator_given_sign_plus_one_fails_the_build(
    monkeypatch,
):
    # The centers then stay put under every element, so the odd order-4
    # elements become rotations that fix no marker.
    *even, (cycles, sign) = polyhedra._GENERATORS["tetrahedron-skeleton"]
    assert sign == -1
    monkeypatch.setitem(
        polyhedra._GENERATORS, "tetrahedron-skeleton", (*even, (cycles, 1))
    )
    with pytest.raises(AssertionError, match="fixed-point-free rotation"):
        build_polyhedral_model.__wrapped__("tetrahedron-skeleton")


def test_the_axis_index_names_each_element_s_axis(models):
    for kind, m in models.items():
        for e, at in zip(m.group, m.axis_at):
            holding = [i for i, axis in enumerate(m.axes) if e in axis.elements]
            assert holding == ([] if at is None else [at]), (kind, e)


def test_label_fixers_equal_a_scan_of_the_action(models):
    for kind, m in models.items():
        for k, e in enumerate(m.nontrivial):
            fixed = m.action.perms[e].images
            assert [i for i, mask in enumerate(m.fixers) if mask >> k & 1] == [
                i for i, j in enumerate(fixed) if i == j
            ], (kind, e)


# ----------------------------------------------------------------------- axes


def test_axis_counts(models):
    assert len(models["tetrahedron"].axes) == 7  # 4 triple + 3 double
    assert len(models["cube"].axes) == 13  # 4 triple + 3 quadruple + 6 double
    assert len(models["dodecahedron"].axes) == 31  # 6 + 10 + 15
    assert len(models["tetrahedron-skeleton"].axes) == 13  # 7 + 6 odd circles


def test_every_non_glide_lies_on_exactly_one_axis(models):
    for kind, m in models.items():
        for e in m.group:
            if e.is_identity():
                continue
            hits = [entry for entry in m.axes if e in entry.elements]
            if m.axis_at[m.group.index(e)] is None:
                assert hits == []
                # Only the skeleton's order-4 odd elements are glides.
                assert kind == "tetrahedron-skeleton"
                assert e.order() == 4 and m.parity_of(e) == -1
            else:
                assert len(hits) == 1


def test_glide_census(models):
    m = models["tetrahedron-skeleton"]
    glides = [
        e
        for e, at in zip(m.group, m.axis_at)
        if not e.is_identity() and at is None
    ]
    assert len(glides) == 6
    assert all(e.order() == 4 for e in glides)


def test_axis_markers_are_fixed_by_their_elements(models):
    for m in models.values():
        for entry in m.axes:
            for e in entry.elements:
                assert set(entry.slots) <= set(m.action.fixed_points(e))


def test_a_circle_through_the_poles_lists_pole_ray_pole_ray(models):
    for kind, m in models.items():
        for entry in m.axes:
            if m.parity_of(entry.elements[0]) == -1:
                assert all(p[0] != "center" for p in entry.slots), kind
                continue
            first, ray, second, other_ray = entry.slots
            assert (first, second) == (("center", 0), ("center", 1))
            # markers on opposite rays lie on opposite sides: no shared corner
            assert not corners_of(m, ray) & corners_of(m, other_ray), (kind, entry)


def corners_of(m, label):
    cls, i = label
    return {i} if cls == "corner" else set((m.edges if cls == "edge" else m.faces)[i])


def test_consecutive_markers_of_an_odd_circle_are_incident(models):
    m = models["tetrahedron-skeleton"]
    odd = [entry for entry in m.axes if m.parity_of(entry.elements[0]) == -1]
    assert len(odd) == 6
    for entry in odd:
        slots = entry.slots
        assert sorted(p[0] for p in slots) == ["corner"] * 2 + ["edge"] * 2 + ["face"] * 2
        for p, q in zip(slots, slots[1:] + slots[:1]):
            a, b = corners_of(m, p), corners_of(m, q)
            assert a < b or b < a, (entry.slots, p, q)


# ------------------------------------------------------------ fixed-count table


def table_rows(model):
    return sorted(
        (order, parity, (c["corner"], c["edge"], c["face"]))
        for _, order, parity, c in fixed_count_table(model)
    )


def test_fixed_count_tables_frozen(models):
    assert table_rows(models["tetrahedron"]) == [
        (2, 1, (0, 2, 0)),
        (3, 1, (1, 0, 1)),
        (3, 1, (1, 0, 1)),
    ]
    assert table_rows(models["tetrahedron-skeleton"]) == [
        (2, -1, (2, 2, 2)),
        (2, 1, (0, 2, 0)),
        (3, 1, (1, 0, 1)),
        (4, -1, (0, 0, 0)),
    ]
    assert table_rows(models["cube"]) == [
        (2, 1, (0, 0, 2)),
        (2, 1, (0, 2, 0)),
        (3, 1, (2, 0, 0)),
        (4, 1, (0, 0, 2)),
    ]
    assert table_rows(models["dodecahedron"]) == [
        (2, 1, (0, 2, 0)),
        (3, 1, (2, 0, 0)),
        (5, 1, (0, 0, 2)),
        (5, 1, (0, 0, 2)),
    ]


# -------------------------------------------------------- two-oracle agreement


def test_incidence_signature_rejects_the_skeleton(models):
    with pytest.raises(ValueError):
        incidence_fixed_signature(models["tetrahedron-skeleton"])


@pytest.mark.parametrize("kind", ROTATION_KINDS)
def test_geometric_and_coset_oracles_agree(models, kind):
    """The same (order, class size, fixed counts) rows must come out of the
    models' incidence action and out of pure group theory on coset spaces."""
    assert incidence_fixed_signature(models[kind]) == build_coset_model(kind)


def test_signatures_frozen(models):
    assert incidence_fixed_signature(models["tetrahedron"]) == (
        (2, 3, (0, 2, 0)),
        (3, 4, (1, 0, 1)),
        (3, 4, (1, 0, 1)),
    )
    assert incidence_fixed_signature(models["cube"]) == (
        (2, 3, (0, 0, 2)),
        (2, 6, (0, 2, 0)),
        (3, 8, (2, 0, 0)),
        (4, 6, (0, 0, 2)),
    )
    assert incidence_fixed_signature(models["dodecahedron"]) == (
        (2, 15, (0, 2, 0)),
        (3, 20, (2, 0, 0)),
        (5, 12, (0, 0, 2)),
        (5, 12, (0, 0, 2)),
    )


def test_coset_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_coset_model("octahedron")
    with pytest.raises(ValueError):
        build_coset_model("tetrahedron-skeleton")


def test_build_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_polyhedral_model("icosahedron")
