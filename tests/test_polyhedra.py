"""Exact polyhedral models, their rotation groups, and the two independent
fixed-count oracles (geometric incidence vs. abstract coset actions)."""

import hashlib
import itertools

import pytest

from bipartite_tsg import polyhedra
from bipartite_tsg.perms import generate_group
from bipartite_tsg.polyhedra import (
    PHI,
    ZPhi,
    build_polyhedral_model,
    cross,
    dist2,
    dot,
    vec,
    vsum,
)

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


# ------------------------------------------------------------ exact arithmetic


def test_golden_ratio_identity():
    assert PHI * PHI == PHI + ZPhi(1)
    assert PHI * (PHI - ZPhi(1)) == ZPhi(1)


def test_zphi_is_exact():
    # phi * (1 - phi) = -1: no floating point in sight.
    assert PHI * (ZPhi(1) - PHI) == ZPhi(-1)
    assert (PHI + PHI - ZPhi(1)) * (PHI + PHI - ZPhi(1)) == ZPhi(5)  # sqrt 5 squared
    assert ZPhi(3, -2).sign() == -1  # 3 - 2 phi = 2 - sqrt 5
    assert ZPhi(-2, 2).sign() == 1  # 2 phi - 2 = sqrt 5 - 1
    assert ZPhi(0).sign() == 0


def test_the_exact_sign_agrees_with_floating_point():
    # A nonzero a + b phi times its conjugate is a nonzero integer, so on
    # this grid it is at least 1/50 away from zero: far beyond float error.
    phi = (1 + 5**0.5) / 2
    for a, b in itertools.product(range(-30, 31), repeat=2):
        value = a + b * phi
        assert ZPhi(a, b).sign() == (value > 0) - (value < 0), (a, b)


def test_halving_is_exact_and_an_odd_component_raises():
    assert ZPhi(4, -2).half() == ZPhi(2, -1)
    assert ZPhi(-6, 0).half() == ZPhi(-3)
    for odd in (ZPhi(1), ZPhi(0, 3), ZPhi(-3, 2), ZPhi(2, -1)):
        with pytest.raises(ValueError, match="not divisible by 2"):
            odd.half()


# ----------------------------------------------------------- model structure


def marker_class_sizes(model):
    return (len(model.corner_vectors), len(model.edges), len(model.faces))


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


def test_edges_all_same_length(models):
    for kind in ROTATION_KINDS:
        m = models[kind]
        lengths = {
            dist2(m.corner_vectors[a], m.corner_vectors[b]) for a, b in m.edges
        }
        assert len(lengths) == 1, kind


def test_corners_all_same_radius(models):
    origin = vec(0, 0, 0)
    for kind in ROTATION_KINDS:
        m = models[kind]
        norms = {dist2(v, origin) for v in m.corner_vectors}
        assert len(norms) == 1, kind


def test_group_acts_transitively_on_each_marker_class(models):
    for kind in ROTATION_KINDS:
        m = models[kind]
        orbits = orbits_of(m.action)
        by_class = {}
        for orbit in orbits:
            kinds = {p[0] for p in orbit}
            assert len(kinds) == 1, "an orbit mixes marker classes"
            by_class.setdefault(kinds.pop(), []).append(len(orbit))
        assert by_class["corner"] == [len(m.corner_vectors)]
        assert by_class["edge"] == [len(m.edges)]
        assert by_class["face"] == [len(m.faces)]
        assert by_class["center"] == [1, 1]


# The SHA-256 of each model's combinatorial content: its edges and faces,
# its group's elements and generators, the parities, each axis (elements,
# slots, parts), and the action's labels and permutations.  Whatever number
# type the build derives them in, the models must come out the same.
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
def test_a_doctored_label_list_fails_the_model_build(monkeypatch, kind):
    # Two edges exchanged in the list of the last element that is no
    # generator: it is still compared with the list composed from the
    # generators', so the build fails.
    honest = polyhedra._label_images

    def doctored(group, parities, edges, faces, labels):
        images = honest(group, parities, edges, faces, labels)
        e = next(x for x in reversed(group.elements) if x not in group.generators)
        row = list(images[e])
        i, j = [k for k, label in enumerate(labels) if label[0] == "edge"][:2]
        row[i], row[j] = row[j], row[i]
        images[e] = row
        return images

    monkeypatch.setattr(polyhedra, "_label_images", doctored)
    with pytest.raises(ValueError, match="not a homomorphism"):
        build_polyhedral_model.__wrapped__(kind)  # past the cache


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


def _vector(m, label):
    cls, i = label
    if cls == "corner":
        return m.corner_vectors[i]
    ends = m.edges[i] if cls == "edge" else m.faces[i]
    return vsum(m.corner_vectors[k] for k in ends)


def test_a_circle_through_the_poles_lists_pole_ray_pole_ray(models):
    for kind, m in models.items():
        for entry in m.axes:
            if m.parity_of(entry.elements[0]) == -1:
                assert all(p[0] != "center" for p in entry.slots), kind
                continue
            first, ray, second, other_ray = entry.slots
            assert (first, second) == (("center", 0), ("center", 1))
            u, v = _vector(m, ray), _vector(m, other_ray)
            assert cross(u, v) == vec(0, 0, 0)  # one line through the center
            assert dot(u, v).sign() < 0  # on opposite rays


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
    coordinate geometry and out of pure group theory on coset spaces."""
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
