"""Permutation, finite-group, and group-action primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipartite_tsg import perms
from bipartite_tsg.perms import FiniteGroup, GroupAction, Perm, generate_group
from bipartite_tsg.polyhedra import build_polyhedral_model
from conftest import (
    MODEL_KINDS,
    UnionFind,
    action_of,
    alternating_group,
    coset_action,
    elements_of_order,
    fixed_count,
    is_subgroup,
    orbit_count,
    orbit_count_burnside,
    orbit_count_unionfind,
    orbits_of,
    subgroup,
    symmetric_group,
    validate_group,
)

perms_of_degree = lambda d: st.permutations(range(d)).map(Perm)


# --------------------------------------------------------------------------- Perm


def test_perm_rejects_non_permutation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


@pytest.mark.parametrize(
    "images",
    [(0, 3, 3, 1), (2, -1, 0), (0, 1, 3), (3, 0, 1, 2, 5)],
    ids=["duplicate", "negative", "out-of-range", "gap"],
)
def test_perm_rejects_each_kind_of_non_permutation(images):
    with pytest.raises(ValueError, match="not a permutation"):
        Perm(images)


def test_perm_accepts_the_empty_and_the_one_point_permutation():
    assert Perm(()).images == ()
    assert Perm.identity(1).images == (0,)
    assert Perm.identity(0) == Perm(())


def test_from_cycles_and_call():
    p = Perm.from_cycles(5, [(0, 1, 2)])
    assert [p(i) for i in range(5)] == [1, 2, 0, 3, 4]


def test_from_cycles_rejects_reuse_and_range():
    with pytest.raises(ValueError):
        Perm.from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(0, 5)])


@given(perms_of_degree(5), perms_of_degree(5))
def test_equal_perms_hash_alike_however_made(p, q):
    # a composite wraps its images unchecked; its kept hash must still
    # agree with the checked permutation of the same images
    product = p * q
    rebuilt = Perm(product.images)
    assert {product: 1}[rebuilt] == 1  # hashes both, keeps both hashes
    assert hash(product) == hash(rebuilt) == hash(product.images)


def test_composition_is_right_to_left():
    p = Perm.from_cycles(3, [(0, 1)])
    q = Perm.from_cycles(3, [(1, 2)])
    assert (p * q)(2) == p(q(2)) == p(1) == 0


def test_cycle_normal_form():
    p = Perm.from_cycles(6, [(2, 4), (0, 3, 1)])
    assert p.cycles() == ((0, 3, 1), (2, 4))
    assert p.cycles(include_fixed=True) == ((0, 3, 1), (2, 4), (5,))
    assert p.order() == 6
    assert p.fixed_points() == (5,)


def test_power_and_inverse():
    p = Perm.from_cycles(7, [(0, 1, 2, 3, 4)])
    assert (p * p * p * p * p).is_identity()
    assert p * p * p * p == p.inverse()
    assert p.order() == 5


@given(perms_of_degree(6), perms_of_degree(6))
def test_inverse_of_product(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perms_of_degree(7))
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms_of_degree(6), perms_of_degree(6))
def test_conjugation_preserves_cycle_type(p, g):
    def cycle_type(q):
        return sorted(len(c) for c in q.cycles(include_fixed=True))

    assert cycle_type(g * p * g.inverse()) == cycle_type(p)


# -------------------------------------------------------------------- FiniteGroup


def test_standard_group_orders():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert alternating_group(5).order == 60


def test_group_axioms_exhaustively():
    validate_group(alternating_group(4))


def test_elements_are_sorted_deterministically():
    g = symmetric_group(3)
    assert list(g.elements) == sorted(g.elements)
    assert g.elements == symmetric_group(3).elements


def test_conjugacy_class_equation():
    assert sorted(len(c) for c in symmetric_group(4).conjugacy_classes()) == [
        1, 3, 6, 6, 8,
    ]
    assert sorted(len(c) for c in alternating_group(4).conjugacy_classes()) == [
        1, 3, 4, 4,
    ]
    assert sorted(len(c) for c in alternating_group(5).conjugacy_classes()) == [
        1, 12, 12, 15, 20,
    ]


def test_element_order_counts_in_a5():
    g = alternating_group(5)
    assert len(elements_of_order(g, 2)) == 15
    assert len(elements_of_order(g, 3)) == 20
    assert len(elements_of_order(g, 5)) == 24


def test_product_table_matches_multiplication():
    g = symmetric_group(4)
    for a, row in zip(g.elements, g.product_table):
        assert [g.elements[ab] for ab in row] == [a * b for b in g.elements]


def fresh_copy(group):
    """The same elements and generators, no table built yet."""
    return FiniteGroup(group.elements, group.generators)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda kind=kind: fresh_copy(build_polyhedral_model(kind).group)
          for kind in MODEL_KINDS),
        lambda: symmetric_group(4),
        lambda: alternating_group(5),
        lambda: FiniteGroup(alternating_group(4).elements),  # every element generates
    ],
    ids=[*MODEL_KINDS, "S4", "A5", "A4-elements-alone"],
)
def test_product_table_equals_the_index_of_every_product(make):
    g = make()
    assert g.product_table == tuple(
        tuple(g.index(a * b) for b in g.elements) for a in g.elements
    )


def test_product_table_rejects_generators_that_miss_an_element():
    s3 = symmetric_group(3)
    r = Perm.from_cycles(3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="do not generate the group"):
        FiniteGroup(s3.elements, generators=(r,)).product_table


def test_the_dodecahedron_table_composes_only_the_generators_rows(monkeypatch):
    # Each other row is a gather of rows already built, of length |G|; a
    # composition of two elements has their degree, 20.
    g = fresh_copy(build_polyhedral_model("dodecahedron").group)
    assert g.degree != g.order
    direct = []
    honest = perms.compose_images

    def counting(p, q):
        if len(q) == g.degree:
            direct.append(q)
        return honest(p, q)

    monkeypatch.setattr(perms, "compose_images", counting)
    table = g.product_table
    assert 0 < len(direct) <= len(g.generators) * g.order
    assert table == build_polyhedral_model("dodecahedron").group.product_table


@pytest.mark.parametrize(
    "group", [symmetric_group(4), alternating_group(5)], ids=["S4", "A5"]
)
def test_conjugators_conjugate_each_class_representative(group):
    elements = group.elements
    classes = {e: cls for cls in group.conjugacy_classes() for e in cls}
    for e, (g, r) in zip(elements, group.conjugators):
        x, rep = elements[g], elements[r]
        assert e == x * rep * x.inverse()
        assert rep == classes[e][0]
    for cls in group.conjugacy_classes():
        assert group.conjugators[group.index(cls[0])] == (0, group.index(cls[0]))


def test_element_orders_divide_group_order():
    g = symmetric_group(4)
    assert all(g.order % e.order() == 0 for e in g)


def test_subgroup_checks():
    s4 = symmetric_group(4)
    a4 = alternating_group(4)
    assert is_subgroup(s4, a4)
    assert not is_subgroup(a4, s4)
    with pytest.raises(ValueError):
        subgroup(a4, s4.elements)


def test_generate_group_requires_common_degree():
    with pytest.raises(ValueError):
        generate_group([Perm.identity(3), Perm.identity(4)])
    with pytest.raises(ValueError):
        generate_group([])


# -------------------------------------------------------------------- GroupAction


def natural_action(group):
    return action_of(group, tuple(range(group.degree)), lambda e, x: e(x))


def test_natural_action_orbit_count():
    act = natural_action(symmetric_group(4))
    assert orbits_of(act) == ((0, 1, 2, 3),)
    assert orbit_count(act) == 1


def test_action_reads_images_and_fixed_points_by_label():
    g = symmetric_group(3)
    act = action_of(g, ("a", "b", "c"), lambda e, p: "abc"[e("abc".index(p))])
    swap = Perm.from_cycles(3, [(0, 1)])
    assert act.perms[swap].images == (1, 0, 2)  # a <-> b, c fixed
    assert act.fixed_points(swap) == ("c",)
    assert fixed_count(act, swap) == 1
    assert fixed_count(act, g.identity) == 3


def test_action_rejects_escaping_points():
    g = symmetric_group(3)
    with pytest.raises(ValueError):
        action_of(g, (0, 1), lambda e, x: e(x))


def test_action_rejects_non_homomorphism():
    g = generate_group([Perm.from_cycles(4, [(0, 1, 2, 3)])])  # cyclic of order 4
    rot = {0: 1, 1: 0, 2: 3, 3: 2}
    with pytest.raises(ValueError):
        action_of(
            g,
            (0, 1, 2, 3),
            lambda e, x: x if e.is_identity() else rot[x],
        )


def natural_images(group):
    return {e: list(e.images) for e in group.elements}


def test_image_list_constructor_matches_the_act_fn_constructor():
    g = alternating_group(4)
    built = GroupAction(g, range(4), natural_images(g))
    assert built.perms == natural_action(g).perms


def test_image_list_constructor_rejects_a_non_permutation():
    g = symmetric_group(3)
    images = natural_images(g)
    images[g.elements[1]] = [0, 0, 1]
    with pytest.raises(ValueError, match="not a permutation"):
        GroupAction(g, range(3), images)
    images[g.elements[1]] = [1, 0]
    with pytest.raises(ValueError, match="2 images for 3 points"):
        GroupAction(g, range(3), images)


def test_image_list_constructor_rejects_a_non_trivial_identity():
    g = symmetric_group(3)
    images = natural_images(g)
    images[g.identity] = [1, 0, 2]
    with pytest.raises(ValueError, match="identity does not act trivially"):
        GroupAction(g, range(3), images)


def test_image_list_constructor_rejects_swapped_image_lists():
    # Exchanging two transpositions while fixing the 3-cycles is no
    # automorphism of S3, so the swapped lists break the homomorphism law.
    g = symmetric_group(3)
    images = natural_images(g)
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(0, 2)])
    images[a], images[b] = images[b], images[a]
    with pytest.raises(ValueError, match="not a homomorphism"):
        GroupAction(g, range(3), images)


def test_burnside_average_equals_direct_count():
    # S4 on ordered pairs (x, y): orbits are the diagonal and the rest.
    g = symmetric_group(4)
    points = [(x, y) for x in range(4) for y in range(4)]
    act = action_of(g, points, lambda e, p: (e(p[0]), e(p[1])))
    assert orbit_count_unionfind(act) == 2
    assert orbit_count_burnside(act) == 2
    assert orbit_count(act) == 2


def test_orbit_sizes_divide_group_order():
    g = alternating_group(5)
    points = [frozenset(p) for p in __import__("itertools").combinations(range(5), 2)]
    act = action_of(g, points, lambda e, p: frozenset(e(x) for x in p))
    for orbit in orbits_of(act):
        assert g.order % len(orbit) == 0


def test_coset_action_degree_and_transitivity():
    g = alternating_group(4)
    h = subgroup(g, [e for e in g if e.order() in (1, 3) and (e.is_identity() or 3 in e.fixed_points())])
    assert h.order == 3
    act = coset_action(g, h)
    assert len(act.points) == 4  # index of the subgroup
    assert orbit_count(act) == 1


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(ValueError):
        coset_action(alternating_group(4), symmetric_group(4))


def test_union_find_components():
    uf = UnionFind(5)
    uf.union(0, 1)
    uf.union(3, 4)
    assert len({uf.find(x) for x in range(5)}) == 3
    assert uf.find(1) == uf.find(0)


def test_generator_images_determine_the_action():
    g = symmetric_group(4)
    images = {e: list(e.images) for e in g.generators}
    assert GroupAction(g, range(4), images).perms == natural_action(g).perms


def test_generator_images_breaking_a_relation_are_rejected():
    # (0 1) -> identity with (0 1 2) kept breaks s r s = r^-1.
    g = symmetric_group(3)
    s, r = Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])
    assert set(g.generators) == {s, r}
    images = {s: [0, 1, 2], r: list(r.images)}
    with pytest.raises(ValueError, match="not a homomorphism"):
        GroupAction(g, range(3), images)


def test_image_list_constructor_needs_every_generator():
    g = symmetric_group(3)
    images = natural_images(g)
    del images[g.generators[0]]
    with pytest.raises(ValueError, match="no image list for the generator"):
        GroupAction(g, range(3), images)


def test_images_of_reads_each_element_s_checked_permutation():
    g = symmetric_group(4)
    action = GroupAction(g, range(4), {e: e.images for e in g.generators})
    assert all(action.images_of(e) == e.images for e in g)
    assert all(action.perms[e] == e for e in g)


def test_image_list_constructor_rejects_generators_of_a_smaller_group():
    s3 = symmetric_group(3)
    r = Perm.from_cycles(3, [(0, 1, 2)])
    g = FiniteGroup(s3.elements, generators=(r,))
    with pytest.raises(ValueError, match="do not generate the group"):
        GroupAction(g, range(3), {r: list(r.images)})
