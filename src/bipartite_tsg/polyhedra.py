"""Exact combinatorial models of the regular tetrahedron, cube and
dodecahedron with their orientation-preserving symmetry groups.

Each solid is given by two or three generators as corner permutations,
checked: its faces are the orbit of one face (the first generator's first
cycle) and its edges the orbit of that face's sides; the corner, edge,
face and element counts must be the solid's, and every edge must bound two
faces.  Each rotation's axis is read off from its fixed incidence markers.
A fourth model, "tetrahedron-skeleton", extends the tetrahedral group to
the full S4 action on the 1-skeleton, where odd permutations exchange the
inside and outside of the tetrahedron (so they swap the two center
markers, and the odd order-4 elements fix no point at all).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from typing import Iterable

from .perms import (
    FiniteGroup,
    GroupAction,
    Perm,
    compose_images,
    generate_group,
)

# point-class label helpers: labels are ("corner", i), ("edge", i),
# ("face", i), ("center", 0 | 1)
Label = tuple[str, int]


def _canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """A corner cycle read from its least corner, in the direction of the
    lesser second corner: one name per face, and (least, greatest) per
    edge."""
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    return min(rotated, rotated[:1] + rotated[:0:-1])


def _orbit(
    seed: tuple[int, ...], generators: list[Perm], size: int
) -> list[tuple[int, ...]]:
    """The canonical images of a corner cycle under the group the generators
    generate, sorted.  Raises AssertionError unless there are ``size`` of
    them, as soon as there are more."""
    found = {_canonical(seed)}
    queue = list(found)
    for cycle in queue:  # appended to while it is read: a breadth-first queue
        for g in generators:
            image = _canonical(compose_images(g.images, cycle))
            if image not in found:
                found.add(image)
                queue.append(image)
        if len(found) > size:
            break
    if len(found) != size:
        raise AssertionError(f"the orbit of {seed} does not have {size} members")
    return sorted(found)


@dataclass(frozen=True)
class Axis:
    """One fixed circle in the geometric action: the nontrivial elements
    whose fixed-point set is this circle, and the points on it in circular
    order.

    On a model's axis the slots are the base polyhedron's markers.  A circle
    through the two global centers (even elements) carries one marker on
    each ray from the center, so its order is center 0, one ray's marker,
    center 1, the other ray's marker.  Odd skeleton circles avoid the
    centers and list their markers in circular order, each next to the two
    it is incident with.  A placement reads each axis in slot numbers of its
    layout, each marker expanded to its concentric copies
    (``assignments.PlacementTemplate.slot_axes``).
    """

    elements: tuple[Perm, ...]
    slots: tuple[tuple, ...]


@dataclass(frozen=True)
class PolyhedralModel:
    kind: str
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, ...], ...]
    group: FiniteGroup  # permutations of the corners
    parities: tuple[int, ...]  # per element index: +1 rotations, -1 skeleton-odd
    action: GroupAction  # on all labels: corners, edges, faces, centers
    axes: tuple[Axis, ...]
    axis_at: tuple[int | None, ...]  # per element index: its axis, by axis_index

    @property
    def points(self) -> tuple[Label, ...]:
        return self.action.points  # type: ignore[return-value]

    def parity_of(self, g: Perm) -> int:
        return self.parities[self.group.index(g)]

    @cached_property
    def nontrivial(self) -> tuple[Perm, ...]:
        """The group elements other than the identity, in group order."""
        return tuple(e for e in self.group.elements if not e.is_identity())

    @cached_property
    def fixers(self) -> tuple[int, ...]:
        """Per label index of :attr:`points`, the bitmask of the nontrivial
        elements fixing that label: bit ``k`` stands for
        ``nontrivial[k]``."""
        fixers = [0] * len(self.points)
        for k, e in enumerate(self.nontrivial):
            for i in self.action.perms[e].fixed_points():
                fixers[i] |= 1 << k
        return tuple(fixers)

    def fixed_specials(self, g: Perm) -> tuple[Label, ...]:
        """Corner/edge/face labels fixed by g (centers excluded)."""
        return tuple(
            p for p in self.action.fixed_points(g) if p[0] != "center"
        )


# Each kind's generators as corner permutations in cycle form, each with the
# sign it gives the centers: -1 (the centers swapped) only for the
# skeleton's odd generator.  The first generator's first cycle is a face.
_TETRAHEDRAL = (
    ([(1, 2, 3)], 1),  # a third turn about corner 0
    ([(0, 3), (1, 2)], 1),  # a half turn about the midpoints of edges 03, 12
)
_GENERATORS = {
    "tetrahedron": _TETRAHEDRAL,
    "tetrahedron-skeleton": _TETRAHEDRAL + (([(1, 2)], -1),),  # corners 1, 2 swapped
    "cube": (
        ([(0, 4, 6, 2), (1, 5, 7, 3)], 1),  # a quarter turn about face 0462
        ([(1, 4, 2), (3, 5, 6)], 1),  # a third turn about corners 0, 7
    ),
    "dodecahedron": (
        # a fifth turn about face 0 8 4 12 9, a third turn about corners 0, 7
        ([(0, 8, 4, 12, 9), (1, 5, 19, 14, 13), (2, 10, 11, 16, 6), (3, 15, 18, 7, 17)], 1),
        ([(1, 4, 2), (3, 5, 6), (8, 9, 10), (11, 12, 13), (14, 15, 16), (17, 18, 19)], 1),
    ),
}
_EXPECTED = {  # corners, edges, faces, group order
    "tetrahedron": (4, 6, 4, 12),
    "tetrahedron-skeleton": (4, 6, 4, 24),
    "cube": (8, 12, 6, 24),
    "dodecahedron": (20, 30, 12, 60),
}


def _circle_order(markers: tuple[Label, ...], corners_of) -> tuple[Label, ...]:
    """An odd skeleton circle's markers in circular order: each is incident
    with its two neighbours (a corner on an edge or a face, an edge on a
    face), and the incidences among the markers close into one cycle, read
    from the least marker towards its lesser neighbour."""
    on = {m: corners_of(m) for m in markers}
    neighbours = {
        m: sorted(k for k in markers if on[m] < on[k] or on[k] < on[m])
        for m in markers
    }
    if any(len(n) != 2 for n in neighbours.values()):
        raise AssertionError("a circle's marker is not incident with two others")
    order = [min(markers)]
    step = neighbours[order[0]][0]
    while step != order[0]:
        order.append(step)
        a, b = neighbours[step]
        step = b if a == order[-2] else a
    if len(order) != len(markers):
        raise AssertionError("the circle's incidences do not close into one cycle")
    return tuple(order)


def _build_axes(
    group: FiniteGroup, parity: dict[Perm, int], action: GroupAction, corners_of
) -> tuple[Axis, ...]:
    by_fixed: dict[tuple[Label, ...], list[Perm]] = {}
    for g in group:
        if g.is_identity():
            continue
        fixed = tuple(
            p for p in action.fixed_points(g) if p[0] != "center"
        )
        by_fixed.setdefault(fixed, []).append(g)
    entries = []
    for fixed, elements in sorted(by_fixed.items()):
        parities = {parity[g] for g in elements}
        if len(parities) != 1:
            raise AssertionError("elements sharing a fixed set must share parity")
        if not fixed:
            # No fixed special points: glide-type elements with empty fixed
            # set.  Only odd order-4 skeleton elements may land here.
            if any(parity[g] == 1 or g.order() != 4 for g in elements):
                raise AssertionError("unexpected fixed-point-free rotation")
            continue
        if parities == {1}:
            # rotation axis through the two centers: one marker per ray
            if len(fixed) != 2:
                raise AssertionError("rotation axes carry one marker per ray")
            slots = (("center", 0), fixed[0], ("center", 1), fixed[1])
        else:
            slots = _circle_order(fixed, corners_of)
        entries.append(Axis(tuple(sorted(elements)), slots))
    return tuple(entries)


def _label_images(
    generators: Iterable[tuple[Perm, int]],
    edges: list[tuple[int, int]],
    faces: list[tuple[int, ...]],
    labels: list[Label],
) -> dict[Perm, list[int]]:
    """Each generator's image list on ``labels`` (corners, edges, faces,
    then the two centers), given the generator with its center sign, built
    a point class at a time: a corner goes to the generator's image of it,
    an edge or face to the edge or face on the images of its corners, and a
    generator of sign -1 swaps the centers.  The
    :class:`~.perms.GroupAction` constructor composes every other element's
    list from these."""
    n_corners = len(labels) - len(edges) - len(faces) - 2
    edge_index = {}
    for i, (a, b) in enumerate(edges, start=n_corners):
        edge_index[a, b] = edge_index[b, a] = i
    face_index = {
        frozenset(f): i for i, f in enumerate(faces, start=n_corners + len(edges))
    }
    ends = [tuple(end) for end in zip(*edges)]  # every edge's first, second corner
    face_corners = [itemgetter(*f) for f in faces]
    centers = len(labels) - 2
    images = {}
    for e, sign in generators:
        g = e.images
        row = list(g)
        row += map(edge_index.get, zip(*(compose_images(g, end) for end in ends)))
        row += (face_index.get(frozenset(corners(g))) for corners in face_corners)
        row += (centers, centers + 1) if sign == 1 else (centers + 1, centers)
        if None in row:
            i = row.index(None)
            raise ValueError(
                f"action leaves the point set: {e!r} sends {labels[i]!r} "
                f"to no {labels[i][0]}"
            )
        images[e] = row
    return images


@cache
def build_polyhedral_model(kind: str) -> PolyhedralModel:
    if kind not in _GENERATORS:
        raise ValueError(f"unknown polyhedron kind {kind!r}")
    n_corners, n_edges, n_faces, order = _EXPECTED[kind]
    generators = [(Perm.from_cycles(n_corners, c), s) for c, s in _GENERATORS[kind]]
    gen_perms = [g for g, _ in generators]
    face = tuple(_GENERATORS[kind][0][0][0])
    # The orbits are checked before the group is closed, which wrong
    # generators can make large.
    faces = _orbit(face, gen_perms, n_faces)
    edges = _orbit(face[:2], gen_perms, n_edges)
    sides = Counter(_canonical(side) for f in faces for side in zip(f, f[1:] + f[:1]))
    if sides != dict.fromkeys(edges, 2):
        raise AssertionError("every edge must bound exactly two faces")
    group = generate_group(gen_perms)
    if group.order != order:
        raise AssertionError(f"the {kind} group does not have {order} elements")

    sizes = {"corner": n_corners, "edge": n_edges, "face": n_faces, "center": 2}
    labels = [(cls, i) for cls, size in sizes.items() for i in range(size)]
    images = _label_images(generators, edges, faces, labels)
    action = GroupAction(group, tuple(labels), images)
    # an element is odd exactly when it swaps the two centers
    center = len(labels) - 2
    parities = [1 if action.images_of(e)[center] == center else -1 for e in group]

    def corners_of(label: Label) -> set[int]:
        cls, i = label
        return {i} if cls == "corner" else set((edges if cls == "edge" else faces)[i])

    axes = _build_axes(group, dict(zip(group.elements, parities)), action, corners_of)

    model = PolyhedralModel(
        kind,
        tuple(edges),
        tuple(faces),
        group,
        tuple(parities),
        action,
        axes,
        axis_index(group, axes),
    )
    _sanity_check_axes(model)
    return model


def axis_index(group: FiniteGroup, axes: tuple[Axis, ...]) -> tuple[int | None, ...]:
    """Per element index of ``group``, the position in ``axes`` of the axis
    holding the element, None for an element on none."""
    at: list[int | None] = [None] * group.order
    for i, axis in enumerate(axes):
        for e in axis.elements:
            at[group.index(e)] = i
    return tuple(at)


def _sanity_check_axes(model: PolyhedralModel) -> None:
    covered = 0
    for entry in model.axes:
        covered += len(entry.elements)
        if len(set(entry.slots)) != len(entry.slots):
            raise AssertionError("axis sequence repeats a slot")
    glides = model.axis_at.count(None) - 1  # the identity lies on no axis
    if covered + glides != model.group.order - 1:
        raise AssertionError("every nontrivial element needs a fixed-set record")
