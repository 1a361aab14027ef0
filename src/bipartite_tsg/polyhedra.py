"""Exact combinatorial models of the regular tetrahedron, cube and
dodecahedron with their orientation-preserving symmetry groups.

Corners carry exact coordinates in the ring Z[phi] of the golden ratio, as
integer pairs, so that edges, faces and rotation axes are derived, never
hand-typed: edges are the closest corner pairs, faces are the girth cycles
of the edge graph, and each rotation's axis is read off from its fixed
incidence markers.  A fourth model, "tetrahedron-skeleton", extends the
tetrahedral group to the full S4 action on the 1-skeleton, where odd
permutations exchange the inside and outside of the tetrahedron (so they
swap the two center markers, and the odd order-4 elements fix no point at
all).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, cmp_to_key
from operator import itemgetter
from typing import Iterable

from .perms import (
    FiniteGroup,
    GroupAction,
    Perm,
    compose_images,
    generate_group,
)


class ZPhi:
    """Exact element a + b*phi of the ring Z[phi], where phi = (1 + sqrt 5) / 2
    is the golden ratio and phi^2 = phi + 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __add__(self, other: "ZPhi") -> "ZPhi":
        return ZPhi(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "ZPhi":
        return ZPhi(-self.a, -self.b)

    def __sub__(self, other: "ZPhi") -> "ZPhi":
        return ZPhi(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "ZPhi") -> "ZPhi":
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        bd = self.b * other.b
        return ZPhi(self.a * other.a + bd, self.a * other.b + self.b * other.a + bd)

    def half(self) -> "ZPhi":
        """The element halved; raises ValueError unless it is twice an
        element of Z[phi], that is unless both components are even."""
        if self.a % 2 or self.b % 2:
            raise ValueError(f"{self!r} is not divisible by 2 in Z[phi]")
        return ZPhi(self.a >> 1, self.b >> 1)

    def sign(self) -> int:
        """Exact sign of a + b*phi = ((2a + b) + b*sqrt 5) / 2."""
        x, y = 2 * self.a + self.b, self.b
        if x * y >= 0:  # same sign, or one term zero
            head = x or y
        else:  # opposite signs: the larger square wins (sqrt 5 is irrational: no tie)
            head = x if x * x > 5 * y * y else y
        return (head > 0) - (head < 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZPhi) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"ZPhi({self.a}, {self.b})"


PHI = ZPhi(0, 1)  # the golden ratio

Vec = tuple[ZPhi, ZPhi, ZPhi]
Mat = tuple[Vec, Vec, Vec]


def vec(x: int, y: int, z: int) -> Vec:
    return (ZPhi(x), ZPhi(y), ZPhi(z))


def vadd(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vsum(vecs: Iterable[Vec]) -> Vec:
    total = vec(0, 0, 0)
    for v in vecs:
        total = vadd(total, v)
    return total


def dot(u: Vec, v: Vec) -> ZPhi:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dist2(u: Vec, v: Vec) -> ZPhi:
    d = (u[0] - v[0], u[1] - v[1], u[2] - v[2])
    return dot(d, d)


def mat_apply(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)  # type: ignore[return-value]


def mat_det(m: Mat) -> ZPhi:
    return dot(m[0], cross(m[1], m[2]))


# point-class label helpers: labels are ("corner", i), ("edge", i),
# ("face", i), ("center", 0 | 1)
Label = tuple[str, int]


def _closest_pairs(points: list[Vec]) -> list[tuple[int, int]]:
    best: ZPhi | None = None
    pairs = []
    for i, j in itertools.combinations(range(len(points)), 2):
        d = dist2(points[i], points[j])
        if best is None or (d - best).sign() < 0:
            best = d
            pairs = [(i, j)]
        elif d == best:
            pairs.append((i, j))
    return pairs


def _girth_cycles(n_points: int, edges: list[tuple[int, int]], length: int) -> list[tuple[int, ...]]:
    """All simple cycles of the given length, canonicalized (min corner
    first, lexicographically smaller direction)."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_points)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    found: set[tuple[int, ...]] = set()

    def canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
        k = cycle.index(min(cycle))
        rotated = cycle[k:] + cycle[:k]
        reverse = (rotated[0],) + tuple(reversed(rotated[1:]))
        return min(rotated, reverse)

    def extend(path: list[int]):
        if len(path) == length:
            if path[0] in adjacency[path[-1]]:
                found.add(canonical(tuple(path)))
            return
        for nxt in adjacency[path[-1]]:
            if nxt > path[0] and nxt not in path:
                extend(path + [nxt])

    for start in range(n_points):
        extend([start])
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
    centers and list their markers in exact circular order.  A placement
    reads each axis in slot numbers of its layout, each marker expanded to
    its concentric copies (``assignments.PlacementTemplate.slot_axes``).
    """

    elements: tuple[Perm, ...]
    slots: tuple[tuple, ...]


@dataclass(frozen=True)
class PolyhedralModel:
    kind: str
    corner_vectors: tuple[Vec, ...]
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


def _rotation_matrices(kind: str) -> tuple[list[tuple[Mat, bool]], list[Vec]]:
    """Generators of the solid's symmetry group and its corners.  Each
    generator is a pair (matrix, doubled); a doubled matrix is twice the
    symmetry, so that its entries lie in Z[phi], and its images are halved."""
    r3: Mat = (vec(0, 0, 1), vec(1, 0, 0), vec(0, 1, 0))  # cyclic x->y->z->x
    if kind in ("tetrahedron", "tetrahedron-skeleton"):
        corners = [vec(1, 1, 1), vec(1, -1, -1), vec(-1, 1, -1), vec(-1, -1, 1)]
        r2: Mat = (vec(-1, 0, 0), vec(0, -1, 0), vec(0, 0, 1))
        gens = [(r3, False), (r2, False)]
        if kind == "tetrahedron-skeleton":
            swap_xy: Mat = (vec(0, 1, 0), vec(1, 0, 0), vec(0, 0, 1))
            gens.append((swap_xy, False))
        return gens, corners
    if kind == "cube":
        corners = [vec(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
        r4: Mat = (vec(0, -1, 0), vec(1, 0, 0), vec(0, 0, 1))  # quarter turn about z
        return [(r4, False), (r3, False)], corners
    if kind == "dodecahedron":
        zero, one, inv_phi = ZPhi(0), ZPhi(1), ZPhi(-1, 1)  # 1/phi = phi - 1
        corners = [vec(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
        for s1 in (1, -1):
            for s2 in (1, -1):
                a, b = ZPhi(0, s1), ZPhi(-s2, s2)  # s1 * phi, s2 * (phi - 1)
                corners += [(zero, a, b), (b, zero, a), (a, b, zero)]
        r5_doubled: Mat = (  # twice a fifth turn
            (inv_phi, -PHI, one),
            (PHI, one, inv_phi),
            (-one, inv_phi, PHI),
        )
        return [(r5_doubled, True), (r3, False)], corners
    raise ValueError(f"unknown polyhedron kind {kind!r}")


_FACE_LENGTH = {"tetrahedron": 3, "tetrahedron-skeleton": 3, "cube": 4, "dodecahedron": 5}
_EXPECTED = {
    "tetrahedron": (4, 6, 4, 12),
    "tetrahedron-skeleton": (4, 6, 4, 24),
    "cube": (8, 12, 6, 24),
    "dodecahedron": (20, 30, 12, 60),
}


def _angular_order(markers: list[Label], vectors: list[Vec]) -> tuple[Label, ...]:
    """Exact circular order of coplanar points around the origin."""
    u = vectors[0]
    w = next(v for v in vectors if cross(u, v) != vec(0, 0, 0))
    normal = cross(u, w)
    coords = []
    for label, v in zip(markers, vectors):
        if dot(v, normal).sign():
            raise ValueError(f"{label!r} is not coplanar with the circle")
        x = dot(v, u)
        y = dot(cross(normal, u), v)  # component along the in-plane normal of u
        coords.append((label, x, y))

    def half(x: ZPhi, y: ZPhi) -> int:
        # 0 for angle in [0, pi), 1 for [pi, 2 pi)
        if y.sign() > 0 or (y.sign() == 0 and x.sign() > 0):
            return 0
        return 1

    def compare(p, q):
        _, x1, y1 = p
        _, x2, y2 = q
        h1, h2 = half(x1, y1), half(x2, y2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        s = (x1 * y2 - x2 * y1).sign()
        return -s  # positive cross product means p comes first

    ordered = sorted(coords, key=cmp_to_key(compare))
    return tuple(label for label, _, _ in ordered)


def _build_axes(
    group: FiniteGroup,
    parity: dict[Perm, int],
    action: GroupAction,
    vector_of,
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
            u = vector_of(fixed[0])
            pos, neg = [], []
            for label in fixed:
                v = vector_of(label)
                c = cross(u, v)
                if c != vec(0, 0, 0):
                    raise AssertionError("axis markers must be collinear")
                (pos if dot(u, v).sign() > 0 else neg).append(label)
            if len(pos) != 1 or len(neg) != 1:
                raise AssertionError("rotation axes carry one marker per ray")
            slots = (("center", 0), pos[0], ("center", 1), neg[0])
        else:
            vectors = [vector_of(label) for label in fixed]
            slots = _angular_order(list(fixed), vectors)
        entries.append(Axis(tuple(sorted(elements)), slots))
    return tuple(entries)


def _label_images(
    generators: Iterable[tuple[Perm, int]],
    edges: list[tuple[int, int]],
    faces: list[tuple[int, ...]],
    labels: list[Label],
) -> dict[Perm, list[int]]:
    """Each generator's image list on ``labels`` (corners, edges, faces,
    then the two centers), given the generator with its determinant sign,
    built a point class at a time: a corner goes to the generator's image of
    it, an edge or face to the edge or face on the images of its corners,
    and a generator of sign -1 swaps the centers.  The
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
    generators, corners = _rotation_matrices(kind)
    n_corners = len(corners)
    index = {v: i for i, v in enumerate(corners)}

    def corner_perm(m: Mat, doubled: bool) -> Perm:
        images = []
        for v in corners:
            w = mat_apply(m, v)
            if doubled:
                w = (w[0].half(), w[1].half(), w[2].half())
            if w not in index:
                raise ValueError("matrix does not preserve the corner set")
            images.append(index[w])
        return Perm(images)

    gen_perms = [corner_perm(m, doubled) for m, doubled in generators]
    gen_parity = [mat_det(m).sign() for m, _ in generators]
    group = generate_group(gen_perms)

    edges = sorted(_closest_pairs(corners))
    faces = _girth_cycles(n_corners, edges, _FACE_LENGTH[kind])
    exp_corners, exp_edges, exp_faces, exp_order = _EXPECTED[kind]
    if (n_corners, len(edges), len(faces), group.order) != (
        exp_corners,
        exp_edges,
        exp_faces,
        exp_order,
    ):
        raise AssertionError(f"derived {kind} model has wrong class sizes")
    edge_count: dict[tuple[int, int], int] = {e: 0 for e in edges}
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            edge_count[(min(a, b), max(a, b))] += 1
    if set(edge_count.values()) != {2}:
        raise AssertionError("every edge must bound exactly two faces")

    labels: list[Label] = (
        [("corner", i) for i in range(n_corners)]
        + [("edge", i) for i in range(len(edges))]
        + [("face", i) for i in range(len(faces))]
        + [("center", 0), ("center", 1)]
    )
    images = _label_images(zip(gen_perms, gen_parity), edges, faces, labels)
    action = GroupAction(group, tuple(labels), images)
    # an element is odd exactly when it swaps the two centers
    center = len(labels) - 2
    parities = [
        1 if action.images_of(e)[center] == center else -1 for e in group.elements
    ]

    corner_vectors = tuple(corners)

    def vector_of(label: Label) -> Vec:
        cls, i = label
        if cls == "corner":
            return corner_vectors[i]
        if cls == "edge":
            a, b = edges[i]
            return vadd(corner_vectors[a], corner_vectors[b])
        return vsum(corner_vectors[k] for k in faces[i])

    axes = _build_axes(group, dict(zip(group.elements, parities)), action, vector_of)

    model = PolyhedralModel(
        kind,
        corner_vectors,
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
    glides = sum(
        1
        for g, i in zip(model.group, model.axis_at)
        if i is None and not g.is_identity()
    )
    if covered + glides != model.group.order - 1:
        raise AssertionError("every nontrivial element needs a fixed-set record")
