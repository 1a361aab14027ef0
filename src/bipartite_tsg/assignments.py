"""Equivariant vertex placements for complete bipartite graphs.

A placement embeds the ``2n`` vertices of ``K_{n,n}`` at points of the round
3-sphere so that one of the polyhedral rotation models acts on them.  Points
come from a small vocabulary:

* the two poles fixed by every part-preserving element (the center of the
  solid and the center of its complementary ball),
* marker points (corners, edge midpoints, face centers) on one or more
  concentric copies of the polyhedron, and
* free orbits of points inside a ball that meets no rotation axis and is
  disjoint from all its images.

Each admissible residue class of ``n`` has a recipe in ``RECIPES``: a core
of poles and marker blocks in each part, plus whole free orbits.  The
recipes are chosen so that the induced vertex permutations are faithful,
each group element realizes the fixed-vertex pattern of a row of the
matching counting table, and the fixed points along every rotation axis
alternate or collapse into one part in the way the downstream
edge-embedding checks require.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain
from operator import eq, ne
from typing import NamedTuple

from .bipartite import BipartiteAut, require_count, validate_automorphism
from .necessity import (
    GROUPS,
    PROFILE_SLOTS,
    FixedCount,
    FixedProfile,
    NecessityVerdict,
    TABLE_MODULUS,
    counting_table,
    enumerate_profiles,
    necessity_verdict,
)
from .perms import GroupAction, Perm, compose_along, compose_images
from .polyhedra import PolyhedralModel, build_polyhedral_model

Point = tuple
# Point labels:
#   ("center", 0 | 1)                     the two poles
#   (marker_class, copy_name, index)      marker on a concentric copy
#   ("free", tag, orbit, element_index)   free-orbit point; tag "V", "W", or
#                                         "VW" for orbits split between parts


class NotRealizable(ValueError):
    """Raised when no vertex placement exists for the requested pair."""

    def __init__(self, verdict: NecessityVerdict):
        self.verdict = verdict
        reasons = "; ".join(r.id for r in verdict.rules_fired)
        super().__init__(
            f"no placement of K_{{{verdict.n},{verdict.n}}} with "
            f"{verdict.group} symmetry: {reasons}"
        )


@dataclass(frozen=True)
class CenterPair:
    """Both poles, assigned to one part."""

    part: str


@dataclass(frozen=True)
class MarkerBlock:
    """Every marker of one class on one concentric copy of the polyhedron.

    ``swap_partner`` names the copy this one trades places with under
    part-swapping elements (used only by the tetrahedron-skeleton model,
    whose odd elements exchange the inside and outside of the skeleton);
    the partner copy holds a block of the same class naming this copy back.
    """

    marker_class: str  # "corner" | "edge" | "face"
    copy_name: str
    part: str
    swap_partner: str | None = None


@dataclass(frozen=True)
class FreeOrbitBlock:
    """``count`` regular orbits of free points (possibly none).

    ``part`` is "V" or "W" for whole orbits, or "split" for orbits whose
    even half lies in V and odd half in W (the skeleton recipes, where the
    part-swapping elements are exactly the odd ones).
    """

    count: int
    part: str


Block = CenterPair | MarkerBlock | FreeOrbitBlock


#: The number of slot tables kept at once.  The recipes' 17 templates have
#: 8 layouts.
LAYOUT_CACHE_SIZE = 64


class FixedTable(NamedTuple):
    """What each element fixes of a core: its fixed counts in V and W by
    element index (the identity's left empty), the class counts, the
    number of orbits of the core's vertices, and ``masks[p][r]``: the fixer
    mask of vertex ``r`` of part ``p`` (W numbered from 0, not from ``n``),
    for each vertex some nontrivial element fixes, each part in vertex
    order.  Bit ``k`` of a mask stands for ``model.nontrivial[k]``, the
    element of index ``k + 1``."""

    counts: tuple[tuple[int, int], ...]
    class_counts: dict[str, tuple[int, int, tuple[int, int]]]
    orbits: int
    masks: tuple[dict[int, int], dict[int, int]]


def _marker_count(model: PolyhedralModel, marker_class: str) -> int:
    if marker_class == "corner":
        return model.group.degree
    return len(model.edges if marker_class == "edge" else model.faces)


class SlotTable(NamedTuple):
    """Where each element sends each point label of one layout's copies.

    ``slots`` lists both poles, then every marker of each class on each copy
    (class by class, copies in the layout's order), whether or not a vertex
    sits there; ``number`` gives each label's position.  ``images[a][s]`` is
    the slot that element ``a`` (by index) sends slot ``s`` to: the
    generators' by the layout's rule, every other element's composed from
    them along the product table (:func:`~.perms.compose_along`).
    ``broken`` lists the (generator, element) index pairs whose images do
    not compose along the product table, that walk's disagreeing pairs, none
    for an honest layout.

    Made once per layout with them: ``fixers[s]``, the bitmask of the
    elements fixing slot ``s``, bit ``a - 1`` for element ``a`` (so bit
    ``k`` is ``model.nontrivial[k]``); ``orbit[s]``, the least slot of the
    orbit of ``s`` under the generators' rows; and ``axes``, each of the
    model's axes as slot numbers in circular order, with each marker
    expanded to its concentric copies (see :func:`_axis_numbers`), or None
    when a part-swapping circle would cross two or more copies, which no
    placement admits.  A placement reads its table in one place,
    :attr:`PlacementTemplate.slot_table`."""

    slots: tuple[Point, ...]
    number: dict[Point, int]
    images: tuple[tuple[int, ...], ...]
    broken: tuple[tuple[int, int], ...]
    fixers: tuple[int, ...]
    orbit: tuple[int, ...]
    axes: tuple[tuple[int, ...], ...] | None


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def layout_slots(layout: tuple) -> SlotTable:
    """The slot table of ``layout`` = (model kind, copies, swap partners as a
    frozenset of (copy, partner) pairs).  The recipes' 17 templates have 8
    layouts; at most :data:`LAYOUT_CACHE_SIZE` tables are kept, the least
    recently used dropped first, and ``layout_slots.cache_clear()`` forgets
    them all.

    Marker ``(cls, copy, i)`` goes under element ``a`` to the slot of the
    model label that ``a`` sends ``(cls, i)`` to, on ``copy``'s swap partner
    when ``a`` swaps the parts and on ``copy`` otherwise; a pole goes to the
    pole that ``a`` sends its center to.  So a generator's images are two
    gathers: its label permutation read through each copy's slot numbering,
    then those read at each slot's copy and label.  Every other element's
    are composed from the generators' along the product table; the pairs on
    which they do not compose are the table's ``broken``, none when the swap
    partners pair up, and then every element's images follow the same rule.
    By that rule a slot is fixed by the elements that fix its label (the
    model's ``fixers``) and keep its copy in place."""
    kind, copies, swaps = layout
    model = build_polyhedral_model(kind)
    partner = dict(swaps)
    points = model.points
    labels = len(points)  # the model's labels: corners, edges, faces, centers
    start = {}  # each point class's first label
    for i, (cls, _) in enumerate(points):
        start.setdefault(cls, i)
    odd_bits = sum(1 << (a - 1) for a, sign in enumerate(model.parities) if sign == -1)
    slots: list[Point] = [("center", 0), ("center", 1)]
    fixers = list(model.fixers[labels - 2 :])
    first = {}
    source = [labels - 2, labels - 1]  # each slot as copy * labels + label
    # each copy's slot of each label; the centers are the poles on every copy
    on_copy = {name: [0] * (labels - 2) + [0, 1] for name, _ in copies}
    for cls in ("corner", "edge", "face"):
        count, at = _marker_count(model, cls), start[cls]
        for k, (name, _) in enumerate(copies):
            first[cls, name] = len(slots)
            on_copy[name][at : at + count] = range(len(slots), len(slots) + count)
            source += range(k * labels + at, k * labels + at + count)
            slots += ((cls, name, i) for i in range(count))
            keep = ~odd_bits if _moves(partner, name) else -1
            fixers += (mask & keep for mask in model.fixers[at : at + count])
    even = [on_copy[name] for name, _ in copies]
    odd = [on_copy[partner.get(name, name)] for name, _ in copies]
    group = model.group
    rows = []  # each generator's images, by the two gathers
    for e in group.generators:
        moved = model.action.images_of(e)  # its permutation of the labels
        through = chain.from_iterable(
            compose_images(c, moved) for c in (even if model.parity_of(e) == 1 else odd)
        )
        rows.append(compose_images(tuple(through), source))
    generators = tuple(map(group.index, group.generators))
    images, broken = compose_along(
        [group.product_table[g] for g in generators], rows, group.index(group.identity)
    )
    return SlotTable(
        tuple(slots),
        dict(zip(slots, range(len(slots)))),
        tuple(images),
        tuple((generators[k], a) for k, a in broken),
        tuple(fixers),
        _orbit_roots(rows),
        _axis_numbers(model, copies, partner, first),
    )


def _moves(partner: dict[str, str], name: str) -> bool:
    """Whether copy ``name`` trades places under the part-swapping
    elements: it does when it names a swap partner other than itself."""
    return partner.get(name, name) != name


def _orbit_roots(rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Each point's least point in its orbit under the permutations
    ``rows``, found
    by walking each orbit once from its least point."""
    root = [-1] * len(rows[0])
    for s in range(len(root)):
        if root[s] < 0:
            root[s] = s
            stack = [s]
            while stack:
                x = stack.pop()
                for row in rows:
                    if root[row[x]] < 0:
                        root[row[x]] = s
                        stack.append(row[x])
    return tuple(root)


def _axis_numbers(
    model: PolyhedralModel,
    copies: tuple[tuple[str, int], ...],
    partner: dict[str, str],
    first: dict[tuple[str, str], int],
) -> tuple[tuple[int, ...], ...] | None:
    """The model's axes as slot numbers, each marker expanded to its copies.

    Along a circle through the poles the copies are met by increasing
    radial rank on the ray leaving pole 0 and by decreasing rank on the
    ray leaving pole 1.  A part-swapping circle avoids the poles, and the
    copies that the swap exchanges do not lie on it, so it holds the
    unswapped copy, if any; None if there are two or more.  Pole ``k`` is
    slot ``k`` and marker ``(cls, copy, i)`` is slot ``first[cls, copy] +
    i``."""
    ranked = [name for name, _ in sorted(copies, key=lambda it: it[1])]
    unswapped = [name for name in ranked if not _moves(partner, name)]
    out = []
    for axis in model.axes:
        if len(unswapped) > 1 and ("center", 0) not in axis.slots:
            return None
        names = unswapped  # until a pole is passed; pole 0 comes first
        numbers: list[int] = []
        for label in axis.slots:
            if label[0] == "center":
                numbers.append(label[1])
                names = ranked if label[1] == 0 else ranked[::-1]
            else:
                numbers.extend(first[label[0], name] + label[1] for name in names)
        out.append(tuple(numbers))
    return tuple(out)


class _Run(NamedTuple):
    """One block's vertices: ``count`` orbits (one for a core block), the
    first numbered ``first`` among its tag's orbits.  Label ``j`` lies in
    part ``p = parts[j]`` (0 for V, 1 for W), and label ``j`` of orbit
    ``first + o`` is vertex ``vertices[j] + o * widths[p]``, where
    ``widths`` counts an orbit's labels per part and ``starts`` holds the
    first vertex the run fills in each part.

    A :class:`PlacementTemplate` numbers each part from 0, and a run that
    ``grows`` holds ``count + m`` orbits in a placement with ``m``, whose
    numbering starts W at ``n``."""

    prefix: Point
    first: int
    count: int
    vertices: tuple[int, ...]
    parts: tuple[int, ...]
    widths: tuple[int, int]
    starts: tuple[int, int]
    grows: bool

    def label(self, o: int, j: int) -> Point:
        return self.prefix + ((self.first + o, j) if self.prefix[0] == "free" else (j,))


def _check_blocks(
    model: PolyhedralModel,
    copies: tuple[tuple[str, int], ...],
    blocks: tuple[tuple[Block, ...], ...],
) -> None:
    """Every check of a placement's blocks that does not read ``n``: the
    model is the shared one of its kind, the copy ranks are 1..k, each
    marker sits on a copy of the placement, each swap partner names its
    block back, and no pole or marker label is held twice (free orbits are
    numbered along their tag, so only a core label can repeat)."""
    # the slot tables know the model by its kind
    if model is not build_polyhedral_model(model.kind):
        raise ValueError(
            f"the model must be build_polyhedral_model({model.kind!r})"
        )
    ranks = [r for _, r in copies]
    if sorted(ranks) != list(range(1, len(ranks) + 1)):
        raise ValueError("copy ranks must be 1..k")
    names = {name for name, _ in copies}
    core = [b for group in blocks for b in group if not isinstance(b, FreeOrbitBlock)]
    markers = [b for b in core if isinstance(b, MarkerBlock)]
    held = {(b.marker_class, b.copy_name): b for b in markers}
    swaps = -1 in model.parities
    for b in markers:
        if b.copy_name not in names:
            raise ValueError(f"{b} sits on no copy of the placement")
        if b.swap_partner is None:
            continue
        if not swaps:
            raise ValueError(
                f"{b} names a swap partner, but no element of the "
                f"{model.kind} model swaps the parts"
            )
        partner = held.get((b.marker_class, b.swap_partner))
        if partner is None or partner.swap_partner != b.copy_name:
            raise ValueError(
                f"{b} names a swap partner that holds no "
                f"{b.marker_class} block naming {b.copy_name!r} back"
            )
    labels = [
        (b.marker_class, b.copy_name) if isinstance(b, MarkerBlock) else "center"
        for b in core
    ]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate point labels across the parts")


class PlacementTemplate:
    """What a placement's checks read of its blocks that depends on ``n``
    only through ``m``, the number of regular free orbits a recipe adds,
    and the record of what was checked on its core.  :func:`place` makes
    one per recipe, on its first placement, and the
    :class:`VertexAssignment` constructor one per placement, whose blocks
    give every count (``m`` = 0).  The blocks are checked when it is made
    (:func:`_check_blocks`); each placement checks its part sizes.

    * ``runs``: one :class:`_Run` per block, each part numbered from 0.  A
      recipe's free blocks grow by ``m`` and each is the last block of the
      parts it fills, so no other run moves with ``m``;
    * ``by_prefix``: the runs of each label prefix (a free tag may span
      blocks); ``by_part[p]``: the first vertices of the runs filling part
      ``p``, and those runs with the label of each rank, for the label rule;
    * ``sizes[p]`` and ``free_orbits``: each part's size and the number of
      free orbits, as ``(value at m = 0, growth per unit of m)``;
    * ``core_labels``: the pole and marker labels, in block order, and
      ``core_vertices``: each one's part and vertex in it;
      ``transversal_labels``: the labels the action is checked on (see
      :attr:`VertexAssignment.transversal`);
    * ``layout``, the key of the slot table; ``odd``: the indices of the
      part-swapping elements;
    * ``lines``: each block's summary line, a free block's without its
      count.

    A residue class's placements share one core of poles and marker blocks
    and differ only in ``m``.  No nontrivial element fixes a free point and
    no free point lies on an axis, so the core's checks are the same for
    every ``m``, ``m = 0`` included.  They are kept in two kinds:

    * the template's own facts, which read no recipe and no ``n``:
      :attr:`slot_table`, read from :func:`layout_slots`, which keeps it
      per layout, and :attr:`slot_axes` from it; and, each a cached
      property made on its first read, :attr:`transversal` with
      :attr:`core_faithful`, :attr:`fixed`, the fixer masks with the
      :class:`FixedTable`, and :attr:`slot_parts`.  A fact that raises
      keeps nothing, so every later read makes it again and fails again.
      A placement keeps no cache of its own and reads each of these here;
    * ``checks``, the record of what a recipe's placements share of their
      checks, made whole by ``hypotheses.check_recipe`` for the recipe it
      was checked against and read through :func:`kept_checks`.  A
      template gets one when a placement of it is first verified in full.
    """

    def __init__(
        self,
        model: PolyhedralModel,
        copies: tuple[tuple[str, int], ...],
        blocks: tuple[tuple[Block, ...], ...],
        recipe: Recipe | None = None,
    ):
        _check_blocks(model, copies, blocks)
        self.model, self.copies, self.blocks = model, copies, blocks
        self.recipe = recipe
        order = model.group.order
        runs: list[_Run] = []
        lines: list[str] = []
        core_labels: list[Point] = []
        core_vertices: list[tuple[int, int]] = []
        transversal: list[Point] = []
        by_prefix: dict[Point, list[_Run]] = {}
        start = (0, 0)  # the next vertex of V and of W
        orbits = {"V": 0, "W": 0, "split": 0}  # free orbits numbered so far
        for block in (b for group in blocks for b in group):
            first, count, free = 0, 1, isinstance(block, FreeOrbitBlock)
            if free:
                prefix = ("free", "VW" if block.part == "split" else block.part)
                first, count, size = orbits[block.part], block.count, order
                orbits[block.part] += count
                split = block.part == "split"
                lines.append("split between the parts" if split else f"-> {block.part}")
            elif isinstance(block, CenterPair):
                prefix, size = ("center",), 2
                lines.append(f"both poles -> {block.part}")
            else:
                prefix = (block.marker_class, block.copy_name)
                size = _marker_count(model, block.marker_class)
                line = (
                    f"{size} {block.marker_class} markers on copy "
                    f"'{block.copy_name}' -> {block.part}"
                )
                if block.swap_partner is not None:
                    line += f" (trades places with copy '{block.swap_partner}')"
                lines.append(line)
            if block.part == "split":  # even elements in V, odd ones in W
                parts = tuple(int(sign == -1) for sign in model.parities)
                end = list(start)
                vertices = []
                for p in parts:
                    vertices.append(end[p])
                    end[p] += 1
                widths = (end[0] - start[0], end[1] - start[1])
            else:
                p = "VW".index(block.part)
                parts = (p,) * size
                vertices = range(start[p], start[p] + size)
                widths = (size, 0) if p == 0 else (0, size)
            grows = free and recipe is not None
            run = _Run(
                prefix, first, count, tuple(vertices), parts, widths, start, grows
            )
            runs.append(run)
            start = (start[0] + count * widths[0], start[1] + count * widths[1])
            if prefix not in by_prefix:  # a core run, or a free tag's first
                head = prefix + (0,) if free else prefix
                labels = [head + (j,) for j in range(size)]
                transversal += labels  # each free tag's orbit 0 once
                if not free:
                    core_labels += labels
                    core_vertices += zip(parts, vertices)
            by_prefix.setdefault(prefix, []).append(run)
        growth = [0, 0]
        for run in runs:
            if growth[0] and run.widths[0] or growth[1] and run.widths[1]:
                raise AssertionError(
                    "a recipe's free block must end each part it fills"
                )
            if run.grows:
                growth = [growth[0] + run.widths[0], growth[1] + run.widths[1]]
        self.runs = tuple(runs)
        self.sizes = ((start[0], growth[0]), (start[1], growth[1]))
        free_runs = [run for run in runs if run.prefix[0] == "free"]
        self.free_orbits = (
            sum(run.count for run in free_runs),
            sum(run.grows for run in free_runs),
        )
        self.by_prefix = by_prefix
        self.by_part = []
        for p in (0, 1):
            filling = [run for run in runs if run.widths[p]]
            labels = [  # the label of each rank in part p: j itself unless split
                tuple(j for j, q in enumerate(run.parts) if q == p)
                if run.widths[p] < len(run.parts)
                else range(run.widths[p])
                for run in filling
            ]
            starts = [run.starts[p] for run in filling]
            self.by_part.append((starts, list(zip(filling, labels))))
        self.core_labels = tuple(core_labels)
        self.core_vertices = tuple(core_vertices)
        self.transversal_labels = tuple(transversal)
        swaps = frozenset(
            (b.copy_name, b.swap_partner)
            for group in blocks
            for b in group
            if isinstance(b, MarkerBlock) and b.swap_partner is not None
        )
        self.layout = (model.kind, copies, swaps)
        self.odd = tuple(a for a, sign in enumerate(model.parities) if sign == -1)
        self.lines = tuple(lines)

    @property
    def slot_table(self) -> SlotTable:
        """The :class:`SlotTable` of the template's layout: the one place a
        placement reads it, for the transversal, the fixed counts and the
        conditions.  :func:`layout_slots` keeps it, shared by every template
        with the layout."""
        return layout_slots(self.layout)

    def slot_images(self, e: Perm, points: tuple[Point, ...]) -> tuple[Point, ...]:
        """Images of several point labels under one element: the one rule
        for how an element moves a label, read by the transversal check, by
        the vertex maps and by the forced closure.  A pole or marker is read
        from the :attr:`slot_table`; free point ``("free", tag, k, j)`` goes
        to ``("free", tag, k, row_e[j])``, ``row_e`` the element's row of the
        product table."""
        group = self.model.group
        a = group.index(e)
        row = group.product_table[a]
        table = self.slot_table
        slots, number, image = table.slots, table.number, table.images[a]
        return tuple(
            [
                ("free", p[1], p[2], row[p[3]])
                if p[0] == "free"
                else slots[image[number[p]]]
                for p in points
            ]
        )

    @cached_property
    def transversal(self) -> GroupAction:
        """The action on the transversal (``transversal_labels``, see
        :attr:`VertexAssignment.transversal`), checked.

        Each generator's image list is read from :meth:`slot_images`, the
        one rule for how an element moves a label; a label sent to no label
        of the transversal raises ValueError naming both.  The
        :class:`GroupAction` constructor checks those lists and composes
        every other element's along the product table, checking the
        homomorphism law on every generator x element pair.  The kernel of
        the action is a normal subgroup, so the action (or its restriction
        to the core's labels, an invariant set) is faithful exactly when no
        nontrivial conjugacy class's least element acts as the identity.

        The free orbits are regular: no nontrivial element fixes a free
        point, since ``row_e[j] == j`` only for the identity.  This is the
        lemma that makes every later check independent of ``m``: fixed
        vertices, fixers, axis slots, arcs, conditions 1-5 and condition 4's
        interchangers all lie in the core.  It is asserted here on the least
        element of each nontrivial class; conjugators send free points to
        free points, so it then holds for every nontrivial element.
        """
        labels = self.transversal_labels
        group = self.model.group
        index = dict(zip(labels, range(len(labels))))
        images: dict[Perm, tuple[int, ...]] = {}
        for e in group.generators:
            moved = self.slot_images(e, labels)
            row = tuple(map(index.get, moved))
            if None in row:
                i = row.index(None)
                raise ValueError(
                    f"action leaves the point set: {e!r} sends "
                    f"{labels[i]!r} to {moved[i]!r}"
                )
            images[e] = row
        checked = GroupAction(group, list(labels), images)
        reps = [checked.images_of(cls[0]) for cls in group.conjugacy_classes()[1:]]
        if tuple(range(len(labels))) in reps:
            raise AssertionError("the action on the vertices is not faithful")
        free = [i for i, p in enumerate(labels) if p[0] == "free"]
        if any(any(map(eq, compose_images(rep, free), free)) for rep in reps):
            raise AssertionError("a nontrivial element fixes a free point")
        return checked

    @cached_property
    def core_faithful(self) -> bool:
        """Whether the core's labels alone act faithfully, which decides a
        placement without any free orbit (a free orbit acts faithfully)."""
        core = [i for i, p in enumerate(self.transversal_labels) if p[0] != "free"]
        checked, group = self.transversal, self.model.group
        return all(
            any(map(ne, compose_images(checked.images_of(cls[0]), core), core))
            for cls in group.conjugacy_classes()[1:]  # [0] is {identity}
        )

    @cached_property
    def fixed(self) -> FixedTable:
        """What each element fixes of the core, with the fixed vertices'
        masks, read once the action is checked.

        No nontrivial element fixes a free point, so an element's fixed
        vertices are the core labels whose slots it fixes, each in the same
        part and the same order for every placement of the core.  One pass
        over the core's slots reads their fixer masks from the layout's
        slot table, grouped by mask: each element's counts are then the sum
        over the masks holding its bit.  The masks follow the rule of the
        generators' images, which every element's images follow exactly
        when the table's ``broken`` is empty (condition 3 reports a table
        that does not).

        Every element's counts are read, so conjugates are checked to agree
        (a part-swapping conjugator moves a fixed set across the parts);
        classes sharing a label must agree too.  The core's orbits are the
        distinct slot orbits among its slots.
        """
        self.transversal  # the action is checked first
        table = self.slot_table
        model = self.model
        core_slots = [table.number[label] for label in self.core_labels]
        masks: tuple[dict[int, int], dict[int, int]] = ({}, {})
        held: dict[int, list[int]] = {}  # mask -> its holders in V and in W
        for s, (p, r) in zip(core_slots, self.core_vertices):
            mask = table.fixers[s]
            if mask:
                masks[p][r] = mask
                held.setdefault(mask, [0, 0])[p] += 1
        order = model.group.order
        in_v, in_w = [0] * order, [0] * order  # index 0, the identity, left empty
        for mask, (v, w) in held.items():
            while mask:
                a = (mask & -mask).bit_length()  # the lowest bit, a - 1, is element a
                in_v[a] += v
                in_w[a] += w
                mask &= mask - 1
        counts = tuple(zip(in_v, in_w))
        by_label: dict[str, tuple[int, int, tuple[int, int]]] = {}
        for label, rep_order, cls in _nontrivial_classes(model.kind):
            found_counts = {counts[a] for a in cls}
            if len(found_counts) != 1:
                raise AssertionError(f"conjugate elements disagree in {label}")
            computed = found_counts.pop()
            rep_order, size, first = by_label.get(label, (rep_order, 0, computed))
            if first != computed:
                raise AssertionError(f"classes labelled {label} disagree")
            by_label[label] = (rep_order, size + len(cls), computed)
        orbits = len({table.orbit[s] for s in core_slots})
        return FixedTable(counts, by_label, orbits, masks)

    @cached_property
    def slot_parts(self) -> list[str | None]:
        """The part, "V" or "W", of the vertex at each slot of the
        :attr:`slot_table`, None where no vertex sits: one gather over the
        core's slots."""
        number = self.slot_table.number
        parts: list[str | None] = [None] * len(number)
        for label, (p, _) in zip(self.core_labels, self.core_vertices):
            parts[number[label]] = "VW"[p]
        return parts

    @property
    def slot_axes(self) -> tuple[tuple[int, ...], ...]:
        """The model's axes as slot numbers of the :attr:`slot_table`, each
        marker expanded to its concentric copies (see
        :func:`_axis_numbers`); a layout whose part-swapping circle would
        cross two or more copies raises."""
        axes = self.slot_table.axes
        if axes is None:
            raise AssertionError("a swap-invariant circle admits at most one copy")
        return axes

    def check_sizes(self, n: int, m: int) -> None:
        """Check that the blocks with ``m`` more orbits each fill ``n``
        vertices of each part."""
        sizes = [size + m * growth for size, growth in self.sizes]
        if sizes != [n, n]:
            raise ValueError(
                f"blocks fill parts of sizes {sizes[0]}, {sizes[1]}; "
                f"expected {n} each"
            )

    def blocks_with(self, m: int) -> tuple[tuple[Block, ...], ...]:
        """The blocks with ``m`` more orbits in each free block."""
        if not m:
            return self.blocks
        return tuple(
            tuple(
                FreeOrbitBlock(b.count + m, b.part)
                if isinstance(b, FreeOrbitBlock)
                else b
                for b in group
            )
            for group in self.blocks
        )


@dataclass(frozen=True)
class VertexAssignment:
    """A block-structured placement of the vertices of ``K_{n,n}``.

    ``target_group`` is the symmetry group the placement is built to
    realize; the acting model may be larger (the order-24 skeleton and cube
    models also serve the order-12 target, which is cut down afterwards by
    re-embedding along an unfixed edge).  ``model`` must be the one
    :func:`~.polyhedra.build_polyhedral_model` builds for its kind, since
    the slot tables are shared by kind.

    The constructor checks the blocks and makes the placement's own
    :class:`PlacementTemplate`, so its core is checked in full;
    :func:`place` reads its recipe's template, whose blocks were checked
    once and whose core checks are kept for every ``n`` of the recipe.
    ``m`` is the number of orbits each free block holds beyond its count in
    the template: the ``m`` that fills ``n`` for a recipe, 0 for a
    placement the constructor builds.  Either way the part sizes are
    checked against ``n``.
    """

    n: int
    target_group: str
    case_name: str
    model: PolyhedralModel
    copies: tuple[tuple[str, int], ...]  # (copy name, radial rank), rank 1 inner
    blocks: tuple[tuple[Block, ...], ...] = field(repr=False)
    template: PlacementTemplate = field(init=False, repr=False, compare=False)
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        template = PlacementTemplate(self.model, self.copies, self.blocks)
        template.check_sizes(self.n, 0)
        self.__dict__.update(template=template, m=0)

    @classmethod
    def _of_template(
        cls, template: PlacementTemplate, n: int, group: str, case: str, m: int
    ) -> VertexAssignment:
        """The placement of ``template`` with ``m`` more orbits in each free
        block, its part sizes checked against ``n``."""
        template.check_sizes(n, m)
        a = object.__new__(cls)
        a.__dict__.update(
            n=n,
            target_group=group,
            case_name=case,
            model=template.model,
            copies=template.copies,
            blocks=template.blocks_with(m),
            template=template,
            m=m,
        )
        return a

    # ---------------------------------------------------------- point layout

    def vertex_of(self, point: Point) -> int | None:
        """The vertex at ``point``, or None if no vertex is there."""
        by_prefix = self.template.by_prefix
        if point[0] == "free":
            runs, k = by_prefix.get(point[:-2], ()), point[-2]
        else:
            runs, k = by_prefix.get(point[:-1], ()), 0
        j = point[-1]
        for run in runs:
            o = k - run.first
            if 0 <= o < run.count + self.m * run.grows and 0 <= j < len(run.vertices):
                p = run.parts[j]
                return run.vertices[j] + o * run.widths[p] + p * self.n
        return None

    def label_of(self, i: int) -> Point:
        """The label of vertex ``i``, from the last run of its part that
        starts at or before it."""
        n = self.n
        if not 0 <= i < 2 * n:
            raise IndexError(f"no vertex {i} in K_{{{n},{n}}}")
        p = int(i >= n)
        starts, runs = self.template.by_part[p]
        i -= p * n
        run, labels = runs[bisect_right(starts, i) - 1]
        o, rank = divmod(i - run.starts[p], run.widths[p])
        return run.label(o, labels[rank])

    # ----------------------------------------------------------- group action

    @property
    def _free_orbits(self) -> int:
        """The number of free orbits, of every part."""
        orbits, growth = self.template.free_orbits
        return orbits + self.m * growth

    @property
    def transversal(self) -> GroupAction:
        """The induced action on a transversal of the vertices, checked.

        The transversal is every core label (poles and markers) plus orbit
        0 of each free part of the blocks (V, W or the split orbits), in
        block order, whether or not that part holds an orbit at this
        ``n``.  Every free orbit is a translate of its part's orbit 0: ``e``
        sends ``("free", tag, k, j)`` to ``("free", tag, k, row_e[j])`` for
        every ``k``, so the action on all ``2n`` vertices is a permutation
        and a homomorphism once this one is, and it fixes a vertex exactly
        when this one fixes its twin in the transversal.  That action is the
        template's fact; only faithfulness is checked per placement, since
        a placement with a free orbit acts faithfully.
        """
        template = self.template
        checked = template.transversal
        if not (self._free_orbits or template.core_faithful):
            raise AssertionError("the action on the vertices is not faithful")
        return checked

    def induced_perm(self, e: Perm) -> Perm:
        """Permutation of the graph vertices 0..2n-1 induced by ``e``, read
        label by label from :meth:`PlacementTemplate.slot_images`.  The
        ``2n`` labels are set at their vertices from the template's runs, W
        shifted by ``n``, for this call only.  Once the transversal is checked it is a
        permutation by construction; the images are still checked in one
        linear pass, so a numbering fault raises ValueError naming two
        labels sent to one vertex instead of passing on a map that is no
        permutation."""
        self.transversal  # check the core first
        n, m = self.n, self.m
        labels: list[Point] = [()] * (2 * n)
        for run in self.template.runs:
            at = [v + p * n for v, p in zip(run.vertices, run.parts)]
            for o in range(run.count + m * run.grows):
                for j, p in enumerate(run.parts):
                    labels[at[j] + o * run.widths[p]] = run.label(o, j)
        images = tuple(map(self.vertex_of, self.template.slot_images(e, labels)))
        source: list[int | None] = [None] * len(images)
        for i, vertex in enumerate(images):
            if vertex is None:
                raise ValueError(f"{e!r} sends {labels[i]!r} to no vertex")
            if source[vertex] is not None:
                raise ValueError(
                    f"{e!r} sends {labels[source[vertex]]!r} and {labels[i]!r} "
                    f"to one vertex {vertex}"
                )
            source[vertex] = i
        return Perm._from_checked(images)

    def induced_aut(self, e: Perm) -> BipartiteAut:
        aut = validate_automorphism(self.induced_perm(e), self.n)
        expected = "preserves" if self.model.parity_of(e) == 1 else "swaps"
        if aut.part_behavior != expected:
            raise AssertionError(
                f"element of parity {self.model.parity_of(e)} induced an "
                f"automorphism that {aut.part_behavior} the parts"
            )
        return aut

    def fixed_counts(self, e: Perm) -> tuple[int, int]:
        """Number of fixed vertices of ``e`` in V and in W."""
        a = self.model.group.index(e)
        return self.template.fixed.counts[a] if a else (self.n, self.n)

    def fixer_mask(self, x: int) -> int:
        """The bitmask of the nontrivial elements fixing vertex ``x``, 0 if
        none does, read from the template's fixer masks
        (:attr:`FixedTable.masks`)."""
        p = int(x >= self.n)
        return self.template.fixed.masks[p].get(x - p * self.n, 0)

    @property
    def class_counts(self) -> dict[str, tuple[int, int, tuple[int, int]]]:
        """Per nontrivial class label: the element order, the number of
        elements and their fixed counts in V and W.  The core's table, shared
        by every placement of the core: read it, do not change it."""
        return self.template.fixed.class_counts


# --------------------------------------------------------------------------
# conjugacy-class descriptors and the fixed-count report


@cache
def _nontrivial_classes(kind: str) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """Each nontrivial conjugacy class of the model of ``kind``, in the order
    of their least elements: its label, its element order and its members'
    indices, ascending."""
    model = build_polyhedral_model(kind)
    group = model.group
    return tuple(
        (class_label(model, cls[0]), cls[0].order(), tuple(map(group.index, cls)))
        for cls in group.conjugacy_classes()[1:]  # [0] is {identity}
    )


def class_label(model: PolyhedralModel, rep: Perm) -> str:
    """Readable, model-stable name for the conjugacy class of ``rep``."""
    order = rep.order()
    if order == 1:
        return "identity"
    if model.parity_of(rep) == -1:
        return "cross-half-turn" if order == 2 else "cross-quarter-glide"
    if order != 2:
        return f"rotation-{order}"
    if model.kind == "cube":
        kinds = {label[0] for label in model.fixed_specials(rep)}
        return "face-half-turn" if "face" in kinds else "edge-half-turn"
    return "half-turn"


@dataclass(frozen=True)
class ClassFixedCounts:
    """Fixed-vertex counts of one conjugacy class, computed vs. stated."""

    label: str
    order: int
    size: int
    computed: tuple[int, int]
    stated: tuple[int, int]

    @property
    def matches(self) -> bool:
        return self.computed == self.stated


@dataclass(frozen=True)
class FixedCountReport:
    case_name: str
    rows: tuple[ClassFixedCounts, ...]

    @property
    def discrepancies(self) -> tuple[ClassFixedCounts, ...]:
        return tuple(row for row in self.rows if not row.matches)


def fixed_count_report(assignment: VertexAssignment) -> FixedCountReport:
    """Compare each class label's computed fixed-vertex counts with the
    stated table; disagreement with the stated value is reported, not
    raised.  A placement whose action is not faithful has no report.  The
    report is read from the check record kept for the placement's recipe
    (:func:`kept_checks`), else made from the placement."""
    recipe = recipe_of(assignment)
    assignment.transversal  # the per-placement faithfulness check
    kept = kept_checks(assignment)
    if kept is not None:
        return kept.report
    stated = recipe.stated
    computed = assignment.class_counts
    if set(computed) != set(stated):
        raise AssertionError("class labels do not match the stated table")
    rows = tuple(
        ClassFixedCounts(label, order, size, counts, stated[label])
        for label, (order, size, counts) in sorted(computed.items())
    )
    return FixedCountReport(assignment.case_name, rows)


# --------------------------------------------------------------------------
# matching a placement against the counting tables

#: Labels of the classes whose fixed counts the counting tables constrain:
#: the classes of the tetrahedral or icosahedral rotation subgroup.  The
#: cube's quarter-turns and edge half-turns, and the skeleton's
#: part-swapping classes, lie outside it.
COUNTING_LABELS = frozenset(
    {"half-turn", "face-half-turn", "rotation-3", "rotation-5"}
)


def _compatible(count: int, expected: FixedCount) -> bool:
    if expected.kind == "exact":
        return count == expected.value
    return count % expected.value == 0


def necessity_profile_of(
    assignment: VertexAssignment,
) -> tuple[FixedProfile, int]:
    """The unique counting-table row this placement instantiates.

    Raises if no row matches or the row's residue differs from ``n``'s.
    The row is matched against the class counts, which depend only on the
    core, so it is read from the check record kept for the placement's
    recipe (:func:`kept_checks`) when there is one; only the residue is
    compared with ``n`` per call.  Every group a recipe serves has one
    counting table, so the kept row holds for each.
    """
    table_group = counting_table(assignment.target_group)
    kept = kept_checks(assignment)
    if kept is not None:
        profile, residue = kept.row
    else:
        profile, residue = _matching_row(assignment.class_counts, table_group)
    modulus = TABLE_MODULUS[table_group]
    if residue != assignment.n % modulus:
        raise AssertionError(
            f"matched row has residue {residue}, but n = {assignment.n} "
            f"is {assignment.n % modulus} (mod {modulus})"
        )
    return profile, residue


def _matching_row(
    class_counts: dict[str, tuple[int, int, tuple[int, int]]], table_group: str
) -> tuple[FixedProfile, int]:
    """The one row of ``table_group``'s counting table whose fixed counts the
    counting classes of ``class_counts`` fit."""
    slots = PROFILE_SLOTS[table_group]
    observed = {
        str(order): counts
        for label, (order, _, counts) in class_counts.items()
        if label in COUNTING_LABELS
    }
    matches = [
        (profile, residue)
        for profile, residue in enumerate_profiles(table_group)
        if all(
            _compatible(observed[s][0], profile.v_count(s))
            and _compatible(observed[s][1], profile.w_count(s))
            for s in slots
        )
    ]
    if len(matches) != 1:
        raise AssertionError(
            f"placement matches {len(matches)} counting rows, expected 1"
        )
    return matches[0]


def summarize_blocks(assignment: VertexAssignment) -> tuple[str, ...]:
    """One human-readable line per block of the placement, a free block's
    only when it holds an orbit."""
    out = []
    template, m = assignment.template, assignment.m
    for line, run in zip(template.lines, template.runs):
        if run.prefix[0] != "free":
            out.append(line)
        elif count := run.count + m * run.grows:
            out.append(f"{count} free {'orbit' if count == 1 else 'orbits'} {line}")
    return tuple(out)


def verify_fixed_counts(assignment: VertexAssignment) -> FixedCountReport:
    """Tabulate fixed counts per class and confirm a counting row fits.

    The report compares the computed counts with the stated ones; any
    disagreement is surfaced in ``report.discrepancies`` rather than raised,
    because one stated entry is known not to satisfy the orbit-counting
    integrality constraint (see ``RECIPES["dodecahedron-12"]``).  The call
    fails if the numbering is faulty or the computed table does not
    instantiate exactly one counting row of the target's table.
    """

    check_numbering(assignment)
    report = fixed_count_report(assignment)
    necessity_profile_of(assignment)
    check_orbit_count(assignment)
    return report


def check_numbering(assignment: VertexAssignment) -> None:
    """Check that the label and vertex rules agree on the last vertex of
    each part, in the last orbit of its last run, where a run whose later
    orbits are misnumbered sends two labels to one vertex (named)."""
    for i in (assignment.n - 1, 2 * assignment.n - 1):
        label = assignment.label_of(i)
        j = assignment.vertex_of(label)
        if j is None:
            raise ValueError(f"the numbering sends {label!r} to no vertex")
        if j != i:
            other = assignment.label_of(j)
            raise ValueError(f"the numbering sends {other!r} and {label!r} to one vertex {j}")


def check_orbit_count(assignment: VertexAssignment) -> int:
    """The number of vertex orbits, counted two independent ways.

    Burnside's lemma averages the fixed counts over the group: the identity
    fixes all ``2n`` vertices and each class label contributes its size
    times its fixed count.  The direct count is the core's orbits under the
    generators' rows of the slot table (kept in the core's fixed table), and
    one more per free orbit.  The average must be an integer equal to
    the direct count; it is compared in integers.
    """
    fixed = sum(
        size * (v + w) for _, size, (v, w) in assignment.class_counts.values()
    )
    total, order = 2 * assignment.n + fixed, assignment.model.group.order
    direct = assignment.template.fixed.orbits + assignment._free_orbits
    if divmod(total, order) != (direct, 0):
        raise AssertionError(
            f"orbit count mismatch: direct {direct}, "
            f"Burnside {Fraction(total, order)}"
        )
    return direct


# --------------------------------------------------------------------------
# the per-residue recipes


@dataclass(frozen=True)
class Recipe:
    """One admissible residue class's placement: a fixed core of poles and
    marker blocks in each part plus ``m`` regular free orbits, where
    :func:`place` derives ``m`` from ``n``.

    ``extra`` is the number of free orbits V and W get beyond ``m``, or None
    for the skeleton recipes, whose ``m`` orbits are each split between the
    parts.  Block order sets the vertex numbering.  ``stated`` gives the
    fixed-vertex counts (in V, in W) per class label as the source
    construction states them: oracle values that ``fixed_count_report``
    compares with the recomputed ones.

    Edges are (V label, W label) pairs, e.g. ``(("free", "V", 0, 0),
    ("corner", "base", 0))``.  ``witness`` lists the exactness-witness edge:
    the first pair whose labels are both vertices; a second pair covers the
    smallest ``n``, which has no free point in V yet.  ``step_down``, on the
    order-24 records only, is the edge no nontrivial element fixes.
    """

    kind: str
    copies: tuple[tuple[str, int], ...]
    v_core: tuple[Block, ...]
    w_core: tuple[Block, ...]
    extra: tuple[int, int] | None
    stated: dict[str, tuple[int, int]]
    witness: tuple[tuple[Point, Point], ...]
    step_down: tuple[Point, Point] | None = None


_SINGLE = (("base", 1),)
_NESTED = (("inner", 1), ("base", 2), ("outer", 3))
_PAIR = (("base", 1), ("outer", 2))
_QUAD = tuple((f"shell{i}", i) for i in range(1, 5))

RECIPES: dict[str, Recipe] = {
    "skeleton-0": Recipe(
        "tetrahedron-skeleton", _SINGLE, extra=None,
        v_core=(),
        w_core=(),
        stated={
            "rotation-3": (0, 0),
            "half-turn": (0, 0),
            "cross-half-turn": (0, 0),
            "cross-quarter-glide": (0, 0),
        },
        witness=((("free", "VW", 0, 0), ("free", "VW", 0, 1)),),
        step_down=(("free", "VW", 0, 0), ("free", "VW", 0, 1)),
    ),
    "skeleton-4": Recipe(
        "tetrahedron-skeleton", _NESTED, extra=None,
        v_core=(MarkerBlock("corner", "inner", "V", swap_partner="outer"),),
        w_core=(MarkerBlock("corner", "outer", "W", swap_partner="inner"),),
        stated={
            "rotation-3": (1, 1),
            "half-turn": (0, 0),
            "cross-half-turn": (0, 0),
            "cross-quarter-glide": (0, 0),
        },
        witness=((("free", "VW", 0, 0), ("corner", "outer", 0)),
                 (("corner", "inner", 0), ("corner", "outer", 1))),
        step_down=(("corner", "inner", 0), ("corner", "outer", 1)),
    ),
    "cube-2": Recipe(
        "cube", _SINGLE, extra=(1, 0),
        v_core=(CenterPair("V"),),
        w_core=(
            MarkerBlock("corner", "base", "W"),
            MarkerBlock("edge", "base", "W"),
            MarkerBlock("face", "base", "W"),
        ),
        stated={
            "rotation-3": (2, 2),
            "rotation-4": (2, 2),
            "face-half-turn": (2, 2),
            "edge-half-turn": (2, 2),
        },
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),),
        step_down=(("free", "V", 0, 0), ("corner", "base", 0)),
    ),
    "cube-6": Recipe(
        "cube", _NESTED, extra=(0, 1),
        v_core=(
            CenterPair("V"),
            MarkerBlock("edge", "base", "V"),
            MarkerBlock("corner", "inner", "V"),
            MarkerBlock("corner", "outer", "V"),
        ),
        w_core=(MarkerBlock("face", "base", "W"),),
        stated={
            "rotation-3": (6, 0),
            "rotation-4": (2, 2),
            "face-half-turn": (2, 2),
            "edge-half-turn": (4, 0),
        },
        witness=((("free", "V", 0, 0), ("face", "base", 0)),
                 (("center", 0), ("free", "W", 0, 0))),
        step_down=(("center", 0), ("free", "W", 0, 0)),
    ),
    "cube-8": Recipe(
        "cube", _SINGLE, extra=(0, 0),
        v_core=(CenterPair("V"), MarkerBlock("face", "base", "V")),
        w_core=(MarkerBlock("corner", "base", "W"),),
        stated={
            "rotation-3": (2, 2),
            "rotation-4": (4, 0),
            "face-half-turn": (4, 0),
            "edge-half-turn": (2, 0),
        },
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),
                 (("face", "base", 0), ("corner", "base", 0))),
        step_down=(("face", "base", 0), ("corner", "base", 0)),
    ),
    "cube-14": Recipe(
        "cube", _SINGLE, extra=(0, 0),
        v_core=(CenterPair("V"), MarkerBlock("edge", "base", "V")),
        w_core=(
            MarkerBlock("corner", "base", "W"),
            MarkerBlock("face", "base", "W"),
        ),
        stated={
            "rotation-3": (2, 2),
            "rotation-4": (2, 2),
            "face-half-turn": (2, 2),
            "edge-half-turn": (4, 0),
        },
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),
                 (("edge", "base", 0), ("corner", "base", 0))),
        step_down=(("edge", "base", 0), ("corner", "base", 0)),
    ),
    "cube-18": Recipe(
        "cube", _NESTED, extra=(0, 0),
        v_core=(
            CenterPair("V"),
            MarkerBlock("corner", "inner", "V"),
            MarkerBlock("corner", "outer", "V"),
        ),
        w_core=(
            MarkerBlock("edge", "base", "W"),
            MarkerBlock("face", "base", "W"),
        ),
        stated={
            "rotation-3": (6, 0),
            "rotation-4": (2, 2),
            "face-half-turn": (2, 2),
            "edge-half-turn": (2, 2),
        },
        witness=((("free", "V", 0, 0), ("edge", "base", 0)),
                 (("corner", "inner", 0), ("edge", "base", 0))),
        step_down=(("corner", "outer", 0), ("edge", "base", 0)),
    ),
    "cube-20": Recipe(
        "cube", _NESTED, extra=(0, 0),
        v_core=(
            CenterPair("V"),
            MarkerBlock("face", "inner", "V"),
            MarkerBlock("face", "base", "V"),
            MarkerBlock("face", "outer", "V"),
        ),
        w_core=(
            MarkerBlock("corner", "base", "W"),
            MarkerBlock("edge", "base", "W"),
        ),
        stated={
            "rotation-3": (2, 2),
            "rotation-4": (8, 0),
            "face-half-turn": (8, 0),
            "edge-half-turn": (2, 2),
        },
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),
                 (("face", "inner", 0), ("corner", "base", 0))),
        step_down=(("face", "base", 0), ("corner", "base", 0)),
    ),
    "tetrahedron-6": Recipe(
        "tetrahedron", _SINGLE, extra=(0, 0),
        v_core=(CenterPair("V"), MarkerBlock("corner", "base", "V")),
        w_core=(MarkerBlock("edge", "base", "W"),),
        stated={"rotation-3": (3, 0), "half-turn": (2, 2)},
        witness=((("corner", "base", 0), ("edge", "base", 0)),),
    ),
    "dodecahedron-0": Recipe(
        "dodecahedron", _SINGLE, extra=(0, 0),
        v_core=(),
        w_core=(),
        stated={"rotation-5": (0, 0), "rotation-3": (0, 0), "half-turn": (0, 0)},
        witness=((("free", "V", 0, 0), ("free", "W", 0, 0)),),
    ),
    "dodecahedron-2": Recipe(
        "dodecahedron", _SINGLE, extra=(1, 0),
        v_core=(CenterPair("V"),),
        w_core=(
            MarkerBlock("corner", "base", "W"),
            MarkerBlock("edge", "base", "W"),
            MarkerBlock("face", "base", "W"),
        ),
        stated={"rotation-5": (2, 2), "rotation-3": (2, 2), "half-turn": (2, 2)},
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),),
    ),
    "dodecahedron-12": Recipe(
        "dodecahedron", _PAIR, extra=(0, 1),
        v_core=(
            CenterPair("V"),
            MarkerBlock("corner", "base", "V"),
            MarkerBlock("edge", "base", "V"),
            MarkerBlock("corner", "outer", "V"),
        ),
        w_core=(MarkerBlock("face", "base", "W"),),
        # The order-3 entry below reproduces the count stated by the source
        # construction.  Recomputing from the placement gives (6, 0) -- the
        # two poles plus one corner of each of the two concentric copies on
        # every third-turn axis -- and only the recomputed value makes the
        # orbit count an integer.  ``fixed_count_report`` flags the
        # disagreement rather than hiding it.
        stated={"rotation-5": (2, 2), "rotation-3": (4, 0), "half-turn": (4, 0)},
        witness=((("free", "V", 0, 0), ("face", "base", 0)),
                 (("center", 0), ("free", "W", 0, 0))),
    ),
    "dodecahedron-20": Recipe(
        "dodecahedron", _QUAD, extra=(0, 1),
        v_core=(
            CenterPair("V"),
            MarkerBlock("face", "shell1", "V"),
            MarkerBlock("face", "shell2", "V"),
            MarkerBlock("face", "shell3", "V"),
            MarkerBlock("face", "shell4", "V"),
            MarkerBlock("edge", "shell1", "V"),
        ),
        w_core=(MarkerBlock("corner", "shell1", "W"),),
        stated={"rotation-5": (10, 0), "rotation-3": (2, 2), "half-turn": (4, 0)},
        witness=((("free", "V", 0, 0), ("corner", "shell1", 0)),
                 (("center", 0), ("free", "W", 0, 0))),
    ),
    "dodecahedron-30": Recipe(
        "dodecahedron", _QUAD, extra=(0, 1),
        v_core=(
            CenterPair("V"),
            MarkerBlock("face", "shell1", "V"),
            MarkerBlock("face", "shell2", "V"),
            MarkerBlock("face", "shell3", "V"),
            MarkerBlock("face", "shell4", "V"),
            MarkerBlock("corner", "shell1", "V"),
            MarkerBlock("corner", "shell2", "V"),
        ),
        w_core=(MarkerBlock("edge", "shell1", "W"),),
        stated={"rotation-5": (10, 0), "rotation-3": (6, 0), "half-turn": (2, 2)},
        witness=((("free", "V", 0, 0), ("edge", "shell1", 0)),
                 (("center", 0), ("free", "W", 0, 0))),
    ),
    "dodecahedron-32": Recipe(
        "dodecahedron", _SINGLE, extra=(0, 0),
        v_core=(CenterPair("V"), MarkerBlock("edge", "base", "V")),
        w_core=(
            MarkerBlock("corner", "base", "W"),
            MarkerBlock("face", "base", "W"),
        ),
        stated={"rotation-5": (2, 2), "rotation-3": (2, 2), "half-turn": (4, 0)},
        witness=((("free", "V", 0, 0), ("corner", "base", 0)),
                 (("edge", "base", 0), ("corner", "base", 0))),
    ),
    "dodecahedron-42": Recipe(
        "dodecahedron", _PAIR, extra=(0, 0),
        v_core=(
            CenterPair("V"),
            MarkerBlock("corner", "base", "V"),
            MarkerBlock("corner", "outer", "V"),
        ),
        w_core=(
            MarkerBlock("face", "base", "W"),
            MarkerBlock("edge", "base", "W"),
        ),
        stated={"rotation-5": (2, 2), "rotation-3": (6, 0), "half-turn": (2, 2)},
        witness=((("free", "V", 0, 0), ("face", "base", 0)),
                 (("corner", "base", 0), ("face", "base", 0))),
    ),
    "dodecahedron-50": Recipe(
        "dodecahedron", _QUAD, extra=(0, 0),
        v_core=(
            CenterPair("V"),
            MarkerBlock("face", "shell1", "V"),
            MarkerBlock("face", "shell2", "V"),
            MarkerBlock("face", "shell3", "V"),
            MarkerBlock("face", "shell4", "V"),
        ),
        w_core=(
            MarkerBlock("corner", "shell1", "W"),
            MarkerBlock("edge", "shell1", "W"),
        ),
        stated={"rotation-5": (10, 0), "rotation-3": (2, 2), "half-turn": (2, 2)},
        witness=((("free", "V", 0, 0), ("corner", "shell1", 0)),
                 (("face", "shell1", 0), ("corner", "shell1", 0))),
    ),
}


def recipe_case(group: str, n: int) -> str:
    """Name of the recipe for an admitted ``(n, group)``: A5 by ``n mod 60``,
    A4/S4 by ``n mod 12`` for the skeleton and ``n mod 24`` for the cube,
    and the tetrahedron for A4 at ``n = 6``.  ``group`` and ``n`` are
    validated as :func:`~.decision.decide` validates them."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    require_count(n, "part size")
    if group == "A5":
        return f"dodecahedron-{n % 60}"
    if group == "A4" and n == 6:
        return "tetrahedron-6"
    if n % 12 in (0, 4):
        return f"skeleton-{n % 12}"
    return f"cube-{n % 24}"


def recipe_of(assignment: VertexAssignment) -> Recipe:
    """The recipe a placement follows: its stated fixed counts and its
    recorded witness and step-down edges.  Raises ValueError naming the
    case of a placement that follows none."""
    recipe = RECIPES.get(assignment.case_name)
    if recipe is None:
        raise ValueError(
            f"placement case {assignment.case_name!r} follows no recipe, "
            f"so it has no stated fixed counts and no recorded edges"
        )
    return recipe


def kept_checks(assignment: VertexAssignment):
    """The check record (``hypotheses.RecipeChecks``) kept in the
    placement's template, if it was made for the recipe ``RECIPES`` now
    holds under the placement's case; None otherwise, when every check is
    made from the placement and nothing is kept."""
    checks = getattr(assignment.template, "checks", None)
    if checks is not None and checks.recipe is RECIPES.get(assignment.case_name):
        return checks
    return None


#: Each recipe's :class:`PlacementTemplate`, by case name, made on the
#: recipe's first placement and made again when ``RECIPES`` holds another
#: recipe under that name.
_TEMPLATES: dict[str, PlacementTemplate] = {}


def place(group: str, n: int) -> VertexAssignment:
    """The placement that the recipe of :func:`recipe_case` gives for ``n``
    and the target ``group``, its action not yet built.  ``m`` is the
    number of whole orbits that fill V after the core and the extra orbits;
    an ``n`` that leaves a remainder is rejected, and so is one whose case
    has no recipe.

    The recipe's blocks are checked once, when its template is made: a
    recipe's free blocks are ``m`` plus its extra orbits.  Every group a
    case serves has one counting table (A4 for the cube and skeleton
    recipes), so the template's kept checks hold for each."""
    case = recipe_case(group, n)
    recipe = RECIPES.get(case)
    if recipe is None:
        raise ValueError(f"case {case!r} of n = {n} has no recipe")
    template = _TEMPLATES.get(case)
    if template is None or template.recipe is not recipe:
        if recipe.extra is None:
            blocks = (recipe.v_core, recipe.w_core, (FreeOrbitBlock(0, "split"),))
        else:
            extra_v, extra_w = recipe.extra
            blocks = (
                recipe.v_core + (FreeOrbitBlock(extra_v, "V"),),
                recipe.w_core + (FreeOrbitBlock(extra_w, "W"),),
            )
        model = build_polyhedral_model(recipe.kind)
        template = PlacementTemplate(model, recipe.copies, blocks, recipe)
        _TEMPLATES[case] = template
    size, orbit = template.sizes[0]
    m, rest = divmod(n - size, orbit)
    if rest or m < 0:
        raise AssertionError(f"recipe {case} cannot fill n = {n} with whole orbits")
    return VertexAssignment._of_template(template, n, group, case, m)


def build_assignment(group: str, n: int) -> VertexAssignment:
    """Vertex placement realizing ``group`` symmetry on ``K_{n,n}``.

    Raises :class:`NotRealizable` (citing the counting rules that fail)
    when no placement exists.
    """
    verdict = necessity_verdict(n, group)
    if not verdict.allowed:
        raise NotRealizable(verdict)
    assignment = place(group, n)
    assignment.transversal  # force the faithfulness check
    return assignment
