"""Combinatorial checks behind equivariant edge routing.

Placing the vertices of ``K_{n,n}`` symmetrically is only half of a
construction; the edges must also be drawn so that the acting group permutes
them.  Two kinds of checks certify that this can be done and that the
resulting symmetry is exact:

* **Edge-routing conditions.**  Five combinatorial conditions on how the
  placed vertices sit on the rotation-axis circles.  When they hold, each
  adjacent pair that lies on a common fixed circle can be joined by an arc of
  that circle, the arcs can be chosen disjoint and equivariant, and the
  remaining edges can be routed freely; the group then acts on the whole
  embedded graph, not just its vertices.

* **Exactness witnesses.**  If a placement realized *more* symmetry than the
  acting group, some homeomorphism outside the group would pointwise fix a
  forced subgraph.  ``forced_fix_closure`` computes what an edge forces, and
  ``check_subgroup_theorem`` checks that an edge's forced subgraph either
  does not fit in a circle or meets a second element's fixed circle
  incompatibly.  Either way, no strictly larger group can act, so the
  realized group is exactly the target.

* **Step-down edge.**  The order-24 placements also serve the order-12
  rotation target: re-embedding along an edge that no nontrivial element
  fixes pointwise breaks the part-swapping symmetries while keeping the
  rotations.  ``subgroup_corollary_witness`` checks such an edge.

Both edges are the certificate the placement's recipe records as vertex
labels (``assignments.recipe_of``): each check resolves the recorded edge
and checks that edge alone, and an edge that fails is a failed check, never
replaced by another.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

from .assignments import (
    FixedCountReport,
    Point,
    Recipe,
    VertexAssignment,
    check_numbering,
    check_orbit_count,
    fixed_count_report,
    kept_checks,
    necessity_profile_of,
    recipe_of,
    summarize_blocks,
    verify_fixed_counts,
)
from .bipartite import (
    FixedSubgraphShape,
    embeds_in_circle,
    embeds_in_proper_subset_of_circle,
)
from .necessity import FixedProfile
from .perms import Perm
from .polyhedra import Axis, axis_index

__all__ = [
    "Arc",
    "ConditionResult",
    "ForcedFix",
    "HypothesisReport",
    "HypothesisViolation",
    "NoSuchEdge",
    "NoWitnessFound",
    "PartSubset",
    "RecipeChecks",
    "SubgroupWitness",
    "check_edge_embedding_hypotheses",
    "check_recipe",
    "check_subgroup_theorem",
    "forced_fix_closure",
    "subgroup_corollary_witness",
    "verify_construction",
]


def point_str(point: Point) -> str:
    """Compact human-readable form of a point label."""
    return ":".join(str(x) for x in point)


class HypothesisViolation(ValueError):
    """One of the edge-routing conditions fails for a placement.

    ``condition`` is the condition number (1-5); ``witness`` is a
    JSON-friendly description of the offending configuration.
    """

    def __init__(self, condition: int, witness: object, message: str):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition ({condition}): {message}")


class NoWitnessFound(LookupError):
    """The recorded witness edge does not certify that the realized group is
    exactly the target."""


class NoSuchEdge(LookupError):
    """The recorded step-down edge is pointwise fixed by a nontrivial
    element."""


class Arc(NamedTuple):
    """A chosen arc of one axis circle joining an adjacent placed pair.

    ``endpoints`` are the two vertex points (one per part) and ``interior``
    lists the unoccupied slots strictly inside the chosen gap, so two arcs
    intersect geometrically only if they share a slot label or an endpoint.
    A named tuple: a placement's first check makes one per arc.
    """

    axis_index: int
    endpoints: tuple[Point, Point]
    interior: tuple[Point, ...]

    def as_dict(self) -> dict:
        return {
            "axis": self.axis_index,
            "endpoints": [point_str(p) for p in self.endpoints],
            "interior": [point_str(p) for p in self.interior],
        }


@dataclass(frozen=True)
class ConditionResult:
    """A condition that held; a failing one raises :class:`HypothesisViolation`."""

    condition: int
    summary: str

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            # Always true: kept so the public report format stays unchanged.
            "passed": True,
            "summary": self.summary,
        }


@dataclass(frozen=True)
class PartSubset:
    """A set of vertices of one part, ``range(start, stop)``: ``members``
    when not ``whole``, else every vertex of the part except ``members``.
    ``size`` counts it as a plain ``int``: ``len()`` must fit an index-sized
    integer, and a part of ``K_{n,n}`` need not."""

    start: int
    stop: int
    whole: bool
    members: frozenset[int]

    @property
    def size(self) -> int:
        if self.whole:
            return self.stop - self.start - len(self.members)
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        """The vertices in ascending order."""
        if self.whole:
            return (y for y in range(self.start, self.stop) if y not in self.members)
        return iter(sorted(self.members))

    def as_dict(self) -> dict:
        """``{"only": members}`` or ``{"all_except": members}``, ascending."""
        return {"all_except" if self.whole else "only": sorted(self.members)}


@dataclass(frozen=True)
class ForcedFix:
    """Vertices that a symmetry fixing one edge must fix.

    Start from the endpoints of ``edge``; whenever an orbit of edges contains
    exactly one edge incident to an already-forced vertex, the other endpoint
    of that edge is forced as well, until the forced set no longer embeds in
    a circle (see :func:`forced_fix_closure`).  ``shape`` records the complete bipartite
    shape of the forced set, and ``parts`` the set itself, in V and in W.
    ``vertices`` lists it as one set, built only when it is read; the report
    writes ``parts`` as they are, so its size does not grow with ``n``.
    """

    edge: tuple[int, int]
    parts: tuple[PartSubset, PartSubset]
    shape: FixedSubgraphShape

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(chain(*self.parts))

    def as_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "V": self.parts[0].as_dict(),
            "W": self.parts[1].as_dict(),
            "shape": [self.shape.a, self.shape.b],
        }


@dataclass(frozen=True)
class SubgroupWitness:
    """Certificate that no group strictly larger than the target acts.

    ``condition`` tells which exactness criterion the witness discharges:

    * 1 - the forced subgraph of ``edge`` does not embed in a circle, so no
      extra homeomorphism can fix the edge pointwise;
    * 2 - the forced subgraph fits in a circle, but it meets the fixed circle
      of ``psi`` in an adjacent pair without being contained in it, which is
      incompatible with an extra element commuting into the group.
    """

    edge: tuple[int, int]
    forced: ForcedFix
    condition: int
    psi: Perm | None = None

    def as_dict(self) -> dict:
        out = {
            "edge": list(self.edge),
            "forced": self.forced.as_dict(),
            "condition": self.condition,
        }
        if self.psi is not None:
            out["psi"] = repr(self.psi)
        return out


@dataclass(frozen=True)
class HypothesisReport:
    """Everything checked about one placement.

    ``check_edge_embedding_hypotheses`` fills the five routing conditions and
    the chosen arcs; ``verify_construction`` additionally fills the
    fixed-count table, the exactness witness, and (for order-24 placements
    serving the order-12 target) the step-down edge.
    """

    case_name: str
    conditions: tuple[ConditionResult, ...]
    arcs: tuple[Arc, ...]
    blocks: tuple[str, ...] = ()
    fixed_counts: FixedCountReport | None = None
    subgroup_witness: SubgroupWitness | None = None
    corollary_edge: tuple[int, int] | None = None

    def as_dict(self) -> dict:
        """The ``construction`` object of a verdict's JSON report: the arcs
        are counted, not listed; a stage not run reads None, and the
        step-down edge appears only when one was checked."""
        out = {
            "case": self.case_name,
            "blocks": list(self.blocks),
            "fixed_counts": None
            if self.fixed_counts is None
            else [
                {
                    "class": row.label,
                    "order": row.order,
                    "size": row.size,
                    "fixed": list(row.computed),
                }
                for row in self.fixed_counts.rows
            ],
            "hypotheses": {
                "conditions": [c.as_dict() for c in self.conditions],
                "arcs": len(self.arcs),
            },
            "witness": None
            if self.subgroup_witness is None
            else self.subgroup_witness.as_dict(),
        }
        if self.corollary_edge is not None:
            out["step_down_edge"] = list(self.corollary_edge)
        return out


# --------------------------------------------------------------------------
# the five edge-routing conditions


def _check_common_fixed_circles(
    assignment: VertexAssignment, axes: tuple[Axis, ...]
) -> ConditionResult:
    """Condition (1): if two nontrivial elements both fix an adjacent pair
    pointwise, they fix the same circle.  The common fixers of a pair are the
    AND of the two vertices' fixer bitmasks, so the vertices of each part
    are grouped by mask, and each pair of a V mask and a W mask is judged
    once, by the circles of its bits, and counts for every pair of vertices
    holding them.  Groups are met in the order of their first vertices, so
    a failure names the first failing pair of an ordered V x W scan: an
    earlier vertex with either mask would have failed first."""
    n = assignment.n
    nontrivial = assignment.model.nontrivial
    # per element index, the position in axes of its circle; bit k is index k + 1
    circle_of = axis_index(assignment.model.group, axes)
    # holders[part][mask]: the vertices of that part with that fixer mask
    holders: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})
    for vertex, mask in assignment.fixers.items():
        holders[vertex >= n].setdefault(mask, []).append(vertex)
    on_one_circle: dict[int, bool] = {}
    pairs_checked = 0
    for v_mask, vs in holders[0].items():
        for w_mask, ws in holders[1].items():
            common = v_mask & w_mask
            if not common:
                continue
            ok = on_one_circle.get(common)
            if ok is None:
                circles = set()
                bits = common
                while bits:
                    low = bits & -bits
                    circles.add(circle_of[low.bit_length()])
                    bits ^= low
                ok = on_one_circle[common] = len(circles) == 1 and None not in circles
            if not ok:
                # ``nontrivial`` is in group order, so these come out sorted
                elements = [e for k, e in enumerate(nontrivial) if common >> k & 1]
                witness = {
                    "pair": [
                        point_str(assignment.label_of(vs[0])),
                        point_str(assignment.label_of(ws[0])),
                    ],
                    "elements": [repr(e) for e in elements],
                }
                raise HypothesisViolation(
                    1,
                    witness,
                    "an adjacent pair is pointwise fixed by elements with "
                    "different fixed circles",
                )
            pairs_checked += len(vs) * len(ws)
    return ConditionResult(
        1,
        f"{pairs_checked} co-fixed adjacent pairs, each on a single circle",
    )


def _axis_gaps(
    circle: tuple[int, ...], occupied: list[int], part: list[str | None]
) -> dict[tuple[int, int], tuple[tuple[bool, int, int], tuple[int, ...]]]:
    """The preferred gap between consecutive occupied slots of a circle
    that joins a V vertex and a W vertex, by that (V, W) pair of slots.

    ``circle`` lists slot numbers in circular order, ``occupied`` the
    positions in it of the slots holding a vertex and ``part`` each slot's
    part.  Each gap is walked from one occupied slot to the next and kept
    as its preference and its interior, the (unoccupied) slots strictly
    inside.  The preference is a deterministic choice order: avoid the
    poles (slots 0 and 1), then prefer short gaps, then the first.  Every
    part-preserving axis circle passes through both poles, so two arcs
    through the same pole on different circles would intersect.
    """
    gaps: dict[tuple[int, int], tuple[tuple[bool, int, int], tuple[int, ...]]] = {}
    for t, i0 in enumerate(occupied):
        i1 = occupied[t + 1 - len(occupied)]  # the next, circularly
        a, b = circle[i0], circle[i1]
        if part[a] == part[b]:
            continue
        interior = circle[i0 + 1 : i1] if i0 < i1 else circle[i0 + 1 :] + circle[:i1]
        preference = (0 in interior or 1 in interior, len(interior), t)
        ends = (a, b) if part[a] == "V" else (b, a)
        if ends not in gaps or preference < gaps[ends][0]:
            gaps[ends] = preference, interior
    return gaps


def _choose_arcs(
    assignment: VertexAssignment, circles: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Arc, ...], ConditionResult]:
    """Condition (2): on each circle, every adjacent placed pair gets an arc
    bounded by the pair, with interiors avoiding all vertices and pairwise
    disjoint across the whole family.

    The ``circles`` are walked in slot numbers
    (:attr:`~.assignments.VertexAssignment.slot_axes`), with each slot's
    part gathered once per core
    (:attr:`~.assignments.VertexAssignment.slot_parts`); the arcs are
    given in labels.  A V vertex and a W vertex of a circle are joined only
    along the gaps between them, so each pair takes its preferred such gap,
    V vertices in circle order, each with the W vertices in circle order."""
    slots = assignment.slot_table.slots
    part = assignment.slot_parts
    chosen: list[tuple[int, int, int, tuple[int, ...]]] = []
    for axis_i, circle in enumerate(circles):
        occupied = [i for i, s in enumerate(circle) if part[s]]
        vs = [circle[i] for i in occupied if part[circle[i]] == "V"]
        ws = [circle[i] for i in occupied if part[circle[i]] == "W"]
        if not vs or not ws:
            continue
        gaps = _axis_gaps(circle, occupied, part)
        for v in vs:
            for w in ws:
                gap = gaps.get((v, w))
                if gap is None:
                    pattern = [part[circle[i]] for i in occupied]
                    raise HypothesisViolation(
                        2,
                        {"axis": axis_i, "occupied": pattern},
                        "the placed vertices on a circle admit no family of "
                        "disjoint arcs, one per adjacent pair",
                    )
                chosen.append((axis_i, v, w, gap[1]))
    arcs = [
        Arc(axis_i, (slots[v], slots[w]), tuple(map(slots.__getitem__, interior)))
        for axis_i, v, w, interior in chosen
    ]
    # An interior lies strictly between consecutive occupied positions of
    # its circle, so it holds no vertex.  Interiors must also be pairwise
    # disjoint, across different circles too (two circles meet only in
    # shared slots, e.g. the poles).
    seen: dict[int, int] = {}
    for k, (*_, interior) in enumerate(chosen):
        for s in interior:
            other = seen.setdefault(s, k)
            if other != k:
                raise HypothesisViolation(
                    2,
                    {
                        "arcs": [arcs[k].as_dict(), arcs[other].as_dict()],
                        "slot": point_str(slots[s]),
                    },
                    "two arcs share an interior point",
                )
    return tuple(arcs), ConditionResult(
        2, f"{len(arcs)} disjoint arcs chosen across the axis circles"
    )


def _check_arc_equivariance(
    assignment: VertexAssignment, arcs: tuple[Arc, ...]
) -> ConditionResult:
    """Condition (3): the group permutes the chosen arc family, and any
    element that setwise fixes an arc's endpoint pair or fixes one of its
    interior points maps that arc to itself.

    Arcs are compared as the sets of their endpoints and of their interior
    slots, each set a bitmask over the slots of the placement's
    :attr:`~.assignments.VertexAssignment.slot_table` (slot ``s`` is bit
    ``s``), and an element's map is its row of that table.  A slot no arc
    uses is a bit no arc of the family holds.

    The table's maps are checked to compose along the product table on
    every generator x element pair (its ``broken`` pairs), so they form an
    action of the group.  Then a family the generators map into itself is
    mapped into itself by every element, and an element stabilizes an arc
    and moves it exactly when its conjugate does so to the conjugate arc.
    So both halves are checked on the generators and on one element per
    conjugacy class, arc by arc.  If some pair does not compose, both of
    its elements are checked too, and if no arc check fails the broken
    composition is itself reported.
    """
    model = assignment.model
    group = model.group
    table = assignment.slot_table
    number = table.number.__getitem__
    bit = [1 << s for s in range(len(table.slots))]
    spans = []  # each arc's endpoint slots, interior slots and bitmasks
    for arc in arcs:
        v, w = map(number, arc.endpoints)
        interior = tuple(map(number, arc.interior))
        inside = 0
        for s in interior:
            inside |= bit[s]
        spans.append((v, w, interior, (bit[v] | bit[w], inside)))
    family = {key for *_, key in spans}
    checked = set(map(group.index, group.generators))
    checked.update(r for _, r in group.conjugators)
    checked.update(x for g, a in table.broken for x in (a, group.product_table[g][a]))
    for a, e in enumerate(model.nontrivial, start=1):
        if a not in checked:
            continue
        image = table.images[a]
        for arc, (v, w, interior, key) in zip(arcs, spans):
            image_end = bit[image[v]] | bit[image[w]]
            image_int = 0
            for s in interior:
                image_int |= bit[image[s]]
            moved = image_end, image_int
            if moved not in family:
                raise HypothesisViolation(
                    3,
                    {"element": repr(e), "arc": arc.as_dict()},
                    "an element maps a chosen arc outside the family",
                )
            if moved != key and (
                image_end == key[0] or any(image[s] == s for s in interior)
            ):
                raise HypothesisViolation(
                    3,
                    {"element": repr(e), "arc": arc.as_dict()},
                    "an element stabilizing an arc's boundary or an interior "
                    "point does not map the arc to itself",
                )
    if table.broken:
        g, a = table.broken[0]
        raise HypothesisViolation(
            3,
            {
                "generator": repr(group.elements[g]),
                "element": repr(group.elements[a]),
            },
            "the slot map does not compose along the product table",
        )
    return ConditionResult(
        3, "the group permutes the arc family equivariantly"
    )


def _check_swap_fixed_shapes(
    assignment: VertexAssignment,
) -> tuple[ConditionResult, tuple[Perm, ...]]:
    """Condition (4): an element interchanging the endpoints of an edge must
    pointwise fix a subgraph small enough for a proper sub-arc of a circle.

    A part-swapping ``e`` interchanges the ends of an edge exactly when
    ``e^2`` fixes a vertex of V, and the subgraph ``e`` fixes pointwise is
    the complete bipartite graph on the vertices ``e`` fixes.  Both are read
    from the core's fixed table; the interchangers come out in group
    order."""
    model = assignment.model
    interchangers = []
    for e, sign in zip(model.group.elements, model.parities):
        if sign == 1 or not assignment.fixed_counts(e * e)[0]:
            continue
        interchangers.append(e)
        shape = FixedSubgraphShape(*assignment.fixed_counts(e))
        if not embeds_in_proper_subset_of_circle(shape):
            raise HypothesisViolation(
                4,
                {"element": repr(e), "shape": [shape.a, shape.b]},
                "an edge-interchanging element fixes a subgraph too large "
                "for a proper sub-arc of its circle",
            )
    return (
        ConditionResult(
            4,
            f"{len(interchangers)} edge-interchanging elements, all with "
            "arc-sized fixed subgraphs",
        ),
        tuple(interchangers),
    )


def _check_swap_circles(
    assignment: VertexAssignment,
    axes: tuple[Axis, ...],
    interchangers: tuple[Perm, ...],
) -> ConditionResult:
    """Condition (5): an element interchanging the endpoints of an edge has a
    nonempty fixed circle shared with no other element."""
    circle_of = axis_index(assignment.model.group, axes)
    index = assignment.model.group.index
    for e in interchangers:
        if circle_of[index(e)] is None:
            raise HypothesisViolation(
                5,
                {"element": repr(e)},
                "an edge-interchanging element has an empty fixed-point set",
            )
        axis = axes[circle_of[index(e)]]
        if len(axis.elements) != 1:
            raise HypothesisViolation(
                5,
                {
                    "element": repr(e),
                    "sharing": [repr(x) for x in axis.elements],
                },
                "an edge-interchanging element shares its fixed circle with "
                "another element",
            )
    return ConditionResult(
        5,
        f"{len(interchangers)} edge-interchanging elements, each alone on "
        "its own circle",
    )


def check_edge_embedding_hypotheses(
    assignment: VertexAssignment,
) -> HypothesisReport:
    """Check the five conditions under which the edges of a placed
    ``K_{n,n}`` can be routed equivariantly.

    Raises :class:`HypothesisViolation` carrying the failed condition number
    and a witness; on success returns a report with the chosen arc family.

    The report is given in point labels and reads only the placement's
    core, so it is read from the check record kept for the placement's
    recipe (:func:`check_recipe`) when there is one, and checked in full
    otherwise; each placement reports it under its own case name.
    """
    kept = kept_checks(assignment)
    if kept is not None:
        return HypothesisReport(assignment.case_name, kept.conditions, kept.arcs)
    return HypothesisReport(assignment.case_name, *_check_conditions(assignment))


def _check_conditions(
    assignment: VertexAssignment,
) -> tuple[tuple[ConditionResult, ...], tuple[Arc, ...]]:
    """Conditions 1-5 of one placement, checked in full, and the arcs.
    Conditions 1 and 5 read which elements share a circle from the model's
    axes; condition 2 walks the circles in slot numbers."""
    circles = assignment.slot_axes  # a layout that admits none fails first
    axes = assignment.model.axes
    results = [_check_common_fixed_circles(assignment, axes)]
    arcs, cond2 = _choose_arcs(assignment, circles)
    results += [cond2, _check_arc_equivariance(assignment, arcs)]
    cond4, interchangers = _check_swap_fixed_shapes(assignment)
    results += [cond4, _check_swap_circles(assignment, axes, interchangers)]
    return tuple(results), arcs


# --------------------------------------------------------------------------
# forced fixed sets and the exactness witnesses


def _forced_neighbors(
    assignment: VertexAssignment, odd: tuple[int, ...], x: int
) -> tuple[bool, set[int]]:
    """Opposite-part vertices forced to be fixed once ``x`` is fixed, as a
    pair ``(whole, members)``: every vertex of the opposite part except
    ``members`` when ``whole``, else ``members``.

    ``y`` qualifies when the orbit of the edge ``{x, y}`` contains no other
    edge incident to ``x``.  Another such edge is either ``{x, s(y)}`` for an
    ``s`` fixing ``x`` but not ``y``, or, when ``y = h(x)``, the image
    ``{h^-1(x), x}`` of ``{x, y}`` under ``h^-1``, which is another edge
    exactly when ``h(h(x)) != x``.  So ``y`` must be fixed by every
    nontrivial element fixing ``x``: the whole opposite part when none does
    (no free vertex is fixed), else the fixed core vertices whose fixer mask
    holds ``x``'s.  And ``y`` must not be such an ``h(x)``.  Only a
    part-swapping ``h`` moves ``x`` across the parts; ``odd`` lists their
    element indices, none on a part-preserving model, so only ``x``'s images
    under those are computed.  ``h(h(x)) == x`` exactly when ``h * h`` is the
    identity or fixes ``x``, which ``x``'s fixer mask tells.
    """
    n = assignment.n
    p = int(x >= n)
    stab = assignment.fixer_mask(x)
    excluded = set()
    if odd:
        model = assignment.model
        elements, table = model.group.elements, model.group.product_table
        label = (assignment.label_of(x),)
        for a in odd:
            square = table[a][a]  # index 0 is the identity, bit k is index k + 1
            if square and not stab >> (square - 1) & 1:
                image = assignment.template.slot_images(elements[a], label)[0]
                y = assignment.vertex_of(image)
                if (y >= n) != p:
                    excluded.add(y)
    if not stab:
        return True, excluded
    return False, {
        y
        for y, mask in assignment.fixers.items()
        if (y >= n) != p and mask & stab == stab and y not in excluded
    }


def _check_edge(assignment: VertexAssignment, edge: tuple[int, int]) -> None:
    v, w = edge
    n = assignment.n
    if not (0 <= v < 2 * n and 0 <= w < 2 * n):
        raise ValueError(f"edge {edge} out of range for n = {n}")
    if (v < n) == (w < n):
        raise ValueError(f"edge {edge} does not join the two parts")


def forced_fix_closure(
    assignment: VertexAssignment, edge: tuple[int, int]
) -> ForcedFix:
    """Vertices a symmetry fixing ``edge`` pointwise must fix, until their
    shape no longer embeds in a circle (all the exactness argument reads).

    Starts from the endpoints and repeatedly applies: if a forced vertex
    ``x`` has an incident edge that is the only edge of its orbit incident to
    ``x``, the edge's other endpoint is forced too.  Newly forced vertices
    wait in a first-in first-out queue, in ascending order; while the shape
    embeds, each part holds at most two of them.  A vertex no nontrivial
    element fixes forces its whole opposite part but a few images; that part
    is kept in complement form (a :class:`PartSubset` with ``whole``) and
    stops the closure.  At least three of its vertices are left: a part
    holding a free orbit has at least 12, at most 6 are excluded (images
    under the skeleton's odd quarter-turns), and every core vertex lies on
    an axis, so has a fixer.
    """
    _check_edge(assignment, edge)
    edge = tuple(edge)
    return _forced_fix(assignment, edge, *_closure(assignment, edge))


def _closure(
    assignment: VertexAssignment, edge: tuple[int, int]
) -> tuple[tuple[frozenset[int], frozenset[int]], int | None]:
    """The forced set of ``edge`` in each part, numbered within the part,
    and the part forced whole (whose set then lists the vertices left
    out), or None."""
    v, w = edge
    n = assignment.n
    odd = assignment.template.odd
    members = [{v}, {w}] if v < n else [{w}, {v}]
    whole = None  # the part forced whole, whose members are then excluded
    queue = deque((v, w))
    while queue and embeds_in_circle(FixedSubgraphShape(*map(len, members))):
        x = queue.popleft()
        q = int(x < n)  # the part x's forced neighbors lie in
        good_whole, good = _forced_neighbors(assignment, odd, x)
        if good_whole:
            members[q] = good - members[q]
            whole = q
            break
        new = good - members[q]
        members[q] |= new
        queue.extend(sorted(new))
    return (frozenset(members[0]), frozenset(y - n for y in members[1])), whole


def _forced_fix(
    assignment: VertexAssignment,
    edge: tuple[int, int],
    members: tuple[frozenset[int], frozenset[int]],
    whole: int | None,
) -> ForcedFix:
    """The :class:`ForcedFix` of ``edge`` whose forced set in each part is
    ``members``, numbered within the part, or every vertex of part
    ``whole`` but its ``members``, which must leave at least three."""
    n = assignment.n
    if whole is not None and n - len(members[whole]) < 3:
        raise AssertionError(
            f"edge {edge} forces all but {len(members[whole])} of the "
            f"{n} vertices of a part, a shape that still embeds"
        )
    parts = (
        PartSubset(0, n, whole == 0, members[0]),
        PartSubset(n, 2 * n, whole == 1, frozenset(y + n for y in members[1])),
    )
    shape = FixedSubgraphShape(parts[0].size, parts[1].size)
    return ForcedFix(edge=edge, parts=parts, shape=shape)


def _recorded_edge(
    assignment: VertexAssignment,
    field: str,
    pairs: tuple[tuple[Point, Point], ...],
) -> tuple[int, int]:
    """The edge of the first of ``pairs``, what the placement's recipe
    records in ``field``, whose labels are both vertices."""
    vertex_of = assignment.vertex_of
    for v, w in pairs:
        edge = vertex_of(v), vertex_of(w)
        if None not in edge:
            return edge
    missing = dict.fromkeys(
        p for pair in pairs for p in pair if vertex_of(p) is None
    )
    raise ValueError(
        f"recipe {assignment.case_name} records the {field} label "
        f"{', '.join(map(repr, missing))}, which is no vertex of the "
        f"placement at n = {assignment.n}"
        if missing
        else f"recipe {assignment.case_name} records no {field} edge"
    )


def check_subgroup_theorem(assignment: VertexAssignment) -> SubgroupWitness:
    """Certify that the realized symmetry group is not strictly larger than
    the acting group.

    Checks the witness edge the placement's recipe records: its forced
    fixed set must either fail to embed in a circle (condition 1) or meet
    the fixed circle of some element ``psi`` in an adjacent pair without
    being contained in it (condition 2).  Raises :class:`NoWitnessFound`
    if it does neither, and ValueError for a placement that follows no
    recipe or lacks a recorded label.

    The forced set is the edge's closure kept in the recipe's check record
    (:class:`RecipeChecks`), shifted to this ``n``, or else computed.
    """
    edge = _recorded_edge(assignment, "witness", recipe_of(assignment).witness)
    kept = kept_checks(assignment)
    key = (edge[0], edge[1] - assignment.n)
    closure = next((c for k, *c in kept.witness if k == key), None) if kept else None
    if closure is None:
        forced = forced_fix_closure(assignment, edge)
    else:
        forced = _forced_fix(assignment, edge, *closure)
    # a closure whose shape embeds ran to completion
    if not embeds_in_circle(forced.shape):
        return SubgroupWitness(edge, forced, 1)
    # The shape embeds, so at most two vertices of each part are forced; a
    # vertex lies in psi's fixed set when psi's bit is in its fixer mask.
    # psi meets the forced set in an adjacent pair without holding all of
    # it when its bit is in a mask of each part but not in every mask; the
    # least such bit is the first such element in group order.
    fixed_in = [0, 0]  # the bits of some forced vertex's mask, per part
    in_all = -1  # the bits of every forced vertex's mask
    for p, part in enumerate(forced.parts):
        for x in part:
            mask = assignment.fixer_mask(x)
            fixed_in[p] |= mask
            in_all &= mask
    bits = fixed_in[0] & fixed_in[1] & ~in_all
    if bits:
        psi = assignment.model.nontrivial[(bits & -bits).bit_length() - 1]
        return SubgroupWitness(edge, forced, 2, psi)
    raise NoWitnessFound(
        f"the recorded witness edge {edge} certifies no exactness for the "
        f"{assignment.case_name} placement at n = {assignment.n}"
    )


# --------------------------------------------------------------------------
# the step-down edge for order-24 placements


def subgroup_corollary_witness(assignment: VertexAssignment) -> tuple[int, int]:
    """An edge no nontrivial element fixes pointwise, for stepping an
    order-24 placement down to its order-12 rotation subgroup.

    Re-embedding such an edge asymmetrically destroys every symmetry that
    setwise fixes it and every symmetry taking it elsewhere is unaffected,
    which cuts the realized group in half.  Checks the step-down edge the
    placement's recipe records.  Raises :class:`NoSuchEdge` when a
    nontrivial element fixes it pointwise, and ValueError for a recorded
    pair that is not an edge, a recorded label that is no vertex, or a
    placement that follows no recipe.
    """
    if assignment.model.group.order != 24:
        raise ValueError(
            "the step-down edge applies to the order-24 placements only"
        )
    step = recipe_of(assignment).step_down
    edge = _recorded_edge(assignment, "step_down", () if step is None else (step,))
    _check_edge(assignment, edge)
    v, w = edge
    if assignment.fixer_mask(v) & assignment.fixer_mask(w):
        raise NoSuchEdge(
            f"the recorded step-down edge {edge} of the "
            f"{assignment.case_name} placement at n = {assignment.n} is "
            "pointwise fixed by a nontrivial element"
        )
    return edge


# --------------------------------------------------------------------------
# the full verification pipeline for one placement


class RecipeChecks(NamedTuple):
    """What every placement of one recipe shares of its checks, made by
    :func:`check_recipe`: the ``recipe`` object checked against, the
    counting ``row`` and its residue, the fixed-count ``report``,
    conditions 1-5 and the ``arcs`` in labels, and ``witness``.

    ``witness`` holds the closure of each recorded witness pair that joins
    V to W, as ``(edge, members, whole)``: the edge, each part's forced
    vertices (in part ``whole`` the vertices left out) and the part forced
    whole, or None, all numbered within their parts.  It is the same for
    every ``m`` by this lemma: every added free orbit is, within each part,
    either wholly forced or not forced at all.  Free orbits are regular,
    so no nontrivial element fixes a free vertex.  A forced vertex with a
    nontrivial fixer forces only core vertices with the same fixers; one
    with none, as a free endpoint, forces its whole opposite part but its
    images, which lie in its own orbit, and stops the closure.  So an
    orbit without an endpoint is forced only within a whole part.  Whether
    a whole part keeps three vertices reads ``n``; every call checks it.
    """

    recipe: Recipe
    row: tuple[FixedProfile, int]
    report: FixedCountReport
    conditions: tuple[ConditionResult, ...]
    arcs: tuple[Arc, ...]
    witness: tuple[tuple[tuple[int, int], tuple[frozenset, frozenset], int | None], ...]


def check_recipe(assignment: VertexAssignment) -> RecipeChecks:
    """Check a placement in full, in the order of
    :func:`verify_construction` with its own checks of ``n`` in place, and
    keep the :class:`RecipeChecks` of its recipe, whole, in its template.
    A check that raises keeps nothing.  A witness pair whose labels are not
    both vertices here, where a free block holds no orbit yet, is closed on
    the placement with one more orbit in each free block."""
    check_numbering(assignment)
    report = fixed_count_report(assignment)
    row = necessity_profile_of(assignment)
    check_orbit_count(assignment)
    conditions, arcs = _check_conditions(assignment)
    recipe, template = recipe_of(assignment), assignment.template
    grown = VertexAssignment._of_template(
        template,
        assignment.n + template.sizes[0][1],
        assignment.target_group,
        assignment.case_name,
        assignment.m + 1,
    )
    witness = []
    for pair in recipe.witness:
        for a in (assignment, grown):
            v, w = map(a.vertex_of, pair)
            if v is not None and w is not None:
                if v < a.n <= w:
                    witness.append(((v, w - a.n), *_closure(a, (v, w))))
                break
    checks = RecipeChecks(recipe, row, report, conditions, arcs, tuple(witness))
    template.checks = checks
    return checks


def verify_construction(assignment: VertexAssignment) -> HypothesisReport:
    """Run every check on a placement and return the combined report.

    The report covers: the per-class fixed-count table (matched against the
    counting rows of the necessity engine), the five edge-routing conditions
    with the chosen arcs, the exactness witness, and - when an order-24
    action serves the order-12 target - the step-down edge.

    A placement whose recipe has a kept check record reads it, and runs
    only the checks that read ``n``; otherwise :func:`check_recipe` makes
    the record.
    """
    checks = kept_checks(assignment)
    if checks is None:
        checks = check_recipe(assignment)
    else:
        verify_fixed_counts(assignment)
    witness = check_subgroup_theorem(assignment)
    corollary = None
    if (
        assignment.target_group == "A4"
        and assignment.model.group.order == 24
    ):
        corollary = subgroup_corollary_witness(assignment)
    return HypothesisReport(
        assignment.case_name,
        checks.conditions,
        checks.arcs,
        summarize_blocks(assignment),
        checks.report,
        witness,
        corollary,
    )
