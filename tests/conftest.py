"""Shared fixtures: polyhedral models and one placement per recipe case,
and the oracles the tests compare the library with.

Both fixtures are expensive enough to build once per session; every
consumer treats them as read-only.  The recipes' templates, which keep what
was checked on each core, are forgotten before each test, so a test that
doctors a check a warm template skips still reaches it, whatever ran
before.
"""

import itertools
import re
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterator

import pytest

from bipartite_tsg.assignments import _TEMPLATES, MarkerBlock, build_assignment
from bipartite_tsg.bipartite import (
    BipartiteAut,
    CycleProfile,
    validate_automorphism,
)
from bipartite_tsg.notation import (
    DuplicateToken,
    UnbalancedParenthesis,
    UnknownToken,
    token_of,
)
from bipartite_tsg.perms import FiniteGroup, GroupAction, Perm, generate_group
from bipartite_tsg.polyhedra import PolyhedralModel, build_polyhedral_model
from bipartite_tsg.realizability import (
    CASE_DESCRIPTIONS,
    PartSizeTooSmall,
    RealizabilityResult,
)

MODEL_KINDS = ("tetrahedron", "tetrahedron-skeleton", "cube", "dodecahedron")

# One (group, n) pair per construction case, plus the pairs pinned by the
# package's frozen invariants (S4 at 32, A5 at 110).
SAMPLE_PAIRS = (
    ("A4", 6),    # tetrahedron-6
    ("A4", 12),   # skeleton-0, order-24 model serving the order-12 target
    ("S4", 4),    # skeleton-4
    ("A4", 16),   # skeleton-4 serving the order-12 target
    ("S4", 26),   # cube-2
    ("S4", 30),   # cube-6
    ("S4", 8),    # cube-8
    ("S4", 32),   # cube-8 (order-4 fixed-count invariant)
    ("S4", 14),   # cube-14
    ("A4", 18),   # cube-18
    ("S4", 20),   # cube-20
    ("A5", 32),   # dodecahedron-32
    ("A5", 42),   # dodecahedron-42
    ("A5", 50),   # dodecahedron-50
    ("A5", 60),   # dodecahedron-0
    ("A5", 62),   # dodecahedron-2
    ("A5", 72),   # dodecahedron-12
    ("A5", 80),   # dodecahedron-20
    ("A5", 90),   # dodecahedron-30
    ("A5", 110),  # dodecahedron-50 again (block-structure invariant)
)


@pytest.fixture(autouse=True)
def cold_templates():
    _TEMPLATES.clear()


@pytest.fixture(scope="session")
def models():
    return {kind: build_polyhedral_model(kind) for kind in MODEL_KINDS}


@pytest.fixture(scope="session")
def assignments():
    return {pair: build_assignment(*pair) for pair in SAMPLE_PAIRS}


def label_image(model, e, label):
    """Image of one label of ``model`` under the element ``e``, by the
    per-label rule: a corner goes to its image, an edge or a face to the
    one on the images of its corners, and an element of parity -1 swaps
    the two centers.  The reference for the model's action."""
    cls, i = label
    if cls == "corner":
        return ("corner", e(i))
    if cls == "edge":
        a, b = model.edges[i]
        return ("edge", model.edges.index((min(e(a), e(b)), max(e(a), e(b)))))
    if cls == "face":
        corners = {e(k) for k in model.faces[i]}
        return ("face", [set(f) for f in model.faces].index(corners))
    return label if model.parity_of(e) == 1 else ("center", 1 - i)


def apply(a, e, point):
    """Image of one point label of placement ``a`` under the element ``e``,
    mapped label by label by the model's per-label rule: the reference for
    ``slot_images`` and for the vertex action built from it."""
    model = a.model
    if point[0] == "free":
        _, tag, k, j = point
        return ("free", tag, k, model.group.product_table[model.group.index(e)][j])
    if point[0] == "center":
        return label_image(model, e, point)
    marker_class, copy_name, m = point
    if model.parity_of(e) == -1:
        swap = {
            b.copy_name: b.swap_partner
            for b in all_blocks(a)
            if isinstance(b, MarkerBlock) and b.swap_partner is not None
        }
        copy_name = swap.get(copy_name, copy_name)
    return (marker_class, copy_name, label_image(model, e, (marker_class, m))[1])


def all_blocks(a):
    """Every block of placement ``a``, V's then W's, in vertex order."""
    return tuple(b for part in a.blocks for b in part)


def fixers(a):
    """Each vertex of placement ``a`` that a nontrivial element fixes, with
    its fixer mask: the template's masks, V's then W's shifted by ``n``."""
    in_v, in_w = a.template.fixed.masks
    return {**in_v, **{r + a.n: mask for r, mask in in_w.items()}}


def fixed_vertices(a, e):
    """The vertices ``e`` fixes in placement ``a``, ascending, as its fixer
    table gives them; the identity fixes every vertex."""
    if e.is_identity():
        return tuple(range(2 * a.n))
    k = a.model.nontrivial.index(e)
    return tuple(sorted(x for x, mask in fixers(a).items() if mask >> k & 1))


def part_at(a, point):
    """The part, "V" or "W", of the vertex at ``point`` of placement ``a``,
    None if no vertex is there."""
    vertex = a.vertex_of(point)
    return None if vertex is None else "VW"[vertex >= a.n]


def vertex_labels(a):
    """Every vertex label of placement ``a``, in vertex order."""
    return tuple(map(a.label_of, range(2 * a.n)))


def full_action(a):
    """The action of placement ``a`` checked on all ``2n`` vertices: the
    generators' permutations from ``induced_perm``, every other element's
    composed from them and checked by :class:`GroupAction`.  The reference
    for what ``a`` reads from its transversal."""
    group = a.model.group
    images = {g: a.induced_perm(g).images for g in group.generators}
    return GroupAction(group, vertex_labels(a), images)


def forced_vertices(forced, n):
    """Every vertex a report's ``witness.forced`` entry names, V then W,
    ascending: an ``only`` part is its members, an ``all_except`` part is
    its range, ``0..n-1`` or ``n..2n-1``, less its members."""
    out = []
    for start, part in ((0, forced["V"]), (n, forced["W"])):
        ((kind, members),) = part.items()
        assert members == sorted(members), members
        assert all(start <= x < start + n for x in members), members
        if kind == "only":
            out.extend(members)
        else:
            assert kind == "all_except", kind
            skip = set(members)
            out.extend(x for x in range(start, start + n) if x not in skip)
    return out


def expanded_report(report):
    """``report`` with its witness's forced set written as one ``vertices``
    list, as reports listed it before the complement form."""
    witness = (report.get("construction") or {}).get("witness")
    if witness is None:
        return report
    forced = witness["forced"]
    listed = {
        "edge": forced["edge"],
        "vertices": forced_vertices(forced, report["n"]),
        "shape": forced["shape"],
    }
    construction = {**report["construction"], "witness": {**witness, "forced": listed}}
    return {**report, "construction": construction}


# --------------------------------------------------------------------------
# Group and action oracles: the standard groups, exhaustive group checks,
# actions given by a per-point rule, and orbit counts found two independent
# ways.  The library's commands need none of them.


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return FiniteGroup([Perm.identity(max(n, 1))])
    gens = [Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])]
    return generate_group(gens)


def alternating_group(n: int) -> FiniteGroup:
    if n <= 2:
        return FiniteGroup([Perm.identity(max(n, 1))])
    if n == 3:
        return generate_group([Perm.from_cycles(3, [(0, 1, 2)])])
    three_cycles = [Perm.from_cycles(n, [(0, 1, k)]) for k in range(2, n)]
    return generate_group(three_cycles)


def validate_group(group: FiniteGroup) -> None:
    """Exhaustive group-axiom check (closure and inverses). Desk scale."""
    for a in group.elements:
        if a.inverse() not in group:
            raise ValueError(f"inverse of {a} missing")
        for b in group.elements:
            if a * b not in group:
                raise ValueError(f"not closed: {a} * {b}")


def is_subgroup(group: FiniteGroup, sub: FiniteGroup) -> bool:
    return sub.degree == group.degree and all(h in group for h in sub.elements)


def subgroup(group: FiniteGroup, elements) -> FiniteGroup:
    sub = FiniteGroup(elements)
    if not is_subgroup(group, sub):
        raise ValueError("not a subgroup: elements escape the parent group")
    return sub


def elements_of_order(group: FiniteGroup, k: int) -> tuple[Perm, ...]:
    """The elements of order ``k``, in element order, from one pass that
    groups every element by its order."""
    by_order: dict[int, list[Perm]] = {}
    for e in group.elements:
        by_order.setdefault(e.order(), []).append(e)
    return tuple(by_order.get(k, ()))


class UnionFind:
    """Plain union-find over range(n), used for direct orbit counting."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def action_of(group: FiniteGroup, points, act_fn) -> GroupAction:
    """The action in which ``e`` sends the point ``p`` to ``act_fn(e, p)``.
    Every element's image list is built here and checked by the library's
    constructor; a point sent off the point set raises ValueError."""
    points = tuple(points)
    index = {p: i for i, p in enumerate(points)}
    images = {}
    for e in group.elements:
        row = []
        for p in points:
            q = act_fn(e, p)
            if q not in index:
                raise ValueError(
                    f"action leaves the point set: {e!r} sends {p!r} to {q!r}"
                )
            row.append(index[q])
        images[e] = row
    return GroupAction(group, points, images)


def fixed_count(action: GroupAction, e: Perm) -> int:
    return len(action.perms[e].fixed_points())


def orbits_of(action: GroupAction) -> tuple[tuple, ...]:
    """The orbits under the generators, found by union-find, each in point
    order, ordered by their first point."""
    uf = UnionFind(len(action.points))
    for e in action.group.generators:
        for i, j in enumerate(action.perms[e].images):
            uf.union(i, j)
    buckets: dict[int, list] = {}
    for i, p in enumerate(action.points):
        buckets.setdefault(uf.find(i), []).append(p)
    return tuple(tuple(b) for _, b in sorted(buckets.items()))


def orbit_count_unionfind(action: GroupAction) -> int:
    return len(orbits_of(action))


def orbit_count_burnside(action: GroupAction) -> Fraction:
    total = sum(fixed_count(action, e) for e in action.group.elements)
    return Fraction(total, action.group.order)


def orbit_count(action: GroupAction) -> int:
    """Orbit count computed two independent ways; they must agree and the
    Burnside average must be an integer."""
    direct = orbit_count_unionfind(action)
    average = orbit_count_burnside(action)
    if average.denominator != 1 or average != direct:
        raise AssertionError(
            f"orbit count mismatch: union-find {direct}, Burnside {average}"
        )
    return direct


def coset_action(group: FiniteGroup, sub: FiniteGroup) -> GroupAction:
    """Left multiplication of ``group`` on the left cosets of ``sub``.

    Cosets are labelled by their least element.  Raises ValueError if ``sub``
    is not a subgroup of ``group``.
    """
    if not is_subgroup(group, sub):
        raise ValueError("H is not a subgroup of G")
    rep_of: dict[Perm, Perm] = {}
    reps = []
    for g in group.elements:
        if g in rep_of:
            continue
        coset = sorted(g * h for h in sub.elements)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            rep_of[x] = rep
    return action_of(group, sorted(reps), lambda e, r: rep_of[e * r])


# --------------------------------------------------------------------------
# Reference automorphism check: the character-by-character parser, the
# any()-based cycle profile and the per-point printer, with one cycle walk
# per question asked.  The library's one-pass check must agree with it.

_REFERENCE_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def _reference_index_of(token: str, n: int, position: int) -> int:
    match = re.fullmatch(r"([vw])([1-9][0-9]*)", token)
    if match is None:
        raise UnknownToken(
            f"token {token!r} is not of the form v<i> or w<i>", position
        )
    part, i = match.group(1), int(match.group(2))
    if i > n:
        raise UnknownToken(
            f"token {token!r} exceeds the part size n = {n}", position
        )
    return i - 1 if part == "v" else n + i - 1


def reference_parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle-notation text into a permutation of ``2n`` vertices.

    Raises :class:`UnbalancedParenthesis`, :class:`UnknownToken`, or
    :class:`DuplicateToken`, each carrying the character position.
    """
    if n < 1:
        raise ValueError(f"part size must be positive, got n = {n}")
    images = list(range(2 * n))
    seen: set[int] = set()
    cycle: list[int] | None = None
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            if cycle is not None:
                raise UnbalancedParenthesis("nested opening parenthesis", pos)
            cycle = []
            pos += 1
            continue
        if ch == ")":
            if cycle is None:
                raise UnbalancedParenthesis(
                    "closing parenthesis without an open cycle", pos
                )
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
            cycle = None
            pos += 1
            continue
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise UnknownToken(f"unexpected character {ch!r}", pos)
        token = match.group(0)
        if cycle is None:
            raise UnbalancedParenthesis(
                f"token {token!r} outside any cycle", pos
            )
        index = _reference_index_of(token, n, pos)
        if index in seen:
            raise DuplicateToken(
                f"vertex {token!r} appears more than once", pos
            )
        seen.add(index)
        cycle.append(index)
        pos = match.end()
    if cycle is not None:
        raise UnbalancedParenthesis("unclosed cycle at end of text", length)
    return Perm(images)


def reference_cycle_profile(aut: BipartiteAut) -> CycleProfile:
    n = aut.n
    on_v: list[int] = []
    on_w: list[int] = []
    cross: list[int] = []
    for cycle in aut.perm.cycles(include_fixed=True):
        in_v = any(x < n for x in cycle)
        in_w = any(x >= n for x in cycle)
        if in_v and in_w:
            cross.append(len(cycle))
        elif in_v:
            on_v.append(len(cycle))
        else:
            on_w.append(len(cycle))
    return CycleProfile(
        n, aut.perm.order(), counted(on_v), counted(on_w), counted(cross)
    )


def counted(lengths) -> tuple[tuple[int, int], ...]:
    """A multiset of cycle lengths as a profile's ``(length, count)``
    pairs, lengths ascending."""
    return tuple(sorted(Counter(lengths).items()))


# --------------------------------------------------------------------------
# The nine patterns matched literally, case by case: each case checks that
# every cycle it does not set aside is full.  The oracle the library's
# matcher, which matches on the set-aside cycles, is compared with.


def _all_full(counts: dict[int, int], r: int) -> bool:
    return all(length == r for length in counts)


def _without(counts: dict[int, int], length: int, k: int) -> dict[int, int]:
    out = dict(counts)
    out[length] -= k
    if out[length] == 0:
        del out[length]
    return out


def _preserving_cases(profile: CycleProfile) -> set[int]:
    """Case ids 1-8 matched by a part-preserving profile, taken literally."""
    r = profile.r
    v = dict(profile.v_counts)
    w = dict(profile.w_counts)
    matched: set[int] = set()

    if _all_full(v, r) and _all_full(w, r):
        matched.add(1)

    fv, fw = v.get(1, 0), w.get(1, 0)
    if r > 1:
        # (2): V holds m*r fixed vertices, m >= 1; everything else is full.
        if fv and fv % r == 0 and _all_full(_without(v, 1, fv), r) and _all_full(w, r):
            matched.add(2)
        # (3): one fixed vertex in each part, or two in each part.
        for c in (1, 2):
            if (
                fv == c
                and fw == c
                and _all_full(_without(v, 1, c), r)
                and _all_full(_without(w, 1, c), r)
            ):
                matched.add(3)
        # (4): some j-cycles in V for a single proper divisor j of r.
        for j in v:
            if 2 <= j < r and r % j == 0 and _all_full(_without(v, j, v[j]), r) and _all_full(w, r):
                matched.add(4)
        # (5): j-cycles and k-cycles in V with lcm(j, k) = r.
        for j, k in itertools.combinations(sorted(v), 2):
            if 2 <= j < r and 2 <= k < r and lcm(j, k) == r:
                rest = _without(_without(v, j, v[j]), k, v[k])
                if _all_full(rest, r) and _all_full(w, r):
                    matched.add(5)
        # (6): j-cycles in V, k-cycles in W, lcm(j, k) = r.
        for j in v:
            for k in w:
                if 2 <= j < r and 2 <= k < r and lcm(j, k) == r:
                    if _all_full(_without(v, j, v[j]), r) and _all_full(
                        _without(w, k, w[k]), r
                    ):
                        matched.add(6)
        # (7): exactly one 2-cycle in each part.
        if r > 2 and v.get(2, 0) == 1 and w.get(2, 0) == 1:
            if _all_full(_without(v, 2, 1), r) and _all_full(_without(w, 2, 1), r):
                matched.add(7)
        # (8): r/2 odd; one 2-cycle in each part plus some r/2-cycles in V.
        if r % 2 == 0 and (r // 2) % 2 == 1:
            half = r // 2  # odd, so never 2: the cells never collide
            if v.get(2, 0) == 1 and w.get(2, 0) == 1 and v.get(half, 0) >= 1:
                rest_v = _without(_without(v, 2, 1), half, v[half])
                if _all_full(rest_v, r) and _all_full(_without(w, 2, 1), r):
                    matched.add(8)
    return matched


def _swapping_cases(profile: CycleProfile) -> set[int]:
    """Case ids matched by a part-swapping profile: 1 (all full cycles) and
    9 (one exceptional 4-cycle, everything else full)."""
    r = profile.r
    cross = dict(profile.cross_counts)
    matched: set[int] = set()
    if _all_full(cross, r):
        matched.add(1)
    if cross.get(4, 0) >= 1 and _all_full(_without(cross, 4, 1), r):
        matched.add(9)
    return matched


def reference_profile_cases(profile: CycleProfile) -> tuple[frozenset[int], str | None]:
    """``profile_cases`` matched literally: the relabeled profile is built
    with the parts' counts exchanged and matched again."""
    if profile.swapping:
        as_given = _swapping_cases(profile)
        relabeled = as_given  # cross cycles are unchanged by relabeling
    else:
        as_given = _preserving_cases(profile)
        relabeled = _preserving_cases(
            CycleProfile(
                profile.n,
                profile.r,
                profile.w_counts,
                profile.v_counts,
                profile.cross_counts,
            )
        )
    cases = frozenset(as_given | relabeled)
    if as_given:
        return cases, "as-given"
    if relabeled:
        return cases, "parts-swapped"
    return cases, None


# --------------------------------------------------------------------------
# Desk-scale enumeration of every realizable cycle profile: the oracle the
# matcher and the necessity menu are checked against.


def _multisets_summing_to(total: int, divisors: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples over the divisor menu with the given sum."""

    def rec(remaining: int, menu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for i, d in enumerate(menu):
            if d <= remaining:
                for rest in rec(remaining - d, menu[i:]):
                    yield (d,) + rest

    yield from rec(total, tuple(sorted(divisors, reverse=True)))


def enumerate_realizable_profiles(n: int, r: int) -> list[CycleProfile]:
    """Every cycle profile of an order-r automorphism of K_{n,n} that the
    literal matcher accepts, enumerated deterministically.  Desk scale
    only."""
    if n > 12 or r > 12:
        raise ValueError("desk-scale enumeration only (n <= 12, r <= 12)")
    divisors = tuple(d for d in range(1, r + 1) if r % d == 0)
    results: list[CycleProfile] = []
    seen: set[CycleProfile] = set()
    # Part-preserving candidates: one multiset per part, lcm over both = r.
    for v_lengths in _multisets_summing_to(n, divisors):
        for w_lengths in _multisets_summing_to(n, divisors):
            if lcm(*(v_lengths + w_lengths)) != r:
                continue
            profile = CycleProfile(n, r, counted(v_lengths), counted(w_lengths), ())
            cases, _ = reference_profile_cases(profile)
            if cases and profile not in seen:
                seen.add(profile)
                results.append(profile)
    # Part-swapping candidates: even lengths crossing the parts, total 2n.
    even_divisors = tuple(d for d in divisors if d % 2 == 0)
    if r % 2 == 0:
        for cross_lengths in _multisets_summing_to(2 * n, even_divisors):
            if lcm(*cross_lengths) != r:
                continue
            profile = CycleProfile(n, r, (), (), counted(cross_lengths))
            cases, _ = reference_profile_cases(profile)
            if cases and profile not in seen:
                seen.add(profile)
                results.append(profile)
    results.sort(key=lambda p: (p.cross_counts, p.v_counts, p.w_counts))
    return results


def reference_print_cycles(perm: Perm, n: int) -> str:
    return "".join(
        "(" + " ".join(token_of(x, n) for x in cycle) + ")"
        for cycle in perm.cycles()
    )


def reference_check_automorphism(text: str, n: int):
    """``check_automorphism_cmd`` built from the reference pieces."""
    perm = reference_parse_cycles(text, n)
    aut = validate_automorphism(perm, n)
    if n <= 2:
        raise PartSizeTooSmall(f"criterion requires n > 2, got n = {n}")
    cases, orientation = reference_profile_cases(reference_cycle_profile(aut))
    result = RealizabilityResult(cases, orientation)
    report = {
        "n": n,
        "cycles": reference_print_cycles(perm, n) or "(identity)",
        "order": perm.order(),
        "part_behavior": aut.part_behavior,
        "realizable": result.realizable,
        "orientation": result.orientation,
        "matched_cases": [
            {"case": c, "pattern": CASE_DESCRIPTIONS[c]}
            for c in sorted(result.matched_cases)
        ],
    }
    return result, report


# --------------------------------------------------------------------------
# the independent coset-action oracle, against which the geometric models'
# fixed counts are cross-checked

ClassSignature = tuple[tuple[int, int, tuple[int, int, int]], ...]
# Sorted rows (element order, conjugacy class size, fixed counts per marker
# class in corner/edge/face order) - the group-agnostic form under which the
# two oracles can be compared.


def fixed_count_table(
    model: PolyhedralModel,
) -> tuple[tuple[Perm, int, int, dict[str, int]], ...]:
    """Fixed counts per point class, one row per conjugacy class:
    (representative, order, parity, counts).  Conjugate elements must agree."""
    rows = []
    for cls in model.group.conjugacy_classes():
        rep = cls[0]
        if rep.is_identity():
            continue
        per_element = []
        for g in cls:
            counts = {"corner": 0, "edge": 0, "face": 0}
            for p in model.fixed_specials(g):
                counts[p[0]] += 1
            per_element.append(counts)
        if any(c != per_element[0] for c in per_element):
            raise AssertionError("conjugate elements disagree on fixed counts")
        rows.append((rep, rep.order(), model.parity_of(rep), per_element[0]))
    return tuple(rows)


def incidence_fixed_signature(model: PolyhedralModel) -> ClassSignature:
    """Class signature of a rotation model, from the geometric incidences."""
    rows = []
    classes = {cls[0]: len(cls) for cls in model.group.conjugacy_classes()}
    for rep, order, parity, counts in fixed_count_table(model):
        if parity != 1:
            raise ValueError(
                "the signature is defined for rotation-only models"
            )
        rows.append(
            (order, classes[rep], (counts["corner"], counts["edge"], counts["face"]))
        )
    return tuple(sorted(rows))


_MARKER_STABILIZER_ORDER = {
    "tetrahedron": {"corner": 3, "edge": 2, "face": 3},
    "cube": {"corner": 3, "edge": 2, "face": 4},
    "dodecahedron": {"corner": 3, "edge": 2, "face": 5},
}


def _abstract_rotation_group(kind: str) -> FiniteGroup:
    """The rotation group as an abstract permutation group, built without
    reference to any geometry: the tetrahedral group permutes its 4 corners
    evenly, the octahedral group permutes the cube's 4 long diagonals, and
    the icosahedral group is the alternating group on 5 letters (acting on
    the 5 inscribed compounds)."""
    if kind == "tetrahedron":
        return alternating_group(4)
    if kind == "cube":
        return symmetric_group(4)
    if kind == "dodecahedron":
        return alternating_group(5)
    raise ValueError(f"no abstract rotation group for {kind!r}")


def _cyclic_stabilizer(group: FiniteGroup, order: int) -> FiniteGroup:
    """A cyclic subgroup generated by an element of the given order.

    Where two conjugacy classes share the order (the octahedral involutions)
    the marker stabilizer is the class whose elements move fewer letters:
    an edge of the cube is stabilized by the half-turn exchanging just one
    pair of diagonals, not by a face half-turn exchanging both pairs."""
    candidates = elements_of_order(group, order)
    generator = max(
        candidates, key=lambda e: (len(e.fixed_points()), e.images)
    )
    powers = {generator}
    current = generator
    while True:
        current = current * generator
        if current in powers:
            break
        powers.add(current)
    return FiniteGroup(powers)


def build_coset_model(kind: str) -> ClassSignature:
    """Class signature of a solid from pure group theory: each marker class
    is the coset space of a cyclic stabilizer, and fixed counts are fixed
    cosets.  Independent of the permutation models, so agreement with
    :func:`incidence_fixed_signature` cross-validates both."""
    group = _abstract_rotation_group(kind)
    stabilizer_orders = _MARKER_STABILIZER_ORDER[kind]
    actions = {
        marker: coset_action(group, _cyclic_stabilizer(group, order))
        for marker, order in stabilizer_orders.items()
    }
    rows = []
    for cls in group.conjugacy_classes():
        rep = cls[0]
        if rep.is_identity():
            continue
        per_element = {
            g: tuple(
                fixed_count(actions[marker], g)
                for marker in ("corner", "edge", "face")
            )
            for g in cls
        }
        first = per_element[rep]
        if any(v != first for v in per_element.values()):
            raise AssertionError("conjugate elements disagree on fixed cosets")
        rows.append((rep.order(), len(cls), first))
    return tuple(sorted(rows))
