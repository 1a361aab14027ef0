"""The forced-fix closure in complement form against the explicit closure.

``forced_fix_closure`` stops once the forced shape no longer embeds in a
circle, and keeps a wholly forced part as "the whole part except a finite
set".  The reference below is the explicit closure it replaced: every
forced vertex is a set member and is taken from the queue in turn, and each
one's forced neighbors are read from the action checked on all ``2n``
vertices.  It lives here as the oracle only, stopped as the closure is or
run in full.
"""

from collections import deque
from dataclasses import replace
from functools import cache
from random import Random

import pytest

from bipartite_tsg import hypotheses
from bipartite_tsg.assignments import (
    RECIPES,
    FreeOrbitBlock,
    MarkerBlock,
    VertexAssignment,
    build_assignment,
    kept_checks,
    place,
    recipe_case,
)
from bipartite_tsg.bipartite import FixedSubgraphShape, embeds_in_circle
from bipartite_tsg.decision import GROUPS, theorem_predicate
from bipartite_tsg.hypotheses import (
    _recorded_edge,
    check_subgroup_theorem,
    forced_fix_closure,
    verify_construction,
)
from bipartite_tsg.polyhedra import build_polyhedral_model

from conftest import fixers, forced_vertices, full_action

SEEDED_PAIRS = 2


def reference_neighbors(a):
    """The forced neighbors of each vertex of ``a``, read from the action
    checked on all ``2n`` vertices: the opposite-part vertices fixed by
    every nontrivial element fixing ``x``, less each ``y = e(x)`` whose edge
    orbit meets ``x`` twice (``e(e(x)) != x``)."""
    n = a.n
    group = a.model.group
    action = full_action(a)
    images = [action.perms[e].images for e in group.elements]
    fixed = [frozenset(action.perms[e].fixed_points()) for e in group.elements]
    table = group.product_table

    @cache
    def neighbors(x):
        image = [row[x] for row in images]
        opposite = range(n, 2 * n) if x < n else range(n)
        good = set(opposite).intersection(
            *(fixed[i] for i, y in enumerate(image) if i and y == x)
        )
        for i, y in enumerate(image):  # the identity's y is x, never in good
            if y in good and image[table[i][i]] != x:
                good.discard(y)
        return frozenset(good)

    return neighbors


def shape_of(n, vertices):
    return FixedSubgraphShape(
        sum(1 for v in vertices if v < n), sum(1 for v in vertices if v >= n)
    )


def reference_closure(a, edge, stop_if_unembeddable, neighbors):
    v, w = edge
    vertices = {v, w}
    queue = deque((v, w))
    while queue:
        if stop_if_unembeddable and not embeds_in_circle(shape_of(a.n, vertices)):
            break
        x = queue.popleft()
        new = neighbors(x) - vertices
        vertices |= new
        queue.extend(sorted(new))
    return frozenset(vertices), shape_of(a.n, vertices)


def _orbit(case, group):
    order = build_assignment(group, _smallest(case)[1]).model.group.order
    return order // 2 if RECIPES[case].extra is None else order


@cache
def _smallest(case):
    return next(
        (group, n)
        for n in range(1, 121)
        for group in GROUPS
        if theorem_predicate(n, group) and recipe_case(group, n) == case
    )


def _near(case, group, target):
    """The admitted ``n`` of ``case`` nearest ``target``, within a hundred
    of it."""
    return min(
        (
            n
            for n in range(target - 100, target + 101)
            if theorem_predicate(n, group) and recipe_case(group, n) == case
        ),
        key=lambda n: abs(n - target),
    )


def _placements():
    out = []
    for case in sorted(RECIPES):
        group, n0 = _smallest(case)
        if case == "tetrahedron-6":  # A4 n = 6 only
            sizes = [n0]
        else:
            sizes = [n0, n0 + _orbit(case, group), _near(case, group, 1000)]
        out.extend((case, group, n) for n in sizes)
    return out


def _recorded_edges(a, case):
    """The recorded witness edge, and the step-down edge if there is one."""
    recipe = RECIPES[case]
    edges = [_recorded_edge(a, "witness", recipe.witness)]
    if recipe.step_down is not None:
        edges.append(_recorded_edge(a, "step_down", (recipe.step_down,)))
    return edges


def _edges(a, case):
    """The recorded edges, then seeded V x W pairs of fixed core vertices
    and free vertices."""
    edges = _recorded_edges(a, case)
    n = a.n
    pools = ([], [])
    for x in sorted(fixers(a)):
        pools[x >= n].append(x)
    for p in (0, 1):
        free = [x for x in range(p * n, p * n + n) if a.label_of(x)[0] == "free"]
        pools[p].extend(free[:2] + free[-1:])
    rng = Random(f"closure:{case}:{n}")
    edges.extend(
        (rng.choice(pools[0]), rng.choice(pools[1])) for _ in range(SEEDED_PAIRS)
    )
    return edges


@pytest.mark.parametrize("case, group, n", _placements(), ids=str)
def test_the_complement_closure_equals_the_explicit_one(case, group, n):
    a = build_assignment(group, n)
    assert a.case_name == case
    neighbors = reference_neighbors(a)
    for edge in _edges(a, case):
        forced = forced_fix_closure(a, edge)
        vertices, shape = reference_closure(a, edge, True, neighbors)
        assert forced.vertices == vertices, edge
        assert forced.shape == shape, edge
        assert forced_vertices(forced.as_dict(), n) == sorted(vertices)


def test_an_edge_given_from_w_to_v_matches_the_explicit_closure():
    a = build_assignment("A4", 16)
    neighbors = reference_neighbors(a)
    for v, w in ((0, 17), (4, 16), (2, 30)):
        forced = forced_fix_closure(a, (w, v))
        vertices, shape = reference_closure(a, (w, v), True, neighbors)
        assert (forced.vertices, forced.shape) == (vertices, shape)


def edge_skeleton(m):
    """A skeleton placement built for the closure alone: edge markers on
    the inner copy in V and on the outer copy in W, traded by the odd
    elements, plus ``m`` split orbits.  A half-turn fixes the edges on its
    axis and is the square of an odd quarter-turn, so ``h(h(x)) == x`` holds
    for an ``h`` that moves ``x``, which no recipe shows."""
    model = build_polyhedral_model("tetrahedron-skeleton")
    blocks = (
        (MarkerBlock("edge", "inner", "V", swap_partner="outer"),),
        (MarkerBlock("edge", "outer", "W", swap_partner="inner"),),
        (FreeOrbitBlock(m, "split"),),
    )
    copies = (("inner", 1), ("base", 2), ("outer", 3))
    return VertexAssignment(6 + 12 * m, "S4", "edge-skeleton", model, copies, blocks)


def one_sided_skeleton(m):
    """A skeleton placement whose odd elements keep every block in its part:
    both edge copies in V, both corner copies and the faces in W, and ``m``
    whole free orbits in each part.  No routing check would pass it, but an
    odd element then moves a free vertex within its part, and the closure
    must still be the explicit one."""
    model = build_polyhedral_model("tetrahedron-skeleton")
    blocks = (
        (
            MarkerBlock("edge", "inner", "V", swap_partner="outer"),
            MarkerBlock("edge", "outer", "V", swap_partner="inner"),
            FreeOrbitBlock(m, "V"),
        ),
        (
            MarkerBlock("corner", "inner", "W", swap_partner="outer"),
            MarkerBlock("corner", "outer", "W", swap_partner="inner"),
            MarkerBlock("face", "base", "W"),
            FreeOrbitBlock(m, "W"),
        ),
    )
    copies = (("inner", 1), ("base", 2), ("outer", 3))
    return VertexAssignment(12 + 24 * m, "S4", "one-sided", model, copies, blocks)


@pytest.mark.parametrize(
    "build, m",
    [(edge_skeleton, 1), (edge_skeleton, 2), (one_sided_skeleton, 1)],
    ids=["edge-skeleton-1", "edge-skeleton-2", "one-sided-1"],
)
def test_odd_images_closing_as_the_explicit_closure(build, m):
    a = build(m)
    assert fixers(a)  # the edge markers on the half-turn axes
    neighbors = reference_neighbors(a)
    n = a.n
    rng = Random(f"odd images:{a.case_name}:{n}")
    edges = [(v, w) for v in range(n) for w in range(n, 2 * n) if v < 6 or w < n + 6]
    edges += [(rng.randrange(n), rng.randrange(n, 2 * n)) for _ in range(40)]
    for v, w in edges:  # one end or both on a marker, then seeded pairs
        forced = forced_fix_closure(a, (v, w))
        vertices, shape = reference_closure(a, (v, w), True, neighbors)
        assert (forced.vertices, forced.shape) == (vertices, shape), (v, w)


def counting_steps(monkeypatch):
    """The vertices ``_forced_neighbors`` is asked about, from now on."""
    steps = []
    honest = hypotheses._forced_neighbors

    def counting(assignment, odd, x):
        steps.append(x)
        return honest(assignment, odd, x)

    monkeypatch.setattr(hypotheses, "_forced_neighbors", counting)
    return steps


@pytest.mark.parametrize("case", ["dodecahedron-2", "skeleton-0", "cube-6"])
def test_the_closure_takes_as_many_steps_at_every_n(case, monkeypatch):
    # A wholly forced part stops the closure, and every core vertex has a
    # fixer, so the closure takes the same steps, on the same core vertices,
    # whatever the number of orbits.
    steps = counting_steps(monkeypatch)
    group, n0 = _smallest(case)
    orbit = _orbit(case, group)
    taken = []
    for n in (n0 + orbit, n0 + 50 * orbit, n0 + 5000 * orbit):
        a = build_assignment(group, n)
        steps.clear()
        for edge in _recorded_edges(a, case):
            forced_fix_closure(a, edge)
        taken.append([a.label_of(x) for x in steps])
    assert taken[0] == taken[1] == taken[2] != []


def _witness_placements():
    """``_placements()``, plus an admitted ``n`` near 100000 per case."""
    out = _placements()
    for case in sorted(RECIPES):
        if case != "tetrahedron-6":  # A4 n = 6 only
            group, _ = _smallest(case)
            out.append((case, group, _near(case, group, 100000)))
    return out


@pytest.mark.parametrize("case, group, n", _witness_placements(), ids=str)
def test_the_witness_closure_takes_at_most_four_steps(case, group, n, monkeypatch):
    a = build_assignment(group, n)
    assert a.case_name == case
    edge = _recorded_edge(a, "witness", RECIPES[case].witness)
    steps = counting_steps(monkeypatch)
    forced_fix_closure(a, edge)
    assert 1 <= len(steps) <= 4, (edge, steps)


def test_a_whole_part_that_could_still_embed_is_an_assertion(monkeypatch):
    # A doctored neighbor rule by which a vertex forces only the first two
    # vertices of the opposite part, in complement form: the two would
    # still embed in a circle, which no placement allows.
    a = build_assignment("A5", 90)
    n = a.n

    def leaves_two(assignment, odd, x):
        return True, set(range(n + 2, 2 * n)) if x < n else set(range(2, n))

    monkeypatch.setattr(hypotheses, "_forced_neighbors", leaves_two)
    with pytest.raises(AssertionError, match=r"edge \(0, 90\) forces all but 88 of"):
        forced_fix_closure(a, (0, n))


def _lemma_sizes(group):
    """Every admitted ``n <= 1200`` of ``group``, and in each admitted
    residue class (mod 24 for A4 and S4, whose cube recipes go by
    ``n mod 24``, and mod 60 for A5) the ``n`` at 100000 and at ``10**18``
    or just past them."""
    modulus = 60 if group == "A5" else 24
    sizes = [n for n in range(1, 1201) if theorem_predicate(n, group)]
    for target in (100_000, 10**18):
        base = target - target % modulus
        sizes += [
            base + r for r in range(modulus) if theorem_predicate(base + r, group)
        ]
    return sizes


@pytest.mark.parametrize("group", GROUPS)
def test_the_kept_witness_closure_is_the_explicit_one_at_every_n(group, monkeypatch):
    # The record keeps each recorded witness pair's closure in within-part
    # numbers, made once per recipe; every placement shifts it by n.  By
    # the lemma of RecipeChecks.witness this is the closure the explicit
    # route computes at that n, with the same condition and psi.
    sizes = _lemma_sizes(group)
    placed = [place(group, n) for n in sizes]
    kept = [verify_construction(a).subgroup_witness for a in placed]
    for a, witness in zip(placed, kept):  # each edge's closure is in the record
        v, w = witness.edge
        assert (v, w - a.n) in [edge for edge, *_ in kept_checks(a).witness], a.n
    # An equal copy of each recipe is another object, so no kept record is
    # the live recipe's: the witness is then computed from the placement.
    for case, recipe in RECIPES.items():
        monkeypatch.setitem(RECIPES, case, replace(recipe))
    seen = set()
    for a, witness in zip(placed, kept):
        explicit = check_subgroup_theorem(a)
        assert explicit.forced == forced_fix_closure(a, explicit.edge), a.n
        assert witness == explicit, a.n
        seen.add((a.case_name, a.label_of(witness.edge[0]), witness.condition))
    cases = {case for case, *_ in seen}
    assert cases == {recipe_case(group, n) for n in sizes}
    # every recorded pair of every two-pair recipe is met
    assert len(seen) == sum(len(RECIPES[case].witness) for case in cases)
