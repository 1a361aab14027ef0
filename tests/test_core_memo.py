"""The per-core records: the transversal action, the fixed-count tables,
the counting row and conditions 1-5 are checked once per placement core,
kept in one record per core that a placement looks up once, and reusing
them changes no report."""

import json
import sys
from dataclasses import replace
from threading import Thread

import pytest

from bipartite_tsg import assignments
from bipartite_tsg.assignments import (
    CORE_CACHE_SIZE,
    RECIPES,
    FreeOrbitBlock,
    VertexAssignment,
    build_assignment,
    class_label,
    core_checks,
    layout_slots,
    place,
    verify_fixed_counts,
)
from bipartite_tsg.decide import (
    GROUPS,
    InternalMismatch,
    decide,
    sweep,
    theorem_predicate,
)
from bipartite_tsg.hypotheses import check_edge_embedding_hypotheses

from test_hypotheses import doctor_slot_table

# Distinct cores of the admitted placements up to n = 1200 over the three
# groups: one per recipe and target counting table (A4 and S4 share the
# order-24 cores), whether or not a free part holds an orbit.
CORES_UP_TO_1200 = 17


def _admitted(group, n_max):
    return [n for n in range(1, n_max + 1) if theorem_predicate(n, group)]


def test_a_warm_memo_gives_the_cold_report_for_every_admitted_n():
    cold = {}
    for group in GROUPS:
        for n in _admitted(group, 500):
            core_checks.cache_clear()
            cold[group, n] = decide(n, group).as_dict()
    core_checks.cache_clear()
    for group in GROUPS:  # each core is checked at its smallest n only
        for n in _admitted(group, 500):
            assert decide(n, group).as_dict() == cold[group, n], (group, n)


def test_a_sweep_to_1200_checks_each_distinct_core_once():
    keys = {
        place(group, n).core_key
        for group in GROUPS
        for n in _admitted(group, 1200)
    }
    assert len(keys) == CORES_UP_TO_1200 < CORE_CACHE_SIZE
    core_checks.cache_clear()
    layout_slots.cache_clear()
    for group in GROUPS:
        sweep(group, 1200)
    # fewer cores than the bound, so none was dropped and none made twice
    info = core_checks.cache_info()
    assert info.misses == info.currsize == CORES_UP_TO_1200
    # the cores share 8 layouts, and each layout's slot table is built once
    layouts = layout_slots.cache_info()
    assert layouts.misses == layouts.currsize == 8


def test_placements_of_one_class_share_their_core_and_its_checks():
    a, b = build_assignment("A5", 482), build_assignment("A5", 542)
    assert a.case_name == b.case_name == "dodecahedron-2"
    assert a.core_key == b.core_key
    assert a.core is b.core and a.transversal is b.transversal
    g = a.model.group.generators[0]
    assert a.induced_perm(g).degree == 2 * 482 and b.induced_perm(g).degree == 2 * 542
    first, second = map(check_edge_embedding_hypotheses, (a, b))
    assert first.case_name == second.case_name == "dodecahedron-2"
    assert first.conditions == second.conditions and first.arcs == second.arcs
    assert core_checks.cache_info().currsize == 1


def test_a_warm_decide_composes_no_permutation_of_every_vertex(monkeypatch):
    # Condition 4 reads the core's fixed table, so neither a core's first
    # call nor a later one builds anything of size 2n: a call reads the
    # transversal and the label rule alone.  A4 1164 and S4 1180 are the
    # skeleton cores, the only ones with edge-interchanging elements.
    calls = []
    composed = VertexAssignment.induced_perm

    def counting(self, e):
        calls.append((self.case_name, e))
        return composed(self, e)

    monkeypatch.setattr(VertexAssignment, "induced_perm", counting)
    core_checks.cache_clear()
    pairs = (("A4", 1164), ("S4", 1180), ("A5", 1142))
    for group, n in pairs:
        assert decide(n, group).realizable
    assert calls == []  # cold
    for group, n in pairs:
        assert decide(n, group).realizable
    assert calls == []  # warm


def test_a_doctored_class_fixed_count_raises_on_every_call_and_is_not_kept(
    monkeypatch,
):
    # The least third-turn of skeleton-4 is made to fix an inner corner it
    # moves, through the fixer masks of the layout's slot table.  The other
    # third-turns of its class still fix one corner of each part, so the
    # class's counts disagree in V.  The table that fails is not kept, so
    # every placement of the core fails again.
    a = build_assignment("S4", 16)
    model, table = a.model, a.slot_table
    third_turn = next(
        cls[0]
        for cls in model.group.conjugacy_classes()
        if class_label(model, cls[0]) == "rotation-3"
    )
    r = model.group.index(third_turn)
    extra = table.number[("corner", "inner", 1)]
    assert table.images[r][extra] != extra
    bit = 1 << (r - 1)  # model.nontrivial[r - 1]
    assert not table.fixers[extra] & bit
    fixers = list(table.fixers)
    fixers[extra] |= bit
    doctored = table._replace(fixers=tuple(fixers))

    def doctored_slots(layout):
        honest = layout_slots(layout)
        return doctored if honest is table else honest

    monkeypatch.setattr(assignments, "layout_slots", doctored_slots)
    message = "conjugate elements disagree in rotation-3"
    for n in (16, 28, 16):
        with pytest.raises(AssertionError, match=message):
            verify_fixed_counts(build_assignment("S4", n))
        with pytest.raises(InternalMismatch, match=message):
            decide(n, "S4")
    core = a.core
    assert build_assignment("S4", 28).core is core
    assert core.transversal is a.transversal  # the check that passed is kept
    assert core.fixed is None and core.row is None


def test_an_empty_free_part_shares_its_core():
    # dodecahedron-2 at n = 62 has no W orbit, and at n = 122 one: the key
    # holds each free part, not whether it holds an orbit
    small, large = build_assignment("A5", 62), build_assignment("A5", 122)
    assert small.core_key == large.core_key
    assert small.core is large.core
    assert core_checks.cache_info().currsize == 1


def _cores_with_an_empty_free_part():
    """Each core whose smallest admitted ``n`` leaves a free part without an
    orbit: its group, that ``n`` and the next ``n`` of the core's class."""
    smallest, larger = {}, {}
    for n in range(1, 200):
        for group in GROUPS:
            if theorem_predicate(n, group):
                a = place(group, n)
                first = smallest.setdefault(a.core_key, a)
                if first is not a and first.target_group == group:
                    larger.setdefault(a.core_key, n)
    return [
        (a.target_group, a.n, larger[key])
        for key, a in smallest.items()
        if key in larger
        and any(isinstance(b, FreeOrbitBlock) and not b.count for b in a.all_blocks())
    ]


EMPTY_PART_CORES = _cores_with_an_empty_free_part()


def test_fourteen_cores_have_a_free_part_empty_at_their_smallest_n():
    assert len(EMPTY_PART_CORES) == 14


@pytest.mark.parametrize("group, small, large", EMPTY_PART_CORES)
def test_both_placements_of_an_empty_part_core_read_one_record(group, small, large):
    def report(n):
        return json.dumps(decide(n, group).as_dict(), indent=2)

    cold = {}
    for n in (small, large):
        core_checks.cache_clear()
        cold[n] = report(n)
    for order in ((large, small), (small, large)):
        core_checks.cache_clear()
        for n in order:
            assert report(n) == cold[n], (group, n)
        info = core_checks.cache_info()
        assert info.misses == info.currsize == 1, order


def test_a_core_that_acts_unfaithfully_fails_only_a_placement_without_free_orbits(
    monkeypatch,
):
    # Every element of the doctored slot table fixes every slot, so the core
    # of dodecahedron-32 acts trivially, while free labels still move along
    # the product table: the transversal check passes and is kept.  At
    # n = 32 no free orbit is placed, so the action on the vertices is not
    # faithful; at n = 92 a free orbit in each part makes it faithful.
    small, large = place("A5", 32), place("A5", 92)
    assert small.core is large.core
    identity = tuple(range(len(small.slot_table.slots)))
    doctor_slot_table(monkeypatch, small, [identity] * small.model.group.order)
    message = "the action on the vertices is not faithful"
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            small.transversal
    assert large.transversal is small.core.transversal
    assert small.core.core_faithful is False
    with pytest.raises(InternalMismatch, match=message):
        decide(32, "A5")  # reads the kept record


def test_the_bench_sweep_checks_each_core_it_meets_once():
    # The benchmark's sweep decides n <= 12 for each group as its warm-up,
    # then 1..500 in GROUPS order.  With one record per core the pass checks
    # 13 cores, not 27, and builds the 4 slot tables the warm-up left.
    core_checks.cache_clear()
    layout_slots.cache_clear()
    for group in GROUPS:
        for n in range(1, 13):
            decide(n, group)
    records, layouts = core_checks.cache_info().misses, layout_slots.cache_info().misses
    for group in GROUPS:
        for n in range(1, 501):
            decide(n, group)
    assert core_checks.cache_info().misses - records == 13
    assert layout_slots.cache_info().misses - layouts == 4


def test_a_recipe_s_blocks_are_checked_once_and_never_on_a_warm_call(monkeypatch):
    # A recipe's template checks its blocks on the recipe's first placement;
    # every later placement reads the template and checks only its sizes.
    checked = []
    honest = assignments._check_blocks

    def counting(model, copies, blocks):
        checked.append(blocks)
        honest(model, copies, blocks)

    monkeypatch.setattr(assignments, "_check_blocks", counting)
    monkeypatch.setattr(assignments, "_TEMPLATES", {})
    for group in GROUPS:
        sweep(group, 500)
    assert len(checked) == len(RECIPES)
    assert set(assignments._TEMPLATES) == set(RECIPES)
    for group in GROUPS:
        sweep(group, 500)
    assert len(checked) == len(RECIPES)


# Two corners of skeleton-4 on one third-turn axis, which that rotation fixes
# pointwise: no step-down edge.
_SAME_AXIS = (("corner", "inner", 0), ("corner", "outer", 0))


def test_a_warm_decide_sees_a_patched_step_down_edge_at_once(monkeypatch):
    assert decide(16, "A4").realizable
    misses = core_checks.cache_info().misses
    recipe = RECIPES["skeleton-4"]
    with monkeypatch.context() as patch:
        patch.setitem(RECIPES, "skeleton-4", replace(recipe, step_down=_SAME_AXIS))
        with pytest.raises(InternalMismatch, match="NoSuchEdge"):
            decide(16, "A4")
    assert RECIPES["skeleton-4"] is recipe
    assert decide(16, "A4").realizable
    assert core_checks.cache_info().misses == misses  # each call after the first warm


def test_a_patched_recipe_is_placed_and_reported_at_once(monkeypatch):
    # cube-2 with its W blocks in reverse order is another core, and a
    # changed stated count is a discrepancy of the next report, also of a
    # placement made before the patch; the recipe put back is placed and
    # reported as before.
    recipe = RECIPES["cube-2"]
    before = place("S4", 26)
    assert verify_fixed_counts(before).discrepancies == ()
    stated = {**recipe.stated, "rotation-3": (0, 0)}
    with monkeypatch.context() as patch:
        patch.setitem(RECIPES, "cube-2", replace(recipe, stated=stated))
        for a in (before, place("S4", 26)):
            (row,) = verify_fixed_counts(a).discrepancies
            assert (row.label, row.stated) == ("rotation-3", (0, 0))
        reversed_w = replace(recipe, w_core=recipe.w_core[::-1])
        patch.setitem(RECIPES, "cube-2", reversed_w)
        after = place("S4", 26)
        assert after.blocks[1][:3] == reversed_w.w_core
        assert after.core_key != before.core_key
    again = place("S4", 26)
    assert again.blocks == before.blocks and again.core_key == before.core_key
    assert verify_fixed_counts(again).discrepancies == ()


def test_a_cleared_record_makes_the_template_read_its_facts_again():
    # The facts a template keeps are those of the record they were read
    # from; a placement of a cleared record reads them from its own.
    warm = place("A4", 16)
    assert decide(16, "A4").realizable
    facts = warm.core_facts
    assert facts.core is warm.core
    core_checks.cache_clear()
    cold = place("A4", 16)
    assert cold.template is warm.template and cold.core is not warm.core
    assert decide(16, "A4").realizable
    assert cold.core_facts is not facts and cold.core_facts.core is cold.core
    assert cold.core_facts.masks == facts.masks


# Every admitted pair up to n = 180: all 17 cores, most of them met at
# several n, and A4 and S4 share the order-24 cores.
SHARED_CORE_PAIRS = tuple(
    (group, n) for n in range(1, 181) for group in GROUPS if theorem_predicate(n, group)
)


def test_a_warm_admitted_decide_looks_its_core_up_once():
    for group, n in SHARED_CORE_PAIRS:
        decide(n, group)
    for group, n in SHARED_CORE_PAIRS:
        hits, misses = core_checks.cache_info()[:2]
        assert decide(n, group).realizable
        after = core_checks.cache_info()
        assert (after.hits - hits, after.misses - misses) == (1, 0), (group, n)


def test_threads_deciding_pairs_that_share_cores_agree_with_one_thread(monkeypatch):
    def report(group, n):
        return json.dumps(decide(n, group).as_dict(), sort_keys=True)

    expected = {pair: report(*pair) for pair in SHARED_CORE_PAIRS}
    # the threads race to make every template and fill every record
    monkeypatch.setattr(assignments, "_TEMPLATES", {})
    core_checks.cache_clear()
    wrong = []

    def work(offset):
        try:
            pairs = SHARED_CORE_PAIRS[offset:] + SHARED_CORE_PAIRS[:offset]
            for pair in pairs[::2] + pairs[1::2]:
                if report(*pair) != expected[pair]:
                    wrong.append(pair)
        except Exception as exc:  # a thread's error would otherwise be lost
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert core_checks.cache_info().currsize <= CORE_CACHE_SIZE
