"""Acceptance suite: the ten primary adequacy criteria.

Each test covers one criterion and prints a single ``[PASS]``/``[FAIL]``
line (visible with ``pytest -s`` or on failure).  Criteria with stated time
budgets assert them with ``time.perf_counter``.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bipartite_tsg.assignments import (
    build_assignment,
    check_orbit_count,
    verify_fixed_counts,
)
from bipartite_tsg.decide import GROUPS, decide, sweep, theorem_predicate
from bipartite_tsg.hypotheses import (
    check_edge_embedding_hypotheses,
    check_subgroup_theorem,
)
from bipartite_tsg.necessity import (
    ICOSAHEDRAL_ORBIT_SIZES,
    enumerate_profiles,
    necessity_verdict,
    partition_feasible,
    s4_burnside_orbits,
    s4_n6_analysis,
)
from bipartite_tsg.perms import GroupAction, Perm
from bipartite_tsg.polyhedra import build_polyhedral_model
from bipartite_tsg.realizability import check_realizable

from conftest import (
    build_coset_model,
    expanded_report,
    full_action,
    incidence_fixed_signature,
)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {text}")
        raise
    print(f"\n[PASS] criterion {num}: {text}")


# --------------------------------------------------------------- shared work

_VERIFIED: dict[tuple[str, int], object] = {}


def verified_assignments() -> dict:
    """Placements for every theorem-allowed (group, n) with n <= 200."""
    if not _VERIFIED:
        for group in GROUPS:
            for n in range(0, 201):
                if theorem_predicate(n, group):
                    _VERIFIED[(group, n)] = build_assignment(group, n)
    return _VERIFIED


# ------------------------------------------------------------- the criteria


def test_criterion_1_tetrahedral_profile_table():
    with criterion(
        1, "tetrahedral table: 5 admissible profiles, residues "
        "{2, 6, 4, 8, 0} mod 12, under 1 s",
    ):
        start = time.perf_counter()
        rows = enumerate_profiles("A4")
        elapsed = time.perf_counter() - start
        assert len(rows) == 5
        assert [residue for _, residue in rows] == [2, 6, 4, 8, 0]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_icosahedral_profile_table():
    with criterion(
        2, "icosahedral table: 8 admissible profiles, residues "
        "{2, 50, 42, 30, 32, 20, 12, 0} mod 60, under 1 s",
    ):
        start = time.perf_counter()
        rows = enumerate_profiles("A5")
        elapsed = time.perf_counter() - start
        assert len(rows) == 8
        assert [residue for _, residue in rows] == [2, 50, 42, 30, 32, 20, 12, 0]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


#: SHA-256 over ``json.dumps(v.as_dict(), sort_keys=True)`` for every row of
#: ``sweep(g, 500)``, ``g`` in ``GROUPS`` order: it pins every report byte,
#: so each recorded witness and step-down edge at both of its free-orbit
#: counts.
SWEEP_500_SHA256 = "d87902cae55487790fa99d27382d5dd66fa60b125fb6a245bd0624b78851bda7"

#: The same digest over ``expanded_report(v.as_dict())``: with the witness's
#: forced set listed vertex by vertex, every report is the one written
#: before the complement form.
SWEEP_500_EXPANDED_SHA256 = "47c948dbb3b48a392a611c36da14a91e8a314e94acade3ae4cc0a3677f6f9d53"


def test_criterion_3_decision_matches_the_closed_form_up_to_500():
    with criterion(
        3, "decide(n, group) equals the closed-form classification for "
        "all n <= 500 and all three groups, under 60 s",
    ):
        start = time.perf_counter()
        digest = hashlib.sha256()
        expanded = hashlib.sha256()
        for group in GROUPS:
            table = sweep(group, 500)  # strict: any mismatch raises
            for verdict in table.rows:
                assert verdict.realizable == theorem_predicate(
                    verdict.n, group
                ), (verdict.n, group)
                report = verdict.as_dict()
                digest.update(json.dumps(report, sort_keys=True).encode())
                listed = json.dumps(expanded_report(report), sort_keys=True)
                expanded.update(listed.encode())
            assert not theorem_predicate(0, group)
            assert not decide(0, group).realizable
        elapsed = time.perf_counter() - start
        assert digest.hexdigest() == SWEEP_500_SHA256
        assert expanded.hexdigest() == SWEEP_500_EXPANDED_SHA256
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_constructions_verify_for_all_allowed_n_up_to_200():
    with criterion(
        4, "every theorem-allowed n <= 200 yields a placement passing the "
        "fixed-count table, all five routing conditions, and the exactness "
        "witness, under 60 s",
    ):
        start = time.perf_counter()
        placements = verified_assignments()
        assert placements, "no allowed pairs found"
        for (group, n), assignment in placements.items():
            report = verify_fixed_counts(assignment)
            assert report.rows, (group, n)
            hypo = check_edge_embedding_hypotheses(assignment)
            assert [c.condition for c in hypo.conditions] == [1, 2, 3, 4, 5]
            witness = check_subgroup_theorem(assignment)
            assert witness.condition in (1, 2), (group, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_induced_automorphisms_match_the_nine_patterns():
    with criterion(
        5, "every induced automorphism of every verified placement "
        "(n <= 200) is accepted by the nine-pattern matcher",
    ):
        for (group, n), assignment in verified_assignments().items():
            for e in assignment.model.group:
                if e.is_identity():
                    continue
                result = check_realizable(assignment.induced_aut(e))
                assert result.realizable, (group, n, e)


def test_criterion_6_burnside_oracle_and_the_edge_marker_average():
    with criterion(
        6, "direct orbit counts equal the Burnside average (integral) on "
        "every action in the corpus; dodecahedral edge markers give "
        "(30 + 15*2 + 20*0 + 24*0)/60 = 1",
    ):
        # every polyhedral model action: two-way counting agreement
        for kind in (
            "tetrahedron", "tetrahedron-skeleton", "cube", "dodecahedron"
        ):
            action = build_polyhedral_model(kind).action
            assert action.orbit_count_unionfind() == action.orbit_count_burnside()

        # every sampled placement action, on all 2n vertices
        for (group, n) in (("A4", 16), ("S4", 32), ("A5", 62)):
            assignment = build_assignment(group, n)
            action = full_action(assignment)
            direct = action.orbit_count_unionfind()
            average = action.orbit_count_burnside()
            assert direct == average and average.denominator == 1
            assert check_orbit_count(assignment) == direct

        # the quoted average: one orbit of the 30 edge midpoints
        model = build_polyhedral_model("dodecahedron")
        edges = [p for p in model.action.points if p[0] == "edge"]
        assert len(edges) == 30
        points, index, perms = model.points, model.action.point_index, model.action.perms
        action = GroupAction(model.group, edges, lambda e, p: points[perms[e](index[p])])
        by_order: dict[int, set[int]] = {}
        for e in model.group:
            by_order.setdefault(e.order(), set()).add(action.fixed_count(e))
        assert by_order == {1: {30}, 2: {2}, 3: {0}, 5: {0}}
        sizes = {o: len(model.group.elements_of_order(o)) for o in (2, 3, 5)}
        assert sizes == {2: 15, 3: 20, 5: 24}
        total = Fraction(30 + 15 * 2 + 20 * 0 + 24 * 0, 60)
        assert total == 1
        assert action.orbit_count_burnside() == total
        assert action.orbit_count_unionfind() == 1


def test_criterion_7_octahedral_exclusion_arithmetic_at_six():
    with criterion(
        7, "the two K_{6,6} octahedral branches give orbit counts "
        "2 + m/4 and 3/2 + m/4, and no involution count survives",
    ):
        branches = s4_n6_analysis()
        forms = {b.n4v: b.orbit_form for b in branches}
        assert str(forms[2]) == "2 + 1/4*m2v"
        assert str(forms[0]) == "3/2 + 1/4*m2v"
        assert forms[2].constant == Fraction(2)
        assert forms[0].constant == Fraction(3, 2)
        assert forms[2].coeffs == forms[0].coeffs

        # the symbolic forms agree with the Burnside engine: n = 6 with two
        # fixed vertices per involution, three per order-3 element in V
        for n4v, form in forms.items():
            for m2v in range(0, 7, 2):
                counts = {"2": 2, "3": 3, "4": n4v, "m2": m2v}
                orbits = s4_burnside_orbits(6, counts)
                assert orbits.constant == form.evaluate(m2v=m2v)
                assert not orbits.coeffs

        # every admissible involution count is killed by a named rule
        for branch in branches:
            admissible = set(branch.admissible_m2v)
            killed = {value for value, _ in branch.exclusions}
            assert admissible == killed, branch.label
            assert all(rule.id for _, rule in branch.exclusions)
        verdict = necessity_verdict(6, "S4")
        assert not verdict.allowed
        assert verdict.rules_fired[0].id == "s4-six-exclusion"


def test_criterion_8_icosahedral_small_part_exclusions():
    with criterion(
        8, "10 and 18 are not sums of icosahedral orbit sizes, and the "
        "icosahedral group is rejected for n in {2, 12, 20, 30}",
    ):
        assert ICOSAHEDRAL_ORBIT_SIZES == frozenset({12, 20, 30, 60})
        assert not partition_feasible(10, ICOSAHEDRAL_ORBIT_SIZES)
        assert not partition_feasible(18, ICOSAHEDRAL_ORBIT_SIZES)
        for n in (2, 12, 20, 30):
            assert not decide(n, "A5").realizable


def test_criterion_9_incidence_and_coset_oracles_agree():
    with criterion(
        9, "fixed-count signatures from the incidence models equal those "
        "from the coset-action models, class by class",
    ):
        for kind in ("tetrahedron", "cube", "dodecahedron"):
            incidence = incidence_fixed_signature(build_polyhedral_model(kind))
            coset = build_coset_model(kind)
            assert incidence == coset, kind


def test_criterion_10_property_suite_over_the_construction_corpus():
    with criterion(
        10, "conjugate elements fix equal counts, rotation symmetries "
        "preserve the parts, orbit sizes divide the group order, and "
        "realizability is invariant under within-part relabeling",
    ):
        rng = random.Random(20260825)
        for (group, n), assignment in verified_assignments().items():
            model = assignment.model

            # conjugates fix equal counts
            for cls in model.group.conjugacy_classes():
                counts = {assignment.fixed_counts(e) for e in cls}
                assert len(counts) == 1, (group, n, cls[0])

            # the rotation (parity +1) part preserves the two parts; for the
            # order-12 and order-60 targets that is the whole acting group
            for e in model.group:
                if e.is_identity():
                    continue
                behavior = assignment.induced_aut(e).part_behavior
                if model.parity_of(e) == 1:
                    assert behavior == "preserves", (group, n, e)
                else:
                    assert behavior == "swaps", (group, n, e)
            if group in ("A4", "A5") and model.group.order in (12, 60):
                assert all(
                    assignment.induced_aut(e).part_behavior == "preserves"
                    for e in model.group
                    if not e.is_identity()
                )

            # orbit sizes divide the group order
            for orbit in full_action(assignment).orbits():
                assert model.group.order % len(orbit) == 0, (group, n)

            # realizability is invariant under within-part relabeling
            for e in rng.sample(model.group.elements, 3):
                if e.is_identity():
                    continue
                aut = assignment.induced_aut(e)
                base = check_realizable(aut)
                v_map = rng.sample(range(n), n)
                w_map = rng.sample(range(n), n)
                relabel = Perm(tuple(v_map) + tuple(x + n for x in w_map))
                conjugated = relabel * aut.perm * relabel.inverse()
                relabeled = check_realizable(
                    type(aut)(conjugated, n, aut.part_behavior)
                )
                assert relabeled.realizable == base.realizable
                assert relabeled.matched_cases == base.matched_cases
                assert relabeled.orientation == base.orientation
