"""Top-level decision API: pipeline verdicts, the closed-form predicate,
and range sweeps."""

import dataclasses
import importlib
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bipartite_tsg.assignments import RECIPES
from bipartite_tsg.decision import (
    GROUPS,
    InternalMismatch,
    decide,
    sweep,
    theorem_predicate,
)

# the modules themselves, for monkeypatching
decide_module = importlib.import_module("bipartite_tsg.decision")
necessity_module = importlib.import_module("bipartite_tsg.necessity")


def test_groups_constant():
    assert GROUPS == ("A4", "S4", "A5")


# -------------------------------------------------------- closed-form theorem


def test_tetrahedral_predicate_frozen_values():
    yes = {4, 6, 8, 12, 14, 16, 18, 20, 24, 26, 28, 30, 32, 36, 110 * 12 + 2}
    no = {0, 1, 2, 3, 5, 7, 9, 10, 11, 13, 15, 21, 22, 23, 25}
    assert all(theorem_predicate(n, "A4") for n in yes)
    assert not any(theorem_predicate(n, "A4") for n in no)


def test_octahedral_predicate_differs_only_at_six():
    for n in range(0, 200):
        expected = theorem_predicate(n, "A4") and n != 6
        assert theorem_predicate(n, "S4") == expected


def test_icosahedral_predicate_frozen_values():
    yes = {32, 42, 50, 60, 62, 72, 80, 90, 92, 102, 110, 120, 600}
    no = {0, 2, 12, 20, 30, 31, 33, 40, 45, 52, 61, 70, 82, 100}
    assert all(theorem_predicate(n, "A5") for n in yes)
    assert not any(theorem_predicate(n, "A5") for n in no)


def test_predicate_rejects_unknown_group():
    with pytest.raises(ValueError):
        theorem_predicate(10, "C7")


# ----------------------------------------------------------------- decide()


def test_pipeline_agrees_with_predicate_up_to_sixty():
    for group in GROUPS:
        for n in range(0, 61):
            verdict = decide(n, group)  # strict: any disagreement raises
            assert verdict.realizable == theorem_predicate(n, group)


def test_allowed_verdict_carries_construction_and_profile():
    verdict = decide(16, "A4")
    assert verdict.realizable
    assert verdict.citations == ("residue-admitted",)
    assert verdict.necessity.witness_profile is not None
    assert verdict.construction is not None
    assert [c.condition for c in verdict.construction.conditions] == [1, 2, 3, 4, 5]
    assert verdict.diagnostic is None


def test_denied_verdict_has_no_construction_and_cites_rules():
    verdict = decide(7, "A4")
    assert not verdict.realizable
    assert verdict.construction is None
    assert "residue-excluded" in verdict.citations

    six = decide(6, "S4")
    assert not six.realizable
    assert six.citations == ("s4-six-exclusion",)
    assert decide(6, "A4").realizable


def test_verdict_dict_shape_for_an_allowed_pair():
    d = decide(12, "A4").as_dict()
    assert set(d) == {"n", "group", "realizable", "rules", "profile", "construction"}
    assert d["n"] == 12 and d["group"] == "A4" and d["realizable"] is True
    assert all(set(rule) == {"id", "citation"} for rule in d["rules"])
    assert d["profile"]["residue"] == "0 (mod 12)"
    assert set(d["profile"]["v"]) == set(d["profile"]["w"])
    construction = d["construction"]
    assert construction["case"] == "skeleton-0"
    assert len(construction["hypotheses"]["conditions"]) == 5
    # every vertex sits in a free orbit here, so no axis circle routes arcs
    assert construction["hypotheses"]["arcs"] == 0
    assert construction["witness"] is not None
    assert construction["step_down_edge"] == [0, 12]

    marked = decide(16, "A4").as_dict()["construction"]
    assert marked["case"] == "skeleton-4"
    assert marked["hypotheses"]["arcs"] >= 1


def test_verdict_dict_shape_for_a_denied_pair():
    d = decide(10, "A5").as_dict()
    assert set(d) == {"n", "group", "realizable", "rules"}
    assert d["realizable"] is False
    assert d["rules"]


def test_verdicts_are_deterministic():
    assert decide(32, "A5").as_dict() == decide(32, "A5").as_dict()
    assert decide(9, "S4").as_dict() == decide(9, "S4").as_dict()


def test_decide_input_validation():
    with pytest.raises(ValueError, match="part size must be nonnegative"):
        decide(-1, "A4")
    with pytest.raises(ValueError):
        decide(4, "D6")


@pytest.mark.parametrize(
    "n, group", [(True, "A4"), (False, "S4"), (62.0, "A5"), ("12", "A4")]
)
def test_decide_rejects_non_integer_part_sizes(n, group):
    # bool is an int subclass: True used to be decided as n = 1
    with pytest.raises(ValueError, match="part size must be an integer"):
        decide(n, group)


@pytest.mark.parametrize(
    "n, group", [(True, "A4"), (12.0, "A4"), ("12", "S4"), (-12, "A5")]
)
def test_theorem_predicate_validates_the_part_size_as_decide_does(n, group):
    with pytest.raises(ValueError, match="part size must be"):
        decide(n, group)
    with pytest.raises(ValueError, match="part size must be"):
        theorem_predicate(n, group)


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=2**62, max_value=2**200),
    ),
    group=st.sampled_from(GROUPS),
)
def test_pipeline_matches_predicate_on_random_inputs(n, group):
    assert decide(n, group).realizable == theorem_predicate(n, group)


# ----------------------------------------------------- injected build failure


def _broken_place(group, n):
    raise AssertionError("injected build failure")


def test_strict_decide_raises_on_pipeline_disagreement(monkeypatch):
    monkeypatch.setattr(decide_module, "place", _broken_place)
    with pytest.raises(InternalMismatch) as exc:
        decide(16, "A4")
    assert exc.value.expected is True
    assert exc.value.verdict.realizable is False
    assert "injected build failure" in str(exc.value)


def test_lenient_decide_reports_the_diagnostic(monkeypatch):
    monkeypatch.setattr(decide_module, "place", _broken_place)
    with pytest.raises(InternalMismatch) as exc:
        decide(16, "A4")
    verdict = exc.value.verdict
    assert not verdict.realizable
    assert verdict.diagnostic == "AssertionError: injected build failure"
    assert "diagnostic" in verdict.as_dict()


def test_a_fixed_step_down_edge_is_a_mismatch_naming_no_such_edge(monkeypatch):
    # the skeleton-4 corners on one third-turn axis: that rotation fixes
    # the pair pointwise
    same_axis = (("corner", "inner", 0), ("corner", "outer", 0))
    recipe = RECIPES["skeleton-4"]
    monkeypatch.setitem(
        RECIPES, "skeleton-4", dataclasses.replace(recipe, step_down=same_axis)
    )
    with pytest.raises(InternalMismatch) as exc:
        decide(16, "A4")
    assert exc.value.verdict.diagnostic.startswith("NoSuchEdge: ")
    assert "NoSuchEdge" in str(exc.value)


def test_denied_pairs_are_unaffected_by_build_failures(monkeypatch):
    monkeypatch.setattr(decide_module, "place", _broken_place)
    verdict = decide(7, "A4")  # never builds, so never trips the mock
    assert not verdict.realizable and verdict.diagnostic is None


@pytest.mark.parametrize("n, group", [(16, "A4"), (18, "A4"), (62, "A5"), (7, "A4")])
def test_decide_runs_the_necessity_engine_once(n, group, monkeypatch):
    # counted wherever the package reads it, so a second verdict made while
    # building the placement is seen too
    calls = []
    honest = necessity_module.necessity_verdict

    def counting(*args):
        calls.append(args)
        return honest(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("bipartite_tsg") and hasattr(module, "necessity_verdict"):
            monkeypatch.setattr(module, "necessity_verdict", counting)
    decide(n, group)
    assert calls == [(n, group)]


# Admitted part sizes past the platform's index range: a report of one
# recipe has the same form at every n, numbers apart.
HUGE_BASES = (2**63, 2**64, 10**100)


def _numbers_blanked(value):
    """``value`` with every integer, and every digit run in a string,
    written as 0."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return 0
    if isinstance(value, str):
        return re.sub(r"[0-9]+", "0", value)
    if isinstance(value, list):
        return [_numbers_blanked(x) for x in value]
    return {key: _numbers_blanked(x) for key, x in value.items()}


def test_every_recipe_decides_past_the_index_range_in_a_report_of_fixed_form():
    forms = {}  # (group, recipe) -> report forms, and the bases that met it
    for group in GROUPS:
        for base in HUGE_BASES:
            for n in range(base, base + 60):
                verdict = decide(n, group)
                assert verdict.realizable == theorem_predicate(n, group), n
                if verdict.realizable:
                    report = verdict.as_dict()
                    form = json.dumps(_numbers_blanked(report))
                    met = forms.setdefault((group, report["construction"]["case"]), {})
                    met.setdefault(form, set()).add(base)
    # every recipe but tetrahedron-6, which serves n = 6 alone
    assert {case for _, case in forms} == set(RECIPES) - {"tetrahedron-6"}
    for key, met in forms.items():
        assert list(met.values()) == [set(HUGE_BASES)], key


# ------------------------------------------------------------------- sweeps


def test_sweep_rows_cover_one_to_max_in_order():
    table = sweep("A4", 30)
    assert table.group == "A4" and table.n_max == 30
    assert [v.n for v in table.rows] == list(range(1, 31))
    assert table.realizable_values() == (4, 6, 8, 12, 14, 16, 18, 20, 24, 26, 28, 30)
    assert table.residue_summary() == {0: 2, 2: 2, 4: 3, 6: 3, 8: 2}


def test_octahedral_sweep_drops_six():
    table = sweep("S4", 30)
    assert table.realizable_values() == (4, 8, 12, 14, 16, 18, 20, 24, 26, 28, 30)
    assert table.residue_summary() == {0: 2, 2: 2, 4: 3, 6: 2, 8: 2}


def test_icosahedral_sweep_starts_above_thirty():
    table = sweep("A5", 62)
    assert table.realizable_values() == (32, 42, 50, 60, 62)
    assert table.residue_summary() == {0: 1, 2: 1, 32: 1, 42: 1, 50: 1}


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep("A4", -1)
    assert sweep("A4", 0).rows == ()


@pytest.mark.parametrize("n_max", [0, 12])
def test_sweep_rejects_unknown_groups_at_every_limit(n_max):
    with pytest.raises(ValueError, match="unknown group 'D6'"):
        sweep("D6", n_max)


@pytest.mark.parametrize("n_max", [True, 12.0, "12"])
def test_sweep_rejects_non_integer_limits(n_max):
    with pytest.raises(ValueError, match="sweep limit must be an integer"):
        sweep("A4", n_max)
