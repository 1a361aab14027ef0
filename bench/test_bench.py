"""Tests of the benchmark itself: seeded inputs, the relabelling, the
correctness gate, the traced replay and the metric names.

Run from the root of the repository: ``python -m pytest bench``.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedScale  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckAut,
    LargeN,
    Sweep,
    cycle_text,
    recipe_case,
    relabel,
    report_error,
    verdict_error,
)

from bipartite_tsg import decide, theorem_predicate  # noqa: E402
from bipartite_tsg.bipartite import cycle_profile, validate_automorphism  # noqa: E402
from bipartite_tsg.notation import parse_cycles  # noqa: E402
from bipartite_tsg.perms import Perm  # noqa: E402


@pytest.fixture(scope="module")
def check_aut():
    return CheckAut(7)


def test_seed_determines_every_workloads_inputs(check_aut):
    assert Sweep(1).pass_items(0) == Sweep(2).pass_items(3)
    assert LargeN(7).pass_items(0) == LargeN(7).pass_items(0)
    assert LargeN(7).pass_items(0) != LargeN(8).pass_items(0)
    again = CheckAut(7)
    assert again.pass_items(2) == check_aut.pass_items(2)
    assert check_aut.pass_items(2) != check_aut.pass_items(3)
    assert CheckAut(8).pass_items(2) != check_aut.pass_items(2)


def test_large_n_draws_two_admitted_n_per_recipe_case():
    items = LargeN(3).pass_items(0)
    cases = {(group, recipe_case(group, n)) for group, n in items}
    assert len(cases) == 24 and len(items) == 48 == len(set(items))
    assert all(theorem_predicate(n, group) and 1000 <= n <= 1200 for group, n in items)


def test_relabelling_keeps_each_cycle_profile(check_aut):
    rng = Random(5)
    for images, n, _ in check_aut.bases:
        relabelled = relabel(images, n, rng)
        before = cycle_profile(validate_automorphism(Perm(images), n))
        after = cycle_profile(validate_automorphism(Perm(relabelled), n))
        assert after == before
        assert parse_cycles(cycle_text(relabelled, n), n) == Perm(relabelled)


def test_check_aut_inputs_have_known_answers(check_aut):
    answers = [expected for _, _, expected in check_aut.bases]
    assert answers.count(False) == 4
    for item in check_aut.pass_items(0)[::40]:
        assert check_aut.error(item, check_aut.call(item)) is None


def test_gate_rejects_a_doctored_verdict():
    admitted = decide(16, "A4")
    assert verdict_error("A4", 16, admitted) is None
    assert verdict_error("A4", 16, replace(admitted, realizable=False))
    fewer = replace(
        admitted.construction, conditions=admitted.construction.conditions[:4]
    )
    assert verdict_error("A4", 16, replace(admitted, construction=fewer))
    unwitnessed = replace(admitted.construction, subgroup_witness=None)
    assert verdict_error("A4", 16, replace(admitted, construction=unwitnessed))
    denied = decide(10, "A4")
    assert verdict_error("A4", 10, denied) is None
    assert verdict_error("A4", 10, replace(denied, realizable=True))

    payload = json.dumps(admitted.as_dict())
    assert report_error("A4", 16, admitted, payload) is None
    flipped = json.dumps({**admitted.as_dict(), "realizable": False})
    assert report_error("A4", 16, admitted, flipped)
    assert report_error("A4", 16, admitted, payload[:-1])


def test_gate_rejects_a_doctored_check_aut_answer(check_aut):
    items = check_aut.pass_items(0)
    realizable, not_realizable = items[0], items[-1]
    for item in (realizable, not_realizable):
        result, report = check_aut.call(item)
        assert check_aut.error(item, (result, report)) is None
        flipped = {**report, "realizable": not report["realizable"]}
        assert check_aut.error(item, (result, flipped))
        assert check_aut.error(item, (result, {**report, "cycles": "(v1 v2)"}))


def test_replay_answers_as_the_call_does_with_one_trace_per_input():
    tracer = Tracer()
    large = LargeN(1)
    for item in (("A4", 16), ("S4", 32), ("A5", 72), ("A5", 40)):
        assert large.summary(large.replay(item, tracer)) == large.summary(
            large.call(item)
        )
    roots = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in roots] == ["decide"] * 4
    for trace_id, _, parent_id, *_ in tracer.spans:
        if parent_id is not None:
            assert tracer.spans[parent_id][0] == trace_id
    assert tracer.counts["hypotheses.step_down.calls"] == 1
    assert tracer.counts["assignments.fixed_counts.discrepancies"] == 1
    assert tracer.counts["necessity.calls"] == 4
    assert set(tracer.counts) == set(run.COUNTS)


def test_every_span_is_a_root_or_a_reported_stage(check_aut):
    tracer = Tracer()
    LargeN(1).replay(("A4", 16), tracer)
    for item in check_aut.pass_items(0)[:3]:
        check_aut.replay(item, tracer)
    names = {s[3] for s in tracer.spans}
    roots = {s[3] for s in tracer.spans if s[2] is None}
    assert roots == {"decide", "cli.check_aut"}
    assert names - roots == set(run.BUSY_METRICS)
    assert {name.split(".")[0] for name in names} == set(run.LAYERS)


def test_tail_percentile_keeps_ten_samples_of_a_pass_beyond_it():
    assert [run.tail_percentile(n) for n in (1500, 855, 48)] == [99, 98, 79]
    values = [float(i) for i in range(48)]
    assert run.nearest_rank(values, 79) == (37.0, 10)


def test_speed_scale_returns_each_timed_call_once_in_order():
    scale = SpeedScale()
    scaled = []
    for key in range(7):
        scaled += scale.add(key, 0.03)
    scaled += scale.flush()
    assert [key for key, _ in scaled] == list(range(7))
    assert scale.flush() == []
    assert scale.raw_s == pytest.approx(0.21)
    assert sum(t for _, t in scaled) == pytest.approx(scale.scaled_s)
    # one chunk per CHUNK_S of work, each with its own factor
    assert len({t for _, t in scaled}) == 2


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
