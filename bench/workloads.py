"""The benchmark's workloads: seeded inputs, the timed call, the correctness
gate and the traced replay of each call.

Each workload object offers the same methods:

* ``pass_items(k)``: the inputs of pass ``k``, a function of the seed and
  ``k`` only; every pass has the same number of inputs;
* ``call(item)``: the one library call a user makes, which is what is timed;
* ``error(item, output)``: ``None`` when the output is right, else a
  message; the reference is independent of the pipeline;
* ``replay(item, tracer)``: the same decision made through the public stage
  functions, one span per stage;
* ``summary(output)``: a comparable digest, used to check that a replay gave
  the same answer as the call;
* ``memory_peaks(items)``: peak traced allocation (MB) per stage, from
  re-running the allocation-heavy stages under ``tracemalloc``.

Why these three workloads:

* ``sweep`` decides every ``n`` from 1 to 500 for A4, S4 and A5 in the order
  ``sweep()`` uses, as the CLI ``sweep`` and acceptance criterion 3 do.
  1022 of the 1500 calls are necessity-only denials and 478 are small and
  mid-size admitted ``n`` covering every recipe case, so per-call fixed
  costs dominate and work shared across calls would show here.
* ``large-n`` verifies two seeded admitted ``n`` in 1000..1200, one from
  each half of the range, for every (group, recipe case) pair: ``decide``
  followed by its JSON report.
  Per-point action building, the witness search and the A4 step-down with
  its eager n^2 candidate list dominate; necessity does almost nothing.  The
  range stops at 1200 so that peak RSS stays under about 200 MB.  Two inputs
  per pair, not one, so that a tail percentile has ten samples beyond it.
* ``check-aut`` checks automorphism texts: every non-identity induced
  automorphism of one placement per recipe case (verified while the inputs
  are made, expected realizable) and the four hand-checked non-realizable
  examples of the test suite.  Each pass relabels every input by a fresh
  seeded part-preserving conjugation, which keeps the cycle profile and so
  the answer, and keeps a cache keyed on the text from answering repeats.
  This workload bypasses polyhedra, assignments and hypotheses.

Which per-layer metric should move which end-to-end metric:

==========================================  =================================
per-layer metric (traced run)               end-to-end metric on workload
==========================================  =================================
necessity.calls, necessity.busy_ms          latency_p50_ms on sweep; none on
                                            large-n
polyhedra.model_build_ms                    setup_s on every workload
assignments.build.busy_ms,                  latency_p50_ms on large-n,
assignments.build.point_images,             items_per_s on sweep
assignments.build.peak_alloc_mb
assignments.fixed_counts.busy_ms,           items_per_s on sweep
assignments.fixed_counts.discrepancies
hypotheses.conditions.busy_ms,              items_per_s on sweep
hypotheses.conditions.arcs
hypotheses.witness.busy_ms,                 latency_p50_ms on large-n
hypotheses.witness.peak_alloc_mb
hypotheses.step_down.calls, .busy_ms,       latency_tail_ms and peak_rss_mb
hypotheses.step_down.peak_alloc_mb          on large-n
decide.report_ms                            latency_p50_ms on large-n
notation.parse.busy_ms,                     items_per_s on check-aut; none
notation.print.busy_ms,                     on sweep or large-n
bipartite.validate.busy_ms,
realizability.match.busy_ms
==========================================  =================================
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from random import Random

from bipartite_tsg import GROUPS, Verdict, decide, theorem_predicate
from bipartite_tsg.assignments import (
    build_assignment,
    summarize_blocks,
    verify_fixed_counts,
)
from bipartite_tsg.bipartite import validate_automorphism
from bipartite_tsg.cli import check_automorphism_cmd
from bipartite_tsg.hypotheses import (
    check_edge_embedding_hypotheses,
    check_subgroup_theorem,
    subgroup_corollary_witness,
    verify_construction,
)
from bipartite_tsg.necessity import necessity_verdict
from bipartite_tsg.notation import parse_cycles, print_cycles
from bipartite_tsg.realizability import check_realizable

SWEEP_LIMIT = 500
LARGE_N_RANGE = range(1000, 1201)
LARGE_N_PER_CASE = 2
CHECK_AUT_MIN_N = 100

# The hand-checked non-realizable automorphisms of tests/test_realizability.py,
# as (n, cycles on the vertices 0..2n-1; W vertex i is n + i - 1).
NOT_REALIZABLE = (
    (4, ((0, 1, 2),)),
    (6, ((0, 1, 2), (6, 7, 8))),
    (8, ((0, 8, 1, 9), (2, 10, 3, 11), (4, 12, 5, 13, 6, 14, 7, 15))),
    (6, ((0, 1), (2, 3, 4, 5), (6, 7), (8, 9), (10, 11))),
)

_MB = 1024 * 1024


def recipe_case(group: str, n: int) -> str:
    """The placement recipe for an admitted ``(n, group)``: recipes are
    residue classes, A5 by ``n mod 60``, A4/S4 by ``n mod 12`` for the
    skeleton and ``n mod 24`` for the cube."""
    if group == "A5":
        return f"dodecahedron-{n % 60}"
    if group == "A4" and n == 6:
        return "tetrahedron-6"
    if n % 12 in (0, 4):
        return f"skeleton-{n % 12}"
    return f"cube-{n % 24}"


def verdict_error(group: str, n: int, verdict: Verdict) -> str | None:
    """Check a verdict against the closed form and the shape of its proof."""
    expected = theorem_predicate(n, group)
    if verdict.realizable != expected:
        return f"{group} n={n}: answered {verdict.realizable}, closed form {expected}"
    if expected:
        report = verdict.construction
        if report is None:
            return f"{group} n={n}: admitted without a construction"
        numbers = sorted(c.condition for c in report.conditions)
        if numbers != [1, 2, 3, 4, 5]:
            return f"{group} n={n}: routing conditions {numbers}, expected 1..5"
        if report.subgroup_witness is None:
            return f"{group} n={n}: admitted without an exactness witness"
    return None


def report_error(group: str, n: int, verdict: Verdict, payload: str) -> str | None:
    """Check a verdict and the JSON report ``verify`` prints for it."""
    error = verdict_error(group, n, verdict)
    if error is not None:
        return error
    try:
        data = json.loads(payload)
    except ValueError as exc:
        return f"{group} n={n}: report is not JSON ({exc})"
    if data.get("realizable") is not verdict.realizable:
        return f"{group} n={n}: report says {data.get('realizable')!r}"
    return None


def replay_decision(group: str, n: int, tracer, report: bool = False):
    """Make one decision through the stage functions ``decide`` and
    ``verify_construction`` call, one span per stage."""
    with tracer.span("decide"):
        with tracer.span("necessity"):
            necessity = necessity_verdict(n, group)
        tracer.count("necessity.calls")
        construction = None
        if necessity.allowed:
            with tracer.span("assignments.build"):
                assignment = build_assignment(group, n)
            tracer.count(
                "assignments.build.point_images",
                assignment.model.group.order * 2 * n,
            )
            with tracer.span("assignments.fixed_counts"):
                counts = verify_fixed_counts(assignment)
            tracer.count(
                "assignments.fixed_counts.discrepancies", len(counts.discrepancies)
            )
            with tracer.span("hypotheses.conditions"):
                base = check_edge_embedding_hypotheses(assignment)
            tracer.count("hypotheses.conditions.arcs", len(base.arcs))
            with tracer.span("hypotheses.witness"):
                witness = check_subgroup_theorem(assignment)
            step_down = None
            if _needs_step_down(group, assignment):
                with tracer.span("hypotheses.step_down"):
                    step_down = subgroup_corollary_witness(assignment)
                tracer.count("hypotheses.step_down.calls")
            construction = replace(
                base,
                blocks=summarize_blocks(assignment),
                fixed_counts=counts,
                subgroup_witness=witness,
                corollary_edge=step_down,
            )
        verdict = Verdict(
            n=n,
            group=group,
            realizable=construction is not None,
            necessity=necessity,
            construction=construction,
            citations=tuple(rule.id for rule in necessity.rules_fired),
        )
        if not report:
            return verdict
        with tracer.span("decide.report"):
            payload = json.dumps(verdict.as_dict(), indent=2)
        return verdict, payload


def _needs_step_down(group: str, assignment) -> bool:
    # An order-24 model serving the order-12 target is cut down along an
    # unfixed edge, as verify_construction does.
    return group == "A4" and assignment.model.group.order == 24


def pipeline_peaks(group: str, n: int) -> dict[str, float]:
    """Peak traced allocation (MB) of the build, witness and step-down
    stages of one decision, each measured from the stage's own start."""
    peaks: dict[str, float] = {}

    def measured(name, fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            peaks[name] = tracemalloc.get_traced_memory()[1] / _MB
        finally:
            tracemalloc.stop()
        return out

    assignment = measured("assignments.build", build_assignment, group, n)
    verify_fixed_counts(assignment)
    check_edge_embedding_hypotheses(assignment)
    measured("hypotheses.witness", check_subgroup_theorem, assignment)
    if _needs_step_down(group, assignment):
        measured("hypotheses.step_down", subgroup_corollary_witness, assignment)
    return peaks


def largest_admitted_peaks(items: list[tuple[str, int]]) -> dict[str, float]:
    """Stage peaks over the largest admitted ``n`` of each group: stage
    allocation grows with ``n``, so these inputs carry each stage's peak."""
    largest: dict[str, int] = {}
    for group, n in items:
        if theorem_predicate(n, group) and n > largest.get(group, 0):
            largest[group] = n
    peaks: dict[str, float] = {}
    for group, n in largest.items():
        for stage, mb in pipeline_peaks(group, n).items():
            peaks[stage] = max(mb, peaks.get(stage, 0.0))
    return peaks


class Sweep:
    name = "sweep"
    pass_seconds = 24.0

    def __init__(self, seed: int):
        # The sweep is the same for every seed: it is defined by its limit.
        self.items = [
            (group, n) for group in GROUPS for n in range(1, SWEEP_LIMIT + 1)
        ]

    def pass_items(self, k: int) -> list[tuple[str, int]]:
        return self.items

    def warm_up(self) -> None:
        for group in GROUPS:
            for n in range(1, 13):
                decide(n, group)

    def call(self, item):
        group, n = item
        return decide(n, group)

    def error(self, item, output) -> str | None:
        return verdict_error(*item, output)

    def replay(self, item, tracer):
        return replay_decision(*item, tracer)

    def summary(self, output):
        return output.as_dict()

    def memory_peaks(self, items):
        return largest_admitted_peaks(items)


class LargeN(Sweep):
    name = "large-n"
    pass_seconds = 14.0

    def __init__(self, seed: int):
        by_case: dict[tuple[str, str], list[int]] = defaultdict(list)
        for group in GROUPS:
            for n in LARGE_N_RANGE:
                if theorem_predicate(n, group):
                    by_case[group, recipe_case(group, n)].append(n)
        # One draw from each of LARGE_N_PER_CASE equal strata of the range,
        # so that every seed has the same spread of sizes: the A4 step-down
        # cost grows with n^2 and would otherwise move the tail from seed
        # to seed.
        rng = Random(f"large-n:{seed}")
        self.items = []
        for (group, _), values in by_case.items():
            for stratum in range(LARGE_N_PER_CASE):
                lo = stratum * len(values) // LARGE_N_PER_CASE
                hi = (stratum + 1) * len(values) // LARGE_N_PER_CASE
                self.items.append((group, rng.choice(values[lo:hi])))

    def warm_up(self) -> None:
        for group, n in (("A4", 12), ("S4", 8), ("A5", 60)):
            json.dumps(decide(n, group).as_dict(), indent=2)

    def call(self, item):
        group, n = item
        verdict = decide(n, group)
        return verdict, json.dumps(verdict.as_dict(), indent=2)

    def error(self, item, output) -> str | None:
        return report_error(*item, *output)

    def replay(self, item, tracer):
        return replay_decision(*item, tracer, report=True)

    def summary(self, output):
        return output[1]


def cycle_text(images: list[int], n: int) -> str:
    """Cycle notation in normal form: cycles ordered by smallest vertex, each
    starting at it, fixed vertices left out; tokens ``v<i>`` and ``w<i>``."""
    seen = [False] * len(images)
    cycles = []
    for start, image in enumerate(images):
        if seen[start] or image == start:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(f"v{x + 1}" if x < n else f"w{x - n + 1}")
            x = images[x]
        cycles.append("(" + " ".join(cycle) + ")")
    return "".join(cycles)


def relabel(images: list[int], n: int, rng: Random) -> list[int]:
    """Conjugate by a random permutation that maps each part to itself."""
    v = list(range(n))
    w = list(range(n, 2 * n))
    rng.shuffle(v)
    rng.shuffle(w)
    sigma = v + w
    out = [0] * (2 * n)
    for x, y in enumerate(images):
        out[sigma[x]] = sigma[y]
    return out


def _from_cycles(n: int, cycles) -> list[int]:
    images = list(range(2 * n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return images


def induced_automorphisms() -> list[tuple[list[int], int, bool]]:
    """``(images, n, expected realizable)`` for every non-identity induced
    automorphism of one verified placement per recipe case, each at the
    smallest admitted ``n >= CHECK_AUT_MIN_N`` (``tetrahedron-6`` at 6), then
    the hand-checked non-realizable examples."""
    pairs = [("A4", 6)]
    for group in GROUPS:
        seen = set()
        for n in range(CHECK_AUT_MIN_N, CHECK_AUT_MIN_N + 60):
            if theorem_predicate(n, group) and recipe_case(group, n) not in seen:
                seen.add(recipe_case(group, n))
                pairs.append((group, n))
    out = []
    for group, n in pairs:
        assignment = build_assignment(group, n)
        verify_construction(assignment)
        for e in assignment.model.group.elements:
            if not e.is_identity():
                perm = assignment.induced_perm(e)
                out.append(([perm(x) for x in range(2 * n)], n, True))
    out.extend((_from_cycles(n, cycles), n, False) for n, cycles in NOT_REALIZABLE)
    return out


class CheckAut:
    name = "check-aut"
    pass_seconds = 1.25

    def __init__(self, seed: int):
        self.seed = seed
        self.bases = induced_automorphisms()

    def pass_items(self, k: int) -> list[tuple[str, int, bool]]:
        rng = Random(f"check-aut:{self.seed}:{k}")
        return [
            (cycle_text(relabel(images, n, rng), n), n, expected)
            for images, n, expected in self.bases
        ]

    def warm_up(self) -> None:
        check_automorphism_cmd("(v1 v2 v3)(w1 w2 w3)", 3)

    def call(self, item):
        text, n, _ = item
        return check_automorphism_cmd(text, n)

    def error(self, item, output) -> str | None:
        text, n, expected = item
        result, report = output
        if result.realizable is not expected or report["realizable"] is not expected:
            return f"n={n} {text[:40]}: answered {result.realizable}, known {expected}"
        if report["cycles"] != text:
            return f"n={n} {text[:40]}: printed as {report['cycles'][:40]}"
        return None

    def replay(self, item, tracer):
        text, n, _ = item
        with tracer.span("cli.check_aut"):
            with tracer.span("notation.parse"):
                perm = parse_cycles(text, n)
            with tracer.span("bipartite.validate"):
                aut = validate_automorphism(perm, n)
            with tracer.span("realizability.match"):
                result = check_realizable(aut)
            with tracer.span("notation.print"):
                cycles = print_cycles(perm, n)
            perm.order()  # check_automorphism_cmd reports the order too
        return result, {"realizable": result.realizable, "cycles": cycles}

    def summary(self, output):
        result, report = output
        return result, report["cycles"]

    def memory_peaks(self, items):
        return {}


WORKLOADS = {w.name: w for w in (Sweep, LargeN, CheckAut)}
