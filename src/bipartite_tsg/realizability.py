"""Decide whether a single automorphism of K_{n,n} (n > 2) can be induced by
an orientation-preserving homeomorphism of the three-sphere on some embedding.

The criterion is purely combinatorial: after setting aside one of nine
allowed exceptional patterns of fixed vertices and short cycles, every
remaining vertex must lie in a cycle of full length r (the order of the
automorphism).  The patterns are matched on the set-aside cycles and
non-exclusively; all matching case ids are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bipartite import BipartiteAut, CycleProfile, cycle_profile


class PartSizeTooSmall(ValueError):
    """The realizability criterion assumes part size n > 2."""


CASE_DESCRIPTIONS: dict[int, str] = {
    1: "every vertex lies in a cycle of the full order r",
    2: "one part holds a positive multiple of r fixed vertices; every other "
       "cycle is full",
    3: "one fixed vertex in each part, or two in each part; every other "
       "cycle is full",
    4: "one part holds cycles of a single proper divisor length j >= 2 of "
       "r; every other cycle is full",
    5: "one part holds j-cycles and k-cycles with lcm(j, k) = r; every "
       "other cycle is full",
    6: "one part holds j-cycles, the other k-cycles, with lcm(j, k) = r; "
       "every other cycle is full",
    7: "exactly one 2-cycle in each part (order r > 2); every other cycle "
       "is full",
    8: "r/2 odd: one 2-cycle in each part plus r/2-cycles in the first "
       "part; every other cycle is full",
    9: "the parts are interchanged, one 4-cycle crossing them is "
       "exceptional, and every other cycle is full",
}


@dataclass(frozen=True)
class RealizabilityResult:
    matched_cases: frozenset[int]
    orientation: str | None  # "as-given" | "parts-swapped" | None if no match

    @property
    def realizable(self) -> bool:
        return bool(self.matched_cases)


def _set_aside(counts: tuple[tuple[int, int], ...], r: int) -> dict[int, int]:
    """The cycles that are not full, as ``{length: count}``."""
    return {length: count for length, count in counts if length != r}


def _part_cases(r: int, v: dict[int, int], w: dict[int, int]) -> set[int]:
    """Case ids 2-8 matched when part V sets aside the cycles ``v`` and part
    W the cycles ``w``.  A set-aside length is a proper divisor of r, so
    none matches at r = 1."""
    matched: set[int] = set()
    # (2): V sets aside m*r fixed vertices, m >= 1.
    if not w and v.keys() == {1} and v[1] % r == 0:
        matched.add(2)
    # (3): one fixed vertex in each part, or two in each part.
    if v == w and v in ({1: 1}, {1: 2}):
        matched.add(3)
    # (4): V sets aside j-cycles for a single proper divisor j >= 2 of r.
    if not w and len(v) == 1 and 1 not in v:
        matched.add(4)
    # (5) and (6) need no test for j, k >= 2: with a 1, the lcm stays below r.
    # (5): V sets aside j-cycles and k-cycles with lcm(j, k) = r.
    if not w and len(v) == 2 and lcm(*v) == r:
        matched.add(5)
    # (6): j-cycles in V, k-cycles in W, lcm(j, k) = r.
    if len(v) == len(w) == 1 and lcm(*v, *w) == r:
        matched.add(6)
    # (7): exactly one 2-cycle in each part (set aside, so r > 2).
    if v == w == {2: 1}:
        matched.add(7)
    # (8): r/2 odd; one 2-cycle in each part plus some r/2-cycles in V.
    if r % 4 == 2 and w == {2: 1} and v.keys() == {2, r // 2} and v[2] == 1:
        matched.add(8)
    return matched


def profile_cases(profile: CycleProfile) -> tuple[frozenset[int], str | None]:
    """All case ids matched by a profile, under both part labelings.

    Returns (case ids, orientation); orientation is "as-given" when the given
    labeling matches, "parts-swapped" when only the relabeled one does.
    Relabeling V as W swaps the cycles the two parts set aside.
    """
    r = profile.r
    v, w, x = (
        _set_aside(counts, r)
        for counts in (profile.v_counts, profile.w_counts, profile.cross_counts)
    )
    either: set[int] = set()  # (1) and (9) are kept by relabeling
    # (1): every cycle is full.
    if not (v or w or x):
        either.add(1)
    # (9): the parts are interchanged and one crossing 4-cycle is set aside;
    # at r = 4 that 4-cycle is itself full.
    if x == {4: 1} or (r == 4 and profile.swapping and not x):
        either.add(9)
    as_given = either | _part_cases(r, v, w)
    relabeled = either | _part_cases(r, w, v)
    cases = frozenset(as_given | relabeled)
    if as_given:
        return cases, "as-given"
    if relabeled:
        return cases, "parts-swapped"
    return cases, None


def check_profile(profile: CycleProfile) -> RealizabilityResult:
    """Match a cycle profile against the nine allowed patterns."""
    if profile.n <= 2:
        raise PartSizeTooSmall(f"criterion requires n > 2, got n = {profile.n}")
    cases, orientation = profile_cases(profile)
    return RealizabilityResult(cases, orientation)


def check_realizable(aut: BipartiteAut) -> RealizabilityResult:
    """Match an automorphism's cycle profile against the nine allowed patterns."""
    return check_profile(cycle_profile(aut))
