"""Decide whether a single automorphism of K_{n,n} (n > 2) can be induced by
an orientation-preserving homeomorphism of the three-sphere on some embedding.

The criterion is purely combinatorial: after setting aside one of nine
allowed exceptional patterns of fixed vertices and short cycles, every
remaining vertex must lie in a cycle of full length r (the order of the
automorphism).  The patterns are matched literally and non-exclusively; all
matching case ids are reported.
"""

from __future__ import annotations

import itertools
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
    realizable: bool
    matched_cases: frozenset[int]
    orientation: str | None  # "as-given" | "parts-swapped" | None if no match

    def __post_init__(self):
        if self.realizable != bool(self.matched_cases):
            raise ValueError("realizable must mirror matched_cases")


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


def profile_cases(profile: CycleProfile) -> tuple[frozenset[int], str | None]:
    """All case ids matched by a profile, under both part labelings.

    Returns (case ids, orientation); orientation is "as-given" when the given
    labeling matches, "parts-swapped" when only the relabeled one does.
    """
    if profile.swapping:
        as_given = _swapping_cases(profile)
        relabeled = as_given  # cross cycles are unchanged by relabeling
    else:
        as_given = _preserving_cases(profile)
        relabeled = _preserving_cases(profile.swapped())
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
    return RealizabilityResult(bool(cases), cases, orientation)


def check_realizable(aut: BipartiteAut) -> RealizabilityResult:
    """Match an automorphism's cycle profile against the nine allowed patterns."""
    return check_profile(cycle_profile(aut))
