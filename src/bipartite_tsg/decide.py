"""Top-level decision API: for which ``n`` does ``K_{n,n}`` embed in the
three-sphere with orientation-preserving topological symmetry group A4, S4,
or A5?

``decide`` combines the two halves of the classification: the necessity
engine (arithmetic constraints that exclude pairs) and the construction
pipeline (an explicit equivariant placement, verified combinatorially, for
every admitted pair).  The outcome always equals the closed-form predicate

* A4:  n ≡ 0, 2, 4, 6, 8 (mod 12) and n ≥ 4,
* S4:  n ≡ 0, 2, 4, 6, 8 (mod 12), n ≥ 4 and n ≠ 6,
* A5:  n ≡ 0, 2, 12, 20, 30, 32, 42, 50 (mod 60) and n > 30;

any disagreement between the pipeline and the predicate raises
:class:`InternalMismatch` and is a bug, never an input error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assignments import place
from .bipartite import require_count
from .hypotheses import HypothesisReport, verify_construction
from .necessity import (
    GROUPS,
    FixedProfile,
    NecessityVerdict,
    TABLE_MODULUS,
    necessity_verdict,
)

__all__ = [
    "GROUPS",
    "InternalMismatch",
    "SweepTable",
    "Verdict",
    "decide",
    "sweep",
    "theorem_predicate",
]

_MOD12_RESIDUES = frozenset({0, 2, 4, 6, 8})
_MOD60_RESIDUES = frozenset({0, 2, 12, 20, 30, 32, 42, 50})


def theorem_predicate(n: int, group: str) -> bool:
    """The closed-form classification, as a plain arithmetic test.  ``n``
    is validated as :func:`decide` validates it."""
    require_count(n, "part size")
    if group == "A4":
        return n % 12 in _MOD12_RESIDUES and n >= 4
    if group == "S4":
        return n % 12 in _MOD12_RESIDUES and n >= 4 and n != 6
    if group == "A5":
        return n % 60 in _MOD60_RESIDUES and n > 30
    raise ValueError(f"unknown group {group!r}")


class InternalMismatch(RuntimeError):
    """The verification pipeline disagrees with the closed-form predicate.

    This cannot be triggered by input: it means a construction recipe or a
    checker is wrong."""

    def __init__(self, verdict: "Verdict", expected: bool):
        self.verdict = verdict
        self.expected = expected
        super().__init__(
            f"pipeline answered {verdict.realizable} for "
            f"(n={verdict.n}, {verdict.group}) but the classification "
            f"says {expected}"
            + (f": {verdict.diagnostic}" if verdict.diagnostic else "")
        )


def _profile_dict(profile: FixedProfile, residue: int, modulus: int) -> dict:
    return {
        "residue": f"{residue} (mod {modulus})",
        "v": {slot: str(count) for slot, count in profile.v},
        "w": {slot: str(count) for slot, count in profile.w},
    }


@dataclass(frozen=True)
class Verdict:
    """Composite answer for one (n, group) pair.

    ``realizable`` is true exactly when the necessity engine admits the pair
    and the construction pipeline produced a fully verified placement.
    ``citations`` lists the ids of the necessity rules behind the verdict;
    ``diagnostic`` is set only when a construction failed (a build bug).
    """

    n: int
    group: str
    realizable: bool
    necessity: NecessityVerdict
    construction: HypothesisReport | None
    citations: tuple[str, ...]
    diagnostic: str | None = None

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "group": self.group,
            "realizable": self.realizable,
            "rules": [
                {"id": rule.id, "citation": rule.statement}
                for rule in self.necessity.rules_fired
            ],
        }
        if self.necessity.witness_profile is not None:
            modulus = TABLE_MODULUS[self.group]
            out["profile"] = _profile_dict(
                self.necessity.witness_profile, self.n % modulus, modulus
            )
        if self.construction is not None:
            out["construction"] = self.construction.as_dict()
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        return out


def decide(n: int, group: str) -> Verdict:
    """Decide one (n, group) pair by running the whole pipeline.

    Runs the necessity engine once; when it admits the pair, places the
    vertices by the pair's recipe (:func:`~.assignments.place`) and
    verifies fixed counts, the five edge-routing conditions, the
    exactness witness and, for an order-24 placement serving A4, the
    step-down edge.  Any ValueError, LookupError or AssertionError raised
    while constructing an admitted pair (a failed check or a fault in the
    pipeline or its recipe data) becomes the verdict's diagnostic.  A
    disagreement with the closed-form classification raises
    :class:`InternalMismatch`, which carries the verdict.

    The library puts no cap on ``n``, at ``2**63`` and past it too: a
    call's work and its report keep one size for every ``n`` of a recipe,
    apart from the digits of the numbers they hold.  The CLI's ``--cap``
    bounds only the command's input.
    """
    necessity = necessity_verdict(n, group)
    construction = None
    diagnostic = None
    if necessity.allowed:
        try:
            assignment = place(group, n)
            construction = verify_construction(assignment)
        except (ValueError, LookupError, AssertionError) as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"
    verdict = Verdict(
        n=n,
        group=group,
        realizable=construction is not None,
        necessity=necessity,
        construction=construction,
        citations=tuple(rule.id for rule in necessity.rules_fired),
        diagnostic=diagnostic,
    )
    expected = theorem_predicate(n, group)
    if verdict.realizable != expected:
        raise InternalMismatch(verdict, expected)
    return verdict


@dataclass(frozen=True)
class SweepTable:
    """Verdicts for every n from 1 to ``n_max`` for one group."""

    group: str
    n_max: int
    rows: tuple[Verdict, ...]

    def realizable_values(self) -> tuple[int, ...]:
        return tuple(v.n for v in self.rows if v.realizable)

    def residue_summary(self) -> dict[int, int]:
        """Number of realizable n per residue class of the group's modulus."""
        modulus = TABLE_MODULUS[self.group]
        out: dict[int, int] = {}
        for v in self.rows:
            if v.realizable:
                out[v.n % modulus] = out.get(v.n % modulus, 0) + 1
        return dict(sorted(out.items()))


def sweep(group: str, n_max: int) -> SweepTable:
    """Decide every n from 1 to ``n_max`` (inclusive), in order."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    require_count(n_max, "sweep limit")
    rows = tuple(decide(n, group) for n in range(1, n_max + 1))
    return SweepTable(group=group, n_max=n_max, rows=rows)
