"""Burnside-lemma necessity engine.

For a finite group acting on an embedded K_{n,n} by orientation-preserving
homeomorphisms, the number of vertex orbits on part V is the average number
of fixed V-vertices over the group, and that average must be an integer.
Combining this with the allowed fixed-vertex patterns for single
automorphisms pins n to a short list of residues (mod 12 for the tetrahedral
and octahedral groups, mod 60 for the icosahedral one), and orbit-size
accounting kills a handful of small cases on top of that.

Everything here is exact integer/rational arithmetic; every exclusion is
recorded as a rule with a stable id and a self-contained statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping

from .bipartite import require_count

GROUPS = ("A4", "S4", "A5")

# Number of elements of each relevant order, counted in the abstract group.
# "m2" is the class of involutions outside the index-2 tetrahedral subgroup
# of the octahedral group (the other six order-2 elements).
BURNSIDE_COEFFS: dict[str, dict[str, int]] = {
    "A4": {"2": 3, "3": 8},
    "S4": {"2": 3, "3": 8, "4": 6, "m2": 6},
    "A5": {"2": 15, "3": 20, "5": 24},
}

GROUP_ORDER = {"A4": 12, "S4": 24, "A5": 60}

# The modulus of the residue table each group is held to.  The octahedral
# group inherits the tetrahedral table through its index-2 subgroup.
TABLE_MODULUS = {"A4": 12, "S4": 12, "A5": 60}


def counting_table(group: str) -> str:
    """The group whose admissible-profile table constrains ``group``: the
    octahedral group is held to the tetrahedral table through its index-2
    rotation subgroup."""
    return {"A4": "A4", "S4": "A4", "A5": "A5"}[group]


@dataclass(frozen=True)
class FixedCount:
    """How many vertices of one part an element of a given order fixes:
    either an exact small number or an unconstrained multiple of a base."""

    kind: str  # "exact" | "multiple_of"
    value: int

    def __post_init__(self):
        if self.kind == "exact":
            if self.value not in (0, 1, 2):
                raise ValueError("exact fixed counts in the tables are 0, 1 or 2")
        elif self.kind == "multiple_of":
            if self.value not in (2, 3, 4, 5):
                raise ValueError("multiple bases in the tables are 2, 3, 4, 5")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def exact(cls, c: int) -> "FixedCount":
        return cls("exact", c)

    @classmethod
    def multiple_of(cls, k: int) -> "FixedCount":
        return cls("multiple_of", k)

    def __str__(self) -> str:
        return str(self.value) if self.kind == "exact" else f"{self.value}t"


PROFILE_SLOTS = {"A4": ("2", "3"), "S4": ("2", "3", "4", "m2"), "A5": ("2", "3", "5")}


@dataclass(frozen=True)
class FixedProfile:
    """Fixed-vertex pattern per element-order slot, for both parts.

    Slots are the element orders as strings, plus "m2" for the extra
    involution class of the octahedral group.
    """

    group: str
    v: tuple[tuple[str, FixedCount], ...]
    w: tuple[tuple[str, FixedCount], ...]

    def __post_init__(self):
        slots = PROFILE_SLOTS[self.group]
        for side in (self.v, self.w):
            if tuple(s for s, _ in side) != slots:
                raise ValueError(f"profile slots must be exactly {slots}")

    @classmethod
    def make(
        cls, group: str, v: Mapping[str, FixedCount], w: Mapping[str, FixedCount]
    ) -> "FixedProfile":
        slots = PROFILE_SLOTS[group]
        return cls(
            group,
            tuple((s, v[s]) for s in slots),
            tuple((s, w[s]) for s in slots),
        )

    def v_count(self, slot: str) -> FixedCount:
        return dict(self.v)[slot]

    def w_count(self, slot: str) -> FixedCount:
        return dict(self.w)[slot]


@dataclass(frozen=True)
class Rule:
    """One necessity rule: a stable id plus a self-contained statement of the
    mathematical fact it encodes."""

    id: str
    statement: str


@dataclass(frozen=True)
class NecessityVerdict:
    n: int
    group: str
    allowed: bool
    rules_fired: tuple[Rule, ...]
    witness_profile: FixedProfile | None

    def __post_init__(self):
        if not self.allowed and not self.rules_fired:
            raise ValueError("a denial must cite at least one rule")


def burnside_residues(group: str, profile: FixedProfile) -> set[int]:
    """Residues r of n modulo the group order such that the V-side Burnside
    sum is divisible by the group order for EVERY instantiation of the
    multiple_of parameters.  Empty when no residue works uniformly."""
    coeffs = BURNSIDE_COEFFS[group]
    modulus = GROUP_ORDER[group]
    base = 0
    for slot, count in profile.v:
        c = coeffs[slot]
        if count.kind == "exact":
            base += c * count.value
        else:
            # The term c * (count.value * t) ranges over a subgroup of Z_mod;
            # a uniform residue exists only if that subgroup is trivial.
            if (c * count.value) % modulus != 0:
                return set()
    return {(-base) % modulus}


def _order_options(order: int) -> list[tuple[FixedCount, FixedCount]]:
    """Options for (n_o^v, n_o^w) allowed for a single realizable
    automorphism: one fixed vertex in each part, two in each part, or a
    multiple of the order in V with none in W."""
    return [
        (FixedCount.exact(1), FixedCount.exact(1)),
        (FixedCount.exact(2), FixedCount.exact(2)),
        (FixedCount.multiple_of(order), FixedCount.exact(0)),
    ]


@cache
def enumerate_profiles(group: str) -> tuple[tuple[FixedProfile, int], ...]:
    """Admissible fixed-vertex profiles and their forced residues of n.

    Starts from the per-order menu allowed for a single realizable
    automorphism, then applies the geometric filters:

    - an involution cannot fix exactly one vertex of each part;
    - if involutions fix two vertices per part, order-3 elements cannot fix
      exactly one per part (two rotation axes already share two points);
    - if involutions fix no W-vertices, their V-count is a multiple of 4
      (involutions pair up into order-4-like configurations);
    - for the icosahedral group, no element may fix exactly one V-vertex
      (the inverted-axis argument forces such a vertex to be a global fixed
      point, collapsing all same-order axes together).
    """
    if group == "A4":
        orders = (2, 3)
    elif group == "A5":
        orders = (2, 3, 5)
    else:
        raise ValueError("profile tables exist for the tetrahedral and icosahedral groups")

    per_order: list[list[tuple[FixedCount, FixedCount]]] = []
    for o in orders:
        options = _order_options(o)
        if o == 2:
            # Involutions never fix exactly one vertex of a part.
            options = [opt for opt in options if opt[0] != FixedCount.exact(1)]
        if group == "A5":
            # No element of the icosahedral group fixes exactly one V-vertex.
            options = [opt for opt in options if opt[0] != FixedCount.exact(1)]
        per_order.append(options)

    rows: list[tuple[FixedProfile, int]] = []
    for combo in itertools.product(*per_order):
        picks = dict(zip((str(o) for o in orders), combo))
        # Two-per-part involutions pin two global axis points; an order-3
        # element fixing exactly one vertex per part is then impossible.
        if (
            picks["2"][0] == FixedCount.exact(2)
            and picks.get("3", (None,))[0] == FixedCount.exact(1)
        ):
            continue
        # Multiples of 2 sharpen to multiples of 4 when W has none.
        if picks["2"][0] == FixedCount.multiple_of(2):
            picks["2"] = (FixedCount.multiple_of(4), FixedCount.exact(0))
        profile = FixedProfile.make(
            group,
            {s: vc for s, (vc, _) in picks.items()},
            {s: wc for s, (_, wc) in picks.items()},
        )
        residues = burnside_residues(group, profile)
        if len(residues) != 1:
            raise AssertionError("table rows must force a unique residue")
        rows.append((profile, residues.pop()))
    return tuple(rows)


@dataclass(frozen=True)
class LinearForm:
    """An affine rational form  constant + sum(coeff * symbol); the value of
    a Burnside average when some fixed counts are left symbolic."""

    constant: Fraction
    coeffs: tuple[tuple[str, Fraction], ...] = ()

    def evaluate(self, **values: int) -> Fraction:
        total = self.constant
        for name, c in self.coeffs:
            total += c * values[name]
        return total

    def __str__(self) -> str:
        parts = [str(self.constant)]
        for name, c in self.coeffs:
            parts.append(f"{c}*{name}")
        return " + ".join(parts)


def s4_burnside_orbits(n: int, counts: Mapping[str, int | str]) -> LinearForm:
    """The exact Burnside average (1/24)(n + 3*n2v + 8*n3v + 6*m2v + 6*n4v)
    for the octahedral group acting on part V.

    ``counts`` maps each slot ("2", "3", "m2", "4") to a concrete count or to
    a symbol name; symbolic slots stay in the returned affine form.
    """
    coeffs = BURNSIDE_COEFFS["S4"]
    order = GROUP_ORDER["S4"]
    constant = Fraction(n, order)
    symbolic: list[tuple[str, Fraction]] = []
    for slot in ("2", "3", "4", "m2"):
        value = counts[slot]
        weight = Fraction(coeffs[slot], order)
        if isinstance(value, str):
            symbolic.append((value, weight))
        else:
            constant += weight * value
    return LinearForm(constant, tuple(symbolic))


def partition_feasible(count: int, sizes: set[int] | frozenset[int]) -> bool:
    """Whether count is a nonnegative integer combination of the sizes."""
    if count < 0:
        return False
    reachable = [False] * (count + 1)
    reachable[0] = True
    for total in range(1, count + 1):
        reachable[total] = any(
            s <= total and reachable[total - s] for s in sizes
        )
    return reachable[count]


# Orbit sizes of points of the three-sphere under the icosahedral rotation
# group: interior axis points have orbits 12, 20 or 30 (face, corner, edge
# axes); generic points have orbit 60; only a global fixed point has orbit 1.
ICOSAHEDRAL_ORBIT_SIZES = frozenset({12, 20, 30, 60})


RULES = {
    "residue-excluded": Rule(
        "residue-excluded",
        "No admissible fixed-vertex profile makes the Burnside vertex-orbit "
        "average an integer for this n: its residue is outside the group's table.",
    ),
    "residue-admitted": Rule(
        "residue-admitted",
        "Some admissible fixed-vertex profile makes the Burnside vertex-orbit "
        "average an integer at this residue of n.",
    ),
    "part-size-minimum": Rule(
        "part-size-minimum",
        "For n <= 3 the automorphism group of K_{n,n} (order 2*(n!)^2, e.g. the "
        "dihedral group of order 8 at n = 2) has no subgroup isomorphic to the "
        "target polyhedral group.",
    ),
    "s4-six-exclusion": Rule(
        "s4-six-exclusion",
        "No octahedral rotation group acts on an embedded K_{6,6}: both "
        "order-4 fixed-point patterns force an impossible count of fixed "
        "vertices for the six outer involutions.",
    ),
    "s4-six-shared-axis": Rule(
        "s4-six-shared-axis",
        "Six outer involutions would each need four fixed V-vertices on their "
        "axis, but only four V-vertices besides the two global ones exist, so "
        "two distinct involutions would share an axis.",
    ),
    "s4-six-axis-overload": Rule(
        "s4-six-axis-overload",
        "An outer involution fixing all six V-vertices would have an axis "
        "meeting each order-3 axis in three points, impossible for distinct "
        "rotation axes.",
    ),
    "s4-six-triple-point": Rule(
        "s4-six-triple-point",
        "An outer involution fixing two non-global V-vertices forces four "
        "V-vertices onto a single order-3 axis, contradicting the three-per-"
        "axis count.",
    ),
    "a5-lower-bound": Rule(
        "a5-lower-bound",
        "An icosahedral action needs n > 30: each admissible n <= 30 "
        "(2, 12, 20, 30) fails orbit-size accounting.",
    ),
    "a5-orbit-sizes": Rule(
        "a5-orbit-sizes",
        "Non-fixed points of the three-sphere fall into icosahedral orbits of "
        "size 12, 20, 30 or 60 only.",
    ),
    "a5-simplex-midpoint-orbit": Rule(
        "a5-simplex-midpoint-orbit",
        "In the four-simplex action the ten edge midpoints form a W-orbit of "
        "size 10, so W splits into at least two orbits.",
    ),
    "aut-too-small": Rule(
        "aut-too-small",
        "The automorphism group of K_{2,2} has order 8 and so has no subgroup "
        "of order 12, 24 or 60.",
    ),
}


@dataclass(frozen=True)
class S4SixCase:
    """One branch of the K_{6,6} octahedral exclusion."""

    label: str
    n4v: int
    orbit_form: LinearForm
    m2v_bounds: tuple[int, int]
    admissible_m2v: tuple[int, ...]
    exclusions: tuple[tuple[int, Rule], ...]  # (killed value, rule)


@cache
def s4_n6_analysis() -> tuple[S4SixCase, ...]:
    """The two-branch exclusion of an octahedral group on K_{6,6}.

    Inputs forced by the tetrahedral table at n = 6: involutions inside the
    tetrahedral subgroup fix 2 vertices per part, order-3 elements fix 3
    V-vertices (one axis each) and no W-vertices.  The order-4 elements fix
    either two vertices per part or none; each branch's Burnside average
    leaves the outer-involution count m2v constrained, and every surviving
    value is killed by an axis-geometry rule.
    """
    cases = []
    for n4v, label, bounds, exclusion_by_value in (
        (
            2,
            "order-4 elements fix two vertices per part",
            (2, 6),  # they then fix the two global vertices, so m2v >= 2
            {4: RULES["s4-six-shared-axis"]},
        ),
        (
            0,
            "order-4 elements fix nothing",
            (0, 6),
            {6: RULES["s4-six-axis-overload"], 2: RULES["s4-six-triple-point"]},
        ),
    ):
        form = s4_burnside_orbits(6, {"2": 2, "3": 3, "4": n4v, "m2": "m2v"})
        lo, hi = bounds
        admissible = tuple(
            m for m in range(lo, hi + 1) if form.evaluate(m2v=m).denominator == 1
        )
        if set(admissible) != set(exclusion_by_value):
            raise AssertionError("surviving m2v values drifted from the analysis")
        cases.append(
            S4SixCase(
                label,
                n4v,
                form,
                bounds,
                admissible,
                tuple((m, exclusion_by_value[m]) for m in admissible),
            )
        )
    return tuple(cases)


@dataclass(frozen=True)
class A5SmallCase:
    """Orbit-accounting exclusion of one admissible n <= 30."""

    n: int
    always_fixed: int  # vertices forced into size-1 orbits
    remaining: int
    remaining_feasible: bool
    rules: tuple[Rule, ...]
    note: str


def a5_small_case_analysis(n: int) -> A5SmallCase:
    """Why the icosahedral group cannot act for the admissible n <= 30."""
    if n == 2:
        return A5SmallCase(
            2, 0, 2, True, (RULES["aut-too-small"],),
            "Aut(K_{2,2}) has order 8 < 60.",
        )
    if n == 12:
        # Order-5 elements fix 2 per part, so two V-vertices are globally
        # fixed (rotation centers); 10 remain, below the minimum orbit 12.
        feasible = partition_feasible(12 - 2, ICOSAHEDRAL_ORBIT_SIZES)
        return A5SmallCase(
            12, 2, 10, feasible,
            (RULES["a5-orbit-sizes"],),
            "two global fixed vertices leave 10, not a sum of {12,20,30,60}",
        )
    if n == 20:
        feasible = partition_feasible(20 - 2, ICOSAHEDRAL_ORBIT_SIZES)
        return A5SmallCase(
            20, 2, 18, feasible,
            (RULES["a5-orbit-sizes"],),
            "two global fixed vertices leave 18, not a sum of {12,20,30,60}",
        )
    if n == 30:
        # Dodecahedral branch: two global fixed V-vertices leave 28,
        # infeasible.  Four-simplex branch: W would split into >= 2 orbits
        # (edge-midpoint orbit of size 10), but the Burnside average says
        # exactly (1/60)(30 + 15*2) = 1 orbit.
        feasible = partition_feasible(30 - 2, ICOSAHEDRAL_ORBIT_SIZES)
        w_orbits = Fraction(30 + 15 * 2 + 20 * 0 + 24 * 0, 60)
        if w_orbits != 1:
            raise AssertionError("W-orbit Burnside average drifted")
        return A5SmallCase(
            30, 2, 28, feasible,
            (RULES["a5-orbit-sizes"], RULES["a5-simplex-midpoint-orbit"]),
            "dodecahedral branch leaves 28 vertices (infeasible); simplex "
            "branch needs >= 2 W-orbits but the Burnside average is exactly 1",
        )
    raise ValueError(f"no small-case analysis for n = {n}")


@cache
def allowed_residues(group: str) -> frozenset[int]:
    """Residues of n admitted by the group's profile table."""
    return frozenset(
        residue for _, residue in enumerate_profiles(counting_table(group))
    )


def necessity_verdict(n: int, group: str) -> NecessityVerdict:
    """Aggregate necessity decision for one (n, group) pair."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    require_count(n, "part size")
    modulus = TABLE_MODULUS[group]
    residue = n % modulus
    rules: list[Rule] = []

    if residue not in allowed_residues(group):
        rules.append(RULES["residue-excluded"])
    if n < 4:
        rules.append(RULES["part-size-minimum"])
    if group == "S4" and n == 6:
        rules.append(RULES["s4-six-exclusion"])
    if group == "A5" and n <= 30:
        if n >= 4 and residue in allowed_residues(group):
            # cite the specific small-case accounting that kills it
            rules.append(RULES["a5-lower-bound"])
            rules.extend(a5_small_case_analysis(n).rules)
        elif n in (0, 2):
            rules.append(RULES["a5-lower-bound"])

    if rules:
        return NecessityVerdict(n, group, False, tuple(rules), None)

    witness = next(
        p for p, r in enumerate_profiles(counting_table(group)) if r == residue
    )
    return NecessityVerdict(n, group, True, (RULES["residue-admitted"],), witness)
