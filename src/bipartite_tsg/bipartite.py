"""The complete bipartite graph K_{n,n}: checks of input counts, automorphism
validation, cycle profiles, fixed subgraphs and their circle-embeddability.

Vertices are plain indices: part V is 0..n-1, part W is n..2n-1.  Adjacency
is implicit (every V-vertex meets every W-vertex), so nothing here ever
materializes an edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable

from .perms import Perm


def require_integer(value: object, what: str) -> None:
    """Reject anything but an ``int`` with :class:`ValueError`; ``bool`` is
    rejected too, although it is an ``int`` subclass."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def require_count(value: object, what: str) -> None:
    """Reject anything but a nonnegative ``int`` with :class:`ValueError`."""
    require_integer(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")


class MixedParts(ValueError):
    """A permutation mapped part V to a set meeting both parts: not an
    automorphism of K_{n,n}."""


@dataclass(frozen=True)
class BipartiteAut:
    """A validated automorphism of K_{n,n}.

    ``part_behavior`` is "preserves" when the permutation maps V onto V and
    "swaps" when it maps V onto W.
    """

    perm: Perm
    n: int
    part_behavior: str

    def order(self) -> int:
        return self.perm.order()


def validate_automorphism(p: Perm, n: int) -> BipartiteAut:
    """Check that p is an automorphism of K_{n,n} and detect its part behavior.

    An automorphism must map part V onto V or onto W; a permutation whose
    image of V meets both parts raises MixedParts.
    """
    require_integer(n, "part size")
    if n < 1:
        raise ValueError(f"part size must be positive, got n = {n}")
    if p.degree != 2 * n:
        raise ValueError(f"degree {p.degree} does not match 2n = {2 * n}")
    image_in_v = sum(map(n.__gt__, p.images[:n]))
    if image_in_v == n:
        return BipartiteAut(p, n, "preserves")
    if image_in_v == 0:
        return BipartiteAut(p, n, "swaps")
    raise MixedParts(
        f"image of part V meets both parts ({image_in_v} of {n} land in V)"
    )


@dataclass(frozen=True)
class CycleProfile:
    """Cycle-length multisets of an automorphism, split by part.

    ``v_cycles`` and ``w_cycles`` are the lengths of cycles lying inside one
    part (fixed vertices count as length-1 cycles); ``cross_cycles`` are the
    lengths of cycles meeting both parts, which occur exactly when the
    automorphism swaps the parts.  Multisets are stored as sorted tuples.
    """

    n: int
    r: int
    v_cycles: tuple[int, ...]
    w_cycles: tuple[int, ...]
    cross_cycles: tuple[int, ...]

    def __post_init__(self):
        total = sum(self.v_cycles) + sum(self.w_cycles) + sum(self.cross_cycles)
        if total != 2 * self.n:
            raise ValueError(f"cycle lengths total {total}, expected {2 * self.n}")
        lengths = {*self.v_cycles, *self.w_cycles, *self.cross_cycles}
        if any(self.r % length for length in lengths):
            raise ValueError("a cycle length does not divide the order")
        if lcm(*lengths) != self.r:
            raise ValueError("order is not the lcm of the cycle lengths")

    @property
    def swapping(self) -> bool:
        return bool(self.cross_cycles)

    def swapped(self) -> "CycleProfile":
        """The profile of the same permutation after relabeling V as W."""
        return CycleProfile(self.n, self.r, self.w_cycles, self.v_cycles, self.cross_cycles)

    @classmethod
    def of_cycles(cls, n: int, cycles: Iterable[tuple[int, ...]]) -> "CycleProfile":
        """The profile of a permutation of ``2n`` vertices from all its
        cycles, fixed points included, each starting at its least point (as
        :meth:`Perm.cycles` gives them).  The order is the lcm of the lengths.
        A cycle lies in W when its least point does, in V when its greatest
        point does, and meets both parts otherwise."""
        on_v: list[int] = []
        on_w: list[int] = []
        cross: list[int] = []
        for cycle in cycles:
            if cycle[0] >= n:
                on_w.append(len(cycle))
            elif len(cycle) == 1 or max(cycle) < n:
                on_v.append(len(cycle))
            else:
                cross.append(len(cycle))
        on_v.sort()
        on_w.sort()
        cross.sort()
        return cls(
            n, lcm(*on_v, *on_w, *cross), tuple(on_v), tuple(on_w), tuple(cross)
        )


def cycle_profile(aut: BipartiteAut) -> CycleProfile:
    return CycleProfile.of_cycles(aut.n, aut.perm.cycles(include_fixed=True))


@dataclass(frozen=True)
class FixedSubgraphShape:
    """The subgraph of K_{n,n} pointwise fixed by a set of automorphisms is a
    complete bipartite graph K_{a,b}; only (a, b) matters downstream."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("counts must be nonnegative")


def fixed_shape(auts: Iterable[BipartiteAut]) -> FixedSubgraphShape:
    """Shape of the subgraph pointwise fixed by every automorphism given."""
    auts = list(auts)
    if not auts:
        raise ValueError("need at least one automorphism")
    n = auts[0].n
    if any(a.n != n for a in auts):
        raise ValueError("automorphisms live on different graphs")
    common: set[int] = set(range(2 * n))
    for a in auts:
        common &= set(a.perm.fixed_points())
    return FixedSubgraphShape(
        sum(1 for x in common if x < n), sum(1 for x in common if x >= n)
    )


def embeds_in_circle(shape: FixedSubgraphShape) -> bool:
    """K_{a,b} embeds in a circle iff it is edgeless or both parts have at
    most 2 vertices (the largest cycle subgraph of a circle is the 4-cycle)."""
    a, b = shape.a, shape.b
    return a == 0 or b == 0 or (a <= 2 and b <= 2)


def embeds_in_proper_subset_of_circle(shape: FixedSubgraphShape) -> bool:
    """As embeds_in_circle, except K_{2,2} is excluded: a 4-cycle needs the
    whole circle.  Edgeless shapes always fit in an arc."""
    a, b = shape.a, shape.b
    if a == 0 or b == 0:
        return True
    return embeds_in_circle(shape) and not (a == 2 and b == 2)
