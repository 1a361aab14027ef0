"""The complete bipartite graph K_{n,n}: checks of input counts, automorphism
validation, cycle profiles, fixed subgraphs and their circle-embeddability.

Vertices are plain indices: part V is 0..n-1, part W is n..2n-1.  Adjacency
is implicit (every V-vertex meets every W-vertex), so nothing here ever
materializes an edge list.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

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
    """Cycle-length counts of an automorphism, split by part.

    ``v_counts`` and ``w_counts`` count the cycles lying inside one part by
    length (fixed vertices are cycles of length 1); ``cross_counts`` counts
    the cycles meeting both parts, which occur exactly when the automorphism
    swaps the parts.  Each is a tuple of ``(length, count)`` pairs, lengths
    ascending and counts positive.
    """

    n: int
    r: int
    v_counts: tuple[tuple[int, int], ...]
    w_counts: tuple[tuple[int, int], ...]
    cross_counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        total = 0
        lengths = set()
        for part in (self.v_counts, self.w_counts, self.cross_counts):
            previous = 0
            for length, count in part:
                if length <= previous or count < 1:
                    raise ValueError(
                        "counts must be (length, count) pairs, lengths "
                        "ascending and counts positive"
                    )
                previous = length
                total += length * count
                lengths.add(length)
        if total != 2 * self.n:
            raise ValueError(f"cycle lengths total {total}, expected {2 * self.n}")
        # Every length divides r exactly when their lcm does.
        order = lcm(*lengths)
        if self.r % order:
            raise ValueError("a cycle length does not divide the order")
        if order != self.r:
            raise ValueError("order is not the lcm of the cycle lengths")

    @property
    def swapping(self) -> bool:
        return bool(self.cross_counts)

    def swapped(self) -> "CycleProfile":
        """The profile of the same permutation after relabeling V as W."""
        return CycleProfile(
            self.n, self.r, self.w_counts, self.v_counts, self.cross_counts
        )

    @classmethod
    def of_counts(
        cls,
        n: int,
        on_v: Mapping[int, int],
        on_w: Mapping[int, int],
        swapping: bool,
    ) -> "CycleProfile":
        """The profile of an automorphism of ``K_{n,n}`` from the lengths of
        all its cycles, fixed points included, as ``{length: count}``
        tallies of the cycles whose least point is in V (``on_v``) and of
        those whose least point is in W (``on_w``).  The order is the lcm of
        the lengths.

        When the automorphism swaps the parts, every cycle meets V and so is
        led from V: ``on_v`` holds the cross counts, and an ``on_w`` count,
        which would leave the lengths short of ``2n``, is rejected."""
        v = tuple(sorted(on_v.items()))
        w = tuple(sorted(on_w.items()))
        cross = ()
        if swapping:
            v, w, cross = (), (), v
        return cls(n, lcm(*on_v, *on_w), v, w, cross)

    @classmethod
    def of_cycles(cls, n: int, cycles: Sequence[tuple[int, ...]]) -> "CycleProfile":
        """The profile of an automorphism of ``K_{n,n}`` from all its
        cycles, fixed points included, each starting at its least point and
        sorted by it (as :meth:`Perm.cycles` gives them), counted into
        :meth:`of_counts`.

        The cycles led from V end at the first cycle whose least point is in
        W.  The first cycle holds vertex 0; the automorphism swaps the parts
        when that cycle leaves V."""
        split = bisect_left(cycles, n, key=itemgetter(0))
        first = cycles[0]
        return cls.of_counts(
            n,
            Counter(map(len, cycles[:split])),
            Counter(map(len, cycles[split:])),
            len(first) > 1 and first[1] >= n,
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
