"""Permutations, fully enumerated finite groups, and group actions.

Every group handled by this package has order at most a few thousand, so
groups are closed by plain breadth-first multiplication and kept as sorted
element tuples.  No stabilizer chains, no randomization: element order is
the lexicographic order of image tuples, which makes every downstream
enumeration deterministic.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import compress, count
from math import lcm
from operator import eq, itemgetter


def compose_images(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the composite of two image sequences: ``p[q[i]]`` for
    every ``i``."""
    if len(q) < 2:  # itemgetter returns a bare item for one index
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


class Perm:
    """An immutable permutation of range(degree), stored as its image tuple.

    The hash of the image tuple is kept once computed: a tuple does not
    keep its own, and the per-placement tables are keyed by ``Perm``."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n and (len(set(images)) != n or min(images) != 0 or max(images) != n - 1):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        self.images: tuple[int, ...] = images

    @classmethod
    def _from_checked(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap the image tuple of a product or inverse of checked
        permutations without checking it again: such a composite is a
        permutation by construction."""
        perm = cls.__new__(cls)
        perm.images = images
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build a permutation from disjoint cycles; unmentioned points are fixed."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if not 0 <= x < degree:
                    raise ValueError(f"point {x} out of range for degree {degree}")
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles")
                seen.add(x)
            for pos, x in enumerate(cycle):
                images[x] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm._from_checked(compose_images(self.images, other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._from_checked(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Cycle normal form: each cycle starts at its smallest point, cycles
        are sorted by smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(compress(count(), map(eq, self.images, count())))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.images)
            return self._hash

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
        return f"Perm[{body or 'id'}]"


class FiniteGroup:
    """A fully enumerated permutation group on range(degree).

    ``elements`` is always sorted lexicographically by image tuple, so any
    iteration over a group is reproducible across runs.
    """

    def __init__(self, elements: Iterable[Perm], generators: Sequence[Perm] = ()):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group needs at least the identity")
        self.degree: int = elems[0].degree
        if any(e.degree != self.degree for e in elems):
            raise ValueError("degree mismatch among elements")
        self.elements: tuple[Perm, ...] = tuple(elems)
        self.generators: tuple[Perm, ...] = tuple(generators) or self.elements
        self.identity: Perm = Perm.identity(self.degree)
        self._element_set = frozenset(self.elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if self.identity not in self._element_set:
            raise ValueError("identity missing")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._element_set

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, p: Perm) -> int:
        return self._index[p]

    @cached_property
    def product_table(self) -> tuple[tuple[int, ...], ...]:
        """Multiplication on element indices, built on first use:
        ``product_table[a][b]`` is the index of ``elements[a] * elements[b]``.

        Only the generators' rows are composed element by element.  Every
        other row is reached breadth first from the identity's, and the row
        of ``g * a`` is the row of ``a`` read through the row of ``g``:
        ``row(g*a)[b] = row_g[row_a[b]]``, the index of ``g * (a * b)``.
        Raises ValueError if the generators do not reach every element."""
        index = {e.images: i for i, e in enumerate(self.elements)}
        steps = [
            tuple(index[compose_images(g.images, b.images)] for b in self.elements)
            for g in self.generators
        ]
        start = index[self.identity.images]
        rows: list[tuple[int, ...] | None] = [None] * len(self.elements)
        rows[start] = tuple(range(len(self.elements)))
        reached = [start]
        for a in reached:  # appended to while it is read: a breadth-first queue
            for row in steps:
                ga = row[a]
                if rows[ga] is None:
                    rows[ga] = compose_images(row, rows[a])
                    reached.append(ga)
        if len(reached) != len(self.elements):
            raise ValueError("the generators do not generate the group")
        return tuple(rows)

    def conjugacy_classes(self) -> tuple[tuple[Perm, ...], ...]:
        """Partition of the elements into conjugacy classes, each class sorted,
        classes ordered by their least element.  Computed once per group."""
        return self._conjugacy_classes

    @cached_property
    def _conjugacy_classes(self) -> tuple[tuple[Perm, ...], ...]:
        return self._partition_into_classes()

    def _partition_into_classes(self) -> tuple[tuple[Perm, ...], ...]:
        members: dict[int, list[Perm]] = {}
        for e, (_, r) in zip(self.elements, self.conjugators):
            members.setdefault(r, []).append(e)
        return tuple(tuple(cls) for _, cls in sorted(members.items()))

    @cached_property
    def conjugators(self) -> tuple[tuple[int, int], ...]:
        """Per element index ``e``, a pair ``(g, r)`` of element indices with
        ``elements[e] == elements[g] * elements[r] * elements[g]^-1``, where
        ``r`` is the least element of the conjugacy class of ``e``.  Built
        from the product table.  The identity is the least element, index 0,
        so each representative is paired with it."""
        table = self.product_table
        inverse = [row.index(0) for row in table]
        order = len(self.elements)
        pairs: list[tuple[int, int] | None] = [None] * order
        for r in range(order):
            if pairs[r] is not None:
                continue
            for g in range(order):
                c = table[table[g][r]][inverse[g]]
                if pairs[c] is None:
                    pairs[c] = (g, r)
        return tuple(pairs)


def generate_group(gens: Sequence[Perm]) -> FiniteGroup:
    """Close a generating set under multiplication.

    Raises ValueError if the generators do not share a degree.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch among generators")
    identity = Perm.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                p = g * e
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
    return FiniteGroup(elements, generators=tuple(gens))


class GroupAction:
    """A finite group acting on a finite labelled point set.

    ``GroupAction(group, points, images)`` is the action in which ``e``
    sends point ``i`` to ``images[e][i]``.  ``images`` must hold every
    generator's list and may hold any other element's.  Each given list must
    be a permutation of the points and the identity must act trivially.
    Every element's permutation is then composed from the generators' along
    the group's product table, which verifies the homomorphism law
    act(g*a) = act(g) o act(a) for every generator g against every element a
    and so pins the whole multiplication table for a generated group; each
    given list must equal the composed one.  The permutations of all
    elements (:attr:`perms`) are made when first read; :meth:`images_of`
    reads one element's.
    """

    def __init__(
        self,
        group: FiniteGroup,
        points: Sequence[Hashable],
        images: Mapping[Perm, Sequence[int]],
    ):
        self.group = group
        self.points: tuple[Hashable, ...] = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point labels")
        given: dict[Perm, Perm] = {}
        for e, row in images.items():
            perm = Perm(row)
            if perm.degree != len(self.points):
                raise ValueError(
                    f"{e!r} has {perm.degree} images for {len(self.points)} points"
                )
            given[e] = perm
        if group.identity in given and not given[group.identity].is_identity():
            raise ValueError("identity does not act trivially")
        self._images = self._generated_images(given)
        for e, perm in given.items():
            if self.images_of(e) != perm.images:
                raise ValueError(f"not a homomorphism at {e!r}")

    @cached_property
    def perms(self) -> dict[Perm, Perm]:
        """Every element's permutation, made from its checked image list on
        first read."""
        return {
            e: Perm._from_checked(images)
            for e, images in zip(self.group.elements, self._images)
        }

    def images_of(self, e: Perm) -> tuple[int, ...]:
        """The image tuple of ``e``'s permutation, without making the other
        elements' permutations."""
        return self._images[self.group.index(e)]

    def _generated_images(
        self, given: Mapping[Perm, Perm]
    ) -> list[tuple[int, ...]]:
        """Every element's image list, by element index, composed from the
        generators' along the product table.

        Breadth first from the identity, which acts trivially: each element
        ``a`` is visited once, and each generator ``g`` sends it to ``g*a``
        with the permutation ``act(g) o act(a)``.  The first pair to reach an
        element assigns its permutation and every later pair must give the
        same one, so the homomorphism law is checked for every generator
        against every element.  Composites of checked permutations are
        permutations, so they are not checked again.
        """
        group = self.group
        elements = group.elements
        steps = []
        for g in group.generators:
            if g not in given:
                raise ValueError(f"no image list for the generator {g!r}")
            steps.append((g, group.product_table[group.index(g)], given[g].images))
        start = group.index(group.identity)
        images: list[tuple[int, ...] | None] = [None] * len(elements)
        images[start] = tuple(range(len(self.points)))
        reached = [start]
        for a in reached:  # appended to while it is read: a breadth-first queue
            image = images[a]
            for g, row, pg in steps:
                composite = compose_images(pg, image)
                ga = row[a]
                if images[ga] is None:
                    images[ga] = composite
                    reached.append(ga)
                elif images[ga] != composite:
                    raise ValueError(f"not a homomorphism at ({g!r}, {elements[a]!r})")
        if len(reached) != len(elements):
            raise ValueError("the generators do not generate the group")
        return images

    def fixed_points(self, e: Perm) -> tuple[Hashable, ...]:
        return tuple(self.points[i] for i in self.perms[e].fixed_points())
