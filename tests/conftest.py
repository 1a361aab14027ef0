"""Shared fixtures: polyhedral models and one placement per recipe case.

Both are expensive enough to build once per session; every consumer treats
them as read-only.
"""

import pytest

from bipartite_tsg.assignments import MarkerBlock, build_assignment
from bipartite_tsg.polyhedra import build_polyhedral_model

MODEL_KINDS = ("tetrahedron", "tetrahedron-skeleton", "cube", "dodecahedron")

# One (group, n) pair per construction case, plus the pairs pinned by the
# package's frozen invariants (S4 at 32, A5 at 110).
SAMPLE_PAIRS = (
    ("A4", 6),    # tetrahedron-6
    ("A4", 12),   # skeleton-0, order-24 model serving the order-12 target
    ("S4", 4),    # skeleton-4
    ("A4", 16),   # skeleton-4 serving the order-12 target
    ("S4", 26),   # cube-2
    ("S4", 30),   # cube-6
    ("S4", 8),    # cube-8
    ("S4", 32),   # cube-8 (order-4 fixed-count invariant)
    ("S4", 14),   # cube-14
    ("A4", 18),   # cube-18
    ("S4", 20),   # cube-20
    ("A5", 32),   # dodecahedron-32
    ("A5", 42),   # dodecahedron-42
    ("A5", 50),   # dodecahedron-50
    ("A5", 60),   # dodecahedron-0
    ("A5", 62),   # dodecahedron-2
    ("A5", 72),   # dodecahedron-12
    ("A5", 80),   # dodecahedron-20
    ("A5", 90),   # dodecahedron-30
    ("A5", 110),  # dodecahedron-50 again (block-structure invariant)
)


@pytest.fixture(scope="session")
def models():
    return {kind: build_polyhedral_model(kind) for kind in MODEL_KINDS}


@pytest.fixture(scope="session")
def assignments():
    return {pair: build_assignment(*pair) for pair in SAMPLE_PAIRS}


def apply(a, e, point):
    """Image of one point label of placement ``a`` under the element ``e``,
    mapped label by label: the per-label reference for the block-built
    vertex action and for ``slot_images``."""
    model = a.model
    i = model.group.index(e)
    if point[0] == "free":
        _, tag, k, j = point
        return ("free", tag, k, model.group.product_table[i][j])
    if point[0] == "center":
        return ("center", model.marker_images[i]["center"][point[1]])
    marker_class, copy_name, m = point
    if model.parity_of(e) == -1:
        swap = {
            b.copy_name: b.swap_partner
            for b in a.all_blocks()
            if isinstance(b, MarkerBlock) and b.swap_partner is not None
        }
        copy_name = swap.get(copy_name, copy_name)
    return (marker_class, copy_name, model.marker_images[i][marker_class][m])
