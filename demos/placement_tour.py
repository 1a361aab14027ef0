"""Tour of one verified vertex placement, block by block.

Builds the icosahedral placement for K_{62,62} on the dodecahedron, shows
how the 124 vertices decompose into marker blocks and free orbits, prints
the fixed-vertex counts per rotation class against the counting table, and
runs the edge-routing checks and the exactness witness.

Run:  python3 demos/placement_tour.py
"""

from bipartite_tsg.assignments import (
    FreeOrbitBlock,
    build_assignment,
    necessity_profile_of,
    summarize_blocks,
    verify_fixed_counts,
)
from bipartite_tsg.hypotheses import check_subgroup_theorem, verify_construction


def main() -> None:
    assignment = build_assignment("A5", 62)
    print(f"placement {assignment.case_name!r} of K_{{62,62}} "
          f"on the {assignment.model.kind}")
    print(f"acting group order: {assignment.model.group.order}\n")

    print("vertex blocks:")
    for line in summarize_blocks(assignment):
        print(f"  {line}")
    free = assignment.model.group.order * sum(
        b.count
        for part in assignment.blocks
        for b in part
        if isinstance(b, FreeOrbitBlock)
    )
    print(f"  ({free} of the 124 vertices sit in free orbits)\n")

    print("fixed vertices per rotation class (computed vs stated):")
    report = verify_fixed_counts(assignment)
    for row in report.rows:
        flag = "" if row.matches else "   <-- disagrees with the stated value"
        print(f"  {row.label:<16} order {row.order}, class size {row.size:>2}: "
              f"computed {row.computed}, stated {row.stated}{flag}")

    profile, residue = necessity_profile_of(assignment)
    print(f"\nthis instantiates the counting-table row with residue "
          f"{residue} (mod 60):")
    print(f"  V side: {[f'{slot}: {count}' for slot, count in profile.v]}")
    print(f"  W side: {[f'{slot}: {count}' for slot, count in profile.w]}\n")

    full = verify_construction(assignment)
    print("edge-routing conditions:")
    for cond in full.conditions:
        print(f"  ({cond.condition}) pass: {cond.summary}")

    witness = check_subgroup_theorem(assignment)
    print(f"\nexactness witness: edge {witness.edge} "
          f"(criterion {witness.condition})")
    print(f"  a homeomorphism fixing it setwise must fix a "
          f"K_{{{witness.forced.shape.a},{witness.forced.shape.b}}} pointwise,"
          f" so no larger group can act")


if __name__ == "__main__":
    main()
