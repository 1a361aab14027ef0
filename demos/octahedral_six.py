"""Why K_{6,6} admits tetrahedral but not octahedral symmetry.

n = 6 satisfies every residue constraint for the octahedral group, so the
exclusion is genuinely arithmetic: whichever way the order-4 rotations act,
the Burnside average for the orbits on one part forces an involution count
that the axis geometry cannot supply.  This demo walks through both
branches and then shows the verified tetrahedral placement that does work.

Run:  python3 demos/octahedral_six.py
"""

from bipartite_tsg import decide
from bipartite_tsg.necessity import s4_n6_analysis


def main() -> None:
    print("octahedral symmetry on K_{6,6}: branch analysis")
    for branch in s4_n6_analysis():
        print(f"\n  case: {branch.label} (order-4 fixed count {branch.n4v})")
        print(f"    orbit count on one part = {branch.orbit_form}")
        lo, hi = branch.m2v_bounds
        print(f"    outer involution count m2v must lie in [{lo}, {hi}]"
              f" and keep the count integral")
        print(f"    admissible values: {list(branch.admissible_m2v)}")
        for value, rule in branch.exclusions:
            print(f"    m2v = {value} fails [{rule.id}]: {rule.statement}")

    verdict = decide(6, "S4")
    print(f"\noctahedral verdict for n = 6: realizable = {verdict.realizable}")
    for rule in verdict.necessity.rules_fired:
        print(f"  cited rule [{rule.id}]: {rule.statement}")

    tetra = decide(6, "A4")
    report = tetra.construction
    print(f"\ntetrahedral verdict for n = 6: realizable = {tetra.realizable}")
    print(f"  placement: {report.case_name}")
    for line in report.blocks:
        print(f"    {line}")
    print("  routing conditions: "
          + ", ".join(f"({c.condition}) pass" for c in report.conditions))
    witness = report.subgroup_witness
    print(f"  exactness witness: edge {witness.edge} forces a "
          f"K_{{{witness.forced.shape.a},{witness.forced.shape.b}}}")


if __name__ == "__main__":
    main()
