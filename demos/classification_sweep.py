"""Sweep the classification for all three polyhedral groups.

For each group this prints which part sizes n admit an embedding of
K_{n,n} in the 3-sphere whose orientation-preserving topological symmetry
group is exactly that group, up to a configurable limit, together with
the residue pattern behind the answer.

Run:  python3 demos/classification_sweep.py [--max N]
"""

import argparse

from bipartite_tsg import GROUPS, sweep
from bipartite_tsg.necessity import TABLE_MODULUS

NAMES = {
    "A4": "tetrahedral (order 12)",
    "S4": "octahedral (order 24)",
    "A5": "icosahedral (order 60)",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=120)
    args = parser.parse_args()

    for group in GROUPS:
        table = sweep(group, args.max)
        values = table.realizable_values()
        modulus = TABLE_MODULUS[group]
        print(f"{NAMES[group]} symmetry, n up to {args.max}:")
        print(f"  realizable n ({len(values)}): "
              + (", ".join(map(str, values)) if values else "none"))
        residues = sorted({n % modulus for n in values})
        print(f"  residues mod {modulus}: {residues}")
        # every realizable n comes with a verified placement: a failing
        # check raises, so a construction is present only if all passed
        built = [v for v in table.rows if v.realizable]
        assert all(v.construction is not None for v in built)
        cases = sorted({v.construction.case_name for v in built})
        print(f"  placement recipes used: {', '.join(cases)}")
        print()


if __name__ == "__main__":
    main()
