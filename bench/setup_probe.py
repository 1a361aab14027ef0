"""One fresh-process set-up of ``bipartite_tsg``, timed by the benchmark.

Usage: ``python3 bench/setup_probe.py <src directory>``.  Imports the
package from the given directory only, builds the four polyhedral models and
enumerates the A4/A5 profile tables, then prints one JSON line with the
in-process stage times.  The parent times the process from its start until
that line arrives.  The probe then times the benchmark's speed reference on
its own CPU and prints it on a second line, for the parent to scale by.
"""

import json
import sys
from time import perf_counter

MODEL_KINDS = ("tetrahedron", "tetrahedron-skeleton", "cube", "dodecahedron")


def main(src: str) -> None:
    start = perf_counter()
    sys.path.insert(0, src)
    from bipartite_tsg.necessity import enumerate_profiles
    from bipartite_tsg.polyhedra import build_polyhedral_model

    imported = perf_counter()
    for kind in MODEL_KINDS:
        build_polyhedral_model(kind)
    built = perf_counter()
    enumerate_profiles("A4")
    enumerate_profiles("A5")
    ready = perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "model_build_s": built - imported,
                "profiles_s": ready - built,
            }
        ),
        flush=True,
    )
    from speed import reference_seconds

    print(json.dumps({"reference_s": reference_seconds()}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
