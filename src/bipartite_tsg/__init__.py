"""Exact decision library for polyhedral topological symmetry groups of
complete bipartite graphs.

The package answers, for the three orientation-preserving polyhedral groups
(tetrahedral A4, octahedral S4, icosahedral A5), exactly which complete
bipartite graphs on equal parts admit a spatial embedding with that
symmetry group, and exhibits the combinatorial side of the constructions
that realize the positive cases.

Importing the package loads none of its modules.  Each exported name is
listed in ``_EXPORTS`` with the module that defines it, and the first read
of the name (``bipartite_tsg.decide``, ``from bipartite_tsg import decide``
or ``import *``) imports that module and binds the name here (PEP 562).  So
``import bipartite_tsg.necessity`` loads only ``necessity`` and the modules
it imports.  No exported name is also the name of a module, since importing
a module binds its name on the package.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name and the module that defines it.
_EXPORTS = {
    "BipartiteAut": "bipartite",
    "FixedSubgraphShape": "bipartite",
    "MixedParts": "bipartite",
    "fixed_shape": "bipartite",
    "validate_automorphism": "bipartite",
    "InternalMismatch": "decision",
    "SweepTable": "decision",
    "Verdict": "decision",
    "decide": "decision",
    "sweep": "decision",
    "theorem_predicate": "decision",
    "GROUPS": "necessity",
    "NecessityVerdict": "necessity",
    "enumerate_profiles": "necessity",
    "necessity_verdict": "necessity",
    "partition_feasible": "necessity",
    "s4_burnside_orbits": "necessity",
    "NotationError": "notation",
    "parse_cycles": "notation",
    "print_cycles": "notation",
    "CASE_DESCRIPTIONS": "realizability",
    "PartSizeTooSmall": "realizability",
    "RealizabilityResult": "realizability",
    "check_realizable": "realizability",
}

__all__ = [
    "BipartiteAut",
    "CASE_DESCRIPTIONS",
    "FixedSubgraphShape",
    "GROUPS",
    "InternalMismatch",
    "MixedParts",
    "NecessityVerdict",
    "NotationError",
    "PartSizeTooSmall",
    "RealizabilityResult",
    "SweepTable",
    "Verdict",
    "__version__",
    "check_realizable",
    "decide",
    "enumerate_profiles",
    "fixed_shape",
    "necessity_verdict",
    "parse_cycles",
    "partition_feasible",
    "print_cycles",
    "s4_burnside_orbits",
    "sweep",
    "theorem_predicate",
    "validate_automorphism",
]


def __getattr__(name: str):
    """Import an exported name's module on the name's first read; any other
    name is missing, so that ``from bipartite_tsg import notation`` goes on
    to import the module."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
