"""Command-line interface.

Subcommands::

    decide     --group {A4,S4,A5} --n N [--json] [--cap N]
    sweep      --group {A4,S4,A5} --max N [--csv | --json] [--cap N]
    check-aut  --n N --cycles "(v1 v2 ...)..."
    verify     --group {A4,S4,A5} --n N [--report out.json] [--cap N]
    tables     --group {A4,S4,A5}

Exit codes: 0 = decided (whatever the answer), 2 = input error,
3 = internal verification mismatch (the pipeline disagrees with the
closed-form classification - always a bug, never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bipartite import CycleProfile, validate_automorphism
from .decide import GROUPS, InternalMismatch, Verdict, decide, sweep
from .necessity import RULES, TABLE_MODULUS, counting_table, enumerate_profiles
from .notation import NotationError, format_cycles, parse_cycles
from .realizability import (
    CASE_DESCRIPTIONS,
    PartSizeTooSmall,
    RealizabilityResult,
    check_profile,
)

EXIT_DECIDED = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3

# One cold verify of an admitted n, report written, peaks at 18.1-18.7 MB
# of RSS, the imported library, and writes a report of about 2.5 KB, at
# A4 n = 99996 and 99988 and A5 n = 99992 alike: nothing in a call grows
# with n.  The cap is a documented bound on the input, not a memory limit.
DEFAULT_N_CAP = 100_000

_GROUP_NAMES = {
    "A4": "tetrahedral (order 12)",
    "S4": "octahedral (order 24)",
    "A5": "icosahedral (order 60)",
}


# --------------------------------------------------------------------------
# rendering helpers


def _verdict_text(verdict: Verdict) -> str:
    lines = [
        f"K_{{{verdict.n},{verdict.n}}} with {_GROUP_NAMES[verdict.group]} "
        f"symmetry: {'realizable' if verdict.realizable else 'not realizable'}"
    ]
    for rule in verdict.necessity.rules_fired:
        lines.append(f"  rule [{rule.id}]: {rule.statement}")
    report = verdict.construction
    if report is not None:
        lines.append(f"  construction: {report.case_name}")
        for block in report.blocks:
            lines.append(f"    {block}")
        for cond in report.conditions:
            lines.append(
                f"    routing condition ({cond.condition}) pass: {cond.summary}"
            )
        witness = report.subgroup_witness
        if witness is not None:
            v, w = witness.edge
            lines.append(
                f"    exactness witness: edge ({v}, {w}) forces a "
                f"K_{{{witness.forced.shape.a},{witness.forced.shape.b}}}"
                f" (criterion {witness.condition})"
            )
        if report.corollary_edge is not None:
            lines.append(
                f"    step-down edge for the order-12 target: "
                f"{report.corollary_edge}"
            )
    if verdict.diagnostic:
        lines.append(f"  diagnostic: {verdict.diagnostic}")
    return "\n".join(lines)


def _sweep_csv(table) -> str:
    modulus = TABLE_MODULUS[table.group]
    lines = ["n,group,realizable,residue,rule_ids"]
    for v in table.rows:
        rule_ids = ";".join(v.citations)
        lines.append(
            f"{v.n},{v.group},{str(v.realizable).lower()},{v.n % modulus},{rule_ids}"
        )
    return "\n".join(lines)


def _sweep_json(table) -> dict:
    modulus = TABLE_MODULUS[table.group]
    return {
        "group": table.group,
        "n_max": table.n_max,
        "realizable": list(table.realizable_values()),
        "residue_summary": {
            str(r): c for r, c in table.residue_summary().items()
        },
        "rows": [
            {
                "n": v.n,
                "realizable": v.realizable,
                "residue": v.n % modulus,
                "rule_ids": list(v.citations),
            }
            for v in table.rows
        ],
    }


def _sweep_text(table) -> str:
    values = table.realizable_values()
    lines = [
        f"group {table.group}: {len(values)} realizable part sizes up to "
        f"n = {table.n_max}",
        "realizable n: " + (", ".join(map(str, values)) if values else "none"),
        f"per residue class (mod {TABLE_MODULUS[table.group]}):",
    ]
    for residue, count in table.residue_summary().items():
        lines.append(f"  n = {residue} (mod {TABLE_MODULUS[table.group]}): {count}")
    return "\n".join(lines)


def check_automorphism_cmd(
    text: str, n: int
) -> tuple[RealizabilityResult, dict]:
    """Parse cycle notation, validate the automorphism, and match it against
    the nine realizable patterns.  Returns the result and a report dict."""
    perm = parse_cycles(text, n)
    aut = validate_automorphism(perm, n)
    # The only walk over the cycles: profile, order and text all read it.
    cycles = perm.cycles(include_fixed=True)
    profile = CycleProfile.of_cycles(n, cycles)
    result = check_profile(profile)
    report = {
        "n": n,
        "cycles": format_cycles(cycles, n) or "(identity)",
        "order": profile.r,
        "part_behavior": aut.part_behavior,
        "realizable": result.realizable,
        "orientation": result.orientation,
        "matched_cases": [
            {"case": c, "pattern": CASE_DESCRIPTIONS[c]}
            for c in sorted(result.matched_cases)
        ],
    }
    return result, report


# --------------------------------------------------------------------------
# subcommand handlers


def _capped(value: int, cap: int, what: str) -> int:
    if value > cap:
        raise ValueError(
            f"{what} {value} exceeds the cap {cap}; raise it with --cap"
        )
    return value


def _cmd_decide(args) -> int:
    verdict = decide(_capped(args.n, args.cap, "part size"), args.group)
    if args.json:
        print(json.dumps(verdict.as_dict(), indent=2))
    else:
        print(_verdict_text(verdict))
    return EXIT_DECIDED


def _cmd_sweep(args) -> int:
    table = sweep(args.group, _capped(args.max, args.cap, "sweep limit"))
    if args.csv:
        print(_sweep_csv(table))
    elif args.json:
        print(json.dumps(_sweep_json(table), indent=2))
    else:
        print(_sweep_text(table))
    return EXIT_DECIDED


def _cmd_check_aut(args) -> int:
    if args.n > DEFAULT_N_CAP:
        raise ValueError(f"part size {args.n} exceeds the cap {DEFAULT_N_CAP}")
    result, report = check_automorphism_cmd(args.cycles, args.n)
    print(f"automorphism of K_{{{args.n},{args.n}}}: {report['cycles']}")
    print(f"order {report['order']}, {report['part_behavior']} the parts")
    if result.realizable:
        print(f"realizable ({result.orientation})")
        for entry in report["matched_cases"]:
            print(f"  case ({entry['case']}): {entry['pattern']}")
    else:
        print(
            "not realizable: no embedding of the graph admits an "
            "orientation-preserving homeomorphism inducing it"
        )
    return EXIT_DECIDED


def _cmd_verify(args) -> int:
    verdict = decide(_capped(args.n, args.cap, "part size"), args.group)
    payload = json.dumps(verdict.as_dict(), indent=2)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"input error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(_verdict_text(verdict))
        print(f"report written to {args.report}")
    else:
        print(payload)
    return EXIT_DECIDED


def _cmd_tables(args) -> int:
    modulus = TABLE_MODULUS[args.group]
    rows = enumerate_profiles(counting_table(args.group))
    print(
        f"admissible fixed-vertex profiles for the "
        f"{_GROUP_NAMES[args.group]} group (residues mod {modulus}):"
    )
    if args.group == "S4":
        print(
            "(the octahedral group constrains n through its order-12 "
            "rotation subgroup, so it shares the tetrahedral table)"
        )
    slots = [slot for slot, _ in rows[0][0].v]
    header = (
        "  residue | "
        + " ".join(f"n{s}^v" for s in slots)
        + " | "
        + " ".join(f"n{s}^w" for s in slots)
    )
    print(header)
    for profile, residue in rows:
        v = " ".join(f"{str(c):>4}" for _, c in profile.v)
        w = " ".join(f"{str(c):>4}" for _, c in profile.w)
        print(f"  {residue:>7} | {v} | {w}")
    print()
    cited = ["residue-admitted", "residue-excluded"]
    if args.group == "S4":
        cited.append("s4-six-exclusion")
    if args.group == "A5":
        cited.extend(["a5-lower-bound", "a5-orbit-sizes"])
    for rule_id in cited:
        rule = RULES[rule_id]
        print(f"rule [{rule.id}]: {rule.statement}")
    return EXIT_DECIDED


# --------------------------------------------------------------------------
# parser


def _cap(text: str) -> int:
    """A ``--cap`` value, refused as the command line is parsed unless it
    is a count, 0 included."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a count (0 or more), not {text!r}")
    return int(text)


def _add_n_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap",
        type=_cap,
        default=DEFAULT_N_CAP,
        help=f"hard limit on --n (default {DEFAULT_N_CAP}; a call takes "
        "at most about 19 MB at any n)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipartite-tsg",
        description=(
            "Decide which complete bipartite graphs K_{n,n} embed in the "
            "3-sphere with tetrahedral, octahedral, or icosahedral "
            "orientation-preserving topological symmetry group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one (n, group) pair")
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    _add_n_cap(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("sweep", help="decide every n up to a limit")
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--max", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.add_argument(
        "--cap",
        type=_cap,
        default=500,
        help="hard limit on --max (default 500)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "check-aut", help="check one automorphism given in cycle notation"
    )
    p.add_argument(
        "--n", type=int, required=True, help=f"part size, at most {DEFAULT_N_CAP}"
    )
    p.add_argument(
        "--cycles",
        required=True,
        help='e.g. "(v1 v2 v3)(w1 w2 w3)"; unmentioned vertices are fixed',
    )
    p.set_defaults(func=_cmd_check_aut)

    p = sub.add_parser(
        "verify", help="run the full pipeline and write the JSON report"
    )
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--report", help="path for the JSON report")
    _add_n_cap(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "tables", help="print the group's admissible-profile table"
    )
    p.add_argument("--group", choices=GROUPS, required=True)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalMismatch as exc:
        print(f"internal verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NotationError, PartSizeTooSmall) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
