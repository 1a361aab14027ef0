"""Command-line interface: subcommands, output formats, exit codes."""

import importlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from bipartite_tsg.assignments import RECIPES, PlacementTemplate
from bipartite_tsg.cli import (
    DEFAULT_N_CAP,
    EXIT_DECIDED,
    EXIT_INPUT,
    EXIT_MISMATCH,
    check_automorphism_cmd,
    main,
)
from bipartite_tsg.decide import InternalMismatch, decide
from bipartite_tsg.notation import UnknownToken

cli_module = importlib.import_module("bipartite_tsg.cli")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- decide


def test_decide_text_output(capsys):
    code, out, err = run(capsys, "decide", "--group", "S4", "--n", "6")
    assert code == EXIT_DECIDED
    assert err == ""
    assert out.startswith(
        "K_{6,6} with octahedral (order 24) symmetry: not realizable"
    )
    assert "rule [s4-six-exclusion]" in out


def test_decide_text_output_for_a_realizable_pair(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A4", "--n", "16")
    assert code == EXIT_DECIDED
    assert "realizable" in out.splitlines()[0]
    assert "construction: skeleton-4" in out
    assert out.count("routing condition") == 5
    assert "pass" in out and "FAIL" not in out
    assert "exactness witness" in out
    assert "step-down edge" in out


def test_decide_json_output(capsys):
    code, out, _ = run(capsys, "decide", "--group", "A5", "--n", "32", "--json")
    assert code == EXIT_DECIDED
    payload = json.loads(out)
    assert payload["n"] == 32
    assert payload["group"] == "A5"
    assert payload["realizable"] is True
    assert payload["construction"]["case"] == "dodecahedron-32"


def test_decide_rejects_negative_n(capsys):
    code, _, err = run(capsys, "decide", "--group", "A4", "--n", "-3")
    assert code == EXIT_INPUT
    assert "input error" in err


# -------------------------------------------------------------------- sweep


def test_sweep_csv_output(capsys):
    code, out, _ = run(capsys, "sweep", "--group", "A4", "--max", "20", "--csv")
    assert code == EXIT_DECIDED
    lines = out.strip().splitlines()
    assert lines[0] == "n,group,realizable,residue,rule_ids"
    assert len(lines) == 21
    assert lines[4] == "4,A4,true,4,residue-admitted"
    first = lines[1].split(",")
    assert first[:4] == ["1", "A4", "false", "1"]
    assert set(first[4].split(";")) == {"residue-excluded", "part-size-minimum"}


def test_sweep_csv_is_deterministic(capsys):
    _, first, _ = run(capsys, "sweep", "--group", "S4", "--max", "15", "--csv")
    _, second, _ = run(capsys, "sweep", "--group", "S4", "--max", "15", "--csv")
    assert first == second


def test_sweep_json_output(capsys):
    code, out, _ = run(capsys, "sweep", "--group", "A5", "--max", "35", "--json")
    assert code == EXIT_DECIDED
    payload = json.loads(out)
    assert payload["group"] == "A5"
    assert payload["n_max"] == 35
    assert payload["realizable"] == [32]
    assert payload["residue_summary"] == {"32": 1}
    assert [row["n"] for row in payload["rows"]] == list(range(1, 36))


def test_sweep_text_output(capsys):
    code, out, _ = run(capsys, "sweep", "--group", "A4", "--max", "14")
    assert code == EXIT_DECIDED
    assert "group A4: 5 realizable part sizes up to n = 14" in out
    assert "realizable n: 4, 6, 8, 12, 14" in out


def test_sweep_enforces_the_cap(capsys):
    code, out, err = run(capsys, "sweep", "--group", "A4", "--max", "501", "--csv")
    assert code == EXIT_INPUT
    assert out == ""
    assert "exceeds the cap" in err

    code, _, _ = run(
        capsys, "sweep", "--group", "A4", "--max", "12", "--cap", "12"
    )
    assert code == EXIT_DECIDED

    code, _, err = run(
        capsys, "sweep", "--group", "A4", "--max", "13", "--cap", "12"
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["decide", "verify"])
def test_decide_and_verify_enforce_the_cap(capsys, command):
    over = DEFAULT_N_CAP + 1
    code, out, err = run(capsys, command, "--group", "A5", "--n", str(over))
    assert code == EXIT_INPUT
    assert out == ""
    assert (
        f"part size {over} exceeds the cap {DEFAULT_N_CAP}; raise it with --cap"
        in err
    )

    code, _, _ = run(capsys, command, "--group", "A4", "--n", "12", "--cap", "12")
    assert code == EXIT_DECIDED

    code, out, err = run(
        capsys, command, "--group", "A4", "--n", "13", "--cap", "12"
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "raise it with --cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "--group", "A5", "--n", "60"),
        ("verify", "--group", "A5", "--n", "60"),
        ("sweep", "--group", "A5", "--max", "60"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_negative_cap_is_refused_when_the_command_line_is_parsed(capsys, argv):
    # A cap is a count: "-1" is an input error naming --cap, not a bound
    # that every n exceeds.  A cap of 0 is valid and refuses every n > 0.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT
    assert out == ""
    assert "argument --cap: must be a count (0 or more), not '-1'" in err
    assert "exceeds the cap" not in err

    code, out, err = run(capsys, *argv, "--cap", "0")
    assert code == EXIT_INPUT
    assert out == ""
    assert "60 exceeds the cap 0" in err


@pytest.mark.parametrize("command", ["decide", "verify"])
def test_decide_and_verify_past_the_index_range_with_the_cap_raised(capsys, command):
    n = 2**63  # admitted for A4; len() of a part this size overflows
    code, out, err = run(
        capsys, command, "--group", "A4", "--n", str(n), "--cap", str(n)
    )
    assert code == EXIT_DECIDED
    assert err == ""
    assert str(n) in out


def test_verify_over_the_cap_writes_no_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--group", "A4", "--n", "16", "--cap", "12",
        "--report", str(target),
    )
    assert code == EXIT_INPUT
    assert not target.exists()


# ---------------------------------------------------------------- check-aut


def test_check_aut_realizable(capsys):
    code, out, _ = run(
        capsys, "check-aut", "--n", "3", "--cycles", "(v1 v2)(w1 w2)"
    )
    assert code == EXIT_DECIDED
    assert "order 2, preserves the parts" in out
    assert "realizable (" in out
    assert "case (" in out


def test_check_aut_part_swapping(capsys):
    code, out, _ = run(
        capsys, "check-aut", "--n", "3",
        "--cycles", "(v1 w1)(v2 w2)(v3 w3)",
    )
    assert code == EXIT_DECIDED
    assert "swaps the parts" in out
    assert "realizable (" in out


def test_check_aut_identity_is_trivially_realizable(capsys):
    code, out, _ = run(capsys, "check-aut", "--n", "3", "--cycles", "")
    assert code == EXIT_DECIDED
    assert "(identity)" in out
    assert "realizable (" in out


def test_check_aut_not_realizable(capsys):
    # three fixed vertices in each part cannot sit on one rotation circle
    code, out, _ = run(
        capsys, "check-aut", "--n", "6", "--cycles", "(v1 v2 v3)(w1 w2 w3)"
    )
    assert code == EXIT_DECIDED
    assert "not realizable" in out


def test_check_aut_rejects_bad_cycle_text(capsys):
    code, _, err = run(capsys, "check-aut", "--n", "3", "--cycles", "(v1 x)")
    assert code == EXIT_INPUT
    assert "input error" in err and "position" in err


def test_check_aut_rejects_small_parts(capsys):
    code, _, err = run(
        capsys, "check-aut", "--n", "2", "--cycles", "(v1 v2)(w1 w2)"
    )
    assert code == EXIT_INPUT
    assert "input error" in err


def test_check_aut_enforces_the_cap(capsys):
    over = DEFAULT_N_CAP + 1
    code, out, err = run(capsys, "check-aut", "--n", str(over), "--cycles", "")
    assert code == EXIT_INPUT
    assert out == ""
    assert f"input error: part size {over} exceeds the cap {DEFAULT_N_CAP}" in err
    code, out, _ = run(
        capsys, "check-aut", "--n", str(DEFAULT_N_CAP), "--cycles", "(v1 v2)"
    )
    assert code == EXIT_DECIDED
    assert f"automorphism of K_{{{DEFAULT_N_CAP},{DEFAULT_N_CAP}}}" in out


# A vertex number longer than the interpreter's integer-string limit
# (4300 digits by default) still names a vertex beyond the part size.
HUGE_TOKEN = "v" + "1" * 5000


def test_check_aut_rejects_a_token_past_the_digit_limit(capsys):
    code, _, err = run(
        capsys, "check-aut", "--n", "3", "--cycles", f"(w1 {HUGE_TOKEN})"
    )
    assert code == EXIT_INPUT
    assert err.startswith("input error: token ")
    assert "exceeds the part size n = 3 (at position 4)" in err
    assert "limit" not in err


def test_check_automorphism_cmd_rejects_a_token_past_the_digit_limit():
    with pytest.raises(UnknownToken) as exc:
        check_automorphism_cmd(f"(v1 v2)(w2 {HUGE_TOKEN})", 3)
    assert exc.value.position == 11
    assert "exceeds the part size n = 3" in str(exc.value)


def test_check_aut_rejects_part_mixing(capsys):
    code, _, err = run(capsys, "check-aut", "--n", "3", "--cycles", "(v1 w1)")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_check_automorphism_cmd_report():
    result, report = check_automorphism_cmd("(v1 v2)(w1 w2)", 3)
    assert result.realizable is True
    assert report["n"] == 3
    assert report["cycles"] == "(v1 v2)(w1 w2)"
    assert report["order"] == 2
    assert report["part_behavior"] == "preserves"
    assert report["matched_cases"]
    assert all(
        set(entry) == {"case", "pattern"} for entry in report["matched_cases"]
    )


@pytest.mark.parametrize("n", [True, 3.0])
def test_check_automorphism_cmd_rejects_a_non_integer_part_size(n):
    with pytest.raises(ValueError) as exc:
        check_automorphism_cmd("(v1 v2 v3)", n)
    assert str(exc.value) == f"part size must be an integer, got {n!r}"


# ------------------------------------------------------------------- verify


def test_verify_writes_a_report_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--group", "A4", "--n", "12",
        "--report", str(target),
    )
    assert code == EXIT_DECIDED
    assert f"report written to {target}" in out
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["n"] == 12
    assert payload["realizable"] is True
    assert payload["construction"]["case"] == "skeleton-0"


def test_verify_writes_a_report_of_constant_size_near_the_cap(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--group", "A5", "--n", "99992",
        "--report", str(target),
    )
    assert code == EXIT_DECIDED
    assert target.stat().st_size < 4096
    payload = json.loads(target.read_text(encoding="utf-8"))
    forced = payload["construction"]["witness"]["forced"]
    assert list(forced) == ["edge", "V", "W", "shape"]
    assert forced["shape"] == [1, 99992]


def test_verify_to_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(
        capsys, "verify", "--group", "A4", "--n", "12",
        "--report", str(target),
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("input error: cannot write the report: ")
    assert str(target) in err and "Traceback" not in err
    assert not target.parent.exists()


def test_verify_without_report_prints_json(capsys):
    code, out, _ = run(capsys, "verify", "--group", "S4", "--n", "9")
    assert code == EXIT_DECIDED
    payload = json.loads(out)
    assert payload["realizable"] is False


# ------------------------------------------------------------------- tables


def test_tables_for_the_tetrahedral_group(capsys):
    code, out, _ = run(capsys, "tables", "--group", "A4")
    assert code == EXIT_DECIDED
    assert "tetrahedral (order 12)" in out
    assert "n2^v" in out and "n2^w" in out
    assert "rule [residue-admitted]" in out
    # five admissible rows, one per allowed residue class mod 12
    data_rows = [
        line for line in out.splitlines()
        if line.strip() and line.lstrip()[0].isdigit()
    ]
    assert len(data_rows) == 5


def test_tables_for_the_octahedral_group_notes_the_shared_table(capsys):
    code, out, _ = run(capsys, "tables", "--group", "S4")
    assert code == EXIT_DECIDED
    assert "order-12" in out and "shares the tetrahedral table" in out
    assert "rule [s4-six-exclusion]" in out


def test_tables_for_the_icosahedral_group(capsys):
    code, out, _ = run(capsys, "tables", "--group", "A5")
    assert code == EXIT_DECIDED
    assert "icosahedral (order 60)" in out
    assert "rule [a5-lower-bound]" in out
    assert "rule [a5-orbit-sizes]" in out
    data_rows = [
        line for line in out.splitlines()
        if line.strip() and line.lstrip()[0].isdigit()
    ]
    assert len(data_rows) == 8


# ------------------------------------------------------------ failure wiring


def test_internal_mismatch_exits_with_three(capsys, monkeypatch):
    verdict = decide(7, "A4")

    def broken(n, group):
        raise InternalMismatch(verdict, True)

    monkeypatch.setattr(cli_module, "decide", broken)
    code, _, err = run(capsys, "decide", "--group", "A4", "--n", "7")
    assert code == EXIT_MISMATCH
    assert "internal verification mismatch" in err


def _no_vertex_witness(monkeypatch):
    witness = ((("corner", "nowhere", 0), ("corner", "outer", 0)),)
    monkeypatch.setitem(
        RECIPES, "skeleton-4", replace(RECIPES["skeleton-4"], witness=witness)
    )


def _step_down_within_v(monkeypatch):
    step_down = (("corner", "inner", 0), ("corner", "inner", 1))
    monkeypatch.setitem(
        RECIPES, "skeleton-4", replace(RECIPES["skeleton-4"], step_down=step_down)
    )


def _two_labels_to_one_image(monkeypatch):
    honest = PlacementTemplate.slot_images

    def doctored(self, e, points):
        images = honest(self, e, points)
        return images[:1] * 2 + images[2:]

    monkeypatch.setattr(PlacementTemplate, "slot_images", doctored)


@pytest.mark.parametrize(
    "fault, group, n, message",
    [
        (_no_vertex_witness, "A4", 16, "ValueError: recipe skeleton-4 records "
         "the witness label ('corner', 'nowhere', 0)"),
        (_step_down_within_v, "A4", 16, "ValueError: edge (0, 1) does not "
         "join the two parts"),
        (_two_labels_to_one_image, "A5", 62, "ValueError: not a permutation"),
    ],
)
def test_a_fault_in_the_pipeline_or_its_recipes_exits_with_three(
    capsys, monkeypatch, fault, group, n, message
):
    fault(monkeypatch)
    code, out, err = run(capsys, "decide", "--group", group, "--n", str(n))
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("internal verification mismatch: ")
    assert message in err


def test_exit_codes_are_stable():
    assert (EXIT_DECIDED, EXIT_INPUT, EXIT_MISMATCH) == (0, 2, 3)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bipartite_tsg.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse: a subcommand is required
