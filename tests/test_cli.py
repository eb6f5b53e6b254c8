from __future__ import annotations

import json

import pytest

from rbymatch import driver, lpface
from rbymatch.cli import main

FIG1_INSTANCE = "cycle RBYBRBYB\nrequire 1 2\n"


@pytest.fixture
def fig1_file(tmp_path):
    p = tmp_path / "fig1.txt"
    p.write_text(FIG1_INSTANCE)
    return str(p)


def test_solve_human(fig1_file, capsys):
    assert main(["solve", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "alpha_star: 4" in out
    assert "face: segment" in out
    assert "  - face: route=fractional vertices=8 tight_sets=24\n" in out


def test_solve_json(fig1_file, capsys):
    assert main(["solve", fig1_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_star"] == "4/1"
    assert payload["face_class"] == "segment"
    assert payload["matching"] == sorted(payload["matching"])
    assert payload["guarantees"]["red_exact"] is True


def test_solve_infeasible_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("cycle RBYBRBYB\nrequire 3 0\n")
    assert main(["solve", str(p)]) == 2


def test_infeasible_in_a_later_round_exit_code(tmp_path, capsys):
    # round 1 of the LP is feasible; round 2's dual simplex finds it is not
    p = tmp_path / "later.txt"
    edges = ["0 2 R", "0 4 B", "1 3 R", "1 4 R", "1 5 B", "2 4 B", "3 5 R", "4 5 Y"]
    p.write_text("graph 7\n" + "".join(f"e {e}\n" for e in edges) + "require 2 1\n")
    assert main(["solve", str(p)]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.txt"
    p.write_text("graph 2\ne 0 9 R\nrequire 0 0\n")
    assert main(["solve", str(p)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_edge_line_in_a_cycle_instance_exit_code(tmp_path, capsys):
    p = tmp_path / "cycle_and_edges.txt"
    p.write_text("cycle RBRB\ne 0 1 R\nrequire 1 1\n")
    assert main(["solve", str(p)]) == 3
    assert "line 2: a cycle instance takes no edge lines" in capsys.readouterr().err


def test_superscript_vertex_count_exit_code(tmp_path, capsys):
    p = tmp_path / "superscript.txt"
    p.write_text("graph ²\nrequire 0 0\n", encoding="utf-8")
    assert main(["solve", str(p)]) == 3
    assert "line 1: expected: graph <vertex_count>" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("graph 12\ne 1_0 2 R\nrequire 0 0\n", "line 2: edge endpoints must be integers"),
        ("graph 5\ne +3 4 B\nrequire 0 0\n", "line 2: edge endpoints must be integers"),
        ("graph 2\ne 0 1 R\nrequire 0_1 +0\n", "line 3: requirements must be integers"),
    ],
)
def test_signed_or_underscored_integers_exit_code(tmp_path, capsys, text, message):
    # int() reads these; the file format's integers are decimal digits only
    p = tmp_path / "integers.txt"
    p.write_text(text)
    assert main(["solve", str(p)]) == 3
    assert message in capsys.readouterr().err


def test_negative_requirement_exit_code(tmp_path, capsys):
    p = tmp_path / "negative.txt"
    p.write_text("cycle RBYBRBYB\nrequire -1 0\n")
    assert main(["solve", str(p)]) == 3
    assert "nonnegative" in capsys.readouterr().err


TWO_C4_INSTANCE = (
    "graph 8\n"
    + "".join(f"e {i} {(i + 1) % 4} {'RY'[i % 2]}\n" for i in range(4))
    + "".join(f"e {4 + i} {4 + (i + 1) % 4} {'BY'[i % 2]}\n" for i in range(4))
    + "require 1 1\n"
)


@pytest.mark.parametrize(
    "callee, error, instance",
    [
        ("walk_symdiff", ValueError("m0 is not a matching"), FIG1_INSTANCE),
        ("solve_fractional", ValueError("requirement 1 is not on the segment"), FIG1_INSTANCE),
        ("combine_two_matchings", ValueError("inputs must be matchings"), TWO_C4_INSTANCE),
    ],
)
def test_internal_value_error_exit_code(tmp_path, capsys, monkeypatch, callee, error, instance):
    # a ValueError past the LP is a broken guarantee, not a parse error
    def fail(*args, **kwargs):
        raise error

    p = tmp_path / "instance.txt"
    p.write_text(instance)
    monkeypatch.setattr(driver, callee, fail)
    assert main(["solve", str(p)]) == 5
    err = capsys.readouterr().err
    assert f"internal invariant failure: {error}; trace=" in err
    assert "face: route=fractional" in err


def test_value_error_inside_the_lp_exit_code(tmp_path, capsys, monkeypatch):
    # the simplex runs past the input checks, so its ValueError is a broken
    # guarantee: exit 5, with the trace, and no parse error
    def fail(*args, **kwargs):
        raise ValueError("right-hand sides must be nonnegative")

    p = tmp_path / "fig1.txt"
    p.write_text(FIG1_INSTANCE)
    monkeypatch.setattr(lpface, "solve_standard_form", fail)
    assert main(["solve", str(p)]) == 5
    err = capsys.readouterr().err
    assert "internal invariant failure: right-hand sides must be nonnegative; trace=" in err


def test_cap_exit_code(tmp_path):
    p = tmp_path / "big.txt"
    lines = ["graph 30"] + [f"e {i} {i + 1} R" for i in range(29)] + ["require 1 0"]
    p.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(p)]) == 4


def test_edge_cap_exit_code_at_parse_time(tmp_path, capsys):
    # 200,000 edge lines on 20 vertices: rejected at the 41st, before any
    # graph is built
    p = tmp_path / "dense.txt"
    p.write_text("graph 20\n" + "e 0 1 R\n" * 200_000 + "require 1 0\n")
    assert main(["solve", str(p)]) == 4
    assert "41 edges exceeds oracle cap 40" in capsys.readouterr().err


def test_oracle_subcommand(fig1_file, capsys):
    assert main(["oracle", fig1_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_prime"] == 4
    assert payload["optimum_size"] == 3


def test_cycle_subcommand(capsys):
    assert main(["cycle", "RBYBRBYB", "--kr", "1", "--kb", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["red"] == 1
    assert payload["profile"]["blue"] == 2
    assert payload["certificate"]["size_ok"] is True


def test_fractional_subcommand(capsys):
    assert main(["fractional", "YBYBYRYRYR", "--kr", "1", "--kb", "2/3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["red"] == 1
    assert payload["profile"]["blue"] in (0, 1)
    assert payload["size"] >= 4


def test_curve_subcommand(capsys):
    rc = main(
        [
            "curve",
            "YBYBYRYRYBRBYRBRBR",
            "--kr",
            "3",
            "--kb",
            "3",
            "--points",
            "--pairs",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == [4, 2]
    assert payload["q"] == [2, 1]
    assert payload["injective"] is True
    assert payload["breakpoints"][0] == [0, 0]
    assert {"u": 5, "v": 2} in payload["intersecting_pairs"]
    assert payload["crossing"] is not None


def test_curve_subcommand_q_on_the_curve(capsys):
    # q = (-2, 2) is a breakpoint of the straight curve: no crossing defined
    assert main(["curve", "RBRBRB", "--kr", "1", "--kb", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == [-2, 2]
    assert payload["injective"] is True
    assert payload["crossing"] is None


def test_gen_round_trip(capsys):
    assert main(["gen", "--mode", "random_cycle", "--nodes", "8", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--mode", "random_cycle", "--nodes", "8", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("cycle ")


@pytest.mark.parametrize("mode", ["random_graph", "random_cycle", "feasible_profile"])
def test_gen_rejects_nodes_over_the_cap(capsys, mode):
    assert main(["gen", "--mode", mode, "--nodes", "3000", "--seed", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "3000 vertices exceeds oracle cap 20" in captured.err


def test_gen_rejects_edge_counts_over_the_cap(capsys):
    assert main(["gen", "--mode", "random_graph", "--nodes", "20", "--seed", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "57 edges exceeds oracle cap 40" in captured.err


def test_verify_subcommand(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("graph 2\ne 0 1 R\nrequire 1 0\n")
    assert main(["verify", str(p), "--matching", "0"]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["verify", str(p), "--matching", ""]) == 1
    assert capsys.readouterr().out.strip() == "FAIL"


def test_verify_rejects_a_repeated_edge_id(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("graph 2\ne 0 1 R\nrequire 1 0\n")
    for ids in ("0,0", "0,5"):
        assert main(["verify", str(p), "--matching", ids]) == 1
        assert capsys.readouterr().out.strip() == "FAIL"


@pytest.mark.parametrize(
    "argv",
    [
        ["fractional", "RBRB", "--kr", "1", "--kb", "1/0"],
        ["gen", "--mode", "random_graph", "--nodes", "4", "--seed", "1", "--weights", "1/0,1,1"],
        ["gen", "--mode", "random_graph", "--nodes", "4", "--seed", "1", "--density", "1/0"],
    ],
)
def test_zero_denominator_is_a_parse_error(capsys, argv):
    assert main(argv) == 3
    assert "parse error: zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve"], "the following arguments are required: file"),
        (["cycle", "RB", "--kr", "x", "--kb", "0"], "argument --kr: invalid int value: 'x'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exit_code(capsys, argv, message):
    # argparse's own usage-error code, 2, is the infeasible-LP code here
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: rbymatch") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["cycle", "--help"]])
def test_help_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rbymatch")


TWO_EDGES_INSTANCE = "graph 4\ne 0 1 R\ne 2 3 B\nrequire 1 1\n"


@pytest.mark.parametrize("ids", ["0_0,1", "+0,1", "0,1x", "0,1.0", "0,-"])
def test_verify_rejects_a_malformed_edge_id(tmp_path, capsys, ids):
    # int() reads 0_0 and +0 as 0; edge ids are decimal digits only, as in
    # instance files
    p = tmp_path / "two.txt"
    p.write_text(TWO_EDGES_INSTANCE)
    assert main(["verify", str(p), "--matching", ids]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: matching must be comma-separated edge ids" in captured.err


@pytest.mark.parametrize(
    "ids, code, out", [(" 0 , 1 ,", 0, "ok"), ("1,,0", 0, "ok"), ("-1,0", 1, "FAIL")]
)
def test_verify_reads_spaced_empty_and_negative_ids(tmp_path, capsys, ids, code, out):
    p = tmp_path / "two.txt"
    p.write_text(TWO_EDGES_INSTANCE)
    assert main(["verify", str(p), f"--matching={ids}"]) == code
    assert capsys.readouterr().out.strip() == out


def test_verify_needs_the_equals_form_for_a_leading_negative_id(tmp_path, capsys):
    # argparse reads "-1,0" after a space as an option, not as the value
    p = tmp_path / "two.txt"
    p.write_text(TWO_EDGES_INSTANCE)
    assert main(["verify", str(p), "--matching", "-1,0"]) == 3
    assert "--matching: expected one argument" in capsys.readouterr().err
    assert main(["verify", str(p), "--matching=-1,0"]) == 1


@pytest.mark.parametrize(
    "colors, message",
    [
        ("RBQB", "unknown color 'Q'"),
        ("RBR", "a cycle needs an even number of edges, at least 2"),
        ("", "a cycle needs an even number of edges, at least 2"),
    ],
)
@pytest.mark.parametrize("command, kb", [("cycle", "0"), ("fractional", "1/2")])
def test_bad_cycle_colors_exit_code(capsys, command, kb, colors, message):
    assert main([command, colors, "--kr", "0", "--kb", kb]) == 3
    assert f"parse error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, kb, point",
    [("fractional", "1/2", "(0, 1/2)"), ("cycle", "3", "(0, 3)")],
)
def test_off_segment_requirement_reads_as_typed(capsys, command, kb, point):
    # a fractional blue count is printed as typed, not as Fraction(1, 2)
    assert main([command, "RBYB", "--kr", "0", "--kb", kb]) == 3
    err = capsys.readouterr().err
    assert f"parse error: requirement {point} is not on the segment (1, 0)..(0, 2)" in err
