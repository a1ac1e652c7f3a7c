import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tubings
from tubings import (
    Collection,
    GraphDocument,
    GraphSyntaxError,
    LoopEdgeError,
    Pseudograph,
    UnknownMemberError,
    UnknownNodeInEdgeError,
    parse_collection,
    parse_graph,
    serialize_graph,
)
from tubings import cli
from tubings.cli import build_parser, main

from test_cli_golden import GOLDEN_PATH, run_case

SAMPLE = "node 1\nnode 2\nnode 3\nedge 1 2 a\nedge 1 2 b\nedge 2 3\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(SAMPLE)
    return str(path)


def test_parse_with_node_inference():
    g = parse_graph("edge 1 2 a\nedge 1 2 b\nedge 2 3\n")
    assert sorted(g.nodes) == [1, 2, 3]
    assert len(g.bundles) == 1


def test_parse_declared_nodes_keep_isolated():
    g = parse_graph("node 5\nnode 1\nnode 2\nedge 1 2\n")
    assert sorted(g.nodes) == [1, 2, 5]
    assert not g.is_connected()


def test_parse_undeclared_endpoint():
    with pytest.raises(UnknownNodeInEdgeError):
        parse_graph("node 1\nedge 1 2\n")


def test_parse_comments_and_blanks():
    text = "# a comment\n\nnode 1\nnode 2  # trailing words\nedge 1 2\n\n"
    g = parse_graph(text)
    assert sorted(g.nodes) == [1, 2]


def test_round_trip(bundle_path3, bundle_path4, bundle_tree5, bundle_cycle4):
    for g in (bundle_path3, bundle_path4, bundle_tree5, bundle_cycle4):
        assert parse_graph(serialize_graph(g)) == g
    assert serialize_graph(Pseudograph([], [])) == ""


def test_syntax_errors_carry_line_numbers():
    cases = [
        ("node 1 2\n", 1),
        ("node 1\nwall 1 2\n", 2),
        ("node 1\nnode 1\n", 2),
        ("edge 1\n", 1),
        ("edge 1 2 9x\n", 1),
        ("node x\n", 1),
        ("edge 0 2\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(GraphSyntaxError) as info:
            parse_graph(text)
        assert info.value.line == line
        assert f"line {line}:" in str(info.value)


def test_parse_rejects_loops():
    with pytest.raises(LoopEdgeError):
        parse_graph("edge 1 1\n")


def test_parse_collection(bundle_path3):
    g = bundle_path3
    c = parse_collection("2,3,a,b", g)
    assert c.members() == {2, 3, "a", "b"}
    assert parse_collection(" 2 , a ", g).members() == {2, "a"}
    assert parse_collection("", g) == Collection.empty()
    with pytest.raises(UnknownMemberError):
        parse_collection("2,,3", g)
    with pytest.raises(UnknownMemberError):
        parse_collection("zz", g)
    with pytest.raises(UnknownMemberError):
        parse_collection("9", g)
    # a repeated member would change the collection's parity unseen
    for text in ("2,2", "2,a,a", "02,2"):
        with pytest.raises(UnknownMemberError, match="repeated"):
            parse_collection(text, g)


def test_graph_document(tmp_path):
    path = tmp_path / "doc.graph"
    path.write_text(SAMPLE)
    doc = GraphDocument.from_path(path)
    assert doc.source == SAMPLE
    assert doc.graph == parse_graph(SAMPLE)


def test_cli_tubes(graph_file, capsys):
    assert main(["tubes", graph_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tubes: 9"
    assert lines[1:] == ["1", "12a", "12ab", "12b", "123a", "123b", "2", "23", "3"]


def test_cli_tubes_json(graph_file, capsys):
    assert main(["tubes", graph_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 9
    assert "12ab" in payload["tubes"]


def test_cli_complex(graph_file, capsys):
    assert main(["complex", graph_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vertices"]) == 9
    assert len(payload["maximal_faces"]) == 14
    assert all(len(face) == 3 for face in payload["maximal_faces"])


def test_cli_betti(graph_file, capsys):
    assert main(["betti", graph_file, "--collection", "2,3,a,b"]) == 0
    out = capsys.readouterr().out
    assert "collection: 23ab" in out
    assert "betti: [0, 0, 1]" in out

    assert main(["betti", graph_file, "--collection", "1,3,a,b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "collection": "13ab",
        "variant": "odd",
        "vertices": 6,
        "betti": [],
    }


def test_cli_apoly(graph_file, capsys):
    assert main(["apoly", graph_file]) == 0
    assert capsys.readouterr().out.strip() == "t"


def test_cli_poincare(graph_file, capsys):
    assert main(["poincare", graph_file]) == 0
    out = capsys.readouterr().out
    assert "reduced: 1 + 3t + 2t^2" in out
    assert "brute: 1 + 3t + 2t^2" in out
    assert "equal: yes" in out

    assert main(["poincare", graph_file, "--method", "reduced"]) == 0
    assert capsys.readouterr().out.strip() == "1 + 3t + 2t^2"

    assert main(["poincare", graph_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"reduced": [1, 3, 2], "brute": [1, 3, 2], "equal": True}


def test_cli_verify(graph_file, capsys):
    assert main(["verify", graph_file]) == 0
    out = capsys.readouterr().out
    assert "collections checked: 8" in out
    assert "ok: yes" in out

    assert main(["verify", graph_file, "--max-collections", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["sampled"] is True
    assert payload["collections"] == 3
    assert payload["reduced"] is None

    assert main(["verify", graph_file, "--max-collections", "3", "--seed", "4"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["tubes", graph_file, "--seed", "3"])
    assert exc.value.code == 2


def test_cli_order_complex(graph_file, capsys):
    args = [
        "order-complex", graph_file,
        "--collection", "2,3,a,b", "--parity", "odd", "--shellable",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "elements: 5" in out
    assert "betti: [0, 0, 1]" in out
    assert "shellable: yes" in out


def test_cli_delzant(graph_file, capsys):
    assert main(["delzant-check", graph_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "ok": True,
        "tubings": 14,
        "size": 3,
        "rank": 3,
        "expected": 3,
        "failures": [],
    }


def test_cli_lessdot(graph_file, capsys):
    assert main(["lessdot", graph_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reductions: 9"
    assert "nodes 1,2 edges 1-2:a 1-2:b" in lines
    assert "nodes 1,2,3 edges 1-2:a 1-2:b 2-3" in lines


def test_cli_calls_in_one_process_share_one_parser(tmp_path, capsys, monkeypatch):
    """Calls that differ in options, exit codes and usage errors, one after
    the other in one process, each print what a call on its own prints."""
    monkeypatch.delenv("TUBINGS_FACE_BUDGET", raising=False)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert build_parser() is build_parser()
    for case in ("sample-tubes-json", "sample-tubes",
                 "sample-complex-budget", "sample-complex"):
        assert run_case(case, tmp_path) == golden[case], case
    with pytest.raises(SystemExit) as exc:
        main(["betti", str(tmp_path / "sample.graph")])
    assert exc.value.code == 2
    assert "--collection" in capsys.readouterr().err
    assert run_case("sample-betti-odd", tmp_path) == golden["sample-betti-odd"]


def test_cli_subcommands_are_the_command_table(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{" + ",".join(cli._COMMANDS) + "}" in capsys.readouterr().out
    for name in cli._COMMANDS:
        with pytest.raises(SystemExit):
            main([name, "--help"])
        page = capsys.readouterr().out
        assert page.startswith(f"usage: tubings {name} ") and "\n  graph\n" in page


def test_cli_missing_file(tmp_path, capsys):
    assert main(["poincare", str(tmp_path / "absent.graph")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_input(tmp_path, graph_file, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("node 1\nedge 1 2\n")
    assert main(["tubes", str(bad)]) == 2
    assert "undeclared node" in capsys.readouterr().err

    assert main(["betti", graph_file, "--collection", "zz"]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["betti", graph_file, "--collection", "1,1"]) == 2
    assert "repeated" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_graph_file_not_utf8(tmp_path, capsys, flags):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(GraphSyntaxError):
        GraphDocument.from_path(bad)
    assert main(["tubes", str(bad), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "not UTF-8" in captured.err


def test_cli_budget_exhaustion(graph_file, capsys):
    assert main(["complex", graph_file, "--face-budget", "5"]) == 3
    assert "face budget of 5 exceeded" in capsys.readouterr().err
    assert main(["verify", graph_file, "--face-budget", "5"]) == 3
    assert "face budget of 5 exceeded" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # --face-budget is the one budget option
        main(["verify", graph_file, "--budget", "5"])


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_cli_face_budget_below_one_is_bad_input(graph_file, capsys, raw):
    for command in ("tubes", "verify"):
        assert main([command, graph_file, "--face-budget", raw]) == 2
        assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_cli_max_collections_below_one_is_bad_input(graph_file, capsys, raw):
    with pytest.raises(SystemExit) as info:
        main(["verify", graph_file, "--max-collections", raw])
    assert info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_cli_malformed_budget_env(graph_file, capsys, monkeypatch, raw):
    monkeypatch.setenv("TUBINGS_FACE_BUDGET", raw)
    for command in ("tubes", "lessdot"):
        assert main([command, graph_file]) == 2
        assert f"TUBINGS_FACE_BUDGET={raw!r}" in capsys.readouterr().err
        assert main([command, graph_file, "--face-budget", "100"]) == 0


def test_cli_module_entry_point(graph_file):
    # the child interpreter imports the same package as this test run
    src = str(Path(tubings.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "tubings.cli", "poincare", graph_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "equal: yes" in proc.stdout

    proc = subprocess.run(
        [sys.executable, "-m", "tubings.cli", "complex", graph_file,
         "--face-budget", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3
