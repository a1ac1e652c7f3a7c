"""Golden output of every subcommand, as text and as JSON.

Each case runs ``tubings.cli.main`` in process on one of two graphs and
compares the exit code, stdout and stderr with ``cli_golden.json``.  The
graph file path never appears in the output of these cases, so the
expected data does not depend on where the test runs.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from tubings.cli import main

GRAPHS = {
    # SAMPLE of test_io_cli.py: the path 1=2-3 with the bundle {a, b} on 1-2
    "sample": ("node 1\nnode 2\nnode 3\nedge 1 2 a\nedge 1 2 b\nedge 2 3\n", "2,3,a,b"),
    # criterion 6: the four-cycle 1-2-3-4-1 with the edge 1-2 doubled
    "cycle4": (
        "node 1\nnode 2\nnode 3\nnode 4\n"
        "edge 1 2 a\nedge 1 2 b\nedge 2 3\nedge 3 4\nedge 1 4\n",
        "1,2,3,4,a,b",
    ),
}

# Arguments after the graph path; "C" stands for the graph's collection.
QUERIES = {
    "tubes": ["tubes"],
    "complex": ["complex"],
    "betti-odd": ["betti", "--collection", "C"],
    "betti-even": ["betti", "--collection", "C", "--variant", "even"],
    "betti-prime": ["betti", "--collection", "C", "--variant", "prime"],
    "betti-dprime": ["betti", "--collection", "C", "--variant", "dprime"],
    "apoly": ["apoly"],
    "poincare": ["poincare"],
    "poincare-brute": ["poincare", "--method", "brute"],
    "poincare-reduced": ["poincare", "--method", "reduced"],
    "verify": ["verify"],
    "verify-sampled": ["verify", "--max-collections", "3", "--seed", "4"],
    "order-odd": ["order-complex", "--collection", "C", "--parity", "odd"],
    "order-odd-shellable": [
        "order-complex", "--collection", "C", "--parity", "odd", "--shellable",
    ],
    "order-even-shellable-included": [
        "order-complex", "--collection", "C", "--parity", "even",
        "--shellable", "--include-collection",
    ],
    "delzant-check": ["delzant-check"],
    "lessdot": ["lessdot"],
    "complex-budget": ["complex", "--face-budget", "5"],
    "poincare-budget": ["poincare", "--face-budget", "5"],
}

CASES = [
    f"{graph}-{query}{'-json' if as_json else ''}"
    for graph in GRAPHS
    for query in QUERIES
    for as_json in (False, True)
]

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")


def run_case(case, workdir):
    """Exit code, stdout and stderr of one case, run in ``workdir``."""
    graph, rest = case.split("-", 1)
    as_json = rest.endswith("-json")
    query = rest[: -len("-json")] if as_json else rest
    text, collection = GRAPHS[graph]
    path = Path(workdir) / f"{graph}.graph"
    path.write_text(text)
    args = [collection if a == "C" else a for a in QUERIES[query]]
    argv = [args[0], str(path), *args[1:]] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_golden(case, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("TUBINGS_FACE_BUDGET", raising=False)
    assert run_case(case, tmp_path) == golden[case]


if __name__ == "__main__":
    # Regenerate the expected data: python tests/test_cli_golden.py
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        data = {case: run_case(case, workdir) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
