"""Every benchmark workload runs traced and passes its oracles.

The span counters of ``perfbench/spans.py`` read results of the package
(``n_vertices()`` of a complex, ``TubeSystem.tubes``), so an internal
change can break a traced run without failing any other test.  Each
workload runs here for one round, as ``perfbench/run.py`` is run.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def traced_round(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.001", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_workload_round_is_correct(workload):
    result = traced_round(workload)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_complex_a_cross_check_builds_is_ranked_through_betti_reduced():
    """A join factor found in the memo is still asked for through
    betti_reduced, so its call count keeps counting complexes."""
    metrics = traced_round("family4-verify")["metrics"]
    ranked = metrics["complexes.betti_reduced.calls"]["value"]
    assert ranked == metrics["tubes.complex_on.calls"]["value"] > 0
