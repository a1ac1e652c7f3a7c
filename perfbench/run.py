"""Benchmark of the tubings Poincare engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports ``tubings`` from ``src/``,
makes the workload's inputs from the seed, runs whole rounds of operations
until they have taken S seconds, checks every output against independent
oracles, and prints one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the package's functions are wrapped in spans and the
metrics are the per-layer ones.  Both also go to ``perfbench/out/``.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import the package as a new process would, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "tubings" or n.startswith("tubings.")]:
        del sys.modules[name]
    tubings = importlib.import_module("tubings")
    importlib.import_module("tubings.cli")
    return tubings


def set_up(workload, seed, workdir):
    """Import plus input generation, SETUP_REPEATS times; the median time
    and the last state."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.prepare(fresh_import(), seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def measure(workload, state, seconds, tracer):
    """Whole rounds until the timed calls add up to ``seconds``.

    Returns every call's time, the rounds as (calls that passed, seconds),
    the failures, and the peak RSS at the end of the first round, so that
    neither grows with the run's length.
    """
    times, rounds = [], []
    failed = 0
    first_round_rss = None
    for ops in workload.rounds(state):
        passed, busy = 0, 0.0
        for call, check in ops:
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                output = call()
                raised = False
            except Exception:
                raised = True
            took = time.perf_counter() - start
            if tracer:
                tracer.active = False
            times.append(took)
            busy += took
            if raised or not check(output):
                failed += 1
            else:
                passed += 1
        rounds.append((passed, busy))
        if first_round_rss is None:
            first_round_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if sum(b for _, b in rounds) >= seconds:
            return times, rounds, failed, first_round_rss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "tubings" / "__init__.py").is_file():
        print(f"error: no tubings package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, state = set_up(workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        times, rounds, failed, rss_mb = measure(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(times)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "ops_per_s": {"value": statistics.median(p / b for p, b in rounds), "unit": "ops/s"},
        "op_ms.p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": tracer.layer_metrics(attempted) if tracer else end_to_end,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**result, "end_to_end": end_to_end}, fh, indent=1)
    if tracer:
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
