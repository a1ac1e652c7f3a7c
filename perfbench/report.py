"""Reference figures for perfbench/README.md.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs every workload once untraced and once traced, each in a fresh
interpreter, one after the other, and prints Markdown tables: the
end-to-end metrics of both runs with the tracing overhead, and the
per-layer metrics of the traced run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed, seconds, traced):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(traced)]
    subprocess.run(argv, cwd=HERE.parent, check=True, capture_output=True)
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{traced}.json") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS)
    plain, traced = {}, {}
    for name in names:
        plain[name] = run(name, args.seed, args.seconds, 0)
        traced[name] = run(name, args.seed, args.seconds, 1)

    print(f"seed {args.seed}, {args.seconds:g} s per run\n")
    print("| workload | attempted | failed | " + " | ".join(
        f"{k} ({v['unit']})" for k, v in plain[names[0]]["end_to_end"].items()) + " |")
    print("|---" * (3 + len(plain[names[0]]["end_to_end"])) + "|")
    for name in names:
        for label, res in (("", plain[name]), (" traced", traced[name])):
            cells = [f"{m['value']:.4g}" for m in res["end_to_end"].values()]
            print(f"| {name}{label} | {res['attempted']} | {res['failed']} | " + " | ".join(cells) + " |")
    print("\nTracing overhead, ops_per_s untraced / traced - 1: " + ", ".join(
        f"{name} {plain[name]['end_to_end']['ops_per_s']['value'] / traced[name]['end_to_end']['ops_per_s']['value'] - 1:+.1%}"
        for name in names))

    print("\n| per-layer metric | unit | " + " | ".join(names) + " |")
    print("|---" * (2 + len(names)) + "|")
    for metric, unit, _ in spans.PER_LAYER:
        cells = [f"{traced[name]['metrics'][metric]['value']:.4g}" for name in names]
        print(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
