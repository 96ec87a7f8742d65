"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--first-seed 1]

Runs ``run.py`` for ``RUNS`` consecutive seeds on each workload, at the
``run_seconds`` of ``BENCHMARK.json``, one run at a time, and
prints for every end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, beside the bound ``BENCHMARK.json`` sets. Each
run's result line is appended to ``.perfbench_out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench_out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong output", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({RUNS} runs, {seconds} s each)")
        print("| metric | median | q1 | q3 | (q3-q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds[name]} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
