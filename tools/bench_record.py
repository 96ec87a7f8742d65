"""Run the benchmark on two checkouts and record both in one JSON file.

    python3 tools/bench_record.py --parent DIR --parent-label TEXT \\
        --change DIR --change-label TEXT --seeds 1 2 3 4 5 --seconds 25 \\
        --note TEXT --out BENCH_<n>.json

Each DIR is a checkout holding ``perfbench/`` and ``src/``; ``perfbench/run.py``
runs there as it is. Per workload and seed the two sides run back to back,
the parent first at the first, third, ... seed and the change first at the
others, over every workload of ``BENCHMARK.json``. Each side then makes one
``--trace 1`` run at the first seed. The file holds, per workload and side,
every run's result line, the median and quartiles of each end-to-end metric,
the first run's meta line without its raw per-op times, and the trace result
line. It also holds the reference loop's time on this host before and after
the runs, and every command it ran, each in the checkout of its side. The
labels say what each checkout is, and the note says what a reader of this
record should know beside its numbers.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
# The median time of perfbench/speed.py's fixed loop over 200 runs, in ms; run
# in the change's checkout.
REFERENCE_LOOP = (
    'import statistics, sys; sys.path.insert(0, "perfbench"); '
    "from speed import reference_s; "
    "print(statistics.median(reference_s() for _ in range(200)) * 1e3)"
)


def reference_ms(checkout: Path) -> float:
    """The reference loop's time on this host, in ms."""
    return float(subprocess.run([sys.executable, "-c", REFERENCE_LOOP], cwd=checkout,
                                check=True, capture_output=True, text=True).stdout)


def run(side: str, checkout: Path, workload: str, seed: int, seconds: float, trace: int,
        commands: list[dict]) -> tuple[dict, dict]:
    """The meta and result lines of one run of ``perfbench/run.py``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    commands.append({"side": side, "command": " ".join(["python3", *argv[1:]])})
    done = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True)
    meta, result = map(json.loads, done.stdout.splitlines()[-2:])
    return meta["meta"], result


def summary(results: list[dict]) -> dict:
    """Per end-to-end metric, the median and quartiles over the runs."""
    out = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--parent-label", required=True, help="what the parent checkout is")
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--change-label", required=True, help="what the change checkout is")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--note", required=True, help="what to know beside the numbers")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commands: list[dict] = []
    record = {
        "parent": args.parent_label,
        "change": args.change_label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "note": args.note,
        "reference_loop_ms_before": reference_ms(sides["change"]),
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs: dict[str, list] = {side: [] for side in sides}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(
                    (seed, *run(side, sides[side], workload, seed, args.seconds, 0, commands))
                )
                print(workload, seed, side, runs[side][-1][2]["metrics"], file=sys.stderr)
        entry = {}
        for side, checkout in sides.items():
            meta = {k: v for k, v in runs[side][0][1].items() if not k.startswith("raw_")}
            _, traced = run(side, checkout, workload, args.seeds[0], args.seconds, 1, commands)
            results = [result for _, _, result in runs[side]]
            entry[side] = {
                "meta": meta,
                "summary": summary(results),
                "runs": [{"seed": seed, **result} for seed, _, result in runs[side]],
                "trace": traced,
            }
        record["workloads"][workload] = entry
    record["reference_loop_ms_after"] = reference_ms(sides["change"])
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record["reference_loop_command"] = f"python3 -c {shlex.quote(REFERENCE_LOOP)}"
    record["commands"] = commands
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
