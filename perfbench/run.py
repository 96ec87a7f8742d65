"""The sglg benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is ``src/sglg``,
imported from source. The run generates its inputs from the seed under
``.perfbench_work/``, measures set-up, runs passes over the workload's
ops for about S seconds, checks every output, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it carries run metadata. Each pass over
the ops runs in a fresh worker process (``worker.py``) and is judged
here, so the worker holds none of the expected outputs.

With ``--trace 0`` the metrics are the end-to-end ones (from untraced
runs only); with ``--trace 1`` they are the per-layer ones from the
traced replay, plus the tracing overhead. ``correct`` is false when any
op's output was wrong or any op raised an uncaught exception, except the
known defect listed in ``inputs.KNOWN_DEFECTS``, which counts only in
``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import KNOWN_DEFECTS, WORKLOADS, build_ops
from oracles import check_op, digest
from speed import ScaledClock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed per run; the median is reported.
SETUP_SAMPLES = 15
# One pass; a whole run must end within 180 s.
WORKER_TIMEOUT_S = 120
# Kinds whose replay output is made by the CLI itself, not a public call.
UNREPLAYED_OUTPUT = ("check", "check-empty", "orthorep")


def child_env() -> dict:
    """The program from ``src/``, with its bytecode cached as when installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("NO_COLOR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def interpreter_median(code: str, env: dict, clock: ScaledClock) -> tuple[float, float]:
    """Medians, scaled and raw, of fresh interpreters running ``code``."""
    command = [sys.executable, "-c", code]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # warm the pyc cache
    samples = [clock.time(subprocess.run, command, env=env, cwd=ROOT, check=True)
               for _ in range(SETUP_SAMPLES)]
    return (statistics.median(s[2] for s in samples),
            statistics.median(s[1] for s in samples))


def run_worker(job: dict, workdir: Path, env: dict) -> dict:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    # A session of its own, so that a timeout also stops the worker's children.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=env, cwd=workdir, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return json.loads(result_path.read_text(encoding="utf-8"))


class Judge:
    """Counts attempted and failed ops, checks outputs, and tells the
    known defect (``KNOWN_DEFECTS``) apart from every other crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.crashed: list[str] = []
        self.unexpected_crashes = 0
        self.digests: dict[str, str] = {}

    def crash(self, op_id: str, crash: str, where: str = "") -> None:
        self.failed += 1
        self.crashed.append(f"{op_id}{where}: {crash}")
        if crash.split(":")[0] != KNOWN_DEFECTS.get(op_id):
            self.unexpected_crashes += 1

    def fail(self, op_id: str, problem: str) -> None:
        self.failed += 1
        self.wrong.append(f"{op_id}: {problem}")

    def record(self, op: dict, outcome: dict) -> None:
        """Judge one op of one pass, from what the worker reported and wrote."""
        self.attempted += 1
        if outcome["crash"] is not None:
            self.crash(op["id"], outcome["crash"])
            return
        path = op["expect"].get("out")
        if not path or outcome["code"] != 0:
            path = op["stdout"]
        output = Path(path).read_text(encoding="utf-8")
        seen = self.digests.get(op["id"])
        if seen is None:
            problem = check_op(op, outcome["code"], outcome["stderr"], output)
            self.digests[op["id"]] = digest(output)
        elif digest(output) != seen:
            problem = "output differs from the first pass"
        else:
            problem = None
        if problem is not None:
            self.fail(op["id"], problem)

    def record_replay(self, op_id: str, replay: dict) -> None:
        self.attempted += 1
        if replay["crash"] is not None:
            self.crash(op_id, replay["crash"], " (traced)")
        elif replay["differs"]:
            self.fail(op_id, "traced replay differs from the CLI run")

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unexpected_crashes


def run_passes(ops: list[dict], args, workdir: Path, env: dict, judge: Judge) -> list[dict]:
    """Fresh workers, one pass each, while another pass is expected to end
    within the budget; at least one pass runs. Each pass is judged here."""
    for op in ops:
        op["stdout"] = str(workdir / "out" / f"{op['id'].replace(':', '-')}.stdout")
    job = {
        "ops": [{"id": op["id"], "argv": op["argv"], "out": op["expect"].get("out"),
                 "stdout": op["stdout"],
                 "replay_output": op["expect"]["kind"] not in UNREPLAYED_OUTPUT}
                for op in ops],
        "spawn": args.workload == "cli-fixtures" and not args.trace,
        "trace": bool(args.trace),
        "workdir": str(workdir),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        job["spans_path"] = str(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        Path(job["spans_path"]).unlink(missing_ok=True)
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        job["pass"] = len(passes)
        result = run_worker(job, workdir, env)
        for op in ops:
            judge.record(op, result["outcomes"][op["id"]])
            if args.trace:
                judge.record_replay(op["id"], result["replays"][op["id"]])
        passes.append(result)
        now = time.perf_counter()
        if now - begin + (now - pass_start) > args.seconds:
            return passes


def op_medians(passes: list[dict], index: int) -> dict[str, float]:
    """Per op, the median over passes of its raw (0) or scaled (1) time."""
    return {op: statistics.median(p["times"][op][index] for p in passes)
            for op in passes[0]["times"]}


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    """A pass's time is the sum over its ops of each op's median time."""
    per_op = op_medians(passes, 1).values()
    geomean = math.exp(statistics.fmean(math.log(t) for t in per_op))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_geomean_ms": (geomean * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(passes: list[dict], start_s: float, import_s: float) -> dict:
    """Medians over passes of span totals, counts and overhead."""
    traces = [p["trace"] for p in passes]
    untraced = [sum(t[1] for t in p["times"].values()) * 1e3 for p in passes]
    metrics = {
        "cli.python_start_ms": (start_s * 1e3, "ms"),
        "cli.import_ms": ((import_s - start_s) * 1e3, "ms"),
    }
    names = [n for n in traces[0]["totals_ms"] if n != "op_ms"]
    for name in names:
        metrics[name] = (statistics.median(t["totals_ms"][name] for t in traces), "ms")
    stage_ms = [sum(t["totals_ms"][n] for n in names if not n.endswith(".self_ms"))
                for t in traces]
    traced = [t["totals_ms"]["op_ms"] for t in traces]
    metrics["cli.self_ms"] = (
        statistics.median(u - s for u, s in zip(untraced, stage_ms)), "ms")
    metrics["trace.untraced_wall_ms"] = (statistics.median(untraced), "ms")
    metrics["trace.traced_wall_ms"] = (statistics.median(traced), "ms")
    metrics["trace.overhead_ms"] = (
        statistics.median(t - u for t, u in zip(traced, untraced)), "ms")
    metrics["trace.spans"] = (traces[0]["spans"], "count")
    for name, value in traces[0]["counts"].items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    return metrics


def run_metadata() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "sglg").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_sglg_lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sglg" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'sglg'}", file=sys.stderr)
        return 2

    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    judge = Judge()
    try:
        if args.trace:
            setup_s, setup_raw_s = interpreter_median("import sglg.cli", env, ScaledClock())
            start_s = interpreter_median("pass", env, ScaledClock())[0]
        else:
            setup_s, setup_raw_s = interpreter_median("import sglg.cli", env, ScaledClock(env))
        ops = build_ops(args.workload, args.seed, workdir)
        passes = run_passes(ops, args, workdir, env, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(passes, start_s, setup_s)
    else:
        metrics = end_to_end(passes, setup_s)
    meta = run_metadata()
    raw = op_medians(passes, 0)
    meta.update(workload=args.workload, seed=args.seed, passes=len(passes),
                raw_setup_s=setup_raw_s, raw_wall_s=sum(raw.values()),
                raw_op_ms={op: round(t * 1e3, 3) for op, t in raw.items()},
                worker_base_rss_mb=statistics.median(
                    p["base_rss_kb"] for p in passes) / 1024,
                wrong=judge.wrong, crashed=judge.crashed)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
