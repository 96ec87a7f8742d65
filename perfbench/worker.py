"""Runs one pass over a workload's ops: one client, one op at a time.

Usage: ``python worker.py JOB.json RESULT.json``. The job names the ops
and how to run them (``spawn``: one ``python -m sglg`` process per op;
otherwise ``sglg.cli.main(argv)`` with stdout and stderr captured), and
whether to trace. A fresh worker runs each pass, so that nothing the
program keeps between calls outlives a pass, as with one process per
CLI call. The worker holds no expected outputs: it saves each op's
stdout to a file and reports exit code, stderr and any uncaught
exception, and the caller judges them. Each op's time is recorded raw
and scaled to the host's speed (see ``speed.py``).
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, replay
from speed import ScaledClock


class Outcome:
    """What one run of one op did; ``crash`` names an uncaught exception."""

    def __init__(self, code=None, stdout="", stderr="", crash=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.crash = crash


def call_main(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # an uncaught exception is a failed op
        return Outcome(crash=f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue())


def spawn(argv: list[str], env: dict, cwd: str) -> Outcome:
    proc = subprocess.run(
        [sys.executable, "-m", "sglg", *argv], capture_output=True, env=env,
        cwd=cwd, timeout=120,
    )
    stderr = proc.stderr.decode("utf-8", "replace")
    if "Traceback (most recent call last)" in stderr:
        return Outcome(crash=stderr.strip().splitlines()[-1])
    return Outcome(proc.returncode, proc.stdout.decode("utf-8"), stderr)


def memory_kb() -> tuple[int, int]:
    """This process's peak resident size (``VmHWM``) and its file-backed
    part now (``RssFile``), in kB, from ``/proc/self/status`` (Linux).

    Not ``ru_maxrss``: on Linux a child's ``ru_maxrss`` starts from its
    parent's resident size at fork, so it would carry the harness's memory.
    """
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "RssFile"):
                fields[key] = int(rest.split()[0])
    return fields["VmHWM"], fields["RssFile"]


class PeakMemory:
    """The process's peak resident memory less its file-backed pages.

    ``VmHWM`` also counts the pages mapped from the interpreter and its
    libraries (about 10 MB). The kernel can drop those under memory
    pressure from other processes on the host and map them back on use, so
    their share of a peak varies from run to run. The anonymous pages (the
    program's heap) stay resident on a host without swap, as the ones this
    benchmark was built on. So after each op that raised ``VmHWM``, the
    peak is ``VmHWM`` less the file-backed part at that moment.
    """

    def __init__(self):
        self.hwm, file_kb = memory_kb()
        self.peak_kb = self.hwm - file_kb

    def update(self) -> None:
        hwm, file_kb = memory_kb()
        if hwm > self.hwm:
            self.hwm = hwm
            self.peak_kb = max(self.peak_kb, hwm - file_kb)


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if job["spawn"]:
        env = dict(os.environ)
        clock = ScaledClock(env)
        run_op = lambda argv: clock.time(spawn, argv, env, job["workdir"])  # noqa: E731
    else:
        from sglg.cli import main as cli_main

        clock = ScaledClock()
        run_op = lambda argv: clock.time(call_main, cli_main, argv)  # noqa: E731
    memory = PeakMemory()
    base_rss = memory.peak_kb

    times: dict[str, list[float]] = {}
    outcomes: dict[str, dict] = {}
    replays: dict[str, dict] = {}
    tracer = Tracer() if job["trace"] else None
    for op in job["ops"]:
        gc.collect()
        outcome, raw, scaled = run_op(op["argv"])
        memory.update()
        times[op["id"]] = [raw, scaled]
        outcomes[op["id"]] = {"code": outcome.code, "stderr": outcome.stderr,
                              "crash": outcome.crash}
        Path(op["stdout"]).write_text(outcome.stdout, encoding="utf-8")
        if tracer is not None:
            replays[op["id"]] = _traced(op, tracer, clock, outcome, _output(op, outcome))
        del outcome  # so that this op's output is not held during the next op

    result = {
        "times": times,
        "outcomes": outcomes,
        # Spawned ops: the largest child's whole ru_maxrss, which is at least
        # the worker's own size at the spawn (``base_rss_kb``, kept small).
        "base_rss_kb": base_rss,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if job["spawn"] else memory.peak_kb,
    }
    if tracer is not None:
        result["replays"] = replays
        result["trace"] = {"totals_ms": tracer.totals_ms(), "counts": tracer.counts,
                           "spans": len(tracer.spans)}
        with open(job["spans_path"], "a", encoding="utf-8") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps({"pass": job["pass"], "id": i, **span}) + "\n")
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _output(op: dict, outcome: Outcome) -> str | None:
    """What the CLI run wrote (the -o file, else stdout), if the replay makes it."""
    if not op["replay_output"] or outcome.crash is not None:
        return None
    if op["out"] and outcome.code == 0:
        return Path(op["out"]).read_text(encoding="utf-8")
    return outcome.stdout


def _traced(op: dict, tracer: Tracer, clock: ScaledClock, outcome: Outcome,
            output: str | None) -> dict:
    """Replay the op with spans; the replay must agree with the CLI run."""
    gc.collect()
    try:
        (code, text), raw, scaled = clock.time(replay, op["argv"], tracer, op["id"])
        tracer.scale[op["id"]] = scaled / raw
    except Exception as exc:  # the replay hits the same defect as the CLI run
        return {"crash": f"{type(exc).__name__}: {exc}", "differs": False}
    differs = outcome.crash is not None or code != outcome.code or (
        output is not None and text != output)
    return {"crash": None, "differs": differs}


if __name__ == "__main__":
    raise SystemExit(main())
