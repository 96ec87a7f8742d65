"""Per-stage times on chain-14 and chain-16, in the ROADMAP baseline layout.

    python3 perfbench/stage_table.py

Replays ``check``, ``render --format svg-tiles`` and ``render --format
events`` on each chain with spans (see ``spans.py``) and prints the
median over ``REPEAT`` repeats of each stage as one markdown table row
per k.
Times are raw, as in the ROADMAP table; the host's current speed is
printed below the table as the reference loop's median time (``speed.py``).
``emit_events`` includes ``to_jsonl``.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from inputs import chain_logic  # noqa: E402
from spans import Tracer, replay  # noqa: E402
from speed import REFERENCE_S, reference_s  # noqa: E402

COLUMNS = (
    ("enumerate", "check", "logic.enumerate_ms"),
    ("compile", "check", "grammar.compile_ms"),
    ("derive", "check", "grammar.derive_ms"),
    ("check_incidence", "check", "grammar.incidence_ms"),
    ("render_tiles", "tiles", "render.tiles_ms"),
    ("emit_events", "events", "render.events_ms"),
)
SEED = 1
REPEAT = 3


def stage_row(k: int, workdir: Path) -> str:
    spec, rows = chain_logic(random.Random(f"{SEED}:stage-table"), k)
    path = workdir / f"chain{k}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argvs = {
        "check": ["check", str(path)],
        "tiles": ["render", str(path), "--format", "svg-tiles",
                  "-o", str(workdir / "tiles.svg")],
        "events": ["render", str(path), "--format", "events"],
    }
    samples: dict[str, list[float]] = {col: [] for col, _, _ in COLUMNS}
    for _ in range(REPEAT):
        totals = {}
        for name, argv in argvs.items():
            tracer = Tracer()
            code, _ = replay(argv, tracer, name)
            if code != 0:
                raise RuntimeError(f"chain-{k} {name} exited {code}")
            totals[name] = tracer.totals_ms()
        for col, op, key in COLUMNS:
            samples[col].append(totals[op][key])
    m, n = len(spec["atoms"]), len(rows)
    cells = [f"{statistics.median(samples[col]):.0f} ms" for col, _, _ in COLUMNS]
    return f"| {k} | {m} | {n} | {m * (n + 2):,} | " + " | ".join(cells) + " |"


def main() -> int:
    print("| k  | atoms | states | tokens  | " + " | ".join(c for c, _, _ in COLUMNS) + " |")
    print("|----|-------|--------|---------|" + "|".join("---" for _ in COLUMNS) + "|")
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="stage-table-", dir=work))
    try:
        for k in (14, 16):
            print(stage_row(k, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_ms = statistics.median(reference_s() for _ in range(200)) * 1e3
    print(f"\nreference loop: {ref_ms:.2f} ms (idle host: {REFERENCE_S * 1e3:.2f} ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
