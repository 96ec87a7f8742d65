"""Times scaled to the host's current speed.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x
over minutes as other tenants load the machine: on one 2-vCPU Xeon
host, five-second medians of a fixed pure-Python loop ranged from 95 to
170 ms within ten minutes. Raw seconds from two runs of the same code
then differ by more than any change worth measuring.

Every timed call is therefore bracketed by two runs of a fixed
reference, and its time is scaled by the reference's nominal time over
the mean of the two: the call's time at the speed at which the reference
takes its nominal time. In-process calls use ``reference``, a
pure-Python loop (nominal ``REFERENCE_S``); spawned processes use a bare
interpreter start (nominal ``START_S``), which tracks the cost of
process creation that the loop does not. Each nominal time is close to
the reference's fastest time on an idle host, so scaled times read as
seconds on that host. Raw times are reported beside them.
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_S = 0.002
START_S = 0.025


def _walk(depth: int) -> int:
    return 1 if depth == 0 else _walk(depth - 1) + 1


def reference() -> int:
    """Calls, small tuples, dict updates, f-strings and a join."""
    rows = []
    seen: dict[str, int] = {}
    for i in range(3000):
        label = f"s{i % 211}"
        seen[label] = seen.get(label, 0) + 1
        rows.append((label, i & 1, _walk(8)))
    return len(",".join(label for label, _, _ in rows)) + len(seen)


def reference_s() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def interpreter_start_s(env: dict) -> float:
    """Wall time of ``python -c pass`` under ``env``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


class ScaledClock:
    """Times calls and scales each by the reference runs around it.

    Consecutive calls share a reference run: the one after a call is the
    one before the next. Without ``env`` the reference is the in-process
    loop; with it, a bare interpreter start under that environment.
    """

    def __init__(self, env: dict | None = None):
        if env is None:
            self._reference, self._nominal = reference_s, REFERENCE_S
        else:
            self._reference = lambda: interpreter_start_s(env)
            self._nominal = START_S
        self._last = None

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return (its result, raw seconds, scaled seconds)."""
        before = self._last if self._last is not None else self._reference()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        self._last = self._reference()
        return result, raw, raw * self._nominal / ((before + self._last) / 2)
