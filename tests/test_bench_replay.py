"""The benchmark's traced replay still runs against the public API.

``perfbench/spans.py`` re-runs each CLI op as the public calls the CLI
handler makes, to time them one by one. If one of those calls is renamed
or removed, the replay breaks. This test loads that file without
changing it, replays every command form on the three fixtures, and
compares the exit code with ``cli.main``'s, and the output too where the
replay produces one (not for ``check`` and ``verify-orthorep``). It also
replays one failing input of each error family, which the replay catches
by class name, and compares the exit codes.
"""

from __future__ import annotations

import io
import json
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sglg import cli
from support import FIXTURES, ROOT

SPANS = ROOT / "perfbench" / "spans.py"

# The command forms, each with where its output goes: stdout or a file.
FORMS = {
    "states": (["states"], None),
    "grammar-text": (["grammar", "--format", "text"], None),
    "grammar-json": (["grammar", "--format", "json"], None),
    "svg-tiles": (["render", "--format", "svg-tiles"], "out.svg"),
    "ansi": (["render", "--format", "ansi"], None),
    "html": (["render", "--format", "html"], None),
    "logic-program": (["render", "--format", "logic-program"], None),
    "events": (["render", "--format", "events"], None),
    "schema": (["schema"], "out.svg"),
    "check": (["check"], None),
    "verify-orthorep": (
        ["verify-orthorep", "--vectors", str(FIXTURES / "l12_vectors.json")],
        None,
    ),
}
SILENT = {"check", "verify-orthorep"}  # the replay writes no output for these


@pytest.fixture(scope="module")
def spans():
    # Executed from its source, so no bytecode is written beside it.
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("fixture", ["l12", "triangle", "example_a"])
def test_replay_agrees_with_the_cli(spans, fixture, form, tmp_path, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    command, output = FORMS[form]
    argv = [command[0], str(FIXTURES / f"{fixture}.json"), *command[1:]]
    if output:
        argv += ["-o", str(tmp_path / output)]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    written = (tmp_path / output).read_text(encoding="utf-8") if output else stdout.getvalue()

    replayed, text = spans.replay(argv, spans.Tracer(), f"{fixture}:{form}")
    assert replayed == code
    if form not in SILENT:
        assert text == written


# Failing inputs, each with the exit code both paths give: a non-separating
# logic fails a semantic check, and a pinned row of one value is malformed.
FAILURES = {
    "not-separating": ({"atoms": ["a", "b", "c"], "contexts": [["a", "b"], ["a", "c"]]}, 1),
    "short-row": ({"atoms": ["a", "b"], "contexts": [["a", "b"]], "states": [[1]]}, 2),
}


@pytest.mark.parametrize("case", FAILURES)
def test_replay_maps_each_error_family_to_the_cli_exit_code(spans, case, tmp_path):
    payload, code = FAILURES[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["grammar", str(spec)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code
    assert spans.replay(argv, spans.Tracer(), f"{case}:grammar") == (code, "")
