"""Spans around the public calls each ``sglg`` command makes.

``replay`` re-runs one op from outside the program: it calls the public
functions of ``sglg.logic``, ``sglg.grammar``, ``sglg.render`` and
``sglg.orthorep`` in the order the CLI handler calls them, and records
one span per call under a parent op span. Spans stay in memory until
the run ends.

Known limitation: ``compile_grammar`` runs its own admissibility and
separation checks, and seen from outside these fall inside
``grammar.compile``.
"""

from __future__ import annotations

import io
import os
import time
from contextlib import contextmanager
from pathlib import Path

# Span names, each reported as ``<name>_ms``; the prefix is the layer.
STAGES = (
    "cli.format_table",
    "logic.parse", "logic.enumerate", "logic.pin", "logic.point_induce",
    "logic.separate", "logic.partition_rep",
    "grammar.compile", "grammar.derive", "grammar.incidence", "grammar.listing",
    "render.palette", "render.tiles", "render.schema", "render.ansi",
    "render.html", "render.logic_program", "render.events",
    "orthorep.load", "orthorep.verify",
)
LAYERS = ("logic", "grammar", "render", "orthorep")
COUNTS = ("logic.atoms", "logic.contexts", "logic.states",
          "grammar.productions", "grammar.tokens", "render.output_bytes")


class Tracer:
    """Spans (name, start, end, parent, op id) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.scale: dict[str, float] = {}  # per op id, see speed.py
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if op is not None:
            self._op = op
        record = {"name": name, "op": self._op,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def totals_ms(self) -> dict[str, float]:
        """Per span name, total duration; per layer, total self time.

        Each span is scaled by its op's entry in ``scale``, if any.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = {f"{name}_ms": 0.0 for name in STAGES}
        totals.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
        totals["op_ms"] = 0.0
        for i, span in enumerate(self.spans):
            factor = self.scale.get(span["op"], 1.0)
            child_time[i] *= factor
            duration = (span["end"] - span["start"]) * factor
            if span["name"] == "op":
                totals["op_ms"] += duration * 1e3
                continue
            totals[f"{span['name']}_ms"] += duration * 1e3
            layer = span["name"].split(".")[0]
            if layer in LAYERS:
                totals[f"{layer}.self_ms"] += (duration - child_time[i]) * 1e3
        return totals


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def replay(argv: list[str], tr: Tracer, op_id: str) -> tuple[int, str]:
    """Re-run one CLI op as traced public calls; return (exit code, output).

    The output is what the command writes (the -o file's text or stdout)
    where a public function produces it, else "".
    """
    from sglg import cli, errors

    out = io.StringIO()
    with tr.span("op", op=op_id):
        try:
            args = cli.build_parser().parse_args(argv)
            _COMMANDS[args.command](args, tr, out)
            code = 0
        except _Exit as stop:
            code = stop.code
        except errors.LogicFileError:
            code = 2
        except errors.ValidationError:
            code = 1
        text = out.getvalue()
        if getattr(args, "output", None):
            Path(args.output).write_text(text, encoding="utf-8")
    return code, text


def _resolve(args, tr: Tracer):
    from sglg import logic as lg

    text = Path(args.spec).read_text(encoding="utf-8")
    with tr.span("logic.parse"):
        logic_file = lg.parse_logic_file(text)
    source = logic_file.source
    if isinstance(source, lg.BaseSetSpec):
        with tr.span("logic.point_induce"):
            logic, states = lg.logic_from_partitions(source)
    elif logic_file.pinned_states is not None:
        logic = source
        with tr.span("logic.pin"):
            states = lg.pinned_state_set(logic, logic_file.pinned_states)
    else:
        logic = source
        with tr.span("logic.enumerate"):
            states = lg.enumerate_states(logic)
    tr.count("logic.atoms", len(logic.atoms))
    tr.count("logic.contexts", len(logic.contexts))
    tr.count("logic.states", len(states))
    return logic_file, logic, states


def _compile(logic, states, tr: Tracer):
    from sglg import grammar as gr

    with tr.span("grammar.compile"):
        grammar = gr.compile_grammar(logic, states)
    tr.count("grammar.productions", len(grammar.productions))
    return grammar


def _derive(grammar, tr: Tracer):
    from sglg import grammar as gr

    with tr.span("grammar.derive"):
        derivation = gr.derive(grammar)
    tr.count("grammar.tokens", len(derivation.tokens))
    return derivation


def _spec(args, logic_file, states, backend: str, tr: Tracer):
    """The CLI's palette, geometry and backend."""
    from sglg import render as rd

    with tr.span("render.palette"):
        palette = rd.default_palette(states.labels())
        if logic_file.palette:
            palette.update(logic_file.palette)
        if args.palette:
            palette.update(dict(args.palette))
        return rd.RenderSpec(palette=palette, cell_size=args.cell_size,
                             cell_gap=args.cell_gap, backend=rd.Backend(backend))


def _emitted(text: str, tr: Tracer, out: io.StringIO) -> None:
    tr.count("render.output_bytes", len(text.encode("utf-8")))
    out.write(text)


def _states(args, tr, out):
    from sglg import cli

    _, logic, states = _resolve(args, tr)
    with tr.span("cli.format_table"):
        text = cli.format_state_table(logic, states)
    out.write(text)


def _grammar(args, tr, out):
    from sglg import grammar as gr

    _, logic, states = _resolve(args, tr)
    grammar = _compile(logic, states, tr)
    with tr.span("grammar.listing"):
        if args.format == "json":
            text = gr.productions_json(grammar)
        else:
            text = gr.production_text(grammar)
    out.write(text)


def _render(args, tr, out):
    from sglg import render as rd

    logic_file, logic, states = _resolve(args, tr)
    fmt = args.format
    grammar = _compile(logic, states, tr)
    derivation = _derive(grammar, tr)
    spec = _spec(args, logic_file, states, fmt, tr)
    if fmt == "svg-tiles":
        with tr.span("render.tiles"):
            text = rd.render_tiles(derivation, spec)
    elif fmt == "ansi":
        with tr.span("render.ansi"):
            text = rd.render_text(derivation, spec, color="NO_COLOR" not in os.environ)
    elif fmt == "html":
        with tr.span("render.html"):
            text = rd.render_text(derivation, spec)
    elif fmt == "logic-program":
        with tr.span("render.logic_program"):
            text = rd.emit_logic_program(grammar, spec)
    else:
        with tr.span("render.events"):
            text = rd.emit_events(derivation).to_jsonl()
    _emitted(text, tr, out)


def _schema(args, tr, out):
    from sglg import render as rd

    logic_file, logic, states = _resolve(args, tr)
    spec = _spec(args, logic_file, states, "svg-schema", tr)
    with tr.span("render.schema"):
        text = rd.render_schema(logic, states, spec)
    _emitted(text, tr, out)


def _verify(args, tr, out):
    from sglg import orthorep as orp

    _, logic, _states = _resolve(args, tr)
    with tr.span("orthorep.load"):
        if args.vectors is not None:
            text = Path(args.vectors).read_text(encoding="utf-8")
            realization = orp.load_vector_file(text)
        else:
            realization = orp.build_v_realization(args.theta)
        if args.tol is not None:
            realization = orp.VectorRealization(
                realization.dimension, realization.vectors, args.tol
            )
    with tr.span("orthorep.verify"):
        report = orp.verify_faithful(logic, realization)
    if not report.passed:
        raise _Exit(1)


def _check(args, tr, out):
    from sglg import grammar as gr
    from sglg import logic as lg

    _, logic, states = _resolve(args, tr)
    if len(states) == 0:
        raise _Exit(1)
    with tr.span("logic.separate"):
        separation = lg.is_separating(states, logic)
    if not separation:
        raise _Exit(1)
    with tr.span("logic.partition_rep"):
        lg.partition_representation(logic, states)
    grammar = _compile(logic, states, tr)
    derivation = _derive(grammar, tr)
    with tr.span("grammar.incidence"):
        report = gr.check_incidence(derivation, logic, states)
    if not report.ok:
        raise _Exit(1)


_COMMANDS = {
    "states": _states,
    "grammar": _grammar,
    "render": _render,
    "schema": _schema,
    "verify-orthorep": _verify,
    "check": _check,
}
