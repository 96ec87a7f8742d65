"""Command-line front end.

Wires spec parsing, state analysis, grammar compilation, rendering and
realization checks into file-to-file workflows. Exit status 0 means
success, 1 a semantic validation failure, 2 a usage, parse, or I/O
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import accumulate
from pathlib import Path

from .errors import LogicFileError, ValidationError
from .grammar import (
    check_incidence,
    compile_grammar,
    derive,
    production_text,
    productions_json,
)
from .logic import (
    _HEX_COLOR_RE,
    _NAME_RE,
    LogicFile,
    PartitionLogic,
    StateSet,
    _atom_width,
    parse_logic_file,
    resolve_states,
)
from .orthorep import (
    VectorRealization,
    build_v_realization,
    load_vector_file,
    verify_faithful,
)
from .render import (
    Backend,
    RenderSpec,
    default_palette,
    emit_logic_program,
    event_chunks,
    join_chunks,
    schema_chunks,
    text_chunks,
    tile_chunks,
)

_WORST_LABELS = {
    "context orthonormality": "max deviation",
    "basis completeness": "max size gap",
    "faithfulness": "min |dot|",
}
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # state values as table digits


def _palette_override(text: str) -> tuple[str, str]:
    label, equals, color = text.partition("=")
    if not (equals and _NAME_RE.fullmatch(label) and _HEX_COLOR_RE.fullmatch(color)):
        raise argparse.ArgumentTypeError(
            f"expected LABEL=#RRGGBB, got {text!r}"
        )
    return label, color


def _add_style_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cell-size", type=int, default=20, metavar="PX",
        help="square edge length in pixels (default 20)",
    )
    parser.add_argument(
        "--cell-gap", type=int, default=2, metavar="PX",
        help="gap between squares in pixels (default 2)",
    )
    parser.add_argument(
        "--palette", action="append", type=_palette_override, default=None,
        metavar="LABEL=#RRGGBB", help="override one palette entry (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sglg",
        description="Compile finite partition logics into generative grammars "
        "and render the derived artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", help="print the two-valued state table")
    p.add_argument("spec", help="logic file (JSON)")

    p = sub.add_parser("grammar", help="print the compiled grammar")
    p.add_argument("spec", help="logic file (JSON)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("render", help="render the derived artifact")
    p.add_argument("spec", help="logic file (JSON)")
    p.add_argument(
        "--format", required=True,
        choices=("svg-tiles", "ansi", "html", "logic-program", "events"),
    )
    p.add_argument("-o", "--output", metavar="FILE")
    _add_style_flags(p)

    p = sub.add_parser("schema", help="write the incidence schema (SVG)")
    p.add_argument("spec", help="logic file (JSON)")
    p.add_argument("-o", "--output", metavar="FILE")
    _add_style_flags(p)

    p = sub.add_parser(
        "verify-orthorep", help="verify a faithful orthogonal representation"
    )
    p.add_argument("spec", help="logic file (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vectors", metavar="FILE", help="vector file (JSON)")
    group.add_argument(
        "--theta", type=float, metavar="REAL",
        help="use the built-in two-basis realization at this angle",
    )
    p.add_argument("--tol", type=float, metavar="REAL", help="numerical tolerance")

    p = sub.add_parser("check", help="run every analysis; nonzero exit on failure")
    p.add_argument("spec", help="logic file (JSON)")
    return parser


def _validate_usage(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command == "render" and args.format == "svg-tiles" and not args.output:
        parser.error("--format svg-tiles writes an SVG document: -o FILE is required")
    if args.command == "schema" and not args.output:
        parser.error("schema writes an SVG document: -o FILE is required")
    if getattr(args, "cell_size", 1) <= 0:
        parser.error("--cell-size must be a positive integer")
    if getattr(args, "cell_gap", 0) < 0:
        parser.error("--cell-gap must be a non-negative integer")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        parser.error("--tol must be a positive finite number")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_usage(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except (LogicFileError, OSError) as exc:
        print(f"sglg: error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"sglg: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "states": _cmd_states,
        "grammar": _cmd_grammar,
        "render": _cmd_render,
        "schema": _cmd_schema,
        "verify-orthorep": _cmd_verify,
        "check": _cmd_check,
    }[args.command]
    return handler(args)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # JSON text is UTF-8
        raise LogicFileError(f"invalid JSON: {exc}") from None


def _read_logic_file(path: str) -> LogicFile:
    return parse_logic_file(_read_text(path))


def _emit(chunks, output: str | None) -> None:
    if output:  # a chunk at a time, so the file's text is never held whole
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(map("".join, chunks))
    else:
        sys.stdout.write(join_chunks(chunks))


def _render_spec(logic_file: LogicFile, states: StateSet, args, backend) -> RenderSpec:
    """The spec from the style flags: default colors, then the file's, then --palette."""
    palette = default_palette(states.labels())
    if logic_file.palette:
        palette.update(logic_file.palette)
    if args.palette:
        palette.update(dict(args.palette))
    return RenderSpec(
        palette, cell_size=args.cell_size, cell_gap=args.cell_gap, backend=backend
    )


def format_state_table(logic: PartitionLogic, states: StateSet) -> str:
    """The Table-I layout: one column per atom, one labeled row per state, written
    into a buffer of spaces by a strided copy per label character and per atom."""
    m, n = _atom_width(logic, states), len(states)
    label_width = len(f"s{n}") if n else 0
    head = (" " * label_width + "  " + "  ".join(logic.atoms) + "\n").encode()
    # Where each atom's cell ends: its value is right-aligned under its name.
    ends = list(accumulate((len(atom) + 2 for atom in logic.atoms), initial=label_width))
    h, line = len(head), ends[-1] + 1
    body = bytearray(b" ") * (h + n * line)
    body[:h] = head
    body[h::line] = b"s" * n
    body[h + line - 1 :: line] = b"\n" * n
    for d in range(1, label_width):  # labels of d digits: s<lo>..s<hi>
        lo, hi = 10 ** (d - 1), min(n, 10**d - 1)
        numbers = "".join(map(str, range(lo, hi + 1))).encode()
        for c in range(d):
            body[h + (lo - 1) * line + 1 + c : h + hi * line : line] = numbers[c::d]
    for j, end in enumerate(ends[1:]):
        body[h + end - 1 :: line] = states.matrix[j::m].translate(_DIGITS)
    return body.decode()


def _cmd_states(args) -> int:
    logic, states = resolve_states(_read_logic_file(args.spec))
    sys.stdout.write(format_state_table(logic, states))
    return 0


def _cmd_grammar(args) -> int:
    logic, states = resolve_states(_read_logic_file(args.spec))
    grammar = compile_grammar(logic, states)
    if args.format == "json":
        sys.stdout.write(productions_json(grammar))
    else:
        sys.stdout.write(production_text(grammar))
    return 0


def _cmd_render(args) -> int:
    logic_file = _read_logic_file(args.spec)
    logic, states = resolve_states(logic_file)
    grammar = compile_grammar(logic, states)
    if args.format == "events":  # the one format without colors
        _emit(event_chunks(derive(grammar)), args.output)
        return 0
    spec = _render_spec(logic_file, states, args, Backend(args.format))
    if args.format == "logic-program":  # the one format reading only the grammar
        chunks = [[emit_logic_program(grammar, spec)]]
    elif args.format == "svg-tiles":
        chunks = tile_chunks(derive(grammar), spec)
    else:  # ansi or html; NO_COLOR keeps the ANSI glyphs and drops their colors
        chunks = text_chunks(derive(grammar), spec, color="NO_COLOR" not in os.environ)
    _emit(chunks, args.output)
    return 0


def _cmd_schema(args) -> int:
    logic_file = _read_logic_file(args.spec)
    logic, states = resolve_states(logic_file)
    spec = _render_spec(logic_file, states, args, Backend.SVG_SCHEMA)
    _emit(schema_chunks(logic, states, spec), args.output)
    return 0


def _cmd_verify(args) -> int:
    logic, _states = resolve_states(_read_logic_file(args.spec))
    if args.vectors is not None:
        realization = load_vector_file(_read_text(args.vectors))
    else:
        realization = build_v_realization(args.theta)
    if args.tol is not None:
        try:
            realization = VectorRealization(
                realization.dimension, realization.vectors, args.tol
            )
        except ValueError as exc:  # e.g. a vector within --tol of zero
            raise LogicFileError(str(exc), "--tol") from None
    report = verify_faithful(logic, realization)
    for check in report.checks():
        verdict = "PASS" if check.passed else "FAIL"
        if check.name == "basis completeness":
            worst = f"{int(check.worst)}"
        elif math.isinf(check.worst):
            worst = "inf"
        else:
            worst = f"{check.worst:.3e}"
        print(f"[{verdict}] {check.name}: {_WORST_LABELS[check.name]} {worst}")
        for failure in check.failures:
            print(f"    - {failure}")
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    logic, states = resolve_states(_read_logic_file(args.spec))
    # compile_grammar rejects empty and non-separating state sets, and checks
    # that each context's T-sets partition the state labels.
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    report = check_incidence(derivation, logic, states)
    if not report.ok:
        for violation in report.violations:
            print(
                f"sglg: error: row {violation.row_index} ({violation.atom}) "
                f"misplaces {', '.join(violation.labels)}",
                file=sys.stderr,
            )
        return 1
    print(
        f"states: {len(states)} admissible ({states.order_source.value} order)\n"
        "separating: yes\n"
        f"partition representation: ok ({len(logic.contexts)} contexts)\n"
        f"grammar: {len(grammar.productions)} productions, "
        f"{len(derivation.indices)} derivation tokens\n"
        "incidence: ok"
    )
    return 0
