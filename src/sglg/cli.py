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
from collections.abc import Iterable, Iterator
from itertools import accumulate

from .errors import LogicFileError, SglgError, ValidationError
from .grammar import (
    LINEBREAK_NAME,
    SEPARATOR_NAME,
    check_incidence,
    compile_grammar,
    derive,
    production_chunks,
    production_json_chunks,
)
from .logic import (
    _BLOCK,
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
    _v_realization_for,
    load_vector_file,
    verify_faithful,
)
from .render import (
    RenderSpec,
    ansi_chunks,
    default_palette,
    event_chunks,
    html_chunks,
    logic_program_chunks,
    schema_chunks,
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
    try:  # every command reads its logic file; all but verify-orthorep resolve its states
        logic_file = parse_logic_file(_read_text(args.spec))
        verify = args.command == "verify-orthorep" and isinstance(logic_file.source, PartitionLogic)
        logic, states = (logic_file.source, None) if verify else resolve_states(logic_file)
        code = _COMMANDS[args.command](args, logic_file, logic, states)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # stdout closed: what it still holds goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (OSError, SglgError, UnicodeEncodeError) as exc:
        print(f"sglg: error: {exc}", file=sys.stderr)  # an unencodable stdout is an I/O failure
        return 1 if isinstance(exc, ValidationError) else 2


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # JSON text is UTF-8
        raise LogicFileError(f"invalid JSON: {exc}") from None


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write each chunk, a ``str``, as it comes, so the text is never held whole."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _render_spec(logic_file: LogicFile, states: StateSet, args) -> RenderSpec:
    """The spec from the style flags: default colors, then the file's, then --palette.
    Each key names a state, the separator br or the linebreak n."""
    palette = default_palette(states.labels())  # a key per state label
    for location, entries in (("palette", logic_file.palette), ("--palette", args.palette)):
        for label, color in dict(entries or ()).items():
            if label not in palette and label not in (SEPARATOR_NAME, LINEBREAK_NAME):
                raise LogicFileError(f"no state is labeled {label!r}", location)
            palette[label] = color
    return RenderSpec(palette, cell_size=args.cell_size, cell_gap=args.cell_gap)


def format_state_table(logic: PartitionLogic, states: StateSet) -> str:
    """The Table-I layout: one column per atom, one labeled row per state."""
    return "".join(_table_chunks(logic, states))


def _table_chunks(logic: PartitionLogic, states: StateSet) -> Iterator[str]:
    """Table I as the head line, then a chunk per block of ``_BLOCK`` states,
    written into a buffer of spaces by a strided copy per label character
    and per atom."""
    m, n = _atom_width(logic, states), len(states)
    label_width = len(f"s{n}") if n else 0
    yield " " * label_width + "  " + "  ".join(logic.atoms) + "\n"
    # Where each atom's cell ends: its value is right-aligned under its name.
    ends = list(accumulate((len(atom) + 2 for atom in logic.atoms), initial=label_width))
    line = ends[-1] + 1
    for first in range(0, n, _BLOCK):  # states first+1..first+k
        k = min(_BLOCK, n - first)
        body = bytearray(b" ") * (k * line)
        body[::line] = b"s" * k
        body[line - 1 :: line] = b"\n" * k
        for d in range(1, label_width):  # labels of d digits: rows lo..hi of the block
            lo, hi = max(10 ** (d - 1) - first, 1), min(10**d - 1 - first, k)
            numbers = "".join(map(str, range(first + lo, first + hi + 1))).encode()
            for c in range(d):  # a stop below 0 would count from the end
                body[(lo - 1) * line + 1 + c : max(hi, 0) * line : line] = numbers[c::d]
        rows = states.matrix[first * m : (first + k) * m]
        for j, end in enumerate(ends[1:]):
            body[end - 1 :: line] = rows[j::m].translate(_DIGITS)
        yield body.decode()


def _cmd_states(args, logic_file, logic, states) -> int:
    _emit(_table_chunks(logic, states), None)
    return 0


def _cmd_grammar(args, logic_file, logic, states) -> int:
    grammar = compile_grammar(logic, states)
    listing = production_json_chunks if args.format == "json" else production_chunks
    _emit(listing(grammar), None)
    return 0


def _cmd_render(args, logic_file, logic, states) -> int:
    grammar = compile_grammar(logic, states)
    if args.format == "events":  # the one format without colors
        _emit(event_chunks(derive(grammar)), args.output)
        return 0
    spec = _render_spec(logic_file, states, args)
    if args.format == "logic-program":  # the one format reading only the grammar
        chunks = logic_program_chunks(grammar, spec)
    elif args.format == "svg-tiles":
        chunks = tile_chunks(derive(grammar), spec)
    elif args.format == "html":
        chunks = html_chunks(derive(grammar), spec)
    else:  # ansi; a non-empty NO_COLOR keeps the glyphs, drops their colors
        chunks = ansi_chunks(derive(grammar), spec, color=not os.environ.get("NO_COLOR"))
    _emit(chunks, args.output)
    return 0


def _cmd_schema(args, logic_file, logic, states) -> int:
    spec = _render_spec(logic_file, states, args)
    _emit(schema_chunks(logic, states, spec), args.output)
    return 0


def _cmd_verify(args, logic_file, logic, states) -> int:
    if args.vectors is not None:
        realization = load_vector_file(_read_text(args.vectors))
    else:
        realization = _v_realization_for(logic, args.theta)
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
        # .3e prints inf for a faithfulness check with no two atoms apart.
        worst = int(check.worst) if check.name == "basis completeness" else f"{check.worst:.3e}"
        print(f"[{verdict}] {check.name}: {_WORST_LABELS[check.name]} {worst}")
        for failure in check.failures:
            print(f"    - {failure}")
    return 0 if report.passed else 1


def _cmd_check(args, logic_file, logic, states) -> int:
    # compile_grammar rejects empty and non-separating state sets, and checks
    # that each context's T-sets partition the state labels.
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    report = check_incidence(derivation, logic, states)
    if not report.ok:
        for violation in report.violations:
            j = violation.row_index
            print(
                f"sglg: error: row {j} ({logic.atoms[j]}) "
                f"misplaces {', '.join(violation.labels)}",
                file=sys.stderr,
            )
        return 1
    print(
        f"states: {len(states)} admissible ({logic_file.state_order} order)\n"
        "separating: yes\n"
        f"partition representation: ok ({len(logic.contexts)} contexts)\n"
        f"grammar: {len(grammar.productions)} productions, "
        f"{len(derivation.indices)} derivation tokens\n"
        "incidence: ok"
    )
    return 0


_COMMANDS = {
    "states": _cmd_states,
    "grammar": _cmd_grammar,
    "render": _cmd_render,
    "schema": _cmd_schema,
    "verify-orthorep": _cmd_verify,
    "check": _cmd_check,
}
