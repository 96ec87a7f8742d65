"""Rendering backends: tiles, incidence schemas, text, source, events.

Every emitter is a pure function of immutable inputs and produces
byte-identical output for identical arguments. The grammar/derivation
layer never changes here — a ``RenderSpec`` only binds symbols to colors
and geometry.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field
from enum import Enum
from html import escape
from json.encoder import encode_basestring_ascii as _json_string

from .errors import MissingPaletteEntryError
from .grammar import Derivation, Grammar, SymbolKind, production_text
from .logic import _HEX_COLOR_RE, PartitionLogic, StateSet

DEFAULT_COLORS = ("#008000", "#0000FF", "#FF0000", "#FFA500", "#8F00FF")
DEFAULT_SEPARATOR_COLOR = "#000000"
DEFAULT_FALSE_CELL_COLOR = "#BFBFBF"

BLOCK = "█"


class Backend(Enum):
    SVG_TILES = "svg-tiles"
    SVG_SCHEMA = "svg-schema"
    ANSI = "ansi"
    HTML = "html"
    LOGIC_PROGRAM = "logic-program"
    EVENTS = "events"


def default_palette(labels: tuple[str, ...]) -> dict[str, str]:
    """Label → hex color map: the five named colors, or spaced hues beyond.

    For more than five labels the colors are evenly spaced hues
    (hue_i = i·360/N) at full saturation and value 0.9, which keeps every
    entry clearly distinct from the black separator.
    """
    if len(labels) <= len(DEFAULT_COLORS):
        return dict(zip(labels, DEFAULT_COLORS))
    n = len(labels)
    palette = {}
    for i, label in enumerate(labels):
        r, g, b = colorsys.hsv_to_rgb(i / n, 1.0, 0.9)
        palette[label] = "#{:02X}{:02X}{:02X}".format(
            round(r * 255), round(g * 255), round(b * 255)
        )
    return palette


@dataclass(frozen=True)
class RenderSpec:
    palette: dict[str, str] = field(default_factory=dict)
    separator_color: str = DEFAULT_SEPARATOR_COLOR
    false_cell_color: str = DEFAULT_FALSE_CELL_COLOR
    cell_size: int = 20
    cell_gap: int = 2
    backend: Backend = Backend.SVG_TILES

    def __post_init__(self):
        for label, value in self.palette.items():
            if not _HEX_COLOR_RE.fullmatch(value):
                raise ValueError(f"palette entry {label!r} is not a hex color: {value!r}")
        for name in ("separator_color", "false_cell_color"):
            if not _HEX_COLOR_RE.fullmatch(getattr(self, name)):
                raise ValueError(f"{name} is not a hex color: {getattr(self, name)!r}")
        if not isinstance(self.cell_size, int) or self.cell_size <= 0:
            raise ValueError("cell_size must be a positive integer")
        if not isinstance(self.cell_gap, int) or self.cell_gap < 0:
            raise ValueError("cell_gap must be a non-negative integer")

    def color(self, label: str) -> str:
        try:
            return self.palette[label]
        except KeyError:
            raise MissingPaletteEntryError(label) from None


def _token_color(symbol, spec: RenderSpec) -> str:
    if symbol.kind is SymbolKind.STATE:
        return spec.color(symbol.name)
    if symbol.kind is SymbolKind.SEPARATOR:
        return spec.separator_color
    raise ValueError(f"unrenderable token {symbol.name!r} of kind {symbol.kind.value}")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>", ""])


def render_tiles(derivation: Derivation, spec: RenderSpec) -> str:
    """SVG document with one row of squares per derivation row."""
    if spec.backend is not Backend.SVG_TILES:
        raise ValueError("render_tiles requires the svg-tiles backend")
    rows = derivation.rows()
    step = spec.cell_size + spec.cell_gap
    cols = max((len(row) for row in rows), default=0)
    width = cols * spec.cell_size + max(cols - 1, 0) * spec.cell_gap
    height = len(rows) * spec.cell_size + max(len(rows) - 1, 0) * spec.cell_gap
    body = []
    for r, row in enumerate(rows):
        for i, sym in enumerate(row):
            body.append(
                f'  <rect x="{i * step}" y="{r * step}" '
                f'width="{spec.cell_size}" height="{spec.cell_size}" '
                f'fill="{_token_color(sym, spec)}"/>'
            )
    return _svg_document(width, height, body)


def render_schema(logic: PartitionLogic, states: StateSet, spec: RenderSpec) -> str:
    """SVG incidence schema: atom rows × state columns, gray where false."""
    if spec.backend is not Backend.SVG_SCHEMA:
        raise ValueError("render_schema requires the svg-schema backend")
    cell, gap = spec.cell_size, spec.cell_gap
    step = cell + gap
    left, top = 2 * cell, cell
    n, m = len(states), len(logic.atoms)
    width = left + n * cell + max(n - 1, 0) * gap
    height = top + m * cell + max(m - 1, 0) * gap
    font = max(cell // 2, 1)
    body = []
    for i, label in enumerate(states.labels()):
        body.append(
            f'  <text x="{left + i * step + cell // 2}" y="{top - font // 2}" '
            f'text-anchor="middle" font-family="monospace" '
            f'font-size="{font}">{escape(label, quote=False)}</text>'
        )
    for j, atom in enumerate(logic.atoms):
        body.append(
            f'  <text x="{left - font}" y="{top + j * step + (cell + font) // 2}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="{font}">{escape(atom, quote=False)}</text>'
        )
        for i, state in enumerate(states):
            fill = spec.color(state.label) if state.values[j] == 1 else spec.false_cell_color
            body.append(
                f'  <rect x="{left + i * step}" y="{top + j * step}" '
                f'width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    return _svg_document(width, height, body)


def render_text(derivation: Derivation, spec: RenderSpec, color: bool = True) -> str:
    """Terminal (ANSI 24-bit) or HTML-fragment realization of a derivation.

    ``color=False`` drops the ANSI escape sequences (the glyphs remain);
    it has no effect on the html backend, whose colors live in markup.
    """
    if spec.backend is Backend.ANSI:
        return _render_ansi(derivation, spec, color)
    if spec.backend is Backend.HTML:
        return _render_html(derivation, spec)
    raise ValueError("render_text requires the ansi or html backend")


def _render_ansi(derivation: Derivation, spec: RenderSpec, color: bool) -> str:
    lines = []
    for row in derivation.rows():
        if color:
            glyphs = []
            for sym in row:
                value = _token_color(sym, spec)
                r, g, b = (int(value[k : k + 2], 16) for k in (1, 3, 5))
                glyphs.append(f"\x1b[38;2;{r};{g};{b}m{BLOCK}")
            lines.append("".join(glyphs) + "\x1b[0m")
        else:
            lines.append(BLOCK * len(row))
    lines.append("")  # ends the text with a newline
    return "\n".join(lines)


def _render_html(derivation: Derivation, spec: RenderSpec) -> str:
    cell = spec.cell_size
    lines = ['<div class="sglg-tiles">']
    for row in derivation.rows():
        lines.append('  <div class="sglg-row">')
        for sym in row:
            lines.append(
                '    <span class="sglg-cell" style="display:inline-block;'
                f"width:{cell}px;height:{cell}px;"
                f'background:{_token_color(sym, spec)}"></span>'
            )
        lines.append("  </div>")
    lines += ["</div>", ""]  # the empty last line ends the text with a newline
    return "\n".join(lines)


def emit_logic_program(grammar: Grammar, spec: RenderSpec) -> str:
    """Three-layer source: structural rules, repertoire bindings, layout.

    The repertoire layer binds each state symbol to its palette color and
    the layout layer binds ``br`` to the separator color and ``n`` to a
    literal newline escape.
    """
    structural = production_text(grammar).rstrip("\n")
    repertoire = [
        f"{label} --> [ {spec.color(label)} ]." for label in grammar.terminals
    ]
    layout = [f"br --> [ {spec.separator_color} ].", "n  --> [\\n]."]
    return "\n\n".join(
        ["\n".join(block) for block in ([structural], repertoire, layout)]
    ) + "\n"


@dataclass(frozen=True)
class Event:
    row: int
    pos: int
    symbol: str
    kind: str


@dataclass(frozen=True)
class EventStream:
    events: tuple[Event, ...]

    def to_jsonl(self) -> str:
        # The text of json.dumps(..., separators=(",", ":")) for each event,
        # with the strings quoted by the function json.dumps uses for them.
        lines = [
            f'{{"row":{e.row},"pos":{e.pos},"symbol":{_json_string(e.symbol)},'
            f'"kind":{_json_string(e.kind)}}}'
            for e in self.events
        ]
        if lines:
            lines.append("")  # ends the text with a newline
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


def emit_events(derivation: Derivation) -> EventStream:
    """One event per non-linebreak token, ordered by (row, position)."""
    events = []
    for r, row in enumerate(derivation.rows()):
        for p, sym in enumerate(row):
            events.append(Event(r, p, sym.name, sym.kind.value))
    return EventStream(tuple(events))
