"""Rendering backends: tiles, incidence schemas, text, source, events.

Every emitter is a pure function of immutable inputs and produces
byte-identical output for identical arguments. The grammar/derivation
layer never changes here — a ``RenderSpec`` only binds symbols to colors
and geometry.

That binding is per symbol, not per token: a derivation holds each
distinct symbol once in its table and its rows as arrays of symbol
numbers, so each backend formats its output fragment once per table entry
and writes each row by looking the fragments up by number, with the
per-column and per-row text (x and y coordinates, event positions)
formatted once too. The SVG and event writers make a row one join over
three slots per token, filled by slice assignment: the column's text,
the row's text and the token's fragment. Each SVG line starts with its
newline and each event line ends with one, so no line is joined twice.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import getitem

from .errors import MissingPaletteEntryError
from .grammar import Derivation, Grammar, SymbolKind, production_text
from .logic import _HEX_COLOR_RE, PartitionLogic, StateSet
from .value import Value

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


_HEX = [f"{b:02X}" for b in range(256)]
_V = _HEX[round(0.9 * 255)]
# Per hue sextant, the text around its one varying channel (the others are 0.9, 0).
_SEXTANTS = (("#" + _V, "00"), ("#", _V + "00"), ("#00" + _V, ""), ("#00", _V),
             ("#", "00" + _V), ("#" + _V + "00", ""))


def default_palette(labels: tuple[str, ...]) -> dict[str, str]:
    """Label → hex color map: the five named colors, or spaced hues beyond.

    For more than five labels the colors are evenly spaced hues
    (hue_i = i·360/N) at full saturation and value 0.9, which keeps every
    entry clearly distinct from the black separator; the float steps are
    those of ``colorsys.hsv_to_rgb``.
    """
    if len(labels) <= len(DEFAULT_COLORS):
        return dict(zip(labels, DEFAULT_COLORS))
    n, colors = len(labels), []
    for i in range(n):
        h6 = i / n * 6.0
        k = int(h6)
        f = h6 - k
        channel = 0.9 * (1.0 - f) if k & 1 else 0.9 * (1.0 - (1.0 - f))
        before, after = _SEXTANTS[k % 6]
        colors.append(before + _HEX[round(channel * 255)] + after)
    return dict(zip(labels, colors))


class RenderSpec(Value):
    palette: dict[str, str]  # a new empty dict by default
    separator_color: str = DEFAULT_SEPARATOR_COLOR
    false_cell_color: str = DEFAULT_FALSE_CELL_COLOR
    cell_size: int = 20
    cell_gap: int = 2
    backend: Backend = Backend.SVG_TILES

    def __init__(self, palette: dict[str, str] | None = None, *args, **kwargs):
        super().__init__({} if palette is None else palette, *args, **kwargs)

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


def _fragment_rows(derivation: Derivation, spec: RenderSpec, fragment) -> list[list[str]]:
    """Per row, each token's ``fragment(color)``, formatted once per symbol
    number; the first token without a color, in row-major order, raises."""
    symbols = derivation.symbols
    table = {}
    for number, sym in enumerate(symbols):
        if sym.kind is SymbolKind.SEPARATOR:
            table[number] = fragment(spec.separator_color)
        elif sym.kind is SymbolKind.STATE and sym.name in spec.palette:
            table[number] = fragment(spec.palette[sym.name])
    try:
        return [list(map(table.__getitem__, row)) for row in derivation.rows()]
    except KeyError as missing:
        sym = symbols[missing.args[0]]
    if sym.kind is SymbolKind.STATE:
        spec.color(sym.name)  # raises MissingPaletteEntryError
    raise ValueError(f"unrenderable token {sym.name!r} of kind {sym.kind.value}")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "".join([head, *body, "\n</svg>\n"])


def render_tiles(derivation: Derivation, spec: RenderSpec) -> str:
    """SVG document with one row of squares per derivation row."""
    if spec.backend is not Backend.SVG_TILES:
        raise ValueError("render_tiles requires the svg-tiles backend")
    size = f'" width="{spec.cell_size}" height="{spec.cell_size}" fill="'
    rows = _fragment_rows(derivation, spec, lambda color: f'{size}{color}"/>')
    step = spec.cell_size + spec.cell_gap
    cols = max(map(len, rows), default=0)
    width = cols * spec.cell_size + max(cols - 1, 0) * spec.cell_gap
    height = len(rows) * spec.cell_size + max(len(rows) - 1, 0) * spec.cell_gap
    slots = [None] * (3 * cols)
    slots[0::3] = [f'\n  <rect x="{i * step}" y="' for i in range(cols)]
    body = []
    for r, row in enumerate(rows):
        parts = slots[: 3 * len(row)]
        parts[1::3] = repeat(str(r * step), len(row))
        parts[2::3] = row
        body.append("".join(parts))
    return _svg_document(width, height, body)


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``, without loading ``html.entities``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
    labels = states.labels()
    columns = states.columns  # per atom, the value each state gives it
    # A label missing from the palette fails at its first true cell in
    # row-major order, as a lookup per cell would.
    missing = [i for i, label in enumerate(labels) if label not in spec.palette]
    for column in columns[:m]:
        for i in missing:
            if column[i] == 1:
                spec.color(labels[i])  # raises MissingPaletteEntryError
    # Each state's (false, true) fill; a missing label's true fill is never used.
    fills = [
        (f'{spec.false_cell_color}"/>', f'{spec.palette.get(label)}"/>')
        for label in labels
    ]
    slots = [None] * (3 * n)
    slots[0::3] = [f'\n  <rect x="{left + i * step}" y="' for i in range(n)]
    size = f'" width="{cell}" height="{cell}" fill="'
    body = [
        f'\n  <text x="{left + i * step + cell // 2}" y="{top - font // 2}" '
        f'text-anchor="middle" font-family="monospace" '
        f'font-size="{font}">{_escape(label)}</text>'
        for i, label in enumerate(labels)
    ]
    for j, atom in enumerate(logic.atoms):
        body.append(
            f'\n  <text x="{left - font}" y="{top + j * step + (cell + font) // 2}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="{font}">{_escape(atom)}</text>'
        )
        if n:
            slots[1::3] = repeat(f"{top + j * step}{size}", n)
            slots[2::3] = map(getitem, fills, columns[j])
            body.append("".join(slots))
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


def _ansi_glyph(value: str) -> str:
    r, g, b = bytes.fromhex(value[1:])
    return f"\x1b[38;2;{r};{g};{b}m{BLOCK}"


def _render_ansi(derivation: Derivation, spec: RenderSpec, color: bool) -> str:
    if color:
        rows = _fragment_rows(derivation, spec, _ansi_glyph)
        lines = ["".join(row) + "\x1b[0m" for row in rows]
    else:
        lines = [BLOCK * len(row) for row in derivation.rows()]
    lines.append("")  # ends the text with a newline
    return "\n".join(lines)


def _render_html(derivation: Derivation, spec: RenderSpec) -> str:
    style = (
        '    <span class="sglg-cell" style="display:inline-block;'
        f"width:{spec.cell_size}px;height:{spec.cell_size}px;background:"
    )
    lines = ['<div class="sglg-tiles">']
    for row in _fragment_rows(derivation, spec, lambda color: f'{style}{color}"></span>'):
        lines.append('  <div class="sglg-row">')
        lines.append("\n".join(row))
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


class Event(Value):
    row: int
    pos: int
    symbol: str
    kind: str


def _event_tail(symbol) -> str:
    name, kind = _json_string(symbol.name), _json_string(symbol.kind.value)
    return f',"symbol":{name},"kind":{kind}}}\n'


class EventStream(Value):
    """The events of a derivation: one per non-linebreak token, by (row, position).

    A view: ``Event`` objects are made only while iterating.
    """

    derivation: Derivation

    def to_jsonl(self) -> str:
        # The text of json.dumps(..., separators=(",", ":")) for each event,
        # the strings quoted by the function json.dumps uses for them; per
        # token the row's text, the position and the line-ending symbol tail.
        rows = self.derivation.rows()
        table = list(map(_event_tail, self.derivation.symbols))
        cols = max((len(row) for row in rows), default=0)
        slots = [None] * (3 * cols)
        slots[1::3] = map(str, range(cols))
        lines = []
        for r, row in enumerate(rows):
            parts = slots[: 3 * len(row)]
            parts[0::3] = repeat(f'{{"row":{r},"pos":', len(row))
            parts[2::3] = map(table.__getitem__, row)
            lines.append("".join(parts))
        return "".join(lines)

    def __len__(self) -> int:
        return sum(map(len, self.derivation.rows()))

    def __iter__(self) -> Iterator[Event]:
        for r, row in enumerate(self.derivation.rows()):
            for p, sym in enumerate(map(self.derivation.symbols.__getitem__, row)):
                yield Event(r, p, sym.name, sym.kind.value)


def emit_events(derivation: Derivation) -> EventStream:
    """One event per non-linebreak token, ordered by (row, position)."""
    return EventStream(derivation)
