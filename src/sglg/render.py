"""Rendering backends: tiles, incidence schemas, text, source, events.

Every emitter is a pure function of immutable inputs and produces
byte-identical output for identical arguments. The grammar/derivation
layer never changes here — a ``RenderSpec`` only binds symbols to colors
and geometry; its palette colors the states and, under ``br``, the separator.
The caller picks each format's writer; only ``render_text`` reads ``spec.backend``.

That binding is per symbol, not per token: each writer formats its output
fragment once per table entry and reads each row's fragments through the
derivation's row reader, ``rows(table)``, and the per-column and per-row
text (x and y coordinates, event positions) once too. The SVG and event
writers make a row one join over three slots per token, laid out for both
SVGs by ``_grid``; each SVG line starts with its newline and each event line
ends with one, so no line is joined twice.

The ``*_chunks`` functions give the text as one finished ``str`` per row,
or for the logic program per production and per state binding; each joined
twin is their ``"".join``. They raise when called and make each chunk when
it is reached, so a document is written a row at a time. A palette is
checked once per distinct color; the entries are walked only when that
fails. It must color every state in the writer's table, which
``RenderSpec.colors`` looks up when the writer is called.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import getitem

from .errors import ValidationError
from .grammar import LINEBREAK_NAME, SEPARATOR_NAME, Derivation, Grammar
from .grammar import production_chunks
from .logic import _HEX_COLOR_RE, PartitionLogic, StateSet, _atom_width
from .value import Value

DEFAULT_COLORS = ("#008000", "#0000FF", "#FF0000", "#FFA500", "#8F00FF")
DEFAULT_SEPARATOR_COLOR = "#000000"
DEFAULT_FALSE_CELL_COLOR = "#BFBFBF"

BLOCK = "█"
_HEX_TO_0 = str.maketrans("0123456789ABCDEFabcdef", "0" * 22)


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
    those of ``colorsys.hsv_to_rgb``. Neighbouring labels that get the
    same color share one string: there are at most 6·256 colors.
    """
    if len(labels) <= len(DEFAULT_COLORS):
        return dict(zip(labels, DEFAULT_COLORS))
    n, colors, made_k, made_byte = len(labels), [], None, None
    for i in range(n):
        h6 = i / n * 6.0
        k = int(h6)
        f = h6 - k
        channel = 0.9 * (1.0 - f) if k & 1 else 0.9 * (1.0 - (1.0 - f))
        byte = round(channel * 255)
        if byte != made_byte or k != made_k:
            before, after = _SEXTANTS[k % 6]
            made_k, made_byte, color = k, byte, before + _HEX[byte] + after
        colors.append(color)
    return dict(zip(labels, colors))


class RenderSpec(Value):
    palette: dict[str, str]  # a new empty dict by default; "br" colors the separator
    cell_size: int = 20
    cell_gap: int = 2
    backend: Backend = Backend.SVG_TILES

    def __init__(self, palette: dict[str, str] | None = None, *args, **kwargs):
        super().__init__({} if palette is None else palette, *args, **kwargs)

    def __post_init__(self):
        # Each distinct color checked at once, as a line with each hex digit
        # made 0; the entries are walked only on failure.
        colors = set(self.palette.values())
        if "\n".join(colors).translate(_HEX_TO_0) != ("\n#000000" * len(colors))[1:]:
            for label, value in self.palette.items():
                if not _HEX_COLOR_RE.fullmatch(value):
                    raise ValueError(f"palette entry {label!r} is not a hex color: {value!r}")
        if not isinstance(self.cell_size, int) or self.cell_size <= 0:
            raise ValueError("cell_size must be a positive integer")
        if not isinstance(self.cell_gap, int) or self.cell_gap < 0:
            raise ValueError("cell_gap must be a non-negative integer")

    @property
    def separator_color(self) -> str:
        return self.palette.get(SEPARATOR_NAME, DEFAULT_SEPARATOR_COLOR)

    def colors(self, names) -> list[str | None]:
        """Per name, its color: ``br`` the separator's, ``n`` none and a state
        its palette entry. The first state without one raises."""
        palette, separator = self.palette, self.separator_color
        try:
            return [separator if name == SEPARATOR_NAME else None if name == LINEBREAK_NAME
                    else palette[name] for name in names]
        except KeyError as exc:
            raise ValidationError(f"palette has no color for state label {exc.args[0]!r}") from None


_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{0}" height="{1}" viewBox="0 0 {0} {1}">'
)


def _grid(spec: RenderSpec, left: int, top: int, cols: int, rows: int) -> tuple[str, Callable]:
    """The SVG head line for ``rows`` × ``cols`` cells from (left, top), and
    ``rects(r, fills, n)``, grid row r's first n cells as ``<rect>`` lines in
    one string. Its slots hold per cell its column's text, zipped in once (a
    slice assignment would copy the slots it replaces into a list as long),
    the row's y and size, and its fill ``'#RRGGBB"/>'``. A full row is filled
    in place: join it.
    """
    cell, gap = spec.cell_size, spec.cell_gap
    step = cell + gap
    width, height = (o + n * cell + max(n - 1, 0) * gap for o, n in ((left, cols), (top, rows)))
    size = f'" width="{cell}" height="{cell}" fill="'
    xs = [f'\n  <rect x="{left + i * step}" y="' for i in range(cols)]
    slots = list(chain.from_iterable(zip(xs, repeat(None), repeat(None))))

    def rects(r: int, fills: Iterable[str], n: int) -> str:
        parts = slots if 3 * n == len(slots) else slots[: 3 * n]
        parts[1::3] = repeat(f"{top + r * step}{size}", n)
        parts[2::3] = fills
        return "".join(parts)

    return _SVG_HEAD.format(width, height), rects


def render_tiles(derivation: Derivation, spec: RenderSpec) -> str:
    """SVG document with one row of squares per derivation row."""
    return "".join(tile_chunks(derivation, spec))


def tile_chunks(derivation: Derivation, spec: RenderSpec) -> Iterator[str]:
    """``render_tiles`` as a head, one chunk per row and a tail."""
    table = [value and f'{value}"/>' for value in spec.colors(derivation.symbols)]
    lengths = derivation.row_lengths()
    head, rects = _grid(spec, 0, 0, max(lengths, default=0), len(lengths))
    rows = (rects(r, fills, len(fills)) for r, fills in enumerate(derivation.rows(table)))
    return chain((head,), rows, ("\n</svg>\n",))


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``, without loading ``html.entities``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_schema(logic: PartitionLogic, states: StateSet, spec: RenderSpec) -> str:
    """SVG incidence schema: atom rows × state columns, gray where false."""
    return "".join(schema_chunks(logic, states, spec))


def schema_chunks(logic: PartitionLogic, states: StateSet, spec: RenderSpec) -> Iterator[str]:
    """``render_schema`` as a head with the state labels, one chunk per atom
    and a tail."""
    cell, step = spec.cell_size, spec.cell_size + spec.cell_gap
    left, top = 2 * cell, cell
    n, m = len(states), _atom_width(logic, states)  # atom j's column: matrix[j::m]
    font = max(cell // 2, 1)
    labels = states.labels()
    # Each state's (false, true) fill.
    fills = [(f'{DEFAULT_FALSE_CELL_COLOR}"/>', f'{color}"/>') for color in spec.colors(labels)]
    line, rects = _grid(spec, left, top, n, m)
    head = "".join([line, *(
        f'\n  <text x="{left + i * step + cell // 2}" y="{top - font // 2}" '
        f'text-anchor="middle" font-family="monospace" '
        f'font-size="{font}">{_escape(label)}</text>'
        for i, label in enumerate(labels)
    )])
    rows = (
        f'\n  <text x="{left - font}" y="{top + j * step + (cell + font) // 2}" '
        f'text-anchor="end" font-family="monospace" '
        f'font-size="{font}">{_escape(atom)}</text>'
        + rects(j, map(getitem, fills, states.matrix[j::m]), n)
        for j, atom in enumerate(logic.atoms)
    )
    return chain((head,), rows, ("\n</svg>\n",))


def render_text(derivation: Derivation, spec: RenderSpec, color: bool = True) -> str:
    """Terminal (ANSI 24-bit) or HTML-fragment realization of a derivation.

    ``color=False`` drops the ANSI escape sequences (the glyphs remain);
    it has no effect on the html backend, whose colors live in markup.
    """
    if spec.backend is Backend.ANSI:
        return "".join(ansi_chunks(derivation, spec, color))
    if spec.backend is not Backend.HTML:
        raise ValueError("render_text requires the ansi or html backend")
    return "".join(html_chunks(derivation, spec))


def ansi_chunks(derivation: Derivation, spec: RenderSpec, color: bool = True) -> Iterator[str]:
    """``render_text`` on the ansi backend, one chunk per row."""
    if not color:
        return (BLOCK * length + "\n" for length in derivation.row_lengths())
    table = [value and _ansi_glyph(value) for value in spec.colors(derivation.symbols)]
    return ("".join([*glyphs, "\x1b[0m\n"]) for glyphs in derivation.rows(table))


def html_chunks(derivation: Derivation, spec: RenderSpec) -> Iterator[str]:
    """``render_text`` on the html backend, as a head, one chunk per row and a tail."""
    style = (
        '    <span class="sglg-cell" style="display:inline-block;'
        f"width:{spec.cell_size}px;height:{spec.cell_size}px;background:"
    )
    table = [value and f'{style}{value}"></span>\n' for value in spec.colors(derivation.symbols)]
    divs = ("".join(['  <div class="sglg-row">\n', *cells, "  </div>\n"])
            for cells in derivation.rows(table))
    return chain(('<div class="sglg-tiles">\n',), divs, ("</div>\n",))


def _ansi_glyph(value: str) -> str:
    r, g, b = bytes.fromhex(value[1:])
    return f"\x1b[38;2;{r};{g};{b}m{BLOCK}"


def emit_logic_program(grammar: Grammar, spec: RenderSpec) -> str:
    """Three-layer source: structural rules, repertoire bindings, layout.

    The repertoire layer binds each state symbol to its palette color and
    the layout layer binds ``br`` to the palette's ``br`` entry (black
    without one) and ``n`` to a literal newline escape. The layers are
    separated by blank lines.
    """
    return "".join(logic_program_chunks(grammar, spec))


def logic_program_chunks(grammar: Grammar, spec: RenderSpec) -> Iterator[str]:
    """``emit_logic_program`` as one chunk per production, then one per
    state binding, then the layout."""
    terminals = grammar.terminals
    repertoire = zip(terminals, repeat(" --> [ "), spec.colors(terminals), repeat(" ].\n"))
    layout = f"br --> [ {spec.separator_color} ].\nn  --> [\\n].\n"
    return chain(production_chunks(grammar), ("\n",), map("".join, repertoire), ("\n" + layout,))


_KINDS = {SEPARATOR_NAME: '"separator"', LINEBREAK_NAME: '"linebreak"'}


def _event_tail(name: str) -> str:
    kind = _KINDS.get(name, '"state"')  # no name in a derivation is a head
    return f',"symbol":{_json_string(name)},"kind":{kind}}}\n'


class EventStream(Value):
    """The events of a derivation: one per non-linebreak token, by (row, position),
    each a JSON object with its row, position, symbol name and symbol kind."""

    derivation: Derivation

    def to_jsonl(self) -> str:
        return "".join(event_chunks(self.derivation))


def event_chunks(derivation: Derivation) -> Iterator[str]:
    """``emit_events(derivation).to_jsonl()``, one chunk per row."""
    # The text of json.dumps(..., separators=(",", ":")) for each event,
    # the strings quoted by the function json.dumps uses for them; per
    # token the row's text, the position and the line-ending symbol tail.
    table = list(map(_event_tail, derivation.symbols))
    cols = max(derivation.row_lengths(), default=0)
    slots = list(chain.from_iterable(zip(repeat(None), map(str, range(cols)), repeat(None))))

    def row_chunk(r: int, tails: list[str]) -> str:
        # A full row fills the slots in place: only their join leaves here.
        parts = slots if 3 * len(tails) == len(slots) else slots[: 3 * len(tails)]
        parts[0::3] = repeat(f'{{"row":{r},"pos":', len(tails))
        parts[2::3] = tails
        return "".join(parts)

    return map(row_chunk, count(), derivation.rows(table))


def emit_events(derivation: Derivation) -> EventStream:
    """One event per non-linebreak token, ordered by (row, position)."""
    return EventStream(derivation)
