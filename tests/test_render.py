"""Rendering backends: SVG geometry/goldens, text, source export, events."""

from __future__ import annotations

import colorsys
import html
import json
import random
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglg import (
    Backend,
    Derivation,
    MissingPaletteEntryError,
    PartitionLogic,
    RenderSpec,
    StateOrder,
    StateSet,
    Symbol,
    SymbolKind,
    compile_grammar,
    default_palette,
    derive,
    emit_events,
    emit_logic_program,
    enumerate_states,
    parse_logic_file,
    production_text,
    render_schema,
    render_text,
    render_tiles,
    resolve_states,
)
from sglg.render import (
    event_chunks,
    join_chunks,
    schema_chunks,
    text_chunks,
    tile_chunks,
)
from support import (
    chain_spec,
    listing,
    one_state_grammar,
    parse_production_listing,
    random_logic,
    random_separating_logic,
    resolve_fixture,
    state_vectors,
)

GREEN, BLUE, RED, ORANGE, VIOLET = (
    "#008000",
    "#0000FF",
    "#FF0000",
    "#FFA500",
    "#8F00FF",
)
BLACK, GRAY = "#000000", "#BFBFBF"

_RECT_RE = re.compile(
    r'<rect x="(?P<x>-?\d+)" y="(?P<y>-?\d+)" width="\d+" height="\d+" '
    r'fill="(?P<fill>#[0-9A-F]{6})"/>'
)


def rects(svg: str) -> list[tuple[int, int, str]]:
    return [
        (int(m.group("x")), int(m.group("y")), m.group("fill"))
        for m in _RECT_RE.finditer(svg)
    ]


def fills_by_row(svg: str) -> dict[int, list[str]]:
    rows: dict[int, list[str]] = {}
    for x, y, fill in sorted(rects(svg)):
        rows.setdefault(y, []).append(fill)
    return {i: rows[y] for i, y in enumerate(sorted(rows))}


def l12_pipeline(spec: RenderSpec | None = None):
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    return logic, states, grammar, derive(grammar)


def two_row_derivation():
    # compiled from a two-atom logic with a single pinned state
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet.from_vectors([(1, 0)], StateOrder.PINNED)
    grammar = compile_grammar(logic, states)
    return derive(grammar)


# ---------------------------------------------------------------- palette


def test_default_palette_uses_the_five_named_colors():
    assert default_palette(("s1", "s2", "s3", "s4", "s5")) == {
        "s1": GREEN,
        "s2": BLUE,
        "s3": RED,
        "s4": ORANGE,
        "s5": VIOLET,
    }


def test_default_palette_beyond_five_spaces_hues_evenly():
    labels = tuple(f"s{i}" for i in range(1, 7))
    assert list(default_palette(labels).values()) == [
        "#E60000",
        "#E6E600",
        "#00E600",
        "#00E6E6",
        "#0000E6",
        "#E600E6",
    ]


def colorsys_colors(n: int) -> list[str]:
    """Reference: n evenly spaced hues through colorsys, one call per label."""
    rgbs = (colorsys.hsv_to_rgb(i / n, 1.0, 0.9) for i in range(n))
    return [
        "#%02X%02X%02X" % (round(r * 255), round(g * 255), round(b * 255))
        for r, g, b in rgbs
    ]


def test_default_palette_equals_colorsys_hues():
    for n in (*range(6, 2001), 4181, 28657, 121393):
        # Only the number of labels sets the colors; any n distinct keys do.
        assert list(default_palette(range(n)).values()) == colorsys_colors(n), n


def test_render_spec_validation():
    with pytest.raises(ValueError, match="hex color"):
        RenderSpec(palette={"s1": "green"})
    with pytest.raises(ValueError, match="cell_size"):
        RenderSpec(cell_size=0)
    with pytest.raises(ValueError, match="cell_gap"):
        RenderSpec(cell_gap=-1)
    with pytest.raises(ValueError, match="separator_color"):
        RenderSpec(separator_color="#12345")


def test_missing_palette_entry_names_the_label():
    spec = RenderSpec(palette={"s1": GREEN})
    with pytest.raises(MissingPaletteEntryError) as excinfo:
        spec.color("s2")
    assert excinfo.value.label == "s2"


# ------------------------------------------------------------------ tiles


def test_l12_tiles_golden_geometry_and_row_a_colors():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(palette=default_palette(("s1", "s2", "s3", "s4", "s5")))
    svg = render_tiles(derivation, spec)
    assert 'width="130" height="108"' in svg  # 6*20+5*2 by 5*20+4*2
    rows = fills_by_row(svg)
    assert len(rows) == 5
    assert all(len(fills) == 6 for fills in rows.values())
    assert rows[0] == [GREEN, BLUE, BLACK, RED, ORANGE, VIOLET]


def test_triangle_tiles_row_c_colors():
    logic, states = resolve_fixture("triangle.json")
    derivation = derive(compile_grammar(logic, states))
    spec = RenderSpec(palette=default_palette(states.labels()))
    rows = fills_by_row(render_tiles(derivation, spec))
    assert len(rows) == 6
    assert all(len(fills) == 5 for fills in rows.values())
    assert rows[2] == [ORANGE, BLACK, GREEN, BLUE, RED]


def test_one_state_grammar_renders_one_row_of_two_cells():
    svg = render_tiles(
        derive(one_state_grammar()), RenderSpec(palette={"s1": GREEN})
    )
    assert rects(svg) == [(0, 0, GREEN), (22, 0, BLACK)]


def test_two_row_tiles_document_golden():
    svg = render_tiles(
        two_row_derivation(),
        RenderSpec(palette={"s1": GREEN}, cell_size=10, cell_gap=1),
    )
    assert svg == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="21" height="21" viewBox="0 0 21 21">\n'
        '  <rect x="0" y="0" width="10" height="10" fill="#008000"/>\n'
        '  <rect x="11" y="0" width="10" height="10" fill="#000000"/>\n'
        '  <rect x="0" y="11" width="10" height="10" fill="#000000"/>\n'
        '  <rect x="11" y="11" width="10" height="10" fill="#008000"/>\n'
        "</svg>\n"
    )


def test_tiles_cell_count_matches_non_linebreak_tokens():
    logic, states = resolve_fixture("example_a.json")
    derivation = derive(compile_grammar(logic, states))
    spec = RenderSpec(palette=default_palette(states.labels()))
    non_breaks = sum(1 for sym in derivation.tokens if sym.name != "n")
    assert len(rects(render_tiles(derivation, spec))) == non_breaks


def test_tiles_are_byte_deterministic():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(palette=default_palette(("s1", "s2", "s3", "s4", "s5")))
    assert render_tiles(derivation, spec).encode() == render_tiles(
        derivation, spec
    ).encode()


def test_palette_change_touches_only_fill_attributes():
    *_, derivation = l12_pipeline()
    labels = ("s1", "s2", "s3", "s4", "s5")
    a = render_tiles(derivation, RenderSpec(palette=default_palette(labels)))
    b = render_tiles(
        derivation, RenderSpec(palette={label: "#123456" for label in labels})
    )
    assert a != b
    strip = lambda doc: re.sub(r'fill="[^"]*"', 'fill="*"', doc)
    assert strip(a) == strip(b)


def test_tiles_requires_matching_backend():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(
        palette=default_palette(("s1", "s2", "s3", "s4", "s5")),
        backend=Backend.ANSI,
    )
    with pytest.raises(ValueError, match="svg-tiles"):
        render_tiles(derivation, spec)


# ----------------------------------------------------------------- schema


def schema_spec(labels, **kwargs):
    return RenderSpec(
        palette=default_palette(labels), backend=Backend.SVG_SCHEMA, **kwargs
    )


def test_l12_schema_colored_and_gray_cell_counts():
    logic, states = resolve_fixture("l12.json")
    svg = render_schema(logic, states, schema_spec(states.labels()))
    cells = rects(svg)
    assert len(cells) == 25
    gray = [cell for cell in cells if cell[2] == GRAY]
    assert len(gray) == 16  # 25 cells minus the 9 true-valued ones


def test_l12_schema_row_c_colored_only_at_s5():
    logic, states = resolve_fixture("l12.json")
    svg = render_schema(logic, states, schema_spec(states.labels()))
    # row c is the third atom row; columns start at x = 2*cell_size
    row_c = sorted(cell for cell in rects(svg) if cell[1] == 20 + 2 * 22)
    fills = [fill for _, _, fill in row_c]
    assert fills == [GRAY, GRAY, GRAY, GRAY, VIOLET]


def test_triangle_schema_row_f():
    logic, states = resolve_fixture("triangle.json")
    svg = render_schema(logic, states, schema_spec(states.labels()))
    cells = rects(svg)
    assert len(cells) == 24  # 6 atoms x 4 states
    row_f = sorted(cell for cell in cells if cell[1] == 20 + 5 * 22)
    assert [fill for _, _, fill in row_f] == [GRAY, BLUE, GRAY, ORANGE]


def test_single_context_schema_is_a_colored_diagonal():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = enumerate_states(logic)
    svg = render_schema(logic, states, schema_spec(states.labels()))
    grid = sorted(rects(svg), key=lambda cell: (cell[1], cell[0]))
    assert [fill for _, _, fill in grid] == [GREEN, GRAY, GRAY, BLUE]


def test_schema_labels_every_atom_and_state():
    logic, states = resolve_fixture("triangle.json")
    svg = render_schema(logic, states, schema_spec(states.labels()))
    for name in (*logic.atoms, *states.labels()):
        assert f">{name}</text>" in svg


def test_schema_escapes_markup_in_atom_names():
    logic = PartitionLogic("logic", ("a<b&c>", "y"), ((0, 1),))
    states = enumerate_states(logic)
    svg = render_schema(logic, states, schema_spec(states.labels()))
    assert ">a&lt;b&amp;c&gt;</text>" in svg
    assert "a<b&c>" not in svg


def test_schema_is_byte_deterministic():
    logic, states = resolve_fixture("l12.json")
    spec = schema_spec(states.labels())
    assert render_schema(logic, states, spec) == render_schema(logic, states, spec)


# ------------------------------------------------------------------- text


def test_ansi_rendering_shape_and_escapes():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(
        palette=default_palette(("s1", "s2", "s3", "s4", "s5")),
        backend=Backend.ANSI,
    )
    out = render_text(derivation, spec)
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.count("█") == 6 for line in lines)
    assert lines[0].startswith("\x1b[38;2;0;128;0m█")  # s1 is green
    assert all(line.endswith("\x1b[0m") for line in lines)


def test_ansi_rendering_without_color_has_no_escapes():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(
        palette=default_palette(("s1", "s2", "s3", "s4", "s5")),
        backend=Backend.ANSI,
    )
    out = render_text(derivation, spec, color=False)
    assert "\x1b" not in out
    assert out.splitlines() == ["█" * 6] * 5


def test_empty_palette_fails_on_a_nonempty_derivation():
    *_, derivation = l12_pipeline()
    spec = RenderSpec(palette={}, backend=Backend.ANSI)
    with pytest.raises(MissingPaletteEntryError):
        render_text(derivation, spec)


def test_one_state_html_fragment_has_two_colored_cells():
    spec = RenderSpec(palette={"s1": GREEN}, backend=Backend.HTML)
    out = render_text(derive(one_state_grammar()), spec)
    assert out.count("background:") == 2
    assert f"background:{GREEN}" in out
    assert f"background:{BLACK}" in out


def test_html_rows_nest_inside_a_container():
    logic, states = resolve_fixture("triangle.json")
    derivation = derive(compile_grammar(logic, states))
    spec = RenderSpec(palette=default_palette(states.labels()), backend=Backend.HTML)
    out = render_text(derivation, spec)
    assert out.count('<div class="sglg-row">') == 6
    assert out.count("<span") == 30  # 6 rows x 5 non-break tokens


# ------------------------------------------------------------ source code


def test_logic_program_golden_for_l12():
    _, _, grammar, _ = l12_pipeline()
    spec = RenderSpec(
        palette=default_palette(("s1", "s2", "s3", "s4", "s5")),
        backend=Backend.LOGIC_PROGRAM,
    )
    assert emit_logic_program(grammar, spec) == (
        "v_logic --> a,b,c,d,e.\n"
        "\n"
        "a --> s1,s2,br,s3,s4,s5,n.\n"
        "b --> s3,s4,br,s1,s2,s5,n.\n"
        "c --> s5,br,s1,s2,s3,s4,n.\n"
        "d --> s2,s4,br,s1,s3,s5,n.\n"
        "e --> s1,s3,br,s2,s4,s5,n.\n"
        "\n"
        "s1 --> [ #008000 ].\n"
        "s2 --> [ #0000FF ].\n"
        "s3 --> [ #FF0000 ].\n"
        "s4 --> [ #FFA500 ].\n"
        "s5 --> [ #8F00FF ].\n"
        "\n"
        "br --> [ #000000 ].\n"
        "n  --> [\\n].\n"
    )


def test_logic_program_first_rule_for_the_triangle():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    spec = RenderSpec(
        palette=default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM
    )
    assert emit_logic_program(grammar, spec).startswith(
        "triangle_logic --> a,b,c,d,e,f.\n"
    )


def test_logic_program_for_a_one_state_grammar():
    spec = RenderSpec(palette={"s1": GREEN}, backend=Backend.LOGIC_PROGRAM)
    out = emit_logic_program(one_state_grammar(), spec)
    assert out.startswith("g --> x.\n\nx --> s1,br,n.\n")
    assert "s1 --> [ #008000 ]." in out


def test_logic_program_structural_layer_round_trips():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    spec = RenderSpec(
        palette=default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM
    )
    parsed = parse_production_listing(emit_logic_program(grammar, spec))
    assert parsed == listing(grammar)


# ------------------------------------------------------------------ events


def event_tuples(derivation: Derivation) -> list[tuple]:
    """(row, pos, symbol, kind) per line of the derivation's events JSONL."""
    lines = emit_events(derivation).to_jsonl().splitlines()
    return [itemgetter("row", "pos", "symbol", "kind")(json.loads(line)) for line in lines]


def test_l12_emits_30_events():
    *_, derivation = l12_pipeline()
    assert len(event_tuples(derivation)) == 30  # 35 tokens minus 5 linebreaks


def test_one_state_grammar_emits_two_events():
    assert event_tuples(derive(one_state_grammar())) == [
        (0, 0, "s1", "state"),
        (0, 1, "br", "separator"),
    ]


def test_events_are_strictly_ordered():
    logic, states = resolve_fixture("triangle.json")
    events = event_tuples(derive(compile_grammar(logic, states)))
    keys = [(row, pos) for row, pos, _, _ in events]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_events_jsonl_is_json_dumps_per_event():
    s1 = Symbol(SymbolKind.STATE, "s1")
    n = Symbol(SymbolKind.LINEBREAK, "n")
    hostile = Symbol(SymbolKind.SEPARATOR, 'q"\\é\u2028\n😀')
    # Rows: (s1), an empty row that is skipped, then 12 x s1 and the hostile br.
    derivation = Derivation.from_tokens((s1, n, n, *[s1] * 12, hostile), (1, 2))
    events = [
        (0, 0, "s1", "state"),
        *((1, p, "s1", "state") for p in range(12)),
        (1, 12, 'q"\\é\u2028\n😀', "separator"),
    ]
    expected = "".join(
        json.dumps(
            {"row": row, "pos": pos, "symbol": symbol, "kind": kind},
            separators=(",", ":"),
        )
        + "\n"
        for row, pos, symbol, kind in events
    )
    assert emit_events(derivation).to_jsonl() == expected
    assert event_tuples(derivation) == events
    assert emit_events(Derivation.from_tokens((), ())).to_jsonl() == ""


def test_events_jsonl_shape():
    *_, derivation = l12_pipeline()
    lines = emit_events(derivation).to_jsonl().splitlines()
    assert len(lines) == 30
    first = json.loads(lines[0])
    assert first == {"row": 0, "pos": 0, "symbol": "s1", "kind": "state"}
    assert lines[0] == '{"row":0,"pos":0,"symbol":"s1","kind":"state"}'


# ------------------------------------------- properties against references
#
# Per-token references: the loops the backends were first written as, over
# rows of ``Symbol`` objects. Each backend must give the same text, or raise
# the same error, as these.


def token_rows(tokens, boundaries) -> list[list[Symbol]]:
    """Tokens between boundaries, boundary tokens dropped, empty rows skipped."""
    rows, start = [], 0
    for boundary in (*boundaries, len(tokens)):
        rows.append(list(tokens[start:boundary]))
        start = boundary + 1
    return [row for row in rows if row]


def reference_color(sym, spec: RenderSpec) -> str:
    if sym.kind is SymbolKind.STATE:
        return spec.color(sym.name)
    if sym.kind is SymbolKind.SEPARATOR:
        return spec.separator_color
    raise ValueError(f"unrenderable token {sym.name!r} of kind {sym.kind.value}")


def reference_tiles(rows, spec: RenderSpec) -> str:
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
                f'fill="{reference_color(sym, spec)}"/>'
            )
    return reference_document(width, height, body)


def reference_document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "".join(line + "\n" for line in (head, *body, "</svg>"))


def reference_schema(logic, states, spec: RenderSpec) -> str:
    cell, gap = spec.cell_size, spec.cell_gap
    step = cell + gap
    left, top = 2 * cell, cell
    n, m = len(states), len(logic.atoms)
    width = left + n * cell + max(n - 1, 0) * gap
    height = top + m * cell + max(m - 1, 0) * gap
    font = max(cell // 2, 1)
    labeled = list(zip(states.labels(), state_vectors(states)))
    body = []
    for i, label in enumerate(states.labels()):
        body.append(
            f'  <text x="{left + i * step + cell // 2}" y="{top - font // 2}" '
            f'text-anchor="middle" font-family="monospace" '
            f'font-size="{font}">{html.escape(label, quote=False)}</text>'
        )
    for j, atom in enumerate(logic.atoms):
        body.append(
            f'  <text x="{left - font}" y="{top + j * step + (cell + font) // 2}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="{font}">{html.escape(atom, quote=False)}</text>'
        )
        for i, (label, values) in enumerate(labeled):
            fill = spec.false_cell_color
            if values[j] == 1:
                fill = spec.color(label)
            body.append(
                f'  <rect x="{left + i * step}" y="{top + j * step}" '
                f'width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    return reference_document(width, height, body)


def reference_ansi(rows, spec: RenderSpec, color: bool) -> str:
    lines = []
    for row in rows:
        if color:
            glyphs = []
            for sym in row:
                value = reference_color(sym, spec)
                r, g, b = (int(value[k : k + 2], 16) for k in (1, 3, 5))
                glyphs.append(f"\x1b[38;2;{r};{g};{b}m█")
            lines.append("".join(glyphs) + "\x1b[0m")
        else:
            lines.append("█" * len(row))
    return "".join(line + "\n" for line in lines)


def reference_html(rows, spec: RenderSpec) -> str:
    cell = spec.cell_size
    lines = ['<div class="sglg-tiles">']
    for row in rows:
        lines.append('  <div class="sglg-row">')
        for sym in row:
            lines.append(
                '    <span class="sglg-cell" style="display:inline-block;'
                f"width:{cell}px;height:{cell}px;"
                f'background:{reference_color(sym, spec)}"></span>'
            )
        lines.append("  </div>")
    lines.append("</div>")
    return "".join(line + "\n" for line in lines)


def reference_events(rows) -> str:
    return "".join(
        json.dumps(
            {"row": r, "pos": p, "symbol": sym.name, "kind": sym.kind.value},
            separators=(",", ":"),
        )
        + "\n"
        for r, row in enumerate(rows)
        for p, sym in enumerate(row)
    )


def outcome(render, *args):
    """The rendered text, or the error's type, message and missing label."""
    try:
        return render(*args)
    except (MissingPaletteEntryError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "label", None)


LABELS = ("s1", "s2", "s3", "s4")
hex_colors = st.from_regex(r"#[0-9A-Fa-f]{6}", fullmatch=True)


@st.composite
def specs(draw) -> RenderSpec:
    """Geometry and colors; the palette may lack any of s1..s4."""
    palette = draw(st.dictionaries(st.sampled_from(LABELS), hex_colors))
    return RenderSpec(
        palette=palette,
        separator_color=draw(hex_colors),
        false_cell_color=draw(hex_colors),
        cell_size=draw(st.integers(1, 40)),
        cell_gap=draw(st.integers(0, 7)),
    )


# Equal symbols as distinct objects, and tokens no backend can color (a
# nonterminal, a linebreak inside a row).
TOKEN_POOL = [
    *(Symbol(SymbolKind.STATE, label) for label in LABELS),
    Symbol(SymbolKind.STATE, "s1"),
    Symbol(SymbolKind.SEPARATOR, "br"),
    Symbol(SymbolKind.SEPARATOR, "br"),
    Symbol(SymbolKind.LINEBREAK, "n"),
    Symbol(SymbolKind.NONTERMINAL, "x"),
    Symbol(SymbolKind.STATE, 'q"\\é\u2028\n😀'),
]


@st.composite
def hand_built_tokens(draw) -> tuple[tuple[Symbol, ...], tuple[int, ...]]:
    """Any token sequence from ``TOKEN_POOL``, with row boundaries anywhere."""
    tokens = tuple(draw(st.lists(st.sampled_from(TOKEN_POOL), max_size=40)))
    boundaries = sorted(draw(st.sets(st.integers(0, max(len(tokens) - 1, 0)))))
    boundaries = tuple(b for b in boundaries if b < len(tokens))
    return tokens, boundaries


def compiled_derivation(rng: random.Random) -> Derivation:
    logic, states = random_separating_logic(rng, max_atoms=6, max_states=4)
    return derive(compile_grammar(logic, states))


def with_backend(spec: RenderSpec, backend: Backend) -> RenderSpec:
    """``spec`` with every field kept but the backend."""
    return RenderSpec(
        spec.palette,
        spec.separator_color,
        spec.false_cell_color,
        spec.cell_size,
        spec.cell_gap,
        backend,
    )


def assert_backends_equal_references(derivation: Derivation, rows, spec: RenderSpec):
    """Each backend on ``derivation`` against its reference on ``rows``."""
    ansi = with_backend(spec, Backend.ANSI)
    html_spec = with_backend(spec, Backend.HTML)
    cases = [
        (render_tiles, reference_tiles, (spec,)),
        (render_text, reference_ansi, (ansi, True)),
        (render_text, reference_ansi, (ansi, False)),
        (render_text, reference_html, (html_spec,)),
        (lambda d: emit_events(d).to_jsonl(), reference_events, ()),
    ]
    for render, reference, args in cases:
        first = outcome(render, derivation, *args)
        assert first == outcome(reference, rows, *args)
        assert outcome(render, derivation, *args) == first  # byte-deterministic


@settings(max_examples=200, deadline=None)
@given(hand_built_tokens(), specs())
def test_backends_equal_per_token_references_on_hand_built_derivations(
    drawn, spec
):
    tokens, boundaries = drawn
    derivation = Derivation.from_tokens(tokens, boundaries)
    # Equal symbols, also as distinct objects, share one table entry; the
    # references run over the original objects.
    assert len(derivation.symbols) == len(set(tokens))
    assert derivation.tokens == tokens
    assert_backends_equal_references(derivation, token_rows(tokens, boundaries), spec)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), specs())
def test_backends_equal_per_token_references_on_compiled_derivations(rng, spec):
    derivation = compiled_derivation(rng)
    rows = token_rows(derivation.tokens, derivation.row_boundaries)
    assert_backends_equal_references(derivation, rows, spec)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), specs(), st.data())
def test_schema_equals_the_per_cell_reference(rng, spec, data):
    logic = random_logic(rng, max_atoms=6)
    m = len(logic.atoms)
    vectors = data.draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * m), unique=True, max_size=4)
    )
    states = StateSet.from_vectors(vectors, StateOrder.PINNED)
    spec = with_backend(spec, Backend.SVG_SCHEMA)
    first = outcome(render_schema, logic, states, spec)
    assert first == outcome(reference_schema, logic, states, spec)
    assert outcome(render_schema, logic, states, spec) == first


@pytest.mark.parametrize(
    "lengths", [(3, 0, 1), (0, 1, 3), (1, 3, 0)], ids=lambda t: "-".join(map(str, t))
)
def test_backends_equal_references_on_rows_of_0_1_and_3_tokens(lengths):
    # A row shorter than the longest takes a prefix of the column slots.
    s1, s2 = Symbol(SymbolKind.STATE, "s1"), Symbol(SymbolKind.STATE, "s2")
    br, n = Symbol(SymbolKind.SEPARATOR, "br"), Symbol(SymbolKind.LINEBREAK, "n")
    pool = {0: [], 1: [s2], 3: [s1, br, s2]}
    tokens = [token for k in lengths for token in (*pool[k], n)]
    boundaries = [i for i, token in enumerate(tokens) if token is n]
    derivation = Derivation.from_tokens(tokens, boundaries)
    spec = RenderSpec(palette={"s1": RED, "s2": BLUE}, cell_size=5, cell_gap=1)
    rows = token_rows(tokens, boundaries)
    assert list(map(len, rows)) == [k for k in lengths if k]
    assert_backends_equal_references(derivation, rows, spec)


@pytest.mark.parametrize("vector", [(1, 0), (0, 1)])
def test_schema_equals_the_per_cell_reference_for_one_state(vector):
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet.from_vectors([vector], StateOrder.PINNED)
    spec = RenderSpec(palette={"s1": RED}, backend=Backend.SVG_SCHEMA)
    assert render_schema(logic, states, spec) == reference_schema(logic, states, spec)


def test_schema_names_the_first_missing_label_among_true_cells():
    # Row-major: atom x is true only in s2, so s2 fails before s1 (true at y).
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet.from_vectors([(0, 1), (1, 0)], StateOrder.PINNED)
    spec = RenderSpec(palette={}, backend=Backend.SVG_SCHEMA)
    with pytest.raises(MissingPaletteEntryError) as excinfo:
        render_schema(logic, states, spec)
    assert excinfo.value.label == "s2"
    with pytest.raises(MissingPaletteEntryError) as excinfo:
        schema_chunks(logic, states, spec)  # on the call, before any chunk
    assert excinfo.value.label == "s2"


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_production_listings_round_trip(rng):
    logic, states = random_separating_logic(rng)
    grammar = compile_grammar(logic, states)
    spec = RenderSpec(
        palette=default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM
    )
    expected = listing(grammar)
    assert parse_production_listing(production_text(grammar)) == expected
    assert parse_production_listing(emit_logic_program(grammar, spec)) == expected


# ------------------------------------------------------------------ chunks
# Each backend's chunk builder checks everything when it is called and
# makes its rows only as they are iterated, one chunk per row.


def chunk_outcome(builder, *args):
    """The builder's chunks joined, or the type, message and missing label of
    the error that calling it raised; iterating raises nothing."""
    try:
        chunks = builder(*args)
    except (MissingPaletteEntryError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "label", None)
    return join_chunks(chunks)


def assert_chunks_equal_references(derivation: Derivation, rows, spec: RenderSpec):
    """Each builder on ``derivation``, and the ``str`` function that joins
    its chunks, against the per-token reference on ``rows``."""
    ansi = with_backend(spec, Backend.ANSI)
    html_spec = with_backend(spec, Backend.HTML)
    events = lambda d: emit_events(d).to_jsonl()  # noqa: E731
    cases = [  # builder, str function, reference, arguments, head and tail chunks
        (tile_chunks, render_tiles, reference_tiles, (spec,), 2),
        (text_chunks, render_text, reference_ansi, (ansi, True), 0),
        (text_chunks, render_text, reference_ansi, (ansi, False), 0),
        (text_chunks, render_text, reference_html, (html_spec,), 2),
        (event_chunks, events, reference_events, (), 0),
    ]
    for builder, render, reference, args, ends in cases:
        expected = outcome(reference, rows, *args)
        assert chunk_outcome(builder, derivation, *args) == expected
        assert outcome(render, derivation, *args) == expected
        if isinstance(expected, str):
            assert len(list(builder(derivation, *args))) == len(rows) + ends


@st.composite
def short_row_derivations(draw) -> tuple[Derivation, list[list[Symbol]]]:
    """Rows of 1-3 tokens from ``TOKEN_POOL``, each ended by a linebreak."""
    rows = draw(st.lists(st.lists(st.sampled_from(TOKEN_POOL), min_size=1, max_size=3)))
    tokens, boundaries = [], []
    for row in rows:
        tokens += row
        boundaries.append(len(tokens))
        tokens.append(Symbol(SymbolKind.LINEBREAK, "n"))
    derivation = Derivation.from_tokens(tokens, boundaries)
    return derivation, rows


@settings(max_examples=200, deadline=None)
@given(short_row_derivations(), specs())
def test_chunks_equal_per_token_references_on_short_rows(drawn, spec):
    derivation, rows = drawn
    assert token_rows(derivation.tokens, derivation.row_boundaries) == rows
    assert_chunks_equal_references(derivation, rows, spec)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), specs(), st.booleans())
def test_chunks_equal_per_token_references_on_chains(k, spec, full_palette):
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(k))))
    if full_palette:  # else the palette has colors for at most s1..s4
        palette = {**default_palette(states.labels()), **spec.palette}
        spec = RenderSpec(palette, spec.separator_color, spec.false_cell_color,
                          spec.cell_size, spec.cell_gap)
    derivation = derive(compile_grammar(logic, states))
    rows = token_rows(derivation.tokens, derivation.row_boundaries)
    assert_chunks_equal_references(derivation, rows, spec)
    spec = with_backend(spec, Backend.SVG_SCHEMA)
    expected = outcome(reference_schema, logic, states, spec)
    assert chunk_outcome(schema_chunks, logic, states, spec) == expected
    assert outcome(render_schema, logic, states, spec) == expected
    if isinstance(expected, str):  # a head, one chunk per atom, a tail
        assert len(list(schema_chunks(logic, states, spec))) == len(logic.atoms) + 2


@pytest.mark.parametrize(
    "builder, backend",
    [(tile_chunks, Backend.SVG_TILES), (text_chunks, Backend.ANSI),
     (text_chunks, Backend.HTML)],
    ids=["tiles", "ansi", "html"],
)
def test_chunk_builders_raise_on_the_call_at_the_first_bad_token(builder, backend):
    # Row 0 renders; the first bad token in row-major order decides the error.
    s1, s3 = Symbol(SymbolKind.STATE, "s1"), Symbol(SymbolKind.STATE, "s3")
    x, n = Symbol(SymbolKind.NONTERMINAL, "x"), Symbol(SymbolKind.LINEBREAK, "n")
    spec = RenderSpec(palette={"s1": RED}, backend=backend)
    derivation = Derivation.from_tokens([s1, n, s1, x, s3, n], [1, 5])
    with pytest.raises(ValueError, match="^unrenderable token 'x' of kind nonterminal$"):
        builder(derivation, spec)
    derivation = Derivation.from_tokens([s1, n, s3, x, n, x], [1, 4])
    with pytest.raises(MissingPaletteEntryError) as excinfo:
        builder(derivation, spec)
    assert excinfo.value.label == "s3"
