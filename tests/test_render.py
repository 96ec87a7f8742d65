"""Rendering backends: SVG geometry/goldens, text, source export, events."""

from __future__ import annotations

import colorsys
import html
import json
import random
import re
import tracemalloc
from array import array
from functools import cache
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglg import (
    Backend,
    Derivation,
    PartitionLogic,
    RenderSpec,
    StateSet,
    ValidationError,
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
from sglg.cli import _table_chunks
from sglg.grammar import _Selected, production_chunks, production_json_chunks
from sglg.render import (
    ansi_chunks,
    event_chunks,
    html_chunks,
    logic_program_chunks,
    schema_chunks,
    tile_chunks,
)
from support import (
    chain_spec,
    compiled_inputs,
    hostile_grammars,
    listing,
    parse_production_listing,
    random_logic,
    random_separating_logic,
    resolve_fixture,
    state_matrix,
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
    states = StateSet(b"\1\0", 2)
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
    with pytest.raises(ValueError, match="palette entry 'br' is not a hex color"):
        RenderSpec(palette={"br": "#12345"})


def test_the_separator_color_is_the_palettes_br_entry():
    # The palette is the one place the separator's color lives: no field
    # repeats it, and the spec keeps the palette it is given, uncopied.
    assert RenderSpec().separator_color == BLACK
    palette = {"s1": GREEN, "br": RED}
    spec = RenderSpec(palette)
    assert spec.palette is palette and spec.separator_color == RED
    for field in ("separator_color", "false_cell_color"):
        with pytest.raises(TypeError):
            RenderSpec(palette, **{field: RED})


def test_missing_palette_entry_names_the_label():
    spec = RenderSpec(palette={"s1": GREEN})
    with pytest.raises(ValidationError, match=r"^palette has no color for state label 's2'$"):
        spec.colors(("br", "n", "s1", "s2", "s3"))


def test_colors_map_br_to_the_separator_and_n_to_none():
    # Whatever the palette holds for n; br takes its entry, black without one.
    names = ("s2", "br", "n", "s1")
    assert RenderSpec({"s1": GREEN, "s2": BLUE, "n": RED}).colors(names) == [BLUE, BLACK, None, GREEN]
    assert RenderSpec({"s1": GREEN, "s2": BLUE, "br": RED}).colors(names) == [BLUE, RED, None, GREEN]


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
    svg = render_tiles(Derivation.from_tokens(("s1", "br", "n")), RenderSpec(palette={"s1": GREEN}))
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
    non_breaks = sum(1 for name in derivation.tokens if name != "n")
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
    with pytest.raises(ValidationError, match=r"^palette has no color for state label 's1'$"):
        render_text(derivation, spec)


def test_one_state_html_fragment_has_two_colored_cells():
    spec = RenderSpec(palette={"s1": GREEN}, backend=Backend.HTML)
    out = render_text(Derivation.from_tokens(("s1", "br", "n")), spec)
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
    logic = PartitionLogic("g", ("x", "y"), ((0, 1),))
    out = emit_logic_program(compile_grammar(logic, StateSet(b"\1\0", 2)), spec)
    assert out.startswith("g --> x,y.\n\nx --> s1,br,n.\ny --> br,s1,n.\n")
    assert "s1 --> [ #008000 ]." in out


def test_logic_program_structural_layer_round_trips():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    spec = RenderSpec(
        palette=default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM
    )
    parsed = parse_production_listing(emit_logic_program(grammar, spec))
    assert parsed == listing(grammar)


def reference_logic_program(grammar, spec: RenderSpec) -> str:
    """The three layers as whole blocks joined by blank lines, from the
    listing: the rules, a binding per terminal in first use, the layout."""
    rules = [f"{head} --> {','.join(body)}." for head, body in listing(grammar)]
    structural = "\n\n".join(filter(None, (rules[0], "\n".join(rules[1:]))))
    heads = {head for head, _ in listing(grammar)}
    used = (name for _, body in listing(grammar) for name in body)
    terminals = dict.fromkeys(name for name in used if name not in {*heads, "br", "n"})
    colors = reference_colors(terminals, spec)
    repertoire = [f"{label} --> [ {colors[label]} ]." for label in terminals]
    layout = [f"br --> [ {spec.separator_color} ].", "n  --> [\\n]."]
    return "\n\n".join("\n".join(block) for block in ([structural], repertoire, layout)) + "\n"


@settings(max_examples=300, deadline=None)
@given(hostile_grammars(), st.data())
def test_logic_program_chunks_join_to_the_layered_text(grammar, data):
    # Each terminal and br may lack a color; a terminal without one raises.
    names = st.sampled_from([*grammar.terminals, "br", "n"])
    palette = data.draw(st.dictionaries(names, hex_colors))
    spec = RenderSpec(palette, backend=Backend.LOGIC_PROGRAM)
    expected = outcome(reference_logic_program, grammar, spec)
    assert chunk_outcome(logic_program_chunks, grammar, spec) == expected
    assert outcome(emit_logic_program, grammar, spec) == expected


def test_logic_program_chunks_raise_on_the_call_before_any_chunk():
    _, _, grammar, _ = l12_pipeline()
    palette = {label: GREEN for label in ("s1", "s3", "s4", "s5")}
    spec = RenderSpec(palette, backend=Backend.LOGIC_PROGRAM)
    with pytest.raises(ValidationError, match=r"^palette has no color for state label 's2'$"):
        logic_program_chunks(grammar, spec)


# ------------------------------------------------------------------ events


def event_tuples(derivation: Derivation) -> list[tuple]:
    """(row, pos, symbol, kind) per line of the derivation's events JSONL."""
    lines = emit_events(derivation).to_jsonl().splitlines()
    return [itemgetter("row", "pos", "symbol", "kind")(json.loads(line)) for line in lines]


def test_l12_emits_30_events():
    *_, derivation = l12_pipeline()
    assert len(event_tuples(derivation)) == 30  # 35 tokens minus 5 linebreaks


def test_one_state_grammar_emits_two_events():
    assert event_tuples(Derivation.from_tokens(("s1", "br", "n"))) == [
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
    hostile = 'q"\\é\u2028\n😀'
    # Rows: (s1), an empty row that is skipped, then 12 x s1, br and the
    # hostile state name.
    derivation = Derivation.from_tokens(("s1", "n", "n", *["s1"] * 12, "br", hostile))
    events = [
        (0, 0, "s1", "state"),
        *((1, p, "s1", "state") for p in range(12)),
        (1, 12, "br", "separator"),
        (1, 13, hostile, "state"),
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
    assert emit_events(Derivation.from_tokens(())).to_jsonl() == ""


def test_compiled_event_kinds_follow_the_names():
    *_, derivation = l12_pipeline()
    events = event_tuples(derivation)
    assert {(symbol == "br", kind) for _, _, symbol, kind in events} == {
        (True, "separator"),
        (False, "state"),
    }


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
# rows of names. Each backend must give the same text, or raise
# the same error, as these. A palette must color every state of the table
# rendered: the first without a color, in table order, raises.


def token_rows(tokens, boundaries) -> list[list[str]]:
    """Tokens between boundaries, boundary tokens dropped, empty rows skipped."""
    rows, start = [], 0
    for boundary in (*boundaries, len(tokens)):
        rows.append(list(tokens[start:boundary]))
        start = boundary + 1
    return [row for row in rows if row]


def reference_colors(table, spec: RenderSpec) -> dict[str, str]:
    """Each row name's color, after a walk of the table that raises at the
    first state without one."""
    colors = {"br": spec.palette.get("br", BLACK)}
    for name in table:
        if name not in ("br", "n"):
            if name not in spec.palette:
                raise ValidationError(f"palette has no color for state label {name!r}")
            colors[name] = spec.palette[name]
    return colors


def reference_tiles(rows, table, spec: RenderSpec) -> str:
    colors = reference_colors(table, spec)
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
                f'fill="{colors[sym]}"/>'
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
    colors = reference_colors(states.labels(), spec)
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
            fill = GRAY
            if values[j] == 1:
                fill = colors[label]
            body.append(
                f'  <rect x="{left + i * step}" y="{top + j * step}" '
                f'width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    return reference_document(width, height, body)


def reference_ansi(rows, table, spec: RenderSpec, color: bool) -> str:
    colors = reference_colors(table, spec) if color else {}
    lines = []
    for row in rows:
        if color:
            glyphs = []
            for sym in row:
                value = colors[sym]
                r, g, b = (int(value[k : k + 2], 16) for k in (1, 3, 5))
                glyphs.append(f"\x1b[38;2;{r};{g};{b}m█")
            lines.append("".join(glyphs) + "\x1b[0m")
        else:
            lines.append("█" * len(row))
    return "".join(line + "\n" for line in lines)


def reference_html(rows, table, spec: RenderSpec) -> str:
    colors = reference_colors(table, spec)
    cell = spec.cell_size
    lines = ['<div class="sglg-tiles">']
    for row in rows:
        lines.append('  <div class="sglg-row">')
        for sym in row:
            lines.append(
                '    <span class="sglg-cell" style="display:inline-block;'
                f"width:{cell}px;height:{cell}px;"
                f'background:{colors[sym]}"></span>'
            )
        lines.append("  </div>")
    lines.append("</div>")
    return "".join(line + "\n" for line in lines)


KINDS = {"br": "separator", "n": "linebreak"}


def reference_events(rows, table) -> str:
    """The events of ``rows``; no color is looked up in ``table``."""
    return "".join(
        json.dumps(
            {"row": r, "pos": p, "symbol": name, "kind": KINDS.get(name, "state")},
            separators=(",", ":"),
        )
        + "\n"
        for r, row in enumerate(rows)
        for p, name in enumerate(row)
    )


def outcome(render, *args):
    """The rendered text, or the error's type and message."""
    try:
        return render(*args)
    except ValueError as exc:
        return type(exc), str(exc)


LABELS = ("s1", "s2", "s3", "s4")
hex_colors = st.from_regex(r"#[0-9A-Fa-f]{6}", fullmatch=True)


@st.composite
def specs(draw) -> RenderSpec:
    """Geometry and colors; the palette may lack any of s1..s4 and may color
    ``br`` and ``n``, which stays uncolored."""
    palette = draw(st.dictionaries(st.sampled_from((*LABELS, "br", "n")), hex_colors))
    return RenderSpec(
        palette=palette,
        cell_size=draw(st.integers(1, 40)),
        cell_gap=draw(st.integers(0, 7)),
    )


# Equal names as distinct objects, a name in no palette, and the linebreak,
# which ends a row.
TOKEN_POOL = [
    *LABELS,
    "".join(("s", "1")),
    "br",
    "".join(("b", "r")),
    "n",
    "x",
    'q"\\é\u2028\n😀',
]


@st.composite
def hand_built_tokens(draw) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Any token sequence from ``TOKEN_POOL``, and the positions of its
    linebreaks: the row boundaries."""
    tokens = tuple(draw(st.lists(st.sampled_from(TOKEN_POOL), max_size=40)))
    return tokens, tuple(i for i, token in enumerate(tokens) if token == "n")


def compiled_derivation(rng: random.Random) -> Derivation:
    logic, states = random_separating_logic(rng, max_atoms=6, max_states=4)
    return derive(compile_grammar(logic, states))


def with_backend(spec: RenderSpec, backend: Backend) -> RenderSpec:
    """``spec`` with every field kept but the backend."""
    return RenderSpec(spec.palette, spec.cell_size, spec.cell_gap, backend)


def assert_backends_equal_references(derivation: Derivation, rows, spec: RenderSpec):
    """Each backend on ``derivation`` against its reference on ``rows`` and
    the derivation's table."""
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
        assert first == outcome(reference, rows, derivation.symbols, *args)
        assert outcome(render, derivation, *args) == first  # byte-deterministic


@settings(max_examples=200, deadline=None)
@given(hand_built_tokens(), specs())
def test_backends_equal_per_token_references_on_hand_built_derivations(
    drawn, spec
):
    tokens, boundaries = drawn
    derivation = Derivation.from_tokens(tokens)
    assert derivation.row_boundaries == boundaries
    # Equal names, also as distinct objects, share one table entry; the
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
    states = StateSet(state_matrix(vectors), m)
    spec = with_backend(spec, Backend.SVG_SCHEMA)
    first = outcome(render_schema, logic, states, spec)
    assert first == outcome(reference_schema, logic, states, spec)
    assert outcome(render_schema, logic, states, spec) == first


@pytest.mark.parametrize(
    "lengths", [(3, 0, 1), (0, 1, 3), (1, 3, 0)], ids=lambda t: "-".join(map(str, t))
)
def test_backends_equal_references_on_rows_of_0_1_and_3_tokens(lengths):
    # A row shorter than the longest takes a prefix of the column slots.
    pool = {0: [], 1: ["s2"], 3: ["s1", "br", "s2"]}
    tokens = [token for k in lengths for token in (*pool[k], "n")]
    derivation = Derivation.from_tokens(tokens)
    spec = RenderSpec(palette={"s1": RED, "s2": BLUE}, cell_size=5, cell_gap=1)
    rows = token_rows(tokens, derivation.row_boundaries)
    assert list(map(len, rows)) == [k for k in lengths if k]
    assert_backends_equal_references(derivation, rows, spec)


@pytest.mark.parametrize("vector", [(1, 0), (0, 1)])
def test_schema_equals_the_per_cell_reference_for_one_state(vector):
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet(state_matrix([vector]), 2)
    spec = RenderSpec(palette={"s1": RED}, backend=Backend.SVG_SCHEMA)
    assert render_schema(logic, states, spec) == reference_schema(logic, states, spec)


@pytest.mark.parametrize("width", [2, 4], ids=["narrower", "wider"])
def test_schema_rejects_states_whose_width_is_not_the_atom_count(width):
    # Three atoms; the states value two or four. Both fail on the call, before
    # any chunk and so before an output file would be opened.
    logic = PartitionLogic("logic", ("x", "y", "z"), ((0, 1, 2),))
    vectors = [tuple(int(i == k) for i in range(width)) for k in range(2)]
    states = StateSet(state_matrix(vectors), width)
    spec = RenderSpec(palette={"s1": RED, "s2": BLUE}, backend=Backend.SVG_SCHEMA)
    message = f"^state s1 has a {width}-value vector for 3 atoms$"
    with pytest.raises(ValueError, match=message):
        schema_chunks(logic, states, spec)
    with pytest.raises(ValueError, match=message):
        render_schema(logic, states, spec)


def test_schema_names_the_first_missing_label_among_true_cells():
    # In table order: s1 fails first, though atom x, the first row, is true
    # only in s2.
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet(state_matrix([(0, 1), (1, 0)]), 2)
    spec = RenderSpec(palette={}, backend=Backend.SVG_SCHEMA)
    message = r"^palette has no color for state label 's1'$"
    with pytest.raises(ValidationError, match=message):
        render_schema(logic, states, spec)
    with pytest.raises(ValidationError, match=message):
        schema_chunks(logic, states, spec)  # on the call, before any chunk


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
    except ValueError as exc:
        return type(exc), str(exc)
    return "".join(chunks)


def assert_chunks_equal_references(derivation: Derivation, rows, spec: RenderSpec):
    """Each builder on ``derivation``, and the ``str`` function that joins
    its chunks, against the per-token reference on ``rows``."""
    ansi = with_backend(spec, Backend.ANSI)
    html_spec = with_backend(spec, Backend.HTML)
    events = lambda d: emit_events(d).to_jsonl()  # noqa: E731
    cases = [  # builder, str function, reference, arguments, head and tail chunks
        (tile_chunks, render_tiles, reference_tiles, (spec,), 2),
        (ansi_chunks, render_text, reference_ansi, (ansi, True), 0),
        (ansi_chunks, render_text, reference_ansi, (ansi, False), 0),
        (html_chunks, render_text, reference_html, (html_spec,), 2),
        (event_chunks, events, reference_events, (), 0),
    ]
    for builder, render, reference, args, ends in cases:
        expected = outcome(reference, rows, derivation.symbols, *args)
        assert chunk_outcome(builder, derivation, *args) == expected
        assert outcome(render, derivation, *args) == expected
        if isinstance(expected, str):
            assert len(list(builder(derivation, *args))) == len(rows) + ends


@st.composite
def short_row_derivations(draw) -> tuple[Derivation, list[list[str]]]:
    """Rows of 1-3 tokens from ``TOKEN_POOL`` but ``n``, each ended by a linebreak."""
    pool = [token for token in TOKEN_POOL if token != "n"]
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    derivation = Derivation.from_tokens([token for row in rows for token in (*row, "n")])
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
        spec = RenderSpec(palette, spec.cell_size, spec.cell_gap)
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
    "builder, ends", [(tile_chunks, 2), (ansi_chunks, 0), (html_chunks, 2)],
    ids=["tiles", "ansi", "html"],
)
def test_writers_check_the_palette_against_the_table_alone(builder, ends):
    # On chain-16 (552 KB of tokens) a call keeps its per-symbol and per-column
    # tables and allocates below 10% of the token bytes beside them: no writer
    # joins, copies or searches the tokens before its first chunk.
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(16))))
    derivation = derive(compile_grammar(logic, states))
    spec = RenderSpec(default_palette(states.labels()))
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        chunks = builder(derivation, spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < len(derivation.indices) * 4 / 10
    assert len(list(chunks)) == len(logic.atoms) + ends


def test_event_writer_allocates_nothing_beside_its_tables():
    # On chain-16 the call keeps its per-symbol and per-column tables and
    # allocates below 1% of the token bytes beside them: the column texts are
    # zipped into the slots, where a slice assignment copies the slots it
    # replaces into a column-long list (about 70 KB here).
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(16))))
    derivation = derive(compile_grammar(logic, states))
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        chunks = event_chunks(derivation)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < len(derivation.indices) * 4 / 100
    assert len(list(chunks)) == len(logic.atoms)


@pytest.mark.parametrize(
    "builder", [tile_chunks, ansi_chunks, html_chunks], ids=["tiles", "ansi", "html"]
)
def test_chunk_builders_raise_on_the_call_at_the_first_bad_token(builder):
    # Row 0 renders; the first state without a color in table order, here the
    # order of first use, decides the error.
    spec = RenderSpec(palette={"s1": RED})
    derivation = Derivation.from_tokens(["s1", "n", "s1", "x", "s3", "n"])
    with pytest.raises(ValidationError, match=r"^palette has no color for state label 'x'$"):
        builder(derivation, spec)  # a name without a color, also one once a nonterminal
    derivation = Derivation.from_tokens(["s1", "n", "s3", "x", "n", "x"])
    with pytest.raises(ValidationError, match=r"^palette has no color for state label 's3'$"):
        builder(derivation, spec)


@cache
def chain_inputs(k: int) -> SimpleNamespace:
    """Chain-k's logic, states, grammar and default palette, built once."""
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(k))))
    grammar, palette = compile_grammar(logic, states), default_palette(states.labels())
    return SimpleNamespace(logic=logic, states=states, grammar=grammar, palette=palette)


CHUNK_BUILDERS = {
    "tiles": lambda c: tile_chunks(derive(c.grammar), RenderSpec(c.palette)),
    "schema": lambda c: schema_chunks(
        c.logic, c.states, RenderSpec(c.palette, backend=Backend.SVG_SCHEMA)),
    "ansi": lambda c: ansi_chunks(derive(c.grammar), RenderSpec(c.palette)),
    "ansi-no-color": lambda c: ansi_chunks(derive(c.grammar), RenderSpec(c.palette), False),
    "html": lambda c: html_chunks(derive(c.grammar), RenderSpec(c.palette)),
    "events": lambda c: event_chunks(derive(c.grammar)),
    "logic-program": lambda c: logic_program_chunks(
        c.grammar, RenderSpec(c.palette, backend=Backend.LOGIC_PROGRAM)),
    "listing": lambda c: production_chunks(c.grammar),
    "json-listing": lambda c: production_json_chunks(c.grammar),
    "table-i": lambda c: _table_chunks(c.logic, c.states),
}


def test_a_derivation_rebuilt_from_compiled_fields_reads_its_row_ends_off_the_shape(
    monkeypatch,
):
    # Derivation(d.symbols, d.indices) over a compiled derivation once found
    # its row ends by making every row: tile_chunks on chain-16 took 23.1 ms
    # so, against 9.0 ms on derive's. Now no token is read for them, and the
    # rebuilt derivation writes what derive's writes.
    c = chain_inputs(10)
    derivation = derive(c.grammar)
    rebuilt = Derivation(derivation.symbols, derivation.indices)
    writers = {
        "tiles": lambda d: tile_chunks(d, RenderSpec(c.palette)),
        "events": event_chunks,
        "ansi": lambda d: ansi_chunks(d, RenderSpec(c.palette)),
        "html": lambda d: html_chunks(d, RenderSpec(c.palette)),
    }
    for name, write in writers.items():
        assert "".join(write(rebuilt)) == "".join(write(derivation)), name
    ends = tuple(k for k, name in enumerate(derivation.tokens) if name == "n")

    def unread(self):
        raise AssertionError("a compiled row's tokens were read")

    monkeypatch.setattr(_Selected, "__iter__", unread)
    fresh = Derivation(derivation.symbols, derivation.indices)
    assert fresh.row_boundaries == ends
    assert fresh.row_lengths() == [len(c.states) + 1] * len(c.logic.atoms)


@pytest.mark.parametrize("build", CHUNK_BUILDERS.values(), ids=CHUNK_BUILDERS)
def test_chunks_held_before_joining_give_the_same_text(build):
    # A writer may fill one row's slots in place, so each chunk must be its
    # own finished str: writing the chunks as they come, as a document is
    # written, would not show a chunk refilled for the next row. Chain-14 has
    # full rows of 1,598 tokens and 1,597 states, two blocks of Table I.
    held = list(build(chain_inputs(14)))
    assert all(type(chunk) is str for chunk in held)
    fresh = list(build(chain_inputs(14)))
    assert held == fresh  # a list: a diff of the one text takes minutes


@st.composite
def compiled_or_hand_built(draw) -> tuple:
    """A compiled grammar of ``compiled_inputs`` and its derivation; then the
    same rows hand-built, as a derivation from their tokens."""
    logic, states = draw(compiled_inputs())
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    # The rows as the definition writes them, from the states alone.
    labels, m = states.labels(), len(logic.atoms)
    columns = [states.matrix[j::m] for j in range(m)]
    tokens = [name for column in columns for name in (
        *(s for s, v in zip(labels, column) if v), "br", *(s for s, v in zip(labels, column) if not v),
        "n")]
    assert list(derivation.tokens) == tokens
    return grammar, derivation, Derivation.from_tokens(tokens)


# Each writer of a derivation, given it and the spec.
ROW_WRITERS = {
    "tiles": lambda d, spec: tile_chunks(d, spec),
    "ansi": lambda d, spec: ansi_chunks(d, spec),
    "ansi-no-color": lambda d, spec: ansi_chunks(d, spec, color=False),
    "html": lambda d, spec: html_chunks(d, spec),
    "events": lambda d, spec: event_chunks(d),
}


def reference_listings(logic: PartitionLogic, derivation: Derivation) -> tuple[str, str]:
    """The text and JSON listings of the rows of ``derivation.tokens``, each
    ended by its n, under the logic's start rule."""
    rows, row = [], []
    for name in derivation.tokens:
        row.append(name)
        if name == "n":
            rows.append(row)
            row = []
    rules = [(logic.name, list(logic.atoms)), *zip(logic.atoms, rows)]
    lines = [f"{head} --> {','.join(body)}.\n" for head, body in rules]
    text = "\n".join(("".join(lines[:1]), "".join(lines[1:])))  # a blank line after the start
    return text, json.dumps(dict(rules), indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(compiled_or_hand_built())
def test_compiled_and_hand_built_rows_write_the_same_text(inputs):
    # A compiled row is a compress of the table's layout through its state
    # column; a hand-built one a lookup per token. Every writer reads rows
    # through one reader, so both give the same bytes, and the grammar's
    # listings are those of the hand-built tokens.
    grammar, compiled, hand_built = inputs
    assert type(compiled.indices) is not array and type(hand_built.indices) is array
    spec = RenderSpec(default_palette(grammar.terminals))
    for name, write in ROW_WRITERS.items():
        assert "".join(write(compiled, spec)) == "".join(write(hand_built, spec)), name
    text, listed = reference_listings(grammar.logic, hand_built)
    assert "".join(production_chunks(grammar)) == text
    assert "".join(production_json_chunks(grammar)) == listed
    assert "".join(logic_program_chunks(grammar, spec)).startswith(text + "\n")
