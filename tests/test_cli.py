"""End-to-end command-line behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglg import (
    Backend,
    Derivation,
    RenderSpec,
    compile_grammar,
    default_palette,
    derive,
    parse_logic_file,
    production_text,
    resolve_states,
)
from sglg.cli import _emit, format_state_table, main
from sglg.grammar import production_chunks, production_json_chunks
from sglg.render import ansi_chunks, event_chunks, html_chunks, logic_program_chunks, tile_chunks
from support import (
    FIXTURES,
    ROOT,
    chain_spec,
    hostile_logic_files,
    hostile_vector_files,
    random_base_set_spec,
    traced_peak,
)

L12 = str(FIXTURES / "l12.json")
TRIANGLE = str(FIXTURES / "triangle.json")
EXAMPLE_A = str(FIXTURES / "example_a.json")
L12_VECTORS = str(FIXTURES / "l12_vectors.json")

L12_TABLE_TEXT = (
    "    a  b  c  d  e\n"
    "s1  1  0  0  0  1\n"
    "s2  1  0  0  1  0\n"
    "s3  0  1  0  0  1\n"
    "s4  0  1  0  1  0\n"
    "s5  0  0  1  0  0\n"
)


def write_spec(tmp_path, payload) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_states_prints_table_i(capsys):
    assert main(["states", L12]) == 0
    assert capsys.readouterr().out == L12_TABLE_TEXT


def test_grammar_text_output(capsys):
    assert main(["grammar", TRIANGLE]) == 0
    out = capsys.readouterr().out
    assert out.startswith("triangle_logic --> a,b,c,d,e,f.\n")
    assert "f --> s2,s4,br,s1,s3,n.\n" in out


def test_grammar_json_output(capsys):
    assert main(["grammar", L12, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["v_logic"] == ["a", "b", "c", "d", "e"]
    assert payload["d"] == ["s2", "s4", "br", "s1", "s3", "s5", "n"]


def test_render_svg_tiles_writes_the_triangle_grid(tmp_path):
    out = tmp_path / "triangle.svg"
    assert main(["render", TRIANGLE, "--format", "svg-tiles", "-o", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count("<rect") == 30  # 6 rows x 5 cells
    assert 'width="108" height="130"' in svg


def test_render_svg_tiles_requires_an_output_file(capsys):
    assert main(["render", L12, "--format", "svg-tiles"]) == 2
    assert "-o FILE is required" in capsys.readouterr().err


def test_schema_requires_an_output_file(capsys):
    assert main(["schema", L12]) == 2
    assert "-o FILE is required" in capsys.readouterr().err


def test_render_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (first, second):
        assert main(["render", L12, "--format", "svg-tiles", "-o", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_render_ansi_honors_no_color(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert main(["render", L12, "--format", "ansi"]) == 0
    colored = capsys.readouterr().out
    assert "\x1b[38;2;" in colored

    monkeypatch.setenv("NO_COLOR", "1")
    assert main(["render", L12, "--format", "ansi"]) == 0
    plain = capsys.readouterr().out
    assert "\x1b" not in plain
    assert plain.splitlines() == ["█" * 6] * 5

    monkeypatch.setenv("NO_COLOR", "")  # an empty NO_COLOR keeps the colors
    assert main(["render", L12, "--format", "ansi"]) == 0
    assert capsys.readouterr().out == colored


def test_render_html_fragment(capsys):
    assert main(["render", EXAMPLE_A, "--format", "html"]) == 0
    out = capsys.readouterr().out
    assert out.count("<span") == 24  # 6 rows x (3 states + br)
    assert "background:#008000" in out


def test_render_logic_program(capsys):
    assert main(["render", L12, "--format", "logic-program"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("v_logic --> a,b,c,d,e.\n")
    assert "s5 --> [ #8F00FF ].\n" in out
    assert out.endswith("br --> [ #000000 ].\nn  --> [\\n].\n")


def test_render_events_jsonl(capsys):
    assert main(["render", TRIANGLE, "--format", "events"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 30  # 36 tokens minus 6 linebreaks
    assert json.loads(lines[0]) == {
        "row": 0,
        "pos": 0,
        "symbol": "s1",
        "kind": "state",
    }


def test_palette_override_changes_fills(tmp_path):
    plain, tinted = tmp_path / "plain.svg", tmp_path / "tinted.svg"
    assert main(["render", L12, "--format", "svg-tiles", "-o", str(plain)]) == 0
    assert (
        main(
            [
                "render",
                L12,
                "--format",
                "svg-tiles",
                "-o",
                str(tinted),
                "--palette",
                "s1=#123456",
            ]
        )
        == 0
    )
    assert 'fill="#123456"' in tinted.read_text()
    assert 'fill="#123456"' not in plain.read_text()


def test_malformed_palette_flag_is_a_usage_error(capsys):
    assert main(["render", L12, "--format", "ansi", "--palette", "s1=red"]) == 2
    assert "LABEL=#RRGGBB" in capsys.readouterr().err


def test_palette_from_the_spec_file_is_used(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "atoms": ["x", "y"],
            "contexts": [["x", "y"]],
            "palette": {"s1": "#111111", "s2": "#222222"},
        },
    )
    assert main(["render", spec, "--format", "html"]) == 0
    out = capsys.readouterr().out
    assert "background:#111111" in out and "background:#222222" in out


# sha256 of each l12 output without a palette flag, recorded before a palette's
# "br" entry colored the separator; and per format, how the black separator
# is written in it.
L12_SEPARATOR_FORMS = {
    "svg-tiles": ("5ddd9fb4ff681438bc16f407dedba6d3d1f4057e9557034378364943051b5193",
                  'fill="#{}"/>'),
    "ansi": ("019d4a3f27df9c077618d314c8335b029282224d2376140c23fff3eb8bf10987",
             "\x1b[38;2;{}m"),
    "html": ("232f60f013fe2cd411c71da5708cecf1bd6ba878445086c5a322b10a193a60bc",
             "background:#{}"),
    "logic-program": ("a65459eea7f84a6ee54a50c1e498521c4eb8f04d69c459927bb80f6420bce5c9",
                      "br --> [ #{} ]."),
}


@pytest.mark.parametrize("fmt", sorted(L12_SEPARATOR_FORMS))
def test_palette_br_colors_every_separator(fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    digest, form = L12_SEPARATOR_FORMS[fmt]
    black, red = (form.format(c) for c in (("0;0;0", "255;0;0") if fmt == "ansi"
                                            else ("000000", "FF0000")))
    plain, tinted = tmp_path / "plain", tmp_path / "tinted"
    argv = ["render", L12, "--format", fmt, "-o"]
    assert main([*argv, str(plain)]) == 0
    assert main([*argv, str(tinted), "--palette", "br=#FF0000"]) == 0
    plain, tinted = plain.read_text(encoding="utf-8"), tinted.read_text(encoding="utf-8")
    assert hashlib.sha256(plain.encode()).hexdigest() == digest
    assert plain.count(black) == (1 if fmt == "logic-program" else 5)  # a br per row
    assert tinted == plain.replace(black, red)


def test_a_file_palette_colors_br_and_leaves_n_uncolored(tmp_path, capsys):
    atoms = {"atoms": ["x", "y"], "contexts": [["x", "y"]]}
    assert main(["render", write_spec(tmp_path, atoms), "--format", "html"]) == 0
    plain = capsys.readouterr().out
    palette = {"br": "#00FF00", "n": "#0000FF"}
    spec = write_spec(tmp_path, {**atoms, "palette": palette})
    assert main(["render", spec, "--format", "html"]) == 0
    assert capsys.readouterr().out == plain.replace("#000000", "#00FF00")
    assert main(["render", spec, "--format", "logic-program"]) == 0
    assert capsys.readouterr().out.endswith("br --> [ #00FF00 ].\nn  --> [\\n].\n")


def test_a_palette_flag_for_no_state_is_a_usage_error(capsys):
    args = ["render", L12, "--format", "html", "--palette", "zz=#FF0000"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sglg: error: --palette: no state is labeled 'zz'\n"


def test_a_file_palette_key_for_no_state_is_a_parse_error(tmp_path, capsys):
    l12 = json.loads(Path(L12).read_text(encoding="utf-8"))
    spec = write_spec(tmp_path, {**l12, "palette": {"s9": "#112233"}})
    out = tmp_path / "schema.svg"
    for args in (["render", spec, "--format", "html"], ["schema", spec, "-o", str(out)]):
        assert main(args) == 2
        assert capsys.readouterr().err == "sglg: error: palette: no state is labeled 's9'\n"
    assert not out.exists()


def test_cell_geometry_flags(tmp_path):
    out = tmp_path / "big.svg"
    args = ["render", L12, "--format", "svg-tiles", "-o", str(out)]
    assert main([*args, "--cell-size", "10", "--cell-gap", "0"]) == 0
    assert 'width="60" height="50"' in out.read_text()
    assert main([*args, "--cell-size", "0"]) == 2


def test_schema_writes_the_incidence_grid(tmp_path):
    out = tmp_path / "schema.svg"
    assert main(["schema", L12, "-o", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count("<rect") == 25
    assert svg.count("#BFBFBF") == 16


def test_check_passes_on_all_fixtures(capsys):
    for fixture in (L12, TRIANGLE, EXAMPLE_A):
        assert main(["check", fixture]) == 0
        out = capsys.readouterr().out
        assert "separating: yes" in out
        assert "incidence: ok" in out


CHECK_REPORTS = {
    "l12.json": (
        "states: 5 admissible (pinned-by-spec order)\n"
        "separating: yes\n"
        "partition representation: ok (2 contexts)\n"
        "grammar: 6 productions, 35 derivation tokens\n"
        "incidence: ok\n"
    ),
    "triangle.json": (
        "states: 4 admissible (pinned-by-spec order)\n"
        "separating: yes\n"
        "partition representation: ok (3 contexts)\n"
        "grammar: 7 productions, 36 derivation tokens\n"
        "incidence: ok\n"
    ),
    "example_a.json": (
        "states: 3 admissible (point-induced order)\n"
        "separating: yes\n"
        "partition representation: ok (3 contexts)\n"
        "grammar: 7 productions, 30 derivation tokens\n"
        "incidence: ok\n"
    ),
}


def test_check_names_the_canonical_order_of_an_unpinned_file(tmp_path, capsys):
    spec = write_spec(tmp_path, {"atoms": ["a", "b", "c", "d", "e"],
                                 "contexts": [["a", "b", "c"], ["c", "d", "e"]]})
    assert main(["check", spec]) == 0
    assert capsys.readouterr().out.startswith("states: 5 admissible (canonical order)\n")


@pytest.mark.parametrize("fixture", sorted(CHECK_REPORTS))
def test_check_report_is_pinned_byte_for_byte(fixture, capsys):
    assert main(["check", str(FIXTURES / fixture)]) == 0
    captured = capsys.readouterr()
    assert captured.out == CHECK_REPORTS[fixture]
    assert captured.err == ""


def test_check_names_each_misplaced_row_by_its_atom(monkeypatch, capsys):
    from sglg import cli

    def swapped(grammar):  # rows b and c of l12 traded; all rows are equally long
        derivation = derive(grammar)
        tokens, ends = derivation.tokens, derivation.row_boundaries
        rows = [tokens[start:end] for start, end in zip((0, *(k + 1 for k in ends)), ends)]
        rows[1], rows[2] = rows[2], rows[1]
        return Derivation.from_tokens([t for row in rows for t in (*row, "n")])

    monkeypatch.setattr(cli, "derive", swapped)
    assert main(["check", L12]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "sglg: error: row 1 (b) misplaces s3, s4, s5\n"
        "sglg: error: row 2 (c) misplaces s3, s4, s5\n"
    )


def test_check_rejects_pinned_states_omitting_s5(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "name": "v_logic",
            "atoms": ["a", "b", "c", "d", "e"],
            "contexts": [["a", "b", "c"], ["c", "d", "e"]],
            "states": [
                [1, 0, 0, 0, 1],
                [1, 0, 0, 1, 0],
                [0, 1, 0, 0, 1],
                [0, 1, 0, 1, 0],
            ],
        },
    )
    assert main(["check", spec]) == 1
    err = capsys.readouterr().err
    assert "do not match the full enumeration" in err


def test_check_reports_non_separating_logics(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"atoms": ["x", "y", "z"], "contexts": [["x", "y"], ["x", "z"]]},
    )
    assert main(["check", spec]) == 1
    err = capsys.readouterr().err
    assert "not separating" in err
    assert "'y'" in err and "'z'" in err


def test_check_rejects_logics_without_states(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"atoms": ["x", "y", "z"], "contexts": [["x", "y"], ["y", "z"], ["z", "x"]]},
    )
    assert main(["check", spec]) == 1
    assert "no two-valued states" in capsys.readouterr().err


# The one stderr line of an sglg error that names where it is: a key path
# into the input file, or a flag.
LOCATED_ERROR = re.compile(r"sglg: error: (?P<location>--[a-z]+|[a-z_]+(?:\[\d+\])*): \S.*")
L12_DOC = json.loads(Path(L12).read_text(encoding="utf-8"))
L12_ROWS = L12_DOC["states"]

# Each exit-1 failure the CLI reaches: the spec (a document to write, or a
# fixture's path), the command, and the location and message of its error.
EXIT_1_ERRORS = {
    "inadmissible-row": (
        {**L12_DOC, "states": [*L12_ROWS[:2], [1, 1, 0, 0, 1], *L12_ROWS[3:]]}, ["check"],
        "states[2]", "not admissible (some context does not have exactly one true atom)",
    ),
    "repeated-row": (
        {**L12_DOC, "states": [*L12_ROWS[:3], L12_ROWS[1], *L12_ROWS[4:]]}, ["states"],
        "states[3]", "repeats the valuation of states[1]",
    ),
    "missing-row": (
        {**L12_DOC, "states": L12_ROWS[:4]}, ["grammar"],
        "states", "do not match the full enumeration (1 of 5 valuations missing)",
    ),
    "no-states": (
        {"name": "odd", "atoms": [*"xyz"], "contexts": [["x", "y"], ["y", "z"], ["z", "x"]]},
        ["check"], "contexts", "logic 'odd' admits no two-valued states",
    ),
    "not-separating": (
        {"atoms": [*"abc"], "contexts": [["a", "b"], ["a", "c"]]}, ["render", "--format", "html"],
        "atoms[2]", "not separating: atoms 'b' and 'c' have identical supports",
    ),
    "name-collision": (
        {"name": "s1", "atoms": ["x", "y"], "contexts": [["x", "y"]]}, ["check"],
        "name", "'s1' collides with another grammar symbol",
    ),
    "default-name-collision": (  # the file gives no name, so the logic is named 'logic'
        {"atoms": ["logic", "y"], "contexts": [["logic", "y"]]}, ["check"],
        "atoms[0]", "'logic' collides with the logic's name",
    ),
    "atom-collision": (
        {"atoms": ["x", "br"], "contexts": [["x", "br"]]}, ["grammar", "--format", "json"],
        "atoms[1]", "'br' collides with a state label or layout symbol",
    ),
    "block-collision": (  # the fourth distinct block, the fifth block written
        {"base_set": [1, 2, 3], "partitions": [[[1], [2, 3]], [[1], [2], [3]]],
         "block_names": [["a", "b"], ["a", "c", "s2"]]}, ["check"],
        "atoms[3]", "'s2' collides with a state label or layout symbol",
    ),
    "theta-range": (
        L12, ["verify-orthorep", "--theta", "0"],
        "--theta", "must lie strictly between 0 and pi/2, got 0.0",
    ),
    "theta-shape": (
        TRIANGLE, ["verify-orthorep", "--theta", "0.5"],
        "--theta", "needs two three-atom contexts that share one atom",
    ),
    "missing-vector": (
        TRIANGLE, ["verify-orthorep", "--vectors", L12_VECTORS],
        "vectors", "no vector for atom 'f'",
    ),
}


@pytest.mark.parametrize("case", EXIT_1_ERRORS)
def test_each_exit_1_error_is_one_line_naming_its_location(case, tmp_path, capsys):
    spec, command, location, message = EXIT_1_ERRORS[case]
    if not isinstance(spec, str):
        spec = write_spec(tmp_path, spec)
    assert main([command[0], spec, *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"sglg: error: {location}: {message}\n")
    assert LOCATED_ERROR.fullmatch(err[:-1])["location"] == location
    if location.startswith("atoms["):  # column i of Table I, in either input mode
        assert main(["states", spec]) == 0
        head = capsys.readouterr().out.splitlines()[0].split()
        assert head[int(location[6:-1])] == re.findall(r"'(.*?)'", message)[-1]


def pair_chain_spec(n: int, rng: random.Random | None = None) -> dict:
    """Contexts {a_i, a_(i+1)} for i < n; shuffled in order and inside if rng."""
    atoms = [f"a{i}" for i in range(n + 1)]
    contexts = [[atoms[i], atoms[i + 1]] for i in range(n)]
    if rng is not None:
        rng.shuffle(contexts)
        for ctx in contexts:
            rng.shuffle(ctx)
    return {"atoms": atoms, "contexts": contexts}


@pytest.mark.parametrize("shuffle_seed", [None, 11])
def test_states_of_a_deep_pair_chain(tmp_path, capsys, shuffle_seed):
    n = 1500
    assert n > sys.getrecursionlimit()
    rng = None if shuffle_seed is None else random.Random(shuffle_seed)
    spec = write_spec(tmp_path, pair_chain_spec(n, rng))
    assert main(["states", spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [f"a{i}" for i in range(n + 1)]
    assert [line.split() for line in lines[1:]] == [
        ["s1", *("10"[i % 2] for i in range(n + 1))],
        ["s2", *("01"[i % 2] for i in range(n + 1))],
    ]


def test_odd_parity_logic_has_an_empty_table_and_fails_check(tmp_path, capsys):
    # Five contexts of four atoms, each atom in two contexts: a state would
    # make 5 = 2 * (its number of true atoms), so there is none.
    edges = list(combinations(range(5), 2))  # K5: each vertex has degree 4
    atoms = [f"e{a}" for a in range(len(edges))]
    contexts = [[atoms[a] for a, edge in enumerate(edges) if c in edge] for c in range(5)]
    payload = {"name": "parity5", "atoms": atoms, "contexts": contexts}
    spec = write_spec(tmp_path, payload)
    assert main(["states", spec]) == 0
    assert capsys.readouterr().out == "".join(f"  {a}" for a in atoms) + "\n"
    assert main(["check", spec]) == 1
    assert capsys.readouterr().err == (
        "sglg: error: contexts: logic 'parity5' admits no two-valued states\n"
    )


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"atoms": ' + "[" * 10**5 + "]" * 10**5 + "}", encoding="utf-8")
    for argv in (["states", str(deep)], ["verify-orthorep", L12, "--vectors", str(deep)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith("JSON: nested too deeply\n")


def test_missing_input_file_is_an_io_error(capsys):
    assert main(["states", "/nonexistent/logic.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["states", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_verify_orthorep_with_vector_file(capsys):
    assert main(["verify-orthorep", L12, "--vectors", L12_VECTORS]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_verify_orthorep_with_theta(capsys):
    assert main(["verify-orthorep", L12, "--theta", str(math.pi / 6)]) == 0
    out = capsys.readouterr().out
    assert "faithfulness" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize(
    "atoms, contexts",
    [
        (["x", "b", "c", "d", "e"], [["x", "b", "c"], ["c", "d", "e"]]),
        (["e", "d", "c", "b", "x"], [["e", "c", "d"], ["b", "x", "c"]]),
    ],
    ids=["renamed", "reordered"],
)
def test_verify_orthorep_theta_maps_a_v_logic_by_its_shape(atoms, contexts, tmp_path, capsys):
    assert main(["verify-orthorep", L12, "--theta", "0.5"]) == 0
    l12 = capsys.readouterr().out
    assert l12.count("[PASS]") == 3
    spec = write_spec(tmp_path, {"atoms": atoms, "contexts": contexts})
    assert main(["verify-orthorep", spec, "--theta", "0.5"]) == 0
    assert capsys.readouterr().out == l12


@pytest.mark.parametrize("fixture", [TRIANGLE, EXAMPLE_A], ids=["triangle", "example_a"])
def test_verify_orthorep_theta_names_the_shape_it_needs(fixture, capsys):
    assert main(["verify-orthorep", fixture, "--theta", "0.5"]) == 1
    assert capsys.readouterr() == (
        "", "sglg: error: --theta: needs two three-atom contexts that share one atom\n"
    )


def test_verify_orthorep_theta_out_of_range(capsys):
    assert main(["verify-orthorep", L12, "--theta", "0"]) == 1
    assert "strictly between" in capsys.readouterr().err


def test_verify_orthorep_requires_exactly_one_source(capsys):
    assert main(["verify-orthorep", L12]) == 2
    assert (
        main(
            [
                "verify-orthorep",
                L12,
                "--theta",
                "0.5",
                "--vectors",
                L12_VECTORS,
            ]
        )
        == 2
    )


def test_verify_orthorep_missing_atom_fails(capsys):
    assert main(["verify-orthorep", TRIANGLE, "--vectors", L12_VECTORS]) == 1
    assert "'f'" in capsys.readouterr().err


def test_verify_orthorep_reads_no_pinned_states(tmp_path, capsys):
    # The realization check reads atoms and contexts only, so pinned states
    # that miss s5 once failed it with "pinned states do not match".
    assert main(["verify-orthorep", L12, "--vectors", L12_VECTORS]) == 0
    intact = capsys.readouterr().out
    doc = json.loads(Path(L12).read_text(encoding="utf-8"))
    spec = write_spec(tmp_path, {**doc, "states": doc["states"][:4]})
    assert main(["verify-orthorep", spec, "--vectors", L12_VECTORS]) == 0
    assert capsys.readouterr() == (intact, "")


def test_verify_orthorep_searches_no_states(tmp_path, monkeypatch, capsys):
    def search(*args):
        raise AssertionError("searched for states")

    monkeypatch.setattr("sglg.logic._exact_covers", search)
    assert main(["verify-orthorep", write_spec(tmp_path, chain_spec(10)), "--theta", "0.5"]) == 1
    assert capsys.readouterr() == (
        "", "sglg: error: --theta: needs two three-atom contexts that share one atom\n"
    )


def test_verify_orthorep_tolerance_flag(tmp_path, capsys):
    vectors = tmp_path / "sloppy.json"
    vectors.write_text(
        json.dumps(
            {
                "dimension": 3,
                "vectors": {
                    "a": [1.0, 0.0, 0.0],
                    "b": [0.0, 1.0001, 0.0],
                    "c": [0.0, 0.0, 1.0],
                    "d": [0.7071, 0.7071, 0.0],
                    "e": [-0.7071, 0.7071, 0.0],
                },
            }
        ),
        encoding="utf-8",
    )
    assert main(["verify-orthorep", L12, "--vectors", str(vectors)]) == 1
    capsys.readouterr()
    assert main(["verify-orthorep", L12, "--vectors", str(vectors), "--tol", "0.01"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 3


def module_env(**extra) -> dict:
    """The environment for ``python -m sglg`` run from the checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]), **extra)


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "sglg", "states", L12],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert result.returncode == 0
    assert result.stdout == L12_TABLE_TEXT


def test_cli_imports_nothing_beyond_the_standard_library():
    """``import sglg.cli`` in a fresh interpreter loads only modules of the
    standard library or of sglg beyond those a bare interpreter loads, and
    none of the slow-to-import ones sglg does without."""
    env = module_env()

    def loaded(statement: str) -> set[str]:
        code = f"{statement}\nimport sys\nprint(*sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    extra = loaded("import sglg.cli") - loaded("pass")
    assert "sglg.cli" in extra
    outside = {
        name
        for name in extra
        if name.split(".")[0] not in sys.stdlib_module_names | {"sglg"}
    }
    assert outside == set()
    # The heavy ones: dataclasses pulls in inspect, ast, dis and tokenize;
    # html.entities is a 2,000-entry table.
    assert extra & {"dataclasses", "inspect", "typing", "html.entities"} == set()


def test_cli_import_leaves_pathlib_out_without_site():
    """Without ``site`` (``python -S``) nothing else imports ``pathlib``, so
    this shows that ``import sglg.cli`` does not: it would pull in
    ``urllib.parse`` and ``ipaddress`` too."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, sglg.cli\nprint(*sorted({'pathlib', 'urllib.parse'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


# ------------------------------------------------ hostile numbers and types

SCALED_L12_VECTORS = {
    "a": [2.0, 0.0, 0.0],
    "b": [0.0, 1.0, 0.0],
    "c": [0.0, 0.0, 1.0],
    "d": [math.sqrt(0.5), math.sqrt(0.5), 0.0],
    "e": [-math.sqrt(0.5), math.sqrt(0.5), 0.0],
}


def write_vectors(tmp_path, payload) -> str:
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_non_finite_or_non_positive_tol_is_a_usage_error(tmp_path, capsys, tol):
    vectors = write_vectors(tmp_path, {"dimension": 3, "vectors": SCALED_L12_VECTORS})
    assert main(["verify-orthorep", L12, "--vectors", vectors, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "--tol" in captured.err


def test_tol_that_zeroes_a_vector_is_a_clean_usage_error(capsys):
    assert main(["verify-orthorep", L12, "--vectors", L12_VECTORS, "--tol", "5"]) == 2
    assert "--tol: vector for 'a' is numerically zero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["render", "--format", "svg-tiles"], "-o FILE is required"),
        (["schema"], "-o FILE is required"),
        (["render", "--format", "html", "--cell-size", "0"], "--cell-size must be a positive"),
        (["schema", "-o", "OUT", "--cell-gap", "-1"], "--cell-gap must be a non-negative"),
        (["verify-orthorep", "--theta", "0.5", "--tol", "0"], "--tol must be a positive"),
        (["render", "--format", "ansi", "--palette", "zz"], "expected LABEL=#RRGGBB"),
    ],
    ids=["tiles-output", "schema-output", "cell-size", "cell-gap", "tol", "palette"],
)
@pytest.mark.parametrize("spec", ["missing", "not-admissible"])
def test_a_flag_error_exits_2_before_the_spec_is_read(spec, flags, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if spec == "not-admissible":  # read, it would exit 1
        path.write_text(json.dumps({**json.loads(Path(L12).read_text()), "states": [[1, 1, 0, 0, 0]]}))
        assert main(["check", str(path)]) == 1
        capsys.readouterr()
    out = tmp_path / "out.svg"
    command, *rest = flags
    assert main([command, str(path), *(str(out) if f == "OUT" else f for f in rest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    usage, *_, error = captured.err.splitlines()
    assert usage.startswith("usage: sglg ")
    assert re.match(rf"sglg( {command})?: error: .*{re.escape(message)}", error)
    assert "spec.json" not in captured.err


def test_nan_vector_component_is_rejected(tmp_path, capsys):
    payload = dict(SCALED_L12_VECTORS, a=[math.nan, 0.0, 0.0])
    vectors = write_vectors(tmp_path, {"dimension": 3, "vectors": payload})
    assert main(["verify-orthorep", L12, "--vectors", vectors]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vectors.a" in captured.err


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_non_finite_vector_file_tolerance_is_rejected(tmp_path, capsys, tolerance):
    vectors = write_vectors(
        tmp_path,
        {"dimension": 3, "vectors": SCALED_L12_VECTORS, "tolerance": tolerance},
    )
    assert main(["verify-orthorep", L12, "--vectors", vectors]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vectors, failures",
    [
        # a·d is 1e400 - 1e400: the products overflow with opposite signs.
        (
            {"a": [1e200, 1e200, 0.0], "d": [1e200, -1e200, 0.0]},
            ["|a| deviates from 1 by 1.414e+200", "a·d = 0.000e+00 though"],
        ),
        # a·a's partial sums overflow although each product is finite.
        ({"a": [1e154, 1e154, 1e154]}, ["|a| deviates from 1 by 1.732e+154"]),
    ],
)
def test_overflowing_dot_products_fail_cleanly(tmp_path, capsys, vectors, failures):
    payload = json.loads((FIXTURES / "l12_vectors.json").read_text(encoding="utf-8"))
    payload["vectors"].update(vectors)
    path = write_vectors(tmp_path, payload)
    assert main(["verify-orthorep", L12, "--vectors", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("[FAIL] context orthonormality: max deviation ")
    for failure in failures:
        assert f"    - {failure}" in captured.out


@pytest.mark.parametrize(
    "c, failures",
    [
        ([0.0, 0.0, 2.0], ["|c| deviates from 1 by 1.000e+00"]),
        (
            [0.0, 0.5, 2.0],
            ["|c| deviates from 1 by 1.062e+00", "b·c = 5.000e-01", "c·d = 3.536e-01",
             "c·e = 3.536e-01"],
        ),
    ],
    ids=["norm", "norm and dots"],
)
def test_a_shared_atoms_norm_is_reported_once(tmp_path, capsys, c, failures):
    # c lies in both contexts of L12; its norm was once checked, and reported, in each.
    payload = json.loads((FIXTURES / "l12_vectors.json").read_text(encoding="utf-8"))
    payload["vectors"]["c"] = c
    assert main(["verify-orthorep", L12, "--vectors", write_vectors(tmp_path, payload)]) == 1
    worst = failures[0].rsplit(" ", 1)[1]
    assert capsys.readouterr() == (
        f"[FAIL] context orthonormality: max deviation {worst}\n"
        + "".join(f"    - {failure}\n" for failure in failures)
        + "[PASS] basis completeness: max size gap 0\n"
        "[PASS] faithfulness: min |dot| 7.071e-01\n",
        "",
    )


@pytest.mark.parametrize("value", [1.0, True, [1]])
def test_pinned_state_values_must_be_integers(tmp_path, capsys, value):
    spec = write_spec(
        tmp_path,
        {"atoms": ["x", "y"], "contexts": [["x", "y"]], "states": [[value, 0], [0, 1]]},
    )
    assert main(["states", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "states[0]" in captured.err


# JSON numbers that no finite float holds, and the two booleans.
HOSTILE_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999", "true", "false")


@settings(max_examples=150, deadline=None)
@given(
    token=st.sampled_from(HOSTILE_NUMBERS),
    place=st.sampled_from(("states", "vectors", "tolerance")),
    data=st.data(),
)
def test_non_finite_and_bool_values_exit_2_naming_their_location(token, place, data):
    """Such a value in a pinned state or a vector file exits 2, names where
    it is, and prints nothing else."""
    if place == "states":
        row = st.lists(st.integers(0, 1), min_size=3, max_size=3)
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i][data.draw(st.integers(0, 2))] = "HOSTILE"
        payload = {"atoms": ["x", "y", "z"], "contexts": [["x", "y", "z"]], "states": rows}
        message = f"states[{i}]: must be a list of 3 values, each 0 or 1"
    else:
        payload = json.loads((FIXTURES / "l12_vectors.json").read_text(encoding="utf-8"))
        if place == "vectors":
            atom = data.draw(st.sampled_from(sorted(payload["vectors"])))
            payload["vectors"][atom][data.draw(st.integers(0, 2))] = "HOSTILE"
            message = f"vectors.{atom}: vector must be a list of reals"
        else:
            payload["tolerance"] = "HOSTILE"
            message = "tolerance: 'tolerance' must be a positive finite number"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload).replace('"HOSTILE"', token), encoding="utf-8")
        argv = ["states", str(path)]
        if place != "states":
            argv = ["verify-orthorep", L12, "--vectors", str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"sglg: error: {message}\n")


@pytest.mark.parametrize("point", ["true", "1.5", "NaN", "Infinity", "null", "[1]"])
@pytest.mark.parametrize(
    "template, message",
    [
        (
            '{"base_set": [%s, 2], "partitions": [[[1], [2]]]}',
            "base_set: must be a list of ints or strings",
        ),
        (
            '{"base_set": [1, 2], "partitions": [[[1], [2]], [[%s], [1, 2]]]}',
            "partitions[1]: must be a list of blocks of ints or strings",
        ),
    ],
    ids=["base_set", "block"],
)
def test_base_set_point_types_are_rejected(tmp_path, capsys, point, template, message):
    spec = tmp_path / "spec.json"
    spec.write_text(template % point, encoding="utf-8")
    assert main(["states", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sglg: error: {message}\n"


@pytest.mark.parametrize(
    "payload, location",
    [
        ({"base_set": [True, 2], "partitions": [[[True], [2]]]}, "base_set"),
        ({"base_set": [1, 2], "partitions": [[[True], [2]]]}, "partitions[0]"),
        ({"base_set": [1, 2], "partitions": [[[[1]], [2]]]}, "partitions[0]"),
    ],
)
def test_base_set_points_must_be_ints_or_strings(tmp_path, capsys, payload, location):
    assert main(["states", write_spec(tmp_path, payload)]) == 2
    assert location in capsys.readouterr().err


@pytest.mark.parametrize(
    "partitions, message",
    [
        ([[[1, 2, 3]]], "partitions[0]: partition has fewer than 2 blocks"),
        (
            [[[1], [2, 3]], [[1, 2, 3]]],
            "partitions[1]: partition has fewer than 2 blocks",
        ),
        (
            [[[1], [2, 3]], [[1], [2, 3]]],
            "partitions[1]: partitions 0 and 1 have the same blocks",
        ),
        (
            [[[1], [2, 3]], [[1, 2], [3]], [[3], [1, 2]]],
            "partitions[2]: partitions 1 and 2 have the same blocks",
        ),
        (  # the first partition, in file order, that repeats an earlier one
            [[[1], [2, 3]], [[1, 2], [3]], [[3], [1, 2]], [[2, 3], [1]]],
            "partitions[2]: partitions 1 and 2 have the same blocks",
        ),
    ],
    ids=["one-block", "one-block-later", "same", "same-reordered", "first-repeat"],
)
@pytest.mark.parametrize("command", ["check", "states"])
def test_base_set_contexts_are_reported_as_partitions(
    tmp_path, capsys, command, partitions, message
):
    """A base-set file has no contexts key: its partitions are named instead."""
    payload = {"name": "x", "base_set": [1, 2, 3], "partitions": partitions}
    assert main([command, write_spec(tmp_path, payload)]) == 2
    assert capsys.readouterr() == ("", f"sglg: error: {message}\n")


@pytest.mark.parametrize(
    "entry, message",
    [
        (["b"], "contexts[0]: must be a list of atom names"),
        ({"b": 1}, "contexts[0]: must be a list of atom names"),
        (1, "contexts[0]: unknown atom 1"),
    ],
    ids=["list", "dict", "int"],
)
def test_context_entries_that_are_no_atom_name_exit_2(tmp_path, capsys, entry, message):
    """A list or dict has no hash to look up; it is rejected like any other
    entry that names no atom."""
    spec = write_spec(tmp_path, {"atoms": ["a", "b"], "contexts": [["a", entry]]})
    assert main(["check", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sglg: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["states"],
        ["grammar"],
        ["grammar", "--format", "json"],
        *(
            ["render", "--format", fmt]
            for fmt in ("svg-tiles", "ansi", "html", "logic-program", "events")
        ),
        ["schema"],
    ],
    ids=" ".join,
)
def test_cli_paths_reject_a_list_in_a_context(argv, tmp_path, capsys):
    """Every command exits 2 on the same one-line error, and writes no -o file."""
    spec = write_spec(tmp_path, {"atoms": ["a", "b"], "contexts": [["a", ["b"]]]})
    command, *flags = argv
    out = tmp_path / "out"
    target = ["-o", str(out)] if command in ("render", "schema") else []
    assert main([command, spec, *flags, *target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sglg: error: contexts[0]: must be a list of atom names\n"
    assert not out.exists()


# ------------------------------------- undecodable and unencodable text


def test_a_missing_file_exits_2_naming_it(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["states", missing], ["verify-orthorep", L12, "--vectors", missing]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sglg: error: [Errno 2] No such file or directory: {missing!r}\n"


def test_files_that_are_not_utf8_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"atoms": ["\xe9", "b"], "contexts": [["\xe9", "b"]]}'.encode("latin-1"))
    for argv in (
        ["states", str(latin1)],
        ["check", str(latin1)],
        ["verify-orthorep", L12, "--vectors", str(latin1)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "sglg: error: invalid JSON: 'utf-8' codec can't decode byte 0xe9 "
            "in position 12: invalid continuation byte\n"
        )


@pytest.mark.parametrize("command, read", [("states", 1), ("check", 0)])
def test_a_closed_stdout_exits_2_quietly(command, read, tmp_path):
    # Chain-14's Table I is over 64 KB, more than a pipe holds, so `states` is
    # still writing when the reader goes, and the interpreter's last flush of
    # what stdout holds must neither fail nor print. `check`'s report is short:
    # with stdout buffered, as it is by default, it is written only by a flush.
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "sglg", command, write_spec(tmp_path, chain_spec(14))]
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with subprocess.Popen(argv, env=env, **pipes) as child:
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        stderr = child.stderr.read()
    assert child.returncode == 2
    assert stderr == b""


def test_an_unencodable_stdout_exits_2_with_one_error_line():
    env = module_env(PYTHONIOENCODING="ascii")
    argv = [sys.executable, "-m", "sglg", "render", L12, "--format", "ansi"]
    ansi = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert ansi.returncode == 2
    assert ansi.stdout == ""
    assert re.fullmatch(
        r"sglg: error: 'ascii' codec can't encode character '\\u2588' in position \d+: "
        r"ordinal not in range\(128\)\n",
        ansi.stderr,
    )
    states = subprocess.run(argv[:3] + ["states", L12], env=env, capture_output=True, text=True)
    assert (states.returncode, states.stdout, states.stderr) == (0, L12_TABLE_TEXT, "")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_integers_past_the_digit_limit_exit_2(tmp_path, capsys):
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"atoms": ["a", "b"], "contexts": [["a", "b"]], "states": [[%s, 0]]}' % huge,
        encoding="utf-8",
    )
    vectors = tmp_path / "vectors.json"
    vectors.write_text('{"dimension": %s, "vectors": {}}' % huge, encoding="utf-8")
    for argv, prefix in (
        (["states", str(spec)], "invalid JSON"),
        (["check", str(spec)], "invalid JSON"),
        (["verify-orthorep", L12, "--vectors", str(vectors)], "not valid JSON"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # Python's own text ends in advice to call sys.set_int_max_str_digits().
        assert captured.err == (
            f"sglg: error: {prefix}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
def test_digit_limit_message_names_the_interpreters_limit(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"atoms": ["a"], "contexts": [["a"]], "states": [[%s]]}' % ("1" * 641))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python allows
    try:
        assert main(["states", str(spec)]) == 2
    finally:
        sys.set_int_max_str_digits(previous)
    assert capsys.readouterr().err == (
        "sglg: error: invalid JSON: an integer has more than 640 digits\n"
    )


UNWRITABLE_NAMES = [
    (
        {"atoms": ["a", "b\ud800", "c"], "contexts": [["a", "b\ud800", "c"]]},
        "atoms[1]: atom name holds a lone surrogate",
    ),
    (
        {
            "base_set": [1, 2, 3],
            "partitions": [[[1], [2, 3]], [[2], [1, 3]]],
            "block_names": [["p", "not_p"], ["q", "\udc80not_q"]],
        },
        "block_names[1]: block name holds a lone surrogate",
    ),
    (
        {"atoms": ["a\u0001", "b", "c"], "contexts": [["a\u0001", "b", "c"]]},
        "atoms[0]: atom name holds the character U+0001",
    ),
    (
        {"atoms": ["a", "b", "c\nd"], "contexts": [["a", "b", "c\nd"]]},
        "atoms[2]: atom name holds the character U+000A",
    ),
    (
        {"atoms": ["a", "\ufffe", "c"], "contexts": [["a", "\ufffe", "c"]]},
        "atoms[1]: atom name holds the character U+FFFE",
    ),
    (
        {
            "base_set": [1, 2, 3],
            "partitions": [[[1], [2, 3]], [[2], [1, 3]]],
            "block_names": [["p", "not_p\uffff"], ["q", "not_q"]],
        },
        "block_names[0]: block name holds the character U+FFFF",
    ),
]


@pytest.mark.parametrize(
    "payload, message",
    UNWRITABLE_NAMES,
    ids=["atoms", "block_names", "control", "newline", "U+FFFE", "U+FFFF in block_names"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["states"],
        ["grammar"],
        ["grammar", "--format", "json"],
        ["schema", "-o", "OUT"],
        ["render", "--format", "logic-program"],
        ["render", "--format", "events"],
        ["check"],
    ],
    ids=" ".join,
)
def test_lone_surrogates_in_names_exit_2(tmp_path, capsys, payload, message, command):
    """A name JSON spells as half a surrogate pair cannot be written as
    UTF-8, and one holding a control character, U+FFFE or U+FFFF cannot be
    written in XML or on one text line, so it is rejected where the file is
    parsed."""
    spec = write_spec(tmp_path, payload)
    assert Path(spec).read_text(encoding="utf-8").isascii()  # escaped in the file
    argv = [command[0], spec, *command[1:]]
    argv = [str(tmp_path / "out.svg") if arg == "OUT" else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sglg: error: {message}\n"
    assert not (tmp_path / "out.svg").exists()


# ------------------------------------------------------ hostile logic files

# Per command, the flags a run draws from; OUT stands for the -o output file.
HOSTILE_FLAGS = {
    "states": [[]],
    "grammar": [[], ["--format", "json"]],
    "render": [["--format", "svg-tiles", "-o", "OUT"],
               *(["--format", f] for f in ("ansi", "html", "logic-program", "events"))],
    "schema": [["-o", "OUT"]],
    "verify-orthorep": [["--vectors", L12_VECTORS], ["--theta", "0.5"]],
    "check": [[]],
}


def exits_0_1_or_2_with_error_lines(argv: list[str]) -> tuple[int, str]:
    """Every input gives a result or a clean error: no traceback, and each
    stderr line of a failure is an error line, a single one on exit 2, and
    one naming its location on exit 1. Returns the exit code and stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1
    if code:
        assert all(line.startswith("sglg: error: ") for line in lines)
    if code == 1:  # a failed realization check reports on stdout alone
        assert all(LOCATED_ERROR.fullmatch(line) for line in lines), lines
    return code, stdout.getvalue()


def admissible_count(doc: dict) -> int:
    """How many of the 2^M valuations of a hypergraph-mode file's atoms make
    exactly one atom of each context true, counted one valuation at a time."""
    bit = {atom: 1 << j for j, atom in enumerate(doc["atoms"])}
    masks = [[bit[atom] for atom in context] for context in doc["contexts"]]
    return sum(
        all(sum(1 for b in mask if v & b) == 1 for mask in masks)
        for v in range(2 ** len(doc["atoms"]))
    )


def printed_state_count(command: str, stdout: str) -> int:
    """The states of Table I's rows, or of check's ``states: N admissible`` line."""
    if command == "states":
        return len(stdout.splitlines()) - 1  # below the head line
    return int(re.match(r"states: (\d+) admissible", stdout)[1])


@pytest.mark.parametrize("command", list(HOSTILE_FLAGS))
def test_a_hostile_logic_file_exits_0_1_or_2_with_error_lines(command, tmp_path_factory):
    work = tmp_path_factory.mktemp(command)
    spec, out = work / "spec.json", str(work / "out")

    @settings(max_examples=200, deadline=None)
    @given(hostile_logic_files(), st.sampled_from(HOSTILE_FLAGS[command]))
    def run(text, flags):
        spec.write_text(text, encoding="utf-8")
        code, stdout = exits_0_1_or_2_with_error_lines(
            [command, str(spec), *(out if f == "OUT" else f for f in flags)]
        )
        if code == 0 and "OUT" in flags:  # each -o output is an SVG document
            ElementTree.parse(out)
        # A base set induces only some states, so only an atoms file is counted.
        if code == 0 and command in ("states", "check"):
            doc = json.loads(text)
            if "atoms" in doc and len(doc["atoms"]) <= 12:
                assert printed_state_count(command, stdout) == admissible_count(doc)

    run()


def test_a_hostile_vector_file_exits_0_1_or_2_with_error_lines(tmp_path_factory):
    vectors = tmp_path_factory.mktemp("vectors") / "vectors.json"

    @settings(max_examples=200, deadline=None)
    @given(hostile_vector_files())
    def run(text):
        vectors.write_text(text, encoding="utf-8")
        exits_0_1_or_2_with_error_lines(["verify-orthorep", L12, "--vectors", str(vectors)])

    run()


# ------------------------------------------------------ README commands

_CODE_BLOCK_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_commands() -> list[list[str]]:
    """Every ``sglg ...`` line in the README's code blocks, as argv lists."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in _CODE_BLOCK_RE.findall(readme):
        for line in block.splitlines():
            if line.startswith("sglg "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_lists_the_quick_start_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in argv]
    assert main(argv) == 0, capsys.readouterr().err


# Chain-10: contexts {x_i, y_i, x_(i+1)} for i < 10, 233 states (F(13)).
CHAIN10_SPEC = {
    "name": "chain10",
    "atoms": [f"x{i}" for i in range(11)] + [f"y{i}" for i in range(10)],
    "contexts": [[f"x{i}", f"y{i}", f"x{i + 1}"] for i in range(10)],
}

# sha256 of each command's output on chain-10, recorded before the render
# backends were rewritten to format each distinct symbol once.
CHAIN10_SHA256 = {
    "svg-tiles":
        "e868d4518f3c2d9e1cc31b6d524ba4505fef5001daa751ae6335e8cca2b5d307",
    "svg-tiles --cell-size 7 --cell-gap 0":
        "d69b70d12c26199956e8262c844eb5a6d920b905122c4b8a9a8464f60aa6de80",
    "ansi":
        "bcf877d0534fd3ebcced656d95ede3982e7633486df6742e02b0d11bd9b287c8",
    "ansi NO_COLOR":
        "523dcb79b97e5239d5b8c4dbc3faa142a8a7f0a6099f7b7292712382af0daae7",
    "ansi --palette s3=#ABCDEF":
        "c84543261c95ebb0e0b336077e7b14f559831e7386e67568eaa957ee2a9a50e5",
    "html":
        "7c44fc947c5da34e8493ab90f9919c6b44b177b651e4dbe9221c4270af2f48c9",
    "html --cell-size 9 --palette s1=#123456":
        "a979ee453474d420a937fd22c389f55ab9f13d7f2c98e01f7ad86694eff0b718",
    "logic-program":
        "828400c9dc16fe95c1f6ca69a8e9e78454ba9d0a8628a066e3449226d0d4cc9e",
    "events":
        "644808da3e20871c73e11b3fa5bc59c5e698c4b012efa5b006ff31d29ec02e5c",
    "schema":
        "f912e7f4946eec9dea2caba9012530d6a8aad99d4c5e2c9fd3524488948795a5",
    "schema --cell-size 11 --cell-gap 5":
        "a1f7f13eddf7d06af600690b8fe0cd19226e33425d226a3a9058131ce284ac66",
    "schema --cell-size 1 --cell-gap 0 --palette s233=#00FF00":
        "8e1b950564d84f42e4809633277d32cd7fc41d4efad547d289864d9afb675e85",
}


@pytest.mark.parametrize("case", sorted(CHAIN10_SHA256))
def test_chain10_outputs_are_pinned_byte_for_byte(case, tmp_path, monkeypatch, capsys):
    words = case.split()
    monkeypatch.delenv("NO_COLOR", raising=False)
    if "NO_COLOR" in words:
        words.remove("NO_COLOR")
        monkeypatch.setenv("NO_COLOR", "1")
    spec = write_spec(tmp_path, CHAIN10_SPEC)
    out = tmp_path / "out"
    fmt, *flags = words
    if fmt == "schema":
        argv = ["schema", spec, *flags]
    else:
        argv = ["render", spec, "--format", fmt, *flags]
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CHAIN10_SHA256[case]


def chain10_pinned_spec() -> dict:
    """Chain-10 with its 233 states pinned in a seeded shuffled order."""
    _, states = resolve_states(parse_logic_file(json.dumps(CHAIN10_SPEC)))
    rows = sorted(map(list, states.rows))
    random.Random(1010).shuffle(rows)
    return {**CHAIN10_SPEC, "states": rows}


# sha256 of `sglg states`, recorded before Table I was written by strided copies.
CHAIN10_STATES_SHA256 = {
    "canonical": "d219ad13bbcb367d20a4212fba45b3253714783c03c243a4dc252237c7747f81",
    "pinned": "404909addc4c65a764a9fffbdd7cf61eca3caa82424f0abc9dcefb78ef654d94",
}


@pytest.mark.parametrize("case", sorted(CHAIN10_STATES_SHA256))
def test_chain10_state_table_is_pinned_byte_for_byte(case, tmp_path, capsys):
    spec = CHAIN10_SPEC if case == "canonical" else chain10_pinned_spec()
    assert main(["states", write_spec(tmp_path, spec)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CHAIN10_STATES_SHA256[case]


@pytest.mark.parametrize("chars", [1, 7, 1 << 16])
@pytest.mark.parametrize("text", ["", "<svg>\n", "s\u00e9\u2192\U0001f3b5\n" * 40])
def test_output_file_written_by_chunks_holds_the_whole_text(text, chars, tmp_path):
    # Chunks of `chars` characters, each one str.
    chunks = (text[i : i + chars] for i in range(0, len(text), chars))
    out = tmp_path / "out.svg"
    _emit(chunks, str(out))
    assert out.read_bytes() == text.encode("utf-8")


def test_stdout_is_written_a_chunk_at_a_time(tmp_path, monkeypatch):
    # Without -o each row goes to stdout as it is made, as with -o to the file.
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["render", write_spec(tmp_path, chain_spec(3)), "--format", "events"]) == 0
    assert len(writes) == 7  # one per atom of chain-3
    assert stdout.getvalue() == "".join(writes) and writes[0].startswith('{"row":0,')


WRITTEN_FORMATS = ("svg-tiles", "ansi", "html", "logic-program", "events", "schema")


def written_argv(fmt: str, spec: str) -> list[str]:
    """The command that writes ``fmt`` for ``spec``, without ``-o``."""
    return ["schema", spec] if fmt == "schema" else ["render", spec, "--format", fmt]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.sampled_from(["ansi", "html", "events"]), st.booleans())
def test_output_file_holds_the_text_stdout_gets(k, fmt, no_color):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("NO_COLOR", None)
        if no_color:
            os.environ["NO_COLOR"] = "1"
        spec = Path(tmp) / "chain.json"
        spec.write_text(json.dumps(chain_spec(k)), encoding="utf-8")
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(written_argv(fmt, str(spec))) == 0
            assert main([*written_argv(fmt, str(spec)), "-o", str(out)]) == 0
        assert out.read_bytes() == stdout.getvalue().encode("utf-8")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("fmt", WRITTEN_FORMATS)
def test_a_full_device_exits_2(fmt, capsys):
    assert main([*written_argv(fmt, L12), "-o", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sglg: error: ")
    assert "No space left on device" in captured.err


# A seeded base set with many short rows, and a chain with few long ones.
MEMORY_INPUTS = {
    "chain12": lambda: chain_spec(12),
    "wide32x200": lambda: random_base_set_spec(random.Random(32200), 32, 200),
}


@pytest.mark.parametrize("name", sorted(MEMORY_INPUTS))
def test_compile_peaks_near_the_grammar_it_returns(name):
    # Scanning every body again after compiling peaked at 2.22 times the
    # grammar on chain-12 (1.45 on the base set); stating the layout, at 1.2-1.3.
    logic, states = resolve_states(parse_logic_file(json.dumps(MEMORY_INPUTS[name]())))
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        grammar = compile_grammar(logic, states)  # alive while measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grammar.productions) == len(logic.atoms) + 1
    assert peak <= 1.5 * held


@pytest.mark.parametrize("name", sorted(MEMORY_INPUTS))
def test_state_table_peaks_near_its_text(name):
    # A join per row peaked at 4.1 (chain-12) and 3.7 (base set) times the
    # text; strided copies into one buffer, at 2.0 and 2.2: the buffer and
    # the text it decodes to.
    logic, states = resolve_states(parse_logic_file(json.dumps(MEMORY_INPUTS[name]())))
    texts = []
    peak = traced_peak(lambda: texts.append(format_state_table(logic, states)))
    assert peak <= 3 * len(texts[0])


def test_states_writes_the_table_bytes_without_a_text_copy(tmp_path, monkeypatch):
    # Decoded whole to a str that stdout encodes again, chain-16's table
    # peaked at 2.3 times its size; written whole as bytes, at 1.6; a block
    # of 1,024 states at a time, at 1.2 (the rest is the parse and the state
    # matrix).
    spec = write_spec(tmp_path, chain_spec(16))
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(16))))
    size = len(format_state_table(logic, states).encode())
    with io.TextIOWrapper(io.FileIO(os.devnull, "w"), encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert traced_peak(main, ["states", spec]) < 2 * size


def test_states_writes_a_block_of_states_at_a_time(tmp_path, monkeypatch):
    # The head, then at most 1,024 rows a write: all 4,182 lines of chain-16's
    # table were once written at once.
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["states", write_spec(tmp_path, chain_spec(16))]) == 0
    logic, states = resolve_states(parse_logic_file(json.dumps(chain_spec(16))))
    assert max(text.count("\n") for text in writes) <= 1025
    assert "".join(writes) == format_state_table(logic, states)
    assert len(writes) == 1 + math.ceil(len(states) / 1024)


def test_states_bytes_follow_the_text_written_before(monkeypatch):
    raw = io.BytesIO()
    sink = io.TextIOWrapper(raw, encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", sink)
    print("before")
    assert main(["states", L12]) == 0
    sink.flush()
    assert raw.getvalue().decode("utf-8") == "before\n" + L12_TABLE_TEXT


def test_states_writes_text_to_a_stream_without_bytes():
    out = io.StringIO()  # as a caller capturing stdout in process may use
    with redirect_stdout(out):
        assert main(["states", L12]) == 0
    assert out.getvalue() == L12_TABLE_TEXT


@pytest.mark.parametrize("fmt", ["svg-tiles", "schema", "html", "events"])
@pytest.mark.parametrize("name", sorted(MEMORY_INPUTS))
def test_output_file_is_written_without_holding_its_text(name, fmt, tmp_path):
    # Holding the whole text, with its rows or its encoding, peaks at 2.2-2.9
    # times the file's size on these inputs; a row at a time, at 0.3-0.8.
    spec = write_spec(tmp_path, MEMORY_INPUTS[name]())
    out = tmp_path / "out"
    argv = [*written_argv(fmt, spec), "-o", str(out)]
    assert traced_peak(main, argv) < out.stat().st_size


@pytest.mark.parametrize("name", sorted(MEMORY_INPUTS))
def test_ansi_output_file_is_written_without_holding_its_text(name, tmp_path):
    # The ansi text is smaller than the grammar and derivation behind it, so
    # the command's peak is theirs; this measures the writing alone.
    text = json.dumps(MEMORY_INPUTS[name]())
    logic, states = resolve_states(parse_logic_file(text))
    derivation = derive(compile_grammar(logic, states))
    spec = RenderSpec(default_palette(states.labels()))
    out = tmp_path / "out"
    peak = traced_peak(lambda: _emit(ansi_chunks(derivation, spec), str(out)))
    assert peak < out.stat().st_size


@pytest.mark.parametrize("name", sorted(MEMORY_INPUTS))
def test_grammar_listing_is_written_without_holding_its_text(name, tmp_path):
    # The listing's lines and their join, held whole, peaked at 3.0 (chain-12)
    # and 3.4 (base set) times the text; a production at a time, at 0.3 and 0.4.
    logic, states = resolve_states(parse_logic_file(json.dumps(MEMORY_INPUTS[name]())))
    grammar = compile_grammar(logic, states)
    out = tmp_path / "out"
    peak = traced_peak(lambda: _emit(production_chunks(grammar), str(out)))
    assert peak < out.stat().st_size
    assert out.read_text(encoding="utf-8") == production_text(grammar)


@pytest.mark.parametrize("fmt", ["json", "logic-program"])
def test_json_listing_and_logic_program_are_written_without_holding_their_text(fmt, tmp_path):
    # Held whole, chain-16's JSON listing (1.8 MB) and logic program (0.9 MB)
    # made `sglg` peak at 7.8 and 4.8 times their text; written a production
    # at a time, the writing alone peaks at 0.22 and 0.15 times it.
    logic_file = parse_logic_file(json.dumps(chain_spec(16)))
    logic, states = resolve_states(logic_file)
    grammar = compile_grammar(logic, states)
    if fmt == "json":
        chunks = lambda: production_json_chunks(grammar)  # noqa: E731
    else:
        spec = RenderSpec(default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM)
        chunks = lambda: logic_program_chunks(grammar, spec)  # noqa: E731
    out = tmp_path / "out"
    peak = traced_peak(lambda: _emit(chunks(), str(out)))
    assert peak < out.stat().st_size
    argv = ["grammar", "--format", "json"] if fmt == "json" else ["render", "--format", fmt]
    text = io.StringIO()
    with redirect_stdout(text):
        assert main([argv[0], write_spec(tmp_path, chain_spec(16)), *argv[1:]]) == 0
    assert out.read_text(encoding="utf-8") == text.getvalue()


BASE_SET_48X400 = random_base_set_spec(random.Random(48400), 48, 400)


@pytest.mark.parametrize("fmt", ["svg-tiles", "ansi", "html", "events"])
def test_rows_are_written_a_view_at_a_time(fmt):
    # 1,409 rows of 49 tokens: a tuple of every row's view, held while the
    # rows were written, peaked at 1.2 times the token bytes; a view at a
    # time, at 0.12.
    logic, states = resolve_states(parse_logic_file(json.dumps(BASE_SET_48X400)))
    derivation = derive(compile_grammar(logic, states))
    palette = default_palette(states.labels())
    chunks = {
        "svg-tiles": lambda: tile_chunks(derivation, RenderSpec(palette)),
        "ansi": lambda: ansi_chunks(derivation, RenderSpec(palette)),
        "html": lambda: html_chunks(derivation, RenderSpec(palette)),
        "events": lambda: event_chunks(derivation),
    }[fmt]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        peak = traced_peak(lambda: sink.writelines(chunks()))
    token_bytes = 4 * len(derivation.indices)
    assert peak < token_bytes / 4


def test_render_events_builds_no_palette(monkeypatch, capsys):
    from sglg import cli

    assert main(["render", L12, "--format", "events"]) == 0
    expected = capsys.readouterr().out

    def no_palette(labels):
        raise AssertionError("the events backend reads no palette")

    monkeypatch.setattr(cli, "default_palette", no_palette)
    assert main(["render", L12, "--format", "events"]) == 0
    assert capsys.readouterr().out == expected


# A seeded 16-point base-set logic with 60 distinct random partitions: 204
# atoms, 16 point-induced states. sha256 of each output, recorded before
# point induction and the incidence check were rewritten.
WIDE16_SPEC = random_base_set_spec(random.Random(1616), 16, 60)
WIDE16_SHA256 = {
    "states": "bf9b67808c0d955eaaa62fdd3fbae21e8e430306764f22de7206e9dddc2ca7a6",
    "check": "65850fdd0d6f029c855087ef87e9f4f8568d4f637c6c8dd0c0b91278c48a918b",
    "schema": "964a5409eacab960cd640bcb876f76be8caa53c91858c269b2f32bc5fcc251a7",
    "svg-tiles": "daabb396dc2fe719148a8fc1e20bc7598a883852622c1d4b19e539060282161b",
}


@pytest.mark.parametrize("case", sorted(WIDE16_SHA256))
def test_base_set_outputs_are_pinned_byte_for_byte(case, tmp_path, capsys):
    spec = write_spec(tmp_path, WIDE16_SPEC)
    out = tmp_path / "out"
    if case in ("states", "check"):
        assert main([case, spec]) == 0
        data = capsys.readouterr().out.encode()
    else:
        argv = ["schema", spec] if case == "schema" else ["render", spec, "--format", case]
        assert main([*argv, "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == WIDE16_SHA256[case]
