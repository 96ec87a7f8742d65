"""Acceptance gate: one test per golden structure the toolchain must hit.

Each test prints a single summary line so a verbose run reads as a
checklist; the assertions above the print are the actual gate.
"""

from __future__ import annotations

import math
import random
import re

from sglg import (
    RenderSpec,
    Backend,
    VectorRealization,
    build_v_realization,
    check_incidence,
    compile_grammar,
    default_palette,
    derive,
    emit_logic_program,
    enumerate_states,
    render_schema,
    render_tiles,
    verify_faithful,
)
from support import (
    L12_TABLE,
    TRIANGLE_TABLE,
    body_names,
    brute_force_states,
    listing,
    parse_production_listing,
    random_separating_logic,
    resolve_fixture,
    state_vectors,
    true_labels,
)


def test_criterion_1_l12_state_enumeration():
    logic, _ = resolve_fixture("l12.json")
    states = enumerate_states(logic)
    assert len(states) == 5
    assert set(state_vectors(states)) == set(L12_TABLE)
    print("criterion 1: l12 enumerates exactly the 5 pinned fixture states — pass")


def test_criterion_2_triangle_state_enumeration():
    logic, _ = resolve_fixture("triangle.json")
    states = enumerate_states(logic)
    assert len(states) == 4
    assert set(state_vectors(states)) == set(TRIANGLE_TABLE)
    print("criterion 2: triangle enumerates exactly the 4 pinned fixture states — pass")


def test_criterion_3_example_a_supports_and_grammar():
    logic, states = resolve_fixture("example_a.json")
    assert len(states) == 3
    expected_supports = {
        "p": ("s1",),
        "not_p": ("s2", "s3"),
        "q": ("s2",),
        "not_q": ("s1", "s3"),
        "r": ("s3",),
        "not_r": ("s1", "s2"),
    }
    for atom, labels in expected_supports.items():
        assert true_labels(logic, states, atom) == labels
    grammar = compile_grammar(logic, states)
    expected_rows = {
        "p": "s1,br,s2,s3,n",
        "not_p": "s2,s3,br,s1,n",
        "q": "s2,br,s1,s3,n",
        "not_q": "s1,s3,br,s2,n",
        "r": "s3,br,s1,s2,n",
        "not_r": "s1,s2,br,s3,n",
    }
    for atom, row in expected_rows.items():
        body = ",".join(body_names(grammar, atom))
        assert body == row
    print("criterion 3: Example A supports and grammar rows match — pass")


def test_criterion_4_golden_grammar_rows():
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    vgrammar = {
        "a": "s1,s2,br,s3,s4,s5,n",
        "b": "s3,s4,br,s1,s2,s5,n",
        "c": "s5,br,s1,s2,s3,s4,n",
        "d": "s2,s4,br,s1,s3,s5,n",
        "e": "s1,s3,br,s2,s4,s5,n",
    }
    for atom, row in vgrammar.items():
        assert ",".join(body_names(grammar, atom)) == row

    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    trianglegrammar = {
        "a": "s1,br,s2,s3,s4,n",
        "b": "s2,s3,br,s1,s4,n",
        "c": "s4,br,s1,s2,s3,n",
        "d": "s1,s2,br,s3,s4,n",
        "e": "s3,br,s1,s2,s4,n",
        "f": "s2,s4,br,s1,s3,n",
    }
    for atom, row in trianglegrammar.items():
        assert ",".join(body_names(grammar, atom)) == row
    print("criterion 4: compiled rows equal the golden v_logic and triangle rows — pass")


def test_criterion_5_proposition_property_suite():
    for name in ("l12.json", "triangle.json", "example_a.json"):
        logic, states = resolve_fixture(name)
        assert check_incidence(derive(compile_grammar(logic, states)), logic, states).ok

    rng = random.Random(1912)
    checked = 0
    while checked < 200:
        logic, states = random_separating_logic(rng)
        assert set(state_vectors(states)) == brute_force_states(logic)
        report = check_incidence(derive(compile_grammar(logic, states)), logic, states)
        assert report.ok, f"incidence violated for {logic.atoms}/{logic.contexts}"
        checked += 1
    print(
        "criterion 5: incidence and oracle agreement on 3 fixtures "
        f"+ {checked} random separating logics — pass"
    )


def test_criterion_6_rendering_goldens():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    tiles_spec = RenderSpec(palette=default_palette(states.labels()))
    tiles = render_tiles(derivation, tiles_spec)
    fills = re.findall(r'fill="(#[0-9A-F]{6})"', tiles)
    assert len(fills) == 30  # 5 rows x 6 cells
    assert fills[:6] == [
        "#008000",  # green s1
        "#0000FF",  # blue s2
        "#000000",  # black br
        "#FF0000",  # red s3
        "#FFA500",  # orange s4
        "#8F00FF",  # violet s5
    ]
    schema_spec = RenderSpec(
        palette=default_palette(states.labels()), backend=Backend.SVG_SCHEMA
    )
    schema = render_schema(logic, states, schema_spec)
    cell_fills = re.findall(r'fill="(#[0-9A-F]{6})"', schema)
    assert cell_fills.count("#BFBFBF") == 16
    assert len(cell_fills) - cell_fills.count("#BFBFBF") == 9
    assert render_tiles(derivation, tiles_spec).encode() == tiles.encode()
    assert render_schema(logic, states, schema_spec) == schema
    print("criterion 6: tile and schema renderings match the goldens — pass")


def test_criterion_7_logic_program_export():
    for name, first_rule in (
        ("l12.json", "v_logic --> a,b,c,d,e."),
        ("triangle.json", "triangle_logic --> a,b,c,d,e,f."),
    ):
        logic, states = resolve_fixture(name)
        grammar = compile_grammar(logic, states)
        spec = RenderSpec(
            palette=default_palette(states.labels()), backend=Backend.LOGIC_PROGRAM
        )
        source = emit_logic_program(grammar, spec)
        assert source.splitlines()[0] == first_rule
        assert parse_production_listing(source) == listing(grammar)
    print("criterion 7: logic-program export matches the listings and re-parses — pass")


def test_criterion_8_orthogonal_realization():
    logic, _ = resolve_fixture("l12.json")
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        report = verify_faithful(logic, build_v_realization(theta))
        assert report.passed
        assert report.orthonormality.worst < 1e-12
        assert report.completeness.worst < 1e-12

    collapsed = VectorRealization(
        3,
        {
            "a": (1.0, 0.0, 0.0),
            "b": (0.0, 1.0, 0.0),
            "c": (0.0, 0.0, 1.0),
            "d": (math.cos(0.0), math.sin(0.0), 0.0),
            "e": (-math.sin(0.0), math.cos(0.0), 0.0),
        },
    )
    report = verify_faithful(logic, collapsed)
    assert not report.faithfulness.passed
    assert report.orthonormality.passed

    mirrored = type(logic)(
        logic.name, logic.atoms, tuple(tuple(reversed(ctx)) for ctx in logic.contexts)
    )
    real = build_v_realization(1.1)
    assert (
        verify_faithful(logic, real).orthonormality.worst
        == verify_faithful(mirrored, real).orthonormality.worst
    )
    print("criterion 8: realization checks pass in range and fail at theta 0 — pass")
