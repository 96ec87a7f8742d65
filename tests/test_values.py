"""The value-class contract every public record type of sglg keeps.

Each public class that holds data (not an enum, not an error) is built
from its fields in declaration order, positionally or by keyword, with
the same defaults; it compares and hashes by type and fields, shows
``Name(field=value, ...)`` and refuses assignment and deletion. Every
semantic failure but a non-separating state set is a plain ``ValidationError``.
"""

from __future__ import annotations

import inspect
import json
from array import array
from enum import Enum

import pytest

import sglg
from sglg import (
    Backend,
    BaseSetSpec,
    CheckResult,
    Derivation,
    EventStream,
    FaithfulnessReport,
    Grammar,
    IncidenceReport,
    LogicFile,
    PartitionLogic,
    Production,
    RenderSpec,
    RowViolation,
    StateSet,
    ValidationError,
    VectorRealization,
    build_v_realization,
    compile_grammar,
    derive,
    enumerate_states,
    load_vector_file,
    parse_logic_file,
    partition_representation,
    resolve_states,
    verify_faithful,
)
from support import load_fixture, resolve_fixture

L12_LOGIC, L12_STATES = resolve_fixture("l12.json")
TRIANGLE_LOGIC, TRIANGLE_STATES = resolve_fixture("triangle.json")
L12_GRAMMAR = compile_grammar(L12_LOGIC, L12_STATES)
TRIANGLE_GRAMMAR = compile_grammar(TRIANGLE_LOGIC, TRIANGLE_STATES)
L12_DERIVATION = derive(L12_GRAMMAR)
TRIANGLE_DERIVATION = derive(TRIANGLE_GRAMMAR)
BASE_SET = load_fixture("example_a.json").source


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


def _read(names, first, second):
    """A case whose two field tuples are read off two existing values."""
    return names, _fields(first, names), _fields(second, names)


# Per class: its field names in order, then two valid, unequal field tuples.
CASES = {
    Production: (
        ("head", "body"),
        ("a", array("I", [2, 0, 1])),
        ("b", array("I", [0, 1])),
    ),
    Grammar: _read(
        ("productions", "symbols"),
        L12_GRAMMAR,
        TRIANGLE_GRAMMAR,
    ),
    Derivation: _read(
        ("symbols", "indices"),
        L12_DERIVATION,
        TRIANGLE_DERIVATION,
    ),
    RowViolation: (("row_index", "labels"), (0, ("s1",)), (1, ())),
    IncidenceReport: (
        ("violations",),
        ((),),
        ((RowViolation(0, ("s1", "s2")),),),
    ),
    PartitionLogic: _read(
        ("name", "atoms", "contexts"),
        L12_LOGIC,
        TRIANGLE_LOGIC,
    ),
    BaseSetSpec: _read(
        ("name", "base_set", "partitions", "block_names"),
        BASE_SET,
        BaseSetSpec("pairs", (1, "x"), (((1,), ("x",)), ((1, "x"),))),
    ),
    StateSet: _read(("matrix", "width"), L12_STATES, TRIANGLE_STATES),
    LogicFile: (
        ("source", "pinned_states", "palette"),
        (L12_LOGIC, None, None),
        (TRIANGLE_LOGIC, ((1, 0, 0, 1, 0, 0),), {"s1": "#123456"}),
    ),
    RenderSpec: (
        ("palette", "cell_size", "cell_gap", "backend"),
        ({"s1": "#112233"}, 20, 2, Backend.SVG_TILES),
        ({"br": "#FFFFFF"}, 3, 0, Backend.ANSI),
    ),
    EventStream: (("derivation",), (L12_DERIVATION,), (TRIANGLE_DERIVATION,)),
    VectorRealization: (
        ("dimension", "vectors", "tolerance"),
        (3, {"a": (1.0, 0.0, 0.0)}, 1e-9),
        (2, {"x": (0.0, 1.0)}, 0.5),
    ),
    CheckResult: (
        ("name", "worst", "failures"),
        ("faithfulness", 0.5, ()),
        ("basis completeness", 1.0, ("context 0 has 2 atoms in dimension 3",)),
    ),
    FaithfulnessReport: _read(
        ("orthonormality", "completeness", "faithfulness"),
        verify_faithful(L12_LOGIC, build_v_realization(0.3)),
        verify_faithful(L12_LOGIC, build_v_realization(0.6)),
    ),
}

DEFAULTS = {
    BaseSetSpec: {"block_names": None},
    LogicFile: {"pinned_states": None, "palette": None},
    RenderSpec: {
        "palette": {},
        "cell_size": 20,
        "cell_gap": 2,
        "backend": Backend.SVG_TILES,
    },
    VectorRealization: {"tolerance": 1e-9},
}

IDS = [cls.__name__ for cls in CASES]

# Every public name, written out, so that adding or removing one shows in a diff.
PUBLIC_NAMES = [
    "Backend", "BaseSetSpec", "CheckResult", "Derivation", "EventStream",
    "FaithfulnessReport", "Grammar", "IncidenceReport", "LogicFile", "LogicFileError",
    "NotSeparatingError", "PartitionLogic", "Production", "RenderSpec", "RowViolation",
    "StateSet", "ValidationError", "VectorRealization", "build_v_realization",
    "check_incidence", "compile_grammar", "default_palette", "derive", "emit_events",
    "emit_logic_program", "enumerate_states", "is_admissible", "is_separating",
    "load_vector_file", "logic_from_partitions", "parse_logic_file",
    "partition_representation", "pinned_state_set", "production_text", "productions_json",
    "render_schema", "render_text", "render_tiles", "resolve_states", "supports",
    "verify_faithful",
]


def test_the_public_names_are_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sglg.__all__ == PUBLIC_NAMES


def _pin_one_of_five_states():
    spec = {"atoms": [*"abcde"], "contexts": [[*"abc"], [*"cde"]], "states": [[1, 0, 0, 0, 1]]}
    resolve_states(parse_logic_file(json.dumps(spec)))


def _compile_a_logic_without_states():
    logic = PartitionLogic("k", (*"abcd",), ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    compile_grammar(logic, enumerate_states(logic))


def _verify_a_vector_file_without_e():
    vectors = {atom: v for atom, v in build_v_realization(0.5).vectors.items() if atom != "e"}
    verify_faithful(L12_LOGIC, load_vector_file(json.dumps({"dimension": 3, "vectors": vectors})))


def _partition_overlapping_states():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    partition_representation(logic, StateSet(b"\1\1\1\0", 2))


# Each failure and the message it raises it with, word for word.
SEMANTIC_FAILURES = {
    _pin_one_of_five_states:
        "pinned states do not match the full enumeration (4 of 5 valuations missing)",
    _compile_a_logic_without_states: "logic 'k' admits no two-valued states",
    lambda: build_v_realization(2): "theta must lie strictly between 0 and pi/2, got 2",
    _verify_a_vector_file_without_e: "realization has no vector for atom 'e'",
    lambda: RenderSpec(palette={"s1": "#008000"}).colors(("s1", "s2")):
        "palette has no color for state label 's2'",
    _partition_overlapping_states: "context 0: supports do not partition the state labels",
}


@pytest.mark.parametrize(
    "fail, message",
    SEMANTIC_FAILURES.items(),
    ids=["pinned", "no-states", "theta", "no-vector", "no-color", "overlap"],
)
def test_a_semantic_failure_is_a_plain_validation_error(fail, message):
    with pytest.raises(ValidationError) as excinfo:
        fail()
    assert type(excinfo.value) is ValidationError
    assert str(excinfo.value) == message


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_public_value_class_is_covered():
    public = {
        value
        for value in map(vars(sglg).__getitem__, sglg.__all__)
        if inspect.isclass(value)
        and not issubclass(value, (Enum, Exception))
    }
    assert public == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    names, first, _ = CASES[cls]
    by_position = cls(*first)
    by_keyword = cls(**dict(zip(names, first)))
    assert by_position == by_keyword
    for name, value in zip(names, first):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_is_by_type_and_fields(cls):
    _, first, second = CASES[cls]
    one, twin, other = cls(*first), cls(*first), cls(*second)
    assert one is not twin
    assert one == twin and not one != twin
    assert one != other and not one == other
    assert one != first  # the bare field tuple is not the value
    assert one.__eq__(first) is NotImplemented
    assert one != object()


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_hash_follows_equality(cls):
    _, first, second = CASES[cls]
    for values in (first, second):
        one, twin = cls(*values), cls(*values)
        if _hashable(values):
            assert hash(one) == hash(twin)
            assert len({one, twin}) == 1
        else:  # a dict or array field makes the value unhashable too
            with pytest.raises(TypeError):
                hash(one)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, first, second = CASES[cls]
    value = cls(*first)
    for name, replacement in zip(names, second):
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert _fields(value, names) == first
    assert not hasattr(value, "not_a_field")


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr_names_the_class_and_each_field(cls):
    names, first, _ = CASES[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, first))
    assert repr(cls(*first)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_wrong_argument_lists_raise_type_error(cls):
    names, first, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*first, first[-1])  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*first, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*first, **{names[0]: first[0]})  # the first field given twice
    required = len(names) - len(DEFAULTS.get(cls, ()))
    if required:
        with pytest.raises(TypeError):
            cls(*first[: required - 1])


@pytest.mark.parametrize("cls", DEFAULTS, ids=[cls.__name__ for cls in DEFAULTS])
def test_defaults_fill_the_trailing_fields(cls):
    names, first, _ = CASES[cls]
    defaults = DEFAULTS[cls]
    required = names[: len(names) - len(defaults)]
    assert names[len(required) :] == tuple(defaults)
    value = cls(*first[: len(required)])
    assert _fields(value, names) == first[: len(required)] + tuple(defaults.values())
    assert value == cls(**dict(zip(required, first)))


def test_a_mutable_default_is_made_afresh_per_instance():
    assert RenderSpec().palette == {}
    assert RenderSpec().palette is not RenderSpec().palette


def test_cached_members_live_on_the_instance():
    """Cached members are stored per instance and do not enter equality."""
    states = StateSet(L12_STATES.matrix, L12_STATES.width)
    assert states.labels() is states.labels()
    assert states == StateSet(L12_STATES.matrix, L12_STATES.width)
    grammar = Grammar(*CASES[Grammar][1])
    assert grammar._indices is grammar._indices
    assert grammar == L12_GRAMMAR


# Per class, a flag read off one field: true for the first value in CASES,
# false for the second.
FLAGS = {
    IncidenceReport: ("ok", "violations"),
    CheckResult: ("passed", "failures"),
}


@pytest.mark.parametrize("cls", FLAGS, ids=[cls.__name__ for cls in FLAGS])
def test_flags_are_read_off_the_fields_and_cannot_be_given(cls):
    """A report cannot say it passed while it lists a failure."""
    names, first, second = CASES[cls]
    flag, source = FLAGS[cls]
    assert flag not in names and source in names
    for values, want in ((first, True), (second, False)):
        assert getattr(cls(*values), flag) is want
        with pytest.raises(TypeError):
            cls(*values, **{flag: want})
