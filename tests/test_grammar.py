"""Grammar compilation, derivation, incidence checking, and listings."""

from __future__ import annotations

import json
import operator
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglg import (
    Derivation,
    Grammar,
    IncidenceReport,
    LogicFileError,
    NotSeparatingError,
    PartitionLogic,
    Production,
    RowViolation,
    StateSet,
    ValidationError,
    check_incidence,
    compile_grammar,
    derive,
    enumerate_states,
    parse_logic_file,
    production_text,
    productions_json,
    resolve_states,
    supports,
)
import sglg.grammar
from sglg.grammar import production_json_chunks
from support import (
    body_names,
    chain_spec,
    hostile_flat_grammars,
    listing,
    one_state_grammar,
    parse_production_listing,
    random_base_set_spec,
    random_separating_logic,
    resolve_fixture,
    state_matrix,
    state_vectors,
    traced_peak,
    true_labels,
)

VGRAMMAR_ROWS = {
    "a": ["s1", "s2", "br", "s3", "s4", "s5", "n"],
    "b": ["s3", "s4", "br", "s1", "s2", "s5", "n"],
    "c": ["s5", "br", "s1", "s2", "s3", "s4", "n"],
    "d": ["s2", "s4", "br", "s1", "s3", "s5", "n"],
    "e": ["s1", "s3", "br", "s2", "s4", "s5", "n"],
}

TRIANGLE_ROWS = {
    "a": ["s1", "br", "s2", "s3", "s4", "n"],
    "b": ["s2", "s3", "br", "s1", "s4", "n"],
    "c": ["s4", "br", "s1", "s2", "s3", "n"],
    "d": ["s1", "s2", "br", "s3", "s4", "n"],
    "e": ["s3", "br", "s1", "s2", "s4", "n"],
    "f": ["s2", "s4", "br", "s1", "s3", "n"],
}

HORIZONTAL_ROWS = {
    "p": ["s1", "br", "s2", "s3", "n"],
    "not_p": ["s2", "s3", "br", "s1", "n"],
    "q": ["s2", "br", "s1", "s3", "n"],
    "not_q": ["s1", "s3", "br", "s2", "n"],
    "r": ["s3", "br", "s1", "s2", "n"],
    "not_r": ["s1", "s2", "br", "s3", "n"],
}


def symbol_rows(derivation: Derivation) -> list[list[str]]:
    """The derivation's rows with one name per token."""
    return [[derivation.symbols[i] for i in row] for row in derivation.rows()]


def from_rows(rows: list[list[str]]) -> Derivation:
    """A derivation of ``rows``, each ended by a linebreak."""
    return Derivation.from_tokens([token for row in rows for token in (*row, "n")])


def derivation_content(derivation: Derivation):
    """What a derivation says, whatever the numbering of its table."""
    return derivation.tokens, derivation.row_boundaries


# ------------------------------------------------------------ compilation


def test_l12_grammar_matches_the_golden_rows():
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    assert grammar.productions[0].head == "v_logic"
    assert body_names(grammar, "v_logic") == ["a", "b", "c", "d", "e"]
    for atom, row in VGRAMMAR_ROWS.items():
        assert body_names(grammar, atom) == row
    assert grammar.terminals == ("s1", "s2", "s3", "s4", "s5")


def test_triangle_grammar_matches_the_golden_rows():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    assert body_names(grammar, "triangle_logic") == ["a", "b", "c", "d", "e", "f"]
    for atom, row in TRIANGLE_ROWS.items():
        assert body_names(grammar, atom) == row


def test_example_a_grammar_matches_the_golden_rows():
    logic, states = resolve_fixture("example_a.json")
    grammar = compile_grammar(logic, states)
    for atom, row in HORIZONTAL_ROWS.items():
        assert body_names(grammar, atom) == row


def test_single_context_compilation():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    grammar = compile_grammar(logic, enumerate_states(logic))
    assert body_names(grammar, "x") == ["s1", "br", "s2", "n"]
    assert body_names(grammar, "y") == ["s2", "br", "s1", "n"]


def test_compile_rejects_empty_state_set():
    logic = PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (1, 2), (2, 0)))
    states = enumerate_states(logic)
    assert len(states) == 0
    with pytest.raises(ValidationError, match=r"^logic 'logic' admits no two-valued states$"):
        compile_grammar(logic, states)


def test_compile_rejects_non_separating_states_with_witness():
    logic = PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (0, 2)))
    with pytest.raises(NotSeparatingError) as excinfo:
        compile_grammar(logic, enumerate_states(logic))
    assert excinfo.value.witness == ("y", "z")


def test_compile_rejects_inadmissible_states():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet(state_matrix([(1, 1), (1, 0)]), 2)
    with pytest.raises(ValueError, match="not admissible"):
        compile_grammar(logic, states)


def one_context_logic(name: str, first: str, size: int) -> PartitionLogic:
    """A logic whose one context holds ``size`` atoms, ``first`` and y1, y2, ...;
    its states are the unit vectors, labeled s1..s{size}."""
    atoms = (first, *(f"y{i}" for i in range(1, size)))
    return PartitionLogic(name, atoms, (tuple(range(size)),))


def unit_vectors(size: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(size)) for i in range(size)]


@pytest.mark.parametrize(
    "logic, vectors, label",
    [
        (
            PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (1, 2))),
            [(1, 1, 0), (1, 0, 1), (0, 1, 0)],
            "s1",
        ),
        (
            PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (1, 2))),
            [(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 0)],
            "s3",
        ),
        (one_context_logic("logic", "x", 11), [*unit_vectors(11), (0,) * 11], "s12"),
    ],
    ids=["first", "third", "twelfth"],
)
def test_compile_names_the_first_inadmissible_state(logic, vectors, label):
    states = StateSet(state_matrix(vectors), len(logic.atoms))
    with pytest.raises(ValidationError, match=rf"^state {label} is not admissible$"):
        compile_grammar(logic, states)


# An atom named like a state label or a layout symbol would make rows
# ambiguous, and so would a logic named like any other grammar symbol.
# Contexts of 2 atoms have states s1, s2; of 11 atoms, s1..s11.
COLLISIONS = [  # logic name, first atom, context size, start of the message
    ("logic", "s1", 2, "atom 's1' collides"),
    ("logic", "s2", 2, "atom 's2' collides"),
    ("logic", "br", 2, "atom 'br' collides"),
    ("logic", "n", 2, "atom 'n' collides"),
    ("logic", "s10", 11, "atom 's10' collides"),
    ("logic", "s11", 11, "atom 's11' collides"),
    ("x", "x", 2, "logic name 'x' collides"),
    ("s1", "x", 2, "logic name 's1' collides"),
    ("s11", "x", 11, "logic name 's11' collides"),
    ("br", "x", 2, "logic name 'br' collides"),
    ("n", "x", 2, "logic name 'n' collides"),
]
LOOKALIKES = [  # logic name, first atom, context size
    ("logic", "s0", 2),
    ("logic", "s01", 2),
    ("logic", "s3", 2),
    ("logic", "s011", 11),
    ("logic", "s12", 11),
    ("s0", "x", 2),
    ("s3", "x", 2),
]


def case_id(name: str, atom: str, size: int, *_) -> str:
    return f"{name}/{atom}/{size}"


@pytest.mark.parametrize(
    "name, atom, size, message", COLLISIONS, ids=[case_id(*c) for c in COLLISIONS]
)
def test_compile_rejects_symbol_collisions(name, atom, size, message):
    logic = one_context_logic(name, atom, size)
    with pytest.raises(ValidationError, match=rf"^{message}"):
        compile_grammar(logic, enumerate_states(logic))


@pytest.mark.parametrize("name, atom, size", LOOKALIKES, ids=[case_id(*c) for c in LOOKALIKES])
def test_compile_accepts_names_that_only_look_like_labels(name, atom, size):
    logic = one_context_logic(name, atom, size)
    grammar = compile_grammar(logic, enumerate_states(logic))
    assert grammar.nonterminals == (name, *logic.atoms)


# ------------------------------------------------------------- derivation


def test_l12_derivation_has_35_tokens_and_5_rows():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    assert len(derivation.tokens) == 35
    rows = symbol_rows(derivation)
    assert len(rows) == 5
    assert rows[3] == ["s2", "s4", "br", "s1", "s3", "s5"]


def test_triangle_derivation_has_36_tokens_and_6_rows():
    logic, states = resolve_fixture("triangle.json")
    derivation = derive(compile_grammar(logic, states))
    assert len(derivation.tokens) == 36
    assert len(list(derivation.rows())) == 6


def test_chain10_derivation_is_a_symbol_table_plus_index_rows():
    atoms = tuple(f"x{i}" for i in range(11)) + tuple(f"y{i}" for i in range(10))
    contexts = tuple((i, 11 + i, i + 1) for i in range(10))  # {x_i, y_i, x_(i+1)}
    logic = PartitionLogic("chain10", atoms, contexts)
    states = enumerate_states(logic)
    derivation = derive(compile_grammar(logic, states))
    assert len(states) == 233
    # One entry per distinct symbol: br, n and one per state label.
    assert len(derivation.symbols) == len(set(derivation.symbols)) == len(states) + 2
    assert set(derivation.symbols) == set(derivation.tokens)
    assert type(derivation.indices) is array and derivation.indices.typecode == "I"
    rows = list(derivation.rows())
    assert len(rows) == len(atoms)
    assert all(type(row) is memoryview and row.format == "I" for row in rows)
    assert all(row.obj is derivation.indices for row in rows)


def test_compiled_rows_derivation_and_its_rows_share_one_array():
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    assert type(derivation.indices) is array
    start, *rows = grammar.productions
    assert type(start.body) is array
    assert all(type(p.body) is memoryview and p.body.obj is derivation.indices for p in rows)
    assert derive(grammar).indices is derivation.indices


def chain_inputs(k: int) -> tuple[PartitionLogic, StateSet]:
    return resolve_states(parse_logic_file(json.dumps(chain_spec(k))))


@pytest.mark.parametrize("k", [14, 16])
def test_derive_allocates_no_copy_of_the_tokens(k):
    grammar = compile_grammar(*chain_inputs(k))
    token_bytes = len(derive(grammar).indices) * 4
    assert traced_peak(derive, grammar) < token_bytes / 4


def test_compile_derive_and_check_peak_within_four_and_a_half_token_copies():
    logic, states = chain_inputs(16)  # fresh: the labels are made inside the call
    token_bytes = len(logic.atoms) * (len(states) + 2) * 4
    reports = []

    def check() -> None:
        reports.append(check_incidence(derive(compile_grammar(logic, states)), logic, states))

    assert traced_peak(check) <= 4.5 * token_bytes
    assert reports[0].ok


def test_one_state_grammar_derivation():
    derivation = derive(one_state_grammar())
    assert list(derivation.tokens) == ["s1", "br", "n"]
    assert derivation.row_boundaries == (2,)


def test_derivation_is_deterministic():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    assert derive(grammar) == derive(grammar)


def test_token_count_formula_on_random_logics():
    rng = random.Random(1977)
    for _ in range(60):
        logic, states = random_separating_logic(rng)
        derivation = derive(compile_grammar(logic, states))
        assert len(derivation.tokens) == len(logic.atoms) * (len(states) + 2)


def test_each_row_carries_every_symbol_exactly_once():
    rng = random.Random(1978)
    for _ in range(40):
        logic, states = random_separating_logic(rng)
        derivation = derive(compile_grammar(logic, states))
        for row in symbol_rows(derivation):
            assert row.count("br") == 1
            assert sorted(n for n in row if n != "br") == sorted(states.labels())


# --------------------------------------------------------------- validity


def derive_by_recursion(grammar: Grammar) -> Derivation:
    """The reference expansion: recursive leftmost rewriting, one token at a time."""
    tokens: list[str] = []
    rules = dict(zip(grammar.nonterminals, grammar.productions))

    def expand(name: str) -> None:
        if name not in rules:
            tokens.append(name)
            return
        for child in rules[name].body:
            expand(grammar.symbols[child])

    expand(grammar.productions[0].head)
    return Derivation.from_tokens(tokens)


@st.composite
def flat_grammars(draw) -> Grammar:
    """g -> x0..xk, each row x_i over s1, s2 and br, ended by n."""
    names = [f"x{i}" for i in range(draw(st.integers(0, 6)))]
    terminals = st.lists(st.sampled_from(["s1", "s2", "br"]), max_size=8)
    rows = [(name, (*draw(terminals), "n")) for name in names]
    return Grammar.from_symbols((("g", tuple(names)), *rows))


@settings(max_examples=200, deadline=None)
@given(flat_grammars())
def test_derive_equals_recursive_expansion(grammar):
    assert derivation_content(derive(grammar)) == derivation_content(
        derive_by_recursion(grammar)
    )


@settings(max_examples=200, deadline=None)
@given(flat_grammars())
def test_rows_are_read_one_at_a_time_and_again_alike(grammar):
    # A row of "n" alone is empty, and no view stands for it.
    derivation = derive(grammar)
    rows = derivation.rows()
    assert iter(rows) is rows  # each view made as it is read
    rows = [row.tolist() for row in rows]
    assert [row.tolist() for row in derivation.rows()] == rows


def test_derive_equals_recursive_expansion_on_random_compiled_grammars():
    rng = random.Random(5150)
    for _ in range(40):
        logic, states = random_separating_logic(rng)
        grammar = compile_grammar(logic, states)
        assert derivation_content(derive(grammar)) == derivation_content(
            derive_by_recursion(grammar)
        )


@st.composite
def compiled_inputs(draw) -> tuple[PartitionLogic, StateSet]:
    """A random separating logic, a chain-1..7, or a small random base set."""
    kind = draw(st.sampled_from(["random", "chain", "base set"]))
    if kind == "random":
        return random_separating_logic(random.Random(draw(st.integers(0, 10**6))))
    if kind == "chain":
        spec = chain_spec(draw(st.integers(1, 7)))
    else:
        rng = random.Random(draw(st.integers(0, 10**6)))
        spec = random_base_set_spec(rng, draw(st.integers(6, 12)), draw(st.integers(2, 20)))
    return resolve_states(parse_logic_file(json.dumps(spec)))


@settings(max_examples=100, deadline=None)
@given(compiled_inputs())
def test_compiled_grammar_equals_the_checked_one(inputs):
    logic, states = inputs
    grammar = compile_grammar(logic, states)
    stated = grammar.__dict__["_indices"]  # there before any read of it
    checked = Grammar(grammar.productions, grammar.symbols)
    assert checked == grammar
    assert checked._indices == stated and checked._indices is not stated
    assert derive(checked) == derive(grammar)
    # The names a compiled grammar reads off its productions and table.
    assert grammar.nonterminals == (logic.name, *logic.atoms)
    assert grammar.terminals == states.labels()
    assert grammar.productions[0].head == logic.name
    m = len(logic.atoms)
    assert supports(logic, states) == tuple(states.matrix[j::m] for j in range(m))


def test_compiled_table_is_br_n_labels_atoms():
    logic, states = resolve_fixture("l12.json")
    labels = states.labels()
    symbols = compile_grammar(logic, states).symbols
    assert symbols == ("br", "n", *labels, *logic.atoms)
    assert all(type(name) is str for name in symbols)
    assert all(map(operator.is_, symbols[2 : 2 + len(labels)], labels))
    derivation = derive(compile_grammar(logic, states))
    assert derivation.symbols == ("br", "n", *labels)
    assert all(type(name) is str for name in derivation.symbols)


def test_row_names_without_a_production_derive_as_terminals():
    grammar = Grammar.from_symbols((("g", ("x",)), ("x", ("s1", "ghost", "br", "n"))))
    assert grammar.terminals == ("s1", "ghost")
    assert grammar.nonterminals == ("g", "x")
    assert derive(grammar).tokens == ("s1", "ghost", "br", "n")
    assert derive(grammar).row_boundaries == (3,)


BASE = one_state_grammar()  # g -> x; x -> s1 br n
G_RULE, X_RULE = BASE.productions
S1, BR, N, X = BASE.symbols  # the head last
STRUCTURAL = {  # id: changed fields, start of the message
    "no productions": (dict(productions=()), "grammar needs at least one production"),
    "head named br": (
        dict(productions=(G_RULE, X_RULE, Production("br", X_RULE.body))),
        r"symbols declared in more than one class: \['br'\]",
    ),
    "head named n": (
        dict(productions=(G_RULE, X_RULE, Production("n", X_RULE.body))),
        r"symbols declared in more than one class: \['n'\]",
    ),
    "heads named br and n": (
        dict(productions=(G_RULE, Production("n", X_RULE.body), Production("br", X_RULE.body))),
        r"symbols declared in more than one class: \['br', 'n'\]",
    ),
    "repeated symbol": (dict(symbols=(S1, BR, N, X, S1)), "symbol table repeats a symbol"),
    "body number past the table": (
        dict(productions=(G_RULE, Production("x", array("I", [1, 4])))),
        "production 'x' names no symbol of the table",
    ),
}


@pytest.mark.parametrize("case", STRUCTURAL)
def test_grammar_structural_validation(case):
    changed, message = STRUCTURAL[case]
    fields = {"productions": BASE.productions, "symbols": BASE.symbols, **changed}
    with pytest.raises(ValueError, match=f"^{message}$"):
        Grammar(**fields)


def test_grammar_requires_one_production_per_nonterminal():
    with pytest.raises(ValueError, match="one production per nonterminal"):
        Grammar((G_RULE, X_RULE, X_RULE), BASE.symbols)


def test_derivation_table_ends_at_the_last_terminal():
    # Table s1, n, x: the head x ends the table and is cut.
    rules = (Production("g", array("I", [2])), Production("x", array("I", [0, 1])))
    trailing = derive(Grammar(rules, ("s1", "n", "x")))
    assert trailing.symbols == ("s1", "n")
    assert trailing.tokens == ("s1", "n")
    # from_symbols lists the heads last; a table with a head before a terminal
    # is refused.
    built = Grammar.from_symbols((("g", ("x",)), ("x", ("s1", "n"))))
    assert built.symbols == ("s1", "n", "x")
    assert derive(built) == trailing
    leading = (Production("g", array("I", [0])), Production("x", array("I", [1, 2])))
    with pytest.raises(ValueError, match="^symbol table lists a head before another symbol$"):
        Grammar(leading, ("x", "s1", "n"))


# Each grammar breaks the flat shape once: the start rule names the row
# heads, once each and in order, and each row names no head and ends with
# its one n.
START_SHAPES = {  # id: rules
    "names a terminal": (("g", ("x", "s1")), ("x", ("s1", "br", "n"))),
    "names only a terminal": (("g", ("x",)),),  # x has no rule: a terminal
    "misses a row": (("g", ("x",)), ("x", ("s1", "n")), ("y", ("s1", "n"))),
    "reorders the rows": (("g", ("y", "x")), ("x", ("s1", "n")), ("y", ("s1", "n"))),
    "names a row twice": (("g", ("x", "x")), ("x", ("s1", "n"))),
    "names itself": (("x", ("x",)),),
}


@pytest.mark.parametrize("case", START_SHAPES)
def test_grammar_rejects_a_start_rule_that_is_not_the_row_heads(case):
    rules = START_SHAPES[case]
    message = f"^start rule '{rules[0][0]}' does not name each row head once, in order$"
    with pytest.raises(ValueError, match=message):
        Grammar.from_symbols(rules)


HEAD_IN_ROW = {  # id: rules, the row and the head it names
    "two-rule cycle": ((("x", ("y",)), ("y", ("x",))), "y", "x"),
    "self-reference": ((("g", ("x",)), ("x", ("x", "n"))), "x", "x"),
    "cycle below a prefix": (
        (("g", ("x", "y", "z")), ("x", ("y", "n")), ("y", ("z", "n")), ("z", ("y", "n"))),
        "x",
        "y",
    ),
    "nested row": ((("g", ("x", "y")), ("x", ("s1", "y", "n")), ("y", ("s1", "n"))), "x", "y"),
    "the start symbol": ((("g", ("x",)), ("x", ("s1", "g", "n"))), "x", "g"),
}


@pytest.mark.parametrize("case", HEAD_IN_ROW)
def test_grammar_rejects_a_row_that_names_a_head(case):
    rules, row, head = HEAD_IN_ROW[case]
    with pytest.raises(ValueError, match=f"^row '{row}' names nonterminal '{head}'$"):
        Grammar.from_symbols(rules)


LINEBREAK_SHAPES = {  # id: the body of row x
    "missing": ("s1", "br"),
    "empty row": (),
    "not last": ("s1", "n", "br"),
    "first": ("n", "s1"),
    "twice": ("s1", "n", "n"),
}


@pytest.mark.parametrize("case", LINEBREAK_SHAPES)
def test_grammar_rejects_a_row_without_n_as_its_one_last_token(case):
    rules = (("g", ("x",)), ("x", LINEBREAK_SHAPES[case]))
    with pytest.raises(ValueError, match="^row 'x' does not hold n once, as its last token$"):
        Grammar.from_symbols(rules)


# ---------------------------------------------------------- incidence


def test_incidence_holds_for_the_fixtures():
    for name in ("l12.json", "triangle.json", "example_a.json"):
        logic, states = resolve_fixture(name)
        derivation = derive(compile_grammar(logic, states))
        report = check_incidence(derivation, logic, states)
        assert report.ok
        assert report.violations == ()


def test_incidence_detects_swapped_rows():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    rows = symbol_rows(derivation)
    rows[1], rows[2] = rows[2], rows[1]  # swap rows b and c
    report = check_incidence(from_rows(rows), logic, states)
    assert not report.ok
    assert len(report.violations) == 2
    assert {logic.atoms[v.row_index] for v in report.violations} == {"b", "c"}
    # swapping b and c misplaces their symmetric support difference
    assert set(report.violations[0].labels) == {"s3", "s4", "s5"}


def test_incidence_holds_for_a_one_state_grammar():
    # a single admissible state still separates x from y (support {s1} vs {})
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet(state_matrix([(1, 0)]), 2)
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    assert list(derivation.tokens) == ["s1", "br", "n", "br", "s1", "n"]
    assert check_incidence(derivation, logic, states).ok


def test_incidence_row_count_mismatch_is_a_precondition_breach():
    derivation = derive(one_state_grammar())
    single = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = enumerate_states(single)
    with pytest.raises(ValueError, match="rows"):
        check_incidence(derivation, single, states)


def test_incidence_rejects_state_vectors_shorter_than_the_atoms():
    # Two atoms and two rows, but each state values a single atom.
    logic = PartitionLogic("logic", ("a", "b"), ((0, 1),))
    states = StateSet(state_matrix([(1, 0), (0, 1)]), 2)
    derivation = derive(compile_grammar(logic, states))
    short = StateSet(state_matrix([(1,), (0,)]), 1)
    with pytest.raises(ValueError, match="^state s1 has a 1-value vector for 2 atoms$"):
        check_incidence(derivation, logic, short)


def test_incidence_rejects_rows_missing_a_separator():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    tokens = tuple("s1" if name == "br" else name for name in derivation.tokens)
    broken = Derivation.from_tokens(tokens)
    with pytest.raises(ValueError, match="separator"):
        check_incidence(broken, logic, states)


def test_incidence_rejects_a_nonterminal_named_like_a_state_symbol():
    # Row a with s1 moved right of br and s1 put at its left again, as a
    # nonterminal named s1 once was: a row holding s1 on both sides.
    logic, states = resolve_fixture("l12.json")
    rows = symbol_rows(derive(compile_grammar(logic, states)))
    s1 = rows[0].pop(0)
    assert rows[0] == ["s2", "br", "s3", "s4", "s5"]
    rows[0] = ["s1", *rows[0], s1]
    message = "^row 0 does not carry each state symbol exactly once$"
    with pytest.raises(ValueError, match=message):
        check_incidence(from_rows(rows), logic, states)


def test_incidence_rejects_token_numbers_past_the_symbol_table():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    indices = array("I", derivation.indices)
    past = len(derivation.symbols) + 3
    indices[derivation.row_boundaries[1] + 1] = past  # row 2 opens with s5
    broken = Derivation(derivation.symbols, indices)
    with pytest.raises(ValueError, match=f"^row 2 names symbol number {past}, "):
        check_incidence(broken, logic, states)


def test_incidence_passes_a_row_whose_sides_are_out_of_order():
    # Not the row the compiler writes, so it is walked; its sides hold the right sets.
    logic, states = resolve_fixture("l12.json")
    rows = symbol_rows(derive(compile_grammar(logic, states)))
    assert rows[0] == ["s1", "s2", "br", "s3", "s4", "s5"]
    rows[0] = ["s2", "s1", "br", "s5", "s3", "s4"]
    assert check_incidence(from_rows(rows), logic, states).ok


def test_incidence_with_br_twice_in_the_table_reads_both_as_the_separator():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    symbols = (*derivation.symbols, "br")  # a second br, as a hand-built table may hold
    indices = array("I", derivation.indices)
    cut = derivation.row_boundaries[0] + 1 + 2  # row 1 is s3, s4, br, ...
    assert derivation.symbols[indices[cut]] == "br"
    indices[cut] = len(symbols) - 1
    twice = Derivation(symbols, indices)
    assert _outcome(check_incidence, twice, logic, states) == IncidenceReport(())
    assert _outcome(incidence_by_token_walk, twice, logic, states) == IncidenceReport(())
    # Both numbers in one row are two separators; the walk says so.
    indices[cut - 1] = 0
    twice = Derivation(symbols, indices)
    message = "ValueError: row 1 does not contain exactly one separator"
    assert _outcome(check_incidence, twice, logic, states) == message
    assert _outcome(incidence_by_token_walk, twice, logic, states) == message


def test_incidence_walks_rows_against_states_not_of_0_and_1():
    # A trusted state set is not checked: a 2 makes every row be walked.
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    matrix = bytearray(states.matrix)
    matrix[0] = 2  # s1's value of atom a
    odd = StateSet._trusted(bytes(matrix), states.width)
    report = check_incidence(derivation, logic, odd)
    assert report == IncidenceReport((RowViolation(0, ("s1",)),))
    assert report == incidence_by_token_walk(derivation, logic, odd)


@pytest.mark.parametrize(
    "inputs",
    [
        lambda: chain_inputs(16),
        lambda: resolve_states(
            parse_logic_file(json.dumps(random_base_set_spec(random.Random(0), 48, 400)))
        ),
    ],
    ids=["chain16", "base48x400"],
)
def test_check_incidence_holds_no_copy_of_the_tokens(inputs):
    # Two sets per row and a byte copy of it peaked at 2.15 times the token
    # bytes on chain-16; rows compared with the one the definition writes,
    # at 0.53: the table lookup made once per call. On 48 points, about
    # 1,400 short rows, a list of every row's view read 1.20 times the
    # token bytes; views made as the rows are read, 0.24.
    logic, states = inputs()
    derivation = derive(compile_grammar(logic, states))
    token_bytes = len(derivation.indices) * 4
    assert traced_peak(check_incidence, derivation, logic, states) < token_bytes * 2 / 3


def test_check_incidence_numbers_a_compiled_tables_labels_without_a_map(monkeypatch):
    # A compiled table is br, n, s1..sN, so label i is symbol i + 2: what a map
    # of the table's names to their numbers would give. Only a table in
    # another order, here the order of first use, is looked up in one.
    logic, states = chain_inputs(16)
    derivation = derive(compile_grammar(logic, states))
    maps = []

    def counted_dict(*args):
        maps.append(args)
        return dict(*args)

    monkeypatch.setattr(sglg.grammar, "dict", counted_dict, raising=False)
    assert check_incidence(derivation, logic, states).ok
    assert maps == []
    assert check_incidence(Derivation.from_tokens(derivation.tokens), logic, states).ok
    assert len(maps) == 1


def test_incidence_property_on_random_logics():
    rng = random.Random(8128)
    for _ in range(60):
        logic, states = random_separating_logic(rng)
        derivation = derive(compile_grammar(logic, states))
        assert check_incidence(derivation, logic, states).ok


def test_distinct_support_tables_give_distinct_productions():
    rng = random.Random(6174)
    seen: dict[tuple, tuple] = {}
    for _ in range(60):
        logic, states = random_separating_logic(rng)
        key = tuple((atom, true_labels(logic, states, atom)) for atom in logic.atoms)
        rows = listing(compile_grammar(logic, states))[1:]
        if key in seen:
            assert seen[key] == rows
        else:
            assert rows not in seen.values()
            seen[key] = rows


def incidence_by_token_walk(derivation, logic, states):
    """Reference: the per-token loop that check_incidence used to run."""
    rows = symbol_rows(derivation)
    if len(rows) != len(logic.atoms):
        raise ValueError(
            f"derivation has {len(rows)} rows for {len(logic.atoms)} atoms"
        )
    labels = sorted(states.labels())
    labeled = list(zip(states.labels(), state_vectors(states)))
    violations = []
    for j, row in enumerate(rows):
        separators = [k for k, name in enumerate(row) if name == "br"]
        if len(separators) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        if sorted(name for name in row if name != "br") != labels:
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        left = set(row[: separators[0]])
        mismatched = tuple(
            label
            for label, values in labeled
            if (label in left) != (values[j] == 1)
        )
        if mismatched:
            violations.append(RowViolation(j, mismatched))
    return IncidenceReport(tuple(violations))


def _outcome(check, derivation, logic, states):
    try:
        return check(derivation, logic, states)
    except ValueError as exc:
        return f"ValueError: {exc}"


SEPARATOR = "br"


def _damage(rows: list[list[str]], how: str, rng: random.Random) -> None:
    """Damage one row (two for a swap) of a compiled derivation in place."""
    if how == "swap rows" and len(rows) > 1:
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
        return
    row = rng.choice(rows)
    if SEPARATOR not in row:
        return
    cut = row.index(SEPARATOR)
    states_at = [k for k, name in enumerate(row) if name != SEPARATOR]
    if not states_at:
        return
    k = rng.choice(states_at)
    if how == "move across separator":
        sym = row.pop(k)
        cut = row.index(SEPARATOR)
        row.insert(rng.randint(cut + 1, len(row)) if k <= cut else rng.randint(0, cut), sym)
    elif how == "no separator":
        del row[cut]
    elif how == "two separators":
        row.insert(rng.randint(0, len(row)), SEPARATOR)
    elif how == "label missing":
        del row[k]
    elif how == "label repeated":
        row.insert(rng.randint(0, len(row)), row[k])
    elif how == "label replaced by another":  # one label twice, one missing
        row[k] = row[rng.choice(states_at)]
    elif how == "label repeated left of separator":
        row.insert(rng.randint(0, cut), row[k])
    elif how == "states reordered":
        rng.shuffle(row)
    elif how == "one side reversed":  # the sets stay right, the order not
        side = slice(0, cut) if rng.random() < 0.5 else slice(cut + 1, len(row))
        row[side] = row[side][::-1]


DAMAGES = (
    "none",
    "swap rows",
    "move across separator",
    "no separator",
    "two separators",
    "label missing",
    "label repeated",
    "label replaced by another",
    "label repeated left of separator",
    "states reordered",
    "one side reversed",
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    damages=st.lists(st.sampled_from(DAMAGES), min_size=1, max_size=3),
    pinned=st.booleans(),
)
def test_check_incidence_equals_the_token_walk(seed, damages, pinned):
    rng = random.Random(seed)
    logic, states = random_separating_logic(rng, max_atoms=10)
    if pinned:  # compile from a shuffled state order, check against the canonical one
        vectors = list(state_vectors(states))
        rng.shuffle(vectors)
        compiled = StateSet(state_matrix(vectors), states.width)
    else:
        compiled = states
    derivation = derive(compile_grammar(logic, compiled))
    rows = symbol_rows(derivation)
    for how in damages:
        _damage(rows, how, rng)
    damaged = from_rows(rows)
    expected = _outcome(incidence_by_token_walk, damaged, logic, states)
    assert _outcome(check_incidence, damaged, logic, states) == expected
    if damages == ["none"] and not pinned:
        assert expected == IncidenceReport(())


# ------------------------------------------------------------- listings


def test_production_text_golden_for_l12():
    logic, states = resolve_fixture("l12.json")
    text = production_text(compile_grammar(logic, states))
    assert text == (
        "v_logic --> a,b,c,d,e.\n"
        "\n"
        "a --> s1,s2,br,s3,s4,s5,n.\n"
        "b --> s3,s4,br,s1,s2,s5,n.\n"
        "c --> s5,br,s1,s2,s3,s4,n.\n"
        "d --> s2,s4,br,s1,s3,s5,n.\n"
        "e --> s1,s3,br,s2,s4,s5,n.\n"
    )


def test_productions_json_round_trips():
    logic, states = resolve_fixture("triangle.json")
    grammar = compile_grammar(logic, states)
    payload = json.loads(productions_json(grammar))
    assert payload["triangle_logic"] == ["a", "b", "c", "d", "e", "f"]
    assert payload["f"] == ["s2", "s4", "br", "s1", "s3", "n"]
    assert list(payload) == [p.head for p in grammar.productions]


@settings(max_examples=300, deadline=None)
@given(hostile_flat_grammars())
def test_json_chunks_join_to_the_json_dumps_text(grammar):
    payload = {head: list(body) for head, body in listing(grammar)}
    expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    chunks = list(production_json_chunks(grammar))
    assert "".join(chunks) == expected
    assert productions_json(grammar) == expected
    assert len(chunks) == len(grammar.productions) + 1  # and the closing brace


def test_json_listing_of_a_start_rule_alone():
    grammar = Grammar.from_symbols((("g", ()),))
    assert productions_json(grammar) == '{\n  "g": []\n}\n'


def test_parse_production_listing_round_trips():
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    parsed = parse_production_listing(production_text(grammar))
    assert parsed == listing(grammar)


def test_parse_production_listing_skips_bracketed_rules():
    text = "g --> x.\n\nx --> s1,br,n.\n\ns1 --> [ #008000 ].\nn  --> [\\n].\n"
    parsed = parse_production_listing(text)
    assert parsed == (("g", ("x",)), ("x", ("s1", "br", "n")))


def test_parse_production_listing_rejects_garbage():
    with pytest.raises(LogicFileError, match="line 2"):
        parse_production_listing("g --> x.\nwhat is this\n")
