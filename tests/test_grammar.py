"""Grammar compilation, derivation, incidence checking, and listings."""

from __future__ import annotations

import json
import random
import re
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sglg import (
    CyclicGrammarError,
    Derivation,
    EmptyStateSetError,
    Grammar,
    IncidenceReport,
    LogicFileError,
    NotSeparatingError,
    PartitionLogic,
    Production,
    RowViolation,
    StateOrder,
    StateSet,
    Symbol,
    SymbolKind,
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
from support import (
    body_names,
    chain_spec,
    listing,
    one_state_grammar,
    parse_production_listing,
    random_base_set_spec,
    random_separating_logic,
    resolve_fixture,
    state_vectors,
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


def symbol_rows(derivation: Derivation) -> list[list[Symbol]]:
    """The derivation's rows with one ``Symbol`` per token."""
    return [[derivation.symbols[i] for i in row] for row in derivation.rows()]


def from_rows(rows: list[list[Symbol]]) -> Derivation:
    """A derivation of ``rows``, each ended by a linebreak."""
    tokens, boundaries = [], []
    for row in rows:
        tokens.extend(row)
        boundaries.append(len(tokens))
        tokens.append(Symbol(SymbolKind.LINEBREAK, "n"))
    return Derivation.from_tokens(tokens, boundaries)


def derivation_content(derivation: Derivation):
    """What a derivation says, whatever the numbering of its table."""
    return derivation.tokens, derivation.row_boundaries


# ------------------------------------------------------------ compilation


def test_l12_grammar_matches_the_golden_rows():
    logic, states = resolve_fixture("l12.json")
    grammar = compile_grammar(logic, states)
    assert grammar.start == "v_logic"
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
    with pytest.raises(EmptyStateSetError):
        compile_grammar(logic, states)


def test_compile_rejects_non_separating_states_with_witness():
    logic = PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (0, 2)))
    with pytest.raises(NotSeparatingError) as excinfo:
        compile_grammar(logic, enumerate_states(logic))
    assert excinfo.value.witness == ("y", "z")


def test_compile_rejects_inadmissible_states():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet.from_vectors([(1, 1), (1, 0)], StateOrder.PINNED)
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
    states = StateSet.from_vectors(vectors, StateOrder.PINNED)
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
    assert [sym.name for sym in rows[3]] == ["s2", "s4", "br", "s1", "s3", "s5"]


def test_triangle_derivation_has_36_tokens_and_6_rows():
    logic, states = resolve_fixture("triangle.json")
    derivation = derive(compile_grammar(logic, states))
    assert len(derivation.tokens) == 36
    assert len(derivation.rows()) == 6


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
    rows = derivation.rows()
    assert len(rows) == len(atoms)
    assert all(type(row) is array and row.typecode == "I" for row in rows)


def test_one_state_grammar_derivation():
    derivation = derive(one_state_grammar())
    assert [sym.name for sym in derivation.tokens] == ["s1", "br", "n"]
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
            names = [sym.name for sym in row]
            assert names.count("br") == 1
            assert sorted(n for n in names if n != "br") == sorted(states.labels())


# --------------------------------------------------------------- validity


def test_grammar_rejects_cycles():
    x = Symbol(SymbolKind.NONTERMINAL, "x")
    y = Symbol(SymbolKind.NONTERMINAL, "y")
    with pytest.raises(CyclicGrammarError):
        Grammar.from_symbols((("x", (y,)), ("y", (x,))))


def test_grammar_rejects_self_reference():
    x = Symbol(SymbolKind.NONTERMINAL, "x")
    with pytest.raises(CyclicGrammarError):
        Grammar.from_symbols((("x", (x,)),))


def derive_by_recursion(grammar: Grammar) -> Derivation:
    """The reference expansion: recursive leftmost rewriting, one token at a time."""
    tokens: list[Symbol] = []

    def expand(symbol: Symbol) -> None:
        if symbol.kind is not SymbolKind.NONTERMINAL:
            tokens.append(symbol)
            return
        for child in grammar.production_for(symbol.name).body:
            expand(grammar.symbols[child])

    expand(Symbol(SymbolKind.NONTERMINAL, grammar.start))
    boundaries = tuple(
        i for i, sym in enumerate(tokens) if sym.kind is SymbolKind.LINEBREAK
    )
    return Derivation.from_tokens(tokens, boundaries)


@st.composite
def acyclic_grammars(draw) -> Grammar:
    """Nonterminals x0..xk; x_i's body may name x_j only for j > i."""
    count = draw(st.integers(1, 6))
    names = [f"x{i}" for i in range(count)]
    productions = []
    for i, name in enumerate(names):
        choices = [
            Symbol(SymbolKind.STATE, "s1"),
            Symbol(SymbolKind.STATE, "s2"),
            Symbol(SymbolKind.SEPARATOR, "br"),
            Symbol(SymbolKind.LINEBREAK, "n"),
            *(Symbol(SymbolKind.NONTERMINAL, later) for later in names[i + 1 :]),
        ]
        body = draw(st.lists(st.sampled_from(choices), max_size=8))
        productions.append((name, tuple(body)))
    return Grammar.from_symbols(productions)


@settings(max_examples=200, deadline=None)
@given(acyclic_grammars())
def test_derive_equals_recursive_expansion(grammar):
    assert derivation_content(derive(grammar)) == derivation_content(
        derive_by_recursion(grammar)
    )


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
def test_compiled_layout_equals_the_scanned_one(inputs):
    logic, states = inputs
    grammar = compile_grammar(logic, states)
    stated = grammar.__dict__["_layout"]  # there before any read of it
    scanned = Grammar(grammar.productions, grammar.symbols)
    assert scanned == grammar
    assert scanned._layout == stated
    assert derive(scanned) == derive(grammar)
    # The names a compiled grammar reads off its productions and table.
    assert grammar.nonterminals == (logic.name, *logic.atoms)
    assert grammar.terminals == states.labels()
    assert grammar.start == logic.name
    assert supports(logic, states) == states.columns


def test_first_undeclared_symbol_in_production_order_is_named():
    s1 = Symbol(SymbolKind.STATE, "s1")
    x, y, z = (Symbol(SymbolKind.NONTERMINAL, name) for name in "xyz")
    with pytest.raises(ValueError, match="^undeclared nonterminal 'y'$"):
        Grammar.from_symbols((("g", (s1, x, y)), ("x", (z,))))


def nonterminal_chain(depth: int, cyclic: bool) -> Grammar:
    """g -> x0, x_i -> x_(i+1), and x_(depth-1) -> s1 br n, or -> x0 if cyclic."""
    names = [f"x{i}" for i in range(depth)]
    refs = [Symbol(SymbolKind.NONTERMINAL, name) for name in names]
    last = (refs[0],) if cyclic else (
        Symbol(SymbolKind.STATE, "s1"),
        Symbol(SymbolKind.SEPARATOR, "br"),
        Symbol(SymbolKind.LINEBREAK, "n"),
    )
    bodies = [(ref,) for ref in refs[1:]] + [last]
    return Grammar.from_symbols((("g", (refs[0],)), *zip(names, bodies)))


def test_nonterminal_chain_deeper_than_the_recursion_limit_derives():
    depth = 1500
    assert depth > sys.getrecursionlimit()
    derivation = derive(nonterminal_chain(depth, cyclic=False))
    assert [sym.name for sym in derivation.tokens] == ["s1", "br", "n"]
    assert derivation.row_boundaries == (2,)


def test_long_cycle_is_rejected_naming_a_nonterminal_on_it():
    depth = 1500
    assert depth > sys.getrecursionlimit()
    with pytest.raises(CyclicGrammarError) as info:
        nonterminal_chain(depth, cyclic=True)
    named = re.fullmatch(r"nonterminal '(\w+)' derives itself", str(info.value))
    assert named is not None
    assert named.group(1) in {f"x{i}" for i in range(depth)}


def test_cycle_below_an_acyclic_prefix_names_a_nonterminal_on_the_cycle():
    x, y, z = (Symbol(SymbolKind.NONTERMINAL, name) for name in "xyz")
    with pytest.raises(CyclicGrammarError, match="^nonterminal 'y' derives itself$"):
        Grammar.from_symbols((("x", (y,)), ("y", (z,)), ("z", (y,))))


BASE = one_state_grammar()  # g -> x; x -> s1 br n
G_RULE, X_RULE = BASE.productions
X, S1, BR, N = BASE.symbols
STRUCTURAL = {  # id: changed fields, start of the message
    "no productions": (dict(productions=()), "grammar needs at least one production"),
    "head named br": (
        dict(productions=(G_RULE, X_RULE, Production("br", X_RULE.body))),
        r"symbols declared in more than one class: \['br'\]",
    ),
    "state named like a head": (
        dict(symbols=(X, Symbol(SymbolKind.STATE, "g"), BR, N)),
        r"symbols declared in more than one class: \['g'\]",
    ),
    "state named br": (
        dict(symbols=(X, Symbol(SymbolKind.STATE, "br"), BR, N)),
        r"symbols declared in more than one class: \['br'\]",
    ),
    "separator misnamed": (
        dict(symbols=(X, S1, Symbol(SymbolKind.SEPARATOR, "sep"), N)),
        "separator symbol must be named 'br'",
    ),
    "linebreak misnamed": (
        dict(symbols=(X, S1, BR, Symbol(SymbolKind.LINEBREAK, "nl"))),
        "linebreak symbol must be named 'n'",
    ),
    "repeated symbol": (dict(symbols=(X, S1, BR, N, S1)), "symbol table repeats a symbol"),
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
    with pytest.raises(ValueError, match="^undeclared nonterminal 'x'$"):
        Grammar((G_RULE,), BASE.symbols)


def test_grammar_rejects_undeclared_body_symbols():
    ghost = Symbol(SymbolKind.NONTERMINAL, "ghost")
    with pytest.raises(ValueError, match="undeclared nonterminal"):
        Grammar.from_symbols((("g", (ghost,)),))


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
    assert {v.atom for v in report.violations} == {"b", "c"}
    # swapping b and c misplaces their symmetric support difference
    assert set(report.violations[0].labels) == {"s3", "s4", "s5"}


def test_incidence_holds_for_a_one_state_grammar():
    # a single admissible state still separates x from y (support {s1} vs {})
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    states = StateSet.from_vectors([(1, 0)], StateOrder.PINNED)
    grammar = compile_grammar(logic, states)
    derivation = derive(grammar)
    assert [sym.name for sym in derivation.tokens] == ["s1", "br", "n", "br", "s1", "n"]
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
    states = StateSet.from_vectors([(1, 0), (0, 1)], StateOrder.PINNED)
    derivation = derive(compile_grammar(logic, states))
    short = StateSet.from_vectors([(1,), (0,)], StateOrder.PINNED)
    with pytest.raises(ValueError, match="^state s1 has a 1-value vector for 2 atoms$"):
        check_incidence(derivation, logic, short)


def test_incidence_rejects_rows_missing_a_separator():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    tokens = tuple(
        Symbol(SymbolKind.STATE, "s1") if sym.kind is SymbolKind.SEPARATOR else sym
        for sym in derivation.tokens
    )
    broken = Derivation.from_tokens(tokens, derivation.row_boundaries)
    with pytest.raises(ValueError, match="separator"):
        check_incidence(broken, logic, states)


def test_incidence_rejects_a_nonterminal_named_like_a_state_symbol():
    # Row a with s1 moved right of br and a nonterminal named s1 put at its
    # left once passed: the tokens left of the cut were read by name.
    logic, states = resolve_fixture("l12.json")
    rows = symbol_rows(derive(compile_grammar(logic, states)))
    s1 = rows[0].pop(0)
    assert [sym.name for sym in rows[0]] == ["s2", "br", "s3", "s4", "s5"]
    rows[0] = [Symbol(SymbolKind.NONTERMINAL, "s1"), *rows[0], s1]
    message = "^row 0 does not carry each state symbol exactly once$"
    with pytest.raises(ValueError, match=message):
        check_incidence(from_rows(rows), logic, states)


def test_incidence_rejects_token_numbers_past_the_symbol_table():
    logic, states = resolve_fixture("l12.json")
    derivation = derive(compile_grammar(logic, states))
    indices = array("I", derivation.indices)
    past = len(derivation.symbols) + 3
    indices[derivation.row_boundaries[1] + 1] = past  # row 2 opens with s5
    broken = Derivation(derivation.symbols, indices, derivation.row_boundaries)
    with pytest.raises(ValueError, match=f"^row 2 names symbol number {past}, "):
        check_incidence(broken, logic, states)


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
        separators = [k for k, sym in enumerate(row) if sym.kind is SymbolKind.SEPARATOR]
        if len(separators) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        others = [sym for sym in row if sym.kind is not SymbolKind.SEPARATOR]
        kinds = {sym.kind for sym in others}
        if kinds - {SymbolKind.STATE} or sorted(sym.name for sym in others) != labels:
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        cut = separators[0]
        left = {sym.name for sym in row[:cut]}
        atom = logic.atoms[j]
        mismatched = tuple(
            label
            for label, values in labeled
            if (label in left) != (values[j] == 1)
        )
        if mismatched:
            violations.append(RowViolation(j, atom, mismatched))
    return IncidenceReport(tuple(violations))


def _outcome(check, derivation, logic, states):
    try:
        return check(derivation, logic, states)
    except ValueError as exc:
        return f"ValueError: {exc}"


SEPARATOR = Symbol(SymbolKind.SEPARATOR, "br")


def _damage(rows: list[list[Symbol]], how: str, rng: random.Random) -> None:
    """Damage one row (two for a swap) of a compiled derivation in place."""
    if how == "swap rows" and len(rows) > 1:
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
        return
    row = rng.choice(rows)
    if SEPARATOR not in row:
        return
    cut = row.index(SEPARATOR)
    states_at = [k for k, sym in enumerate(row) if sym.kind is SymbolKind.STATE]
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
    elif how == "nonterminal left of separator":
        row.insert(rng.randint(0, cut), Symbol(SymbolKind.NONTERMINAL, row[k].name))
    elif how == "states reordered":
        rng.shuffle(row)


DAMAGES = (
    "none",
    "swap rows",
    "move across separator",
    "no separator",
    "two separators",
    "label missing",
    "label repeated",
    "label replaced by another",
    "nonterminal left of separator",
    "states reordered",
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
        compiled = StateSet.from_vectors(vectors, StateOrder.PINNED)
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
