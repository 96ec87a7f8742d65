"""Logic parsing, state enumeration, supports, partition representations."""

from __future__ import annotations

import json
import random
import re
from itertools import chain, combinations, product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sglg import (
    BaseSetSpec,
    LogicFileError,
    NotSeparatingError,
    PartitionLogic,
    StateSet,
    ValidationError,
    enumerate_states,
    is_admissible,
    is_separating,
    logic_from_partitions,
    parse_logic_file,
    partition_representation,
    pinned_state_set,
    resolve_states,
    supports,
)
from sglg import logic as logic_module
from sglg.cli import format_state_table
from sglg.grammar import compile_grammar
from sglg.logic import (
    _BLOCK,
    _bit_rows,
    _clash,
    _WINDOW,
    _parse_pinned_states,
    _read_object,
    _read_table,
    _state_count,
    _state_masks,
)
from support import (
    FIXTURES,
    L12_TABLE,
    TRIANGLE_TABLE,
    brute_force_states,
    chain_spec,
    false_labels,
    load_fixture,
    random_base_set_spec,
    random_logic,
    reference_state_masks,
    reference_state_table,
    resolve_fixture,
    separating_by_oracle,
    state_matrix,
    state_vectors,
    traced_peak,
    true_labels,
)


def small_logic(contexts, atoms=("x", "y", "z")):
    used = sorted({j for ctx in contexts for j in ctx})
    return PartitionLogic("logic", tuple(atoms[: used[-1] + 1]), tuple(contexts))


# ---------------------------------------------------------------- parsing


def test_parse_hypergraph_mode_l12():
    logic = parse_logic_file(
        json.dumps(
            {
                "atoms": ["a", "b", "c", "d", "e"],
                "contexts": [["a", "b", "c"], ["c", "d", "e"]],
            }
        )
    ).source
    assert isinstance(logic, PartitionLogic)
    assert logic.name == "logic"  # default when the file gives none
    assert logic.atoms == ("a", "b", "c", "d", "e")
    assert logic.contexts == ((0, 1, 2), (2, 3, 4))
    assert tuple(logic.atoms[j] for j in logic.contexts[1]) == ("c", "d", "e")


def test_parse_smallest_legal_logic():
    logic = parse_logic_file('{"atoms": ["x", "y"], "contexts": [["x", "y"]]}').source
    assert logic.atoms == ("x", "y")
    assert logic.contexts == ((0, 1),)


def test_parse_base_set_mode():
    spec = parse_logic_file(
        json.dumps(
            {
                "base_set": [1, 2, 3],
                "partitions": [[[1], [2, 3]], [[2], [1, 3]], [[3], [1, 2]]],
            }
        )
    ).source
    assert isinstance(spec, BaseSetSpec)
    assert spec.base_set == (1, 2, 3)
    assert len(spec.partitions) == 3


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{", "invalid JSON"),
        ("[]", "top level"),
        ('{"contexts": [["a", "b"]]}', "either 'atoms' or 'base_set'"),
        (
            '{"atoms": ["a"], "base_set": [1], "contexts": [], "partitions": []}',
            "mixes both",
        ),
        ('{"atoms": ["a", "b"], "contexts": [["a", "b"]], "bogus": 1}', "unknown keys"),
        pytest.param(  # the id names the case, not the whole message
            '{"atoms": ["a", "a"], "contexts": [["a"]]}', "atoms[1]: duplicate atom name 'a'",
            id='{"atoms": ["a", "a"], "contexts": [["a"]]}-duplicate atom',
        ),
        ('{"atoms": ["a", "b"], "contexts": [["a"]]}', "fewer than 2"),
        ('{"atoms": ["a", "b"], "contexts": [["a", "q"]]}', "unknown atom 'q'"),
        ('{"atoms": ["a", "b", "c"], "contexts": [["a", "b"]]}', "no context"),
        (
            '{"atoms": ["a", "b", "c"], "contexts": [["a", "b", "c"], ["a", "b"]]}',
            "nested",
        ),
        ('{"name": "2bad", "atoms": ["a", "b"], "contexts": [["a", "b"]]}', "identifier"),
        ('{"atoms": ["a", "b"], "contexts": [["a", "b", "a"]]}', "repeats"),
        (
            '{"base_set": [1, 2], "partitions": [[[1], [1, 2]]]}',
            "disjoint",
        ),
        (
            '{"base_set": [1, 2, 3], "partitions": [[[1], [2]]]}',
            "cover",
        ),
        (
            '{"base_set": [1, 2], "partitions": [[[1], [2], []]]}',
            "empty",
        ),
        (
            '{"base_set": [1, 2], "partitions": [[[1], [2, 7]]]}',
            "not in the base set",
        ),
    ],
)
def test_parse_rejects_malformed_input(payload, fragment):
    with pytest.raises(LogicFileError) as excinfo:
        parse_logic_file(payload)
    assert fragment in str(excinfo.value)


def test_parse_error_carries_location():
    with pytest.raises(LogicFileError) as excinfo:
        parse_logic_file('{"atoms": ["a", "b"], "contexts": [["a", "b"], ["a", "z"]]}')
    assert excinfo.value.location == "contexts[1]"


def test_palette_key_is_parsed_and_validated():
    good = parse_logic_file(
        '{"atoms": ["x", "y"], "contexts": [["x", "y"]],'
        ' "palette": {"s1": "#112233", "s2": "#AABBCC"}}'
    )
    assert good.palette == {"s1": "#112233", "s2": "#AABBCC"}
    with pytest.raises(LogicFileError, match="RRGGBB"):
        parse_logic_file(
            '{"atoms": ["x", "y"], "contexts": [["x", "y"]], "palette": {"s1": "red"}}'
        )


# ------------------------------------------------------------ enumeration


def test_l12_enumeration_matches_table_as_set():
    logic, _ = resolve_fixture("l12.json")
    enumerated = enumerate_states(logic)
    assert set(state_vectors(enumerated)) == set(L12_TABLE)
    assert len(enumerated) == 5


def test_triangle_enumeration_is_table_ii_in_order():
    logic, _ = resolve_fixture("triangle.json")
    enumerated = enumerate_states(logic)
    # For the triangle the canonical order coincides with the printed table.
    assert state_vectors(enumerated) == TRIANGLE_TABLE


def test_single_context_enumeration():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    states = enumerate_states(logic)
    assert state_vectors(states) == ((1, 0), (0, 1))
    assert states.labels() == ("s1", "s2")


def test_three_disjoint_binary_contexts_give_eight_states():
    logic = PartitionLogic(
        "logic",
        ("a", "b", "c", "d", "e", "f"),
        ((0, 1), (2, 3), (4, 5)),
    )
    states = enumerate_states(logic)
    assert len(states) == 8
    assert set(state_vectors(states)) == brute_force_states(logic)


def test_enumeration_can_be_empty():
    # A 3-cycle of 2-atom contexts admits no two-valued state at all.
    logic = small_logic([(0, 1), (1, 2), (2, 0)])
    assert len(enumerate_states(logic)) == 0


def test_canonical_order_is_descending_lexicographic():
    rng = random.Random(4212)
    for _ in range(40):
        logic = random_logic(rng)
        states = enumerate_states(logic)
        vectors = list(state_vectors(states))
        assert vectors == sorted(vectors, reverse=True)
        assert states.labels() == tuple(f"s{i + 1}" for i in range(len(vectors)))


def test_enumeration_agrees_with_brute_force_oracle_up_to_12_atoms():
    rng = random.Random(90125)
    for _ in range(60):
        logic = random_logic(rng, max_atoms=12)
        assert set(state_vectors(enumerate_states(logic))) == brute_force_states(logic)


def test_every_enumerated_state_is_admissible():
    rng = random.Random(777)
    for _ in range(60):
        logic = random_logic(rng)
        for values in state_vectors(enumerate_states(logic)):
            assert is_admissible(values, logic)
            for ctx in logic.contexts:
                assert sum(values[j] for j in ctx) == 1


@st.composite
def context_lists(draw, max_atoms: int, max_contexts: int):
    """Atom count and contexts of distinct atoms, size >= 2, covering every atom.

    Contexts may nest; atoms no context names are dropped and the rest
    renumbered in order.
    """
    m = draw(st.integers(2, max_atoms))
    raw = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), min_size=2, max_size=min(m, 5), unique=True),
            min_size=1,
            max_size=max_contexts,
        )
    )
    covered = sorted({j for ctx in raw for j in ctx})
    remap = {j: i for i, j in enumerate(covered)}
    return len(covered), [tuple(remap[j] for j in ctx) for ctx in raw]


def atom_names(m: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(m))


@st.composite
def logics(draw, max_atoms: int):
    """Valid logics: a context nested with one kept before it is dropped."""
    m, raw = draw(context_lists(max_atoms, max_contexts=8))
    contexts: list[tuple[int, ...]] = []
    for ctx in raw:
        if not any(set(ctx) <= set(kept) or set(kept) <= set(ctx) for kept in contexts):
            contexts.append(ctx)
    covered = sorted({j for ctx in contexts for j in ctx})
    remap = {j: i for i, j in enumerate(covered)}
    return PartitionLogic(
        "logic",
        atom_names(len(covered)),
        tuple(tuple(remap[j] for j in ctx) for ctx in contexts),
    )


@settings(max_examples=60, deadline=None)
@given(logics(max_atoms=14))
def test_enumeration_is_the_descending_brute_force_in_order(logic):
    # product((1, 0), ...) runs through all 2^M vectors in descending order.
    expected = tuple(
        bits
        for bits in product((1, 0), repeat=len(logic.atoms))
        if all(sum(bits[j] for j in ctx) == 1 for ctx in logic.contexts)
    )
    assert state_vectors(enumerate_states(logic)) == expected


def first_nested_by_pairs(contexts) -> tuple[int, int] | None:
    for ci, cj in combinations(range(len(contexts)), 2):
        a, b = set(contexts[ci]), set(contexts[cj])
        if a <= b or b <= a:
            return ci, cj
    return None


@settings(max_examples=200, deadline=None)
@given(context_lists(max_atoms=7, max_contexts=8))
def test_nested_context_check_agrees_with_pairwise_oracle(drawn):
    m, contexts = drawn
    expected = first_nested_by_pairs(contexts)
    if expected is None:
        PartitionLogic("logic", atom_names(m), tuple(contexts))
        return
    ci, cj = expected
    with pytest.raises(LogicFileError) as info:
        PartitionLogic("logic", atom_names(m), tuple(contexts))
    assert info.value.location == f"contexts[{cj}]"
    assert str(info.value) == (
        f"contexts[{cj}]: contexts {ci} and {cj} are nested; no context may be "
        "a subset of another"
    )


def test_nested_check_reports_the_least_pair_not_the_first_found():
    # Context 1 lies in context 2 and context 5 in context 0: (0, 5) is the
    # least pair although context 1 is met first as the inner one.
    contexts = ((0, 1, 2), (3, 4), (3, 4, 5), (0, 3), (1, 4), (0, 1))
    with pytest.raises(LogicFileError, match=r"^contexts\[5\]: contexts 0 and 5 "):
        PartitionLogic("logic", atom_names(6), contexts)


def test_deep_pair_chain_enumerates_without_recursion():
    n = 3000
    logic = PartitionLogic(
        "logic", atom_names(n + 1), tuple((i, i + 1) for i in range(n))
    )
    states = enumerate_states(logic)
    assert list(state_vectors(states)) == [
        tuple((i + 1) % 2 for i in range(n + 1)),
        tuple(i % 2 for i in range(n + 1)),
    ]


def chain_logic(k: int) -> PartitionLogic:
    """Chain-k: contexts {x_i, y_i, x_(i+1)}, atoms x_0..x_k then y_0..y_(k-1)."""
    return PartitionLogic(
        "chain", atom_names(2 * k + 1), tuple((i, k + 1 + i, i + 1) for i in range(k))
    )


def glued_logic(k: int, sizes: list[int]) -> PartitionLogic:
    """Chain-k, then a product of disjoint contexts of the given sizes; with
    k > 0 the first of those shares the chain's last atom x_k."""
    contexts = [(i, k + 1 + i, i + 1) for i in range(k)]
    m = 2 * k + 1 if k else 0
    for n, size in enumerate(sizes):
        glue = (k,) if k and n == 0 else ()
        fresh = size - len(glue)
        contexts.append(glue + tuple(range(m, m + fresh)))
        m += fresh
    return PartitionLogic("glued", atom_names(m), tuple(contexts))


@st.composite
def shuffled_pair_chains(draw) -> PartitionLogic:
    """Contexts {a_i, a_(i+1)}, with atoms renumbered and contexts reordered."""
    n = draw(st.integers(1, 40))
    number = draw(st.permutations(range(n + 1)))
    pairs = [(number[i], number[i + 1]) for i in range(n)]
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    contexts = [pair[::-1] if flip else pair for pair, flip in zip(pairs, flips)]
    return PartitionLogic("pairs", atom_names(n + 1), tuple(draw(st.permutations(contexts))))


@st.composite
def context_sizes(draw, most: int) -> list[int]:
    """Up to ``most`` sizes of two or three, at most four of them three, so
    that a product of such contexts has at most 20,736 states."""
    k = draw(st.integers(1, most))
    threes = draw(st.integers(0, min(k, 4)))
    return draw(st.permutations([3] * threes + [2] * (k - threes)))


SEARCH_FAMILIES = st.one_of(
    st.integers(1, 20).map(chain_logic),
    context_sizes(12).map(lambda sizes: glued_logic(0, sizes)),
    shuffled_pair_chains(),
    st.builds(glued_logic, st.integers(1, 10), context_sizes(6)),
    logics(max_atoms=14),
)
_DIGITS = bytes.maketrans(b"\0\1", b"01")


@settings(max_examples=250, deadline=None)
@given(SEARCH_FAMILIES)
def test_enumeration_equals_the_plain_search(logic):
    # Chains and products reach one subproblem by many prefixes and pair
    # chains are long forced runs: where the memo and the in-place forced
    # choices could go wrong.
    m = len(logic.atoms)
    masks = sorted(reference_state_masks(logic), reverse=True)
    rows = tuple(row.translate(_DIGITS) for row in enumerate_states(logic).rows)
    assert rows == tuple(format(mask, f"0{m}b").encode() for mask in masks)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("k", range(1, 21))
def test_chain_k_has_fibonacci_many_states(k):
    assert len(enumerate_states(chain_logic(k))) == fibonacci(k + 3)


@pytest.mark.parametrize("k", range(1, 17))
def test_product_k_has_two_to_the_k_states(k):
    assert len(enumerate_states(glued_logic(0, [2] * k))) == 2**k


def test_forced_runs_peak_no_higher_than_the_plain_search():
    # A memo entry per forced step held 1.95 times the plain search's peak.
    n = 3000
    logic = PartitionLogic(
        "logic", atom_names(n + 1), tuple((i, i + 1) for i in range(n))
    )
    plain = traced_peak(reference_state_masks, logic)
    assert traced_peak(_state_masks, logic) <= 1.2 * plain


@settings(max_examples=150, deadline=None)
@given(logics(max_atoms=12))
def test_state_count_equals_the_listing_and_the_brute_force(logic):
    assert _state_count(logic) == len(enumerate_states(logic)) == len(brute_force_states(logic))


@settings(max_examples=150, deadline=None)
@given(SEARCH_FAMILIES)
def test_state_count_equals_the_plain_search(logic):
    assert _state_count(logic) == len(reference_state_masks(logic))


def test_state_count_meets_the_closed_forms_up_to_k_200():
    # Far past what a listing could hold: chain-200 has about 10^42 states.
    for k in range(1, 201):
        assert _state_count(chain_logic(k)) == fibonacci(k + 3)
        assert _state_count(glued_logic(0, [2] * k)) == 2**k


# ------------------------------------------------------------- pinning


def test_l12_fixture_pins_a_noncanonical_order():
    logic, states = resolve_fixture("l12.json")
    assert load_fixture("l12.json").state_order == "pinned-by-spec"
    assert state_vectors(states) == L12_TABLE
    # The fixture's order is *not* the canonical one; the pin matters.
    assert state_vectors(enumerate_states(logic)) != L12_TABLE


def test_pinned_states_must_cover_the_enumeration():
    logic, _ = resolve_fixture("l12.json")
    with pytest.raises(ValidationError, match="do not match the full enumeration"):
        pinned_state_set(logic, state_matrix(L12_TABLE[:4]))  # s5 omitted


def test_pinned_states_must_be_admissible():
    logic, _ = resolve_fixture("l12.json")
    rows = ((1, 1, 0, 0, 1),) + L12_TABLE[1:]
    with pytest.raises(ValidationError, match="not admissible"):
        pinned_state_set(logic, state_matrix(rows))


def test_pinned_mismatch_counts_the_missing_valuations():
    logic, _ = resolve_fixture("l12.json")
    with pytest.raises(ValidationError, match=r"^states: do not match") as info:
        pinned_state_set(logic, state_matrix(L12_TABLE[:2]))
    assert str(info.value) == (
        "states: do not match the full enumeration "
        "(3 of 5 valuations missing)"
    )


def test_pinned_mismatch_on_a_counted_chain_names_the_missing_valuations():
    logic = chain_logic(12)  # F(15) = 610 states
    states = enumerate_states(logic)
    with pytest.raises(ValidationError) as info:
        pinned_state_set(logic, states.matrix[: 300 * states.width])
    assert str(info.value) == (
        "states: do not match the full enumeration "
        "(310 of 610 valuations missing)"
    )


def test_first_inadmissible_pinned_row_is_named():
    logic, _ = resolve_fixture("l12.json")
    rows = L12_TABLE[:2] + ((1, 1, 0, 0, 1), (0, 0, 0, 0, 0)) + L12_TABLE[2:]
    with pytest.raises(ValidationError, match=r"^states\[2\]: not admissible"):
        pinned_state_set(logic, state_matrix(rows))


def test_pinned_states_must_be_distinct():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    with pytest.raises(ValidationError, match=r"^states\[1\]: repeats the valuation of states\[0\]$"):
        pinned_state_set(logic, state_matrix(((1, 0), (1, 0))))


@pytest.mark.parametrize(
    "matrix, message",
    [
        (b"\1\0", "states[0]: has a 2-value vector for 3 atoms"),
        (b"\1\0\0\0", "states[1]: has a 1-value vector for 3 atoms"),
        (b"\1\0\0\0\1\0\0\0", "states[2]: has a 2-value vector for 3 atoms"),
    ],
)
def test_pinned_matrix_of_no_whole_rows_names_the_cut_row(matrix, message):
    # Once an IndexError (too short) or a missing valuation (too long).
    logic = small_logic([(0, 1, 2)])
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        pinned_state_set(logic, matrix)


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1, 0]], 0),
        ([[1, 0, 0], [0, 1, 0, 0]], 1),
        # Nine values that would re-split into the three 3-value states.
        ([[1, 0], [0, 0, 1, 0], [0, 0, 1]], 0),
        ([[1, 0, 0], [0, 1], [0, 0, 0, 1]], 1),
    ],
)
def test_pinned_rows_of_the_wrong_width_are_named_not_resplit(rows, bad):
    text = json.dumps({"atoms": ["x", "y", "z"], "contexts": [["x", "y", "z"]], "states": rows})
    with pytest.raises(LogicFileError) as info:
        parse_logic_file(text)
    assert str(info.value) == f"states[{bad}]: must be a list of 3 values, each 0 or 1"


@pytest.mark.parametrize(
    "text, order",
    [
        ('{"atoms": ["x", "y"], "contexts": [["x", "y"]]}', "canonical"),
        ('{"atoms": ["x", "y"], "contexts": [["x", "y"]], "states": [[0, 1], [1, 0]]}',
         "pinned-by-spec"),
        ('{"atoms": ["x", "y"], "contexts": [["x", "y"]], "states": []}', "pinned-by-spec"),
        ('{"base_set": [1, 2], "partitions": [[[1], [2]]]}', "point-induced"),
    ],
)
def test_state_order_is_read_off_the_logic_file(text, order):
    assert parse_logic_file(text).state_order == order


def test_pinned_states_are_parsed_into_the_matrix():
    logic_file = load_fixture("l12.json")
    assert logic_file.pinned_states == state_matrix(L12_TABLE)


def test_state_set_rejects_bad_matrices():
    # Labels follow from position, so what is left to reject is the matrix:
    # a value other than 0 or 1, a length that is no whole number of rows,
    # and a repeated row.
    with pytest.raises(ValueError, match=r"^state s2: values must be 0 or 1$"):
        StateSet(b"\0\1\2\0", 2)
    with pytest.raises(ValueError, match=r"^state s2: values must be 0 or 1$"):
        StateSet(state_matrix([(0, 1), (2, 0)]), 2)
    ragged = r"^state matrix length 3 is not a multiple of 2$"
    with pytest.raises(ValueError, match=ragged):
        StateSet(b"\1\0\0", 2)
    with pytest.raises(ValueError, match=r"^state value vectors are not distinct$"):
        StateSet(b"\1\0\0\1\1\0", 2)
    with pytest.raises(ValueError, match=r"^state value vectors are not distinct$"):
        StateSet(state_matrix([(1, 0), (0, 1), (1, 0)]), 2)


def test_builders_prove_their_states_without_the_constructor_checks(monkeypatch):
    # Enumeration, pinning and point induction prove distinct 0/1 rows
    # themselves; what they build still passes every public check.
    built = [
        enumerate_states(resolve_fixture("triangle.json")[0]),
        resolve_fixture("l12.json")[1],
        resolve_fixture("example_a.json")[1],
    ]
    for states in built:
        assert StateSet(states.matrix, states.width) == states
    monkeypatch.setattr(StateSet, "__post_init__", lambda self: pytest.fail("re-checked"))
    assert [
        enumerate_states(resolve_fixture("triangle.json")[0]),
        resolve_fixture("l12.json")[1],
        resolve_fixture("example_a.json")[1],
    ] == built


WIDTH_CHECKED = {
    "supports": supports,
    "is_separating": lambda logic, states: is_separating(states, logic),
    "partition_representation": partition_representation,
    "compile_grammar": compile_grammar,
    "format_state_table": format_state_table,
}


@pytest.mark.parametrize("entry", sorted(WIDTH_CHECKED))
def test_state_width_must_be_the_atom_count(entry):
    # A 2-wide state for 3 atoms once gave ((('s1',), (), ()),) as the
    # partition representation, and a grammar.
    logic = small_logic([(0, 1, 2)])
    narrow = StateSet(b"\1\0", 2)
    with pytest.raises(ValueError, match="^state s1 has a 2-value vector for 3 atoms$"):
        WIDTH_CHECKED[entry](logic, narrow)
    # A set without states has no width to get wrong.
    if entry != "compile_grammar":  # which rejects it for having no states
        WIDTH_CHECKED[entry](logic, StateSet(b"", 2))


# ------------------------------------------------- base-set / partitions


def test_example_a_point_induced_states():
    logic, states = resolve_fixture("example_a.json")
    assert logic.atoms == ("p", "not_p", "q", "not_q", "r", "not_r")
    assert logic.contexts == ((0, 1), (2, 3), (4, 5))
    assert load_fixture("example_a.json").state_order == "point-induced"
    assert true_labels(logic, states, "p") == ("s1",)
    assert true_labels(logic, states, "not_p") == ("s2", "s3")
    assert true_labels(logic, states, "q") == ("s2",)
    assert true_labels(logic, states, "not_q") == ("s1", "s3")
    assert true_labels(logic, states, "r") == ("s3",)
    assert true_labels(logic, states, "not_r") == ("s1", "s2")


def test_example_a_states_are_a_strict_subset_of_the_enumeration():
    logic, states = resolve_fixture("example_a.json")
    full = set(state_vectors(enumerate_states(logic)))
    induced = set(state_vectors(states))
    assert induced < full
    assert (len(induced), len(full)) == (3, 8)


def test_l12_as_partitions_matches_the_hypergraph_fixture():
    spec = BaseSetSpec(
        name="v_logic",
        base_set=(1, 2, 3, 4, 5),
        partitions=(
            ((1, 2), (3, 4), (5,)),
            ((5,), (2, 4), (1, 3)),
        ),
        block_names=(("a", "b", "c"), ("c", "d", "e")),
    )
    logic, states = logic_from_partitions(spec)
    fixture_logic, fixture_states = resolve_fixture("l12.json")
    assert logic.atoms == fixture_logic.atoms
    assert logic.contexts == fixture_logic.contexts
    assert supports(logic, states) == supports(fixture_logic, fixture_states)
    # Point-induced states reproduce the pinned fixture order exactly.
    assert state_vectors(states) == L12_TABLE


def test_blocks_map_back_to_their_points():
    spec = BaseSetSpec(
        name="v_logic",
        base_set=(1, 2, 3, 4, 5),
        partitions=(((1, 2), (3, 4), (5,)), ((5,), (2, 4), (1, 3))),
        block_names=(("a", "b", "c"), ("c", "d", "e")),
    )
    logic, states = logic_from_partitions(spec)
    blocks = {"a": {1, 2}, "b": {3, 4}, "c": {5}, "d": {2, 4}, "e": {1, 3}}
    for atom, points in blocks.items():
        labels = true_labels(logic, states, atom)
        # state s_i was induced by base point i (no collapsing here)
        assert {int(label[1:]) for label in labels} == points


def test_equal_blocks_with_different_names_are_ambiguous():
    spec = json.dumps(
        {
            "base_set": [1, 2, 3],
            "partitions": [[[1], [2, 3]], [[2, 3], [1]]],
            "block_names": [["a", "b"], ["c", "d"]],
        }
    )
    with pytest.raises(LogicFileError, match="ambiguous pasting"):
        resolve_states(parse_logic_file(spec))


def test_unnamed_equal_blocks_are_identified():
    spec = parse_logic_file(
        '{"base_set": [1, 2, 3, 4],'
        ' "partitions": [[[1, 2], [3, 4]], [[1, 2], [3], [4]]]}'
    ).source
    logic, _ = logic_from_partitions(spec)
    # block {1,2} recurs and becomes a single intertwining atom
    assert logic.atoms == ("p1b1", "p1b2", "p2b2", "p2b3")
    assert logic.contexts == ((0, 1), (0, 2, 3))


def test_repeated_partitions_make_nested_contexts():
    spec = parse_logic_file(
        '{"base_set": [1, 2, 3], "partitions": [[[1], [2, 3]], [[2, 3], [1]]]}'
    ).source
    with pytest.raises(LogicFileError) as info:
        logic_from_partitions(spec)
    assert str(info.value) == "partitions[1]: partitions 0 and 1 have the same blocks"


def test_duplicate_point_valuations_collapse():
    spec = parse_logic_file(
        '{"base_set": [1, 2, 3], "partitions": [[[1], [2, 3]]]}'
    ).source
    _, states = logic_from_partitions(spec)
    assert len(states) == 2  # points 2 and 3 induce the same valuation


def test_degenerate_single_block_partition_is_rejected():
    spec = parse_logic_file('{"base_set": [1], "partitions": [[[1]]]}').source
    with pytest.raises(LogicFileError, match="fewer than 2"):
        logic_from_partitions(spec)


def base_set_error(base_set, partitions, **extra) -> tuple[str, str | None]:
    """The message and location with which a base-set file is rejected."""
    raw = {"base_set": base_set, "partitions": partitions, **extra}
    with pytest.raises(LogicFileError) as info:
        parse_logic_file(json.dumps(raw))
    return str(info.value), info.value.location


BLOCKS_OF_POINTS = "must be a list of blocks of ints or strings"


@pytest.mark.parametrize(
    "base_set, partitions, message, location",
    [
        ([1, 2], [[[1], [], [2]]], "block is empty", "partitions[0][1]"),
        ([1, 2], [[[1, 1], [2]]], "block repeats a point", "partitions[0][0]"),
        (
            [1, 2], [[[1], [2, 7, "x"]]],
            "points ['x', 7] are not in the base set", "partitions[0][1]",
        ),
        ([1, 2], [[[1, 2], [2]]], "blocks are not pairwise disjoint", "partitions[0]"),
        ([1, 2, 3], [[[3], [1]]], "partition does not cover points [2]", "partitions[0]"),
        ([1, 2], [[]], "partition does not cover points [1, 2]", "partitions[0]"),
        ([1, 2], [[[1], [True]]], BLOCKS_OF_POINTS, "partitions[0]"),
        ([1, 2], [[[1], [2.0]]], BLOCKS_OF_POINTS, "partitions[0]"),
        ([1, 2], [[[1], [[2]]]], BLOCKS_OF_POINTS, "partitions[0]"),
        ([1, 2], [[[1], [2]], {"a": 1}], BLOCKS_OF_POINTS, "partitions[1]"),
        ([1, 2], [[[1], 2]], BLOCKS_OF_POINTS, "partitions[0]"),
        ([1, 2], {"a": [1, 2]}, "must be a list of partitions", "partitions"),
        ([1, None], [[[1], [2]]], "must be a list of ints or strings", "base_set"),
        ([], [[[1], [2]]], "base set is empty", "base_set"),
        ([1, 2, 1], [[[1], [2]]], "base set repeats a point", "base_set"),
        ([1, 2], [], "partition list is empty", "partitions"),
        # Within a partition the blocks are read in order; the union last.
        ([1, 2, 3], [[[1, 9], [], [2]]], "points [9] are not in the base set", "partitions[0][0]"),
        ([1, 2, 3], [[[1, 2], [2], []]], "blocks are not pairwise disjoint", "partitions[0]"),
        ([1, 2, 3], [[[1], [2], [2, 2]]], "block repeats a point", "partitions[0][2]"),
    ],
    ids=[
        "empty block",
        "repeated point",
        "stray point",
        "overlapping blocks",
        "uncovered point",
        "partition of no blocks",
        "bool point",
        "float point",
        "nested-list point",
        "non-list partition",
        "non-list block",
        "non-list partitions",
        "null base point",
        "empty base set",
        "repeated base point",
        "no partitions",
        "stray before empty",
        "overlap before empty",
        "repeat before overlap",
    ],
)
def test_base_set_file_errors_name_their_place(base_set, partitions, message, location):
    assert base_set_error(base_set, partitions) == (f"{location}: {message}", location)


@pytest.mark.parametrize(
    "extra, message, location",
    [
        ({"name": "2x"}, "not an identifier: '2x'", "name"),
        ({"block_names": [["a", "b"], "c"]}, "must be a list of name lists", "block_names"),
        (
            {"block_names": [["a", "b"], ["c", "d"]]},
            "block_names must have one entry per partition", "block_names",
        ),
        (
            {"block_names": [["a"]]},
            "block_names entry does not match the partition's block count", "block_names[0]",
        ),
        ({"block_names": [["a", ""]]}, "block names must be nonempty strings", "block_names[0]"),
        ({"block_names": [["a", 7]]}, "block names must be nonempty strings", "block_names[0]"),
    ],
    ids=[
        "name not an identifier",
        "non-list name list",
        "a name list too many",
        "a name too few",
        "empty name",
        "non-string name",
    ],
)
def test_base_set_name_errors_name_their_place(extra, message, location):
    error = base_set_error([1, 2], [[[1], [2]]], **extra)
    assert error == (f"{location}: {message}", location)


def test_of_two_failing_partitions_the_first_is_named():
    # Partition 0 leaves 3 uncovered, partition 1 holds an empty block.
    error = base_set_error([1, 2, 3], [[[1], [2]], [[1, 2, 3], []]])
    assert error == ("partitions[0]: partition does not cover points [3]", "partitions[0]")


def test_a_point_of_the_wrong_type_is_named_before_any_other_fault():
    # The types of the whole file are read before any partition is checked.
    error = base_set_error([1, 2], [[[1], []], [[1], [2]], [[1], [2.5]], [[1], [False]]])
    assert error == (f"partitions[2]: {BLOCKS_OF_POINTS}", "partitions[2]")


def partitions_by_loops(spec: BaseSetSpec) -> tuple[PartitionLogic, StateSet]:
    """Reference: the loops logic_from_partitions used to run."""
    atoms: list[str] = []
    blocks: list[frozenset] = []
    by_block: dict[frozenset, int] = {}
    contexts: list[tuple[int, ...]] = []
    for pi, partition in enumerate(spec.partitions):
        row = []
        for bi, block in enumerate(partition):
            key = frozenset(block)
            if spec.block_names is not None:
                name = spec.block_names[pi][bi]
            else:
                name = f"p{pi + 1}b{bi + 1}"
            if key in by_block:
                j = by_block[key]
                if spec.block_names is not None and atoms[j] != name:
                    raise LogicFileError(
                        f"block {sorted(key, key=repr)} is named {atoms[j]!r} and "
                        f"{name!r} in different partitions (ambiguous pasting)",
                        f"block_names[{pi}][{bi}]",
                    )
            else:
                if name in atoms:
                    raise LogicFileError(
                        f"name {name!r} is used for two different blocks",
                        f"block_names[{pi}][{bi}]" if spec.block_names else None,
                    )
                by_block[key] = len(atoms)
                atoms.append(name)
                blocks.append(key)
                j = by_block[key]
            row.append(j)
        if len(partition) < 2:
            raise LogicFileError("partition has fewer than 2 blocks", f"partitions[{pi}]")
        for earlier, ctx in enumerate(contexts):
            if set(ctx) == set(row):
                raise LogicFileError(
                    f"partitions {earlier} and {pi} have the same blocks",
                    f"partitions[{pi}]",
                )
        contexts.append(tuple(row))
    logic = PartitionLogic(spec.name, tuple(atoms), tuple(contexts))
    vectors: list[tuple[int, ...]] = []
    for point in spec.base_set:
        values = tuple(1 if point in block else 0 for block in blocks)
        if values not in vectors:
            vectors.append(values)
    return logic, StateSet(state_matrix(vectors), len(atoms))


def _induced(build, spec: BaseSetSpec):
    try:
        logic, states = build(spec)
    except LogicFileError as exc:
        return ("error", str(exc), exc.location)
    return logic.atoms, logic.contexts, state_vectors(states)


@st.composite
def base_set_specs(draw) -> BaseSetSpec:
    """Valid base-set specs of int and str points, with or without block names.

    Names come from a small pool (so two blocks often share a name, or one
    block gets two names) or from the block's points (always consistent).
    """
    point = st.one_of(st.integers(-3, 12), st.text("xyz", min_size=1, max_size=2))
    base = draw(st.lists(point, min_size=2, max_size=7, unique=True))
    partitions = []
    for _ in range(draw(st.integers(1, 5))):
        parts = draw(st.lists(st.integers(0, 3), min_size=len(base), max_size=len(base)))
        blocks: dict[int, list] = {}
        for p, b in zip(base, parts):
            blocks.setdefault(b, []).append(p)
        if len(blocks) == 1:  # a one-block partition would only meet its error
            blocks = {0: base[:1], 1: base[1:]}
        partitions.append(tuple(map(tuple, draw(st.permutations(list(blocks.values()))))))
    naming = draw(st.sampled_from(["none", "pool", "by points"]))
    names = None
    if naming == "pool":
        pool = st.sampled_from(["a", "b", "c", "d", "e"])
        names = tuple(
            tuple(draw(pool) for _ in partition) for partition in partitions
        )
    elif naming == "by points":
        names = tuple(
            tuple("k_" + "_".join(sorted(map(str, block))) for block in partition)
            for partition in partitions
        )
    return BaseSetSpec("spec", tuple(base), tuple(partitions), names)


@settings(max_examples=400, deadline=None)
@given(base_set_specs())
def test_logic_from_partitions_equals_the_loops(spec):
    assert _induced(logic_from_partitions, spec) == _induced(partitions_by_loops, spec)


@pytest.mark.parametrize("points", [63, 64, 65, 200])
def test_wide_base_set_files_give_the_logic_of_their_point_sets(points):
    # Past 62 points a block mask is no machine word; a block's row of 63 or 65
    # points is padded to whole bytes, one of 64 or 200 fills them.
    text = json.dumps(random_base_set_spec(random.Random(points), points, 12))
    logic, states = resolve_states(parse_logic_file(text))
    reference = partitions_by_loops(parse_logic_file(text).source)
    assert (logic.atoms, logic.contexts) == (reference[0].atoms, reference[0].contexts)
    assert format_state_table(logic, states) == reference_state_table(*reference)


@settings(max_examples=200, deadline=None)
@given(base_set_specs())
def test_the_logic_of_a_base_set_passes_the_checks_it_skips(spec):
    try:
        logic, _ = logic_from_partitions(spec)
    except LogicFileError:  # ambiguous names or a repeated partition
        return
    assert PartitionLogic(*logic._values()) == logic


@pytest.mark.parametrize(
    "names, message",
    [
        (
            (("a", "b"), ("c", "a", "d")),
            "block_names[1][1]: name 'a' is used for two different blocks",
        ),
        (
            (("a", "b"), ("b", "d")),
            "block_names[1][1]: block [1] is named 'a' and 'd' in different "
            "partitions (ambiguous pasting)",
        ),
    ],
    ids=["reused name", "ambiguous pasting"],
)
def test_block_name_errors_equal_the_loops(names, message):
    second = ((2,), (3,), (1,)) if len(names[1]) == 3 else ((2, 3), (1,))
    spec = BaseSetSpec("spec", (1, 2, 3), (((1,), (2, 3)), second), names)
    expected = _induced(partitions_by_loops, spec)
    assert expected == ("error", message, message.split(":")[0])
    assert _induced(logic_from_partitions, spec) == expected


# ------------------------------------------- the state matrix, per tuple
# References: the per-tuple path the states took before they became one
# byte matrix (a tuple of 0/1 values per state, labels by position, each
# atom's column gathered state by state).


def tuples_view(logic: PartitionLogic, vectors):
    """Labels, value tuples and support columns of ``vectors``."""
    columns = tuple(bytes(v[j] for v in vectors) for j in range(len(logic.atoms)))
    labels = tuple(f"s{i + 1}" for i in range(len(vectors)))
    return labels, tuple(map(tuple, vectors)), columns


def matrix_view(logic: PartitionLogic, states: StateSet):
    view = (states.labels(), state_vectors(states), supports(logic, states))
    assert states.rows == tuple(map(bytes, view[1]))
    return view


def pinned_by_tuples(logic: PartitionLogic, rows):
    """Reference: pinned_state_set over tuples, the enumeration brute-forced."""
    enumerated = brute_force_states(logic)
    for si, row in enumerate(rows):
        if row not in enumerated and not is_admissible(row, logic):
            raise ValidationError(
                "not admissible (some context does not have exactly one true atom)",
                f"states[{si}]",
            )
    repeats = [(i, j) for j in range(len(rows)) for i in range(j) if rows[i] == rows[j]]
    if repeats:
        i, j = min(repeats)
        raise ValidationError(f"repeats the valuation of states[{i}]", f"states[{j}]")
    if set(rows) != enumerated:
        missing = len(enumerated - set(rows))
        raise ValidationError(
            "do not match the full enumeration "
            f"({missing} of {len(enumerated)} valuations missing)",
            "states",
        )
    return tuples_view(logic, rows)


def pinned_outcome(pin, logic, rows):
    try:
        return pin(logic, rows)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_enumerated_and_pinned_matrices_equal_the_per_tuple_path(rng, data):
    logic = random_logic(rng)
    canonical = sorted(brute_force_states(logic), reverse=True)
    expected = tuples_view(logic, canonical)
    assert matrix_view(logic, enumerate_states(logic)) == expected
    rows = list(data.draw(st.permutations(canonical)))
    edit = data.draw(st.sampled_from(["none", "drop", "repeat", "flip"]))
    if rows and edit == "drop":
        rows.pop()
    elif rows and edit == "repeat":  # a copy of any row, put anywhere
        copy = rows[data.draw(st.integers(0, len(rows) - 1))]
        rows.insert(data.draw(st.integers(0, len(rows))), copy)
    elif edit == "flip":  # may make a row inadmissible, or another state
        si = data.draw(st.integers(0, len(rows)))
        j = data.draw(st.integers(0, len(logic.atoms) - 1))
        row = list(rows[si]) if si < len(rows) else [0] * len(logic.atoms)
        row[j] ^= 1
        rows[si : si + 1] = [tuple(row)]
    rows = tuple(rows)
    reference = pinned_outcome(pinned_by_tuples, logic, rows)
    got = pinned_outcome(pinned_state_set, logic, state_matrix(rows))
    assert (got if isinstance(got, str) else matrix_view(logic, got)) == reference


@settings(max_examples=200, deadline=None)
@given(base_set_specs())
def test_point_induced_matrix_equals_the_per_tuple_path(spec):
    try:
        logic, states = logic_from_partitions(spec)
    except LogicFileError:
        return  # naming errors are compared with the loops above
    # Atom contexts[pi][bi] is block bi of partition pi.
    blocks = {}
    for ctx, partition in zip(logic.contexts, spec.partitions):
        blocks.update(zip(ctx, map(set, partition)))
    vectors = []
    for point in spec.base_set:
        values = tuple(int(point in blocks[j]) for j in range(len(logic.atoms)))
        if values not in vectors:
            vectors.append(values)
    expected = tuples_view(logic, vectors)
    assert matrix_view(logic, states) == expected


@settings(max_examples=200, deadline=None)
@given(base_set_specs())
def test_point_induced_states_are_admissible_enumerated_and_separating(spec):
    """A point lies in one block of each partition, so it induces a two-valued
    state; two blocks differ in some point, so those states separate the atoms."""
    try:
        logic, states = logic_from_partitions(spec)
    except LogicFileError:
        reject()  # a rejected spec does not count toward max_examples
    assert all(is_admissible(row, logic) for row in states.rows)
    assert set(states.rows) <= set(enumerate_states(logic).rows)
    assert is_separating(states, logic)


# ------------------------------------------------------------ separation


def test_l12_states_separate():
    logic, states = resolve_fixture("l12.json")
    assert is_separating(states, logic) is True
    assert witness(logic, states) is None


def test_is_separating_is_a_bool():
    separating = resolve_fixture("l12.json")
    logic = small_logic([(0, 1), (0, 2)])
    for (logic, states), want in ((separating, True), ((logic, enumerate_states(logic)), False)):
        result = is_separating(states, logic)
        assert type(result) is bool and result is want


def test_single_context_separates():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    assert is_separating(enumerate_states(logic), logic)


def test_shared_atom_pair_fails_separation_with_witness():
    logic = small_logic([(0, 1), (0, 2)])
    states = enumerate_states(logic)
    assert set(state_vectors(states)) == {(1, 0, 0), (0, 1, 1)}
    assert is_separating(states, logic) is False
    assert witness(logic, states) == ("y", "z")
    assert not separating_by_oracle(states, logic)


def test_separation_agrees_with_oracle_on_random_logics():
    rng = random.Random(31337)
    for _ in range(80):
        logic = random_logic(rng)
        states = enumerate_states(logic)
        assert is_separating(states, logic) == separating_by_oracle(states, logic)


def witness(logic: PartitionLogic, states: StateSet):
    """The clashing atom pair ``compile_grammar`` names, or ``None`` if it
    compiles. A set without states is rejected for that first, so its pair
    is the clash of its (empty) supports."""
    try:
        compile_grammar(logic, states)
    except NotSeparatingError as exc:
        return exc.witness
    except ValidationError:
        if len(states):
            raise
        pair = _clash(supports(logic, states))
        return pair and tuple(map(logic.atoms.__getitem__, pair))
    return None


def first_clash_by_pairs(states, logic):
    """The first atom pair in (i, j) order with equal supports, or None."""
    labeled = list(zip(states.labels(), state_vectors(states)))
    support = [
        frozenset(label for label, values in labeled if values[j] == 1)
        for j in range(len(logic.atoms))
    ]
    for i in range(len(logic.atoms)):
        for j in range(i + 1, len(logic.atoms)):
            if support[i] == support[j]:
                return (logic.atoms[i], logic.atoms[j])
    return None


def test_witness_is_the_least_clashing_pair_not_the_first_met():
    # supports: a={s1}, b={s2}, c={s2}, d={s1}; the scan meets (b, c) first
    logic = PartitionLogic("logic", ("a", "b", "c", "d"), ((0, 1), (2, 3)))
    states = StateSet(state_matrix([(1, 0, 0, 1), (0, 1, 1, 0)]), 4)
    assert witness(logic, states) == ("a", "d")
    assert first_clash_by_pairs(states, logic) == ("a", "d")


def test_witness_agrees_with_pairwise_oracle_on_random_logics():
    rng = random.Random(4242)
    clashes = 0
    for _ in range(300):
        logic = random_logic(rng, max_atoms=10)
        states = enumerate_states(logic)
        expected = first_clash_by_pairs(states, logic)
        assert witness(logic, states) == expected
        assert is_separating(states, logic) is (expected is None)
        clashes += expected is not None
    assert clashes > 0  # the sample exercises the witness path


# ----------------------------------------------- supports / representation


def test_l12_support_goldens():
    logic, states = resolve_fixture("l12.json")
    assert true_labels(logic, states, "a") == ("s1", "s2")
    assert true_labels(logic, states, "b") == ("s3", "s4")
    assert true_labels(logic, states, "c") == ("s5",)
    assert true_labels(logic, states, "d") == ("s2", "s4")
    assert true_labels(logic, states, "e") == ("s1", "s3")
    assert false_labels(logic, states, "d") == ("s1", "s3", "s5")


def test_triangle_support_goldens():
    logic, states = resolve_fixture("triangle.json")
    assert true_labels(logic, states, "f") == ("s2", "s4")
    assert true_labels(logic, states, "e") == ("s3",)


def test_supports_partition_all_labels():
    rng = random.Random(5150)
    for _ in range(40):
        logic = random_logic(rng)
        states = enumerate_states(logic)
        for atom in logic.atoms:
            t = set(true_labels(logic, states, atom))
            f = set(false_labels(logic, states, atom))
            assert t | f == set(states.labels())
            assert not t & f


def test_l12_partition_representation_golden():
    logic, states = resolve_fixture("l12.json")
    rep = partition_representation(logic, states)
    assert rep[0] == (("s1", "s2"), ("s3", "s4"), ("s5",))
    assert rep[1] == (("s5",), ("s2", "s4"), ("s1", "s3"))


def test_triangle_partition_representation_golden():
    logic, states = resolve_fixture("triangle.json")
    rep = partition_representation(logic, states)
    assert rep[2] == (("s3",), ("s2", "s4"), ("s1",))


def test_single_context_partition_representation():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    rep = partition_representation(logic, enumerate_states(logic))
    assert rep == ((("s1",), ("s2",)),)


def test_partition_representation_keeps_empty_cells():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    states = StateSet(state_matrix([(0, 1)]), 2)
    # the single state values x as 0, so T(x) is the empty cell
    assert partition_representation(logic, states) == (((), ("s1",)),)


def test_partition_representation_rejects_overlap():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    states = StateSet(state_matrix([(1, 1), (1, 0)]), 2)
    with pytest.raises(ValidationError, match="do not partition"):
        partition_representation(logic, states)


def test_representation_partitions_labels_on_random_logics():
    rng = random.Random(2600)
    for _ in range(40):
        logic = random_logic(rng)
        states = enumerate_states(logic)
        if len(states) == 0:
            continue
        for cells in partition_representation(logic, states):
            labels = [label for cell in cells for label in cell]
            assert sorted(labels) == sorted(states.labels())
            assert len(labels) == len(set(labels))


# ------------------------------------------------------------- Table I
# Atom names of one to four characters, some of them non-ASCII \w letters.
ATOM_NAMES = st.text(alphabet="xyZ_7\u00e9\u00df\u03a9\u4e2d", min_size=1, max_size=4)


def renamed(logic: PartitionLogic, names: list[str]) -> PartitionLogic:
    return PartitionLogic(logic.name, tuple(names), logic.contexts)


@st.composite
def tables(draw) -> tuple[PartitionLogic, StateSet]:
    """A logic with fresh atom names, and its states: enumerated, pinned in
    a shuffled order, or point-induced; then cut to a prefix of the rows."""
    kind = draw(st.sampled_from(["enumerated", "pinned", "base set"]))
    if kind == "base set":
        try:
            logic, states = logic_from_partitions(draw(base_set_specs()))
        except LogicFileError:  # naming errors are compared with the loops above
            reject()
    else:
        logic = draw(TABLE_FAMILIES)
        states = enumerate_states(logic)
        if kind == "pinned":
            rows = draw(st.permutations(states.rows))
            states = pinned_state_set(logic, b"".join(rows))
    m = len(logic.atoms)
    names = draw(st.lists(ATOM_NAMES, min_size=m, max_size=m, unique=True))
    n = draw(st.integers(0, len(states)))
    return renamed(logic, names), StateSet(states.matrix[: n * m], m)


TABLE_FAMILIES = st.one_of(
    st.integers(1, 12).map(chain_logic),
    context_sizes(8).map(lambda sizes: glued_logic(0, sizes)),
    logics(max_atoms=14),
)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_state_table_equals_the_row_at_a_time_table(table):
    assert format_state_table(*table) == reference_state_table(*table)


# The chain-10 cases cross a digit of the label width; chain-15 (2,584 states)
# ends at and past the edges of blocks of 1,024 states, and on chain-18 the
# labels grow from 4 to 5 digits inside the block of s9217..s10240.
@pytest.mark.parametrize(
    "k, n",
    [pytest.param(10, n, id=str(n)) for n in (0, 1, 9, 10, 11, 99, 100, 101, 233)]
    + [pytest.param(15, n, id=f"chain15-{n}") for n in (1023, 1024, 1025, 2048, 2049)]
    + [pytest.param(18, 10001, id="chain18-10001")],
)
def test_state_table_labels_cross_a_digit(k, n):
    m = 2 * k + 1
    logic = renamed(chain_logic(k), [f"\u00e9{'x' * (j % 4)}{j}" for j in range(m)])
    states = enumerate_states(logic)
    states = StateSet(states.matrix[: n * m], m)
    assert format_state_table(logic, states) == reference_state_table(logic, states)


def pinned_rows_by_loop(raw_states, logic: PartitionLogic) -> bytes:
    """Reference: the pinned rows checked one at a time, then joined."""
    m = len(logic.atoms)
    for si, row in enumerate(raw_states):
        if (
            not isinstance(row, list)
            or len(row) != m
            or set(map(type, row)) != {int}
            or not set(row) <= {0, 1}
        ):
            raise LogicFileError(f"must be a list of {m} values, each 0 or 1", f"states[{si}]")
    return bytes(chain.from_iterable(raw_states))


HOSTILE_VALUES = st.sampled_from([0, 1, True, False, 0.0, 1.0, 2, -1, 256, [0], [], None, "1"])


@st.composite
def hostile_rows(draw, m: int):
    """Mostly valid 0/1 rows of width m, some with a hostile value, a wrong
    width, or no list at all."""
    row = draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m))
    edit = draw(st.sampled_from(["none"] * 4 + ["value", "width", "not a list"]))
    if edit == "value":
        row[draw(st.integers(0, m - 1))] = draw(HOSTILE_VALUES)
    elif edit == "width":
        row = row[: draw(st.integers(0, m - 1))] + [0] * draw(st.integers(0, 2))
    elif edit == "not a list":
        row = draw(st.sampled_from([tuple(row), "01", 1, None, {"0": 1}]))
    return row


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(lambda m: st.tuples(st.just(m), st.lists(hostile_rows(m)))))
def test_pinned_rows_parse_as_the_row_loop_does(drawn):
    # One context over the m atoms, so a row drawn m wide has the logic's width.
    m, raw_states = drawn
    logic = PartitionLogic("logic", atom_names(m), (tuple(range(m)),))

    def outcome(parse):
        try:
            return parse(raw_states, logic)
        except LogicFileError as exc:
            return str(exc)

    assert outcome(_parse_pinned_states) == outcome(pinned_rows_by_loop)


# --------------------------------- whole-table checks against the loops
# References: the loops that checked a logic file a value at a time, kept
# as oracles for the checks that now test a table at once and walk it only
# to name a fault.

PINNED_NAMES = ["a", "b", "c", "d", "e", "f", "true", "false", "is_true", "falsey"]


# The layouts a pinned file is written in: json.dumps's default, compact,
# indented, and a tab, CR or LF between tokens.
PINNED_LAYOUTS = (
    {},
    {"separators": (",", ":")},
    {"indent": 2},
    *({"separators": (f"{ws},{ws}", f"{ws}:{ws}"), "indent": ws} for ws in "\t\r\n"),
)


@st.composite
def pinned_files(draw):
    """A one-context logic file with hostile pinned rows, in one of
    ``PINNED_LAYOUTS``; its atom names sometimes hold the text ``true`` or
    ``false``."""
    m = draw(st.integers(2, 6))
    atoms = draw(st.lists(st.sampled_from(PINNED_NAMES), min_size=m, max_size=m, unique=True))
    rows = draw(st.lists(hostile_rows(m)))
    layout = draw(st.sampled_from(PINNED_LAYOUTS))
    return json.dumps({"atoms": atoms, "contexts": [atoms], "states": rows}, **layout)


@settings(max_examples=400, deadline=None)
@given(pinned_files())
def test_pinned_rows_of_a_file_parse_as_the_row_loop_does(text):
    raw = json.loads(text)  # a tuple row is written as a list
    logic = PartitionLogic("logic", tuple(raw["atoms"]), (tuple(range(len(raw["atoms"]))),))

    def outcome(parse):
        try:
            return parse()
        except LogicFileError as exc:
            return str(exc), exc.location

    got = outcome(lambda: parse_logic_file(text).pinned_states)
    assert got == outcome(lambda: pinned_rows_by_loop(raw["states"], logic))


def test_a_bool_in_a_pinned_row_is_named_when_no_atom_says_true():
    spec = {"atoms": ["a", "b"], "contexts": [["a", "b"]], "states": [[1, 0], [False, 1]]}
    text = json.dumps(spec)
    with pytest.raises(LogicFileError) as info:
        parse_logic_file(text)
    assert (str(info.value), info.value.location) == (
        "states[1]: must be a list of 2 values, each 0 or 1",
        "states[1]",
    )


# ------------------------------------------- reading a pinned table
# Every text the reader does not take goes to json.loads, so each case must
# parse as it does with the reader switched off.

PAIR = '"atoms": ["a", "b"], "contexts": [["a", "b"]]'


def parse_outcome(text: str):
    """The pinned matrix and palette of a parse, or its error and location."""
    try:
        logic_file = parse_logic_file(text)
    except LogicFileError as exc:
        return str(exc), exc.location
    return logic_file.pinned_states, logic_file.palette


@pytest.mark.parametrize(
    "text, accepted",
    [
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]]}}', True, id="plain"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]], "states": [[0, 1]]}}', True,
                     id="two-accepted-tables"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]], "states": [[1, 0], [0]]}}', False,
                     id="accepted-then-rejected-table"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0]], "states": [[0, 1], [1, 0]]}}', False,
                     id="rejected-then-accepted-table"),
        pytest.param(f'{{{PAIR}, "states": null, "states": [[0, 1], [1, 0]]}}', True,
                     id="null-then-accepted-table"),
        pytest.param(f'{{{PAIR}, "states": [[0, 1], [1, 0]], "states": null}}', False,
                     id="accepted-table-then-null"),
        pytest.param(f'{{{PAIR}, "palette": {{"states": "#000000"}}}}', False,
                     id="states-inside-palette"),
        pytest.param(f'{{{PAIR}, "palette": {{"states": [[1, 0]]}}}}', False,
                     id="table-inside-palette"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]], "palette": {{"s1]]": "#000000"}}}}',
                     True, id="later-string-holds-brackets"),
        pytest.param(f'{{{PAIR}, "states": [], "palette": {{"s1]]": "#000000"}}}}', False,
                     id="empty-table-before-brackets-in-a-string"),
        pytest.param(f'{{{PAIR}, "states": [["]]"]]}}', False, id="row-of-a-string"),
        pytest.param(f'{{"states": [[1, 0], [0, 1]], {PAIR}}}', True, id="states-before-atoms"),
        pytest.param(f'{{{PAIR}, "states": [[1, -0], [0, 1]]}}', False, id="minus-zero"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1.0]]}}', False, id="one-point-zero"),
        pytest.param(f'{{{PAIR}, "states": [[true, 0], [0, 1]]}}', False, id="true"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1], [1, 1]]}}', True, id="two-ones"),
        pytest.param(f'\ufeff{{{PAIR}, "states": [[1, 0], [0, 1]]}}', False, id="bom"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]]}} x', False, id="trailing-data"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]]}}{{}}', False, id="second-object"),
        pytest.param(f' {{{PAIR}, "states": [[1, 0], [0, 1]]}}\r\n', True, id="outer-space"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0]]}}', False, id="row-one-value-short"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1, 0]]}}', False, id="row-one-value-long"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0, 0], [0, 1, 0]]}}', False, id="table-too-wide"),
        pytest.param(f'{{{PAIR}, "states": [[1], [0]]}}', False, id="table-too-narrow"),
        pytest.param(f'{{{PAIR}, "states": []}}', False, id="empty-table"),
        pytest.param(f'{{{PAIR}, "states": [[]]}}', False, id="empty-row"),
        pytest.param(f'{{{PAIR}, "states": [[1 0], [0, 1]]}}', False, id="missing-comma"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]]]}}', False, id="extra-bracket"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], [0, 1]],}}', False, id="trailing-comma"),
        pytest.param(f'{{{PAIR}, "states": [[1, 0], ["\u00e9", 1]]}}', False, id="non-ascii"),
        pytest.param('{"atoms": ["\u00e9", "b"], "contexts": [["\u00e9", "b"]], '
                     '"states": [[1, 0], [0, 1]]}', True, id="non-ascii-elsewhere"),
        pytest.param('{"atoms": "ab", "contexts": [["a", "b"]], "states": [[1, 0]]}', False,
                     id="atoms-not-a-list"),
        pytest.param('{"atoms": [], "contexts": [], "states": [[1, 0]]}', False, id="no-atoms"),
        pytest.param('{"base_set": [1, 2], "partitions": [[[1], [2]]], "states": [[1, 0]]}',
                     False, id="base-set"),
    ],
)
def test_a_pinned_table_parses_as_json_loads_reads_it(text, accepted, monkeypatch):
    read = _read_object(text)
    assert (read is not None and isinstance(read.get("states"), bytes)) == accepted
    got = parse_outcome(text)
    monkeypatch.setattr(logic_module, "_read_object", lambda text: None)
    assert got == parse_outcome(text)
    if accepted:
        assert got[0] == state_matrix(json.loads(text)["states"])


@pytest.mark.parametrize("layout", PINNED_LAYOUTS)
def test_the_reader_takes_a_fixture_in_every_layout(layout):
    doc = json.loads((FIXTURES / "l12.json").read_text(encoding="utf-8"))
    assert _read_object(json.dumps(doc, **layout))["states"] == state_matrix(L12_TABLE)


def test_the_reader_takes_rows_of_one_value():
    text = '{"atoms": ["a"], "states": [[1], [0], [0]]}'
    assert _read_object(text) == {"atoms": ["a"], "states": b"\1\0\0"}


@pytest.mark.parametrize(
    "m, n, layout",
    [
        (m, n, layout)
        for m in (2, 3)
        for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1)
        for layout in ({}, {"indent": 2})
    ]
    + [(500, n, {}) for n in (65, 66, 131)]  # 65 rows fill a window
    + [(12_000, 2, {"indent": 2})]  # the first row is longer than a window
    + [(40_000, 3, {})],  # so is a row without whitespace: a row per block
)
@pytest.mark.parametrize("bad", [None, 0, -1])
def test_tables_across_blocks_and_windows_parse_as_json_loads_reads_them(
    m, n, layout, bad, monkeypatch
):
    # Blocks of _BLOCK rows; a table's last row ends a block, or is one alone.
    rng = random.Random(f"{m}:{n}")
    rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    if bad is not None:
        rows[bad][-1] = 2
    atoms = atom_names(m)
    text = json.dumps({"atoms": atoms, "contexts": [atoms], "states": rows}, **layout)
    got = parse_outcome(text)
    if bad is None:
        assert got == (state_matrix(rows), None)
    else:
        where = f"states[{bad % n}]"
        assert got == (f"{where}: must be a list of {m} values, each 0 or 1", where)
    monkeypatch.setattr(logic_module, "_read_object", lambda text: None)
    assert got == parse_outcome(text)


@pytest.mark.parametrize(
    "m, atoms",
    [
        pytest.param(40_000, 2, id="first-row-wider-than-atoms"),
        pytest.param(12_000, 12_000, id="wide"),
    ],
)
def test_a_wide_row_costs_the_reader_its_own_size(m, atoms, monkeypatch):
    # A block is at most a window or one row: 1,024 rows of the width the
    # first row claims, before atoms are counted, would be 1,024 times that.
    n = 2
    names = atom_names(atoms)
    text = json.dumps({"atoms": names, "contexts": [names], "states": [[0] * m] * n})
    row = 2 * m + 2  # "[0,...,0]," without whitespace
    start = text.index("[", text.index('"states"'))
    assert traced_peak(_read_table, text, start) <= 8 * row + n * m + 4 * _WINDOW
    got = parse_outcome(text)
    if m != atoms:
        assert got == (f"states[0]: must be a list of {atoms} values, each 0 or 1", "states[0]")
    monkeypatch.setattr(logic_module, "_read_object", lambda text: None)
    assert got == parse_outcome(text)


@pytest.mark.parametrize("layout", [{}, {"indent": 2}])
def test_a_pinned_table_is_read_in_windows(layout):
    # json.loads builds a list per row and holds the text's rows as objects;
    # the reader holds the matrix and a window of the text.
    spec = chain_spec(16)
    states = enumerate_states(parse_logic_file(json.dumps(spec)).source)
    spec["states"] = [list(row) for row in reversed(states.rows)]
    text = json.dumps(spec, **layout)
    assert traced_peak(parse_logic_file, text) <= traced_peak(json.loads, text) / 2


def logic_by_loops(name: str, atoms, contexts) -> None:
    """Reference: the loops PartitionLogic ran before its whole-table check,
    then the least nested pair by pairwise comparison."""
    if not atoms:
        raise LogicFileError("atom list is empty", "atoms")
    seen: dict[str, int] = {}
    for i, atom in enumerate(atoms):
        if not isinstance(atom, str) or not atom:
            raise LogicFileError("atom names must be nonempty strings", f"atoms[{i}]")
        # A C0 control, half a surrogate pair, U+FFFE or U+FFFF: the first is named.
        bad = [c for c in atom if ord(c) < 0x20 or 0xD800 <= ord(c) < 0xE000 or c in "\ufffe\uffff"]
        if bad and 0xD800 <= ord(bad[0]) < 0xE000:
            raise LogicFileError("atom name holds a lone surrogate", f"atoms[{i}]")
        if bad:
            raise LogicFileError(f"atom name holds the character U+{ord(bad[0]):04X}", f"atoms[{i}]")
        if atom in seen:
            raise LogicFileError(f"duplicate atom name {atom!r}", f"atoms[{i}]")
        seen[atom] = i
    if not contexts:
        raise LogicFileError("context list is empty", "contexts")
    for ci, ctx in enumerate(contexts):
        for j in ctx:
            if not 0 <= j < len(atoms):
                raise LogicFileError(f"atom index {j} out of range", f"contexts[{ci}]")
        if len(set(ctx)) != len(ctx):
            raise LogicFileError("context repeats an atom", f"contexts[{ci}]")
        if len(ctx) < 2:
            raise LogicFileError("context has fewer than 2 atoms", f"contexts[{ci}]")
    covered = {j for ctx in contexts for j in ctx}
    for i, atom in enumerate(atoms):
        if i not in covered:
            raise LogicFileError(f"atom {atom!r} appears in no context", f"atoms[{i}]")
    nested = first_nested_by_pairs(contexts)
    if nested is not None:
        ci, cj = nested
        raise LogicFileError(
            f"contexts {ci} and {cj} are nested; no context may be a subset of another",
            f"contexts[{cj}]",
        )


HOSTILE_ATOMS = st.sampled_from(
    ["", "\ud800", "b\udfff", "a\x01", "\n", "a\tb", "\x1f\ud800", "\ufffe", "b\uffff",
     "a0", "a1", 0, None]
)


@st.composite
def hostile_logics(draw):
    """Atoms a0.. with at times one hostile name (empty, a lone surrogate, a
    control character, U+FFFE or U+FFFF, a duplicate or no string), and up to five short contexts whose indices
    now and then leave the range at either end."""
    m = draw(st.integers(0, 6))
    atoms = list(atom_names(m))
    if m and draw(st.booleans()):
        atoms[draw(st.integers(0, m - 1))] = draw(HOSTILE_ATOMS)
    index = st.integers(-1, m) if draw(st.integers(0, 3)) == 0 else st.integers(0, max(m - 1, 0))
    contexts = draw(st.lists(st.lists(index, min_size=1, max_size=4).map(tuple), max_size=5))
    return tuple(atoms), tuple(contexts)


def _rejection(build, atoms, contexts):
    try:
        build("logic", atoms, contexts)
    except LogicFileError as exc:
        return str(exc), exc.location
    return None


@settings(max_examples=500, deadline=None)
@given(hostile_logics())
def test_partition_logic_rejects_as_the_loops_do(drawn):
    assert _rejection(PartitionLogic, *drawn) == _rejection(logic_by_loops, *drawn)


@pytest.mark.parametrize(
    "atoms, contexts, location",
    [
        ((), ((0, 1),), "atoms"),
        (("a", ""), ((0, 1),), "atoms[1]"),
        (("a", "a"), ((0, 1),), "atoms[1]"),
        (("a", "b\ud800"), ((0, 1),), "atoms[1]"),
        (("a", "b\x01"), ((0, 1),), "atoms[1]"),
        (("a\ufffe", "b"), ((0, 1),), "atoms[0]"),
        (("a", "b"), (), "contexts"),
        (("a", "b"), ((0, 1), (0, 2)), "contexts[1]"),
        (("a", "b"), ((-1, 1),), "contexts[0]"),
        (("a", "b", "c"), ((0, 1, 1), (1, 2)), "contexts[0]"),
        (("a", "b"), ((0, 1), (1,)), "contexts[1]"),
        (("a", "b", "c"), ((0, 1),), "atoms[2]"),
        (("a", "b", "c"), ((0, 1, 2), (1, 2)), "contexts[1]"),
    ],
    ids=[
        "no atoms", "empty name", "duplicate name", "lone surrogate", "control character",
        "noncharacter", "no contexts",
        "index past the end", "negative index", "repeated atom", "short context",
        "uncovered atom", "nested contexts",
    ],
)
def test_each_logic_fault_is_named_as_the_loops_name_it(atoms, contexts, location):
    expected = _rejection(logic_by_loops, atoms, contexts)
    assert expected is not None and expected[1] == location
    assert _rejection(PartitionLogic, atoms, contexts) == expected


def cover_by_loops(spec: BaseSetSpec) -> None:
    """Reference: every partition's blocks walked against the base set."""
    universe = set(spec.base_set)
    for pi, partition in enumerate(spec.partitions):
        loc = f"partitions[{pi}]"
        seen: set = set()
        for bi, block in enumerate(partition):
            if not block:
                raise LogicFileError("block is empty", f"{loc}[{bi}]")
            block_set = set(block)
            if len(block_set) != len(block):
                raise LogicFileError("block repeats a point", f"{loc}[{bi}]")
            stray = block_set - universe
            if stray:
                raise LogicFileError(
                    f"points {sorted(stray, key=repr)} are not in the base set",
                    f"{loc}[{bi}]",
                )
            if block_set & seen:
                raise LogicFileError("blocks are not pairwise disjoint", loc)
            seen |= block_set
        if seen != universe:
            missing = sorted(universe - seen, key=repr)
            raise LogicFileError(f"partition does not cover points {missing}", loc)


@st.composite
def hostile_covers(draw):
    """Base sets of up to five int or str points and partitions of blocks
    drawn from them and from two stray points, with repeats."""
    base = draw(st.lists(st.sampled_from([0, 1, 2, 3, "x"]), min_size=1, max_size=5, unique=True))
    point = st.sampled_from([*base, 9, "y"]) if draw(st.booleans()) else st.sampled_from(base)
    block = st.lists(point, max_size=4).map(tuple)
    partition = st.lists(block, min_size=1, max_size=4).map(tuple)
    partitions = draw(st.lists(partition, min_size=1, max_size=3))
    return tuple(base), tuple(partitions)


@settings(max_examples=500, deadline=None)
@given(hostile_covers())
def test_base_set_cover_check_rejects_as_the_loops_do(drawn):
    base, partitions = drawn

    def outcome(check):
        try:
            check()
        except LogicFileError as exc:
            return str(exc), exc.location
        return None

    expected = outcome(lambda: cover_by_loops(BaseSetSpec._trusted("spec", base, partitions)))
    assert outcome(lambda: BaseSetSpec("spec", base, partitions)) == expected


def test_a_carry_between_point_digits_is_no_cover():
    # Point 3 written three times carries a bit into point 2, so the masks add
    # up to a 1 bit per point; only the size sum tells the partition apart.
    partitions = (((1,), (3,) * 3),)
    masks = BaseSetSpec._trusted("spec", (1, 2, 3), partitions)._block_masks
    assert sum(masks[0]) == 0b111
    with pytest.raises(LogicFileError) as info:
        BaseSetSpec("spec", (1, 2, 3), partitions)
    assert (str(info.value), info.value.location) == (
        "partitions[0][1]: block repeats a point",
        "partitions[0][1]",
    )


@st.composite
def masks_of_a_width(draw) -> tuple[list[int], int]:
    """A width of 1 to 130 bits and masks below 2**width: none, one, or
    counts around ``_bit_rows``'s block size, the all-zero and all-one masks
    among them."""
    width = draw(st.integers(1, 130))
    n = draw(st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    masks = [rng.getrandbits(width) for _ in range(n)]
    for k, mask in enumerate(draw(st.lists(st.sampled_from([0, 2**width - 1]), max_size=n))):
        masks[k * 7 % n] = mask
    return masks, width


@settings(max_examples=150, deadline=None)
@given(masks_of_a_width())
def test_bit_rows_write_each_mask_as_its_binary_digits(drawn):
    masks, width = drawn
    digits = "".join(format(mask, f"0{width}b") for mask in masks)
    assert _bit_rows(masks, width) == digits.encode().translate(bytes.maketrans(b"01", b"\0\1"))
