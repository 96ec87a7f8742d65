"""Logic parsing, state enumeration, supports, partition representations."""

from __future__ import annotations

import json
import random
from itertools import chain, combinations, product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sglg import (
    BaseSetSpec,
    LogicFileError,
    NotAPartitionError,
    PartitionLogic,
    PinnedStatesError,
    StateOrder,
    StateSet,
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
from sglg.cli import format_state_table
from sglg.grammar import compile_grammar
from sglg.logic import _parse_pinned_states, _state_masks
from support import (
    L12_TABLE,
    TRIANGLE_TABLE,
    brute_force_states,
    false_labels,
    load_fixture,
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
        ('{"atoms": ["a", "a"], "contexts": [["a"]]}', "duplicate atom"),
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
    assert enumerated.order_source is StateOrder.CANONICAL


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


# ------------------------------------------------------------- pinning


def test_l12_fixture_pins_a_noncanonical_order():
    logic, states = resolve_fixture("l12.json")
    assert states.order_source is StateOrder.PINNED
    assert state_vectors(states) == L12_TABLE
    # The fixture's order is *not* the canonical one; the pin matters.
    assert state_vectors(enumerate_states(logic)) != L12_TABLE


def test_pinned_states_must_cover_the_enumeration():
    logic, _ = resolve_fixture("l12.json")
    with pytest.raises(PinnedStatesError, match="do not match the full enumeration"):
        pinned_state_set(logic, state_matrix(L12_TABLE[:4]))  # s5 omitted


def test_pinned_states_must_be_admissible():
    logic, _ = resolve_fixture("l12.json")
    rows = ((1, 1, 0, 0, 1),) + L12_TABLE[1:]
    with pytest.raises(PinnedStatesError, match="not admissible"):
        pinned_state_set(logic, state_matrix(rows))


def test_pinned_mismatch_counts_the_missing_valuations():
    logic, _ = resolve_fixture("l12.json")
    with pytest.raises(PinnedStatesError) as info:
        pinned_state_set(logic, state_matrix(L12_TABLE[:2]))
    assert str(info.value) == (
        "pinned states do not match the full enumeration "
        "(3 of 5 valuations missing)"
    )


def test_first_inadmissible_pinned_row_is_named():
    logic, _ = resolve_fixture("l12.json")
    rows = L12_TABLE[:2] + ((1, 1, 0, 0, 1), (0, 0, 0, 0, 0)) + L12_TABLE[2:]
    with pytest.raises(PinnedStatesError, match=r"^pinned state s3 is not admissible"):
        pinned_state_set(logic, state_matrix(rows))


def test_pinned_states_must_be_distinct():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    with pytest.raises(PinnedStatesError, match="repeat"):
        pinned_state_set(logic, state_matrix(((1, 0), (1, 0))))


@pytest.mark.parametrize(
    "matrix, message",
    [
        (b"\1\0", "pinned state s1 has a 2-value vector for 3 atoms"),
        (b"\1\0\0\0", "pinned state s2 has a 1-value vector for 3 atoms"),
        (b"\1\0\0\0\1\0\0\0", "pinned state s3 has a 2-value vector for 3 atoms"),
    ],
)
def test_pinned_matrix_of_no_whole_rows_names_the_cut_row(matrix, message):
    # Once an IndexError (too short) or a missing valuation (too long).
    logic = small_logic([(0, 1, 2)])
    with pytest.raises(PinnedStatesError, match=f"^{message}$"):
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


def test_pinned_states_are_parsed_into_the_matrix():
    logic_file = load_fixture("l12.json")
    assert logic_file.pinned_states == state_matrix(L12_TABLE)


def test_state_set_rejects_bad_matrices():
    # Labels follow from position, so what is left to reject is the matrix:
    # a value other than 0 or 1, a length that is no whole number of rows,
    # and a repeated row; from_vectors rejects the same three.
    order = StateOrder.CANONICAL
    with pytest.raises(ValueError, match=r"^state s2: values must be 0 or 1$"):
        StateSet(b"\0\1\2\0", 2, order)
    with pytest.raises(ValueError, match=r"^state s2: values must be 0 or 1$"):
        StateSet.from_vectors([(0, 1), (2, 0)], order)
    ragged = r"^state matrix length 3 is not a multiple of 2$"
    with pytest.raises(ValueError, match=ragged):
        StateSet(b"\1\0\0", 2, order)
    # (1, 0), (0,), (1,) would join into two whole rows: lengths are checked first.
    for vectors in ([(1, 0), (0,)], [(1, 0), (0,), (1,)]):
        with pytest.raises(ValueError, match=r"^states have differing atom counts$"):
            StateSet.from_vectors(vectors, order)
    with pytest.raises(ValueError, match=r"^state value vectors are not distinct$"):
        StateSet(b"\1\0\0\1\1\0", 2, order)
    with pytest.raises(ValueError, match=r"^state value vectors are not distinct$"):
        StateSet.from_vectors([(1, 0), (0, 1), (1, 0)], order)


def test_builders_prove_their_states_without_the_constructor_checks(monkeypatch):
    # Enumeration, pinning and point induction prove distinct 0/1 rows
    # themselves; what they build still passes every public check.
    built = [
        enumerate_states(resolve_fixture("triangle.json")[0]),
        resolve_fixture("l12.json")[1],
        resolve_fixture("example_a.json")[1],
    ]
    assert [s.order_source for s in built] == list(StateOrder)
    for states in built:
        assert StateSet(states.matrix, states.width, states.order_source) == states
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
    narrow = StateSet(b"\1\0", 2, StateOrder.PINNED)
    with pytest.raises(ValueError, match="^state s1 has a 2-value vector for 3 atoms$"):
        WIDTH_CHECKED[entry](logic, narrow)
    # A set without states has no width to get wrong.
    if entry != "compile_grammar":  # which rejects it for having no states
        WIDTH_CHECKED[entry](logic, StateSet(b"", 2, StateOrder.PINNED))


# ------------------------------------------------- base-set / partitions


def test_example_a_point_induced_states():
    logic, states = resolve_fixture("example_a.json")
    assert logic.atoms == ("p", "not_p", "q", "not_q", "r", "not_r")
    assert logic.contexts == ((0, 1), (2, 3), (4, 5))
    assert states.order_source is StateOrder.POINT_INDUCED
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
    return logic, StateSet.from_vectors(vectors, StateOrder.POINT_INDUCED)


def _induced(build, spec: BaseSetSpec):
    try:
        logic, states = build(spec)
    except LogicFileError as exc:
        return ("error", str(exc), exc.location)
    return logic.atoms, logic.contexts, state_vectors(states), states.order_source


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


def tuples_view(logic: PartitionLogic, vectors, order: StateOrder):
    """Labels, value tuples, order source and support columns of ``vectors``."""
    columns = tuple(bytes(v[j] for v in vectors) for j in range(len(logic.atoms)))
    labels = tuple(f"s{i + 1}" for i in range(len(vectors)))
    return labels, tuple(map(tuple, vectors)), order, columns


def matrix_view(logic: PartitionLogic, states: StateSet):
    view = (
        states.labels(),
        state_vectors(states),
        states.order_source,
        supports(logic, states),
    )
    assert states.rows == tuple(map(bytes, view[1]))
    assert states.columns == view[3]
    return view


def pinned_by_tuples(logic: PartitionLogic, rows):
    """Reference: pinned_state_set over tuples, the enumeration brute-forced."""
    enumerated = brute_force_states(logic)
    for si, row in enumerate(rows):
        if row not in enumerated and not is_admissible(row, logic):
            raise PinnedStatesError(
                f"pinned state s{si + 1} is not admissible (some context does "
                "not have exactly one true atom)"
            )
    if len(set(rows)) != len(rows):
        raise PinnedStatesError("pinned states repeat a valuation")
    if set(rows) != enumerated:
        missing = len(enumerated - set(rows))
        raise PinnedStatesError(
            "pinned states do not match the full enumeration "
            f"({missing} of {len(enumerated)} valuations missing)"
        )
    return tuples_view(logic, rows, StateOrder.PINNED)


def pinned_outcome(pin, logic, rows):
    try:
        return pin(logic, rows)
    except PinnedStatesError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_enumerated_and_pinned_matrices_equal_the_per_tuple_path(rng, data):
    logic = random_logic(rng)
    canonical = sorted(brute_force_states(logic), reverse=True)
    expected = tuples_view(logic, canonical, StateOrder.CANONICAL)
    assert matrix_view(logic, enumerate_states(logic)) == expected
    rows = list(data.draw(st.permutations(canonical)))
    edit = data.draw(st.sampled_from(["none", "drop", "repeat", "flip"]))
    if rows and edit == "drop":
        rows.pop()
    elif rows and edit == "repeat":
        rows.append(rows[0])
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
    expected = tuples_view(logic, vectors, StateOrder.POINT_INDUCED)
    assert matrix_view(logic, states) == expected


# ------------------------------------------------------------ separation


def test_l12_states_separate():
    logic, states = resolve_fixture("l12.json")
    result = is_separating(states, logic)
    assert result
    assert result.witness is None


def test_single_context_separates():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    assert is_separating(enumerate_states(logic), logic)


def test_shared_atom_pair_fails_separation_with_witness():
    logic = small_logic([(0, 1), (0, 2)])
    states = enumerate_states(logic)
    assert set(state_vectors(states)) == {(1, 0, 0), (0, 1, 1)}
    result = is_separating(states, logic)
    assert not result
    assert result.witness == ("y", "z")
    assert not separating_by_oracle(states, logic)


def test_separation_agrees_with_oracle_on_random_logics():
    rng = random.Random(31337)
    for _ in range(80):
        logic = random_logic(rng)
        states = enumerate_states(logic)
        assert bool(is_separating(states, logic)) == separating_by_oracle(states, logic)


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
    states = StateSet.from_vectors([(1, 0, 0, 1), (0, 1, 1, 0)], StateOrder.PINNED)
    result = is_separating(states, logic)
    assert not result
    assert result.witness == ("a", "d")
    assert first_clash_by_pairs(states, logic) == ("a", "d")


def test_witness_agrees_with_pairwise_oracle_on_random_logics():
    rng = random.Random(4242)
    clashes = 0
    for _ in range(300):
        logic = random_logic(rng, max_atoms=10)
        states = enumerate_states(logic)
        expected = first_clash_by_pairs(states, logic)
        result = is_separating(states, logic)
        assert result.witness == expected
        assert bool(result) == (expected is None)
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
    states = StateSet.from_vectors([(0, 1)], StateOrder.CANONICAL)
    # the single state values x as 0, so T(x) is the empty cell
    assert partition_representation(logic, states) == (((), ("s1",)),)


def test_partition_representation_rejects_overlap():
    logic = small_logic([(0, 1)], atoms=("x", "y"))
    states = StateSet.from_vectors([(1, 1), (1, 0)], StateOrder.CANONICAL)
    with pytest.raises(NotAPartitionError, match="do not partition"):
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
    return renamed(logic, names), StateSet(states.matrix[: n * m], m, states.order_source)


TABLE_FAMILIES = st.one_of(
    st.integers(1, 12).map(chain_logic),
    context_sizes(8).map(lambda sizes: glued_logic(0, sizes)),
    logics(max_atoms=14),
)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_state_table_equals_the_row_at_a_time_table(table):
    assert format_state_table(*table) == reference_state_table(*table)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 233])
def test_state_table_labels_cross_a_digit(n):
    logic = renamed(chain_logic(10), [f"\u00e9{'x' * (j % 4)}{j}" for j in range(21)])
    states = enumerate_states(logic)
    states = StateSet(states.matrix[: n * 21], 21, StateOrder.CANONICAL)
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
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.lists(hostile_rows(m)))))
def test_pinned_rows_parse_as_the_row_loop_does(drawn):
    m, raw_states = drawn
    logic = PartitionLogic("logic", atom_names(m + 1), ((*range(m), m),))

    def outcome(parse):
        try:
            return parse(raw_states, logic)
        except LogicFileError as exc:
            return str(exc)

    assert outcome(_parse_pinned_states) == outcome(pinned_rows_by_loop)
