"""Shared fixtures-loading helpers and independent oracles for the tests.

The brute-force state oracle deliberately re-derives admissibility from
scratch (filter all 2^m bit vectors) instead of calling into the package,
so enumeration bugs cannot hide behind a shared implementation.
"""

from __future__ import annotations

import copy
import json
import math
import random
import re
import string
import tracemalloc
from itertools import chain, combinations, product
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import strategies as st

from sglg import (
    Grammar,
    LogicFileError,
    PartitionLogic,
    StateSet,
    enumerate_states,
    is_separating,
    parse_logic_file,
    resolve_states,
    supports,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# Golden valuation tables for the two pasting fixtures, in pinned order.
L12_TABLE = (
    (1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1),
    (0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0),
)
TRIANGLE_TABLE = (
    (1, 0, 0, 1, 0, 0),
    (0, 1, 0, 1, 0, 1),
    (0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
)


def load_fixture(name: str):
    return parse_logic_file((FIXTURES / name).read_text(encoding="utf-8"))


def resolve_fixture(name: str) -> tuple[PartitionLogic, StateSet]:
    return resolve_states(load_fixture(name))


def state_vectors(states: StateSet) -> tuple[tuple[int, ...], ...]:
    """Per state in order, its 0/1 values over the atoms; state i is labeled
    ``states.labels()[i]``."""
    return tuple(map(tuple, states.rows))


def state_matrix(rows) -> bytes:
    """Rows of 0/1 values, all of one width, joined into one state matrix."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows of differing widths do not make a matrix")
    return bytes(chain.from_iterable(rows))


def reference_state_table(logic: PartitionLogic, states: StateSet) -> str:
    """Table I a row at a time: the join per state that ``sglg.cli.format_state_table``
    replaced with strided copies, kept as its oracle."""
    label_width = max(map(len, states.labels()), default=0)
    lines = [" " * label_width + "".join(f"  {atom}" for atom in logic.atoms)]
    # Per atom, its cell for value 0 and for value 1, right-aligned under it.
    cells = [(f"  {0:>{len(atom)}}", f"  {1:>{len(atom)}}") for atom in logic.atoms]
    for label, row in zip(states.labels(), states.rows):
        lines.append(f"{label:<{label_width}}" + "".join(map(getitem, cells, row)))
    return "\n".join(lines) + "\n"


def brute_force_states(logic: PartitionLogic) -> set[tuple[int, ...]]:
    """All valuations with exactly one true atom per context, by filtering."""
    hits = set()
    for bits in product((0, 1), repeat=len(logic.atoms)):
        if all(sum(bits[j] for j in ctx) == 1 for ctx in logic.contexts):
            hits.add(bits)
    return hits


def reference_state_masks(logic: PartitionLogic) -> list[int]:
    """Every two-valued state as an atom mask, atom 0 the top bit; unordered.

    The plain search that ``sglg.logic._state_masks`` memoizes, kept as its
    oracle: it solves a subproblem again each time a prefix reaches it and
    pushes a node per forced choice. An exact cover of the contexts by the atoms (Knuth's Algorithm X) with
    an explicit stack, so no depth is too deep. Each node branches on the
    open context with the fewest live atoms; choosing an atom closes its
    contexts and kills every atom sharing a context with it.
    """
    m = len(logic.atoms)
    bits = [1 << (m - 1 - j) for j in range(m)]
    members = [sum(bits[j] for j in ctx) for ctx in logic.contexts]
    lies_in = logic._atom_contexts
    clash = [0] * m  # atoms sharing a context with atom j, j included
    touch = [0] * m  # contexts whose live count may drop when j is chosen
    for ci, ctx in enumerate(logic.contexts):
        reach = 0
        for k in ctx:
            reach |= lies_in[k]
        for j in ctx:
            clash[j] |= members[ci]
            touch[j] |= reach
    found: list[int] = []
    # (state, live atoms, open contexts, hot): every open context with at
    # most one live atom is in hot, so a forced or dead context is found
    # without scanning all of them.
    stack = [(0, (1 << m) - 1, (1 << len(logic.contexts)) - 1, 0)]
    while stack:
        state, live, open_, hot = stack.pop()
        if not open_:
            found.append(state)
            continue
        pick, fewest = -1, m + 1
        while hot:
            low = hot & -hot
            ci = low.bit_length() - 1
            count = (members[ci] & live).bit_count()
            if count <= 1:
                pick, fewest = ci, count
                break
            hot ^= low
        if pick < 0:
            rest = open_
            while rest:
                low = rest & -rest
                rest ^= low
                ci = low.bit_length() - 1
                count = (members[ci] & live).bit_count()
                if count < fewest:
                    pick, fewest = ci, count
                    if count == 2:  # the least possible once hot is empty
                        break
        if fewest == 0:
            continue
        for j in logic.contexts[pick]:
            if live & bits[j]:
                closed = open_ & ~lies_in[j]
                stack.append(
                    (state | bits[j], live & ~clash[j], closed, (hot | touch[j]) & closed)
                )
    return found


def random_logic(rng: random.Random, max_atoms: int = 8) -> PartitionLogic:
    """A random pasted logic with sanitized contexts.

    Contexts that would nest are discarded and atoms left uncovered are
    dropped (with indices remapped), so the result always satisfies the
    structural invariants.
    """
    while True:
        m = rng.randint(2, max_atoms)
        wanted = rng.randint(1, 4)
        contexts: list[tuple[int, ...]] = []
        for _ in range(wanted * 3):
            if len(contexts) >= wanted:
                break
            size = rng.randint(2, min(m, 4))
            ctx = tuple(sorted(rng.sample(range(m), size)))
            sets = [set(c) for c in contexts]
            if any(set(ctx) <= s or s <= set(ctx) for s in sets):
                continue
            contexts.append(ctx)
        if not contexts:
            continue
        covered = sorted({j for ctx in contexts for j in ctx})
        remap = {j: i for i, j in enumerate(covered)}
        atoms = tuple(string.ascii_lowercase[i] for i in range(len(covered)))
        return PartitionLogic(
            name="random_logic",
            atoms=atoms,
            contexts=tuple(tuple(remap[j] for j in ctx) for ctx in contexts),
        )


def random_separating_logic(
    rng: random.Random, max_atoms: int = 8, max_states: int = 16
) -> tuple[PartitionLogic, StateSet]:
    """Rejection-sample until the enumerated states separate the atoms."""
    while True:
        logic = random_logic(rng, max_atoms)
        states = enumerate_states(logic)
        if 0 < len(states) <= max_states and is_separating(states, logic):
            return logic, states


def one_state_grammar(name: str = "g") -> Grammar:
    """The smallest useful grammar: one row holding one state symbol."""
    return Grammar.from_symbols(((name, ("x",)), ("x", ("s1", "br", "n"))))


def _labels_valuing(logic: PartitionLogic, states: StateSet, atom: str, value: int):
    """The labels of the states that value ``atom`` as ``value``, in state
    order, read off the atom's support column."""
    column = supports(logic, states)[logic.atoms.index(atom)]
    return tuple(label for label, v in zip(states.labels(), column) if v == value)


def true_labels(logic: PartitionLogic, states: StateSet, atom: str) -> tuple[str, ...]:
    """The labels of the states that value ``atom`` 1, in state order."""
    return _labels_valuing(logic, states, atom, 1)


def false_labels(logic: PartitionLogic, states: StateSet, atom: str) -> tuple[str, ...]:
    """The labels of the states that value ``atom`` 0, in state order."""
    return _labels_valuing(logic, states, atom, 0)


def traced_peak(call, *args) -> int:
    """The peak of the memory ``tracemalloc`` sees allocated during the call."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def body_names(grammar: Grammar, head: str) -> list[str]:
    body = dict(zip(grammar.nonterminals, grammar.productions))[head].body
    return [grammar.symbols[i] for i in body]


# Names a JSON or source writer must quote or pass through unchanged: quotes,
# backslashes, control characters, a line separator and non-ASCII letters.
# None of them is br or n.
hostile_names = st.text(st.sampled_from('a1_"\\\x00\x1f\n\u2028é字'), min_size=1, max_size=3)


@st.composite
def hostile_flat_grammars(draw) -> Grammar:
    """A flat grammar with up to four rows over hostile names; with no rows,
    the start rule's body is empty."""
    names = draw(st.lists(hostile_names, unique=True, max_size=9))
    rows = draw(st.integers(0, min(4, max(len(names) - 1, 0))))
    start, heads, states = (names[0] if names else "g"), names[1 : rows + 1], names[rows + 1 :]
    body = st.lists(st.sampled_from([*states, "br"]), max_size=6)
    return Grammar.from_symbols(((start, tuple(heads)), *((h, (*draw(body), "n")) for h in heads)))


def listing(grammar: Grammar) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(head, body symbol names) per production."""
    return tuple(
        (p.head, tuple(grammar.symbols[i] for i in p.body))
        for p in grammar.productions
    )


_RULE_RE = re.compile(r"^(?P<head>\S+)\s*-->\s*(?P<body>.*)\.$")


def parse_production_listing(text: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Recover (head, body-symbol-names) pairs from a production listing.

    Bracketed bodies (repertoire and layout bindings of a full logic
    program) are skipped, so the structural layer can be recovered from
    either a bare listing or complete program source.
    """
    productions = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        match = _RULE_RE.match(stripped)
        if match is None:
            raise LogicFileError("not a production rule", f"line {lineno}")
        body = match.group("body").strip()
        if body.startswith("["):
            continue
        names = tuple(part.strip() for part in body.split(","))
        if not all(names):
            raise LogicFileError("empty symbol in rule body", f"line {lineno}")
        productions.append((match.group("head"), names))
    return tuple(productions)


def separating_by_oracle(states, logic: PartitionLogic) -> bool:
    """Independent pairwise-support comparison."""
    vectors = state_vectors(states)
    support = {
        atom: frozenset(i for i, values in enumerate(vectors) if values[j] == 1)
        for j, atom in enumerate(logic.atoms)
    }
    return all(
        support[u] != support[v] for u, v in combinations(logic.atoms, 2)
    )


def random_base_set_spec(rng: random.Random, points: int, count: int) -> dict:
    """A base-set logic file: ``count`` distinct random partitions of 1..points.

    Distinct partitions give contexts that never nest, and distinct blocks
    always have distinct point-induced supports, so the logic separates.
    """
    base = list(range(1, points + 1))
    partitions: list[list[list[int]]] = []
    seen: set[frozenset[frozenset[int]]] = set()
    while len(partitions) < count:
        parts = rng.randint(2, 5)
        blocks: dict[int, list[int]] = {}
        for point in base:
            blocks.setdefault(rng.randrange(parts), []).append(point)
        key = frozenset(map(frozenset, blocks.values()))
        if len(blocks) < 2 or key in seen:
            continue
        seen.add(key)
        partition = list(blocks.values())
        rng.shuffle(partition)
        partitions.append(partition)
    return {"name": f"wide{points}x{count}", "base_set": base, "partitions": partitions}


def chain_spec(k: int) -> dict:
    """Chain-k: contexts {x_i, y_i, x_(i+1)} for i < k; F(k+3) states."""
    return {
        "name": f"chain{k}",
        "atoms": [f"x{i}" for i in range(k + 1)] + [f"y{i}" for i in range(k)],
        "contexts": [[f"x{i}", f"y{i}", f"x{i + 1}"] for i in range(k)],
    }


# ------------------------------------------------ hostile logic files

FIXTURE_DOCS = tuple(
    json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    for name in ("l12.json", "triangle.json", "example_a.json")
)
_HUGE = "\0huge"  # stands for an integer of more digits than int() reads
_JUNK = st.sampled_from(
    (None, True, False, 0, -1, 1.5, 1e308, "", "x", [], [[]], {}, {"a": 1}, _HUGE, 2**64)
).map(copy.deepcopy)


def _places(doc):
    """Every (container, key) of the document, the document's own keys first."""
    stack, places = [doc], []
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return places


def _containers(doc, kind):
    """The document and every value in it of this type, that type only."""
    return [node for node in (doc, *(c[k] for c, k in _places(doc))) if isinstance(node, kind)]


def _pick(draw, options):
    """One of the options, or None when there are none."""
    return draw(st.sampled_from(options)) if options else None


def _replace(values, test):
    """The mutation that puts a drawn value in place of one that passes the test."""

    def mutate(draw, doc):
        place = _pick(draw, [(c, k) for c, k in _places(doc) if test(c[k])])
        if place:
            node, key = place
            node[key] = draw(values)

    return mutate


def _rename(names):
    """The mutation that puts a drawn name in place of a string, and of every
    equal one: an atom is renamed in the contexts too, so the file stays whole."""

    def mutate(draw, doc):
        place = _pick(draw, [(c, k) for c, k in _places(doc) if isinstance(c[k], str)])
        if place:
            old, new = place[0][place[1]], draw(names)
            for node, key in _places(doc):
                if node[key] == old:
                    node[key] = new

    return mutate


def _drop_key(draw, doc):
    place = _pick(draw, [(c, k) for c, k in _places(doc) if isinstance(c, dict)])
    if place:
        node, key = place
        del node[key]


def _extra_key(draw, doc):
    key = draw(st.sampled_from(["extra", "states", "palette", "block_names", "base_set", "atoms"]))
    draw(st.sampled_from(_containers(doc, dict)))[key] = draw(_JUNK)


def _duplicate(draw, doc):
    node = _pick(draw, [c for c in _containers(doc, list) if c])
    if node:
        node.insert(draw(st.integers(0, len(node))), copy.deepcopy(draw(st.sampled_from(node))))


def _empty(draw, doc):
    node = _pick(draw, _containers(doc, list))
    if node:
        node.clear()


def _reshape_rows(draw, doc):
    rows = doc.get("states")
    if not isinstance(rows, list) or not rows:
        rows = doc["states"] = [[1, 0, 0, 0, 1]]
    j = draw(st.integers(0, len(rows) - 1))
    row = rows[j] if isinstance(rows[j], list) else []
    rows[j] = draw(st.sampled_from([row[:-1], [*row, 0], [row], 1, "10001", [*row[:-1], [0]]]))


# A valid color, and near misses: a digit short or over, not hex, fullwidth
# digits, a trailing newline, no "#".
_COLORS = ("#00ff7F", "#00000", "#0000000", "#GGGGGG", "#" + "\uff10" * 6, "#000000\n", "000000")


def _palette(draw, doc):
    """A palette of one entry: a state label, a layout symbol, an atom, a label
    no state has or "", given a valid color or a near miss."""
    atom = _pick(draw, [c[k] for c, k in _places(doc) if c is not doc and isinstance(c[k], str)])
    label = draw(st.sampled_from(["s1", "s4", "br", "n", atom or "a", "s99", ""]))
    doc["palette"] = {label: draw(st.sampled_from(_COLORS))}


def _nest(draw, doc):
    """A drawn ``contexts`` or ``states`` entry wrapped in one more list."""
    rows = _pick(draw, [doc[k] for k in ("contexts", "states") if isinstance(doc.get(k), list)])
    if rows:
        j = draw(st.integers(0, len(rows) - 1))
        rows[j] = [rows[j]]


_MUTATIONS = (
    _replace(_JUNK, lambda value: True),
    _replace(  # not an int where an int goes
        st.sampled_from([_HUGE, 10**30, -(2**63), 1.0, 0.5, -0.0, True, False]),
        lambda value: type(value) is int,
    ),
    _rename(  # a name taken by a layout symbol, a state label or a logic
        st.sampled_from(["br", "n", "s1", "s2", "s5", "v_logic", "triangle_logic", "horizontal_sum"])
    ),
    # a name holding a control, a surrogate, U+FFFE or the characters XML escapes
    _rename(st.sampled_from(["a\u0001", "a\nb", "\ud800", "\ufffe", "a&<b>\"'"])),
    _drop_key,
    _extra_key,
    _duplicate,
    _empty,
    _reshape_rows,
    _palette,
    _nest,
)


# Names no fixture holds that an atom may take: plain, non-ASCII, with XML's
# special characters, and a state label past every fixture's states.
_FRESH_NAMES = ("x", "xé", "a&<b>\"'", "s9")
# How a hostile file is written: json.dumps's default separators, compact, indented.
_LAYOUTS = ({}, {"separators": (",", ":")}, {"indent": 2})


@st.composite
def hostile_logic_files(draw) -> str:
    """The text of a fixture whose JSON took one to three mutations: wrong
    types, missing or extra keys, duplicates, empty lists, huge integers,
    floats or bools where integers go, names colliding with ``br``, ``n``,
    ``s<i>`` or the logic name, names holding a control character, a lone
    surrogate, U+FFFE or XML's special characters, pinned rows of the wrong
    shape, a context or pinned row nested in one more list, and a palette of
    one entry for any label, its color valid or a near miss. About half the
    files take one to three renames instead, each to a fresh name an atom may
    take, so that most of them stay whole and their outputs are checked. The
    text is written compact, indented or with ``json.dumps``'s default
    separators."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    if draw(st.booleans()):
        fresh = st.lists(st.sampled_from(_FRESH_NAMES), min_size=1, max_size=3, unique=True)
        for name in draw(fresh):
            _rename(st.just(name))(draw, doc)
    else:
        for _ in range(draw(st.integers(1, 3))):
            draw(st.sampled_from(_MUTATIONS))(draw, doc)
    layout = draw(st.sampled_from(_LAYOUTS))
    return json.dumps(doc, **layout).replace(json.dumps(_HUGE), "9" * 5000)


VECTOR_DOC = json.loads((FIXTURES / "l12_vectors.json").read_text(encoding="utf-8"))
_VECTOR_MUTATIONS = (
    *_MUTATIONS,
    _replace(  # a real no float holds, or none at all
        st.sampled_from([1e308, -1e308, 10**400, math.nan, math.inf, -math.inf]),
        lambda value: type(value) is float,
    ),
)


@st.composite
def hostile_vector_files(draw) -> str:
    """The text of ``l12_vectors.json`` after one to three of the mutations
    of :func:`hostile_logic_files`, or of a component replaced by 1e308,
    10**400, NaN or Infinity."""
    doc = copy.deepcopy(VECTOR_DOC)
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from(_VECTOR_MUTATIONS))(draw, doc)
    return json.dumps(doc).replace(json.dumps(_HUGE), "9" * 5000)
