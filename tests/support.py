"""Shared fixtures-loading helpers and independent oracles for the tests.

The brute-force state oracle deliberately re-derives admissibility from
scratch (filter all 2^m bit vectors) instead of calling into the package,
so enumeration bugs cannot hide behind a shared implementation.
"""

from __future__ import annotations

import random
import re
import string
import tracemalloc
from itertools import chain, combinations, product
from operator import getitem
from pathlib import Path

import pytest

from sglg import (
    Grammar,
    LogicFileError,
    PartitionLogic,
    StateSet,
    Symbol,
    SymbolKind,
    enumerate_states,
    is_separating,
    parse_logic_file,
    resolve_states,
    supports,
)
from sglg.logic import _context_masks

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
    lies_in = _context_masks(logic)
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
    return Grammar.from_symbols(
        (
            (name, (Symbol(SymbolKind.NONTERMINAL, "x"),)),
            (
                "x",
                (
                    Symbol(SymbolKind.STATE, "s1"),
                    Symbol(SymbolKind.SEPARATOR, "br"),
                    Symbol(SymbolKind.LINEBREAK, "n"),
                ),
            ),
        )
    )


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
    return [grammar.symbols[i].name for i in grammar.production_for(head).body]


def listing(grammar: Grammar) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(head, body symbol names) per production."""
    return tuple(
        (p.head, tuple(grammar.symbols[i].name for i in p.body))
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
