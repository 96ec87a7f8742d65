"""Simple generative logic grammars compiled from partition logics.

The compiler translates a logic plus a separating state set into a flat,
non-recursive grammar: a start rule expanding into one nonterminal per
atom, and per atom a row rule listing the supporting state symbols, a
separator, the complementary symbols, and a line break. The derivation
engine expands any grammar of this kind (not only compiled ones) by
deterministic leftmost rewriting.

Symbols live in one table per grammar, each distinct symbol once; a
production body, like a derivation's token sequence, is an ``array('I')``
of symbol numbers (table positions), 4 bytes a token. A compiled table is
``br``, ``n``, ``s1..sN``, then the atoms, so row bodies come straight
from the state columns. ``Grammar.from_symbols`` and
``Derivation.from_tokens`` intern hand-built ``Symbol`` sequences. Only
they and the ``Grammar`` constructor scan bodies to check and lay out a
grammar; a compiled grammar comes with its layout, known before any token.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import attrgetter, or_

from .errors import (
    CyclicGrammarError,
    EmptyStateSetError,
    NotSeparatingError,
    ValidationError,
)
from .logic import PartitionLogic, StateSet, is_admissible, supports
from .value import Value

SEPARATOR_NAME = "br"
LINEBREAK_NAME = "n"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 byte string's complement


class SymbolKind(Enum):
    NONTERMINAL = "nonterminal"
    STATE = "state"
    SEPARATOR = "separator"
    LINEBREAK = "linebreak"


class Symbol(Value):
    kind: SymbolKind
    name: str

    def __init__(self, kind: SymbolKind, name: str):  # once per state and atom
        fields = self.__dict__
        fields["kind"], fields["name"] = kind, name

    def __str__(self) -> str:
        return self.name


SEPARATOR = Symbol(SymbolKind.SEPARATOR, SEPARATOR_NAME)
LINEBREAK = Symbol(SymbolKind.LINEBREAK, LINEBREAK_NAME)


_kind = attrgetter("kind")
_name = attrgetter("name")


def _intern(sequences) -> tuple[tuple[Symbol, ...], list[array]]:
    """The distinct symbols by first use, and each sequence as their numbers."""
    ids: dict[Symbol, int] = {}
    arrays = [array("I", [ids.setdefault(s, len(ids)) for s in q]) for q in sequences]
    return tuple(ids), arrays


def _find_all(raw: bytes, number: int) -> list[int]:
    """Positions of ``number`` in the ``array('I')`` whose bytes are ``raw``."""
    key = array("I", [number]).tobytes()
    found, at = [], raw.find(key)
    while at >= 0:
        if at % len(key) == 0:  # else the match straddles two items
            found.append(at // len(key))
        at = raw.find(key, at + 1)
    return found


class Production(Value):
    head: str
    body: array  # symbol numbers: positions in the grammar's table

    def __init__(self, head: str, body: array):  # once per atom
        fields = self.__dict__
        fields["head"], fields["body"] = head, body


class Grammar(Value):
    """Nonterminals, state terminals, productions and start symbol.

    ``symbols`` is the table the production bodies index, each symbol
    once. The layout symbols are always ``br`` and ``n``; binding symbols
    to colors or other realizations happens in the render layer. Only the
    constructor and ``from_symbols`` scan bodies for the layout (where the
    nonterminals and ``n`` sit); a compiled grammar comes with its layout.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    productions: tuple[Production, ...]
    start: str
    symbols: tuple[Symbol, ...]

    @classmethod
    def from_symbols(cls, nonterminals, terminals, rules, start) -> Grammar:
        """A grammar from ``(head, body symbols)`` rules; equal symbols share
        one table entry, in order of first use."""
        symbols, bodies = _intern(body for _, body in rules)
        productions = tuple(Production(h, body) for (h, _), body in zip(rules, bodies))
        return cls(tuple(nonterminals), tuple(terminals), productions, start, symbols)

    def __post_init__(self):
        v, sigma = set(self.nonterminals), set(self.terminals)
        if len(v) != len(self.nonterminals) or len(sigma) != len(self.terminals):
            raise ValueError("symbol declarations repeat a name")
        overlap = (v & sigma) | ((v | sigma) & {SEPARATOR_NAME, LINEBREAK_NAME})
        if overlap:
            raise ValueError(f"symbols declared in more than one class: {sorted(overlap)}")
        if self.start not in v:
            raise ValueError(f"start symbol {self.start!r} is not a nonterminal")
        heads = [p.head for p in self.productions]
        if sorted(heads) != sorted(self.nonterminals):
            raise ValueError("grammar needs exactly one production per nonterminal")
        # Each declared name fixes a kind; only a misfit looks at single symbols.
        kind_of = {SEPARATOR.name: SEPARATOR.kind, LINEBREAK.name: LINEBREAK.kind}
        kind_of.update(dict.fromkeys(v, SymbolKind.NONTERMINAL))
        kind_of.update(dict.fromkeys(sigma, SymbolKind.STATE))
        names = list(map(_name, self.symbols))
        if list(map(kind_of.get, names)) != list(map(_kind, self.symbols)):
            for sym in self.symbols:  # the first misfit in table order
                if sym.kind is SymbolKind.NONTERMINAL and sym.name not in v:
                    raise ValueError(f"undeclared nonterminal {sym.name!r}")
                if sym.kind is SymbolKind.STATE and sym.name not in sigma:
                    raise ValueError(f"undeclared terminal {sym.name!r}")
                if sym.kind is SymbolKind.SEPARATOR and sym.name != SEPARATOR_NAME:
                    raise ValueError("separator symbol must be named 'br'")
                if sym.kind is SymbolKind.LINEBREAK and sym.name != LINEBREAK_NAME:
                    raise ValueError("linebreak symbol must be named 'n'")
        # A name fixes the kind now, so a repeated name is a repeated entry.
        if len(set(names)) != len(names):
            raise ValueError("symbol table repeats a symbol")
        self._check_acyclic()

    @cached_property
    def _layout(self) -> dict[str, tuple[list[int], list[int]]]:
        """Per head, the body positions of its nonterminals and of ``n``."""
        kinds = list(map(_kind, self.symbols))
        nts = {i for i, kind in enumerate(kinds) if kind is SymbolKind.NONTERMINAL}
        breaks = {i for i, kind in enumerate(kinds) if kind is SymbolKind.LINEBREAK}
        numbers, layout = set(range(len(kinds))), {}
        for p in self.productions:
            present = set(p.body)  # each distinct symbol number once
            if not present <= numbers:
                raise ValueError(f"production {p.head!r} names no symbol of the table")
            refs = [k for k, x in enumerate(p.body) if x in nts] if nts & present else []
            found = [k for x in breaks & present for k in _find_all(p.body.tobytes(), x)]
            layout[p.head] = (refs, found)
        return layout

    def _check_acyclic(self) -> None:
        refs = {
            p.head: [self.symbols[p.body[k]].name for k in self._layout[p.head][0]]
            for p in self.productions
        }
        # Depth-first with an explicit stack of child iterators: a reference
        # back into the current path closes a cycle through that nonterminal.
        done: set[str] = set()
        for root in refs:
            if root in done:
                continue
            path = {root}
            stack = [(root, iter(refs[root]))]
            while stack:
                head, children = stack[-1]
                for ref in children:
                    if ref in path:
                        raise CyclicGrammarError(f"nonterminal {ref!r} derives itself")
                    if ref not in done:
                        path.add(ref)
                        stack.append((ref, iter(refs[ref])))
                        break
                else:
                    stack.pop()
                    path.remove(head)
                    done.add(head)

    @cached_property
    def _by_head(self) -> dict[str, Production]:
        return {p.head: p for p in self.productions}

    def production_for(self, head: str) -> Production:
        return self._by_head[head]


class Derivation(Value):
    """Fully expanded token sequence: ``symbols`` holds each distinct symbol
    once and ``indices`` the tokens as an ``array('I')`` of positions in it.

    ``row_boundaries`` are the token indices of linebreaks; ``row_atoms``
    names, per row, the nonterminal whose production emitted it.
    """

    symbols: tuple[Symbol, ...]
    indices: array
    row_boundaries: tuple[int, ...]
    row_atoms: tuple[str, ...]

    @classmethod
    def from_tokens(cls, tokens, row_boundaries, row_atoms) -> Derivation:
        """A derivation from one ``Symbol`` per token, equal ones interned."""
        symbols, (indices,) = _intern([tokens])
        return cls(symbols, indices, tuple(row_boundaries), tuple(row_atoms))

    @property
    def tokens(self) -> tuple[Symbol, ...]:
        """One ``Symbol`` per token, looked up in the table."""
        return tuple(map(self.symbols.__getitem__, self.indices))

    def rows(self) -> tuple[array, ...]:
        """Symbol numbers between linebreaks; linebreaks themselves excluded."""
        starts = (0, *(boundary + 1 for boundary in self.row_boundaries))
        ends = (*self.row_boundaries, len(self.indices))
        return tuple(filter(None, map(self.indices.__getitem__, map(slice, starts, ends))))


class RowViolation(Value):
    row_index: int
    atom: str
    labels: tuple[str, ...]


class IncidenceReport(Value):
    ok: bool
    violations: tuple[RowViolation, ...]


def compile_grammar(logic: PartitionLogic, states: StateSet) -> Grammar:
    """Translate a logic plus admissible, separating states into a grammar.

    The start rule expands into the atoms in declaration order; each atom's
    rule lists its supporting state symbols, then ``br``, then the rest,
    then ``n``. Every row, including the last, ends with ``n`` so that all
    rows have uniform shape.
    """
    if len(states) == 0:
        raise EmptyStateSetError(f"logic {logic.name!r} admits no two-valued states")
    table = supports(logic, states)
    # Every state has one true atom per context iff the context's columns hold
    # N ones and, or-ed as integers, cover all; only a failure looks at states.
    everyone = int.from_bytes(b"\1" * len(states), "big")
    for ctx in logic.contexts:
        cells = [table.columns[j] for j in ctx]
        covered = reduce(or_, (int.from_bytes(c, "big") for c in cells), 0)
        if sum(c.count(1) for c in cells) != len(states) or covered != everyone:
            bad = next(i for i, row in enumerate(states.rows) if not is_admissible(row, logic))
            raise ValidationError(f"state s{bad + 1} is not admissible")
    separation = table.separation()
    if not separation:
        raise NotSeparatingError(*separation.witness)

    labels = table.state_labels
    taken = {SEPARATOR_NAME, LINEBREAK_NAME, *{logic.name, *logic.atoms}.intersection(labels)}
    if logic.name in taken or logic.name in logic.atoms:
        raise ValidationError(
            f"logic name {logic.name!r} collides with another grammar symbol"
        )
    for atom in logic.atoms:
        if atom in taken:
            raise ValidationError(
                f"atom {atom!r} collides with a state label or layout symbol"
            )

    # Symbol numbers: br 0, n 1, the state labels 2..N+1, then the atoms.
    n, m = len(labels), len(logic.atoms)
    ids = list(range(2, n + 2))
    symbols = (
        SEPARATOR,
        LINEBREAK,
        *map(Symbol, repeat(SymbolKind.STATE), labels),
        *map(Symbol, repeat(SymbolKind.NONTERMINAL), logic.atoms),
    )
    productions = [Production(logic.name, array("I", range(n + 2, n + 2 + m)))]
    for atom, column in zip(logic.atoms, table.columns):
        false = column.translate(_FLIP)
        body = array("I", [*compress(ids, column), 0, *compress(ids, false), 1])
        productions.append(Production(atom, body))
    # The checks above cover __post_init__'s, so the grammar comes with its layout:
    # the start rule names atoms 0..M-1; a row rule, no nonterminal and n at N+1.
    row = ([], [n + 1])  # one for every atom: derive only reads a layout
    grammar = Grammar.__new__(Grammar)
    grammar.__dict__.update(
        nonterminals=(logic.name, *logic.atoms),
        terminals=labels,
        productions=tuple(productions),
        start=logic.name,
        symbols=symbols,
        _layout={logic.name: (list(range(m)), []), **dict.fromkeys(logic.atoms, row)},
    )
    return grammar


def derive(grammar: Grammar) -> Derivation:
    """Deterministic leftmost expansion of the start symbol (acyclic, so finite).

    Each run of terminals is copied into the token array in one piece. The
    derivation shares the grammar's table up to its last terminal.
    """
    symbols = grammar.symbols
    ends = [i + 1 for i, s in enumerate(symbols) if s.kind is not SymbolKind.NONTERMINAL]
    end = max(ends, default=0)
    indices = array("I")
    boundaries: list[int] = []  # token indices of the linebreaks
    run_starts: list[int] = []  # first token of each run of terminals ...
    run_heads: list[str] = []  # ... and the nonterminal whose body holds it
    # Per open expansion: head and how many of its references are expanded.
    stack = [(grammar.start, 0)]
    while stack:
        head, done = stack.pop()
        body = grammar.production_for(head).body
        refs, breaks = grammar._layout[head]
        pos = refs[done - 1] + 1 if done else 0
        stop = refs[done] if done < len(refs) else len(body)
        if stop > pos:
            offset = len(indices) - pos
            run_starts.append(len(indices))
            run_heads.append(head)
            indices.extend(body[pos:stop])
            lo, hi = bisect_left(breaks, pos), bisect_left(breaks, stop)
            boundaries.extend(k + offset for k in breaks[lo:hi])
        if done < len(refs):
            stack.append((head, done + 1))
            stack.append((symbols[body[stop]].name, 0))

    # Each nonempty row belongs to the run that holds its first token.
    starts = (0, *(boundary + 1 for boundary in boundaries))
    row_atoms = tuple(
        run_heads[bisect_right(run_starts, start) - 1]
        for start, stop in zip(starts, (*boundaries, len(indices)))
        if stop > start
    )
    return Derivation(symbols[:end], indices, tuple(boundaries), row_atoms)


def check_incidence(
    derivation: Derivation, logic: PartitionLogic, states: StateSet
) -> IncidenceReport:
    """Verify that each row places every state symbol on the correct side.

    For row j and state i, the symbol s_i must sit left of the separator
    exactly when state i values atom j as 1. Structural damage (wrong row
    count, state vectors that do not fit the atoms, missing separator,
    token numbers past the symbol table, wrong symbol multiset) is a
    precondition breach and raises ``ValueError``; side mismatches are
    reported.
    """
    rows = derivation.rows()
    m = len(logic.atoms)
    if len(rows) != m:
        raise ValueError(f"derivation has {len(rows)} rows for {m} atoms")
    if len(states) and states.width != m:
        raise ValueError(f"state s1 has a {states.width}-value vector for {m} atoms")
    labels = states.labels()
    symbols = derivation.symbols
    separators = [i for i, s in enumerate(symbols) if s.kind is SymbolKind.SEPARATOR]
    # Each label's state symbol by number. A row that holds only these
    # beside its separator is checked by set sizes, any other name by name.
    number = {s.name: i for i, s in enumerate(symbols) if s.kind is SymbolKind.STATE}
    ids = [number.get(label) for label in labels]
    label_numbers = set(ids) - {None}
    # Atom j's column is every m-th byte: read from the states, not supports().
    matrix = states.matrix
    violations = []
    for j, row in enumerate(rows):
        raw = row.tobytes()
        cuts = [k for s in separators for k in _find_all(raw, s)]
        if len(cuts) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        left, right = set(row[: cuts[0]]), set(row[cuts[0] + 1 :])
        if left <= label_numbers and right <= label_numbers:
            once = len(left) + len(right) == len(row) - 1 == len(labels)
            once = once and left.isdisjoint(right)
        else:
            if max(row) >= len(symbols):
                raise ValueError(f"row {j} names symbol number {max(row)}, past the table")
            tokens = list(map(symbols.__getitem__, row))
            states_named = [s.name for s in tokens if s.kind is SymbolKind.STATE]
            once = sorted(states_named) == sorted(labels)
            left = {number.get(s.name) for s in tokens[: cuts[0]]} & label_numbers
        if not once:
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        column = matrix[j::m]
        if len(left) != column.count(1) or not left.issuperset(compress(ids, column)):
            mismatched = tuple(
                label
                for label, i, value in zip(labels, ids, column)
                if (i in left) != (value == 1)
            )
            violations.append(RowViolation(j, logic.atoms[j], mismatched))
    return IncidenceReport(not violations, tuple(violations))


def production_text(grammar: Grammar) -> str:
    """Plain-text production listing in arrow notation.

    The start rule is set off from the row rules by a blank line, matching
    the layered source layout used by :func:`sglg.render.emit_logic_program`.
    """
    names = list(map(_name, grammar.symbols))
    lines = [
        f"{p.head} --> {','.join(map(names.__getitem__, p.body))}."
        for p in grammar.productions
    ]
    if len(lines) > 1:
        lines.insert(1, "")
    return "\n".join(lines) + "\n"


def productions_json(grammar: Grammar) -> str:
    """Productions as a JSON object mapping each head to its body symbols."""
    names = list(map(_name, grammar.symbols))
    payload = {p.head: list(map(names.__getitem__, p.body)) for p in grammar.productions}
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
