"""Simple generative logic grammars compiled from partition logics.

The compiler translates a logic plus a separating state set into a flat,
non-recursive grammar: a start rule expanding into one nonterminal per
atom, and per atom a row rule listing the supporting state symbols, a
separator, the complementary symbols, and a line break. The derivation
engine expands any grammar of this kind (not only compiled ones) by
deterministic leftmost rewriting.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import attrgetter, is_
from typing import Iterator

from .errors import (
    CyclicGrammarError,
    EmptyStateSetError,
    LogicFileError,
    NotSeparatingError,
    ValidationError,
)
from .logic import PartitionLogic, StateSet, is_admissible, supports

SEPARATOR_NAME = "br"
LINEBREAK_NAME = "n"


class SymbolKind(Enum):
    NONTERMINAL = "nonterminal"
    STATE = "state"
    SEPARATOR = "separator"
    LINEBREAK = "linebreak"


@dataclass(frozen=True)
class Symbol:
    kind: SymbolKind
    name: str

    def __str__(self) -> str:
        return self.name


SEPARATOR = Symbol(SymbolKind.SEPARATOR, SEPARATOR_NAME)
LINEBREAK = Symbol(SymbolKind.LINEBREAK, LINEBREAK_NAME)


_kind = attrgetter("kind")
_name = attrgetter("name")


def nonterminal(name: str) -> Symbol:
    return Symbol(SymbolKind.NONTERMINAL, name)


def state_symbol(label: str) -> Symbol:
    return Symbol(SymbolKind.STATE, label)


@dataclass(frozen=True)
class Production:
    head: str
    body: tuple[Symbol, ...]


@dataclass(frozen=True)
class Grammar:
    """Nonterminals, state terminals, productions and start symbol.

    The layout symbols are always ``br`` and ``n``; binding symbols to
    colors or other realizations happens in the render layer.
    """

    nonterminals: tuple[str, ...]
    terminals: tuple[str, ...]
    productions: tuple[Production, ...]
    start: str

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
        # Each symbol object once, in order of first use: a compiled grammar
        # shares one Symbol per state label across all of its rows.
        distinct: dict[int, Symbol] = {}
        for production in self.productions:
            distinct.update(zip(map(id, production.body), production.body))
        for sym in distinct.values():
            if sym.kind is SymbolKind.NONTERMINAL and sym.name not in v:
                raise ValueError(f"undeclared nonterminal {sym.name!r}")
            if sym.kind is SymbolKind.STATE and sym.name not in sigma:
                raise ValueError(f"undeclared terminal {sym.name!r}")
            if sym.kind is SymbolKind.SEPARATOR and sym.name != SEPARATOR_NAME:
                raise ValueError("separator symbol must be named 'br'")
            if sym.kind is SymbolKind.LINEBREAK and sym.name != LINEBREAK_NAME:
                raise ValueError("linebreak symbol must be named 'n'")
        self._check_acyclic(distinct)

    def _check_acyclic(self, distinct: dict[int, Symbol]) -> None:
        names = {
            key: sym.name
            for key, sym in distinct.items()
            if sym.kind is SymbolKind.NONTERMINAL
        }
        refs = {
            p.head: [names[key] for key in filter(names.__contains__, map(id, p.body))]
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


@dataclass(frozen=True)
class Derivation:
    """Fully expanded token sequence, with row bookkeeping.

    ``row_boundaries`` are the token indices of linebreaks; ``row_atoms``
    names, per row, the nonterminal whose production emitted it.
    """

    tokens: tuple[Symbol, ...]
    row_boundaries: tuple[int, ...]
    row_atoms: tuple[str, ...]

    def rows(self) -> tuple[tuple[Symbol, ...], ...]:
        """Token runs between linebreaks; linebreaks themselves excluded."""
        rows = []
        start = 0
        for boundary in self.row_boundaries:
            rows.append(self.tokens[start:boundary])
            start = boundary + 1
        if start < len(self.tokens):
            rows.append(self.tokens[start:])
        return tuple(row for row in rows if row)

    @property
    def row_count(self) -> int:
        return len(self.row_atoms)


@dataclass(frozen=True)
class RowViolation:
    row_index: int
    atom: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class IncidenceReport:
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
        raise EmptyStateSetError(
            f"logic {logic.name!r} admits no two-valued states"
        )
    table = supports(logic, states)
    # Every state has one true atom per context iff each context's T-sets
    # partition the state labels; only a failure looks at single states.
    for ctx in logic.contexts:
        cells = [table.true_sets[j] for j in ctx]
        if sum(map(len, cells)) != len(states) or len(set().union(*cells)) != len(states):
            bad = next(s for s in states if not is_admissible(s.values, logic))
            raise ValidationError(f"state {bad.label} is not admissible")
    separation = table.separation()
    if not separation:
        raise NotSeparatingError(*separation.witness)

    labels = table.state_labels
    taken = {SEPARATOR_NAME, LINEBREAK_NAME, *labels}
    if logic.name in taken or logic.name in logic.atoms:
        raise ValidationError(
            f"logic name {logic.name!r} collides with another grammar symbol"
        )
    for atom in logic.atoms:
        if atom in taken:
            raise ValidationError(
                f"atom {atom!r} collides with a state label or layout symbol"
            )

    symbols = {label: state_symbol(label) for label in labels}
    productions = [
        Production(logic.name, tuple(nonterminal(a) for a in logic.atoms))
    ]
    for atom, true_set, false_set in zip(logic.atoms, table.true_sets, table.false_sets):
        true_part = [symbols[label] for label in true_set]
        false_part = [symbols[label] for label in false_set]
        body = (*true_part, SEPARATOR, *false_part, LINEBREAK)
        productions.append(Production(atom, body))
    return Grammar(
        nonterminals=(logic.name, *logic.atoms),
        terminals=labels,
        productions=tuple(productions),
        start=logic.name,
    )


def _kinds(body: tuple[Symbol, ...]) -> list[SymbolKind]:
    """The kinds of a body's symbols, then a NONTERMINAL that ends every search."""
    return [*map(_kind, body), SymbolKind.NONTERMINAL]


def derive(grammar: Grammar) -> Derivation:
    """Deterministic leftmost expansion of the start symbol (acyclic, so finite)."""
    tokens: list[Symbol] = []
    boundaries: list[int] = []  # token indices of the linebreaks
    run_starts: list[int] = []  # first token of each run of terminals ...
    run_heads: list[str] = []  # ... and the nonterminal whose body holds it
    # Per open expansion: head, body, the kinds of its symbols, next position.
    body = grammar.production_for(grammar.start).body
    stack = [(grammar.start, body, _kinds(body), 0)]
    while stack:
        head, body, kinds, pos = stack.pop()
        end = kinds.index(SymbolKind.NONTERMINAL, pos)
        if end > pos:
            offset = len(tokens) - pos
            run_starts.append(len(tokens))
            run_heads.append(head)
            tokens.extend(body[pos:end])
            for _ in range(kinds[pos:end].count(SymbolKind.LINEBREAK)):
                pos = kinds.index(SymbolKind.LINEBREAK, pos, end) + 1
                boundaries.append(pos - 1 + offset)
        if end < len(body):
            stack.append((head, body, kinds, end + 1))
            child = grammar.production_for(body[end].name).body
            stack.append((body[end].name, child, _kinds(child), 0))

    row_atoms = []
    start = 0
    for boundary in (*boundaries, len(tokens)):
        if boundary > start:
            row_atoms.append(run_heads[bisect_right(run_starts, start) - 1])
        start = boundary + 1
    return Derivation(tuple(tokens), tuple(boundaries), tuple(row_atoms))


def check_incidence(
    derivation: Derivation, logic: PartitionLogic, states: StateSet
) -> IncidenceReport:
    """Verify that each row places every state symbol on the correct side.

    For row j and state i, the symbol s_i must sit left of the separator
    exactly when state i values atom j as 1. Structural damage (wrong row
    count, missing separator, wrong symbol multiset) is a precondition
    breach and raises ``ValueError``; side mismatches are reported.
    """
    rows = derivation.rows()
    if len(rows) != len(logic.atoms):
        raise ValueError(
            f"derivation has {len(rows)} rows for {len(logic.atoms)} atoms"
        )
    labels = states.labels()
    label_set = set(labels)
    # Per atom, the states' values in state order; read from the states, not
    # from supports(), so the check shares no table with compile_grammar.
    columns = list(zip(*(s.values for s in states))) or [()] * len(rows)
    violations = []
    for j, row in enumerate(rows):
        kinds = list(map(_kind, row))
        if kinds.count(SymbolKind.SEPARATOR) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        names = list(map(_name, row))
        row_labels = list(compress(names, map(is_, kinds, repeat(SymbolKind.STATE))))
        # The labels s1..sN are distinct: equal count and set mean each once.
        if len(row_labels) != len(labels) or set(row_labels) != label_set:
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        left = set(names[: kinds.index(SymbolKind.SEPARATOR)])
        true = set(compress(labels, columns[j]))
        if left != true:
            mismatched = tuple(x for x in labels if (x in left) != (x in true))
            if mismatched:
                violations.append(RowViolation(j, logic.atoms[j], mismatched))
    return IncidenceReport(not violations, tuple(violations))


def production_text(grammar: Grammar) -> str:
    """Plain-text production listing in arrow notation.

    The start rule is set off from the row rules by a blank line, matching
    the layered source layout used by :func:`sglg.render.emit_logic_program`.
    """
    lines = [_production_line(grammar.productions[0])]
    if len(grammar.productions) > 1:
        lines.append("")
        lines.extend(_production_line(p) for p in grammar.productions[1:])
    return "\n".join(lines) + "\n"


def productions_json(grammar: Grammar) -> str:
    """Productions as a JSON object mapping each head to its body symbols."""
    payload = {p.head: [sym.name for sym in p.body] for p in grammar.productions}
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _production_line(production: Production) -> str:
    body = ",".join(sym.name for sym in production.body)
    return f"{production.head} --> {body}."


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
