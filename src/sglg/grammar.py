"""Simple generative logic grammars compiled from partition logics.

The compiler translates a logic plus a separating state set into the flat
grammar of the paper: a start rule expanding into one nonterminal per atom,
and per atom a row rule listing the supporting state symbols, a separator,
the complementary symbols, and a line break. Deriving the start symbol
writes the rows end to end.

A symbol is its name, a ``str``, and the name fixes its kind: ``br`` is
the separator, ``n`` the linebreak, the logic's name and its atoms the
nonterminals, and a state label a terminal. A ``Grammar`` is the logic and
the states it was compiled from, checked once when it is made; everything
else is a view of the two. Its symbol table is ``br``, ``n``, ``s1..sN``,
then the atoms; a body, like a derivation's token sequence, holds symbol
numbers (table positions), a hand-built derivation's
(``Derivation.from_tokens``) in an ``array('I')``.

A compiled grammar writes no token: atom j's row is its T-set, the layout
``[s1..sN, br, s1..sN, n]`` through the selector ``column_j + 1 + flipped
column_j + 1``, so its bodies and tokens are a ``_Selected`` of the state
columns. The row reader (``Derivation.rows``, ``Grammar.bodies``) takes a
list with an entry per symbol number (a name, a fill, a glyph) and yields
each row's entries as a list: a ``compress`` of the table's layout for a
compiled row, a lookup per token otherwise. Every listing, writer and
``check_incidence`` reads rows so.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from json.encoder import encode_basestring

from .errors import NotSeparatingError, ValidationError
from .logic import PartitionLogic, StateSet, _atom_width, _clash, _first_inadmissible
from .logic import _zero_one, supports
from .value import Value

SEPARATOR_NAME = "br"
LINEBREAK_NAME = "n"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 byte string's complement


class _Selected(Value):
    """Compiled rows' symbol numbers, made when read: per column (0/1 bytes,
    one per state), the labels 2..N+1 of the states valuing its atom 1,
    ``br`` (0), the other labels and ``n`` (1). It has at least one column."""

    columns: tuple[bytes, ...]

    def __init__(self, columns: tuple[bytes, ...]):  # once per atom, for productions
        self.__dict__["columns"] = columns

    def rows(self, table, linebreak: bool = True) -> Iterator[list]:
        """Per column, its row's entries in ``table``, and ``n``'s if ``linebreak``."""
        labels = table[2 : 2 + len(self.columns[0])]
        layout = [*labels, table[0], *labels, *table[1 : 1 + linebreak]]
        for c in self.columns:
            yield list(compress(layout, c + b"\1" + c.translate(_FLIP) + b"\1"))

    def __len__(self) -> int:
        return len(self.columns) * (len(self.columns[0]) + 2)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.rows(range(len(self.columns[0]) + 2)))


class Production(Value):
    head: str
    body: array  # symbol numbers: an array('I'), or a compiled row's _Selected

    __hash__ = None  # as an array body is

    def __init__(self, head: str, body: array):  # once per atom
        fields = self.__dict__
        fields["head"], fields["body"] = head, body


class Grammar(Value):
    """The flat grammar of a logic plus admissible, separating states.

    Making one checks the states against the logic, in this order: there are
    some, each is admissible, they separate the atoms, and no atom or logic
    name collides with another grammar symbol. The start rule (the logic's
    name) names the atoms in order; each atom's row holds the labels of the
    states valuing it 1, ``br``, the other labels and ``n``. The symbol table
    is ``br``, ``n``, the labels, then the atoms, so a derivation's table is
    the part before the atoms. Binding symbols to colors or other
    realizations happens in the render layer.
    """

    logic: PartitionLogic
    states: StateSet

    def __post_init__(self):
        logic, states = self.logic, self.states
        if len(states) == 0:
            raise ValidationError(f"logic {logic.name!r} admits no two-valued states", "contexts")
        columns = self.columns
        bad = _first_inadmissible(logic, states, columns)
        if bad is not None:
            raise ValidationError("not admissible", f"states[{bad}]")
        clash = _clash(columns)
        if clash is not None:  # named where the later atom is declared
            i, j = clash
            raise NotSeparatingError(logic.atoms[i], logic.atoms[j], f"atoms[{j}]")
        few, many = states.labels(), chain((logic.name,), logic.atoms)
        if len(few) > len(logic.atoms):  # the set is built from the fewer names
            few, many = many, few
        taken = {SEPARATOR_NAME, LINEBREAK_NAME, *set(few).intersection(many)}
        if logic.name in taken:
            raise ValidationError(f"{logic.name!r} collides with another grammar symbol", "name")
        for i, atom in enumerate(logic.atoms):  # an atom is at fault even beside a default name
            if atom in taken or atom == logic.name:
                what = "the logic's name" if atom == logic.name else (
                    "a state label or layout symbol")
                raise ValidationError(f"{atom!r} collides with {what}", f"atoms[{i}]")

    @cached_property
    def columns(self) -> tuple[bytes, ...]:
        """Per atom, its column of state values (``supports``)."""
        return supports(self.logic, self.states)

    @property
    def symbols(self) -> tuple[str, ...]:
        """The symbol table: ``br`` (0), ``n`` (1), the labels 2..N+1, the atoms."""
        return (SEPARATOR_NAME, LINEBREAK_NAME, *self.states.labels(), *self.logic.atoms)

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return (self.logic.name, *self.logic.atoms)

    @property
    def terminals(self) -> tuple[str, ...]:
        return self.states.labels()

    @property
    def productions(self) -> tuple[Production, ...]:
        """The start rule, then a row per atom, each made when this is read."""
        first = len(self.states) + 2  # the first atom's symbol number
        start = Production(self.logic.name, array("I", range(first, first + len(self.logic.atoms))))
        return (start, *map(Production, self.logic.atoms, map(_Selected, zip(self.columns))))

    def bodies(self, table: list) -> Iterator[list]:
        """Per production, its body's entries in ``table``, each made as it is read."""
        return chain((table[len(self.states) + 2 :],), _Selected(self.columns).rows(table))


class Derivation(Value):
    """Fully expanded token sequence: ``symbols`` holds each distinct name
    once and ``indices`` the tokens as positions in it, an ``array('I')`` or
    a compiled grammar's ``_Selected``. Each token named ``n`` ends a row, so
    no row holds one; ``br`` is the separator and any other name a state.
    """

    symbols: tuple[str, ...]
    indices: array | _Selected

    @classmethod
    def from_tokens(cls, tokens) -> Derivation:
        """A derivation from one name per token, equal ones interned."""
        ids: dict[str, int] = {}
        indices = array("I", [ids.setdefault(s, len(ids)) for s in tokens])
        return cls(tuple(ids), indices)

    @cached_property
    def row_boundaries(self) -> tuple[int, ...]:
        """The token indices of the linebreaks; a compiled row's is its last."""
        if type(self.indices) is _Selected:  # rows of N + 1 tokens and their n
            width = len(self.indices.columns[0]) + 2
            return tuple(range(width - 1, len(self.indices), width))
        names = self.symbols
        linebreak = names.index(LINEBREAK_NAME) if LINEBREAK_NAME in names else -1
        return tuple(compress(count(), map(linebreak.__eq__, self.indices)))

    @property
    def tokens(self) -> tuple[str, ...]:
        """One name per token, looked up in the table."""
        return tuple(map(self.symbols.__getitem__, self.indices))

    def _spans(self) -> Iterator[tuple[int, int]]:
        """Each row's first token index and its end, empty rows excluded."""
        bounds = self.row_boundaries
        spans = zip(chain((0,), map((1).__add__, bounds)), chain(bounds, (len(self.indices),)))
        return ((start, end) for start, end in spans if end > start)

    def row_lengths(self) -> list[int]:
        """The tokens in each row, read off the linebreaks: no row is made."""
        if type(self.indices) is _Selected:  # N + 1 tokens a row
            return [len(self.indices.columns[0]) + 1] * len(self.indices.columns)
        return [end - start for start, end in self._spans()]

    def rows(self, table) -> Iterator[list]:
        """Per row, its entries in ``table`` (a list by symbol number), each row
        made as it is read; linebreaks excluded, and so are empty rows."""
        if type(self.indices) is _Selected:
            return self.indices.rows(table, linebreak=False)
        view = memoryview(self.indices)
        return (list(map(table.__getitem__, view[start:end])) for start, end in self._spans())


class RowViolation(Value):
    row_index: int
    labels: tuple[str, ...]


class IncidenceReport(Value):
    violations: tuple[RowViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def compile_grammar(logic: PartitionLogic, states: StateSet) -> Grammar:
    """Translate a logic plus admissible, separating states into a grammar.

    The start rule expands into the atoms in declaration order; each atom's
    rule lists its supporting state symbols, then ``br``, then the rest,
    then ``n``. Every row, including the last, ends with ``n`` so that all
    rows have uniform shape. The grammar's constructor makes every check.
    """
    return Grammar(logic, states)


def derive(grammar: Grammar) -> Derivation:
    """The start symbol rewritten: the rows end to end, each ended by its ``n``.

    Its tokens are the grammar's columns (no copy) and its table the grammar's
    up to the atoms, so no token is made.
    """
    symbols = (SEPARATOR_NAME, LINEBREAK_NAME, *grammar.states.labels())
    return Derivation(symbols, _Selected(grammar.columns))


def check_incidence(
    derivation: Derivation, logic: PartitionLogic, states: StateSet
) -> IncidenceReport:
    """Verify that each row places every state symbol on the correct side.

    For row j and state i, the symbol s_i must sit left of the separator
    exactly when state i values atom j as 1. Structural damage (wrong row
    count, state vectors that do not fit the atoms, a row without exactly
    one separator, token numbers past the symbol table, a row holding
    anything beside its separator but each label's state symbol once) is a
    precondition breach and raises ``ValueError``; side mismatches are
    reported. The rows are counted, then read by name, each as it is made.
    """
    rows = len(derivation.row_lengths())
    if rows != len(logic.atoms):
        raise ValueError(f"derivation has {rows} rows for {len(logic.atoms)} atoms")
    m = _atom_width(logic, states)
    labels, matrix = states.labels(), states.matrix  # atom j's column: matrix[j::m]
    # A row as the definition writes it (the labels of the states valuing its
    # atom 1, br, the rest) is confirmed by one comparison; only the other rows
    # are walked. That needs 0/1 values (a trusted state set is not checked).
    fast = _zero_one(matrix)
    both, in_order, violations = [*labels, SEPARATOR_NAME, *labels], [], []
    read = derivation.rows(list(derivation.symbols))
    for j in range(rows):
        try:
            row = next(read)
        except IndexError:  # a number past the table: the row's numbers name it
            past = max(next(islice(derivation.rows(range(max(derivation.indices) + 1)), j, None)))
            raise ValueError(f"row {j} names symbol number {past}, past the table") from None
        column = matrix[j::m]
        if fast and row == list(compress(both, column + b"\1" + column.translate(_FLIP))):
            continue
        # Beside its separator, a walked row holds each label once and nothing else.
        if row.count(SEPARATOR_NAME) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        cut = row.index(SEPARATOR_NAME)
        in_order = in_order or sorted(labels)  # sorted once, for the first walk
        if sorted(row[:cut] + row[cut + 1 :]) != in_order:
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        left = set(row[:cut])
        mismatched = tuple(label for label, v in zip(labels, column) if (label in left) != (v == 1))
        if mismatched:
            violations.append(RowViolation(j, mismatched))
    return IncidenceReport(tuple(violations))


def production_chunks(grammar: Grammar) -> Iterator[str]:
    """The production listing in arrow notation, one chunk per production.

    The start rule is set off from the row rules by a blank line, matching
    the layered source layout used by :func:`sglg.render.emit_logic_program`.
    """
    ends = chain((".\n\n",), repeat(".\n"))
    bodies = map(",".join, grammar.bodies(list(grammar.symbols)))
    return map("{} --> {}{}".format, grammar.nonterminals, bodies, ends)


def production_text(grammar: Grammar) -> str:
    """The production listing in one string."""
    return "".join(production_chunks(grammar))


def production_json_chunks(grammar: Grammar) -> Iterator[str]:
    """``productions_json`` one chunk per production, in the layout of
    ``json.dumps(indent=2, ensure_ascii=False)``: each name is quoted once,
    by the function ``json.dumps`` quotes it with."""

    def chunk(lead: str, head: str, body: list[str]) -> str:
        return f"{lead}  {encode_basestring(head)}: [\n    " + ",\n    ".join(body) + "\n  ]"

    leads = chain(("{\n",), repeat(",\n"))
    quoted = list(map(encode_basestring, grammar.symbols))
    return chain(map(chunk, leads, grammar.nonterminals, grammar.bodies(quoted)), ("\n}\n",))


def productions_json(grammar: Grammar) -> str:
    """Productions as a JSON object mapping each head to its body symbols."""
    return "".join(production_json_chunks(grammar))
