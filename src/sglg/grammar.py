"""Simple generative logic grammars compiled from partition logics.

The compiler translates a logic plus a separating state set into the flat
grammar of the paper, the only shape a ``Grammar`` takes: a start rule
expanding into one nonterminal per atom, and per atom a row rule listing
the supporting state symbols, a separator, the complementary symbols, and
a line break. Deriving the start symbol writes the rows end to end.

A symbol is its name, a ``str``, and the name fixes its kind: ``br`` is
the separator, ``n`` the linebreak, a production head a nonterminal, and
any other name a state (a terminal). A grammar is its productions, the
first one the start rule, and its symbol table, which holds each distinct
name once and lists the heads last. A body, like a derivation's token
sequence, holds symbol numbers (table positions), 4 bytes a token. A
compiled table is ``br``, ``n``, ``s1..sN``, then the atoms, so row bodies
come straight from the state columns. A compiled grammar writes its rows
into one ``array('I')``, each row body a ``memoryview`` slice of it, and
that array is its derivation's tokens: none is copied. ``Grammar.from_symbols`` and
``Derivation.from_tokens`` intern hand-built name sequences. ``check_incidence``
counts ``Derivation.rows()``, then checks each in one pass as its view is made.

The listings, in arrow notation and in JSON, are streams of one finished
``str`` per production: each looks its names up by number in a list that
holds each name's text once (quoted once, for JSON), so a listing is
written a production at a time. ``production_text`` and
``productions_json`` are the chunks' ``"".join``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import cached_property
from itertools import accumulate, chain, compress, count, filterfalse
from json.encoder import encode_basestring
from operator import attrgetter

from .errors import NotSeparatingError, ValidationError
from .logic import PartitionLogic, StateSet, _atom_width, _clash, _first_inadmissible
from .logic import _zero_one, supports
from .value import Value

SEPARATOR_NAME = "br"
LINEBREAK_NAME = "n"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # a 0/1 byte string's complement


_head = attrgetter("head")


def _intern(sequences) -> tuple[tuple[str, ...], list[array]]:
    """The distinct names by first use, and each sequence as their numbers."""
    ids: dict[str, int] = {}
    arrays = [array("I", [ids.setdefault(s, len(ids)) for s in q]) for q in sequences]
    return tuple(ids), arrays


class Production(Value):
    head: str
    body: array  # symbol numbers: an array('I'), or a memoryview slice of one

    __hash__ = None  # as an array body is; a view's own hash raises ValueError

    def __init__(self, head: str, body: array):  # once per atom
        fields = self.__dict__
        fields["head"], fields["body"] = head, body


class Grammar(Value):
    """Productions, the first one the start rule, and the symbol table.

    ``symbols`` is the table of names the production bodies index, each
    once. The grammar is flat: the start rule names each row head once, in
    production order, and each row names no head and ends with its one
    ``n``. The nonterminals are the production heads, the start symbol the
    first head and the terminals the other names but ``br`` and ``n``, in
    table order. The heads end the table, so a derivation's table is the
    rest of it. Binding symbols to colors or other realizations happens in
    the render layer.
    """

    productions: tuple[Production, ...]
    symbols: tuple[str, ...]

    @classmethod
    def from_symbols(cls, rules) -> Grammar:
        """A grammar from ``(head, body names)`` rules, the start rule first;
        equal names share one table entry, in order of first use in the rows
        and then in the start rule, so the heads end the table."""
        heads, bodies = [h for h, _ in rules], [body for _, body in rules]
        symbols, arrays = _intern(bodies[1:] + bodies[:1])
        return cls(tuple(map(Production, heads, arrays[-1:] + arrays[:-1])), symbols)

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(map(_head, self.productions))

    @property
    def terminals(self) -> tuple[str, ...]:
        other = {SEPARATOR_NAME, LINEBREAK_NAME, *self.nonterminals}
        return tuple(filterfalse(other.__contains__, self.symbols))

    def __post_init__(self):
        if not self.productions:
            raise ValueError("grammar needs at least one production")
        heads = set(self.nonterminals)
        if len(heads) != len(self.productions):
            raise ValueError("grammar needs exactly one production per nonterminal")
        layout = {SEPARATOR_NAME, LINEBREAK_NAME} & heads
        if layout:
            raise ValueError(f"symbols declared in more than one class: {sorted(layout)}")
        names = self.symbols
        if len(set(names)) != len(names):
            raise ValueError("symbol table repeats a symbol")
        for p in self.productions:
            if max(p.body, default=-1) >= len(names):
                raise ValueError(f"production {p.head!r} names no symbol of the table")
        start, *rows = self.productions
        if tuple(map(names.__getitem__, start.body)) != self.nonterminals[1:]:
            raise ValueError(
                f"start rule {start.head!r} does not name each row head once, in order"
            )
        nts = set(compress(count(), map(heads.__contains__, names)))
        linebreak = names.index(LINEBREAK_NAME) if LINEBREAK_NAME in names else -1
        for p in rows:
            if not nts.isdisjoint(p.body):
                name = next(names[x] for x in p.body if x in nts)
                raise ValueError(f"row {p.head!r} names nonterminal {name!r}")
            ends = list(compress(count(), map(linebreak.__eq__, p.body)))
            if ends != [len(p.body) - 1]:
                raise ValueError(f"row {p.head!r} does not hold n once, as its last token")
        if not heads.issuperset(names[len(names) - len(heads.intersection(names)) :]):
            raise ValueError("symbol table lists a head before another symbol")

    @cached_property
    def _indices(self) -> array:
        """The row bodies end to end; a compiled grammar is built with it."""
        return array("I", b"".join(p.body for p in self.productions[1:]))


class Derivation(Value):
    """Fully expanded token sequence: ``symbols`` holds each distinct name
    once and ``indices`` the tokens as an ``array('I')`` of positions in it.
    Each token named ``n`` ends a row, so no row holds one. A derivation
    holds no nonterminal, so ``br`` is its separator, ``n`` its linebreak
    and any other name a state.
    """

    symbols: tuple[str, ...]
    indices: array

    @classmethod
    def from_tokens(cls, tokens) -> Derivation:
        """A derivation from one name per token, equal ones interned."""
        symbols, (indices,) = _intern([tokens])
        return cls(symbols, indices)

    @cached_property
    def row_boundaries(self) -> tuple[int, ...]:
        """The token indices of the linebreaks; ``derive`` states them."""
        names = self.symbols
        linebreak = names.index(LINEBREAK_NAME) if LINEBREAK_NAME in names else -1
        return tuple(compress(count(), map(linebreak.__eq__, self.indices)))

    @property
    def tokens(self) -> tuple[str, ...]:
        """One name per token, looked up in the table."""
        return tuple(map(self.symbols.__getitem__, self.indices))

    def rows(self) -> Iterator[memoryview]:
        """Symbol numbers between linebreaks, as views of ``indices`` made as
        they are read; linebreaks themselves excluded, and so are empty rows.
        The one row reader: callers take counts and lengths from the views."""
        bounds, view = self.row_boundaries, memoryview(self.indices)
        starts, ends = chain((0,), map((1).__add__, bounds)), chain(bounds, (len(self.indices),))
        return filter(None, map(view.__getitem__, map(slice, starts, ends)))


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
    rows have uniform shape.
    """
    if len(states) == 0:
        raise ValidationError(f"logic {logic.name!r} admits no two-valued states", "contexts")
    columns = supports(logic, states)
    bad = _first_inadmissible(logic, states, columns)
    if bad is not None:
        raise ValidationError("not admissible", f"states[{bad}]")
    clash = _clash(columns)
    if clash is not None:  # named where the later atom is declared
        i, j = clash
        raise NotSeparatingError(logic.atoms[i], logic.atoms[j], f"atoms[{j}]")

    labels = states.labels()
    taken = {SEPARATOR_NAME, LINEBREAK_NAME, *{logic.name, *logic.atoms}.intersection(labels)}
    if logic.name in taken:
        raise ValidationError(f"{logic.name!r} collides with another grammar symbol", "name")
    for i, atom in enumerate(logic.atoms):  # an atom is at fault even beside a default name
        if atom in taken or atom == logic.name:
            what = "the logic's name" if atom == logic.name else "a state label or layout symbol"
            raise ValidationError(f"{atom!r} collides with {what}", f"atoms[{i}]")

    # Symbol numbers: br 0, n 1, the state labels 2..N+1, then the atoms.
    n, m = len(labels), len(logic.atoms)
    both = [*(ids := list(range(2, n + 2))), 0, *ids]  # the labels, br, the labels again
    tokens = array("I")  # every row, n + 2 tokens each: check_incidence's layout, then n
    for column in columns:
        tokens.extend(compress(both, column + b"\1" + column.translate(_FLIP)))
        tokens.append(1)
    view = memoryview(tokens)  # only now: an array with views cannot grow
    bodies = map(view.__getitem__, map(slice, count(0, n + 2), count(n + 2, n + 2)))
    rows = list(map(Production, logic.atoms, bodies))
    start = Production(logic.name, array("I", range(n + 2, n + 2 + m)))
    # The checks above cover __post_init__'s: the start rule names the atoms in
    # order, and a row holds only labels, br and its last token n.
    return Grammar._trusted(
        productions=(start, *rows),
        symbols=(SEPARATOR_NAME, LINEBREAK_NAME, *labels, *logic.atoms),
        _indices=tokens,
    )


def derive(grammar: Grammar) -> Derivation:
    """The start symbol rewritten: the rows end to end, each ended by its ``n``.

    The tokens are the grammar's own array, not a copy. The derivation
    shares the grammar's table up to the heads that end it, and its row
    boundaries are the row ends, so no token is read.
    """
    symbols = grammar.symbols  # the heads end it: drop them
    end = len(symbols) - len(set(grammar.nonterminals).intersection(symbols))
    ends = accumulate(len(p.body) for p in grammar.productions[1:])
    bounds = tuple(k - 1 for k in ends)
    return Derivation._trusted(symbols[:end], grammar._indices, row_boundaries=bounds)


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
    reported. The rows are counted, then checked in order, each as it is made.
    """
    rows = sum(1 for _ in derivation.rows())
    if rows != len(logic.atoms):
        raise ValueError(f"derivation has {rows} rows for {len(logic.atoms)} atoms")
    m = _atom_width(logic, states)
    labels = states.labels()
    symbols = derivation.symbols
    separators = list(compress(count(), map(SEPARATOR_NAME.__eq__, symbols)))
    # Each label's state symbol by number, as a map of the table gives it: label
    # i is symbol i + 2 when the table ends in the labels, as a compiled one does.
    if symbols[2:] == labels:
        ids = list(range(2, len(labels) + 2))
    else:
        ids = list(map(dict(zip(symbols, count())).get, labels))
    # Atom j's column is every m-th byte: read from the states, not supports().
    matrix = states.matrix
    # A row as the definition writes it (the symbols of the states valuing its
    # atom 1, br, the rest) is confirmed by one comparison; only the other rows
    # are walked. That needs one br, a symbol per label and 0/1 values (a
    # trusted state set is not checked).
    fast = len(separators) == 1 and None not in ids and _zero_one(matrix)
    both, label_numbers, violations = [*ids, *separators, *ids], set(), []
    for j, row in enumerate(derivation.rows()):
        column = matrix[j::m]
        if fast and row == array("I", compress(both, column + b"\1" + column.translate(_FLIP))):
            continue
        # Beside its separator, a walked row must hold each of these once and
        # nothing else, which set sizes show; built once, for the first walk.
        label_numbers = label_numbers or set(ids) - {None}
        cuts = list(compress(count(), map(separators.__contains__, row)))
        if len(cuts) != 1:
            raise ValueError(f"row {j} does not contain exactly one separator")
        left, right = set(row[: cuts[0]]), set(row[cuts[0] + 1 :])
        only = left <= label_numbers and right <= label_numbers and left.isdisjoint(right)
        if not (only and len(left) + len(right) == len(row) - 1 == len(labels)):
            if max(row) >= len(symbols):
                raise ValueError(f"row {j} names symbol number {max(row)}, past the table")
            raise ValueError(f"row {j} does not carry each state symbol exactly once")
        if len(left) != column.count(1) or not left.issuperset(compress(ids, column)):
            mismatched = tuple(
                label
                for label, i, value in zip(labels, ids, column)
                if (i in left) != (value == 1)
            )
            violations.append(RowViolation(j, mismatched))
    return IncidenceReport(tuple(violations))


def production_chunks(grammar: Grammar) -> Iterator[str]:
    """The production listing in arrow notation, one chunk per production.

    The start rule is set off from the row rules by a blank line, matching
    the layered source layout used by :func:`sglg.render.emit_logic_program`.
    """
    # A list, as a tuple's __getitem__ is slower to map over a body.
    names, (start, *rows) = list(grammar.symbols), grammar.productions

    def chunk(p: Production, end: str = ".\n") -> str:
        return f"{p.head} --> {','.join(map(names.__getitem__, p.body))}{end}"

    return chain((chunk(start, ".\n\n" if rows else ".\n"),), map(chunk, rows))


def production_text(grammar: Grammar) -> str:
    """The production listing in one string."""
    return "".join(production_chunks(grammar))


def production_json_chunks(grammar: Grammar) -> Iterator[str]:
    """``productions_json`` one chunk per production, in the layout of
    ``json.dumps(indent=2, ensure_ascii=False)``: each name is quoted once,
    by the function ``json.dumps`` quotes it with."""
    quoted = list(map(encode_basestring, grammar.symbols))

    def chunk(p: Production, lead: str = ",\n") -> str:
        if not p.body:
            return f"{lead}  {encode_basestring(p.head)}: []"
        names = ",\n    ".join(map(quoted.__getitem__, p.body))
        return f"{lead}  {encode_basestring(p.head)}: [\n    {names}\n  ]"

    start, *rows = grammar.productions
    return chain((chunk(start, "{\n"),), map(chunk, rows), ("\n}\n",))


def productions_json(grammar: Grammar) -> str:
    """Productions as a JSON object mapping each head to its body symbols."""
    return "".join(production_json_chunks(grammar))
