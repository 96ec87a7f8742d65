"""Finite partition logics and their two-valued states.

A partition logic is a pasting of Boolean contexts: an ordered atom list
plus an ordered list of contexts, each context naming the atoms of one
maximal Boolean block. A two-valued state assigns 0/1 to every atom so
that exactly one atom per context is true. This module parses the two
input file modes (hypergraph and base-set partitions), enumerates states,
and computes supports and partition representations. A state set is the
state/atom incidence table as one ``bytes`` matrix, a row of 0/1 bytes
per state: it is written in one join and read as C-level slices.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import suppress
from enum import Enum
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import or_

from .errors import LogicFileError, NotAPartitionError, PinnedStatesError
from .value import Value

Point = int | str

_NAME_RE = re.compile(r"[A-Za-z_]\w*")
# JSON may escape half a surrogate pair ("\ud800"); UTF-8 cannot write one.
_LONE_SURROGATE_RE = re.compile("[\ud800-\udfff]")
_HEX_COLOR_RE = re.compile(r"#[0-9A-Fa-f]{6}")
DEFAULT_LOGIC_NAME = "logic"


class StateOrder(Enum):
    """How the order of a state set was fixed."""

    CANONICAL = "canonical"
    PINNED = "pinned-by-spec"
    POINT_INDUCED = "point-induced"


class PartitionLogic(Value):
    """Ordered atoms plus ordered contexts of atom indices."""

    name: str
    atoms: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise LogicFileError(f"not an identifier: {self.name!r}", "name")
        if not self.atoms:
            raise LogicFileError("atom list is empty", "atoms")
        seen: dict[str, int] = {}
        for i, atom in enumerate(self.atoms):
            if not isinstance(atom, str) or not atom:
                raise LogicFileError("atom names must be nonempty strings", f"atoms[{i}]")
            if _LONE_SURROGATE_RE.search(atom):
                raise LogicFileError("atom name holds a lone surrogate", f"atoms[{i}]")
            if atom in seen:
                raise LogicFileError(f"duplicate atom name {atom!r}", f"atoms[{i}]")
            seen[atom] = i
        if not self.contexts:
            raise LogicFileError("context list is empty", "contexts")
        for ci, ctx in enumerate(self.contexts):
            for j in ctx:
                if not 0 <= j < len(self.atoms):
                    raise LogicFileError(f"atom index {j} out of range", f"contexts[{ci}]")
            if len(set(ctx)) != len(ctx):
                raise LogicFileError("context repeats an atom", f"contexts[{ci}]")
            if len(ctx) < 2:
                raise LogicFileError("context has fewer than 2 atoms", f"contexts[{ci}]")
        covered = {j for ctx in self.contexts for j in ctx}
        for i, atom in enumerate(self.atoms):
            if i not in covered:
                raise LogicFileError(f"atom {atom!r} appears in no context", f"atoms[{i}]")
        nested = _least_nested_pair(self)
        if nested is not None:
            ci, cj = nested
            raise LogicFileError(
                f"contexts {ci} and {cj} are nested; no context may be a "
                "subset of another",
                f"contexts[{cj}]",
            )


class BaseSetSpec(Value):
    """Partitions of a finite base set, each block becoming an atom."""

    name: str
    base_set: tuple[Point, ...]
    partitions: tuple[tuple[tuple[Point, ...], ...], ...]
    block_names: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise LogicFileError(f"not an identifier: {self.name!r}", "name")
        if not self.base_set:
            raise LogicFileError("base set is empty", "base_set")
        if len(set(self.base_set)) != len(self.base_set):
            raise LogicFileError("base set repeats a point", "base_set")
        if not self.partitions:
            raise LogicFileError("partition list is empty", "partitions")
        universe = set(self.base_set)
        for pi, partition in enumerate(self.partitions):
            loc = f"partitions[{pi}]"
            seen: set[Point] = set()
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
        if self.block_names is not None:
            if len(self.block_names) != len(self.partitions):
                raise LogicFileError(
                    "block_names must have one entry per partition", "block_names"
                )
            for pi, names in enumerate(self.block_names):
                if len(names) != len(self.partitions[pi]):
                    raise LogicFileError(
                        "block_names entry does not match the partition's block count",
                        f"block_names[{pi}]",
                    )
                for name in names:
                    if not isinstance(name, str) or not name:
                        raise LogicFileError(
                            "block names must be nonempty strings", f"block_names[{pi}]"
                        )
                    if _LONE_SURROGATE_RE.search(name):
                        raise LogicFileError(
                            "block name holds a lone surrogate", f"block_names[{pi}]"
                        )


class StateSet(Value):
    """Ordered two-valued states; the column order of all artifacts.

    ``matrix`` holds distinct rows of ``width`` 0/1 bytes, one state a row
    and one atom a column; row i is labeled ``s{i+1}``.
    """

    matrix: bytes
    width: int
    order_source: StateOrder

    def __post_init__(self):
        matrix, width = self.matrix, self.width
        if width < 1 or len(matrix) % width:
            raise ValueError(f"state matrix length {len(matrix)} is not a multiple of {width}")
        if matrix.translate(None, b"\0\1"):
            bad = next(k for k, value in enumerate(matrix) if value > 1)
            raise ValueError(f"state s{bad // width + 1}: values must be 0 or 1")
        if len(set(self.rows)) != len(self):
            raise ValueError("state value vectors are not distinct")

    @classmethod
    def from_vectors(
        cls, vectors: list[tuple[int, ...]], order_source: StateOrder
    ) -> "StateSet":
        if len(set(map(len, vectors))) > 1:
            raise ValueError("states have differing atom counts")
        width = len(vectors[0]) if vectors else 1  # any width holds no rows
        return cls(bytes(chain.from_iterable(vectors)), width, order_source)

    @property
    def rows(self) -> tuple[bytes, ...]:
        """Per state, its values over the atoms: the matrix in width-byte runs."""
        return tuple(re.findall(b"(?s).{%d}" % self.width, self.matrix))

    @property
    def columns(self) -> tuple[bytes, ...]:
        """Per atom, its value in each state."""
        return tuple(self.matrix[j :: self.width] for j in range(self.width))

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        return tuple(map("s{}".format, range(1, len(self) + 1)))

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self.matrix) // self.width


class SeparationResult(Value):
    """The least atom pair (i, j) with equal supports, or ``None`` if all differ."""

    witness: tuple[str, str] | None = None

    @property
    def separating(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.separating


class LogicFile(Value):
    """One parsed logic file: the input-mode payload plus optional extras."""

    source: PartitionLogic | BaseSetSpec
    pinned_states: bytes | None = None  # a state matrix, rows in the file's order
    palette: dict[str, str] | None = None


def is_admissible(values: tuple[int, ...], logic: PartitionLogic) -> bool:
    """True iff exactly one atom per context is valued 1."""
    return all(sum(values[j] for j in ctx) == 1 for ctx in logic.contexts)


def load_json(text: str, invalid: str):
    """``json.loads(text)``; a text it cannot read raises ``LogicFileError``
    with a message that starts with ``invalid``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LogicFileError(f"{invalid}: {exc}") from None
    except ValueError:  # an integer past int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise LogicFileError(f"{invalid}: an integer has more than {limit} digits") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise LogicFileError(f"{invalid}: nested too deeply") from None


def parse_logic_file(text: str) -> LogicFile:
    """Parse a UTF-8 JSON logic file in either input mode.

    Mode 1 gives atoms and contexts directly (optionally with a pinned
    state order and a palette); mode 2 gives a base set and partitions.
    """
    raw = load_json(text, "invalid JSON")
    if not isinstance(raw, dict):
        raise LogicFileError("top level must be a JSON object")

    keys = set(raw)
    if "atoms" in keys and "base_set" in keys:
        raise LogicFileError("file mixes both input modes (atoms and base_set given)")
    if "atoms" in keys:
        allowed = {"name", "atoms", "contexts", "states", "palette"}
    elif "base_set" in keys:
        allowed = {"name", "base_set", "partitions", "block_names"}
    else:
        raise LogicFileError("file must give either 'atoms' or 'base_set'")
    unknown = keys - allowed
    if unknown:
        raise LogicFileError(f"unknown keys {sorted(unknown)}")

    name = raw.get("name", DEFAULT_LOGIC_NAME)
    if not isinstance(name, str):
        raise LogicFileError("must be a string", "name")

    if "base_set" in keys:
        return LogicFile(source=_parse_base_set_mode(name, raw))

    logic = _parse_hypergraph_mode(name, raw)
    pinned = _parse_pinned_states(raw.get("states"), logic)
    palette = _parse_palette(raw.get("palette"))
    return LogicFile(source=logic, pinned_states=pinned, palette=palette)


def _parse_hypergraph_mode(name: str, raw: dict) -> PartitionLogic:
    atoms = raw["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise LogicFileError("must be a list of strings", "atoms")
    contexts = raw.get("contexts")
    if not isinstance(contexts, list):
        raise LogicFileError("must be a list of atom-name lists", "contexts")
    index = {a: i for i, a in enumerate(atoms)}
    if len(index) != len(atoms):
        dup = next(a for i, a in enumerate(atoms) if a in atoms[:i])
        raise LogicFileError(f"duplicate atom name {dup!r}", "atoms")
    resolved = []
    for ci, ctx in enumerate(contexts):
        if not isinstance(ctx, list):
            raise LogicFileError("must be a list of atom names", f"contexts[{ci}]")
        row = []
        for a in ctx:
            if isinstance(a, (list, dict)):  # unhashable, so no atom name
                raise LogicFileError("must be a list of atom names", f"contexts[{ci}]")
            if a not in index:
                raise LogicFileError(f"unknown atom {a!r}", f"contexts[{ci}]")
            row.append(index[a])
        resolved.append(tuple(row))
    return PartitionLogic(name, tuple(atoms), tuple(resolved))


_POINT_TYPES = {int, str}  # exact JSON types: bool, float and None are not points


def _parse_base_set_mode(name: str, raw: dict) -> BaseSetSpec:
    base = raw["base_set"]
    if not isinstance(base, list) or not set(map(type, base)) <= _POINT_TYPES:
        raise LogicFileError("must be a list of ints or strings", "base_set")
    partitions = raw.get("partitions")
    if not isinstance(partitions, list):
        raise LogicFileError("must be a list of partitions", "partitions")
    parsed = []
    for pi, partition in enumerate(partitions):
        if not isinstance(partition, list) or not all(
            isinstance(b, list) and set(map(type, b)) <= _POINT_TYPES for b in partition
        ):
            raise LogicFileError(
                "must be a list of blocks of ints or strings", f"partitions[{pi}]"
            )
        parsed.append(tuple(tuple(block) for block in partition))
    names = raw.get("block_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(n, list) for n in names):
            raise LogicFileError("must be a list of name lists", "block_names")
        names = tuple(tuple(n) for n in names)
    return BaseSetSpec(name, tuple(base), tuple(parsed), names)


def _parse_pinned_states(raw_states, logic: PartitionLogic) -> bytes | None:
    if raw_states is None:
        return None
    if not isinstance(raw_states, list):
        raise LogicFileError("must be a list of 0/1 rows", "states")
    m, values = len(logic.atoms), chain.from_iterable
    # One matrix of 0/1 bytes, checked at once, widths before values so that no
    # row lends values to the next; only a failure walks the rows to name one.
    if set(map(type, raw_states)) <= {list} and set(map(len, raw_states)) <= {m}:
        if set(map(type, values(raw_states))) <= {int}:  # no bool, float or list
            with suppress(ValueError):  # a value outside 0..255
                matrix = bytes(values(raw_states))
                if not matrix.translate(None, b"\0\1"):
                    return matrix
    for si, row in enumerate(raw_states):
        if (
            not isinstance(row, list)
            or len(row) != m
            or set(map(type, row)) != {int}
            or not set(row) <= {0, 1}
        ):
            raise LogicFileError(f"must be a list of {m} values, each 0 or 1", f"states[{si}]")
    raise AssertionError("a rejected state table holds no bad row")


def _parse_palette(raw_palette):
    if raw_palette is None:
        return None
    if not isinstance(raw_palette, dict):
        raise LogicFileError("must map state labels to colors", "palette")
    for label, color in raw_palette.items():
        if not isinstance(color, str) or not _HEX_COLOR_RE.fullmatch(color):
            raise LogicFileError(
                f"color for {label!r} must look like '#RRGGBB'", "palette"
            )
    return dict(raw_palette)


def logic_from_partitions(spec: BaseSetSpec) -> tuple[PartitionLogic, StateSet]:
    """Build the pasted logic and its point-induced states.

    Blocks equal as point sets are identified as one atom across
    partitions; giving such blocks different names is rejected as an
    ambiguous pasting. Points inducing identical valuations collapse to
    one state.
    """
    atoms: list[str] = []
    taken: set[str] = set()
    blocks: list[frozenset[Point]] = []
    by_block: dict[frozenset[Point], int] = {}
    contexts: list[tuple[int, ...]] = []
    first: dict[frozenset[int], int] = {}  # a context's atoms -> its first partition
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
                if name in taken:  # only given names can repeat
                    raise LogicFileError(
                        f"name {name!r} is used for two different blocks",
                        f"block_names[{pi}][{bi}]",
                    )
                j = by_block[key] = len(atoms)
                atoms.append(name)
                taken.add(name)
                blocks.append(key)
            row.append(j)
        if len(row) < 2:
            raise LogicFileError("partition has fewer than 2 blocks", f"partitions[{pi}]")
        # Partitions all cover the base set, so contexts nest only if equal.
        same = first.setdefault(frozenset(row), pi)
        if same != pi:
            raise LogicFileError(
                f"partitions {same} and {pi} have the same blocks", f"partitions[{pi}]"
            )
        contexts.append(tuple(row))

    logic = PartitionLogic(spec.name, tuple(atoms), tuple(contexts))

    # Mark each atom's points; equal valuations collapse to the first point.
    marks = {point: bytearray(len(atoms)) for point in spec.base_set}
    for j, block in enumerate(blocks):
        for point in block:
            marks[point][j] = 1
    rows = dict.fromkeys(map(bytes, marks.values()))
    return logic, StateSet._trusted(b"".join(rows), len(atoms), StateOrder.POINT_INDUCED)


def _context_masks(logic: PartitionLogic) -> list[int]:
    """Per atom, the contexts it lies in as a mask: bit c stands for context c."""
    masks = [0] * len(logic.atoms)
    for ci, ctx in enumerate(logic.contexts):
        for j in ctx:
            masks[j] |= 1 << ci
    return masks


def _least_nested_pair(logic: PartitionLogic) -> tuple[int, int] | None:
    """The least (i, j), i < j, with one of contexts i and j inside the other.

    The AND of a context's atom masks holds every context containing it;
    any bit left besides its own is a nested pair.
    """
    masks = _context_masks(logic)
    least = None
    for ci, ctx in enumerate(logic.contexts):
        containers = -1
        for j in ctx:
            containers &= masks[j]
        containers &= ~(1 << ci)
        if containers:
            cj = (containers & -containers).bit_length() - 1
            pair = (cj, ci) if cj < ci else (ci, cj)
            if least is None or pair < least:
                least = pair
    return least


def _state_masks(logic: PartitionLogic) -> list[int]:
    """Every two-valued state as an atom mask, atom 0 the top bit; unordered.

    An exact cover of the contexts by the atoms (Knuth's Algorithm X) with
    an explicit stack, so no depth is too deep. Choosing an atom closes its
    contexts and kills every atom sharing a context with it. A node takes
    each forced atom (an open context's last live one) in place, then
    branches on the open context with the fewest live atoms. Its completions
    depend only on its entry key (live atoms, open contexts), so each key is
    solved once; forced steps get no memo entry, so long forced runs cost no
    memory. ``hot`` only steers the branching, so two paths to one key may
    differ in it.
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
    memo: dict[tuple[int, int], list[int]] = {}  # key -> completion masks
    root = ((1 << m) - 1, (1 << len(logic.contexts)) - 1)
    # (key, hot) to solve, or (key, forced, kids) once the kids are solved;
    # hot holds every open context with at most one live atom, to find those fast.
    stack: list[tuple] = [(root, 0)]
    while stack:
        top = stack.pop()
        if len(top) == 3:
            key, forced, kids = top
            memo[key] = [forced | b | s for b, kid in kids for s in memo[kid]]
            continue
        key, hot = top
        if key in memo:  # solved since it was pushed
            continue
        (live, open_), forced = key, 0
        while open_:
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
            if fewest != 1:
                break
            j = m - (members[pick] & live).bit_length()  # the one live atom
            forced |= bits[j]
            live &= ~clash[j]
            open_ &= ~lies_in[j]
            hot = (hot | touch[j]) & open_
        else:
            memo[key] = [forced]
            continue
        kids: list[tuple[int, tuple[int, int]]] = []  # (atom bit, key); none if dead
        stack.append((key, forced, kids))
        for j in logic.contexts[pick]:
            if live & bits[j]:
                kid = (live & ~clash[j], open_ & ~lies_in[j])
                kids.append((bits[j], kid))
                if kid not in memo:
                    stack.append((kid, (hot | touch[j]) & kid[1]))
    return memo[root]


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def enumerate_states(logic: PartitionLogic) -> StateSet:
    """All two-valued states of the logic, in canonical order.

    Canonical order is descending lexicographic over the atom declaration
    order; labels s1..sN follow that order. An empty result is legal and
    is rejected only by the grammar compiler.
    """
    masks = _state_masks(logic)
    masks.sort(reverse=True)  # atom 0 is the top bit: lexicographic order
    m = len(logic.atoms)
    bits = "".join(map(format, masks, repeat(f"0{m}b"))).encode()  # a row per mask
    return StateSet._trusted(bits.translate(_BIT_VALUES), m, StateOrder.CANONICAL)


def _first_inadmissible(logic: PartitionLogic, states: StateSet, columns) -> int | None:
    """The index of the first state that is not admissible, if any.

    A context has one true atom in every state iff its ``columns`` hold a one
    per state and, or-ed as integers, cover all (a value past 1 sets a bit no
    state has); only a failure looks at the states."""
    everyone = int.from_bytes(b"\1" * len(states), "big")
    for ctx in logic.contexts:
        cells = [columns[j] for j in ctx]
        covered = reduce(or_, (int.from_bytes(c, "big") for c in cells), 0)
        if sum(c.count(1) for c in cells) != len(states) or covered != everyone:
            rows = enumerate(states.rows)
            return next(i for i, row in rows if not is_admissible(row, logic))
    return None


def pinned_state_set(logic: PartitionLogic, matrix: bytes) -> StateSet:
    """Check an explicit state order, rows of a byte per atom, against the full
    enumeration. Admissible, distinct rows are some of the states, so they are
    all of them iff there are as many rows as states: the states are counted."""
    m = len(logic.atoms)
    states = StateSet._trusted(bytes(matrix), m, StateOrder.PINNED)
    if len(states.matrix) % m:
        cut = f"has a {len(states.matrix) % m}-value vector for {m} atoms"
        raise PinnedStatesError(f"pinned state s{len(states) + 1} {cut}")
    bad = _first_inadmissible(logic, states, states.columns)
    if bad is not None:
        raise PinnedStatesError(
            f"pinned state s{bad + 1} is not admissible (some context does "
            "not have exactly one true atom)"
        )
    if len(set(states.rows)) != len(states):
        raise PinnedStatesError("pinned states repeat a valuation")
    total = len(_state_masks(logic))
    if len(states) != total:
        raise PinnedStatesError(
            "pinned states do not match the full enumeration "
            f"({total - len(states)} of {total} valuations missing)"
        )
    return states


def resolve_states(logic_file: LogicFile) -> tuple[PartitionLogic, StateSet]:
    """Turn a parsed logic file into a logic plus its working state set."""
    if isinstance(logic_file.source, BaseSetSpec):
        return logic_from_partitions(logic_file.source)
    logic = logic_file.source
    if logic_file.pinned_states is not None:
        return logic, pinned_state_set(logic, logic_file.pinned_states)
    return logic, enumerate_states(logic)


def is_separating(states: StateSet, logic: PartitionLogic) -> SeparationResult:
    """Whether all atoms have pairwise distinct supports; witness on failure."""
    return SeparationResult(_clash(logic.atoms, supports(logic, states)))


def _clash(atoms: tuple[str, ...], columns: tuple[bytes, ...]) -> tuple[str, str] | None:
    """The least atom pair (i, j) whose columns are equal, or ``None``."""
    first: dict[bytes, int] = {}  # column -> first atom index holding it
    clashes = [(first.setdefault(c, j), j) for j, c in enumerate(columns)]
    pair = min((pair for pair in clashes if pair[0] != pair[1]), default=None)
    return None if pair is None else (atoms[pair[0]], atoms[pair[1]])


def _atom_width(logic: PartitionLogic, states: StateSet) -> int:
    """The atom count, which a nonempty state set must have as its width."""
    m = len(logic.atoms)
    if len(states) and states.width != m:
        raise ValueError(f"state s1 has a {states.width}-value vector for {m} atoms")
    return m


def supports(logic: PartitionLogic, states: StateSet) -> tuple[bytes, ...]:
    """Per atom, its column of state values: a byte per state, in state order.

    The only code that turns valuations into supports; all readers share it.
    """
    m = _atom_width(logic, states)  # atom j's column is every m-th byte of the matrix
    return tuple(states.matrix[j::m] for j in range(m))


def partition_representation(
    logic: PartitionLogic, states: StateSet
) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """Per context, the T-sets of its atoms in context order.

    An atom's T-set is the labels of the states valuing it 1, in state order.
    For admissible states each context's T-sets are pairwise disjoint and
    cover the state labels; this is still checked defensively. A cell may
    be empty (an atom valued 0 by every state).
    """
    labels = states.labels()
    true_sets = [tuple(compress(labels, column)) for column in supports(logic, states)]
    result = []
    for ci, ctx in enumerate(logic.contexts):
        cells = tuple(true_sets[j] for j in ctx)
        seen = set().union(*cells)
        if sum(map(len, cells)) != len(seen) or seen != set(labels):
            raise NotAPartitionError(
                f"context {ci}: supports do not partition the state labels"
            )
        result.append(cells)
    return tuple(result)
