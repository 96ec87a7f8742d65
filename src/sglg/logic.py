"""Finite partition logics and their two-valued states.

A partition logic is a pasting of Boolean contexts: an ordered atom list
plus an ordered list of contexts, each context naming the atoms of one
maximal Boolean block. A two-valued state assigns 0/1 to every atom so
that exactly one atom per context is true. This module parses the two
input file modes (hypergraph and base-set partitions), enumerates states,
and computes supports and partition representations. A state set is the
state/atom incidence table as one ``bytes`` matrix, a row of 0/1 bytes
per state, read as C-level slices. States and blocks are found as bit masks
(atom 0, or point 0, the top bit), and ``_bit_rows`` writes masks as such
rows a block at a time, in byte passes: no Python loop runs per mask or bit.
A pinned ``states`` table is read the other way round: ``_read_table`` checks
its text and copies its digits into the matrix a block of rows at a time, in
byte passes, and ``json`` never builds its rows.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections import defaultdict
from functools import cached_property, reduce
from itertools import chain, compress, islice, repeat
from operator import or_

from .errors import LogicFileError, ValidationError
from .value import Value

Point = int | str

_NAME_RE = re.compile(r"[A-Za-z_]\w*")
# What no output can write in a name, though JSON may escape it: half a surrogate
# pair ("\ud800") is not UTF-8, and XML holds no C0 control, U+FFFE or U+FFFF.
_UNWRITABLE_RE = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")
_HEX_COLOR_RE = re.compile(r"#[0-9A-Fa-f]{6}")
DEFAULT_LOGIC_NAME = "logic"


def _unwritable(c: str) -> str:
    """How an error names a character that no output can write."""
    return "a lone surrogate" if "\ud800" <= c <= "\udfff" else f"the character U+{ord(c):04X}"


class PartitionLogic(Value):
    """Ordered atoms plus ordered contexts of atom indices."""

    name: str
    atoms: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise LogicFileError(f"not an identifier: {self.name!r}", "name")
        # The whole logic at once; only a failure walks it to name the fault.
        if not self._well_formed():
            self._name_fault()
        nested = _least_nested_pair(self)
        if nested is not None:
            ci, cj = nested
            raise LogicFileError(
                f"contexts {ci} and {cj} are nested; no context may be a "
                "subset of another",
                f"contexts[{cj}]",
            )

    def _well_formed(self) -> bool:
        """Whether ``_name_fault`` would find no fault, tested a table at a time."""
        atoms, contexts = self.atoms, self.contexts
        if not (atoms and contexts and set(map(type, atoms)) <= {str} and "" not in atoms):
            return False
        if _UNWRITABLE_RE.search("".join(atoms)) or len(set(atoms)) != len(atoms):
            return False
        if min(map(len, contexts)) < 2:
            return False
        indices = list(chain.from_iterable(contexts))
        if not (
            set(map(type, indices)) <= {int}
            and 0 <= min(indices)
            and max(indices) < len(atoms)
        ):
            return False
        # An atom in no context has no bit; a repeat in a context sets a bit twice.
        masks = self._atom_contexts
        return 0 not in masks and sum(map(int.bit_count, masks)) == len(indices)

    def _name_fault(self) -> None:
        """Walk the atoms and contexts; raise for the first fault, if any."""
        if not self.atoms:
            raise LogicFileError("atom list is empty", "atoms")
        seen: dict[str, int] = {}
        for i, atom in enumerate(self.atoms):
            if not isinstance(atom, str) or not atom:
                raise LogicFileError("atom names must be nonempty strings", f"atoms[{i}]")
            if found := _UNWRITABLE_RE.search(atom):
                raise LogicFileError(f"atom name holds {_unwritable(found[0])}", f"atoms[{i}]")
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

    @cached_property
    def _atom_contexts(self) -> tuple[int, ...]:
        """Per atom, the contexts it lies in as a mask: bit c stands for context c."""
        masks = [0] * len(self.atoms)
        for ci, ctx in enumerate(self.contexts):
            bit = 1 << ci
            for j in ctx:
                masks[j] |= bit
        return tuple(masks)


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
        everywhere = (1 << len(universe)) - 1  # a 1 bit per point
        for pi, (partition, masks) in enumerate(zip(self.partitions, self._block_masks)):
            # Nonempty blocks, as many points in all as the base set, whose masks
            # add up to a 1 bit per point, cover it once each: a sum of p powers
            # of two with p one bits repeats none, and a stray point adds no bit.
            # Only a failure walks the blocks.
            if (
                all(partition)
                and sum(map(len, partition)) == len(universe)
                and sum(masks) == everywhere
            ):
                continue
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
                    if found := _UNWRITABLE_RE.search(name):
                        what = f"block name holds {_unwritable(found[0])}"
                        raise LogicFileError(what, f"block_names[{pi}]")

    @cached_property
    def _block_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per partition, per block, its points as one integer: a bit per
        base-set point, the first point the top bit, so up to 62 points the
        masks and their sums fit in a machine word. Once the spec is checked,
        ``_bit_rows`` writes the masks as the blocks' rows of a 0/1 byte per
        point."""
        p = len(self.base_set)
        bit = defaultdict(int)  # a point outside the base set adds nothing
        bit.update(zip(self.base_set, (1 << (p - 1 - i) for i in range(p))))
        points = repeat(bit.__getitem__)
        return tuple(tuple(map(sum, map(map, points, partition))) for partition in self.partitions)


class StateSet(Value):
    """Ordered two-valued states; the column order of all artifacts.

    ``matrix`` holds distinct rows of ``width`` 0/1 bytes, one state a row
    and one atom a column; row i is labeled ``s{i+1}``.
    """

    matrix: bytes
    width: int

    def __post_init__(self):
        matrix, width = self.matrix, self.width
        if width < 1 or len(matrix) % width:
            raise ValueError(f"state matrix length {len(matrix)} is not a multiple of {width}")
        if not _zero_one(matrix):
            bad = next(k for k, value in enumerate(matrix) if value > 1)
            raise ValueError(f"state s{bad // width + 1}: values must be 0 or 1")
        if len(set(self.rows)) != len(self):
            raise ValueError("state value vectors are not distinct")

    @property
    def rows(self) -> tuple[bytes, ...]:
        """Per state, its values over the atoms: the matrix in width-byte runs."""
        return tuple(re.findall(b"(?s).{%d}" % self.width, self.matrix))

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        return tuple(map("s{}".format, range(1, len(self) + 1)))

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self.matrix) // self.width


class LogicFile(Value):
    """One parsed logic file: the input-mode payload plus optional extras."""

    source: PartitionLogic | BaseSetSpec
    pinned_states: bytes | None = None  # a state matrix, rows in the file's order
    palette: dict[str, str] | None = None

    @property
    def state_order(self) -> str:
        """How the file fixes its states' order, in the words ``sglg check`` prints."""
        if isinstance(self.source, BaseSetSpec):
            return "point-induced"
        return "canonical" if self.pinned_states is None else "pinned-by-spec"


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
    A text holding a ``states`` key is first read by ``_read_object``; every
    text it does not accept goes to ``json.loads``, which names the fault.
    """
    raw = _read_object(text) if '"states"' in text else None
    if raw is None:
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
    index = {a: i for i, a in enumerate(atoms)}  # PartitionLogic rejects a repeated name
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
    # The types of the whole file at once; only a failure walks the partitions.
    blocks = chain.from_iterable
    if not (
        set(map(type, partitions)) <= {list}
        and set(map(type, blocks(partitions))) <= {list}
        and set(map(type, blocks(blocks(partitions)))) <= _POINT_TYPES
    ):
        for pi, partition in enumerate(partitions):
            if not isinstance(partition, list) or not all(
                isinstance(b, list) and set(map(type, b)) <= _POINT_TYPES for b in partition
            ):
                raise LogicFileError(
                    "must be a list of blocks of ints or strings", f"partitions[{pi}]"
                )
    parsed = tuple(tuple(map(tuple, partition)) for partition in partitions)
    names = raw.get("block_names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(n, list) for n in names):
            raise LogicFileError("must be a list of name lists", "block_names")
        names = tuple(tuple(n) for n in names)
    return BaseSetSpec(name, tuple(base), parsed, names)


def _parse_pinned_states(raw_states, logic: PartitionLogic) -> bytes | None:
    """The pinned rows as one state matrix. A table ``_read_table`` took from
    the text is its matrix already; a list reaching here is faulty, or its
    values are spelled as that reader does not take them (``-0``, say), so its
    rows are walked to name the first bad one."""
    if raw_states is None or isinstance(raw_states, bytes):
        return raw_states
    if not isinstance(raw_states, list):
        raise LogicFileError("must be a list of 0/1 rows", "states")
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


_WINDOW = 1 << 16  # bytes of a matrix, or characters of a table's text, per pass
_JSON_SPACE = b" \t\n\r"
_SKIP = re.compile("[ \t\n\r]*").match
_TABLE_END = re.compile(r"\][ \t\n\r]*\]")  # in a 0/1 table, only its last row's end
_ONES_AS_ZEROS = bytes.maketrans(b"1", b"0")
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")
_scan_value = json.JSONDecoder().scan_once  # the C scanner json.loads reads values with


def _zero_one(matrix: bytes) -> bool:
    """Whether every byte is 0 or 1, tested a window at a time, so that no
    test copies the whole matrix."""
    return not any(
        matrix[a : a + _WINDOW].translate(None, b"\0\1") for a in range(0, len(matrix), _WINDOW)
    )


def _read_object(text: str) -> dict | None:
    """The top-level object of ``text`` as ``json.loads`` reads it, except that
    a ``states`` table ``_read_table`` accepts, as wide as the ``atoms`` list,
    is its matrix; None for any other text, which ``json.loads`` then reads.

    Each key goes through ``json``'s ``scanstring`` and each other value
    through its ``scan_once``; a repeated key keeps its last value."""
    raw: dict = {}
    pos = _SKIP(text).end()
    if not text.startswith("{", pos):
        return None
    pos = _SKIP(text, pos + 1).end()
    while text.startswith('"', pos):
        try:
            key, pos = json.decoder.scanstring(text, pos + 1)
            pos = _SKIP(text, pos).end()
            if not text.startswith(":", pos):
                return None
            pos = _SKIP(text, pos + 1).end()
            if key == "states" and text.startswith("[", pos):
                read = _read_table(text, pos)
                if read is None:
                    return None
                value, pos = read
            else:
                value, pos = _scan_value(text, pos)
        except (StopIteration, ValueError, RecursionError):
            return None
        raw[key] = value
        pos = _SKIP(text, pos).end()
        if text.startswith("}", pos):
            break
        if not text.startswith(",", pos):
            return None
        pos = _SKIP(text, pos + 1).end()
    else:
        return None
    if _SKIP(text, pos + 1).end() != len(text):
        return None
    table, atoms = raw.get("states"), raw.get("atoms")
    if isinstance(table, tuple):
        if not (isinstance(atoms, list) and len(atoms) == table[1]):
            return None
        raw["states"] = table[0]
    return raw


def _read_table(text: str, start: int) -> tuple[tuple[bytes, int], int] | None:
    """The table at ``text[start]``, a ``[``, if it is rows of one width of
    the digits 0 and 1, with JSON whitespace anywhere between its tokens: its
    matrix and width, and the index past it. None for any other table.

    ``_bit_rows`` in reverse. The text up to the first ``]`` followed by a
    ``]`` (the end of a 0/1 table) is read a window at a time: each window
    must be ASCII, and its whitespace is dropped in one ``translate``. A block
    of rows is accepted if, its ones written as zeros, it is the same number
    of rows ``[0,...,0],`` as wide as the first row, and its digits, its
    brackets and commas dropped, are its rows of the matrix: a ``translate``
    each. A block is ``_BLOCK`` rows, or fewer where that many would pass a
    window, so the template block is about a window, or one row, whatever
    width the first row claims. A Python loop runs per window and per block,
    never per value, nor per row of less than a window."""
    end = _TABLE_END.search(text, start)
    if end is None:
        return None
    stop, width, rest, out = end.end(), 0, bytearray(), io.BytesIO()
    for a in range(start, stop, _WINDOW):
        try:
            rest += text[a : min(a + _WINDOW, stop)].encode("ascii").translate(None, _JSON_SPACE)
        except UnicodeEncodeError:
            return None
        if not width:
            first = rest.find(b"]")  # rest is "[[d,...,d]": at 2 * width + 1
            if first < 0:
                continue
            width = (first - 1) // 2
            if width < 1:
                return None
            row = b"[" + b"0," * (width - 1) + b"0],"
            block = row * max(1, min(_BLOCK, _WINDOW // len(row)))
            del rest[:1]
        while len(rest) > len(block):  # so the table's last row is in none
            rows = rest[: len(block)]
            del rest[: len(block)]
            if rows.translate(_ONES_AS_ZEROS) != block:
                return None
            out.write(rows.translate(_DIGIT_VALUES, b"[],"))
    if not width or len(rest) % len(row):
        return None
    # The last row ends in the table's "]" where every other row has a ",".
    if rest.translate(_ONES_AS_ZEROS) != (row * (len(rest) // len(row)))[:-1] + b"]":
        return None
    out.write(rest.translate(_DIGIT_VALUES, b"[],"))
    return (out.getvalue(), width), stop


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
    partitions = spec._block_masks  # equal blocks have equal masks
    blocks = list(chain.from_iterable(partitions))
    if spec.block_names is None:  # a block is named where it is first seen
        names = [
            f"p{pi}b{bi}"
            for pi, partition in enumerate(partitions, 1)
            for bi in range(1, len(partition) + 1)
        ]
    else:
        names = list(chain.from_iterable(spec.block_names))
    atoms = dict.fromkeys(blocks)  # block mask -> atom name, in order of first sight
    atoms.update(zip(reversed(blocks), reversed(names)))  # the first name is written last
    index = dict(zip(atoms, range(len(atoms))))
    contexts = tuple(tuple(map(index.__getitem__, partition)) for partition in partitions)
    # Given names must name blocks one to one; a partition gives a context of at
    # least 2 blocks, and contexts of one base set nest only if equal.
    if (
        (
            spec.block_names is not None
            and not len(atoms) == len(set(names)) == len(set(zip(blocks, names)))
        )
        or min(map(len, contexts)) < 2
        or len(set(map(frozenset, contexts))) != len(contexts)
    ):
        _name_pasting_fault(spec, names)
    # PartitionLogic's checks hold: the spec checked the name, the block names
    # and that a partition is given; atom names are distinct; every atom lies
    # in a context of at least 2 distinct atoms, and no contexts nest.
    logic = PartitionLogic._trusted(spec.name, tuple(atoms.values()), contexts)

    # An atom's column is its mask's bits as bytes; a point's row is every p-th byte.
    p = len(spec.base_set)
    columns = _bit_rows(atoms, p)
    rows = dict.fromkeys(map(columns.__getitem__, map(slice, range(p), repeat(None), repeat(p))))
    return logic, StateSet._trusted(b"".join(rows), len(atoms))


def _name_pasting_fault(spec: BaseSetSpec, names: list[str]) -> None:
    """Walk the partitions in order, ``names`` holding each block's name;
    raise for the first block named two ways, name of two blocks, partition
    of one block, or repeated partition."""
    atoms: dict[int, str] = {}  # block mask -> atom name
    taken: set[str] = set()
    first: dict[frozenset[int], int] = {}  # a context's blocks -> its first partition
    names_in_order = iter(names)
    for pi, partition in enumerate(spec._block_masks):
        for bi, block in enumerate(partition):
            name = next(names_in_order)
            if block in atoms:
                if spec.block_names is not None and atoms[block] != name:
                    points = sorted(spec.partitions[pi][bi], key=repr)
                    raise LogicFileError(
                        f"block {points} is named {atoms[block]!r} and "
                        f"{name!r} in different partitions (ambiguous pasting)",
                        f"block_names[{pi}][{bi}]",
                    )
            else:
                if name in taken:  # only given names can repeat
                    raise LogicFileError(
                        f"name {name!r} is used for two different blocks",
                        f"block_names[{pi}][{bi}]",
                    )
                atoms[block] = name
                taken.add(name)
        if len(partition) < 2:
            raise LogicFileError("partition has fewer than 2 blocks", f"partitions[{pi}]")
        same = first.setdefault(frozenset(partition), pi)
        if same != pi:
            raise LogicFileError(
                f"partitions {same} and {pi} have the same blocks", f"partitions[{pi}]"
            )
    raise AssertionError("a rejected pasting holds no fault")


def _least_nested_pair(logic: PartitionLogic) -> tuple[int, int] | None:
    """The least (i, j), i < j, with one of contexts i and j inside the other.

    The AND of a context's atom masks holds every context containing it;
    any bit left besides its own is a nested pair.
    """
    masks = logic._atom_contexts
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
    """Every two-valued state as an atom mask, atom 0 the top bit; unordered."""
    return _exact_covers(logic, [0], _listed)


def _state_count(logic: PartitionLogic) -> int:
    """The number of two-valued states, found without listing them."""
    return _exact_covers(logic, 1, _counted)


def _listed(forced: int, kids, memo) -> list[int]:
    """A node's completions: its forced atoms, a kid's atom, a kid's completion."""
    return [forced | b | s for b, kid in kids for s in memo[kid]]


def _counted(forced: int, kids, memo) -> int:
    """A node's number of completions: the sum of its kids'."""
    return sum(memo[kid] for _, kid in kids)


_DONE = (0, 0)  # no live atom and no open context: one completion, the empty one


def _exact_covers(logic: PartitionLogic, done, fold):
    """Fold the exact covers of the contexts by the atoms.

    The two-valued states are those covers. ``done`` is the value of
    ``_DONE``; ``fold(forced, kids, memo)`` gives a node's value from its
    forced atoms (a mask) and ``kids``, a list of (atom bit, kid key) whose
    values are in ``memo``; the root's value is returned. ``_listed``
    lists the states as masks and ``_counted`` counts them.

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
    memo = {_DONE: done}  # key -> value of its completions
    root = ((1 << m) - 1, (1 << len(logic.contexts)) - 1)
    # (key, hot) to solve, or (key, forced, kids) once the kids are solved;
    # hot holds every open context with at most one live atom, to find those fast.
    stack: list[tuple] = [(root, 0)]
    while stack:
        top = stack.pop()
        if len(top) == 3:
            key, forced, kids = top
            memo[key] = fold(forced, kids, memo)
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
            memo[key] = fold(forced, [(0, _DONE)], memo)
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


_BLOCK = 1024  # masks per block of _bit_rows
# Per bit of a byte, the top one first, the table mapping a byte to that bit.
_BITS = [(b"\0" * s + b"\1" * s) * (128 // s) for s in (128, 64, 32, 16, 8, 4, 2, 1)]
_PAD = b"\2"  # marks the columns that round a row up to whole bytes


def _bit_rows(masks, width: int) -> bytes:
    """Each mask, in order, as a row of ``width`` 0/1 bytes, its top bit first.

    A block of masks at a time: the masks as big-endian ints of w whole bytes,
    in one join; each bit of those bytes copied to every 8th byte of the block
    through its ``_BITS`` table; the 8w - width leading columns of each row
    marked ``_PAD`` and dropped in one ``translate``. No Python loop runs per
    mask or per bit of the width. The blocks go to one buffer, which is
    returned as it is: the rows are held once, beside one block."""
    w = (width + 7) // 8
    pad, masks, out = 8 * w - width, iter(masks), io.BytesIO()
    while block := list(islice(masks, _BLOCK)):
        whole = b"".join(map(int.to_bytes, block, repeat(w), repeat("big")))
        rows = bytearray(8 * len(whole))
        for k, bit in enumerate(_BITS):
            rows[k::8] = whole.translate(bit)
        for k in range(pad):
            rows[k :: 8 * w] = _PAD * len(block)
        out.write(rows.translate(None, _PAD) if pad else rows)
    return out.getvalue()


def enumerate_states(logic: PartitionLogic) -> StateSet:
    """All two-valued states of the logic, in canonical order.

    Canonical order is descending lexicographic over the atom declaration
    order; labels s1..sN follow that order. An empty result is legal and
    is rejected only by the grammar compiler.
    """
    masks = _state_masks(logic)
    masks.sort(reverse=True)  # atom 0 is the top bit: lexicographic order
    m = len(logic.atoms)
    return StateSet._trusted(_bit_rows(masks, m), m)


def _first_inadmissible(logic: PartitionLogic, states: StateSet, columns) -> int | None:
    """The index of the first state that is not admissible, if any.

    A context has one true atom in every state iff its ``columns`` hold a one
    per state and, or-ed as integers, cover all (a value past 1 sets a bit no
    state has). Each column's ones are counted once; only one context's
    columns are held as integers at a time, and only a failure looks at the
    states."""
    everyone = int.from_bytes(b"\1" * len(states), "big")
    ones = list(map(bytes.count, columns, repeat(1)))
    for ctx in logic.contexts:
        if sum(map(ones.__getitem__, ctx)) != len(states) or everyone != reduce(
            or_, map(int.from_bytes, map(columns.__getitem__, ctx), repeat("big"))
        ):
            rows = enumerate(states.rows)
            return next(i for i, row in rows if not is_admissible(row, logic))
    return None


def pinned_state_set(logic: PartitionLogic, matrix: bytes) -> StateSet:
    """Check an explicit state order, rows of a byte per atom, against the full
    enumeration. Admissible, distinct rows are some of the states, so they are
    all of them iff there are as many rows as states: the states are counted."""
    m = len(logic.atoms)
    states = StateSet._trusted(bytes(matrix), m)
    if len(states.matrix) % m:
        cut = f"has a {len(states.matrix) % m}-value vector for {m} atoms"
        raise ValidationError(cut, f"states[{len(states)}]")
    bad = _first_inadmissible(logic, states, supports(logic, states))
    if bad is not None:
        raise ValidationError(
            "not admissible (some context does not have exactly one true atom)",
            f"states[{bad}]",
        )
    if len(set(states.rows)) != len(states):  # only a failure looks for the pair
        i, j = _clash(states.rows)
        raise ValidationError(f"repeats the valuation of states[{i}]", f"states[{j}]")
    total = _state_count(logic)
    if len(states) != total:
        raise ValidationError(
            "do not match the full enumeration "
            f"({total - len(states)} of {total} valuations missing)",
            "states",
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


def is_separating(states: StateSet, logic: PartitionLogic) -> bool:
    """Whether all atoms have distinct supports; ``compile_grammar`` names a clash."""
    return _clash(supports(logic, states)) is None


def _clash(columns: tuple[bytes, ...]) -> tuple[int, int] | None:
    """The least index pair (i, j), i < j, of equal columns (or rows), or ``None``.

    Sorted, equal columns are neighbours: only a clash builds the index."""
    ordered = sorted(columns)
    if not any(map(bytes.__eq__, ordered, islice(ordered, 1, None))):
        return None
    first: dict[bytes, int] = {}  # column -> first index holding it
    clashes = [(first.setdefault(c, j), j) for j, c in enumerate(columns)]
    return min((pair for pair in clashes if pair[0] != pair[1]), default=None)


def _atom_width(logic: PartitionLogic, states: StateSet) -> int:
    """The atom count, which a nonempty state set must have as its width."""
    m = len(logic.atoms)
    if len(states) and states.width != m:
        raise ValueError(f"state s1 has a {states.width}-value vector for {m} atoms")
    return m


def supports(logic: PartitionLogic, states: StateSet) -> tuple[bytes, ...]:
    """Per atom, its column of state values: a byte per state, in state order.

    Every column at once, for the readers that need them all. Three readers
    slice the matrix to hold less: ``check_incidence`` and ``schema_chunks``
    a column at a time, ``cli._table_chunks`` a block of states at a time.
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
            raise ValidationError(
                "supports do not partition the state labels", f"contexts[{ci}]"
            )
        result.append(cells)
    return tuple(result)
