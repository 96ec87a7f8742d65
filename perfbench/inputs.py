"""Seeded input generators and the op list of each workload.

An op is one ``sglg`` command on one generated input file. Every file is
written into a work directory; the program sees nothing else. Each op
carries an ``expect`` record that the oracles in ``oracles.py`` check
its output against. Nothing here imports ``sglg``: expected state tables
come from each family's own structure or from a brute force.

The seed changes every file (atom names, declaration order, the order
of atoms inside a context, the pinned row order, the random partitions)
but never the size parameters below. For the enumerated logics it also
never changes the order of the contexts, which is what fixes the size of
the depth-first search tree, so the cost of one seed can be compared
with another's.
"""

from __future__ import annotations

import json
import math
import random
from itertools import product
from pathlib import Path

WORKLOADS = ("cli-fixtures", "chain-render", "resolve-search", "wide-partitions")

# Sizes keep one pass to a few seconds, so that a run holds several passes
# and no op is much longer than the host's speed stays put (see speed.py).
# chain-render: few long rows, where grammar and render do ~95% of the work.
CHAIN_RENDER_K = (14, 16)  # 1,597 and 4,181 states; 46,371 and 138,039 tokens
# resolve-search: state resolution with no grammar built.
PARITY_ODD_C = (21, 23, 25)  # zero states, so the search runs to exhaustion
PARITY_EVEN_C = (22, 24)  # about 1k states, found by the same search
PINNED_CHAIN_K = 16  # 4,181 pinned rows, checked against the full enumeration
PAIR_CHAIN_CONTEXTS = 1500  # deeper than the recursion limit (a known defect)
# The one op allowed to crash, by op id and exception name: enumerating the
# pair chain recurses once per context. Any other crash makes a run incorrect.
KNOWN_DEFECTS = {f"pairs{PAIR_CHAIN_CONTEXTS}:states": "RecursionError"}
# wide-partitions: many atoms, few states, many short rows.
WIDE_SHAPES = ((32, 200), (48, 400))  # (points, partitions): ~1k and ~2k atoms

# The parity graphs are fixed per c and only their labels follow the run
# seed: over random 4-regular graphs the search cost varies 30-fold,
# which no run of bounded length averages out.
PARITY_STRUCTURE_SEED = "parity-structure"

RENDER_FORMATS = ("svg-tiles", "ansi", "html", "logic-program", "events")
ORTHOREP_THETA = math.pi / 6

# The repository's fixtures, copied so that the benchmark pins its inputs.
FIXTURES = {
    "l12": {
        "name": "v_logic",
        "atoms": ["a", "b", "c", "d", "e"],
        "contexts": [["a", "b", "c"], ["c", "d", "e"]],
        "states": [
            [1, 0, 0, 0, 1],
            [1, 0, 0, 1, 0],
            [0, 1, 0, 0, 1],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 0],
        ],
    },
    "triangle": {
        "name": "triangle_logic",
        "atoms": ["a", "b", "c", "d", "e", "f"],
        "contexts": [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "a"]],
        "states": [
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 1],
        ],
    },
    "example_a": {
        "name": "horizontal_sum",
        "base_set": [1, 2, 3],
        "partitions": [[[1], [2, 3]], [[2], [1, 3]], [[3], [1, 2]]],
        "block_names": [["p", "not_p"], ["q", "not_q"], ["r", "not_r"]],
    },
}
L12_VECTORS = {
    "dimension": 3,
    "vectors": {
        "a": [1.0, 0.0, 0.0],
        "b": [0.0, 1.0, 0.0],
        "c": [0.0, 0.0, 1.0],
        "d": [0.7071067811865476, 0.7071067811865475, 0.0],
        "e": [-0.7071067811865475, 0.7071067811865476, 0.0],
    },
}


# ------------------------------------------------------------ logic shapes


def _relabel(rng: random.Random, name: str, stem: str, size: int, contexts):
    """Name ``size`` atoms, shuffle their declaration and in-context order.

    Returns the spec and ``pos``, where ``pos[i]`` is the declared index
    of structural atom i.
    """
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    numbers = rng.sample(range(4 * size), size)
    names = [f"{stem}{tag}{n}" for n in numbers]
    order = list(range(size))
    rng.shuffle(order)
    pos = [0] * size
    for declared, i in enumerate(order):
        pos[i] = declared
    ctx_lists = []
    for ctx in contexts:
        members = [names[i] for i in ctx]
        rng.shuffle(members)
        ctx_lists.append(members)
    spec = {"name": name, "atoms": [names[i] for i in order], "contexts": ctx_lists}
    return spec, pos


def _declared(rows, pos) -> list[tuple[int, ...]]:
    """Rows over structural atoms, re-indexed to declaration order, sorted."""
    out = []
    for row in rows:
        declared = [0] * len(pos)
        for i, v in enumerate(row):
            declared[pos[i]] = v
        out.append(tuple(declared))
    return sorted(out, reverse=True)


def chain_logic(rng: random.Random, k: int):
    """Chain-k: contexts {x_i, y_i, x_(i+1)} for i < k, with its states.

    Atoms 0..k are x_0..x_k and k+1..2k are y_0..y_(k-1). Given x_i and
    x_(i+1), context i forces y_i = 1 exactly when both are 0, so the
    states are the x-strings with no two adjacent ones: F(k+3) of them.
    """
    contexts = [(i, k + 1 + i, i + 1) for i in range(k)]
    spec, pos = _relabel(rng, f"chain{k}", "x", 2 * k + 1, contexts)
    strings = [(0,), (1,)]
    for _ in range(k):
        strings = [s + (b,) for s in strings for b in (0, 1) if not (s[-1] and b)]
    rows = [
        xs + tuple(int(not xs[i] and not xs[i + 1]) for i in range(k))
        for xs in strings
    ]
    return spec, _declared(rows, pos)


def pair_chain_logic(rng: random.Random, n: int):
    """n contexts {a_i, a_(i+1)}: exactly the two alternating states."""
    spec, pos = _relabel(rng, f"pairs{n}", "a", n + 1, [(i, i + 1) for i in range(n)])
    rows = [tuple((i + b) % 2 for i in range(n + 1)) for b in (0, 1)]
    return spec, _declared(rows, pos)


def parity_structure(c: int) -> list[tuple[int, int]]:
    """A 4-regular multigraph on c vertices: the union of two Hamilton cycles.

    Vertices are contexts and edges are atoms, so each context has four
    atoms and each atom lies in two contexts. There is no self-loop and no
    two vertices share all four edges, so no context nests in another.
    """
    rng = random.Random(f"{PARITY_STRUCTURE_SEED}:{c}")
    edges = []
    for _ in range(2):
        perm = list(range(c))
        rng.shuffle(perm)
        edges += [(perm[i], perm[(i + 1) % c]) for i in range(c)]
    return edges


def parity_logic(rng: random.Random, c: int) -> dict:
    """The parity logic on c contexts. Odd c admits no state.

    A state makes one atom per context true and each true atom lies in
    two contexts, so c is twice the number of true atoms.
    """
    edges = parity_structure(c)
    contexts = [[] for _ in range(c)]
    for a, (u, v) in enumerate(edges):
        contexts[u].append(a)
        contexts[v].append(a)
    spec, _ = _relabel(rng, f"parity{c}", "e", len(edges), contexts)
    return spec


def random_partitions(rng: random.Random, points: int, count: int) -> dict:
    """A base-set logic: ``count`` distinct random partitions of 1..points."""
    base = list(range(1, points + 1))
    partitions = []
    seen = set()
    while len(partitions) < count:
        wanted = rng.randint(3, 7)
        blocks: dict[int, list[int]] = {}
        for p in base:
            blocks.setdefault(rng.randrange(wanted), []).append(p)
        key = frozenset(frozenset(b) for b in blocks.values())
        if len(key) < 2 or key in seen:
            continue
        seen.add(key)
        partition = list(blocks.values())
        rng.shuffle(partition)
        partitions.append(partition)
    return {"name": f"wide{points}x{count}", "base_set": base, "partitions": partitions}


def partition_facts(spec: dict) -> tuple[list[str], list[tuple[int, ...]]]:
    """Atoms and point-induced state rows of a base-set logic.

    Atoms are the distinct blocks, named after their first occurrence. A
    point's state makes true the blocks that hold it; points that share a
    block in every partition give one state, listed at the first of them.
    """
    names = spec.get("block_names")
    atoms: list[str] = []
    blocks: list[frozenset] = []
    known: set[frozenset] = set()
    for pi, partition in enumerate(spec["partitions"]):
        for bi, block in enumerate(partition):
            key = frozenset(block)
            if key not in known:
                known.add(key)
                blocks.append(key)
                atoms.append(names[pi][bi] if names else f"p{pi + 1}b{bi + 1}")
    rows: list[tuple[int, ...]] = []
    for p in spec["base_set"]:
        row = tuple(int(p in b) for b in blocks)
        if row not in rows:
            rows.append(row)
    return atoms, rows


def brute_force_rows(atoms: list[str], contexts: list[list[str]]):
    """All admissible rows over 2^M, in descending order."""
    index = {a: i for i, a in enumerate(atoms)}
    ctxs = [[index[a] for a in ctx] for ctx in contexts]
    rows = [
        bits
        for bits in product((0, 1), repeat=len(atoms))
        if all(sum(bits[j] for j in ctx) == 1 for ctx in ctxs)
    ]
    return sorted(rows, reverse=True)


def context_indices(spec: dict) -> list[list[int]]:
    index = {a: i for i, a in enumerate(spec["atoms"])}
    return [[index[a] for a in ctx] for ctx in spec["contexts"]]


# ----------------------------------------------------------------- op lists


class OpList:
    """Writes input files and collects ops with their expectations."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[dict] = []
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, payload: dict) -> str:
        path = self.workdir / "in" / f"{stem}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def add(self, op_id: str, argv: list[str], **expect) -> None:
        self.ops.append({"id": op_id, "argv": argv, "expect": expect})

    def pipeline(self, stem: str, path: str, commands, **facts) -> None:
        """Ops for ``commands`` on one logic whose atoms and rows are known.

        A command is ``states``, ``check``, ``schema``, ``grammar-<format>``
        or a render format. The two SVG writers need ``-o``.
        """
        for cmd in commands:
            op_id = f"{stem}:{cmd}"
            out = None
            if cmd in ("states", "check", "schema"):
                argv = [cmd, path]
            elif cmd.startswith("grammar-"):
                argv = ["grammar", path, "--format", cmd.split("-", 1)[1]]
            else:
                argv = ["render", path, "--format", cmd]
            if cmd in ("schema", "svg-tiles"):
                out = str(self.workdir / "out" / f"{op_id.replace(':', '-')}.svg")
                argv += ["-o", out]
            self.add(op_id, argv, kind=cmd, out=out, **facts)


FULL_COMMANDS = ("states", "grammar-text", "grammar-json", *RENDER_FORMATS,
                 "schema", "check")


def _facts(logic: dict, atoms, rows, order: str) -> dict:
    return {"atoms": list(atoms), "rows": [list(r) for r in rows],
            "contexts": len(logic.get("contexts", logic.get("partitions", []))),
            "order": order, "name": logic["name"]}


def build_ops(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Generate the workload's inputs under ``workdir``; return its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = OpList(workdir)
    rng = random.Random(f"{seed}:{workload}")
    if workload == "cli-fixtures":
        _fixture_ops(ops)
    elif workload == "chain-render":
        for k in CHAIN_RENDER_K:
            spec, rows = chain_logic(rng, k)
            path = ops.write(f"chain{k}", spec)
            ops.pipeline(f"chain{k}", path,
                         ("check", "grammar-text", "schema", *RENDER_FORMATS),
                         **_facts(spec, spec["atoms"], rows, "canonical"))
    elif workload == "resolve-search":
        # The pinned chain first: it has the largest heap of these ops, and on a
        # fresh heap, as in its own CLI process, its peak does not depend on
        # what the seed's parity ops left fragmented.
        spec, rows = chain_logic(rng, PINNED_CHAIN_K)
        pinned = list(rows)
        rng.shuffle(pinned)
        spec["states"] = [list(r) for r in pinned]
        path = ops.write(f"pinned{PINNED_CHAIN_K}", spec)
        ops.add(f"pinned{PINNED_CHAIN_K}:states", ["states", path], kind="states",
                atoms=spec["atoms"], rows=spec["states"])
        for c in (*PARITY_ODD_C, *PARITY_EVEN_C):
            spec = parity_logic(rng, c)
            path = ops.write(f"parity{c}", spec)
            if c % 2:
                ops.add(f"parity{c}:states", ["states", path], kind="states",
                        atoms=spec["atoms"], rows=[])
                ops.add(f"parity{c}:check", ["check", path], kind="check-empty")
            else:
                ops.add(f"parity{c}:states", ["states", path], kind="states-sorted",
                        atoms=spec["atoms"], ctx_index=context_indices(spec))
        spec, rows = pair_chain_logic(rng, PAIR_CHAIN_CONTEXTS)
        path = ops.write(f"pairs{PAIR_CHAIN_CONTEXTS}", spec)
        ops.add(f"pairs{PAIR_CHAIN_CONTEXTS}:states", ["states", path], kind="states",
                atoms=spec["atoms"], rows=[list(r) for r in rows])
    else:
        for points, count in WIDE_SHAPES:
            spec = random_partitions(rng, points, count)
            atoms, rows = partition_facts(spec)
            stem = f"wide{points}x{count}"
            path = ops.write(stem, spec)
            ops.pipeline(stem, path, ("check", "states", "schema", "svg-tiles"),
                         **_facts(spec, atoms, rows, "point-induced"))
    return ops.ops


def _fixture_ops(ops: OpList) -> None:
    for stem, spec in FIXTURES.items():
        path = ops.write(stem, spec)
        if "base_set" in spec:
            atoms, rows = partition_facts(spec)
            order = "point-induced"
        else:
            atoms = spec["atoms"]
            rows = [tuple(r) for r in spec["states"]]
            order = "pinned-by-spec"
            if sorted(rows, reverse=True) != brute_force_rows(atoms, spec["contexts"]):
                raise RuntimeError(f"fixture {stem}: pinned rows are not all the states")
        ops.pipeline(stem, path, FULL_COMMANDS, fixture=True,
                     **_facts(spec, atoms, rows, order))
    l12 = ops.workdir / "in" / "l12.json"
    vectors = ops.write("l12_vectors", L12_VECTORS)
    ops.add("l12:orthorep-vectors",
            ["verify-orthorep", str(l12), "--vectors", vectors],
            kind="orthorep", fixture=True)
    ops.add("l12:orthorep-theta",
            ["verify-orthorep", str(l12), "--theta", repr(ORTHOREP_THETA)],
            kind="orthorep", fixture=True)
