"""Output oracles that share no code with ``sglg``.

``check_op`` returns ``None`` when an op's exit code and output are what
the op's ``expect`` record (from ``inputs.py``) predicts, and otherwise a
one-line reason. Every count is worked out from the expected state rows:
M atoms and N states give M+1 productions, M*(N+2) derivation tokens and
M*(N+1) tiles, events or cells. Fixture outputs must also match the
golden bytes recorded below.
"""

from __future__ import annotations

import hashlib
import json

BLOCK = "█"

# SHA-256 of each fixture op's output (the -o file, else stdout), recorded
# from the CLI at the first benchmarked commit. Every one also passes the
# structural oracles below, and the l12 logic-program digest is that of
# the exact text the render tests pin.
GOLDEN = {
    "l12:states": "e3507d18b07f0e176241c0982218812a228e801551f37fc8a90d1655a94d4895",
    "l12:grammar-text": "0f914ce0999efc15c42ed92c62d1897be433fd776410ae8bedafb04a96539079",
    "l12:grammar-json": "c432a2edca60805faf65237b86058217ee015d0c44f6bd1318caab924c2392f0",
    "l12:svg-tiles": "5ddd9fb4ff681438bc16f407dedba6d3d1f4057e9557034378364943051b5193",
    "l12:ansi": "019d4a3f27df9c077618d314c8335b029282224d2376140c23fff3eb8bf10987",
    "l12:html": "232f60f013fe2cd411c71da5708cecf1bd6ba878445086c5a322b10a193a60bc",
    "l12:logic-program": "a65459eea7f84a6ee54a50c1e498521c4eb8f04d69c459927bb80f6420bce5c9",
    "l12:events": "19e0ce5a0383febbda280a9502349f033ad16c8f82d39a465de230979c1c4ea6",
    "l12:schema": "1f163ab223009ddb18daee67c9f211164c71d69671783ac15764228fb641c119",
    "l12:check": "67ef332920a0d5dbcd80a5abf4a790aee07718f7507016559a0187f194abdff6",
    "triangle:states": "3509c9b93a7f64a2bf37f15a5ea009c59461478b6f78ca3d0c53daa5ae41b756",
    "triangle:grammar-text": "1bf7adfe0b1407bff9aed3a3e6e5b2aded533924d982a8e747eb7886c231dfdb",
    "triangle:grammar-json": "fb287b252a95f34d24b6526ff1f3d9ebdaa3e472dd2bd566fec827d5fb90c61a",
    "triangle:svg-tiles": "a3d4406e995def263456c22b0e223941e58f54dcdb87ce5192658f34da3626d8",
    "triangle:ansi": "9017b959eeb7c57acc9a8abde2b6711e478f2b21f43f778b30007b1864b8f83b",
    "triangle:html": "51bea5fd60d65b1fa5dff61c0ffbb0543c867d88ac221d5a71d85ab19f73f8cf",
    "triangle:logic-program": "cfb115246c086a04fe5f2cd573efc4242858c671768aedae8c2f9050ec0ec80f",
    "triangle:events": "cadda806751536cc1ff9dc31d59a46e5bc9b777beaaeae987e15e329533e50e9",
    "triangle:schema": "a1df50d37f575b2934e25a7dee8176428228c77f4812137afaf8c5417468f404",
    "triangle:check": "13a5ce5229bddf83d209e98e3b6565a3b03e8acf98ad934633bfc79f64475b9a",
    "example_a:states": "7aecc173f16f98e0581d94dc5b9f6cf53249d436ad7b50e9bb67dc280f579049",
    "example_a:grammar-text": "de8825ab39779fd2741c6f543cb339cbc4922d7851325c5d98fb1696df74d4f4",
    "example_a:grammar-json": "22c9d0f65672442272e25e1b632b3bf816170606f00759e36b18ae876a1bee4b",
    "example_a:svg-tiles": "2fe83d79e99b96c390572110dea34ef6c64c9a2308325b3acb81b183aa13d597",
    "example_a:ansi": "339eb396682bf0981e7495bb4e2bb70fbfecf5c12cd43ca441ea6ec1ccebe5bf",
    "example_a:html": "393b726759a409f29af9290084dffc3133f72105ad4c3df20ac58695371bfe4e",
    "example_a:logic-program": "c80aad2985981ce5dd2f048731e3ffaea3d9abee29c244ff10d679f597f3206c",
    "example_a:events": "bfb0d27cabd4b1e2db69de5d56d2e36e2d972a644918313cc5b863b6c20a9e23",
    "example_a:schema": "195cff1980395ecd11de178216fdb1c89b819e056557fe637432527fd8e7dd0f",
    "example_a:check": "5e1cef7a20d2fe7ddcff0cea432d1fc7fb225c024fb5871683d2632208e9df1f",
    "l12:orthorep-vectors": "347118dcf3869038d977504a2d13ddec075a97b92d2fb0d1c351a84b242f2c19",
    "l12:orthorep-theta": "d0e14f2c3ff1432bbdc0e5cac03400f5cdb331de1a3fcbca0a2ba55358a9ef3a",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_op(op: dict, code: int, stderr: str, output: str) -> str | None:
    """Judge one op; ``output`` is the -o file's text, or stdout."""
    expect = op["expect"]
    kind = expect["kind"]
    want_code = 1 if kind == "check-empty" else 0
    if code != want_code:
        first = (stderr.strip().splitlines() or [""])[-1]
        return f"exit {code}, expected {want_code}: {first[:200]}"
    problem = _KINDS[kind](expect, output, stderr)
    if problem is None and expect.get("fixture"):
        if digest(output) != GOLDEN.get(op["id"]):
            problem = "output differs from the golden bytes"
    return problem


def production_lines(expect: dict) -> list[str]:
    """The grammar listing predicted from the atoms and state rows."""
    atoms, rows = expect["atoms"], expect["rows"]
    labels = [f"s{i + 1}" for i in range(len(rows))]
    lines = [f"{expect['name']} --> {','.join(atoms)}.", ""]
    for j, atom in enumerate(atoms):
        true = [lab for lab, row in zip(labels, rows) if row[j] == 1]
        false = [lab for lab, row in zip(labels, rows) if row[j] == 0]
        lines.append(f"{atom} --> {','.join(true + ['br'] + false + ['n'])}.")
    return lines


def _size(expect: dict) -> tuple[int, int]:
    return len(expect["atoms"]), len(expect["rows"])


def _table(output: str) -> tuple[list[str], list[str], list[tuple[int, ...]]]:
    lines = output.splitlines()
    header = lines[0].split() if lines else []
    labels, rows = [], []
    for line in lines[1:]:
        cells = line.split()
        labels.append(cells[0])
        rows.append(tuple(int(v) for v in cells[1:]))
    return header, labels, rows


def _states(expect, output, _stderr):
    header, labels, rows = _table(output)
    if header != expect["atoms"]:
        return "table header is not the declared atom list"
    if labels != [f"s{i + 1}" for i in range(len(rows))]:
        return "state labels are not s1..sN"
    want = [tuple(r) for r in expect["rows"]]
    if rows != want:
        return f"table has {len(rows)} rows, not the {len(want)} expected in order"
    return None


def _states_sorted(expect, output, _stderr):
    header, labels, rows = _table(output)
    if header != expect["atoms"]:
        return "table header is not the declared atom list"
    if not rows or labels != [f"s{i + 1}" for i in range(len(rows))]:
        return "state labels are not s1..sN for N >= 1"
    for row in rows:
        if len(row) != len(header):
            return "row width differs from the atom count"
        if any(sum(row[j] for j in ctx) != 1 for ctx in expect["ctx_index"]):
            return "a row is not admissible"
    if any(a <= b for a, b in zip(rows, rows[1:])):
        return "rows are not distinct and in descending order"
    return None


def _check(expect, output, _stderr):
    m, n = _size(expect)
    want = [
        f"states: {n} admissible ({expect['order']} order)",
        "separating: yes",
        f"partition representation: ok ({expect['contexts']} contexts)",
        f"grammar: {m + 1} productions, {m * (n + 2)} derivation tokens",
        "incidence: ok",
    ]
    got = output.splitlines()
    if got != want:
        diff = next((g for g, w in zip(got, want) if g != w), got[-1:] or "empty")
        return f"check report differs at {diff!r}"
    return None


def _check_empty(expect, output, stderr):
    if output:
        return "report printed for a logic without states"
    if "admits no two-valued states" not in stderr:
        return "no 'admits no two-valued states' error"
    return None


def _grammar_text(expect, output, _stderr):
    if output != "\n".join(production_lines(expect)) + "\n":
        return "production listing differs from the predicted grammar"
    return None


def _grammar_json(expect, output, _stderr):
    predicted = {}
    for line in production_lines(expect):
        if line:
            head, body = line[:-1].split(" --> ")
            predicted[head] = body.split(",")
    if list(json.loads(output).items()) != list(predicted.items()):
        return "JSON productions differ from the predicted grammar"
    return None


def _svg_tiles(expect, output, _stderr):
    m, n = _size(expect)
    if not output.startswith("<?xml") or not output.endswith("</svg>\n"):
        return "not an SVG document"
    if output.count("<rect ") != m * (n + 1):
        return f"{output.count('<rect ')} tiles, expected M*(N+1) = {m * (n + 1)}"
    return None


def _schema(expect, output, _stderr):
    m, n = _size(expect)
    if not output.startswith("<?xml") or not output.endswith("</svg>\n"):
        return "not an SVG document"
    if output.count("<rect ") != m * n or output.count("<text ") != m + n:
        return "schema cell or label count is not M*N and M+N"
    return None


def _ansi(expect, output, _stderr):
    m, n = _size(expect)
    lines = output.splitlines()
    if len(lines) != m or any(line.count(BLOCK) != n + 1 for line in lines):
        return "ANSI picture is not M lines of N+1 blocks"
    return None


def _html(expect, output, _stderr):
    m, n = _size(expect)
    if output.count('<div class="sglg-row">') != m or output.count("<span") != m * (n + 1):
        return "HTML is not M rows of N+1 cells"
    return None


def _logic_program(expect, output, _stderr):
    m, n = _size(expect)
    structural = "\n".join(production_lines(expect)) + "\n\n"
    if not output.startswith(structural):
        return "structural layer differs from the predicted grammar"
    if len(output.splitlines()) != (m + 2) + 1 + n + 1 + 2:
        return "repertoire or layout layer has the wrong line count"
    return None


def _events(expect, output, _stderr):
    m, n = _size(expect)
    lines = output.splitlines()
    if len(lines) != m * (n + 1):
        return f"{len(lines)} events, expected M*(N+1) = {m * (n + 1)}"
    first, last = json.loads(lines[0]), json.loads(lines[-1])
    if (first["row"], first["pos"], last["row"], last["pos"]) != (0, 0, m - 1, n):
        return "events do not run from (0, 0) to (M-1, N)"
    return None


def _orthorep(_expect, output, _stderr):
    lines = output.splitlines()
    if len(lines) != 3 or not all(line.startswith("[PASS] ") for line in lines):
        return "realization report is not three PASS lines"
    return None


_KINDS = {
    "states": _states,
    "states-sorted": _states_sorted,
    "check": _check,
    "check-empty": _check_empty,
    "grammar-text": _grammar_text,
    "grammar-json": _grammar_json,
    "svg-tiles": _svg_tiles,
    "schema": _schema,
    "ansi": _ansi,
    "html": _html,
    "logic-program": _logic_program,
    "events": _events,
    "orthorep": _orthorep,
}
