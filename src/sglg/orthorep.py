"""Hilbert-space realizations of partition logics and their verification.

A realization assigns one real unit vector per atom; it is checked
numerically on three counts: each context must be an orthonormal set,
each context must span the full dimension, and atoms that never share a
context must be non-orthogonal (faithfulness).
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

from .errors import LogicFileError, ValidationError
from .logic import PartitionLogic, load_json
from .value import Value

DEFAULT_TOLERANCE = 1e-9


class VectorRealization(Value):
    dimension: int
    vectors: dict[str, tuple[float, ...]]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension <= 0:
            raise ValueError("dimension must be a positive integer")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be a positive finite number")
        for atom, vector in self.vectors.items():
            if len(vector) != self.dimension:
                raise ValueError(
                    f"vector for {atom!r} has length {len(vector)}, "
                    f"expected {self.dimension}"
                )
            if not all(math.isfinite(component) for component in vector):
                raise ValueError(f"vector for {atom!r} has a non-finite component")
            if all(abs(component) <= self.tolerance for component in vector):
                raise ValueError(f"vector for {atom!r} is numerically zero")


class CheckResult(Value):
    name: str
    worst: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class FaithfulnessReport(Value):
    orthonormality: CheckResult
    completeness: CheckResult
    faithfulness: CheckResult

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks())

    def checks(self) -> tuple[CheckResult, CheckResult, CheckResult]:
        return (self.orthonormality, self.completeness, self.faithfulness)


def _dot(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """The dot product, its products summed exactly; +-inf beyond float range."""
    try:
        total = math.fsum(a * b for a, b in zip(u, v))
    except (OverflowError, ValueError):  # a product or a partial sum overflowed
        total = math.inf
    if math.isfinite(total):
        return total
    # Scale each vector by a power of two, which is exact, so that every
    # product is at most 1, and scale the sum back.
    eu = max(math.frexp(a)[1] for a in u)
    ev = max(math.frexp(b)[1] for b in v)
    total = math.fsum(math.ldexp(a, -eu) * math.ldexp(b, -ev) for a, b in zip(u, v))
    try:
        return math.ldexp(total, eu + ev)
    except OverflowError:
        return math.copysign(math.inf, total)


def _norm(u: tuple[float, ...]) -> float:
    """Euclidean length: the root of the exactly summed squares, or hypot
    where that sum overflows (hypot may differ in the last bit, which the
    printed deviations would show)."""
    squared = _dot(u, u)
    return math.sqrt(squared) if math.isfinite(squared) else math.hypot(*u)


def _is_finite_number(x) -> bool:
    """A JSON number a float can hold: no bool, NaN, infinity or huge int."""
    numeric = isinstance(x, (int, float)) and not isinstance(x, bool)
    return numeric and abs(x) <= sys.float_info.max


def build_v_realization(theta: float) -> VectorRealization:
    """The two-basis three-dimensional realization with mixing angle theta.

    Contexts {a,b,c} and {c,d,e} become two orthonormal bases sharing the
    third axis; theta must lie strictly inside (0, pi/2), otherwise d or e
    collapses onto a coordinate axis and faithfulness is lost.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValidationError(
            f"must lie strictly between 0 and pi/2, got {theta!r}", "--theta"
        )
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return VectorRealization(
        dimension=3,
        vectors={
            "a": (1.0, 0.0, 0.0),
            "b": (0.0, 1.0, 0.0),
            "c": (0.0, 0.0, 1.0),
            "d": (cos_t, sin_t, 0.0),
            "e": (-sin_t, cos_t, 0.0),
        },
    )


def _v_realization_for(logic: PartitionLogic, theta: float) -> VectorRealization:
    """``build_v_realization(theta)`` on a logic's own atoms: the one atom its two three-atom
    contexts share is c, the first's others a and b, the second's d and e, in context order."""
    vectors = build_v_realization(theta).vectors
    shared = set.intersection(*map(set, logic.contexts))
    if len(logic.contexts) != 2 or {*map(len, logic.contexts)} != {3} or len(shared) != 1:
        raise ValidationError("needs two three-atom contexts that share one atom", "--theta")
    roles = [j for ctx in logic.contexts for j in ctx if j not in shared]
    roles[2:2] = shared
    return VectorRealization(3, {logic.atoms[j]: vectors[r] for j, r in zip(roles, "abcde")})


def verify_faithful(
    logic: PartitionLogic, realization: VectorRealization
) -> FaithfulnessReport:
    """Run the three numerical checks of a faithful orthogonal representation.

    Unit norms are required, not imposed: a non-normalized vector fails the
    orthonormality check rather than being silently rescaled. Every
    comparison is written so that a NaN fails it.
    """
    tol = realization.tolerance
    for atom in logic.atoms:
        if atom not in realization.vectors:
            raise ValidationError(f"no vector for atom {atom!r}", "vectors")

    ortho_worst = 0.0
    ortho_failures = []
    normed: set[int] = set()  # an atom's norm is checked in its first context only
    for ctx in logic.contexts:
        for j in [j for j in ctx if j not in normed]:
            normed.add(j)
            atom = logic.atoms[j]
            deviation = abs(_norm(realization.vectors[atom]) - 1.0)
            ortho_worst = max(ortho_worst, deviation)
            if not deviation <= tol:
                ortho_failures.append(f"|{atom}| deviates from 1 by {deviation:.3e}")
        for j, k in combinations(ctx, 2):
            u, v = logic.atoms[j], logic.atoms[k]
            deviation = abs(_dot(realization.vectors[u], realization.vectors[v]))
            ortho_worst = max(ortho_worst, deviation)
            if not deviation <= tol:
                ortho_failures.append(f"{u}·{v} = {deviation:.3e}")

    comp_worst = 0.0
    comp_failures = []
    for index, ctx in enumerate(logic.contexts):
        gap = abs(len(ctx) - realization.dimension)
        comp_worst = max(comp_worst, float(gap))
        if gap:
            comp_failures.append(
                f"context {index} has {len(ctx)} atoms in dimension "
                f"{realization.dimension}"
            )

    lies_in = logic._atom_contexts  # two atoms share a context iff their masks meet
    faith_worst = math.inf
    faith_failures = []
    for j, k in combinations(range(len(logic.atoms)), 2):
        if lies_in[j] & lies_in[k]:
            continue
        u, v = logic.atoms[j], logic.atoms[k]
        margin = abs(_dot(realization.vectors[u], realization.vectors[v]))
        faith_worst = min(faith_worst, margin)
        if not margin > tol:
            faith_failures.append(f"{u}·{v} = {margin:.3e} though they share no context")

    return FaithfulnessReport(
        CheckResult("context orthonormality", ortho_worst, tuple(ortho_failures)),
        CheckResult("basis completeness", comp_worst, tuple(comp_failures)),
        CheckResult("faithfulness", faith_worst, tuple(faith_failures)),
    )


def load_vector_file(text: str) -> VectorRealization:
    """Parse a JSON vector file: dimension, vectors per atom, tolerance."""
    payload = load_json(text, "not valid JSON")
    if not isinstance(payload, dict):
        raise LogicFileError("vector file must be a JSON object")
    unknown = set(payload) - {"dimension", "vectors", "tolerance"}
    if unknown:
        raise LogicFileError(f"unknown keys: {sorted(unknown)}")
    dimension = payload.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise LogicFileError("'dimension' must be an integer", "dimension")
    raw_vectors = payload.get("vectors")
    if not isinstance(raw_vectors, dict) or not raw_vectors:
        raise LogicFileError("'vectors' must be a non-empty object", "vectors")
    vectors = {}
    for atom, row in raw_vectors.items():
        if not isinstance(row, list) or not all(_is_finite_number(x) for x in row):
            raise LogicFileError("vector must be a list of reals", f"vectors.{atom}")
        vectors[atom] = tuple(float(x) for x in row)
    tolerance = payload.get("tolerance", DEFAULT_TOLERANCE)
    if not _is_finite_number(tolerance) or tolerance <= 0:
        raise LogicFileError("'tolerance' must be a positive finite number", "tolerance")
    try:
        return VectorRealization(dimension, vectors, float(tolerance))
    except ValueError as exc:
        raise LogicFileError(str(exc)) from exc
