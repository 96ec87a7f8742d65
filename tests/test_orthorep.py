"""Hilbert realization construction and faithfulness verification."""

from __future__ import annotations

import json
import math
import random
import re

import pytest

from sglg import (
    LogicFileError,
    PartitionLogic,
    ValidationError,
    VectorRealization,
    build_v_realization,
    load_vector_file,
    verify_faithful,
)
from support import FIXTURES, resolve_fixture


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def l12_logic() -> PartitionLogic:
    logic, _ = resolve_fixture("l12.json")
    return logic


# ------------------------------------------------------------ construction


def test_theta_quarter_pi_gives_the_diagonal_d():
    real = build_v_realization(math.pi / 4)
    root_half = math.sqrt(2) / 2
    assert real.vectors["d"] == pytest.approx((root_half, root_half, 0.0))
    assert real.vectors["a"] == (1.0, 0.0, 0.0)
    assert real.dimension == 3


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, math.pi])
def test_theta_outside_the_open_interval_is_rejected(theta):
    message = f"--theta: must lie strictly between 0 and pi/2, got {theta!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_v_realization(theta)


def test_theta_third_pi_dot_product():
    real = build_v_realization(math.pi / 3)
    assert dot(real.vectors["a"], real.vectors["d"]) == pytest.approx(0.5)


def test_realization_validation():
    with pytest.raises(ValueError, match="length"):
        VectorRealization(3, {"a": (1.0, 0.0)})
    with pytest.raises(ValueError, match="zero"):
        VectorRealization(2, {"a": (0.0, 0.0)})
    with pytest.raises(ValueError, match="dimension"):
        VectorRealization(0, {})
    with pytest.raises(ValueError, match="tolerance"):
        VectorRealization(2, {"a": (1.0, 0.0)}, tolerance=0.0)


# ------------------------------------------------------------ verification


def test_l12_at_quarter_pi_passes_all_three_checks():
    report = verify_faithful(l12_logic(), build_v_realization(math.pi / 4))
    assert report.passed
    assert report.orthonormality.worst < 1e-12
    assert report.completeness.worst == 0.0
    assert report.faithfulness.worst == pytest.approx(math.sqrt(2) / 2)


def test_collapsed_theta_fails_faithfulness_only():
    # bypass the range check: at theta = 0, d coincides with a and e with b
    collapsed = VectorRealization(
        3,
        {
            "a": (1.0, 0.0, 0.0),
            "b": (0.0, 1.0, 0.0),
            "c": (0.0, 0.0, 1.0),
            "d": (1.0, 0.0, 0.0),
            "e": (0.0, 1.0, 0.0),
        },
    )
    report = verify_faithful(l12_logic(), collapsed)
    assert report.orthonormality.passed
    assert report.completeness.passed
    assert not report.faithfulness.passed
    assert report.faithfulness.worst == 0.0
    # d.b = 0 although d and b never share a context
    assert any("b" in failure and "d" in failure for failure in report.faithfulness.failures)


def test_missing_vector_names_the_atom():
    triangle, _ = resolve_fixture("triangle.json")
    with pytest.raises(ValidationError, match=r"^vectors: no vector for atom 'f'$"):
        verify_faithful(triangle, build_v_realization(math.pi / 4))


def test_non_unit_vectors_fail_orthonormality():
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    real = VectorRealization(2, {"x": (2.0, 0.0), "y": (0.0, 1.0)})
    report = verify_faithful(logic, real)
    assert not report.orthonormality.passed
    assert report.orthonormality.worst == pytest.approx(1.0)
    assert "|x|" in report.orthonormality.failures[0]


def test_completeness_fails_exactly_on_short_contexts():
    logic = PartitionLogic("logic", ("x", "y", "z"), ((0, 1), (1, 2)))
    real = VectorRealization(
        3,
        {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)},
    )
    report = verify_faithful(logic, real)
    assert not report.completeness.passed
    assert report.completeness.worst == 1.0
    assert len(report.completeness.failures) == 2  # both contexts have 2 < 3 atoms
    # the same vectors in their own dimension are complete
    flat = VectorRealization(2, {"x": (1.0, 0.0), "y": (0.0, 1.0)})
    small = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    assert verify_faithful(small, flat).completeness.passed


def test_deviations_are_symmetric_under_atom_order():
    theta = 0.83
    real = build_v_realization(theta)
    logic = l12_logic()
    reversed_logic = PartitionLogic(
        logic.name,
        logic.atoms,
        tuple(tuple(reversed(ctx)) for ctx in logic.contexts),
    )
    forward = verify_faithful(logic, real)
    backward = verify_faithful(reversed_logic, real)
    assert forward.orthonormality.worst == backward.orthonormality.worst
    assert forward.faithfulness.worst == backward.faithfulness.worst


def test_faithfulness_margin_is_infinite_without_free_pairs():
    # every atom pair shares the single context, so no pair is constrained
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    real = VectorRealization(2, {"x": (1.0, 0.0), "y": (0.0, 1.0)})
    report = verify_faithful(logic, real)
    assert report.faithfulness.passed
    assert math.isinf(report.faithfulness.worst)


def test_theta_sweep_passes_everywhere():
    rng = random.Random(1905)
    logic = l12_logic()
    for _ in range(1000):
        theta = rng.uniform(0.01, math.pi / 2 - 0.01)
        assert verify_faithful(logic, build_v_realization(theta)).passed


# ------------------------------------------------------------ vector files


def test_load_vector_file_fixture():
    real = load_vector_file((FIXTURES / "l12_vectors.json").read_text())
    assert real.dimension == 3
    assert set(real.vectors) == {"a", "b", "c", "d", "e"}
    assert real.tolerance == 1e-9
    assert verify_faithful(l12_logic(), real).passed


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{]", "not valid JSON"),
        ("[1]", "JSON object"),
        ('{"dimension": 2, "vectors": {"a": [1, 0]}, "x": 1}', "unknown keys"),
        ('{"dimension": "2", "vectors": {"a": [1, 0]}}', "integer"),
        ('{"dimension": 2, "vectors": {}}', "non-empty"),
        ('{"dimension": 2, "vectors": {"a": [1, "no"]}}', "list of reals"),
        ('{"dimension": 2, "vectors": {"a": [1, 0, 0]}}', "length"),
        ('{"dimension": 2, "vectors": {"a": [0, 0]}}', "zero"),
        (
            '{"dimension": 2, "vectors": {"a": [1, 0]}, "tolerance": "big"}',
            "number",
        ),
        ('{"dimension": 2, "vectors": {"a": [NaN, 1]}}', "vectors.a"),
        ('{"dimension": 2, "vectors": {"a": [1e400, 1]}}', "vectors.a"),
        ('{"dimension": 2, "vectors": {"a": [1%s, 1]}}' % ("0" * 400), "vectors.a"),
        ('{"dimension": 2, "vectors": {"a": [1, 0]}, "tolerance": NaN}', "tolerance"),
        (
            '{"dimension": 2, "vectors": {"a": [1, 0]}, "tolerance": Infinity}',
            "tolerance",
        ),
        ('{"dimension": 2, "vectors": {"a": [1, 0]}, "tolerance": 0}', "tolerance"),
    ],
)
def test_load_vector_file_rejects_malformed_input(payload, fragment):
    with pytest.raises(LogicFileError) as excinfo:
        load_vector_file(payload)
    assert fragment in str(excinfo.value)


def test_vector_file_tolerance_is_honored():
    real = load_vector_file(
        '{"dimension": 2, "vectors": {"x": [1.0, 0.0], "y": [0.01, 1.0]},'
        ' "tolerance": 0.1}'
    )
    logic = PartitionLogic("logic", ("x", "y"), ((0, 1),))
    # |y| deviates from 1 by ~5e-5 and x.y = 0.01, both inside 0.1
    assert verify_faithful(logic, real).passed


@pytest.mark.parametrize(
    "vectors, tolerance, message",
    [
        ({"a": (1.0, 0.0)}, math.nan, "tolerance"),
        ({"a": (1.0, 0.0)}, math.inf, "tolerance"),
        ({"a": (math.nan, 1.0)}, 1e-9, "non-finite"),
        ({"a": (math.inf, 1.0)}, 1e-9, "non-finite"),
    ],
)
def test_realization_rejects_non_finite_numbers(vectors, tolerance, message):
    with pytest.raises(ValueError, match=message):
        VectorRealization(2, vectors, tolerance)
