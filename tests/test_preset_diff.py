"""The comparison of ``tools/preset_diff.py``, on arrays in memory (no git)."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_diff.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("preset_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_arrays_with_nan_and_inf_compare_equal(tool):
    a = np.array([1.0, np.nan, -np.inf, 0.0])
    rows = tool.compare({"x": a}, {"x": a.copy()})
    assert rows == [tool.Row("x", True, 0.0, True)]
    assert tool.report(rows) == 0


def test_a_moved_entry_reports_its_largest_relative_move(tool):
    rows = tool.compare({"x": np.array([2.0, 4.0, 0.0])}, {"x": np.array([2.0, 5.0, 0.0])})
    assert rows == [tool.Row("x", False, 0.2, True)]
    assert tool.report(rows) == 1


def test_a_changed_nan_pattern_differs_even_where_the_rest_is_equal(tool):
    rows = tool.compare({"x": np.array([1.0, np.nan])}, {"x": np.array([1.0, 3.0])})
    assert rows == [tool.Row("x", False, 0.0, False)]
    assert tool.report(rows) == 1


def test_a_sign_change_or_an_infinity_is_an_infinite_or_whole_move(tool):
    rows = tool.compare({"x": np.array([1.0, np.inf])}, {"x": np.array([-1.0, 1.0])})
    assert not rows[0].equal and rows[0].max_rel == np.inf and rows[0].same_nan


def test_a_missing_name_or_a_new_shape_differs(tool):
    rows = tool.compare({"x": np.zeros(2), "y": np.zeros(3)}, {"x": np.zeros(3), "z": np.zeros(1)})
    assert [(r.name, r.equal, r.max_rel) for r in rows] == [
        ("x", False, np.inf), ("y", False, np.inf), ("z", False, np.inf)]
    assert tool.report(rows) == 1
