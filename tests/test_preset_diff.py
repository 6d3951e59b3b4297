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


def test_flatten_enters_tuples_and_records_and_names_what_has_no_array(tool):
    from wiretap.transmit import RxBeamformer, SinrReport, TxScheme

    scheme = TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=2.0, target_sinr=3.0, beta=1.0)
    value = (scheme, RxBeamformer(np.array([1j, 0.0]), "mmse"),
             SinrReport(sinr_b=3.0, sinr_e=np.nan, secrecy_capacity=0.0, outage=False), None)
    out = {}
    tool.flatten("call", value, out)
    assert sorted(out) == sorted([
        "call[0].t", "call[0].rho", "call[0].power_p", "call[0].target_sinr", "call[0].outage",
        "call[0].beta", "call[1].w", "call[1].kind=mmse", "call[2].sinr_b", "call[2].sinr_e",
        "call[2].secrecy_capacity", "call[2].outage", "call[3]=None",
    ])
    assert out["call[0].outage"].dtype == float and out["call[0].outage"] == 0.0
    np.testing.assert_array_equal(out["call[1].w"], [1j, 0.0])
    assert out["call[1].kind=mmse"].size == 0


def test_a_raising_call_is_recorded_by_its_type_and_message(tool):
    def refuse():
        raise ValueError("no such channel")

    out = {}
    assert tool._record("call", refuse, out) is None
    assert list(out) == ["call raises ValueError: no such channel"]
    assert out["call raises ValueError: no such channel"].size == 0
    assert tool._record("fine", lambda: (1.0, True), out) == (1.0, True)
    assert set(out) == {"call raises ValueError: no such channel", "fine[0]", "fine[1]"}


def test_complex_outputs_compare_by_value_and_nan_pattern(tool):
    a = np.array([1.0 + 2.0j, np.nan + 0.0j])
    assert tool.compare({"x": a}, {"x": a.copy()}) == [tool.Row("x", True, 0.0, True)]
    moved = tool.compare({"x": a}, {"x": np.array([1.0 + 2.0j + 1e-3, np.nan])})[0]
    assert not moved.equal and moved.same_nan and 0.0 < moved.max_rel < 1e-3


def test_the_single_channel_dump_covers_every_call_and_repeats_itself(tool):
    first, again = tool.dump_api([1]), tool.dump_api([1])
    assert tool.report(tool.compare(first, again)) == 0
    calls = ("perfect_csi_trial", "moments.iid", "moments.full", "predict_naive_sinr.iid",
             "predict_naive_sinr.full", "simulate_naive", "naive_trial", "fdd_receiver",
             "fdd_receiver.propagated", "tdd_receiver.iid", "tdd_receiver.full",
             "design_known_ecsi")
    for shape in tool.API_SHAPES:
        at = "api ({},{},{}) ".format(*shape)
        for call in calls:
            assert any(name.startswith(at) and f" {call}" in name for name in first), (shape, call)
    # The prediction is refused where the nominal design is in outage.
    assert any("predict_naive_sinr.iid raises ValidityRangeError" in name for name in first)
    name = next(name for name in first if name.endswith("fdd_receiver[1].sinr_b"))
    moved = {**first, name: first[name] * (1.0 + 1e-15)}
    assert tool.report(tool.compare(first, moved)) == 1
