"""Smoke tests of the tools: the layer harness tools/layers.py runs and
writes what it promises (no timing is asserted), and the report comparer
tools/compare.py passes identical reports and fails a moved row value."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import platform

import numpy as np

import nlslab as nl


def test_layer_harness_runs_at_tiny_sizes(tmp_path, capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "layers.py"
    spec = importlib.util.spec_from_file_location("nlslab_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    out = tmp_path / "layers.json"
    assert layers.main(["--tiny", "--repeats", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["tiny"] is True
    assert result["python"] == platform.python_version() and result["numpy"] == np.__version__
    assert {"cpu", "nproc", "platform"} <= set(result["machine"])
    assert {"commit", "dirty"} <= set(result)
    names = {entry["name"] for entry in result["timings"]}
    assert names == {"mollifier_transform", "bump_table", "fft_pair", "split_step_per_row_step", "rk4_step",
                     "synthesize",
                     "analyze", "cubic_coeffs", "sobolev_norm", "ode_exact_evolve",
                     "ode_exact_two_block",
                     "picard_expansion", "split_step_ladder", "approx_ladder", "gamma_ladder",
                     "unit_phase", "line_sobolev_norm"}
    pairs = [(e["method"], e["P"]) for e in result["timings"] if e["name"] == "fft_pair"]
    assert {method for method, _ in pairs} == {"numpy_1d", "four_step"}
    assert all(p > 1 for method, p in pairs if method == "four_step")  # a P > 1 plan runs
    callers = [(e["caller"], e.get("grid")) for e in result["timings"] if e["name"] == "unit_phase"]
    assert callers == [("_rotate_in_place", "split_step"), ("_rotate_in_place", "closed_form_chunk"),
                       ("_turned_cubic", None)]
    ladders = [e for e in result["timings"] if e["name"] == "split_step_ladder"]
    assert [e["regime"] for e in ladders] == ["crit_half", "frac_crit"]
    assert all({"steps", "estimate", "order"} <= set(e) for e in ladders)
    (approx,) = [e for e in result["timings"] if e["name"] == "approx_ladder"]
    assert approx["rows"] == 4
    assert all(steps in (12, 24, 48, 96, 192) for steps in approx["steps"])
    (gamma,) = [e for e in result["timings"] if e["name"] == "gamma_ladder"]
    # j = 1 of the defaults
    assert (gamma["j"], gamma["period"], gamma["grid_points"]) == (1, 98.0, 1575)
    assert gamma["steps"] in (12, 24, 48, 96, 192)
    assert gamma["margin"] > 0.0
    stacked = [e["rows"] for e in result["timings"] if e["name"] == "split_step_per_row_step"]
    assert stacked == [*layers.STACK_ROWS] * 2
    for entry in result["timings"]:
        assert entry["repeats"] == 2
        assert {"median_s", "iqr_s"} <= set(entry)
    assert "median" in capsys.readouterr().err  # one progress line per case


def _compare_tool():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare.py"
    spec = importlib.util.spec_from_file_location("nlslab_compare", path)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare


def test_compare_fails_on_a_one_ulp_row_move_and_passes_an_echo_change(tmp_path, capsys):
    compare = _compare_tool()
    report = nl.run_experiment(nl.FeasibilityConfig())
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    nl.emit_report(report, "json", str(a / "feasibility.json"))
    nl.emit_report(report, "csv", str(a / "feasibility.csv"))
    nl.emit_report(report, "json", str(b / "feasibility.json"))
    nl.emit_report(report, "csv", str(b / "feasibility.csv"))
    assert compare.main([str(a), str(b)]) == 0
    assert "feasibility.json: bytes match" in capsys.readouterr().out

    payload = json.loads((b / "feasibility.json").read_text(encoding="utf-8"))
    payload["metadata"]["config"]["threads"] = 2  # an echo or host change alone passes
    payload["metadata"]["host"]["numpy"] = "0.0.0"
    (b / "feasibility.json").write_text(json.dumps(payload), encoding="utf-8")
    assert compare.main([str(a / "feasibility.json"), str(b / "feasibility.json")]) == 0
    out = capsys.readouterr().out
    assert "metadata.config.threads: 1 values differ, max abs 1, max rel 0.5 (config echo)" in out
    assert f"metadata.host.numpy: 1 values changed, first {np.__version__!r} -> '0.0.0' (host)" in out

    value = payload["rows"][2]["constant"]
    payload["rows"][2]["constant"] = float(np.nextafter(value, math.inf))
    (b / "feasibility.json").write_text(json.dumps(payload), encoding="utf-8")
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "  rows[].constant: 1 values differ, max abs " in out
    assert "feasibility.csv: bytes match" in out
