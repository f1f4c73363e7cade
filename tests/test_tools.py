"""Smoke tests of the tools: the layer harness tools/layers.py runs and
writes what it promises (no timing is asserted), and the report comparer
tools/compare.py passes identical reports, fails a moved row value and
writes nothing into the checkouts it compares."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import platform
import shutil

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
                     "picard_expansion", "ladder_triple", "split_step_ladder", "approx_ladder",
                     "gamma_ladder", "unit_phase", "line_sobolev_norm"}
    pairs = [(e["method"], e["P"]) for e in result["timings"] if e["name"] == "fft_pair"]
    assert {method for method, _ in pairs} == {"numpy_1d", "four_step"}
    assert all(p > 1 for method, p in pairs if method == "four_step")  # a P > 1 plan runs
    callers = [(e["caller"], e.get("grid")) for e in result["timings"] if e["name"] == "unit_phase"]
    assert callers == [("_rotate_in_place", "split_step"), ("_rotate_in_place", "closed_form_chunk"),
                       ("_turned_cubic", None)]
    triples = [(e["method"], e["grid_points"]) for e in result["timings"] if e["name"] == "ladder_triple"]
    assert [method for method, _ in triples] == ["stack", "one_row"]  # one point with --tiny
    assert triples[0][1] == triples[1][1]
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


def test_compare_trees_passes_the_repository_against_itself(capsys):
    # both sides run the feasibility default from this checkout's sources
    # in a child interpreter, as CSV and as JSON, and match byte for byte
    compare = _compare_tool()
    root = pathlib.Path(__file__).resolve().parents[1]
    assert compare.compare_trees(root, root, ["default_feasibility"]) == 0
    out = capsys.readouterr().out
    assert "default_feasibility.csv: bytes match" in out
    assert "default_feasibility.json: bytes match" in out
    assert "compare: 2 pairs, 0 differ" in out
    assert compare.compare_trees(root, root, ["no_such_report"]) == 1
    assert "no report named no_such_report" in capsys.readouterr().out


def test_compare_trees_leaves_no_byte_code_in_the_trees(tmp_path, capsys, monkeypatch):
    # a __pycache__ left in src/ would change what a later benchmark run of
    # that checkout measures at start-up, so --trees only reads the trees,
    # whatever the caller's environment says about byte code
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    compare = _compare_tool()
    root = pathlib.Path(__file__).resolve().parents[1]
    tree = tmp_path / "tree"
    shutil.copytree(root / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "benchmarks" / "configs", tree / "benchmarks" / "configs")
    assert compare.compare_trees(tree, tree, ["default_feasibility"]) == 0
    assert "compare: 2 pairs, 0 differ" in capsys.readouterr().out
    assert not list(tree.rglob("__pycache__"))
