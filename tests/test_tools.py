"""Smoke test of the layer harness tools/layers.py: it runs, and writes
what it promises.  No timing is asserted."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import platform

import numpy as np


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
    assert names == {"mollifier_transform", "fft_pair", "split_step_per_row_step", "rk4_step",
                     "synthesize",
                     "analyze", "cubic_coeffs", "sobolev_norm", "ode_exact_evolve",
                     "picard_expansion", "line_sobolev_norm"}
    pairs = [(e["method"], e["P"]) for e in result["timings"] if e["name"] == "fft_pair"]
    assert {method for method, _ in pairs} == {"numpy_1d", "four_step"}
    assert all(p > 1 for method, p in pairs if method == "four_step")  # a P > 1 plan runs
    stacked = [e["rows"] for e in result["timings"] if e["name"] == "split_step_per_row_step"]
    assert stacked == [*layers.STACK_ROWS] * 2
    for entry in result["timings"]:
        assert entry["repeats"] == 2
        assert {"median_s", "iqr_s"} <= set(entry)
    assert "median" in capsys.readouterr().err  # one progress line per case
