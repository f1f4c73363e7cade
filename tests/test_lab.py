"""Experiment runners, report serialization, configuration plumbing, and the
command-line interface."""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from nlslab import (
    CSV_COLUMNS,
    CompactProfile,
    ExperimentConfig,
    GammaCount,
    InflationReport,
    ReportRow,
    SpectralField,
    appendix_profile,
    build_two_block_data,
    centered_two_step,
    config_from_dict,
    config_to_dict,
    emit_report,
    feasibility_scan,
    fourier_lebesgue_norm,
    gamma_discrepancy,
    line_sobolev_norm,
    measure_plateau,
    ode_exact_evolve,
    report_to_csv,
    report_to_json,
    resolve_threads,
    run_approximation,
    run_experiment,
    run_gamma,
    run_inflation,
    smooth_bump,
    wiener_error_budget,
)
from nlslab import cli, evolution, lab, torus

from _helpers import random_field


def small_report():
    row = ReportRow("inflate", "crit_half", -0.5, 1.0, 0, 0, 0.0, 0.0,
                    None, None, None, None, None)
    return InflationReport([row], {"seed": 0})


# ---------------------------------------------------------------------------
# configuration

@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(experiment="nope", sweep=(1.0,)), "unknown experiment 'nope'"),
        (dict(experiment="inflate", sweep=()), "sweep must be nonempty"),
        (dict(experiment="inflate", sweep=(2.0, 1.0)), "sweep must be strictly increasing"),
        (dict(experiment="inflate", sweep=(1.0,), fmt="xml"), "fmt must be csv or json, got 'xml'"),
        (dict(experiment="inflate", sweep=(1.0,), threads=0), "threads must be >= 1"),
        (dict(experiment="inflate", sweep=(1.0,), dt_steps=0), "dt_steps must be >= 1"),
        (dict(experiment="inflate", sweep=(1.0,), c_fraction=0.0), "c_fraction must lie in"),
        (dict(experiment="feasibility", grid_points=0), "grid_points must be >= 1"),
    ],
)
def test_experiment_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


def test_feasibility_config_needs_no_sweep():
    cfg = ExperimentConfig(experiment="feasibility")
    assert cfg.sweep == ()


def test_config_dict_round_trip():
    cfg = ExperimentConfig(experiment="gamma", sweep=(1.0, 2.0), seed=7,
                           threads=3, methods=("ode",))
    d = config_to_dict(cfg)
    assert isinstance(d["sweep"], list) and isinstance(d["methods"], list)
    assert config_from_dict(d) == cfg


def test_resolve_threads(monkeypatch):
    cfg = ExperimentConfig(experiment="feasibility", threads=2)
    monkeypatch.delenv(lab.THREADS_ENV_VAR, raising=False)
    assert resolve_threads(cfg) == 2
    monkeypatch.setenv(lab.THREADS_ENV_VAR, "4")
    assert resolve_threads(cfg) == 4
    monkeypatch.setenv(lab.THREADS_ENV_VAR, "abc")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_threads(cfg)
    monkeypatch.setenv(lab.THREADS_ENV_VAR, "0")
    with pytest.raises(ValueError, match="must be >= 1"):
        resolve_threads(cfg)


# ---------------------------------------------------------------------------
# report serialization

def test_csv_header_and_empty_cells():
    text = report_to_csv(small_report())
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "inflate,crit_half,-0.5,1,0,0,0,0,,,,,,0"
    assert text.endswith("\n")


def test_empty_report_is_header_only():
    assert report_to_csv(InflationReport([])) == ",".join(CSV_COLUMNS) + "\n"


def test_json_report_is_canonical():
    text = report_to_json(small_report())
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert payload["metadata"]["seed"] == 0
    assert payload["rows"][0]["regime"] == "crit_half"
    assert payload["rows"][0]["ratio"] is None


def test_emit_report_writes_both_formats(tmp_path):
    rep = small_report()
    p_csv = tmp_path / "r.csv"
    p_json = tmp_path / "r.json"
    assert emit_report(rep, "csv", str(p_csv)) == str(p_csv)
    assert emit_report(rep, "json", str(p_json)) == str(p_json)
    assert p_csv.read_text(encoding="utf-8") == report_to_csv(rep)
    assert p_json.read_text(encoding="utf-8") == report_to_json(rep)
    with pytest.raises(ValueError, match="format must be csv or json"):
        emit_report(rep, "xml", str(tmp_path / "r.xml"))
    with pytest.raises(OSError, match="cannot write report"):
        emit_report(rep, "csv", str(tmp_path / "missing" / "r.csv"))


def test_csv_bytes_are_stable_across_threads_and_reruns(monkeypatch):
    monkeypatch.delenv(lab.THREADS_ENV_VAR, raising=False)
    texts = []
    for threads in (1, 4, 1):
        cfg = ExperimentConfig(experiment="gamma", sweep=(1.0, 2.0), threads=threads)
        texts.append(report_to_csv(run_gamma(cfg)))
    assert texts[0] == texts[1] == texts[2]


# ---------------------------------------------------------------------------
# small measurement helpers

def test_wiener_error_budget_formula():
    phi = random_field(1.0, 6, seed=50, l2=0.7)
    t, n = 3e-3, 64
    w1 = fourier_lebesgue_norm(phi, 0.0, 1.0)
    winf = fourier_lebesgue_norm(phi, 0.0, np.inf)
    want = t**2 * n**2 * w1**2 * winf + sum(
        t**k * w1 ** (2 * k) * winf for k in (2, 3, 4))
    got = wiener_error_budget(phi, t, n)
    assert abs(got - want) <= 1e-12 * want


def test_measure_plateau_pins():
    mag = np.array([0.0, 0.1, 0.6, 0.55, 1.0, 0.55, 0.6, 0.1, 0.0])
    f = SpectralField(4.0, (mag / 4.0).astype(complex))
    c_measured, c0 = measure_plateau(f, 0.5)
    assert abs(c_measured - 0.55) <= 1e-15
    assert abs(c0 - 0.5) <= 1e-15
    zero = SpectralField(4.0, np.zeros(9, dtype=complex))
    assert measure_plateau(zero, 0.5) == (0.0, 0.0)


def test_gamma_discrepancy_pins():
    l, c0, delta = 4.0, 0.5, 0.3
    f = random_field(l, 8, seed=51, l2=1.0)
    same = gamma_discrepancy(f, f, l, 1.0, c0, delta)
    assert isinstance(same, GammaCount)
    assert same.count == 0 and same.complement_count == 5
    assert abs(same.reference - 0.36) <= 1e-12
    # push one window mode past the counting threshold 1/(4L)
    coeffs = f.coeffs.copy()
    coeffs[8 + 1] += 1.0 / (2.0 * l)
    bumped = gamma_discrepancy(f, SpectralField(l, coeffs), l, 1.0, c0, delta)
    assert bumped.count == 1 and bumped.complement_count == 4
    with pytest.raises(ValueError, match="must live on the stated period"):
        gamma_discrepancy(f, random_field(2.0, 8, seed=52), l, 1.0, c0, delta)


def test_line_sobolev_norm_pins():
    box = CompactProfile("step", ((-0.5, 0.5, 1.0),), 0.5)
    assert line_sobolev_norm(box, -0.5) == math.inf
    psi1 = appendix_profile("psi1")
    assert abs(line_sobolev_norm(psi1, -0.5) - 10.11032672199179) <= 1e-9
    # truncating the frequency integral at 80 loses under a tenth of a percent
    assert abs(line_sobolev_norm(box, 0.0) - 0.9993665469833218) <= 1e-9
    assert abs(line_sobolev_norm(box, 0.0) - 1.0) <= 1e-3


ORDERS = (-1.0, -0.5, 0.0, 1.0)
# off the integers |xi|^(2s) is singular at 0, where the first panel must resolve it
FRACTIONAL = (-0.75, -0.25, 0.25, 0.75)


def _line_profiles():
    return {
        "two_step": centered_two_step(1.0, 0.1),
        "psi1": appendix_profile("psi1"),
        "box": CompactProfile("step", ((-0.5, 0.5, 1.0),), 0.5),
        "mollified": appendix_profile("mollified", eps=0.1),
        "bump": smooth_bump(1.0, 2.0),
    }


def _tight_line_norm(folded, zero_mean, s, homogeneous=True):
    # adaptive reference on the folded half-line: |F(xi)|^2 + |F(-xi)|^2
    tight = dict(limit=800, epsabs=1e-14, epsrel=1e-13)
    if not homogeneous:
        total = quad(lambda xi: (1.0 + xi * xi) ** s * folded(xi), 0.0, 80.0, points=[1.0], **tight)[0]
        return math.sqrt(total)
    if zero_mean:
        head = quad(lambda xi: xi ** (2.0 * s) * folded(xi) if xi else 0.0, 0.0, 1.0, **tight)[0]
    else:
        # the density is non-zero at 0: QAWS takes xi^(2s) as its weight
        head = quad(folded, 0.0, 1.0, weight="alg", wvar=(2.0 * s, 0.0), **tight)[0]
    tail = quad(lambda xi: xi ** (2.0 * s) * folded(xi), 1.0, 80.0, **tight)[0]
    return math.sqrt(head + tail)


@pytest.mark.parametrize("name, fractional, inhomogeneous", [
    ("two_step", (), ()),
    ("psi1", FRACTIONAL, ()),
    ("box", FRACTIONAL, (-1.0, 1.0)),
    ("mollified", (), ()),
    ("bump", FRACTIONAL, (-1.0, 1.0)),
])
def test_line_sobolev_norm_matches_tight_quadrature(name, fractional, inhomogeneous):
    profile = _line_profiles()[name]
    zero_mean = abs(profile.fourier_transform(0.0)) <= 1e-12

    @functools.cache
    def folded(xi):
        return float(np.sum(np.abs(profile.fourier_transform(np.array([xi, -xi]))) ** 2))

    orders = ORDERS + fractional
    norms = line_sobolev_norm(profile, orders)
    assert norms[1] == line_sobolev_norm(profile, orders[1])  # one order takes the same path
    for s, got in zip(orders, norms):
        if not zero_mean and s <= -0.5:  # nonzero mean: the norm diverges
            assert got == math.inf
            continue
        want = _tight_line_norm(folded, zero_mean, s)
        assert abs(got - want) <= 1e-12 * want, f"{name}, s={s}: {got!r} vs {want!r}"
    for s, got in zip(inhomogeneous, line_sobolev_norm(profile, inhomogeneous, homogeneous=False)):
        want = _tight_line_norm(folded, zero_mean, s, homogeneous=False)
        assert abs(got - want) <= 1e-12 * want, f"{name}, inhomogeneous s={s}: {got!r} vs {want!r}"


def test_line_sobolev_norm_is_converged_in_the_panels(monkeypatch):
    profiles = _line_profiles()
    base = {name: line_sobolev_norm(p, ORDERS + FRACTIONAL) for name, p in profiles.items()}
    monkeypatch.setattr(lab, "LINE_PANELS", 2 * lab.LINE_PANELS)
    for name, p in profiles.items():
        for s, a, b in zip(ORDERS + FRACTIONAL, base[name], line_sobolev_norm(p, ORDERS + FRACTIONAL)):
            assert a == b if a == math.inf else abs(a - b) <= 1e-12 * a, f"{name}, s={s}"


def test_line_sobolev_norm_refuses_zero_mean_below_minus_three_halves():
    psi1 = appendix_profile("psi1")
    assert math.isfinite(line_sobolev_norm(psi1, -1.25))
    with pytest.raises(ValueError, match="needs s > -3/2"):
        line_sobolev_norm(psi1, (0.0, -1.5))


def test_periodization_evaluates_the_transform_a_few_times(monkeypatch):
    calls = []
    transform = CompactProfile.fourier_transform

    def counted(self, xi):
        calls.append(xi)
        return transform(self, xi)

    monkeypatch.setattr(CompactProfile, "fourier_transform", counted)
    cfg = ExperimentConfig(experiment="periodize", **cli.SUBCOMMAND_DEFAULTS["periodize"])
    rows = lab.run_periodization(cfg).rows
    assert len(rows) == len(cfg.s_list) * len(cfg.sweep)
    assert len(calls) < 100, f"{len(calls)} transform calls"


def test_periodization_periodizes_once_per_period(monkeypatch):
    calls = []
    periodize = torus.periodize

    def counted(profile, L, bandwidth):
        calls.append(L)
        return periodize(profile, L, bandwidth)

    monkeypatch.setattr(torus, "periodize", counted)
    cfg = ExperimentConfig(experiment="periodize", **cli.SUBCOMMAND_DEFAULTS["periodize"])
    lab.run_periodization(cfg)
    assert calls == list(cfg.sweep)


# ---------------------------------------------------------------------------
# runners

def test_run_gamma_counts_and_quotients():
    cfg = ExperimentConfig(experiment="gamma", sweep=(1.0, 2.0, 3.0, 4.0))
    rows = run_gamma(cfg).rows
    assert [int(r.ratio) for r in rows] == [25, 39, 59, 91]
    quotients = [r.constant for r in rows]
    want = [9.96492, 14.268, 19.868, 28.0843]
    for q, w in zip(quotients, want):
        assert abs(q - w) <= 1e-3 * w
    assert all(r.method_disagreement == 0.0 for r in rows)  # complement count
    for r in rows:  # reference is L * delta^2 with the rounded period
        assert abs(r.reference - r.param**2 * round(r.param**-2.5)) <= 1e-9
    deltas = [r.param for r in rows]
    assert deltas[0] == 0.16
    assert all(abs(b / a - 2.0**-0.25) <= 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_run_inflation_small_sweep():
    cfg = ExperimentConfig(experiment="inflate", regime="crit_half", s=-0.5,
                           sweep=(256.0, 512.0))
    rep = run_inflation(cfg)
    rows = rep.rows
    assert abs(rows[0].ratio - 1.75427506) <= 1e-6
    assert abs(rows[1].ratio - 1.79603354) <= 1e-6
    for row, n in zip(rows, (256, 512)):
        assert row.N_or_j == n
        assert row.norm_T > row.norm_t0 > 0.0
        assert abs(row.ratio - row.norm_T / row.norm_t0) <= 1e-12
        assert abs(row.reference - math.log(n) ** 0.25) <= 1e-12
        assert abs(row.constant - row.norm_T / row.reference) <= 1e-12
        assert 0.0 <= row.tail_mass <= 1e-20
        assert row.method_disagreement is not None
    per_n = rep.metadata["per_N"]
    assert set(per_n) == {"256", "512"}
    for n in ("256", "512"):
        aux = per_n[n]
        assert aux["skipped"] == ["picard"]  # first-order budget exceeded
        assert 0.0 < aux["T"] < 1e-4
        assert 0.0 < aux["projected_norm"] <= rows[int(n == "512")].norm_T


def test_run_inflation_methods_agree_within_budget():
    # restrict to a size where the first-order expansion fits the budget,
    # so all three methods run and cross-check one another
    cfg = ExperimentConfig(experiment="inflate", regime="crit_half", s=-0.5,
                           sweep=(64.0,))
    rep = run_inflation(cfg)
    assert rep.metadata["per_N"]["64"]["skipped"] == []
    assert rep.rows[0].method_disagreement is not None
    assert rep.rows[0].ratio > 1.0


def test_inflate_passes_one_equation_spec_to_every_integrator(monkeypatch):
    # alpha = 0.75 at N = 64 runs all three methods; each dispersive one
    # must receive the very spec _inflate_point builds from the config
    seen = []
    for name in ("split_step_evolve", "interaction_picture", "picard_expansion"):
        def recorder(field, eq, *args, _fn=getattr(evolution, name), _name=name, **kwargs):
            seen.append((_name, eq))
            return _fn(field, eq, *args, **kwargs)
        monkeypatch.setattr(evolution, name, recorder)
    cfg = ExperimentConfig(experiment="inflate", regime="crit_half", s=-0.5, alpha=0.75,
                           sweep=(64.0,))
    rep = run_inflation(cfg)
    assert rep.metadata["per_N"]["64"]["skipped"] == []
    assert {name for name, _ in seen} == {"split_step_evolve", "interaction_picture",
                                          "picard_expansion"}
    assert all(eq is seen[0][1] for _, eq in seen)
    assert seen[0][1] == evolution.EquationSpec(alpha=0.75)


# the benchmark's inflate configs, and the out band each picks at N = 256
INFLATE_REGIMES = {
    "crit_half": (dict(s=-0.5), 3),
    "frac_crit": (dict(s=-1.0, theta=0.1), 2),
    "negative_s": (dict(s=-0.25, surrogate_period=32.0), 2),
}


@pytest.mark.parametrize("regime", sorted(INFLATE_REGIMES))
def test_inflate_out_band_meets_the_tail_target(regime, monkeypatch):
    params, k_want = INFLATE_REGIMES[regime]
    cfg = ExperimentConfig(experiment="inflate", regime=regime, sweep=(256.0,), **params)
    data = build_two_block_data(regime, 256, s=cfg.s, theta=cfg.theta)
    phi = data.periodize(cfg.surrogate_period) if regime == "negative_s" else data
    mass = phi.period * float(np.sum(np.abs(phi.coeffs) ** 2))

    rep = run_inflation(cfg)
    row, aux = rep.rows[0], rep.metadata["per_N"]["256"]
    k = aux["ode_k"]
    assert k == k_want
    assert aux["ode_out_bandwidth"] == (2 * k + 1) * phi.bandwidth
    assert aux["ode_grid_points"] >= 2 * (2 * aux["ode_out_bandwidth"] + 1)
    assert 0.0 <= row.tail_mass <= lab.ODE_TAIL_REL * mass
    if k > lab.ODE_K_RANGE[0]:  # the chosen band is the smallest that meets the target
        narrower = ode_exact_evolve(phi, aux["T"], out_bandwidth=(2 * k - 1) * phi.bandwidth)
        assert narrower.tail_mass > lab.ODE_TAIL_REL * mass

    # the report matches the one taken on the widest band, (2*8+1) n_max
    monkeypatch.setattr(lab, "ODE_K_RANGE", range(8, 9))
    wide = run_inflation(cfg)
    assert wide.metadata["per_N"]["256"]["ode_k"] == 8
    for got, want in ((row.norm_T, wide.rows[0].norm_T), (row.ratio, wide.rows[0].ratio),
                      (aux["projected_norm"], wide.metadata["per_N"]["256"]["projected_norm"])):
        assert abs(got - want) <= 1e-15 * abs(want)


def test_cli_refuses_an_unmet_tail_target(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lab, "ODE_TAIL_REL", 0.0)
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nsweep = 64\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: closed form at N=64 keeps a tail of ")
    assert "at out band (2*8+1)*" in err and "Traceback" not in err
    assert not out.exists()


# cheap sizes of the two split-step regimes, and the step count each picks
SPLIT_CASES = [("crit_half", 64, 100), ("crit_half", 256, 100),
               ("frac_crit", 128, 50), ("frac_crit", 256, 50)]


@pytest.mark.parametrize("regime,N,steps_want", SPLIT_CASES)
def test_inflate_split_step_meets_the_step_tolerance(regime, N, steps_want):
    cfg = ExperimentConfig(experiment="inflate", regime=regime, sweep=(float(N),),
                           methods=("ode", "split_step"), **INFLATE_REGIMES[regime][0])
    aux = run_inflation(cfg).metadata["per_N"][str(N)]
    assert aux["split_steps"] == steps_want
    assert 0.0 < aux["split_estimate"] <= lab.SPLIT_STEP_REL

    phi = build_two_block_data(regime, N, s=cfg.s, theta=cfg.theta)
    T, eq = aux["T"], evolution.EquationSpec()
    steps, estimate, u = lab._split_step_on_tolerance(phi, eq, T, N, cfg)
    assert (steps, estimate) == (aux["split_steps"], aux["split_estimate"])
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    scale = float(np.max(np.abs(phi.coeffs)))

    def strang(k):
        return evolution.split_step_evolve(wide, eq, T, evolution.StepperConfig(dt=T / k)).coeffs

    # the reported field lies within its estimate of a fine reference, and
    # closer to it than the finer run of its pair: it is the Richardson value
    coarse, fine = strang(1600), strang(3200)
    ref = (4.0 * fine - coarse) / 3.0
    err = float(np.max(np.abs(u.coeffs - ref)))
    assert err <= estimate * scale
    assert err < float(np.max(np.abs(strang(steps) - ref)))

    # the chosen count is the smallest in the sequence that meets the tolerance
    first = 2 * max(1, cfg.dt_steps // 8)
    if steps > first:
        n = steps // 2
        missed = float(np.max(np.abs(strang(n) - strang(n // 2)))) / (3.0 * scale)
        assert missed > lab.SPLIT_STEP_REL


@pytest.mark.parametrize("patch,dt_steps,message", [
    (True, 200, "misses the halving tolerance 0 of ||phi||_FLinf: at 200 steps, "
                "the largest count dt_steps = 200 allows, the estimate is "),
    (False, 1, "misses the halving tolerance 0.001 of ||phi||_FLinf: "
               "dt_steps = 1 allows no step pair (n, 2n)"),
])
def test_cli_refuses_an_unmet_step_tolerance(patch, dt_steps, message, tmp_path, monkeypatch,
                                             capsys):
    if patch:
        monkeypatch.setattr(lab, "SPLIT_STEP_REL", 0.0)
    ini = tmp_path / "inflate.ini"
    ini.write_text(f"[inflate]\nsweep = 64\ndt_steps = {dt_steps}\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: split-step at N=64 " + message)
    assert "Traceback" not in err
    assert not out.exists()


def test_run_approximation_report():
    cfg = ExperimentConfig(experiment="approx", profile="bump",
                           sweep=(0.025, 0.05, 0.1, 0.2))
    rep = run_approximation(cfg)
    meta = rep.metadata
    assert set(meta) == {"version", "seed", "config", "fitted_slope",
                         "period_errors", "period_spread"}
    assert 1.5 <= meta["fitted_slope"] <= 2.2
    assert 1.0 <= meta["period_spread"] <= 1.001
    assert set(meta["period_errors"]) == {"32", "64", "128"}
    for row in rep.rows:
        assert row.norm_t0 > 0.0 and row.norm_T > 0.0
        assert abs(row.reference - row.param**1.5) <= 1e-15
        assert abs(row.constant - row.norm_T / row.reference) <= 1e-12
    assert rep.rows[2].method_disagreement == meta["period_spread"]


def test_feasibility_scan_finds_nothing_at_the_obstructed_exponents():
    cfg = ExperimentConfig(experiment="feasibility")
    rep = feasibility_scan(-0.25, 0.375, cfg)
    assert len(rep.rows) == 5
    best = [r.constant for r in rep.rows]
    assert [int(r.param) for r in rep.rows] == [0, 0, 0, 0, 0]
    assert all(b < cfg.margin for b in best)
    assert all(b2 > b1 for b1, b2 in zip(best, best[1:]))
    assert abs(best[0] - 1.72245) <= 1e-4 * best[0]
    assert abs(best[-1] - 4.87605) <= 1e-4 * best[-1]


def test_feasibility_scan_fills_up_at_lower_regularity():
    cfg = ExperimentConfig(experiment="feasibility")
    rep = feasibility_scan(-0.75, 0.375, cfg)
    assert [int(r.param) for r in rep.rows] == [10, 1093, 3026, 3464, 3468]
    assert all(r.constant >= cfg.margin for r in rep.rows)
    best = [r.constant for r in rep.rows]
    assert abs(best[-1] - 2738.99) <= 1e-4 * best[-1]


def test_run_experiment_dispatches():
    cfg = ExperimentConfig(experiment="feasibility", grid_points=10)
    direct = feasibility_scan(cfg.s, cfg.alpha, cfg)
    routed = run_experiment(cfg)
    assert routed.rows == direct.rows


# ---------------------------------------------------------------------------
# command-line interface

def test_parse_config_value_types():
    assert cli.parse_config_value("sweep", "1, 2 4") == (1.0, 2.0, 4.0)
    assert cli.parse_config_value("N_list", "65536,16777216") == (65536, 16777216)
    assert cli.parse_config_value("methods", "ode split_step") == ("ode", "split_step")
    assert cli.parse_config_value("timing", "on") is True
    assert cli.parse_config_value("timing", "false") is False
    assert cli.parse_config_value("threads", "3") == 3
    assert cli.parse_config_value("s", "-0.5") == -0.5
    assert cli.parse_config_value("regime", " crit_half ") == "crit_half"
    with pytest.raises(ValueError, match="cannot parse"):
        cli.parse_config_value("threads", "many")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.parse_config_value("bogus", "1")
    with pytest.raises(ValueError, match="unknown config key 'experiment'"):
        cli.parse_config_value("experiment", "gamma")
    # Every field but `experiment` is a key, and the INI spelling of each
    # default parses back to that default with the default's own types.
    defaults = [{f.name: f.default for f in dataclasses.fields(ExperimentConfig)},
                *cli.SUBCOMMAND_DEFAULTS.values()]
    for f in dataclasses.fields(ExperimentConfig):
        if f.name != "experiment":
            cli.parse_config_value(f.name, "1")
    for layer in defaults:
        for key, default in layer.items():
            if key == "experiment" or default is None:
                continue
            items = default if isinstance(default, tuple) else (default,)
            raw = " ".join(str(v) for v in items)
            got = cli.parse_config_value(key, raw)
            assert got == default, key
            got_items = got if isinstance(default, tuple) else (got,)
            assert [type(v) for v in got_items] == [type(v) for v in items], key
    assert type(cli.parse_config_value("N_list", "65536")[0]) is int
    assert type(cli.parse_config_value("sweep", "256")[0]) is float
    assert type(cli.parse_config_value("timing", "False")) is bool


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[feasibility]\n"
        "grid_points = 10\n"
        "margin = 5\n"
        "N_list = 65536 16777216\n",
        encoding="utf-8",
    )
    got = cli.load_config_file(str(path), "feasibility")
    assert got == {"grid_points": 10, "margin": 5.0, "N_list": (65536, 16777216)}
    wrong_case = tmp_path / "case.ini"
    wrong_case.write_text("[feasibility]\nn_list = 8\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'n_list'"):
        cli.load_config_file(str(wrong_case), "feasibility")
    with pytest.raises(ValueError, match="no \\[gamma\\] section"):
        cli.load_config_file(str(path), "gamma")
    bad = tmp_path / "bad.ini"
    bad.write_text("[feasibility]\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        cli.load_config_file(str(bad), "feasibility")
    chosen = tmp_path / "chosen.ini"
    chosen.write_text("[gamma]\nexperiment = gamma\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'experiment'"):
        cli.load_config_file(str(chosen), "gamma")
    with pytest.raises(OSError, match="cannot read config file"):
        cli.load_config_file(str(tmp_path / "absent.ini"), "feasibility")


def test_build_config_layers_defaults_file_and_flags(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[inflate]\nsweep = 256 512\ndt_steps = 50\n", encoding="utf-8")
    parser = cli.make_parser()
    args = parser.parse_args(["inflate", "--config", str(path), "--format", "json",
                              "--threads", "2", "--seed", "9"])
    cfg = cli.build_config("inflate", args)
    assert cfg.regime == "crit_half" and cfg.s == -0.5  # subcommand defaults
    assert cfg.sweep == (256.0, 512.0) and cfg.dt_steps == 50  # file
    assert cfg.fmt == "json" and cfg.threads == 2 and cfg.seed == 9  # flags
    args = parser.parse_args(["inflate", "--seed", "-1"])
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        cli.build_config("inflate", args)
    args = parser.parse_args(["inflate", "--seed", str(2**64)])
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        cli.build_config("inflate", args)


def test_cli_main_success_and_default_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "feas.json"
    rc = cli.main(["feasibility", "--out", str(out), "--format", "json", "--seed", "7"])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["metadata"]["seed"] == 7
    assert len(payload["rows"]) == 5
    assert "wrote feasibility report (5 rows)" in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert cli.main(["feasibility"]) == 0
    assert (tmp_path / "feasibility_report.csv").exists()


def test_cli_main_reports_errors_as_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[gamma]\nbogus = 1\n", encoding="utf-8")
    assert cli.main(["gamma", "--config", str(bad)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    missing = tmp_path / "missing.ini"
    missing.write_text("[inflate]\nsweep = 256\n", encoding="utf-8")
    assert cli.main(["gamma", "--config", str(missing)]) == 1
    assert "no [gamma] section" in capsys.readouterr().err
    assert cli.main(["feasibility", "--seed", "-3"]) == 1
    assert "unsigned 64-bit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, ini, message",
    [
        ("inflate", "methods = bogus", "methods must be a nonempty subset of ode, split_step, picard"),
        ("approx", "periods =", "periods must be nonempty"),
        ("inflate", "sweep = 64.7", "inflate sweep values must be integers, got 64.7"),
        ("gamma", "sweep = 0.5", "gamma sweep values must be integers, got 0.5"),
        ("feasibility", "grid_points = 0", "grid_points must be >= 1"),
        ("inflate", "sweep = 1", "inflate sweep values must be >= 16 (the smallest N of the two-block "
                                 "schedules), got 1.0"),
        ("inflate", "sweep = 0", "inflate sweep values must be >= 16 (the smallest N of the two-block "
                                 "schedules), got 0.0"),
        ("approx", "sweep = -0.1 0.1", "approx sweep values must be > 0, got -0.1"),
        ("inflate", "picard_budget = -1", "picard_budget must be >= 0"),
        ("inflate", "s = nan", "s must be finite, got nan"),
        ("gamma", "base_delta = 0", "base_delta must be > 0, got 0.0"),
        ("gamma", "delta_decay = 0", "delta_decay must be > 0, got 0.0"),
        ("approx", "time_horizon = 0", "time_horizon must be > 0, got 0.0"),
        ("periodize", "band_per_period = 0", "band_per_period must be > 0, got 0.0"),
        ("inflate", "sweep = 2", "inflate sweep values must be >= 16 (the smallest N of the two-block "
                                 "schedules), got 2.0"),
        ("feasibility", "seed = -5", "seed must fit in an unsigned 64-bit integer, got -5"),
        ("feasibility", "seed = 18446744073709551616",
         "seed must fit in an unsigned 64-bit integer, got 18446744073709551616"),
        ("approx", "alpha = 0.5", "approx requires alpha = 1, got 0.5"),
        ("gamma", "fmt = xml", "fmt must be csv or json, got 'xml'"),
        ("approx", "regime = bogus",
         "unknown regime 'bogus'; expected one of crit_half, negative_s, frac_crit"),
        ("inflate", "regime = supercritical_scaling", "unknown regime 'supercritical_scaling'"),
    ],
)
def test_cli_refuses_bad_config_values(tmp_path, capsys, experiment, ini, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{experiment}]\n{ini}\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_parser_covers_all_experiments():
    parser = cli.make_parser()
    for name in lab.RUNNERS:
        args = parser.parse_args([name])
        assert args.experiment == name
        assert args.config is None and args.out is None
    assert set(cli.SUBCOMMAND_DEFAULTS) == set(lab.RUNNERS)
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])
