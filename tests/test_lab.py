"""Experiment runners, report serialization, configuration plumbing, and the
command-line interface."""
from __future__ import annotations

import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import pathlib
import pkgutil
import re
import typing

import numpy as np
import pytest
from scipy.integrate import quad

from nlslab import (
    CSV_COLUMNS,
    ApproxConfig,
    CompactProfile,
    FeasibilityConfig,
    GammaConfig,
    GammaCount,
    InflateConfig,
    InflationReport,
    PeriodizeConfig,
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
    regime_parameters,
    report_to_csv,
    report_to_json,
    run_approximation,
    run_experiment,
    run_gamma,
    run_inflation,
    smooth_bump,
    wiener_error_budget,
)
import nlslab
from nlslab import cli, constructions, evolution, lab, torus
from nlslab.profiles import APPENDIX_KINDS

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
        (dict(experiment="inflate", sweep=(512.0, 256.0)), "sweep must be strictly increasing"),
        # the report's format and path, echoed before they left the config
        (dict(experiment="inflate", fmt="json"), r"unknown config key 'fmt' in \[inflate\]"),
        (dict(experiment="inflate", sweep=(256.0,), threads=0), "threads must be >= 1"),
        (dict(experiment="approx", dt_steps=200), r"unknown config key 'dt_steps' in \[approx\]"),
        (dict(experiment="gamma", c_fraction=0.0), r"unknown config key 'c_fraction' in \[gamma\]"),
        (dict(experiment="feasibility", grid_points=50),
         r"unknown config key 'grid_points' in \[feasibility\]"),
        # config echoes of reports written before a key was retired
        (dict(experiment="inflate", timing=False), r"unknown config key 'timing' in \[inflate\]"),

        (dict(experiment="inflate", methods=["ode", "split_step"]),
         r"unknown config key 'methods' in \[inflate\]"),
        (dict(sweep=(256.0,)), "config has no 'experiment' key"),
        # regime, s and alpha belong only to the experiments that read them
        (dict(experiment="approx", regime="crit_half"),
         r"unknown config key 'regime' in \[approx\]"),
        (dict(experiment="gamma", s=-0.5), r"unknown config key 's' in \[gamma\]"),
        (dict(experiment="periodize", alpha=1.0), r"unknown config key 'alpha' in \[periodize\]"),
        # an inflate echo written while the step doubling's ceiling was a key
        (dict(experiment="inflate", dt_steps=200), r"unknown config key 'dt_steps' in \[inflate\]"),
        (dict(experiment="gamma", output_path="gamma.json"),
         r"unknown config key 'output_path' in \[gamma\]"),
        # echoes written while approx and gamma's Strang step count and the
        # feasibility scan's points per axis were keys
        (dict(experiment="gamma", dt_steps=200), r"unknown config key 'dt_steps' in \[gamma\]"),
    ],
)
def test_experiment_config_validation(kwargs, message):
    # config_from_dict picks the class from the `experiment` key
    with pytest.raises(ValueError, match=message):
        config_from_dict(kwargs)


@pytest.mark.parametrize("experiment, key, value", [
    ("gamma", "base_delta", 0.16),
    ("gamma", "delta_decay", 0.8408964152537145),
    ("gamma", "c_fraction", 0.5),
    ("feasibility", "margin", 10.0),
    ("approx", "time_horizon", 1.0),
    ("gamma", "time_horizon", 1.0),
    ("approx", "band_per_period", 8.0),
    ("periodize", "band_per_period", 32.0),
])
def test_config_echo_of_a_retired_key_is_refused(experiment, key, value):
    # gamma's dilation schedule and plateau level, the feasibility margin,
    # the approx and gamma horizons and the approx and periodize bands were
    # keys, echoed at these values; they are now lab constants
    echo = {**config_to_dict(lab.CONFIGS[experiment]()), key: value}
    with pytest.raises(ValueError, match=rf"^unknown config key '{key}' in \[{experiment}\]$"):
        config_from_dict(json.loads(json.dumps(echo, sort_keys=True)))


def test_feasibility_sweeps_the_N_values():
    cfg = FeasibilityConfig()
    assert cfg.sweep == tuple(2.0**k for k in (16, 24, 32, 40, 48))
    rows = feasibility_scan(cfg).rows
    assert [r.N_or_j for r in rows] == list(cfg.sweep)


def test_config_dict_round_trip():
    cfg = GammaConfig(sweep=(1.0, 2.0), seed=7, threads=3)
    d = config_to_dict(cfg)
    assert d["experiment"] == "gamma" and isinstance(d["sweep"], list)
    assert set(d) == {f.name for f in dataclasses.fields(GammaConfig)} | {"experiment"}
    assert config_from_dict(d) == cfg
    for name, cls in lab.CONFIGS.items():
        assert config_from_dict(config_to_dict(cls())) == cls()


def test_inflate_echoes_only_the_keys_its_regime_reads():
    for regime, params, echoed in (("crit_half", dict(s=-0.5), set()),
                                   ("frac_crit", dict(s=-1.0, theta=0.1), {"theta"}),
                                   ("negative_s", dict(s=-0.25), {"surrogate_period"})):
        cfg = InflateConfig(regime=regime, **params)
        d = config_to_dict(cfg)
        assert {"theta", "surrogate_period"} & set(d) == echoed, regime
        assert config_from_dict(d) == cfg
    # negative_s without the key runs on the circle of circumference 32
    unset = InflateConfig(regime="negative_s", s=-0.25)
    assert unset == InflateConfig(regime="negative_s", s=-0.25, surrogate_period=32.0)
    assert config_to_dict(unset)["surrogate_period"] == 32.0


@pytest.mark.parametrize("cls", [ApproxConfig, PeriodizeConfig])
@pytest.mark.parametrize("profile, unread", [
    ("bump", {"eps"}),
    ("two_step", {"width"}),
    ("mollified", {"amplitude", "width"}),
    ("psi1", {"amplitude", "width", "eps"}),
    ("derivative", {"amplitude", "width", "eps"}),
    ("psi2", {"amplitude", "width", "eps"}),
    ("psi4", {"amplitude", "width", "eps"}),
])
def test_profile_configs_echo_only_the_keys_their_profile_reads(cls, profile, unread):
    values = {"amplitude": 2.0, "width": 3.0, "eps": 0.25}
    cfg = cls(profile=profile, **{key: v for key, v in values.items() if key not in unread})
    d = config_to_dict(cfg)
    assert cfg.unread_keys() == unread
    assert set(values) - set(d) == unread
    assert config_from_dict(json.loads(json.dumps(d))) == cfg
    # a key the profile never reads is refused when set, never dropped
    for key in unread:
        with pytest.raises(ValueError, match=rf"^{key} is read only by the [a-z_, ]+ profile, "
                                             rf"not by {profile}$"):
            cls(profile=profile, **{key: values[key]})


def test_each_profile_choice_builds_a_profile():
    # profile's choices are the kinds _approx_profile builds, so an unknown
    # one is refused by the config before any run
    assert lab.PROFILES == ("bump", "two_step", *APPENDIX_KINDS)
    for cls in (ApproxConfig, PeriodizeConfig):
        for profile in lab.PROFILES:
            assert isinstance(lab._approx_profile(cls(profile=profile)), CompactProfile), profile


def test_each_config_class_owns_exactly_its_keys():
    own = {
        "inflate": {"regime", "alpha", "s", "theta", "picard_budget", "surrogate_period"},
        "approx": {"profile", "amplitude", "width", "eps", "periods"},
        "periodize": {"profile", "amplitude", "width", "eps", "s_list"},
        "gamma": {"alpha", "amplitude", "eps", "band_per_period"},
        "feasibility": {"alpha", "s"},
    }
    shared = {"sweep", "seed", "threads"}
    assert {f.name for f in dataclasses.fields(lab.ExperimentConfig)} == shared
    assert set(lab.CONFIGS) == set(own)
    for name, cls in lab.CONFIGS.items():
        assert cls.experiment == name
        assert {f.name for f in dataclasses.fields(cls)} == shared | own[name], name
    assert sum(len(dataclasses.fields(cls)) for cls in lab.CONFIGS.values()) == 37


# ---------------------------------------------------------------------------
# report serialization

def test_csv_header_and_empty_cells():
    text = report_to_csv(small_report())
    lines = text.splitlines()
    assert lines[0] == ("experiment,regime,s,alpha,N_or_j,param,norm_t0,norm_T,ratio,"
                        "reference,constant,tail_mass,method_disagreement,wall_ms")
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


@pytest.mark.parametrize("cfg", [
    InflateConfig(sweep=(64.0,)),
    ApproxConfig(sweep=(0.1, 0.2), periods=(32.0, 64.0)),
    PeriodizeConfig(sweep=(8.0,), s_list=(-0.5, 1.0)),
    GammaConfig(sweep=(1.0,)),
    FeasibilityConfig(),
], ids=lambda cfg: cfg.experiment)
def test_every_experiment_writes_canonical_json(cfg, tmp_path):
    # report_to_json dumps the payload as it is, so a numpy integer left in
    # the metadata or rows fails here rather than in a benchmark run
    path = tmp_path / "report.json"
    emit_report(run_experiment(cfg), "json", str(path))
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text
    assert config_from_dict(payload["metadata"]["config"]) == cfg
    # the numpy and SIMD targets whose tan the report's last bits depend on
    from numpy._core import _multiarray_umath as umath
    host = payload["metadata"]["host"]
    assert host["numpy"] == np.__version__
    assert host["simd"] == [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]


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


def test_csv_bytes_are_stable_across_threads_and_reruns():
    texts = []
    for threads in (1, 4, 1):
        cfg = GammaConfig(sweep=(1.0, 2.0), amplitude=1.0, eps=0.1, band_per_period=8.0,
                          threads=threads)
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
    # the margin is the least distance of a window mode from the threshold
    assert same.margin == 1.0 / (4.0 * l) and abs(bumped.margin - 1.0 / (4.0 * l)) <= 1e-15
    coeffs[8] += 0.06
    near = gamma_discrepancy(f, SpectralField(l, coeffs), l, 1.0, c0, delta)
    assert near.count == 1 and abs(near.margin - 0.0025) <= 1e-15
    with pytest.raises(ValueError, match="must live on the stated period"):
        gamma_discrepancy(f, random_field(2.0, 8, seed=52), l, 1.0, c0, delta)


def test_line_sobolev_norm_pins():
    box = CompactProfile("step", ((-0.5, 0.5, 1.0),))
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
        "box": CompactProfile("step", ((-0.5, 0.5, 1.0),)),
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


@pytest.mark.parametrize("make", [smooth_bump, centered_two_step], ids=["bump", "two_step"])
def test_line_sobolev_norm_scales_with_the_amplitude(make):
    # the mean test weighs F(0) against the transform's own size: a bump of
    # amplitude 1e-13 keeps its nonzero mean, and so its inf norms
    unit = line_sobolev_norm(make(1.0), ORDERS)
    for amplitude in (1e-13, 1e13):
        for s, a, b in zip(ORDERS, unit, line_sobolev_norm(make(amplitude), ORDERS)):
            if a == math.inf:
                assert b == math.inf, (amplitude, s, b)
            else:
                assert abs(b - amplitude * a) <= 1e-12 * amplitude * a, (amplitude, s, b)


def test_periodization_evaluates_the_transform_a_few_times(monkeypatch):
    calls = []
    transform = CompactProfile.fourier_transform

    def counted(self, xi):
        calls.append(xi)
        return transform(self, xi)

    monkeypatch.setattr(CompactProfile, "fourier_transform", counted)
    cfg = PeriodizeConfig()
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
    cfg = PeriodizeConfig()
    lab.run_periodization(cfg)
    assert calls == list(cfg.sweep)


# ---------------------------------------------------------------------------
# runners

def test_run_gamma_counts_and_quotients():
    cfg = GammaConfig(amplitude=1.0, eps=0.1, band_per_period=8.0)
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


@pytest.mark.parametrize("kwargs, counts", [
    ({}, [13, 19, 29, 45]),
    (dict(amplitude=1.0, eps=0.1, band_per_period=8.0), [25, 39, 59, 91]),  # C13's
], ids=["defaults", "band8"])
def test_gamma_counts_match_a_fine_reference(kwargs, counts):
    # each point's counts are those of a Richardson reference of 1600/3200
    # Strang steps on the same band; its field, rebuilt by the ladder's
    # rule from its entry's steps and order, is the one the entry's margin
    # was taken on, and it errs in FLinf by less than that margin
    cfg = GammaConfig(**kwargs)
    report = json.loads(report_to_json(run_gamma(cfg)))
    rows, entries = report["rows"], report["metadata"]["split_step"]
    assert [int(row["ratio"]) for row in rows] == counts
    assert [row["method_disagreement"] for row in rows] == [0.0] * 4  # the complement counts
    ladder = [lab.SPLIT_STEP_START * 2**k for k in range(2, 7)]
    low, high = lab.SPLIT_ORDER_WINDOW
    profile, t = centered_two_step(cfg.amplitude, cfg.eps), lab.GAMMA_HORIZON
    for row, entry in zip(rows, entries, strict=True):
        j, steps = entry["j"], entry["steps"]
        delta, L = cfg.delta_and_period(j)
        assert (row["N_or_j"], entry["delta"], entry["period"], entry["t"]) == (j, delta, L, t)
        assert steps in ladder and 0.0 < entry["estimate"] <= 1.0 / lab.GAMMA_MARGIN_FACTOR
        phi = lab._periodize(profile, L, cfg.band_per_period)
        eq = evolution.EquationSpec.small_dispersion(delta, cfg.alpha)

        def strang(k):
            return evolution.split_step_evolve(phi, eq, t, evolution.StepperConfig(dt=t / k)).coeffs

        field = strang(steps)
        if low <= entry["order"] <= high:
            field = (4.0 * field - strang(steps // 2)) / 3.0
        ref = (4.0 * strang(3200) - strang(1600)) / 3.0
        w = ode_exact_evolve(phi, t).field
        c_measured, C0 = measure_plateau(w, lab.PLATEAU_FRACTION)
        settled, fine = (gamma_discrepancy(w, phi.with_coeffs(c), L, c_measured, C0, delta,
                                           cfg.alpha) for c in (field, ref))
        assert settled.margin == entry["margin"]
        assert (row["ratio"], row["method_disagreement"]) == (fine.count, fine.complement_count)
        assert np.max(np.abs(field - ref)) < entry["margin"], entry


def _refused_gamma(message: str, tmp_path, capsys):
    """run_gamma at its defaults and the CLI each refuse with `message` (a regex)."""
    with pytest.raises(ValueError, match="^" + message):
        run_gamma(GammaConfig())
    out = tmp_path / "gamma.csv"
    assert cli.main(["gamma", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match("nlslab: error: " + message, err) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_gamma_refuses_an_unmet_count_margin(tmp_path, monkeypatch, capsys):
    # an infinite factor leaves a zero tolerance, which no triple meets:
    # the refusal names the first point's j, delta, period and margin
    monkeypatch.setattr(lab, "GAMMA_MARGIN_FACTOR", math.inf)
    _refused_gamma(re.escape("split-step at j = 1, delta = 0.16 on period 98.0 with the count "
                             "margin ") + r"0\.0\d+ "
                   + re.escape(f"misses the tolerance 0 of its count margin: at "
                               f"{lab.SPLIT_STEP_MAX} steps, the most it tries, the estimate is "),
                   tmp_path, capsys)


def test_gamma_refuses_a_zero_count_margin(tmp_path, monkeypatch, capsys):
    # a window mode whose |w_n - v_n| lies exactly on the threshold leaves
    # its count undecided, and the ladder would divide by the zero margin
    def on_threshold(*args, _fn=lab.gamma_discrepancy):
        return _fn(*args)._replace(margin=0.0)

    monkeypatch.setattr(lab, "gamma_discrepancy", on_threshold)
    _refused_gamma(re.escape("split-step at j = 1, delta = 0.16 on period 98.0 has the count "
                             "margin 0: a window mode's |w_n - v_n| lies on its threshold "
                             "c_measured/(4L) = "), tmp_path, capsys)


def test_run_inflation_small_sweep():
    cfg = InflateConfig(regime="crit_half", s=-0.5, sweep=(256.0, 512.0))
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
        assert (row.regime, row.s, row.alpha) == ("crit_half", -0.5, 1.0)
    per_n = rep.metadata["per_N"]
    assert set(per_n) == {"256", "512"}
    # Gauss nodes and grid points of the first Picard iterate of the
    # paper's equation: within the default budget at both N
    assert (per_n["256"]["picard_nodes"], per_n["256"]["picard_grid_points"]) == (11, 7546)
    assert (per_n["512"]["picard_nodes"], per_n["512"]["picard_grid_points"]) == (11, 15092)
    for n in ("256", "512"):
        aux = per_n[n]
        assert aux["skipped"] == []
        phi = build_two_block_data(regime_parameters("crit_half", int(n), -0.5))
        work = evolution.picard_work(phi, evolution.EquationSpec.paper(), aux["T"])
        assert (aux["picard_nodes"], aux["picard_grid_points"]) == (work.nodes, work.grid_points)
        assert work.nodes * work.grid_points <= cfg.picard_budget
        assert 0.0 < aux["T"] < 1e-4
        assert 0.0 < aux["projected_norm"] <= rows[int(n == "512")].norm_T


def test_run_inflation_methods_agree_within_budget():
    # restrict to a size where the first-order expansion fits the budget,
    # so all three methods run and cross-check one another
    cfg = InflateConfig(regime="crit_half", s=-0.5, sweep=(64.0,))
    rep = run_inflation(cfg)
    aux = rep.metadata["per_N"]["64"]
    assert aux["skipped"] == []
    assert aux["picard_nodes"] * aux["picard_grid_points"] <= cfg.picard_budget
    assert rep.rows[0].method_disagreement is not None
    assert rep.rows[0].ratio > 1.0


def test_inflate_passes_one_equation_spec_to_every_integrator(monkeypatch):
    # alpha = 0.75 at N = 64 runs all three methods; each dispersive one
    # must receive the very spec _inflate_point builds from the config
    seen = []
    for name in ("split_step_stack", "interaction_picture", "picard_expansion"):
        def recorder(field, eq, *args, _fn=getattr(evolution, name), _name=name, **kwargs):
            seen.extend((_name, e) for e in (eq if _name == "split_step_stack" else (eq,)))
            return _fn(field, eq, *args, **kwargs)
        monkeypatch.setattr(evolution, name, recorder)
    cfg = InflateConfig(regime="crit_half", s=-0.5, alpha=0.75, sweep=(64.0,))
    rep = run_inflation(cfg)
    assert rep.metadata["per_N"]["64"]["skipped"] == []
    assert {name for name, _ in seen} == {"split_step_stack", "interaction_picture",
                                          "picard_expansion"}
    assert all(eq is seen[0][1] for _, eq in seen)
    assert seen[0][1] == evolution.EquationSpec.paper(0.75)
    assert seen[0][1].dispersion_coeff == (2.0 * math.pi) ** -1.5
    assert rep.metadata["equation"] == {"convention": "R/2piZ: mode n rotates as |n|^(2 alpha)",
                                        "dispersion_coeff": (2.0 * math.pi) ** -1.5}


def test_inflate_split_step_ratio_inflates_in_the_paper_convention():
    # split-step's own ratio, the NLS value beside the closed form's: in
    # the paper's convention it exceeds 1.3 and rises with N; with this
    # code's unit-circle dispersion (coefficient 1) it reads 1.008
    rep = run_inflation(InflateConfig(regime="crit_half", s=-0.5, sweep=(256.0, 512.0)))
    per_n = rep.metadata["per_N"]
    ratios = [per_n[n]["split_ratio"] for n in ("256", "512")]
    assert 1.3 < ratios[0] < ratios[1], ratios
    for row in rep.rows:
        aux = per_n[str(int(row.N_or_j))]
        assert aux["split_ratio"] == aux["split_norm_T"] / row.norm_t0
        assert aux["split_ratio"] < row.ratio  # below the dispersionless flow's


def test_inflate_rows_do_not_depend_on_the_convention_but_for_the_disagreement(monkeypatch):
    # the closed form supplies every norm column: with split-step and Picard
    # back on coefficient 1, only method_disagreement may move
    cfg = InflateConfig(regime="crit_half", s=-0.5, sweep=(64.0,))
    paper = run_inflation(cfg).rows[0]
    monkeypatch.setattr(evolution.EquationSpec, "paper",
                        staticmethod(lambda alpha=1.0: evolution.EquationSpec(alpha=alpha)))
    unit = run_inflation(cfg).rows[0]
    assert paper.method_disagreement != unit.method_disagreement
    assert (dataclasses.replace(paper, method_disagreement=None)
            == dataclasses.replace(unit, method_disagreement=None))


def test_negative_s_runs_the_closed_form_alone():
    # the surrogate circle's band is too wide for the two cross-checks; the
    # report lists both as skipped and has no disagreement to show
    cfg = InflateConfig(regime="negative_s", s=-0.25, surrogate_period=32.0, sweep=(256.0,))
    rep = run_inflation(cfg)
    aux = rep.metadata["per_N"]["256"]
    assert aux["skipped"] == ["picard", "split_step"]
    assert not {"split_steps", "split_grid_points", "picard_nodes", "picard_grid_points"} & set(aux)
    assert rep.rows[0].method_disagreement is None
    assert rep.rows[0].ratio > 1.0


# the benchmark's inflate configs, and the out band each picks at N = 256
INFLATE_REGIMES = {
    "crit_half": (dict(s=-0.5), 3),
    "frac_crit": (dict(s=-1.0, theta=0.1), 2),
    "negative_s": (dict(s=-0.25, surrogate_period=32.0), 2),
}


@pytest.mark.parametrize("regime", sorted(INFLATE_REGIMES))
def test_inflate_out_band_meets_the_tail_target(regime, monkeypatch):
    params, k_want = INFLATE_REGIMES[regime]
    cfg = InflateConfig(regime=regime, sweep=(256.0,), **params)
    L = cfg.surrogate_period if regime == "negative_s" else 1.0
    phi = build_two_block_data(regime_parameters(regime, 256, cfg.s, cfg.theta), L)
    mass = phi.period * float(np.sum(np.abs(phi.coeffs) ** 2))

    rep = run_inflation(cfg)
    row, aux = rep.rows[0], rep.metadata["per_N"]["256"]
    k = aux["ode_k"]
    assert k == k_want
    assert aux["ode_out_bandwidth"] == (2 * k + 1) * phi.bandwidth
    # the grid holds the out band and two data-band shells on each side,
    # and at least 8 data bands
    assert aux["ode_grid_points"] >= 2 * (aux["ode_out_bandwidth"] + 2 * phi.bandwidth) + 1
    assert aux["ode_grid_points"] >= 8 * (2 * phi.bandwidth + 1)
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


def test_cli_refuses_methods_that_differ_beyond_the_budget(tmp_path, monkeypatch, capsys):
    # the cross-method gate can fail: under a zero budget any gap between
    # the closed form, split-step and Picard exceeds it
    monkeypatch.setattr(lab, "wiener_error_budget", lambda phi, T, N: 0.0)
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nsweep = 16 32\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"nlslab: error: (ode|picard) vs (picard|split_step) differ by "
                        r"\d\.\d{3}e[-+]\d+ > 10x budget 0\.000e\+00 at N=16\n", err), err
    assert not out.exists()


# cheap sizes of the two split-step regimes, and the step count 4n each picks
SPLIT_CASES = [("crit_half", 64, 24), ("crit_half", 256, 12),
               ("frac_crit", 128, 12), ("frac_crit", 256, 12)]


def _strang_runs(phi, eq, T):
    """(strang, ||.||_FLinf over ||phi||_FLinf): Strang's coefficients at T
    on split-step's padded band for a step count, and the scaled norm."""
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    scale = float(np.max(np.abs(phi.coeffs)))

    def strang(k):
        return evolution.split_step_evolve(wide, eq, T, evolution.StepperConfig(dt=T / k)).coeffs

    return strang, lambda a: float(np.max(np.abs(a))) / scale


def _triple(strang, norm, n):
    """(observed order, estimate) of the triple n, 2n, 4n by the rule the
    comment above lab.SPLIT_STEP_REL states, written out once more."""
    u_n, u_2n, u_4n = strang(n), strang(2 * n), strang(4 * n)
    d1, d2 = norm(u_2n - u_n), norm(u_4n - u_2n)
    p = math.log2(d1 / d2)
    low, high = lab.SPLIT_ORDER_WINDOW
    if low <= p <= high:
        return p, d2 / 3.0
    return p, d2 / (2.0 ** min(p, 2.0) - 1.0) if p > 0.0 else math.inf


@pytest.mark.parametrize("regime,N,steps_want", SPLIT_CASES)
def test_inflate_split_step_meets_the_step_tolerance(regime, N, steps_want):
    cfg = InflateConfig(regime=regime, sweep=(float(N),), **INFLATE_REGIMES[regime][0])
    aux = run_inflation(cfg).metadata["per_N"][str(N)]
    assert aux["split_steps"] == steps_want
    assert 0.0 < aux["split_estimate"] <= lab.SPLIT_STEP_REL
    low, high = lab.SPLIT_ORDER_WINDOW
    assert low <= aux["split_order"] <= high  # Strang in its asymptotic range at alpha = 1

    phi = build_two_block_data(regime_parameters(regime, N, cfg.s, cfg.theta))
    # split-step runs on the band 3 n_max, on that band's grid
    assert aux["split_grid_points"] == evolution.split_grid_size(3 * phi.bandwidth)
    T, eq = aux["T"], evolution.EquationSpec.paper()
    run = lab._split_step_on_tolerance(phi, eq, T, N)
    assert (run.steps, run.estimate, run.order) == (
        aux["split_steps"], aux["split_estimate"], aux["split_order"])
    assert run.field.bandwidth == 3 * phi.bandwidth
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    top = float(np.max(np.abs(evolution.free_rotation_rates(wide, eq))))
    assert aux["split_angle_roundoff"] == 2.0**-53 * top * T
    strang, norm = _strang_runs(phi, eq, T)
    steps = run.steps
    assert (run.order, run.estimate) == _triple(strang, norm, steps // 4)

    # the reported field lies within its estimate of a fine reference, and
    # closer to it than the finest run of its triple: it is the Richardson value
    coarse, fine = strang(1600), strang(3200)
    ref = (4.0 * fine - coarse) / 3.0
    err = norm(run.field.coeffs - ref)
    assert err <= run.estimate
    assert err < norm(strang(steps) - ref)

    # the chosen count is the smallest in the ladder that meets the tolerance
    first = 4 * lab.SPLIT_STEP_START
    if steps > first:
        missed = _triple(strang, norm, steps // 8)[1]
        assert missed > lab.SPLIT_STEP_REL


@pytest.mark.parametrize("regime", ["crit_half", "frac_crit"])
@pytest.mark.parametrize("N", [64, 128, 256])
def test_split_step_lies_within_its_estimate_of_lawson_rk4(regime, N):
    # the same equation by a second integrator: Lawson RK4 at 100 steps on
    # split-step's band; a wrong rotation in split-step can still meet the
    # step tolerance, which compares split-step only with itself
    cfg = InflateConfig(regime=regime, sweep=(float(N),), **INFLATE_REGIMES[regime][0])
    sched = regime_parameters(regime, N, cfg.s, cfg.theta)
    phi, T, eq = build_two_block_data(sched), sched.T_N, evolution.EquationSpec.paper()
    run = lab._split_step_on_tolerance(phi, eq, T, N)
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    lawson = evolution.rk4_spectral_evolve(wide, eq, T, evolution.StepperConfig(dt=T / 100))
    gap = lab._fl_inf_distance(evolution.interaction_picture(run.field, eq, T),
                               evolution.interaction_picture(lawson, eq, T))
    assert gap <= run.estimate * torus.fourier_lebesgue_norm(phi, 0.0, np.inf), (gap, run.estimate)


def _crit_half_run(alpha, N):
    """(run, strang, norm) of split-step on crit_half data at N in the
    paper's convention at alpha."""
    sched = regime_parameters("crit_half", N, -0.5)
    phi, eq = build_two_block_data(sched), evolution.EquationSpec.paper(alpha)
    run = lab._split_step_on_tolerance(phi, eq, sched.T_N, N)
    return run, *_strang_runs(phi, eq, sched.T_N)


def test_split_step_past_the_order_window_reports_its_finest_run():
    # alpha = 1.25: the 24/48/96 triple meets the tolerance at an observed
    # order of 3, outside the window, so its Richardson value, built for
    # order 2, is not reported; the finest run is, with the estimate
    # d2 / (2^2 - 1), and a fine reference lies within it
    run, strang, norm = _crit_half_run(1.25, 64)
    assert run.steps == 96 and 2.95 <= run.order <= 3.05
    assert run.order > lab.SPLIT_ORDER_WINDOW[1]
    assert np.array_equal(run.field.coeffs, strang(96))
    assert (run.order, run.estimate) == _triple(strang, norm, 24)
    assert run.estimate == norm(strang(96) - strang(48)) / 3.0
    assert _triple(strang, norm, 12)[1] > lab.SPLIT_STEP_REL  # 12/24/48 missed it
    ref = (4.0 * strang(3200) - strang(1600)) / 3.0
    assert norm(run.field.coeffs - ref) <= run.estimate


def test_split_step_on_a_first_order_floor_reports_an_order_aware_estimate():
    # alpha = 0.5: the differences shrink by 2^-0.63 .. 2^-0.98 per halving,
    # first order, not Strang's second; the first triple already meets the
    # tolerance, and the run reports u_12 with d2 / (2^p - 1), which a
    # fine run lies within, where d2 / 3 would understate the error
    run, strang, norm = _crit_half_run(0.5, 64)
    assert run.steps == 12 and 0.0 < run.order < lab.SPLIT_ORDER_WINDOW[0]
    assert np.array_equal(run.field.coeffs, strang(12))
    d2 = norm(strang(12) - strang(6))
    assert run.estimate == d2 / (2.0**run.order - 1.0) == _triple(strang, norm, 3)[1]
    err = norm(run.field.coeffs - strang(3200))
    assert d2 / 3.0 < err <= run.estimate


def test_cli_refuses_a_split_step_whose_order_stays_off_strang(tmp_path, capsys):
    # alpha = 1.5: the observed order reads -0.16 .. 0.72 at every triple up
    # to the ceiling, so no triple is trusted, and the refusal names the
    # last triple's estimate and order
    sched = regime_parameters("crit_half", 256, -0.5)
    phi = build_two_block_data(sched)
    strang, norm = _strang_runs(phi, evolution.EquationSpec.paper(1.5), sched.T_N)
    top = lab.SPLIT_STEP_MAX // 4
    order, estimate = _triple(strang, norm, top)
    assert 0.0 < order < lab.SPLIT_ORDER_WINDOW[0] and estimate > lab.SPLIT_STEP_REL
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nalpha = 1.5\nsweep = 256\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"nlslab: error: split-step at N=256 misses the tolerance 0.001 of "
                   f"||phi||_FLinf: at {4 * top} steps, the most it tries, the estimate is "
                   f"{estimate:.3e} at observed order {order:.3f}\n")
    assert not out.exists()


def test_reported_split_grid_is_the_grid_split_step_ran_on(tmp_path, monkeypatch):
    bands, counts = [], []

    def spy(field, eqs, t, steps, _fn=evolution.split_step_stack):
        bands.append(field.bandwidth)
        counts.append(tuple(steps))
        return _fn(field, eqs, t, steps)

    monkeypatch.setattr(evolution, "split_step_stack", spy)
    out = tmp_path / "inflate.json"
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nsweep = 64\n", encoding="utf-8")
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out), "--format", "json"]) == 0
    aux = json.loads(out.read_text(encoding="utf-8"))["metadata"]["per_N"]["64"]
    # 3, 6 and 12 steps in one stack, then 24 alone, on one band
    assert counts == [(3, 6, 12), (24,)] and len(set(bands)) == 1
    assert aux["split_grid_points"] == evolution.split_grid_size(bands[0])


@pytest.mark.parametrize("patch,steps,message", [
    (True, 192, "misses the tolerance 0 of ||phi||_FLinf: at 192 steps, "
                "the most it tries, the estimate is "),
])
def test_cli_refuses_an_unmet_step_tolerance(patch, steps, message, tmp_path, monkeypatch,
                                             capsys):
    if patch:
        monkeypatch.setattr(lab, "SPLIT_STEP_REL", 0.0)
    assert steps == lab.SPLIT_STEP_MAX
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nsweep = 64\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: split-step at N=64 " + message)
    assert "Traceback" not in err
    assert not out.exists()


def test_run_approximation_report():
    cfg = ApproxConfig(profile="bump", sweep=(0.025, 0.05, 0.1, 0.2))
    rep = run_approximation(cfg)
    meta = rep.metadata
    assert set(meta) == {"version", "seed", "config", "host", "fitted_slope",
                         "period_errors", "period_spread", "split_step"}
    assert 1.5 <= meta["fitted_slope"] <= 2.2
    assert 1.0 <= meta["period_spread"] <= 1.001
    assert set(meta["period_errors"]) == {"32", "64", "128"}
    # one split-step entry per delta and horizon on the first period, then
    # one per further period at the mid delta and the full horizon
    assert [(e["t"], e["period"], e["delta"]) for e in meta["split_step"]] == (
        [(0.5, 32.0, d) for d in cfg.sweep] + [(1.0, 32.0, d) for d in cfg.sweep]
        + [(1.0, 64.0, 0.1), (1.0, 128.0, 0.1)])
    for entry in meta["split_step"]:
        assert entry["steps"] == 4 * lab.SPLIT_STEP_START
        assert 0.0 < entry["estimate"] <= lab.SPLIT_STEP_REL and entry["order"] > 0.0
    for row in rep.rows:
        assert row.norm_t0 > 0.0 and row.norm_T > 0.0
        assert abs(row.reference - row.param**1.5) <= 1e-15
        assert abs(row.constant - row.norm_T / row.reference) <= 1e-12
    assert rep.rows[2].method_disagreement == meta["period_spread"]


def test_approx_rows_are_the_errors_of_each_delta_alone():
    # approx runs its deltas as one split-step stack per horizon; each row
    # is bitwise what _approx_errors gives for its delta alone
    cfg = ApproxConfig(periods=(32.0,), threads=2)
    rows = run_approximation(cfg).rows
    phi = torus.periodize(lab._approx_profile(cfg), 32.0,
                          math.ceil(lab.APPROX_BAND_PER_PERIOD * 32.0))
    for delta, row in zip(cfg.sweep, rows, strict=True):
        (e_half,), _, _ = lab._approx_errors(phi, (delta,), 0.5)
        (e_full,), tail, _ = lab._approx_errors(phi, (delta,), 1.0)
        assert (row.param, row.norm_t0, row.norm_T, row.tail_mass) == (delta, e_half, e_full, tail)


def test_approx_estimates_bound_the_error_against_a_fine_reference():
    # each split-step entry's field, rebuilt by the ladder's rule from its
    # steps and order, is the one whose H^1 error the report holds, and it
    # lies within its estimate (times that error) of a Richardson reference
    # of 1600/3200 Strang steps on the same band; its steps are a ladder count
    cfg = ApproxConfig(sweep=(0.05, 0.2), periods=(32.0, 64.0))
    report = json.loads(report_to_json(run_approximation(cfg)))
    meta, rows = report["metadata"], report["rows"]
    reported = [row["norm_t0"] for row in rows] + [row["norm_T"] for row in rows]
    reported.append(meta["period_errors"]["64"])
    assert len(meta["split_step"]) == len(reported) == 5
    ladder = [lab.SPLIT_STEP_START * 2**k for k in range(2, 7)]
    assert ladder[-1] == lab.SPLIT_STEP_MAX
    low, high = lab.SPLIT_ORDER_WINDOW
    profile = lab._approx_profile(cfg)
    for entry, error in zip(meta["split_step"], reported, strict=True):
        steps = entry["steps"]
        assert steps in ladder
        phi = torus.periodize(profile, entry["period"],
                              math.ceil(lab.APPROX_BAND_PER_PERIOD * entry["period"]))
        t, eq = entry["t"], evolution.EquationSpec.small_dispersion(entry["delta"])

        def strang(k):
            return evolution.split_step_evolve(phi, eq, t, evolution.StepperConfig(dt=t / k)).coeffs

        def h1(c):
            return torus.sobolev_norm(phi.with_coeffs(c), 1.0)

        field = strang(steps)
        if low <= entry["order"] <= high:
            field = (4.0 * field - strang(steps // 2)) / 3.0
        assert h1(field - ode_exact_evolve(phi, t).field.coeffs) == error
        ref = (4.0 * strang(3200) - strang(1600)) / 3.0
        assert h1(field - ref) <= entry["estimate"] * error, entry


def test_approx_on_vanishing_data_settles_with_a_zero_estimate():
    # a bump of width 1e-300 vanishes in H^1: each row's two finest runs
    # agree exactly in the gap norm, so it settles at the first triple with
    # the estimate 0 and no observed order, and the JSON stays strict
    report = run_approximation(ApproxConfig(width=1e-300, periods=(32.0,)))
    assert all(row.norm_t0 == row.norm_T == 0.0 for row in report.rows)
    payload = json.loads(report_to_json(report), parse_constant=pytest.fail)
    assert [(e["steps"], e["estimate"], e["order"]) for e in payload["metadata"]["split_step"]] == (
        [(4 * lab.SPLIT_STEP_START, 0.0, None)] * 8)


def test_approx_refuses_an_unmet_step_tolerance(tmp_path, monkeypatch, capsys):
    # no triple meets a zero tolerance: the refusal names the first row's
    # delta, period and time, and the CLI reports it without a traceback
    monkeypatch.setattr(lab, "SPLIT_STEP_REL", 0.0)
    message = (f"split-step at delta = 0.025 on period 32.0 and t = 0.5 misses the tolerance 0 "
               f"of its H^1 error: at {lab.SPLIT_STEP_MAX} steps, the most it tries, the "
               f"estimate is ")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        run_approximation(ApproxConfig())
    out = tmp_path / "approx.csv"
    assert cli.main(["approx", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: " + message) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_feasibility_scan_finds_nothing_at_the_obstructed_exponents():
    cfg = FeasibilityConfig()
    assert (cfg.s, cfg.alpha) == (-0.25, 0.375)
    rep = feasibility_scan(cfg)
    assert len(rep.rows) == 5
    best = [r.constant for r in rep.rows]
    assert [int(r.param) for r in rep.rows] == [0, 0, 0, 0, 0]
    assert all(b < lab.FEASIBILITY_MARGIN for b in best)
    assert all(b2 > b1 for b1, b2 in zip(best, best[1:]))
    assert abs(best[0] - 1.72245) <= 1e-4 * best[0]
    assert abs(best[-1] - 4.87605) <= 1e-4 * best[-1]


def test_feasibility_scan_fills_up_at_lower_regularity():
    cfg = FeasibilityConfig(s=-0.75)
    rep = feasibility_scan(cfg)
    assert all((r.s, r.alpha) == (-0.75, 0.375) for r in rep.rows)
    assert rep.metadata["config"]["s"] == -0.75
    assert [int(r.param) for r in rep.rows] == [10, 1093, 3026, 3464, 3468]
    assert all(r.constant >= lab.FEASIBILITY_MARGIN for r in rep.rows)
    best = [r.constant for r in rep.rows]
    assert abs(best[-1] - 2738.99) <= 1e-4 * best[-1]


def test_rows_state_the_regime_order_and_equation_they_used():
    # regime only where a two-block schedule ran, s the order of the norm
    # columns, alpha the order of the evolved equation; empty otherwise
    cases = [
        (ApproxConfig(sweep=(0.2,), periods=(32.0,)), [(None, 1.0, 1.0)]),
        (PeriodizeConfig(sweep=(8.0,), s_list=(-0.5, 1.0)),
         [(None, -0.5, None), (None, 1.0, None)]),
        (GammaConfig(sweep=(1.0,), alpha=0.75), [(None, None, 0.75)]),
        (FeasibilityConfig(s=-0.5, alpha=0.5), [(None, -0.5, 0.5)] * 5),
    ]
    for cfg, want in cases:
        rep = run_experiment(cfg)
        assert [(r.regime, r.s, r.alpha) for r in rep.rows] == want, cfg.experiment
        cells = [line.split(",")[1:4] for line in report_to_csv(rep).splitlines()[1:]]
        assert cells == [[lab._fmt_cell(v) for v in w] for w in want], cfg.experiment


def test_run_experiment_dispatches():
    cfg = FeasibilityConfig(s=-0.5, alpha=1.0)
    direct = feasibility_scan(cfg)
    routed = run_experiment(cfg)
    assert routed.rows == direct.rows


# ---------------------------------------------------------------------------
# command-line interface

def test_parse_config_value_types():
    assert cli.parse_config_value("inflate", "sweep", "1, 2 4") == (1.0, 2.0, 4.0)
    assert cli.parse_config_value("approx", "threads", "3") == 3
    assert cli.parse_config_value("inflate", "s", "-0.5") == -0.5
    assert cli.parse_config_value("inflate", "regime", " crit_half ") == "crit_half"
    with pytest.raises(ValueError, match="cannot parse"):
        cli.parse_config_value("inflate", "threads", "many")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.parse_config_value("inflate", "bogus", "1")
    with pytest.raises(ValueError, match="unknown config key 'experiment'"):
        cli.parse_config_value("gamma", "experiment", "gamma")
    with pytest.raises(ValueError, match=r"unknown config key 's' in \[periodize\]"):
        cli.parse_config_value("periodize", "s", "-0.5")
    with pytest.raises(ValueError, match=r"unknown config key 'timing' in \[gamma\]"):
        cli.parse_config_value("gamma", "timing", "on")
    # Every field of an experiment's class is one of its keys, and the INI
    # spelling of each default parses back to that default with its own types.
    for name, cls in lab.CONFIGS.items():
        for f in dataclasses.fields(cls):
            cli.parse_config_value(name, f.name, "1")
            if f.default is None:
                continue
            items = f.default if isinstance(f.default, tuple) else (f.default,)
            got = cli.parse_config_value(name, f.name, " ".join(str(v) for v in items))
            assert got == f.default, (name, f.name)
            got_items = got if isinstance(f.default, tuple) else (got,)
            assert [type(v) for v in got_items] == [type(v) for v in items], (name, f.name)
    assert type(cli.parse_config_value("feasibility", "sweep", "65536")[0]) is float


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[feasibility]\n"
        "alpha = 0.5\n"
        "sweep = 65536 16777216\n",
        encoding="utf-8",
    )
    got = cli.load_config_file(str(path), "feasibility")
    assert got == {"alpha": 0.5, "sweep": (65536.0, 16777216.0)}
    wrong_case = tmp_path / "case.ini"
    wrong_case.write_text("[feasibility]\nSweep = 8\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'Sweep'"):
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


BENCHMARK_CONFIGS = sorted((pathlib.Path(__file__).resolve().parents[1]
                            / "benchmarks" / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.name)
def test_benchmark_configs_load_as_inflate_configs(path):
    # every key a benchmark config sets must stay an inflate key that its
    # regime reads: a key the regime ignores is refused, and left out of the echo
    keys = cli.load_config_file(str(path), "inflate")
    cfg = InflateConfig(**keys)
    assert isinstance(cfg, InflateConfig)
    assert set(keys) <= set(config_to_dict(cfg))


def test_tracer_wraps_names_that_exist():
    # benchmarks/tracer.py wraps these functions by name and reads some of
    # their arguments by position; a rename here would fail only traced runs
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("nlslab_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {"torus": torus, "evolution": evolution, "constructions": constructions,
               "lab": lab, "cli": cli}
    assert set(tracer.TRACED) == set(modules)
    for mod_name, names in tracer.TRACED.items():
        for name in names:
            assert callable(getattr(modules[mod_name], name, None)), f"{mod_name}.{name}"
    assert tracer.FOURIER == "profiles.fourier_transform"
    assert callable(CompactProfile.fourier_transform)

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(torus.synthesize)[1] == "grid_size"
    assert params(torus.analyze)[0] == "samples"
    assert params(evolution.split_step_evolve)[2:4] == ["t", "cfg"]
    assert typing.get_type_hints(evolution.split_step_evolve)["cfg"] is evolution.StepperConfig
    assert "dt" in {f.name for f in dataclasses.fields(evolution.StepperConfig)}
    assert params(evolution.picard_expansion)[0] == "phi"


def test_build_config_layers_defaults_file_and_flags(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[inflate]\nsweep = 256 512\npicard_budget = 50\n", encoding="utf-8")
    parser = cli.make_parser()
    args = parser.parse_args(["inflate", "--config", str(path), "--format", "json",
                              "--threads", "2", "--seed", "9"])
    cfg = cli.build_config("inflate", args)
    assert cfg.regime == "crit_half" and cfg.s == -0.5  # class defaults
    assert cfg.sweep == (256.0, 512.0) and cfg.picard_budget == 50  # file
    assert cfg.threads == 2 and cfg.seed == 9  # flags; --format is not the config's
    args = parser.parse_args(["inflate", "--seed", "-1"])
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        cli.build_config("inflate", args)
    args = parser.parse_args(["inflate", "--seed", str(2**64)])
    with pytest.raises(ValueError, match=f"seed must be < {2**64}, got {2**64}"):
        cli.build_config("inflate", args)
    # with no file and no flags, the command line runs the class defaults
    for name, cls in lab.CONFIGS.items():
        assert cli.build_config(name, parser.parse_args([name])) == cls()


def test_readme_python_example_runs(capsys):
    # README's Python API block, run as written; its inflate sweep
    # (N = 64, 128) takes well under 2 s
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [line.split(",")[4] for line in lines[1:3]] == ["64", "128"]


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


@pytest.mark.parametrize("flag", ["--s", "--th", "--se", "--form", "--con"])
def test_cli_refuses_abbreviated_flags(tmp_path, monkeypatch, capsys, flag):
    # argparse would otherwise expand a unique prefix: --s 3 ran as --seed 3
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["feasibility", flag, "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    args = cli.make_parser().parse_args(["feasibility", "--seed", "3", "--threads", "2",
                                         "--format", "json", "--out", "r.json", "--config", "c.ini"])
    assert (args.seed, args.threads, args.format, args.out, args.config) == (3, 2, "json", "r.json", "c.ini")


def test_json_report_bytes_do_not_depend_on_the_output_path(tmp_path):
    # the config echo holds what the run read; --out and --format are not part of it
    first, second = tmp_path / "a.json", tmp_path / "sub" / "b.json"
    second.parent.mkdir()
    for out in (first, second):
        assert cli.main(["feasibility", "--format", "json", "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    echo = json.loads(first.read_text(encoding="utf-8"))["metadata"]["config"]
    assert not {"output_path", "fmt"} & set(echo)


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
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, ini, message",
    [
        ("inflate", "methods = picard", "unknown config key 'methods'"),
        ("inflate", "sweep = 64\nsweep = 128", "malformed config file"),
        ("approx", "periods =", "periods must be nonempty"),
        ("inflate", "sweep = 64.7", "inflate sweep values must be integers, got 64.7"),
        ("gamma", "sweep = 0.5", "gamma sweep values must be integers, got 0.5"),
        ("approx", "dt_steps = 200", "unknown config key 'dt_steps' in [approx] of "),
        ("feasibility", "grid_points = 50", "unknown config key 'grid_points' in [feasibility] of "),
        ("inflate", "sweep = 1", "inflate sweep values must be >= 16, got 1.0"),
        ("inflate", "sweep = 0", "inflate sweep values must be >= 16, got 0.0"),
        ("approx", "sweep = -0.1 0.1", "approx sweep values must be > 0, got -0.1"),
        ("inflate", "picard_budget = -1", "picard_budget must be >= 0"),
        ("inflate", "regime = negative_s\nsurrogate_period = 0.5",
         "surrogate_period must be >= 1, got 0.5"),
        # a key that one regime alone reads is refused in the others, before
        # its own range check (the range is checked under negative_s above)
        ("inflate", "surrogate_period = 0.5",
         "surrogate_period is read only by the negative_s regime, not by crit_half"),
        ("inflate", "regime = frac_crit\ns = -1\ntheta = 0.1\nsurrogate_period = 32",
         "surrogate_period is read only by the negative_s regime, not by frac_crit"),
        ("inflate", "theta = 0.1", "theta is read only by the frac_crit regime, not by crit_half"),
        ("inflate", "regime = negative_s\ns = -0.25\ntheta = 0.1",
         "theta is read only by the frac_crit regime, not by negative_s"),
        ("inflate", "s = nan", "s must be finite, got nan"),
        # gamma's dilation schedule and plateau level and the feasibility
        # margin, keys until they became lab constants
        ("gamma", "base_delta = 0", "unknown config key 'base_delta' in [gamma] of "),
        ("gamma", "delta_decay = 0", "unknown config key 'delta_decay' in [gamma] of "),
        ("gamma", "c_fraction = 0.5", "unknown config key 'c_fraction' in [gamma] of "),
        ("feasibility", "margin = 0", "unknown config key 'margin' in [feasibility] of "),
        # the approx and gamma horizons and the approx and periodize bands,
        # keys until they became lab constants
        ("approx", "time_horizon = 0", "unknown config key 'time_horizon' in [approx] of "),
        ("periodize", "band_per_period = 0", "unknown config key 'band_per_period' in [periodize] of "),
        ("inflate", "sweep = 2", "inflate sweep values must be >= 16, got 2.0"),
        ("feasibility", "seed = -5", "seed must be >= 0, got -5"),
        ("feasibility", "seed = 18446744073709551616",
         "seed must be < 18446744073709551616, got 18446744073709551616"),
        ("approx", "alpha = 0.5", "unknown config key 'alpha' in [approx] of "),
        ("gamma", "fmt = json", "unknown config key 'fmt' in [gamma] of "),
        ("inflate", "output_path = r.csv", "unknown config key 'output_path' in [inflate] of "),
        ("approx", "regime = crit_half", "unknown config key 'regime' in [approx] of "),
        ("inflate", "regime = bogus",
         "unknown regime 'bogus'; expected one of crit_half, negative_s, frac_crit"),
        ("inflate", "regime = supercritical_scaling", "unknown regime 'supercritical_scaling'"),
        # regime is checked before the keys it selects
        ("inflate", "regime = bogus\ntheta = 0.1",
         "unknown regime 'bogus'; expected one of crit_half, negative_s, frac_crit"),
        ("periodize", "alpha = -3", "unknown config key 'alpha' in [periodize] of "),
        ("gamma", "alpha = -3", "alpha must be > 0, got -3.0"),
        ("feasibility", "alpha = -3", "alpha must be > 0, got -3.0"),
        ("feasibility", "sweep = 65536.5", "feasibility sweep values must be integers, got 65536.5"),
        ("feasibility", "sweep = 2", "feasibility sweep values must be >= 4, got 2.0"),
        ("feasibility", "sweep = 1", "feasibility sweep values must be >= 4, got 1.0"),
        ("feasibility", "sweep = 0", "feasibility sweep values must be >= 4, got 0.0"),
        # each experiment refuses a key it does not own
        ("approx", "picard_budget = 5", "unknown config key 'picard_budget' in [approx] of "),
        ("inflate", "grid_points = 10", "unknown config key 'grid_points' in [inflate] of "),
        ("periodize", "s = -0.5", "unknown config key 's' in [periodize] of "),
        ("gamma", "profile = bump", "unknown config key 'profile' in [gamma] of "),
        ("feasibility", "N_list = 65536", "unknown config key 'N_list' in [feasibility] of "),
        ("inflate", "timing = true", "unknown config key 'timing' in [inflate] of "),
        ("inflate", "dt_steps = 200", "unknown config key 'dt_steps' in [inflate] of "),
        ("gamma", "dt_steps = 200", "unknown config key 'dt_steps' in [gamma] of "),
        # keys retired from the experiments that only echoed them into rows
        ("periodize", "regime = crit_half", "unknown config key 'regime' in [periodize] of "),
        ("gamma", "regime = crit_half", "unknown config key 'regime' in [gamma] of "),
        ("feasibility", "regime = crit_half", "unknown config key 'regime' in [feasibility] of "),
        ("approx", "s = -0.5", "unknown config key 's' in [approx] of "),
        ("gamma", "s = -0.5", "unknown config key 's' in [gamma] of "),
        # zero data: approx's period spread would divide by zero, gamma's
        # zero plateau threshold would count mode 0 as a discrepancy, and
        # periodize would write rows of zeros
        # (the approx default profile bump reads amplitude; psi1, which does
        # not, refuses it: test_amplitude_is_refused_where_the_profile_ignores_it)
        ("approx", "amplitude = 0", "amplitude must be nonzero, got 0.0"),
        ("gamma", "amplitude = 0", "amplitude must be nonzero, got 0.0"),
        ("periodize", "amplitude = 0", "amplitude must be nonzero, got 0.0"),
        # refused before the data builder allocates its band (2N + A/2) L
        ("inflate", "sweep = 1000000000000",
         "two-block data at N=1000000000000 on period 1 needs band 2"),
        # refused before periodize allocates its band: unchecked, numpy
        # asked for 127 GiB, 116 TiB and 477 GiB for the mode numbers alone
        ("gamma", "sweep = 40", "periodization on period 2.12474e+09 needs band 8498967704, "
                                "above the limit 524288"),
        ("approx", "periods = 1e12", "periodization on period 1e+12 needs band 8000000000000, "
                                     "above the limit 524288"),
        ("periodize", "sweep = 1e9", "periodization on period 1e+09 needs band 32000000000, "
                                     "above the limit 524288"),
        # the reference delta^1.5 would be 0 and divide the error by zero
        ("approx", "sweep = 1e-300", "approx sweep value 1e-300 is too small: its reference "
                                     "delta^1.5 underflows to 0"),
        # gamma's period round(delta_j^(-2.5)) would overflow a float
        ("gamma", "sweep = 1700", "gamma sweep value 1700.0 gives delta_j = exp(-296.247), whose "
                                  "delta_j^(-2.5) leaves the float range"),
        # gamma's period must hold the profile's support, of diameter 2K = 2 (2 + eps)
        ("gamma", "eps = 50", "gamma sweep value 1.0 gives delta_j = 0.16, whose period L = "
                              "round(delta_j^(-2.5)) = 98 is below the profile's support "
                              "diameter 2K = 104"),
        # profile sizes, each under a profile that reads it
        ("approx", "profile = two_step\neps = -1", "eps must be > 0, got -1.0"),
        ("periodize", "profile = bump\nwidth = 0", "width must be > 0, got 0.0"),
        ("approx", "profile = bump\nwidth = -2", "width must be > 0, got -2.0"),
        # profile is checked before the keys it selects
        ("approx", "profile = nosuch\namplitude = 3",
         "unknown profile 'nosuch'; expected one of bump, two_step, psi1, psi2, psi4, mollified, "
         "derivative"),
        ("gamma", "eps = -1", "eps must be > 0, got -1.0"),
        # the phase would keep no correct digit mod 2 pi: gamma runs its
        # closed form, with phase |phi|^2 t, first
        ("gamma", "amplitude = 1e30", "closed form at t = 1: t ||phi||_FL1^2 = 2.688e+61 "
                                      "reaches 2^52"),
        # split-step's free rotation max|rate| |t| would keep no correct digit mod 2 pi
        ("approx", "sweep = 0.1 1e10", "split-step at t = 0.5: max|rate| |t| = 1.263e+23 reaches "
                                       "2^52, where the phase rate t mod 2 pi keeps no correct "
                                       "digit"),
        ("gamma", "alpha = 20", "split-step at t = 1: max|rate| |t| = 1.494e+24 reaches 2^52, "
                                "where the phase rate t mod 2 pi keeps no correct digit"),
        # a band ceil(band_per_period L) that overflows a float is refused as
        # above the limit, not by math.ceil's "cannot convert float infinity"
        ("gamma", "band_per_period = 1e308", "periodization on period 98 needs band inf, "
                                             "above the limit 524288"),
        ("approx", "periods = 1e308", "periodization on period 1e+308 needs band inf, "
                                      "above the limit 524288"),
        ("periodize", "sweep = 1e308", "periodization on period 1e+308 needs band inf, "
                                       "above the limit 524288"),
        # the dispersion coefficient delta^2 of the small-dispersion flow
        ("approx", "sweep = 0.1 1e200", "approx sweep value 1e+200 is too large: its dispersion "
                                        "coefficient delta^2 overflows a float"),
        # delta^2 is checked first, so the reference delta^1.5 cannot overflow
        ("approx", "sweep = 1e300", "approx sweep value 1e+300 is too large: its dispersion "
                                    "coefficient delta^2 overflows a float"),
        # crit_half's R is 1: what overflows is N^2 in its time T_N
        ("inflate", "sweep = 256 1e300", "the crit_half schedule at N=1e+300, s=-0.5 overflows a "
                                         "float: N^2 in T_N = 1/(N^2 (log N)^(1/8)) is out of "
                                         "float range"),
        # period_errors keys each period by its 12 significant digits, so a
        # repeated period would write one entry for two periods
        ("approx", "periods = 32 32 64", "approx period 32.0 is given twice"),
        ("approx", "periods = 64 32 32.0000000000001", "approx period 32.0 is given twice: "
                                                        "period_errors, keyed by 12 significant"),
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


def _declared_rule_cases():
    """(experiment, key, rule, INI lines, message) for each rule a config
    field declares, with a value that breaks it; a tuple key's bound is
    broken once more by its last item, after a first item that keeps it.
    A key the run reads only under some value of another key is set under
    the first such value, and its refusal as an unread key under the first
    value of that key's choices that does not read it."""
    cases = []
    for name, cls in lab.CONFIGS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            rule = f.metadata
            selector, *readers = rule.get("read_by") or (None,)
            read = f"{selector} = {readers[0]}\n" if selector else ""
            whole = hints[f.name] is int
            # each bound, its sign, and how far past it the breaking value lies
            for kind, sign, step in (("at_least", ">=", -1), ("above", ">", 0),
                                     ("below", "<", 0)):
                bound = rule.get(kind)
                if bound is None:
                    continue
                value = bound + step if whole else float(bound + step / 2)
                what = f"{name} {f.name} values" if isinstance(f.default, tuple) else f.name
                message = f"{what} must be {sign} {bound}, got {value!r}"
                cases.append((name, f.name, kind, f"{read}{f.name} = {value}", message))
                if isinstance(f.default, tuple):
                    cases.append((name, f.name, f"{kind}-item",
                                  f"{read}{f.name} = {f.default[0]} {value}", message))
            if rule.get("integer"):
                whole_cases = ((f"{f.default[0] + 0.5}", f.default[0] + 0.5),
                               (f"{f.default[0]} {f.default[-1] + 0.5}", f.default[-1] + 0.5))
                for kind, (items, bad) in zip(("integer", "integer-item"), whole_cases):
                    cases.append((name, f.name, kind, f"{read}{f.name} = {items}",
                                  f"{name} {f.name} values must be integers, got {bad!r}"))
            if rule.get("choices"):
                cases.append((name, f.name, "choices", f"{read}{f.name} = bogus",
                              f"unknown {f.name} 'bogus'; expected one of "
                              f"{', '.join(rule['choices'])}"))
            if rule.get("nonzero"):
                cases.append((name, f.name, "nonzero", f"{read}{f.name} = 0",
                              f"{f.name} must be nonzero, got 0.0"))
            if selector:
                (choices,) = [g.metadata["choices"] for g in dataclasses.fields(cls)
                              if g.name == selector]
                other = next(value for value in choices if value not in readers)
                cases.append((name, f.name, "read_by", f"{selector} = {other}\n{f.name} = 1",
                              f"{f.name} is read only by the {', '.join(readers)} {selector}, "
                              f"not by {other}"))
    return cases


DECLARED_RULE_CASES = _declared_rule_cases()


def test_every_experiment_declares_key_rules():
    # threads and seed (two bounds) on each experiment, and 6 inflate, 5
    # approx, 4 periodize, 5 gamma and 2 feasibility keys; each of the 8
    # keys read under a regime or profile carries its read_by refusal,
    # surrogate_period and each profile key but periodize's amplitude a
    # second rule, the inflate and feasibility sweeps a bound and the
    # integer rule, gamma's the integer rule, and each sweep rule a second
    # case whose bad value is not its first item
    assert len(DECLARED_RULE_CASES) == 52
    covered = {(name, key) for name, key, *_ in DECLARED_RULE_CASES}
    assert {("inflate", "surrogate_period"), ("periodize", "eps")} <= covered
    rules = {rule for *_, rule, _, _ in DECLARED_RULE_CASES}
    assert {"at_least", "above", "below", "choices", "integer", "nonzero", "read_by",
            "at_least-item", "above-item", "integer-item"} <= rules
    assert {name for name, _ in covered} == set(lab.CONFIGS)


@pytest.mark.parametrize("experiment, key, rule, ini, message", DECLARED_RULE_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in DECLARED_RULE_CASES])
def test_cli_refuses_each_declared_key_rule(tmp_path, capsys, experiment, key, rule, ini,
                                            message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{experiment}]\n{ini}\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"nlslab: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment, ini, profile", [
    ("approx", "profile = psi1\namplitude = 0", "psi1"),
    ("periodize", "profile = mollified\namplitude = 0", "mollified"),
    ("periodize", "profile = psi1\namplitude = 5", "psi1"),
])
def test_amplitude_is_refused_where_the_profile_ignores_it(tmp_path, capsys, experiment, ini,
                                                           profile):
    # psi1 and mollified never read amplitude: set, even to 0, it is
    # refused, not dropped from a run that would then exit 0
    path = tmp_path / "exp.ini"
    path.write_text(f"[{experiment}]\n{ini}\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"nlslab: error: amplitude is read only by the bump, "
                                       f"two_step profile, not by {profile}\n")
    assert not out.exists()


OVERFLOWING_RATES = ("split-step at t = {t}: the free rotation rates at alpha = 1e+300 and "
                     "dispersion coefficient 0 are not finite")


# amplitude 1e200 overflows |u|^2 t in the first split step (approx) and in
# the closed form, which gamma evolves first; the block amplitude R of the
# negative_s and frac_crit schedules overflows a float at s = -200, and the
# free rotation rates of split-step at alpha = 1e300, where both inflate's
# coefficient (2 pi)^(-2 alpha) and gamma's delta^(2 alpha) underflow to 0
# and 0 times the overflowed (2 pi |n| / L)^(2 alpha) is NaN.
# Numpy's RuntimeWarning is an error under the test settings, so none may escape.
@pytest.mark.parametrize(
    "experiment, ini, message",
    [
        ("approx", "amplitude = 1e200", "non-finite coefficients at step size "),
        ("gamma", "amplitude = 1e200", "non-finite coefficients in the closed form at t = 1.0"),
        ("inflate", "alpha = 1e300", OVERFLOWING_RATES.format(t="1.23177e-05")),
        ("gamma", "alpha = 1e300", OVERFLOWING_RATES.format(t="1")),
        ("inflate", "regime = negative_s\ns = -200\nsweep = 256",
         "the negative_s schedule at N=256, s=-200.0 overflows a float: R = N^(-s)/log N "),
        ("inflate", "regime = frac_crit\ns = -200\ntheta = 0.1\nsweep = 256",
         "the frac_crit schedule at N=256, s=-200.0 overflows a float: R = N^(-1/2-s) "),
        # a bump of width 1e-300 vanishes on the grid: every error is 0, and
        # the period spread would divide by them
        ("approx", "width = 1e-300", "the approx error at delta = 0.1 on period 32.0 is 0"),
        # the feasibility scan's powers of N would overflow or underflow
        ("feasibility", "sweep = 1e300", "feasibility sweep value 1e+300 is too large for "
                                         "alpha = 0.375 and s = -0.25"),
        ("feasibility", "alpha = 1e308", "alpha = 1e+308 is too large for the feasibility scan"),
        ("feasibility", "s = 1e308", "s = 1e+308 is out of range for the feasibility scan"),
        # the weight |xi|^(2s) of the line norm, and of the circle norm at s = -200
        ("periodize", "s_list = 400", "the line norm of order s = 400.0 overflows a float"),
        ("periodize", "s_list = 1e308", "the line norm of order s = 1e+308 overflows a float"),
        ("periodize", "profile = bump\ns_list = -200",
         "the circle norm of order s = -200.0 on period 8.0 overflows a float"),
    ],
)
def test_cli_refuses_a_run_that_overflows(tmp_path, capsys, experiment, ini, message):
    path = tmp_path / "big.ini"
    path.write_text(f"[{experiment}]\n{ini}\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlslab: error: " + message)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["inflate", "gamma"])
def test_rates_that_overflow_are_refused_before_any_step(experiment, tmp_path, monkeypatch,
                                                         capsys):
    steps = []

    def strang(*args, _fn=evolution._strang_rows):
        steps.append(args[3])
        return _fn(*args)

    monkeypatch.setattr(evolution, "_strang_rows", strang)
    path = tmp_path / "big.ini"
    path.write_text(f"[{experiment}]\nalpha = 1e300\n", encoding="utf-8")
    assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    assert "alpha = 1e+300 and dispersion coefficient 0 are not finite" in capsys.readouterr().err
    assert steps == []


def test_every_exception_class_of_the_package_is_a_value_error():
    # the command line turns every refusal into "nlslab: error: ..." by
    # catching ValueError, so a refusal class must be one
    names = sorted(info.name for info in pkgutil.iter_modules(nlslab.__path__))
    classes = {obj for name in names for obj in vars(importlib.import_module(f"nlslab.{name}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"nlslab.{name}"}
    assert {"BlowupError", "BudgetExceededError"} <= {cls.__name__ for cls in classes}
    assert [cls.__name__ for cls in classes if not issubclass(cls, ValueError)] == []


def test_cli_refuses_a_runner_that_exceeds_a_budget(tmp_path, monkeypatch, capsys):
    def over_budget(sched, period=1.0):
        raise torus.BudgetExceededError(f"two-block data at N={sched.N} is over budget",
                                        required=2, budget=1)

    monkeypatch.setattr(constructions, "build_two_block_data", over_budget)
    ini = tmp_path / "inflate.ini"
    ini.write_text("[inflate]\nsweep = 64\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "nlslab: error: two-block data at N=64 is over budget\n"
    assert not out.exists()


def test_cli_runs_a_negative_s_config_whose_wiener_budget_needs_no_high_power(tmp_path, capsys):
    # ||phi||_1^8 overflows a float here, while the budget in powers of
    # T ||phi||_1^2 does not; negative_s never compares methods against it
    path = tmp_path / "deep.ini"
    path.write_text("[inflate]\nregime = negative_s\ns = -20\nsweep = 256\n", encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["inflate", "--config", str(path), "--out", str(out)]) == 0
    assert "wrote inflate report (1 rows)" in capsys.readouterr().out


def test_cli_parser_covers_all_experiments():
    parser = cli.make_parser()
    for name in lab.RUNNERS:
        args = parser.parse_args([name])
        assert args.experiment == name
        assert args.config is None and args.out is None
    assert set(lab.CONFIGS) == set(lab.RUNNERS)
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])
