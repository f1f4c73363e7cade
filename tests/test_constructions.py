"""Two-block data families, their parameter schedules, the power-series
terms of the dispersionless solution, and the dilation schedules."""
from __future__ import annotations

import math

import numpy as np
import pytest

import nlslab as nl
from nlslab import (
    BudgetExceededError,
    InflationScenario,
    LineBlockData,
    NormSpec,
    SpectralField,
    Xi1Measurement,
    build_two_block_data,
    certify_tail,
    f_factor,
    fourier_lebesgue_norm,
    g_factor,
    inflation_time,
    ode_exact_evolve,
    project_below,
    regime_parameters,
    sobolev_norm,
    supercritical_schedule,
    xi1_lower_measurement,
    xi_series_tail,
    xi_term,
    xi_upper_bound,
)

from _helpers import random_field


# ---------------------------------------------------------------------------
# scenario validation

@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(regime="nope", s=-0.5, N=64), "unknown regime"),
        (dict(regime="crit_half", s=-0.4, N=64), "crit_half regime requires s = -1/2"),
        (dict(regime="negative_s", s=0.1, N=64), "negative_s regime requires s < 0"),
        (dict(regime="frac_crit", s=-1.0, N=64), "frac_crit regime requires theta > 0"),
        (dict(regime="frac_crit", s=-0.7, N=64, theta=0.1),
         "frac_crit regime requires s < -1/2 - 3 theta"),
        (dict(regime="supercritical_scaling", s=-1.0, N=64), "unknown regime"),
        (dict(regime="crit_half", s=-0.5), "regime crit_half requires N"),
    ],
)
def test_scenario_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=message):
        InflationScenario(**kwargs)


def test_no_two_block_schedule_for_other_regimes():
    # REGIMES holds exactly the regimes regime_parameters has a schedule for
    with pytest.raises(ValueError, match="unknown regime 'positive_s'"):
        InflationScenario(regime="positive_s", s=0.5, N=64)


# ---------------------------------------------------------------------------
# gain and width factors

def test_g_factor_pins_and_validation():
    assert g_factor(1e6, -1.0) == 1.0
    assert abs(g_factor(math.exp(math.exp(2.0)), -0.5) - math.sqrt(2.0)) <= 1e-12
    assert abs(g_factor(math.exp(4.0), -0.25) - math.sqrt(2.0)) <= 1e-12
    with pytest.raises(ValueError, match="defined for s < 0"):
        g_factor(100.0, 0.0)
    with pytest.raises(ValueError, match="N too small"):
        g_factor(8.0, -0.5)


def test_f_factor_pins_and_validation():
    assert f_factor(100.0, -0.75) == 1.0
    assert abs(f_factor(math.exp(4.0), -0.5) - 2.0) <= 1e-12
    assert abs(f_factor(16.0, -0.25) - 2.0) <= 1e-12
    with pytest.raises(ValueError, match="A must exceed 1"):
        f_factor(1.0, -0.5)


# ---------------------------------------------------------------------------
# parameter schedules for the two-block regimes

def test_crit_half_schedule_pins():
    sched = regime_parameters(InflationScenario(regime="crit_half", s=-0.5, N=256))
    logn = math.log(256.0)
    assert sched.R == 1.0
    assert abs(sched.A - 256.0 / logn ** (1.0 / 16.0)) <= 1e-12
    assert abs(sched.A - 230.00922243457174) <= 1e-10
    assert abs(sched.T_N - 1.0 / (256.0**2 * logn**0.125)) <= 1e-18
    assert abs(sched.T_N - 1.2317728811166322e-05) <= 1e-15
    assert abs(sched.predicted_lower_bound - logn**0.25) <= 1e-12
    assert abs(sched.g_factor - math.sqrt(math.log(logn))) <= 1e-12
    assert abs(sched.f_factor - math.sqrt(math.log(sched.A))) <= 1e-12
    width = 2 * math.floor(sched.A / 2.0) + 1
    assert abs(sched.T_star - 1.0 / (2.0 * width) ** 2) <= 1e-18


def test_frac_crit_schedule_pins():
    sched = regime_parameters(InflationScenario(regime="frac_crit", s=-1.0, N=1024, theta=0.1))
    assert abs(sched.R - 32.0) <= 1e-12
    assert abs(sched.A - 1024.0**0.9) <= 1e-9
    assert abs(sched.T_N - 2.0**-31) <= 1e-22
    assert abs(sched.predicted_lower_bound - 1024.0**0.2) <= 1e-12
    assert sched.g_factor == 1.0 and sched.f_factor == 1.0


def test_negative_s_schedule_pins():
    n = 22026  # just below e^10
    sched = regime_parameters(InflationScenario(regime="negative_s", s=-0.25, N=n))
    logn = math.log(n)
    assert abs(sched.R - n**0.25 / logn) <= 1e-12
    assert abs(sched.R - math.exp(2.5) / 10.0) <= 1e-4 * sched.R
    assert abs(sched.A - logn) == 0.0
    assert abs(sched.T_N - n**-0.5 / logn) <= 1e-18
    assert abs(sched.T_N - math.exp(-5.0) / 10.0) <= 1e-4 * sched.T_N


def test_inflation_time_matches_schedule():
    for regime, n, s, theta in (
        ("crit_half", 512, -0.5, None),
        ("frac_crit", 512, -1.0, 0.1),
        ("negative_s", 512, -0.25, None),
    ):
        sched = regime_parameters(InflationScenario(regime=regime, s=s, N=n, theta=theta))
        tn, tstar = inflation_time(regime, n, s, theta)
        assert tn == sched.T_N and tstar == sched.T_star


def test_inflation_time_shrinks_against_the_fixed_point_horizon():
    # the ratio T_N / T* decreases along N in every two-block regime
    cases = (
        ("crit_half", -0.5, None, (2**8, 2**10, 2**12), 2.0, 3.0),
        ("frac_crit", -1.0, 0.1, (2**8, 2**10, 2**12), 0.2, 1.0),
        ("negative_s", -0.25, None, (2**8, 2**16, 2**24, 2**32), 0.1, 1.0),
    )
    for regime, s, theta, ns, lo, hi in cases:
        ratios = []
        for n in ns:
            tn, tstar = inflation_time(regime, n, s, theta)
            ratios.append(tn / tstar)
        assert all(lo < r < hi for r in ratios), (regime, ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:])), (regime, ratios)


# ---------------------------------------------------------------------------
# two-block data

def test_two_block_field_structure():
    phi = build_two_block_data("crit_half", 64)
    sched = regime_parameters(InflationScenario(regime="crit_half", s=-0.5, N=64))
    half = math.floor(sched.A / 2.0)
    assert phi.period == 1.0
    assert phi.bandwidth == 2 * 64 + half
    for n in (64 - half, 64, 64 + half, 128 - half, 128, 128 + half):
        assert phi.coefficient(n) == sched.R
    for n in (64 - half - 1, 64 + half + 1, 0, -64, -128):
        assert phi.coefficient(n) == 0.0
    assert int(np.count_nonzero(phi.coeffs)) == 2 * (2 * half + 1)
    assert fourier_lebesgue_norm(phi, 0.0, np.inf) == sched.R
    assert abs(fourier_lebesgue_norm(phi, 0.0, 1.0) - sched.R * 2 * (2 * half + 1)) <= 1e-9


def test_two_block_field_refusals():
    with pytest.raises(ValueError, match="N too small"):
        build_two_block_data("crit_half", 2)
    build_two_block_data("crit_half", 16)  # smallest admissible decade
    with pytest.raises(ValueError, match="clips the blocks"):
        build_two_block_data("crit_half", 64, bandwidth=100)
    with pytest.raises(ValueError, match="s is required"):
        build_two_block_data("frac_crit", 64)


def test_two_block_low_regularity_norm_is_nearly_flat():
    # H^(-1/2) size of the crit_half data drifts only at rate (log N)^(-1/32)
    vals = []
    for n in (2**8, 2**9, 2**10):
        phi = build_two_block_data("crit_half", n)
        vals.append(sobolev_norm(phi, NormSpec(s=-0.5)) * math.log(n) ** (1.0 / 32.0))
    assert all(1.0 < v < 1.5 for v in vals), vals
    assert max(vals) / min(vals) <= 1.01
    assert vals[0] > vals[1] > vals[2]


def test_negative_s_regime_returns_line_data():
    n = 22026
    data = build_two_block_data("negative_s", n, s=-0.25)
    sched = regime_parameters(InflationScenario(regime="negative_s", s=-0.25, N=n))
    assert isinstance(data, LineBlockData)
    assert data.R == sched.R and data.A == sched.A and data.N == n


def test_line_block_transform_and_l2():
    data = LineBlockData(R=0.7, A=4.6, N=12)
    assert data.fourier_transform(12.0) == 0.7
    assert data.fourier_transform(12.0 + 2.2) == 0.7
    assert data.fourier_transform(24.0 - 2.2) == 0.7
    assert data.fourier_transform(12.0 + 2.4) == 0.0
    assert data.fourier_transform(9.59) == 0.0
    assert data.fourier_transform(0.0) == 0.0
    want = 0.7 * math.sqrt(2.0 * 4.6)
    assert abs(data.line_sobolev_norm(0.0) - want) <= 1e-15 * want


def test_line_block_periodization_converges_in_l2():
    data = LineBlockData(R=0.7, A=4.6, N=12)
    line = data.line_sobolev_norm(0.0)
    gaps = []
    for L in (8.0, 32.0, 128.0):
        circle = data.periodize(L)
        mass = float(np.sum(np.abs(circle.coeffs) ** 2))
        gaps.append(abs(math.sqrt(L * mass) - line))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-3


def test_line_block_periodize_refusals():
    data = LineBlockData(R=0.7, A=4.6, N=12)
    with pytest.raises(ValueError, match="period must be >= 1"):
        data.periodize(0.5)
    with pytest.raises(ValueError, match="clips the blocks"):
        data.periodize(8.0, bandwidth=5)


# ---------------------------------------------------------------------------
# series terms

def test_xi_term_order_zero_and_validation():
    phi = random_field(1.0, 5, seed=30)
    assert xi_term(phi, 0, 0.7) is phi
    with pytest.raises(ValueError, match="k must be >= 0"):
        xi_term(phi, -1, 0.7)


def test_xi_term_constant_field():
    c = 0.8 - 0.3j
    phi = SpectralField(1.0, np.array([0, c, 0], dtype=complex))
    t = 0.45
    for k in (1, 2, 3):
        out = xi_term(phi, k, t)
        want = (1j * t) ** k / math.factorial(k) * abs(c) ** (2 * k) * c
        assert abs(out.coefficient(0) - want) <= 1e-14
        others = out.coeffs.copy()
        others[out.bandwidth] = 0.0
        assert np.max(np.abs(others)) <= 1e-14


def test_xi_term_budget_refusal():
    phi = random_field(1.0, 6, seed=31)
    with pytest.raises(BudgetExceededError) as err:
        xi_term(phi, 2, 0.1, max_bandwidth=20)
    assert err.value.required == 30
    assert err.value.budget == 20


def test_partial_sums_approach_the_exact_flow_at_factorial_rate():
    phi = random_field(1.0, 6, seed=7, l2=0.8, decay=1.0)
    t = 0.5
    out_band = (2 * 6 + 1) * 6  # band of the largest retained term
    exact = ode_exact_evolve(phi, t, out_bandwidth=out_band)
    assert exact.tail_mass <= 1e-12
    target = nl.enlarge_band(exact.field, out_band).coeffs
    bounds, residuals = [], []
    for kk in (2, 4, 6):
        partial = np.zeros(2 * out_band + 1, dtype=complex)
        for k in range(kk + 1):
            term = nl.enlarge_band(xi_term(phi, k, t), out_band)
            partial += term.coeffs
        residuals.append(float(np.sqrt(np.sum(np.abs(target - partial) ** 2))))
        bounds.append(xi_series_tail(phi, kk, t))
    for r, b in zip(residuals, bounds):
        assert r <= b
    assert bounds[0] > bounds[1] > bounds[2] > 0.0
    assert residuals[0] > residuals[1] > residuals[2]


def test_certify_tail_returns_minimal_order():
    phi = random_field(1.0, 4, seed=32, l2=0.5)
    t = 0.3
    target = 1e-8
    k, bound = certify_tail(phi, t, target)
    assert bound < target
    assert xi_series_tail(phi, k, t) == bound
    if k > 0:
        assert xi_series_tail(phi, k - 1, t) >= target
    with pytest.raises(BudgetExceededError, match="tail bound not below"):
        certify_tail(phi, t, 0.0, k_max=5)


def test_xi_upper_bound_closed_form_and_pins():
    t, r, a, s = 3e-4, 1.3, 24.0, -0.5
    want = [6.7679e-1, 9.8822e-2, 9.6198e-3, 7.0232e-4, 4.1020e-5]
    for k, w in enumerate(want, start=1):
        b = xi_upper_bound(k, t, r, a, s)
        form = t**k / math.factorial(k) * (r * a) ** (2 * k) * r * f_factor(a, s)
        assert abs(b - form) <= 1e-15 * form
        assert abs(b - w) <= 1e-4 * w
    # consecutive terms shrink by t (RA)^2 / (k+1)
    for k in (1, 2, 3):
        ratio = xi_upper_bound(k + 1, t, r, a, s) / xi_upper_bound(k, t, r, a, s)
        assert abs(ratio - t * (r * a) ** 2 / (k + 1)) <= 1e-12
    with pytest.raises(ValueError, match="k must be >= 1"):
        xi_upper_bound(0, t, r, a, s)
    with pytest.raises(ValueError, match="defined for s < 0"):
        xi_upper_bound(1, t, r, a, 0.0)


def test_series_terms_concentrate_near_multiples_of_the_block_frequency():
    n0, half = 200, 8
    m = 2 * n0 + half
    coeffs = np.zeros(2 * m + 1, dtype=complex)
    for c in (n0, 2 * n0):
        coeffs[m + c - half : m + c + half + 1] = 1.0
    phi = SpectralField(1.0, coeffs)
    for k in (1, 2, 3):
        term = xi_term(phi, k, 1.0)
        mags = np.abs(term.coeffs)
        hot = term.modes()[mags > 1e-9 * mags.max()]
        offsets = hot - n0 * np.round(hot / n0).astype(int)
        assert np.max(np.abs(offsets)) <= (2 * k + 1) * half
        centers = set(np.round(hot / n0).astype(int))
        assert len(centers) <= 2 ** (2 * k + 1)


def test_xi1_low_frequency_measurement_pins():
    n = 256
    phi = build_two_block_data("crit_half", n)
    sched = regime_parameters(InflationScenario(regime="crit_half", s=-0.5, N=n))
    got = xi1_lower_measurement(phi, sched.T_N, -0.5, n)
    assert abs(got.measured - 2.52802161843981) <= 1e-9
    assert abs(got.reference - 1.5333826104436064) <= 1e-9
    assert abs(got.constant - 1.648656767868559) <= 1e-9
    # the reference uses the inferred block height and width
    width = 2 * math.floor(sched.A / 2.0) + 1
    want_ref = sched.T_N * width**2 * f_factor(float(width), -0.5)
    assert abs(got.reference - want_ref) <= 1e-12
    # measured really is the low band of the first term
    low = project_below(xi_term(phi, 1, sched.T_N), n)
    assert abs(got.measured - sobolev_norm(low, NormSpec(s=-0.5))) <= 1e-12


def test_xi1_measurement_at_time_zero():
    phi = build_two_block_data("crit_half", 64)
    got = xi1_lower_measurement(phi, 0.0, -0.5, 64)
    assert got.measured == 0.0 and got.reference == 0.0
    assert got.constant == math.inf
    assert isinstance(got, Xi1Measurement)


# ---------------------------------------------------------------------------
# dilation schedules

def test_supercritical_power_branch_pins():
    sched = supercritical_schedule(1, -1.0, theta=0.25)
    delta = 0.01 * 2.0**-20
    assert sched.delta == delta
    assert abs(sched.lam - delta**3.5) <= 1e-15 * delta**3.5
    assert abs(sched.L - delta**-2.5) <= 1e-9 * delta**-2.5
    assert abs(sched.prefactor - 0.009882117688026186) <= 1e-15
    assert abs(sched.prefactor - math.sqrt(sched.lam) * sched.delta**-1.5) <= 1e-12
    assert sched.prefactor <= 0.01


def test_supercritical_power_branch_tightens_with_j():
    prev_delta = 1.0
    for j in (1, 2, 4, 8):
        sched = supercritical_schedule(j, -1.0, theta=0.25)
        assert sched.prefactor <= 1.0 / (100.0 * j)
        assert 0.0 < sched.lam < sched.delta < 1.0
        assert sched.L >= 10.0
        assert sched.delta <= prev_delta
        prev_delta = sched.delta


def test_supercritical_half_wave_branch_pins():
    sched = supercritical_schedule(1, -0.25, alpha=0.5, branch="half_wave")
    assert sched.delta == 0.01
    assert abs(sched.lam - 0.01**3) <= 1e-21
    assert abs(sched.L - 1e4) <= 1e-8
    assert abs(sched.prefactor - 1.0) <= 1e-9


def test_supercritical_log_branch_pins():
    sched = supercritical_schedule(1, -0.5, alpha=0.5, branch="log", c0=1.0, margin=2.0)
    assert sched.delta == 0.01 * 2.0**-17
    pref = abs(math.log(sched.delta)) ** 0.25
    assert abs(sched.prefactor - pref) <= 1e-12
    assert abs(sched.prefactor - 2.012036906000915) <= 1e-12
    lam = (sched.delta * pref) ** 2.0
    assert abs(sched.lam - lam) <= 1e-12 * lam
    assert abs(sched.L - 3237710.7049527406) <= 1e-6


def test_supercritical_schedule_refusals():
    with pytest.raises(ValueError, match="j must be >= 1"):
        supercritical_schedule(0, -1.0)
    with pytest.raises(ValueError, match="power branch requires s < -1/2"):
        supercritical_schedule(1, -0.5)
    with pytest.raises(ValueError, match="degenerate"):
        supercritical_schedule(1, -0.25, alpha=0.75, branch="half_wave")
    with pytest.raises(ValueError, match="unknown branch"):
        supercritical_schedule(1, -1.0, branch="nope")
    with pytest.raises(BudgetExceededError):
        supercritical_schedule(1, -0.5, alpha=0.5, branch="log", margin=100.0)
