"""Two-block data families, their parameter schedules, and the power-series
terms of the dispersionless solution."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import nlslab as nl
from nlslab import (
    BudgetExceededError,
    RegimeSchedule,
    SpectralField,
    Xi1Measurement,
    build_two_block_data,
    certify_tail,
    f_factor,
    fourier_lebesgue_norm,
    g_factor,
    ode_exact_evolve,
    project_below,
    regime_parameters,
    sobolev_norm,
    xi1_lower_measurement,
    xi_series_tail,
    xi_term,
)
from nlslab.constructions import MAX_TWO_BLOCK_BAND

from _helpers import random_field


# ---------------------------------------------------------------------------
# scenario validation: regime_parameters checks its (regime, N, s, theta)

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
        (dict(regime="crit_half", s=-0.5, N=8), "regime crit_half requires N"),
        (dict(regime="negative_s", s=-0.25, N=2), "N too small"),
    ],
)
def test_scenario_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=message):
        regime_parameters(**kwargs)


def test_no_two_block_schedule_for_other_regimes():
    # REGIMES holds exactly the regimes regime_parameters has a schedule for
    with pytest.raises(ValueError, match="unknown regime 'positive_s'"):
        regime_parameters("positive_s", 64, 0.5)


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
    with pytest.raises(ValueError, match="A must exceed 1"):
        f_factor(np.array([4.0, 1.0]), -0.25)


@pytest.mark.parametrize("s", [-1.0, -0.75, -0.5, -0.25, 0.0, 0.3])
def test_f_factor_is_elementwise_on_arrays(s):
    A = np.logspace(math.log10(4.0), 12.0, 17).reshape(1, 17, 1)
    want = np.array([f_factor(float(a), s) for a in A.ravel()]).reshape(A.shape)
    np.testing.assert_allclose(f_factor(A, s), want, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# parameter schedules for the two-block regimes

def test_crit_half_schedule_pins():
    sched = regime_parameters("crit_half", 256, -0.5)
    logn = math.log(256.0)
    assert sched.N == 256 and sched.R == 1.0
    assert abs(sched.A - 256.0 / logn ** (1.0 / 16.0)) <= 1e-12
    assert abs(sched.A - 230.00922243457174) <= 1e-10
    assert abs(sched.T_N - 1.0 / (256.0**2 * logn**0.125)) <= 1e-18
    assert abs(sched.T_N - 1.2317728811166322e-05) <= 1e-15
    assert abs(sched.predicted_lower_bound - logn**0.25) <= 1e-12
    assert abs(g_factor(256, -0.5) - math.sqrt(math.log(logn))) <= 1e-12
    assert abs(f_factor(sched.A, -0.5) - math.sqrt(math.log(sched.A))) <= 1e-12


def test_frac_crit_schedule_pins():
    sched = regime_parameters("frac_crit", 1024, -1.0, theta=0.1)
    assert abs(sched.R - 32.0) <= 1e-12
    assert abs(sched.A - 1024.0**0.9) <= 1e-9
    assert abs(sched.T_N - 2.0**-31) <= 1e-22
    assert abs(sched.predicted_lower_bound - 1024.0**0.2) <= 1e-12
    assert g_factor(1024, -1.0) == 1.0 and f_factor(sched.A, -1.0) == 1.0


def test_negative_s_schedule_pins():
    n = 22026  # just below e^10
    sched = regime_parameters("negative_s", n, -0.25)
    logn = math.log(n)
    assert abs(sched.R - n**0.25 / logn) <= 1e-12
    assert abs(sched.R - math.exp(2.5) / 10.0) <= 1e-4 * sched.R
    assert abs(sched.A - logn) == 0.0
    assert abs(sched.T_N - n**-0.5 / logn) <= 1e-18
    assert abs(sched.T_N - math.exp(-5.0) / 10.0) <= 1e-4 * sched.T_N


def test_inflation_time_shrinks_against_the_fixed_point_horizon():
    # the ratio T_N / T* decreases along N in every two-block regime, where
    # T* = 1/(2 ||phi||_W)^2 is the fixed-point horizon of the unit-circle data
    cases = (
        ("crit_half", -0.5, None, (2**8, 2**10, 2**12), 2.0, 3.0),
        ("frac_crit", -1.0, 0.1, (2**8, 2**10, 2**12), 0.2, 1.0),
        ("negative_s", -0.25, None, (2**8, 2**16, 2**24, 2**32), 0.1, 1.0),
    )
    for regime, s, theta, ns, lo, hi in cases:
        ratios = []
        for n in ns:
            sched = regime_parameters(regime, n, s, theta)
            t_star = 1.0 / (2.0 * sched.R * (2 * math.floor(sched.A / 2.0) + 1)) ** 2
            ratios.append(sched.T_N / t_star)
        assert all(lo < r < hi for r in ratios), (regime, ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:])), (regime, ratios)


# ---------------------------------------------------------------------------
# two-block data

def test_two_block_field_structure():
    sched = regime_parameters("crit_half", 64, -0.5)
    phi = build_two_block_data(sched)
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
    # the band floor((2N + A/2) L) and the support at N = 256
    phi = build_two_block_data(regime_parameters("crit_half", 256, -0.5))
    assert phi.bandwidth == 627 and int(np.count_nonzero(phi.coeffs)) == 462


def test_two_block_field_refusals():
    with pytest.raises(ValueError, match="N too small"):
        regime_parameters("crit_half", 2, -0.5)
    build_two_block_data(regime_parameters("crit_half", 16, -0.5))  # smallest admissible decade
    with pytest.raises(ValueError, match="blocks overlap: width 17 vs separation 16"):
        build_two_block_data(RegimeSchedule(N=16, R=1.0, A=16.0, T_N=0.1, predicted_lower_bound=1.0))
    # the band is refused before any array is allocated
    with pytest.raises(ValueError, match=r"at N=1000000000000 on period 1 needs band 2\d{12}, "
                                         f"above the limit {MAX_TWO_BLOCK_BAND}"):
        build_two_block_data(regime_parameters("crit_half", 10**12, -0.5))


def test_two_block_low_regularity_norm_is_nearly_flat():
    # H^(-1/2) size of the crit_half data drifts only at rate (log N)^(-1/32)
    vals = []
    for n in (2**8, 2**9, 2**10):
        phi = build_two_block_data(regime_parameters("crit_half", n, -0.5))
        vals.append(sobolev_norm(phi, -0.5) * math.log(n) ** (1.0 / 32.0))
    assert all(1.0 < v < 1.5 for v in vals), vals
    assert max(vals) / min(vals) <= 1.01
    assert vals[0] > vals[1] > vals[2]


def test_negative_s_regime_samples_the_line_data_on_the_lattice():
    # the surrogate circle L = 32 of inflate, and the unit circle
    sched = regime_parameters("negative_s", 256, -0.25)
    for L, band, support in ((32.0, 16472, 354), (1.0, 514, 10)):
        phi = build_two_block_data(sched, L)
        assert phi.period == L and phi.bandwidth == band
        nonzero = phi.coeffs[phi.coeffs != 0.0]
        assert nonzero.size == support and np.all(nonzero == sched.R / L)


# two-block data with blocks [9.7, 14.3] and [21.7, 26.3]
SMALL_BLOCKS = RegimeSchedule(N=12, R=0.7, A=4.6, T_N=0.1, predicted_lower_bound=1.0)


def test_line_block_transform_and_l2():
    # on L = 5 the lattice n/5 puts 23 points in each block
    phi = build_two_block_data(SMALL_BLOCKS, 5.0)
    assert phi.period == 5.0 and phi.bandwidth == 131
    for xi in (12.0, 12.0 + 2.2, 12.0 - 2.2, 24.0 - 2.2, 24.0 + 2.2):
        assert phi.coefficient(round(5 * xi)) == 0.7 / 5.0
    for xi in (12.0 + 2.4, 12.0 - 2.4, 24.0 + 2.4, 18.0, 0.0, -12.0):
        assert phi.coefficient(round(5 * xi)) == 0.0
    assert int(np.count_nonzero(phi.coeffs)) == 46
    # so its L^2 norm is the line norm R sqrt(2A) exactly
    want = 0.7 * math.sqrt(2.0 * 4.6)
    assert abs(math.sqrt(5.0 * float(np.sum(np.abs(phi.coeffs) ** 2))) - want) <= 1e-15 * want


def test_line_block_periodization_converges_in_l2():
    line = 0.7 * math.sqrt(2.0 * 4.6)  # R sqrt(2A), the L^2 norm on the line
    gaps = []
    for L in (8.0, 32.0, 128.0):
        circle = build_two_block_data(SMALL_BLOCKS, L)
        mass = float(np.sum(np.abs(circle.coeffs) ** 2))
        gaps.append(abs(math.sqrt(L * mass) - line))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-3


def test_line_block_periodize_refusals():
    with pytest.raises(ValueError, match="period must be >= 1"):
        build_two_block_data(SMALL_BLOCKS, 0.5)
    with pytest.raises(ValueError, match=f"at N=12 on period 1e[+]06 needs band 26300000, "
                                         f"above the limit {MAX_TWO_BLOCK_BAND}"):
        build_two_block_data(SMALL_BLOCKS, 1e6)


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


def test_xi_series_tail_bounds_the_sup_without_sampling():
    # modes 1 and 2 at relative phase pi/40: |phi| peaks at 2 between the
    # points of an 8x-oversampled grid, which reads max|phi|^2 = 3.99383;
    # the bound must hold against the true sup, which sum |c_n| = 2 gives
    phi = SpectralField(1.0, np.array([0.0, 0.0, 0.0, 1.0, np.exp(1j * math.pi / 40)]))
    l2 = math.sqrt(2.0)
    assert xi_series_tail(phi, 0, 1.0) >= (1.0 - 1e-12) * l2 * (math.exp(4.0) - 1.0)


def _exact_remainders(r: float, k_max: int) -> list[Fraction]:
    """sum_{k>K} r^k/k! for K = 0..k_max in exact arithmetic, the sum cut
    where its terms fall below 1e-60 of the smallest remainder."""
    terms, term, k = [], Fraction(1), 0
    while k <= k_max + 1 or term > terms[k_max + 1] * Fraction(1, 10**60):
        terms.append(term)
        k += 1
        term = term * Fraction(r) / k
    rests, rest = [], sum(terms[k_max + 1 :], Fraction(0))
    for K in range(k_max, -1, -1):
        rests.append(rest)
        rest += terms[K]
    return rests[::-1]


@pytest.mark.parametrize("r", [1e-6, 1e-3, 0.1, 1.0, 2.0, 5.0, 10.0, 37.3, 100.0])
def test_xi_series_tail_is_the_exact_remainder_from_above(r):
    # the remainder of exp(r) is summed from its first term, so it keeps
    # its digits where exp(r) minus the partial sum cancelled to roundoff;
    # phi = 1 at mode 0 has ||phi||_L2 = 1 and ||phi||_FL1^2 = 1, so t = r
    phi = SpectralField(1.0, np.array([0.0, 1.0, 0.0]))
    for K, exact in enumerate(_exact_remainders(r, 80)):
        got = xi_series_tail(phi, K, r)
        if float(exact) < 1e-300:  # subnormal and below: no relative digits to compare
            assert 0.0 <= got <= 1e-300
            continue
        assert exact <= Fraction(got) <= exact * (1 + Fraction(1, 10**12)), (K, got, float(exact))


def test_certify_tail_at_remainders_far_below_exp_r():
    # exp(r) minus the partial sum read 0 at K = 32 for t = 5, where the
    # remainder is 1.57e-14, and never fell below 1e-15 for t = 2 by K = 80
    phi = SpectralField(1.0, np.array([0.0, 1.0, 0.0]))
    for t, target, K_want in ((5.0, 1e-25, 45), (2.0, 1e-15, 22)):
        exact = _exact_remainders(t, K_want)
        K, bound = certify_tail(phi, t, target)
        assert K == K_want and exact[K] <= Fraction(bound) < target
        assert exact[K - 1] >= target
    assert abs(float(_exact_remainders(5.0, 32)[32]) - 1.57e-14) <= 0.01e-14


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
    sched = regime_parameters("crit_half", n, -0.5)
    phi = build_two_block_data(sched)
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
    assert abs(got.measured - sobolev_norm(low, -0.5)) <= 1e-12


def test_xi1_measurement_at_time_zero():
    phi = build_two_block_data(regime_parameters("crit_half", 64, -0.5))
    got = xi1_lower_measurement(phi, 0.0, -0.5, 64)
    assert got.measured == 0.0 and got.reference == 0.0
    assert got.constant == math.inf
    assert isinstance(got, Xi1Measurement)

