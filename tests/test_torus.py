"""Spectral fields on scaled circles: transforms, norms, cubic products,
periodization of compactly supported line profiles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import nlslab as nl
from nlslab import (
    CompactProfile,
    NormSpec,
    SpectralField,
    analyze,
    appendix_profile,
    cubic_density,
    enlarge_band,
    fourier_lebesgue_norm,
    mean_and_l2,
    periodize,
    profile_fourier,
    project_below,
    smooth_bump,
    sobolev_norm,
    synthesize,
)

from _helpers import coeff_gap, l2_norm, random_field


# ---------------------------------------------------------------------------
# containers and validation

def test_spectral_field_requires_odd_coeff_vector():
    with pytest.raises(ValueError):
        SpectralField(1.0, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        SpectralField(1.0, np.zeros(1, dtype=complex))
    # coeffs vector is centered: index k holds mode k - bandwidth
    f = SpectralField(2.0, np.array([0, 1.0, 0], dtype=complex))
    assert f.bandwidth == 1
    assert f.coefficient(0) == 1.0
    assert f.coefficient(1) == 0.0
    assert f.coefficient(-1) == 0.0


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(s=0.0, p=0.5)
    with pytest.raises(ValueError):
        NormSpec(s=0.0, p=1.0, homogeneous=True)
    NormSpec(s=-0.5, homogeneous=True)  # fine


def test_enlarge_band_pads_and_refuses_shrink():
    f = SpectralField(1.0, np.array([1.0, 2.0, 3.0], dtype=complex))
    g = enlarge_band(f, 3)
    assert g.bandwidth == 3
    assert np.all(g.coeffs[2:5] == f.coeffs)
    assert np.all(g.coeffs[:2] == 0) and np.all(g.coeffs[5:] == 0)
    with pytest.raises(ValueError):
        enlarge_band(g, 1)


# ---------------------------------------------------------------------------
# synthesize / analyze

def test_synthesize_constant_is_constant():
    f = SpectralField(3.0, np.array([0, 1.0, 0], dtype=complex))
    u = synthesize(f, 16)
    assert np.allclose(u, 1.0, atol=1e-14)


def test_synthesize_single_mode_grid_values():
    # period 2, unit coefficient on mode 1, 8 grid points starting at -L/2
    f = SpectralField(2.0, np.array([0, 0, 1.0], dtype=complex))
    u = synthesize(f, 8)
    assert abs(u[4] - 1.0) <= 1e-14          # x = 0
    assert abs(u[6] - 1j) <= 1e-14           # x = 1/2
    x0 = -1.0                                 # j = 0 -> x = -L/2
    assert abs(u[0] - np.exp(2j * np.pi * 0.5 * x0)) <= 1e-14


def test_synthesize_refuses_grid_below_band():
    f = random_field(1.0, 4, seed=0)
    with pytest.raises(ValueError):
        synthesize(f, 8)  # needs >= 2*4+1


def test_analyze_constant_and_plane_wave():
    g = 32
    l = 4.0
    x = np.arange(g) * l / g - l / 2.0
    const = analyze(np.full(g, 2.5 + 0j), l, bandwidth=3)
    assert abs(const.coefficient(0) - 2.5) <= 1e-14
    assert coeff_gap(const, SpectralField(l, np.zeros(7, dtype=complex) + np.eye(7)[3] * 2.5)) <= 1e-14
    wave = analyze(np.exp(2j * np.pi * x / l), l, bandwidth=2)
    expect = np.zeros(5, dtype=complex)
    expect[3] = 1.0
    assert np.max(np.abs(wave.coeffs - expect)) <= 1e-13


def test_analyze_refuses_empty_input():
    with pytest.raises(ValueError):
        analyze(np.array([], dtype=complex), 1.0)


@pytest.mark.parametrize("period,bandwidth,seed", [(1.0, 8, 1), (4.0, 17, 2), (2.5, 3, 3)])
def test_round_trip_identity(period, bandwidth, seed):
    f = random_field(period, bandwidth, seed)
    for g in (2 * bandwidth + 1, 4 * bandwidth + 3):
        back = analyze(synthesize(f, g), period, bandwidth)
        assert coeff_gap(back, f) <= 1e-12


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 40), st.integers(0, 60), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 2.5, 32.0]))
@example(1, 0, 0, 1.0)  # G = 2M+1 = 3
@example(5, 1, 1, 2.5)  # even G = 12
@example(30, 6, 2, 1.0)  # G = 67, a prime, so no fast FFT length
@example(40, 0, 3, 32.0)  # G = 2M+1 = 81
def test_band_grid_round_trip(bandwidth, extra, seed, period):
    # the slice-based scatter/gather behind synthesize and analyze, on odd
    # and even grids from G = 2M+1 up, fast FFT lengths or not
    g = 2 * bandwidth + 1 + extra
    f = random_field(period, bandwidth, seed)
    scale = float(np.max(np.abs(f.coeffs)))
    u = synthesize(f, g)
    x = np.arange(g) / g - 0.5  # x_j = j L/G - L/2 in units of L
    direct = np.exp(2j * np.pi * np.outer(x, f.modes())) @ f.coeffs
    assert np.max(np.abs(u - direct)) <= 1e-12 * scale * f.coeffs.size
    assert coeff_gap(analyze(u, period, bandwidth), f) <= 1e-12 * scale
    full = analyze(u, period)  # default bandwidth: every unaliased mode
    assert full.bandwidth == (g - 1) // 2 and full.period == period
    assert coeff_gap(full, f) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# norms

def test_plancherel_matches_quadrature():
    for period, bandwidth, seed in ((1.0, 12, 4), (8.0, 5, 5)):
        f = random_field(period, bandwidth, seed)
        direct = sobolev_norm(f, NormSpec(s=0.0))
        series = math.sqrt(period) * math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2)))
        g = 8 * bandwidth + 9
        u = synthesize(f, g)
        quadrature = math.sqrt(float(np.mean(np.abs(u) ** 2)) * period)
        assert abs(direct - series) <= 1e-10
        assert abs(direct - quadrature) <= 1e-10


def test_sobolev_norm_mean_mode_pins():
    f = SpectralField(1.0, np.array([0, 1.0, 0], dtype=complex))
    for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(sobolev_norm(f, NormSpec(s=s)) - 1.0) <= 1e-14
    # the homogeneous norm drops the mean mode entirely
    assert sobolev_norm(f, NormSpec(s=1.0, homogeneous=True)) == 0.0


def test_sobolev_norm_single_high_mode_pin():
    # period 4, unit coefficient at mode 8 (frequency 2), s = -1
    coeffs = np.zeros(17, dtype=complex)
    coeffs[8 + 8] = 1.0
    f = SpectralField(4.0, coeffs)
    want = 2.0 / math.sqrt(5.0)  # L^(1/2) * (1+4)^(-1/2)
    assert abs(sobolev_norm(f, NormSpec(s=-1.0)) - want) <= 1e-14


def test_fourier_lebesgue_pins():
    f = SpectralField(1.0, np.array([0, 3.0, 0], dtype=complex))
    assert abs(fourier_lebesgue_norm(f, 0.0, 1.0) - 3.0) <= 1e-14
    assert abs(fourier_lebesgue_norm(f, 0.0, np.inf) - 3.0) <= 1e-14
    two = nl.build_two_block_data("crit_half", 256)
    assert fourier_lebesgue_norm(two, 0.0, np.inf) == 1.0
    count = int(np.count_nonzero(two.coeffs))
    assert fourier_lebesgue_norm(two, 0.0, 1.0) == float(count) == 462.0


def test_mean_and_l2_quadrature():
    f = random_field(4.0, 9, seed=6)
    mean, msq = mean_and_l2(f)
    g = 8 * 9 + 9
    u = synthesize(f, g)
    assert abs(mean - np.mean(u)) <= 1e-12
    assert abs(msq - np.mean(np.abs(u) ** 2)) <= 1e-12


def test_inhomogeneous_below_homogeneous_for_mean_zero_nonpositive_s():
    for (period, seed) in ((1.0, 7), (4.0, 8)):
        f = random_field(period, 10, seed=seed, mean_zero=True)
        for s in (-1.5, -0.5, 0.0):
            inhom = sobolev_norm(f, NormSpec(s=s))
            hom = sobolev_norm(f, NormSpec(s=s, homogeneous=True))
            assert inhom <= hom + 1e-12


# ---------------------------------------------------------------------------
# projection

def test_project_below_identity_and_mean_only():
    f = random_field(1.0, 6, seed=9)
    assert coeff_gap(project_below(f, 7), f) == 0.0
    only_mean = project_below(f, 1)
    assert only_mean.coefficient(0) == f.coefficient(0)
    assert np.count_nonzero(only_mean.coeffs) <= 1


def test_project_below_is_a_contraction():
    f = random_field(2.0, 12, seed=10)
    for n in (1, 4, 9):
        p = project_below(f, n)
        assert l2_norm(p) <= l2_norm(f) + 1e-14
        assert sobolev_norm(p, NormSpec(s=-0.5)) <= sobolev_norm(f, NormSpec(s=-0.5)) + 1e-14


# ---------------------------------------------------------------------------
# cubic density

def test_cubic_density_constant_pins():
    c = 1.5 - 0.5j
    f = SpectralField(1.0, np.array([0, c, 0], dtype=complex))
    plain = cubic_density(f)
    assert abs(plain.coefficient(0) - abs(c) ** 2 * c) <= 1e-12
    wick = cubic_density(f, wick=True)
    assert abs(wick.coefficient(0) - (-abs(c) ** 2 * c)) <= 1e-12


def test_cubic_density_single_mode_is_resonant():
    c = 0.7 + 0.2j
    coeffs = np.zeros(7, dtype=complex)
    coeffs[3 + 2] = c
    f = SpectralField(2.0, coeffs)
    d = cubic_density(f)
    assert abs(d.coefficient(2) - abs(c) ** 2 * c) <= 1e-12
    rest = d.coeffs.copy()
    rest[3 + 2] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def _brute_cubic(field, wick):
    m = field.bandwidth
    c = field.coeffs
    out = np.zeros(2 * m + 1, dtype=complex)
    for n1 in range(-m, m + 1):
        for n2 in range(-m, m + 1):
            for n3 in range(-m, m + 1):
                n = n1 - n2 + n3
                if -m <= n <= m:
                    out[n + m] += c[n1 + m] * np.conj(c[n2 + m]) * c[n3 + m]
    if wick:
        out -= 2.0 * float(np.sum(np.abs(c) ** 2)) * c
    return SpectralField(field.period, out)


@pytest.mark.parametrize("bandwidth", [4, 8, 16])
@pytest.mark.parametrize("wick", [False, True])
def test_cubic_density_matches_brute_force(bandwidth, wick):
    f = random_field(1.5, bandwidth, seed=11 + bandwidth, decay=0.5)
    got = cubic_density(f, wick=wick)
    want = _brute_cubic(f, wick)
    assert coeff_gap(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# periodization

def test_periodize_zero_profile():
    zero = CompactProfile("step", ((-0.5, 0.5, 0.0),), 0.5)
    f = periodize(zero, 2.0, 8)
    assert np.max(np.abs(f.coeffs)) == 0.0


def test_periodize_indicator_sinc_pin():
    box = CompactProfile("step", ((-0.5, 0.5, 1.0),), 0.5)
    f = periodize(box, 2.0, 16)
    n = np.arange(-16, 17)
    want = 0.5 * np.sinc(n / 2.0)
    assert np.max(np.abs(f.coeffs - want)) <= 1e-12


def test_periodize_refuses_overlapping_period():
    psi1 = appendix_profile("psi1")
    with pytest.raises(ValueError):
        periodize(psi1, 8.0, 64)


def test_periodize_psi1_pointwise_reconstruction():
    psi1 = appendix_profile("psi1")
    errors = {}
    for band in (128, 512):
        f = periodize(psi1, 16.0, band)
        g = 4 * band + 5
        x = np.arange(g) * 16.0 / g - 8.0
        u = synthesize(f, g)
        direct = psi1.evaluate(x)
        jumps = np.array([1.0, 3.0, 4.0, 5.0])
        away = np.min(np.abs(np.abs(x)[:, None] - jumps[None, :]), axis=1) >= 0.25
        errors[band] = float(np.max(np.abs(u[away] - direct[away])))
    # away from the steps the truncated-sum ripple shrinks like 1/band, so
    # quadrupling the band divides the worst error by about four
    assert errors[512] <= 0.05
    assert 3.0 <= errors[128] / errors[512] <= 5.0


def test_profile_fourier_zero_frequency_is_integral():
    box = CompactProfile("step", ((0.0, 1.0, 1.0),), 1.0)
    assert abs(profile_fourier(box, 0.0) - 1.0) <= 1e-14
    psi1 = appendix_profile("psi1")
    assert abs(profile_fourier(psi1, 0.0)) <= 1e-14
    two = nl.centered_two_step(1.0, 0.3)
    assert abs(profile_fourier(two, 0.0)) <= 1e-14


def test_profile_fourier_indicator_integer_zero():
    box = CompactProfile("step", ((0.0, 1.0, 1.0),), 1.0)
    assert abs(profile_fourier(box, 1.0)) <= 1e-15


@pytest.mark.parametrize("xi", [0.37, 1.9])
def test_profile_fourier_quadrature_oracle(xi):
    psi1 = appendix_profile("psi1")
    got = profile_fourier(psi1, xi)
    re = quad(lambda x: (psi1.evaluate(x) * np.exp(-2j * np.pi * xi * x)).real, -5, 5,
              points=[1, 3, 4, 5], limit=200)[0]
    im = quad(lambda x: (psi1.evaluate(x) * np.exp(-2j * np.pi * xi * x)).imag, -5, 5,
              points=[1, 3, 4, 5], limit=200)[0]
    assert abs(got - complex(re, im)) <= 1e-9


# ---------------------------------------------------------------------------
# embedding and convergence properties

def test_uniform_embedding_constant_stable_across_periods():
    bump = smooth_bump(1.0, 0.35)
    ratios = []
    for period in (1.0, 4.0, 16.0, 64.0, 256.0):
        band = math.ceil(30 * period)
        f = periodize(bump, period, band)
        u = synthesize(f, 4 * band + 5)
        ratios.append(float(np.max(np.abs(u))) / sobolev_norm(f, NormSpec(s=1.0)))
    assert max(ratios) / min(ratios) <= 2.0


def test_riemann_lower_period_is_out_of_domain():
    # the stated sweep starts at a period below twice the support radius,
    # where wrapping would overlap; the operation refuses
    prof = appendix_profile("mollified", eps=0.1)
    with pytest.raises(ValueError):
        periodize(prof, 8.0, 256)


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 1.0])
def test_riemann_error_strictly_decreasing(s):
    # circle-norm error vs the line norm must strictly decrease in the period.
    # For s >= 0 it cannot: once the period clears the support, the lattice
    # sum reproduces the line integral over the circle band |xi| <= 32, and
    # the error settles at the line norm's share beyond 32, up to the line
    # cutoff 80 (1.75e-8 at s = 0, 4.39e-5 at s = 1).  Those cases fail and
    # the failure is recorded as a genuine finding, not patched over.
    prof = appendix_profile("mollified", eps=0.1)
    line = nl.line_sobolev_norm(prof, s, homogeneous=True)
    errs = []
    for period in (16.0, 32.0, 64.0):
        band = math.ceil(32 * period)
        circle = sobolev_norm(periodize(prof, period, band), NormSpec(s=s, homogeneous=True))
        errs.append(abs(circle - line))
    assert all(a > b for a, b in zip(errs, errs[1:])), f"s={s}: errors {errs} not strictly decreasing"
