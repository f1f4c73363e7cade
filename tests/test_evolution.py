"""Time evolution: exact phase-rotation flow, split-step and rk4 integrators,
symmetry maps, and the low-order expansion of the Duhamel solution."""
from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

import nlslab as nl
from nlslab import (
    BlowupError,
    BudgetExceededError,
    EquationSpec,
    NormSpec,
    SpectralField,
    StepperConfig,
    analyze,
    duhamel_kernel,
    free_rotation_rates,
    galilean_boost,
    gauge_transform,
    interaction_picture,
    ode_exact_evolve,
    oscillatory_integral,
    phase_weight,
    picard_expansion,
    rk4_spectral_evolve,
    scale_map,
    sobolev_norm,
    split_step_evolve,
    synthesize,
    xi_term,
)

from _helpers import coeff_gap, l2_gap, l2_norm, random_field


# ---------------------------------------------------------------------------
# specs and steppers

def test_equation_spec_validation_and_factories():
    with pytest.raises(ValueError):
        EquationSpec(alpha=0.0)
    with pytest.raises(ValueError):
        EquationSpec(dispersion_coeff=-1.0)
    with pytest.raises(ValueError):
        EquationSpec(dispersion_sign=2)
    assert EquationSpec.cubic_nls() == EquationSpec(1.0, 1.0, 1, False)
    assert EquationSpec.wick_nls().wick is True
    assert EquationSpec.ode().dispersion_coeff == 0.0
    assert EquationSpec.fractional(0.75).alpha == 0.75
    small = EquationSpec.small_dispersion(0.1, 1.0)
    assert abs(small.dispersion_coeff - 0.01) <= 1e-17


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)


def test_signatures_the_benchmark_tracer_reads():
    # benchmarks/tracer.py reads integrator arguments by position or name:
    # _split_step_notes takes t and cfg.dt from split_step_evolve's 3rd and
    # 4th, _picard_notes takes phi from picard_expansion's 1st.  Moving them
    # would break its per-layer metrics without any other test failing.
    assert list(inspect.signature(split_step_evolve).parameters)[2:4] == ["t", "cfg"]
    assert "dt" in {f.name for f in dataclasses.fields(StepperConfig)}
    assert list(inspect.signature(picard_expansion).parameters)[0] == "phi"


# ---------------------------------------------------------------------------
# exact phase-rotation flow

def test_ode_exact_constant_pins():
    f = SpectralField(1.0, np.array([0, 2.0, 0], dtype=complex))
    assert abs(ode_exact_evolve(f, math.pi / 8).field.coefficient(0) - 2j) <= 1e-12
    assert abs(ode_exact_evolve(f, math.pi / 4).field.coefficient(0) - (-2.0)) <= 1e-12
    assert abs(ode_exact_evolve(f, math.pi / 8, wick=True).field.coefficient(0) - (-2j)) <= 1e-12


def test_ode_exact_time_zero_is_identity():
    f = random_field(1.0, 8, seed=3, l2=0.3)
    out = ode_exact_evolve(f, 0.0, out_bandwidth=8)
    assert coeff_gap(out.field, f) <= 1e-15
    assert out.tail_mass <= 1e-15


def test_ode_exact_preserves_modulus_and_l2():
    f = random_field(1.0, 8, seed=3, l2=0.3)
    out = ode_exact_evolve(f, 1.0, out_bandwidth=192)
    g = 2 * 192 + 3
    before = np.abs(synthesize(nl.enlarge_band(f, 192), g))
    after = np.abs(synthesize(out.field, g))
    assert np.max(np.abs(after - before)) <= 1e-10
    assert abs(l2_norm(out.field) - l2_norm(f)) <= 1e-10
    assert out.tail_mass <= 1e-10


def test_ode_exact_tail_closes_the_mass_budget():
    # exp(i t |u|^2) is far from band-limited here: the default out band
    # drops most of the mass.  The rotation keeps |u|, so the kept band
    # plus the tail summed over the discarded bins must give back the input
    # mass; a bin counted twice or missed at +-m_out would break the sum.
    f = random_field(1.0, 8, seed=3, l2=3.0)
    out = ode_exact_evolve(f, 1.0)
    assert out.field.bandwidth == 8
    assert 7.0 < out.tail_mass < 8.5
    mass = l2_norm(f) ** 2
    assert abs(l2_norm(out.field) ** 2 + out.tail_mass - mass) <= 1e-12 * mass


def test_ode_exact_parameter_validation():
    f = random_field(1.0, 4, seed=4)
    with pytest.raises(ValueError):
        ode_exact_evolve(f, 0.1, out_bandwidth=3)


# ---------------------------------------------------------------------------
# free propagator bookkeeping

def test_free_rotation_rates_formula():
    for period in (1.0, 2.5):
        for alpha in (0.5, 1.0, 2.0):
            for sign in (-1, 1):
                for coeff in (0.0, 0.3, 1.0):
                    f = random_field(period, 5, seed=5)
                    eq = EquationSpec(alpha=alpha, dispersion_coeff=coeff, dispersion_sign=sign)
                    n = np.arange(-5, 6)
                    want = sign * coeff * np.abs(2.0 * np.pi * n / period) ** (2.0 * alpha)
                    assert np.max(np.abs(free_rotation_rates(f, eq) - want)) <= 1e-12


def test_interaction_picture_identity_isometry_inversion():
    f = random_field(2.0, 10, seed=6, l2=1.0)
    assert coeff_gap(interaction_picture(f, EquationSpec.cubic_nls(), 0.0), f) == 0.0
    eq = EquationSpec(alpha=0.75, dispersion_coeff=1.3, dispersion_sign=-1)
    moved = interaction_picture(f, eq, 0.37)
    for spec in (NormSpec(s=0.0), NormSpec(s=1.0), NormSpec(s=-0.5, homogeneous=True)):
        assert abs(sobolev_norm(moved, spec) - sobolev_norm(f, spec)) <= 1e-12
    for p in (1.0, 2.0, np.inf):
        assert abs(nl.fourier_lebesgue_norm(moved, 0.3, p)
                   - nl.fourier_lebesgue_norm(f, 0.3, p)) <= 1e-12
    back = interaction_picture(moved, eq, 0.37, inverse=True)
    assert coeff_gap(back, f) <= 1e-15


def test_interaction_picture_freezes_free_solutions():
    f = random_field(1.0, 6, seed=7)
    eq = EquationSpec(alpha=0.75, dispersion_coeff=1.3, dispersion_sign=-1)
    t = 0.29
    rates = free_rotation_rates(f, eq)
    free_sol = f.with_coeffs(f.coeffs * np.exp(1j * rates * t))
    frozen = interaction_picture(free_sol, eq, t)
    assert coeff_gap(frozen, f) <= 1e-14


# ---------------------------------------------------------------------------
# split-step integrator

def test_split_step_zero_field_stays_zero():
    f = SpectralField(1.0, np.zeros(9, dtype=complex))
    out = split_step_evolve(f, EquationSpec.cubic_nls(), 0.5, StepperConfig(dt=1e-2))
    assert np.max(np.abs(out.coeffs)) == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_split_step_plane_wave_phase(alpha):
    n0, c = 3, 0.8 * np.exp(0.3j)
    coeffs = np.zeros(2 * n0 + 1, dtype=complex)
    coeffs[2 * n0] = c
    f = SpectralField(1.0, coeffs)
    eq = EquationSpec(alpha=alpha)
    t = 0.1
    out = split_step_evolve(f, eq, t, StepperConfig(dt=1e-4))
    theta = (2.0 * np.pi * n0) ** (2.0 * alpha) + abs(c) ** 2
    assert abs(out.coefficient(n0) - c * np.exp(1j * theta * t)) <= 1e-8


def test_split_step_is_second_order_in_dt():
    # Richardson quotient of the aggregate error over a seed bank; individual
    # seeds can sit near a sign change of the leading error term, so the
    # quotient is taken on the root-mean-square error.
    eq = EquationSpec.cubic_nls()
    t = 0.5
    coarse, fine = [], []
    for seed in range(21, 31):
        f = random_field(1.0, 4, seed=seed, l2=0.5)
        ref = split_step_evolve(f, eq, t, StepperConfig(dt=1.25e-4))
        for dt, box in ((1e-2, coarse), (5e-3, fine)):
            out = split_step_evolve(f, eq, t, StepperConfig(dt=dt))
            box.append(l2_gap(out, ref))
    ratio = math.sqrt(float(np.mean(np.square(coarse)) / np.mean(np.square(fine))))
    assert 3.0 <= ratio <= 5.0, f"halving dt scaled the error by {ratio}, expected about 4"


def test_split_step_dispersionless_matches_exact_flow_any_dt():
    # narrow data in a wide retained band: the first three nonlinear
    # generations stay inside the band, so per-step projection costs nothing
    # and the stepper must match the closed form at any step size
    f = nl.enlarge_band(random_field(1.0, 2, seed=22, l2=0.04), 16)
    eq = EquationSpec.ode()
    exact = ode_exact_evolve(f, 1.0, out_bandwidth=16).field
    for dt in (0.1, 0.025, 0.005):
        stepped = split_step_evolve(f, eq, 1.0, StepperConfig(dt=dt))
        assert l2_gap(stepped, exact) <= 1e-10


def test_split_step_blowup_diagnostic():
    big = SpectralField(1.0, np.full(9, 1e200, dtype=complex))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowupError):
            split_step_evolve(big, EquationSpec.cubic_nls(), 0.01, StepperConfig(dt=0.01))


def _direct_synthesis(field, g):
    """sum_n c_n exp(2 pi i (n/L) x_j) at x_j = j L/G - L/2, term by term."""
    x = np.arange(g) / g - 0.5  # in units of L
    return np.exp(2j * np.pi * np.outer(x, field.modes())) @ field.coeffs


def _reference_split_step(field, eq, t, cfg):
    """Textbook Strang loop: a fresh SpectralField, synthesize, rotate and
    analyze on every step."""
    n_steps = max(1, round(t / cfg.dt))
    dt = t / n_steps
    m, L = field.bandwidth, field.period
    g = next_fast_len(3 * (2 * m + 1))
    half = np.exp(1j * free_rotation_rates(field, eq) * dt / 2.0)
    c = field.coeffs.copy()
    for _ in range(n_steps):
        c = c * half
        u = synthesize(SpectralField(L, c), g)
        shift = 2.0 * float(np.sum(np.abs(c) ** 2)) if eq.wick else 0.0
        u = u * np.exp(1j * dt * (np.abs(u) ** 2 - shift))
        c = analyze(u, L, m).coeffs * half
    return c


def _reference_ode(field, t, wick, out_band):
    """Closed form on the padded field; the tail sums every numpy.fft bin
    whose mode lies outside |n| <= out_band."""
    m, L = field.bandwidth, field.period
    g = next_fast_len(max(8 * (2 * m + 1), 2 * (2 * out_band + 1)))
    u = synthesize(nl.enlarge_band(field, out_band), g)
    shift = 2.0 * float(np.sum(np.abs(field.coeffs) ** 2)) if wick else 0.0
    w = u * np.exp(1j * t * (np.abs(u) ** 2 - shift))
    spec = np.fft.fft(w) / g
    modes = np.rint(np.fft.fftfreq(g, 1.0 / g))
    tail = L * float(np.sum(np.abs(spec[np.abs(modes) > out_band]) ** 2))
    return analyze(w, L, out_band).coeffs, tail


@pytest.mark.parametrize("wick", [False, True])
@pytest.mark.parametrize("alpha", [1.0, 0.75])
@pytest.mark.parametrize("sign", [1, -1])
def test_lean_integrators_match_the_reference_loops(wick, alpha, sign):
    eq = EquationSpec(alpha=alpha, dispersion_sign=sign, wick=wick)
    cfg = StepperConfig(dt=5e-3)
    data = random_field(2.5, 8, seed=31, l2=2.0)
    # the reference loops rest on synthesize; pin it to the term-by-term sum
    g = next_fast_len(3 * (2 * 24 + 1))
    padded = nl.enlarge_band(data, 24)  # 3x the data band, as lab pads split-step
    direct = _direct_synthesis(padded, g)
    assert np.max(np.abs(synthesize(padded, g) - direct)) <= 1e-12 * np.max(np.abs(direct))
    for f in (data, padded):
        want = _reference_split_step(f, eq, 0.2, cfg)
        got = split_step_evolve(f, eq, 0.2, cfg).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    mass = l2_norm(data) ** 2
    for out_band in (8, 24, 136):
        want, want_tail = _reference_ode(data, 0.7, wick, out_band)
        got = ode_exact_evolve(data, 0.7, wick=wick, out_bandwidth=out_band)
        assert np.max(np.abs(got.field.coeffs - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(got.tail_mass - want_tail) <= 1e-12 * want_tail + 1e-20 * mass


def test_split_step_builds_no_field_per_step(monkeypatch):
    # the steps run on raw arrays: no synthesize/analyze call and a fixed
    # number of SpectralField constructions, whatever the step count
    built = 0
    post_init = SpectralField.__post_init__

    def counting_post_init(self):
        nonlocal built
        built += 1
        post_init(self)

    def forbidden(*args, **kwargs):
        raise AssertionError("split_step_evolve called synthesize/analyze")

    f = random_field(1.0, 8, seed=32, l2=1.0)
    monkeypatch.setattr(SpectralField, "__post_init__", counting_post_init)
    for module in (nl.torus, nl.evolution):
        for name in ("synthesize", "analyze"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    counts = []
    for eq in (EquationSpec.cubic_nls(), EquationSpec.wick_nls()):
        for n_steps in (4, 64):
            built = 0
            split_step_evolve(f, eq, 0.1, StepperConfig(dt=0.1 / n_steps))
            counts.append(built)
    assert len(set(counts)) == 1 and counts[0] <= 2, counts


# ---------------------------------------------------------------------------
# rk4 integrator

def test_rk4_zero_field_stays_zero():
    f = SpectralField(1.0, np.zeros(9, dtype=complex))
    out = rk4_spectral_evolve(f, EquationSpec.cubic_nls(), 0.5, StepperConfig(dt=1e-2))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_rk4_matches_exact_flow_without_dispersion():
    eq = EquationSpec.ode()
    for seed in range(100, 105):
        f = random_field(1.0, 64, seed=seed, l2=0.01)
        stepped = rk4_spectral_evolve(f, eq, 1.0, StepperConfig(dt=0.01))
        exact = ode_exact_evolve(f, 1.0, out_bandwidth=64).field
        assert l2_gap(stepped, exact) <= 1e-8


def test_rk4_matches_split_step_on_full_equation():
    eq = EquationSpec.cubic_nls()
    for seed in (7001, 7002):
        f = random_field(1.0, 8, seed=seed, l2=0.3)
        a = rk4_spectral_evolve(f, eq, 0.1, StepperConfig(dt=1e-5))
        b = split_step_evolve(f, eq, 0.1, StepperConfig(dt=1e-5))
        assert l2_gap(a, b) <= 1e-6


def test_rk4_blowup_diagnostic():
    big = SpectralField(1.0, np.full(9, 1e200, dtype=complex))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowupError):
            rk4_spectral_evolve(big, EquationSpec.cubic_nls(), 0.01, StepperConfig(dt=0.01))


def test_both_integrators_conserve_l2():
    specs = (EquationSpec.cubic_nls(), EquationSpec.wick_nls(), EquationSpec.fractional(0.5))
    f = random_field(1.0, 32, seed=40, l2=1.0, decay=2.0)
    for eq in specs:
        out = split_step_evolve(f, eq, 1.0, StepperConfig(dt=1e-4))
        assert abs(l2_norm(out) - 1.0) <= 1e-10
    # rk4 is explicit and not exactly conservative: it needs dt small against
    # the fastest free rotation, and its drift only shrinks at the scheme's
    # order instead of sitting at roundoff like the splitting above
    g = random_field(1.0, 8, seed=41, l2=0.3)
    n0 = l2_norm(g)
    for eq in specs:
        out = rk4_spectral_evolve(g, eq, 0.1, StepperConfig(dt=1e-5))
        assert abs(l2_norm(out) - n0) / n0 <= 1e-8


# ---------------------------------------------------------------------------
# resonance bookkeeping

def test_phase_weight_pins():
    assert phase_weight(1, 1, 2, 2, 1.0) == 0.0
    assert phase_weight(0, 1, 2, 1, 1.0) == 2.0
    assert abs(phase_weight(0, 1, 2, 1, 0.5)) <= 1e-12
    with pytest.raises(ValueError):
        phase_weight(1, 1, 2, 3, 1.0)


def test_oscillatory_integral_pins_and_bound():
    assert oscillatory_integral(0.0, 1.0) == 0.0
    want = 1.0 + 2j / np.pi
    assert abs(oscillatory_integral(np.pi, 1.0) - want) <= 1e-14
    for phi in np.concatenate([-np.logspace(-6, 3, 12), np.logspace(-6, 3, 12)]):
        for t in (0.1, 1.0, 3.0):
            val = abs(oscillatory_integral(phi, t))
            assert val <= min(2.0 * t, t * t * abs(phi)) + 1e-12
    # continuity across the resonant branch
    assert abs(oscillatory_integral(1e-9, 1.0)) <= 1e-8


def test_duhamel_kernel_complements_oscillatory_integral():
    phis = np.array([-3.0, -1e-12, 0.0, 0.5, 40.0])
    t = 0.7
    kern = duhamel_kernel(phis, t)
    for phi, k in zip(phis, kern):
        assert abs(k - (t - oscillatory_integral(phi, t))) <= 1e-14


# ---------------------------------------------------------------------------
# gauge transform

def test_gauge_transform_pins():
    f = SpectralField(1.0, np.array([0, 1.0, 0], dtype=complex))
    assert coeff_gap(gauge_transform(f, 0.0), f) == 0.0
    quarter = gauge_transform(f, math.pi / 4)
    assert abs(quarter.coefficient(0) - (-1j)) <= 1e-12
    full = gauge_transform(f, math.pi)
    assert abs(full.coefficient(0) - 1.0) <= 1e-12


def test_gauge_inverse_composes_to_identity():
    f = random_field(1.0, 12, seed=9, l2=0.8)
    back = gauge_transform(gauge_transform(f, 0.41), 0.41, inverse=True)
    assert coeff_gap(back, f) <= 1e-14


def test_gauge_bridges_constant_trajectories():
    c = 1.0
    f = SpectralField(1.0, np.array([0, c, 0], dtype=complex))
    t = 0.3
    plain = split_step_evolve(f, EquationSpec.cubic_nls(), t, StepperConfig(dt=1e-4))
    bridged = gauge_transform(plain, t)
    want = c * np.exp(-1j * abs(c) ** 2 * t)
    assert abs(bridged.coefficient(0) - want) <= 1e-8


def test_gauge_bridges_random_trajectories():
    f = random_field(1.0, 32, seed=12, l2=0.5, decay=1.5)
    t = 0.1
    cfg = StepperConfig(dt=1e-4)
    plain = split_step_evolve(f, EquationSpec.cubic_nls(), t, cfg)
    wick = split_step_evolve(f, EquationSpec.wick_nls(), t, cfg)
    assert l2_gap(gauge_transform(plain, t), wick) <= 1e-6


# ---------------------------------------------------------------------------
# scaling map

def test_scale_map_norm_identity():
    for lam, delta, alpha, seed in ((0.25, 0.5, 0.75, 13), (0.1, 0.4, 1.0, 14), (0.05, 0.3, 0.5, 15)):
        period = delta / lam
        v = random_field(period, 7, seed=seed)
        u = scale_map(v, lam, delta, alpha)
        assert u.period == 1.0
        for s in (-1.0, -0.5, 0.5):
            pref = lam ** (-s + 0.5 - alpha) * delta ** (s - 0.5)
            left = sobolev_norm(u, NormSpec(s=s, homogeneous=True))
            right = pref * sobolev_norm(v, NormSpec(s=s, homogeneous=True))
            assert abs(left - right) <= 1e-12 * max(1.0, right)


def test_scale_map_unit_prefactor_pin():
    lam, delta, alpha, s = 0.125, 0.5, 1.0, -1.0
    assert abs(lam ** (-s + 0.5 - alpha) * delta ** (s - 0.5) - 1.0) <= 1e-15
    v = random_field(4.0, 6, seed=16, mean_zero=True)
    u = scale_map(v, lam, delta, alpha)
    spec = NormSpec(s=s, homogeneous=True)
    assert abs(sobolev_norm(u, spec) - sobolev_norm(v, spec)) <= 1e-12


def test_scale_map_relabels_single_mode():
    lam, delta, alpha = 0.25, 0.5, 0.75
    coeffs = np.zeros(11, dtype=complex)
    coeffs[5 + 3] = 1.0
    v = SpectralField(2.0, coeffs)
    u = scale_map(v, lam, delta, alpha)
    assert abs(u.coefficient(3) - lam ** (-alpha)) <= 1e-14
    other = u.coeffs.copy()
    other[u.bandwidth + 3] = 0.0
    assert np.max(np.abs(other)) == 0.0
    # mean mode maps to the mean mode: zero-mean input stays zero-mean
    assert u.coefficient(0) == 0.0


def test_scale_map_domain_errors():
    v = random_field(2.0, 4, seed=17)
    with pytest.raises(ValueError):
        scale_map(v, 0.25, 0.25, 1.0)  # period != delta/lam
    with pytest.raises(ValueError):
        scale_map(random_field(0.5, 4, seed=18), 0.4, 0.2, 1.0)  # lam > delta


# ---------------------------------------------------------------------------
# Galilean boost

def test_galilean_boost_identity_and_refusal():
    f = random_field(2.0, 6, seed=19)
    assert coeff_gap(galilean_boost(f, 0, 0.7), f) == 0.0
    with pytest.raises(ValueError):
        galilean_boost(f, 3, 0.1)


def test_galilean_boost_is_isometry_and_shifts_modes():
    # keep the support two modes below the band edge so the shift stays inside
    f = nl.enlarge_band(random_field(2.0, 4, seed=20, l2=1.0), 6)
    out = galilean_boost(f, 4, 0.13)
    assert abs(l2_norm(out) - 1.0) <= 1e-12
    coeffs = np.zeros(13, dtype=complex)
    c = 0.6 - 0.2j
    coeffs[6 + 3] = c
    wave = SpectralField(2.0, coeffs)
    boosted = galilean_boost(wave, 4, 0.13)
    nonzero = np.nonzero(np.abs(boosted.coeffs) > 1e-14)[0]
    assert list(nonzero) == [boosted.bandwidth + 5]
    assert abs(abs(boosted.coefficient(5)) - abs(c)) <= 1e-14


def test_galilean_boost_maps_trajectories_to_trajectories():
    # boosting the initial data and evolving agrees with evolving first and
    # boosting the result at the evolved time
    eq = EquationSpec.cubic_nls()
    cfg = StepperConfig(dt=1e-4)
    f = nl.enlarge_band(random_field(2.0, 4, seed=21, l2=0.5), 12)
    t = 0.1
    evolve_then_boost = galilean_boost(split_step_evolve(f, eq, t, cfg), 4, t)
    boost_then_evolve = split_step_evolve(galilean_boost(f, 4, 0.0), eq, t, cfg)
    assert l2_gap(evolve_then_boost, boost_then_evolve) <= 1e-6


# ---------------------------------------------------------------------------
# low-order Duhamel expansion

def test_picard_time_zero_and_single_mode():
    f = random_field(1.0, 5, seed=22)
    assert coeff_gap(picard_expansion(f, EquationSpec.cubic_nls(), 0.0), f) <= 1e-15
    c = 0.8 + 0.1j
    coeffs = np.zeros(7, dtype=complex)
    coeffs[3 + 2] = c
    mode = SpectralField(1.0, coeffs)
    t = 0.2
    out = picard_expansion(mode, EquationSpec.cubic_nls(), t)
    assert abs(out.coefficient(2) - (c + 1j * t * abs(c) ** 2 * c)) <= 1e-14


def test_picard_budget_refusal_reports_sizes():
    f = random_field(1.0, 40, seed=23)
    with pytest.raises(BudgetExceededError) as err:
        picard_expansion(f, EquationSpec.cubic_nls(), 0.1, budget=10)
    assert err.value.budget == 10
    assert err.value.required > 10


def test_picard_refuses_the_wick_equation():
    with pytest.raises(ValueError, match="no Wick form"):
        picard_expansion(random_field(1.0, 5, seed=24), EquationSpec.wick_nls(), 0.1)


@st.composite
def _supports(draw):
    """(bandwidth, sorted support): a single mode, gapped, all-negative, or
    touching +-bandwidth."""
    band = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("single", "gapped", "negative", "edge")))
    if kind == "single":
        return band, [draw(st.integers(-band, band))]
    lo = -band
    hi = -1 if kind == "negative" else band
    modes = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12))
    if kind == "edge":
        modes += draw(st.sampled_from(([band], [-band], [-band, band])))
    return band, sorted(set(modes))


def test_picard_budget_counts_the_summed_triples(monkeypatch):
    def required(phi, budget=0):
        with pytest.raises(BudgetExceededError) as err:
            picard_expansion(phi, EquationSpec.cubic_nls(), 0.1, budget=budget)
        return err.value.required

    def triples(phi):
        k = int(np.count_nonzero(phi.coeffs))
        assert len(np.triu_indices(k)[0]) * k == k * k * (k + 1) // 2
        return k * k * (k + 1) // 2

    @settings(max_examples=300, deadline=None, database=None)
    @given(_supports())
    def counts(drawn):
        band, modes = drawn
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[np.array(modes) + band] = 0.6 - 0.2j
        phi = SpectralField(1.0, coeffs)
        assert required(phi) == triples(phi)
        # exactly at the budget: runs
        picard_expansion(phi, EquationSpec.cubic_nls(), 0.1, budget=triples(phi))

    counts()

    data = {
        ("crit_half", 128): nl.build_two_block_data("crit_half", 128),
        ("crit_half", 256): nl.build_two_block_data("crit_half", 256),
        ("frac_crit", 256): nl.build_two_block_data("frac_crit", 256, s=-1.0, theta=0.1),
        ("frac_crit", 512): nl.build_two_block_data("frac_crit", 512, s=-1.0, theta=0.1),
    }
    for key in (("crit_half", 256), ("frac_crit", 256)):
        phi = data[key]
        assert required(phi) == triples(phi)
        assert required(phi, budget=triples(phi) - 1) == triples(phi)

    # the default budget keeps the C08 refusal frontier: (|S|, runs)
    frontier = {("crit_half", 128): (230, True), ("crit_half", 256): (462, False),
                ("frac_crit", 256): (294, True), ("frac_crit", 512): (550, False)}
    for key, (size, runs) in frontier.items():
        phi = data[key]
        assert np.count_nonzero(phi.coeffs) == size
        if runs:
            picard_expansion(phi, EquationSpec.cubic_nls(), 0.1)
        else:
            assert required(phi, budget=nl.evolution.PICARD_BUDGET) == triples(phi)

    # a refusal does no O(|S|^2) work: neither the pair sum nor its index arrays
    def forbidden(*args, **kwargs):
        raise AssertionError("O(|S|^2) work before the budget check")

    monkeypatch.setattr(nl.evolution, "_order_one_coeffs", forbidden)
    monkeypatch.setattr(np, "triu_indices", forbidden)
    for key in (("crit_half", 256), ("frac_crit", 512)):
        with pytest.raises(BudgetExceededError):
            picard_expansion(data[key], EquationSpec.cubic_nls(), 0.1)


def _picard_reference(phi, t, alpha, dispersion_coeff, dispersion_sign):
    """Brute-force first Picard iterate over all ordered triples, and a
    per-mode rounding bound on the distance of the fast sum from it."""
    nz = phi.coeffs != 0.0
    n, c = phi.modes()[nz], phi.coeffs[nz]
    ob = max(3 * int(np.max(np.abs(n))), phi.bandwidth)
    s = dispersion_sign * dispersion_coeff * (2.0 * np.pi / phi.period) ** (2.0 * alpha)
    u = np.finfo(float).eps / 2.0

    def power(k):
        return np.abs(k).astype(float) ** (2.0 * alpha)

    # The fast sum forms exp(-i Phi t) from four phase-table entries, each
    # rounded by about u (1 + |s P t|), and three products: within
    # 10 u (1 + |s| t max P).  The reference forms Phi first, whose P terms
    # round by u P when alpha != 1: within 6 u (1 + |s| t max P).  Their
    # difference delta reaches i K = (1 - exp(-i Phi t)) / Phi divided by
    # |Phi|, at least 1e-4 / t outside the series branch (inside it the two
    # differ only by the rounding of Phi, a smaller error).  Each sum also
    # adds its count of terms, each at most |c1 c2 c3| t, with relative
    # rounding u per add.
    delta = 16.0 * u * (1.0 + abs(s) * t * float(ob) ** (2.0 * alpha))
    first = np.zeros(2 * ob + 1, dtype=complex)
    phase_err = np.zeros(2 * ob + 1)
    size = np.zeros(2 * ob + 1)
    count = np.zeros(2 * ob + 1)
    small_seen = big_seen = False
    n1, n3 = np.meshgrid(n, n, indexing="ij")
    c13 = np.outer(c, c)
    for n2, c2 in zip(n, c):
        out = n1 - n2 + n3 + ob
        ph = s * (power(out - ob) - power(n1) + power(n2) - power(n3))
        amp = np.abs(c13 * c2)
        np.add.at(first, out, 1j * c13 * np.conj(c2) * duhamel_kernel(ph, t))
        np.add.at(phase_err, out, amp * delta * t / np.maximum(np.abs(ph * t), 1e-4))
        np.add.at(size, out, amp * t)
        np.add.at(count, out, 1.0)
        small_seen |= bool(np.any(np.abs(ph * t) < 1e-4))
        big_seen |= bool(np.any(np.abs(ph * t) >= 1e-4))
    want = nl.enlarge_band(phi, ob).coeffs + first
    tol = phase_err + 2.0 * (count + 4.0) * u * size
    return want, tol, (small_seen, big_seen)


def test_picard_pair_sum_matches_brute_force():
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(_supports(), st.integers(0, 2**32 - 1),
           st.sampled_from((1.0, 0.75, 1.5)), st.sampled_from((-1, 1)),
           st.sampled_from((0.0, 1e-3, 1.0)), st.sampled_from((0.0, 1e-7, 1e-5, 1e-3, 0.3)),
           st.sampled_from((1.0, 2.5)))
    def matches(drawn, seed, alpha, sign, coeff, t, period):
        band, modes = drawn
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[np.array(modes) + band] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        phi = SpectralField(period, coeffs)
        got = picard_expansion(phi, EquationSpec(alpha, coeff, sign), t)
        want, tol, branches = _picard_reference(phi, t, alpha, coeff, sign)
        seen.update(k for k, hit in zip(("series", "closed form"), branches) if hit)
        assert got.coeffs.shape == want.shape
        assert np.all(np.abs(got.coeffs - want) <= tol)

    matches()
    # the draws reach both sides of the |Phi t| < 1e-4 branch
    assert seen == {"series", "closed form"}

    # the inflate data: crit_half two-block data at N = 64 and its T_N
    phi = nl.build_two_block_data("crit_half", 64)
    t = nl.inflation_time("crit_half", 64, -0.5).T_N
    got = picard_expansion(phi, EquationSpec.cubic_nls(), t)
    want, _, _ = _picard_reference(phi, t, 1.0, 1.0, 1)
    first = want - nl.enlarge_band(phi, got.bandwidth).coeffs
    assert np.max(np.abs(got.coeffs - want)) <= 1e-12 * np.max(np.abs(first))


def test_picard_on_padded_fields_matches_the_unpadded_field():
    # the output band is 3 max|n| over the support, widened to the input
    # band: padding the input must not change a coefficient
    for band, modes in ((10, [0, 1]), (3, [0]), (40, [-2, 5])):
        top = max(abs(m) for m in modes)
        tight_band = max(1, top)  # a field holds at least the modes -1..1
        coeffs = np.zeros(2 * tight_band + 1, dtype=complex)
        coeffs[np.array(modes) + tight_band] = 0.6 - 0.2j
        tight = SpectralField(1.0, coeffs)
        eq = EquationSpec.cubic_nls()
        padded = picard_expansion(nl.enlarge_band(tight, band), eq, 0.1)
        assert padded.bandwidth == max(3 * top, band)
        assert coeff_gap(padded, picard_expansion(tight, eq, 0.1)) <= 1e-15


def test_picard_first_iterate_within_oscillatory_bound():
    f = random_field(1.0, 6, seed=8, l2=0.5, decay=1.5)
    t = 0.3
    p1 = picard_expansion(f, EquationSpec.cubic_nls(), t)
    base = xi_term(f, 1, t)
    m = f.bandwidth
    bw = max(p1.bandwidth, base.bandwidth, m)
    got = nl.enlarge_band(p1, bw).coeffs
    ref = nl.enlarge_band(base, bw).coeffs + nl.enlarge_band(f, bw).coeffs
    c = f.coeffs
    bound = np.zeros(2 * bw + 1)
    scale = (2.0 * np.pi) ** 2
    for n1 in range(-m, m + 1):
        for n2 in range(-m, m + 1):
            for n3 in range(-m, m + 1):
                n = n1 - n2 + n3
                phi = scale * phase_weight(n, n1, n2, n3, 1.0)
                amp = abs(c[n1 + m]) * abs(c[n2 + m]) * abs(c[n3 + m])
                bound[n + bw] += amp * min(2.0 * t, t * t * abs(phi))
    excess = np.abs(got - ref) - bound
    assert float(np.max(excess)) <= 1e-12


def test_picard_tracks_interaction_picture_solution():
    n0 = 64
    phi = nl.build_two_block_data("crit_half", n0)
    t = nl.inflation_time("crit_half", n0, -0.5).T_N
    eq = EquationSpec.cubic_nls()
    p1 = picard_expansion(phi, eq, t)
    moved = interaction_picture(split_step_evolve(phi, eq, t, StepperConfig(dt=t / 200.0)), eq, t)
    bw = max(p1.bandwidth, moved.bandwidth)
    a = nl.enlarge_band(p1, bw)
    b = nl.enlarge_band(moved, bw)
    err = float(np.max(np.abs(a.coeffs - b.coeffs)))
    budget = nl.wiener_error_budget(phi, t, n0)
    assert err <= budget


# ---------------------------------------------------------------------------
# flow properties on random small bands
#
# Every tolerance below is a bound derived from the step size and the unit
# roundoff u.  Two facts carry them.
#
# Sup bound: the Wiener norm A = sum |c_n| bounds sup |u| and grows at most
# as A' = A^3, since the cubic term's Wiener norm is at most A^3 and neither
# the free rotation nor the band projection raises it.  A split step does
# the same (A -> A exp(dt A^2), which the ODE dominates; aliasing only folds
# coefficients together).  So S = A0^2 / (1 - 2 t A0^2) bounds sup |u|^2 up
# to time t.  With the weight exp(sigma |n|) the same argument bounds the
# coefficients beyond |n| = R by exp(-sigma R) times the weighted norm.
#
# Split-step mass: the free half-steps are unitary and the pointwise rotation
# keeps the grid mass, so mass leaves only through the band projection.  Per
# step it drops part of (exp(i dt |u|^2) - 1) u, whose mass is at most
# (dt S)^2 times the field's: over t/dt steps the relative loss is at most
# t dt S^2.

U = np.finfo(float).eps / 2.0


def _sup_sq_bound(f, t):
    a0 = float(np.sum(np.abs(f.coeffs))) ** 2
    assert 2.0 * t * a0 < 1.0
    return a0 / (1.0 - 2.0 * t * a0)


def _roundoff(steps, grid):
    """Relative mass rounding of `steps` steps, each two FFTs of `grid`
    points (about u log2(grid) each on the norm) and four pointwise
    products; mass doubles a norm's relative error."""
    return 2.0 * steps * (2.0 * math.log2(grid) + 4.0) * U


@st.composite
def _small_band(draw):
    period = draw(st.sampled_from((1.0, 2.0, 4.0)))
    band = draw(st.integers(1, 8))
    l2 = draw(st.floats(0.05, 0.4))
    return random_field(period, band, seed=draw(st.integers(0, 2**32 - 1)), l2=l2)


_SPECS = (EquationSpec.cubic_nls(), EquationSpec.wick_nls(), EquationSpec.fractional(0.75),
          EquationSpec(dispersion_sign=-1))


@settings(max_examples=40, deadline=None, database=None)
@given(_small_band(), st.sampled_from(_SPECS), st.floats(0.01, 0.05), st.integers(1, 40))
def test_split_step_loses_mass_only_to_its_band(f, eq, t, steps):
    dt = t / steps
    out = split_step_evolve(f, eq, t, StepperConfig(dt=dt))
    loss = 1.0 - (l2_norm(out) / l2_norm(f)) ** 2
    rnd = _roundoff(steps, next_fast_len(3 * (2 * f.bandwidth + 1)))
    assert -rnd <= loss <= t * dt * _sup_sq_bound(f, t) ** 2 + rnd


@settings(max_examples=40, deadline=None, database=None)
@given(_small_band(), st.floats(0.0, 1.0), st.integers(0, 16), st.booleans())
def test_ode_exact_keeps_mass_with_its_tail(f, t, extra, wick):
    m, m_out = f.bandwidth, f.bandwidth + extra
    out = ode_exact_evolve(f, t, wick=wick, out_bandwidth=m_out)
    mass = l2_norm(f) ** 2
    rnd = _roundoff(1, next_fast_len(max(8 * (2 * m + 1), 2 * (2 * m_out + 1))))
    assert abs(l2_norm(out.field) ** 2 + out.tail_mass - mass) <= rnd * mass


@settings(max_examples=40, deadline=None, database=None)
@given(_small_band(), st.floats(0.01, 0.05), st.integers(1, 40))
def test_gauge_maps_the_plain_flow_to_the_wick_flow(f, t, steps):
    # A Wick step is the plain step times exp(-2 i dt m_k), m_k the mean
    # |u|^2 entering step k; the gauge applies exp(-2 i t m(t)) at the end.
    # m falls by at most m(0) t dt S^2 in all, so the phases differ by at
    # most 2 t m(0) t dt S^2.  Rounding the phases costs u t (S + 4 m(0)).
    # The closed form shifts by the input's mean |u|^2 and the gauge by the
    # output's, which is tail_mass / L lower.
    dt = t / steps
    cfg = StepperConfig(dt=dt)
    norm, msq, sup = l2_norm(f), nl.mean_and_l2(f)[1], _sup_sq_bound(f, t)
    plain = split_step_evolve(f, EquationSpec.cubic_nls(), t, cfg)
    wick = split_step_evolve(f, EquationSpec.wick_nls(), t, cfg)
    phase = 2.0 * t * msq * t * dt * sup**2 + U * t * (sup + 4.0 * msq)
    rnd = 2.0 * _roundoff(steps, next_fast_len(3 * (2 * f.bandwidth + 1)))
    assert l2_gap(gauge_transform(plain, t), wick) <= norm * (phase + rnd)

    plain, wick = ode_exact_evolve(f, t), ode_exact_evolve(f, t, wick=True)
    phase = 2.0 * t * plain.tail_mass / f.period + U * t * (sup + 4.0 * msq)
    rnd = 2.0 * _roundoff(1, next_fast_len(8 * (2 * f.bandwidth + 1)))
    assert l2_gap(gauge_transform(plain.field, t), wick.field) <= norm * (phase + rnd)


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 2), st.sampled_from((-2, -1, 1, 2)), st.sampled_from((1.0, 2.0, 4.0)),
       st.floats(0.05, 0.4), st.integers(0, 2**32 - 1), st.floats(0.01, 0.05), st.integers(1, 40))
def test_galilean_boost_commutes_with_split_step(radius, shift, period, l2, seed, t, steps):
    # The two runs keep different windows, |n| <= M in the data's frame and
    # |n + shift| <= M in the boosted one, so they differ only through the
    # coefficients beyond R = M - 2 |shift|; grid aliasing reaches even
    # fewer.  Starting from radius rho = radius + |shift| in either frame,
    # sigma with 4 t exp(2 sigma rho) A0^2 = 1 keeps the weighted norm below
    # (2 t)^(-1/2), so those coefficients stay below exp(-sigma R) (2 t)^(-1/2).
    # Through the cubic term's Lipschitz growth over t (at most a factor of
    # 8 for t S <= 1/2) and the final boost's own cut, the runs part by at
    # most 16 sqrt(L) exp(-sigma R) (2 t)^(-1/2); M is chosen to put that
    # below u |f|.  What is left is rounding: the transforms, and each mode's
    # phase angle, at most (2 pi (M + |shift|) / L)^2 t, rounded by u a few
    # times over.
    data = random_field(period, radius, seed=seed, l2=l2)
    norm, a0 = l2_norm(data), float(np.sum(np.abs(data.coeffs))) ** 2
    rho = radius + abs(shift)
    sigma = math.log(1.0 / (4.0 * t * a0)) / (2.0 * rho)
    cut = math.log(16.0 * math.sqrt(period) / (math.sqrt(2.0 * t) * U * norm)) / sigma
    m = 2 * abs(shift) + math.ceil(cut)
    f = nl.enlarge_band(data, m)
    eq, cfg = EquationSpec.cubic_nls(), StepperConfig(dt=t / steps)
    evolve_then_boost = galilean_boost(split_step_evolve(f, eq, t, cfg), 2 * shift, t)
    boost_then_evolve = split_step_evolve(galilean_boost(f, 2 * shift, 0.0), eq, t, cfg)
    angle = (2.0 * np.pi * (m + abs(shift)) / period) ** 2 * t
    tol = norm * (U + 2.0 * _roundoff(steps, next_fast_len(3 * (2 * m + 1))) + 8.0 * U * angle)
    assert l2_gap(evolve_then_boost, boost_then_evolve) <= tol
