"""Time evolution: exact phase-rotation flow, split-step and rk4 integrators,
symmetry maps, and the low-order expansion of the Duhamel solution."""
from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import next_fast_len

import nlslab as nl
from nlslab import (
    BlowupError,
    BudgetExceededError,
    EquationSpec,
    SpectralField,
    StepperConfig,
    analyze,
    free_rotation_rates,
    galilean_boost,
    gauge_transform,
    interaction_picture,
    ode_exact_evolve,
    picard_expansion,
    rk4_spectral_evolve,
    sobolev_norm,
    split_step_evolve,
    split_step_stack,
    synthesize,
    xi_term,
)
from nlslab.evolution import split_grid_size

from _helpers import (coeff_gap, duhamel_kernel, l2_gap, l2_norm, picard_bound, picard_reference,
                      random_field)


# ---------------------------------------------------------------------------
# specs and steppers

def test_equation_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec(alpha=0.0)
    with pytest.raises(ValueError):
        EquationSpec(dispersion_coeff=-1.0)
    with pytest.raises(ValueError):
        EquationSpec(dispersion_sign=2)
    small = EquationSpec.small_dispersion(0.1, 1.0)
    assert abs(small.dispersion_coeff - 0.01) <= 1e-17


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)


def test_signatures_the_benchmark_tracer_reads():
    # benchmarks/tracer.py wraps each function its TRACED table names, and
    # reads integrator arguments by position or name: _split_step_notes
    # takes t and cfg.dt from split_step_evolve's 3rd and 4th, _picard_notes
    # takes phi from picard_expansion's 1st.  Renaming or moving them would
    # break its trace mode without any other test failing.
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TRACED.items():
        for name in names:
            owner = importlib.import_module(f"nlslab.{module}")
            assert callable(getattr(owner, name, None)), f"{module}.{name}"
    assert callable(nl.CompactProfile.fourier_transform)  # tracer.FOURIER
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


def test_ode_exact_samples_the_data_through_synthesize(monkeypatch):
    # one synthesize call on the closed-form grid, so anything that wraps
    # torus.synthesize sees the closed form's grid
    grids = []

    def spy(field, grid_size, _fn=nl.evolution.synthesize):
        grids.append(grid_size)
        return _fn(field, grid_size)

    monkeypatch.setattr(nl.evolution, "synthesize", spy)
    f = random_field(1.0, 8, seed=3, l2=0.3)
    ode_exact_evolve(f, 1.0, out_bandwidth=40)
    assert grids == [nl.evolution.ode_grid_size(8, 40)]


def test_ode_exact_holds_one_grid_and_one_band():
    # negative_s data at N = 256 on the surrogate circle L = 32, on the out
    # band 5M inflate keeps there: the call holds its G-point grid and the
    # gathered out band, which the field takes without a copy.  The slack
    # is the rotation's scratch (24 B per chunk point) and 64 KiB; a second
    # copy of the band (2.6 MB) would exceed it
    sched = nl.regime_parameters("negative_s", 256, -0.25)
    phi = nl.build_two_block_data(sched, 32.0)
    m_out = 5 * phi.bandwidth
    g = nl.evolution.ode_grid_size(phi.bandwidth, m_out)
    assert g == 330000
    ode_exact_evolve(phi, sched.T_N, out_bandwidth=m_out)  # builds the cached grid plan
    tracemalloc.start()
    try:
        ode_exact_evolve(phi, sched.T_N, out_bandwidth=m_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (g + 2 * m_out + 1) * 16 + 24 * nl.evolution._ROTATE_CHUNK + 2**16


def test_ode_exact_parameter_validation():
    f = random_field(1.0, 4, seed=4)
    with pytest.raises(ValueError):
        ode_exact_evolve(f, 0.1, out_bandwidth=3)


def test_ode_exact_blowup_diagnostic():
    # |u|^2 t overflows on this bump; the closed form must refuse it rather
    # than return NaN coefficients, and let no RuntimeWarning escape
    bump = nl.periodize(nl.smooth_bump(1e200, 2.0), 32.0, 256)
    with pytest.raises(BlowupError, match="non-finite coefficients in the closed form at t = 1.0"):
        ode_exact_evolve(bump, 1.0)


# ---------------------------------------------------------------------------
# the unit phase exp(i angle) from the half-angle tangent

def _phase_angles():
    """Log-spaced angles from 1e-300 to 2^52, 0, pi/2, pi, and the doubles
    next to odd multiples of pi, where tan(angle / 2) is about 1e16; both
    signs."""
    odd = np.pi * np.array([1.0, 3.0, 5.0, 101.0, 100001.0, 2.0**40 + 1.0])
    a = np.concatenate([np.geomspace(1e-300, 2.0**52, 2000), [0.0, np.pi / 2, np.pi],
                        odd, np.nextafter(odd, 0.0), np.nextafter(odd, np.inf)])
    return np.concatenate([a, -a])


def test_unit_phase_matches_cos_and_sin():
    angle = _phase_angles()
    out = np.empty(angle.size, dtype=complex)
    tau = angle.copy()
    assert nl.evolution._unit_phase(tau, out) is out
    assert np.max(np.abs(out.real - np.cos(angle))) <= 4.5e-16
    assert np.max(np.abs(out.imag - np.sin(angle))) <= 4.5e-16
    assert np.max(np.abs(np.abs(out) - 1.0)) <= 4.5e-16
    assert np.array_equal(tau, np.tan(angle / 2.0))  # angle is the scratch of tau
    assert np.array_equal(nl.evolution._unit_phase(angle.reshape(2, -1).copy()), out.reshape(2, -1))


def test_unit_phase_of_a_non_finite_angle_is_not_finite():
    with np.errstate(invalid="ignore"):
        out = nl.evolution._unit_phase(np.array([np.nan, np.inf, -np.inf, 1.0]))
    assert not np.isfinite(out[:3]).any() and np.isfinite(out[3])


def test_rotate_in_place_with_and_without_the_wick_shift():
    rng = np.random.default_rng(44)
    u0 = rng.normal(size=(3, 2, 50)) + 1j * rng.normal(size=(3, 2, 50))
    per_row = np.array([0.5, 2.0, 7.0])[:, None, None]
    for shift in (None, 1.25, per_row):
        u = u0.copy()
        nl.evolution._rotate_in_place(u, 0.3, shift, np.empty(u.shape),
                                      np.empty(u.shape, dtype=complex))
        want = u0 * np.exp(1j * 0.3 * (np.abs(u0) ** 2 - (0.0 if shift is None else shift)))
        assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(u0)), shift


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
    assert coeff_gap(interaction_picture(f, EquationSpec(), 0.0), f) == 0.0
    eq = EquationSpec(alpha=0.75, dispersion_coeff=1.3, dispersion_sign=-1)
    moved = interaction_picture(f, eq, 0.37)
    for s, homogeneous in ((0.0, False), (1.0, False), (-0.5, True)):
        assert abs(sobolev_norm(moved, s, homogeneous)
                   - sobolev_norm(f, s, homogeneous)) <= 1e-12
    for p in (1.0, 2.0, np.inf):
        assert abs(nl.fourier_lebesgue_norm(moved, 0.3, p)
                   - nl.fourier_lebesgue_norm(f, 0.3, p)) <= 1e-12
    back = interaction_picture(moved, eq, -0.37)
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
    out = split_step_evolve(f, EquationSpec(), 0.5, StepperConfig(dt=1e-2))
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
    eq = EquationSpec()
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
    eq = EquationSpec(dispersion_coeff=0.0)
    exact = ode_exact_evolve(f, 1.0, out_bandwidth=16).field
    for dt in (0.1, 0.025, 0.005):
        stepped = split_step_evolve(f, eq, 1.0, StepperConfig(dt=dt))
        assert l2_gap(stepped, exact) <= 1e-10


def test_split_step_blowup_diagnostic():
    big = SpectralField(1.0, np.full(9, 1e200, dtype=complex))
    with pytest.raises(BlowupError):
        split_step_evolve(big, EquationSpec(), 0.01, StepperConfig(dt=0.01))


def test_split_step_stack_rows_equal_one_row_runs(monkeypatch):
    # every operation of the stacked loop acts on each row alone, so each
    # row is bitwise its own split_step_evolve: plain and Wick rows, and
    # dispersions that differ in size, order and sign, in one loop, in
    # loops of two rows, and one row per loop when the cap is below one row
    f = random_field(4.0, 32, seed=41, l2=1.5, decay=0.5)
    eqs = [EquationSpec.small_dispersion(0.05), EquationSpec(wick=True),
           EquationSpec.small_dispersion(0.2),
           EquationSpec(alpha=0.75, dispersion_coeff=0.3, dispersion_sign=-1, wick=True),
           EquationSpec(dispersion_coeff=0.0)]
    cfg = StepperConfig(dt=0.3 / 40)
    want = [split_step_evolve(f, eq, 0.3, cfg).coeffs for eq in eqs]
    strang, loops = nl.evolution._strang_rows, []

    def counted(field, rows, *args):
        loops.append(len(rows))
        return strang(field, rows, *args)

    monkeypatch.setattr(nl.evolution, "_strang_rows", counted)
    g = split_grid_size(f.bandwidth)
    for cap, sizes in ((nl.evolution.SPLIT_STACK_POINTS, [5]), (2 * g, [2, 2, 1]),
                       (g - 1, [1, 1, 1, 1, 1])):
        monkeypatch.setattr(nl.evolution, "SPLIT_STACK_POINTS", cap)
        loops.clear()
        got = split_step_stack(f, eqs, 0.3, cfg)
        assert loops == sizes
        assert all(np.array_equal(v.coeffs, w) for v, w in zip(got, want, strict=True))


def test_split_step_stack_refusals_and_time_zero():
    f = random_field(1.0, 4, seed=42, l2=0.5)
    eqs = [EquationSpec(), EquationSpec(wick=True)]
    assert [v is f for v in split_step_stack(f, eqs, 0.0, StepperConfig(dt=0.1))] == [True, True]
    with pytest.raises(ValueError, match="t must be >= 0"):
        split_step_stack(f, eqs, -1.0, StepperConfig(dt=0.1))
    big = SpectralField(1.0, np.full(9, 1e200, dtype=complex))
    with pytest.raises(BlowupError, match="non-finite coefficients at step size 0.01"):
        split_step_stack(big, eqs, 0.01, StepperConfig(dt=0.01))


# Mode 1 alone on the unit circle (band 1): under dispersion_coeff c its
# largest rate is c (2 pi)^2, and (6 pi)^2 c on Picard's output band 3.
# Each integrator runs at t = 1 with max|rate| t just below 2^52, and
# refuses it just above, where the phase mod 2 pi keeps no correct digit.
@pytest.mark.parametrize("name, top_mode, run", [
    ("split-step", 1, lambda f, eq: split_step_evolve(f, eq, 1.0, StepperConfig(dt=1.0))),
    ("Lawson RK4", 1, lambda f, eq: rk4_spectral_evolve(f, eq, 1.0, StepperConfig(dt=1.0))),
    ("interaction picture", 1, lambda f, eq: interaction_picture(f, eq, 1.0)),
    ("first Picard iterate", 3, lambda f, eq: picard_expansion(f, eq, 1.0)),
], ids=["split_step", "rk4", "interaction_picture", "picard"])
def test_every_integrator_refuses_a_free_rotation_that_keeps_no_digit(name, top_mode, run):
    field = SpectralField(1.0, np.array([0.0, 0.0, 0.5], dtype=complex))
    coeff = 2.0**52 / (2.0 * np.pi * top_mode) ** 2
    below = run(field, EquationSpec(dispersion_coeff=coeff * (1.0 - 1e-9)))
    assert np.isfinite(below.coeffs).all()
    with pytest.raises(ValueError, match=rf"^{name} at t = 1: max\|rate\| \|t\| = 4\.504e\+15 "
                                         r"reaches 2\^52, where the phase rate t mod 2 pi keeps "
                                         r"no correct digit$"):
        run(field, EquationSpec(dispersion_coeff=coeff * (1.0 + 1e-9)))


@pytest.mark.parametrize("name, run", [
    ("split-step", lambda f, eq: split_step_evolve(f, eq, 1.0, StepperConfig(dt=1.0))),
    ("Lawson RK4", lambda f, eq: rk4_spectral_evolve(f, eq, 1.0, StepperConfig(dt=1.0))),
    ("interaction picture", lambda f, eq: interaction_picture(f, eq, 1.0)),
], ids=["split_step", "rk4", "interaction_picture"])
def test_every_integrator_refuses_free_rotation_rates_that_overflow(name, run):
    # (2 pi)^(2 alpha) overflows at alpha = 1e300 and 0 times it is NaN: the
    # call is refused by its equation, not as a blow-up of the data.  Picard
    # refuses the same equation earlier, when it sizes its quadrature.
    field = SpectralField(1.0, np.array([0.0, 0.0, 0.5], dtype=complex))
    eq = EquationSpec(alpha=1e300, dispersion_coeff=0.0)
    with pytest.raises(ValueError, match=rf"^{name} at t = 1: the free rotation rates at "
                                         r"alpha = 1e\+300 and dispersion coefficient 0 are "
                                         r"not finite: "):
        run(field, eq)
    with pytest.raises(ValueError, match=r"^first Picard iterate at t = 1: max\|Phi\| t = inf is "
                                         r"not finite at alpha = 1e\+300 and dispersion "
                                         r"coefficient 0$"):
        picard_expansion(field, eq, 1.0)


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
    g = split_grid_size(m)
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
    g = split_grid_size(24)
    padded = nl.enlarge_band(data, 24)  # 3x the data band, as lab pads split-step
    direct = _direct_synthesis(padded, g)
    assert np.max(np.abs(synthesize(padded, g) - direct)) <= 1e-12 * np.max(np.abs(direct))
    for f in (data, padded):
        for step in (cfg, StepperConfig(dt=0.2)):  # one step: no full-step multiply
            want = _reference_split_step(f, eq, 0.2, step)
            got = split_step_evolve(f, eq, 0.2, step).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    mass = l2_norm(data) ** 2
    for out_band in (8, 24, 136):
        want, want_tail = _reference_ode(data, 0.7, wick, out_band)
        got = ode_exact_evolve(data, 0.7, wick=wick, out_bandwidth=out_band)
        assert np.max(np.abs(got.field.coeffs - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(got.tail_mass - want_tail) <= 1e-12 * want_tail + 1e-20 * mass


@pytest.mark.parametrize("regime,params", [("crit_half", dict(s=-0.5)),
                                            ("frac_crit", dict(s=-1.0, theta=0.1))])
def test_split_step_matches_the_reference_loop_on_inflates_band(regime, params):
    # inflate's padded band 3 n_max at N = 256: the loop with one full-step
    # multiply between rotations against the textbook loop with two half
    # steps, at inflate's step counts, to 1e-13 of ||phi||_FLinf (measured
    # 9e-15 at 25 steps to 4.5e-14 at 100)
    N = 256
    cfg = nl.InflateConfig(regime=regime, sweep=(float(N),), **params)
    sched = nl.regime_parameters(regime, N, cfg.s, cfg.theta)
    phi = nl.build_two_block_data(sched)
    wide = nl.enlarge_band(phi, 3 * phi.bandwidth)
    scale = float(np.max(np.abs(phi.coeffs)))
    for steps in (25, 50, 100):
        step = StepperConfig(dt=sched.T_N / steps)
        want = _reference_split_step(wide, EquationSpec(), sched.T_N, step)
        got = split_step_evolve(wide, EquationSpec(), sched.T_N, step).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, steps


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
    for eq in (EquationSpec(), EquationSpec(wick=True)):
        for n_steps in (4, 64):
            built = 0
            split_step_evolve(f, eq, 0.1, StepperConfig(dt=0.1 / n_steps))
            counts.append(built)
    assert len(set(counts)) == 1 and counts[0] <= 2, counts


def test_split_step_grid_matches_the_wider_grid(monkeypatch):
    # The split-step grid of 2 (2M + 1) points holds the cubic term without
    # aliasing; only the rotation's (dt |u|^2)^2 terms and higher fold into
    # the band.  Against the wider 3 (2M + 1) grid, which holds the cubic
    # term outright, that fold is roundoff on inflate's padded band and a
    # small part of the run's own error on a full-band field.
    def old_grid(m):
        return next_fast_len(3 * (2 * m + 1))

    def on_both_grids(run):
        new = run()
        with monkeypatch.context() as patch:
            patch.setattr(nl.evolution, "split_grid_size", old_grid)
            return new, run()

    eq = EquationSpec.paper()  # the equation inflate evolves
    for regime, N, params in (("crit_half", 64, dict(s=-0.5)), ("crit_half", 256, dict(s=-0.5)),
                              ("frac_crit", 128, dict(s=-1.0, theta=0.1)),
                              ("frac_crit", 256, dict(s=-1.0, theta=0.1))):
        cfg = nl.InflateConfig(regime=regime, sweep=(float(N),), **params)
        sched = nl.regime_parameters(regime, N, cfg.s, cfg.theta)
        phi = nl.build_two_block_data(sched)
        wide = nl.enlarge_band(phi, 3 * phi.bandwidth)  # lab's padded band
        scale = float(np.max(np.abs(phi.coeffs)))
        # the ladder runs 3, 6, 12 and 24 steps here (lab.SPLIT_STEP_START
        # on); the 3-step run enters only the observed order, and its fold,
        # 2e-12 of ||phi||_FLinf at crit_half N = 64 (16 times the 6-step
        # run's), moves that order by 2e-12; roundoff in differences of
        # 1e-6 moves it by up to 3e-10 at frac_crit
        for steps in (6, 12, 24):
            cfg_dt = StepperConfig(dt=sched.T_N / steps)
            new, old = on_both_grids(lambda: split_step_evolve(wide, eq, sched.T_N, cfg_dt))
            assert coeff_gap(new, old) <= 1e-12 * scale, (regime, N, steps)
        new, old = on_both_grids(
            lambda: nl.lab._split_step_on_tolerance(phi, eq, sched.T_N, N))
        assert new.steps == old.steps, (regime, N)
        assert abs(new.order - old.order) <= 1e-9, (regime, N)
        assert coeff_gap(new.field, old.field) <= 1e-12 * scale, (regime, N)

    t, cfg_dt = 0.2, StepperConfig(dt=5e-3)
    for eq in (EquationSpec(), EquationSpec(alpha=0.75)):
        for seed in (31, 32, 33, 34):
            for l2 in (0.5, 2.0):
                f = random_field(2.5, 8, seed=seed, l2=l2)
                ref = split_step_evolve(f, eq, t, StepperConfig(dt=t / 6400))
                new, old = on_both_grids(lambda: split_step_evolve(f, eq, t, cfg_dt))
                assert coeff_gap(new, old) <= 0.2 * coeff_gap(new, ref), (eq, seed, l2)


# ---------------------------------------------------------------------------
# rk4 integrator

def test_rk4_zero_field_stays_zero():
    f = SpectralField(1.0, np.zeros(9, dtype=complex))
    out = rk4_spectral_evolve(f, EquationSpec(), 0.5, StepperConfig(dt=1e-2))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_rk4_time_zero_and_negative_time():
    f = random_field(1.0, 4, seed=43, l2=0.5)
    assert rk4_spectral_evolve(f, EquationSpec(), 0.0, StepperConfig(dt=0.1)) is f
    with pytest.raises(ValueError, match="t must be >= 0"):
        rk4_spectral_evolve(f, EquationSpec(), -1.0, StepperConfig(dt=0.1))


def test_rk4_matches_exact_flow_without_dispersion():
    eq = EquationSpec(dispersion_coeff=0.0)
    for seed in range(100, 105):
        f = random_field(1.0, 64, seed=seed, l2=0.01)
        stepped = rk4_spectral_evolve(f, eq, 1.0, StepperConfig(dt=0.01))
        exact = ode_exact_evolve(f, 1.0, out_bandwidth=64).field
        assert l2_gap(stepped, exact) <= 1e-8


def test_rk4_matches_split_step_on_full_equation():
    eq = EquationSpec()
    for seed in (7001, 7002):
        f = random_field(1.0, 8, seed=seed, l2=0.3)
        a = rk4_spectral_evolve(f, eq, 0.1, StepperConfig(dt=1e-4))
        b = split_step_evolve(f, eq, 0.1, StepperConfig(dt=1e-5))
        assert l2_gap(a, b) <= 1e-6


def test_rk4_blowup_diagnostic():
    big = SpectralField(1.0, np.full(9, 1e200, dtype=complex))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowupError):
            rk4_spectral_evolve(big, EquationSpec(), 0.01, StepperConfig(dt=0.01))


def test_both_integrators_conserve_l2():
    specs = (EquationSpec(), EquationSpec(wick=True), EquationSpec(alpha=0.5))
    f = random_field(1.0, 32, seed=40, l2=1.0, decay=2.0)
    for eq in specs:
        out = split_step_evolve(f, eq, 1.0, StepperConfig(dt=1e-4))
        assert abs(l2_norm(out) - 1.0) <= 1e-10
    g = random_field(1.0, 8, seed=41, l2=0.3)
    n0 = l2_norm(g)
    for eq in specs:
        out = rk4_spectral_evolve(g, eq, 0.1, StepperConfig(dt=1e-4))
        assert abs(l2_norm(out) - n0) / n0 <= 1e-8


# ---------------------------------------------------------------------------
# Duhamel kernel

def test_duhamel_kernel_matches_closed_form():
    phis = np.array([-3.0, -1e-12, 0.0, 0.5, 40.0])
    t = 0.7
    kern = duhamel_kernel(phis, t)
    for phi, k in zip(phis, kern):
        z = phi * t
        # (1 - exp(-i phi t))/(i phi), by its Taylor series where that cancels
        if abs(z) >= 1e-4:
            want = (1.0 - np.exp(-1j * z)) / (1j * phi)
        else:
            want = t * (1.0 - 0.5j * z - z * z / 6.0)
        assert abs(k - want) <= 1e-14


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
    back = gauge_transform(gauge_transform(f, 0.41), -0.41)
    assert coeff_gap(back, f) <= 1e-14


def test_gauge_bridges_constant_trajectories():
    c = 1.0
    f = SpectralField(1.0, np.array([0, c, 0], dtype=complex))
    t = 0.3
    plain = split_step_evolve(f, EquationSpec(), t, StepperConfig(dt=1e-4))
    bridged = gauge_transform(plain, t)
    want = c * np.exp(-1j * abs(c) ** 2 * t)
    assert abs(bridged.coefficient(0) - want) <= 1e-8


def test_gauge_bridges_random_trajectories():
    f = random_field(1.0, 32, seed=12, l2=0.5, decay=1.5)
    t = 0.1
    cfg = StepperConfig(dt=1e-4)
    plain = split_step_evolve(f, EquationSpec(), t, cfg)
    wick = split_step_evolve(f, EquationSpec(wick=True), t, cfg)
    assert l2_gap(gauge_transform(plain, t), wick) <= 1e-6


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
    eq = EquationSpec()
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
    assert coeff_gap(picard_expansion(f, EquationSpec(), 0.0), f) <= 1e-15
    with pytest.raises(ValueError, match="t must be >= 0"):
        picard_expansion(f, EquationSpec(), -0.1)
    c = 0.8 + 0.1j
    coeffs = np.zeros(7, dtype=complex)
    coeffs[3 + 2] = c
    mode = SpectralField(1.0, coeffs)
    t = 0.2
    out = picard_expansion(mode, EquationSpec(), t)
    assert abs(out.coefficient(2) - (c + 1j * t * abs(c) ** 2 * c)) <= 1e-14


def test_picard_budget_refusal_reports_sizes():
    f = random_field(1.0, 40, seed=23)
    with pytest.raises(BudgetExceededError) as err:
        picard_expansion(f, EquationSpec(), 0.1, budget=10)
    assert err.value.budget == 10
    assert err.value.required > 10


def test_picard_wick_form_subtracts_the_mass_term():
    # the Wick term -2 mean|u|^2 u is a constant multiple of phi in the
    # interaction picture, so first_wick = first_plain - 2 i t sum |c_n|^2 phi
    phi = random_field(1.0, 5, seed=24)
    t = 0.1
    plain = picard_expansion(phi, EquationSpec(), t)
    wick = picard_expansion(phi, EquationSpec(wick=True), t)
    mass = float(np.sum(np.abs(phi.coeffs) ** 2))
    want = plain.coeffs - 2j * t * mass * nl.enlarge_band(phi, plain.bandwidth).coeffs
    assert wick.bandwidth == plain.bandwidth
    assert np.max(np.abs(wick.coeffs - want)) <= 2.0 * picard_bound(phi, EquationSpec(), t)


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


def _log_remainder(q, z):
    """log of the Gauss-Legendre remainder bound of picard_expansion's rule."""
    return ((2 * q + 1) * math.log(2.0) + 4.0 * math.lgamma(q + 1) + 2 * q * math.log(z / 2.0)
            - math.log(2 * q + 1) - 3.0 * math.lgamma(2 * q + 1))


def test_picard_budget_counts_nodes_times_grid_points(monkeypatch):
    def required(phi, eq=EquationSpec(), budget=0):
        with pytest.raises(BudgetExceededError) as err:
            picard_expansion(phi, eq, 0.1, budget=budget)
        return err.value.required

    @settings(max_examples=300, deadline=None, database=None)
    @given(_supports(), st.sampled_from((0.75, 1.0)))
    def counts(drawn, alpha):
        band, modes = drawn
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[np.array(modes) + band] = 0.6 - 0.2j
        phi = SpectralField(1.0, coeffs)
        eq = EquationSpec(alpha=alpha)
        n = np.array(modes)
        scale = (2.0 * np.pi) ** (2.0 * alpha)
        if alpha == 1.0:  # max|Phi| over every triple of the support, by brute force
            n1, n2, n3 = np.meshgrid(n, n, n, indexing="ij")
            z = 0.1 * scale * float(np.max(np.abs(n1**2 - n2**2 + n3**2 - (n1 - n2 + n3) ** 2)))
        else:
            z = 0.1 * scale * (1.0 + 3.0**1.5) * float(np.max(np.abs(n))) ** 1.5
        work = nl.evolution.picard_work(phi, eq, 0.1)
        # Q is the smallest count whose remainder bound is at most 1e-15
        if z > 0.0:
            assert _log_remainder(work.nodes, z) <= math.log(1e-15)
            assert work.nodes == 1 or _log_remainder(work.nodes - 1, z) > math.log(1e-15)
        else:
            assert work.nodes == 1
        out_band = max(3 * int(np.max(np.abs(n))), band)
        assert (work.out_band, work.grid_points) == (out_band, split_grid_size(out_band))
        assert required(phi, eq) == work.nodes * work.grid_points
        # exactly at the budget: runs
        if work.nodes <= nl.evolution.PICARD_MAX_NODES:
            picard_expansion(phi, eq, 0.1, budget=work.nodes * work.grid_points)

    # the budget gate alone is under test here: a zero cubic term keeps the
    # admitted runs, up to 2000 nodes each, cheap
    monkeypatch.setattr(nl.evolution, "_cubic_coeffs", lambda c, wick=False: np.zeros_like(c))
    counts()
    monkeypatch.undo()

    def data(regime, N, alpha=1.0):
        sched = nl.regime_parameters(regime, N, *((-0.5,) if regime == "crit_half" else (-1.0, 0.1)))
        return nl.build_two_block_data(sched), EquationSpec(alpha=alpha), sched.T_N

    # the default budget's frontier at T_N: crit_half runs to N = 256,
    # frac_crit theta = 0.1 at every N of the sweep
    for regime, N in (("crit_half", 256), ("frac_crit", 256), ("frac_crit", 512),
                      ("frac_crit", 1024), ("frac_crit", 2048), ("frac_crit", 4096)):
        phi, eq, t = data(regime, N)
        assert picard_expansion(phi, eq, t).bandwidth == nl.evolution.picard_work(phi, eq, t).out_band
    refused = [data("crit_half", 512), data("crit_half", 64, alpha=1.5)]

    # a refusal runs no FFT: the cubic term is never evaluated
    def forbidden(*args, **kwargs):
        raise AssertionError("cubic term evaluated before the budget check")

    monkeypatch.setattr(nl.evolution, "_cubic_coeffs", forbidden)
    for phi, eq, t in refused:
        work = nl.evolution.picard_work(phi, eq, t)
        with pytest.raises(BudgetExceededError) as err:
            picard_expansion(phi, eq, t)
        assert err.value.required == work.nodes * work.grid_points > nl.evolution.PICARD_BUDGET
    # past PICARD_MAX_NODES the rule is refused whatever the budget
    phi, eq, t = data("crit_half", 64, alpha=1.5)
    work = nl.evolution.picard_work(phi, eq, t)
    assert work.nodes > nl.evolution.PICARD_MAX_NODES
    with pytest.raises(BudgetExceededError, match="Gauss nodes"):
        picard_expansion(phi, eq, t, budget=10 * work.nodes * work.grid_points)


def _triple_sum(coeffs):
    """Brute-force sum of a1 conj(a2) a3 over the triples n1 - n2 + n3 = n
    of the support of a band-order array, kept on its band."""
    m = (coeffs.size - 1) // 2
    n = np.flatnonzero(coeffs) - m
    n1, n2, n3 = (k.ravel() for k in np.meshgrid(n, n, n, indexing="ij"))
    out = n1 - n2 + n3
    keep = np.abs(out) <= m
    terms = coeffs[n1 + m] * np.conj(coeffs[n2 + m]) * coeffs[n3 + m]
    total = np.zeros(coeffs.size, dtype=complex)
    np.add.at(total, out[keep] + m, terms[keep])
    return total


def test_picard_budget_counts_the_summed_triples(monkeypatch):
    # the budget's unit is the work the iterate does: Q evaluations of the
    # triple sum over n1 - n2 + n3 = n, one per Gauss node, each on the G
    # points of its grid, so a run uses exactly the count it was checked on
    grids = []
    cubic = nl.evolution._cubic_coeffs

    def counted(coeffs, wick=False):
        out = cubic(coeffs, wick)
        if not grids:  # the first node's evaluation against the brute force
            scale = float(np.sum(np.abs(coeffs))) ** 3
            assert np.max(np.abs(out - _triple_sum(coeffs))) <= 1e-13 * scale
        grids.append(split_grid_size((coeffs.size - 1) // 2))
        return out

    monkeypatch.setattr(nl.evolution, "_cubic_coeffs", counted)
    outcomes = set()

    @settings(max_examples=100, deadline=None, database=None)
    @given(_supports(), st.integers(0, 2**32 - 1), st.sampled_from((0.75, 1.0)),
           st.sampled_from((1e-5, 1e-3, 0.1)))
    @example((3, [-3, 1, 3]), 0, 1.0, 1e-3)  # runs on 8 nodes
    @example((40, [-40, 40]), 0, 1.0, 0.1)  # refused: 17 185 nodes
    def counts(drawn, seed, alpha, t):
        band, modes = drawn
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[np.array(modes) + band] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        phi, eq = SpectralField(1.0, coeffs), EquationSpec(alpha=alpha)
        grids.clear()
        with pytest.raises(BudgetExceededError) as err:
            picard_expansion(phi, eq, t, budget=0)
        required = err.value.required
        assert not grids and required > 0
        work = nl.evolution.picard_work(phi, eq, t)
        if work.nodes > nl.evolution.PICARD_MAX_NODES:
            with pytest.raises(BudgetExceededError):
                picard_expansion(phi, eq, t, budget=required)
            assert not grids
            outcomes.add("refused")
            return
        picard_expansion(phi, eq, t, budget=required)
        assert grids == [work.grid_points] * work.nodes
        assert sum(grids) == required
        outcomes.add("runs")

    counts()
    assert outcomes == {"runs", "refused"}


def test_picard_work_on_distant_modes_stays_within_the_triple_count(monkeypatch):
    # two modes at +-262 000 make 6 triples, but an output band of 786 000:
    # the default budget refuses the Q G it would take, at either alpha,
    # and the refusal evaluates no triple sum, so the work done, none,
    # stays within the 6 triples
    phi = _support_field([-262_000, 262_000], seed=3)
    nz = np.flatnonzero(phi.coeffs)
    assert len(nz) ** 2 * (len(nz) + 1) // 2 == 6
    evaluations = []
    monkeypatch.setattr(nl.evolution, "_cubic_coeffs",
                        lambda c, wick=False: evaluations.append(c.size) or np.zeros_like(c))
    for alpha in (1.0, 1.5):
        eq = EquationSpec(alpha=alpha)
        work = nl.evolution.picard_work(phi, eq, 1e-3)
        assert (work.out_band, work.grid_points) == (786_000, split_grid_size(786_000))
        assert work.grid_points > nl.evolution.PICARD_BUDGET
        with pytest.raises(BudgetExceededError) as err:
            picard_expansion(phi, eq, 1e-3)
        assert err.value.required == work.nodes * work.grid_points
        assert err.value.budget == nl.evolution.PICARD_BUDGET
        assert evaluations == [], alpha


def _first_term_gap(phi, eq, t):
    """max |quadrature - brute force| over the first Picard iterate, relative
    to its largest first-order coefficient and to the docstring's bound."""
    got = picard_expansion(phi, eq, t)
    want = picard_reference(phi, t, eq.alpha, eq.dispersion_coeff, eq.dispersion_sign)
    assert got.coeffs.shape == want.shape
    gap = float(np.max(np.abs(got.coeffs - want)))
    first = want - nl.enlarge_band(phi, got.bandwidth).coeffs
    return gap / float(np.max(np.abs(first))), gap / picard_bound(phi, eq, t)


def test_picard_quadrature_matches_brute_force():
    outcomes = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(_supports(), st.integers(0, 2**32 - 1),
           st.sampled_from((1.0, 0.75, 1.5)), st.sampled_from((-1, 1)),
           st.sampled_from((0.0, 1e-3, 1.0)), st.sampled_from((0.0, 1e-7, 1e-5, 1e-3, 0.3)),
           st.sampled_from((1.0, 2.5)), st.sampled_from((nl.evolution.PICARD_BUDGET, 20_000)))
    @example((3, [-3, 1, 3]), 0, 1.0, 1, 1.0, 1e-3, 1.0, 20_000)  # runs
    @example((40, [-40, 40]), 0, 1.0, 1, 1.0, 0.3, 1.0, 20_000)  # refused
    def matches(drawn, seed, alpha, sign, coeff, t, period, budget):
        band, modes = drawn
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(2 * band + 1, dtype=complex)
        coeffs[np.array(modes) + band] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        phi = SpectralField(period, coeffs)
        eq = EquationSpec(alpha, coeff, sign)
        work = nl.evolution.picard_work(phi, eq, t)
        if work.nodes > nl.evolution.PICARD_MAX_NODES or work.nodes * work.grid_points > budget:
            with pytest.raises(BudgetExceededError) as err:
                picard_expansion(phi, eq, t, budget=budget)
            assert err.value.required == work.nodes * work.grid_points
            outcomes.add("refused")
            return
        got = picard_expansion(phi, eq, t, budget=budget)
        want = picard_reference(phi, t, alpha, coeff, sign)
        assert got.coeffs.shape == want.shape
        assert np.max(np.abs(got.coeffs - want)) <= picard_bound(phi, eq, t)
        outcomes.add("runs")

    matches()
    assert outcomes == {"runs", "refused"}

    # the inflate data at T_N: crit_half two-block data at N = 64 and 128
    # and frac_crit at N = 128, alpha = 1, and crit_half N = 64 at alpha = 0.75
    cases = [("crit_half", 64, (-0.5,), 1.0), ("crit_half", 128, (-0.5,), 1.0),
             ("frac_crit", 128, (-1.0, 0.1), 1.0), ("crit_half", 64, (-0.5,), 0.75)]
    for regime, N, params, alpha in cases:
        sched = nl.regime_parameters(regime, N, *params)
        rel, of_bound = _first_term_gap(nl.build_two_block_data(sched), EquationSpec(alpha=alpha),
                                        sched.T_N)
        assert of_bound <= 1.0 and rel <= 1e-13, (regime, N, alpha)


def test_picard_node_rule_meets_the_bound_and_half_the_nodes_does_not(monkeypatch):
    # crit_half N = 64 at T_N, where max|Phi| T_N is about 230: the rule's Q
    # meets the stated bound, and Q // 2 nodes miss it
    sched = nl.regime_parameters("crit_half", 64, -0.5)
    phi, t, eq = nl.build_two_block_data(sched), sched.T_N, EquationSpec()
    nodes = nl.evolution.picard_work(phi, eq, t).nodes
    assert _first_term_gap(phi, eq, t)[1] <= 1.0
    monkeypatch.setattr(nl.evolution, "_gauss_node_count", lambda z: nodes // 2)
    assert _first_term_gap(phi, eq, t)[1] > 1.0


def _support_field(modes, seed, period=1.0):
    band = max(1, max(abs(m) for m in modes))
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2 * band + 1, dtype=complex)
    coeffs[np.array(modes) + band] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    return SpectralField(period, coeffs)


def test_picard_sparse_wide_supports_match_brute_force():
    # far beyond the band 40 of the drawn supports: the quadrature runs on
    # the whole output band, so where max|Phi| t is large it is refused
    supports = ([-1500, -1497, -3, 0, 2, 1499],
                list(range(4090, 4100)) + list(range(8185, 8195)))
    for modes in supports:
        for seed, (coeff, sign, t, runs) in enumerate(((1.0, 1, 1e-7, True), (1.0, -1, 1e-3, False),
                                                       (1e-3, 1, 0.3, False), (0.0, 1, 0.3, True))):
            phi = _support_field(modes, seed)
            eq = EquationSpec(1.0, coeff, sign)
            if not runs:
                with pytest.raises(BudgetExceededError):
                    picard_expansion(phi, eq, t, budget=10**8)
                continue
            got = picard_expansion(phi, eq, t, budget=10**8)
            want = picard_reference(phi, t, 1.0, coeff, sign)
            assert got.coeffs.shape == want.shape
            assert np.max(np.abs(got.coeffs - want)) <= picard_bound(phi, eq, t), (modes[0], coeff, sign, t)


def test_picard_on_padded_fields_matches_the_unpadded_field():
    # the output band is 3 max|n| over the support, widened to the input
    # band: padding the input must not change a coefficient
    for band, modes in ((10, [0, 1]), (3, [0]), (40, [-2, 5])):
        top = max(abs(m) for m in modes)
        tight_band = max(1, top)  # a field holds at least the modes -1..1
        coeffs = np.zeros(2 * tight_band + 1, dtype=complex)
        coeffs[np.array(modes) + tight_band] = 0.6 - 0.2j
        tight = SpectralField(1.0, coeffs)
        eq = EquationSpec()
        padded = picard_expansion(nl.enlarge_band(tight, band), eq, 0.1)
        assert padded.bandwidth == max(3 * top, band)
        assert coeff_gap(padded, picard_expansion(tight, eq, 0.1)) <= 1e-15


def test_picard_first_iterate_within_oscillatory_bound():
    f = random_field(1.0, 6, seed=8, l2=0.5, decay=1.5)
    t = 0.3
    p1 = picard_expansion(f, EquationSpec(), t)
    base = xi_term(f, 1, t)
    m = f.bandwidth
    bw = max(p1.bandwidth, base.bandwidth, m)
    got = nl.enlarge_band(p1, bw).coeffs
    ref = nl.enlarge_band(base, bw).coeffs + nl.enlarge_band(f, bw).coeffs
    c = f.coeffs
    # each triple's term differs from its resonant value t by the integral of
    # 1 - exp(-i phi t') over [0, t], at most min(2t, t^2 |phi|), with the
    # resonance phase phi = (2 pi)^2 (n^2 - n1^2 + n2^2 - n3^2)
    bound = np.zeros(2 * bw + 1)
    scale = (2.0 * np.pi) ** 2
    for n1 in range(-m, m + 1):
        for n2 in range(-m, m + 1):
            for n3 in range(-m, m + 1):
                n = n1 - n2 + n3
                phi = scale * (n * n - n1 * n1 + n2 * n2 - n3 * n3)
                amp = abs(c[n1 + m]) * abs(c[n2 + m]) * abs(c[n3 + m])
                bound[n + bw] += amp * min(2.0 * t, t * t * abs(phi))
    excess = np.abs(got - ref) - bound
    assert float(np.max(excess)) <= 1e-12


def test_picard_tracks_interaction_picture_solution():
    n0 = 64
    sched = nl.regime_parameters("crit_half", n0, -0.5)
    phi, t = nl.build_two_block_data(sched), sched.T_N
    eq = EquationSpec()
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


_SPECS = (EquationSpec(), EquationSpec(wick=True), EquationSpec(alpha=0.75),
          EquationSpec(dispersion_sign=-1))


@settings(max_examples=40, deadline=None, database=None)
@given(_small_band(), st.sampled_from(_SPECS), st.floats(0.01, 0.05), st.integers(1, 40))
def test_split_step_loses_mass_only_to_its_band(f, eq, t, steps):
    dt = t / steps
    out = split_step_evolve(f, eq, t, StepperConfig(dt=dt))
    loss = 1.0 - (l2_norm(out) / l2_norm(f)) ** 2
    rnd = _roundoff(steps, split_grid_size(f.bandwidth))
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
    plain = split_step_evolve(f, EquationSpec(), t, cfg)
    wick = split_step_evolve(f, EquationSpec(wick=True), t, cfg)
    phase = 2.0 * t * msq * t * dt * sup**2 + U * t * (sup + 4.0 * msq)
    rnd = 2.0 * _roundoff(steps, split_grid_size(f.bandwidth))
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
    eq, cfg = EquationSpec(), StepperConfig(dt=t / steps)
    evolve_then_boost = galilean_boost(split_step_evolve(f, eq, t, cfg), 2 * shift, t)
    boost_then_evolve = split_step_evolve(galilean_boost(f, 2 * shift, 0.0), eq, t, cfg)
    angle = (2.0 * np.pi * (m + abs(shift)) / period) ** 2 * t
    tol = norm * (U + 2.0 * _roundoff(steps, split_grid_size(m)) + 8.0 * U * angle)
    assert l2_gap(evolve_then_boost, boost_then_evolve) <= tol
