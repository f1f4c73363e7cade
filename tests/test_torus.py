"""Spectral fields on scaled circles: transforms, norms, cubic products,
periodization of compactly supported line profiles."""
from __future__ import annotations

import inspect
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.integrate import quad

import nlslab as nl
from nlslab import (
    CompactProfile,
    SpectralField,
    analyze,
    appendix_profile,
    cli,
    enlarge_band,
    fourier_lebesgue_norm,
    mean_and_l2,
    periodize,
    project_below,
    smooth_bump,
    sobolev_norm,
    synthesize,
)
from nlslab.torus import _cubic_coeffs

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


def test_sobolev_norm_signature():
    # the norm is named by its index and homogeneous flag, inhomogeneous by default
    params = inspect.signature(sobolev_norm).parameters
    assert list(params) == ["field", "s", "homogeneous"]
    assert params["homogeneous"].default is False


def test_spectral_field_copies_what_a_caller_can_still_write():
    # a writeable caller array is copied, so mutating it later leaves the
    # field as it was; a read-only array that owns its data is kept as is,
    # and a read-only view (whose base may still be written) is copied
    c = np.array([1.0, 2.0, 3.0], dtype=complex)
    f = SpectralField(1.0, c)
    c[:] = 7.0
    assert np.array_equal(f.coeffs, [1.0, 2.0, 3.0]) and not f.coeffs.flags.writeable
    frozen = np.array([1.0, 2.0, 3.0], dtype=complex)
    frozen.flags.writeable = False
    assert SpectralField(1.0, frozen).coeffs is frozen
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=complex)
    view = base[1:4]
    view.flags.writeable = False
    from_view = SpectralField(1.0, view)
    base[:] = 0.0
    assert np.array_equal(from_view.coeffs, [2.0, 3.0, 4.0])
    # the package's constructors hand over fresh arrays, which the field keeps
    for field in (enlarge_band(f, 3), analyze(synthesize(f, 8), 1.0, 1)):
        assert field.coeffs.flags.owndata and not field.coeffs.flags.writeable


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


def test_next_fast_len_matches_scipy():
    # scipy is the oracle: every grid size up to 20 000, then a fixed sample
    # up to 4e7, which covers the largest grid the package asks for: the
    # closed form's on the out band 17 * MAX_TWO_BLOCK_BAND (k = 8), with
    # two data-band shells on each side
    next_fast_len, band = nl.torus.next_fast_len, nl.constructions.MAX_TWO_BLOCK_BAND
    largest = 2 * (17 * band + 2 * band) + 1
    assert next_fast_len(largest) == 19_958_400
    assert nl.evolution.ode_grid_size(band, 17 * band) == next_fast_len(largest)
    sample = np.random.default_rng(21).integers(20_001, 4 * 10**7, 1000).tolist()
    smooth = [2**25, 3**15, 5**10, 7**8, 11**7, 2**6 * 3**3 * 5**2 * 7 * 11]  # 11-smooth
    sizes = [*range(1, 20_001), *sample, largest, *(q + d for q in smooth for d in (-1, 0, 1))]
    assert [next_fast_len(n) for n in sizes] == [scipy_next_fast_len(n) for n in sizes]


# ---------------------------------------------------------------------------
# grid plans

# every grid the five benchmark configs (benchmarks/configs/*.ini) build a
# plan for, as recorded from the plans built by running them: split-step,
# Picard's cubic term, the closed form at each out band it tries, and the
# data builder's synthesize/analyze
BENCHMARK_GRIDS = (
    1890, 2520, 2835, 3564, 3773, 4752, 5040, 5670, 7040, 7546, 9375, 10080, 11319, 14000, 15092,
    18634, 20160, 22638, 27720, 30184, 36960, 40095, 45056, 54880, 60000, 73205, 80000, 90000,
    109350, 120000, 145530, 160000, 180000, 264000, 526848, 1053696, 2099520, 4199040,
)

# the grids the same configs built while the closed form sized its grid as
# twice the out band: still valid FFT lengths, so the check below keeps
# covering them beside the grids that now run
EARLIER_BENCHMARK_GRIDS = (
    3150, 4400, 5929, 6272, 8800, 11760, 12544, 17600, 23232, 25088, 35200, 46200, 50176,
    70400, 91476, 100000, 139968, 182250, 200000, 279936, 330000, 658560, 1317120, 2624400,
    5248800,
)


@pytest.fixture
def crossover(monkeypatch):
    """Set torus.FOUR_STEP_POINTS for the test, with no plan of another
    crossover left in the cache before or after."""
    def set_to(points):
        monkeypatch.setattr(nl.torus, "FOUR_STEP_POINTS", points)
        nl.torus.grid_plan.cache_clear()

    yield set_to
    nl.torus.grid_plan.cache_clear()


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / ||b|| over two (P, Q) arrays, a block of rows at a time."""
    step = max(1, (1 << 18) // a.shape[1])
    gap = sum(float(np.sum(np.abs(a[i : i + step] - b[i : i + step]) ** 2))
              for i in range(0, a.shape[0], step))
    return math.sqrt(gap) / float(np.linalg.norm(b))


@pytest.mark.parametrize("g", sorted(BENCHMARK_GRIDS + EARLIER_BENCHMARK_GRIDS))
def test_grid_plan_matches_numpy_fft(g):
    # forward on natural-order samples, and inverse on a spectrum in bin
    # order (bin k at [k % P, k // P]), each on the very input numpy takes
    plan = nl.torus.grid_plan(g)
    p, q = plan.shape
    assert p * q == g and (p > 1) == (g >= nl.torus.FOUR_STEP_POINTS)
    rng = np.random.default_rng(g)
    x = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    a = x.reshape(p, q).copy()
    assert plan.forward(a) is a
    np.fft.fft(x, norm="forward", out=x)
    in_bin_order = x.reshape(q, p).T
    assert _rel_gap(a, in_bin_order) <= 1e-15
    a[...] = in_bin_order
    assert plan.inverse(a) is a
    np.fft.ifft(x, norm="forward", out=x)
    assert _rel_gap(a, x.reshape(p, q)) <= 1e-15


def test_benchmark_grids_are_the_grids_the_benchmark_configs_build(monkeypatch, tmp_path):
    # runs the five benchmark INIs (read, never edited) with grid_plan
    # spied in every module that holds it: BENCHMARK_GRIDS is exactly the
    # grids they build, so after a change to a grid rule this fails until
    # the FFT check above covers the grids that now run
    built = set()
    plan = nl.torus.grid_plan

    def spy(g):
        built.add(g)
        return plan(g)

    for module in [m for name, m in sys.modules.items() if name.startswith("nlslab")]:
        if getattr(module, "grid_plan", None) is plan:
            monkeypatch.setattr(module, "grid_plan", spy)
    configs = sorted((pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "configs").glob("*.ini"))
    assert len(configs) == 5
    for ini in configs:
        out = tmp_path / f"{ini.stem}.csv"
        assert cli.main(["inflate", "--config", str(ini), "--out", str(out), "--threads", "1"]) == 0
    assert sorted(built) == list(BENCHMARK_GRIDS)


@pytest.mark.parametrize("points", [0, math.inf])
def test_grid_plan_rows_transform_alone(crossover, points):
    # a stack of rows is, row for row and to the bit, its rows one at a time
    crossover(points)
    rng = np.random.default_rng(5)
    for g in (60, 97, 1029, 7546):
        plan = nl.torus.grid_plan(g)
        assert (plan.shape[0] > 1) == (points == 0 and g != 97)  # 97 is prime
        stack = rng.standard_normal((3, *plan.shape)) + 1j * rng.standard_normal((3, *plan.shape))
        for step in (plan.forward, plan.inverse):
            rows = [step(row.copy()) for row in stack]
            step(stack)
            assert all(np.array_equal(a, b) for a, b in zip(stack, rows))


@pytest.mark.parametrize("g, bandwidth", [(64, 31), (64, 8), (60, 7), (60, 5), (7546, 1886)])
def test_grid_plan_band_bins_and_mass(crossover, g, bandwidth):
    # a band's modes land in bins n mod G and come back; the mass of any
    # run of bins is the sum over those bins in natural order; band edges
    # mid-column and on a column's edge
    crossover(0)
    plan = nl.torus.grid_plan(g)
    p, q = plan.shape
    assert p > 1
    band = random_field(1.0, bandwidth, seed=g + bandwidth).coeffs
    spec = np.zeros((2, p, q), dtype=complex)
    plan.put_band(spec, np.stack([band, 2.0 * band]))
    natural = spec[0].T.reshape(g)
    assert np.array_equal(natural[: bandwidth + 1], band[bandwidth:])
    assert np.array_equal(natural[g - bandwidth :], band[:bandwidth])
    assert not natural[bandwidth + 1 : g - bandwidth].any()
    # band() undoes the (-1)^n twiddle that spectrum() applies
    back = plan.band(spec, bandwidth) * (-1.0) ** np.arange(-bandwidth, bandwidth + 1)
    assert np.array_equal(back[1], 2.0 * band)
    assert np.array_equal(plan.band(plan.spectrum(band), bandwidth), band)
    full = np.random.default_rng(g).standard_normal((p, q)) + 0j
    natural = full.T.reshape(g)
    for lo, hi in ((0, g), (bandwidth + 1, g - bandwidth), (p - 1, p + 1), (p, 2 * p), (3, 3)):
        assert plan.bin_mass(full, lo, hi) == pytest.approx(np.sum(natural[lo:hi] ** 2), rel=1e-14)


@pytest.mark.parametrize("points", [0, math.inf])
def test_mass_sums_call_no_blas(monkeypatch, crossover, points):
    # np.vdot runs BLAS's zdotc, threaded unless the environment says
    # otherwise; the closed form's tail mass, split-step's Wick shift and
    # the Wick cubic term sum |v|^2 by numpy, on either layout
    crossover(points)

    def refuse(*args, **kwargs):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", refuse)
    f = random_field(1.0, 40, seed=71, l2=0.5)
    plan = nl.torus.grid_plan(nl.torus.split_grid_size(f.bandwidth))
    assert (plan.shape[0] > 1) == (points == 0)
    msq = nl.mean_and_l2(f)[1]
    tail = nl.ode_exact_evolve(f, 0.1, out_bandwidth=3 * f.bandwidth).tail_mass
    assert 0.0 < tail < msq
    wick = _cubic_coeffs(f.coeffs, wick=True)
    assert np.max(np.abs(wick - (_cubic_coeffs(f.coeffs) - 2.0 * msq * f.coeffs))) <= 1e-15
    # one Strang step: the Wick shift turns the plain step by exp(-2 i t mean|u|^2)
    t = 0.01
    plain, wick = (nl.split_step_evolve(f, nl.EquationSpec(wick=w), t, nl.StepperConfig(dt=t))
                   for w in (False, True))
    assert np.max(np.abs(wick.coeffs - plain.coeffs * np.exp(-2j * t * msq))) <= 1e-15


def test_import_builds_no_grid_plan():
    src = pathlib.Path(nl.__file__).resolve().parents[1]
    code = "import nlslab; print(nlslab.torus.grid_plan.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"


def test_largest_benchmark_plan_keeps_its_twiddles_small():
    # the closed form's 4 199 040 points (negative_s N = 4096): the factor
    # tables hold under 1 MB, where the twiddles themselves would be 67 MB
    plan = nl.torus.GridPlan(BENCHMARK_GRIDS[-1])
    assert plan.shape == (1944, 2160)
    assert sum(table.nbytes for table in plan._tables) < 2**20


def _sparse_bands(bandwidth: int, seed: int) -> dict[str, np.ndarray]:
    """Band-order coefficients that leave layout rows empty: two narrow
    runs like the negative_s blocks, single modes (at 1, -1 and the band's
    edges) and a run that wraps across bin 0."""
    rng = np.random.default_rng(seed)
    m = bandwidth

    def values(n):
        return 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    bands = {}
    for name, modes in (("two_runs", np.r_[2 * m // 5 - 9 : 2 * m // 5 + 10,
                                           4 * m // 5 - 9 : 4 * m // 5 + 10]),
                        ("one", [1]), ("minus_one", [-1]), ("edges", [-m, m]),
                        ("wrap", np.arange(-20, 21))):
        c = np.zeros(2 * m + 1, dtype=complex)
        c[np.asarray(modes) + m] = values(len(modes))
        bands[name] = c
    return bands


def _dense_synthesize(field: SpectralField, grid_size: int) -> np.ndarray:
    """synthesize with the inverse's row pass over every row: the
    reference for the row skip."""
    plan = nl.torus.grid_plan(grid_size)
    return plan.inverse(plan.spectrum(field.coeffs)).reshape(grid_size)


@pytest.mark.parametrize("g", [35200, 330000])
def test_row_skip_changes_no_bits(monkeypatch, g):
    # synthesize hands the inverse the bins of the nonzero modes, and its
    # row pass runs only on the row blocks that hold one; on sparse data it
    # equals the pass over every row bit for bit, and so does the closed
    # form built on it.  At 35 200 points the plan has one block of rows,
    # at 330 000 eleven, most of them empty here
    m = (g // 8 - 1) // 2
    assert nl.evolution.ode_grid_size(m, m) == g
    plan = nl.torus.grid_plan(g)
    p, step = plan.shape[0], plan._block_rows
    passed = []
    inverse = nl.torus.GridPlan.inverse

    def spy(self, a, bins=None):
        passed.append(bins)
        return inverse(self, a, bins)

    monkeypatch.setattr(nl.torus.GridPlan, "inverse", spy)
    bands = _sparse_bands(m, seed=g)
    closed = {}
    for name, c in bands.items():
        f = SpectralField(1.0, c)
        fast = synthesize(f, g)
        bins = passed[-1]
        assert np.array_equal(bins, (np.flatnonzero(c) - m) % g), name
        assert fast.tobytes() == _dense_synthesize(f, g).tobytes(), name
        if g == 330000:
            assert np.unique(bins % p // step).size < -(-p // step), name
        closed[name] = nl.ode_exact_evolve(f, 0.7)
    monkeypatch.setattr(nl.evolution, "synthesize", _dense_synthesize)
    for name, c in bands.items():
        dense = nl.ode_exact_evolve(SpectralField(1.0, c), 0.7)
        assert dense.field.coeffs.tobytes() == closed[name].field.coeffs.tobytes(), name
        assert dense.tail_mass == closed[name].tail_mass, name


@pytest.mark.parametrize("regime, s, theta", [("crit_half", -0.5, None), ("frac_crit", -1.0, 0.1)])
def test_four_step_and_one_dimensional_transforms_agree(crossover, regime, s, theta):
    # the inflate data at N = 256 under every grid on one 1-D FFT and under
    # every grid on the four-step: 100 split-step steps and the closed form
    # agree within 1e-13 of ||phi||_FLinf (they read 3e-14..5e-14 and 5e-16),
    # the cubic term within 1e-13 of its own FLinf norm (7e-16; off its
    # support it is roundoff of that norm, far above ||phi||_FLinf), and
    # the closed form's tail stays non-negative and within the tail target
    sched = nl.regime_parameters(regime, 256, s, theta)
    phi = nl.build_two_block_data(sched, 1.0)
    wide = enlarge_band(phi, 3 * phi.bandwidth)
    scale = fourier_lebesgue_norm(phi, 0.0, np.inf)
    mass = mean_and_l2(phi)[1] * phi.period
    out_band = 7 * phi.bandwidth  # k = 3, the crit_half out band
    runs = {}
    for points in (0, math.inf):
        crossover(points)
        ode = nl.ode_exact_evolve(phi, sched.T_N, out_bandwidth=out_band)
        assert 0.0 <= ode.tail_mass <= nl.lab.ODE_TAIL_REL * mass
        runs[points] = (
            nl.split_step_evolve(wide, nl.EquationSpec(), sched.T_N,
                                 nl.StepperConfig(dt=sched.T_N / 100)).coeffs,
            _cubic_coeffs(wide.coeffs), ode.field.coeffs)
    for four_step, one_d, size in zip(runs[0], runs[math.inf],
                                      (scale, np.max(np.abs(runs[0][1])), scale)):
        assert np.max(np.abs(four_step - one_d)) <= 1e-13 * size


# ---------------------------------------------------------------------------
# norms

def test_plancherel_matches_quadrature():
    for period, bandwidth, seed in ((1.0, 12, 4), (8.0, 5, 5)):
        f = random_field(period, bandwidth, seed)
        direct = sobolev_norm(f, 0.0)
        series = math.sqrt(period) * math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2)))
        g = 8 * bandwidth + 9
        u = synthesize(f, g)
        quadrature = math.sqrt(float(np.mean(np.abs(u) ** 2)) * period)
        assert abs(direct - series) <= 1e-10
        assert abs(direct - quadrature) <= 1e-10


def test_sobolev_norm_mean_mode_pins():
    f = SpectralField(1.0, np.array([0, 1.0, 0], dtype=complex))
    for s in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(sobolev_norm(f, s) - 1.0) <= 1e-14
    # the homogeneous norm drops the mean mode entirely
    assert sobolev_norm(f, 1.0, homogeneous=True) == 0.0


def test_sobolev_norm_single_high_mode_pin():
    # period 4, unit coefficient at mode 8 (frequency 2), s = -1
    coeffs = np.zeros(17, dtype=complex)
    coeffs[8 + 8] = 1.0
    f = SpectralField(4.0, coeffs)
    want = 2.0 / math.sqrt(5.0)  # L^(1/2) * (1+4)^(-1/2)
    assert abs(sobolev_norm(f, -1.0) - want) <= 1e-14


def test_fourier_lebesgue_pins():
    f = SpectralField(1.0, np.array([0, 3.0, 0], dtype=complex))
    assert abs(fourier_lebesgue_norm(f, 0.0, 1.0) - 3.0) <= 1e-14
    assert abs(fourier_lebesgue_norm(f, 0.0, np.inf) - 3.0) <= 1e-14
    two = nl.build_two_block_data(nl.regime_parameters("crit_half", 256, -0.5))
    assert fourier_lebesgue_norm(two, 0.0, np.inf) == 1.0
    count = int(np.count_nonzero(two.coeffs))
    assert fourier_lebesgue_norm(two, 0.0, 1.0) == float(count) == 462.0


@pytest.mark.parametrize("bandwidth", [1, 2, 7, 64, 1001])
@pytest.mark.parametrize("period", [1.0, 3.7, 32.0])
def test_norm_weights_match_the_plain_expressions_to_the_bit(bandwidth, period):
    # the Sobolev weights formed on n >= 0 and mirrored, and the FL norms
    # with no weight at s = 0, against the weights over the whole band
    f = random_field(period, bandwidth, seed=bandwidth)
    xi, c = f.frequencies(), f.coeffs
    for s in (-1.0, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0):
        plain = (1.0 + xi * xi) ** s * np.abs(c) ** 2
        assert np.array_equal(nl.torus._sobolev_terms(f, s, False), plain)
        nz = xi != 0.0
        plain = np.abs(xi[nz]) ** (2.0 * s) * np.abs(c[nz]) ** 2
        assert np.array_equal(nl.torus._sobolev_terms(f, s, True), plain)
    vals = (1.0 + xi * xi) ** 0.0 * np.abs(c)
    assert fourier_lebesgue_norm(f, 0.0, np.inf) == float(np.max(vals))
    for p in (1.0, 2.0):
        assert fourier_lebesgue_norm(f, 0.0, p) == float(np.sum(vals**p) ** (1.0 / p))


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
            inhom = sobolev_norm(f, s)
            hom = sobolev_norm(f, s, homogeneous=True)
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
        assert sobolev_norm(p, -0.5) <= sobolev_norm(f, -0.5) + 1e-14


# ---------------------------------------------------------------------------
# cubic density

def test_cubic_density_constant_pins():
    c = 1.5 - 0.5j
    f = SpectralField(1.0, np.array([0, c, 0], dtype=complex))
    plain = f.with_coeffs(_cubic_coeffs(f.coeffs))
    assert abs(plain.coefficient(0) - abs(c) ** 2 * c) <= 1e-12
    wick = f.with_coeffs(_cubic_coeffs(f.coeffs, wick=True))
    assert abs(wick.coefficient(0) - (-abs(c) ** 2 * c)) <= 1e-12


def test_cubic_density_single_mode_is_resonant():
    c = 0.7 + 0.2j
    coeffs = np.zeros(7, dtype=complex)
    coeffs[3 + 2] = c
    f = SpectralField(2.0, coeffs)
    d = f.with_coeffs(_cubic_coeffs(f.coeffs))
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
    got = f.with_coeffs(_cubic_coeffs(f.coeffs, wick=wick))
    want = _brute_cubic(f, wick)
    assert coeff_gap(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# periodization

def test_periodize_zero_profile():
    zero = CompactProfile("step", ((-0.5, 0.5, 0.0),))
    f = periodize(zero, 2.0, 8)
    assert np.max(np.abs(f.coeffs)) == 0.0


def test_periodize_indicator_sinc_pin():
    box = CompactProfile("step", ((-0.5, 0.5, 1.0),))
    f = periodize(box, 2.0, 16)
    n = np.arange(-16, 17)
    want = 0.5 * np.sinc(n / 2.0)
    assert np.max(np.abs(f.coeffs - want)) <= 1e-12


def test_periodize_refuses_overlapping_period():
    psi1 = appendix_profile("psi1")
    with pytest.raises(ValueError):
        periodize(psi1, 8.0, 64)


@pytest.mark.parametrize("pieces, period", [(((0.0, 3.0, 1.0),), 2.0), (((-1.5, 0.5, 1.0),), 2.5)])
def test_periodize_refuses_a_built_step_reaching_past_half_the_period(pieces, period):
    # the radius is the pieces' reach, so no field can claim a smaller one
    step = CompactProfile("step", pieces)
    with pytest.raises(ValueError, match="periodization overlaps itself"):
        periodize(step, period, 8)
    periodize(step, 2.0 * step.support_radius, 8)  # twice the reach is accepted


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
    box = CompactProfile("step", ((0.0, 1.0, 1.0),))
    assert abs(box.fourier_transform(0.0) - 1.0) <= 1e-14
    psi1 = appendix_profile("psi1")
    assert abs(psi1.fourier_transform(0.0)) <= 1e-14
    two = nl.centered_two_step(1.0, 0.3)
    assert abs(two.fourier_transform(0.0)) <= 1e-14


def test_profile_fourier_indicator_integer_zero():
    box = CompactProfile("step", ((0.0, 1.0, 1.0),))
    assert abs(box.fourier_transform(1.0)) <= 1e-15


@pytest.mark.parametrize("xi", [0.37, 1.9])
def test_profile_fourier_quadrature_oracle(xi):
    psi1 = appendix_profile("psi1")
    got = psi1.fourier_transform(xi)
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
        ratios.append(float(np.max(np.abs(u))) / sobolev_norm(f, 1.0))
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
        circle = sobolev_norm(periodize(prof, period, band), s, homogeneous=True)
        errs.append(abs(circle - line))
    assert all(a > b for a, b in zip(errs, errs[1:])), f"s={s}: errors {errs} not strictly decreasing"
