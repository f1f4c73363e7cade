"""Compactly supported line profiles: moments, phase integrals, mollification."""
from __future__ import annotations

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

import nlslab
from nlslab import (
    CompactProfile,
    appendix_profile,
    moment_vanishing,
    mollifier_cdf,
    mollifier_transform,
    mollify,
    phase_integral,
    centered_two_step,
    smooth_bump,
    solve_psi4_parameter,
)

from _helpers import unfolded_base_transform, unfolded_mollifier_transform

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# construction and validation

def test_profile_validation():
    with pytest.raises(ValueError):
        CompactProfile("nope", ((0.0, 1.0, 1.0),))
    with pytest.raises(ValueError, match="support_radius must be positive"):
        CompactProfile("step", ())  # no extent
    with pytest.raises(ValueError):
        CompactProfile("mollified", ((0.0, 1.0, 1.0),), eps=0.0)
    with pytest.raises(ValueError):
        appendix_profile("nope")
    with pytest.raises(ValueError):
        appendix_profile("mollified", eps=0.6)
    with pytest.raises(ValueError, match="derivative kind needs kappa >= 1"):
        appendix_profile("derivative", kappa=0)
    # the direct constructor keeps the same rule: at kappa = -1 the values
    # would be the underived base while the transform divides by xi
    for kappa in (0, -1, 1.5):
        with pytest.raises(ValueError, match="derivative kind needs kappa >= 1"):
            CompactProfile("derivative", kappa=kappa)


@pytest.mark.parametrize("kind, eps", [("step", 0.0), ("mollified", 0.1)])
def test_profile_refuses_a_piece_that_ends_before_it_starts(kind, eps):
    # [3, 1) would evaluate to 0 everywhere while its transform at 0 reads -2
    with pytest.raises(ValueError, match=r"needs a <= b, got a = 3.0, b = 1.0"):
        CompactProfile(kind, ((0.0, 1.0, 1.0), (3.0, 1.0, 1.0)), eps=eps)


@pytest.mark.parametrize("kind, pieces, amplitude, bad", [
    ("bump", (), 1j, "1j"),
    ("derivative", (), np.complex128(1.0), "np.complex128(1+0j)"),
    ("step", ((0.0, 1.0, 1.0), (1.0, 2.0, 1.0 + 0.5j)), 1.0, "(1+0.5j)"),
    ("mollified", ((0.0, 1.0, 0j),), 1.0, "0j"),
], ids=["bump", "derivative", "step", "mollified"])
def test_profile_refuses_a_complex_amplitude_or_piece_value(kind, pieces, amplitude, bad):
    # line_sobolev_norm folds |F(-xi)|^2 onto |F(xi)|^2, which needs a real profile
    with pytest.raises(ValueError, match=re.escape(
            f"a profile's amplitude and piece values must be real, got {bad}")):
        CompactProfile(kind, pieces, eps=0.1, amplitude=amplitude, kappa=1)


def test_profile_fields_define_it_and_the_radius_is_derived():
    assert [f.name for f in dataclasses.fields(CompactProfile)] == [
        "kind", "pieces", "eps", "width", "amplitude", "kappa"]
    psi1 = appendix_profile("psi1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi1.support_radius = 1.0
    with pytest.raises(TypeError):  # a radius given by position lands nowhere
        CompactProfile("step", ((0.0, 1.0, 1.0),), 1.0)
    with pytest.raises(TypeError):
        CompactProfile("step", ((0.0, 1.0, 1.0),), support_radius=1.0)


def test_named_profiles_keep_their_support_radius():
    a = solve_psi4_parameter()
    for eps in (0.1, 0.3):
        assert centered_two_step(0.7, eps).support_radius == 2.0 + eps
        assert appendix_profile("mollified", eps=eps).support_radius == 5.0 + eps
    assert appendix_profile("psi1").support_radius == 5.0
    assert appendix_profile("psi2").support_radius == 5.0
    assert appendix_profile("psi4").support_radius == a + 1.0
    assert smooth_bump(1.0, 2.5).support_radius == 2.5
    for kappa in (1, 2, 3):
        assert appendix_profile("derivative", kappa=kappa).support_radius == 1.0


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_directly_built_derivative_profile_is_the_named_one(kappa):
    named = appendix_profile("derivative", kappa=kappa)
    direct = CompactProfile("derivative", kappa=kappa)
    x = np.linspace(-1.2, 1.2, 97)
    assert np.array_equal(direct.evaluate(x) * named.amplitude, named.evaluate(x))
    xi = np.array([-2.5, -0.3, 0.0, 0.7, 4.0])
    assert np.array_equal(direct.fourier_transform(xi) * named.amplitude, named.fourier_transform(xi))
    assert direct.support_radius == named.support_radius == 1.0


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0, 3.5])
def test_directly_built_bump_is_smooth_bump(width):
    direct, named = CompactProfile("bump", width=width), smooth_bump(1.0, width)
    assert direct.support_radius == named.support_radius == width
    x = np.linspace(-4.0, 4.0, 81)
    assert np.array_equal(direct.evaluate(x), named.evaluate(x))
    xi = np.array([0.0, 0.25, 1.5])
    assert np.array_equal(direct.fourier_transform(xi), named.fourier_transform(xi))


def test_psi1_pieces_and_breakpoints():
    psi1 = appendix_profile("psi1")
    assert psi1.support_radius == 5.0
    assert abs(psi1.evaluate(2.0) - SQRT_PI) <= 1e-15
    assert abs(psi1.evaluate(4.5) + 2.0 * SQRT_PI) <= 1e-15
    assert psi1.evaluate(0.5) == 0.0
    assert psi1.evaluate(-2.0) == 0.0
    assert list(psi1.breakpoints()) == [1.0, 3.0, 4.0]


def test_psi1_is_mean_zero():
    psi1 = appendix_profile("psi1")
    assert abs(psi1.integral_moment(0)) <= 1e-15
    assert moment_vanishing(psi1, 1).max_moment <= 1e-15


def test_psi2_is_even_extension():
    psi1 = appendix_profile("psi1")
    psi2 = appendix_profile("psi2")
    # evaluate away from the jump points, where the half-open step
    # convention would otherwise produce one-sided values
    xs = np.array([0.5, 1.5, 2.2, 3.5, 4.4, 4.9])
    for x in xs:
        want = psi1.evaluate(x) + psi1.evaluate(-x)
        assert abs(psi2.evaluate(x) - want) <= 1e-15
        assert abs(psi2.evaluate(-x) - psi2.evaluate(x)) <= 1e-15
    assert moment_vanishing(psi2, 2).max_moment <= 1e-15


# ---------------------------------------------------------------------------
# the four-moment profile and its shift parameter

def _three_block_even(a):
    half = ((1.0, 2.0, SQRT_PI), (4.0, 5.0, -2.0 * SQRT_PI), (a, a + 1.0, SQRT_PI))
    mirrored = tuple((-b, -x, v) for (x, b, v) in reversed(half))
    return CompactProfile("step", mirrored + half)


def test_second_moment_sign_change_on_bracket():
    lo = _three_block_even(5.0).integral_moment(2)
    hi = _three_block_even(10.0).integral_moment(2)
    assert lo < 0.0 < hi
    # up to a common positive factor the half-line second moment is
    # a^2 + a - 38, so the bracket endpoints must straddle its root
    assert (5.0**2 + 5.0 - 38.0) < 0.0 < (10.0**2 + 10.0 - 38.0)


def test_psi4_parameter_matches_closed_form():
    a = solve_psi4_parameter()
    assert abs(a - (-1.0 + math.sqrt(153.0)) / 2.0) <= 1e-10


def test_psi4_moments_vanish():
    psi4 = appendix_profile("psi4")
    for j in range(4):
        assert abs(psi4.integral_moment(j)) <= 1e-12
    assert moment_vanishing(psi4, 4).max_moment <= 1e-12


def test_psi4_second_moment_quadrature_oracle():
    psi4 = appendix_profile("psi4")
    r = psi4.support_radius
    pts = [-r] + list(psi4.breakpoints()) + [r]
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        total += quad(lambda x: x * x * psi4.evaluate(x).real, lo, hi, limit=200)[0]
    assert abs(total) <= 1e-10


# ---------------------------------------------------------------------------
# phase integrals

def test_phase_integral_step_pins():
    psi1 = appendix_profile("psi1")
    assert abs(phase_integral(psi1, 1.0) - (-4.0 * SQRT_PI)) <= 1e-10
    psi2 = appendix_profile("psi2")
    assert abs(abs(phase_integral(psi2, 1.0)) - 8.0 * SQRT_PI) <= 1e-10
    zero = CompactProfile("step", ((-0.5, 0.5, 0.0),))
    assert phase_integral(zero, 1.0) == 0.0
    # at t0 = 0 the two blocks cancel exactly (mean zero)
    assert abs(phase_integral(psi1, 0.0)) <= 1e-15


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_mollified_phase_integral_keeps_half(eps):
    prof = appendix_profile("mollified", eps=eps)
    assert abs(phase_integral(prof, 1.0)) >= 2.0 * SQRT_PI


def test_phase_integral_halves_its_panels_until_resolved():
    # |f| reaches 10.9 here, a phase of up to 119 radians: one or two panels
    # miss it by 1e-2, 16 panels agree with 8 to 7e-15
    prof = appendix_profile("derivative", kappa=2)
    K = prof.support_radius

    def integrand(x, part):
        f = complex(prof.evaluate(np.array([x]))[0])
        return part(f * np.exp(1j * abs(f) ** 2))

    want = complex(quad(integrand, -K, K, args=(np.real,), limit=2000, epsabs=0.0, epsrel=1e-12)[0],
                   quad(integrand, -K, K, args=(np.imag,), limit=2000, epsabs=0.0, epsrel=1e-12)[0])
    assert abs(phase_integral(prof, 1.0) - want) <= 1e-12


def test_phase_integral_refuses_an_unresolved_oscillation():
    # |f| reaches 268 here, so the phase |f|^2 t0 turns through 2e4 radians
    with pytest.raises(ValueError, match=r"phase integral unresolved at t0=0.3: tried 1 to 64 "
                                         r"panels per interval, and going from 32 to 64 moves it"):
        phase_integral(appendix_profile("derivative", kappa=3), 0.3)


# ---------------------------------------------------------------------------
# mollification

def test_mollified_profiles_retain_moments():
    psi4 = appendix_profile("psi4")
    for eps in (0.05, 0.025):
        assert moment_vanishing(mollify(psi4, eps), 4).max_moment <= 1e-10
    mol1 = appendix_profile("mollified", eps=0.1)
    assert moment_vanishing(mol1, 1).max_moment <= 1e-10


def test_mollified_evaluates_like_step_away_from_edges():
    psi1 = appendix_profile("psi1")
    mol = appendix_profile("mollified", eps=0.1)
    for x in (0.5, 2.0, 4.5, -2.0):
        assert abs(mol.evaluate(x) - psi1.evaluate(x)) <= 1e-12


def test_mollifier_cdf_and_transform():
    assert mollifier_cdf(-1.0) == 0.0
    assert mollifier_cdf(1.0) == 1.0
    assert abs(mollifier_cdf(0.0) - 0.5) <= 1e-12
    grid = np.linspace(-1.0, 1.0, 101)
    vals = np.array([mollifier_cdf(v) for v in grid])
    assert np.all(np.diff(vals) >= -1e-15)
    assert abs(mollifier_transform(0.0) - 1.0) <= 1e-12
    assert abs(mollifier_transform(5.0)) < 1.0


@pytest.mark.parametrize("zmax", [20.0, 40.0])  # 400 and 2000 nodes, folded to 200 and 1000
def test_transforms_run_in_blocks_of_points(monkeypatch, zmax):
    # distinct |points| x folded nodes in blocks of _TRANSFORM_BLOCK: with
    # the block cut to 3 or 7 points, every point still gets its own value
    z = np.linspace(-zmax, zmax, 1001)  # 501 distinct |z|
    deriv = appendix_profile("derivative", kappa=1)
    whole = mollifier_transform(z), deriv.fourier_transform(z)
    half = (400 if zmax <= 25.0 else 2000) // 2
    for rows in (3, 7):
        monkeypatch.setattr(nlslab.profiles, "_TRANSFORM_BLOCK", rows * half)
        assert nlslab.profiles._row_blocks(501, half)[1] == slice(rows, 2 * rows)
        blocked = mollifier_transform(z), deriv.fourier_transform(z)
        for got, want in zip(blocked, whole):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# unsorted, repeated, of both signs and with 0; below and above the
# 400/2000-node switch at max|zeta| = 25
_FOLD_POINTS = np.array([3.5, -0.25, 0.0, 7.0, -3.5, 3.5, 0.25, -7.0, 12.125, -0.25])


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_folded_mollifier_transform_matches_the_unfolded_sum(scale):
    z = scale * _FOLD_POINTS
    want = unfolded_mollifier_transform(z)
    got = mollifier_transform(z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # a value does not depend on the order of the points beside it
    assert np.array_equal(mollifier_transform(z[::-1]), got[::-1])
    for zeta in z[:3]:
        scalar = mollifier_transform(float(zeta))
        assert isinstance(scalar, float)
        assert abs(scalar - unfolded_mollifier_transform(zeta)[0]) <= 1e-15


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_folded_base_transform_matches_the_unfolded_sum(scale):
    # the derivative base is real and asymmetric: F(-xi) = conj F(xi) folds
    # xi onto |xi|, and its even and odd parts fold the nodes
    xi = scale * _FOLD_POINTS
    deriv = appendix_profile("derivative", kappa=2)
    want = unfolded_base_transform(xi)
    got = deriv._base_transform(xi)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(got[[0, 4]], [got[0], np.conj(got[0])])


def _table_bound_points():
    """A dense grid on [0, 25], every piece edge and 25 itself, and
    line_sobolev_norm's nodes (its panels' and its first panel's, at the
    periodize orders) times eps = 0.1."""
    h = 80.0 / nlslab.lab.LINE_PANELS
    panels, _ = nlslab.profiles._panel_rule(h * np.arange(1, nlslab.lab.LINE_PANELS + 1), 64)
    heads = [nlslab.lab._head_rule(2.0 * s + 2.0, h)[0] for s in nlslab.PeriodizeConfig().s_list]
    edges = np.arange(nlslab.profiles._TABLE_PIECES + 1) * 0.5
    return np.concatenate([np.linspace(0.0, 25.0, 2001), edges, 0.1 * panels, 0.1 * np.concatenate(heads)])


def test_transform_table_is_within_1e15_of_the_unfolded_sum():
    # the table (max|zeta| <= 25) against the 400-node rule summed over
    # every node, for the bump and for the derivative base, both signs
    z = _table_bound_points()
    assert z.max() == nlslab.profiles.TABLE_REACH == 25.0
    deriv = appendix_profile("derivative", kappa=1)
    for chunk in np.array_split(z, 8):  # bounds the helpers' points x 400 products
        zeta = np.concatenate([chunk, -chunk])
        assert np.max(np.abs(mollifier_transform(zeta) - unfolded_mollifier_transform(zeta))) <= 1e-15
        assert np.max(np.abs(deriv._base_transform(zeta) - unfolded_base_transform(zeta))) <= 1e-15


def test_transform_table_is_built_once_from_the_rule_at_its_points():
    # the table holds the rule's sums at its points, so a point of the table
    # reads its tabulated value; built on first use, then reused
    profiles = nlslab.profiles
    profiles._transform_table.cache_clear()
    edges = np.arange(profiles._TABLE_PIECES + 1) * 0.5
    got = mollifier_transform(edges)
    assert profiles._transform_table.cache_info().currsize == 1
    table = profiles._transform_table("bump")
    assert table.shape == (profiles._TABLE_PIECES, profiles._TABLE_DEGREE + 1)
    assert np.array_equal(got, np.append(table[:, 0], table[-1, -1]))
    assert np.array_equal(table[1:, 0], table[:-1, -1])  # a shared edge has one value
    mollifier_transform(np.linspace(0.0, 25.0, 7))
    assert profiles._transform_table.cache_info().misses == 1


_SHAPES = [np.float64(0.7), np.array([0.7, -1.3, 0.0]), np.array([[0.7, -1.3, 0.0], [2.5, -2.5, 30.0]]),
           np.zeros(0), np.zeros((2, 0))]


@pytest.mark.parametrize("arg", _SHAPES, ids=["0-d", "1-d", "2-d", "empty", "empty-2-d"])
@pytest.mark.parametrize("profile", [appendix_profile("psi1"), appendix_profile("mollified"),
                                     smooth_bump(), appendix_profile("derivative", kappa=2)],
                         ids=["step", "mollified", "bump", "derivative"])
def test_transforms_keep_the_argument_shape(profile, arg):
    got = profile.fourier_transform(arg)
    flat = profile.fourier_transform(np.ravel(arg))
    assert flat.shape == (np.size(arg),)
    if np.ndim(arg) == 0:
        assert isinstance(got, complex) and got == flat[0]
    else:
        assert got.shape == np.shape(arg)
        assert np.array_equal(got.ravel(), flat)
    bump = mollifier_transform(arg)
    assert np.shape(bump) == np.shape(arg)
    assert isinstance(bump, float) if np.ndim(arg) == 0 else np.array_equal(
        bump.ravel(), mollifier_transform(np.ravel(arg)))


def test_bump_mass_is_its_closed_form():
    want = math.exp(-0.5) * (scipy.special.k1(0.5) - scipy.special.k0(0.5))
    assert abs(nlslab.profiles.BUMP_MASS - want) <= 2.0 * math.ulp(want)


@pytest.mark.parametrize("u", [-0.9, -0.5, 0.3, 0.77])
def test_mollifier_cdf_matches_a_quadrature_oracle(u):
    def bump(y):
        return math.exp(-1.0 / (1.0 - y * y))

    tight = dict(epsabs=0.0, epsrel=1.2e-14, limit=200)  # epsrel just above 50 eps, the least quad accepts
    want = quad(bump, -1.0, u, **tight)[0] / quad(bump, -1.0, 1.0, **tight)[0]
    assert abs(mollifier_cdf(u) - want) <= 1e-14


# ---------------------------------------------------------------------------
# derivative profiles and vanishing order

@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
def test_derivative_profile_moments(kappa):
    prof = appendix_profile("derivative", kappa=kappa)
    report = moment_vanishing(prof, kappa)
    assert report.max_moment <= 1e-10
    assert np.isfinite(report.fourier_ratio_max)


def test_fourier_vanishing_order_bounded():
    for kind, kappa in (("psi1", 1), ("psi2", 2), ("psi4", 4)):
        report = moment_vanishing(appendix_profile(kind), kappa)
        assert np.isfinite(report.fourier_ratio_max)
        assert report.fourier_ratio_max > 0.0


# ---------------------------------------------------------------------------
# the centered two-step profile

def test_two_step_profile_pins():
    two = centered_two_step(1.0, 0.3)
    assert two.support_radius == 2.3
    assert abs(two.evaluate(-1.0) - SQRT_PI) <= 1e-12
    assert abs(two.integral_moment(0)) <= 1e-13
    scaled = centered_two_step(2.0, 0.3)
    assert abs(scaled.evaluate(-1.0) - 2.0 * SQRT_PI) <= 1e-12


# ---------------------------------------------------------------------------
# import cost

_IMPORT_PROBE = """
import sys
import numpy.polynomial.legendre as legendre

built = []
leggauss = legendre.leggauss
legendre.leggauss = lambda n: built.append(n) or leggauss(n)
import nlslab
package = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import nlslab.cli
cli = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(max(built, default=0), nlslab.profiles._gauss_rule.cache_info().currsize,
      ",".join(package) or "-", ",".join(cli) or "-")
"""


def test_import_builds_no_large_quadrature_rule():
    # Importing the package must not pay for quadrature rules or modules a
    # run may never use: the 2000-node Gauss-Legendre rule (an eigenvalue
    # problem of size 2000) is built on first use, and neither the package
    # nor its command line loads any scipy module, since numpy.fft supplies
    # every transform and scipy is a test-only dependency.
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert int(out[0]) < 2000, f"import built a {out[0]}-node quadrature rule"
    assert out[1] == "0", "import built a transform quadrature rule"
    assert out[2] == "-", f"import nlslab loaded scipy modules: {out[2]}"
    assert out[3] == "-", f"import nlslab.cli loaded scipy modules: {out[3]}"


@pytest.mark.parametrize("n", [1, 2, 7, 64, 400, 2000])
def test_gauss_rule_matches_leggauss(n):
    nodes, weights, _ = nlslab.profiles._gauss_rule(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-13
    assert np.max(np.abs(weights - want_weights)) <= 1e-13


@pytest.mark.parametrize("n", [400, 2000])
def test_gauss_rule_integrates_the_unit_bump(n):
    # leggauss's weights miss this by 2.9e-14 (n = 400) and 1.1e-13 (n = 2000)
    _, weights, bump = nlslab.profiles._gauss_rule(n)
    assert abs(weights @ bump - 1.0) <= 1e-14
