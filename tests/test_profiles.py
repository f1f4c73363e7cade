"""Compactly supported line profiles: moments, phase integrals, mollification."""
from __future__ import annotations

import math
import os
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
    solve_psi4_parameter,
)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# construction and validation

def test_profile_validation():
    with pytest.raises(ValueError):
        CompactProfile("nope", ((0.0, 1.0, 1.0),), 1.0)
    with pytest.raises(ValueError):
        CompactProfile("step", ((0.0, 1.0, 1.0),), 0.0)
    with pytest.raises(ValueError):
        CompactProfile("mollified", ((0.0, 1.0, 1.0),), 1.0, eps=0.0)
    with pytest.raises(ValueError):
        appendix_profile("nope")
    with pytest.raises(ValueError):
        appendix_profile("mollified", eps=0.6)
    with pytest.raises(ValueError):
        appendix_profile("derivative", kappa=0)


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
    return CompactProfile("step", mirrored + half, a + 1.0)


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
    with pytest.raises(ValueError):
        solve_psi4_parameter(tol=0.0)


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
    out = phase_integral(psi1, 1.0)
    assert abs(out.value - (-4.0 * SQRT_PI)) <= 1e-10
    assert abs(out.modulus - 4.0 * SQRT_PI) <= 1e-10
    psi2 = appendix_profile("psi2")
    assert abs(phase_integral(psi2, 1.0).modulus - 8.0 * SQRT_PI) <= 1e-10
    zero = CompactProfile("step", ((-0.5, 0.5, 0.0),), 0.5)
    assert phase_integral(zero, 1.0).modulus == 0.0
    # at t0 = 0 the two blocks cancel exactly (mean zero)
    assert phase_integral(psi1, 0.0).modulus <= 1e-15


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_mollified_phase_integral_keeps_half(eps):
    prof = appendix_profile("mollified", eps=eps)
    assert phase_integral(prof, 1.0).modulus >= 2.0 * SQRT_PI


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
    assert abs(phase_integral(prof, 1.0).value - want) <= 1e-12


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
print(max(built, default=0), "scipy.signal" in sys.modules,
      nlslab.profiles._gauss_rule.cache_info().currsize,
      "scipy.integrate" in sys.modules)
"""


def test_import_builds_no_large_quadrature_rule():
    # Importing the package must not pay for quadrature rules or modules a
    # run may never use: the 2000-node Gauss-Legendre rule (an eigenvalue
    # problem of size 2000) is built on first use, and neither scipy.signal,
    # slow to import, nor scipy.integrate, which the package does not use,
    # is imported.
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert int(out[0]) < 2000, f"import built a {out[0]}-node quadrature rule"
    assert out[1] == "False", "import pulled in scipy.signal"
    assert out[2] == "0", "import built a transform quadrature rule"
    assert out[3] == "False", "import pulled in scipy.integrate"


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
