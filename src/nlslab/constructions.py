"""Norm-inflating data families, parameter schedules, and the power-series
terms of the exact dispersionless solution.

Two-block data puts a constant coefficient R on the integer frequencies of
two width-A blocks centered at N and 2N.  Its cubic self-interaction dumps
mass near frequency zero, which the negative-order norms amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import next_fast_len

from .profiles import _panel_rule
from .torus import (
    BudgetExceededError,
    SpectralField,
    analyze,
    project_below,
    sobolev_norm,
    synthesize,
)

# the two-block regimes, each with a schedule in regime_parameters
REGIMES = ("crit_half", "negative_s", "frac_crit")


@dataclass(frozen=True)
class InflationScenario:
    """Which inflation mechanism to run and at what parameters."""

    regime: str
    s: float
    N: int | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "crit_half" and self.s != -0.5:
            raise ValueError("crit_half regime requires s = -1/2")
        if self.regime == "negative_s" and not self.s < 0.0:
            raise ValueError("negative_s regime requires s < 0")
        if self.regime == "frac_crit":
            if self.theta is None or not self.theta > 0.0:
                raise ValueError("frac_crit regime requires theta > 0")
            if not self.s < -0.5 - 3.0 * self.theta:
                raise ValueError("frac_crit regime requires s < -1/2 - 3 theta")
        if self.N is None:
            raise ValueError(f"regime {self.regime} requires N")


@dataclass(frozen=True)
class RegimeSchedule:
    """One two-block schedule: block height R, block width A, time T_N,
    the predicted lower bound on the inflated norm, the factors g(N, s)
    and f(A, s), and the fixed-point horizon T_star = 1/(2 ||data||_W)^2
    for comparison with T_N (computed, never enforced)."""

    R: float
    A: float
    T_N: float
    predicted_lower_bound: float
    g_factor: float
    f_factor: float
    T_star: float


# smallest N the asymptotic factor g(N, s), and so every two-block schedule,
# is defined for
MIN_BLOCK_N = 16


def g_factor(N: float, s: float) -> float:
    """Low-frequency gain factor of the negative-order lower bound."""
    if not s < 0.0:
        raise ValueError("defined for s < 0")
    if N < MIN_BLOCK_N:
        raise ValueError("N too small for the asymptotic factor")
    if s < -0.5:
        return 1.0
    if s == -0.5:
        return math.sqrt(math.log(math.log(N)))
    return math.log(N) ** (0.5 + s)


def f_factor(A: float | np.ndarray, s: float) -> float | np.ndarray:
    """Block-width factor in the series bounds: 1 for s < -1/2, sqrt(log A)
    at s = -1/2, A^(1/2+s) above; elementwise when A is an array."""
    if not np.min(A) > 1.0:
        raise ValueError("A must exceed 1")
    if s == -0.5:
        return np.sqrt(np.log(A))
    return A ** max(0.0, 0.5 + s)  # A^0 = 1 below s = -1/2


def regime_parameters(scenario: InflationScenario) -> RegimeSchedule:
    """R, A, T_N and reference values for the two-block regimes."""
    s, N = scenario.s, scenario.N
    try:
        if scenario.regime == "crit_half":
            logn = math.log(N)
            R = 1.0
            A = N / logn ** (1.0 / 16.0)
            T = 1.0 / (N * N * logn ** 0.125)
            predicted = logn**0.25
        elif scenario.regime == "negative_s":
            logn = math.log(N)
            R = N ** (-s) / logn
            A = logn
            T = N ** (2.0 * s) / logn
            predicted = N ** (-s) * logn ** (-2.0) * g_factor(N, s)
        else:  # frac_crit
            th = scenario.theta
            R = N ** (-0.5 - s)
            A = N ** (1.0 - th)
            T = N ** (2.0 * s - 1.0 - th)
            predicted = N ** (-0.5 - s - 3.0 * th)
    except OverflowError:
        amplitude = "N^(-s)/log N" if scenario.regime == "negative_s" else "N^(-1/2-s)"
        raise ValueError(f"the {scenario.regime} schedule at N={N}, s={s} overflows a float: "
                         f"R = {amplitude} is out of float range") from None
    half = math.floor(A / 2.0)
    width = 2 * half + 1
    T_star = 1.0 / (2.0 * R * width) ** 2 if width > 0 else math.inf
    return RegimeSchedule(
        R=R,
        A=A,
        T_N=T,
        predicted_lower_bound=predicted,
        g_factor=g_factor(N, s),
        f_factor=f_factor(A, s),
        T_star=T_star,
    )


def _block_modes(N: int, half: int) -> np.ndarray:
    b1 = np.arange(N - half, N + half + 1)
    b2 = np.arange(2 * N - half, 2 * N + half + 1)
    return np.concatenate([b1, b2])


@dataclass(frozen=True)
class LineBlockData:
    """Two-block data on the real line: transform R on [N +- A/2] and
    [2N +- A/2].  Periodize onto a circle to compute with it."""

    R: float
    A: float
    N: int

    def fourier_transform(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        half = self.A / 2.0
        in_blocks = (np.abs(xi - self.N) <= half) | (np.abs(xi - 2.0 * self.N) <= half)
        return self.R * in_blocks.astype(complex)

    def periodize(self, L: float, bandwidth: int | None = None) -> SpectralField:
        """Coefficients R/L on every lattice point n/L inside the blocks."""
        if L < 1.0:
            raise ValueError("period must be >= 1")
        top = math.floor((2.0 * self.N + self.A / 2.0) * L)
        m = top if bandwidth is None else int(bandwidth)
        if m < top:
            raise ValueError(f"bandwidth {m} clips the blocks (need {top})")
        n = np.arange(-m, m + 1)
        return SpectralField(L, self.fourier_transform(n / L) / L)

    def line_sobolev_norm(self, s: float, homogeneous: bool = False) -> float:
        """Exact line norm: R * (integral of the weight over the blocks)^(1/2),
        by 64-node Gauss-Legendre on each block."""
        half = self.A / 2.0
        x, w = _panel_rule(np.add.outer([self.N, 2.0 * self.N], [-half, half]), 64)
        weight = np.abs(x) ** (2.0 * s) if homogeneous else (1.0 + x * x) ** s
        return self.R * math.sqrt(float(np.sum(w * weight)))


def build_two_block_data(
    regime: str,
    N: int,
    s: float | None = None,
    theta: float | None = None,
    bandwidth: int | None = None,
):
    """Two-block initial data for the given regime.

    Regimes 'crit_half' and 'frac_crit' return a SpectralField on the unit
    circle; 'negative_s' follows the real-line normalization, so it returns
    LineBlockData for the caller to periodize.

    Refuses when the blocks would overlap each other or reach frequency 0.
    """
    if regime == "crit_half":
        s = -0.5
    if s is None:
        raise ValueError("s is required")
    scenario = InflationScenario(regime=regime, s=s, N=N, theta=theta)
    sched = regime_parameters(scenario)
    half = math.floor(sched.A / 2.0)
    if 2 * half >= N:
        raise ValueError(f"blocks overlap: width {2 * half + 1} vs separation {N}")
    if half >= N:
        raise ValueError("block touches frequency 0")
    if regime == "negative_s":
        return LineBlockData(R=sched.R, A=sched.A, N=N)
    m = (2 * N + half) if bandwidth is None else int(bandwidth)
    modes = _block_modes(N, half)
    if m < modes.max():
        raise ValueError(f"bandwidth {m} clips the blocks (need {modes.max()})")
    coeffs = np.zeros(2 * m + 1, dtype=complex)
    coeffs[modes + m] = sched.R
    return SpectralField(1.0, coeffs)


# ---------------------------------------------------------------------------
# power-series terms of the dispersionless solution

def xi_term(phi: SpectralField, k: int, t: float, max_bandwidth: int = 2**21) -> SpectralField:
    """Exact coefficients of the k-th series term (it)^k/k! |phi|^2k phi.

    The term is band-limited with band (2k+1) M, so a fully padded grid
    computes it exactly.  Refuses when that band exceeds max_bandwidth.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return phi
    m = phi.bandwidth
    band = (2 * k + 1) * m
    if band > max_bandwidth:
        raise BudgetExceededError(
            f"series term k={k} needs bandwidth {band} (budget {max_bandwidth})",
            required=band,
            budget=max_bandwidth,
        )
    g = next_fast_len(2 * band + 1)
    u = synthesize(phi, g)
    w = (1j * t) ** k / math.factorial(k) * np.abs(u) ** (2 * k) * u
    return analyze(w, phi.period, band)


def xi_series_tail(phi: SpectralField, K: int, t: float) -> float:
    """Upper bound on the L^2(T_L) norm of the series tail beyond K terms:
    ||phi||_L2 times the factorial remainder of exp(t ||phi||_FL1^2).
    ||phi||_FL1 = sum |c_n| bounds max|phi| without sampling the field."""
    r = t * float(np.sum(np.abs(phi.coeffs))) ** 2
    l2 = math.sqrt(phi.period * float(np.sum(np.abs(phi.coeffs) ** 2)))
    # remainder sum_{k>K} r^k/k! computed by scaling down from exp(r)
    tail = math.exp(r)
    partial = 0.0
    term = 1.0
    for k in range(K + 1):
        partial += term
        term *= r / (k + 1)
    return l2 * max(tail - partial, 0.0)


def certify_tail(phi: SpectralField, t: float, target: float, k_max: int = 80) -> tuple[int, float]:
    """Smallest K whose factorial tail bound is below target; (K, bound)."""
    for K in range(k_max + 1):
        b = xi_series_tail(phi, K, t)
        if b < target:
            return K, b
    raise BudgetExceededError(f"tail bound not below {target} by K={k_max}", required=k_max)


class Xi1Measurement(NamedTuple):
    measured: float
    reference: float
    constant: float


def xi1_lower_measurement(
    phi: SpectralField,
    t: float,
    s: float,
    N: int,
    R: float | None = None,
    A: float | None = None,
) -> Xi1Measurement:
    """Low-frequency mass of the first series term against the reference
    t R^3 A^2 f(A); the returned constant is their ratio."""
    if R is None or A is None:
        nz = np.abs(phi.coeffs[phi.coeffs != 0.0])
        R = float(nz.max()) if R is None else R
        A = float(nz.size / 2.0) if A is None else A
    xi1 = xi_term(phi, 1, t)
    low = project_below(xi1, N)
    measured = sobolev_norm(low, s)
    reference = t * R**3 * A**2 * f_factor(A, s)
    return Xi1Measurement(measured, reference, measured / reference if reference else math.inf)
