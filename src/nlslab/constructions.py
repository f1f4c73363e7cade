"""Norm-inflating data families, parameter schedules, and the power-series
terms of the exact dispersionless solution.

Two-block data is the line transform R on two width-A blocks centered at N
and 2N, sampled on the lattice n/L of a circle of circumference L; on the
unit circle it puts R on the integer frequencies of the blocks.  Its cubic
self-interaction dumps mass near frequency zero, which the negative-order
norms amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .torus import (
    BudgetExceededError,
    SpectralField,
    _frozen,
    analyze,
    next_fast_len,
    project_below,
    sobolev_norm,
    synthesize,
)

# the two-block regimes, each with a schedule in regime_parameters
REGIMES = ("crit_half", "negative_s", "frac_crit")


@dataclass(frozen=True)
class RegimeSchedule:
    """One two-block schedule at frequency scale N: block height R, block
    width A, time T_N and the predicted lower bound on the inflated norm."""

    N: int
    R: float
    A: float
    T_N: float
    predicted_lower_bound: float


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


def regime_parameters(regime: str, N: int, s: float, theta: float | None = None) -> RegimeSchedule:
    """R, A, T_N and the predicted lower bound of a two-block regime at N."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "crit_half" and s != -0.5:
        raise ValueError("crit_half regime requires s = -1/2")
    if regime == "negative_s" and not s < 0.0:
        raise ValueError("negative_s regime requires s < 0")
    if regime == "frac_crit":
        if theta is None or not theta > 0.0:
            raise ValueError("frac_crit regime requires theta > 0")
        if not s < -0.5 - 3.0 * theta:
            raise ValueError("frac_crit regime requires s < -1/2 - 3 theta")
    if not N >= MIN_BLOCK_N:
        raise ValueError(f"N too small: regime {regime} requires N >= {MIN_BLOCK_N}, got {N}")
    logn = math.log(N)
    try:
        if regime == "crit_half":
            R = 1.0
            A = N / logn ** (1.0 / 16.0)
            T = 1.0 / (N * N * logn ** 0.125)
            predicted = logn**0.25
        elif regime == "negative_s":
            R = N ** (-s) / logn
            A = logn
            T = N ** (2.0 * s) / logn
            predicted = N ** (-s) * logn ** (-2.0) * g_factor(N, s)
        else:  # frac_crit
            R = N ** (-0.5 - s)
            A = N ** (1.0 - theta)
            T = N ** (2.0 * s - 1.0 - theta)
            predicted = N ** (-0.5 - s - 3.0 * theta)
    except OverflowError:  # N^2 of T_N in crit_half, the height R in the others
        quantity = {"crit_half": "N^2 in T_N = 1/(N^2 (log N)^(1/8))",
                    "negative_s": "R = N^(-s)/log N", "frac_crit": "R = N^(-1/2-s)"}[regime]
        raise ValueError(f"the {regime} schedule at N={N:g}, s={s} overflows a float: "
                         f"{quantity} is out of float range") from None
    return RegimeSchedule(N=N, R=R, A=A, T_N=T, predicted_lower_bound=predicted)


# largest band floor((2N + A/2) L) build_two_block_data allocates, twice the
# 262 277 of negative_s at N = 4096 on L = 32.  An inflate point near it is
# costly: negative_s at N = 4096 on L = 63 (band 516 358) runs the closed
# form on 8 266 860 grid points and peaks at 271 MB in 0.85-0.95 s (in
# process, one thread) on a 2-CPU Xeon, and data that needs a wider out
# band than 5x the band (lab's ODE_K_RANGE) grows that grid up to 19/8-fold
MAX_TWO_BLOCK_BAND = 2**19


def build_two_block_data(sched: RegimeSchedule, period: float = 1.0) -> SpectralField:
    """Two-block data on the circle of circumference L = period: the line
    transform R on [N +- A/2] and [2N +- A/2], sampled on the lattice n/L
    and scaled by 1/L.  On the unit circle that is R on the integers within
    floor(A/2) of N and 2N, on the band 2N + floor(A/2).

    Refuses when the blocks would overlap, when L < 1, and when the band
    floor((2N + A/2) L) exceeds MAX_TWO_BLOCK_BAND.
    """
    N, R, A, L = sched.N, sched.R, sched.A, period
    half = math.floor(A / 2.0)
    if 2 * half >= N:
        raise ValueError(f"blocks overlap: width {2 * half + 1} vs separation {N}")
    if L < 1.0:
        raise ValueError("period must be >= 1")
    m = math.floor((2.0 * N + A / 2.0) * L)
    if m > MAX_TWO_BLOCK_BAND:
        raise ValueError(f"two-block data at N={N} on period {L:g} needs band {m}, above "
                         f"the limit {MAX_TWO_BLOCK_BAND}")
    xi = np.arange(-m, m + 1) / L
    in_blocks = (np.abs(xi - N) <= A / 2.0) | (np.abs(xi - 2.0 * N) <= A / 2.0)
    return SpectralField(L, _frozen(np.where(in_blocks, complex(R / L), 0j)))


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
    ||phi||_L2 times sum_{k>K} r^k/k!, r = |t| ||phi||_FL1^2, as ||phi||_FL1
    = sum |c_n| bounds max|phi| without sampling the field.  The terms are
    summed from the first, never as exp(r) minus a partial sum, which
    cancels; once k + 1 > r the rest is at most term/(1 - r/(k+1)), added
    when below a unit roundoff of the sum, and the factor 1 + 4 k eps covers
    the roundings (within 1e-12 above exact for r <= 100, K <= 80)."""
    r = abs(t) * float(np.sum(np.abs(phi.coeffs))) ** 2
    l2 = math.sqrt(phi.period * float(np.sum(np.abs(phi.coeffs) ** 2)))
    term = 1.0
    for k in range(1, K + 2):
        term *= r / k
    total, k = 0.0, K + 1
    while total < math.inf:  # inf on overflow and for a non-finite r
        total += term
        k += 1
        term *= r / k  # r^k/k!
        if k + 1 > r:
            rest = term / (1.0 - r / (k + 1))
            if rest <= 2.0**-53 * total:
                return l2 * (total + rest) * (1.0 + 2.0**-50 * k)
    return math.inf


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


def xi1_lower_measurement(phi: SpectralField, t: float, s: float, N: int) -> Xi1Measurement:
    """Low-frequency mass of the first series term below N, against the
    reference t R^3 A^2 f(A); the returned constant is their ratio.  R and
    A are read off phi: R is its largest coefficient size and A half its
    count of nonzero modes, which for two-block data on L = 1 are the
    block height and, within one mode, the block width."""
    nz = np.abs(phi.coeffs[phi.coeffs != 0.0])
    R, A = float(nz.max()), float(nz.size / 2.0)
    xi1 = xi_term(phi, 1, t)
    low = project_below(xi1, N)
    measured = sobolev_norm(low, s)
    reference = t * R**3 * A**2 * f_factor(A, s)
    return Xi1Measurement(measured, reference, measured / reference if reference else math.inf)
