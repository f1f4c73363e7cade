"""Time evolution for the cubic family on a circle.

Equations covered by one convention,

    i du/dt + sign * coeff * (-d^2/dx^2)^alpha u + |u|^2 u = 0,

so a free mode n rotates as exp(+i * sign * coeff * (2 pi |n| / L)^(2 alpha) t)
and the dispersionless equation (coeff = 0) is solved exactly by the
pointwise rotation u = phi * exp(i |phi|^2 t).  The Wick variant replaces
|u|^2 u by (|u|^2 - 2 mean|u|^2) u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .torus import (
    BudgetExceededError,
    SpectralField,
    _band_of_spectrum,
    _cubic_coeffs,
    _spectrum_of_band,
    enlarge_band,
    mean_and_l2,
)


class BlowupError(RuntimeError):
    """Non-finite values appeared during integration (truncated blow-up)."""


@dataclass(frozen=True)
class EquationSpec:
    """Dispersion data: exponent alpha, coefficient, sign, Wick flag."""

    alpha: float = 1.0
    dispersion_coeff: float = 1.0
    dispersion_sign: int = 1
    wick: bool = False

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.dispersion_coeff < 0.0:
            raise ValueError("dispersion_coeff must be >= 0")
        if self.dispersion_sign not in (-1, 1):
            raise ValueError("dispersion_sign must be +1 or -1")

    @staticmethod
    def cubic_nls() -> "EquationSpec":
        return EquationSpec()

    @staticmethod
    def wick_nls() -> "EquationSpec":
        return EquationSpec(wick=True)

    @staticmethod
    def ode() -> "EquationSpec":
        return EquationSpec(dispersion_coeff=0.0)

    @staticmethod
    def fractional(alpha: float) -> "EquationSpec":
        return EquationSpec(alpha=alpha)

    @staticmethod
    def small_dispersion(delta: float, alpha: float = 1.0) -> "EquationSpec":
        return EquationSpec(alpha=alpha, dispersion_coeff=delta ** (2.0 * alpha))


@dataclass(frozen=True)
class StepperConfig:
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


# split-step samples a band-M field on next_fast_len(SPLIT_GRID_FACTOR *
# (2M + 1)) points (cubic dealiasing): the cubic term |u|^2 u has band 3M,
# which this grid holds without aliasing
SPLIT_GRID_FACTOR = 3


def free_rotation_rates(field: SpectralField, eq: EquationSpec) -> np.ndarray:
    """Per-mode angular rates: mode n rotates as exp(+i rate t) freely."""
    xi = np.abs(2.0 * np.pi * field.frequencies())
    return eq.dispersion_sign * eq.dispersion_coeff * xi ** (2.0 * eq.alpha)


class EvolveResult(NamedTuple):
    field: SpectralField
    tail_mass: float


def _rotate_in_place(u: np.ndarray, t: float, shift: float, theta: np.ndarray,
                     phase: np.ndarray) -> None:
    """u *= exp(i t (|u|^2 - shift)) pointwise; theta (float) and phase
    (complex) are scratch arrays of u's size."""
    np.multiply(u.real, u.real, out=theta)
    np.multiply(u.imag, u.imag, out=phase.real)  # phase is free until the cos below
    theta += phase.real
    if shift:
        theta -= shift
    theta *= t
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    u *= phase


# grid points per rotation chunk of the closed form: bounds its scratch
# arrays (1.5 MB together) whatever the grid size
_ROTATE_CHUNK = 1 << 16


def ode_grid_size(bandwidth: int, out_bandwidth: int) -> int:
    """Grid of the closed form: 8 times the data band, and at least twice
    the retained output band, rounded up to a fast FFT length."""
    return next_fast_len(max(8 * (2 * bandwidth + 1), 2 * (2 * out_bandwidth + 1)))


def ode_exact_evolve(
    field: SpectralField,
    t: float,
    wick: bool = False,
    out_bandwidth: int | None = None,
) -> EvolveResult:
    """Closed-form dispersionless solution phi * exp(i |phi|^2 t).

    The rotation is not band-limited, so it is sampled on the grid of
    ode_grid_size and re-analyzed.  The discarded tail mass, L times the
    grid spectrum's mass beyond the retained band |n| <= M_out, is summed
    directly over the discarded FFT bins (Parseval), so it is
    non-negative and free of cancellation against the total mass.  The
    inflate experiment picks its out band from this value: the smallest
    band whose tail is at most 1e-20 of the data mass.
    """
    m = field.bandwidth
    m_out = m if out_bandwidth is None else int(out_bandwidth)
    if m_out < m:
        raise ValueError("out_bandwidth cannot be below the input band")
    g = ode_grid_size(m, m_out)
    u = ifft(_spectrum_of_band(field.coeffs, g), norm="forward", overwrite_x=True)
    shift = 2.0 * mean_and_l2(field)[1] if wick else 0.0
    chunk = min(g, _ROTATE_CHUNK)
    theta, phase = np.empty(chunk), np.empty(chunk, dtype=complex)
    for lo in range(0, g, chunk):
        part = u[lo : lo + chunk]
        _rotate_in_place(part, t, shift, theta[: part.size], phase[: part.size])
    spec = fft(u, norm="forward", overwrite_x=True)
    out = SpectralField(field.period, _band_of_spectrum(spec, m_out))
    # bins m_out+1 .. g-m_out-1 are exactly the modes outside |n| <= m_out
    dropped = spec[m_out + 1 : g - m_out]
    tail = float(np.vdot(dropped, dropped).real) * field.period
    return EvolveResult(out, tail)


def split_step_evolve(
    field: SpectralField, eq: EquationSpec, t: float, cfg: StepperConfig
) -> SpectralField:
    """Strang splitting: exact free half-steps around the exact pointwise
    nonlinear rotation.  Second order in dt globally.

    The coefficients are scattered once into a DFT-order spectrum and every
    step runs on that array and its grid values in place; they are gathered
    back to a field once at the end.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return field
    n_steps = max(1, round(t / cfg.dt))
    dt = t / n_steps
    m = field.bandwidth
    g = next_fast_len(SPLIT_GRID_FACTOR * (2 * m + 1))
    half = np.exp(1j * free_rotation_rates(field, eq) * dt / 2.0)
    half_lo, half_hi = half[m:], half[:m]  # modes 0..M and -M..-1, as in the spectrum
    theta, phase = np.empty(g), np.empty(g, dtype=complex)
    spec = _spectrum_of_band(field.coeffs, g)
    for _ in range(n_steps):
        lo, hi = spec[: m + 1], spec[g - m :]  # the band bins
        lo *= half_lo
        hi *= half_hi
        shift = 2.0 * (np.vdot(lo, lo).real + np.vdot(hi, hi).real) if eq.wick else 0.0
        u = ifft(spec, norm="forward", overwrite_x=True)
        _rotate_in_place(u, dt, shift, theta, phase)
        spec = fft(u, norm="forward", overwrite_x=True)
        spec[m + 1 : g - m] = 0.0
        lo, hi = spec[: m + 1], spec[g - m :]
        lo *= half_lo
        hi *= half_hi
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise BlowupError(f"non-finite coefficients at step size {dt}")
    return field.with_coeffs(_band_of_spectrum(spec, m))


def rk4_spectral_evolve(
    field: SpectralField, eq: EquationSpec, t: float, cfg: StepperConfig
) -> SpectralField:
    """Classical RK4 on the truncated coefficient system.

    Independent of the splitting scheme; used to cross-check it.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return field
    rates = free_rotation_rates(field, eq)

    def rhs(c):
        return 1j * (rates * c + _cubic_coeffs(c, eq.wick))

    n_steps = max(1, round(t / cfg.dt))
    dt = t / n_steps
    c = field.coeffs.copy()
    for _ in range(n_steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(c)):
            raise BlowupError(f"non-finite coefficients at step size {dt}")
    return field.with_coeffs(c)


def interaction_picture(
    field: SpectralField, eq: EquationSpec, t: float, inverse: bool = False
) -> SpectralField:
    """Undo the free rotation of `eq`: mode n is multiplied by
    exp(-i rate t), with the rates of free_rotation_rates.

    A free solution becomes constant in time; all weighted-coefficient
    norms are unchanged (modulus-1 multipliers).
    """
    phase = -free_rotation_rates(field, eq) * t
    if inverse:
        phase = -phase
    return field.with_coeffs(field.coeffs * np.exp(1j * phase))


def phase_weight(n: int, n1: int, n2: int, n3: int, alpha: float) -> float:
    """|n|^2a - |n1|^2a + |n2|^2a - |n3|^2a on the resonance set n = n1-n2+n3."""
    if n != n1 - n2 + n3:
        raise ValueError(f"modes violate n = n1 - n2 + n3: {(n, n1, n2, n3)}")
    a2 = 2.0 * alpha
    return float(abs(n) ** a2 - abs(n1) ** a2 + abs(n2) ** a2 - abs(n3) ** a2)


def oscillatory_integral(phi: float, t: float) -> complex:
    """Integral over [0, t] of (1 - exp(-i phi t')): the defect of the
    Duhamel kernel from its resonant value.

    Closed form t - (1 - exp(-i phi t))/(i phi); exactly 0 at phi = 0;
    modulus at most min(2t, t^2 |phi|).
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    z = phi * t
    if z == 0.0:
        return 0.0 + 0.0j
    if abs(z) < 1e-4:
        # series of 1 - (1 - exp(-iz))/(iz), scaled by t, to avoid cancellation
        iz = 1j * z
        acc = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(2, 9):
            term *= -iz / k
            acc += term
        return -t * acc
    return t - (1.0 - np.exp(-1j * z)) / (1j * phi)


def duhamel_kernel(phi: np.ndarray, t: float) -> np.ndarray:
    """Integral over [0, t] of exp(-i phi t'), elementwise, exact at phi=0."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty(phi.shape, dtype=complex)
    small = np.abs(phi * t) < 1e-4
    ps = phi[~small]
    out[~small] = (1.0 - np.exp(-1j * ps * t)) / (1j * ps)
    zs = phi[small] * t
    out[small] = t * (1.0 - 0.5j * zs - zs**2 / 6.0 + 1j * zs**3 / 24.0)
    return out


def gauge_transform(field: SpectralField, t: float, inverse: bool = False) -> SpectralField:
    """Global phase exp(-2 i t mean|u|^2); bridges the plain and Wick flows."""
    _, msq = mean_and_l2(field)
    sign = 1.0 if inverse else -1.0
    return field.with_coeffs(field.coeffs * np.exp(sign * 2j * t * msq))


def scale_map(field: SpectralField, lam: float, delta: float, alpha: float) -> SpectralField:
    """Relabel a field on the circle of circumference delta/lam down to the
    unit circle: mode n/L becomes integer mode n, amplitude times lam^(-alpha).

    Time arguments transform as t = lam^(2 alpha) t_long (caller's books).
    """
    if not 0.0 < lam <= delta:
        raise ValueError("need 0 < lam <= delta")
    L = delta / lam
    if abs(field.period - L) > 1e-9 * L:
        raise ValueError(f"field period {field.period} != delta/lam = {L}")
    return SpectralField(1.0, field.coeffs * lam ** (-alpha))


def galilean_boost(field: SpectralField, beta: int, t: float) -> SpectralField:
    """Boost by an even integer beta: shift every mode up by m = beta/2 and
    apply the two phases that keep boosted trajectories solutions.

    In this 2-pi convention the boosted field is
    exp(2 pi i (m/L) x) exp(i (2 pi m / L)^2 t) u(x + 4 pi m t / L, t).
    """
    if beta != int(beta) or int(beta) % 2 != 0:
        raise ValueError("beta must be an even integer")
    m_shift = int(beta) // 2
    if m_shift == 0:
        return field
    L = field.period
    m = field.bandwidth
    out = np.zeros_like(field.coeffs)
    n = field.modes()
    src = n - m_shift
    ok = np.abs(src) <= m
    carrier = np.exp(1j * (2.0 * np.pi * m_shift / L) ** 2 * t)
    translation = np.exp(2j * np.pi * (src[ok] / L) * (4.0 * np.pi * m_shift * t / L))
    out[ok] = carrier * translation * field.coeffs[src[ok] + m]
    return field.with_coeffs(out)


# ---------------------------------------------------------------------------
# Picard iterates in the interaction picture

def _support_arrays(field: SpectralField):
    n = field.modes()
    nz = field.coeffs != 0.0
    return n[nz], field.coeffs[nz]


# default order-1 triple budget: admits crit_half N = 128 (6.1e6 triples)
# and frac_crit theta = 0.1 N = 256 (1.3e7), refuses crit_half N = 256
# (4.9e7) and frac_crit N = 512 (8.3e7)
PICARD_BUDGET = 25_000_000

# pairs per vectorised block of the order-1 sum: bounds its temporaries
# (about 0.5 MB per array) whatever the support size
_PAIR_BLOCK = 32768


def _order_one_coeffs(
    n_sup: np.ndarray,
    c_sup: np.ndarray,
    pow_table: np.ndarray,
    out_band: int,
    symbol_scale: float,
    t: float,
) -> np.ndarray:
    """i * sum over n = n1 - n2 + n3 of K(Phi) c1 conj(c2) c3, on the band
    |n| <= out_band, where pow_table[n + out_band] = |n|^(2 alpha) and
    Phi = symbol_scale * (P[n] - P[n1] + P[n2] - P[n3]).

    The summand is symmetric in n1 <-> n3, so each unordered pair n1 <= n3
    is taken once, with weight 2 off the diagonal, and every n2 in the
    support completes it to a triple with n = n1 + n3 - n2: |S|^2 (|S|+1)/2
    terms and no masking.
    """
    i1, i3 = np.triu_indices(n_sup.size)
    b1, b3 = n_sup[i1] + out_band, n_sup[i3] + out_band  # band indices
    b13 = b1 + b3
    w13 = np.where(i1 == i3, 1.0, 2.0) * c_sup[i1] * c_sup[i3]
    p13 = pow_table[b1] + pow_table[b3]
    # No transcendental per triple: exp(-i Phi t) = rot[n] conj(rot[n1]
    # rot[n3]) rot[n2].  Each table entry carries a rounding error of about
    # u |symbol_scale P[k] t| (u = 2^-53), at most 2e-13 on the inflate data
    # at N <= 256, so a triple's i K(Phi) = (1 - exp(-i Phi t)) / Phi errs
    # by at most about 4 u max|symbol_scale P t| / |Phi|.  Taking
    # exp(-i Phi t) directly errs as much for alpha != 1, where the P[k]
    # round; for alpha = 1 it errs by only u |Phi t|.
    rot = np.exp(-1j * (symbol_scale * t) * pow_table)
    v13 = w13 * np.conj(rot[b1] * rot[b3])  # (1 - e) w13 = w13 - v13 rot[n] rot[n2]
    size = 2 * out_band + 1
    acc = np.zeros(size, dtype=complex)
    cut = 1e-4 / t if t > 0.0 else np.inf  # |Phi t| < 1e-4: duhamel_kernel's series
    with np.errstate(divide="ignore", invalid="ignore"):  # Phi = 0 is replaced below
        for lo in range(0, b13.size, _PAIR_BLOCK):
            blk = slice(lo, lo + _PAIR_BLOCK)
            for b2, c2 in zip(n_sup + out_band, np.conj(c_sup)):
                idx = b13[blk] - b2  # band index of n = n1 + n3 - n2
                phi = symbol_scale * (pow_table[idx] - p13[blk] + pow_table[b2])
                num = w13[blk] - v13[blk] * (rot * rot[b2])[idx]
                re, im = num.real / phi, num.imag / phi
                small = np.abs(phi) < cut
                if small.any():
                    kern = 1j * w13[blk][small] * duhamel_kernel(phi[small], t)
                    re[small], im[small] = kern.real, kern.imag
                acc += c2 * (np.bincount(idx, re, size) + 1j * np.bincount(idx, im, size))
    return acc


def picard_expansion(
    phi: SpectralField, eq: EquationSpec, t: float, budget: int = PICARD_BUDGET
) -> SpectralField:
    """First Picard iterate of the interaction-picture Duhamel equation:
    phi + i sum over the resonance set n = n1 - n2 + n3 of the closed-form
    time integral of exp(-i Phi t') times the coefficient triple product.

    The |S|^2 (|S| + 1) / 2 triples the summation visits (S the support)
    are checked against ``budget`` before any O(|S|^2) work; over budget
    it refuses with a size report.  The output band is 3 max|n| over the
    support, or phi's own band if that is wider.  The sum has no Wick
    form, so it refuses a Wick equation.
    """
    if eq.wick:
        raise ValueError("picard_expansion has no Wick form: the order-1 sum omits the "
                         "-2 mean|u|^2 u term")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    n_sup, c_sup = _support_arrays(phi)
    if n_sup.size == 0:
        return phi
    work = n_sup.size ** 2 * (n_sup.size + 1) // 2
    if work > budget:
        raise BudgetExceededError(
            f"order-1 triple summation needs {work} kernel evaluations (budget {budget})",
            required=work,
            budget=budget,
        )

    out_band = max(3 * int(np.max(np.abs(n_sup))), phi.bandwidth)
    a2 = 2.0 * eq.alpha
    symbol_scale = eq.dispersion_sign * eq.dispersion_coeff * (2.0 * np.pi / phi.period) ** a2
    pow_table = np.abs(np.arange(-out_band, out_band + 1, dtype=float)) ** a2
    first = _order_one_coeffs(n_sup, c_sup, pow_table, out_band, symbol_scale, t)
    return SpectralField(phi.period, enlarge_band(phi, out_band).coeffs + first)
