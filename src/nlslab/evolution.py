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

from .torus import (
    BudgetExceededError,
    SpectralField,
    _band_of_spectrum,
    _cubic_coeffs,
    _spectrum_of_band,
    enlarge_band,
    fft,
    ifft,
    mean_and_l2,
    next_fast_len,
    split_grid_size,
    synthesize,
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
    def small_dispersion(delta: float, alpha: float = 1.0) -> "EquationSpec":
        return EquationSpec(alpha=alpha, dispersion_coeff=delta ** (2.0 * alpha))


@dataclass(frozen=True)
class StepperConfig:
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


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
    u = synthesize(field, g)
    shift = 2.0 * mean_and_l2(field)[1] if wick else 0.0
    chunk = min(g, _ROTATE_CHUNK)
    theta, phase = np.empty(chunk), np.empty(chunk, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is refused below
        for lo in range(0, g, chunk):
            part = u[lo : lo + chunk]
            _rotate_in_place(part, t, shift, theta[: part.size], phase[: part.size])
        spec = fft(u, norm="forward", out=u)
        out = SpectralField(field.period, _band_of_spectrum(spec, m_out))
        # bins m_out+1 .. g-m_out-1 are exactly the modes outside |n| <= m_out
        dropped = spec[m_out + 1 : g - m_out]
        tail = float(np.vdot(dropped, dropped).real) * field.period
    if not (np.isfinite(out.coeffs).all() and np.isfinite(tail)):
        raise BlowupError(f"non-finite coefficients in the closed form at t = {t}")
    return EvolveResult(out, tail)


def split_step_evolve(
    field: SpectralField, eq: EquationSpec, t: float, cfg: StepperConfig
) -> SpectralField:
    """Strang splitting: exact free half-steps around the exact pointwise
    nonlinear rotation.  Second order in dt globally.

    The coefficients are scattered once into a DFT-order spectrum on the
    grid of split_grid_size, and every step runs on that array and its grid
    values in place; they are gathered back to a field once at the end.
    Only the rotation's terms of order (dt |u|^2)^2 and above alias into the band.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return field
    n_steps = max(1, round(t / cfg.dt))
    dt = t / n_steps
    m = field.bandwidth
    g = split_grid_size(m)
    half = np.exp(1j * free_rotation_rates(field, eq) * dt / 2.0)
    half_lo, half_hi = half[m:], half[:m]  # modes 0..M and -M..-1, as in the spectrum
    theta, phase = np.empty(g), np.empty(g, dtype=complex)
    spec = _spectrum_of_band(field.coeffs, g)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is refused below
        for _ in range(n_steps):
            lo, hi = spec[: m + 1], spec[g - m :]  # the band bins
            lo *= half_lo
            hi *= half_hi
            shift = 2.0 * (np.vdot(lo, lo).real + np.vdot(hi, hi).real) if eq.wick else 0.0
            u = ifft(spec, norm="forward", out=spec)
            _rotate_in_place(u, dt, shift, theta, phase)
            spec = fft(u, norm="forward", out=u)
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


def interaction_picture(field: SpectralField, eq: EquationSpec, t: float) -> SpectralField:
    """Undo the free rotation of `eq`: mode n is multiplied by
    exp(-i rate t), with the rates of free_rotation_rates.  Passing -t
    undoes time t.

    A free solution becomes constant in time; all weighted-coefficient
    norms are unchanged (modulus-1 multipliers).
    """
    phase = -free_rotation_rates(field, eq) * t
    return field.with_coeffs(field.coeffs * np.exp(1j * phase))


def duhamel_kernel(phi: np.ndarray, t: float) -> np.ndarray:
    """Integral over [0, t] of exp(-i phi t'), elementwise, exact at phi=0.

    With z = phi t that is (1 - exp(-i z)) / (i phi) = (sin z - 2i sin^2(z/2)) / phi;
    the half-angle form keeps 1 - cos z free of cancellation.  Below
    |z| = 1e-4 it takes the Taylor series instead.
    """
    phi = np.asarray(phi, dtype=float)
    z = phi * t
    out = np.empty(phi.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):  # phi = 0 takes the series below
        half = np.sin(0.5 * z)
        np.divide(np.sin(z), phi, out=out.real)
        np.divide(-2.0 * half * half, phi, out=out.imag)
    small = np.abs(z) < 1e-4
    if small.any():
        zs = z[small]
        out[small] = t * (1.0 - 0.5j * zs - zs**2 / 6.0 + 1j * zs**3 / 24.0)
    return out


def gauge_transform(field: SpectralField, t: float) -> SpectralField:
    """Global phase exp(-2 i t mean|u|^2); bridges the plain and Wick flows.
    Passing -t undoes time t."""
    _, msq = mean_and_l2(field)
    return field.with_coeffs(field.coeffs * np.exp(-2j * t * msq))


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


# default order-1 budget, in the triples of picard_triples: admits crit_half
# N = 128 (6.1e6 triples) and frac_crit theta = 0.1 N = 256 (1.3e7),
# refuses crit_half N = 256 (4.9e7) and frac_crit N = 512 (8.3e7).  The
# sum runs once per offset n1 - n2 (_order_one_by_offset) in at most |S|^3
# kernel values, for every alpha.  On a 2-CPU Xeon one alpha = 1 call takes
# 0.02 / 0.05 / 0.17 s at crit_half N = 64 / 128 / 256 and 0.04 / 0.10 s at
# frac_crit N = 128 / 256.  At alpha != 1 every offset gathers its kernel
# values: alpha = 0.75 / 1.5 take 0.06 / 0.10 s and 0.44 / 0.70 s at
# crit_half N = 64 / 128, and 0.19 / 0.19 s and 1.5 / 1.2 s at frac_crit
# N = 128 / 256
PICARD_BUDGET = 25_000_000

# gathered kernel values per vectorised block of the order-1 sum: bounds
# its temporaries (about 0.5 MB per array) whatever the support size
_PAIR_BLOCK = 32768

# cost of one duhamel_kernel value in _order_one_by_offset, in multiply-adds
# of np.convolve: measured 37-64 ns against 0.34-0.56 ns on a 2-CPU Xeon
_KERNEL_COST = 100


def _order_one_by_offset(
    n_sup: np.ndarray, c_sup: np.ndarray, out_band: int, symbol_scale: float, alpha: float,
    t: float,
) -> np.ndarray:
    """i * sum over n = n1 - n2 + n3 of K(Phi) c1 conj(c2) c3 on the band
    |n| <= out_band, K = duhamel_kernel, one offset a = n1 - n2 at a time.
    With n1 = n2 + a and n = n3 + a the resonance is Phi = symbol_scale *
    (D_a(n3) - D_a(n2)), D_a(m) = |m + a|^(2 alpha) - |m|^(2 alpha), so for
    each a in S - S, with X_a[n2] = c[n2 + a] conj(c[n2]) on I_a = {n2 in
    S : n2 + a in S}, the sum is

        acc[n3 + a] += c[n3] * sum over n2 of X_a[n2] K(Phi(n2, n3)).

    The kernel is gathered at the |I_a| |S| pairs (n2, n3) and multiplied
    by X_a.  At alpha = 1, D_a(n3) - D_a(n2) is exactly the integer
    2 a (n3 - n2) in floating point, so the sum is a Toeplitz product in
    d = n3 - n2, and an offset may instead take np.convolve of X_a over its
    run (min I_a .. max I_a) with the kernel on the run + W - 1
    differences, W the span of S: run * W multiply-adds.  It does when
    that costs less, a kernel value counting as _KERNEL_COST
    multiply-adds.  The sum of |I_a| over the offsets is |S|^2, so the
    kernel values stay within |S|^3, twice the triples the budget counts,
    and the multiply-adds within _KERNEL_COST |S|^3.
    """
    k = n_sup.size
    lo_s, hi_s = int(n_sup[0]), int(n_sup[-1])  # the support is sorted
    window = hi_s - lo_s + 1
    power = np.abs(n_sup) ** (2.0 * alpha)
    # the ordered pairs i1 * |S| + i2 grouped by offset; within a group i2 ascends
    diff = np.subtract.outer(n_sup, n_sup).ravel()
    order = np.argsort(diff, kind="stable")
    diff = diff[order]
    starts = np.concatenate(([0], np.flatnonzero(diff[1:] != diff[:-1]) + 1))
    ends = np.append(starts[1:], diff.size)
    rows = max(1, _PAIR_BLOCK // k)  # gathered rows per block: bounds the temporaries
    acc = np.zeros(2 * out_band + 1, dtype=complex)
    for a, lo, hi in zip(diff[starts].tolist(), starts, ends):
        i1, i2 = np.divmod(order[lo:hi], k)
        x = c_sup[i1] * np.conj(c_sup[i2])
        n2 = n_sup[i2]
        run = int(n2[-1]) - int(n2[0]) + 1
        if alpha == 1.0 and (run * window + _KERNEL_COST * (run + window - 1)
                             <= _KERNEL_COST * n2.size * k):
            dense = np.zeros(run, dtype=complex)
            dense[n2 - n2[0]] = x
            d = np.arange(lo_s - int(n2[-1]), hi_s - int(n2[0]) + 1)
            y = np.convolve(duhamel_kernel(symbol_scale * (2 * a * d), t), dense, "valid")[n_sup - lo_s]
        else:
            shift = np.abs(n_sup + a) ** (2.0 * alpha) - power  # D_a on the support
            y = sum(np.matmul(x[j : j + rows],
                              duhamel_kernel(symbol_scale * (shift - shift[i2[j : j + rows], None]), t))
                    for j in range(0, n2.size, rows))
        acc[n_sup + (a + out_band)] += c_sup * y
    return 1j * acc


def picard_triples(phi: SpectralField) -> int:
    """The |S|^2 (|S| + 1) / 2 coefficient triples of the order-1 sum, S
    the support of phi: what picard_expansion checks against its budget."""
    k = int(np.count_nonzero(phi.coeffs))
    return k * k * (k + 1) // 2


def picard_expansion(
    phi: SpectralField, eq: EquationSpec, t: float, budget: int = PICARD_BUDGET
) -> SpectralField:
    """First Picard iterate of the interaction-picture Duhamel equation:
    phi + i sum over the resonance set n = n1 - n2 + n3 of the closed-form
    time integral of exp(-i Phi t') times the coefficient triple product.

    The |S|^2 (|S| + 1) / 2 triples of picard_triples (S the support) are
    checked against ``budget`` before any O(|S|^2) work; over budget it
    refuses with a size report.  The sum runs once per offset n1 - n2
    (_order_one_by_offset), for every alpha.  The output band is 3 max|n|
    over the support, or phi's own band if that is wider.  The sum has no Wick
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
    work = picard_triples(phi)
    if work > budget:
        raise BudgetExceededError(
            f"order-1 sum over {work} coefficient triples exceeds the budget {budget}",
            required=work,
            budget=budget,
        )

    out_band = max(3 * int(np.max(np.abs(n_sup))), phi.bandwidth)
    symbol_scale = (eq.dispersion_sign * eq.dispersion_coeff
                    * (2.0 * np.pi / phi.period) ** (2.0 * eq.alpha))
    first = _order_one_by_offset(n_sup, c_sup, out_band, symbol_scale, eq.alpha, t)
    return SpectralField(phi.period, enlarge_band(phi, out_band).coeffs + first)
