"""Spectral fields on a circle of circumference L and their norms.

A field is stored by its Fourier coefficients on the frequency lattice
{n/L : |n| <= M}.  Conventions:

    coefficient   c_n = (1/L) * integral of f(x) exp(-2*pi*i*(n/L)*x) dx
    synthesis     f(x) = sum_n c_n exp(2*pi*i*(n/L)*x)

so the L^2 norm over one period is L^{1/2} * (sum |c_n|^2)^{1/2}.
Sample grids are centered: x_j = j*L/G - L/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft  # the package's one FFT provider; others import from here


class BudgetExceededError(RuntimeError):
    """A computation would exceed its declared size budget.

    Attributes:
        required: the size the computation would need.
        budget: the limit that was in force.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SpectralField:
    """Band-limited field on the circle of circumference ``period``.

    ``coeffs`` has odd length 2M+1; entry i holds the coefficient of
    mode n = i - M.
    """

    period: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0 or c.size < 3:
            raise ValueError("coeffs must be 1-d with odd length >= 3")
        if not self.period >= 1.0:
            raise ValueError(f"period must be >= 1, got {self.period}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def bandwidth(self) -> int:
        """Largest retained |n| (the M in coeffs length 2M+1)."""
        return (self.coeffs.size - 1) // 2

    def modes(self) -> np.ndarray:
        """Integer mode numbers n, aligned with coeffs."""
        m = self.bandwidth
        return np.arange(-m, m + 1)

    def frequencies(self) -> np.ndarray:
        """Physical frequencies n/L, aligned with coeffs."""
        return self.modes() / self.period

    def coefficient(self, n: int) -> complex:
        """Coefficient of mode n (0 outside the band)."""
        m = self.bandwidth
        if abs(n) > m:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + m])

    def with_coeffs(self, coeffs) -> "SpectralField":
        return SpectralField(self.period, coeffs)


def _negate_odd_modes(a: np.ndarray, first_mode: int) -> None:
    """Negate, in place, the entries of a run of consecutive modes
    first_mode, first_mode + 1, ... along the last axis whose mode number
    is odd."""
    a[..., (first_mode + 1) % 2 :: 2] *= -1.0


# The band <-> grid path.  exp(2*pi*i*(n/L)*x_j) at x_j = j*L/G - L/2 picks
# up (-1)^n against the standard DFT kernel exp(2*pi*i*n*j/G), and mode n
# sits in DFT bin n mod G: bins 0..M hold n = 0..M, bins G-M..G-1 hold
# n = -M..-1.


def _spectrum_of_band(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Scatter band coefficients (mode n at index n + M along the last
    axis) into a length-G DFT-order spectrum with the (-1)^n twiddle;
    ifft(..., norm="forward") of it is the field on the centered grid.
    Leading axes are kept: one spectrum per row.  Needs G >= 2M + 1."""
    m = (coeffs.shape[-1] - 1) // 2
    spec = np.zeros(coeffs.shape[:-1] + (grid_size,), dtype=complex)
    spec[..., : m + 1] = coeffs[..., m:]
    spec[..., grid_size - m :] = coeffs[..., :m]
    _negate_odd_modes(spec[..., : m + 1], 0)
    _negate_odd_modes(spec[..., grid_size - m :], -m)
    return spec


def _band_of_spectrum(spec: np.ndarray, bandwidth: int) -> np.ndarray:
    """Gather modes |n| <= bandwidth of a DFT-order spectrum (such as
    fft(u, norm="forward") on the centered grid) back to band order, undoing
    the (-1)^n twiddle.  Needs 2 * bandwidth + 1 <= spec.size."""
    m = bandwidth
    out = np.empty(2 * m + 1, dtype=complex)
    out[m:] = spec[: m + 1]
    out[:m] = spec[spec.size - m :]
    _negate_odd_modes(out, -m)
    return out


def synthesize(field: SpectralField, grid_size: int) -> np.ndarray:
    """Evaluate the field on the centered grid x_j = j*L/G - L/2.

    Refuses G < 2M+1: the inverse FFT would alias modes on a shorter grid
    and analyze() could not undo it.
    """
    m = field.bandwidth
    g = int(grid_size)
    if g < 2 * m + 1:
        raise ValueError(f"grid_size {g} < 2M+1 = {2 * m + 1} would alias")
    spec = _spectrum_of_band(field.coeffs, g)
    return ifft(spec, norm="forward", out=spec)


def analyze(samples: np.ndarray, L: float, bandwidth: int | None = None) -> SpectralField:
    """Recover coefficients from samples on the centered grid.

    Uses the trapezoid rule (forward FFT / G), exact for band-limited
    input with G >= 2M+1.  Default bandwidth keeps every unaliased mode.
    """
    u = np.asarray(samples, dtype=complex)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    g = u.size
    m = (g - 1) // 2 if bandwidth is None else int(bandwidth)
    if 2 * m + 1 > g:
        raise ValueError(f"bandwidth {m} not resolved by {g} samples")
    return SpectralField(L, _band_of_spectrum(fft(u, norm="forward"), m))


def sobolev_norm(field: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm with the period-aware prefactor L^{1/2}.

    Homogeneous: L^{1/2} (sum_{n != 0} |n/L|^{2s} |c_n|^2)^{1/2}.
    Inhomogeneous: same with weight (1 + |n/L|^2)^s over all n.
    """
    xi = field.frequencies()
    a2 = np.abs(field.coeffs) ** 2
    if homogeneous:
        mask = field.modes() != 0
        w = np.abs(xi[mask]) ** (2.0 * s)
        total = np.sum(w * a2[mask])
    else:
        w = (1.0 + xi * xi) ** s
        total = np.sum(w * a2)
    return float(np.sqrt(field.period * total))


def fourier_lebesgue_norm(field: SpectralField, s: float, p: float) -> float:
    """Weighted l^p norm of the coefficients, counting measure on modes."""
    if not (1.0 <= p or p == np.inf):
        raise ValueError("p must lie in [1, inf]")
    xi = field.frequencies()
    w = (1.0 + xi * xi) ** (s / 2.0)
    vals = w * np.abs(field.coeffs)
    if p == np.inf:
        return float(np.max(vals))
    return float(np.sum(vals**p) ** (1.0 / p))


def mean_and_l2(field: SpectralField) -> tuple[complex, float]:
    """Return (mean value, mean of |u|^2 over one period)."""
    mean = field.coefficient(0)
    msq = float(np.sum(np.abs(field.coeffs) ** 2))
    return mean, msq


def project_below(field: SpectralField, N: int) -> SpectralField:
    """Zero every coefficient with |n| >= N; band and period unchanged."""
    if N <= 0:
        raise ValueError("N must be positive")
    keep = np.abs(field.modes()) < N
    return field.with_coeffs(np.where(keep, field.coeffs, 0.0))


def enlarge_band(field: SpectralField, bandwidth: int) -> SpectralField:
    """Embed the field in a wider coefficient array (same function)."""
    m = field.bandwidth
    if bandwidth < m:
        raise ValueError("enlarge_band cannot shrink the band")
    c = np.zeros(2 * bandwidth + 1, dtype=complex)
    c[bandwidth - m : bandwidth + m + 1] = field.coeffs
    return SpectralField(field.period, c)


@functools.cache
def next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer 2^a 3^b 5^c 7^d 11^e >= target: a length
    the pocketfft of numpy.fft transforms fast, and the value of
    scipy.fft.next_fast_len for complex input.  Each odd 11-smooth q below
    the next power of two is doubled up to the target; the least wins."""
    n = int(target)
    best = 1 << (n - 1).bit_length()
    odd = {1}
    for p in (3, 5, 7, 11):
        for q in list(odd):
            while q * p < best:
                q *= p
                odd.add(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def split_grid_size(bandwidth: int) -> int:
    """Grid on which the cubic term of a band-M field is exact on the band:
    next_fast_len(2 (2M + 1)).  |u|^2 u has band 3M; on G >= 4M + 1 points
    its modes beyond M fold to |n| >= G - 3M > M (the cubic one-half rule)."""
    return next_fast_len(2 * (2 * bandwidth + 1))


def _cubic_coeffs(coeffs: np.ndarray, wick: bool = False) -> np.ndarray:
    """Coefficients of |u|^2 u on a band-order coefficient array, truncated
    to the band.  The product of three band-M series is band-3M; on the grid
    of split_grid_size (at least 4M+1 points) its aliases all land outside
    the band, so the retained coefficients equal the triple convolution sum
    over n = n1 - n2 + n3 exactly.  The Wick variant subtracts 2 (mean of |u|^2) u."""
    m = (coeffs.size - 1) // 2
    g = split_grid_size(m)
    u = _spectrum_of_band(coeffs, g)
    ifft(u, norm="forward", out=u)
    u *= u.real**2 + u.imag**2
    cubic = _band_of_spectrum(fft(u, norm="forward", out=u), m)
    if wick:
        cubic -= 2.0 * np.vdot(coeffs, coeffs).real * coeffs
    return cubic


# largest band periodize samples: bounds its arrays of 2M + 1 points, while
# the profile transforms bound their points x nodes quadrature in blocks.
# At the limit, under ulimit -v 4 GB on a 2-CPU Xeon, the periodize
# experiment peaks at 139 MB in 2 s at L = 16384 (400 nodes), and where it
# takes 2000 nodes at 139 MB in 7 s (mollified eps = 0.5 at 64 modes per
# period, L = 8192) and 119 MB in 13 s (derivative profile, L = 16384);
# approx at L = 65536 peaks at 514 MB, its closed form on 8.4 million grid
# points
MAX_PERIODIZE_BAND = 2**19


def periodize(profile, L: float, bandwidth: int) -> SpectralField:
    """Wrap a compactly supported line profile onto the circle.

    Coefficients are samples of the line Fourier transform on the lattice,
    scaled by 1/L.  Requires L >= 2 * support radius so the wrapped
    function agrees with the original on the fundamental domain, and
    refuses a band above MAX_PERIODIZE_BAND before allocating it.
    """
    K = float(profile.support_radius)
    if L < 2.0 * K:
        raise ValueError(f"period {L} < 2K = {2 * K}: periodization overlaps itself")
    if bandwidth > MAX_PERIODIZE_BAND:
        raise ValueError(f"periodization on period {L:g} needs band {bandwidth}, above the "
                         f"limit {MAX_PERIODIZE_BAND}")
    n = np.arange(-bandwidth, bandwidth + 1)
    vals = profile.fourier_transform(n / L) / L
    return SpectralField(L, vals)
