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
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft  # the package's one FFT provider, used by GridPlan alone


class BudgetExceededError(ValueError):
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
    mode n = i - M.  The field keeps as is a complex array that is
    read-only and owns its data, as the package's constructors hand over
    the fresh arrays they build (_frozen); it copies anything else, so a
    caller's writeable array stays decoupled from the field.
    """

    period: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if not (isinstance(c, np.ndarray) and c.dtype == complex and c.flags.owndata
                and not c.flags.writeable):
            c = _frozen(np.array(c, dtype=complex))
        if c.ndim != 1 or c.size % 2 == 0 or c.size < 3:
            raise ValueError("coeffs must be 1-d with odd length >= 3")
        if not self.period >= 1.0:
            raise ValueError(f"period must be >= 1, got {self.period}")
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a fresh array that SpectralField then keeps
    without a copy.  The caller must keep no writeable view of it."""
    a.flags.writeable = False
    return a


def _row_mass(rows) -> float:
    """Sum of |v|^2 over some 1-D complex arrays, each summed by numpy with
    no larger temporary, not by BLAS (np.vdot runs the threaded zdotc).
    add.reduce skips np.sum's wrapper: on a 2-CPU Xeon, bin_mass takes 57 ms
    per inflate-sweep pass, 76 ms by np.sum, 19 ms by np.vdot on one thread."""
    return math.fsum(float(np.add.reduce(r.real * r.real + r.imag * r.imag)) for r in rows)


def _negate_odd_modes(a: np.ndarray, first_mode: int) -> None:
    """Negate, in place, the entries of a run of consecutive modes
    first_mode, first_mode + 1, ... along the last axis whose mode number
    is odd."""
    a[..., (first_mode + 1) % 2 :: 2] *= -1.0


# The band <-> grid path.  exp(2*pi*i*(n/L)*x_j) at x_j = j*L/G - L/2 picks
# up (-1)^n against the standard DFT kernel exp(2*pi*i*n*j/G), and mode n
# sits in DFT bin n mod G: bins 0..M hold n = 0..M, bins G-M..G-1 hold
# n = -M..-1.
#
# Every transform runs through the GridPlan of its grid size.  At and above
# FOUR_STEP_POINTS points a plan factors G = P Q and runs Bailey's four-step
# FFT on the (P, Q) view of the natural-order samples, sample n = n1 Q + n2
# at [n1, n2]: the spectrum stays in the transposed bin order, bin
# k = k1 + P k2 at [k1, k2], so each column k2 holds the P consecutive bins
# k2 P .. k2 P + P - 1.  Below FOUR_STEP_POINTS, P = 1 and the one row is
# the plain 1-D transform.  On a 2-CPU Xeon (tools/layers.py, case
# fft_pair, medians of 15), a forward + inverse pair took (1-D ->
# four-step) 0.33 -> 0.34 ms at 7 546 points, 0.67 -> 0.71 ms at 15 092,
# 1.41 -> 1.42 ms at 30 184, 10.3 -> 5.7 ms at 120 000, 16.2 -> 14.1 ms at
# 279 936 and 145 -> 70 ms at 1 317 120 (a second run read the four-step
# 7-51 % faster from 7 546 to 30 184 points); in 150 interleaved pairs the
# two were level at 35 200 and the four-step 1.6x faster at 46 200.  So
# grids from 2^15 points on take the four-step, and the split-step grids up
# to 30 184 points (crit_half N <= 1024) keep the 1-D transform, which
# also keeps every report whose grids all lie below bit for bit as before
FOUR_STEP_POINTS = 1 << 15

# bytes of samples per twiddle-and-row-FFT block of a four-step transform:
# a block stays in cache between its twiddle multiply and its row FFTs.
# On a 2-CPU Xeon (2 MB L2 per core), a forward + inverse pair at 120 000 /
# 279 936 / 1 317 120 / 5 248 800 points took 3.6 / 12.6 / 76 / 393 ms
# with 256 KiB blocks and 3.9 / 9.8 / 56 / 332 ms with 512 KiB; at 512 KiB
# the largest plan's tables stay under 1 MB
_BLOCK_BYTES = 1 << 19


def _nearest_divisor(n: int, target: float) -> int:
    """The divisor of n nearest target, the smaller one on a tie."""
    divisors = (e for d in range(1, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d))
    return min(divisors, key=lambda e: (abs(e - target), e))


def _roots(g: int, exponents: np.ndarray) -> np.ndarray:
    """exp(-2 pi i e / g) of integer exponents e, each reduced to a turn
    in [-1/2, 1/2] first so the argument of exp is at most pi."""
    turns = (exponents % g) / g
    turns[turns > 0.5] -= 1.0
    return np.exp(-2j * np.pi * turns)


class GridPlan:
    """The transforms of one grid size G, on (..., P, Q) layout arrays.

    ``shape`` is (P, Q), with P the divisor of G nearest sqrt(G) at and
    above FOUR_STEP_POINTS points and P = 1 below.  Samples lie in natural
    order (sample n at [n // Q, n % Q]) and spectra in the transposed bin
    order (bin k at [k % P, k // P]); see the comment above.  Leading axes
    are rows, each transformed alone.

    The twiddles w^(k1 n2) of the four-step, w = exp(-2 pi i / G), are
    stored as factors, not as G entries: with k1 = r + i, r a multiple of
    the block's R rows (R Q samples make _BLOCK_BYTES) and i < R, and
    n2 = c + C d, C the divisor of Q nearest sqrt(Q), they are w^(i n2)
    (R x Q) times w^(r c) w^(r C d) (P/R rows of C and of Q/C), so
    R Q + (P/R)(C + Q/C) entries, within O(P sqrt(Q)): 0.71 MB at
    4 199 040 points, where the twiddles themselves would take 67 MB.
    A block's R x Q twiddles are formed from them just before the block
    is multiplied.
    """

    def __init__(self, size: int):
        g = int(size)
        p = 1 if g < FOUR_STEP_POINTS else _nearest_divisor(g, math.sqrt(g))
        q = g // p
        self.size, self.shape = g, (p, q)
        self._block_rows = max(1, min(p, _BLOCK_BYTES // (16 * q)))
        self._tables = None
        if p > 1:
            c = _nearest_divisor(q, math.sqrt(q))
            r = np.arange(0, p, self._block_rows)[:, None]
            self._tables = (_roots(g, np.arange(self._block_rows)[:, None] * np.arange(q)),
                            _roots(g, r * (c * np.arange(q // c))), _roots(g, r * np.arange(c)))

    def _blocks(self, a: np.ndarray, inverse: bool, bins: np.ndarray | None = None):
        """(rows, twiddles) over the blocks of layout rows of a at P > 1: a
        view of the block and its R x Q twiddles, conjugated for the
        inverse, for the caller to apply.  With bins, only the blocks that
        hold one of them: bin k lies in layout row k mod P."""
        p, q = self.shape
        step = self._block_rows
        inner, by_d, by_c = self._tables
        blocks = range(len(by_d))
        if bins is not None:  # a mask, not np.unique: its first call costs 1.6 MB of RSS
            hit = np.zeros(len(by_d), dtype=bool)
            hit[bins % p // step] = True
            blocks = np.flatnonzero(hit).tolist()
        scratch = np.empty((step, q), dtype=complex)
        for b in blocks:
            lo = b * step  # the tables' r
            n = min(step, p - lo)
            outer = np.multiply.outer(by_d[b], by_c[b]).reshape(q)  # w^(r n2), n2 = c + C d
            w = np.multiply(inner[:n], outer, out=scratch[:n])
            if inverse:
                np.conjugate(w, out=w)
            yield a[..., lo : lo + n, :], w

    def forward(self, a: np.ndarray) -> np.ndarray:
        """In place: natural-order samples on the layout array a become
        their DFT times 1/G (fft with norm="forward") in bin order; returns a."""
        if self._tables is None:
            return fft(a, norm="forward", out=a)
        fft(a, axis=-2, norm="forward", out=a)
        for rows, w in self._blocks(a, inverse=False):
            rows *= w
            fft(rows, norm="forward", out=rows)
        return a

    def inverse(self, a: np.ndarray, bins: np.ndarray | None = None) -> np.ndarray:
        """In place: a spectrum in bin order on the layout array a becomes
        the unscaled inverse DFT (ifft with norm="forward") in natural
        order; returns a.  bins, when given, holds every bin at which a may
        be nonzero: the row pass then skips the blocks of rows that hold
        none of them, which are zero and stay so."""
        if self._tables is None:
            return ifft(a, norm="forward", out=a)
        for rows, w in self._blocks(a, inverse=True, bins=bins):
            ifft(rows, norm="forward", out=rows)
            rows *= w
        return ifft(a, axis=-2, norm="forward", out=a)

    def _bin_views(self, lo: int, arr: np.ndarray):
        """(index into a layout array, view of arr) pairs covering the bins
        lo .. lo + n - 1, n = arr.shape[-1], whose values run along arr's
        last axis: a part of one column, or a slab of whole columns down
        which the values run."""
        p, hi = self.shape[0], lo + arr.shape[-1]
        k = lo
        while k < hi:
            col, row = divmod(k, p)
            if row or hi - k < p:
                stop = min(hi, (col + 1) * p)
                yield (..., slice(row, row + stop - k), col), arr[..., k - lo : stop - lo]
            else:
                stop = k + (hi - k) // p * p
                part = arr[..., k - lo : stop - lo]
                yield ((..., slice(None), slice(col, stop // p)),
                       part.reshape(part.shape[:-1] + (-1, p)).swapaxes(-1, -2))
            k = stop

    def put_band(self, spec: np.ndarray, band: np.ndarray) -> None:
        """Write band-order values (mode n at index n + M along the last
        axis) into bins n mod G of the layout array spec, row by row."""
        m = (band.shape[-1] - 1) // 2
        for lo, values in ((0, band[..., m:]), (self.size - m, band[..., :m])):
            for index, part in self._bin_views(lo, values):
                spec[index] = part

    def spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """The layout spectrum of band coefficients with the (-1)^n
        twiddle, one per row of coeffs: inverse() of it is the field on
        the centered grid.  Needs G >= 2M + 1."""
        c = np.array(coeffs, dtype=complex)
        _negate_odd_modes(c, -((c.shape[-1] - 1) // 2))
        spec = np.zeros(c.shape[:-1] + self.shape, dtype=complex)
        self.put_band(spec, c)
        return spec

    def band(self, spec: np.ndarray, bandwidth: int) -> np.ndarray:
        """Modes |n| <= bandwidth of a layout spectrum (such as forward()
        of samples on the centered grid), read from bins n mod G, in band
        order with the (-1)^n twiddle undone, one per row of spec; inverse
        of spectrum().  Needs 2 * bandwidth + 1 <= G."""
        m = bandwidth
        out = np.empty(spec.shape[:-2] + (2 * m + 1,), dtype=complex)
        for lo, values in ((0, out[..., m:]), (self.size - m, out[..., :m])):
            for index, part in self._bin_views(lo, values):
                part[...] = spec[index]
        _negate_odd_modes(out, -m)
        return out

    def bin_mass(self, spec: np.ndarray, lo: int, hi: int) -> float:
        """Sum of |X_k|^2 over the bins lo <= k < hi of one layout
        spectrum: in row k1 they are the contiguous columns
        ceil((lo - k1) / P) .. ceil((hi - k1) / P) - 1."""
        p = self.shape[0]
        return _row_mass(spec[k1, -((k1 - lo) // p) : -((k1 - hi) // p)] for k1 in range(p))


@functools.cache
def grid_plan(grid_size: int) -> GridPlan:
    """The cached GridPlan of a grid size; built on first use."""
    return GridPlan(grid_size)


def synthesize(field: SpectralField, grid_size: int) -> np.ndarray:
    """Evaluate the field on the centered grid x_j = j*L/G - L/2.

    Refuses G < 2M+1: the inverse FFT would alias modes on a shorter grid
    and analyze() could not undo it.  Data whose coefficients hold fewer
    nonzero parts (real or imaginary) than the plan has layout rows
    leaves rows empty: the inverse then gets the bins n mod G of its
    nonzero modes, and its row pass runs only on the blocks of rows that
    hold one.  Denser data pays only that count.
    """
    m = field.bandwidth
    g = int(grid_size)
    if g < 2 * m + 1:
        raise ValueError(f"grid_size {g} < 2M+1 = {2 * m + 1} would alias")
    plan = grid_plan(g)
    c = field.coeffs
    bins = None
    # counted on the parts' bits, 0.4 ns a part, where a count of nonzero
    # complex values takes 3 ns a value (25 % of a 60 000-point transform);
    # a -0.0 part counts, which can only skip less
    if plan.shape[0] > 1 and np.count_nonzero(c.view(np.int64)) < plan.shape[0]:
        bins = (np.flatnonzero(c) - m) % g
    return plan.inverse(plan.spectrum(c), bins=bins).reshape(g)


def analyze(samples: np.ndarray, L: float, bandwidth: int | None = None) -> SpectralField:
    """Recover coefficients from samples on the centered grid.

    Uses the trapezoid rule (forward FFT / G), exact for band-limited
    input with G >= 2M+1.  Default bandwidth keeps every unaliased mode.
    """
    u = np.array(samples, dtype=complex)  # a copy: the plan transforms it in place
    if u.ndim != 1 or u.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    g = u.size
    m = (g - 1) // 2 if bandwidth is None else int(bandwidth)
    if 2 * m + 1 > g:
        raise ValueError(f"bandwidth {m} not resolved by {g} samples")
    plan = grid_plan(g)
    return SpectralField(L, _frozen(plan.band(plan.forward(u.reshape(plan.shape)), m)))


def _sobolev_terms(field: SpectralField, s: float, homogeneous: bool) -> np.ndarray:
    """The terms w |c_n|^2 of the squared norm sobolev_norm sums over its
    modes, w = |n/L|^(2s) (homogeneous, n != 0) or (1 + |n/L|^2)^s: one
    fresh array, built in place by the steps of the plain expression, so
    that every term matches it to the bit.  The weights are formed on
    n >= 0 and mirrored, as -n/L is exactly -(n/L)."""
    m, coeffs = field.bandwidth, field.coeffs
    if homogeneous:
        coeffs = np.delete(coeffs, m)
    terms = np.empty(coeffs.size)
    half = terms[m:]  # n >= 0, or n >= 1 when the mean mode is left out
    np.divide(np.arange(m + 1 - half.size, m + 1), field.period, out=half)
    if homogeneous:
        half **= 2.0 * s  # **= keeps numpy's fast paths for the exponents 1, 2, 1/2, -1
    else:
        half *= half
        half += 1.0
        half **= s
    terms[:m] = half[::-1][:m]
    a2 = np.abs(coeffs)
    a2 *= a2
    terms *= a2
    return terms


def sobolev_norm(field: SpectralField, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm with the period-aware prefactor L^{1/2}.

    Homogeneous: L^{1/2} (sum_{n != 0} |n/L|^{2s} |c_n|^2)^{1/2}.
    Inhomogeneous: same with weight (1 + |n/L|^2)^s over all n.
    """
    return float(np.sqrt(field.period * np.sum(_sobolev_terms(field, s, homogeneous))))


def sobolev_norm_and_projection(field: SpectralField, s: float, N: int) -> tuple[float, float]:
    """sobolev_norm(field, s) and sobolev_norm(project_below(field, N), s),
    to the bit, from one pass of the weights and no copy of the field."""
    if N <= 0:
        raise ValueError("N must be positive")
    terms = _sobolev_terms(field, s, False)
    total = np.sum(terms)
    m = field.bandwidth
    terms[: max(m - N + 1, 0)] = 0.0  # the modes |n| >= N, as project_below zeroes them
    terms[m + N :] = 0.0
    return float(np.sqrt(field.period * total)), float(np.sqrt(field.period * np.sum(terms)))


def fourier_lebesgue_norm(field: SpectralField, s: float, p: float) -> float:
    """Weighted l^p norm of the coefficients, counting measure on modes."""
    if not (1.0 <= p or p == np.inf):
        raise ValueError("p must lie in [1, inf]")
    vals = np.abs(field.coeffs)
    if s != 0.0:  # at s = 0 every weight is exactly 1
        xi = field.frequencies()
        vals *= (1.0 + xi * xi) ** (s / 2.0)
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
    return SpectralField(field.period, _frozen(c))


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
    plan = grid_plan(split_grid_size(m))
    u = plan.inverse(plan.spectrum(coeffs))
    u *= u.real**2 + u.imag**2
    cubic = plan.band(plan.forward(u), m)
    if wick:
        cubic -= 2.0 * _row_mass((coeffs,)) * coeffs
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
    return SpectralField(L, _frozen(profile.fourier_transform(n / L) / L))
