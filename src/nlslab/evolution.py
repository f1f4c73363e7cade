"""Time evolution for the cubic family on a circle.

Equations covered by one convention,

    i du/dt + sign * coeff * (-d^2/dx^2)^alpha u + |u|^2 u = 0,

so a free mode n rotates as exp(+i * sign * coeff * (2 pi |n| / L)^(2 alpha) t)
and the dispersionless equation (coeff = 0) is solved exactly by the
pointwise rotation u = phi * exp(i |phi|^2 t).  The Wick variant replaces
|u|^2 u by (|u|^2 - 2 mean|u|^2) u.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .profiles import _gauss_rule
from .torus import (
    BudgetExceededError,
    SpectralField,
    _cubic_coeffs,
    _frozen,
    _row_mass,
    enlarge_band,
    grid_plan,
    mean_and_l2,
    next_fast_len,
    split_grid_size,
    synthesize,
)


class BlowupError(ValueError):
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

    @staticmethod
    def paper(alpha: float = 1.0) -> "EquationSpec":
        """The equation of arXiv:1508.00827, posed on R/2piZ where mode n
        rotates as |n|^(2 alpha), written on the unit circle: coefficient
        (2 pi)^(-2 alpha), which cancels the (2 pi)^(2 alpha) of the unit
        circle's frequencies 2 pi n."""
        return EquationSpec(alpha=alpha, dispersion_coeff=(2.0 * math.pi) ** (-2.0 * alpha))


@dataclass(frozen=True)
class StepperConfig:
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


def free_rotation_rates(field: SpectralField, eq: EquationSpec) -> np.ndarray:
    """Per-mode angular rates: mode n rotates as exp(+i rate t) freely.  A
    rate that leaves the float range is inf or NaN, with no warning; every
    integrator refuses it (_checked_rates)."""
    xi = np.abs(2.0 * np.pi * field.frequencies())
    with np.errstate(over="ignore", invalid="ignore"):
        return eq.dispersion_sign * eq.dispersion_coeff * xi ** (2.0 * eq.alpha)


def _checked_rates(name: str, t: float, rates, eqs: Sequence[EquationSpec] = (),
                   angle: str = "max|rate| |t|", phase: str = "rate t"):
    """rates, once a call of `name` is known to form no angle max|rates| |t|
    of 2^52 or more; it is refused otherwise, as adjacent doubles there lie
    at least 1 apart and the phase mod 2 pi keeps no correct digit.  Row i
    of rates (the only row when they are 1-D) holds the free rotation rates
    of eqs[i], and a non-finite one is refused first, naming that
    equation's alpha and coefficient: the rates never depend on the data,
    so no blow-up hides behind it."""
    for eq, row in zip(eqs, np.atleast_2d(rates)):
        if not np.isfinite(row).all():
            raise ValueError(f"{name} at t = {t:g}: the free rotation rates at alpha = "
                             f"{eq.alpha:g} and dispersion coefficient {eq.dispersion_coeff:g} "
                             f"are not finite: coeff (2 pi |n| / L)^(2 alpha) leaves the float range")
    top = float(np.max(np.abs(rates), initial=0.0)) * abs(t)
    if top >= 2.0**52:
        raise ValueError(f"{name} at t = {t:g}: {angle} = {top:.3e} reaches 2^52, where the phase "
                         f"{phase} mod 2 pi keeps no correct digit")
    return rates


class EvolveResult(NamedTuple):
    field: SpectralField
    tail_mass: float


def _unit_phase(angle: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """exp(i angle) into the complex array out of angle's shape (a new one
    when out is None), from the half-angle tangent tau = tan(angle / 2):

        cos = 2 / (1 + tau^2) - 1,    sin = tau 2 / (1 + tau^2).

    numpy evaluates tan with SIMD (AVX-512 where the CPU has it), where
    cos and sin run as scalar libm calls, so one tan and a few passes cost
    less than the pair.  Against 300-bit cos and sin both parts err by at
    most 3.2e-16 absolute for |angle| up to 2^52, and |out| - 1 by at most
    4.5e-16; near odd multiples of pi, tau is about 1e16 and the form
    stays accurate.  A non-finite angle gives a NaN phase.  angle is
    scratch: on return it holds tau, and 2 / (1 + tau^2) is formed in the
    float array scratch of its shape (a new one when None), so each
    strided part of out is written once.  Returns out."""
    if out is None:
        out = np.empty(angle.shape, dtype=complex)
    inv = np.empty(angle.shape) if scratch is None else scratch
    angle *= 0.5
    np.tan(angle, out=angle)
    np.multiply(angle, angle, out=inv)
    inv += 1.0
    np.divide(2.0, inv, out=inv)
    np.multiply(angle, inv, out=out.imag)
    np.subtract(inv, 1.0, out=out.real)
    return out


def _rotate_in_place(u: np.ndarray, t: float | np.ndarray, shift: float | np.ndarray | None,
                     theta: np.ndarray, phase: np.ndarray, scratch: np.ndarray) -> None:
    """u *= exp(i t (|u|^2 - shift)) pointwise, with no shift when it is
    None, the phase formed by _unit_phase; theta and scratch (float) and
    phase (complex) are scratch arrays of u's shape, and t and shift are
    numbers or broadcast against u (one per row)."""
    np.multiply(u.real, u.real, out=theta)
    np.multiply(u.imag, u.imag, out=scratch)
    theta += scratch
    if shift is not None:
        theta -= shift
    theta *= t
    u *= _unit_phase(theta, phase, scratch)


# grid points per rotation chunk: bounds the rotation's scratch arrays
# (256 KiB together) whatever the grid size and the number of rows
_ROTATE_CHUNK = 1 << 13


def _rotation_scratch(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch of _rotate_rows over `points` points: theta, phase, scratch."""
    n = min(points, _ROTATE_CHUNK)
    return np.empty(n), np.empty(n, dtype=complex), np.empty(n)


def _rotate_rows(u: np.ndarray, t: np.ndarray, shift: np.ndarray | None, scratch) -> None:
    """_rotate_in_place of row i of the (rows, G) array u by t[i] and
    shift[i], (rows, 1) columns (no shift when None), in chunks of at most
    _ROTATE_CHUNK points: whole rows where one fits, else parts of one row.
    scratch is _rotation_scratch of u's points."""
    rows, g = u.shape
    per, width = max(1, _ROTATE_CHUNK // g), min(g, _ROTATE_CHUNK)
    for r in range(0, rows, per):
        for lo in range(0, g, width):
            part = u[r : r + per, lo : lo + width]
            _rotate_in_place(part, t[r : r + per], None if shift is None else shift[r : r + per],
                             *(a[: part.size].reshape(part.shape) for a in scratch))


def ode_grid_size(bandwidth: int, out_bandwidth: int) -> int:
    """Grid of the closed form: 8 times the data band M, and at least the
    retained output band M_out plus two shells of 2M on each side, rounded
    up to a fast FFT length.  Term j of the rotation's series
    sum_j (i t |phi|^2)^j phi / j! spans |n| <= (2j + 1) M, one shell past
    term j - 1.  So the first term past the band ends by M_out + 2M, inside
    the summed tail window, and a mode aliases into the band only from
    |n| >= G - M_out >= M_out + 4M + 1: two terms further out."""
    return next_fast_len(max(8 * (2 * bandwidth + 1), 2 * (out_bandwidth + 2 * bandwidth) + 1))


def _rotated_band(field: SpectralField, t: float, shift: float | None, m_out: int,
                  g: int) -> tuple[np.ndarray, float]:
    """(band |n| <= m_out, tail mass) of the field rotated by t on the
    g-point grid, as ode_exact_evolve describes them.  The grid and the
    rotation's scratch are freed on return, so the caller's checks run
    beside the band alone."""
    plan = grid_plan(g)
    u = synthesize(field, g)  # natural order: a flat view of the plan's layout
    _rotate_rows(u.reshape(1, g), np.full((1, 1), t), None if shift is None else np.full((1, 1), shift),
                 _rotation_scratch(g))
    spec = plan.forward(u.reshape(plan.shape))
    # bins m_out+1 .. g-m_out-1 are exactly the modes outside |n| <= m_out
    return plan.band(spec, m_out), plan.bin_mass(spec, m_out + 1, g - m_out) * field.period


def ode_exact_evolve(
    field: SpectralField,
    t: float,
    wick: bool = False,
    out_bandwidth: int | None = None,
) -> EvolveResult:
    """Closed-form dispersionless solution phi * exp(i |phi|^2 t).

    The rotation is not band-limited, so it is sampled on the grid of
    ode_grid_size and re-analyzed through the grid's plan
    (torus.GridPlan): the next term of its series past M_out lies whole in
    the tail below, and only terms two further out alias into the band,
    as ode_grid_size says.  The retained band |n| <= M_out is gathered from
    column slabs of the plan's layout.  The discarded tail mass, L times
    the grid spectrum's mass beyond that band, is summed directly over the
    discarded FFT bins (Parseval), a contiguous run of columns in each row
    of the layout, so it is non-negative and free of cancellation against
    the total mass; neither step builds an index array.  The
    inflate experiment picks its out band from this value: the smallest
    band whose tail is at most 1e-20 of the data mass.  At its peak the
    call holds the grid, the gathered band (the field takes it without a
    copy) and the rotation's scratch.

    Non-finite output is refused as a blow-up, and so is a finite one
    whose phase bound t ||phi||_FL1^2 (|phi|^2 t never exceeds it) reaches
    2^52 (_checked_rates).
    """
    m = field.bandwidth
    m_out = m if out_bandwidth is None else int(out_bandwidth)
    if m_out < m:
        raise ValueError("out_bandwidth cannot be below the input band")
    shift = 2.0 * mean_and_l2(field)[1] if wick else None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is refused below
        band, tail = _rotated_band(field, t, shift, m_out, ode_grid_size(m, m_out))
    out = SpectralField(field.period, _frozen(band))
    if not (np.isfinite(out.coeffs).all() and np.isfinite(tail)):
        raise BlowupError(f"non-finite coefficients in the closed form at t = {t}")
    wiener = float(np.sum(np.abs(field.coeffs)))
    _checked_rates("closed form", t, wiener * wiener, angle="t ||phi||_FL1^2", phase="|phi|^2 t")
    return EvolveResult(out, tail)


# rows x grid points of one Strang loop in split_step_stack; further rows
# run in further loops.  Per row and step on a 2-CPU Xeon (tools/layers.py,
# calls of 8 steps, medians of 15), one row alone -> in stacks of 2 and 4:
# 0.088 -> 0.061, 0.052 ms at 1 029 points, 0.42 -> 0.39, 0.39 ms at 7 546
# and 1.87 -> 1.80, 1.59 ms at 30 184 (1-D transforms), but 4.1 -> 4.8,
# 5.2 ms at 60 000 (four-step); at 120 000 the spread between runs exceeded
# the differences.  So rows stack up to 65 536 points: two rows at 30 184
# points, and one row at a time on every four-step grid (over 32 768)
SPLIT_STACK_POINTS = 1 << 16


def split_step_evolve(
    field: SpectralField, eq: EquationSpec, t: float, cfg: StepperConfig
) -> SpectralField:
    """Strang splitting: exact free half-steps around the exact pointwise
    nonlinear rotation.  Second order in dt globally.  The one-row,
    one-count case of split_step_stack, which says how it runs, at
    round(t / dt) steps (one at least)."""
    return split_step_stack(field, (eq,), t, (max(1, round(t / cfg.dt)),))[0][0]


def split_step_stack(
    field: SpectralField, eqs: Sequence[EquationSpec], t: float, steps: Sequence[int]
) -> list[list[SpectralField]]:
    """split_step_evolve of one field under each equation of `eqs` at each
    step count of `steps` (a repeated one runs once), on one grid: one
    list of fields at t per count, in the order of `eqs`.

    The (count, equation) rows advance together as one array, most steps
    first, each with its own dt = t / count, Strang phases and Wick shift,
    at most SPLIT_STACK_POINTS // G rows per loop (one at least).  Every
    operation acts on each row alone, so a row's output is bitwise that of
    its own one-row run.  The rates are formed once, and an angle
    max|rate| t of 2^52 or more is refused before any transform.  A NaN or
    inf stays non-finite through the transforms, the zero multiply and tan,
    so the gathered bands are checked once, count by count in the order of
    `steps`: a blow-up is refused with BlowupError at the step size of the
    first count with a non-finite row, as separate calls would be.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    counts = sorted({int(n) for n in steps}, reverse=True)
    if counts and counts[-1] < 1:
        raise ValueError("step counts must be >= 1")
    if t == 0.0:
        return [[field] * len(eqs) for _ in steps]
    rates = _checked_rates("split-step", t, np.stack([free_rotation_rates(field, eq) for eq in eqs]), eqs)
    jobs = [(n, i) for n in counts for i in range(len(eqs))]
    g = split_grid_size(field.bandwidth)
    cap = max(1, SPLIT_STACK_POINTS // g)
    bands = {}
    for lo in range(0, len(jobs), cap):
        part = jobs[lo : lo + cap]
        n, i = (np.array(column) for column in zip(*part))
        bands.update(zip(part, _strang_rows(field, [eqs[k] for k in i], rates[i], t / n[:, None], n, g)))
    out = []
    for n in (int(n) for n in steps):
        row = [bands[n, i] for i in range(len(eqs))]
        if not all(np.isfinite(band).all() for band in row):
            raise BlowupError(f"non-finite coefficients at step size {t / n}")
        out.append([field.with_coeffs(band) for band in row])
    return out


def _strang_rows(field: SpectralField, eqs: Sequence[EquationSpec], rates: np.ndarray,
                 dt: np.ndarray, counts: np.ndarray, g: int) -> np.ndarray:
    """The rows' bands after Strang's steps on the G-point grid, one row
    per equation: row i takes counts[i] steps of size dt[i] (counts
    falling, dt a (rows, 1) column), turning freely at rates[i].  The
    first and last half steps multiply the band-order coefficients
    (2M + 1 per row) by the half-step phases exp(i rate dt/2).
    Between them the loop runs on one (rows, P, Q) array in the layout of
    the grid's plan (torus.GridPlan): the coefficients are scattered once
    into its bin order, every step transforms the rows still running, a
    leading slice of the array as the counts fall, in place between bin
    and sample order, and each row's band is gathered after its last
    step.  The two half steps that meet between rotations are one
    multiply by the full-step phases exp(i rate dt), an array of the
    layout's shape that is zero off the band, so it also zeroes the
    off-band bins the rotation filled; it runs before every step but the
    first.  Every phase comes from _unit_phase, and the rotation runs in
    chunks (_rotate_rows).  P = 1 below the plan's crossover: the plain
    1-D loop.  Only the rotation's terms of order (dt |u|^2)^2 and above
    alias into the band."""
    m, rows = field.bandwidth, len(eqs)
    plan = grid_plan(g)
    wick = [i for i, eq in enumerate(eqs) if eq.wick]
    shift = np.zeros((rows, 1)) if wick else None
    full = np.zeros((rows, *plan.shape), dtype=complex)  # zero off the band
    scratch = _rotation_scratch(rows * g)
    bands = np.empty((rows, 2 * m + 1), dtype=complex)
    live = rows
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses non-finite output
        half = _unit_phase(rates * dt / 2.0)
        plan.put_band(full, _unit_phase(rates * dt))
        spec = plan.spectrum(field.coeffs * half)
        for step in range(counts[0] + 1):
            done = live
            while live and counts[live - 1] == step:
                live -= 1
            if live < done:  # rows live .. done - 1 have taken their steps
                np.multiply(plan.band(spec[live:done], m), half[live:done], out=bands[live:done])
            if not live:
                return bands
            u = spec[:live]
            if step:
                u *= full[:live]  # two half steps, and the off-band bins zeroed
            for i in wick:  # 2 mean|u|^2: every off-band bin is zero here
                if i < live:
                    shift[i] = 2.0 * _row_mass(u[i])
            plan.inverse(u)
            _rotate_rows(u.reshape(live, g), dt[:live], None if shift is None else shift[:live], scratch)
            plan.forward(u)


def _turned_cubic(v: np.ndarray, rates: np.ndarray, tau: float, wick: bool) -> np.ndarray:
    """The interaction-picture cubic term exp(-i tau rate) _cubic_coeffs(exp(i tau rate) v)."""
    turn = _unit_phase(tau * rates)
    return np.conj(turn) * _cubic_coeffs(turn * v, wick)


def rk4_spectral_evolve(
    field: SpectralField, eq: EquationSpec, t: float, cfg: StepperConfig
) -> SpectralField:
    """Lawson's integrating-factor RK4: classical RK4 on the interaction
    picture v' = i _turned_cubic(v, tau), mapped back by interaction_picture
    at -t; with zero dispersion it is classical RK4 on the coefficients.
    Independent of the splitting scheme; used to cross-check it.  The
    rotations add about u t max|rate| of rounding, u the unit roundoff."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return field
    rates = _checked_rates("Lawson RK4", t, free_rotation_rates(field, eq), (eq,))

    def rhs(v, tau):
        return 1j * _turned_cubic(v, rates, tau, eq.wick)

    n_steps = max(1, round(t / cfg.dt))
    dt = t / n_steps
    v = field.coeffs
    for tau in dt * np.arange(n_steps):
        k1 = rhs(v, tau)
        k2 = rhs(v + 0.5 * dt * k1, tau + 0.5 * dt)
        k3 = rhs(v + 0.5 * dt * k2, tau + 0.5 * dt)
        k4 = rhs(v + dt * k3, tau + dt)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(v)):
            raise BlowupError(f"non-finite coefficients at step size {dt}")
    return interaction_picture(field.with_coeffs(v), eq, -t)


def interaction_picture(field: SpectralField, eq: EquationSpec, t: float) -> SpectralField:
    """Undo the free rotation of `eq`: mode n is multiplied by
    exp(-i rate t), with the rates of free_rotation_rates.  Passing -t
    undoes time t.

    A free solution becomes constant in time; all weighted-coefficient
    norms are unchanged (modulus-1 multipliers).
    """
    rates = _checked_rates("interaction picture", t, free_rotation_rates(field, eq), (eq,))
    return field.with_coeffs(field.coeffs * _unit_phase(-rates * t))


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
# Picard's first iterate in the interaction picture

# default cap on the first iterate's work Q G (picard_work): runs crit_half
# N <= 256 (0.05 s at N = 256 on a 2-CPU Xeon) and frac_crit theta = 0.1 at
# every N up to 4096 (0.05 s at N = 4096), refuses crit_half N = 512
PICARD_BUDGET = 1_000_000

# the largest Gauss rule the first iterate builds: the largest that the
# tests pin against numpy's leggauss
PICARD_MAX_NODES = 2000

# the Gauss-Legendre remainder allowed per unit of t |c1 conj(c2) c3|
_QUADRATURE_TOL = 1e-15


def _gauss_node_count(z: float) -> int:
    """Smallest Q whose Gauss-Legendre remainder for exp(-i Phi tau) on
    [0, t], |Phi| t <= z, per unit of t,

        2^(2Q+1) (Q!)^4 (z/2)^(2Q) / ((2Q+1) ((2Q)!)^3),

    is at most _QUADRATURE_TOL.  Its logarithm is concave in Q, so once it
    exceeds the tolerance at Q = 1 it does so up to the count sought and
    never after: doubling brackets that count and bisection finds it."""
    def meets(q: int) -> bool:
        log_rem = ((2 * q + 1) * math.log(2.0) + 4.0 * math.lgamma(q + 1) + 2 * q * math.log(z / 2.0)
                   - math.log(2 * q + 1) - 3.0 * math.lgamma(2 * q + 1))
        return log_rem <= math.log(_QUADRATURE_TOL)

    if z == 0.0 or meets(1):
        return 1
    lo, hi = 1, 2
    while not meets(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


class PicardWork(NamedTuple):
    out_band: int
    nodes: int
    grid_points: int


def picard_work(phi: SpectralField, eq: EquationSpec, t: float) -> PicardWork:
    """Output band, Gauss nodes Q and cubic-term grid G of picard_expansion.

    The band is 3 max|n| over the support S of phi, or phi's own band if
    that is wider, and G = split_grid_size of it.  Q is _gauss_node_count
    of z = max|Phi| t, Phi the resonance of a triple n1 - n2 + n3 = n.  At
    alpha = 1, Phi = -2 scale (n1 - n2)(n3 - n2), so max|Phi| = 2 |scale| W^2
    with W = max S - min S; otherwise |Phi| <= |scale| (1 + 3^(2 alpha))
    max_S |n|^(2 alpha), as |n| <= 3 max_S |n|.  Here scale = sign coeff
    (2 pi / L)^(2 alpha).  No FFT runs.
    """
    n = phi.modes()[phi.coeffs != 0.0]
    top = int(np.max(np.abs(n), initial=0))
    out_band = max(3 * top, phi.bandwidth)
    try:
        scale = eq.dispersion_coeff * (2.0 * np.pi / phi.period) ** (2.0 * eq.alpha)
        if eq.alpha == 1.0:
            span = float(n[-1] - n[0]) if n.size else 0.0
            z = 2.0 * scale * span * span * t
        else:
            z = scale * (1.0 + 3.0 ** (2.0 * eq.alpha)) * float(top) ** (2.0 * eq.alpha) * t
    except OverflowError:  # a power beyond the float range: refused below
        z = math.inf
    if not math.isfinite(z):
        raise ValueError(f"first Picard iterate at t = {t:g}: max|Phi| t = {z} is not finite at "
                         f"alpha = {eq.alpha:g} and dispersion coefficient {eq.dispersion_coeff:g}")
    return PicardWork(out_band, _gauss_node_count(z), split_grid_size(out_band))


def picard_expansion(
    phi: SpectralField, eq: EquationSpec, t: float, budget: int = PICARD_BUDGET
) -> SpectralField:
    """First Picard iterate of the interaction-picture Duhamel equation,

        phi + i * integral over [0, t] of exp(-i tau rate) cubic(exp(i tau rate) phi) dtau,

    the integrand being _turned_cubic (its Wick form when eq.wick), by
    Q-node Gauss-Legendre in tau on the output band of picard_work.  The
    work Q G is checked against ``budget``, and Q against PICARD_MAX_NODES,
    before any FFT; either over refuses with a size report, as does then
    an angle max|rate| t of 2^52 or more.

    Mode n of the integrand is a sum of exp(-i Phi tau) c1 conj(c2) c3
    over the triples n1 - n2 + n3 = n, and the rule's Q integrates each to
    within 1e-15 t |c1 c2 c3|.  Each of the four phases exp(+-i tau rate)
    of a triple is off by the rounding of its angle tau rate, at most
    u t max|rate|, and by _unit_phase's own error, at most 3 u (3.2e-16),
    u the unit roundoff and the rate maximum over the output band; the
    FFTs add about 4 u log2 G.  So rounding adds at most about
    4 u (log2 G + 3 + t max|rate|) t ||phi||_FL1^3, and every coefficient is
    within t (1e-15 + 4 u (log2 G + 3 + t max|rate|)) ||phi||_FL1^3 of the
    exact iterate, beyond the one rounding, about u |phi_n|, of adding phi.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    work = picard_work(phi, eq, t)
    if work.nodes > PICARD_MAX_NODES or work.nodes * work.grid_points > budget:
        raise BudgetExceededError(
            f"first Picard iterate needs {work.nodes} Gauss nodes x {work.grid_points} grid "
            f"points = {work.nodes * work.grid_points}; the limits are {PICARD_MAX_NODES} nodes "
            f"and the budget {budget}",
            required=work.nodes * work.grid_points,
            budget=budget,
        )
    x, w, _ = _gauss_rule(work.nodes)
    wide = enlarge_band(phi, work.out_band)
    rates = _checked_rates("first Picard iterate", t, free_rotation_rates(wide, eq), (eq,))
    first = np.zeros_like(wide.coeffs)
    for tau, weight in zip(0.5 * t * (1.0 + x), 0.5 * t * w):
        first += weight * _turned_cubic(wide.coeffs, rates, tau, eq.wick)
    return wide.with_coeffs(wide.coeffs + 1j * first)
