"""Compactly supported line profiles: steps, mollifications, smooth bumps.

These are the initial-data building blocks that get periodized onto a
circle.  Step profiles carry exact closed forms (transform, moments,
phase integral); smooth kinds are integrated by Gauss-Legendre on panels
(`_panel_rule`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

SQRT_PI = math.sqrt(math.pi)

# ---------------------------------------------------------------------------
# the standard bump eta(x) = exp(-1/(1-x^2)) on (-1,1), unit-normalized

def _raw_bump(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    u = 1.0 - y[inside] ** 2
    out[inside] = np.exp(-1.0 / u)
    return out


BUMP_MASS = 0.4439938161680794  # integral of exp(-1/(1-y^2)): exp(-1/2) (K_1(1/2) - K_0(1/2))


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, n >= 1."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


@functools.cache
def _gauss_rule(n: int):
    """n-node Gauss-Legendre rule on [-1, 1] and the unit bump at its nodes.

    The nodes in [0, 1) start from Tricomi's asymptotic guesses and take
    Newton steps on P_n, evaluated by its recurrence; the weights are
    2 / ((1 - x^2) P_n'(x)^2) and the rest follows by symmetry.  That is
    O(n^2) numpy work, 0.1 s for n = 2000 on a 2-CPU x86 host, where
    numpy's Golub-Welsch rule solves an n x n eigenproblem (0.7-1.7 s
    there on first use) and pages in LAPACK code.  The nodes are within a
    unit roundoff of the true ones, and the weights closer to their true
    values than Golub-Welsch's, which err by up to 1e-8 relative near the
    ends at n = 2000: these rules integrate the unit bump to 1 within
    1.3e-15, where Golub-Welsch's miss by 2.9e-14 (n = 400) and 1.1e-13
    (n = 2000).
    """
    half = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.cos(theta)
    for _ in range(10):  # converges in 2-3 steps
        p, p_prev = _legendre_pair(n, x)
        dx = p * (x * x - 1.0) / (n * (x * p - p_prev))
        x -= dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    p, p_prev = _legendre_pair(n, x)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x descends from the node nearest 1; mirror it into ascending order
    nodes = np.concatenate([-x, x[: n // 2][::-1]])
    weights = np.concatenate([w, w[: n // 2][::-1]])
    return nodes, weights, _raw_bump(nodes) / BUMP_MASS


def _panel_rule(edges, n: int):
    """Nodes and weights of n-node Gauss-Legendre on each panel between
    consecutive entries along the last axis of `edges`, flattened along
    it; leading axes index independent panel sets.  The package's
    integrals over the line are sums over this rule, bar the singular
    first panel of lab.line_sobolev_norm (lab._head_rule)."""
    t, w, _ = _gauss_rule(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * t).reshape(shape), (half * w).reshape(shape)


def mollifier_transform(zeta):
    """Transform of the unit bump: integral of eta(y) exp(-2 pi i zeta y) dy.

    Real and even in zeta.  Gauss-Legendre with enough nodes for the
    oscillation; accuracy degrades only where the value is below 1e-25.
    """
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    nodes, weights, bump = _gauss_rule(400 if np.max(np.abs(z)) <= 25.0 else 2000)
    wf = weights * bump
    # periodize passes thousands of z at once, so the z x nodes array runs
    # to megabytes: update one in place rather than allocate three, which
    # the allocator would map and page in afresh on every call
    arg = np.outer(z, nodes)
    arg *= 2.0 * np.pi
    vals = np.cos(arg, out=arg) @ wf
    return vals if np.ndim(zeta) else float(vals[0])


def mollifier_cdf(u):
    """Cumulative integral of the unit bump from -1 to u: the 128-node rule
    on [-1, u] over the same rule on [-1, 1] (within 2e-16 of the exact
    mass), so the value is 0 for u <= -1 and 1 for u >= 1 exactly."""
    u = np.asarray(u, dtype=float)
    out = np.array(u >= 1.0, dtype=float)
    inside = np.abs(u) < 1.0
    ends = np.append(u[inside], 1.0)
    x, w = _panel_rule(np.stack([np.full_like(ends, -1.0), ends], axis=-1), 128)
    mass = np.sum(w * _raw_bump(x), axis=-1)
    out[inside] = mass[:-1] / mass[-1]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# derivative-of-bump machinery: d^k/dx^k [eta_raw(x) p0(x)] = eta_raw(x) *
# p(x)/(1-x^2)^m with polynomial p, tracked exactly by recurrence

def _derivative_rep(p0_coeffs, kappa):
    """Return (p, m) with d^kappa[eta_raw * p0] = eta_raw * p/(1-x^2)^m."""
    p = np.asarray(p0_coeffs, dtype=float)
    m = 0
    base = np.array([1.0, 0.0, -1.0])  # 1 - x^2
    for _ in range(kappa):
        dp = npoly.polyder(p)
        # quotient-rule derivative of p/(1-x^2)^m plus the chain term from
        # eta_raw' = eta_raw * (-2x)/(1-x^2)^2, over common power m+2
        term1 = npoly.polymul(npoly.polymul(dp, base), base)
        term2 = npoly.polymul(npoly.polymul([0.0, 2.0 * m], p), base)
        term3 = npoly.polymul([0.0, -2.0], p)
        p = npoly.polyadd(npoly.polyadd(term1, term2), term3)
        m += 2
    return p, m


def _eval_poly_over_bump(x, p, m):
    """eta_raw(x) * p(x) / (1-x^2)^m, stable near the endpoints."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    u = 1.0 - xi * xi
    # exp(-1/u) * u^(-m) in one exponential so neither factor overflows
    out[inside] = np.exp(-1.0 / u - m * np.log(u)) * npoly.polyval(xi, p)
    return out


# ---------------------------------------------------------------------------

class PhaseIntegral(NamedTuple):
    value: complex
    modulus: float


class MomentReport(NamedTuple):
    max_moment: float
    fourier_ratio_max: float


@dataclass(frozen=True)
class CompactProfile:
    """Compactly supported function on the line.

    kind 'step': sum of value * indicator([a,b]) over pieces.
    kind 'mollified': the same convolved with a bump of half-width eps.
    kind 'bump': amplitude * exp(-1/(1-(x/width)^2)).
    kind 'derivative': amplitude * d^kappa/dx^kappa of a fixed smooth
    bump-times-polynomial base, stored as (poly, pole_power).
    """

    kind: str
    pieces: tuple = ()
    support_radius: float = 1.0
    eps: float = 0.0
    width: float = 1.0
    amplitude: complex = 1.0 + 0.0j
    kappa: int = 0
    poly: tuple = ()
    pole_power: int = 0
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("step", "mollified", "bump", "derivative"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "mollified" and not self.eps > 0.0:
            raise ValueError("mollified profile needs eps > 0")
        if self.support_radius <= 0.0:
            raise ValueError("support_radius must be positive")

    # -- pointwise values ---------------------------------------------------

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "step":
            out = np.zeros(x.shape, dtype=complex)
            for a, b, v in self.pieces:
                out += v * ((x >= a) & (x < b))
            return out
        if self.kind == "mollified":
            out = np.zeros(x.shape, dtype=complex)
            for a, b, v in self.pieces:
                out += v * (mollifier_cdf((x - a) / self.eps) - mollifier_cdf((x - b) / self.eps))
            return out
        if self.kind == "bump":
            return self.amplitude * _raw_bump(x / self.width)
        p = np.asarray(self.poly)
        return self.amplitude * _eval_poly_over_bump(x, p, self.pole_power)

    # -- line Fourier transform --------------------------------------------

    def fourier_transform(self, xi):
        """F[f](xi) = integral of f(x) exp(-2 pi i xi x) dx."""
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.kind in ("step", "mollified"):
            out = _step_transform(self.pieces, xi_arr)
            if self.kind == "mollified":
                out = out * mollifier_transform(self.eps * xi_arr)
        elif self.kind == "bump":
            out = (self.amplitude * BUMP_MASS * self.width) * mollifier_transform(self.width * xi_arr).astype(complex)
        else:
            base = self._base_transform(xi_arr)
            out = self.amplitude * (2j * np.pi * xi_arr) ** self.kappa * base
        return out if np.ndim(xi) else complex(out[0])

    def _base_transform(self, xi_arr):
        # quadrature transform of the underived base eta_raw * p0, with p0
        # saved in pieces alongside the derived polynomial
        p0 = np.asarray(self.pieces[0] if self.pieces else (1.0,))
        x, w = _panel_rule((-1.0, 1.0), 2000 if np.max(np.abs(xi_arr)) > 25.0 else 400)
        ph = np.exp(-2j * np.pi * np.outer(xi_arr, x))
        return ph @ (w * _raw_bump(x) * npoly.polyval(x, p0))

    # -- integrals ----------------------------------------------------------

    def integral_moment(self, j: int) -> complex:
        """integral of x^j f(x) dx."""
        if self.kind == "step":
            return sum(v * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for a, b, v in self.pieces)
        if self.kind == "mollified":
            # moments of a convolution: binomial combination with the even
            # bump's moments (odd ones vanish)
            step = CompactProfile("step", self.pieces, self.support_radius - self.eps)
            total = 0.0 + 0.0j
            for i in range(j + 1):
                mu = _bump_moment(j - i) * self.eps ** (j - i)
                if mu != 0.0:
                    total += math.comb(j, i) * step.integral_moment(i) * mu
            return total
        x, w = _panel_rule((-self.support_radius, self.support_radius), 400)
        return complex(w @ (x**j * self.evaluate(x)))

    def breakpoints(self):
        """Interior non-smooth points: the panel edges of phase_integral."""
        pts = set()
        for a, b, _ in self.pieces if self.kind in ("step", "mollified") else ():
            for e in (a, b):
                if self.kind == "mollified":
                    pts.update((e - self.eps, e + self.eps))
                else:
                    pts.add(e)
        return sorted(p for p in pts if abs(p) < self.support_radius)


def _step_transform(pieces, xi_arr):
    out = np.zeros(xi_arr.shape, dtype=complex)
    nz = xi_arr != 0.0
    x = xi_arr[nz]
    for a, b, v in pieces:
        out[nz] += v * (np.exp(-2j * np.pi * x * a) - np.exp(-2j * np.pi * x * b)) / (2j * np.pi * x)
        out[~nz] += v * (b - a)
    return out


def _bump_moment(k: int) -> float:
    """k-th moment of the unit bump."""
    if k % 2 == 1:
        return 0.0
    x, w = _panel_rule((-1.0, 1.0), 400)
    return float(w @ (x**k * _raw_bump(x))) / BUMP_MASS


# ---------------------------------------------------------------------------
# named profiles

def _psi1_pieces():
    return ((1.0, 3.0, SQRT_PI), (4.0, 5.0, -2.0 * SQRT_PI))


def _psi2_pieces():
    return (
        (-5.0, -4.0, -2.0 * SQRT_PI),
        (-3.0, -1.0, SQRT_PI),
        (1.0, 3.0, SQRT_PI),
        (4.0, 5.0, -2.0 * SQRT_PI),
    )


def _psi4_pieces(a: float):
    right = ((1.0, 2.0, SQRT_PI), (4.0, 5.0, -2.0 * SQRT_PI), (a, a + 1.0, SQRT_PI))
    left = tuple((-b, -a_, v) for a_, b, v in right)
    return tuple(sorted(left + right))


def solve_psi4_parameter(tol: float = 1e-12) -> float:
    """Shift parameter that kills the second moment of the three-block
    even profile, found by bisection on (5, 10).

    The bracket is refined past ``tol`` all the way to the floating-point
    floor, so downstream moment residuals stay near machine precision.
    """

    def second_moment(a):
        pieces = _psi4_pieces(a)
        return sum(v * (b**3 - a_**3) / 3.0 for a_, b, v in pieces)

    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = 5.0, 10.0
    flo = second_moment(lo)
    if not flo < 0.0 < second_moment(hi):
        raise RuntimeError("second moment does not change sign on (5, 10)")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if second_moment(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def appendix_profile(kind: str, kappa: int = 1, eps: float = 0.1) -> CompactProfile:
    """Named initial-data profiles.

    'psi1', 'psi2', 'psi4': exact step profiles with 1, 2, 4 vanishing
    moments.  'mollified': psi1 convolved with a bump of half-width eps
    (moments survive; the phase integral loses at most half its size for
    small eps).  'derivative': the kappa-th derivative of a smooth
    asymmetric bump, sign-calibrated so its quintic integral is negative.
    """
    if kind == "psi1":
        return CompactProfile("step", _psi1_pieces(), 5.0, label="psi1")
    if kind == "psi2":
        return CompactProfile("step", _psi2_pieces(), 5.0, label="psi2")
    if kind == "psi4":
        a = solve_psi4_parameter()
        return CompactProfile("step", _psi4_pieces(a), a + 1.0, label="psi4")
    if kind == "mollified":
        if not 0.0 < eps <= 0.5:
            raise ValueError("mollification width must lie in (0, 0.5]")
        return CompactProfile("mollified", _psi1_pieces(), 5.0 + eps, eps=eps, label="mollified-psi1")
    if kind == "derivative":
        if kappa < 1:
            raise ValueError("derivative kind needs kappa >= 1")
        return _derivative_profile(kappa)
    raise ValueError(f"unknown profile kind {kind!r}")


def _derivative_profile(kappa: int) -> CompactProfile:
    base = (1.0, 0.5)  # 1 + x/2, asymmetric so odd kappa survives the quintic
    p, m = _derivative_rep(base, kappa)
    nodes, wts, _ = _gauss_rule(2000)
    vals = _eval_poly_over_bump(nodes, np.asarray(p), m)
    quintic = float(np.sum(wts * vals**5))
    scale = float(np.max(np.abs(vals))) or 1.0
    if abs(quintic) < 1e-14 * scale**5:
        raise ValueError(f"quintic integral degenerate for kappa={kappa}: construction hypothesis fails")
    sign = -1.0 if quintic > 0.0 else 1.0
    return CompactProfile(
        "derivative",
        pieces=(base,),
        support_radius=1.0,
        amplitude=sign,
        kappa=kappa,
        poly=tuple(np.asarray(p)),
        pole_power=m,
        label=f"derivative-{kappa}",
    )


def smooth_bump(amplitude: float = 1.0, width: float = 2.0) -> CompactProfile:
    """amplitude * exp(-1/(1-(x/width)^2)), supported on (-width, width)."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    return CompactProfile("bump", support_radius=width, width=width, amplitude=amplitude, label="bump")


def centered_two_step(amplitude: float = 0.7, eps: float = 0.3) -> CompactProfile:
    """Mean-zero two-step profile on [-2, 2] (heights amplitude * sqrt(pi)
    and -2 amplitude * sqrt(pi)), smoothed by the eps bump.  The workhorse
    data for the small-dispersion discrepancy counting."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    pieces = ((-2.0, 0.0, amplitude * SQRT_PI), (1.0, 2.0, -2.0 * amplitude * SQRT_PI))
    return CompactProfile("mollified", pieces, 2.0 + eps, eps=eps, label="two-step")


def mollify(profile: CompactProfile, eps: float) -> CompactProfile:
    """Convolve a step profile with the eps bump."""
    if profile.kind != "step":
        raise ValueError("mollify is defined for step profiles")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return CompactProfile(
        "mollified",
        profile.pieces,
        profile.support_radius + eps,
        eps=eps,
        label=(profile.label + "-mollified") if profile.label else "mollified",
    )


# ---------------------------------------------------------------------------
# diagnostics used by the constructions

def moment_vanishing(profile: CompactProfile, kappa: int) -> MomentReport:
    """Largest |moment| of order below kappa, plus the transform-side
    check: max of |F[f](xi)| / |xi|^kappa over small nonzero xi."""
    worst = 0.0
    for j in range(kappa):
        worst = max(worst, abs(profile.integral_moment(j)))
    xi = np.linspace(1e-4, 0.01, 25)
    ratio = np.abs(profile.fourier_transform(xi)) / xi**kappa
    return MomentReport(worst, float(np.max(ratio)))


# panels per breakpoint interval at which phase_integral stops halving:
# 64 panels of 400 nodes, 25 600 nodes per interval
PHASE_MAX_PARTS = 64


def phase_integral(profile: CompactProfile, t0: float) -> PhaseIntegral:
    """integral of f(x) exp(i |f(x)|^2 t0) dx.

    Exact for step profiles.  Otherwise 400-node Gauss-Legendre on each
    panel between the breakpoints, with the panels halved until two
    successive sums agree within 1e-10 of the integral of |f|; the finer
    sum is returned.  If they still differ at PHASE_MAX_PARTS panels per
    interval, the rule has not resolved the oscillation and the call
    refuses with ValueError.
    """
    if profile.kind == "step":
        total = sum(v * (b - a) * np.exp(1j * abs(v) ** 2 * t0) for a, b, v in profile.pieces)
        total = complex(total) if profile.pieces else 0.0 + 0.0j
        return PhaseIntegral(total, abs(total))
    K = profile.support_radius
    edges = np.array([-K, *profile.breakpoints(), K])
    prev, parts = None, 1
    while True:
        x, w = _panel_rule(np.linspace(edges[:-1], edges[1:], parts + 1, axis=-1), 400)
        f = profile.evaluate(x)
        val = complex(np.sum(w * f * np.exp(1j * np.abs(f) ** 2 * t0)))
        if prev is not None:
            gap, scale = abs(val - prev), np.sum(w * np.abs(f))
            if gap <= 1e-10 * scale:
                return PhaseIntegral(val, abs(val))
            if parts >= PHASE_MAX_PARTS:
                raise ValueError(
                    f"phase integral unresolved at t0={t0}: tried 1 to {parts} panels per "
                    f"interval, and going from {parts // 2} to {parts} moves it by "
                    f"{gap / scale:.1e} of the integral of |f| (tolerance 1e-10)")
        prev, parts = val, 2 * parts
