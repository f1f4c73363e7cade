"""Compactly supported line profiles: steps, mollifications, smooth bumps.

These are the initial-data building blocks that get periodized onto a
circle.  Step profiles carry exact closed forms (transform, moments,
phase integral); smooth kinds are integrated by Gauss-Legendre on panels
(`_panel_rule`).  The transforms of the unit bump and of the derivative
base are Gauss-Legendre sums; up to TABLE_REACH they are read from a
piecewise Chebyshev table of the 400-node sums, built once per process
on first use and within 1.1e-16 of those sums above 1 (5.6e-16 below).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import KW_ONLY, dataclass, replace
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


# points times quadrature nodes (or table points) per block of _node_sums
# and _table_values: bounds their points x nodes temporaries (0.5 MB of
# floats) whatever the number of points, which keeps them out of the run's
# peak memory.  On a 2-CPU Xeon, line_sobolev_norm's transform call on the
# periodize profile (20 352 points, 10 176 distinct |xi|) took 34 ms summed
# at 200 folded nodes in one 16 MB block and 23-25 ms in blocks of 1 MB
# down to 0.5 MB; read from the table it takes 3.1 ms in 1 MB blocks and
# 2.0 ms in 0.5 MB blocks down to 0.25 MB
_TRANSFORM_BLOCK = 1 << 16


def _row_blocks(points: int, nodes: int):
    """Slices of consecutive points, _TRANSFORM_BLOCK // nodes at a time."""
    rows = max(1, _TRANSFORM_BLOCK // nodes)
    return [slice(lo, lo + rows) for lo in range(0, points, rows)]


def _transform_rule(n: int):
    """Nodes, weights and unit bump of the positive half of the symmetric
    n-node Gauss rule (n even, so no node sits at 0): 400 nodes build the
    transforms' table (_transform_table), 2000 sum the calls beyond its
    reach TABLE_REACH."""
    rule = _gauss_rule(n)
    return tuple(a[n // 2:] for a in rule)


def _exact_turns(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The outer product points x nodes modulo 1, in [-1/2, 1/2], from the
    product's exact head and tail (Dekker's split, Numer. Math. 18, 1971):
    2 pi times it rounds by at most 4e-16, where 2 pi point node, near 150
    at point 25, rounds by up to 3e-14."""
    c = 134217729.0 * points[:, None]  # 2^27 + 1
    ph = c - (c - points[:, None])  # 26 bits
    c = 134217729.0 * nodes
    nh = c - (c - nodes)
    turns = np.outer(points, nodes)
    tail = ph * nh - turns  # exact, as is ph * (nodes - nh); the last term
    tail += ph * (nodes - nh)  # rounds by 2^-80 of the point
    tail += (points[:, None] - ph) * nodes
    turns -= np.rint(turns)
    turns += tail
    return turns


def _node_sums(trig, points: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
               turns=np.outer) -> np.ndarray:
    """The sum over the nodes of weights * trig(2 pi turns(point, node)),
    for each point, in the blocks of _row_blocks; turns is the outer
    product, or _exact_turns.  Each point's row is summed alone (a BLAS
    product's order of summation depends on the row's place in its block),
    so a value does not depend on the points beside it."""
    out = np.empty(points.size)
    # periodize passes thousands of points at once, so a block's points x
    # nodes array runs to megabytes: update one in place rather than
    # allocate three, which the allocator would map and page in afresh on
    # every call
    for blk in _row_blocks(points.size, nodes.size):
        arg = turns(points[blk], nodes)
        arg *= 2.0 * np.pi
        trig(arg, out=arg)
        arg *= weights
        out[blk] = arg.sum(axis=1)
    return out


def _transform_part(part: str, nodes: np.ndarray, weights: np.ndarray, bump: np.ndarray):
    """(trig, weights) of one transform sum over a positive half rule.
    'bump': the unit bump's transform, the cos sum with doubled weights.
    'base_cos', 'base_sin': the cos and sin sums of the derivative base
    eta_raw * p0 (DERIVATIVE_BASE), with its even and odd parts."""
    if part == "bump":
        return np.cos, 2.0 * weights * bump
    wb = weights * _raw_bump(nodes)
    right, left = npoly.polyval(nodes, DERIVATIVE_BASE), npoly.polyval(-nodes, DERIVATIVE_BASE)
    return (np.cos, wb * (right + left)) if part == "base_cos" else (np.sin, wb * (right - left))


# The transforms' table on [0, TABLE_REACH]: _TABLE_PIECES pieces of width
# 0.5, each interpolated at _TABLE_DEGREE + 1 second-kind Chebyshev points
# by the barycentric formula (Berrut and Trefethen, SIAM Rev. 46, 2004).
# The sums are entire in the point and vary on the scale 1/(2 pi), so the
# degree-16 interpolant of a piece falls below roundoff.  The tabulated
# sums turn by exact products (_exact_turns).  Against the 400-node rule
# summed in long double at 100 002 points, the bump's table errs by at most
# 5.6e-16 on [0, 1] (2.5 ulp of values near 1; the rule summed in double
# by 2.2e-16) and by 1.1e-16 above 1 (the rule in double by 8.2e-16).  Its
# 850 sums take 3-5 ms on a 2-CPU Xeon, once per process
TABLE_REACH = 25.0
_TABLE_PIECES = 50
_TABLE_DEGREE = 16
# by math, not numpy: a numpy ufunc at import pages in code a run may never use
_CHEB_POINTS = np.array([math.sin(math.pi * k / (2 * _TABLE_DEGREE))
                         for k in range(-_TABLE_DEGREE, _TABLE_DEGREE + 1, 2)])
_CHEB_WEIGHTS = np.array([(-1.0) ** j * (0.5 if j in (0, _TABLE_DEGREE) else 1.0)
                          for j in range(_TABLE_DEGREE + 1)])


@functools.cache
def _transform_table(part: str) -> np.ndarray:
    """part's sums (_transform_part) over the folded 400-node rule at the
    table's points: row p holds the piece [p/2, (p + 1)/2]."""
    nodes, weights, bump = _transform_rule(400)
    trig, w = _transform_part(part, nodes, weights, bump)
    width = TABLE_REACH / _TABLE_PIECES
    points = width * (np.arange(_TABLE_PIECES)[:, None] + 0.5 * (_CHEB_POINTS + 1.0))
    return _node_sums(trig, points.ravel(), nodes, w, _exact_turns).reshape(points.shape)


def _table_values(table: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The table's interpolant at each point of a, in [0, TABLE_REACH]: the
    barycentric formula on the point's piece, each row summed alone.  A
    point on one of the piece's points divides by 0 and reads NaN, and
    takes the tabulated value instead."""
    out = np.empty(a.size)
    for blk in _row_blocks(a.size, _TABLE_DEGREE + 1):
        s = a[blk] * (_TABLE_PIECES / TABLE_REACH)
        piece = np.minimum(s.astype(np.intp), _TABLE_PIECES - 1)
        t = 2.0 * (s - piece) - 1.0
        q = np.subtract.outer(t, _CHEB_POINTS)
        values = np.take(table, piece, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(_CHEB_WEIGHTS, q, out=q)
            vals = np.einsum("ij,ij->i", q, values)
            vals /= q.sum(axis=1)
        hit = np.flatnonzero(np.isnan(vals))
        vals[hit] = values[hit, np.argmax(t[hit, None] == _CHEB_POINTS, axis=1)]
        out[blk] = vals
    return out


def _transform_sums(part: str, a: np.ndarray) -> np.ndarray:
    """part's sum at each point of the 1-d a >= 0: from the table while
    max a <= TABLE_REACH, else over the folded 2000-node rule, once per
    distinct point."""
    if np.max(a, initial=0.0) <= TABLE_REACH:
        return _table_values(_transform_table(part), a)
    nodes, weights, bump = _transform_rule(2000)
    trig, w = _transform_part(part, nodes, weights, bump)
    u, back = np.unique(a, return_inverse=True)
    return _node_sums(trig, u, nodes, w)[back]


def mollifier_transform(zeta):
    """Transform of the unit bump: integral of eta(y) exp(-2 pi i zeta y) dy.

    Real and even in zeta, and of zeta's shape.  While max|zeta| <=
    TABLE_REACH = 25 each value is read from a piecewise Chebyshev table of
    the 400-node Gauss-Legendre sum, within 5.6e-16 of the exact sum (the
    sum taken in double errs by up to 8.2e-16); beyond, the sum runs over
    2000 nodes, once per distinct |zeta|.  Either way the sum is folded
    onto the rule's positive nodes with doubled weights, and accuracy
    degrades only where the value is below 1e-25.
    """
    z = np.asarray(zeta, dtype=float)
    vals = _transform_sums("bump", np.abs(z).ravel()).reshape(z.shape)
    return vals if z.ndim else float(vals)


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

DERIVATIVE_BASE = (1.0, 0.5)  # the profiles' p0 = 1 + x/2: asymmetric, so odd kappa survives the quintic


@functools.cache
def _derivative_rep(kappa: int):
    """Return (p, m) with d^kappa[eta_raw * p0] = eta_raw * p/(1-x^2)^m."""
    p = np.asarray(DERIVATIVE_BASE, dtype=float)
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
    return tuple(p), m  # a tuple: the cache hands the same result to every caller


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

class MomentReport(NamedTuple):
    max_moment: float
    fourier_ratio_max: float


@dataclass(frozen=True)
class CompactProfile:
    """Compactly supported function on the line.

    kind 'step': sum of value * indicator([a,b]) over pieces.
    kind 'mollified': the same convolved with a bump of half-width eps.
    kind 'bump': amplitude * exp(-1/(1-(x/width)^2)).
    kind 'derivative': amplitude * d^kappa/dx^kappa of the fixed base
    eta_raw * (1 + x/2) (DERIVATIVE_BASE).
    """

    kind: str
    pieces: tuple = ()
    _: KW_ONLY
    eps: float = 0.0
    width: float = 1.0
    amplitude: complex = 1.0 + 0.0j
    kappa: int = 0

    def __post_init__(self):
        if self.kind not in ("step", "mollified", "bump", "derivative"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "mollified" and not self.eps > 0.0:
            raise ValueError("mollified profile needs eps > 0")
        if self.kind == "derivative" and not (isinstance(self.kappa, numbers.Integral) and self.kappa >= 1):
            raise ValueError(f"derivative kind needs kappa >= 1, an integer; got {self.kappa!r}")
        for a, b, _ in self.pieces:
            if a > b:
                raise ValueError(f"a step piece [a, b) needs a <= b, got a = {a!r}, b = {b!r}")
        if self.support_radius <= 0.0:
            raise ValueError("support_radius must be positive")

    @property
    def support_radius(self) -> float:
        """K with the support in [-K, K], derived from the fields that define the profile."""
        if self.kind == "bump":
            return self.width
        if self.kind == "derivative":
            return 1.0
        reach = max((max(abs(a), abs(b)) for a, b, _ in self.pieces), default=0.0)
        return float(reach) + self.eps if self.kind == "mollified" else float(reach)

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
        return self.amplitude * _eval_poly_over_bump(x, *_derivative_rep(self.kappa))

    # -- line Fourier transform --------------------------------------------

    def fourier_transform(self, xi):
        """F[f](xi) = integral of f(x) exp(-2 pi i xi x) dx, of xi's shape."""
        xi = np.asarray(xi, dtype=float)
        xi_arr = xi.ravel()
        if self.kind in ("step", "mollified"):
            out = _step_transform(self.pieces, xi_arr)
            if self.kind == "mollified":
                out = out * mollifier_transform(self.eps * xi_arr)
        elif self.kind == "bump":
            out = (self.amplitude * BUMP_MASS * self.width) * mollifier_transform(self.width * xi_arr).astype(complex)
        else:
            base = self._base_transform(xi_arr)
            out = self.amplitude * (2j * np.pi * xi_arr) ** self.kappa * base
        out = out.reshape(xi.shape)
        return out if out.ndim else complex(out)

    def _base_transform(self, xi_arr):
        # quadrature transform of the underived base eta_raw * p0.  The base
        # is real, so F(xi) = C(|xi|) - i sign(xi) S(|xi|), with its cos and
        # sin sums over the rule's positive nodes with the even and odd
        # parts of the base
        a = np.abs(xi_arr)
        cos_sum, sin_sum = _transform_sums("base_cos", a), _transform_sums("base_sin", a)
        return cos_sum - 1j * (np.sign(xi_arr) * sin_sum)

    # -- integrals ----------------------------------------------------------

    def integral_moment(self, j: int) -> complex:
        """integral of x^j f(x) dx."""
        if self.kind == "step":
            return sum(v * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for a, b, v in self.pieces)
        if self.kind == "mollified":
            # moments of a convolution: binomial combination with the even
            # bump's moments (odd ones vanish)
            step = CompactProfile("step", self.pieces)
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

_PSI1_PIECES = ((1.0, 3.0, SQRT_PI), (4.0, 5.0, -2.0 * SQRT_PI))
_PSI2_PIECES = ((-5.0, -4.0, -2.0 * SQRT_PI), (-3.0, -1.0, SQRT_PI)) + _PSI1_PIECES


def _psi4_pieces(a: float):
    right = ((1.0, 2.0, SQRT_PI), (4.0, 5.0, -2.0 * SQRT_PI), (a, a + 1.0, SQRT_PI))
    left = tuple((-b, -a_, v) for a_, b, v in right)
    return tuple(sorted(left + right))


def solve_psi4_parameter() -> float:
    """Shift parameter that kills the second moment of the three-block
    even profile.  The half-line second moment of _psi4_pieces(a) is
    (sqrt(pi) / 3) (3 a^2 + 3 a - 114), whose positive root is
    a = (sqrt(153) - 1) / 2."""
    return (math.sqrt(153.0) - 1.0) / 2.0


def appendix_profile(kind: str, kappa: int = 1, eps: float = 0.1) -> CompactProfile:
    """Named initial-data profiles.

    'psi1', 'psi2', 'psi4': exact step profiles with 1, 2, 4 vanishing
    moments.  'mollified': psi1 convolved with a bump of half-width eps
    (moments survive; the phase integral loses at most half its size for
    small eps).  'derivative': the kappa-th derivative of a smooth
    asymmetric bump, sign-calibrated so its quintic integral is negative.
    """
    if kind == "psi1":
        return CompactProfile("step", _PSI1_PIECES)
    if kind == "psi2":
        return CompactProfile("step", _PSI2_PIECES)
    if kind == "psi4":
        return CompactProfile("step", _psi4_pieces(solve_psi4_parameter()))
    if kind == "mollified":
        if eps > 0.5:
            raise ValueError("mollification width must lie in (0, 0.5]")
        return mollify(appendix_profile("psi1"), eps)
    if kind == "derivative":
        return _derivative_profile(kappa)
    raise ValueError(f"unknown profile kind {kind!r}")


def _derivative_profile(kappa: int) -> CompactProfile:
    profile = CompactProfile("derivative", kappa=kappa)  # checks kappa before the work below
    nodes, wts, _ = _gauss_rule(2000)
    vals = profile.evaluate(nodes).real  # at amplitude 1, before the sign is chosen
    quintic = float(np.sum(wts * vals**5))
    scale = float(np.max(np.abs(vals))) or 1.0
    if abs(quintic) < 1e-14 * scale**5:
        raise ValueError(f"quintic integral degenerate for kappa={kappa}: construction hypothesis fails")
    return replace(profile, amplitude=-1.0 if quintic > 0.0 else 1.0)


def smooth_bump(amplitude: float = 1.0, width: float = 2.0) -> CompactProfile:
    """amplitude * exp(-1/(1-(x/width)^2)), supported on (-width, width)."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    return CompactProfile("bump", width=width, amplitude=amplitude)


def centered_two_step(amplitude: float = 0.7, eps: float = 0.3) -> CompactProfile:
    """Mean-zero two-step profile on [-2, 2] (heights amplitude * sqrt(pi)
    and -2 amplitude * sqrt(pi)), smoothed by the eps bump.  The workhorse
    data for the small-dispersion discrepancy counting."""
    pieces = ((-2.0, 0.0, amplitude * SQRT_PI), (1.0, 2.0, -2.0 * amplitude * SQRT_PI))
    return mollify(CompactProfile("step", pieces), eps)


def mollify(profile: CompactProfile, eps: float) -> CompactProfile:
    """Convolve a step profile with the eps bump."""
    if profile.kind != "step":
        raise ValueError("mollify is defined for step profiles")
    return CompactProfile("mollified", profile.pieces, eps=eps)


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


def phase_integral(profile: CompactProfile, t0: float) -> complex:
    """integral of f(x) exp(i |f(x)|^2 t0) dx.

    Exact for step profiles.  Otherwise 400-node Gauss-Legendre on each
    panel between the breakpoints, with the panels halved until two
    successive sums agree within 1e-10 of the integral of |f|; the finer
    sum is returned.  If they still differ at PHASE_MAX_PARTS panels per
    interval, the rule has not resolved the oscillation and the call
    refuses with ValueError.
    """
    if profile.kind == "step":
        return complex(sum(v * (b - a) * np.exp(1j * abs(v) ** 2 * t0)
                           for a, b, v in profile.pieces))
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
                return val
            if parts >= PHASE_MAX_PARTS:
                raise ValueError(
                    f"phase integral unresolved at t0={t0}: tried 1 to {parts} panels per "
                    f"interval, and going from {parts // 2} to {parts} moves it by "
                    f"{gap / scale:.1e} of the integral of |f| (tolerance 1e-10)")
        prev, parts = val, 2 * parts
