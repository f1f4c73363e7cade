"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from nlslab import SpectralField, enlarge_band, sobolev_norm
from nlslab.evolution import free_rotation_rates, picard_work
from nlslab.profiles import _gauss_rule, _raw_bump


def random_field(period, bandwidth, seed, l2=None, decay=0.0, mean_zero=False,
                 support=None):
    """Band-limited field with Gaussian coefficients.

    decay > 0 damps mode n by (1+|n|)^{-decay}; l2 rescales to that L2 norm;
    support keeps only that many randomly chosen modes nonzero.
    """
    rng = np.random.default_rng(seed)
    n = np.arange(-bandwidth, bandwidth + 1)
    coeffs = rng.normal(size=n.size) + 1j * rng.normal(size=n.size)
    if decay:
        coeffs = coeffs * (1.0 + np.abs(n)) ** (-decay)
    if support is not None:
        keep = rng.choice(n.size, size=support, replace=False)
        mask = np.zeros(n.size, dtype=bool)
        mask[keep] = True
        coeffs = np.where(mask, coeffs, 0.0)
    if mean_zero:
        coeffs[bandwidth] = 0.0
    field = SpectralField(period, coeffs)
    if l2 is not None:
        norm = sobolev_norm(field, 0.0)
        field = field.with_coeffs(field.coeffs * (l2 / norm))
    return field


def l2_norm(field):
    return sobolev_norm(field, 0.0)


def coeff_gap(a, b):
    """Max coefficient difference between two fields, bands aligned."""
    bw = max(a.bandwidth, b.bandwidth)
    ea = enlarge_band(a, bw)
    eb = enlarge_band(b, bw)
    return float(np.max(np.abs(ea.coeffs - eb.coeffs)))


def l2_gap(a, b):
    """L2 distance between two fields, bands aligned."""
    bw = max(a.bandwidth, b.bandwidth)
    ea = enlarge_band(a, bw)
    eb = enlarge_band(b, bw)
    return l2_norm(ea.with_coeffs(ea.coeffs - eb.coeffs))


def duhamel_kernel(phi, t):
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


def picard_reference(phi, t, alpha=1.0, dispersion_coeff=1.0, dispersion_sign=1):
    """Brute-force first Picard iterate on picard_expansion's output band:
    phi + i sum over every ordered triple n1 - n2 + n3 = n of the closed-form
    time integral duhamel_kernel(Phi, t) times c1 conj(c2) c3."""
    nz = phi.coeffs != 0.0
    n, c = phi.modes()[nz], phi.coeffs[nz]
    ob = max(3 * int(np.max(np.abs(n), initial=0)), phi.bandwidth)
    s = dispersion_sign * dispersion_coeff * (2.0 * np.pi / phi.period) ** (2.0 * alpha)

    def power(k):
        return np.abs(k).astype(float) ** (2.0 * alpha)

    first = np.zeros(2 * ob + 1, dtype=complex)
    n1, n3 = np.meshgrid(n, n, indexing="ij")
    c13 = np.outer(c, c)
    for n2, c2 in zip(n, c):
        out = (n1 - n2 + n3).ravel()
        ph = s * (power(out) - power(n1.ravel()) + power(n2) - power(n3.ravel()))
        terms = 1j * c13.ravel() * np.conj(c2) * duhamel_kernel(ph, t)
        first += np.bincount(out + ob, terms.real, 2 * ob + 1)
        first += 1j * np.bincount(out + ob, terms.imag, 2 * ob + 1)
    return enlarge_band(phi, ob).coeffs + first


def picard_bound(phi, eq, t):
    """The error bound of picard_expansion's docstring on every coefficient,
    t (1e-15 + 4 u (log2 G + 3 + t max|rate|)) ||phi||_FL1^3, plus 2 u max|phi_n|
    for the rounding of the final sum with phi, here and in a reference."""
    work = picard_work(phi, eq, t)
    rates = free_rotation_rates(enlarge_band(phi, work.out_band), eq)
    u = np.finfo(float).eps / 2.0
    rounding = 4.0 * u * (np.log2(work.grid_points) + 3.0 + t * float(np.max(np.abs(rates))))
    wiener = float(np.sum(np.abs(phi.coeffs)))
    return t * (1e-15 + rounding) * wiener**3 + 2.0 * u * float(np.max(np.abs(phi.coeffs)))


def _transform_nodes(points):
    """The transforms' node count: 400 while max|point| <= 25, else 2000."""
    return 400 if np.max(np.abs(points)) <= 25.0 else 2000


def unfolded_mollifier_transform(zeta):
    """The unit bump's transform at each zeta as one sum over every node of
    the Gauss rule, unfolded in zeta and in the nodes."""
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    nodes, weights, bump = _gauss_rule(_transform_nodes(z))
    return np.cos(2.0 * np.pi * np.outer(z, nodes)) @ (weights * bump)


def unfolded_base_transform(profile, xi):
    """The derivative profile's base transform, integral of eta_raw(x)
    p0(x) exp(-2 pi i xi x) dx, as one complex sum over every node."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nodes, weights, _ = _gauss_rule(_transform_nodes(xi))
    wf = weights * _raw_bump(nodes) * npoly.polyval(nodes, np.asarray(profile.pieces[0]))
    return np.exp(-2j * np.pi * np.outer(xi, nodes)) @ wf
