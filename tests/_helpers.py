"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from nlslab import SpectralField, enlarge_band, sobolev_norm


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
