"""Correctness checks for the benchmark's reports.

Every expected value is worked out here from the workload's inputs and the
paper's schedules, never read from a saved copy of an earlier report.  Each
check takes the parsed JSON report and returns a list of failure messages;
an empty list means the report passed.
"""

from __future__ import annotations

import math

import numpy as np

NORM_T0_REL = 1e-12
# ode_exact_evolve reports its tail as grid mass minus kept mass, so the value
# is roundoff of two numbers the size of the data's L^2 mass.  Exact zero is
# not required; a tail above this share of the mass is.
TAIL_MASS_REL = 1e-12
FEASIBILITY_MARGIN = 10.0  # the CLI default `margin`


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _schedule(regime: str, N: int, s: float, theta: float | None):
    """(R, A, T) of the two-block regimes of arXiv:1508.00827."""
    logn = math.log(N)
    if regime == "crit_half":
        return 1.0, N / logn ** (1.0 / 16.0), 1.0 / (N * N * logn ** 0.125)
    if regime == "frac_crit":
        return N ** (-0.5 - s), N ** (1.0 - theta), N ** (2.0 * s - 1.0 - theta)
    if regime == "negative_s":
        return N ** (-s) / logn, logn, N ** (2.0 * s) / logn
    raise ValueError(f"no schedule for regime {regime!r}")


def _block_modes(regime: str, N: int, R: float, A: float, L: float):
    """Modes carrying the two-block data and their common coefficient.

    Circle regimes put R on the integers within floor(A/2) of N and 2N; the
    line regime samples R on [N - A/2, N + A/2] and [2N - A/2, 2N + A/2] at
    the lattice n/L, scaled by 1/L.
    """
    if regime == "negative_s":
        parts = []
        for c in (N, 2 * N):
            n = np.arange(math.floor((c - A / 2.0) * L), math.ceil((c + A / 2.0) * L) + 1)
            parts.append(n[np.abs(n / L - c) <= A / 2.0])
        return np.concatenate(parts), R / L
    half = math.floor(A / 2.0)
    return np.concatenate([np.arange(c - half, c + half + 1) for c in (N, 2 * N)]), R


def check_inflate(report: dict, params: dict, expect_no_skips: bool) -> list[str]:
    """C08 ratios, closed-form norm_t0, Wiener budget, tail mass, skipped list."""
    regime, s = params["regime"], float(params["s"])
    theta = float(params["theta"]) if "theta" in params else None
    L = float(params.get("surrogate_period", 32.0)) if regime == "negative_s" else 1.0
    sweep = [int(float(v)) for v in params["sweep"].split()]
    rows = report["rows"]
    per_n = report["metadata"]["per_N"]
    if [int(r["N_or_j"]) for r in rows] != sweep:
        return [f"rows cover N = {[r['N_or_j'] for r in rows]}, expected {sweep}"]
    bad = []
    for row, N in zip(rows, sweep):
        R, A, T = _schedule(regime, N, s, theta)
        modes, coeff = _block_modes(regime, N, R, A, L)
        weights = (1.0 + (modes / L) ** 2) ** s
        norm0 = math.sqrt(L * float(np.sum(weights)) * coeff * coeff)
        mass = L * modes.size * coeff * coeff
        if _rel(row["norm_t0"], norm0) > NORM_T0_REL:
            bad.append(f"N={N}: norm_t0 {row['norm_t0']!r} vs closed form {norm0!r}")
        if row["ratio"] != row["norm_T"] / row["norm_t0"]:
            bad.append(f"N={N}: ratio {row['ratio']!r} is not norm_T / norm_t0")
        if not row["ratio"] > 1.0:
            bad.append(f"N={N}: ratio {row['ratio']!r} does not exceed 1")
        tail = row["tail_mass"]
        if not 0.0 <= tail <= TAIL_MASS_REL * mass:
            bad.append(f"N={N}: tail_mass {tail!r} outside [0, {TAIL_MASS_REL:g} * mass {mass:.6g}]")
        if _rel(per_n[str(N)]["T"], T) > 1e-12:
            bad.append(f"N={N}: T {per_n[str(N)]['T']!r} vs schedule {T!r}")
        if regime != "negative_s":
            # ||phi||_l1 = R * (mode count), ||phi||_linf = R
            w1, winf = R * modes.size, R
            budget = T**2 * N**2 * w1**2 * winf + sum(T**k * w1 ** (2 * k) * winf for k in range(2, 5))
            gap = row["method_disagreement"]
            if gap is None or not gap <= budget:
                bad.append(f"N={N}: method_disagreement {gap!r} exceeds Wiener budget {budget:.6g}")
        if expect_no_skips and per_n[str(N)]["skipped"] != []:
            bad.append(f"N={N}: skipped {per_n[str(N)]['skipped']}, expected none")
    ratios = [r["ratio"] for r in rows]
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        bad.append(f"ratios do not rise with N: {ratios}")
    return bad


def check_approx(report: dict) -> list[str]:
    meta = report["metadata"]
    bad = []
    if not meta.get("fitted_slope", -math.inf) >= 1.5:
        bad.append(f"fitted_slope {meta.get('fitted_slope')!r} < 1.5")
    if not meta.get("period_spread", math.inf) <= 2.0:
        bad.append(f"period_spread {meta.get('period_spread')!r} > 2")
    return bad


def check_gamma(report: dict) -> list[str]:
    """Counts positive, reference L * delta^2 on the 2^(-1/4) schedule, spread <= 4."""
    rows = report["rows"]
    if [int(r["N_or_j"]) for r in rows] != [1, 2, 3, 4]:
        return [f"rows cover j = {[r['N_or_j'] for r in rows]}, expected 1..4"]
    bad = []
    scaled = []
    for row in rows:
        j = int(row["N_or_j"])
        delta = 0.16 * 2.0 ** (-(j - 1) / 4.0)
        ref = round(delta ** (-2.5)) * delta**2
        count = row["ratio"]
        if not (count > 0 and count == int(count)):
            bad.append(f"j={j}: count {count!r} is not a positive integer")
        if _rel(row["reference"], ref) > 1e-9:
            bad.append(f"j={j}: reference {row['reference']!r} vs L * delta^2 = {ref!r}")
        scaled.append(count / ref)
    if min(scaled) <= 0.0 or max(scaled) / min(scaled) > 4.0:
        bad.append(f"count / (L delta^2) spread {scaled} exceeds 4")
    return bad


def check_periodize(report: dict) -> list[str]:
    """|circle - line| falls strictly with L at s = -1, -1/2; Parseval at s = 0."""
    by_s: dict[float, list] = {}
    for row in report["rows"]:
        by_s.setdefault(row["s"], []).append(row)
    if sorted(by_s) != [-1.0, -0.5, 0.0, 1.0]:
        return [f"rows cover s = {sorted(by_s)}, expected -1, -1/2, 0, 1"]
    bad = []
    for s in (-1.0, -0.5):
        rows = sorted(by_s[s], key=lambda r: r["param"])
        gaps = [abs(r["norm_t0"] - r["norm_T"]) for r in rows]
        if len(gaps) < 2 or any(b >= a for a, b in zip(gaps, gaps[1:])):
            bad.append(f"s={s}: |circle - line| does not fall with L: {gaps}")
    for row in by_s[0.0]:
        if _rel(row["norm_t0"], row["norm_T"]) > 1e-6:
            bad.append(f"s=0, L={row['param']}: circle {row['norm_t0']!r} vs line {row['norm_T']!r}")
    return bad


def check_feasibility(report: dict) -> list[str]:
    """s = -1/4, alpha = 3/8: no admissible triple, every best margin below the margin."""
    rows = report["rows"]
    if len(rows) != 5:
        return [f"{len(rows)} rows, expected one per default N (5)"]
    bad = []
    for row in rows:
        if row["s"] != -0.25 or row["alpha"] != 0.375:
            bad.append(f"row at s={row['s']}, alpha={row['alpha']}, expected -1/4, 3/8")
        if row["param"] != 0:
            bad.append(f"N={row['N_or_j']}: {row['param']} admissible triples, expected 0")
        if not row["constant"] < FEASIBILITY_MARGIN:
            bad.append(f"N={row['N_or_j']}: best margin {row['constant']!r} >= {FEASIBILITY_MARGIN}")
    return bad
