"""Acceptance gate: fifteen end-to-end checks, one per stated criterion,
each printing a single PASS/FAIL line with its measurements.

Run `pytest -rP tests/test_acceptance.py` to see every line, including the
ones for passing criteria.
"""
from __future__ import annotations

import math
import time

import numpy as np

import nlslab as nl
from nlslab import (
    CompactProfile,
    ApproxConfig,
    EquationSpec,
    FeasibilityConfig,
    GammaConfig,
    InflateConfig,
    PeriodizeConfig,
    SpectralField,
    StepperConfig,
    appendix_profile,
    build_two_block_data,
    certify_tail,
    f_factor,
    feasibility_scan,
    gauge_transform,
    mollify,
    moment_vanishing,
    ode_exact_evolve,
    phase_integral,
    project_below,
    regime_parameters,
    rk4_spectral_evolve,
    run_approximation,
    run_gamma,
    run_inflation,
    run_periodization,
    sobolev_norm,
    solve_psi4_parameter,
    split_step_evolve,
    wiener_error_budget,
    xi1_lower_measurement,
    xi_term,
)
from nlslab.lab import report_to_csv, report_to_json

from _helpers import l2_gap, l2_norm, random_field


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"C{num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_rk4_matches_closed_form_without_dispersion():
    t0 = time.perf_counter()
    eq = EquationSpec(dispersion_coeff=0.0)
    cfg = StepperConfig(dt=0.01)
    worst = 0.0
    for seed in range(100, 120):
        f = random_field(1.0, 64, seed=seed, l2=0.01)
        stepped = rk4_spectral_evolve(f, eq, 1.0, cfg)
        exact = ode_exact_evolve(f, 1.0, out_bandwidth=64).field
        worst = max(worst, l2_gap(stepped, exact))
    wall = time.perf_counter() - t0
    _report(1, worst <= 1e-8 and wall < 10.0,
            f"20 fields, worst L2 gap {worst:.3e} (tol 1e-08), {wall:.1f}s (limit 10s)")


def test_criterion_02_split_step_conserves_l2_mass():
    specs = [EquationSpec(alpha=a, wick=w) for a in (0.5, 1.0, 2.0) for w in (False, True)]
    f = random_field(1.0, 128, seed=60, l2=1.0, decay=2.0)
    cfg = StepperConfig(dt=1e-4)
    worst = 0.0
    for eq in specs:
        for t in (0.3, 1.0):
            drift = abs(l2_norm(split_step_evolve(f, eq, t, cfg)) - 1.0)
            worst = max(worst, drift)
    _report(2, worst < 1e-10,
            f"6 dispersion laws x 2 horizons, worst drift {worst:.3e} (tol 1e-10)")


def test_criterion_03_gauge_bridges_the_two_nonlinearities():
    f = random_field(1.0, 32, seed=12, l2=0.5, decay=1.5)
    t, cfg = 0.1, StepperConfig(dt=1e-4)
    plain = split_step_evolve(f, EquationSpec(), t, cfg)
    wick = split_step_evolve(f, EquationSpec(wick=True), t, cfg)
    gap = l2_gap(gauge_transform(plain, t), wick)
    _report(3, gap < 1e-6, f"bridged flows differ by {gap:.3e} (tol 1e-06)")


def test_criterion_04_plane_wave_phase_law():
    n0, c, t = 3, 0.8 * np.exp(0.3j), 0.1
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        coeffs = np.zeros(2 * n0 + 1, dtype=complex)
        coeffs[2 * n0] = c
        out = split_step_evolve(SpectralField(1.0, coeffs), EquationSpec(alpha=alpha),
                                t, StepperConfig(dt=1e-4))
        theta = (2.0 * np.pi * n0) ** (2.0 * alpha) + abs(c) ** 2
        worst = max(worst, abs(out.coefficient(n0) - c * np.exp(1j * theta * t)))
    _report(4, worst <= 1e-8, f"three exponents, worst phase error {worst:.3e} (tol 1e-08)")


def test_criterion_05_block_convolution_floor():
    worst_short = math.inf
    ok = True
    for a_width in range(1, 33):
        half = a_width // 2
        block = np.ones(2 * half + 1)
        conv = np.convolve(block, block)  # offsets -2*half .. 2*half
        center = conv[half : 3 * half + 1]  # restricted to the sum block
        floor = float(center.min())
        ok &= floor >= a_width / 2.0 and floor == half + 1
        worst_short = min(worst_short, floor - a_width / 2.0)
    # translating either block moves the support, never the values
    for a in (-8, 0, 8):
        for b in (-8, 5, 8):
            u = np.zeros(40)
            u[a + 12 : a + 17] = 1.0
            v = np.zeros(40)
            v[b + 12 : b + 17] = 1.0
            conv = np.convolve(u, v)
            center = conv[a + b + 26 : a + b + 31]
            ok &= float(center.min()) == 3.0  # half+1 for width 5
    _report(5, ok, f"widths 1..32 exact, min slack over sum block {worst_short:.2f} >= 0")


def test_criterion_06_first_term_constant_is_stable():
    consts = []
    for n in (2**8, 2**9, 2**10, 2**11, 2**12):
        sched = regime_parameters("crit_half", n, -0.5)
        phi = build_two_block_data(sched)
        consts.append(xi1_lower_measurement(phi, sched.T_N, -0.5, n).constant)
    spread = max(consts) / min(consts)
    ok = spread <= 4.0 and all(c > 0 for c in consts)
    _report(6, ok, "constants " + ", ".join(f"{c:.4f}" for c in consts)
            + f"; spread {spread:.4f} (limit 4)")


def test_criterion_07_first_term_dominates_the_series():
    ratios, tail_ok, tail_note = [], True, ""
    for n in (2**8, 2**9, 2**10, 2**11, 2**12):
        sched = regime_parameters("crit_half", n, -0.5)
        phi, t = build_two_block_data(sched), sched.T_N
        n0 = sobolev_norm(phi, -0.5)
        n1_low = sobolev_norm(project_below(xi_term(phi, 1, t), n), -0.5)
        top = max(xi_term(phi, k, t).bandwidth for k in range(2, 7))
        acc = np.zeros(2 * top + 1, dtype=complex)
        for k in range(2, 7):
            acc += nl.enlarge_band(xi_term(phi, k, t), top).coeffs
        n_sum = sobolev_norm(SpectralField(1.0, acc), -0.5)
        ratios.append((n0 + n_sum) / n1_low)
        if n == 2**8:
            n1_full = math.sqrt(float(np.sum(np.abs(xi_term(phi, 1, t).coeffs) ** 2)))
            k_tail, bound = certify_tail(phi, t, 1e-6 * n1_full)
            tail_ok = bound < 1e-6 * n1_full
            tail_note = f"; tail K={k_tail} bound/|Xi1|={bound / n1_full:.2e} (tol 1e-06)"
    dominated = all(r < 1.0 for r in ratios)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = dominated and decreasing and tail_ok
    _report(7, ok, "(|Xi0|+|Xi2..6|)/|P<N Xi1| = "
            + ", ".join(f"{r:.4f}" for r in ratios)
            + f"; dominance(<1) {dominated}, decreasing {decreasing}" + tail_note)


def test_criterion_08_inflation_ratios_grow_in_all_three_regimes():
    sweep = (256.0, 512.0, 1024.0, 2048.0, 4096.0)
    runs = {
        "crit_half": InflateConfig(regime="crit_half", s=-0.5, sweep=sweep),
        "frac_crit": InflateConfig(regime="frac_crit", s=-1.0, theta=0.1, sweep=sweep),
        "negative_s": InflateConfig(regime="negative_s", s=-0.25, sweep=sweep),
    }
    ok = True
    notes = []
    for name, cfg in runs.items():
        ratios = [row.ratio for row in run_inflation(cfg).rows]
        grew = all(r > 1.0 for r in ratios)
        monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
        ok &= grew and monotone
        notes.append(f"{name} {ratios[0]:.3f}->{ratios[-1]:.3f} inc={monotone}")
    _report(8, ok, "; ".join(notes))


def test_criterion_09_first_order_wiener_approximation():
    quotients = []
    ok = True
    for n in (2**6, 2**7, 2**8, 2**9, 2**10):
        sched = regime_parameters("crit_half", n, -0.5)
        phi, t = build_two_block_data(sched), sched.T_N
        xi1 = xi_term(phi, 1, t)
        approx = nl.enlarge_band(phi, xi1.bandwidth).coeffs + xi1.coeffs
        w = ode_exact_evolve(phi, t, out_bandwidth=xi1.bandwidth).field
        err = float(np.max(np.abs(w.coeffs - approx)))
        budget = wiener_error_budget(phi, t, n)
        ok &= err <= budget
        quotients.append(err / budget)
    spread = max(quotients) / min(quotients)
    ok &= spread <= 4.0
    _report(9, ok, "error/budget " + ", ".join(f"{q:.4f}" for q in quotients)
            + f"; all <= 1, spread {spread:.3f} (limit 4)")


def test_criterion_10_small_dispersion_error_scaling():
    t0 = time.perf_counter()
    cfg = ApproxConfig(profile="bump", sweep=(0.025, 0.05, 0.1, 0.2))
    rep = run_approximation(cfg)
    slope = rep.metadata["fitted_slope"]
    spread = rep.metadata["period_spread"]
    wall = time.perf_counter() - t0
    ok = slope >= 1.5 and spread <= 2.0 and wall < 120.0
    _report(10, ok, f"fitted slope {slope:.4f} (>= 1.5), period spread "
            f"{spread:.6f} (<= 2), {wall:.1f}s (limit 120s)")


def test_criterion_11_profile_algebra():
    a_star = solve_psi4_parameter()
    closed = (-1.0 + math.sqrt(153.0)) / 2.0
    gap_a = abs(a_star - closed)
    psi4 = appendix_profile("psi4")
    moments = [abs(psi4.integral_moment(j)) for j in range(4)]
    phase = phase_integral(appendix_profile("psi1"), 1.0)
    gap_phase = abs(abs(phase) - 4.0 * math.sqrt(math.pi))
    moll_ok = True
    moll_phases = []
    for eps in (0.05, 0.025):
        moll4 = mollify(psi4, eps)
        moll_ok &= moment_vanishing(moll4, 4).max_moment <= 1e-10
        p = abs(phase_integral(appendix_profile("mollified", eps=eps), 1.0))
        moll_phases.append(p)
        moll_ok &= p >= 2.0 * math.sqrt(math.pi)
    ok = gap_a <= 1e-10 and max(moments) <= 1e-12 and gap_phase <= 1e-10 and moll_ok
    _report(11, ok, f"a* gap {gap_a:.1e} (tol 1e-10); moments j<4 max "
            f"{max(moments):.2e} (tol 1e-12); phase gap {gap_phase:.1e} (tol 1e-10); "
            "mollified phases " + ", ".join(f"{p:.3f}" for p in moll_phases)
            + f" >= {2 * math.sqrt(math.pi):.3f}")


def test_criterion_12_periodization_error_decreases():
    stated = PeriodizeConfig(profile="mollified", eps=0.1,
                             sweep=(8.0, 16.0, 32.0, 64.0), s_list=(-1.0, -0.5, 0.0, 1.0))
    refusal = None
    try:
        run_periodization(stated)
    except ValueError as exc:
        refusal = str(exc)
    admissible = PeriodizeConfig(profile="mollified", eps=0.1,
                                 sweep=(16.0, 32.0, 64.0), s_list=(-1.0, -0.5, 0.0, 1.0))
    rows = run_periodization(admissible).rows
    notes = []
    all_decreasing = True
    for i, s in enumerate(admissible.s_list):
        errs = [r.constant for r in rows[3 * i : 3 * i + 3]]
        dec = all(a > b for a, b in zip(errs, errs[1:]))
        all_decreasing &= dec
        notes.append(f"s={s:g}: {errs[0]:.3e}->{errs[-1]:.3e} dec={dec}")
    ok = refusal is None and all_decreasing
    prefix = (f"stated sweep refused at L=8 ({refusal}); " if refusal
              else "stated sweep ran; ")
    _report(12, ok, prefix + "; ".join(notes))


def test_criterion_13_discrepancy_count_tracks_the_reference():
    rows = run_gamma(GammaConfig(sweep=(1.0, 2.0, 3.0, 4.0), amplitude=1.0, eps=0.1,
                                 band_per_period=8.0)).rows
    counts = [int(r.ratio) for r in rows]
    quotients = [r.constant for r in rows]
    spread = max(quotients) / min(quotients)
    ok = all(c > 0 for c in counts) and spread <= 4.0
    _report(13, ok, f"counts {counts}, count/(L d^2) "
            + ", ".join(f"{q:.2f}" for q in quotients)
            + f"; spread {spread:.3f} (limit 4)")


def test_criterion_14_feasibility_obstruction_and_window():
    cfg = FeasibilityConfig()
    blocked = feasibility_scan(cfg)
    none_found = all(int(r.param) == 0 for r in blocked.rows)
    margins_small = all(r.constant < nl.lab.FEASIBILITY_MARGIN for r in blocked.rows)
    open_scan = feasibility_scan(FeasibilityConfig(s=-0.75))
    all_found = all(int(r.param) > 0 for r in open_scan.rows)
    # hand-built reference point at N = 2^48: R = N^(1/4), A = N/8, T = 2^-123
    n, s, alpha = 2.0**48, -0.75, 0.375
    r_, a_, t_ = n**0.25, n / 8.0, 2.0**-123
    q = (1.0 / (r_ * math.sqrt(a_) * n**s), 1.0 / (t_ * r_**2 * a_**2),
         t_ * r_**3 * a_**2 * f_factor(a_, s), n ** (-2.0 * alpha) / t_)
    hand_ok = min(q) > 1.0
    best48 = open_scan.rows[-1].constant
    consistent = best48 >= min(q)
    ok = none_found and margins_small and all_found and hand_ok and consistent
    _report(14, ok, f"s=-1/4: counts all 0, best margin {blocked.rows[-1].constant:.2f} < 10; "
            f"s=-3/4: counts {[int(r.param) for r in open_scan.rows]}, "
            f"reference-point margins min {min(q):.3f} > 1, scan best {best48:.0f}")


def test_criterion_15_reports_are_byte_deterministic():
    def once(threads: int) -> tuple[str, str]:
        cfg = GammaConfig(sweep=(1.0, 2.0), amplitude=1.0, eps=0.1, band_per_period=8.0,
                          seed=42, threads=threads)
        rep = run_gamma(cfg)
        return report_to_csv(rep), report_to_json(rep)

    c1, j1 = once(1)
    c2, j2 = once(1)
    rerun_same = (c1, j1) == (c2, j2)
    # parallelism set in the config shows up only in the JSON config echo;
    # the tabular CSV must not move at all
    c4, _ = once(4)
    csv_same = c1 == c4
    header_ok = c1.splitlines()[0] == ",".join(nl.CSV_COLUMNS)
    ok = rerun_same and csv_same and header_ok
    _report(15, ok, f"rerun identical: {rerun_same}; csv stable under config threads 1->4: "
            f"{csv_same}; header: {header_ok}")
