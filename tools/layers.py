"""Time nlslab's primitives at the sizes its reports run them.

    PYTHONPATH=src python3 tools/layers.py [--out layers.json] [--repeats 15] [--tiny]

Each case runs once untimed, then --repeats times; its entry holds the
median and the interquartile range of those calls in seconds, unscaled.
The cases:

- `mollifier_transform` on the largest lattice of the `periodize`,
  `approx` and `gamma` defaults, read from the unit bump's transform
  table;
- `bump_table`: the build of that table (`profiles._transform_table`),
  its cache cleared before each call: what one cold CLI run pays once;
- one forward + inverse transform pair on FFT_PAIR_GRIDS points, by
  numpy's 1-D FFT and by a four-step `torus.GridPlan` built whatever the
  crossover `torus.FOUR_STEP_POINTS` (the `P` of each entry is its
  layout's row count); the crossover is set from this case;
- split-step per row and step, one row and stacked 2, 4 and 8 rows, on
  1 029 (`approx`), 7 546, 30 184, 60 000 and 120 000 points (`inflate`'s
  split-step grids from N = 256 to 4096 at `crit_half`), from calls of
  STACK_STEPS steps, so an eighth of a call's setup is in each step;
- one Lawson RK4 step, `synthesize`/`analyze` and `_cubic_coeffs` on the
  same bands;
- the closed form `ode_exact_evolve` on 17 640 and 330 750 points;
- `ode_exact_two_block`: the closed form as `inflate` runs it on
  `negative_s` two-block data (s = -1/4, surrogate circle L = 32, out band
  5M) at N = 256 and 1024, on 330 000 and 1 317 120 points, where the
  data's few modes leave most layout rows of the grid empty;
- `picard_expansion` at the `crit_half` point N = 256, in the paper's
  convention (`EquationSpec.paper`), as `inflate` runs it;
- `split_step_ladder`: `inflate`'s whole split-step driver
  (`lab._split_step_on_tolerance`) at the `crit_half` and `frac_crit`
  points N = 256, its entry with the steps, estimate and observed order
  the ladder stopped at;
- `approx_ladder`: `approx`'s H^1 errors at t = 1 for its four default
  deltas, one split-step stack on the 1 029-point grid, closed form and
  norms included, on the Strang ladder (`lab._approx_errors`, its entry
  with the steps each row settled at);
- `gamma_ladder`: `gamma`'s point j = 4 at its defaults, on 5 760
  points, closed form, plateau and counts included, on the Strang ladder
  (`lab._gamma_point`, its entry with the steps it settled at and its
  count margin; `--tiny`: j = 1, period 98, on 1 575 points);
- `unit_phase`: the two callers of `evolution._unit_phase` that run
  per step or node, `_rotate_in_place` on the split-step grids of
  7 546, 30 184 and 120 000 points and on one 65 536-point chunk
  of the closed form's 330 750-point grid, and `_turned_cubic` on
  Picard's output band at that `crit_half` point;
- `sobolev_norm` on the 120 000-point band, and `line_sobolev_norm` of
  the `periodize` default profile at its four orders (`psi1`, whose
  transform is closed-form, with `--tiny`).

The JSON written holds the machine, the Python and numpy versions, the
git commit of the checkout and whether its files differ from it, and one
entry per case.  `--tiny` runs every
case at a few dozen points, to check that the script still runs; its
timings mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from nlslab import constructions as cons
from nlslab import evolution as evo
from nlslab import lab
from nlslab import profiles as prof
from nlslab import torus

ROOT = Path(__file__).resolve().parents[1]

# inflate's split-step grids 7 546 .. 120 000 and the closed form's
# 279 936 (crit_half N = 4096) and 1 317 120 (negative_s N = 1024)
FFT_PAIR_GRIDS = (7546, 15092, 30184, 120000, 279936, 1317120)
# split-step bands whose grids, split_grid_size(M), are the 1 029, 7 546,
# 30 184, 60 000 and 120 000 points named above
SPLIT_BANDS = (256, 1886, 7545, 14999, 29999)
STACK_ROWS = (1, 2, 4, 8)
STACK_STEPS = 8
# closed-form bands, on ode_grid_size(M, M) = 8 (2M + 1) rounded up to a
# fast length: 17 640 and 330 750 points
ODE_BANDS = (1100, 20625)
# negative_s points of the closed form on two-block data (inflate-sweep's
# s and surrogate period; out band 5M, the k = 2 inflate keeps there)
TWO_BLOCK_NS = (256, 1024)
TWO_BLOCK_S, TWO_BLOCK_PERIOD = -0.25, 32.0
PICARD_N = 256
# bands whose split-step grids are the 7 546, 30 184 and 120 000 points
# the rotation runs on
ROTATE_BANDS = (1886, 7545, 29999)


def _stats(times: list[float]) -> dict:
    q1, med, q3 = np.percentile(times, [25.0, 50.0, 75.0])
    return {"median_s": float(med), "iqr_s": float(q3 - q1), "repeats": len(times)}


def _time(fn, repeats: int, before=None) -> dict:
    """fn timed, with before (untimed) ahead of each call."""
    fn()
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _stats(times)


def _rotation(u: np.ndarray, t: float, repeats: int) -> dict:
    """_rotate_in_place of u by t, in place and again on each call: the
    rotation keeps |u|, so every call turns by the same angles."""
    theta, phase = np.empty(u.shape), np.empty(u.shape, dtype=complex)
    return _time(lambda: evo._rotate_in_place(u, t, None, theta, phase), repeats)


def _four_step_plan(g: int) -> torus.GridPlan:
    """A GridPlan of g points that factors g whatever the crossover."""
    crossover = torus.FOUR_STEP_POINTS
    torus.FOUR_STEP_POINTS = 0
    try:
        return torus.GridPlan(g)
    finally:
        torus.FOUR_STEP_POINTS = crossover


def _field(bandwidth: int) -> torus.SpectralField:
    """Band-M data of unit coefficients' size, decaying like 1/(1 + |n|)."""
    n = np.arange(-bandwidth, bandwidth + 1)
    phase = np.exp(2j * np.pi * (n * n % 97) / 97.0)
    return torus.SpectralField(1.0, phase / (1.0 + np.abs(n)))


def _transform_lattices(tiny: bool) -> dict[str, np.ndarray]:
    """The mollifier_transform argument of each default config's largest
    periodize call: scale * n / L for |n| <= band."""
    if tiny:
        return {"tiny": np.arange(-16, 17) / 8.0}
    approx, period, gamma = lab.ApproxConfig(), lab.PeriodizeConfig(), lab.GammaConfig()
    L_gamma = gamma.delta_and_period(int(gamma.sweep[-1]))[1]
    cases = {"periodize": (period.eps, period.sweep[-1], period.band_per_period),
             "approx": (approx.width, approx.periods[-1], approx.band_per_period),
             "gamma": (gamma.eps, L_gamma, gamma.band_per_period)}
    out = {}
    for name, (scale, L, per_period) in cases.items():
        band = int(np.ceil(per_period * L))
        out[name] = scale * np.arange(-band, band + 1) / L
    return out


def run(repeats: int, tiny: bool) -> list[dict]:
    entries = []

    def add(name: str, size: dict, stats: dict):
        entries.append({"name": name, **size, **stats})
        print(f"{name:24s} {json.dumps(size):40s} median {stats['median_s'] * 1e3:9.3f} ms "
              f"iqr {stats['iqr_s'] * 1e3:8.3f} ms", file=sys.stderr)

    for name, zeta in _transform_lattices(tiny).items():
        add("mollifier_transform", {"lattice": name, "points": int(zeta.size)},
            _time(lambda: prof.mollifier_transform(zeta), repeats))
    table = prof._transform_table("bump")
    add("bump_table", {"pieces": table.shape[0], "points": table.size,
                       "nodes": prof._transform_rule(400)[0].size},
        _time(lambda: prof._transform_table("bump"), repeats, prof._transform_table.cache_clear))

    for g in (48, 60) if tiny else FFT_PAIR_GRIDS:
        u = np.exp(2j * np.pi * (np.arange(g) ** 2 % 97) / 97.0)
        b = np.empty(g, dtype=complex)
        four_step = _four_step_plan(g)
        a = np.empty(four_step.shape, dtype=complex)

        def numpy_pair():  # in place, as the plan runs
            b[:] = u
            np.fft.ifft(np.fft.fft(b, norm="forward", out=b), norm="forward", out=b)

        def plan_pair():
            a.reshape(g)[:] = u
            four_step.inverse(four_step.forward(a))

        for method, fn, rows in (("numpy_1d", numpy_pair, 1), ("four_step", plan_pair,
                                                              four_step.shape[0])):
            add("fft_pair", {"grid_points": g, "method": method, "P": rows}, _time(fn, repeats))

    eq = evo.EquationSpec.small_dispersion(0.1)
    for band in (8, 16) if tiny else SPLIT_BANDS:
        phi = _field(band)
        g = evo.split_grid_size(band)
        size = {"band": band, "grid_points": g}
        for rows in STACK_ROWS:
            eqs = [evo.EquationSpec.small_dispersion(0.1 * (k + 1)) for k in range(rows)]
            rates = np.stack([evo.free_rotation_rates(phi, eq) for eq in eqs])
            stats = _time(lambda: evo._strang_rows(phi, eqs, rates, 1e-3, STACK_STEPS, g), repeats)
            per_step = {k: v / (rows * STACK_STEPS) if k != "repeats" else v
                        for k, v in stats.items()}
            add("split_step_per_row_step", {**size, "rows": rows, "steps": STACK_STEPS}, per_step)
        cfg = evo.StepperConfig(dt=1e-3)
        add("rk4_step", size, _time(lambda: evo.rk4_spectral_evolve(phi, eq, 1e-3, cfg), repeats))
        add("synthesize", size, _time(lambda: torus.synthesize(phi, g), repeats))
        u = torus.synthesize(phi, g)
        add("analyze", size, _time(lambda: torus.analyze(u, 1.0, band), repeats))
        add("cubic_coeffs", size, _time(lambda: torus._cubic_coeffs(phi.coeffs), repeats))
    add("sobolev_norm", {"band": band}, _time(lambda: torus.sobolev_norm(phi, -0.5), repeats))

    for band in (8,) if tiny else ODE_BANDS:
        phi = _field(band)
        add("ode_exact_evolve", {"band": band, "grid_points": evo.ode_grid_size(band, band)},
            _time(lambda: evo.ode_exact_evolve(phi, 0.5), repeats))

    for N, L in ((16, 1.0),) if tiny else ((N, TWO_BLOCK_PERIOD) for N in TWO_BLOCK_NS):
        sched = cons.regime_parameters("negative_s", N, TWO_BLOCK_S)
        phi = cons.build_two_block_data(sched, L)
        out_band = 5 * phi.bandwidth
        add("ode_exact_two_block", {"regime": "negative_s", "N": N, "band": phi.bandwidth,
                                    "out_band": out_band,
                                    "grid_points": evo.ode_grid_size(phi.bandwidth, out_band)},
            _time(lambda: evo.ode_exact_evolve(phi, sched.T_N, out_bandwidth=out_band), repeats))

    N = 16 if tiny else PICARD_N
    sched = cons.regime_parameters("crit_half", N, -0.5)
    phi = cons.build_two_block_data(sched, 1.0)
    paper = evo.EquationSpec.paper()  # the equation inflate evolves
    work = evo.picard_work(phi, paper, sched.T_N)
    add("picard_expansion", {"regime": "crit_half", "N": N, "nodes": work.nodes,
                             "grid_points": work.grid_points},
        _time(lambda: evo.picard_expansion(phi, paper, sched.T_N), repeats))

    for regime, s, theta in (("crit_half", -0.5, None), ("frac_crit", -1.0, 0.1)):
        point = cons.regime_parameters(regime, N, s, theta)
        data = cons.build_two_block_data(point, 1.0)
        run = lab._split_step_on_tolerance(data, paper, point.T_N, N)
        add("split_step_ladder", {"regime": regime, "N": N, "steps": run.steps,
                                  "estimate": run.estimate, "order": run.order},
            _time(lambda: lab._split_step_on_tolerance(data, paper, point.T_N, N), repeats))

    approx = lab.ApproxConfig(band_per_period=0.5 if tiny else 8.0)
    # not phi, which _turned_cubic below runs on
    field = lab._periodize(lab._approx_profile(approx), approx.periods[0], approx.band_per_period)
    log = []
    lab._approx_errors(field, approx.sweep, 1.0, log)
    add("approx_ladder", {"rows": len(approx.sweep), "grid_points":
                          evo.split_grid_size(field.bandwidth), "t": 1.0,
                          "steps": [e["steps"] for e in log]},
        _time(lambda: lab._approx_errors(field, approx.sweep, 1.0), repeats))

    gamma = lab.GammaConfig()
    j = 1 if tiny else int(gamma.sweep[-1])
    _, entry = lab._gamma_point(gamma, j)
    profile = prof.centered_two_step(gamma.amplitude, gamma.eps)
    band = lab._periodize(profile, entry["period"], gamma.band_per_period).bandwidth
    add("gamma_ladder", {"j": j, "period": entry["period"], "grid_points":
                         evo.split_grid_size(band), "steps": entry["steps"],
                         "margin": entry["margin"]},
        _time(lambda: lab._gamma_point(gamma, j), repeats))

    for band in (8,) if tiny else ROTATE_BANDS:
        u = torus.synthesize(_field(band), evo.split_grid_size(band))
        add("unit_phase", {"caller": "_rotate_in_place", "grid": "split_step",
                           "grid_points": u.size}, _rotation(u, 1e-3, repeats))
    band = 8 if tiny else ODE_BANDS[-1]
    u = torus.synthesize(_field(band), evo.ode_grid_size(band, band))[: evo._ROTATE_CHUNK]
    add("unit_phase", {"caller": "_rotate_in_place", "grid": "closed_form_chunk",
                       "grid_points": u.size}, _rotation(u, 0.5, repeats))
    wide = torus.enlarge_band(phi, work.out_band)
    rates = evo.free_rotation_rates(wide, paper)
    add("unit_phase", {"caller": "_turned_cubic", "regime": "crit_half", "N": N,
                       "band": work.out_band, "grid_points": work.grid_points},
        _time(lambda: evo._turned_cubic(wide.coeffs, rates, 0.5 * sched.T_N, False), repeats))

    period = lab.PeriodizeConfig(profile="psi1" if tiny else "two_step")
    profile = lab._approx_profile(period)
    add("line_sobolev_norm", {"profile": period.profile, "orders": len(period.s_list)},
        _time(lambda: lab.line_sobolev_norm(profile, period.s_list), repeats))
    return entries


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="JSON path; standard output without it")
    ap.add_argument("--repeats", type=int, default=15, help="timed calls per case (default 15)")
    ap.add_argument("--tiny", action="store_true", help="every case at a few dozen points")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    result = {
        "machine": {"cpu": _cpu(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if (status := _git("status", "--porcelain")) is None else bool(status),
        "tiny": args.tiny,
        "timings": run(args.repeats, args.tiny),
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
