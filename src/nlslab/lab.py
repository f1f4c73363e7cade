"""Experiment runners and reporting.

Five experiments: 'inflate' (norm growth of two-block data), 'approx'
(small-dispersion error scaling), 'periodize' (circle norms vs line
norms), 'gamma' (discrepancy-mode counting along a dilation schedule),
and 'feasibility' (parameter-space scan).  Each returns an
InflationReport whose rows serialize to CSV with a fixed column order,
or to JSON with the full metadata.  Reports are deterministic: the same
config and seed produce identical bytes regardless of thread count.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, asdict
from typing import NamedTuple

import numpy as np

from . import constructions as cons
from . import evolution as evo
from . import profiles as prof
from . import torus

VERSION = "nlslab-0.1.0"

THREADS_ENV_VAR = "NLSLAB_THREADS"

CSV_COLUMNS = (
    "experiment",
    "regime",
    "s",
    "alpha",
    "N_or_j",
    "param",
    "norm_t0",
    "norm_T",
    "ratio",
    "reference",
    "constant",
    "tail_mass",
    "method_disagreement",
    "wall_ms",
)


METHODS = ("ode", "split_step", "picard")


class MethodDisagreementError(RuntimeError):
    """Evolution methods disagreed beyond their stated error budget."""


class TailTargetError(RuntimeError):
    """No allowed out band brings the closed form's tail under its target."""


class StepTargetError(RuntimeError):
    """No allowed split-step count brings the halving estimate under its tolerance."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed configuration for one experiment run.

    `sweep` holds the swept values: N for 'inflate', delta for 'approx',
    the period L for 'periodize', the schedule index j for 'gamma'.  The
    'feasibility' experiment sweeps `N_list` instead.

    The field annotations are the config schema: the command line derives
    its INI keys and their parsers from them.
    """

    experiment: str
    regime: str = "crit_half"
    s: float = -0.5
    alpha: float = 1.0
    theta: float | None = None
    sweep: tuple[float, ...] = ()
    # split-step count: 'approx' and 'gamma' run exactly this many; for
    # 'inflate' it is the largest count the step doubling may reach
    dt_steps: int = 200
    output_path: str | None = None
    fmt: str = "csv"
    seed: int = 0
    threads: int = 1
    timing: bool = False
    # experiment-specific knobs
    methods: tuple[str, ...] = METHODS
    picard_budget: int = evo.PICARD_BUDGET
    surrogate_period: float = 32.0
    profile: str = "bump"
    amplitude: float = 1.0
    width: float = 2.0
    eps: float = 0.1
    time_horizon: float = 1.0
    periods: tuple[float, ...] = (32.0, 64.0, 128.0)
    s_list: tuple[float, ...] = (-1.0, -0.5, 0.0, 1.0)
    band_per_period: float = 8.0
    c_fraction: float = 0.5
    base_delta: float = 0.16
    delta_decay: float = 0.8408964152537145  # 2**(-1/4)
    grid_points: int = 50
    margin: float = 10.0
    N_list: tuple[int, ...] = (2**16, 2**24, 2**32, 2**40, 2**48)

    def __post_init__(self):
        if self.experiment not in RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.regime not in cons.REGIMES:  # every report row echoes it
            raise ValueError(f"unknown regime {self.regime!r}; expected one of "
                             f"{', '.join(cons.REGIMES)}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            bad = [v for v in (value if isinstance(value, tuple) else (value,))
                   if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise ValueError(f"{f.name} must be finite, got {bad[0]!r}")
        if self.experiment != "feasibility":
            if len(self.sweep) == 0:
                raise ValueError("sweep must be nonempty")
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValueError("sweep must be strictly increasing")
        if self.experiment in ("inflate", "gamma"):  # sweeps N and j
            bad = [v for v in self.sweep if not float(v).is_integer()]
            if bad:
                raise ValueError(f"{self.experiment} sweep values must be integers, got {bad[0]!r}")
        if not self.methods or not set(self.methods) <= set(METHODS):
            raise ValueError(f"methods must be a nonempty subset of {', '.join(METHODS)}; "
                             f"got {', '.join(self.methods) or 'none'}")
        for key in ("periods", "s_list", "N_list"):
            if len(getattr(self, key)) == 0:
                raise ValueError(f"{key} must be nonempty")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {self.seed!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"fmt must be csv or json, got {self.fmt!r}")
        if self.dt_steps < 1:
            raise ValueError("dt_steps must be >= 1")
        if not 0.0 < self.c_fraction <= 1.0:
            raise ValueError("c_fraction must lie in (0, 1]")
        if self.picard_budget < 0:
            raise ValueError("picard_budget must be >= 0")
        for key in ("time_horizon", "band_per_period", "base_delta", "delta_decay"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)!r}")
        # sweeps are increasing, so sweep[0] is the smallest value
        if self.experiment == "inflate" and self.sweep[0] < cons.MIN_BLOCK_N:
            raise ValueError(f"inflate sweep values must be >= {cons.MIN_BLOCK_N} (the smallest N "
                             f"of the two-block schedules), got {self.sweep[0]!r}")
        if self.experiment == "approx" and not self.sweep[0] > 0.0:
            raise ValueError(f"approx sweep values must be > 0, got {self.sweep[0]!r}")
        # _approx_error evolves the alpha = 1 equation, whose error rate is delta^(3/2)
        if self.experiment == "approx" and self.alpha != 1.0:
            raise ValueError(f"approx requires alpha = 1, got {self.alpha!r}")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    regime: str
    s: float
    alpha: float
    N_or_j: float
    param: float
    norm_t0: float | None = None
    norm_T: float | None = None
    ratio: float | None = None
    reference: float | None = None
    constant: float | None = None
    tail_mass: float | None = None
    method_disagreement: float | None = None
    wall_ms: float = 0.0


@dataclass
class InflationReport:
    rows: list
    metadata: dict = dc_field(default_factory=dict)


def resolve_threads(cfg: ExperimentConfig) -> int:
    """Worker count: the NLSLAB_THREADS environment variable overrides
    the config value.  Thread count never changes report content."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return cfg.threads
    try:
        k = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if k < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {k}")
    return k


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return format(float(v), ".12g")


def _plain(obj):
    """Recursively convert to JSON-serializable builtin types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def report_to_csv(report: InflationReport) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.rows:
        d = asdict(row)
        buf.write(",".join(_fmt_cell(d[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def report_to_json(report: InflationReport) -> str:
    payload = _plain({"metadata": report.metadata, "rows": [asdict(r) for r in report.rows]})
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(report: InflationReport, fmt: str, path: str) -> str:
    """Write the report; returns the path.  Byte-stable for fixed config."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc
    return path


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Field values by name, with tuple fields as lists (JSON arrays)."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of config_to_dict: list values become tuples again."""
    return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _metadata(cfg: ExperimentConfig) -> dict:
    return {"version": VERSION, "seed": cfg.seed, "config": config_to_dict(cfg)}


# ---------------------------------------------------------------------------
# inflate

def wiener_error_budget(phi: torus.SpectralField, T: float, N: int) -> float:
    """Size budget for the gap between the exact flow and its first-order
    expansion: the second-iterate term T^2 N^2 ||phi||_1^2 ||phi||_inf plus
    the generation-k terms T^k ||phi||_1^(2k) ||phi||_inf for k = 2..4."""
    w1 = torus.fourier_lebesgue_norm(phi, 0.0, 1.0)
    winf = torus.fourier_lebesgue_norm(phi, 0.0, np.inf)
    total = T**2 * N**2 * w1**2 * winf
    for k in range(2, 5):
        total += T**k * w1 ** (2 * k) * winf
    return total


def _fl_inf_distance(a: torus.SpectralField, b: torus.SpectralField) -> float:
    m = max(a.bandwidth, b.bandwidth)
    diff = torus.enlarge_band(a, m).coeffs - torus.enlarge_band(b, m).coeffs
    return float(np.max(np.abs(diff)))


# The closed form keeps the out band (2k+1) n_max for the first k in
# ODE_K_RANGE whose dropped tail is at most ODE_TAIL_REL of the data's L^2
# mass.  k = 1 leaves 1e-13..1e-7 of it in every regime.  The grid is at
# least twice the out band, so the modes that alias back into the band
# carry no more than the measured tail.
ODE_TAIL_REL = 1e-20
ODE_K_RANGE = range(2, 9)


def _closed_form_on_tail_target(phi: torus.SpectralField, T: float,
                                N: int) -> tuple[int, evo.EvolveResult]:
    """(k, closed form at T on the out band (2k+1) n_max) for the first k
    that meets the tail target; refuses if none does."""
    mass = torus.mean_and_l2(phi)[1] * phi.period
    for k in ODE_K_RANGE:
        ode = evo.ode_exact_evolve(phi, T, out_bandwidth=(2 * k + 1) * phi.bandwidth)
        if ode.tail_mass <= ODE_TAIL_REL * mass:
            return k, ode
    raise TailTargetError(
        f"closed form at N={N} keeps a tail of {ode.tail_mass:.3e} at out band "
        f"(2*{k}+1)*{phi.bandwidth}, above {ODE_TAIL_REL:g} of the data mass {mass:.6g}")


# Split-step runs Strang at n and 2n steps, n = dt_steps // 8 doubling while
# 2n <= dt_steps, and stops at the first pair whose halving estimate
# ||u_2n - u_n||_FLinf / 3 of u_2n's error is at most SPLIT_STEP_REL of
# ||phi||_FLinf.  Strang is symmetric, so its error runs in even powers of
# dt and the Richardson value (4 u_2n - u_n) / 3 cancels the dt^2 term.
SPLIT_STEP_REL = 1e-3


def _split_step_on_tolerance(phi: torus.SpectralField, eq: evo.EquationSpec, T: float,
                             N: int, cfg: ExperimentConfig) -> tuple[int, float, torus.SpectralField]:
    """(2n, halving estimate over ||phi||_FLinf, Richardson value at T) for
    the first step pair that meets SPLIT_STEP_REL; refuses if none does.
    Split-step runs on the band 3 n_max, and each run's 2n-step field is
    the next pair's n-step one."""
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    scale = torus.fourier_lebesgue_norm(phi, 0.0, np.inf)

    def strang(steps: int) -> torus.SpectralField:
        return evo.split_step_evolve(wide, eq, T, evo.StepperConfig(dt=T / steps))

    n = max(1, cfg.dt_steps // 8)
    coarse = None
    while 2 * n <= cfg.dt_steps:
        if coarse is None:
            coarse = strang(n)
        fine = strang(2 * n)
        estimate = float(np.max(np.abs(fine.coeffs - coarse.coeffs))) / (3.0 * scale)
        if estimate <= SPLIT_STEP_REL:
            return 2 * n, estimate, fine.with_coeffs((4.0 * fine.coeffs - coarse.coeffs) / 3.0)
        coarse, n = fine, 2 * n
    tried = (f"at {n} steps, the largest count dt_steps = {cfg.dt_steps} allows, the estimate "
             f"is {estimate:.3e}"
             if coarse is not None else f"dt_steps = {cfg.dt_steps} allows no step pair (n, 2n)")
    raise StepTargetError(f"split-step at N={N} misses the halving tolerance "
                          f"{SPLIT_STEP_REL:g} of ||phi||_FLinf: {tried}")


def _inflate_point(cfg: ExperimentConfig, N: int) -> tuple[ReportRow, dict]:
    s, theta = cfg.s, cfg.theta
    eq = evo.EquationSpec(alpha=cfg.alpha)
    scenario = cons.InflationScenario(regime=cfg.regime, s=s, N=N, theta=theta)
    sched = cons.regime_parameters(scenario)
    T = sched.T_N
    norm_spec = torus.NormSpec(s=s)

    if cfg.regime == "negative_s":
        line = cons.build_two_block_data(cfg.regime, N, s=s, theta=theta)
        phi = line.periodize(cfg.surrogate_period)
        methods = ("ode",)
    else:
        phi = cons.build_two_block_data(cfg.regime, N, s=s, theta=theta)
        methods = tuple(cfg.methods)

    n_max = phi.bandwidth
    norm0 = torus.sobolev_norm(phi, norm_spec)
    if norm0 == 0.0:
        row = ReportRow(cfg.experiment, cfg.regime, s, cfg.alpha, N, N,
                        0.0, 0.0, None, sched.predicted_lower_bound, None, 0.0, None)
        return row, {}

    results: dict[str, torus.SpectralField] = {}
    skipped: list[str] = []
    aux = {}
    tail = 0.0
    if "ode" in methods:
        k, ode = _closed_form_on_tail_target(phi, T, N)
        results["ode"] = ode.field
        tail = ode.tail_mass
        out_band = ode.field.bandwidth
        aux.update(ode_k=k, ode_out_bandwidth=out_band,
                   ode_grid_points=evo.ode_grid_size(n_max, out_band))
    if "split_step" in methods:
        steps, estimate, u = _split_step_on_tolerance(phi, eq, T, N, cfg)
        results["split_step"] = evo.interaction_picture(u, eq, T)
        aux.update(split_steps=steps, split_estimate=estimate)
    if "picard" in methods:
        try:
            results["picard"] = evo.picard_expansion(phi, eq, T, budget=cfg.picard_budget)
        except torus.BudgetExceededError:
            skipped.append("picard")

    budget = wiener_error_budget(phi, T, N)
    disagreement = None
    names = sorted(results)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            d = _fl_inf_distance(results[a], results[b])
            disagreement = d if disagreement is None else max(disagreement, d)
            if d > 10.0 * budget:
                raise MethodDisagreementError(
                    f"{a} vs {b} differ by {d:.3e} > 10x budget {budget:.3e} at N={N}")

    w = results.get("ode") or results[names[0]]
    normT = torus.sobolev_norm(w, norm_spec)
    cutoff = int(round(N * phi.period))
    norm_low = torus.sobolev_norm(torus.project_below(w, cutoff), norm_spec)
    ref = sched.predicted_lower_bound
    row = ReportRow(
        cfg.experiment, cfg.regime, s, cfg.alpha, N, N,
        norm0, normT, normT / norm0, ref,
        normT / ref if ref else None, tail, disagreement)
    aux.update(projected_norm=norm_low, T=T, skipped=skipped)
    return row, aux


def run_inflation(cfg: ExperimentConfig) -> InflationReport:
    """Norm-growth sweep for two-block spectral data."""
    pairs = _map_ordered(lambda N: _inflate_point(cfg, int(N)),
                         list(cfg.sweep), resolve_threads(cfg))
    rows = [p[0] for p in pairs]
    meta = _metadata(cfg)
    meta["per_N"] = {str(int(N)): p[1] for N, p in zip(cfg.sweep, pairs)}
    return InflationReport(rows, meta)


# ---------------------------------------------------------------------------
# approx

def _approx_profile(cfg: ExperimentConfig) -> prof.CompactProfile:
    if cfg.profile == "bump":
        return prof.smooth_bump(cfg.amplitude, cfg.width)
    if cfg.profile == "two_step":
        return prof.centered_two_step(cfg.amplitude, cfg.eps)
    return prof.appendix_profile(cfg.profile, eps=cfg.eps)


def _approx_error(profile, delta: float, L: float, t: float, band: int,
                  steps: int) -> tuple[float, float]:
    """H^1(T_L) distance at time t between the small-dispersion flow and
    the exact dispersionless flow; also the latter's spectral tail mass."""
    phi = torus.periodize(profile, L, band)
    eq = evo.EquationSpec.small_dispersion(delta)
    v = evo.split_step_evolve(phi, eq, t, evo.StepperConfig(dt=t / steps))
    w = evo.ode_exact_evolve(phi, t)
    diff = v.with_coeffs(v.coeffs - w.field.coeffs)
    return torus.sobolev_norm(diff, torus.NormSpec(s=1.0)), w.tail_mass


def run_approximation(cfg: ExperimentConfig) -> InflationReport:
    """Small-dispersion vs dispersionless error scaling."""
    profile = _approx_profile(cfg)
    L0 = cfg.periods[0]
    band0 = math.ceil(cfg.band_per_period * L0)
    t_half, t_full = cfg.time_horizon / 2.0, cfg.time_horizon

    def point(delta: float) -> ReportRow:
        e_half, _ = _approx_error(profile, delta, L0, t_half, band0, cfg.dt_steps)
        e_full, tail = _approx_error(profile, delta, L0, t_full, band0, cfg.dt_steps)
        ref = delta**1.5
        return ReportRow(
            cfg.experiment, cfg.regime, cfg.s, cfg.alpha, 0, delta,
            e_half, e_full, e_full / e_half if e_half else None,
            ref, e_full / ref, tail, None)

    rows = _map_ordered(point, list(cfg.sweep), resolve_threads(cfg))
    report = InflationReport(rows, _metadata(cfg))

    deltas = np.array([r.param for r in rows], dtype=float)
    errs = np.array([r.norm_T for r in rows], dtype=float)
    if deltas.size >= 2 and np.all(errs > 0.0):
        report.metadata["fitted_slope"] = float(
            np.polyfit(np.log(deltas), np.log(errs), 1)[0])

    if len(cfg.periods) > 1:
        # period-uniformity of the constant, measured once at a mid-sweep delta
        i_mid = max(0, len(cfg.sweep) - 2)
        d_mid = float(cfg.sweep[i_mid])
        errs_L = []
        for L in cfg.periods:
            b = math.ceil(cfg.band_per_period * L)
            errs_L.append(_approx_error(profile, d_mid, L, t_full, b, cfg.dt_steps)[0])
        spread = max(errs_L) / min(errs_L)
        report.metadata["period_errors"] = {format(L, ".12g"): e for L, e in zip(cfg.periods, errs_L)}
        report.metadata["period_spread"] = spread
        report.rows[i_mid] = dataclasses.replace(rows[i_mid], method_disagreement=spread)
    return report


# ---------------------------------------------------------------------------
# periodize

LINE_PANELS = 160  # panel width 0.5 on [0, 80]
LINE_CHUNK = 512  # transform points per call: bounds mollifier_transform's z x nodes array


@functools.cache
def _head_rule(beta: float, h: float):
    """64-node Gauss-Jacobi rule for the integral of xi^beta f(xi) over
    [0, h], by Golub-Welsch on the weight u^beta over [0, 1].  The nodes
    come from eigvalsh, a 64 x 64 eigenvalue problem, and the weights from
    the three-term recurrence (Christoffel numbers): taking eigenvectors
    or scipy's roots_jacobi would page in more LAPACK code, up to 0.9 MB
    of RSS."""
    k = np.arange(1.0, 64.0)
    m = 2.0 * k + beta
    diag = 0.5 + 0.5 * np.concatenate([[beta / (beta + 2.0)], beta * beta / (m * (m + 2.0))])
    off = k * (k + beta) / (m * np.sqrt((m + 1.0) * (m - 1.0)))
    u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    p_prev, p = 0.0, np.full_like(u, math.sqrt(beta + 1.0))  # orthonormal p_0
    total = p * p
    for j in range(63):
        p_prev, p = p, ((u - diag[j]) * p - (off[j - 1] if j else 0.0) * p_prev) / off[j]
        total += p * p
    return h * u, h ** (beta + 1.0) / total


def _folded_density(profile, xi):
    """|F(xi)|^2 + |F(-xi)|^2, LINE_CHUNK transform points per call."""
    out = np.empty_like(xi)
    step = LINE_CHUNK // 2
    for i in range(0, xi.size, step):
        part = xi[i:i + step]
        f = profile.fourier_transform(np.concatenate([part, -part]))
        out[i:i + step] = np.sum(np.abs(f.reshape(2, -1)) ** 2, axis=0)
    return out


def line_sobolev_norm(profile, s, homogeneous: bool = True, xi_max: float = 80.0):
    """Real-line Sobolev norm of a compactly supported profile: the square
    root of the integral of w(xi) |F[f](xi)|^2 over |xi| <= xi_max, with
    w = |xi|^(2s) (homogeneous) or (1 + xi^2)^s.

    The integrand is folded onto [0, xi_max] as w(xi) (|F(xi)|^2 +
    |F(-xi)|^2), which holds for complex profiles too, and cut into
    LINE_PANELS equal panels (width 0.5 at the default xi_max, so 0 and 1
    are panel edges).  Every panel but the first takes 64-node
    Gauss-Legendre (profiles._panel_rule).  On the first, |xi|^(2s) is
    not smooth at 0 unless 2s is an integer, so it takes 64-node
    Gauss-Jacobi (_head_rule) with the weight xi^beta built in: beta =
    2s, or 2s + 2 with the density divided by xi^2 when the profile has
    vanishing mean.  The rule matches a tight scipy quad oracle to 1e-12
    relative, fractional s included, and doubling the panels moves it by
    less than that.

    The cutoff xi_max is part of the norm: a circle norm whose band stops
    below it misses the share beyond that band, which at s >= 0 is what
    the circle/line comparison converges to.

    `s` is one order or a sequence of them; a sequence returns a list of
    norms that share one evaluation of the transform off the first panel.
    The homogeneous norm diverges at 0 for s <= -1/2 unless the profile has
    vanishing mean; that is reported as inf.  A vanishing-mean profile at
    s <= -3/2 is refused: its norm is finite only if more moments vanish,
    which the rule does not test.
    """
    orders = np.atleast_1d(np.asarray(s, dtype=float))
    h = xi_max / LINE_PANELS
    xi, weights = prof._panel_rule(h * np.arange(1, LINE_PANELS + 1), 64)
    density = weights * _folded_density(profile, xi)
    zero_mean = abs(profile.fourier_transform(0.0)) <= 1e-12
    norms = []
    for order in orders:
        beta = 0.0
        if homogeneous:
            beta = 2.0 * order + (2.0 if zero_mean else 0.0)
            if beta <= -1.0:
                if zero_mean:
                    raise ValueError(f"line norm of a zero-mean profile needs s > -3/2, got {order}")
                norms.append(math.inf)
                continue
        weight = (lambda x: x ** (2.0 * order)) if homogeneous else (lambda x: (1.0 + x * x) ** order)
        x, w = _head_rule(beta, h)
        head = w @ (weight(x) * x ** -beta * _folded_density(profile, x))
        norms.append(math.sqrt(head + weight(xi) @ density))
    return norms[0] if np.ndim(s) == 0 else norms


def run_periodization(cfg: ExperimentConfig) -> InflationReport:
    """Circle-norm convergence to real-line norms."""
    profile = _approx_profile(cfg)
    rows = []
    line_norms = line_sobolev_norm(profile, cfg.s_list, homogeneous=True)
    fields = [torus.periodize(profile, L, math.ceil(cfg.band_per_period * L)) for L in cfg.sweep]
    for s, line_norm in zip(cfg.s_list, line_norms):
        for L, f_L in zip(cfg.sweep, fields):
            circle = torus.sobolev_norm(f_L, torus.NormSpec(s=s, homogeneous=True))
            rows.append(ReportRow(
                cfg.experiment, cfg.regime, s, cfg.alpha, 0, L,
                circle, line_norm,
                circle / line_norm if line_norm not in (0.0, math.inf) else None,
                line_norm, abs(circle - line_norm), None, None))
    return InflationReport(rows, _metadata(cfg))


# ---------------------------------------------------------------------------
# gamma

class GammaCount(NamedTuple):
    count: int
    reference: float
    complement_count: int


def gamma_discrepancy(
    w_field: torus.SpectralField,
    v_field: torus.SpectralField,
    L: float,
    c_measured: float,
    C0: float,
    delta: float,
    alpha: float = 1.0,
) -> GammaCount:
    """Count the modes |n| <= C0*L whose coefficients differ by at least
    c_measured/(4L), against the reference size L*delta^(2*alpha).

    The complement count — window modes that stay close — is the set the
    surviving-mass lower bound runs over.
    """
    if abs(w_field.period - L) > 1e-9 * L or abs(v_field.period - L) > 1e-9 * L:
        raise ValueError("fields must live on the stated period")
    m = max(w_field.bandwidth, v_field.bandwidth)
    diff = np.abs(torus.enlarge_band(w_field, m).coeffs
                  - torus.enlarge_band(v_field, m).coeffs)
    n = np.arange(-m, m + 1)
    window = np.abs(n) <= C0 * L
    bad = window & (diff >= c_measured / (4.0 * L))
    return GammaCount(int(np.sum(bad)), L * delta ** (2.0 * alpha),
                      int(np.sum(window) - np.sum(bad)))


def measure_plateau(w_field: torus.SpectralField, c_fraction: float) -> tuple[float, float]:
    """(c_measured, C0) for a field whose line-scale transform peaks at
    frequency zero: C0 is the largest symmetric window on which
    L*|coeff| stays above c_fraction times its value at zero, and
    c_measured is the measured minimum over that window."""
    L = w_field.period
    m = w_field.bandwidth
    mag = L * np.abs(w_field.coeffs)
    center = float(mag[m])
    if center == 0.0:
        return 0.0, 0.0
    level = c_fraction * center
    k = 0
    while k + 1 <= m and mag[m + k + 1] >= level and mag[m - k - 1] >= level:
        k += 1
    c_measured = float(np.min(mag[m - k: m + k + 1]))
    return c_measured, k / L


def _gamma_point(cfg: ExperimentConfig, j: int) -> ReportRow:
    delta = cfg.base_delta * cfg.delta_decay ** (j - 1)
    L = float(round(delta ** (-2.5)))
    profile = prof.centered_two_step(cfg.amplitude, cfg.eps)
    band = math.ceil(cfg.band_per_period * L)
    phi = torus.periodize(profile, L, band)
    t = cfg.time_horizon
    w = evo.ode_exact_evolve(phi, t).field
    eq = evo.EquationSpec.small_dispersion(delta, cfg.alpha)
    v = evo.split_step_evolve(phi, eq, t, evo.StepperConfig(dt=t / cfg.dt_steps))
    c_measured, C0 = measure_plateau(w, cfg.c_fraction)
    g = gamma_discrepancy(w, v, L, c_measured, C0, delta, cfg.alpha)
    # ratio column carries the raw discrepancy count for this experiment
    return ReportRow(
        cfg.experiment, cfg.regime, cfg.s, cfg.alpha, j, delta,
        c_measured, C0, float(g.count), g.reference,
        g.count / g.reference if g.reference else None,
        None, float(g.complement_count))


def run_gamma(cfg: ExperimentConfig) -> InflationReport:
    """Discrepancy-mode counting along a dilation schedule."""
    rows = _map_ordered(lambda j: _gamma_point(cfg, int(j)),
                        list(cfg.sweep), resolve_threads(cfg))
    return InflationReport(rows, _metadata(cfg))


# ---------------------------------------------------------------------------
# feasibility

def _f_weights(A: np.ndarray, s: float) -> np.ndarray:
    """Vectorized low-mode counting weight: 1 for s < -1/2, sqrt(log A)
    at s = -1/2, A^(1/2+s) for s > -1/2."""
    if s < -0.5 - 1e-12:
        return np.ones_like(A)
    if abs(s + 0.5) <= 1e-12:
        return np.sqrt(np.log(A))
    return A ** (0.5 + s)


def feasibility_scan(s: float, alpha: float, cfg: ExperimentConfig) -> InflationReport:
    """Log-grid scan of (R, A, T) at each N for the four requirements:
    (a) small data R*sqrt(A)*N^s, (b) contractive horizon T*R^2*A^2,
    (c) large first-order transfer T*R^3*A^2*f(A), (d) dispersion window
    T <= N^(-2*alpha).  A triple is feasible when every requirement holds
    with the stated margin; the row reports the feasible-triple count and
    the best point's exponents log_N R, log_N A, log_N T."""
    P = cfg.grid_points
    rows = []
    for N in cfg.N_list:
        N = float(N)
        logN = math.log(N)
        R = np.logspace(0.0, 0.75 * math.log10(N), P)[:, None, None]
        A = np.logspace(math.log10(4.0), math.log10(N), P)[None, :, None]
        t_top = -2.0 * alpha * math.log10(N)
        T = np.logspace(t_top - 10.0, t_top, P)[None, None, :]
        fA = _f_weights(A, s)
        q1 = 1.0 / (R * np.sqrt(A) * N**s)
        q2 = 1.0 / (T * R**2 * A**2)
        q3 = T * R**3 * A**2 * fA
        q4 = N ** (-2.0 * alpha) / T
        q = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
        best = float(np.max(q))
        feasible = int(np.sum(q >= cfg.margin))
        i, jj, kk = np.unravel_index(int(np.argmax(q)), q.shape)
        bR, bA, bT = float(R[i, 0, 0]), float(A[0, jj, 0]), float(T[0, 0, kk])
        rows.append(ReportRow(
            cfg.experiment, cfg.regime, s, alpha, N, feasible,
            math.log(bR) / logN, math.log(bA) / logN, math.log(bT) / logN,
            cfg.margin, best, None, None))
    return InflationReport(rows, _metadata(cfg))


def run_feasibility(cfg: ExperimentConfig) -> InflationReport:
    """Parameter-space scan for the smallness/largeness conditions."""
    return feasibility_scan(cfg.s, cfg.alpha, cfg)


# ---------------------------------------------------------------------------

# The one list of experiment names: ExperimentConfig checks against it and
# the command line builds one subcommand per entry.
RUNNERS = {
    "inflate": run_inflation,
    "approx": run_approximation,
    "periodize": run_periodization,
    "gamma": run_gamma,
    "feasibility": run_feasibility,
}


def run_experiment(cfg: ExperimentConfig) -> InflationReport:
    return RUNNERS[cfg.experiment](cfg)
