"""Experiment runners and reporting.

Five experiments: 'inflate' (norm growth of two-block data), 'approx'
(small-dispersion error scaling), 'periodize' (circle norms vs line
norms), 'gamma' (discrepancy-mode counting along a dilation schedule),
and 'feasibility' (parameter-space scan).  Each returns an
InflationReport whose rows serialize to CSV with a fixed column order,
or to JSON with the full metadata.  No report depends on its output path,
and only the JSON's echoed `threads` on the thread count.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, asdict
from typing import ClassVar, NamedTuple

import numpy as np
from numpy._core import _multiarray_umath as _umath  # numpy's SIMD dispatch tables

from . import constructions as cons
from . import evolution as evo
from . import profiles as prof
from . import torus

VERSION = "nlslab-0.1.0"


def _key(default, *, at_least=None, above=None, below=None, choices=None,
         integer=False, nonzero=False, read_by=None):
    """A config field with its own checks, which ExperimentConfig enforces.
    A value that is set must be in `choices`; it, or each item of a tuple,
    must be >= at_least, > above, < below, whole if `integer` and not 0 if
    `nonzero`.  read_by = (key, *values): the run reads this field only
    while that key takes one of the values.  Such a field is None until the
    run reads it, and then takes `default`; set where the run does not read
    it, it is refused.  A field the run does not read is left out of the
    report echo."""
    return dc_field(default=None if read_by else default, metadata=dict(
        default=default, at_least=at_least, above=above, below=below, choices=choices,
        integer=integer, nonzero=nonzero, read_by=read_by))


# each rule of _key that every item of a value keeps: its name, refusal and test
_ITEM_RULES = (("at_least", "must be >= {}", operator.ge), ("above", "must be > {}", operator.gt),
               ("below", "must be < {}", operator.lt),
               ("integer", "must be integers", lambda v, on: not on or float(v).is_integer()),
               ("nonzero", "must be nonzero", lambda v, on: not on or v != 0.0))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """What a run reads, and not where its report goes.  Each experiment's
    subclass adds its own keys, each declaring its single-key checks through
    _key, from which the command line derives its INI keys and parsers.
    __post_init__ overrides hold only the rules across keys or on derived
    floats: approx's delta^2, delta^1.5 and distinct periods, gamma's
    periods and feasibility's powers of N.

    `sweep` holds the swept values: N for 'inflate' and 'feasibility',
    delta for 'approx', the period L for 'periodize', the index j for 'gamma'.
    """

    experiment: ClassVar[str]
    sweep: tuple[float, ...]
    seed: int = _key(0, at_least=0, below=2**64)  # echoed into the report: an unsigned 64-bit integer
    threads: int = _key(1, at_least=1)

    def __post_init__(self):
        keys = dataclasses.fields(self)
        # choices first, so that a selector is valid before read_by asks it
        for f in keys:
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ValueError(f"unknown {f.name} {value!r}; expected one of {', '.join(choices)}")
        # a set key the run does not read is refused, an unset one it reads takes its default
        for f in keys:
            value = getattr(self, f.name)
            if value is not None and not self._reads(f):
                selector, *readers = f.metadata["read_by"]
                raise ValueError(f"{f.name} is read only by the {', '.join(readers)} "
                                 f"{selector}, not by {getattr(self, selector)}")
            if value is None and self._reads(f):
                value = f.metadata.get("default")
                object.__setattr__(self, f.name, value)
            if value is None:  # unread, or an optional key such as theta
                continue
            items = value if isinstance(value, tuple) else (value,)
            bad = [v for v in items if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise ValueError(f"{f.name} must be finite, got {bad[0]!r}")
            if not items:
                raise ValueError(f"{f.name} must be nonempty")
            what = f"{self.experiment} {f.name} values" if isinstance(value, tuple) else f.name
            for (rule, refusal, holds), v in itertools.product(_ITEM_RULES, items):
                if f.metadata.get(rule) is not None and not holds(v, f.metadata[rule]):
                    raise ValueError(f"{what} {refusal.format(f.metadata[rule])}, got {v!r}")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep must be strictly increasing")

    def _reads(self, f: dataclasses.Field) -> bool:
        read_by = f.metadata.get("read_by")
        return read_by is None or getattr(self, read_by[0]) in read_by[1:]

    def unread_keys(self) -> set[str]:
        """Fields this config's run never reads; the report echo leaves them out."""
        return {f.name for f in dataclasses.fields(self) if not self._reads(f)}


@dataclass(frozen=True, kw_only=True)
class InflateConfig(ExperimentConfig):
    experiment = "inflate"
    regime: str = _key("crit_half", choices=cons.REGIMES)  # those with a two-block schedule
    alpha: float = _key(1.0, above=0)
    # no two-block schedule has N below MIN_BLOCK_N
    sweep: tuple[float, ...] = _key((256.0, 512.0, 1024.0, 2048.0, 4096.0), integer=True,
                                    at_least=cons.MIN_BLOCK_N)
    s: float = -0.5
    theta: float | None = _key(None, read_by=("regime", "frac_crit"))
    picard_budget: int = _key(evo.PICARD_BUDGET, at_least=0)
    surrogate_period: float | None = _key(32.0, at_least=1, read_by=("regime", "negative_s"))


# approx and periodize build their data by _approx_profile, whose appendix
# profiles other than mollified read none of amplitude, width and eps
PROFILES = ("bump", "two_step", *prof.APPENDIX_KINDS)


@dataclass(frozen=True, kw_only=True)
class ApproxConfig(ExperimentConfig):
    experiment = "approx"
    sweep: tuple[float, ...] = _key((0.025, 0.05, 0.1, 0.2), above=0)
    profile: str = _key("bump", choices=PROFILES)
    # zero data: the period spread divides by zero errors
    amplitude: float | None = _key(1.0, nonzero=True, read_by=("profile", "bump", "two_step"))
    width: float | None = _key(2.0, above=0, read_by=("profile", "bump"))
    eps: float | None = _key(0.1, above=0, read_by=("profile", "two_step", "mollified"))
    periods: tuple[float, ...] = (32.0, 64.0, 128.0)

    def __post_init__(self):
        super().__post_init__()
        # sweep[-1] is the largest delta: with its delta^2 finite, sweep[0] ** 1.5 cannot overflow
        if not self.sweep[-1] * self.sweep[-1] < math.inf:
            raise ValueError(f"approx sweep value {self.sweep[-1]!r} is too large: its dispersion "
                             f"coefficient delta^2 overflows a float")
        if not self.sweep[0] ** 1.5 > 0.0:  # the reference delta^1.5 divides the error
            raise ValueError(f"approx sweep value {self.sweep[0]!r} is too small: its reference "
                             f"delta^1.5 underflows to 0")
        keys = [format(L, ".12g") for L in self.periods]  # as period_errors keys them
        for L, key in zip(self.periods, keys):
            if keys.count(key) > 1:
                raise ValueError(f"approx period {L!r} is given twice: period_errors, keyed by "
                                 f"12 significant digits, would keep one")


@dataclass(frozen=True, kw_only=True)
class PeriodizeConfig(ExperimentConfig):
    experiment = "periodize"
    sweep: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    profile: str = _key("two_step", choices=PROFILES)
    # zero data: every row would be zeros
    amplitude: float | None = _key(1.0, nonzero=True, read_by=("profile", "bump", "two_step"))
    width: float | None = _key(2.0, above=0, read_by=("profile", "bump"))
    eps: float | None = _key(0.1, above=0, read_by=("profile", "two_step", "mollified"))
    s_list: tuple[float, ...] = (-1.0, -0.5, 0.0, 1.0)


# gamma's dilation schedule delta_j = GAMMA_BASE_DELTA GAMMA_DELTA_DECAY^(j - 1), the
# plateau level of its window, a fraction of L |w_0| (measure_plateau), and its time
GAMMA_BASE_DELTA = 0.16
GAMMA_DELTA_DECAY = 0.8408964152537145  # 2**(-1/4)
PLATEAU_FRACTION = 0.5
GAMMA_HORIZON = 1.0


@dataclass(frozen=True, kw_only=True)
class GammaConfig(ExperimentConfig):
    experiment = "gamma"
    alpha: float = _key(1.0, above=0)
    sweep: tuple[float, ...] = _key((1.0, 2.0, 3.0, 4.0), integer=True)
    # zero data: a zero plateau threshold counts mode 0
    amplitude: float = _key(0.7, nonzero=True)
    eps: float = _key(0.3, above=0)
    band_per_period: float = _key(4.0, above=0)

    def __post_init__(self):
        super().__post_init__()
        # each point takes the period L = round(delta_j^(-2.5)), so |log
        # delta_j| must stay below log(float max) / 2.5, and L must hold the
        # support [-K, K] of the profile
        limit = math.log(sys.float_info.max) / 2.5
        diameter = 2.0 * prof.centered_two_step(self.amplitude, self.eps).support_radius
        for j in self.sweep:
            log_delta = math.log(GAMMA_BASE_DELTA) + (j - 1) * math.log(GAMMA_DELTA_DECAY)
            if abs(log_delta) >= limit:
                raise ValueError(f"gamma sweep value {j!r} gives delta_j = exp({log_delta:.6g}), "
                                 f"whose delta_j^(-2.5) leaves the float range")
            delta, L = self.delta_and_period(int(j))
            if L < diameter:
                raise ValueError(f"gamma sweep value {j!r} gives delta_j = {delta:.6g}, whose "
                                 f"period L = round(delta_j^(-2.5)) = {L:g} is below the "
                                 f"profile's support diameter 2K = {diameter:g}")

    def delta_and_period(self, j: int) -> tuple[float, float]:
        """(delta_j, period L = round(delta_j^(-2.5))) of schedule index j."""
        delta = GAMMA_BASE_DELTA * GAMMA_DELTA_DECAY ** (j - 1)
        return delta, float(round(delta ** (-2.5)))


@dataclass(frozen=True, kw_only=True)
class FeasibilityConfig(ExperimentConfig):
    experiment = "feasibility"
    alpha: float = _key(0.375, above=0)
    # the A grid runs over [4, N]
    sweep: tuple[float, ...] = _key((2.0**16, 2.0**24, 2.0**32, 2.0**40, 2.0**48), at_least=4,
                                    integer=True)
    s: float = -0.25

    def __post_init__(self):
        super().__post_init__()
        # The scan's factors reach down to N^(-2 alpha) / 1e10 (its lowest T)
        # and up to N^(4.25 + max(0, 1/2 + s)) (T R^3 A^2 f(A)) or N^(-s)
        # (1 / N^s), so each must lie within 1e-300 .. 1e300.  A key that
        # fails even at the smallest N = 4 is named, else the first N that does.
        def decades(N):
            x = math.log10(N)
            return 2.0 * self.alpha * x + 10.0, max(4.25 + max(0.0, 0.5 + self.s), -self.s) * x
        low, high = decades(4.0)
        if low > 300.0:
            raise ValueError(f"alpha = {self.alpha!r} is too large for the feasibility scan: "
                             f"its horizon N^(-2 alpha) underflows a float")
        if high > 300.0:
            raise ValueError(f"s = {self.s!r} is out of range for the feasibility scan: "
                             f"its powers of N overflow a float")
        big = [N for N in self.sweep if max(decades(N)) > 300.0]
        if big:
            raise ValueError(f"feasibility sweep value {big[0]!r} is too large for alpha = "
                             f"{self.alpha!r} and s = {self.s!r}: the scan's powers of N "
                             f"leave the float range")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    # what the run used: two-block regime, Sobolev order of the norm columns
    # and order of the evolved equation; None where the experiment has none
    regime: str | None
    s: float | None
    alpha: float | None
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


# The CSV header: ReportRow's fields, in declaration order.
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ReportRow))


@dataclass
class InflationReport:
    rows: list
    metadata: dict = dc_field(default_factory=dict)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return format(float(v), ".12g")


def report_to_csv(report: InflationReport) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.rows:
        d = asdict(row)
        buf.write(",".join(_fmt_cell(d[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def report_to_json(report: InflationReport) -> str:
    payload = {"metadata": report.metadata, "rows": [asdict(r) for r in report.rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(report: InflationReport, fmt: str, path: str) -> str:
    """Write the report as fmt (csv or json) to path; returns path.  The text is the report's alone."""
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
    """The experiment's name and its field values by name, with tuple
    fields as lists (JSON arrays); fields the run never reads are left out."""
    unread = cfg.unread_keys()
    d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()
         if k not in unread}
    return {"experiment": cfg.experiment, **d}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of config_to_dict: the experiment's class, with list values
    as tuples again.  A key the class lacks, such as one retired since the
    echo was written, is refused by name."""
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    if "experiment" not in kwargs:
        raise ValueError("config has no 'experiment' key")
    name = kwargs.pop("experiment")
    if name not in CONFIGS:
        raise ValueError(f"unknown experiment {name!r}")
    cls = CONFIGS[name]
    keys = {f.name for f in dataclasses.fields(cls)}
    for key in kwargs:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r} in [{name}]")
    return cls(**kwargs)


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _host() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this CPU:
    np.tan's last bits, and with them report bytes, depend on both."""
    return {"numpy": np.__version__,
            "simd": [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(f)]}


def _metadata(cfg: ExperimentConfig) -> dict:
    return {"version": VERSION, "seed": cfg.seed, "config": config_to_dict(cfg), "host": _host()}


# ---------------------------------------------------------------------------
# inflate

def wiener_error_budget(phi: torus.SpectralField, T: float, N: int) -> float:
    """Size budget for the gap between the exact flow and its first-order
    expansion: the second-iterate term T^2 N^2 ||phi||_1^2 ||phi||_inf plus
    the generation-k terms T^k ||phi||_1^(2k) ||phi||_inf for k = 2..4,
    summed in powers of x = T ||phi||_1^2, the Duhamel iterate's O(1)
    parameter: ||phi||_1^8 alone overflows on data whose budget does not."""
    w1 = torus.fourier_lebesgue_norm(phi, 0.0, 1.0)
    winf = torus.fourier_lebesgue_norm(phi, 0.0, np.inf)
    x = T * w1 * w1
    return (T * N**2 * x + x**2 + x**3 + x**4) * winf


def _fl_inf_distance(a: torus.SpectralField, b: torus.SpectralField) -> float:
    m = max(a.bandwidth, b.bandwidth)
    diff = torus.enlarge_band(a, m).coeffs - torus.enlarge_band(b, m).coeffs
    return float(np.max(np.abs(diff)))


# The closed form keeps the out band (2k+1) n_max for the first k in
# ODE_K_RANGE whose dropped tail is at most ODE_TAIL_REL of the data's L^2
# mass.  k = 1 leaves 1e-13..1e-7 of it in every regime.  The measured
# tail holds term k + 1 of the rotation's series whole, and only terms k + 3
# and up alias back into the band (evolution.ode_grid_size).
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
    raise ValueError(
        f"closed form at N={N} keeps a tail of {ode.tail_mass:.3e} at out band "
        f"(2*{k}+1)*{phi.bandwidth}, above {ODE_TAIL_REL:g} of the data mass {mass:.6g}")


# Split-step runs Strang at n, 2n and 4n steps, n = SPLIT_STEP_START
# doubling while 4n <= SPLIT_STEP_MAX (3/6/12, 6/12/24, ..., 48/96/192),
# and reads the differences d1 = ||u_2n - u_n|| and d2 = ||u_4n - u_2n||,
# in a gap norm over a scale that each caller states (FLinf over
# ||phi||_FLinf in inflate), and the observed order p = log2(d1 / d2)
# (Roache 1994, J. Fluids Eng. 116).  Strang is symmetric, so its error
# runs in even powers of the step h: u_h = u + C h^2 + D h^4.  With h the
# step of u_4n and r = D h^2 / C,
#     d2 = 3 C h^2 (1 + 5r),   d1 / d2 = 4 (1 + 20r) / (1 + 5r),
# and u_4n errs by C h^2 (1 + r).  p in SPLIT_ORDER_WINDOW = [1.5, 2.5]
# holds r in [-0.0178, 0.0320]; there d2 / 3 lies within 0.93..1.12 of
# u_4n's error (it understates it by at most 1.08 times), and the
# Richardson value (4 u_4n - u_2n) / 3 = u - 4 D h^4 errs by at most 0.11
# of d2 / 3.  In the window the run reports that value with the estimate
# d2 / 3.  Outside it Strang is not in its asymptotic range: the run
# reports u_4n with the estimate d2 / (2^min(p, 2) - 1), the sum of the
# later differences if each shrinks by 2^-p, never assuming more than
# order 2; differences that do not shrink (p <= 0) give no estimate, and
# u_4n = u_2n in the gap norm (data that vanishes in it) gives 0, with no
# order.  The first triple whose estimate is at most SPLIT_STEP_REL (in
# gamma 1 / GAMMA_MARGIN_FACTOR) is taken.  At alpha = 1 every crit_half
# and frac_crit point of inflate at N = 128 ... 4096 stops at the first
# triple, 21 steps in all, with p in 2.00..2.07; crit_half N = 64 misses
# it (1.07e-3) and stops at 6/12/24.  Every row of approx's defaults
# stops at the first triple too, with p in 1.42..2.14.
SPLIT_STEP_REL = 1e-3
SPLIT_STEP_START = 3
SPLIT_STEP_MAX = 192
SPLIT_ORDER_WINDOW = (1.5, 2.5)
# gamma's counts are integers: a field that errs in FLinf by less than
# its count margin (GammaCount.margin) counts as the exact flow does.  So
# gamma's scale is the margin of u_4n, and a row settles once this factor
# times the estimate is at most it.  The factor is there because the
# estimate cannot be trusted as it stands on gamma's bands: with the band
# projection Strang is second order only in part (Lubich 2008, Math. Comp.
# 77).  Against a 6400/12800-step Richardson reference the settled
# estimate understates the field's FLinf error up to 4.6 times at the
# defaults (each j at 3/6/12, margin over error 19.7 .. 57) and 2.0 times
# at 8 modes per period (j = 1-3 at 12/24/48, j = 4 at 6/12/24).
GAMMA_MARGIN_FACTOR = 10.0


class StrangRun(NamedTuple):
    steps: int  # 4n, the finest run of the accepted triple
    estimate: float  # of the reported field's error, over the row's scale
    order: float | None  # the observed order p; None where u_4n = u_2n
    field: torus.SpectralField


def _strang_ladder(field: torus.SpectralField, eqs, t: float, gap, scale, where, of: str,
                   tol: float) -> list[StrangRun]:
    """field evolved to t under each equation of `eqs`, each row on its
    first step triple whose estimate is at most `tol` (SPLIT_STEP_REL but
    in gamma), as the comment above says.  gap(a, b) is the norm of a - b,
    and scale(i, u) row i's scale at its finest run u.
    The first triple's three counts run as one evolution.split_step_stack
    call; each later triple's 2n- and 4n-step fields are the previous one's,
    and its 4n-step fields run alone.  The rows run together until each
    settles, and the rest go on together, so each row gives the run it
    would give alone.  A row that no triple up to SPLIT_STEP_MAX settles
    is refused, the message opening with where(i) and naming `of`, the
    scale."""
    runs: list[StrangRun | None] = [None] * len(eqs)
    live, n = list(range(len(eqs))), SPLIT_STEP_START
    first, second, finest = evo.split_step_stack(field, eqs, t, (n, 2 * n, 4 * n))
    pairs = list(zip(first, second))
    while True:
        missed = []
        for i, (u_n, u_2n), u_4n in zip(live, pairs, finest):
            g2 = gap(u_4n, u_2n)
            if g2 == 0.0:  # on data that vanishes in the gap norm the scale is 0 too
                estimate, order, u = 0.0, None, u_4n
            else:
                s = scale(i, u_4n)
                d1, d2 = gap(u_2n, u_n) / s, g2 / s
                order = math.log2(d1 / d2) if d1 > 0.0 and d2 > 0.0 else math.nan
                if SPLIT_ORDER_WINDOW[0] <= order <= SPLIT_ORDER_WINDOW[1]:
                    estimate = d2 / 3.0
                    u = u_4n.with_coeffs((4.0 * u_4n.coeffs - u_2n.coeffs) / 3.0)
                elif order > 0.0:
                    estimate, u = d2 / (2.0 ** min(order, 2.0) - 1.0), u_4n
                else:
                    estimate = math.inf
            if estimate <= tol:
                runs[i] = StrangRun(4 * n, estimate, order, u)
            else:
                missed.append((i, (u_2n, u_4n), estimate, order))
        if not missed:
            return runs
        live, pairs = [m[0] for m in missed], [m[1] for m in missed]
        n *= 2
        if 4 * n > SPLIT_STEP_MAX:
            break
        (finest,) = evo.split_step_stack(field, [eqs[i] for i in live], t, (4 * n,))
    i, _, estimate, order = missed[0]
    raise ValueError(f"{where(i)} misses the tolerance {tol:g} of {of}: at {2 * n} "
                     f"steps, the most it tries, the estimate is {estimate:.3e} at observed "
                     f"order {order:.3f}")


def _split_step_on_tolerance(phi: torus.SpectralField, eq: evo.EquationSpec, T: float,
                             N: int) -> StrangRun:
    """Split-step at T on the Strang ladder (_strang_ladder), one row with
    FLinf gaps over ||phi||_FLinf; refuses if no triple up to
    SPLIT_STEP_MAX steps meets SPLIT_STEP_REL.  Split-step runs on the band
    3 n_max, which the settled field keeps."""
    wide = torus.enlarge_band(phi, 3 * phi.bandwidth)
    scale = torus.fourier_lebesgue_norm(phi, 0.0, np.inf)
    return _strang_ladder(wide, (eq,), T, _fl_inf_distance, lambda i, u: scale,
                          lambda i: f"split-step at N={N}", "||phi||_FLinf", SPLIT_STEP_REL)[0]


def _inflate_point(cfg: InflateConfig, eq: evo.EquationSpec, N: int) -> tuple[ReportRow, dict]:
    s = cfg.s
    sched = cons.regime_parameters(cfg.regime, N, s, cfg.theta)
    T = sched.T_N

    # negative_s samples the line data on the surrogate circle, whose band
    # is about 26x crit_half's at the same N (16472 modes at N = 256), so it
    # runs the closed form alone and skips the two cross-checks
    on_circle = cfg.regime != "negative_s"
    phi = cons.build_two_block_data(sched, 1.0 if on_circle else cfg.surrogate_period)

    norm0 = torus.sobolev_norm(phi, s)
    if norm0 == 0.0:
        row = ReportRow(cfg.experiment, cfg.regime, s, cfg.alpha, N, N,
                        0.0, 0.0, None, sched.predicted_lower_bound, None, 0.0, None)
        return row, {}

    # the closed form supplies every norm column; the others cross-check it
    k, ode = _closed_form_on_tail_target(phi, T, N)
    out_band = ode.field.bandwidth
    aux = dict(ode_k=k, ode_out_bandwidth=out_band,
               ode_grid_points=evo.ode_grid_size(phi.bandwidth, out_band))
    results = {"ode": ode.field}
    skipped = [] if on_circle else ["picard", "split_step"]
    if on_circle:
        split = _split_step_on_tolerance(phi, eq, T, N)
        results["split_step"] = evo.interaction_picture(split.field, eq, T)
        work = evo.picard_work(phi, eq, T)
        split_norm = torus.sobolev_norm(split.field, s)  # the NLS value, beside the closed form's
        top = float(np.max(np.abs(evo.free_rotation_rates(split.field, eq))))  # on its band
        aux.update(split_steps=split.steps, split_estimate=split.estimate,
                   split_order=split.order, split_angle_roundoff=2.0**-53 * top * T,
                   split_grid_points=evo.split_grid_size(split.field.bandwidth),
                   split_norm_T=split_norm, split_ratio=split_norm / norm0,
                   picard_nodes=work.nodes, picard_grid_points=work.grid_points)
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
                raise ValueError(
                    f"{a} vs {b} differ by {d:.3e} > 10x budget {budget:.3e} at N={N}")

    normT, norm_low = torus.sobolev_norm_and_projection(ode.field, s, int(round(N * phi.period)))
    ref = sched.predicted_lower_bound
    row = ReportRow(
        cfg.experiment, cfg.regime, s, cfg.alpha, N, N,
        norm0, normT, normT / norm0, ref,
        normT / ref if ref else None, ode.tail_mass, disagreement)
    aux.update(projected_norm=norm_low, T=T, skipped=skipped)
    return row, aux


def run_inflation(cfg: InflateConfig) -> InflationReport:
    """Norm-growth sweep for two-block spectral data.  Split-step and
    Picard evolve the paper's equation (EquationSpec.paper)."""
    eq = evo.EquationSpec.paper(cfg.alpha)
    pairs = _map_ordered(lambda N: _inflate_point(cfg, eq, int(N)),
                         list(cfg.sweep), cfg.threads)
    rows = [p[0] for p in pairs]
    meta = _metadata(cfg)
    meta["equation"] = {"convention": "R/2piZ: mode n rotates as |n|^(2 alpha)",
                        "dispersion_coeff": eq.dispersion_coeff}
    meta["per_N"] = {str(int(N)): p[1] for N, p in zip(cfg.sweep, pairs)}
    return InflationReport(rows, meta)


# ---------------------------------------------------------------------------
# approx

APPROX_HORIZON = 1.0  # the errors are measured at this time and half of it
APPROX_BAND_PER_PERIOD = 8.0  # on the band ceil(8 L) of each period L


def _periodize(profile, L: float, band_per_period: float) -> torus.SpectralField:
    """torus.periodize at band ceil(band_per_period L); it refuses an inf band as too wide."""
    band = band_per_period * L
    return torus.periodize(profile, L, math.ceil(band) if band < math.inf else band)


def _approx_profile(cfg: ApproxConfig | PeriodizeConfig) -> prof.CompactProfile:
    if cfg.profile == "bump":
        return prof.smooth_bump(cfg.amplitude, cfg.width)
    if cfg.profile == "two_step":
        return prof.centered_two_step(cfg.amplitude, cfg.eps)
    return prof.appendix_profile(cfg.profile, eps=cfg.eps)


def _approx_errors(phi: torus.SpectralField, deltas,
                   t: float) -> tuple[list[float], float, list[dict]]:
    """H^1(T_L) distances at time t between the small-dispersion flow at
    each delta and the exact dispersionless flow; also the latter's
    spectral tail mass, and each row's ladder entry: its delta, period, t,
    steps, estimate and observed order.  The flows run as one split-step
    stack on the Strang ladder (_strang_ladder), with H^1 gaps over each
    row's own H^1 error, so each error is known to SPLIT_STEP_REL of
    itself.  The stack runs first, so a blow-up is refused by split-step's
    message."""
    eqs = [evo.EquationSpec.small_dispersion(delta) for delta in deltas]
    exact = functools.cache(lambda: evo.ode_exact_evolve(phi, t))

    def h1(a: torus.SpectralField, b: torus.SpectralField) -> float:
        return torus.sobolev_norm(a.with_coeffs(a.coeffs - b.coeffs), 1.0)

    ladder = _strang_ladder(
        phi, eqs, t, h1, lambda i, u: h1(u, exact().field),
        lambda i: f"split-step at delta = {deltas[i]!r} on period {phi.period!r} and t = {t!r}",
        "its H^1 error", SPLIT_STEP_REL)
    entries = [dict(delta=delta, period=phi.period, t=t, steps=run.steps, estimate=run.estimate,
                    order=run.order) for delta, run in zip(deltas, ladder)]
    return [h1(run.field, exact().field) for run in ladder], exact().tail_mass, entries


def run_approximation(cfg: ApproxConfig) -> InflationReport:
    """Small-dispersion vs dispersionless error scaling."""
    profile = _approx_profile(cfg)
    phi = _periodize(profile, cfg.periods[0], APPROX_BAND_PER_PERIOD)
    (errs_half, _, ladder_half), (errs_full, tail, ladder_full) = _map_ordered(
        lambda t: _approx_errors(phi, cfg.sweep, t), [APPROX_HORIZON / 2.0, APPROX_HORIZON],
        cfg.threads)
    rows = []
    for delta, e_half, e_full in zip(cfg.sweep, errs_half, errs_full):
        ref = delta**1.5
        rows.append(ReportRow(  # H^1 errors of the alpha = 1 flow, as _approx_errors takes them
            cfg.experiment, None, 1.0, 1.0, 0, delta,
            e_half, e_full, e_full / e_half if e_half else None,
            ref, e_full / ref, tail, None))
    report = InflationReport(rows, _metadata(cfg))
    report.metadata["split_step"] = ladder_half + ladder_full

    deltas = np.array([r.param for r in rows], dtype=float)
    errs = np.array([r.norm_T for r in rows], dtype=float)
    if deltas.size >= 2 and np.all(errs > 0.0):
        report.metadata["fitted_slope"] = float(
            np.polyfit(np.log(deltas), np.log(errs), 1)[0])

    if len(cfg.periods) > 1:
        # period-uniformity of the constant, measured once at a mid-sweep delta
        i_mid = max(0, len(cfg.sweep) - 2)
        d_mid = float(cfg.sweep[i_mid])
        # the first period's error is the mid row's norm_T: same delta, period and band
        errs_L = [rows[i_mid].norm_T]
        for L in cfg.periods[1:]:
            (e_L,), _, entries = _approx_errors(_periodize(profile, L, APPROX_BAND_PER_PERIOD),
                                                (d_mid,), APPROX_HORIZON)
            errs_L.append(e_L)
            report.metadata["split_step"] += entries
        if min(errs_L) == 0.0:  # data that vanishes on the grid, such as a width that underflows
            L = cfg.periods[errs_L.index(0.0)]
            raise ValueError(f"the approx error at delta = {d_mid!r} on period {L!r} is 0, "
                             f"so the period spread max/min of the errors is undefined")
        spread = max(errs_L) / min(errs_L)
        report.metadata["period_errors"] = {format(L, ".12g"): e for L, e in zip(cfg.periods, errs_L)}
        report.metadata["period_spread"] = spread
        report.rows[i_mid] = dataclasses.replace(rows[i_mid], method_disagreement=spread)
    return report


# ---------------------------------------------------------------------------
# periodize

LINE_PANELS = 160  # panel width 0.5 on [0, 80]
PERIODIZE_BAND_PER_PERIOD = 32.0  # circle norms keep the band ceil(32 L): |n / L| <= 32


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
    """|F(xi)|^2 + |F(-xi)|^2 = 2 |F(xi)|^2: a CompactProfile is real, so
    |F(-xi)| = |F(xi)|, and to the bit at every kind's transform."""
    return 2.0 * np.abs(profile.fourier_transform(xi)) ** 2


def line_sobolev_norm(profile, s, homogeneous: bool = True, xi_max: float = 80.0):
    """Real-line Sobolev norm of a compactly supported profile: the square
    root of the integral of w(xi) |F[f](xi)|^2 over |xi| <= xi_max, with
    w = |xi|^(2s) (homogeneous) or (1 + xi^2)^s.

    The integrand is folded onto [0, xi_max] as w(xi) (|F(xi)|^2 +
    |F(-xi)|^2) = 2 w(xi) |F(xi)|^2, as the profile is real, and cut into
    LINE_PANELS equal panels (width 0.5 at the default xi_max, so 0 and 1
    are panel edges).  Every panel but the first takes 64-node
    Gauss-Legendre (profiles._panel_rule).  On the first, |xi|^(2s) is
    not smooth at 0 unless 2s is an integer, so it takes 64-node
    Gauss-Jacobi (_head_rule) with the weight xi^beta built in: beta =
    2s, or 2s + 2 with the density divided by xi^2 when the profile has
    vanishing mean, |F(0)| at most 1e-12 of the largest |F| on the other
    panels' nodes: a test free of the profile's scale.  The rule matches a
    tight scipy quad oracle to 1e-12 relative, fractional s included, and
    doubling the panels moves it by less than that.

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
    folded = _folded_density(profile, xi)
    density = weights * folded
    zero_mean = abs(profile.fourier_transform(0.0)) <= 1e-12 * math.sqrt(folded.max())
    norms = []
    for order in orders.tolist():
        beta = 0.0
        if homogeneous:
            beta = 2.0 * order + (2.0 if zero_mean else 0.0)
            if beta <= -1.0:
                if zero_mean:
                    raise ValueError(f"line norm of a zero-mean profile needs s > -3/2, got {order}")
                norms.append(math.inf)
                continue
        weight = (lambda x: x ** (2.0 * order)) if homogeneous else (lambda x: (1.0 + x * x) ** order)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            tail = weight(xi) @ density
        if not math.isfinite(tail):
            raise ValueError(f"the line norm of order s = {order} overflows a float")
        x, w = _head_rule(beta, h)
        head = w @ (weight(x) * x ** -beta * _folded_density(profile, x))
        norms.append(math.sqrt(head + tail))
    return norms[0] if np.ndim(s) == 0 else norms


def run_periodization(cfg: PeriodizeConfig) -> InflationReport:
    """Circle-norm convergence to real-line norms."""
    profile = _approx_profile(cfg)
    rows = []
    line_norms = line_sobolev_norm(profile, cfg.s_list, homogeneous=True)
    fields = [_periodize(profile, L, PERIODIZE_BAND_PER_PERIOD) for L in cfg.sweep]
    for s, line_norm in zip(cfg.s_list, line_norms):
        for L, f_L in zip(cfg.sweep, fields):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
                circle = torus.sobolev_norm(f_L, s, homogeneous=True)
            if not math.isfinite(circle):
                raise ValueError(f"the circle norm of order s = {s} on period {L} "
                                 f"overflows a float")
            rows.append(ReportRow(
                cfg.experiment, None, s, None, 0, L,
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
    margin: float  # the window's least | |w_n - v_n| - c_measured/(4L) |


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
    surviving-mass lower bound runs over.  The margin is the least distance
    of a window mode's |w_n - v_n| from the threshold: any v' within it of
    v in FLinf gives both counts unchanged.
    """
    if abs(w_field.period - L) > 1e-9 * L or abs(v_field.period - L) > 1e-9 * L:
        raise ValueError("fields must live on the stated period")
    m = max(w_field.bandwidth, v_field.bandwidth)
    diff = np.abs(torus.enlarge_band(w_field, m).coeffs
                  - torus.enlarge_band(v_field, m).coeffs)
    n = np.arange(-m, m + 1)
    window = np.abs(n) <= C0 * L
    threshold = c_measured / (4.0 * L)
    bad = window & (diff >= threshold)
    return GammaCount(int(np.sum(bad)), L * delta ** (2.0 * alpha),
                      int(np.sum(window) - np.sum(bad)),
                      float(np.min(np.abs(diff[window] - threshold))))


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


def _gamma_point(cfg: GammaConfig, j: int) -> tuple[ReportRow, dict]:
    """Point j's row, and its split-step entry: the small-dispersion flow
    v runs on the Strang ladder (_strang_ladder), one row with FLinf gaps,
    settling at the first triple whose estimate times GAMMA_MARGIN_FACTOR
    is at most the count margin of its finest run.  A zero margin, which
    leaves a count undecided, is refused."""
    delta, L = cfg.delta_and_period(j)
    profile = prof.centered_two_step(cfg.amplitude, cfg.eps)
    phi = _periodize(profile, L, cfg.band_per_period)
    t = GAMMA_HORIZON
    w = evo.ode_exact_evolve(phi, t).field
    eq = evo.EquationSpec.small_dispersion(delta, cfg.alpha)
    c_measured, C0 = measure_plateau(w, PLATEAU_FRACTION)
    where = f"split-step at j = {j}, delta = {delta!r} on period {L!r}"
    margins = []  # of each field counted, the last one for a refusal

    def counted(v: torus.SpectralField) -> GammaCount:
        g = gamma_discrepancy(w, v, L, c_measured, C0, delta, cfg.alpha)
        if g.margin == 0.0:
            raise ValueError(f"{where} has the count margin 0: a window mode's |w_n - v_n| "
                             f"lies on its threshold c_measured/(4L) = {c_measured / (4.0 * L):.6g}, "
                             f"so the count is undecided")
        margins.append(g.margin)
        return g

    (run,) = _strang_ladder(
        phi, (eq,), t, _fl_inf_distance, lambda i, u: counted(u).margin,
        lambda i: f"{where} with the count margin {margins[-1]:.6g}", "its count margin",
        1.0 / GAMMA_MARGIN_FACTOR)
    g = counted(run.field)
    entry = dict(j=j, delta=delta, period=L, t=t, steps=run.steps, estimate=run.estimate,
                 order=run.order, margin=g.margin)
    # ratio column carries the raw discrepancy count for this experiment
    row = ReportRow(
        cfg.experiment, None, None, cfg.alpha, j, delta,
        c_measured, C0, float(g.count), g.reference,
        g.count / g.reference if g.reference else None,
        None, float(g.complement_count))
    return row, entry


def run_gamma(cfg: GammaConfig) -> InflationReport:
    """Discrepancy-mode counting along a dilation schedule.  JSON
    metadata["split_step"] lists each point's settled steps, estimate (over
    the count margin of its finest run), observed order and the count
    margin of the field it counted."""
    pairs = _map_ordered(lambda j: _gamma_point(cfg, int(j)),
                         list(cfg.sweep), cfg.threads)
    report = InflationReport([p[0] for p in pairs], _metadata(cfg))
    report.metadata["split_step"] = [p[1] for p in pairs]
    return report


# ---------------------------------------------------------------------------
# feasibility

# points P per axis of the feasibility scan, whose P^3 float64 temporaries
# put the peak RSS of run_feasibility at the CLI's s and alpha at 63 MB
GRID_POINTS = 50
# a triple is feasible when each requirement's quotient is at least this
FEASIBILITY_MARGIN = 10.0


def feasibility_scan(cfg: FeasibilityConfig) -> InflationReport:
    """Log-grid scan of (R, A, T) at each N for the four requirements:
    (a) small data R*sqrt(A)*N^s, (b) contractive horizon T*R^2*A^2,
    (c) large first-order transfer T*R^3*A^2*f(A), (d) dispersion window
    T <= N^(-2*alpha).  A triple is feasible when every requirement holds
    with the margin FEASIBILITY_MARGIN; the row reports the feasible-triple
    count and the best point's exponents log_N R, log_N A, log_N T."""
    s, alpha, P = cfg.s, cfg.alpha, GRID_POINTS
    rows = []
    for N in cfg.sweep:
        N = float(N)
        logN = math.log(N)
        R = np.logspace(0.0, 0.75 * math.log10(N), P)[:, None, None]
        A = np.logspace(math.log10(4.0), math.log10(N), P)[None, :, None]
        t_top = -2.0 * alpha * math.log10(N)
        T = np.logspace(t_top - 10.0, t_top, P)[None, None, :]
        fA = cons.f_factor(A, s)
        q1 = 1.0 / (R * np.sqrt(A) * N**s)
        q2 = 1.0 / (T * R**2 * A**2)
        q3 = T * R**3 * A**2 * fA
        q4 = N ** (-2.0 * alpha) / T
        q = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
        best = float(np.max(q))
        feasible = int(np.sum(q >= FEASIBILITY_MARGIN))
        i, jj, kk = np.unravel_index(int(np.argmax(q)), q.shape)
        bR, bA, bT = float(R[i, 0, 0]), float(A[0, jj, 0]), float(T[0, 0, kk])
        rows.append(ReportRow(
            cfg.experiment, None, s, alpha, N, feasible,
            math.log(bR) / logN, math.log(bA) / logN, math.log(bT) / logN,
            FEASIBILITY_MARGIN, best, None, None))
    return InflationReport(rows, _metadata(cfg))


def run_feasibility(cfg: FeasibilityConfig) -> InflationReport:
    """Parameter-space scan for the smallness/largeness conditions."""
    return feasibility_scan(cfg)


# ---------------------------------------------------------------------------

# The one list of experiment names: the command line builds one subcommand
# per entry, with the INI keys of its config class in CONFIGS.
RUNNERS = {
    "inflate": run_inflation,
    "approx": run_approximation,
    "periodize": run_periodization,
    "gamma": run_gamma,
    "feasibility": run_feasibility,
}


CONFIGS = {cls.experiment: cls for cls in ExperimentConfig.__subclasses__()}


def run_experiment(cfg: ExperimentConfig) -> InflationReport:
    return RUNNERS[cfg.experiment](cfg)
