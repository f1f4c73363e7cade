"""Outside-in tracing of nlslab's public functions.

`Tracer.install` wraps each function in `TRACED` after the package is
imported and rebinds every module-level name (and module-level dict entry,
such as `lab.RUNNERS`) that refers to it.  `evolution`, `constructions`,
`lab` and the `nlslab` package each hold their own binding of what they
imported with `from .torus import ...`, so wrapping one name would miss
most calls.  Nothing inside `src/` changes.

Spans are kept in memory, each with a name, start, end, parent span and a
few work counts, and are written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import time
from statistics import median

import numpy as np

TRACED = {
    "torus": ("synthesize", "analyze", "sobolev_norm", "periodize"),
    "evolution": ("picard_expansion", "split_step_evolve", "ode_exact_evolve", "interaction_picture"),
    "constructions": ("build_two_block_data", "regime_parameters"),
    "lab": ("line_sobolev_norm", "gamma_discrepancy", "feasibility_scan", "emit_report",
            "run_inflation", "run_approximation", "run_periodization", "run_gamma", "run_feasibility"),
    "cli": ("build_config", "main"),
}
RUNNERS = tuple(f"lab.{name}" for name in TRACED["lab"] if name.startswith("run_"))
FOURIER = "profiles.fourier_transform"  # a CompactProfile method
INTEGRATORS = ("evolution.picard_expansion", "evolution.split_step_evolve", "evolution.ode_exact_evolve")
GRID_OWNERS = ("evolution.split_step_evolve", "evolution.ode_exact_evolve")
FFT_CALLS = ("torus.synthesize", "torus.analyze")
BYTES_PER_POINT = 16  # one complex128 sample


class Span:
    __slots__ = ("name", "parent", "start", "end", "notes")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.notes = None


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _reachable_count(modes: np.ndarray) -> int:
    """Number of n = n1 - n2 + n3 over the support (the order-1 output modes)."""
    ind = np.zeros(int(modes.max() - modes.min()) + 1, dtype=np.int64)
    ind[modes - modes.min()] = 1
    return int(np.count_nonzero(np.convolve(np.convolve(ind, ind), ind[::-1])))


def _analyze_notes(args, kwargs, result, exc):
    return {"grid": int(np.size(_arg(args, kwargs, 0, "samples")))}


def _synthesize_notes(args, kwargs, result, exc):
    return {"grid": int(_arg(args, kwargs, 1, "grid_size"))}


def _split_step_notes(args, kwargs, result, exc):
    t, cfg = _arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "cfg")
    return {"steps": max(1, round(t / cfg.dt)) if t > 0.0 else 0}


def _picard_notes(args, kwargs, result, exc):
    if exc is not None:
        return {"refused": True, "kernel_evals": int(getattr(exc, "required", 0) or 0)}
    phi = _arg(args, kwargs, 0, "phi")
    modes = phi.modes()[phi.coeffs != 0.0]
    evals = modes.size ** 2 * _reachable_count(modes) if modes.size else 0
    return {"refused": False, "kernel_evals": evals}


NOTES = {
    "torus.synthesize": _synthesize_notes,
    "torus.analyze": _analyze_notes,
    "evolution.split_step_evolve": _split_step_notes,
    "evolution.picard_expansion": _picard_notes,
}


class Tracer:
    """Records one span per call into a traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        notes = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                if notes is not None:
                    span.notes = notes(args, kwargs, None, exc)
                raise
            finally:
                open_.pop()
            span.end = time.perf_counter()
            if notes is not None:
                span.notes = notes(args, kwargs, result, None)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function and rebind each name that refers to it."""
        modules = [package] + [getattr(package, m) for m in ("torus", "profiles", "evolution",
                                                              "constructions", "lab", "cli")]
        for mod_name, names in TRACED.items():
            module = getattr(package, mod_name)
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in value.items():
                                if entry is fn:
                                    value[key] = wrapper
        profile_cls = package.profiles.CompactProfile
        profile_cls.fourier_transform = self._wrap(FOURIER, profile_cls.fourier_transform)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        if self._open:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span], wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass whose wall time was `wall`."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    grid_max = [0] * len(spans)
    for span in spans:
        d = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + d
        if span.parent >= 0:
            child_time[span.parent] += d
        if span.name in FFT_CALLS:
            # the grid an integrator ran on is the largest one it transformed
            p = span.parent
            while p >= 0 and spans[p].name not in GRID_OWNERS:
                p = spans[p].parent
            if p >= 0:
                grid_max[p] = max(grid_max[p], span.notes["grid"])

    def secs(name):
        return total.get(name, 0.0)

    def self_time(name):
        return sum(s.end - s.start - child_time[i] for i, s in enumerate(spans) if s.name == name)

    picard = [s for s in spans if s.name == "evolution.picard_expansion"]
    fft_points = sum(s.notes["grid"] for s in spans if s.name in FFT_CALLS)
    m: dict[str, tuple[float, str]] = {
        "evolution.picard_expansion.attempted": (len(picard), "count"),
        "evolution.picard_expansion.completed": (sum(not s.notes["refused"] for s in picard), "count"),
        "evolution.picard_expansion.refused_s": (sum(s.end - s.start for s in picard if s.notes["refused"]), "s"),
        "evolution.picard_expansion.kernel_evals": (sum(s.notes["kernel_evals"] for s in picard), "count"),
        "evolution.picard_expansion.s": (secs("evolution.picard_expansion"), "s"),
        "evolution.split_step_evolve.s": (secs("evolution.split_step_evolve"), "s"),
        "evolution.split_step_evolve.steps": (sum(s.notes["steps"] for s in spans if s.name == "evolution.split_step_evolve"), "count"),
    }
    for owner in GRID_OWNERS:
        m[f"{owner}.grid_points"] = (sum(g for i, g in enumerate(grid_max) if spans[i].name == owner), "count")
    for name in FFT_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["torus.fft_points"] = (fft_points, "count")
    m["torus.fft_bytes_computed"] = (BYTES_PER_POINT * fft_points, "B")
    m["evolution.ode_exact_evolve.s"] = (secs("evolution.ode_exact_evolve"), "s")
    m[f"{FOURIER}.calls"] = (calls.get(FOURIER, 0), "count")
    m[f"{FOURIER}.s"] = (secs(FOURIER), "s")
    for name in ("lab.line_sobolev_norm", "torus.periodize", "evolution.interaction_picture",
                 "torus.sobolev_norm", "constructions.build_two_block_data",
                 "constructions.regime_parameters", "lab.gamma_discrepancy", "lab.feasibility_scan",
                 "lab.emit_report", "cli.build_config"):
        m[f"{name}.s"] = (secs(name), "s")
    for name in RUNNERS + ("cli.main",):
        m[f"{name}.self_s"] = (self_time(name), "s")
    m["evolution.integrators_share"] = (100.0 * sum(secs(n) for n in INTEGRATORS) / wall, "%")
    m["trace.spans"] = (len(spans), "count")
    return m


def median_metrics(per_pass: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {k: (median(p[k][0] for p in per_pass), unit) for k, (_, unit) in per_pass[0].items()}


def write_spans(path, passes: list[list[Span]]) -> None:
    """One tab-separated line per span: pass, index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tindex\tname\tstart\tend\tparent\n")
        for p, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(f"{p}\t{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\n")
