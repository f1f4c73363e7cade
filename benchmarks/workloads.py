"""The benchmark's workloads, and the child process that runs one of them.

A workload is a fixed list of reports, each one `nlslab` CLI invocation
(`nlslab.cli.main`) whose inputs are an INI file under `configs/` or the
CLI defaults.  Every report in a pass is one operation.  The child process
runs an untimed warm-up pass, then timed passes for the requested number
of seconds, each scaled to a reference host speed by `hostspeed`; with
tracing on it runs untraced passes without the probe, installs the tracer
and runs traced passes.  Each report is checked after every pass, and
every pass must write the same bytes as the first one.

Run by `run.py`; writes one JSON result to the path given with --result.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import checks
import hostspeed
import tracer

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = Path("benchmarks/configs")


@dataclass(frozen=True)
class Report:
    name: str
    experiment: str
    config: str | None  # INI file under configs/, or None for the CLI defaults
    check: Callable[[dict, dict], list[str]]


def _inflate(name: str, config: str, expect_no_skips: bool) -> Report:
    return Report(name, "inflate", config,
                  functools.partial(checks.check_inflate, expect_no_skips=expect_no_skips))


def _default(name: str, check) -> Report:
    return Report(name, name, None, lambda report, params: check(report))


WORKLOADS: dict[str, tuple[Report, ...]] = {
    "inflate-sweep": tuple(_inflate(r, f"inflate-sweep_{r}.ini", False)
                           for r in ("crit_half", "frac_crit", "negative_s")),
    "picard-series": tuple(_inflate(r, f"picard-series_{r}.ini", True)
                           for r in ("crit_half", "frac_crit")),
    "small-band": (_default("approx", checks.check_approx),
                   _default("gamma", checks.check_gamma),
                   _default("periodize", checks.check_periodize),
                   _default("feasibility", checks.check_feasibility)),
}


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # nlslab keys are case-sensitive ("N_list")
    parser.read(path, encoding="utf-8")
    return parser


def _argv(report: Report, config: Path | None, out: Path, seed: int, threads: int) -> list[str]:
    argv = [report.experiment, "--format", "json", "--out", str(out),
            "--threads", str(threads), "--seed", str(seed)]
    return argv + (["--config", str(config)] if config is not None else [])


def _warmup_config(report: Report, out_dir: Path) -> Path | None:
    """The report's INI with its sweep cut to the first value.

    A full warm-up pass of the inflate workloads would double their run
    time to settle first-call costs that are far below 1 % of a pass.
    """
    if report.config is None:
        return None
    parser = _read_ini(CONFIGS / report.config)
    section = parser[report.experiment]
    section["sweep"] = section["sweep"].split()[0]
    path = out_dir / f"warmup_{report.name}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


class Runner:
    """Runs passes over one workload's reports and checks what they write."""

    def __init__(self, cli, reports, out_dir: Path, seed: int, threads: int):
        self.cli = cli
        self.reports = reports
        self.params = [dict(_read_ini(CONFIGS / r.config)[r.experiment]) if r.config else {}
                       for r in reports]
        self.outs = [out_dir / f"{r.name}.json" for r in reports]
        self.argvs = [_argv(r, CONFIGS / r.config if r.config else None, out, seed, threads)
                      for r, out in zip(reports, self.outs)]
        self.warmup_argvs = [_argv(r, _warmup_config(r, out_dir), out_dir / f"warmup_{r.name}.json",
                                   seed, threads) for r in reports]
        self.first_bytes: list[bytes | None] = [None] * len(reports)
        self.problems: list[list[str]] = [[] for _ in reports]
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.scaled_walls: list[float] = []
        self.scaled_cpus: list[float] = []

    def _call(self, argv) -> int | str:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # the CLI would exit with a traceback
            return f"{type(exc).__name__}: {exc}"

    def warm_up(self) -> None:
        for argv in self.warmup_argvs:
            self._call(argv)

    def run_pass(self, probe: bool) -> float:
        """One pass over the reports; with `probe`, also its time scaled by
        the host-speed probe (see hostspeed.py)."""
        with hostspeed.SpeedProbe() if probe else contextlib.nullcontext() as speed:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            codes = [self._call(argv) for argv in self.argvs]
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.walls.append(wall)
        self.cpus.append(cpu)
        if speed is not None:
            scaled_wall, scaled_cpu = speed.scaled(wall, cpu)
            self.scaled_walls.append(scaled_wall)
            self.scaled_cpus.append(scaled_cpu)
        for i, code in enumerate(codes):
            self.attempted += 1
            problems = [f"exit status {code!r}"] if code != 0 else self._check(i)
            if problems:
                self.failed += 1
                self.failures.extend(f"{self.reports[i].name}: {p}" for p in problems)
        return wall

    def _check(self, i: int) -> list[str]:
        """Check the report the first time it is written; later passes must
        write the same bytes."""
        data = self.outs[i].read_bytes()
        if self.first_bytes[i] is None:
            self.first_bytes[i] = data
            try:
                self.problems[i] = self.reports[i].check(json.loads(data), self.params[i])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self.problems[i] = [f"report unreadable by the checks: {exc!r}"]
        problems = (self.problems[i] if data == self.first_bytes[i]
                    else ["report bytes differ from the first pass"])
        self.check_failed |= bool(problems)
        return problems

    def passes_for(self, seconds: float, probe: bool = False):
        """Run whole passes, at least one, until `seconds` have gone by;
        yields each pass's wall time as it ends."""
        start, done = time.perf_counter(), False
        while not done or time.perf_counter() - start < seconds:
            yield self.run_pass(probe)
            done = True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import nlslab
    import nlslab.cli

    if Path(nlslab.__file__).resolve().parent != ROOT / "src" / "nlslab":
        raise SystemExit(f"imported nlslab from {nlslab.__file__}, not from src/")
    out_dir = Path("benchmarks/out") / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(nlslab.cli, WORKLOADS[args.workload], out_dir, args.seed, args.threads)
    runner.warm_up()
    # the end-to-end passes are scaled by the host-speed probe; the probe
    # stays off when the passes only serve as the tracer's baseline
    untraced = list(runner.passes_for(args.seconds, probe=not args.trace))
    result = {}
    if args.trace:
        tr = tracer.Tracer()
        tr.install(nlslab)
        spans, layers = [], []
        for wall in runner.passes_for(args.seconds):
            spans.append(tr.take())
            layers.append(tracer.layer_metrics(spans[-1], wall))
        metrics = tracer.median_metrics(layers)
        traced_wall = median(runner.walls[len(untraced):])
        metrics["trace.untraced_wall_s"] = (median(untraced), "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - median(untraced), "s")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        tracer.write_spans(out_dir / "spans.tsv", spans)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        correct=not runner.check_failed,
        failures=runner.failures[:20],
        walls=runner.walls,
        cpus=runner.cpus,
        scaled_walls=runner.scaled_walls,
        scaled_cpus=runner.scaled_cpus,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
