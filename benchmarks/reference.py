"""Regenerate the reference figures of benchmarks/README.md.

    python3 benchmarks/reference.py > reference.md

Runs every workload once untraced and once traced, and `inflate-sweep`
once more at two nlslab worker threads, each for the `run_seconds` of
BENCHMARK.json and with seed 1.  Prints a Markdown section with the
machine, the Python/numpy/scipy versions, the commit and the figures.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
E2E = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def run(workload: str, trace: int, seconds: int, threads: int = 1) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    names = list(WORKLOADS)
    plain = {w: run(w, 0, seconds) for w in names}
    traced = {w: run(w, 1, seconds) for w in names}
    two = run("inflate-sweep", 0, seconds, threads=2)

    print(f"- Machine: {machine()}")
    print(f"- Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"- Commit: {commit()}; seed {SEED}; run_seconds {seconds}")
    print()
    print("| workload | " + " | ".join(E2E) + " | passes | attempted | failed |")
    print("|---" * (len(E2E) + 4) + "|")
    for w, res in plain.items():
        vals = " | ".join(f"{res['metrics'][k]['value']:.3f}" for k in E2E)
        passes = res["attempted"] // len(WORKLOADS[w])
        print(f"| {w} | {vals} | {passes} | {res['attempted']} | {res['failed']} |")
    print()
    one = plain["inflate-sweep"]["metrics"]
    print("`inflate-sweep` at nlslab `threads = 1` and `threads = 2`:")
    print()
    print("| threads | wall_s | cpu_s | peak_rss_mb |")
    print("|---|---|---|---|")
    for k, m in ((1, one), (2, two["metrics"])):
        print(f"| {k} | {m['wall_s']['value']:.3f} | {m['cpu_s']['value']:.3f} | {m['peak_rss_mb']['value']:.1f} |")
    print()
    print("Per-layer metrics of the traced runs (medians over traced passes):")
    print()
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---" + "|---" * len(names) + "|")
    for key, m in traced[names[0]]["metrics"].items():
        vals = " | ".join(f"{traced[w]['metrics'][key]['value']:.6g}" for w in names)
        print(f"| `{key}` | {m['unit']} | {vals} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
