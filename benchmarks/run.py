"""Benchmark entry point: run one workload and print its metrics.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a child process of
its own (so its peak memory is its own), at one nlslab worker thread and
one BLAS thread.  With --trace 0 the result holds the end-to-end metrics,
whose times are scaled to a reference host speed (see hostspeed.py);
with --trace 1 it holds the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Without the package source under
src/nlslab the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NLSLAB_THREADS", None)  # --threads decides the worker count
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# A fresh interpreter times the host-speed kernel, imports nlslab, and times
# the kernel again; it prints the kernel's times as JSON.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, "benchmarks")
import hostspeed
before = [hostspeed.time_kernel() for _ in range(3)]
import nlslab
after = [hostspeed.time_kernel() for _ in range(3)]
print(json.dumps(before + after))
"""


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds for a fresh interpreter to `import nlslab`, once per sample,
    scaled to the reference host speed by the kernel runs around the import.

    The first import in a fresh checkout also compiles the bytecode; the
    median keeps that one slow sample out.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        wall = time.perf_counter() - t0
        walls, _, threads = zip(*json.loads(out.strip().splitlines()[-1]))
        times.append((wall - sum(walls)) * hostspeed.speed_factor(threads))
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="passed to nlslab --seed and echoed into the reports; the inputs are fixed")
    ap.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=1, help="nlslab worker threads (default 1)")
    args = ap.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "nlslab" / "__init__.py").is_file():
        print(f"run.py: no nlslab package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    setup = [] if args.trace else measure_setup(env)
    out_dir = ROOT / "benchmarks" / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"result_trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    log_path = out_dir / "child.log"
    cmd = [sys.executable, str(ROOT / "benchmarks" / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--result", str(result_path)]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print(f"run.py: {args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
            return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"run.py: {args.workload} child exited with status {proc.returncode}; "
              f"log tail:\n{log_path.read_text(encoding='utf-8')[-4000:]}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text(encoding="utf-8"))

    n_reports = len(WORKLOADS[args.workload])
    print(f"{args.workload}: {n_reports} reports per pass, seed {args.seed}, "
          f"threads {args.threads}, trace {args.trace}")
    if args.trace:
        metrics = res["layers"]
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    else:
        passes = len(res["walls"])
        metrics = {
            "wall_s": {"value": median(res["scaled_walls"]), "unit": "s"},
            "cpu_s": {"value": median(res["scaled_cpus"]), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
        samples = {"wall_s": f"median of {passes} passes", "cpu_s": f"median of {passes} passes",
                   "setup_s": f"median of {len(setup)} imports", "peak_rss_mb": "1 process"}
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']:3s}  ({samples[name]})")
        print(f"  unscaled: wall {median(res['walls']):.4f} s, cpu {median(res['cpus']):.4f} s "
              f"(median of {passes} passes)")
    print(f"  attempted {res['attempted']}, failed {res['failed']}")
    for line in res["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
