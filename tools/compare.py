"""Compare nlslab reports field by field.

    python3 tools/compare.py A B
    python3 tools/compare.py --trees PARENT CHANGE

A and B are two report files, or two directories whose same-named
`*.csv` and `*.json` reports are compared pairwise.  For each pair the
script prints whether the bytes match and, where they do not, every row
field and metadata key whose values differ: the largest absolute and
relative move of its finite numbers, the first change of any other value,
and the values one side lacks.  List indices are folded, so
`rows[].norm_T` covers every row.  A CSV report is read as its rows.

It exits 1 when a row value differs, or a metadata value outside the
config echo `metadata["config"]` and the host `metadata["host"]`, or a
report exists on one side only; otherwise 0.  Echo and host differences
are printed but do not fail: a change to what the echo holds, or to the
numpy that ran, is not a change to what the run computed.  There are no
per-column tolerances: any move, one ulp included, fails.

With --trees, A and B are two checkouts of the repository.  In each, the
script writes the reports of the 5 experiments at their CLI defaults
(named `default_<experiment>`) and of every `benchmarks/configs/*.ini`
(named for the file; the experiment is the file's section), as CSV and
as JSON, running `python3 -m nlslab.cli ... --threads 1` with
PYTHONPATH=<tree>/src, OPENBLAS_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1,
and then compares the two sets as two directories.  The trees are read,
never written: no INI is edited, and no byte-code cache is left in `src/`,
whose presence moves a later benchmark run's start-up time and peak RSS.
A run that fails prints its error and makes the script exit 1.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# metadata that is printed when it differs but does not fail: {path: label}
PASSING = {"metadata.config": "config echo", "metadata.host": "host"}

# the experiments whose CLI defaults --trees runs
EXPERIMENTS = ("inflate", "approx", "periodize", "gamma", "feasibility")


def _cell(text: str):
    """A CSV cell as a number where it reads as one, None where empty."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return {"rows": [{k: _cell(v) for k, v in row.items()}
                     for row in csv.DictReader(io.StringIO(text))]}


def _leaves(value, prefix: str, out: dict) -> dict:
    """{folded path: {path: value}} for every leaf under value; a folded
    path writes each list index as []."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _leaves(item, f"{prefix}[{i}]", out)
    else:
        out.setdefault(re.sub(r"\[\d+\]", "[]", prefix), {})[prefix] = value
    return out


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


def _moves(a: dict, b: dict) -> list[tuple[str, str]]:
    """(folded path, what moved) for each folded path whose values differ."""
    left, right = _leaves(a, "", {}), _leaves(b, "", {})
    found = []
    for key in sorted(set(left) | set(right)):
        la, lb = left.get(key, {}), right.get(key, {})
        parts = []
        for side, mine, theirs in (("A", la, lb), ("B", lb, la)):
            alone = [p for p in mine if p not in theirs]
            if alone:
                parts.append(f"only in {side} ({len(alone)} values)")
        both = [p for p in la if p in lb and not _same(la[p], lb[p])]
        moved = [p for p in both if _finite(la[p]) and _finite(lb[p])]
        if moved:
            diffs = [abs(la[p] - lb[p]) for p in moved]
            rels = [d / max(abs(la[p]), abs(lb[p])) for d, p in zip(diffs, moved)]
            parts.append(f"{len(moved)} values differ, max abs {max(diffs):.3g}, "
                         f"max rel {max(rels):.3g}")
        changed = [p for p in both if p not in moved]
        if changed:
            parts.append(f"{len(changed)} values changed, first {la[changed[0]]!r} -> "
                         f"{lb[changed[0]]!r}")
        if parts:
            found.append((key, "; ".join(parts)))
    return found


def compare_pair(a: Path, b: Path, out=None) -> bool:
    """Print the comparison of reports a and b; True when none of their
    row values or metadata outside PASSING differ."""
    if a.read_bytes() == b.read_bytes():
        print(f"{a.name}: bytes match", file=out)
        return True
    print(f"{a.name}: bytes differ", file=out)
    ok = True
    for key, what in _moves(_load(a), _load(b)):
        label = next((v for k, v in PASSING.items() if key == k or key.startswith(k + ".")), None)
        ok = ok and label is not None
        print(f"  {key}: {what}" + (f" ({label})" if label else ""), file=out)
    return ok


def _pairs(a: Path, b: Path):
    if not a.is_dir():
        return [(a, b)], []
    names = {p.name for d in (a, b) for p in d.iterdir() if p.suffix in (".csv", ".json")}
    lone = sorted(n for n in names if not (a / n).exists() or not (b / n).exists())
    return [(a / n, b / n) for n in sorted(names) if n not in lone], lone


def _tree_runs(tree: Path) -> dict[str, tuple[str, Path | None]]:
    """{report name: (experiment, INI path or None)} of one checkout."""
    runs = {f"default_{name}": (name, None) for name in EXPERIMENTS}
    for ini in sorted((tree / "benchmarks" / "configs").glob("*.ini")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(ini, encoding="utf-8")
        (section,) = parser.sections()
        runs[ini.stem] = (section, ini)
    return runs


def write_tree_reports(tree: Path, dest: Path, names=None, out=None) -> bool:
    """Each report of _tree_runs(tree) (those in `names` when given) as
    dest/<name>.csv and .json, run from tree's own sources; False when a
    run fails."""
    dest.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    runs = _tree_runs(tree)
    unknown = sorted(set(names or ()) - set(runs))
    if unknown:
        print(f"{tree}: no report named {', '.join(unknown)}", file=out)
    ok = not unknown
    for name, (experiment, ini) in runs.items():
        if names is not None and name not in names:
            continue
        for fmt in ("csv", "json"):
            argv = [sys.executable, "-m", "nlslab.cli", experiment, "--format", fmt,
                    "--threads", "1", "--out", str(dest.resolve() / f"{name}.{fmt}")]
            if ini is not None:
                argv += ["--config", str(ini.resolve())]
            run = subprocess.run(argv, env=env, cwd=dest, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{tree}: {name}.{fmt} failed: {run.stderr.strip()}", file=out)
                ok = False
    return ok


def compare_dirs(a: Path, b: Path, out=None) -> int:
    """Compare the same-named reports of directories (or files) a and b;
    the exit status of main."""
    pairs, lone = _pairs(a, b)
    for name in lone:
        print(f"{name}: only in {'A' if (a / name).exists() else 'B'}", file=out)
    failed = [x.name for x, y in pairs if not compare_pair(x, y, out)]
    print(f"compare: {len(pairs)} pairs, {len(failed) + len(lone)} differ beyond the config "
          "echo and host",
          file=out)
    return 1 if failed or lone else 0


def compare_trees(a: Path, b: Path, names=None, out=None) -> int:
    """Run the reports of checkouts a and b (those in `names` when given)
    and compare them; the exit status of main with --trees."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ran = [write_tree_reports(tree, root / side, names, out) for tree, side in ((a, "a"), (b, "b"))]
        status = compare_dirs(root / "a", root / "b", out)
    return 0 if all(ran) and status == 0 else 1


def main(argv=None, out=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="report file or directory of reports (a checkout with --trees)")
    ap.add_argument("b", type=Path, help="report file or directory of reports (a checkout with --trees)")
    ap.add_argument("--trees", action="store_true", help="run the reports of two checkouts, then compare")
    args = ap.parse_args(argv)
    if args.trees:
        return compare_trees(args.a, args.b, out=out)
    return compare_dirs(args.a, args.b, out)


if __name__ == "__main__":
    sys.exit(main())
