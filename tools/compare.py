"""Compare nlslab reports field by field.

    python3 tools/compare.py A B

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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

# metadata that is printed when it differs but does not fail: {path: label}
PASSING = {"metadata.config": "config echo", "metadata.host": "host"}


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


def main(argv=None, out=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="report file or directory of reports")
    ap.add_argument("b", type=Path, help="report file or directory of reports")
    args = ap.parse_args(argv)
    pairs, lone = _pairs(args.a, args.b)
    for name in lone:
        print(f"{name}: only in {'A' if (args.a / name).exists() else 'B'}", file=out)
    failed = [a.name for a, b in pairs if not compare_pair(a, b, out)]
    print(f"compare: {len(pairs)} pairs, {len(failed) + len(lone)} differ beyond the config "
          "echo and host",
          file=out)
    return 1 if failed or lone else 0


if __name__ == "__main__":
    sys.exit(main())
