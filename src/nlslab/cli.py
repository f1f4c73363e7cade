"""Command-line entry point.

One subcommand per experiment in lab.RUNNERS.  Each reads an optional INI
config file (one [<experiment>] section per experiment, unknown keys
rejected), applies flag overrides, runs the experiment, writes the report,
and prints a one-line summary.  An experiment's INI keys and their types
are the annotated fields of its config class in lab.CONFIGS.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import types
import typing

from . import lab


def _split_items(raw: str) -> list[str]:
    return [tok for tok in raw.replace(",", " ").split() if tok]


_SCALAR_PARSERS = {int: int, float: float, str: str.strip}


def _value_parser(tp):
    """Parser for one field annotation: a scalar, `X | None` (parsed as X),
    or `tuple[T, ...]` (items split on spaces/commas, each parsed as T)."""
    if isinstance(tp, types.UnionType):
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if typing.get_origin(tp) is tuple:
        item = _SCALAR_PARSERS[typing.get_args(tp)[0]]
        return lambda raw: tuple(item(tok) for tok in _split_items(raw))
    return _SCALAR_PARSERS[tp]


# experiment -> INI key -> parser, one key per field of the experiment's
# class.  The experiment itself is chosen by the subcommand, never by the file.
_PARSERS = {name: {key: _value_parser(tp) for key, tp in typing.get_type_hints(cls).items()
                   if key != "experiment"}
            for name, cls in lab.CONFIGS.items()}


def parse_config_value(experiment: str, key: str, raw: str):
    """Convert one config-file string to the typed value of `experiment`'s `key`."""
    parsers = _PARSERS[experiment]
    if key not in parsers:
        raise ValueError(f"unknown config key {key!r} in [{experiment}]")
    try:
        return parsers[key](raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r}: {exc}") from exc


def load_config_file(path: str, experiment: str) -> dict:
    """Read the [experiment] section of an INI file into typed kwargs.
    Unknown keys are errors, never silently ignored."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise OSError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path!r}: {exc}") from exc
    if not parser.has_section(experiment):
        raise ValueError(f"config file {path!r} has no [{experiment}] section")
    out = {}
    for key, raw in parser.items(experiment):
        if key not in _PARSERS[experiment]:
            raise ValueError(f"unknown config key {key!r} in [{experiment}] of {path!r}")
        out[key] = parse_config_value(experiment, key, raw)
    return out


def build_config(experiment: str, args: argparse.Namespace) -> lab.ExperimentConfig:
    """The experiment's config: its class defaults, then the INI file, then the flags."""
    kwargs = load_config_file(args.config, experiment) if args.config is not None else {}
    flags = {"threads": args.threads, "seed": args.seed}
    kwargs.update((key, value) for key, value in flags.items() if value is not None)
    return lab.CONFIGS[experiment](**kwargs)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab", allow_abbrev=False,  # a prefix such as --s would run as --seed
        description="Spectral experiments for norm growth of cubic dispersive flows on scaled tori.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in lab.RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__, allow_abbrev=False)
        p.add_argument("--config", default=None, help="INI config file with an [%s] section" % name)
        p.add_argument("--out", default=None, help="output path (default: %s_report.<format>)" % name)
        p.add_argument("--format", default="csv", choices=("csv", "json"), help="report format (default csv)")
        p.add_argument("--threads", default=None, type=int, help="worker threads (>=1)")
        p.add_argument("--seed", default=None, type=int, help="unsigned 64-bit seed echoed into the report")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.experiment, args)
        report = lab.run_experiment(cfg)
        path = lab.emit_report(report, args.format, args.out or f"{cfg.experiment}_report.{args.format}")
    except (ValueError, OSError, OverflowError) as exc:
        print(f"nlslab: error: {exc}", file=sys.stderr)
        return 1
    print(f"nlslab: wrote {cfg.experiment} report ({len(report.rows)} rows) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
