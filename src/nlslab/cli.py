"""Command-line entry point.

One subcommand per experiment in lab.RUNNERS.  Each reads an optional INI
config file (one [<experiment>] section per experiment, unknown keys
rejected), applies flag overrides, runs the experiment, writes the report,
and prints a one-line summary.  The INI keys and their types are the
annotated fields of lab.ExperimentConfig.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import types
import typing

from . import lab

# Per-experiment defaults layered over ExperimentConfig's own defaults.
SUBCOMMAND_DEFAULTS: dict[str, dict] = {
    "inflate": {
        "regime": "crit_half",
        "s": -0.5,
        "sweep": (256.0, 512.0, 1024.0, 2048.0, 4096.0),
    },
    "approx": {
        "sweep": (0.025, 0.05, 0.1, 0.2),
        "profile": "bump",
        "periods": (32.0, 64.0, 128.0),
        "band_per_period": 8.0,
    },
    "periodize": {
        "sweep": (8.0, 16.0, 32.0, 64.0),
        "profile": "two_step",
        "amplitude": 1.0,
        "eps": 0.1,
        "band_per_period": 32.0,
    },
    "gamma": {
        "sweep": (1.0, 2.0, 3.0, 4.0),
        "amplitude": 0.7,
        "eps": 0.3,
        "band_per_period": 4.0,
    },
    "feasibility": {
        "s": -0.25,
        "alpha": 0.375,
    },
}


def _split_items(raw: str) -> list[str]:
    return [tok for tok in raw.replace(",", " ").split() if tok]


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SCALAR_PARSERS = {int: int, float: float, bool: _parse_bool, str: str.strip}


def _value_parser(tp):
    """Parser for one field annotation: a scalar, `X | None` (parsed as X),
    or `tuple[T, ...]` (items split on spaces/commas, each parsed as T)."""
    if isinstance(tp, types.UnionType):
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if typing.get_origin(tp) is tuple:
        item = _SCALAR_PARSERS[typing.get_args(tp)[0]]
        return lambda raw: tuple(item(tok) for tok in _split_items(raw))
    return _SCALAR_PARSERS[tp]


# INI key -> parser.  `experiment` is chosen by the subcommand, never by the file.
_PARSERS = {key: _value_parser(tp)
            for key, tp in typing.get_type_hints(lab.ExperimentConfig).items()
            if key != "experiment"}


def parse_config_value(key: str, raw: str):
    """Convert one config-file string to the typed value for `key`."""
    if key not in _PARSERS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r}: {exc}") from exc


def load_config_file(path: str, experiment: str) -> dict:
    """Read the [experiment] section of an INI file into typed kwargs.
    Unknown keys are errors, never silently ignored."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive ("N_list")
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
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r} in [{experiment}] of {path!r}")
        out[key] = parse_config_value(key, raw)
    return out


def build_config(experiment: str, args: argparse.Namespace) -> lab.ExperimentConfig:
    kwargs: dict = {"experiment": experiment}
    kwargs.update(SUBCOMMAND_DEFAULTS[experiment])
    if args.config is not None:
        kwargs.update(load_config_file(args.config, experiment))
    if args.out is not None:
        kwargs["output_path"] = args.out
    if args.format is not None:
        kwargs["fmt"] = args.format
    if args.threads is not None:
        kwargs["threads"] = args.threads
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return lab.ExperimentConfig(**kwargs)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Spectral experiments for norm growth of cubic dispersive flows on scaled tori.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in lab.RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", default=None, help="INI config file with an [%s] section" % name)
        p.add_argument("--out", default=None, help="output path (default: %s_report.<format>)" % name)
        p.add_argument("--format", default=None, choices=("csv", "json"), help="report format (default csv)")
        p.add_argument("--threads", default=None, type=int, help="worker threads (>=1)")
        p.add_argument("--seed", default=None, type=int, help="unsigned 64-bit seed echoed into the report")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.experiment, args)
        report = lab.run_experiment(cfg)
        path = cfg.output_path or f"{cfg.experiment}_report.{cfg.fmt}"
        lab.emit_report(report, cfg.fmt, path)
    except (ValueError, OSError, lab.MethodDisagreementError, lab.TailTargetError,
            lab.StepTargetError) as exc:
        print(f"nlslab: error: {exc}", file=sys.stderr)
        return 1
    print(f"nlslab: wrote {cfg.experiment} report ({len(report.rows)} rows) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
