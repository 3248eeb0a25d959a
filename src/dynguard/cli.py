"""Command-line front end.

Three subcommands share one config format (see :mod:`dynguard.config`):

    dynguard analytic --config FILE [--out FILE]            analytic curves only
    dynguard simulate --config FILE [--out FILE] [--seed N] force simulation on
    dynguard sweep    --config FILE [--out FILE] [--seed N] run the config as written

``--out`` overrides the config's output path; ``--seed`` replaces the
config's seed list with a single seed. Exit codes: 0 success, 1 config or
validation error (a missing output directory among them), 2 runtime failure,
130 stopped by Ctrl-C (SIGINT), 143 stopped by SIGTERM.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_config
from .sweep import emit_csv, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynguard",
        description="Analytic and simulated blocking/utilization sweeps "
        "for dynamic guard-channel reservation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("analytic", "evaluate the analytic models only (simulation off)"),
        ("simulate", "run with simulation enabled regardless of the config"),
        ("sweep", "run the sweep exactly as configured"),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--config", required=True, help="path to the sweep config file")
        cmd.add_argument("--out", help="output CSV path (overrides the config's 'out')")
        cmd.add_argument("--seed", type=int, help="replace the config's seed list with one seed")
    return parser


def main(argv=None) -> int:
    # Imported here, so importing the package does not pay for it. While the CLI
    # runs, SIGTERM and Ctrl-C exit through every finally, so a sweep ends its pool.
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():  # only it may set a handler
        return _main(argv)
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    finally:
        signal.signal(signal.SIGTERM, previous)


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "analytic":
            config = replace(config, sim_enabled=False)
        elif args.command == "simulate":
            config = replace(config, sim_enabled=True)
        if args.seed is not None:
            try:
                config = replace(config, sim_seeds=(args.seed,))
            except ValueError as exc:
                raise ConfigError(f"--seed {args.seed}: {exc}") from None
        out = args.out or config.out_path
        if out is None:
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        if not Path(out).parent.is_dir():
            source = "--out" if args.out else "the config's 'out'"
            raise ConfigError(f"{source} {out}: directory {Path(out).parent} does not exist")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(config)
        emit_csv(rows, out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
