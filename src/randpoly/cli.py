"""Command-line entry points: run, verify, taus, presets.

Exit codes: 0 success, 1 configuration/validation error, 2 acceptance
(verification) failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError
from .experiment import PRESETS, _load_config, _malliavin_report, run, verify
from .rng import shared_pool
from .stats import run_replications


def _cmd_run(args) -> int:
    manifest = run(args.config, outdir=args.out, workers=args.workers)
    print(f"run completed in {manifest.wall_seconds:.1f}s; manifest at "
          f"{Path(manifest.tables[0]['csv']).parent / 'manifest.json'}")
    return 0


def _cmd_verify(args) -> int:
    result = verify(args.manifest)
    return 0 if result["ok"] else 2


def _cmd_taus(args) -> int:
    config, _ = _load_config(args.config)
    if config.malliavin is None:
        raise ConfigError("malliavin", "config has no malliavin block")
    t_index = list(config.t_grid).index(config.malliavin.t)
    workers = config.worker_count(args.workers)
    with shared_pool(workers):
        table = run_replications(config, t_index, workers=workers)
        report = _malliavin_report(config, table, workers)
    text = json.dumps({"malliavin_stein": report}, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def _cmd_presets(args) -> int:
    for name in sorted(PRESETS):  # argparse allows the one action, "list"
        print(f"{name:14s} {PRESETS[name]['description']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="randpoly",
        description="Random-polytope Monte Carlo experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute a config file or preset")
    pr.add_argument("config", help="path to a JSON config, or a preset name")
    pr.add_argument("--out", default=None, help="output directory "
                    "(default: config 'outputs', $RANDPOLY_OUTDIR, or ./runs)")
    pr.add_argument("--workers", type=int, default=None,
                    help="override the config's worker count")
    pr.set_defaults(fn=_cmd_run)

    pv = sub.add_parser("verify", help="re-derive and check a finished run")
    pv.add_argument("manifest", help="path to manifest.json")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("taus", help="estimate the difference-operator "
                                     "error terms for a config")
    pt.add_argument("config", help="path to a JSON config with a malliavin "
                                   "block, or a preset name")
    pt.add_argument("--out", default=None, help="also write the JSON here")
    pt.add_argument("--workers", type=int, default=None)
    pt.set_defaults(fn=_cmd_taus)

    pp = sub.add_parser("presets", help="preset catalogue")
    pp.add_argument("action", choices=["list"])
    pp.set_defaults(fn=_cmd_presets)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
