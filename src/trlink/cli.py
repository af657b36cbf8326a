"""Command-line front end.

Subcommands: ``synth`` (generate + export an ensemble), ``sound``
(estimation-error study), ``focus`` (focusing maps and two-user
interference), ``ber`` (BER sweep); each takes a scenario file. The
invariant checks live in the test suite (``tests/test_acceptance.py``).
Exit codes: 0 success, 2 configuration error (bad flags, missing or invalid
scenario), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .channel import export_ensemble
from .errors import ConfigurationError, TrLinkError
from .harness import (
    Scenario,
    load_scenario,
    run_ber_sweep,
    run_focusing_experiment,
    run_sounding_study,
)

_EXIT_OK = 0
_EXIT_RUNTIME = 1
_EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trlink",
        description="Time-reversal precoding link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("synth", "synthesise a channel ensemble and export it as JSON+CSV"),
        ("sound", "channel-estimation error vs time-bandwidth product"),
        ("focus", "spatiotemporal focusing maps and two-user interference"),
        ("ber", "Monte-Carlo BER sweep over (scheme, spacing, SNR)"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default="results", help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the scenario master seed")
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, master_seed=args.seed)
    return scenario


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario = _load(args)
        out_dir = Path(args.out)

        if args.command == "synth":
            ensemble = scenario.ensemble_for_trial(0)
            target = out_dir / "ensemble.json"
            export_ensemble(ensemble, target)
            print(f"wrote {target} and {target.with_suffix('.csv')}")
        elif args.command == "sound":
            rows = run_sounding_study(scenario, out_dir)
            for tb, snr_db, err in rows:
                print(f"TB={tb}  probe_snr_db={snr_db}  error={err:.3e}")
            print(f"wrote {out_dir / 'sounding_error.csv'}")
        elif args.command == "focus":
            reports = run_focusing_experiment(scenario, out_dir)
            print(f"wrote {len(reports)} focusing CSVs to {out_dir}")
        elif args.command == "ber":
            records = run_ber_sweep(scenario, out_dir)
            files = {(r.scheme, r.d) for r in records}
            print(f"wrote {len(files)} BER CSVs ({len(records)} records) to {out_dir}")
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown command {args.command!r}")
        return _EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except TrLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
