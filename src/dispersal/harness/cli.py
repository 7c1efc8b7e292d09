"""Command line front end: dispersal <command> --config <ini> [--out <dir>].

Exit codes: 0 success, 2 validation, 3 solver failure, 4 acceptance-check
failure.  Failures also leave an error.json in the output directory and a
one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import DispersalError
from .commands import run_command
from .config import SCHEMAS, load_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersal",
        description="dispersal-evolution experiments and checks")
    parser.add_argument("command", choices=sorted(SCHEMAS),
                        help="experiment to run")
    parser.add_argument("--config", default=None,
                        help="INI file with one section per command")
    parser.add_argument("--out", default=None,
                        help="output directory (default runs/<command>)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a single key on top of the config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out if args.out is not None else f"runs/{args.command}"
    try:
        spec = load_spec(args.command, args.config, args.override, out)
    except DispersalError as exc:
        print(json.dumps(exc.to_json_dict(), allow_nan=False), file=sys.stderr)
        return exc.exit_code
    return run_command(spec)


if __name__ == "__main__":
    sys.exit(main())
