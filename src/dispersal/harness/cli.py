"""Command line front end: dispersal <command> --config <ini> [--out <dir>].

`main` owns the CLI contract, from argv to the exit code: 0 success, 2
validation (a bad command line, config file, key, value or --out too), 3
solver failure, 4 acceptance-check failure.  A failure prints one strict-JSON
line on stderr and, once the output directory exists, leaves it in error.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .. import __version__
from ..errors import DispersalError, ValidationError
from .commands import _COMMANDS
from .config import SCHEMAS, load_spec
from .io import write_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):     # not usage text: the one diagnostic line
        raise ValidationError("bad command line", reason=message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dispersal",
        description="dispersal-evolution experiments and checks")
    parser.add_argument("command", help="experiment to run: "
                        + ", ".join(sorted(SCHEMAS)))
    parser.add_argument("--config", default=None,
                        help="INI file with one section per command")
    parser.add_argument("--out", default=None,
                        help="output directory (default runs/<command>)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a single key on top of the config file")
    return parser


def main(argv=None) -> int:
    out = None          # the output directory, once it exists
    try:
        args = build_parser().parse_args(argv)
        params, sources = load_spec(args.command, args.config, args.override)
        path = Path(args.out if args.out is not None
                    else f"runs/{args.command}")
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError("cannot make the output directory",
                                  path=str(path), reason=exc.strerror) from exc
        out = path
        started = time.perf_counter()
        summary = _COMMANDS[args.command](params, out)
    except DispersalError as exc:
        payload = exc.to_json_dict()
        if out is not None:
            write_json(out / "error.json", payload)
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        return exc.exit_code
    write_json(out / "summary.json", {
        "command": args.command,
        "params": params,
        "sources": sources,
        "summary": summary,
        "versions": {"dispersal": __version__,
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_time_s": time.perf_counter() - started,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
