"""CSV, JSON, and plot-script emission.

Numeric CSV cells use Python's shortest round-trip float repr so a parse of
the file reproduces the in-memory doubles bit for bit.  Plot emission writes
gnuplot scripts next to the data rather than rendering images.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ValidationError, plain


CSV_CHUNK_ROWS = 1024  # rows converted per write: bounds the Python strings alive


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    if len(header) != len(columns):
        raise ValidationError("csv header and column count differ",
                              header=len(header), columns=len(columns))
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValidationError("csv columns have unequal lengths",
                              lengths=sorted(lengths))
    arrays = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(arrays[0]) if arrays else 0, CSV_CHUNK_ROWS):
            # repr of a Python float from tolist() is repr(float(v))
            cells = [list(map(repr, a[start:start + CSV_CHUNK_ROWS].tolist()))
                     for a in arrays]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ValidationError("empty csv", path=str(path))
    header = text[0].split(",")
    cells = [line.split(",") for line in text[1:]]
    out = {}
    for k, name in enumerate(header):
        out[name] = np.array([float(row[k]) for row in cells])
    return out


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=plain) + "\n",
        encoding="utf-8")


def write_plot_script(path: Path, title: str, xlabel: str, ylabel: str,
                      plots: list[str], preamble: list[str] | None = None,
                      surface: bool = False) -> None:
    """Emit a gnuplot script; `plots` are full clauses after plot/splot."""
    lines = [
        f"# {title}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
    ]
    lines.extend(preamble or [])
    verb = "splot" if surface else "plot"
    lines.append(verb + " " + ", \\\n      ".join(plots))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
