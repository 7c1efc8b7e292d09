"""CSV, JSON, and plot-script emission.

Numeric CSV cells use Python's shortest round-trip float repr so a parse of
the file reproduces the in-memory doubles bit for bit.  Plot emission writes
gnuplot scripts next to the data rather than rendering images.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import ValidationError, strict


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
            cells = [_cells(a[start:start + CSV_CHUNK_ROWS]) for a in arrays]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(values: np.ndarray) -> list[str]:
    """repr of each value, formatted once per bit pattern (which keeps 0.0
    and -0.0 apart) when at most half the values are distinct.  A dict finds
    them: np.unique would page numpy's sort code into runs that never sort."""
    # repr of a Python float from tolist() is repr(float(v))
    floats, keys = values.tolist(), values.view(np.int64).tolist()
    distinct = dict(zip(keys, floats))
    if 2 * len(distinct) > len(keys):
        return list(map(repr, floats))
    table = {key: repr(v) for key, v in distinct.items()}
    return list(map(table.__getitem__, keys))


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(strict(payload), indent=2, sort_keys=True,
                   allow_nan=False) + "\n",
        encoding="utf-8")


def write_plot_script(path: Path, title: str, xlabel: str, ylabel: str,
                      plots: list[str], preamble: list[str] | None = None,
                      surface: bool = False) -> None:
    """Emit a gnuplot script; `plots` are full clauses after plot/splot."""
    lines = [f"# {title}", "set datafile separator ','",
             "set key autotitle columnhead", f"set title '{title}'",
             f"set xlabel '{xlabel}'", f"set ylabel '{ylabel}'"]
    lines.extend(preamble or [])
    verb = "splot" if surface else "plot"
    lines.append(verb + " " + ", \\\n      ".join(plots))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
