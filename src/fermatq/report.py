"""Report rendering and atomic emission.

Rows are tuples in column order: the experiment columns, then the run
metadata (version, seed, wall_seconds).  Floats are fixed at 12 significant
digits so identical runs yield identical bytes; wall_seconds is 0 unless
timings were explicitly requested, for the same reason.  Rows are written
CHUNK_ROWS at a time, and files appear atomically via a temp-file rename,
so an aborted run never leaves a partial report.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from itertools import islice

from . import __version__
from .config import RunConfig

METADATA_COLUMNS = ("version", "seed", "wall_seconds")

CHUNK_ROWS = 4096


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def render(columns: tuple[str, ...], rows: Iterable[tuple], format: str) -> Iterator[str]:
    """The report text of rows, one piece per CHUNK_ROWS rows.  Every cell
    is a scalar, so json chunks cut from their brackets join to one dumps."""
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, CHUNK_ROWS)), [])
    if format == "csv":
        yield ",".join(columns) + "\n"
        for chunk in chunks:
            yield "".join([",".join(map(format_cell, row)) + "\n" for row in chunk])
        return
    sep = "[\n"
    for chunk in chunks:
        yield sep + json.dumps([dict(zip(columns, map(_json_value, row))) for row in chunk], indent=2)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[str]]]:
    lines = text.splitlines()
    header = tuple(lines[0].split(","))
    return header, [line.split(",") for line in lines[1:]]


def write_atomic(chunks: Iterable, path: str) -> None:
    """Write chunks, text or byte buffers, in order to path through a temp
    file and a rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit(columns: tuple[str, ...], rows: Iterable[tuple], config: RunConfig, wall_seconds: float) -> None:
    """Render rows, each followed by the metadata cells the schema lacks,
    to the configured sink as they come."""
    meta = {"version": __version__, "seed": config.seed, "wall_seconds": wall_seconds if config.timings else 0.0}
    tail = tuple(meta[c] for c in METADATA_COLUMNS if c not in columns)  # a schema column is kept as it is
    columns += tuple(c for c in METADATA_COLUMNS if c not in columns)
    pieces = render(columns, (row + tail for row in rows), config.format)
    if config.output_path is None:
        sys.stdout.writelines(pieces)
    else:
        write_atomic(pieces, config.output_path)
