"""Report rendering and atomic emission.

Rows are tuples in column order: the experiment columns, then the run
metadata (version, seed, wall_seconds).  Floats are fixed at 12 significant
digits so identical runs yield identical bytes; wall_seconds is 0 unless
timings were explicitly requested, for the same reason.  Rows are written
CHUNK_ROWS at a time, and files appear atomically via a temp-file rename,
so an aborted run never leaves a partial report.  json is imported only
to render json, and tempfile only to write a file.
"""

from __future__ import annotations

import math
import os
import sys
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


def render(columns: tuple[str, ...], rows: Iterable[tuple], format: str) -> Iterator[str]:
    """The report text of rows, one piece per CHUNK_ROWS rows: the bytes of
    one csv join, or of one json.dumps(..., indent=2) over every row as a
    dict, which _json_pieces writes without building the dicts."""
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, CHUNK_ROWS)), [])
    if format == "json":
        yield from _json_pieces(columns, chunks)
        return
    yield ",".join(columns) + "\n"
    for chunk in chunks:
        yield "".join([",".join(map(format_cell, row)) + "\n" for row in chunk])


def _json_pieces(columns: tuple[str, ...], chunks: Iterable[list[tuple]]) -> Iterator[str]:
    """json.dumps(rows, indent=2) with rows as dicts of columns, bools as
    0 and 1 and floats at 12 significant digits, a chunk at a time: each
    row fills one template whose keys are encoded once, and each cell, a
    scalar, is written by the encoder's rule for its type."""
    from json.encoder import encode_basestring_ascii as encode_str

    def real(value: float) -> str:
        value = float(f"{value:.12g}")
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)

    by_type = {
        float: real,
        int: int.__repr__,
        str: encode_str,
        bool: lambda v: "1" if v else "0",
        type(None): lambda v: "null",
    }

    def derived(value) -> str:
        """A cell whose type derives from a cell type (numpy's float64, say)."""
        for base in (float, int, str):
            if isinstance(value, base):
                return by_type[base](value)
        raise TypeError(f"Object of type {type(value).__name__} is not a report cell")

    keys = [encode_str(c).replace("%", "%%") for c in columns]
    template = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }" if keys else "  {}"
    sep = "[\n"
    for chunk in chunks:
        yield sep + ",\n".join([template % tuple([by_type.get(type(v), derived)(v) for v in row]) for row in chunk])
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def write_atomic(chunks: Iterable, path: str) -> None:
    """Write chunks, text or byte buffers, in order to path through a temp
    file and a rename.  The file gets the mode a plain open would give it,
    0o666 less the umask, where mkstemp makes its temp file 0o600."""
    import tempfile

    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
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
