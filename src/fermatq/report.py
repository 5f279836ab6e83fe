"""Report rendering and atomic emission.

Every row carries its experiment columns first, then the run metadata
(version, seed, wall_seconds).  Floats are fixed at 12 significant
digits so identical runs yield identical bytes; wall_seconds is 0
unless timings were explicitly requested, for the same reason.
Files appear atomically via a temp-file rename, so an aborted run
never leaves a partial report.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections.abc import Sequence

from . import __version__
from .config import RunConfig

METADATA_COLUMNS = ("version", "seed", "wall_seconds")


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


def render_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(format_cell(row[c]) for c in columns))
    return "\n".join(out) + "\n"


def render_json(columns: tuple[str, ...], rows: list[dict]) -> str:
    payload = [{c: _json_value(row[c]) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[str]]]:
    lines = text.splitlines()
    header = tuple(lines[0].split(","))
    return header, [line.split(",") for line in lines[1:]]


def attach_metadata(rows: list[dict], config: RunConfig, wall_seconds: float) -> list[dict]:
    """Fill in version/seed/wall_seconds without clobbering schema columns."""
    stamp = wall_seconds if config.timings else 0.0
    meta = {"version": __version__, "seed": config.seed, "wall_seconds": stamp}
    out = []
    for row in rows:
        merged = dict(row)
        for key, value in meta.items():
            merged.setdefault(key, value)
        out.append(merged)
    return out


def write_atomic(data: str | bytes | Sequence, path: str) -> None:
    """Write data (text, bytes, or byte buffers in order) to path through
    a temp file and a rename."""
    chunks = [data] if isinstance(data, (str, bytes)) else data
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit(columns: tuple[str, ...], rows: list[dict], config: RunConfig, wall_seconds: float) -> None:
    """Render rows (metadata appended) to the configured sink."""
    full = attach_metadata(rows, config, wall_seconds)
    cols = columns + tuple(c for c in METADATA_COLUMNS if c not in columns)
    text = render_csv(cols, full) if config.format == "csv" else render_json(cols, full)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        write_atomic(text, config.output_path)
