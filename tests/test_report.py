"""Report rendering: rows stay tuples, rendered a chunk at a time, and the
chunks join to the bytes of one csv join or one json.dumps over every row."""

import json
import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermatq import __version__
from fermatq.config import RunConfig
from fermatq.report import CHUNK_ROWS, emit, format_cell, render

COLUMNS = ("k", "re", "note", "flag", "blank")

CELLS = st.one_of(
    st.integers(),
    st.integers(min_value=1 << 64, max_value=1 << 200),
    st.integers(max_value=-(1 << 64), min_value=-(1 << 200)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.text(),
)


def _json_value(value):
    """A cell as a json report holds it: bools as 0 and 1, floats at 12
    significant digits."""
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _one_csv(columns, rows) -> str:
    return "\n".join([",".join(columns)] + [",".join(format_cell(v) for v in row) for row in rows]) + "\n"


def _one_json(columns, rows) -> str:
    return json.dumps([dict(zip(columns, map(_json_value, row))) for row in rows], indent=2) + "\n"


@given(st.lists(st.tuples(*[CELLS] * len(COLUMNS)), max_size=4))
def test_render_equals_one_join_and_one_dumps(rows):
    for row in rows:
        assert "".join(render(COLUMNS, [row], "json")) == _one_json(COLUMNS, [row])
        assert "".join(render(COLUMNS, [row], "csv")) == _one_csv(COLUMNS, [row])
    assert "".join(render(COLUMNS, rows, "json")) == _one_json(COLUMNS, rows)
    assert "".join(render(COLUMNS, rows, "csv")) == _one_csv(COLUMNS, rows)


@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_chunk_boundaries_keep_the_bytes(count):
    rows = [(k, math.sin(k) * 1e6, f"r{k}", k % 3 == 0, None) for k in range(count)]
    for format, whole in (("json", _one_json), ("csv", _one_csv)):
        pieces = list(render(COLUMNS, iter(rows), format))
        assert "".join(pieces) == whole(COLUMNS, rows)
        assert len(pieces) == -(-count // CHUNK_ROWS) + 1  # a piece per chunk, and the header or closing
    assert "".join(render(COLUMNS, [], "json")) == "[]\n"


@pytest.mark.parametrize("format", ["csv", "json"])
def test_emit_to_out_leaves_nothing_when_rows_raise(tmp_path, format):
    def rows():
        for k in range(2 * CHUNK_ROWS):  # past a chunk, so some text has reached the temp file
            yield (k, 0.5, "x", True, None)
        raise RuntimeError("row source failed")

    config = RunConfig(output_path=str(tmp_path / "report.out"), format=format)
    with pytest.raises(RuntimeError, match="row source failed"):
        emit(COLUMNS, rows(), config, 0.0)
    assert not os.listdir(tmp_path)


def test_metadata_keeps_a_schema_column(capsys):
    emit(("p", "wall_seconds"), [(3, 1.5)], RunConfig(seed=7, timings=True), 9.0)
    out = capsys.readouterr().out
    assert out.splitlines() == ["p,wall_seconds,version,seed", f"3,1.5,{__version__},7"]
