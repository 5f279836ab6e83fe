"""Every call pinned in the benchmark's perfbench/reference.json reruns in
process with the same report bytes, and the `--dump` calls with the same
dump bytes.  The file is read, never written."""

import hashlib
import json
from pathlib import Path

import pytest

from fermatq.cli import main

PINNED = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# a key K ending in --dump pins the report; K + " dump" pins the dump file
@pytest.mark.parametrize("key", sorted(key for key in PINNED if not key.endswith("--dump dump")))
def test_pinned_call_reproduces_its_digests(capsys, monkeypatch, tmp_path, key):
    for name in ("FERMATQ_THREADS", "FERMATQ_BUDGET", "FERMATQ_MEMCAP"):
        monkeypatch.delenv(name, raising=False)
    argv = key.split()
    dump = tmp_path / "table.fqt"
    if argv[-1] == "--dump":
        argv.append(str(dump))
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == PINNED[key]
    if key + " dump" in PINNED:
        assert sha256(dump.read_bytes()) == PINNED[key + " dump"]


# pinned outside the benchmark's file, with their row counts: the top
# segment of the scan's range, where the factors of p - 1 above 46,340 come
# from the cofactor, not a mark; and the ratio count at the largest p, whose
# count of 4,001,784 a pure-Python pow over x = 1..10^6 gives too
TOP_OF_RANGE = {
    "scan --pmin 2147283648 --pmax 2147483647": ("04c469356b1558ea52e93f8a59fbe9d52332db1b934384c8897e62ead361358a", 9316),
    "ratios --p 2147483647 --Z 1000000": ("e4e546ec711c904712073fed448b665324309be518fba2d274e47b401444ef69", 1),
}


@pytest.mark.parametrize("key", sorted(TOP_OF_RANGE))
def test_top_of_range_reproduces_its_digest(capsys, monkeypatch, key):
    for name in ("FERMATQ_THREADS", "FERMATQ_BUDGET", "FERMATQ_MEMCAP"):
        monkeypatch.delenv(name, raising=False)
    assert main(key.split()) == 0
    out = capsys.readouterr().out
    digest, rows = TOP_OF_RANGE[key]
    assert out.count("\n") == 1 + rows  # the header and the rows
    assert sha256(out.encode()) == digest
