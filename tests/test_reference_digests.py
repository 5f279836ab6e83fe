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
