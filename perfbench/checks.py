"""Correctness checks on fermatq reports, independent of fermatq's code.

Reports and dumps are compared with SHA-256 digests pinned at the
commit that introduced the benchmark (reference.json).  On top of that,
spot checks recompute answers with plain Python integers: sampled dump
entries by direct pow, the seeded `quotient` call, and the least n of
sampled scan rows and of the primroot and nonres calls by a direct
search.  None of them imports fermatq.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DUMP_SAMPLES = 2000
SCAN_SAMPLES = 200


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())


def quotient(p: int, u: int) -> int | None:
    if u % p == 0:
        return None
    return (pow(u, p - 1, p * p) - 1) // p % p


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _least_n(p: int, predicate) -> int:
    n = 2
    while True:
        q = quotient(p, n)
        if q and predicate(q):
            return n
        n += 1


def least_primroot_n(p: int) -> int:
    factors = _prime_factors(p - 1)
    return _least_n(p, lambda q: all(pow(q, (p - 1) // f, p) != 1 for f in factors))


def least_nonresidue_n(p: int, d: int) -> int:
    return _least_n(p, lambda q: pow(q, (p - 1) // d, p) != 1)


def _rows(text: str) -> list[dict[str, str]]:
    if text.lstrip().startswith("["):
        return [{k: str(v) for k, v in row.items()} for row in json.loads(text)]
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_report(call, out: bytes, reference: dict[str, str], rng: random.Random) -> list[str]:
    """Problems with one call's report; empty when it is correct."""
    problems = []
    if call.check == "quotient-oracle":
        (row,) = _rows(out.decode())
        p, u = int(row["p"]), int(row["u"])
        if [p, u] != [int(call.args[2]), int(call.args[4])] or row["q"] != str(quotient(p, u)):
            problems.append(f"quotient row {row} disagrees with direct pow")
        return problems
    if sha256(out) != reference.get(call.key):
        problems.append("report bytes differ from the pinned reference")
    rows = _rows(out.decode(errors="replace")) if out else []
    if call.args[0] in ("scan", "primroot", "nonres"):
        if not rows or any(row.get("verified") != "1" for row in rows):
            problems.append("a verified cell is not 1")
        picked = rng.sample(rows, min(SCAN_SAMPLES, len(rows))) if call.args[0] == "scan" else rows
        for row in picked:
            p = int(row["p"])
            want = least_nonresidue_n(p, int(row["d"])) if "d" in row else least_primroot_n(p)
            if row.get("n_min") != str(want):
                problems.append(f"n_min at p={p} is {row.get('n_min')}, direct search gives {want}")
                break
    return problems


def check_dump(call, blob: bytes, reference: dict[str, str], rng: random.Random) -> list[str]:
    problems = []
    if sha256(blob) != reference.get(call.key + " dump"):
        problems.append("dump bytes differ from the pinned reference")
    if len(blob) < 20 or blob[:4] != b"FQT1":
        return problems + ["dump header is not FQT1"]
    _, p, n = struct.unpack_from("<4sQQ", blob)
    if len(blob) != 20 + 4 * n:
        return problems + [f"dump holds {(len(blob) - 20) // 4} entries, header says {n}"]
    for u in rng.sample(range(1, n + 1), min(DUMP_SAMPLES, n)):
        (entry,) = struct.unpack_from("<I", blob, 20 + 4 * (u - 1))
        q = quotient(p, u)
        if entry != (0xFFFFFFFF if q is None else q):
            problems.append(f"dump entry {u} is {entry}, direct pow gives {q}")
            break
    return problems

