"""Fermat quotients, batch tables, and residue-value statistics.

The quotient q_p(u) = ((u**(p-1) mod p**2) - 1) / p mod p is defined
for gcd(u, p) = 1 and depends on u only through u mod p**2.  It is
additive, q_p(uv) = q_p(u) + q_p(v) mod p, which lets a batch table
over 1..N get away with one modular power per prime below min(N, p**2);
every other entry is a sum of those, and indices past p**2 repeat.

Undefined entries (p | n) carry an explicit sentinel and are never
conflated with the value 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import BudgetError, OddPrime, odd_prime, primes_up_to
from .report import write_atomic

# Sentinel for entries with p | n.  Distinct from every quotient value
# (0 <= q < p <= 2^31 - 1) in both the int64 table and the u32 dump.
UNDEFINED = -1
_DUMP_SENTINEL = 0xFFFFFFFF
_DUMP_MAGIC = b"FQT1"

DEFAULT_TABLE_CAP = 1 << 26


def fermat_quotient(p: int | OddPrime, u: int) -> int | None:
    """q_p(u), or None when p divides u."""
    prime = odd_prime(p)
    if u % prime.p == 0:
        return None
    x = pow(u, prime.p - 1, prime.p2)
    return (x - 1) // prime.p % prime.p


@dataclass(frozen=True)
class QuotientTable:
    """Quotients for 1..n at a fixed prime; values[0] is unused."""

    p: OddPrime
    n: int
    values: np.ndarray  # int64, UNDEFINED where p | index

    def __getitem__(self, n: int) -> int | None:
        if not 1 <= n <= self.n:
            raise IndexError(f"index {n} outside 1..{self.n}")
        v = int(self.values[n])
        return None if v == UNDEFINED else v

    def defined(self) -> np.ndarray:
        """Quotient values over 1..n with undefined entries dropped."""
        body = self.values[1:]
        return body[body != UNDEFINED]


def quotient_table(p: int | OddPrime, n: int, *, max_entries: int = DEFAULT_TABLE_CAP) -> QuotientTable:
    """Batch table of q_p over 1..n: q_p(l) added at every multiple of each
    power of each prime l != p below p**2, then repeated with period p**2."""
    prime = odd_prime(p)
    if n < 1:
        raise ValueError(f"table length must be >= 1, got {n}")
    if n > max_entries:
        raise BudgetError(f"table of {n} entries exceeds cap {max_entries}")
    pp, p2 = prime.p, prime.p2
    last = min(n, p2 - 1)
    primes = primes_up_to(last)  # its sieve is freed before the table is allocated
    values = np.zeros(last + 1, dtype=np.int64)
    for ell in primes:
        if ell == pp:
            continue
        q = (pow(ell, pp - 1, p2) - 1) // pp
        power = ell
        while power <= last:
            values[power::power] += q  # at most 62 terms below p < 2^31: no overflow
            power *= ell
    values %= pp
    values[::pp] = UNDEFINED
    if n >= p2:
        values = np.resize(values, n + 1)
    values.setflags(write=False)
    return QuotientTable(prime, n, values)


def image_size(table: QuotientTable) -> int:
    """Number of distinct quotient values attained over the table range."""
    return len(np.unique(table.defined()))


@dataclass(frozen=True)
class ResidueHistogram:
    """Dense counts over residues 0..p-1 with their total."""

    p: OddPrime
    counts: np.ndarray  # int64, length p
    total: int

    def __post_init__(self):
        if len(self.counts) != self.p.p:
            raise ValueError("histogram length must equal the modulus")
        if int(self.counts.sum()) != self.total:
            raise ValueError("histogram total does not match its counts")


def value_histogram(table: QuotientTable) -> ResidueHistogram:
    """Counts of each quotient value over the defined entries of the table."""
    defined = table.defined()
    counts = np.bincount(defined, minlength=table.p.p)
    counts.setflags(write=False)
    return ResidueHistogram(table.p, counts, len(defined))


def collision_count(table: QuotientTable) -> int:
    """Ordered pairs (u, v) in the table range with equal, defined quotients."""
    counts = value_histogram(table).counts
    return int((counts.astype(object) ** 2).sum())


def cauchy_lower_bound(hist: ResidueHistogram) -> Fraction:
    """Exact lower bound total**2 / sum(counts**2) for the image size."""
    if hist.total == 0:
        raise ValueError("empty histogram has no image bound")
    denom = int((hist.counts.astype(object) ** 2).sum())
    return Fraction(hist.total * hist.total, denom)


def dump_table(table: QuotientTable) -> bytes:
    """Serialize: magic 'FQT1', u64 p, u64 n, then n little-endian u32 entries."""
    header = struct.pack("<4sQQ", _DUMP_MAGIC, table.p.p, table.n)
    body = table.values[1:].astype("<u4")  # UNDEFINED (-1) wraps to 0xFFFFFFFF
    return header + body.tobytes()


def load_table(blob: bytes) -> QuotientTable:
    """Inverse of dump_table; validates magic, length, and entry ranges."""
    if len(blob) < 20 or blob[:4] != _DUMP_MAGIC:
        raise ValueError("bad table header")
    _, p, n = struct.unpack_from("<4sQQ", blob)
    if len(blob) != 20 + 4 * n:
        raise ValueError(f"table body length mismatch: expected {n} entries")
    prime = odd_prime(int(p))
    raw = np.frombuffer(blob, dtype="<u4", offset=20).astype(np.int64)
    values = np.empty(n + 1, dtype=np.int64)
    values[0] = UNDEFINED
    values[1:] = np.where(raw == _DUMP_SENTINEL, UNDEFINED, raw)
    defined = values[1:][values[1:] != UNDEFINED]
    if len(defined) and (defined.min() < 0 or defined.max() >= prime.p):
        raise ValueError("table entry outside 0..p-1")
    values.setflags(write=False)
    return QuotientTable(prime, int(n), values)


def write_table(table: QuotientTable, path: str) -> None:
    write_atomic(dump_table(table), path)


def read_table(path: str) -> QuotientTable:
    with open(path, "rb") as fh:
        return load_table(fh.read())
