"""Fermat quotients, batch tables, and residue-value statistics.

The quotient q_p(u) = ((u**(p-1) mod p**2) - 1) / p mod p is defined
for gcd(u, p) = 1 and depends on u only through u mod p**2.  It is
additive, q_p(uv) = q_p(u) + q_p(v) mod p, which lets a batch table
over 1..N get away with one modular power per prime below min(N, p**2);
every other entry is a sum of those, and indices past p**2 repeat.
Those powers are taken together, by the numpy square-and-multiply
ladder mod p**2 of arith (computing quotients in bulk: Ernvall and
Metsankyla, Math. Comp. 66, 1997).  Tables of several primes over one
range share that sieve and ladder as the rows of one block.

Undefined entries (p | n) carry an explicit sentinel and are never
conflated with the value 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import np
from .arith import OddPrime, odd_prime, pow_mod_p2_lanes, primes_between
from .report import write_atomic

if TYPE_CHECKING:
    from fractions import Fraction

# Sentinel for entries with p | n.  Distinct from every quotient value
# (0 <= q < p <= 2^31 - 1) in both the int64 table and the u32 dump.
UNDEFINED = -1
_DUMP_SENTINEL = 0xFFFFFFFF
_DUMP_MAGIC = b"FQT1"


def fermat_quotient(p: int | OddPrime, u: int) -> int | None:
    """q_p(u), or None when p divides u."""
    prime = odd_prime(p)
    if u % prime.p == 0:
        return None
    x = pow(u, prime.p - 1, prime.p2)
    return (x - 1) // prime.p % prime.p


class QuotientTable(NamedTuple):
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


def quotient_rows(primes: Sequence[int | OddPrime], last: int) -> np.ndarray:
    """Quotients over 0..last for a block of primes, one int64 row each,
    for 1 <= last < p**2 at every p: q_p(l) of every prime l <= last from
    one sieve and one ladder over the (p, l) lanes, added at each
    multiple of each power of l as a column, then reduced row by row.
    UNDEFINED sits at the multiples of each row's p, index 0 included."""
    primes = [odd_prime(p) for p in primes]
    if not primes or not 1 <= last < min(prime.p2 for prime in primes):
        raise ValueError(f"need a prime and 1 <= last < p^2 at every prime, got last = {last}")
    ps = np.array([prime.p for prime in primes], dtype=np.int64)[:, None]
    ells = primes_between(2, last)  # its segment is freed before the table is allocated
    lanes = np.broadcast_to(ells, (len(primes), len(ells)))  # one (p, l) pair per lane
    quots = (pow_mod_p2_lanes(lanes, ps - 1, ps) - 1) // ps
    # the lane (p, p) adds only at multiples of p, which become UNDEFINED below
    values = np.zeros((len(primes), last + 1), dtype=np.int64)
    # at most 62 terms below p < 2^31 land on one entry: no overflow
    split = int(np.searchsorted(ells, math.isqrt(last), side="right"))
    for j, ell in enumerate(ells[:split].tolist()):
        power = ell
        while power <= last:
            values[:, power::power] += quots[:, j, None]
            power *= ell
    # a prime above sqrt(last) has no higher power in range: add it at
    # k*l for each cofactor k, all such primes at once (distinct indices),
    # through flat indices, which numpy adds faster than a row-by-column pair
    big, big_quots = ells[split:], quots[:, split:]
    if len(big):
        flat, starts = values.reshape(-1), np.arange(0, values.size, last + 1)[:, None]
        for k in range(1, last // int(big[0]) + 1):
            count = int(np.searchsorted(big, last // k, side="right"))
            flat[(starts + k * big[:count]).ravel()] += big_quots[:, :count].ravel()
    values %= ps
    for row, prime in zip(values, primes):
        row[:: prime.p] = UNDEFINED
    return values


def quotient_table(p: int | OddPrime, n: int) -> QuotientTable:
    """Batch table of q_p over 1..n: the one-row quotient_rows over
    1..min(n, p**2 - 1), repeated with period p**2."""
    prime = odd_prime(p)
    if n < 1:
        raise ValueError(f"table length must be >= 1, got {n}")
    values = quotient_rows([prime], min(n, prime.p2 - 1))[0]
    if n >= prime.p2:
        values = np.resize(values, n + 1)
    values.setflags(write=False)
    return QuotientTable(prime, n, values)


class _ResidueHistogram(NamedTuple):
    p: OddPrime
    counts: np.ndarray  # int64, length p
    total: int


class ResidueHistogram(_ResidueHistogram):
    """Dense counts over residues 0..p-1 with their total, checked when
    built: by the constructor, `_make` or `_replace`."""

    __slots__ = ()

    def __new__(cls, p: OddPrime, counts: np.ndarray, total: int) -> ResidueHistogram:
        if len(counts) != p.p:
            raise ValueError("histogram length must equal the modulus")
        if int(counts.sum()) != total:
            raise ValueError("histogram total does not match its counts")
        return tuple.__new__(cls, (p, counts, total))

    @classmethod
    def _make(cls, fields) -> ResidueHistogram:
        return cls(*fields)

    @property
    def image(self) -> int:
        """Number of residues with a nonzero count."""
        return int(np.count_nonzero(self.counts))


def value_histogram(table: QuotientTable) -> ResidueHistogram:
    """Counts of each quotient value over the defined entries of the table."""
    defined = table.defined()
    counts = np.bincount(defined, minlength=table.p.p)
    counts.setflags(write=False)
    return ResidueHistogram(table.p, counts, len(defined))


def check_histogram_length(n: int) -> None:
    """period_histogram needs 1 <= n < 2**63, where its int64 counts end."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n >= 1 << 63:
        raise ValueError(f"histogram over {n} entries overflows its int64 counts")


def period_histogram(p: int | OddPrime, n: int) -> ResidueHistogram:
    """value_histogram(quotient_table(p, n)) from one period: q_p maps
    (Z/p**2)* onto Z/p, so each run of p**2 consecutive integers takes
    every value exactly p - 1 times, and only the n mod p**2 tail needs a
    table (all of n when n < p**2).  Exact for every n below 2**63, where
    the int64 counts end."""
    prime = odd_prime(p)
    check_histogram_length(n)
    periods, tail = divmod(n, prime.p2)
    counts = np.full(prime.p, periods * (prime.p - 1), dtype=np.int64)
    if tail:
        counts += value_histogram(quotient_table(prime, tail)).counts
    counts.setflags(write=False)
    return ResidueHistogram(prime, counts, n - n // prime.p)


def collision_count(table: QuotientTable) -> int:
    """Ordered pairs (u, v) in the table range with equal, defined quotients."""
    counts = value_histogram(table).counts
    return int((counts.astype(object) ** 2).sum())


def cauchy_lower_bound(hist: ResidueHistogram) -> Fraction:
    """Exact lower bound total**2 / sum(counts**2) for the image size."""
    from fractions import Fraction  # imported where it is used: most calls build none

    if hist.total == 0:
        raise ValueError("empty histogram has no image bound")
    denom = int((hist.counts.astype(object) ** 2).sum())
    return Fraction(hist.total * hist.total, denom)


def _dump_parts(table: QuotientTable) -> tuple[bytes, np.ndarray]:
    """The 20-byte header and the little-endian u32 body of a dump."""
    import struct

    header = struct.pack("<4sQQ", _DUMP_MAGIC, table.p.p, table.n)
    return header, table.values[1:].astype("<u4")  # UNDEFINED (-1) wraps to 0xFFFFFFFF


def dump_table(table: QuotientTable) -> bytes:
    """Serialize: magic 'FQT1', u64 p, u64 n, then n little-endian u32 entries."""
    return b"".join(_dump_parts(table))


def load_table(blob: bytes) -> QuotientTable:
    """Inverse of dump_table; validates magic, length, and entry ranges."""
    import struct

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
    """dump_table's bytes, written from the header and body buffers without
    joining them."""
    write_atomic(_dump_parts(table), path)


def read_table(path: str) -> QuotientTable:
    with open(path, "rb") as fh:
        return load_table(fh.read())
