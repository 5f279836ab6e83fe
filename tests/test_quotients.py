import inspect
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatq.arith import BudgetError, is_prime, pow_mod_p2_lanes, primes_up_to
from fermatq.cli import main
from fermatq.config import _TABLE_BYTES_PER_ENTRY, RunConfig
from fermatq.quotients import (
    UNDEFINED,
    QuotientTable,
    cauchy_lower_bound,
    collision_count,
    dump_table,
    fermat_quotient,
    load_table,
    period_histogram,
    quotient_rows,
    quotient_table,
    read_table,
    value_histogram,
    write_table,
)

ODD_PRIMES = primes_up_to(500)[1:]


def bigint_quotient(p, u):
    # full-width oracle: no modular reduction until the very end
    if u % p == 0:
        return None
    return (u ** (p - 1) - 1) // p % p


def test_fermat_quotient_examples():
    assert fermat_quotient(5, 2) == 3
    assert fermat_quotient(5, 5) is None
    assert fermat_quotient(5, 10) is None
    assert fermat_quotient(1093, 2) == 0  # Wieferich
    assert fermat_quotient(3511, 2) == 0


def test_fermat_quotient_against_bigint_oracle():
    for p in (3, 5, 7, 11, 13):
        for u in range(1, 3 * p * p):
            assert fermat_quotient(p, u) == bigint_quotient(p, u), (p, u)


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=300)
def test_fermat_quotient_oracle_random(p, u):
    assert fermat_quotient(p, u) == bigint_quotient(p, u)


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_period_p_squared(p, u):
    assert fermat_quotient(p, u) == fermat_quotient(p, u + p * p)
    assert fermat_quotient(p, u) == fermat_quotient(p, u % (p * p) + p * p)


@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=300)
def test_additivity(p, u, v):
    if u % p == 0 or v % p == 0:
        assert fermat_quotient(p, u * v) is None or u % p != 0 and v % p != 0
        return
    lhs = fermat_quotient(p, u * v % (p * p))
    assert lhs == (fermat_quotient(p, u) + fermat_quotient(p, v)) % p


def test_quotient_table_examples():
    t = quotient_table(5, 4)
    assert [t[n] for n in range(1, 5)] == [0, 3, 1, 1]
    t7 = quotient_table(7, 14)
    assert [t7[n] for n in range(1, 7)] == [0, 2, 6, 4, 6, 1]
    assert t7[7] is None and t7[14] is None


def test_quotient_table_matches_pointwise():
    for p in (3, 7, 13, 499):
        t = quotient_table(p, 2500)
        for n in range(1, 2501):
            assert t[n] == fermat_quotient(p, n), (p, n)


def _prime_at_or_above(x):
    while not is_prime(x):
        x += 1
    return x


@st.composite
def table_cases(draw):
    """(p, n, indices) over the regimes n < p, p <= n < p^2 and n > p^2."""
    if draw(st.booleans()):
        # primes within 1e5 below 2^31; the table then has n < p
        p = _prime_at_or_above(draw(st.integers(2**31 - 10**5, 2**31 - 1)))
        n = draw(st.integers(1, 20_000))
    else:
        p = draw(st.sampled_from(ODD_PRIMES))
        p2 = p * p
        n = draw(
            st.one_of(
                st.integers(1, p - 1),
                st.integers(p, p2 - 1),
                st.integers(p2 + 1, 4 * p2),
                st.sampled_from([p2 - 1, p2, p2 + 1]),
            )
        )
    edges = {1, n, p - 1, p, p + 1, p * p - 1, p * p, p * p + 1}
    sampled = draw(st.lists(st.integers(1, n), max_size=40))
    return p, n, sorted(i for i in edges.union(sampled) if 1 <= i <= n)


@given(table_cases())
@settings(max_examples=150, deadline=None)
def test_quotient_table_matches_direct_pow_at_sampled_indices(case):
    p, n, indices = case
    t = quotient_table(p, n)
    assert t.values.shape == (n + 1,)
    for i in indices:
        assert t[i] == fermat_quotient(p, i), (p, n, i)


def test_pow_mod_p2_ladder_matches_pow():
    p = 2**31 - 1
    p2 = p * p
    # units with the largest base-p digits, whose ladder products come nearest 2^62
    units = [1, 2, p - 1, p + 1, 2 * p - 1, p2 - p - 1, p2 - 1]
    arr = np.array(units, dtype=np.int64)
    for e in (0, 1, 2, p - 1, p, 2**40 + 3):
        got = pow_mod_p2_lanes(arr, e, p)
        assert got.tolist() == [pow(u, e, p2) for u in units], e
    small = np.arange(9, dtype=np.int64)  # every residue mod 3**2
    for e in range(7):
        assert pow_mod_p2_lanes(small, e, 3).tolist() == [pow(u, e, 9) for u in range(9)]


def test_quotient_table_ladder_matches_per_prime_pow():
    # tables of 4 to 255 ladder lanes, entry by entry against one Python pow each
    for p, n in ((3, 8), (5, 30), (7, 1000), (13, 3 * 169), (2**31 - 1, 1618)):
        want = [UNDEFINED if q is None else q for q in (fermat_quotient(p, u) for u in range(n + 1))]
        assert quotient_table(p, n).values.tolist() == want, (p, n)


@st.composite
def row_blocks(draw):
    """(primes, last) with 1 <= last < p^2 at every prime: small primes put
    multiples of p, and so UNDEFINED, inside their rows."""
    primes = draw(st.lists(st.sampled_from(ODD_PRIMES + [65537, 2**31 - 19, 2**31 - 1]), min_size=1, max_size=6))
    return primes, draw(st.integers(1, min(min(primes) ** 2 - 1, 2000)))


@given(row_blocks())
@example(([7, 11, 13], 48))
@settings(max_examples=150, deadline=None)
def test_quotient_rows_match_per_prime_tables(case):
    primes, last = case
    rows = quotient_rows(primes, last)
    assert rows.shape == (len(primes), last + 1)
    for p, row in zip(primes, rows):
        assert np.array_equal(row, quotient_table(p, last).values), (p, last)


def test_quotient_rows_validation():
    for primes, last in (([], 5), ([5], 0), ([5], 25), ([101, 5], 30), ([9], 5)):
        with pytest.raises(ValueError):
            quotient_rows(primes, last)


def test_quotient_table_peak_memory_within_cap_rate():
    n = 100_000  # 9,592 primes, one ladder lane each
    tracemalloc.start()
    try:
        table = quotient_table(2**31 - 1, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n == n
    assert peak <= _TABLE_BYTES_PER_ENTRY * n


def test_quotient_table_bounds_and_cap():
    with pytest.raises(ValueError):
        quotient_table(5, 0)
    # --memcap 24000 admits a table of 1000 entries and refuses one of 1001, before building it
    with pytest.raises(BudgetError, match="1001 entries"):
        RunConfig(memory_cap_bytes=24000).charge("table", entries=1001)
    assert main(["table", "--p", "5", "--n", "1001", "--memcap", "24000"]) == 3
    assert main(["table", "--p", "5", "--n", "1000", "--memcap", "24000"]) == 0
    t = quotient_table(5, 4)
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[5]


def test_image_size_examples():
    assert value_histogram(quotient_table(5, 4)).image == 3
    assert value_histogram(quotient_table(5, 1)).image == 1
    assert value_histogram(quotient_table(7, 6)).image == 5


def test_value_histogram_example():
    h = value_histogram(quotient_table(5, 4))
    assert h.total == 4
    assert list(h.counts) == [1, 2, 0, 1, 0]


@st.composite
def _prime_and_length(draw):
    p = draw(st.sampled_from([q for q in ODD_PRIMES if q <= 97]))
    k = draw(st.integers(1, 4))
    n = draw(st.sampled_from((k * p * p - 1, k * p * p, k * p * p + 1)) | st.integers(1, 5 * p * p))
    return p, n


@settings(max_examples=150, deadline=None)
@given(_prime_and_length())
def test_period_histogram_equals_table_histogram(case):
    p, n = case
    want = value_histogram(quotient_table(p, n))
    got = period_histogram(p, n)
    assert np.array_equal(got.counts, want.counts) and got.counts.dtype == want.counts.dtype
    assert got.total == want.total == n - n // p
    assert got.image == value_histogram(quotient_table(p, n)).image == len(np.unique(quotient_table(p, n).defined()))


def test_period_histogram_beyond_a_table():
    # 10^12 entries: one full-period count per value, plus a 16-entry tail
    h = period_histogram(7, 10**12)
    periods = 10**12 // 49
    assert h.total == 10**12 - 10**12 // 7 and h.image == 7
    assert np.array_equal(h.counts, periods * 6 + value_histogram(quotient_table(7, 10**12 % 49)).counts)
    for bad in (0, -3, 1 << 63):
        with pytest.raises(ValueError):
            period_histogram(7, bad)
    # image charges its 101 counts and the tail's table as one sum: 24 * (101 + 499)
    # bytes admit a tail of 499 entries, not one of 500
    memcap = str(24 * (101 + 499))
    assert main(["image", "--p", "101", "--n", str(101 * 101 + 500), "--memcap", memcap]) == 3
    n = 101 * 101 + 499
    assert main(["image", "--p", "101", "--n", str(n), "--memcap", memcap]) == 0
    assert period_histogram(101, n).total == n - n // 101


def test_value_histogram_excludes_undefined():
    h = value_histogram(quotient_table(5, 25))
    assert h.total == 25 - 5


def test_collision_count_examples():
    assert collision_count(quotient_table(5, 4)) == 6
    assert collision_count(quotient_table(5, 1)) == 1
    assert collision_count(quotient_table(7, 6)) == 8


def test_collision_count_is_pair_enumeration():
    for p, n in ((5, 30), (13, 100)):
        t = quotient_table(p, n)
        vals = [t[i] for i in range(1, n + 1)]
        brute = sum(
            1
            for u in vals
            for v in vals
            if u is not None and v is not None and u == v
        )
        assert collision_count(t) == brute


def test_cauchy_lower_bound():
    h = value_histogram(quotient_table(5, 4))
    assert cauchy_lower_bound(h) == Fraction(16, 6)
    single = value_histogram(quotient_table(5, 1))
    assert cauchy_lower_bound(single) == 1


def test_cauchy_chain():
    # image >= ceil(total^2 / sum of squared counts), exact arithmetic
    for p in (7, 31, 97):
        for n in (10, 50, 400):
            t = quotient_table(p, n)
            h = value_histogram(t)
            assert h.image >= math.ceil(cauchy_lower_bound(h))


def test_dump_golden_bytes():
    t = quotient_table(5, 4)
    expected = (
        b"FQT1"
        + (5).to_bytes(8, "little")
        + (4).to_bytes(8, "little")
        + b"".join(v.to_bytes(4, "little") for v in (0, 3, 1, 1))
    )
    assert dump_table(t) == expected


def test_dump_sentinel_encoding():
    t = quotient_table(5, 5)
    blob = dump_table(t)
    assert blob[20 + 4 * 4 : 20 + 4 * 5] == b"\xff\xff\xff\xff"


def test_dump_load_roundtrip():
    for p, n in ((5, 4), (7, 30), (101, 250)):
        t = quotient_table(p, n)
        back = load_table(dump_table(t))
        assert back.p.p == p and back.n == n
        assert np.array_equal(back.values, t.values)


def test_load_rejects_corruption():
    blob = dump_table(quotient_table(5, 4))
    with pytest.raises(ValueError):
        load_table(blob[:-1])
    with pytest.raises(ValueError):
        load_table(b"XXXX" + blob[4:])
    # entry out of range: patch the q(2) = 3 cell to 7 >= p
    bad = bytearray(blob)
    bad[24:28] = (7).to_bytes(4, "little")
    with pytest.raises(ValueError):
        load_table(bytes(bad))


def test_write_read_roundtrip(tmp_path):
    t = quotient_table(7, 20)
    path = str(tmp_path / "t.bin")
    write_table(t, path)
    back = read_table(path)
    assert np.array_equal(back.values, t.values)


def test_write_table_writes_dump_bytes(tmp_path):
    # header and body go to the file as two buffers; the bytes are dump_table's
    for p, n in ((5, 4), (5, 5), (101, 250)):
        t = quotient_table(p, n)
        write_table(t, str(tmp_path / "t.bin"))
        assert (tmp_path / "t.bin").read_bytes() == dump_table(t)
    assert os.listdir(tmp_path) == ["t.bin"]


def test_table_values_are_frozen():
    t = quotient_table(5, 4)
    assert isinstance(t, QuotientTable)
    with pytest.raises(ValueError):
        t.values[1] = 99
