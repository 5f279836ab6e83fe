import cmath
import inspect
import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatq import arith, quotients, sieve
from fermatq.arith import OddPrime, primes_up_to
from fermatq.cli import main
from fermatq.config import RunConfig
from fermatq.quotients import period_histogram, quotient_rows, quotient_table
from fermatq.sieve import (
    Theorem1Result,
    TrigPolynomial,
    exceptional_counts,
    large_sieve_lhs,
    large_sieve_rhs,
    lhs_steps,
    parseval_check,
    power_rule,
    rho_coefficient,
    sieve_reports,
    theorem1_average,
    transform_length,
    trig_poly_eval,
    window_cost,
    window_pairs,
    zhao_conjecture_rhs,
)

complex_coeffs = st.lists(
    st.tuples(
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
).map(lambda pairs: TrigPolynomial(np.array([complex(re, im) for re, im in pairs])))


def naive_eval(poly, num, den):
    return sum(
        c * cmath.exp(2j * cmath.pi * (k * num % den) / den)
        for k, c in enumerate(poly.coeffs, start=1)
    )


def test_trig_poly_eval_example():
    poly = TrigPolynomial(np.array([1.0, 1.0, 1.0], dtype=complex))
    assert abs(trig_poly_eval(poly, Fraction(1, 3))) < 1e-12


def test_trig_poly_eval_matches_naive():
    poly = TrigPolynomial(np.array([1 + 2j, -0.5, 3j, 0.25]))
    for num, den in ((0, 1), (1, 4), (3, 7), (5, 9)):
        assert abs(trig_poly_eval(poly, Fraction(num, den)) - naive_eval(poly, num, den)) < 1e-9


def test_trig_polynomial_validation():
    with pytest.raises(ValueError):
        TrigPolynomial(np.array([], dtype=complex))
    poly = TrigPolynomial(np.array([3.0, 4.0], dtype=complex))
    assert poly.k_max == 2
    assert poly.energy == pytest.approx(25.0)


def test_fold_coefficients():
    # parseval_check folds k = 2 to 0 and k = 1, 3 to 1: |T(0)|^2 + |T(1/2)|^2
    # = 111^2 + 91^2 = 2 * (10^2 + 101^2); a fold that dropped k = 3 would give 202
    poly = TrigPolynomial(np.array([1.0, 10.0, 100.0], dtype=complex))
    assert parseval_check(poly, 2) < 1e-9
    assert parseval_check(poly._replace(coeffs=poly.coeffs * 1j), 2) < 1e-9


def brute_lhs(poly, r_max):
    total = 0.0
    for r in range(1, r_max + 1):
        for a in range(1, r * r + 1):
            if math.gcd(a, r) == 1:
                total += abs(naive_eval(poly, a, r * r)) ** 2
    return total


def grid_lhs(poly, r_max):
    """The left side from T on every r^2 grid: the K coefficients folded mod
    r^2, one inverse FFT, and the |T(a/r^2)|^2 summed over a prime to r."""
    total = 0.0
    ks = np.arange(1, poly.k_max + 1)
    for r in range(1, r_max + 1):
        r2 = r * r
        folded = np.zeros(r2, dtype=np.complex128)
        np.add.at(folded, ks % r2, poly.coeffs)
        vals = r2 * np.fft.ifft(folded)
        a = np.arange(1, r2 + 1)
        total += float(np.sum(np.abs(vals[a[np.gcd(a, r) == 1] % r2]) ** 2))
    return total


def squarefree_divisors(r):
    """(d, mu(d)) for the squarefree d | r, by trial division."""
    primes = [p for p in range(2, r + 1) if r % p == 0 and all(p % q for q in range(2, p))]
    out = [(1, 1)]
    for p in primes:
        out += [(d * p, -mu) for d, mu in out]
    return out


def test_large_sieve_lhs_single_coeff():
    poly = TrigPolynomial(np.array([1.0], dtype=complex))
    assert large_sieve_lhs(poly, [1, 2]) == pytest.approx([abs(sum(poly.coeffs)) ** 2, 3.0])


def test_large_sieve_lhs_matches_bruteforce():
    poly = TrigPolynomial(np.array([1 + 1j, 2.0, -1j, 0.5, 0.25j]))
    want = [brute_lhs(poly, r_max) for r_max in (1, 2, 3, 4)]
    assert large_sieve_lhs(poly, [1, 2, 3, 4]) == pytest.approx(want, rel=1e-9)


# K = 1, K below R^2 and K above it; R = 1 reads |T(0)|^2 alone, which a
# seed can make small against A, so the examples are fixed
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=60),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=3000)),
)
@example(7, 1, 1)
@example(7, 60, 3000)
@example(7, 5, 3000)
@example(7, 60, 1)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_large_sieve_lhs_matches_grid_path(seed, r_max, k_max):
    rng = np.random.default_rng(seed)
    poly = TrigPolynomial(rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max))
    assert large_sieve_lhs(poly, [r_max]) == pytest.approx([grid_lhs(poly, r_max)], rel=1e-12)


@pytest.mark.parametrize("r_max, k_max", [(1, 1), (4, 3), (6, 36), (7, 100), (12, 150)])
def test_large_sieve_lhs_exact_on_gaussian_integers(r_max, k_max):
    # integer coefficients: the left side is the integer sum over r and
    # squarefree d | r of mu(d) m sum_j |c_j(m)|^2, folded in Python ints
    rng = np.random.default_rng(r_max * 1000 + k_max)
    coeffs = [(int(x), int(y)) for x, y in rng.integers(-3, 4, size=(k_max, 2))]
    want = 0
    for r in range(1, r_max + 1):
        for d, mu in squarefree_divisors(r):
            m = r * r // d
            re, im = [0] * m, [0] * m
            for k, (x, y) in enumerate(coeffs, start=1):
                re[k % m] += x
                im[k % m] += y
            want += mu * m * sum(x * x + y * y for x, y in zip(re, im))
    poly = TrigPolynomial([complex(x, y) for x, y in coeffs])
    assert round(large_sieve_lhs(poly, [r_max])[0]) == want


def test_large_sieve_budget_guard():
    # sum over r <= R and squarefree d | r of ceil(K d / r^2) + W, W the
    # steps a term is charged beyond its elements, which the step charge
    # bounds beside the three transforms of transform_length(K) points
    w = sieve._TERM_STEPS
    for k_max in (1, 2, 64, 3000):
        for r_max in (1, 2, 13, 100):
            counted = sum(-(-k_max * d // (r * r)) + w for r in range(1, r_max + 1) for d, _ in squarefree_divisors(r))
            assert counted < lhs_steps(k_max, r_max) - 3 * transform_length(k_max) < 2 * counted
    assert [transform_length(k) for k in (1, 2, 3, 4, 5, 4096, 4097)] == [1, 4, 8, 8, 16, 8192, 16384]
    # --budget refuses one step below the charge, before any transform, and admits the charge
    charged = math.ceil(lhs_steps(1, 100))
    assert main(["sieve", "--R", "100", "--K", "1", "--budget", str(charged - 1)]) == 3
    assert main(["sieve", "--R", "100", "--K", "1", "--budget", str(charged)]) == 0


def test_rhs_examples():
    assert large_sieve_rhs(1, 1, 1.0) == pytest.approx(3.0)
    assert large_sieve_rhs(100, 1, 1.0) == pytest.approx(111.0)
    assert zhao_conjecture_rhs(8, 2, 1.0) == pytest.approx(16.0)
    assert zhao_conjecture_rhs(8, 2, 2.0) == pytest.approx(32.0)


def test_sieve_report_bound_holds_at_desk_scale():
    rng = np.random.default_rng(11)
    for r_max in (1, 2, 3):
        for k_max in (1, 5, 32):
            poly = TrigPolynomial(rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max))
            (rep,) = sieve_reports(poly, [r_max])
            assert rep.lhs <= rep.rhs_bz + 1e-9
            assert rep.ratio_bz == pytest.approx(rep.lhs / rep.rhs_bz)
            assert rep.ratio_zhao == pytest.approx(rep.lhs / rep.rhs_zhao)


@given(complex_coeffs, st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_parseval_identity(poly, m):
    assert parseval_check(poly, m) < 1e-6 * m * max(poly.energy, 1e-12)


def ordered_factorizations(k, nu, cap):
    # independent combinatorial oracle
    out = []
    if nu == 1:
        return [(k,)] if k <= cap else []
    for d in range(1, min(k, cap) + 1):
        if k % d == 0:
            out.extend((d,) + rest for rest in ordered_factorizations(k // d, nu - 1, cap))
    return out


def test_rho_coefficient_example():
    assert rho_coefficient(4, 1, 2, 4) == pytest.approx(1 + 2j)


def test_rho_zero_twist_counts_factorizations():
    for m_max, nu, k in ((4, 2, 4), (6, 3, 12), (10, 2, 7), (5, 2, 35)):
        expect = len(ordered_factorizations(k, nu, m_max))
        assert rho_coefficient(m_max, 0, nu, k) == pytest.approx(expect)


def test_rho_matches_tuple_enumeration():
    cases = [(4, 1, 2, 4), (6, 5, 3, 8), (9, 2, 2, 36), (7, 3, 1, 5)]
    # every small k, including those past M**nu and those with a prime factor above M
    cases += [(m_max, b, nu, k) for m_max in (1, 2, 6, 12) for b in (1, 5) for nu in (1, 2, 3, 4) for k in range(1, 61)]
    for m_max, b, nu, k in cases:
        expect = sum(
            cmath.exp(2j * cmath.pi * (b * sum(t) % m_max) / m_max)
            for t in ordered_factorizations(k, nu, m_max)
        )
        assert rho_coefficient(m_max, b, nu, k) == pytest.approx(expect, abs=1e-9), (m_max, b, nu, k)


def test_rho_triangle_bound():
    for k in range(1, 40):
        assert abs(rho_coefficient(8, 3, 2, k)) <= len(ordered_factorizations(k, 2, 8)) + 1e-9


def test_rho_validation():
    for bad in ((0, 1, 2, 4), (4, 1, 0, 4), (4, 1, 2, 0)):
        with pytest.raises(ValueError):
            rho_coefficient(*bad)


def naive_moment_sum(p_scale, nu, n_p):
    # direct per-prime maximum over a of |sum e(a q_p(m)/p)|^(2 nu)
    total = 0.0
    count = 0
    for p in range(p_scale + 1, 2 * p_scale + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        count += 1
        t = quotient_table(p, n_p)
        vals = [t[m] for m in range(1, n_p + 1) if t[m] is not None]
        best = max(
            abs(sum(cmath.exp(2j * cmath.pi * (a * q % p) / p) for q in vals))
            for a in range(1, p)
        )
        total += best ** (2 * nu)
    return total, count


def test_window_validates_each_prime_once(monkeypatch):
    # one OddPrime serves its block's table and its own histogram and spectrum
    calls = []
    is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    res = theorem1_average(256, 1, power_rule(Fraction(1, 2), 256))
    primes = [p for p in primes_up_to(512) if p > 256]
    assert res.prime_count == len(primes) == 43
    assert calls == primes


def uneven_rule(p_scale, low):
    """A table of N_p over the window (P, 2P] whose N_p run through (low, 2 low]."""
    return {p: low + 1 + 9 * p % low for p in primes_up_to(2 * p_scale) if p > p_scale}


# N_p in (32, 64] below every p in (64, 128], and in (64, 128] above every p in (16, 32]
UNEVEN_WINDOWS = ((64, 32), (16, 64))


def test_window_histograms_match_period_histograms(monkeypatch):
    seen = []
    spectrum = sieve.max_exp_sum
    monkeypatch.setattr(sieve, "max_exp_sum", lambda hist: seen.append(hist) or spectrum(hist))
    for p_scale, low in UNEVEN_WINDOWS:
        seen.clear()
        res = theorem1_average(p_scale, 2, uneven_rule(p_scale, low))
        assert len({n for _, n, _ in res.per_prime}) > 1
        assert [h.p.p for h in seen] == [p for p, _, _ in res.per_prime]
        for hist, (p, n_p, _) in zip(seen, res.per_prime):
            want = period_histogram(p, n_p)
            assert np.array_equal(hist.counts, want.counts) and hist.total == want.total, (p, n_p)


def test_window_result_does_not_depend_on_block_size(monkeypatch):
    for p_scale, low in UNEVEN_WINDOWS:
        rule = uneven_rule(p_scale, low)
        want = theorem1_average(p_scale, 2, rule)._replace(wall_seconds=0.0)
        n_max = max(n for _, n, _ in want.per_prime)
        for rows in (1, 3):
            monkeypatch.setattr(sieve, "_BLOCK_ENTRIES", rows * (n_max + 1))
            assert theorem1_average(p_scale, 2, rule)._replace(wall_seconds=0.0) == want, (p_scale, rows)


def test_window_sieves_once_per_block(monkeypatch):
    # one segment for the window's primes and one per block of tables,
    # never one per prime
    sieves, blocks = [], []
    segment, rows = arith.primes_between, sieve.quotient_rows
    for module in (sieve, quotients):  # the callers' names: the base primes' recursion is not counted
        monkeypatch.setattr(module, "primes_between", lambda lo, hi: sieves.append((lo, hi)) or segment(lo, hi))
    monkeypatch.setattr(sieve, "quotient_rows", lambda primes, last: blocks.append(len(primes)) or rows(primes, last))
    res = theorem1_average(1024, 1, power_rule(1, 1024))
    assert res.prime_count == sum(blocks) == 137
    assert len(blocks) == 3  # 58 rows of 6 x 186 lane entries (186 bounds pi(1024) = 172) fit 2^16
    assert sieves[0] == (1025, 2048) and len(sieves) == 1 + len(blocks)


@pytest.mark.parametrize("p_scale, n", [(4096, 64), (16384, 8), (16384, 4)])
def test_window_block_peaks_within_its_cap(monkeypatch, p_scale, n):
    # blocks cut for a cap of E entries, one at a time or two at once on
    # threads, peak together within the 24 bytes an entry that --memcap
    # charges, also where the ladder lanes of small N outweigh the table
    # (one block peaked at 28, 47 and 45 bytes an entry of the cap when
    # blocks counted entries alone)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cap = 8192
    pairs, _ = window_pairs(p_scale, 1, n)
    for workers in (1, 2):
        used, cut = sieve._window_blocks(pairs, workers, cap)
        assert used == workers
        blocks = [[OddPrime(p) for p, _ in block] for block in cut]
        with ThreadPoolExecutor(workers) as pool:
            for start in range(0, len(blocks), workers):
                batch = blocks[start : start + workers]
                list(pool.map(quotient_rows, batch, [n] * len(batch)))  # numpy's first calls allocate untraced
                tracemalloc.start()
                try:
                    list(pool.map(quotient_rows, batch, [n] * len(batch)))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 24 * cap, (workers, [len(block) for block in batch], peak)


def test_theorem1_average_small_oracle():
    res = theorem1_average(8, 1, 3)
    expect, count = naive_moment_sum(8, 1, 3)
    assert res.prime_count == count == 2  # primes 11 and 13
    assert res.lhs == pytest.approx(expect, rel=1e-9)
    assert res.n_ref == 2  # window (2, 4] holds N_p = 3
    assert res.trivial_bound == 2 * 3**2
    assert res.lhs <= res.trivial_bound
    assert res.ratio == pytest.approx(res.lhs / res.rhs_envelope)


def test_theorem1_all_ones_rule():
    res = theorem1_average(8, 1, 1)
    assert res.lhs == pytest.approx(float(res.prime_count))
    assert res.trivial_bound == res.prime_count


def test_theorem1_rules():
    # a power rule is one int N for the window; a table gives N_p by p and must cover every prime
    assert power_rule(0.5, 256) == 16
    assert power_rule(0.5, 512) == 23
    assert power_rule(Fraction(1, 3), 27) == 3  # a perfect power stays exact
    assert power_rule(Fraction(1999, 1000), 4) == 16  # 4^1999 passes the float range
    assert window_pairs(8, 1, {11: 3, 13: 4, 17: 5}) == ([(11, 3), (13, 4)], 2)
    with pytest.raises(ValueError, match="no N_p entry for prime 13"):
        window_pairs(8, 1, {11: 3})
    with pytest.raises(ValueError, match="digits"):
        power_rule(Fraction(4001, 2001), 1000)  # refused before 1000^4001 is built


def test_theorem1_validation_and_budget():
    with pytest.raises(ValueError):
        theorem1_average(2, 1, 1)
    with pytest.raises(ValueError):
        theorem1_average(8, 0, 1)
    with pytest.raises(ValueError):
        theorem1_average(8, 1, 100)  # exceeds P^2 = 64
    with pytest.raises(ValueError):
        theorem1_average(8, 1, {11: 3, 13: 40})  # 3 and 40 share no window
    # primes 11 and 13 at N_p = 3: one table of 3 entries, (3 + 11) + (3 + 13) steps
    assert window_cost(window_pairs(8, 1, 3)[0]) == (3, 30)
    assert main(["avg", "--P", "8", "--nu", "1", "--N-rule", "3", "--budget", "10"]) == 3
    # the one table cap the library keeps, the block size of a window, is the CLI's at the default --memcap
    assert inspect.signature(theorem1_average).parameters["max_entries"].default == RunConfig().max_table_entries


def test_theorem1_thread_count_does_not_change_bits(monkeypatch):
    monkeypatch.setattr(sieve, "_WORKER_STEPS", 1)  # a worker for every step: the pool runs
    serial = theorem1_average(16, 2, 4)
    pooled = theorem1_average(16, 2, 4, threads=4)
    assert serial.lhs == pooled.lhs
    assert serial.per_prime == pooled.per_prime


def test_threaded_windows_are_bit_equal_to_serial(monkeypatch):
    # prime-length FFTs on pocketfft's Bluestein path, on more threads than
    # cores and with a short switch interval; per_prime holds every maximum
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sieve, "_WORKER_STEPS", 1)  # the small window on threads too
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for p_scale, n in ((256, 100), (4096, 64)):
            serial = theorem1_average(p_scale, 2, n).per_prime
            for threads, _ in product((1, 2, 4), range(5)):
                assert theorem1_average(p_scale, 2, n, threads=threads).per_prime == serial, (p_scale, threads)
    finally:
        sys.setswitchinterval(interval)


def test_theorem1_worker_count_is_clamped(monkeypatch):
    # a serial stand-in records the pool size, so no thread is started
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(sieve, "_WORKER_STEPS", 1)
    serial = theorem1_average(16, 2, 4)
    wide = theorem1_average(16, 2, 4, threads=10**6)  # 7 primes in (16, 32]
    few = theorem1_average(8, 1, 3, threads=10**6)  # 2 primes in (8, 16]
    # blocks that run at once share the cap: as many workers as largest rows fit it
    row = max(4 + 1, sieve._LANE_ENTRIES * arith.prime_count_bound(4))
    capped = theorem1_average(16, 2, 4, threads=10**6, max_entries=3 * row - 1)
    single = theorem1_average(16, 2, 4, threads=10**6, max_entries=row)
    assert seen == [4, 2, 2]
    assert wide.per_prime == capped.per_prime == single.per_prime == serial.per_prime and few.prime_count == 2


def test_small_windows_run_on_one_thread(monkeypatch):
    # a worker for each _WORKER_STEPS steps of window_cost: the windows of
    # `avg --pmin 256 --pmax 1024 --N-rule 100` (20,767 and 65,141 steps) stay
    # on one thread, where a second one slowed them, and P = 4096 at
    # N = 64 (2,868,246 steps) gets both
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cap = RunConfig().max_table_entries
    for p_scale, n, workers in ((256, 100, 1), (512, 100, 1), (4096, 64, 2)):
        pairs, _ = window_pairs(p_scale, 2, n)
        assert sieve._window_blocks(pairs, 2, cap)[0] == workers, p_scale


def test_exceptional_counts():
    res = theorem1_average(8, 1, 3)
    assert isinstance(res, Theorem1Result)
    pairs = exceptional_counts(res, [0.0, 5.0])
    # kappa = 0: threshold N_p itself; kappa = 5: threshold near zero
    assert pairs[0][1] <= res.prime_count
    assert pairs[1][1] == res.prime_count


def test_scaling_sanity_half_versus_full():
    # ratio at full scale stays within 4x of the half-scale ratio
    full = theorem1_average(32, 2, power_rule(0.5, 32))
    half = theorem1_average(16, 2, power_rule(0.5, 16))
    assert full.ratio <= 4 * half.ratio
