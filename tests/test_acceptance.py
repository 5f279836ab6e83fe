"""Acceptance gate: the fourteen contract checks, one line of output each.

Each criterion prints a single pass/FAIL line with capture lifted so the
gate is legible in any pytest run.  Budgets are asserted, not
aspirational: a criterion that overruns its stated wall-clock limit
fails.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

from fermatq.arith import arithmetic_functions, is_primitive_root, primes_up_to
from fermatq.charsums import (
    CharacterModPSquared,
    exp_sum_direct,
    gauss_identity_residual,
    gauss_sum,
    max_exp_sum,
)
from fermatq.cli import main
from fermatq.primroots import primroot_indicator
from fermatq.quotients import (
    UNDEFINED,
    collision_count,
    fermat_quotient,
    quotient_table,
    value_histogram,
)
from fermatq.sieve import TrigPolynomial, parseval_check
from fermatq.subgroups import SubgroupModM, count_ratios, pth_power_residues

@contextmanager
def criterion(capfd, label: str, limit_seconds: float | None = None):
    def announce(text):
        with capfd.disabled():
            print(text, flush=True)

    start = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"criterion {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        announce(f"criterion {label}: FAIL (overran {limit_seconds:.0f}s: {elapsed:.1f}s)")
        raise AssertionError(f"{label} took {elapsed:.1f}s, limit {limit_seconds:.0f}s")
    announce(f"criterion {label}: pass ({elapsed:.1f}s)")


def odd_primes(bound):
    return [p for p in primes_up_to(bound) if p >= 3]


def test_criterion_01_table_matches_bigint_oracle(capfd):
    with criterion(capfd, "01 quotient-table oracle p<=499 n<=10^4", 60):
        n_max = 10**4
        for p in odd_primes(499):
            p2 = p * p
            values = quotient_table(p, n_max).values
            for u in range(1, n_max + 1):
                got = int(values[u])
                want = -1 if u % p == 0 else (pow(u, p - 1, p2) - 1) // p % p
                assert got == want, (p, u, got, want)


def test_criterion_02_additivity_100k_triples(capfd):
    with criterion(capfd, "02 additivity on 10^5 random triples", 10):
        rng = np.random.default_rng(20260817)
        pool = odd_primes(997)
        for _ in range(10**5):
            p = pool[int(rng.integers(0, len(pool)))]
            p2 = p * p
            u = int(rng.integers(1, p2))
            v = int(rng.integers(1, p2))
            if u % p == 0:
                u += 1
            if v % p == 0:
                v += 1
            lhs = fermat_quotient(p, u * v % p2)
            rhs = (fermat_quotient(p, u) + fermat_quotient(p, v)) % p
            assert lhs == rhs, (p, u, v)


def test_criterion_03_character_contract_all_p_all_a(capfd):
    with criterion(capfd, "03 character: multiplicative, period p^2, order p, partial sums", 120):
        rng = np.random.default_rng(3)
        for p in odd_primes(101):
            p2 = p * p
            table = quotient_table(p, p2)
            for a in range(1, p):
                chi = CharacterModPSquared(p, a)
                vals = chi.value_array()
                m = rng.integers(1, p2, size=1000)
                n = rng.integers(1, p2, size=1000)
                err = np.abs(vals[m * n % p2] - vals[m] * vals[n]).max()
                assert err < 1e-9, (p, a, err)
                for x in (1, p + 1, p2 - 1, int(rng.integers(1, p2))):
                    assert chi(x) == chi(x + p2), (p, a, x)
                w = chi(1 + p)
                assert abs(w**p - 1) < 1e-9, (p, a)
                assert np.abs(w ** np.arange(1, p) - 1).min() > 1e-6, (p, a)
                cum = np.cumsum(vals[np.arange(1, p2 + 1) % p2])  # chi(1) + ... + chi(N)
                for n_len in (1, p, p2):
                    partial = complex(cum[n_len - 1])
                    direct = exp_sum_direct(p, a, n_len, table=table)
                    assert abs(partial - direct) <= 1e-6 * n_len, (p, a, n_len)
            # substance behind the period claim, beyond the internal reduction
            for u in (1, 2, p + 1):
                assert fermat_quotient(p, u + p2) == fermat_quotient(p, u)


def test_criterion_04_gauss_magnitude(capfd):
    with criterion(capfd, "04 |tau_{p^2}(chi)| = p, p<=61, 5 twists each", 30):
        rng = np.random.default_rng(4)
        for p in odd_primes(61):
            for a in rng.choice(np.arange(1, p), size=min(5, p - 1), replace=False):
                tau = gauss_sum(p * p, CharacterModPSquared(p, int(a)))
                assert abs(abs(tau) - p) <= 1e-9 * p, (p, a, abs(tau))


def test_criterion_05_gauss_identity(capfd):
    with criterion(capfd, "05 twisted Gauss identity residual, p<=61, 10 b each", 30):
        rng = np.random.default_rng(5)
        for p in odd_primes(61):
            r = p * p
            for _ in range(10):
                b = int(rng.integers(1, r))
                if b % p == 0:
                    b += 1
                a = int(rng.integers(1, p))
                residual = gauss_identity_residual(r, CharacterModPSquared(p, a), b)
                assert residual < 1e-6 * r, (p, a, b, residual)


def test_criterion_06_primroot_indicator_exact(capfd):
    with criterion(capfd, "06 indicator equals direct primitive-root test", 30):
        for p in (7, 11, 13, 101):
            total = 0
            for a in range(p):
                rep = primroot_indicator(p, a)  # raises unless the exact sum is 0 or 1
                assert rep.indicator == int(is_primitive_root(a, p)), (p, a)
                total += rep.indicator
            assert total == arithmetic_functions(p - 1)[0], p


def test_criterion_07_cauchy_chain_and_pair_identity(capfd):
    with criterion(capfd, "07 image >= Cauchy floor and #W = sum R^2, 200 samples", 60):
        rng = np.random.default_rng(7)
        pool = odd_primes(499)
        for _ in range(200):
            p = pool[int(rng.integers(0, len(pool)))]
            n = int(rng.integers(1, 10**4 + 1))
            table = quotient_table(p, n)
            body = table.values[1:]
            defined = body[body != UNDEFINED]
            counts = np.bincount(defined, minlength=p).astype(object)
            total = int(counts.sum())
            sum_sq = int((counts**2).sum())
            assert collision_count(table) == sum_sq, (p, n)
            img = value_histogram(table).image
            assert img == int(np.count_nonzero(counts)), (p, n)
            if total:
                assert img * sum_sq >= total * total, (p, n)  # I >= ceil(T^2 / S)


def test_criterion_08_containment_full_sweep(capfd):
    with criterion(capfd, "08 #W_p(N) <= N(p^2, G_p, N) for p<=97, N<=min(2000, p^2/2-1)", 120):
        for p in odd_primes(97):
            n_cap = min(2000, (p * p - 2) // 2)
            table = quotient_table(p, n_cap)
            group = pth_power_residues(p)
            counts = np.zeros(p, dtype=np.int64)
            collisions = 0
            for n in range(1, n_cap + 1):
                v = int(table.values[n])
                if v != UNDEFINED:
                    collisions += 2 * int(counts[v]) + 1
                    counts[v] += 1
                assert collisions <= count_ratios(p * p, group, n), (p, n)


def test_criterion_09_ratio_counter_oracle(capfd):
    with criterion(capfd, "09 count_ratios equals brute-force triple loop, 50 instances", 30):
        rng = np.random.default_rng(9)
        done = 0
        while done < 50:
            m = int(rng.integers(5, 501))
            g = int(rng.integers(2, m))
            if math.gcd(g, m) != 1:
                continue
            group = SubgroupModM.generated(m, g)
            z = int(rng.integers(1, (m - 1) // 2 + 1))
            brute = 0
            for w in group.elements:
                for x in list(range(-z, 0)) + list(range(1, z + 1)):
                    r = w * x % m
                    if 1 <= r <= z or m - z <= r <= m - 1:
                        brute += 1
            assert count_ratios(m, group, z) == brute, (m, g, z)
            done += 1


def test_criterion_10_dft_matches_per_twist_maximum(capfd):
    with criterion(capfd, "10 DFT maximization vs per-a direct sums, p<=311", 60):
        for p in odd_primes(311):
            for n in (p, 5 * p):
                table = quotient_table(p, n)
                hist = value_histogram(table)
                a_star, m_fft = max_exp_sum(hist)
                direct = [abs(exp_sum_direct(p, a, n, table=table)) for a in range(1, p)]
                m_direct = max(direct)
                assert abs(m_fft - m_direct) < 1e-6, (p, n, m_fft, m_direct)
                assert abs(direct[a_star - 1] - m_direct) < 1e-6, (p, n, a_star)


def test_criterion_11_parseval_thousand_polynomials(capfd):
    with criterion(capfd, "11 Parseval residual < 1e-6 M A, 10^3 polynomials", 30):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = int(rng.integers(1, 257))
            m = int(rng.integers(1, 513))
            poly = TrigPolynomial(rng.standard_normal(k) + 1j * rng.standard_normal(k))
            residual = parseval_check(poly, m)
            assert residual < 1e-6 * m * poly.energy, (k, m, residual)


def _run_to_file(path, *argv):
    rc = main(list(argv) + ["--out", str(path)])
    assert rc == 0, f"exit {rc} for {argv}"
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header), rows


def test_criterion_12_moment_average_windows(tmp_path, capfd):
    with criterion(capfd, "12 avg over P in {256,512,1024}, nu=2, N-rule P^0.5", 600):
        header, rows = _run_to_file(
            tmp_path / "avg.csv", "avg", "--P", "256", "512", "1024", "--nu", "2", "--N-rule", "P^0.5"
        )
        assert header[:9] == ("P", "nu", "N", "lhs", "rhs_envelope", "trivial_bound", "ratio", "prime_count", "wall_seconds")
        assert [r[0] for r in rows] == ["256", "512", "1024"]
        ratios = []
        for row in rows:
            lhs, trivial, ratio = float(row[3]), float(row[5]), float(row[6])
            assert lhs <= trivial, row
            ratios.append(ratio)
        assert max(ratios) / min(ratios) < 10, ratios


def test_criterion_13_scan_every_prime_to_10k(tmp_path, capfd):
    with criterion(capfd, "13 primroot scan verified for every prime 3..10^4", 600):
        header, rows = _run_to_file(tmp_path / "scan.csv", "scan", "--pmin", "3", "--pmax", "10000")
        assert header[:4] == ("p", "n_min", "exponent", "verified")
        assert len(rows) == len(odd_primes(10000))
        for row in rows:
            p, n_min, exponent, verified = int(row[0]), row[1], row[2], row[3]
            assert n_min != "" and verified == "1", row
            assert abs(float(exponent) - math.log(int(n_min)) / math.log(p)) < 1e-9, row


def test_criterion_14_reports_thread_invariant(tmp_path, capfd):
    with criterion(capfd, "14 byte-identical reports at 1 and 8 threads"):
        jobs = {
            "avg": ["avg", "--P", "256", "512", "1024", "--nu", "2", "--N-rule", "P^0.5"],
            "avg-window": ["avg", "--P", "1024", "--N-rule", "P^1/2"],
            "scan": ["scan", "--pmin", "3", "--pmax", "10000"],
        }
        for name, argv in jobs.items():
            blobs = []
            for threads in (1, 8):
                path = tmp_path / f"{name}-t{threads}.csv"
                rc = main(argv + ["--threads", str(threads), "--out", str(path)])
                assert rc == 0, (name, threads, rc)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1], name
