import cmath
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermatq
from fermatq.arith import arithmetic_functions, least_primitive_root, multiplicative_order, primes_up_to
from fermatq.charsums import (
    CharacterModP,
    CharacterModPSquared,
    discrete_log_table,
    eta_quotient_sum,
    exp_sum_direct,
    exp_sum_from_histogram,
    gauss_identity_residual,
    gauss_sum,
    hb_bound_rhs,
    max_exp_sum,
    resident_transform_memory,
    spectrum_from_histogram,
    unit_roots,
)
from fermatq.quotients import fermat_quotient, period_histogram, quotient_table, value_histogram


def test_unit_root_reduced_arguments():
    roots = unit_roots(4, [1, 5])
    assert abs(roots[0] - 1j) < 1e-15
    assert roots[1] == roots[0]  # bit-identical after reduction
    assert unit_roots(7, [0])[0] == 1.0
    assert unit_roots(5, [-1])[0] == unit_roots(5, [4])[0]
    assert (unit_roots(7, [0, 1, 2, 9, -3]) == unit_roots(7, [0, 1, 2, 2, 4])).all()
    with pytest.raises(ValueError):
        unit_roots(0, [1])


def test_orthogonality_exact_indices():
    # sum_b e(bz/r) = r when r | z else 0; index multisets checked exactly
    for r in (5, 12, 49):
        for z in (0, 1, 3, r, 2 * r, r // 2):
            idx = Counter(b * z % r for b in range(r))
            s = complex(unit_roots(r, z * np.arange(r)).sum())
            if z % r == 0:
                assert idx == Counter({0: r})
                assert s == r  # all terms exactly 1.0
            else:
                d = math.gcd(z, r)
                assert idx == Counter({j: d for j in range(0, r, d)})
                assert abs(s) < 1e-9 * r


@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=500),
    st.data(),
)
@settings(max_examples=200)
def test_incomplete_geometric_sum_bound(r, k0, length, data):
    b = data.draw(st.integers(min_value=-(r // 2), max_value=r // 2).filter(lambda x: x != 0))
    s = complex(unit_roots(r, b * np.arange(k0 + 1, k0 + length + 1)).sum())
    assert abs(s) <= min(length, r / (2 * abs(b))) + 1


def test_discrete_log_table():
    g, ind = discrete_log_table(7)
    assert g == 3
    for x in range(1, 7):
        assert pow(g, int(ind[x]), 7) == x


def walked_log_table(p: int, g: int) -> np.ndarray:
    """The index table by the per-element walk g^0, g^1, ... mod p."""
    ind, x = np.zeros(p, dtype=np.int64), 1
    for j in range(p - 1):
        ind[x] = j
        x = x * g % p
    return ind


def test_discrete_log_table_matches_the_walk():
    for p in [q for q in primes_up_to(2000) if q > 2] + [1000003]:
        g, ind = discrete_log_table(p)
        assert g == least_primitive_root(p), p
        assert np.array_equal(ind, walked_log_table(p, g)), p


def test_discrete_log_table_refuses_powers_that_miss_a_unit(monkeypatch):
    monkeypatch.setattr("fermatq.charsums.least_primitive_root", lambda prime: 2)  # a square mod 7
    with pytest.raises(AssertionError, match="every unit"):
        discrete_log_table(7)


def test_quadratic_character_euler_criterion():
    for p in (3, 7, 11, 31):
        eta = CharacterModP.quadratic(p)
        assert eta.order == 2
        for x in range(p):
            legendre = pow(x, (p - 1) // 2, p)
            expect = 0 if x == 0 else (1 if legendre == 1 else -1)
            assert abs(eta(x) - expect) < 1e-12, (p, x)


def test_character_orders_and_counts():
    # eta_k has order d = (p - 1)/gcd(k, p - 1), phi(d) of the k in 0..p-2 for each d | p - 1,
    # and takes each d-th root of unity on the units
    p = 13
    chars = [CharacterModP(p, k) for k in range(p - 1)]
    assert Counter(eta.order for eta in chars) == {d: arithmetic_functions(d)[0] for d in (1, 2, 3, 4, 6, 12)}
    for eta in chars:
        image = {complex(round(v.real, 9), round(v.imag, 9)) for v in eta.value_array()[1:]}
        assert len(image) == eta.order
    assert CharacterModP(p, 16).order == 3  # k is reduced mod p - 1


def test_character_multiplicative():
    eta = CharacterModP(11, 3)
    for x in range(11):
        for y in range(11):
            assert abs(eta(x * y) - eta(x) * eta(y)) < 1e-12


def test_principal_character():
    eta = CharacterModP(7, 0)
    assert eta.is_trivial
    assert eta(0) == 0 and eta(3) == 1


def test_hb_character_rejects_zero_twist():
    with pytest.raises(ValueError):
        CharacterModPSquared(5, 0)
    with pytest.raises(ValueError):
        CharacterModPSquared(5, 10)


def test_hb_character_one_plus_p():
    # q_p(1 + p) = p - 1, so chi(1 + p) = e(a*(p-1)/p)
    for p, a in ((5, 1), (7, 3), (11, 9)):
        chi = CharacterModPSquared(p, a)
        assert fermat_quotient(p, 1 + p) == p - 1
        assert abs(chi(1 + p) - unit_roots(p, [a * (p - 1)])[0]) < 1e-12


def test_hb_character_multiplicative_and_periodic():
    chi = CharacterModPSquared(7, 2)
    rng = np.random.default_rng(7)
    for _ in range(500):
        m, n = rng.integers(1, 7**2, size=2)
        assert abs(chi(int(m) * int(n)) - chi(int(m)) * chi(int(n))) < 1e-12
        assert chi(int(m) + 49) == chi(int(m))
    assert chi(0) == 0 and chi(7) == 0 and chi(49) == 0


def test_hb_character_order_is_p():
    for p, a in ((5, 2), (11, 1), (13, 12)):
        chi = CharacterModPSquared(p, a)
        assert chi.order == p
        # find a generator of the unit group mod p^2 and take chi's value there
        g = 2
        while multiplicative_order(g, p * p) != p * (p - 1):
            g += 1
        val = chi(g)
        k = 1
        acc = val
        while abs(acc - 1) > 1e-9:
            acc *= val
            k += 1
        assert k == p


def test_hb_partial_sums_match_direct():
    for p, a in ((5, 1), (7, 4)):
        chi = CharacterModPSquared(p, a)
        table = quotient_table(p, p * p)
        for n in (1, p, p * p):
            partial = sum(chi(m) for m in range(1, n + 1))
            direct = exp_sum_direct(p, a, n, table=table)
            assert abs(partial - direct) < 1e-9 * n


def test_exp_sum_direct_example():
    s = exp_sum_direct(5, 1, 4)
    expected = complex(unit_roots(5, [0, 3, 1, 1]).sum())
    assert abs(s - expected) < 1e-12


def test_exp_sum_full_period_vanishes():
    for p in (5, 7, 11):
        for a in range(1, p):
            s = exp_sum_direct(p, a, p * p)
            assert abs(s) < 1e-6 * p * p, (p, a)


def test_exp_sum_zero_twist_counts_units():
    assert exp_sum_direct(7, 0, 20) == 20 - 2  # 7 and 14 excluded


def test_exp_sum_from_histogram_matches_direct():
    for p, n in ((5, 4), (7, 30), (31, 200)):
        t = quotient_table(p, n)
        h = value_histogram(t)
        for a in range(p):
            assert abs(exp_sum_from_histogram(h, a) - exp_sum_direct(p, a, n, table=t)) < 1e-9
    assert exp_sum_from_histogram(h, 0) == h.total


def test_max_exp_sum_single_entry():
    assert max_exp_sum(period_histogram(5, 1)) == (1, 1.0)


def naive_max(p, n):
    t = quotient_table(p, n)
    vals = [t[m] for m in range(1, n + 1) if t[m] is not None]
    best_a, best = None, -1.0
    for a in range(1, p):
        s = sum(cmath.exp(2j * cmath.pi * (a * q % p) / p) for q in vals)
        if abs(s) > best + 1e-12:
            best_a, best = a, abs(s)
    return best_a, best


def test_max_exp_sum_matches_naive():
    for p in (5, 7, 13, 31):
        for n in (p, 3 * p, 2 * p + 1):
            a_fft, m_fft = max_exp_sum(period_histogram(p, n))
            a_naive, m_naive = naive_max(p, n)
            assert abs(m_fft - m_naive) < 1e-6, (p, n)
            assert 1 <= a_fft <= p - 1


def test_spectrum_matches_histogram_sums():
    t = quotient_table(11, 40)
    h = value_histogram(t)
    mags = spectrum_from_histogram(h)
    for a in range(11):
        assert abs(mags[a] - abs(exp_sum_from_histogram(h, a))) < 1e-9


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the dynamic mmap threshold is glibc's")
def test_window_transforms_reuse_resident_memory():
    # without the warm-up, glibc maps each transform's work buffers afresh:
    # about 224 minor faults a transform at p in (4096, 8192]
    code = (
        "import resource\n"
        "from fermatq.arith import primes_up_to\n"
        "from fermatq.charsums import spectrum_from_histogram\n"
        "from fermatq.quotients import period_histogram\n"
        "hists = [period_histogram(p, 64) for p in primes_up_to(8192) if p > 4096][:41]\n"
        "spectrum_from_histogram(hists[0])  # loads the transform code\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for hist in hists[1:]:\n"
        "    spectrum_from_histogram(hist)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatq.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 16


def test_resident_transform_memory_allocates_only_what_it_must():
    def traced_peak(n):
        tracemalloc.start()
        try:
            resident_transform_memory(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 256 bytes a point reach glibc's default 128 KiB threshold at n = 512
    assert traced_peak(1) < 1024 and traced_peak(512) < 1024
    # above 32 MiB a freed block no longer moves the threshold: the block stops below it
    assert traced_peak(10**30) < 32 * 1024 * 1024
    # the largest block so far is not made again, nor a smaller one
    assert traced_peak(10**30) < 1024 and traced_peak(8192) < 1024


def test_gauss_sum_principal_is_minus_one():
    for p in (3, 7, 13):
        tau = gauss_sum(p, CharacterModP(p, 0))
        assert abs(tau - (-1)) < 1e-9


def test_gauss_sum_quadratic_mod_3():
    tau = gauss_sum(3, CharacterModP.quadratic(3))
    assert abs(tau - 1j * math.sqrt(3)) < 1e-12


def test_gauss_sum_magnitudes():
    # |tau| = sqrt(r) for primitive characters: nontrivial eta mod p,
    # and the quotient character mod p^2 where sqrt(p^2) = p
    for p in (5, 7, 13):
        for k in range(1, p - 1):
            assert abs(abs(gauss_sum(p, CharacterModP(p, k))) - math.sqrt(p)) < 1e-9
        for a in (1, 2, p - 1):
            chi = CharacterModPSquared(p, a)
            assert abs(abs(gauss_sum(p * p, chi)) - p) < 1e-9 * p


def test_gauss_sum_modulus_mismatch():
    with pytest.raises(ValueError):
        gauss_sum(25, CharacterModP.quadratic(5))


def test_gauss_identity_residual():
    for p in (5, 7):
        chi = CharacterModPSquared(p, 1)
        r = p * p
        for b in (1, 2, p + 1, r - 1):
            if math.gcd(b, r) != 1:
                continue
            assert gauss_identity_residual(r, chi, b) < 1e-6 * r
        eta = CharacterModP(p, 1)
        for b in (1, 3, p - 1):
            assert gauss_identity_residual(p, eta, b) < 1e-6 * p
    with pytest.raises(ValueError):
        gauss_identity_residual(25, CharacterModPSquared(5, 1), 5)


def test_eta_quotient_sum_example():
    s = eta_quotient_sum(7, CharacterModP.quadratic(7), 6)
    assert abs(s - 1) < 1e-12


def test_eta_quotient_sum_skips_zero_quotients():
    # n = 1 contributes eta(q(1)) = eta(0) = 0
    s = eta_quotient_sum(5, CharacterModP.quadratic(5), 1)
    assert s == 0


def test_eta_quotient_sum_rejects_trivial():
    with pytest.raises(ValueError):
        eta_quotient_sum(7, CharacterModP(7, 0), 6)
    with pytest.raises(ValueError):
        eta_quotient_sum(7, CharacterModP.quadratic(5), 6)


def test_hb_bound_rhs():
    assert hb_bound_rhs(7, 100, 1) == pytest.approx(7.0)
    assert hb_bound_rhs(7, 100, 2) == pytest.approx(100**0.5 * 7**0.375)
    with pytest.raises(ValueError):
        hb_bound_rhs(7, 100, 0)


def test_quotient_sums_beat_envelope_eventually():
    # with n = p and nu = 1 the envelope is p >= |S| trivially; sanity only
    for p in primes_up_to(60)[1:]:
        _, m = max_exp_sum(period_histogram(p, p))
        assert m <= hb_bound_rhs(p, p, 1) + 1e-9
