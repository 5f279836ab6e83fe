import cmath
import math
import os
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatq.arith import BudgetError
from fermatq.quotients import quotient_table
from fermatq.sieve import (
    Theorem1Result,
    TrigPolynomial,
    constant_rule,
    exceptional_counts,
    fold_coefficients,
    large_sieve_lhs,
    large_sieve_rhs,
    parseval_check,
    power_rule,
    rho_coefficient,
    sieve_report,
    table_rule,
    theorem1_average,
    trig_poly_eval,
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
    poly = TrigPolynomial(np.array([1.0, 10.0, 100.0], dtype=complex))
    c = fold_coefficients(poly, 2)
    assert c[0] == 10.0 and c[1] == 101.0  # k=2 aliases to 0; k=1,3 to 1


def brute_lhs(poly, r_max):
    total = 0.0
    for r in range(1, r_max + 1):
        for a in range(1, r * r + 1):
            if math.gcd(a, r) == 1:
                total += abs(naive_eval(poly, a, r * r)) ** 2
    return total


def test_large_sieve_lhs_single_coeff():
    poly = TrigPolynomial(np.array([1.0], dtype=complex))
    assert large_sieve_lhs(poly, 1) == pytest.approx(abs(sum(poly.coeffs)) ** 2)
    assert large_sieve_lhs(poly, 2) == pytest.approx(3.0)


def test_large_sieve_lhs_matches_bruteforce():
    poly = TrigPolynomial(np.array([1 + 1j, 2.0, -1j, 0.5, 0.25j]))
    for r_max in (1, 2, 3, 4):
        assert large_sieve_lhs(poly, r_max) == pytest.approx(brute_lhs(poly, r_max), rel=1e-9)


def test_large_sieve_budget_guard():
    poly = TrigPolynomial(np.array([1.0], dtype=complex))
    with pytest.raises(BudgetError):
        large_sieve_lhs(poly, 100, budget_ops=1000)


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
            rep = sieve_report(poly, r_max)
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
    for m_max, b, nu, k in ((4, 1, 2, 4), (6, 5, 3, 8), (9, 2, 2, 36), (7, 3, 1, 5)):
        expect = sum(
            cmath.exp(2j * cmath.pi * (b * sum(t) % m_max) / m_max)
            for t in ordered_factorizations(k, nu, m_max)
        )
        assert rho_coefficient(m_max, b, nu, k) == pytest.approx(expect, abs=1e-9)


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


def test_theorem1_average_small_oracle():
    res = theorem1_average(8, 1, constant_rule(3))
    expect, count = naive_moment_sum(8, 1, 3)
    assert res.prime_count == count == 2  # primes 11 and 13
    assert res.lhs == pytest.approx(expect, rel=1e-9)
    assert res.n_ref == 2  # window (2, 4] holds N_p = 3
    assert res.trivial_bound == 2 * 3**2
    assert res.lhs <= res.trivial_bound
    assert res.ratio == pytest.approx(res.lhs / res.rhs_envelope)


def test_theorem1_all_ones_rule():
    res = theorem1_average(8, 1, constant_rule(1))
    assert res.lhs == pytest.approx(float(res.prime_count))
    assert res.trivial_bound == res.prime_count


def test_theorem1_rules():
    assert power_rule(0.5, 256)(257) == 16
    assert power_rule(0.5, 512)(521) == 23
    rule = table_rule({11: 3, 13: 4})
    assert rule(11) == 3
    with pytest.raises(ValueError):
        rule(17)


def test_theorem1_validation_and_budget():
    with pytest.raises(ValueError):
        theorem1_average(2, 1, constant_rule(1))
    with pytest.raises(ValueError):
        theorem1_average(8, 0, constant_rule(1))
    with pytest.raises(ValueError):
        theorem1_average(8, 1, constant_rule(100))  # exceeds P^2 = 64
    with pytest.raises(ValueError):
        theorem1_average(8, 1, table_rule({11: 3, 13: 40}))  # 3 and 40 share no window
    with pytest.raises(BudgetError):
        theorem1_average(8, 1, constant_rule(3), budget_ops=10)


def test_theorem1_thread_count_does_not_change_bits():
    serial = theorem1_average(16, 2, constant_rule(4))
    pooled = theorem1_average(16, 2, constant_rule(4), threads=4)
    assert serial.lhs == pooled.lhs
    assert serial.per_prime == pooled.per_prime


def test_theorem1_worker_count_is_clamped(monkeypatch):
    # a serial stand-in records the pool size, so no process is started
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

    monkeypatch.setattr("fermatq.sieve.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = theorem1_average(16, 2, constant_rule(4))
    wide = theorem1_average(16, 2, constant_rule(4), threads=10**6)  # 7 primes in (16, 32]
    few = theorem1_average(8, 1, constant_rule(3), threads=10**6)  # 2 primes in (8, 16]
    assert seen == [4, 2]
    assert wide.per_prime == serial.per_prime and few.prime_count == 2


def test_exceptional_counts():
    res = theorem1_average(8, 1, constant_rule(3))
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
