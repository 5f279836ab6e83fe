import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatq.arith import (
    Factorization,
    OddPrime,
    arithmetic_functions,
    divisors,
    factorize,
    is_prime,
    is_prime_lanes,
    is_primitive_root,
    least_primitive_root,
    multiplicative_order,
    odd_prime,
    pow_mod_lanes,
    prime_factor_lanes,
    primes_between,
    primes_up_to,
    smallest_prime_factors,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def trial_division_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_primes_up_to_100_oracle():
    expected = [n for n in range(101) if trial_division_is_prime(n)]
    assert primes_up_to(100) == expected
    assert len(expected) == 25


def test_primes_up_to_small_edges():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]


def test_primes_up_to_matches_trial_division_to_2000():
    assert primes_up_to(2000) == [n for n in range(2001) if trial_division_is_prime(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10, max_value=2**31 - 1), st.integers(min_value=-1, max_value=3000))
def test_primes_between_matches_scalar_is_prime(lo, width):
    hi = min(lo + width, 2**31 - 1)
    got = primes_between(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [n for n in range(max(lo, 0), hi + 1) if is_prime(n)]


def test_primes_between_edges():
    assert primes_between(0, 1).tolist() == [] and primes_between(5, 4).tolist() == []
    assert primes_between(2, 2).tolist() == [2] and primes_between(-5, 3).tolist() == [2, 3]
    # a square of a base prime at each end, and the last primes below 2^31
    assert primes_between(49, 121).tolist() == [n for n in range(49, 122) if trial_division_is_prime(n)]
    assert primes_between(2**31 - 50, 2**31 - 1).tolist() == [2147483629, 2147483647]


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    assert is_prime(1093) and is_prime(3511)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(1000)
    assert spf[0] == 0 and spf[1] == 0
    for n in range(2, 1001):
        assert spf[n] == min(trial_division_factors(n)), n


def test_factorize_1092():
    assert factorize(1092).pairs == ((2, 2), (3, 1), (7, 1), (13, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_large_semiprime():
    # the wheel splits a product of two primes just below 10^7, and
    # refuses n >= 10^14 before any division
    p, q = 9999973, 9999991
    assert factorize(p * q).pairs == ((p, 1), (q, 1))
    assert factorize(10**14 - 1).pairs == ((3, 2), (11, 1), (239, 1), (4649, 1), (909091, 1))
    for n in (10**14, 10000019 * 10000079):
        with pytest.raises(ValueError):
            factorize(n)


@given(st.integers(min_value=1, max_value=100000))
@settings(max_examples=300)
def test_factorize_matches_trial_division(n):
    assert dict(factorize(n).pairs) == trial_division_factors(n)


def test_arithmetic_functions_30():
    assert arithmetic_functions(30) == (8, -1, 8)


def test_arithmetic_functions_oracle():
    for n in range(1, 500):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        facs = trial_division_factors(n)
        mu = 0 if any(e > 1 for e in facs.values()) else (-1) ** len(facs)
        tau = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert arithmetic_functions(n) == (phi, mu, tau), n


def test_divisor_sum_identities():
    # sum_{d|n} phi(d) = n and sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 10001):
        ds = divisors(n)
        assert sum(arithmetic_functions(d)[0] for d in ds) == n
        assert sum(arithmetic_functions(d)[1] for d in ds) == (1 if n == 1 else 0)


def test_fermat_little_theorem_sample():
    for p in primes_up_to(200):
        for a in (2, 3, 5, p - 1):
            if a % p:
                assert pow_mod_lanes(a, p - 1, p) == 1


def test_multiplicative_order_examples():
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 7) == 1


def test_multiplicative_order_rejects_shared_factor():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


def test_multiplicative_order_oracle():
    for m in (7, 9, 15, 101, 128):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            k, x = 1, a % m
            while x != 1:
                x = x * a % m
                k += 1
            assert multiplicative_order(a, m) == k, (a, m)


def test_primitive_roots_mod_7():
    assert {a for a in range(7) if is_primitive_root(a, 7)} == {3, 5}


def test_primitive_root_counts():
    # phi(p-1) primitive roots for every odd prime p <= 101
    for p in primes_up_to(101)[1:]:
        count = sum(1 for a in range(1, p) if is_primitive_root(a, p))
        assert count == arithmetic_functions(p - 1)[0], p


def test_odd_prime_validation():
    assert OddPrime(5).p2 == 25
    assert odd_prime(7).p == 7
    assert odd_prime(OddPrime(11)).p == 11
    for bad in (2, 4, 9, 1, -7, 2**31 + 11):
        with pytest.raises(ValueError):
            OddPrime(bad)


def test_factorization_primes_ascending():
    fac = factorize(75600)
    assert isinstance(fac, Factorization)
    assert fac.primes() == sorted(fac.primes())


def test_least_primitive_root_matches_first_generator():
    for p in primes_up_to(2000)[1:] + [1000003, 2147483647]:
        g = least_primitive_root(p)
        assert is_primitive_root(g, p) and not any(is_primitive_root(a, p) for a in range(2, g)), p


def test_pow_mod_lanes_matches_pow():
    rng = random.Random(5)
    m = [rng.randrange(1, 1 << 31) for _ in range(400)] + [1, 2, 2**31 - 1, 2**31 - 1]
    base = [rng.randrange(mod) for mod in m[:-2]] + [2**31 - 2, 0]
    e = [rng.randrange(1 << 40) for _ in m[:-4]] + [5, 0, 2**31 - 2, 0]
    got = pow_mod_lanes(np.array(base), np.array(e), np.array(m))
    assert got.tolist() == [pow(b, k, mod) for b, k, mod in zip(base, e, m)]
    # a scalar exponent and modulus broadcast over the lanes
    assert pow_mod_lanes(np.arange(7), 3, 7).tolist() == [x**3 % 7 for x in range(7)]


def test_is_prime_lanes_matches_sieve_and_pseudoprimes():
    n = np.arange(100_000)
    expect = np.zeros(len(n), dtype=bool)
    expect[primes_up_to(len(n) - 1)] = True
    assert (is_prime_lanes(n) == expect).all()
    # a Carmichael number, strong pseudoprimes to base 2, to bases 2 and 3,
    # and to 2, 3 and 5 (those to 2, 3, 5 and 7 start at 3,215,031,751)
    liars = [561, 2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 161304001, 960946321, 1157839381]
    near_top = [2**31 - 1, 2147483629, 2147483587, 2147483579, 2**31 - 3, 2**31 - 9]
    sample = np.array(liars + near_top)
    assert is_prime_lanes(sample).tolist() == [is_prime(int(x)) for x in sample]
    with pytest.raises(ValueError):
        is_prime_lanes(np.array([1 << 31]))


def test_prime_factor_lanes_matches_factorize():
    rng = random.Random(11)
    ns = [1, 2, 3, 4, 30, 2**30, 223092870, 2**31 - 2, 2**31 - 1] + [rng.randrange(1, 1 << 31) for _ in range(500)]
    lane, prime = prime_factor_lanes(np.array(ns))
    for i, n in enumerate(ns):
        assert sorted(prime[lane == i].tolist()) == factorize(n).primes(), n
    with pytest.raises(ValueError):
        prime_factor_lanes(np.array([0]))
