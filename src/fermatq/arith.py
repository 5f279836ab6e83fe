"""Prime sieves, factorization, and multiplicative-order arithmetic.

Everything here works on plain Python integers, which are arbitrary
precision, so modular products never overflow.  Primality for 64-bit
inputs is decided by Miller-Rabin with a fixed witness set that is
known to be deterministic for n < 3.3e24.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Deterministic for all n < 3,317,044,064,679,887,385,961,981 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

MAX_MODULUS = 1 << 63


class BudgetError(RuntimeError):
    """Raised when a requested computation exceeds a configured cap."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class OddPrime:
    """A validated odd prime with its square cached alongside."""

    p: int
    p2: int = field(init=False)

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int):
            raise ValueError(f"prime must be an integer, got {type(p).__name__}")
        if p < 3 or p >= 1 << 31:
            raise ValueError(f"prime out of range [3, 2^31): {p}")
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"not an odd prime: {p}")
        object.__setattr__(self, "p2", p * p)

    def __int__(self) -> int:
        return self.p


def odd_prime(p: int | OddPrime) -> OddPrime:
    return p if isinstance(p, OddPrime) else OddPrime(p)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    spf = smallest_prime_factors(limit)
    return (np.flatnonzero(spf[2:] == np.arange(2, limit + 1)) + 2).tolist()


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = least prime factor of n for 2 <= n <= limit; spf[0] = spf[1] = 0."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit < 2:
        return spf
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
    rest = spf[2:] == 0
    spf[2:][rest] = np.nonzero(rest)[0] + 2
    return spf


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, multiplicity) pairs."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> list[int]:
        return [p for p, _ in self.pairs]


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, Brent's cycle variant.

    The increment c walks 1, 2, 3, ... so the factor found is a
    deterministic function of n.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


_RHO_CUTOFF = 10**7


def factorize(n: int) -> Factorization:
    """Factor n >= 1. Trial division below 1e7, Pollard rho above."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    pairs: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            pairs[p] = pairs.get(p, 0) + 1
            m //= p
    # wheel over 30 covers trial division; switch to rho when the
    # remaining cofactor is large and prime-free below the cutoff
    d = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= m and d < _RHO_CUTOFF:
        while m % d == 0:
            pairs[d] = pairs.get(d, 0) + 1
            m //= d
        d += increments[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            pairs[m] = pairs.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(n, tuple(sorted(pairs.items())))


def arithmetic_functions(n: int) -> tuple[int, int, int]:
    """(phi, mu, tau) of n from a single factorization."""
    fac = factorize(n)
    phi, mu, tau = 1, 1, 1
    for p, e in fac.pairs:
        phi *= (p - 1) * p ** (e - 1)
        mu = 0 if e > 1 else -mu
        tau *= e + 1
    return phi, mu, tau


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus for exponent >= 0 and 1 <= modulus < 2**63."""
    if exponent < 0:
        raise ValueError(f"negative exponent: {exponent}")
    if not 1 <= modulus < MAX_MODULUS:
        raise ValueError(f"modulus out of range [1, 2^63): {modulus}")
    return pow(base, exponent, modulus)


def multiplicative_order(a: int, modulus: int) -> int:
    """Least k >= 1 with a**k = 1 mod modulus; requires gcd(a, modulus) = 1.

    Starts from phi(modulus) and strips prime factors while the power
    stays at 1, so the cost is a factorization plus O(log) mod-pows.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"gcd({a}, {modulus}) != 1")
    phi, _, _ = arithmetic_functions(modulus)
    order = phi
    for q in factorize(phi).primes():
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def is_primitive_root(a: int, p: int | OddPrime) -> bool:
    """True when a generates the full unit group mod the odd prime p."""
    p = odd_prime(p).p
    a %= p
    if a == 0:
        return False
    return all(pow(a, (p - 1) // q, p) != 1 for q in factorize(p - 1).primes())
