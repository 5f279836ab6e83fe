"""Prime sieves, factorization, and multiplicative-order arithmetic.

The scalar functions work on plain Python integers, which are arbitrary
precision, so modular products never overflow.  Primality for 64-bit
inputs is decided by Miller-Rabin with a fixed witness set that is
known to be deterministic for n < 3.3e24.  The lane functions apply
the same arithmetic to every entry of an int64 array at once, for
moduli below 2**31, where each product of two residues is below 2**62,
and mod p**2 for p < 2**31 on pairs of base-p digits, both by one ladder.
numpy loads through the package's handle `fermatq.np`, at the first array.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import np

# Deterministic for all n < 3,317,044,064,679,887,385,961,981 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic for all n < 3,215,031,751, the least strong pseudoprime
# to these four bases; lane moduli stay below 2**31.
_MR_LANE_WITNESSES = (2, 3, 5, 7)
_LANE_MODULUS_LIMIT = 1 << 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


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


class _OddPrime(NamedTuple):
    p: int
    p2: int


class OddPrime(_OddPrime):
    """A validated odd prime with its square cached alongside.  It is
    built from p alone, by the constructor, `_make` and `_replace`, and
    each checks p."""

    __slots__ = ()

    def __new__(cls, p: int) -> OddPrime:
        if not isinstance(p, int):
            raise ValueError(f"prime must be an integer, got {type(p).__name__}")
        if p < 3 or p >= 1 << 31:
            raise ValueError(f"prime out of range [3, 2^31): {p}")
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"not an odd prime: {p}")
        return tuple.__new__(cls, (p, p * p))

    @classmethod
    def _make(cls, fields) -> OddPrime:
        p, _ = fields
        return cls(p)


def odd_prime(p: int | OddPrime) -> OddPrime:
    return p if isinstance(p, OddPrime) else OddPrime(p)


def primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi] as an ascending int64 array: one bool segment,
    crossed off from l**2 by each prime l <= sqrt(hi), which this lists too
    (segmented Eratosthenes: Bays and Hudson, BIT 17, 1977)."""
    lo = max(lo, 2)
    segment = np.ones(max(hi - lo + 1, 0), dtype=bool)
    for ell in primes_between(2, math.isqrt(hi)).tolist() if hi > 3 else []:
        segment[max(ell * ell, -(-lo // ell) * ell) - lo :: ell] = False
    return np.flatnonzero(segment) + lo


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    return primes_between(2, limit).tolist()


def prime_count_bound(x: int) -> int:
    """An upper bound on the number of primes up to x: 1.25506 x / ln x
    for x > 1 (Rosser and Schoenfeld, 1962)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


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


class Factorization(NamedTuple):
    """Prime factorization as ascending (prime, multiplicity) pairs."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> list[int]:
        return [p for p, _ in self.pairs]


_WHEEL_STEPS = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps between the residues prime to 30


def _wheel_divisors(limit: int):
    """2, 3, 5, then every integer up to limit prime to 30, ascending: a
    superset of the primes, so trial division by them in order finds
    every prime factor (a composite divisor no longer divides)."""
    yield from (d for d in (2, 3, 5) if d <= limit)
    d, i = 7, 0
    while d <= limit:
        yield d
        d += _WHEEL_STEPS[i]
        i = (i + 1) % 8


def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 10**14 by trial division over the wheel up to
    sqrt(n) < 10**7; for p - 1 at any p < 2**31, up to 46,340."""
    if not 1 <= n < 10**14:
        raise ValueError(f"factorize requires 1 <= n < 10^14, got {n}")
    pairs = []
    m = n
    for d in _wheel_divisors(math.isqrt(n)):
        if d * d > m:
            break
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            pairs.append((d, e))
    if m > 1:  # no prime factor up to its square root is left, so m is prime
        pairs.append((m, 1))
    return Factorization(n, tuple(pairs))


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


def primitive_root_test(p: int | OddPrime) -> Callable[[int], bool]:
    """The order test mod the odd prime p: a unit a generates the units
    exactly when a**((p-1)/q) != 1 for every prime q | p - 1.  Each call
    factors p - 1 afresh."""
    p = odd_prime(p).p
    exponents = [(p - 1) // q for q in factorize(p - 1).primes()]
    return lambda a: all(pow(a, e, p) != 1 for e in exponents)


def is_primitive_root(a: int, p: int | OddPrime) -> bool:
    """True when a generates the full unit group mod the odd prime p."""
    prime = odd_prime(p)
    a %= prime.p
    return a != 0 and primitive_root_test(prime)(a)


def least_primitive_root(p: int | OddPrime) -> int:
    """The least g >= 2 that generates the units mod the odd prime p."""
    generates = primitive_root_test(p)
    g = 2
    while not generates(g):
        g += 1
    return g


def _square_and_multiply(base: tuple, e, one: tuple, mul) -> tuple:
    """base**e lane by lane under the product mul, by one ladder over the
    bits of the largest exponent: base and one are tuples of int64 arrays
    (the digits of a residue), e an int64 array or scalar.  A lane takes
    the product only at its own one bits; a bit that no lane has costs no
    product, and one that every lane has needs no np.where."""
    acc = one
    while e.any():
        odd = e & 1 == 1
        if odd.all():
            acc = mul(acc, base)
        elif odd.any():
            acc = tuple(np.where(odd, x, y) for x, y in zip(mul(acc, base), acc))
        e = e >> 1
        if e.any():
            base = mul(base, base)
    return acc


def pow_mod_lanes(base, e, m):
    """base**e mod m lane by lane: int64 arrays (or scalars) with
    0 <= base < m < 2**31 and e >= 0."""
    base, e = np.broadcast_arrays(np.asarray(base, dtype=np.int64), np.asarray(e, dtype=np.int64))
    return _square_and_multiply((base,), e, (np.ones_like(base) % m,), lambda x, y: (x[0] * y[0] % m,))[0]


def _mul_mod_p2(x, y, p):
    """(x0 + p x1)(y0 + p y1) mod p**2 as its base-p digits (low, high).

    Every digit is below p < 2^31, so each product is below 2^62 and
    int64 arithmetic is exact."""
    (x0, x1), (y0, y1) = x, y
    carry, low = divmod(x0 * y0, p)
    return low, (carry + x0 * y1 % p + x1 * y0 % p) % p


def pow_mod_p2_lanes(units, e, p):
    """units**e mod p**2 elementwise, for int64 units in 0..p**2-1, on
    base-p digit pairs.  e and p are scalars, or int64 arrays with one
    exponent and one prime per lane."""
    one = (np.ones_like(units), np.zeros_like(units))
    low, high = _square_and_multiply(np.divmod(units, p)[::-1], np.asarray(e), one, lambda x, y: _mul_mod_p2(x, y, p))
    return low + p * high


def is_prime_lanes(ns):
    """Deterministic Miller-Rabin on each lane of an int64 array with
    entries in 0..2**31 - 1: witnesses 2, 3, 5 and 7, exact below
    3,215,031,751."""
    n = np.asarray(ns, dtype=np.int64)
    if n.size and (n.min() < 0 or n.max() >= _LANE_MODULUS_LIMIT):
        raise ValueError("lane primality needs entries in [0, 2^31)")
    prime = n == 2
    odd = np.flatnonzero((n > 2) & (n & 1 == 1))
    m = n[odd]
    d, s = m - 1, np.zeros_like(m)
    while True:
        even = (d & 1 == 0) & (d > 0)
        if not even.any():
            break
        d = np.where(even, d >> 1, d)
        s += even
    sure = np.ones(len(m), dtype=bool)
    for a in _MR_LANE_WITNESSES:
        x = pow_mod_lanes(a % m, d, m)
        passed = (x == 1) | (x == m - 1) | (a % m == 0)
        for r in range(1, int(s.max(initial=0))):
            x = x * x % m
            passed |= (x == m - 1) & (r < s)
        sure &= passed
    prime[odd] = sure
    return prime


def prime_factor_lanes(ns):
    """The distinct prime factors of each entry n >= 1 of an int64 array,
    by trial division over the wheel mod 30, all lanes at once: a pair of
    arrays (lane, prime), one entry per factor.  A lane drops out once its
    cofactor is below the square of the divisor, leaving 1 or a prime."""
    m = np.array(ns, dtype=np.int64)
    if m.size and m.min() < 1:
        raise ValueError("lane factorization needs entries >= 1")
    lanes, primes = [], []
    active = np.arange(len(m))
    for d in _wheel_divisors(math.isqrt(int(m.max(initial=1)))):
        active = active[m[active] >= d * d]
        if not len(active):
            break
        hit = active[m[active] % d == 0]
        if len(hit):
            lanes.append(hit)
            primes.append(np.full(len(hit), d, dtype=np.int64))
        while len(hit):
            m[hit] //= d
            hit = hit[m[hit] % d == 0]
    rest = np.flatnonzero(m > 1)
    lanes.append(rest)
    primes.append(m[rest])
    return np.concatenate(lanes), np.concatenate(primes)
