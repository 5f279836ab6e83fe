"""Primitive-root indicators and searches over Fermat quotient values.

The character-sum indicator for primitive roots mod p evaluates
(phi(p-1)/(p-1)) * sum over d | p-1 of (mu(d)/phi(d)) * sum over the
characters eta of exact order d of eta(a), which is 1 on primitive
roots and 0 elsewhere.  At a = g**k the inner sum is the Ramanujan sum
c_d(k) = mu(e) phi(d)/phi(e), e = d/gcd(d, k): each term is the exact
Fraction mu(d) mu(e)/phi(e).  The least-n searches for one prime share
one walk that computes q_p(n) directly for n = 2, 3, ..., since the
typical hit is a handful of steps in.  A scan over a range of primes
takes the same walk for every prime at once, one numpy lane per prime.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

# charsums is read through the module: when cli has registered it lazily,
# the searches, which never read it, leave it unexecuted
from . import charsums, np
from .arith import (
    OddPrime,
    arithmetic_functions,
    divisors,
    is_prime_lanes,
    is_primitive_root,
    multiplicative_order,
    odd_prime,
    pow_mod_lanes,
    pow_mod_p2_lanes,
    prime_count_bound,
    prime_factor_lanes,
    primes_between,
    primitive_root_test,
)
from .quotients import UNDEFINED, QuotientTable, fermat_quotient, quotient_table


class IndicatorReport(NamedTuple):
    p: int
    a: int
    indicator: int
    terms: int  # characters the sum runs over: phi(d) over squarefree d | p-1


def primroot_indicator(p: int | OddPrime, a: int) -> IndicatorReport:
    """Exact 0/1 primitive-root indicator by the Ramanujan sums; 0 at a = 0."""
    from fractions import Fraction  # imported where it is used: most calls build none

    prime = odd_prime(p)
    a %= prime.p
    k = int(charsums.discrete_log_table(prime.p)[1][a])
    total = Fraction(0)
    terms = 0
    for d in divisors(prime.p - 1):
        phi_d, mu_d, _ = arithmetic_functions(d)
        if mu_d == 0:
            continue
        terms += phi_d
        if a:
            phi_e, mu_e, _ = arithmetic_functions(d // math.gcd(d, k))
            total += Fraction(mu_d * mu_e, phi_e)
    value = Fraction(arithmetic_functions(prime.p - 1)[0], prime.p - 1) * total
    if value not in (0, 1):
        raise AssertionError(f"indicator failed to settle at p={prime.p}, a={a}: {value}")
    return IndicatorReport(prime.p, a, int(value), terms)


def _least_n(prime: OddPrime, cap: int, hit: Callable[[int], bool]) -> int | None:
    """Least n in 2..cap whose quotient is a unit mod p and satisfies hit.

    Undefined quotients and quotient 0 are not units, so they never reach
    the predicate.
    """
    for n in range(2, cap + 1):
        q = fermat_quotient(prime, n)
        if q and hit(q):
            return n
    return None


def smallest_primroot_quotient(p: int | OddPrime, cap: int) -> int | None:
    """Least n <= cap with gcd(n, p) = 1 and q_p(n) a primitive root mod p.

    p - 1 is factored once; each candidate then costs one modular power
    per prime factor.
    """
    prime = odd_prime(p)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return _least_n(prime, cap, primitive_root_test(prime))


def smallest_dth_nonresidue_quotient(p: int | OddPrime, d: int, cap: int) -> int | None:
    """Least n <= cap with q_p(n) a d-th power nonresidue mod p.

    Euler's criterion: a unit a is a d-th power residue exactly when
    a**((p-1)/d) = 1 mod p.
    """
    prime = odd_prime(p)
    if d < 2:
        raise ValueError(f"power d must be >= 2, got {d}")
    if (prime.p - 1) % d != 0:
        raise ValueError(f"{d} does not divide p - 1 = {prime.p - 1}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    e = (prime.p - 1) // d
    return _least_n(prime, cap, lambda q: pow(q, e, prime.p) != 1)


def lemma3_envelope(card_a: int, card_b: int, p: int | OddPrime, nu: int) -> float:
    """(#A)^(1 - 1/(2 nu)) #B p^(1/(4 nu)) + (#A)^(1 - 1/(2 nu)) (#B)^(1/2) p^(1/(2 nu))."""
    prime = odd_prime(p)
    if min(card_a, card_b) < 1 or nu < 1:
        raise ValueError("cardinalities and nu must be >= 1")
    a, b, pf = float(card_a), float(card_b), float(prime.p)
    lead = a ** (1 - 1 / (2 * nu))
    return lead * b * pf ** (1 / (4 * nu)) + lead * b**0.5 * pf ** (1 / (2 * nu))


def lemma3_envelope_min(card_a: int, card_b: int, p: int | OddPrime) -> float:
    return min(lemma3_envelope(card_a, card_b, p, nu) for nu in (1, 2, 3))


def convolution_length(p: int | OddPrime) -> int:
    """Length of double_char_sum's pair-count convolution mod p: the power
    of two n >= 2p - 1 (a length 2p has the prime factor p).  doublesum
    charges its n entries."""
    return 1 << (2 * odd_prime(p).p - 2).bit_length()


def double_char_sum(p: int | OddPrime, eta: charsums.CharacterModP, a_set, b_set) -> complex:
    """sum over (a, b) in A x B of eta(a + b); eta vanishes at 0 mod p.
    That is sum over s of eta(s) c(s), c = 1_A * 1_B the cyclic convolution
    mod p, taken by one real FFT of length convolution_length(p)."""
    prime = odd_prime(p)
    if eta.modulus != prime.p:
        raise ValueError(f"character modulus {eta.modulus} != {prime.p}")
    if eta.is_trivial:
        raise ValueError("trivial character degenerates to counting nonzero sums")
    n = convolution_length(prime)
    ind = np.zeros((2, prime.p))  # assigning 1 per residue drops duplicates mod p
    ind[0, np.fromiter(a_set, dtype=np.int64) % prime.p] = 1.0
    ind[1, np.fromiter(b_set, dtype=np.int64) % prime.p] = 1.0
    if not (ind[0].any() and ind[1].any()):
        raise ValueError("both summation sets must be nonempty")
    full = np.fft.irfft(np.fft.rfft(ind[0], n) * np.fft.rfft(ind[1], n), n)
    counts = np.rint(full[: prime.p] + full[prime.p : 2 * prime.p]).astype(np.int64)
    pairs = int(ind[0].sum()) * int(ind[1].sum())
    if counts.min() < 0 or int(counts.sum()) != pairs:
        raise AssertionError(f"pair counts mod {prime.p} failed to round: sum {int(counts.sum())} != {pairs}")
    return complex(np.dot(eta.value_array(), counts))


def first_occurrence_set(table: QuotientTable, cap: int) -> list[int]:
    """One representative n per distinct quotient value over 1..cap of the
    table, each the least n attaining its value; undefined entries skipped."""
    if not 1 <= cap <= table.n:
        raise ValueError(f"cap must lie in 1..{table.n}, got {cap}")
    body = table.values[: cap + 1]
    ns = np.flatnonzero(body != UNDEFINED)  # index 0 holds UNDEFINED
    _, first = np.unique(body[ns], return_index=True)
    return np.sort(ns[first]).tolist()


class SumsetReport(NamedTuple):
    p: int
    eta_order: int
    card_u: int
    card_v: int
    abs_sum: float
    envelope: float

    @property
    def ratio(self) -> float:
        return self.abs_sum / self.envelope


def quotient_sumset_experiment(p: int | OddPrime, u_cap: int, v_cap: int, eta: charsums.CharacterModP) -> SumsetReport:
    """Double character sum over quotient values realized below the caps,
    both value sets read off the prefixes of one table of max(u_cap, v_cap)
    entries."""
    prime = odd_prime(p)
    table = quotient_table(prime, max(u_cap, v_cap))
    u_vals = [int(table.values[n]) for n in first_occurrence_set(table, u_cap)]
    v_vals = [int(table.values[n]) for n in first_occurrence_set(table, v_cap)]
    s = double_char_sum(prime, eta, u_vals, v_vals)
    return SumsetReport(
        prime.p,
        eta.order,
        len(u_vals),
        len(v_vals),
        abs(s),
        lemma3_envelope_min(len(u_vals), len(v_vals), prime),
    )


class ScanRow(NamedTuple):
    p: int
    n_min: int | None
    exponent: float | None
    verified: bool


def scan_row(p: int | OddPrime, n: int | None) -> ScanRow:
    """Report row for a search result.  A hit is verified by recomputing
    q_p(n) and running the full order test, which factors p - 1 on its
    own rather than reusing the search's exponents."""
    prime = odd_prime(p)
    if n is None:
        return ScanRow(prime.p, None, None, False)
    verified = is_primitive_root(fermat_quotient(prime, n), prime)
    return ScanRow(prime.p, n, math.log(n) / math.log(prime.p), verified)


class NonresRow(NamedTuple):
    p: int
    d: int
    n_min: int | None
    exponent: float | None
    verified: bool


def nonres_row(p: int | OddPrime, d: int, n: int | None) -> NonresRow:
    """Report row for a d-th power nonresidue search result.  A hit is
    verified by the order test rather than the search's Euler test: a unit
    q is a d-th power residue exactly when its multiplicative order divides
    (p - 1)/d, and multiplicative_order factors p - 1 on its own."""
    prime = odd_prime(p)
    if n is None:
        return NonresRow(prime.p, d, None, None, False)
    q = fermat_quotient(prime, n)
    verified = bool(q) and (prime.p - 1) // d % multiplicative_order(q, prime.p) != 0
    return NonresRow(prime.p, d, n, math.log(n) / math.log(prime.p), verified)


def _failed_lanes(lanes: int, pair_lane, q, exponent, p):
    """Per lane and per candidate column of q, how many of the lane's
    (lane, l) pairs have q**((p-1)/l) = 1 mod p; a unit q is a primitive
    root exactly when none does.  exponent and p are columns."""
    ones = pow_mod_lanes(q[pair_lane], exponent, p[pair_lane]) == 1
    width = ones.shape[1]
    cell = pair_lane[:, None] * width + np.arange(width)
    return np.bincount(cell[ones], minlength=lanes * width).reshape(lanes, width)


# Candidates per round are widened until the open lanes times the width
# reach this many cells: below it a round costs about its fixed numpy
# overhead, so later rounds try several n per lane at once.
_ROUND_CELLS = 1 << 10


def _least_primroot_lanes(primes, pair_lane, pair_prime):
    """Least n <= p**2 with q_p(n) a primitive root mod p, for every prime
    at once (0 where there is none).  A round takes the next few n on
    every open lane: n**(p-1) mod p**2 by the two-digit ladder, whose high
    digit is q_p(n) (0 when p | n), then the order test.  A lane leaves at
    its least hit, or with none once n passes p**2."""
    n_min = np.zeros(len(primes), dtype=np.int64)
    lane, p, p2 = np.arange(len(primes)), primes, primes * primes
    exponent = (p[pair_lane] - 1) // pair_prime
    n = 2
    while len(lane):
        ns = np.arange(n, n + max(1, _ROUND_CELLS // len(lane)))
        n += len(ns)
        col = p[:, None]
        q = pow_mod_p2_lanes(ns % p2[:, None], col - 1, col) // col
        failed = _failed_lanes(len(lane), pair_lane, q, exponent[:, None], col)
        hit = (q != 0) & (failed == 0) & (ns <= p2[:, None])
        found = hit.any(axis=1)
        n_min[lane[found]] = ns[hit[found].argmax(axis=1)]
        keep = ~found & (p2 >= n)
        if not keep.all():
            slot = np.cumsum(keep) - 1
            kept = keep[pair_lane]
            pair_lane, exponent = slot[pair_lane[kept]], exponent[kept]
            lane, p, p2 = lane[keep], p[keep], p2[keep]
    return n_min


def _verify_lanes(primes, n_min, pair_lane, pair_prime):
    """Check every hit without the search's ladder: q_p(n) by a Python pow
    mod p**2, then the order test over the (lane, l) pairs, l >= 1, where
    they are certified to list the prime factors of m = p - 1: each l divides
    m and passes lane Miller-Rabin, none repeats, and none is missing, that
    is, m divides rad**31 (m < 2**31 has no exponent above 30) for rad the
    product of the sound l, which divides m and so cannot overflow int64."""
    # the high base-p digit of n**(p-1) mod p**2: q_p(n), or 0 when p | n or n = 0 (no hit)
    pows = (pow(a, b - 1, b * b) // b for a, b in zip(n_min.tolist(), primes.tolist()))
    q = np.fromiter(pows, dtype=np.int64, count=len(primes))
    m = primes - 1
    sound = m[pair_lane] % pair_prime == 0
    distinct, index = np.unique(pair_prime[sound], return_inverse=True)  # each l tested once
    sound[sound] = is_prime_lanes(distinct)[index]
    _, pair, count = np.unique(pair_lane[sound] << 31 | pair_prime[sound], return_inverse=True, return_counts=True)
    sound[sound] = count[pair] == 1
    rad = np.ones_like(m)
    np.multiply.at(rad, pair_lane[sound], pair_prime[sound])
    certified = (np.bincount(pair_lane[~sound], minlength=len(m)) == 0) & (pow_mod_lanes(rad % m, 31, m) == 0)
    failed = _failed_lanes(len(primes), pair_lane, q[:, None], (m[pair_lane] // pair_prime)[:, None], primes[:, None])
    return (q != 0) & (failed[:, 0] == 0) & certified


def check_scan_range(p_min: int, p_max: int) -> None:
    """theorem4_exponent_scan needs p_min <= p_max < 2^31, where its lane
    products stay within int64."""
    if p_min > p_max:
        raise ValueError(f"empty range [{p_min}, {p_max}]")
    if p_max >= 1 << 31:
        raise ValueError(f"scan range must stay below 2^31, got {p_max}")


# Integers a scan segment lists, searches and verifies at once: a few MB of lanes.
SCAN_SEGMENT = 200_000


def scan_size(p_min: int, p_max: int) -> tuple[int, int]:
    """(integers of the widest segment, rows) of theorem4_exponent_scan at
    most: a row a prime, at most the range's odd numbers, prime_count_bound,
    and for y > 1 integers 2y / ln y (Brun-Titchmarsh, pi(x + y) - pi(x) <
    2y / ln y: Montgomery and Vaughan, 1973), the least for a narrow range."""
    lo = max(3, p_min)
    if p_max < lo:
        return 0, 0
    y = p_max - lo + 1
    narrow = int(2 * y / math.log(y)) + 1 if y > 1 else 1
    return min(SCAN_SEGMENT, y), min((p_max - lo) // 2 + 1, prime_count_bound(p_max), narrow)


def scan_steps(p_min: int, p_max: int) -> int:
    """Lane steps charged for theorem4_exponent_scan, 0 for an empty range:
    32 (one ladder bit, one trial divisor) per bit of p_max for each lane, a
    row of scan_size, and each of the _ROUND_CELLS cells a round keeps busy;
    scans from 3 to 10^4..10^7 count 22 to 24."""
    lanes = scan_size(p_min, p_max)[1]
    return 32 * p_max.bit_length() * (lanes + _ROUND_CELLS) if lanes else 0


def theorem4_exponent_scan(p_min: int, p_max: int) -> list[ScanRow]:
    """Least primitive-root quotient argument for every prime in the range,
    up to p**2, one lane a prime and one segment of SCAN_SEGMENT integers at
    a time: its primes listed and confirmed by Miller-Rabin, each p - 1
    factored by lane trial division, searched, and each hit checked."""
    check_scan_range(p_min, p_max)
    rows = []
    for lo in range(max(3, p_min), p_max + 1, SCAN_SEGMENT):
        block = primes_between(lo, min(lo + SCAN_SEGMENT - 1, p_max))
        if not is_prime_lanes(block).all():
            raise AssertionError(f"the segment sieve listed a composite in [{block[0]}, {block[-1]}]")
        pair_lane, pair_prime = prime_factor_lanes(block - 1)
        n_min = _least_primroot_lanes(block, pair_lane, pair_prime)
        verified = _verify_lanes(block, n_min, pair_lane, pair_prime)
        rows += [
            ScanRow(p, n, math.log(n) / math.log(p), ok) if n else ScanRow(p, None, None, False)
            for p, n, ok in zip(block.tolist(), n_min.tolist(), verified.tolist())
        ]
    return rows
