"""Primitive-root indicators and searches over Fermat quotient values.

The character-sum indicator for primitive roots mod p evaluates
(phi(p-1)/(p-1)) * sum over d | p-1 of (mu(d)/phi(d)) * sum over the
characters eta of exact order d of eta(a), which is 1 on primitive
roots and 0 elsewhere.  The least-n searches share one walk that
computes q_p(n) directly for n = 2, 3, ..., since the typical hit is a
handful of steps in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arith import (
    OddPrime,
    arithmetic_functions,
    divisors,
    factorize,
    is_primitive_root,
    odd_prime,
    primes_up_to,
)
from .charsums import CharacterModP
from .quotients import UNDEFINED, fermat_quotient, quotient_table

_INDICATOR_TOL = 1e-6


@dataclass(frozen=True)
class IndicatorReport:
    p: int
    a: int
    indicator: int
    terms: int  # characters actually summed: phi(d) over squarefree d | p-1


def primroot_indicator(p: int | OddPrime, a: int) -> IndicatorReport:
    """Exact 0/1 primitive-root indicator via the order-d character sums."""
    prime = odd_prime(p)
    a %= prime.p
    total = 0j
    terms = 0
    for d in divisors(prime.p - 1):
        phi_d, mu_d, _ = arithmetic_functions(d)
        if mu_d == 0:
            continue
        block = 0j
        for eta in CharacterModP.all_of_order(prime, d):
            block += eta(a)
            terms += 1
        total += (mu_d / phi_d) * block
    phi_top = arithmetic_functions(prime.p - 1)[0]
    value = (phi_top / (prime.p - 1)) * total
    rounded = int(round(value.real))
    if abs(value.imag) > _INDICATOR_TOL or abs(value.real - rounded) > _INDICATOR_TOL or rounded not in (0, 1):
        raise AssertionError(f"indicator failed to settle at p={prime.p}, a={a}: {value}")
    return IndicatorReport(prime.p, a, rounded, terms)


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
    exponents = [(prime.p - 1) // r for r in factorize(prime.p - 1).primes()]
    return _least_n(prime, cap, lambda q: all(pow(q, e, prime.p) != 1 for e in exponents))


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


def lemma3_envelope_min(card_a: int, card_b: int, p: int | OddPrime, nus=(1, 2, 3)) -> float:
    return min(lemma3_envelope(card_a, card_b, p, nu) for nu in nus)


def double_char_sum(p: int | OddPrime, eta: CharacterModP, a_set, b_set) -> complex:
    """sum over (a, b) in A x B of eta(a + b); eta vanishes at 0 mod p."""
    prime = odd_prime(p)
    if eta.modulus != prime.p:
        raise ValueError(f"character modulus {eta.modulus} != {prime.p}")
    if eta.is_trivial:
        raise ValueError("trivial character degenerates to counting nonzero sums")
    a_arr = np.unique(np.asarray(sorted(a_set), dtype=np.int64) % prime.p)
    b_arr = np.unique(np.asarray(sorted(b_set), dtype=np.int64) % prime.p)
    if len(a_arr) == 0 or len(b_arr) == 0:
        raise ValueError("both summation sets must be nonempty")
    grid = np.add.outer(a_arr, b_arr) % prime.p
    return complex(eta.value_array()[grid].sum())


def first_occurrence_set(p: int | OddPrime, cap: int) -> list[int]:
    """One representative n per distinct quotient value over 1..cap,
    each the least n attaining its value; undefined entries skipped."""
    body = quotient_table(odd_prime(p), cap).values
    ns = np.flatnonzero(body != UNDEFINED)  # index 0 holds UNDEFINED
    _, first = np.unique(body[ns], return_index=True)
    return np.sort(ns[first]).tolist()


@dataclass(frozen=True)
class SumsetReport:
    p: int
    eta_order: int
    card_u: int
    card_v: int
    abs_sum: float
    envelope: float

    @property
    def ratio(self) -> float:
        return self.abs_sum / self.envelope


def quotient_sumset_experiment(p: int | OddPrime, u_cap: int, v_cap: int, eta: CharacterModP) -> SumsetReport:
    """Double character sum over quotient values realized below the caps."""
    prime = odd_prime(p)
    u_reps = first_occurrence_set(prime, u_cap)
    v_reps = first_occurrence_set(prime, v_cap)
    table = quotient_table(prime, max(u_cap, v_cap))
    u_vals = [int(table.values[n]) for n in u_reps]
    v_vals = [int(table.values[n]) for n in v_reps]
    s = double_char_sum(prime, eta, u_vals, v_vals)
    return SumsetReport(
        prime.p,
        eta.order,
        len(u_vals),
        len(v_vals),
        abs(s),
        lemma3_envelope_min(len(u_vals), len(v_vals), prime),
    )


@dataclass(frozen=True)
class ScanRow:
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


def theorem4_exponent_scan(p_min: int, p_max: int) -> list[ScanRow]:
    """Least primitive-root quotient argument for every prime in the range,
    searched up to p**2, with each hit verified once by scan_row."""
    if p_min > p_max:
        raise ValueError(f"empty range [{p_min}, {p_max}]")
    primes = [odd_prime(p) for p in primes_up_to(p_max) if p >= max(3, p_min)]
    return [scan_row(prime, smallest_primroot_quotient(prime, prime.p2)) for prime in primes]
