"""Large-sieve ratio experiments over square moduli and prime averages.

A trigonometric polynomial T(u) = sum_{k<=K} alpha_k e(ku) is tested
against the square-moduli large-sieve envelope
(R^3 + K + min(K R^(1/2), K^(1/2) R^2)) * A with A = sum |alpha_k|^2,
and against the conjectured sharper form (R^3 + K) * A.  The prime
average sums max_a |S_p(a; N_p)|^(2 nu) over p in (P, 2P] and compares
it to its proved envelope; summation runs in ascending prime order so
results are bit-reproducible at any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .arith import BudgetError, primes_up_to
from .charsums import max_exp_sum, unit_roots
from .config import DEFAULT_BUDGET_OPS
from .quotients import quotient_table, value_histogram


@dataclass(frozen=True)
class TrigPolynomial:
    """Coefficients alpha_1..alpha_K; index j of the array holds alpha_{j+1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("coefficient vector must be one-dimensional and nonempty")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def k_max(self) -> int:
        return len(self.coeffs)

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def trig_poly_eval(poly: TrigPolynomial, u: Fraction | float) -> complex:
    """T(u) = sum_k alpha_k e(ku); Fractions evaluate via reduced integers."""
    ks = np.arange(1, poly.k_max + 1, dtype=np.int64)
    if isinstance(u, Fraction):
        phases = unit_roots(u.denominator, int(u.numerator) * ks)
    else:
        phases = np.exp(2j * np.pi * (ks * float(u) % 1.0))
    return complex(np.dot(poly.coeffs, phases))


def fold_coefficients(poly: TrigPolynomial, m: int) -> np.ndarray:
    """c_j = sum of alpha_k over k = j mod m, the length-m alias of the poly."""
    if m < 1:
        raise ValueError(f"fold length must be >= 1, got {m}")
    c = np.zeros(m, dtype=np.complex128)
    np.add.at(c, np.arange(1, poly.k_max + 1) % m, poly.coeffs)
    return c


def _poly_at_square_modulus(poly: TrigPolynomial, r2: int) -> np.ndarray:
    """T(a/r2) for a = 0..r2-1 via one inverse transform of the folded coeffs."""
    return r2 * np.fft.ifft(fold_coefficients(poly, r2))


def large_sieve_lhs(poly: TrigPolynomial, r_max: int, *, budget_ops: int = DEFAULT_BUDGET_OPS) -> float:
    """sum over r <= R, a in [1, r^2] with gcd(a, r) = 1 of |T(a/r^2)|^2."""
    if r_max < 1:
        raise ValueError(f"R must be >= 1, got {r_max}")
    points = sum(r * r for r in range(1, r_max + 1))
    if points > budget_ops:
        raise BudgetError(f"{points} evaluation points exceed budget {budget_ops}")
    total = 0.0
    for r in range(1, r_max + 1):
        vals = _poly_at_square_modulus(poly, r * r)
        a = np.arange(1, r * r + 1)
        keep = np.gcd(a, r) == 1
        total += float(np.sum(np.abs(vals[a[keep] % (r * r)]) ** 2))
    return total


def large_sieve_rhs(k_max: int, r_max: int, energy: float) -> float:
    """(R^3 + K + min(K sqrt(R), sqrt(K) R^2)) * A."""
    k, r = float(k_max), float(r_max)
    return (r**3 + k + min(k * r**0.5, k**0.5 * r**2)) * energy


def zhao_conjecture_rhs(k_max: int, r_max: int, energy: float) -> float:
    """(R^3 + K) * A, the conjectured sharp envelope."""
    return (float(r_max) ** 3 + float(k_max)) * energy


def parseval_check(poly: TrigPolynomial, m: int) -> float:
    """| sum_a |T(a/m)|^2 - m * sum_j |c_j|^2 | over the full residue grid."""
    if m < 1:
        raise ValueError(f"grid length must be >= 1, got {m}")
    lhs = sum(abs(trig_poly_eval(poly, Fraction(a, m))) ** 2 for a in range(m))
    c = fold_coefficients(poly, m)
    rhs = m * float(np.sum(np.abs(c) ** 2))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class SieveReport:
    r_max: int
    k_max: int
    energy: float
    lhs: float
    rhs_bz: float
    rhs_zhao: float

    @property
    def ratio_bz(self) -> float:
        return self.lhs / self.rhs_bz

    @property
    def ratio_zhao(self) -> float:
        return self.lhs / self.rhs_zhao


def sieve_report(poly: TrigPolynomial, r_max: int, *, budget_ops: int = DEFAULT_BUDGET_OPS) -> SieveReport:
    lhs = large_sieve_lhs(poly, r_max, budget_ops=budget_ops)
    a = poly.energy
    return SieveReport(
        r_max,
        poly.k_max,
        a,
        lhs,
        large_sieve_rhs(poly.k_max, r_max, a),
        zhao_conjecture_rhs(poly.k_max, r_max, a),
    )


def rho_coefficient(m_max: int, b: int, nu: int, k: int) -> complex:
    """sum of e(b*(m_1 + ... + m_nu)/M) over ordered factorizations of k
    into nu factors, each in [1, M]."""
    if m_max < 1:
        raise ValueError(f"M must be >= 1, got {m_max}")
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # (cofactor left to split, factor sum so far mod M) -> number of ways
    states: dict[tuple[int, int], int] = {(k, 0): 1}
    for _ in range(nu - 1):
        step: dict[tuple[int, int], int] = {}
        for (remaining, acc), count in states.items():
            d = 1
            while d * d <= remaining:
                if remaining % d == 0:
                    for f in {d, remaining // d}:
                        if f <= m_max:
                            key = (remaining // f, (acc + f) % m_max)
                            step[key] = step.get(key, 0) + count
                d += 1
        states = step
    sums: dict[int, int] = {}
    for (remaining, acc), count in states.items():
        # last factor is forced to the whole remainder
        if remaining <= m_max:
            key = (acc + remaining) % m_max
            sums[key] = sums.get(key, 0) + count
    b_red = b % m_max
    total = 0j
    for s, count in sorted(sums.items()):
        total += count * complex(unit_roots(m_max, np.array([b_red * s]))[0])
    return total


NSelector = Callable[[int], int]


def constant_rule(n: int) -> NSelector:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return lambda p: n


def power_rule(theta: Fraction | float, p_scale: int) -> NSelector:
    """N_p = ceil(P^theta) for rational theta, fixed across the window.

    The ceiling is taken in exact integer arithmetic; a float pow here
    would misround perfect powers (27**(1/3) lands above 3).
    """
    frac = Fraction(theta)
    if frac < 0:
        raise ValueError(f"exponent must be nonnegative, got {frac}")
    target = p_scale**frac.numerator
    n = max(1, round(float(target) ** (1.0 / frac.denominator))) if frac.denominator > 1 else target
    while n**frac.denominator < target:
        n += 1
    while n > 1 and (n - 1) ** frac.denominator >= target:
        n -= 1
    return constant_rule(int(n))


def table_rule(mapping: dict[int, int]) -> NSelector:
    def pick(p: int) -> int:
        if p not in mapping:
            raise ValueError(f"no N_p entry for prime {p}")
        return mapping[p]

    return pick


@dataclass(frozen=True)
class Theorem1Result:
    p_scale: int
    nu: int
    n_ref: int
    lhs: float
    rhs_envelope: float
    trivial_bound: int
    ratio: float
    prime_count: int
    wall_seconds: float
    per_prime: tuple[tuple[int, int, float], ...]  # (p, N_p, max |S|)


def _moment_task(args: tuple[int, int]) -> float:
    p, n_p = args
    table = quotient_table(p, n_p)
    hist = value_histogram(table)
    _, m = max_exp_sum(p, n_p, hist=hist)
    return m


def theorem1_average(
    p_scale: int,
    nu: int,
    selector: NSelector,
    *,
    threads: int = 1,
    budget_ops: int = DEFAULT_BUDGET_OPS,
) -> Theorem1Result:
    """Average of max_a |S_p(a; N_p)|^(2 nu) over the primes p in (P, 2P]."""
    if p_scale < 3:
        raise ValueError(f"P must be >= 3, got {p_scale}")
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    start = time.monotonic()
    primes = [p for p in primes_up_to(2 * p_scale) if p > p_scale]
    n_by_p = [(p, selector(p)) for p in primes]
    n_max = max(n for _, n in n_by_p)
    n_ref = max(1, (n_max + 1) // 2)
    for p, n_p in n_by_p:
        if n_p < 1:
            raise ValueError(f"N_p must be >= 1, got {n_p} at p={p}")
        if n_p > p_scale * p_scale:
            raise ValueError(f"N_p = {n_p} exceeds P^2 at p={p}")
        # the all-ones rule is the lone waiver: no integer window holds N_p = 1
        if n_p <= n_ref and n_max > 1:
            raise ValueError(f"N_p = {n_p} at p={p} falls outside the dyadic window ({n_ref}, {2 * n_ref}]")
    # a table of N_p entries and one length-p FFT per prime
    cost = sum(n_p + p for p, n_p in n_by_p)
    if cost > budget_ops:
        raise BudgetError(f"estimated cost {cost} exceeds budget {budget_ops}")
    workers = min(threads, os.cpu_count() or 1, len(n_by_p))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            maxima = list(pool.map(_moment_task, n_by_p, chunksize=8))
    else:
        maxima = [_moment_task(a) for a in n_by_p]
    moments = np.array([m ** (2 * nu) for m in maxima], dtype=np.float64)
    lhs = float(moments.sum())  # fixed ascending-prime order
    n, p = float(n_ref), float(p_scale)
    rhs = (p**3 + n**nu + min(n**nu * p**0.5, n ** (nu / 2.0) * p**2)) * n**nu
    trivial = sum(n_p ** (2 * nu) for _, n_p in n_by_p)
    return Theorem1Result(
        p_scale,
        nu,
        n_ref,
        lhs,
        rhs,
        trivial,
        lhs / rhs,
        len(primes),
        time.monotonic() - start,
        tuple((p, n_p, m) for (p, n_p), m in zip(n_by_p, maxima)),
    )


def exceptional_counts(result: Theorem1Result, kappas: Sequence[float]) -> list[tuple[float, int]]:
    """#{p in the window : max |S_p| > N_p * p^(-kappa)} for each kappa."""
    out = []
    for kappa in kappas:
        count = sum(1 for p, n_p, m in result.per_prime if m > n_p * p ** (-kappa))
        out.append((float(kappa), count))
    return out
