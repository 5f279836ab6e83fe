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

import functools
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import np
from .arith import OddPrime, prime_count_bound, primes_between, smallest_prime_factors
from .charsums import max_exp_sum, unit_roots
from .config import DEFAULT_TABLE_CAP
from .quotients import QuotientTable, quotient_rows, value_histogram

if TYPE_CHECKING:
    from fractions import Fraction


class _TrigPolynomial(NamedTuple):
    coeffs: np.ndarray


class TrigPolynomial(_TrigPolynomial):
    """Coefficients alpha_1..alpha_K; index j of the array holds alpha_{j+1}.
    Built, by the constructor, `_make` or `_replace`, as a read-only
    complex vector, checked to be one-dimensional and nonempty."""

    __slots__ = ()

    def __new__(cls, coeffs) -> TrigPolynomial:
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("coefficient vector must be one-dimensional and nonempty")
        arr.setflags(write=False)
        return tuple.__new__(cls, (arr,))

    @classmethod
    def _make(cls, fields) -> TrigPolynomial:
        return cls(*fields)

    @property
    def k_max(self) -> int:
        return len(self.coeffs)

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def trig_poly_eval(poly: TrigPolynomial, u: Fraction) -> complex:
    """T(u) = sum_k alpha_k e(ku), its phases at reduced integer arguments."""
    ks = np.arange(1, poly.k_max + 1, dtype=np.int64)
    return complex(np.dot(poly.coeffs, unit_roots(u.denominator, u.numerator * ks)))


def transform_length(k_max: int) -> int:
    """The power of two at least 2K - 1 that large_sieve_lhs pads its
    transforms to, so that their circular autocorrelation is the linear one."""
    return 1 << (2 * k_max - 2).bit_length()


def _real_autocorrelation(poly: TrigPolynomial) -> np.ndarray:
    """Re rho(t) for t = 0..K-1, where rho(t) = sum_k alpha_(k+t) conj(alpha_k):
    the real autocorrelations of Re alpha and Im alpha summed, from one rfft
    of each and one irfft of |X|^2 + |Y|^2.  Each buffer is freed once used."""
    n = transform_length(poly.k_max)
    power = np.zeros(n // 2 + 1)
    for part in (poly.coeffs.real, poly.coeffs.imag):
        spectrum = np.fft.rfft(part, n)
        power += spectrum.real**2
        power += spectrum.imag**2
        del spectrum
    return np.fft.irfft(power, n)[: poly.k_max]


def _squarefree_divisors(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    """(d, mu(d)) for the squarefree divisors d of n, ascending, from the
    least prime factors spf of a sieve that reaches n."""
    divisors = [(1, 1)]
    while n > 1:
        p = int(spf[n])
        divisors += [(d * p, -mu) for d, mu in divisors]
        while n % p == 0:
            n //= p
    return sorted(divisors)


def large_sieve_lhs(poly: TrigPolynomial, r_values: Sequence[int]) -> list[float]:
    """For each R of r_values, in their order, the sum over r <= R, a in
    [1, r^2] with gcd(a, r) = 1 of |T(a/r^2)|^2, without evaluating T.  For
    each r it is

        sum over squarefree d | r of mu(d) m E(m),  m = r^2 / d,
        E(m) = A + 2 sum over t >= 1 with m | t of Re rho(t),

    with A = sum |alpha_k|^2 and rho as in _real_autocorrelation.  Moebius
    over d | r removes the a that share a prime with r; the a = d b that
    d divides run over all b mod m, and Parseval on that full grid gives
    sum_b |T(b/m)|^2 = m sum_(j mod m) |c_j|^2 = m E(m), c_j the sum of the
    alpha_k with k = j mod m.  E(m) = A once m >= K.  One running sum in
    ascending r and d serves every R: each value is the sum R alone adds."""
    if min(r_values) < 1:
        raise ValueError(f"R must be >= 1, got {min(r_values)}")
    rho = _real_autocorrelation(poly)
    energy = poly.energy
    spf = smallest_prime_factors(max(r_values))
    at = dict.fromkeys(r_values)
    total = 0.0
    for r in range(1, len(spf)):
        for d, mu in _squarefree_divisors(r, spf):
            m = r * r // d
            total += mu * m * (energy + 2 * float(rho[m::m].sum()) if m < poly.k_max else energy)
        if r in at:
            at[r] = total
    return [at[r] for r in r_values]


# Steps charged for each (r, d) term of large_sieve_lhs beyond its slice of
# rho: its Python loop takes 200 to 400 ns, 23 scan lane steps of 27 to 37 ns.
_TERM_STEPS = 23


def lhs_steps(k_max: int, r_max: int) -> float:
    """Steps charged for large_sieve_lhs with K coefficients up to R: three
    transforms of transform_length(K) points, and for each r <= R and
    squarefree d | r the ceil(K d / r^2) terms of E(r^2 / d) and
    _TERM_STEPS more.  That double sum is bounded in closed form, before
    any r is factored: ceil(K d / r^2) <= K d / r^2 + 1, the sum over
    r <= R of sigma(r) / r^2 is at most zeta(2) (ln R + 1), and r has at
    most tau(r) squarefree divisors, whose sum over r <= R is at most
    R (ln R + 1).  So, with W = _TERM_STEPS,

        3 transform_length(K) + (K pi^2/6 + (W + 1) R)(ln R + 1)."""
    return 3 * transform_length(k_max) + (k_max * math.pi**2 / 6 + (_TERM_STEPS + 1) * r_max) * (math.log(r_max) + 1)


def large_sieve_rhs(k_max: int, r_max: int, energy: float) -> float:
    """(R^3 + K + min(K sqrt(R), sqrt(K) R^2)) * A."""
    k, r = float(k_max), float(r_max)
    return (r**3 + k + min(k * r**0.5, k**0.5 * r**2)) * energy


def zhao_conjecture_rhs(k_max: int, r_max: int, energy: float) -> float:
    """(R^3 + K) * A, the conjectured sharp envelope."""
    return (float(r_max) ** 3 + float(k_max)) * energy


def parseval_check(poly: TrigPolynomial, m: int) -> float:
    """| sum_a |T(a/m)|^2 - m * sum_j |c_j|^2 | over the full residue grid,
    c_j the sum of the alpha_k with k = j mod m."""
    if m < 1:
        raise ValueError(f"grid length must be >= 1, got {m}")
    from fractions import Fraction

    lhs = sum(abs(trig_poly_eval(poly, Fraction(a, m))) ** 2 for a in range(m))
    residues = np.arange(1, poly.k_max + 1) % m
    folds = (np.bincount(residues, weights=part, minlength=m) for part in (poly.coeffs.real, poly.coeffs.imag))
    rhs = m * float(sum(np.sum(c**2) for c in folds))
    return abs(lhs - rhs)


class SieveReport(NamedTuple):
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


def sieve_reports(poly: TrigPolynomial, r_values: Sequence[int]) -> list[SieveReport]:
    """A report for each R of r_values, in order, from one large_sieve_lhs pass."""
    a, k = poly.energy, poly.k_max
    return [
        SieveReport(r_max, k, a, lhs, large_sieve_rhs(k, r_max, a), zhao_conjecture_rhs(k, r_max, a))
        for r_max, lhs in zip(r_values, large_sieve_lhs(poly, r_values))
    ]


@functools.lru_cache(maxsize=1 << 12)
def _divisors_upto(n: int, cap: int) -> tuple[int, ...]:
    """The divisors of n that are at most cap.  A divisor above sqrt(n)
    is n // d for a divisor d below it and below cap, so trial division
    stops at min(cap, sqrt(n)).  Cached: rho_coefficient meets the same
    cofactor on every level and for every k sharing it."""
    small = [d for d in range(1, min(cap, math.isqrt(n)) + 1) if n % d == 0]
    return tuple(small + [n // d for d in small if d * d < n and n // d <= cap])


def _smooth_exponents(k: int, m_max: int) -> list[int]:
    """Exponents of the primes at most m_max in k, by trial division up to
    min(m_max, sqrt(k)): no more than the first level of rho_coefficient
    makes.  Every factor of a rho row divides this m_max-smooth part."""
    exps, d = [], 2
    while d <= m_max and d * d <= k:
        e = 0
        while k % d == 0:
            k //= d
            e += 1
        if e:
            exps.append(e)
        d += 1 if d == 2 else 2
    if 1 < k <= m_max:  # no factor below sqrt(k) is left, so k is prime
        exps.append(1)
    return exps


def _ordered_factorizations(exps: list[int], r: int) -> int:
    """tau_r(s): ordered factorizations of s = prod p_i^exps[i] into r factors."""
    return math.prod(math.comb(e + r - 1, r - 1) for e in exps)


def _rho_level_steps(levels: int, first: float, trial: float, values: int, tau: Callable[[int], float]) -> float:
    """Steps of rho rows whose smooth parts have tau(r) ordered
    factorizations into r factors, summed over the rows: `first` trial
    divisions on the first level (k alone) and `trial` on each later one;
    on level j, one visit per (j + 1)-tuple of factors, at most
    values * tau(3) (a cofactor c carries at most `values` factor sums and
    tau(c) divisors); then one visit per final state, at most
    values * tau(2)."""
    steps = first + (levels - 1) * trial if levels else 0
    cap = values * tau(3)
    for j in range(1, levels + 1):
        if tau(j + 1) >= cap:
            # tau grows with j: every later level is capped too, and the
            # final states by values * tau(2) <= cap; tau(levels + 1) is
            # not evaluated, since a float tau overflows at deep nu
            return steps + (levels - j + 1) * cap + values * tau(2)
        steps += tau(j + 1)
    return steps + min(tau(levels + 1), values * tau(2))


def rho_steps(m_max: int, nu: int, ks: Sequence[int], stop: float = math.inf) -> float:
    """Steps charged for the rho_coefficient rows of ks (a list of k, or
    range(1, K + 1)), from the arguments alone.  A step is one trial
    division or one (cofactor, divisor, factor sum) visit; the charge
    bounds the counted steps from above.  For a list, the sum is returned
    as soon as it is known to pass stop, before the next k is factored,
    which costs up to min(M, sqrt(k)) / 2 divisions.

    Each factor of a row divides s, the M-smooth part of k, so a level
    holds at most tau(s) cofactors and visits at most the tau_(j+1)(s)
    tuples of its first j + 1 factors.  An explicit k is factored up to
    min(M, sqrt(k)) and charged min(M, isqrt(k)) + 1 trial divisions a
    cofactor.  A range 1..K is charged in closed form before the k list
    exists, from sum_(k <= K) tau_r(k) <= K (ln K + r - 1)^(r - 1) / (r - 1)!
    and sum_(c <= K) floor(K/c) min(M, sqrt(c)) <= K (2 min(M, sqrt(K)) +
    M ln(K / M^2)).  Measured over k = 1..K (M 1 to 10^6, nu 1 to 40, K up
    to 10^5) the charge is 1.0 to 290 times the counted steps: 13 for
    M = 12, nu = 3, K = 3000, and loosest at M <= 2, where few k split at
    all.  For single k it is 1.0 to 140 times: 17 for k = 735134400 at
    M = 1000, nu = 6 (1.3 * 10^7 steps, 15 s), whose M = 10^5 run the default
    budget now refuses."""
    m, levels = max(m_max, 1), max(nu - 1, 0)
    if isinstance(ks, range):
        big_k = len(ks)
        log_k = math.log(big_k)

        def tau(r: int) -> float:
            return big_k * (log_k + r - 1) ** (r - 1) / math.factorial(r - 1)

        roots = 2 * min(m, math.isqrt(big_k)) + (m * math.log(big_k / (m * m)) if m * m < big_k else 0.0)
        first = big_k * (min(m, math.isqrt(big_k)) + 1)
        steps = _rho_level_steps(levels, first, big_k * roots + tau(2), min(m, big_k), tau)
    else:
        steps = 0
        for k in ks:
            k = max(k, 1)
            root = min(m, math.isqrt(k)) + 1
            if steps + levels * root > stop:
                return steps + levels * root
            tau = functools.partial(_ordered_factorizations, _smooth_exponents(k, m) if levels else [])
            steps += _rho_level_steps(levels, root, tau(2) * root, min(m, k), tau)
    return steps


def check_rho(m_max: int, nu: int, k_min: int) -> None:
    """rho_coefficient needs 1 <= M < 2^63, where its roots of unity take
    int64 arguments, nu >= 1 and every k >= k_min >= 1."""
    for name, value in (("M", m_max), ("nu", nu), ("k", k_min)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if m_max >= 1 << 63:
        raise ValueError(f"M must be below 2^63, got {m_max}")


def rho_coefficient(m_max: int, b: int, nu: int, k: int) -> complex:
    """sum of e(b*(m_1 + ... + m_nu)/M) over ordered factorizations of k
    into nu factors, each in [1, M]."""
    check_rho(m_max, nu, k)
    # (cofactor left to split, factor sum so far mod M) -> number of ways
    states: dict[tuple[int, int], int] = {(k, 0): 1}
    for left in range(nu - 1, 0, -1):  # factors still to place after this one
        # a cofactor above M**left cannot split into `left` factors <= M;
        # M**bit_length(k) >= k bounds the power for large nu
        reach = m_max ** min(left, k.bit_length())
        step: dict[tuple[int, int], int] = {}
        for (remaining, acc), count in states.items():
            for f in _divisors_upto(remaining, m_max):
                if remaining // f <= reach:
                    key = (remaining // f, (acc + f) % m_max)
                    step[key] = step.get(key, 0) + count
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
        # reduced in Python ints: b * s passes int64 where M is near 2^63
        total += count * complex(unit_roots(m_max, np.array([b_red * s % m_max]))[0])
    return total


def power_rule(theta: Fraction | float, p_scale: int) -> int:
    """N = ceil(P^theta) for rational theta, the N_p of every p in the window.

    The ceiling is taken in exact integer arithmetic, as the least n with
    n^d >= P^a for theta = a/d; a float pow would misround perfect powers
    (27**(1/3) lands above 3), and P^a passes the float range.
    """
    from fractions import Fraction

    frac = Fraction(theta)
    if not 0 <= frac <= 2:  # P^theta > P^2 fits no window: refused before P^numerator is built
        raise ValueError(f"exponent must lie in [0, 2], got {frac}")
    a, d, digits = frac.numerator, frac.denominator, _max_digits()
    if a * math.log10(p_scale) >= digits:
        raise ValueError(f"P^{a} at P = {p_scale} passes {digits} digits")
    target = p_scale**a
    log_n = math.log2(target) / d
    if log_n < 1:  # P^theta < 2
        return min(target, 2)
    # at least the root, from the float log; Newton's integer steps fall to its floor
    n = int(2**log_n * 1.000001) + 1 if log_n < 1000 else 1 << (math.ceil(log_n) + 1)
    while (step := ((d - 1) * n + target // n ** (d - 1)) // d) < n:
        n = step
    return n + (n**d < target)


class Theorem1Result(NamedTuple):
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


# Most entries in the table one window task builds, and no more than the
# table cap; a task has one row at least
_BLOCK_ENTRIES = 1 << 16

# Steps of window_cost that each worker of a window is given at least.  Two
# threads contend for the GIL through the small numpy calls of a block, so
# below some 5 * 10^5 steps a second thread slowed a window (P = 256, N = 100:
# 6 ms on one thread, 17 ms on two) and above it gained up to a third.
_WORKER_STEPS = 1 << 18

# Entries that one (p, l) lane of quotient_rows counts for in a block.  Its
# ladder peaks at 95 to 125 traced bytes a lane, and its table phase at 8
# bytes an entry plus 40 a lane; at 6 entries of 24 bytes a lane, a block of
# rows x max(N + 1, 6 pi(N)) entries stays within the 24 bytes an entry that
# --memcap charges.  Blocks cut for 8,192 entries by N + 1 alone peaked at
# 28, 47 and 45 bytes an entry at N = 64, 8 and 4.
_LANE_ENTRIES = 6


def _moment_block(pairs: Sequence[tuple[int, int]]) -> list[float]:
    """max_a |S_p(a; N_p)| for each (p, N_p) of a block, in order, from one
    table of the block's quotients (N_p <= P^2 < p^2) and one length-p
    histogram and transform at a time."""
    primes = [OddPrime(p) for p, _ in pairs]  # validated once for the table and the spectrum
    rows = quotient_rows(primes, max(n_p for _, n_p in pairs))
    maxima = []
    for prime, (_, n_p), row in zip(primes, pairs, rows):
        hist = value_histogram(QuotientTable(prime, n_p, row[: n_p + 1]))
        maxima.append(max_exp_sum(hist)[1])
    return maxima


def _max_digits() -> int:
    """The digits int's str conversion admits, which bound the powers avg builds."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def check_window(p_scale: int, nu: int, n_max: int = 1) -> None:
    """A window (P, 2P] needs P >= 3, moments of nu >= 1 and every N_p <= n_max
    <= P^2.  Its trivial bound, a sum of fewer than P powers N_p^(2 nu), must
    print within int's str digit limit, which also bounds their cost."""
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    if p_scale < 3:
        raise ValueError(f"P must be >= 3, got {p_scale}")
    if n_max > p_scale * p_scale:
        raise ValueError(f"N_p = {n_max} exceeds P^2 = {p_scale * p_scale}")
    digits = _max_digits()
    if n_max > 1 and nu >= (digits - math.log10(p_scale)) / (2 * math.log10(n_max)):
        raise ValueError(f"the trivial bound at N_p = {n_max}, nu = {nu} passes {digits} digits")


def window_pairs(p_scale: int, nu: int, n_rule: int | dict[int, int]) -> tuple[list, int]:
    """(the (p, N_p) pairs of the window, N) after every check of
    theorem1_average, where n_rule is the N_p of every p or a table of N_p
    by p.  Its primes come from one segment of P integers."""
    check_window(p_scale, nu)
    primes = primes_between(p_scale + 1, 2 * p_scale).tolist()
    try:
        n_by_p = [(p, n_rule[p] if isinstance(n_rule, dict) else n_rule) for p in primes]
    except KeyError as exc:
        raise ValueError(f"no N_p entry for prime {exc.args[0]}") from None
    n_max = max(n for _, n in n_by_p)
    n_ref = max(1, (n_max + 1) // 2)
    for p, n_p in n_by_p:
        if n_p < 1:
            raise ValueError(f"N_p must be >= 1, got {n_p} at p={p}")
        # the all-ones rule is the lone waiver: no integer window holds N_p = 1
        if n_p <= n_ref and n_max > 1:
            raise ValueError(f"N_p = {n_p} at p={p} falls outside the dyadic window ({n_ref}, {2 * n_ref}]")
    check_window(p_scale, nu, n_max)
    return n_by_p, n_ref


def _window_blocks(n_by_p: list, threads: int, max_entries: int) -> tuple[int, list]:
    """(workers, the pairs of window_pairs in blocks, one quotient_rows table
    each).  A row counts N + 1 entries or _LANE_ENTRIES per ladder lane,
    whichever is more.  A block holds one row, or at most min(_BLOCK_ENTRIES,
    max_entries // workers) entries: the workers, at most the largest rows
    max_entries holds and one for each _WORKER_STEPS steps of window_cost,
    share it.  Each worker gets four blocks at least."""
    n_max = max(n_p for _, n_p in n_by_p)
    row = max(n_max + 1, _LANE_ENTRIES * prime_count_bound(n_max))  # pi(N) lanes a row, bounded above
    workers = min(threads, os.cpu_count() or 1, len(n_by_p), max(1, max_entries // row))
    workers = min(workers, max(1, window_cost(n_by_p)[1] // _WORKER_STEPS))
    rows = max(1, min(_BLOCK_ENTRIES, max_entries // workers) // row)
    if workers > 1:
        rows = min(rows, -(-len(n_by_p) // (4 * workers)))
    return workers, [n_by_p[i : i + rows] for i in range(0, len(n_by_p), rows)]


def window_cost(n_by_p: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(table entries, steps) charged for theorem1_average over the pairs of
    window_pairs: the largest N_p as one table, before any block is built,
    and a table of N_p entries and one length-p FFT per prime."""
    return max(n_p for _, n_p in n_by_p), sum(n_p + p for p, n_p in n_by_p)


def window_floor(p_scale: int, nu: int, n_p: int) -> tuple[int, int]:
    """check_window at one N_p = n_p, and the least window_cost charges it
    before its primes are listed: each p > P, and pi(2P) - pi(P) > 2P / ln 2P
    - prime_count_bound(P), as x / ln x < pi(x) for x >= 17 (Rosser, Schoenfeld)."""
    check_window(p_scale, nu, n_p)
    count = int(2 * p_scale / math.log(2 * p_scale)) - prime_count_bound(p_scale) if p_scale >= 9 else 0
    return n_p, max(count, 0) * (n_p + p_scale + 1)


def _power(x: float, e: float) -> float:
    """x ** e, or inf, the correctly rounded float of a value past the
    range, where the float power overflows."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def theorem1_average(
    p_scale: int,
    nu: int,
    n_rule: int | dict[int, int],
    *,
    threads: int = 1,
    max_entries: int = DEFAULT_TABLE_CAP,
) -> Theorem1Result:
    """Average of max_a |S_p(a; N_p)|^(2 nu) over the primes p in (P, 2P],
    with N_p from n_rule as in window_pairs.  Its tables are built by blocks,
    on up to `threads` threads, within max_entries entries at once or a row each."""
    start = time.monotonic()
    n_by_p, n_ref = window_pairs(p_scale, nu, n_rule)
    workers, blocks = _window_blocks(n_by_p, threads, max_entries)
    if workers > 1:
        # numpy releases the GIL in the ladder and the FFT.  sieve's imports ran
        # quotients and charsums in this thread, as two threads' first execution
        # of a lazy module is not safe.  Imported here: it loads logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_moment_block, blocks))
    else:
        done = [_moment_block(b) for b in blocks]
    maxima = [m for block in done for m in block]  # ascending prime order
    moments = np.array([_power(m, 2 * nu) for m in maxima], dtype=np.float64)
    lhs = float(moments.sum())  # fixed ascending-prime order
    n, p = float(n_ref), float(p_scale)
    rhs = (p**3 + _power(n, nu) + min(_power(n, nu) * p**0.5, _power(n, nu / 2.0) * p**2)) * _power(n, nu)
    trivial = sum(n_p ** (2 * nu) for _, n_p in n_by_p)
    return Theorem1Result(
        p_scale,
        nu,
        n_ref,
        lhs,
        rhs,
        trivial,
        lhs / rhs,
        len(n_by_p),
        time.monotonic() - start,
        tuple((p, n_p, m) for (p, n_p), m in zip(n_by_p, maxima)),
    )


def exceptional_counts(result: Theorem1Result, kappas: Sequence[float]) -> list[tuple[float, int]]:
    """#{p in the window : max |S_p| > N_p * p^(-kappa)} for each kappa."""
    out = []
    for kappa in kappas:
        count = sum(1 for p, n_p, m in result.per_prime if m > n_p * _power(p, -kappa))
        out.append((float(kappa), count))
    return out
