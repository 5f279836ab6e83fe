"""Characters mod p and p**2, Gauss sums, and quotient exponential sums.

Roots of unity are always taken at reduced integer arguments,
exp(2*pi*i*(k mod r)/r), so equal phases are bit-identical and sums
are reproducible.  The multiplicative character mod p**2 built from
a Fermat quotient has order p and is primitive; its partial sums are
the quotient exponential sums studied by the rest of the package.
"""

from __future__ import annotations

import math

from . import np
from .arith import OddPrime, least_primitive_root, odd_prime
from .quotients import UNDEFINED, QuotientTable, ResidueHistogram, quotient_table

# pocketfft takes a prime length n by Bluestein at length n2 = good_size(2n - 1),
# at most 2.08n for n > 64.  A transform then holds about 64n + 56 n2 <= 181n
# bytes at once: the float64 input, its complex copy, the output and the
# magnitudes (48n), Bluestein's chirps (16n + 8 n2), the plan's twiddles and
# two length-n2 work arrays (48 n2).  glibc trims the heap top once more than
# twice the mmap threshold is free, so the threshold must reach about 91n
# plus half the 128 KiB top pad.  Measured with ru_minflt over the 464 primes
# in (4096, 8192]: 96 bytes a point left 51 faults a transform, 112 left 2,
# 256 about 1; 256 also left 3.6 at p in (32768, 65536], where none left 2,255.
_RESIDENT_BYTES_PER_POINT = 256
# a freed mmapped chunk moves the threshold only up to 32 MiB; the 64 KiB
# margin covers the chunk header rounded up to any page size
_RESIDENT_CAP = 32 * 1024 * 1024 - 64 * 1024
# the largest block freed so far, from glibc's default mmap threshold on;
# process-wide, like the threshold it raised.  avg's worker threads read and
# set it without a lock: a race costs at most one more untouched allocation,
# and glibc's threshold only moves up
_resident_bytes = 128 * 1024


def resident_transform_memory(n: int) -> None:
    """Keep the work buffers of an n-point transform on the heap.

    glibc serves a block above its mmap threshold (128 KiB at start) by
    mmap and unmaps it on free, so each transform would fault its buffers
    in afresh.  Freeing an mmapped block raises that threshold to the
    block's size, and the heap-trim threshold to twice it (mallopt(3)), so
    one untouched block sized for n, allocated and freed here, leaves the
    transform's buffers on reused heap pages.  Only a block larger than any
    freed before is made, and none of 128 KiB or less; the size stops below
    32 MiB, glibc's ceiling for the dynamic threshold.  Other allocators
    pay one untouched allocation and keep their own policy."""
    global _resident_bytes
    size = min(n * _RESIDENT_BYTES_PER_POINT, _RESIDENT_CAP)
    if size > _resident_bytes:
        np.empty(size, dtype=np.uint8)  # freed at once, never written
        _resident_bytes = size


def unit_roots(r: int, ks: np.ndarray) -> np.ndarray:
    """Vector of exp(2*pi*i*k/r) over integer arguments, reduced mod r."""
    if r < 1:
        raise ValueError(f"root order must be >= 1, got {r}")
    ks = np.asarray(ks, dtype=np.int64)
    return np.exp(2j * np.pi * (np.mod(ks, r) / r))


def discrete_log_table(p: int) -> tuple[int, np.ndarray]:
    """(least primitive root g, index table ind with g**ind[x] = x mod p,
    ind[0] = 0), from g^(iB + r) = (g^B)^i g^r, B = ceil(sqrt(p - 1)): two
    walks of about sqrt(p) steps and one int64 outer product below p^2 < 2^62."""
    prime = odd_prime(p)
    g, p = least_primitive_root(prime), prime.p
    baby = [1] * (math.isqrt(p - 2) + 1)  # g^r for r < B
    for r in range(1, len(baby)):
        baby[r] = baby[r - 1] * g % p
    giant, step = [1] * -(-(p - 1) // len(baby)), baby[-1] * g % p  # (g^B)^i
    for i in range(1, len(giant)):
        giant[i] = giant[i - 1] * step % p
    ind = np.full(p, -1, dtype=np.int64)
    ind[(np.array(giant)[:, None] * np.array(baby) % p).ravel()[: p - 1]] = np.arange(p - 1)
    if np.any(ind[1:] < 0):  # some unit missed, so another was hit twice
        raise AssertionError(f"powers of {g} do not hit every unit mod {p} once")
    ind[0] = 0
    ind.setflags(write=False)
    return g, ind


class CharacterModP:
    """Multiplicative character mod an odd prime, eta(g**j) = e((k*j)/(p-1)).

    The exponent k in 0..p-2 determines the order d = (p-1)/gcd(k, p-1).
    Values at 0 (and multiples of p) are 0.
    """

    def __init__(self, p: int | OddPrime, k: int):
        self.p = odd_prime(p)
        self.k = k % (self.p.p - 1)
        self.order = (self.p.p - 1) // math.gcd(self.k, self.p.p - 1)
        self.g, self._ind = discrete_log_table(self.p.p)
        values = np.zeros(self.p.p, dtype=np.complex128)
        idx = np.arange(1, self.p.p)
        values[1:] = unit_roots(self.p.p - 1, self.k * self._ind[idx])
        values.setflags(write=False)
        self._values = values

    @classmethod
    def quadratic(cls, p: int | OddPrime) -> "CharacterModP":
        prime = odd_prime(p)
        return cls(prime, (prime.p - 1) // 2)

    @property
    def modulus(self) -> int:
        return self.p.p

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __call__(self, x: int) -> complex:
        return complex(self._values[x % self.p.p])

    def value_array(self) -> np.ndarray:
        """chi(v) for v = 0..p-1; index 0 holds 0."""
        return self._values


class CharacterModPSquared:
    """The order-p character mod p**2 attached to Fermat quotients.

    chi(n) = e(a*q_p(n)/p) for gcd(n, p) = 1 and 0 otherwise, so its
    partial sums are S_p(a; N).  It is multiplicative because the quotient
    is additive, has period p**2, and is primitive: chi(1 + p) =
    e(a*(p-1)/p) != 1.
    """

    def __init__(self, p: int | OddPrime, a: int):
        prime = odd_prime(p)
        if a % prime.p == 0:
            raise ValueError(f"twist {a} is divisible by {prime.p}; character would be trivial")
        self.p = prime
        self.a = a % prime.p
        q = quotient_table(prime, prime.p2).values  # length p^2 + 1, sentinel at multiples of p
        phases = np.zeros(prime.p2, dtype=np.complex128)
        body = q[1:]  # quotients of 1..p^2; residue 0 stays 0
        defined = body != UNDEFINED
        phases[1:][defined[:-1]] = unit_roots(prime.p, self.a * body[:-1][defined[:-1]])
        phases.setflags(write=False)
        self._values = phases
        # primitivity: nontrivial on the 1 + p*Z subgroup
        if self.a * (prime.p - 1) % prime.p == 0:
            raise AssertionError(f"character mod {prime.p}^2 degenerated to the principal one")
        self.order = prime.p

    @property
    def modulus(self) -> int:
        return self.p.p2

    def __call__(self, n: int) -> complex:
        return complex(self._values[n % self.p.p2])

    def value_array(self) -> np.ndarray:
        """chi(v) for v = 0..p**2-1."""
        return self._values


def gauss_sum(r: int, chi) -> complex:
    """tau_r(chi) = sum over v of chi(v) e(v/r); r must be chi's modulus."""
    if r != chi.modulus:
        raise ValueError(f"modulus mismatch: r={r}, character lives mod {chi.modulus}")
    values = chi.value_array()
    return complex(np.dot(values, unit_roots(r, np.arange(r))))


def gauss_identity_residual(r: int, chi, b: int) -> float:
    """| chi(b) tau_r(conj chi) - sum_v conj(chi(v)) e(bv/r) |, gcd(b, r) = 1."""
    if r != chi.modulus:
        raise ValueError(f"modulus mismatch: r={r}, character lives mod {chi.modulus}")
    if math.gcd(b, r) != 1:
        raise ValueError(f"gcd({b}, {r}) != 1")
    conj = chi.value_array().conj()
    tau_bar = complex(np.dot(conj, unit_roots(r, np.arange(r))))
    # b*v stays within int64 for r < 2^31.5; moduli here are p or p^2
    twisted = complex(np.dot(conj, unit_roots(r, (b % r) * np.arange(r))))
    return abs(chi(b) * tau_bar - twisted)


def exp_sum_direct(p: int | OddPrime, a: int, n: int, *, table: QuotientTable | None = None) -> complex:
    """S_p(a; n) = sum over m <= n, gcd(m, p) = 1 of e(a*q_p(m)/p)."""
    prime = odd_prime(p)
    if n < 1:
        raise ValueError(f"range must be >= 1, got {n}")
    if table is None or table.n < n or table.p.p != prime.p:
        table = quotient_table(prime, n)
    body = table.values[1 : n + 1]
    defined = body != UNDEFINED
    return complex(unit_roots(prime.p, (a % prime.p) * body[defined]).sum())


def exp_sum_from_histogram(hist: ResidueHistogram, a: int) -> complex:
    """S_p(a; n) recovered from a value histogram: sum of counts[q] e(aq/p)."""
    p = hist.p.p
    return complex(np.dot(hist.counts, unit_roots(p, (a % p) * np.arange(p))))


def spectrum_from_histogram(hist: ResidueHistogram) -> np.ndarray:
    """|S_p(a; n)| for every a = 0..p-1 in one length-p transform."""
    resident_transform_memory(hist.p.p)
    # fft computes sum counts[q] e(-aq/p); counts are real so magnitudes agree
    return np.abs(np.fft.fft(hist.counts.astype(np.float64)))


def max_exp_sum(hist: ResidueHistogram) -> tuple[int, float]:
    """(a, |S_p(a; n)|) maximizing over a = 1..p-1, from the histogram of
    q_p over 1..n.  The counts are real, so |S(a)| = |S(p - a)| and every
    maximum is tied with its mirror; FFT rounding, not the least a,
    decides which one is returned (maxsum --p 311 --n 1555 returns 247,
    where 64 is the least)."""
    mags = spectrum_from_histogram(hist)
    a_star = 1 + int(np.argmax(mags[1:]))
    return a_star, float(mags[a_star])


def eta_quotient_sum(p: int | OddPrime, eta: CharacterModP, n: int) -> complex:
    """Sum over m <= n, gcd(m, p) = 1 of eta(q_p(m)) for a nontrivial eta mod p."""
    prime = odd_prime(p)
    if eta.modulus != prime.p:
        raise ValueError(f"character modulus {eta.modulus} != {prime.p}")
    if eta.is_trivial:
        raise ValueError("trivial character makes the sum a plain count")
    if n < 1:
        raise ValueError(f"range must be >= 1, got {n}")
    body = quotient_table(prime, n).values[1:]
    return complex(eta.value_array()[body[body != UNDEFINED]].sum())


def hb_bound_rhs(p: int | OddPrime, n: int, nu: int) -> float:
    """Envelope n**(1 - 1/nu) * p**((nu + 1)/(2*nu**2)) for |S_p(a; n)|."""
    prime = odd_prime(p)
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    if n < 1:
        raise ValueError(f"range must be >= 1, got {n}")
    return n ** (1.0 - 1.0 / nu) * prime.p ** ((nu + 1.0) / (2.0 * nu * nu))
