"""Multiplicative subgroups mod m and small-ratio counting.

count_ratios(m, G, Z) counts triples (w, x, y) with w in G,
0 < |x|, |y| <= Z and w*x = y mod m.  Since (w, -x, -y) pairs off with
(w, x, y), the count is twice the x > 0 half, and for fixed (w, x) the
residue w*x mod m admits at most one admissible y because Z < m/2.
For each w that half is a difference of two floor sums, so the count
costs O(t log m) operations rather than t*Z products.
Over G_p, the p - 1 p-th power residues mod p**2, Garaev's embedding of
quotient collisions into these triples is an equality, by which
count_pth_power_ratios counts them from one quotient table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import np
from .arith import BudgetError, OddPrime, least_primitive_root, odd_prime
from .quotients import collision_count, quotient_table

# group elements per _floor_sums call: keeps the lanes in cache; of
# 4,096 to 32,768, 8,192 ran fastest at t = 100,002
_LANE_BLOCK = 1 << 13


class _SubgroupModM(NamedTuple):
    m: int
    elements: tuple[int, ...]


class SubgroupModM(_SubgroupModM):
    """A multiplicative subgroup of the units mod m, elements sorted.  The
    constructor, `_make` and `_replace` check that the elements are units
    closed under products and inverses."""

    __slots__ = ()

    def __new__(cls, m: int, elements) -> SubgroupModM:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        elems = tuple(sorted(set(e % m for e in elements)))
        members = frozenset(elems)
        if 1 not in members:
            raise ValueError("subgroup must contain 1")
        for e in elems:
            if math.gcd(e, m) != 1:
                raise ValueError(f"element {e} is not a unit mod {m}")
            if pow(e, -1, m) not in members:
                raise ValueError(f"inverse of {e} missing")
        for a in elems:
            for b in elems:
                if a * b % m not in members:
                    raise ValueError(f"product {a}*{b} escapes the subgroup")
        return tuple.__new__(cls, (m, elems))

    @classmethod
    def _make(cls, fields) -> SubgroupModM:
        return cls(*fields)

    @property
    def t(self) -> int:
        return len(self.elements)

    @classmethod
    def _closed(cls, m: int, elements) -> "SubgroupModM":
        """A subgroup closed by construction: distinct units mod m, 1
        among them.  Skips the checks, whose pairwise closure test costs
        t**2 products."""
        return tuple.__new__(cls, (m, tuple(sorted(elements))))

    @classmethod
    def generated(cls, m: int, g: int) -> "SubgroupModM":
        """Cyclic subgroup generated by a unit g."""
        return generated_within(m, g, math.inf)


def generated_within(m: int, g: int, max_steps: int | float) -> SubgroupModM:
    """SubgroupModM.generated(m, g), refused as soon as its order passes
    the most elements that count_ratios runs within max_steps: an order is
    known only by walking the group, so this walk is its own charge."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(g, m) != 1:
        raise ValueError(f"generator {g} is not a unit mod {m}")
    limit = max_steps // ratio_steps(m, 1)
    elems, x = [1], g % m
    while x != 1:
        if len(elems) >= limit:
            raise BudgetError(f"order of {g} mod {m} passes {limit}, the most elements {max_steps} steps admit")
        elems.append(x)
        x = x * g % m
    return SubgroupModM._closed(m, elems)


def pth_power_residues(p: int | OddPrime) -> SubgroupModM:
    """The p-th powers mod p**2: the p-1 solutions of w**(p-1) = 1 mod p**2.
    They form the cyclic group generated by r**p for a primitive root r
    mod p, walked at one multiplication per element."""
    prime = odd_prime(p)
    return SubgroupModM.generated(prime.p2, pow(least_primitive_root(prime), prime.p, prime.p2))


def ratio_steps(m: int, t: int) -> int:
    """Floor-sum lane steps charged for count_ratios over t elements mod m,
    whatever Z is.  It takes 2 t lanes of _floor_sums; a lane's moduli are
    the Euclidean remainders of (m, a), at most log_phi(m) + 1 of them
    (Lame), and one more round finds the lane done."""
    return 2 * t * (int(math.log(m, (1 + 5**0.5) / 2)) + 2)


def check_ratio_bound(m: int, z: int) -> None:
    """count_ratios needs 1 <= Z < m/2, so that w*x mod m admits one y;
    compared as 2 Z < m in integers, exact at every m."""
    if z < 1 or 2 * z >= m:
        raise ValueError(f"Z must satisfy 1 <= Z < m/2, got Z={z}, m={m}")


def _floor_sums(n, m, a, b) -> np.ndarray:
    """Per lane, the sum over i = 0..n-1 of floor((a*i + b) / m).

    The Euclid-style reduction of a floor sum: take the whole parts of
    a/m and b/m out in closed form, then the remaining sum counts lattice
    points under a line whose roles of m and a swap.  All lanes step
    together and finished lanes drop out.  n and m start as scalars
    shared by every lane; a and b are arrays, 0 <= a < m and b >= 0,
    that the reduction overwrites.

    With b < 2m every value stays below m*(n + 1).  Each floor is of a
    value below (m*(n - 1) + 2m) / m = n + 1, so the total is at most n*n,
    and so are n*(n - 1) and each nonnegative term added to the total.
    After the first reduction a, b < m, so y = a*n + b < m*(n + 1); the
    next round has modulus a < m and n = y // m <= n, so the bound holds
    in every round, and q*m and r*m never exceed a and b.
    """
    total = np.zeros_like(a)
    lane = np.arange(len(a))
    while len(lane):
        q = a // m
        a -= q * m
        r = b // m
        b -= r * m
        total[lane] += n * (n - 1) // 2 * q + n * r
        y = a * n + b
        keep = np.flatnonzero(y >= m)
        m = m[keep] if np.ndim(m) else np.full(len(keep), m, dtype=a.dtype)
        lane, y, a = lane[keep], y[keep], a[keep]
        n = y // m
        m, a, b = a, m, y - n * m
    return total


def _lane_dtype(m: int, z: int):
    """int64 when m * (Z + 1) < 2**62, which bounds every lane value (see
    _floor_sums); Python ints otherwise."""
    return np.int64 if m * (z + 1) < 1 << 62 else object


def count_ratios(m: int, group: SubgroupModM, z: int) -> int:
    """#{(w, x, y) : w in G, 0 < |x|, |y| <= Z, w*x = y mod m}.

    For x = 1..Z the residue w*x mod m lands in [1, Z] or [m-Z, m-1] for
    Z + F(Z) - F(m-Z-1) of them, where F(b) = sum of floor((w*x + b) / m)
    over x = 1..Z; both floor sums of a block of elements run as lanes
    of one _floor_sums call.
    Exact for every m, on the lanes of _lane_dtype.
    """
    if group.m != m:
        raise ValueError(f"group lives mod {group.m}, not {m}")
    check_ratio_bound(m, z)
    w = np.array(group.elements, dtype=_lane_dtype(m, z))
    half = group.t * z
    for start in range(0, group.t, _LANE_BLOCK):
        wb = w[start : start + _LANE_BLOCK]
        # sum over x = 1..Z of floor((w*x + b) / m) is the i = 0..Z-1 sum at offset w + b
        f = _floor_sums(z, m, np.concatenate([wb, wb]), np.concatenate([wb + z, wb + (m - z - 1)]))
        half += int((f[: len(wb)] - f[len(wb) :]).sum())
    return 2 * half


def lemma7_rhs(m: int, t: int, z: int, nu: int) -> float:
    """Envelope Z t^((2nu+1)/(2nu(nu+1))) m^(-1/(2(nu+1))) + Z^2 t^(1/nu) m^(-1/nu)."""
    if min(m, t, z) < 1 or nu < 1:
        raise ValueError("m, t, Z, nu must all be >= 1")
    mf, tf, zf = float(m), float(t), float(z)
    first = zf * tf ** ((2 * nu + 1) / (2 * nu * (nu + 1))) * mf ** (-1 / (2 * (nu + 1)))
    second = zf * zf * tf ** (1 / nu) * mf ** (-1 / nu)
    return first + second


def count_pth_power_ratios(p: int | OddPrime, z: int) -> int:
    """count_ratios(p**2, pth_power_residues(p), Z), without G_p: for p not
    dividing x, one w in G_p takes x to y exactly when q_p(y) = q_p(x), and
    q_p(-x) = q_p(x); for p | x, G_p maps one-to-one onto (Z/p)*, so each of
    the (2 floor(Z/p))**2 pairs of multiples of p takes one w."""
    prime = odd_prime(p)
    check_ratio_bound(prime.p2, z)
    return 4 * (collision_count(quotient_table(prime, z)) + (z // prime.p) ** 2)
