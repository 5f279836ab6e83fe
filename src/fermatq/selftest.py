"""Invariant suites behind the selftest subcommand.

Each suite reruns its module's core identities at desk scale and
returns (checks passed, failure messages).  A failure message names
the module, the operation, and the offending inputs.
"""

from __future__ import annotations

import math
from typing import Callable

from . import np
from .arith import (
    OddPrime,
    arithmetic_functions,
    is_primitive_root,
    multiplicative_order,
    primes_up_to,
)
from .charsums import (
    CharacterModP,
    CharacterModPSquared,
    eta_quotient_sum,
    exp_sum_direct,
    exp_sum_from_histogram,
    gauss_identity_residual,
    gauss_sum,
    max_exp_sum,
    unit_roots,
)
from .primroots import (
    primroot_indicator,
    smallest_dth_nonresidue_quotient,
    smallest_primroot_quotient,
    theorem4_exponent_scan,
)
from .quotients import (
    cauchy_lower_bound,
    collision_count,
    dump_table,
    fermat_quotient,
    load_table,
    period_histogram,
    quotient_table,
    value_histogram,
)
from .sieve import TrigPolynomial, parseval_check, rho_coefficient, sieve_reports, theorem1_average
from .subgroups import SubgroupModM, collision_vs_ratio_check, count_ratios, lemma7_rhs, pth_power_residues


def _suite_core_arith(rng: np.random.Generator):
    checks, failures = 0, []
    phi_sums, mu_sums = [0] * 2001, [0] * 2001
    for d in range(1, 2001):  # each d's phi and mu added into its multiples
        phi, mu, _ = arithmetic_functions(d)
        for n in range(d, 2001, d):
            phi_sums[n] += phi
            mu_sums[n] += mu
    for n in range(1, 2001):
        phi_sum, mu_sum = phi_sums[n], mu_sums[n]
        if phi_sum != n:
            failures.append(f"core-arith arithmetic_functions n={n}: phi divisor sum {phi_sum}")
        if mu_sum != (1 if n == 1 else 0):
            failures.append(f"core-arith arithmetic_functions n={n}: mu divisor sum {mu_sum}")
        checks += 2
    for p in primes_up_to(101)[1:]:
        prime = OddPrime(p)
        for a in rng.integers(1, p, size=4):
            if pow(int(a), p - 1, p) != 1:
                failures.append(f"core-arith pow p={p} a={a}: Fermat test failed")
            checks += 1
        count = sum(is_primitive_root(a, prime) for a in range(1, p))
        if count != arithmetic_functions(p - 1)[0]:
            failures.append(f"core-arith is_primitive_root p={p}: {count} primitive roots")
        checks += 1
    for m in (7, 9, 22, 81):
        for a in range(2, m):
            if math.gcd(a, m) != 1:
                continue
            k = multiplicative_order(a, m)
            if pow(a, k, m) != 1 or any(pow(a, j, m) == 1 for j in range(1, k)):
                failures.append(f"core-arith multiplicative_order a={a} m={m}: got {k}")
            checks += 1
    return checks, failures


def _suite_fermat_quotient(rng: np.random.Generator):
    checks, failures = 0, []
    for p in (5, 13, 101, 257):
        prime = OddPrime(p)
        table = quotient_table(prime, 1500)
        for n in range(1, 1501):
            v = int(table.values[n])
            direct = fermat_quotient(prime, n)
            if (None if v == -1 else v) != direct:
                failures.append(f"fermat-quotient quotient_table p={p} n={n}: table={v} direct={direct}")
                break
            checks += 1
        h = value_histogram(table)
        if int(h.counts.sum()) != h.total or h.total != 1500 - 1500 // p:
            failures.append(f"fermat-quotient value_histogram p={p}: total {h.total}")
        if collision_count(table) != int((h.counts.astype(object) ** 2).sum()):
            failures.append(f"fermat-quotient collision_count p={p}")
        if h.image < math.ceil(cauchy_lower_bound(h)):
            failures.append(f"fermat-quotient value_histogram image p={p}: Cauchy bound violated")
        back = load_table(dump_table(table))
        if not np.array_equal(back.values, table.values):
            failures.append(f"fermat-quotient dump/load p={p}: roundtrip mismatch")
        checks += 4
    p, prime = 101, OddPrime(101)
    for _ in range(2000):
        u, v = (int(x) for x in rng.integers(1, p * p, size=2))
        if u % p == 0 or v % p == 0:
            continue
        if fermat_quotient(prime, u * v % (p * p)) != (fermat_quotient(prime, u) + fermat_quotient(prime, v)) % p:
            failures.append(f"fermat-quotient additivity p={p} u={u} v={v}")
        if fermat_quotient(prime, u + p * p) != fermat_quotient(prime, u):
            failures.append(f"fermat-quotient periodicity p={p} u={u}")
        checks += 2
    return checks, failures


def _suite_char_sums(rng: np.random.Generator):
    checks, failures = 0, []
    for p, a in ((5, 1), (7, 3), (13, 5)):
        prime = OddPrime(p)
        chi = CharacterModPSquared(prime, a)
        table = quotient_table(prime, p * p)
        for n in (1, p, p * p):
            partial = sum(chi(m) for m in range(1, n + 1))
            if abs(partial - exp_sum_direct(prime, a, n, table=table)) > 1e-9 * n:
                failures.append(f"char-sums CharacterModPSquared p={p} a={a} N={n}: partial sum mismatch")
            checks += 1
        for _ in range(200):
            m, n = (int(x) for x in rng.integers(1, p * p, size=2))
            if abs(chi(m * n) - chi(m) * chi(n)) > 1e-9:
                failures.append(f"char-sums CharacterModPSquared p={p} a={a}: not multiplicative at {m},{n}")
            checks += 1
        if abs(abs(gauss_sum(p * p, chi)) - p) > 1e-9 * p:
            failures.append(f"char-sums gauss_sum p={p} a={a}: |tau| != p")
        if gauss_identity_residual(p * p, chi, 1 + p) > 1e-6 * p * p:
            failures.append(f"char-sums gauss_identity p={p} a={a}")
        checks += 2
        h = value_histogram(table)
        for b in range(p):
            if abs(exp_sum_from_histogram(h, b) - exp_sum_direct(prime, b, p * p, table=table)) > 1e-6:
                failures.append(f"char-sums exp_sum_from_histogram p={p} b={b}")
            checks += 1
        a_star, m_val = max_exp_sum(period_histogram(prime, 3 * p))
        if not 1 <= a_star < p or m_val < 0:
            failures.append(f"char-sums max_exp_sum p={p}")
        checks += 1
    for p in (7, 11):
        prime = OddPrime(p)
        eta = CharacterModP.quadratic(prime)
        s = eta_quotient_sum(prime, eta, p * p)
        if abs(s) > p * p:
            failures.append(f"char-sums eta_quotient_sum p={p}: |sum| too large")
        checks += 1
    for r in (9, 25, 36):
        for z in (0, 1, r // 3):
            s = complex(unit_roots(r, z * np.arange(r)).sum())
            expect = r if z % r == 0 else 0
            if abs(s - expect) > 1e-9 * r:
                failures.append(f"char-sums unit_roots orthogonality r={r} z={z}")
            checks += 1
    for _ in range(100):
        r = int(rng.integers(2, 300))
        b = int(rng.integers(1, r // 2 + 1))
        k0 = int(rng.integers(0, 1000))
        length = int(rng.integers(1, 400))
        s = complex(unit_roots(r, b * np.arange(k0 + 1, k0 + length + 1)).sum())
        if abs(s) > min(length, r / (2 * b)) + 1:
            failures.append(f"char-sums incomplete sum bound r={r} b={b} L={length}")
        checks += 1
    return checks, failures


def _suite_sieve_lab(rng: np.random.Generator):
    checks, failures = 0, []
    for _ in range(60):
        k = int(rng.integers(1, 48))
        m = int(rng.integers(1, 64))
        poly = TrigPolynomial(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        if parseval_check(poly, m) > 1e-6 * m * max(poly.energy, 1e-12):
            failures.append(f"sieve-lab parseval_check K={k} M={m}")
        checks += 1
    for r_max in (1, 2, 3):
        poly = TrigPolynomial(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        (rep,) = sieve_reports(poly, [r_max])
        if rep.lhs > rep.rhs_bz + 1e-9:
            failures.append(f"sieve-lab large_sieve R={r_max}: bound violated")
        checks += 1
    def count_factorizations(k, nu, cap):
        if nu == 1:
            return 1 if k <= cap else 0
        return sum(count_factorizations(k // d, nu - 1, cap) for d in range(1, min(k, cap) + 1) if k % d == 0)
    for k in range(1, 30):
        if abs(rho_coefficient(6, 2, 2, k)) > count_factorizations(k, 2, 6) + 1e-9:
            failures.append(f"sieve-lab rho_coefficient k={k}: triangle bound")
        checks += 1
    res = theorem1_average(8, 1, 3)
    if res.lhs > res.trivial_bound + 1e-9:
        failures.append("sieve-lab theorem1_average P=8: trivial bound violated")
    checks += 1
    return checks, failures


def _suite_subgroup_ratios(rng: np.random.Generator):
    checks, failures = 0, []
    for p in (3, 5, 7, 11, 13):
        prime = OddPrime(p)
        grp = pth_power_residues(prime)
        if grp.t != p - 1:
            failures.append(f"subgroup-ratios pth_power_residues p={p}: order {grp.t}")
        checks += 1
        chk = collision_vs_ratio_check(prime, min(40, (p * p - 2) // 2))
        if not chk.ok:
            failures.append(f"subgroup-ratios containment p={p}: {chk.collisions} > {chk.ratio_count}")
        checks += 1
    for _ in range(25):
        m = int(rng.integers(5, 120))
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        g = units[int(rng.integers(0, len(units)))]
        grp = SubgroupModM.generated(m, g)
        z = int(rng.integers(1, max(2, (m - 1) // 2)))
        brute = 0
        for w in grp.elements:
            for x in range(-z, z + 1):
                if x == 0:
                    continue
                r = w * x % m
                if 1 <= r <= z or m - z <= r <= m - 1:
                    brute += 1
        if count_ratios(m, grp, z) != brute:
            failures.append(f"subgroup-ratios count_ratios m={m} g={g} Z={z}")
        if count_ratios(m, grp, z) < 2 * z:
            failures.append(f"subgroup-ratios count_ratios m={m} Z={z}: below trivial floor")
        if lemma7_rhs(m, grp.t, z, 2) <= 0:
            failures.append(f"subgroup-ratios lemma7_rhs m={m}")
        checks += 3
    return checks, failures


def _suite_prim_root(rng: np.random.Generator):
    checks, failures = 0, []
    for p in (7, 11, 13):
        prime = OddPrime(p)
        total = 0
        for a in range(p):
            rep = primroot_indicator(prime, a)
            if rep.indicator != int(is_primitive_root(a, prime)):
                failures.append(f"prim-root primroot_indicator p={p} a={a}")
            total += rep.indicator
            checks += 1
        if total != arithmetic_functions(p - 1)[0]:
            failures.append(f"prim-root primroot_indicator p={p}: sum {total}")
        checks += 1
    for row in theorem4_exponent_scan(3, 60):
        if not row.verified:
            failures.append(f"prim-root theorem4_exponent_scan p={row.p}: unverified hit")
        if row.n_min is None:
            failures.append(f"prim-root theorem4_exponent_scan p={row.p}: no hit below p^2")
        else:
            prime = OddPrime(row.p)
            q = fermat_quotient(prime, row.n_min)
            if not is_primitive_root(q, prime):
                failures.append(f"prim-root smallest_primroot_quotient p={row.p}: q={q} not primitive")
        checks += 2
    for p in (13, 31):
        prime = OddPrime(p)
        hits = {}
        for d in [d for d in range(2, p) if (p - 1) % d == 0]:
            hits[d] = smallest_dth_nonresidue_quotient(prime, d, p * p)
            checks += 1
        for d, n in hits.items():
            for d2, n2 in hits.items():
                if d2 % d == 0 and n is not None and (n2 is None or n2 > n):
                    failures.append(f"prim-root nonresidue search p={p}: d={d} vs d'={d2}")
    return checks, failures


SUITES: list[tuple[str, Callable]] = [
    ("core-arith", _suite_core_arith),
    ("fermat-quotient", _suite_fermat_quotient),
    ("char-sums", _suite_char_sums),
    ("sieve-lab", _suite_sieve_lab),
    ("subgroup-ratios", _suite_subgroup_ratios),
    ("prim-root", _suite_prim_root),
]


def run_selftest(seed: int, out) -> int:
    """Run every suite; write one line per suite to out; 0 when all pass."""
    rng = np.random.default_rng(seed)
    bad = 0
    for name, suite in SUITES:
        checks, failures = suite(rng)
        status = "ok" if not failures else "FAIL"
        out.write(f"{name}: {checks} checks {status}\n")
        if failures:
            out.write(f"  first failure: {failures[0]}\n")
            bad += 1
    return 0 if bad == 0 else 1
