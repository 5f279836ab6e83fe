import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatq import subgroups
from fermatq.arith import BudgetError, primes_up_to
from fermatq.cli import main
from fermatq.subgroups import (
    ContainmentCheck,
    SubgroupModM,
    collision_vs_ratio_check,
    count_ratios,
    generated_within,
    lemma7_rhs,
    pth_power_residues,
    ratio_steps,
)


def brute_count(m, elements, z):
    # full triple enumeration, signs included
    count = 0
    for w in elements:
        for x in range(-z, z + 1):
            if x == 0:
                continue
            for y in range(-z, z + 1):
                if y == 0:
                    continue
                if (w * x - y) % m == 0:
                    count += 1
    return count


def test_subgroup_axioms_enforced():
    SubgroupModM(25, (1, 24))
    with pytest.raises(ValueError):
        SubgroupModM(25, (1, 5))  # not a unit
    with pytest.raises(ValueError):
        SubgroupModM(25, (1, 7))  # 7*7 = 24 escapes {1, 7}
    with pytest.raises(ValueError):
        SubgroupModM(25, (7, 18))  # misses identity
    with pytest.raises(ValueError):
        SubgroupModM(1, (1,))


def test_subgroup_generated():
    g = SubgroupModM.generated(25, 7)
    assert g.elements == (1, 7, 18, 24)
    assert 18 in g.elements and 5 not in g.elements and g.t == 4
    # 2 * 4 lanes * 8 steps: the budgeted walk builds the same group at 64 ops and stops at 63
    assert generated_within(25, 7, 64) == g
    with pytest.raises(BudgetError):
        generated_within(25, 7, 63)


def test_subgroup_generated_rejects_small_modulus():
    for m in (1, 0, -5):
        with pytest.raises(ValueError):
            SubgroupModM.generated(m, 1)


def test_pth_power_residues_examples():
    assert pth_power_residues(5).elements == (1, 7, 18, 24)
    assert pth_power_residues(3).elements == (1, 8)
    for p in (3, 5, 7, 11, 13):
        grp = pth_power_residues(p)
        assert grp.t == p - 1
        assert grp.m == p * p
        for w in grp.elements:
            assert pow(w, p - 1, p * p) == 1


def test_pth_power_residues_walk_equals_the_pth_powers():
    for p in (3, 5, 7, 41, 1093, 1009, 3511, 10007, 65537):
        assert set(pth_power_residues(p).elements) == {pow(n, p, p * p) for n in range(1, p)}, p


def test_count_ratios_examples():
    assert count_ratios(25, SubgroupModM(25, (1, 24)), 2) == 8
    assert count_ratios(25, SubgroupModM(25, (1,)), 1) == 2
    assert count_ratios(9, SubgroupModM(9, (1,)), 1) == 2


def test_count_ratios_at_least_trivial():
    # w = 1 pairs x with y = x, both signs: count >= 2Z
    for p in (3, 5, 7):
        grp = pth_power_residues(p)
        for z in (1, 2, (p * p - 1) // 2):
            assert count_ratios(p * p, grp, z) >= 2 * z


def test_count_ratios_validation():
    grp = SubgroupModM(25, (1, 24))
    with pytest.raises(ValueError):
        count_ratios(24, grp, 2)
    with pytest.raises(ValueError):
        count_ratios(25, grp, 0)
    with pytest.raises(ValueError):
        count_ratios(25, grp, 13)  # 13 >= 25/2
    # two elements mod 25 take 2 * 2 * (6 + 2) floor-sum lane steps, which --budget 10 refuses
    assert ratio_steps(25, 2) == 32
    assert main(["ratios", "--m", "25", "--gen", "24", "--Z", "12", "--budget", "10"]) == 3
    assert main(["ratios", "--m", "25", "--gen", "24", "--Z", "12", "--budget", "32"]) == 0


def test_count_ratios_against_bruteforce_random():
    rng = random.Random(20260817)
    for _ in range(60):
        m = rng.randrange(5, 200)
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        grp = SubgroupModM.generated(m, rng.choice(units))
        z = rng.randrange(1, max(2, (m - 1) // 2))
        if z >= m / 2:
            continue
        assert count_ratios(m, grp, z) == brute_count(m, grp.elements, z), (m, grp.elements, z)


@settings(max_examples=150, deadline=None)
@given(g=st.integers(2, 1 << 21), k=st.integers(1, 3), with_minus_one=st.booleans(), z=st.integers(1, 12))
@example(g=3, k=19, with_minus_one=True, z=12)  # m = 3**19 - 1 < 2**31: int64 lanes
@example(g=2, k=31, with_minus_one=False, z=5)  # m = 2**31 - 1: int64 lanes
@example(g=(1 << 31) + 1, k=1, with_minus_one=True, z=7)  # m = 2**31: int64 lanes, m * (Z + 1) = 2**34
@example(g=2, k=62, with_minus_one=True, z=12)  # m near 2**62: Python-int lanes
def test_count_ratios_matches_triple_loop_across_lane_widths(g, k, with_minus_one, z):
    # g has order k mod m = g**k - 1, so its powers, with or without -1,
    # form a small group whatever the size of m
    m = g**k - 1
    if not z < m / 2:
        return
    powers = {pow(g, i, m) for i in range(k)}
    grp = SubgroupModM(m, powers | ({m - w for w in powers} if with_minus_one else set()))
    assert count_ratios(m, grp, z) == brute_count(m, grp.elements, z)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), bits=st.integers(51, 60), offset=st.integers(0, 1000), with_minus_one=st.booleans())
def test_count_ratios_exact_on_both_sides_of_the_int64_lane_bound(k, bits, offset, with_minus_one):
    # g has order k mod m = g**k - 1, near 2**bits; z0 is the least Z with
    # m * (Z + 1) >= 2**62, the first on Python-int lanes, and from 2 * z0 + 1
    # on products reach 2**63, which int64 lanes would wrap
    g = round(2 ** (bits / k)) + offset
    m = g**k - 1
    z0 = -(-(1 << 62) // m) - 1
    assert subgroups._lane_dtype(m, z0 - 1) is np.int64 and subgroups._lane_dtype(m, z0) is object
    powers = {pow(g, i, m) for i in range(k)}
    grp = SubgroupModM(m, powers | ({m - w for w in powers} if with_minus_one else set()))

    def near_zero(z):  # (w, x, y) with x > 0, doubled for the signs
        return 2 * sum(1 for w in grp.elements for x in range(1, z + 1) if not z < w * x % m < m - z)

    counts = {z: near_zero(z) for z in (z0 - 1, z0, 2 * z0 + 1)}
    assert {z: count_ratios(m, grp, z) for z in counts} == counts


def test_count_ratios_budget_charges_floor_sum_steps_not_products():
    # 1008 elements times Z = 50000 is 5e7 products; the floor sums take
    # 2 * 1008 lanes of at most 30 Euclid steps each
    assert ratio_steps(1009**2, 1008) <= 10**5
    assert count_ratios(1009**2, pth_power_residues(1009), 50000) == 10083216


def test_count_ratios_of_plus_minus_one_near_2_62():
    # near 2^62 the products (m - 1) * x pass 2^63; the group {1, -1} gives 4 triples per Z
    m = 4611686018427388039
    grp = SubgroupModM.generated(m, m - 1)
    assert [count_ratios(m, grp, z) for z in range(1, 11)] == list(range(4, 41, 4))


def test_count_ratios_monotone_in_z():
    grp = pth_power_residues(7)
    counts = [count_ratios(49, grp, z) for z in range(1, 25)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_lemma7_rhs_values():
    # nu = 1: Z t^(3/4) m^(-1/4) + Z^2 t m^(-1)
    assert lemma7_rhs(16, 16, 2, 1) == pytest.approx(2 * 16**0.75 * 16**-0.25 + 4 * 16 / 16)
    assert lemma7_rhs(81, 9, 3, 2) == pytest.approx(
        3 * 9 ** (5 / 12) * 81 ** (-1 / 6) + 9 * 9**0.5 / 81**0.5
    )
    with pytest.raises(ValueError):
        lemma7_rhs(16, 16, 0, 1)


def test_collision_vs_ratio_examples():
    chk = collision_vs_ratio_check(5, 4)
    assert isinstance(chk, ContainmentCheck)
    assert chk.collisions == 6
    assert chk.ratio_count >= 6 and chk.ok
    chk7 = collision_vs_ratio_check(7, 6)
    assert chk7.collisions == 8
    assert chk7.ratio_count >= 8 and chk7.ok


def test_collision_vs_ratio_bounds():
    with pytest.raises(ValueError):
        collision_vs_ratio_check(5, 13)  # 13 >= 25/2
    with pytest.raises(ValueError):
        collision_vs_ratio_check(5, 0)
    p = 2147483629  # 2n = p^2 + 1, where the float p^2 / 2 rounds up to n
    with pytest.raises(ValueError):
        collision_vs_ratio_check(p, (p * p + 1) // 2)


def test_collision_vs_ratio_sweep_small_primes():
    for p in primes_up_to(31)[1:]:
        n = min(60, (p * p - 2) // 2)
        assert collision_vs_ratio_check(p, n).ok, p
