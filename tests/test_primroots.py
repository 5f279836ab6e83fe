import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatq import primroots
from fermatq.arith import (
    arithmetic_functions,
    factorize,
    is_prime,
    is_primitive_root,
    least_primitive_root,
    pow_mod_p2_lanes,
    primes_between,
    primes_up_to,
)
from fermatq.charsums import CharacterModP
from fermatq.cli import COMMANDS, build_parser, main
from fermatq.config import DEFAULT_BUDGET_OPS, PEAK_BYTES, RunConfig
from fermatq.primroots import (
    IndicatorReport,
    NonresRow,
    ScanRow,
    convolution_length,
    double_char_sum,
    first_occurrence_set,
    lemma3_envelope,
    lemma3_envelope_min,
    nonres_row,
    primroot_indicator,
    quotient_sumset_experiment,
    scan_row,
    scan_size,
    scan_steps,
    smallest_dth_nonresidue_quotient,
    smallest_primroot_quotient,
    theorem4_exponent_scan,
)
from fermatq.quotients import fermat_quotient, quotient_table


def test_indicator_examples():
    assert primroot_indicator(7, 3) == IndicatorReport(7, 3, 1, 6)
    assert primroot_indicator(7, 2).indicator == 0
    assert primroot_indicator(7, 0).indicator == 0
    assert primroot_indicator(11, 0).indicator == 0


def test_indicator_terms_counts_squarefree_orders():
    # p = 11: d in {1, 2, 5, 10} squarefree, phi sums to 1 + 1 + 4 + 4
    assert primroot_indicator(11, 2).terms == 10
    # p = 13: d in {1, 2, 3, 6} (4 and 12 carry square factors)
    assert primroot_indicator(13, 2).terms == 6


def test_indicator_agrees_with_direct_test():
    for p in primes_up_to(400)[1:]:  # every odd prime below 400
        total = 0
        for a in range(p):
            rep = primroot_indicator(p, a)
            assert rep.indicator == int(is_primitive_root(a, p)), (p, a)
            total += rep.indicator
        assert total == arithmetic_functions(p - 1)[0], p


def test_indicator_near_a_million_returns_at_once():
    # a sum of the characters themselves would build about 10^6 of length p here
    p = 1000003  # p - 1 = 2 * 3 * 166667 is squarefree, so every character is summed
    g = least_primitive_root(p)
    started = time.monotonic()
    assert primroot_indicator(p, g) == IndicatorReport(p, g, 1, p - 1)
    assert primroot_indicator(p, g * g % p) == IndicatorReport(p, g * g % p, 0, p - 1)
    assert time.monotonic() - started < 5.0


def test_smallest_primroot_quotient_examples():
    assert smallest_primroot_quotient(7, 100) == 9  # q_7(9) = 5, a primitive root
    assert fermat_quotient(7, 9) == 5
    assert smallest_primroot_quotient(5, 100) == 2  # q_5(2) = 3
    assert smallest_primroot_quotient(7, 1) is None
    assert smallest_primroot_quotient(7, 8) is None  # nothing below 9 works
    with pytest.raises(ValueError):
        smallest_primroot_quotient(7, 0)


def test_smallest_primroot_quotient_bruteforce_agreement():
    for p in primes_up_to(60)[1:]:
        cap = p * p
        expect = None
        for n in range(1, cap + 1):
            q = fermat_quotient(p, n)
            if q is not None and q != 0 and is_primitive_root(q, p):
                expect = n
                break
        assert smallest_primroot_quotient(p, cap) == expect, p


def test_smallest_dth_nonresidue_examples():
    assert smallest_dth_nonresidue_quotient(7, 2, 100) == 3  # q_7(3) = 6, a QNR
    # 6th-power residues mod 7 reduce to {1}; q_7(2) = 2 already escapes
    assert smallest_dth_nonresidue_quotient(7, 6, 100) == 2
    with pytest.raises(ValueError):
        smallest_dth_nonresidue_quotient(7, 1, 100)
    with pytest.raises(ValueError):
        smallest_dth_nonresidue_quotient(7, 4, 100)  # 4 does not divide 6
    with pytest.raises(ValueError):
        smallest_dth_nonresidue_quotient(7, 2, 0)


def test_smallest_dth_nonresidue_bruteforce_agreement():
    for p in (7, 13, 31):
        for d in [d for d in range(2, p) if (p - 1) % d == 0]:
            expect = None
            for n in range(1, p * p + 1):
                q = fermat_quotient(p, n)
                if q is None or q == 0:
                    continue
                if pow(q, (p - 1) // d, p) != 1:  # Euler-style residue test
                    expect = n
                    break
            assert smallest_dth_nonresidue_quotient(p, d, p * p) == expect, (p, d)


def test_nonres_row_verifies_by_the_order_test():
    # q_13(2) = 3 is a square mod 13 (4^2 = 3), so n = 2 is no quadratic nonresidue hit
    assert fermat_quotient(13, 2) == 3
    assert nonres_row(13, 2, 2).verified is False
    n = smallest_dth_nonresidue_quotient(13, 2, 169)
    assert nonres_row(13, 2, n) == NonresRow(p=13, d=2, n_min=n, exponent=math.log(n) / math.log(13), verified=True)
    assert nonres_row(13, 2, 13).verified is False  # undefined quotient
    assert nonres_row(13, 3, None) == NonresRow(p=13, d=3, n_min=None, exponent=None, verified=False)


def test_nonresidue_search_monotone_in_divisibility():
    # d | d' makes every d-th nonresidue a d'-th nonresidue
    for p in (13, 31, 61):
        hits = {d: smallest_dth_nonresidue_quotient(p, d, p * p) for d in range(2, p) if (p - 1) % d == 0}
        for d, n in hits.items():
            for d2, n2 in hits.items():
                if d2 % d == 0 and n is not None:
                    assert n2 is not None and n2 <= n, (p, d, d2)


def test_double_char_sum_example():
    eta = CharacterModP.quadratic(7)
    assert double_char_sum(7, eta, {1, 2}, {1, 3}) == pytest.approx(0j)


def test_double_char_sum_eta_zero_at_p():
    eta = CharacterModP.quadratic(7)
    # pair sums hitting 0 mod 7 contribute nothing
    s = double_char_sum(7, eta, {3}, {4})
    assert s == 0


def test_double_char_sum_validation():
    with pytest.raises(ValueError):
        double_char_sum(7, CharacterModP(7, 0), {1}, {2})
    with pytest.raises(ValueError):
        double_char_sum(7, CharacterModP.quadratic(5), {1}, {2})


def grid_double_char_sum(p, eta, a_set, b_set):
    # the whole int64 index grid, gathered and summed in one step
    a_arr = np.unique(np.asarray(sorted(a_set), dtype=np.int64) % p)
    b_arr = np.unique(np.asarray(sorted(b_set), dtype=np.int64) % p)
    return complex(eta.value_array()[np.add.outer(a_arr, b_arr) % p].sum())


def brute_pair_counts(p, a_set, b_set):
    # c(s) = #{(a, b) : a + b = s mod p} over the distinct residues, pair by pair
    counts = [0] * p
    for a in {x % p for x in a_set}:
        for b in {y % p for y in b_set}:
            counts[(a + b) % p] += 1
    return np.array(counts, dtype=np.int64)


def test_double_char_sum_equals_exact_pair_count_sum():
    rng = random.Random(11)
    # duplicate residues mod p and negative members in B of the wide case and A of the small one
    wide = (65537, CharacterModP.quadratic(65537), {0, 1, 5, 40000}, set(range(-3, 65543)))
    tall = (10009, CharacterModP(10009, 2502), set(rng.sample(range(10009), 50)), set(rng.sample(range(10009), 3000)))
    small = (13, CharacterModP(13, 4), [1, 14, 2, 5, 7, -6], {0, 3, 11})  # 14 = 1 and -6 = 7 mod 13
    for p, eta, a_set, b_set in (wide, tall, small):
        s = double_char_sum(p, eta, a_set, b_set)
        # equal bits pin every pair count c(s) exactly
        assert s == complex(np.dot(eta.value_array(), brute_pair_counts(p, a_set, b_set)))
        assert abs(s - grid_double_char_sum(p, eta, a_set, b_set)) <= 1e-9 * len(a_set) * len(b_set)


def test_double_char_sum_caps_the_convolution_not_the_sets(capsys):
    eta = CharacterModP.quadratic(10009)
    # length 2**15 >= 2p - 1, whatever |A| and |B| are
    assert convolution_length(10009) == 1 << 15
    assert double_char_sum(10009, eta, {1}, {2}) == eta(3)
    assert abs(double_char_sum(10009, eta, range(10009), range(10009))) < 1e-6
    argv = ["doublesum", "--p", "10009", "--ucap", "1", "--vcap", "1", "--memcap"]
    convolution_bytes = (PEAK_BYTES["convolution entry"] << 15) + 24  # and the one-entry table
    assert main([*argv, str(convolution_bytes - 1)]) == 3
    assert "convolution" in capsys.readouterr().err
    assert main([*argv, str(convolution_bytes)]) == 0
    with pytest.raises(ValueError, match="nonempty"):
        double_char_sum(10009, eta, [], {1})


def test_double_char_sum_triangle():
    eta = CharacterModP(13, 4)
    a_set, b_set = {1, 2, 5, 7}, {0, 3, 11}
    assert abs(double_char_sum(13, eta, a_set, b_set)) <= len(a_set) * len(b_set) + 1e-9


def test_lemma3_envelope():
    # nu = 1: sqrt(A) B p^(1/4) + sqrt(A) sqrt(B) sqrt(p)
    assert lemma3_envelope(4, 9, 7, 1) == pytest.approx(2 * 9 * 7**0.25 + 2 * 3 * 7**0.5)
    assert lemma3_envelope_min(4, 9, 7) <= lemma3_envelope(4, 9, 7, 1)
    with pytest.raises(ValueError):
        lemma3_envelope(0, 9, 7, 1)


def test_first_occurrence_set():
    # q_5 over 1..4 is [0, 3, 1, 1]: first occurrences at 1, 2, 3
    assert first_occurrence_set(quotient_table(5, 4), 4) == [1, 2, 3]
    assert first_occurrence_set(quotient_table(5, 5), 5) == [1, 2, 3]  # n=5 undefined
    t = quotient_table(7, 49)
    reps = first_occurrence_set(t, 49)
    assert len(reps) == 7  # all residues realized over a full period
    assert len({t[n] for n in reps}) == len(reps)


def test_first_occurrence_set_matches_loop():
    for p, cap in ((3, 50), (5, 60), (7, 200), (11, 130), (1093, 40)):
        seen, expect = set(), []
        for n in range(1, cap + 1):
            q = fermat_quotient(p, n)
            if q is not None and q not in seen:
                seen.add(q)
                expect.append(n)
        # read off the prefix of a longer table, as doublesum reads its smaller set
        assert first_occurrence_set(quotient_table(p, 2 * cap), cap) == expect, (p, cap)


def test_quotient_sumset_experiment():
    rep = quotient_sumset_experiment(7, 20, 6, CharacterModP.quadratic(7))
    assert rep.p == 7 and rep.eta_order == 2
    assert rep.card_u == 7 and rep.card_v == 5
    assert rep.abs_sum <= rep.card_u * rep.card_v
    assert 0 <= rep.ratio <= 1


def test_theorem4_scan_examples():
    rows = theorem4_exponent_scan(7, 7)
    assert rows == [ScanRow(7, 9, math.log(9) / math.log(7), True)]
    assert rows[0].exponent == pytest.approx(1.129, abs=1e-3)
    rows5 = theorem4_exponent_scan(5, 5)
    assert rows5[0] == ScanRow(5, 2, math.log(2) / math.log(5), True)
    assert rows5[0].exponent == pytest.approx(0.431, abs=1e-3)


def test_theorem4_scan_range():
    rows = theorem4_exponent_scan(3, 40)
    assert [r.p for r in rows] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for r in rows:
        assert r.verified and r.n_min is not None
        assert r.n_min <= r.p * r.p
        q = fermat_quotient(r.p, r.n_min)
        assert is_primitive_root(q, r.p)
    rows = theorem4_exponent_scan(3, 10**6)  # five segments
    assert len(rows) == 78497 and all(r.verified for r in rows)
    assert max(r.n_min for r in rows) == 33


def test_theorem4_scan_empty_range():
    with pytest.raises(ValueError):
        theorem4_exponent_scan(10, 5)


@settings(max_examples=25, deadline=None)
@given(p_min=st.integers(-5, 198_000), width=st.integers(0, 2000))
@example(p_min=4_000_000, width=2000)
def test_theorem4_scan_lanes_match_per_prime_search(p_min, width):
    rows = theorem4_exponent_scan(p_min, p_min + width)
    assert [r.p for r in rows] == [p for p in range(max(3, p_min), p_min + width + 1) if is_prime(p)]
    for row in rows:
        assert row == scan_row(row.p, smallest_primroot_quotient(row.p, row.p * row.p)), row


def test_theorem4_scan_blocks_join_seamlessly(monkeypatch):
    whole = theorem4_exponent_scan(3, 3000)
    for width in (7, 1000):  # segments with no prime ([115, 121]), one, and many
        monkeypatch.setattr(primroots, "SCAN_SEGMENT", width)
        assert theorem4_exponent_scan(3, 3000) == whole, width


def _factor_pairs(primes):
    """The (lane, l) pairs of the distinct prime factors l of each p - 1, by factorize."""
    pairs = [(i, ell) for i, p in enumerate(primes.tolist()) for ell in factorize(p - 1).primes()]
    return tuple(np.array(column, dtype=np.int64) for column in zip(*pairs))


def test_scan_lanes_exact_below_2_31():
    # the search and the verification, on the largest primes a lane can hold
    primes = np.array([p for p in range(2**31 - 1, 2**31 - 400, -2) if is_prime(p)][:12])
    pair_lane, pair_prime = _factor_pairs(primes)
    n_min = primroots._least_primroot_lanes(primes, pair_lane, pair_prime)
    assert n_min.tolist() == [smallest_primroot_quotient(p, 1000) for p in primes.tolist()]
    assert primroots._verify_lanes(primes, n_min, pair_lane, pair_prime).all()
    # a wrong hit does not verify: q_p(n_min - 1) is not a primitive root, or n_min would be smaller
    wrong = np.where(n_min > 2, n_min - 1, 0)
    assert not primroots._verify_lanes(primes, wrong, pair_lane, pair_prime).any()


def _planted(pair_lane, pair_prime, lane, fault):
    """The pairs with one fault planted on one lane: its largest factor
    dropped, its largest factor l replaced by the composite 2 l (which
    divides p - 1, keeps the radical and passes the order test of a
    primitive root), or its factor 2 listed twice."""
    mine = np.flatnonzero(pair_lane == lane)
    top = mine[pair_prime[mine].argmax()]
    if fault == "dropped":
        return np.delete(pair_lane, top), np.delete(pair_prime, top)
    if fault == "composite":
        return pair_lane, np.where(np.arange(len(pair_prime)) == top, 2 * pair_prime, pair_prime)
    return np.append(pair_lane, lane), np.append(pair_prime, 2)


@pytest.mark.parametrize("fault", ["dropped", "composite", "duplicated"])
def test_verification_refuses_a_planted_factor_fault(fault):
    # every hit is right, so only the certificate of the factors can fail a row
    primes = np.array([p for p in range(10**6, 10**6 + 2000) if is_prime(p) and (p - 1) % 4 == 0][:20])
    pair_lane, pair_prime = _factor_pairs(primes)
    n_min = primroots._least_primroot_lanes(primes, pair_lane, pair_prime)
    assert primroots._verify_lanes(primes, n_min, pair_lane, pair_prime).all()
    for lane in range(len(primes)):
        verified = primroots._verify_lanes(primes, n_min, *_planted(pair_lane, pair_prime, lane, fault))
        assert verified.tolist() == [i != lane for i in range(len(primes))], (fault, lane)


def test_scan_rows_near_2_31_match_the_scalar_search():
    rows = theorem4_exponent_scan(2**31 - 10**5, 2**31 - 1)
    assert [r.p for r in rows] == [p for p in range(2**31 - 10**5, 2**31) if is_prime(p)]
    assert len(rows) == 4664 and all(r.verified for r in rows)
    for row in random.Random(31).sample(rows, 50):
        assert row == scan_row(row.p, smallest_primroot_quotient(row.p, row.p * row.p)), row


def test_wieferich_zeros_of_the_lane_ladder():
    # zeros of q_p(2) below 10^5 and of q_p(3) in [3, 10^5] and [10^6, 1.01 10^6]
    # (Dorais and Klyve, J. Integer Seq. 14, 2011)
    def zeros(base, primes):
        primes = np.array([p for p in primes if base % p], dtype=np.int64)
        return primes[pow_mod_p2_lanes(np.full(len(primes), base), primes - 1, primes) // primes == 0].tolist()

    assert zeros(2, primes_up_to(10**5)[1:]) == [1093, 3511]
    window = [p for p in primes_up_to(1_010_000) if p >= 10**6]
    assert zeros(3, primes_up_to(10**5)[1:] + window) == [11, 1006003]


def test_scan_peak_at_a_fixed_width_does_not_grow_with_pmax(monkeypatch):
    # one segment at a time, three segments to a range; a least-prime-factor
    # sieve from 0 grew with pmax, 8 bytes an integer
    monkeypatch.setattr(primroots, "SCAN_SEGMENT", 20_000)
    width = 3 * primroots.SCAN_SEGMENT
    theorem4_exponent_scan(3, 10)
    peaks = []
    for p_min in (10**6, 10**8, 2**31 - width):
        tracemalloc.start()
        try:
            rows = theorem4_exponent_scan(p_min, p_min + width - 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rows and all(r.verified for r in rows)
        del rows
    assert peaks[2] <= peaks[1] <= peaks[0], peaks


def test_charge_scan_refuses_before_the_sieve():
    for p_max in (10, 30000, 10**6, 10**7):
        assert scan_steps(3, p_max) <= DEFAULT_BUDGET_OPS
    assert scan_steps(10, 5) == 0  # empty ranges cost nothing
    assert scan_steps(3, 5 * 10**6) > 1
    assert scan_steps(3, 10**8) > DEFAULT_BUDGET_OPS


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(3, 2**31 - 1), width=st.integers(1, 300_000))
@example(lo=3, width=1)
@example(lo=3, width=8)
@example(lo=2**31 - 200_000, width=200_000)
def test_scan_rows_bound_every_narrow_range(lo, width):
    # the rows charged are at least the primes listed, under Brun-Titchmarsh
    hi = min(lo + width - 1, 2**31 - 1)
    assert scan_size(lo, hi)[1] >= len(primes_between(lo, hi))


def test_narrow_high_scan_is_admitted_at_the_default_caps():
    # 97,878 primes: 2.87 * 10^8 lane steps for 288,513 lanes, where the odd
    # numbers' 1,050,000 lanes were 1.04 * 10^9 steps, past the default budget
    argv = ["scan", "--pmin", "2145383648", "--pmax", "2147483647"]
    config = RunConfig()
    plan = COMMANDS["scan"].plan(build_parser(argv[:1]).parse_args(argv), config)
    for what, entries, steps in next(plan):  # each raises BudgetError past its cap
        config.charge(what, entries, steps)
    assert scan_size(2145383648, 2**31 - 1)[1] == 288_513
    assert 2 * 10**8 < scan_steps(2145383648, 2**31 - 1) < 3 * 10**8
