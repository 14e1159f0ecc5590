import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from antisquares.enumeration import (
    GOOD_WORD_FORBIDDEN,
    PANSIOT_CODE_FORBIDDEN,
    _charpoly,
    _live_submatrix,
    build_avoidance_automaton,
    count_series,
    expand_polynomial_identity,
    growth_rate,
    pansiot_block_counts,
    poly_mul,
    supergolden,
    verify_pansiot_recurrence,
)
from antisquares.antisquares import characterized_minimal
from antisquares.search import ConstraintSet, count_by_length
from antisquares.words import Word


def monic_remainder(p, d):
    """Remainder of the integer polynomial p by the monic d (low to high)."""
    r = list(p)
    for shift in reversed(range(len(r) - len(d) + 1)):
        f = r[shift + len(d) - 1]
        for i, c in enumerate(d):
            r[shift + i] -= f * c
    return r[: len(d) - 1]


def brute_count(forbidden, n):
    return sum(
        1
        for bits in product("01", repeat=n)
        if not any(f in "".join(bits) for f in forbidden)
    )


def test_automaton_accepts_matches_membership():
    aut = build_avoidance_automaton(GOOD_WORD_FORBIDDEN)
    for n in range(0, 9):
        for bits in product("01", repeat=n):
            t = "".join(bits)
            expected = not any(f in t for f in GOOD_WORD_FORBIDDEN)
            assert aut.accepts(Word(t)) == expected, t


def test_automaton_counts_match_brute():
    for forbidden in (("00",), ("010", "101"), GOOD_WORD_FORBIDDEN, PANSIOT_CODE_FORBIDDEN):
        aut = build_avoidance_automaton(forbidden)
        counts = count_series(aut, 10).counts
        for n in range(0, 11):
            assert counts[n] == brute_count(forbidden, n), (forbidden, n)


def test_avoiding_00_gives_fibonacci_counts():
    aut = build_avoidance_automaton(["00"])
    counts = count_series(aut, 12).counts
    # words over {0,1} without 00: the classic Fibonacci count
    assert counts[:8] == [1, 2, 3, 5, 8, 13, 21, 34]
    for n in range(2, 13):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_empty_forbidden_rejected():
    with pytest.raises(ValueError):
        build_avoidance_automaton([])


def test_growth_rate_golden_ratio():
    aut = build_avoidance_automaton(["00"])
    est = growth_rate(aut)
    assert abs(est.value - (1 + 5**0.5) / 2) < 1e-10
    assert est.polynomial == [-1, -1, 1]  # x^2 - x - 1


def test_growth_rate_finite_language():
    aut = build_avoidance_automaton(["00", "01", "11", "10"])
    with pytest.raises(ValueError):
        growth_rate(aut)


def test_supergolden_value_and_certificate():
    x = supergolden()
    assert f"{float(x):.15f}" == "1.465571231876768"
    # the root lies in [x - 2^-128, x]: x^3 - x^2 - 1 is increasing past 1
    f = lambda y: y**3 - y**2 - 1
    assert f(x - Fraction(1, 2**128)) < 0 <= f(x)


def test_charpoly_matches_numpy():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for _ in range(10):
            m = rng.integers(-2, 3, (n, n))
            expected = [int(round(c)) for c in np.poly(m)][::-1]
            assert _charpoly(m.tolist()) == expected, m


def test_growth_rate_isolates_the_largest_root():
    est = growth_rate(build_avoidance_automaton(["000", "0110"]))
    assert not any(monic_remainder(est.polynomial, [-1, 0, 0, -1, -1, 1]))  # x^5 - x^4 - x^3 - 1
    lo, hi = est.interval
    assert 0 < hi - lo <= Fraction(1, 2**64)
    assert abs(est.value - 1.7049027760416) < 1e-12


def test_growth_rate_polynomial_growth():
    est = growth_rate(build_avoidance_automaton(["100", "11"]))
    assert est.interval == (1, 1)
    assert est.value == 1.0


def test_growth_rate_root_one_below_the_dominant_root():
    # x^2 (x - 1)(x^3 - x^2 - 1): a bracket grown from 1 by signs alone returns 1
    est = growth_rate(build_avoidance_automaton(["110", "0101"]))
    assert est.polynomial == [0, 0, 1, -1, 1, -2, 1]
    lo, hi = est.interval
    f = lambda y: y**3 - y**2 - 1
    assert f(lo) < 0 <= f(hi) and hi - lo <= Fraction(1, 2**64)
    assert est.value == float(supergolden())


def test_growth_rate_matches_eigenvalues_on_random_sets():
    rng = random.Random(1)
    infinite = 0
    for _ in range(800):
        patterns = set()
        size = rng.randint(2, 3)
        while len(patterns) < size:
            patterns.add("".join(rng.choice("01") for _ in range(rng.randint(2, 4))))
        aut = build_avoidance_automaton(sorted(patterns))
        try:
            est = growth_rate(aut)
        except ValueError:
            assert count_series(aut, aut.num_states + 1).counts[-1] == 0, patterns
            continue
        infinite += 1
        rho = max(abs(np.linalg.eigvals(_live_submatrix(aut).astype(float))))
        # every state is reachable, and states off the live part lie on no cycle
        assert abs(rho - max(abs(np.linalg.eigvals(aut.adjacency().astype(float))))) < 1e-9
        lo, hi = est.interval
        assert float(lo) - 1e-9 <= rho <= float(hi) + 1e-9, (patterns, rho, est)
    assert infinite == 783


def test_growth_rate_of_good_word_language():
    aut = build_avoidance_automaton(GOOD_WORD_FORBIDDEN)
    est = growth_rate(aut)
    assert abs(est.value - float(supergolden())) < 1e-9


def test_every_minimal_antisquare_holds_a_forbidden_good_word_factor():
    """Every closed-form minimal antisquare of order 2 .. 60 has a factor in
    GOOD_WORD_FORBIDDEN.  A word that is not good has a shortest factor that
    is not good, an antisquare of order >= 2 whose proper factors are all
    good: a minimal antisquare.  So, as far as the closed form is the whole
    set (test_01 checks it against brute force to order 12), every word the
    automaton accepts is good, and the good words grow at least as fast.

    At every order n >= 5 the cyclic word of 0^(n-2)10·1^(n-2)01 holds
    001011 and 110100 at places whose insides do not meet, so each of its
    conjugates keeps one of them whole; the orders to 60 check that."""
    for order in range(2, 61):
        for w in characterized_minimal(order):
            assert any(f in w.text for f in GOOD_WORD_FORBIDDEN), w.text


def test_good_words_avoiding_the_forbidden_factors_are_the_automaton_language():
    aut = build_avoidance_automaton(GOOD_WORD_FORBIDDEN)
    c = ConstraintSet(max_antisquare_order=2, forbidden_factors=frozenset(GOOD_WORD_FORBIDDEN))
    outcome = count_by_length(c, 24)
    assert outcome.complete and outcome.counts == count_series(aut, 24).counts


def test_growth_rate_of_code_language():
    aut = build_avoidance_automaton(PANSIOT_CODE_FORBIDDEN)
    est = growth_rate(aut)
    assert abs(est.value - float(supergolden())) < 1e-9


def brute_block_counts(n_max):
    counts = [0] * (n_max + 1)
    for n in range(2, n_max + 1):
        for bits in product("01", repeat=n):
            t = "".join(bits)
            if t.endswith("00") and not any(f in t for f in PANSIOT_CODE_FORBIDDEN):
                counts[n] += 1
    return counts


def test_pansiot_block_counts_match_brute():
    got = pansiot_block_counts(14)
    assert got == brute_block_counts(14)


def test_pansiot_recurrence():
    counts = pansiot_block_counts(40)
    assert verify_pansiot_recurrence(range(10, 41), counts)
    assert verify_pansiot_recurrence(range(8, 41))
    with pytest.raises(ValueError):
        verify_pansiot_recurrence(range(7, 10))


def test_poly_mul():
    # (1+x)(1-x) = 1 - x^2
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


def test_polynomial_identity():
    assert expand_polynomial_identity()
