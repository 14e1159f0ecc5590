from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antisquares.repetitions import (
    PowerBound,
    Repetition,
    critical_exponent,
    exponent,
    maximal_repetitions,
    satisfies,
    smallest_period,
)
from antisquares.words import Word

binary_word = st.text(alphabet="01", min_size=1, max_size=30).map(Word)


def brute_smallest_period(t: str) -> int:
    for p in range(1, len(t) + 1):
        if all(t[i] == t[i + p] for i in range(len(t) - p)):
            return p
    raise AssertionError


def brute_critical_exponent(t: str) -> Fraction:
    best = Fraction(0)
    for i in range(len(t)):
        for j in range(i + 1, len(t) + 1):
            f = t[i:j]
            e = Fraction(len(f), brute_smallest_period(f))
            best = max(best, e)
    return best


def test_smallest_period_examples():
    assert smallest_period(Word("0")) == 1
    assert smallest_period(Word("0101")) == 2
    assert smallest_period(Word("01011")) == 5
    assert smallest_period(Word("010010")) == 3
    assert exponent(Word("010010")) == Fraction(6, 3)
    with pytest.raises(ValueError):
        smallest_period(Word(""))


@given(binary_word)
def test_smallest_period_matches_brute(w):
    assert smallest_period(w) == brute_smallest_period(w.text)


def test_critical_exponent_exhaustive_small():
    for n in range(1, 12):
        for bits in product("01", repeat=n):
            t = "".join(bits)
            got, witness = critical_exponent(Word(t))
            assert got == brute_critical_exponent(t), t
            factor = t[witness.start : witness.start + witness.length]
            assert smallest_period(Word(factor)) == witness.period
            assert Fraction(witness.length, witness.period) == got


def test_critical_exponent_known_words():
    assert critical_exponent(Word("0110"))[0] == Fraction(2)
    assert critical_exponent(Word("010101"))[0] == Fraction(3)
    assert critical_exponent(Word("101110111011101"))[0] == Fraction(15, 4)


def test_power_bound_parse_and_str():
    strict = PowerBound.parse("7/3")
    assert strict.threshold == Fraction(7, 3) and strict.forbid_equal
    plus = PowerBound.parse("5/2+")
    assert plus.threshold == Fraction(5, 2) and not plus.forbid_equal
    assert str(strict) == "7/3"
    assert str(plus) == "5/2+"
    assert PowerBound.parse("3").threshold == 3


def test_power_bound_violated_by():
    b = PowerBound.parse("5/2")
    assert b.violated_by(Fraction(5, 2))
    assert not b.violated_by(Fraction(12, 5))
    bp = PowerBound.parse("5/2+")
    assert not bp.violated_by(Fraction(5, 2))
    assert bp.violated_by(Fraction(13, 5))


@given(st.integers(1, 60), st.fractions(min_value=1, max_value=5), st.booleans())
def test_min_violating_run_is_tight(p, beta, forbid_equal):
    b = PowerBound(beta, forbid_equal)
    r = b.min_violating_run(p)
    assert r >= 1
    assert b.violated_by(Fraction(p + r, p))
    if r > 1:
        assert not b.violated_by(Fraction(p + r - 1, p))


def brute_satisfies(t: str, bound: PowerBound) -> bool:
    return not bound.violated_by(brute_critical_exponent(t)) if t else True


@given(binary_word, st.sampled_from(["2", "7/3", "7/3+", "5/2", "5/2+", "3", "15/4"]))
def test_satisfies_matches_brute(w, spec):
    bound = PowerBound.parse(spec)
    ok, witness = satisfies(w, bound)
    assert ok == brute_satisfies(w.text, bound)
    if not ok:
        f = w[witness.start : witness.start + witness.length]
        assert smallest_period(f) <= witness.period
        assert bound.violated_by(Fraction(len(f), smallest_period(f)))


def test_maximal_repetitions_square_case():
    reps = maximal_repetitions(Word("00110011"), Fraction(2))
    as_tuples = {(r.start, r.period, r.length) for r in reps}
    assert (0, 4, 8) in as_tuples
    assert (0, 1, 2) in as_tuples and (2, 1, 2) in as_tuples
    for r in reps:
        assert r.exponent >= 2


@given(binary_word)
def test_maximal_repetitions_are_repetitions(w):
    for r in maximal_repetitions(w, Fraction(2)):
        f = w[r.start : r.start + r.length]
        assert smallest_period(f) == r.period
        assert r.exponent >= 2
        # maximality: extension in either direction breaks the period
        t = w.text
        if r.start > 0:
            assert t[r.start - 1] != t[r.start - 1 + r.period]
        end = r.start + r.length
        if end < len(t):
            assert t[end] != t[end - r.period]


def test_repetition_exponent():
    assert Repetition(3, 4, 10).exponent == Fraction(10, 4)
