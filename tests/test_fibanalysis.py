import random
from fractions import Fraction

import numpy as np
import pytest

import repetitions_reference as reference
from antisquares import fibanalysis as fa
from antisquares.antisquares import inventory, is_good
from antisquares.repetitions import PowerBound, Repetition, critical_exponent, satisfies
from antisquares.words import Word
from search_reference import squarefree_ternary_words


def test_fibonacci_numbers():
    assert fa.fibonacci_numbers(8) == [1, 2, 3, 5, 8, 13, 21, 34]


def test_zeckendorf_examples():
    assert fa.zeckendorf_encode(1) == "1"
    assert fa.zeckendorf_encode(2) == "10"
    assert fa.zeckendorf_encode(3) == "100"
    assert fa.zeckendorf_encode(4) == "101"
    assert fa.zeckendorf_encode(10) == "10010"
    with pytest.raises(ValueError):
        fa.zeckendorf_encode(0)


def test_zeckendorf_roundtrip_and_canonicity():
    for n in range(1, 2000):
        digits = fa.zeckendorf_encode(n)
        assert "11" not in digits and digits[0] == "1"
        assert fa.zeckendorf_decode(digits) == n
    with pytest.raises(ValueError):
        fa.zeckendorf_decode("011")
    with pytest.raises(ValueError):
        fa.zeckendorf_decode("110")


def test_word_w_prefix_stability_and_goodness():
    short = fa.word_w_prefix(100)
    long = fa.word_w_prefix(1000)
    assert long.text.startswith(short.text)
    assert is_good(long)
    assert short.text.startswith("0101110101110111")


def test_word_w_prefix_is_morphism_image():
    # each half-length prefix of the inner fixed point maps onto the prefix
    from antisquares.morphisms import fixed_point_prefix, load_registry

    reg = load_registry()
    inner = fixed_point_prefix(reg["phi"].morphism, 0, 50)
    image = reg["g"].morphism.apply_text(inner.text)
    assert image.startswith(fa.word_w_prefix(80).text)


def test_phi_identities():
    assert fa.verify_phi_identities(10)


def test_exact_threshold_comparison():
    alpha = (1 + 5**0.5) / 2
    assert fa.is_below_two_plus_alpha(Fraction(7, 2))
    assert not fa.is_below_two_plus_alpha(Fraction(15, 4))
    assert not fa.is_below_two_plus_alpha(Fraction(4))
    # values straddling 2 + alpha extremely closely
    for k in (10, 15, 20):
        _, p, e = fa.family_parameters(k)
        assert fa.is_below_two_plus_alpha(e)
        # the gap to the limit behaves like 3/p
        assert float(e) < 2 + alpha < float(e) + 4.0 / p
    assert fa.is_below_two_plus_alpha(Fraction(1, 2))


def test_family_parameters():
    n, p, e = fa.family_parameters(5)
    assert (n, p) == (2 * 8 - 3, 2 * 3)  # F_4 = 8, F_2 = 3
    assert e == Fraction(n + p, p)


def test_analyze_small_prefix():
    ana = fa.analyze_w_repetitions(3000)
    assert ana.ok
    ks = sorted({r.k for r in ana.rows})
    assert ks[0] == 5
    assert len(ks) >= 5
    for row in ana.rows:
        n, p, e = fa.family_parameters(row.k)
        assert (row.n, row.p, row.exponent) == (n, p, e)
        assert row.witness.length == n + p
        # period Zeckendorf form: 1 0 0 1 0^*
        z = fa.zeckendorf_encode(row.p)
        assert z.startswith("1001") and set(z[4:]) <= {"0"}
    assert fa.is_below_two_plus_alpha(ana.max_exponent)


def _assert_same_analysis(got, expect):
    """got's rows, sporadic and unmatched repetitions, read by iteration and
    by index, are expect's lists."""
    for name in ("rows", "sporadic", "unmatched"):
        items, want = getattr(got, name), getattr(expect, name)
        assert len(items) == len(want), name
        assert list(items) == want, name
        assert [items[i] for i in range(-len(items), len(items))] == want + want, name
        assert items[1:7:2] == want[1:7:2], name
        with pytest.raises(IndexError):
            items[len(want)]
    assert got.max_exponent == expect.max_exponent
    assert got.ok == expect.ok


@pytest.mark.parametrize("prefix_len", [3000, 20_000])
def test_analyze_matches_the_loop(prefix_len):
    got, expect = fa.analyze_w_repetitions(prefix_len), reference.analyze_w_repetitions(prefix_len)
    _assert_same_analysis(got, expect)
    assert got.rows and got.sporadic


def test_classification_matches_the_loop_on_every_branch():
    # the prefixes of w have no unmatched repetition and no clipped one off
    # the family, so made-up repetitions take the branches they leave out
    rng = random.Random(17)
    prefix_len = 5000
    family = [fa.family_parameters(k)[:2] for k in range(5, 14)]
    reps = set()
    for _ in range(3000):
        if rng.random() < 0.5:
            n, p = rng.choice(family)
            length = rng.choice([n + p - 1, n + p, n + p + 1, 2 * p, 3 * p, 4 * p])
        else:
            p = rng.randrange(1, 40)
            length = rng.randrange(2 * p, 6 * p + 1)
        start = rng.choice([0, prefix_len - length, rng.randrange(prefix_len - length + 1)])
        reps.add((start, p, length))
    reps = sorted(rep for rep in reps if rep[2] >= 3 * rep[1])
    got = fa._classify(*(np.array(c, dtype=np.int32) for c in zip(*reps)), prefix_len)
    expect = reference.classify([Repetition(*r) for r in reps], prefix_len)
    _assert_same_analysis(got, expect)
    assert got.rows and got.sporadic and got.unmatched


def test_analyze_rejects_tiny_prefix():
    with pytest.raises(ValueError):
        fa.analyze_w_repetitions(50)


def test_fibonacci_word_antisquares():
    inv = fa.fibonacci_word_antisquares(3000)
    assert {a.text for a in inv.distinct} == {"01", "10", "1001", "10100101"}


def test_h_construction_examples():
    good, e = fa.verify_h_construction(Word("0", 3))
    assert good and e == Fraction(3)
    good, e = fa.verify_h_construction(Word("01201", 3))
    assert good and e == Fraction(15, 4)
    with pytest.raises(ValueError):
        fa.verify_h_construction(Word("00", 3))
    with pytest.raises(ValueError):
        fa.verify_h_construction(Word("01212", 3))
    with pytest.raises(ValueError):
        fa.verify_h_construction(Word("01"))


def test_h_images_of_longer_squarefree_words():
    rng = random.Random(7)
    words = list(squarefree_ternary_words(9))
    for u in rng.sample(words, 10):
        good, e = fa.verify_h_construction(u)
        assert good
        assert e == Fraction(15, 4)


def _corpus(count=40):
    rng = random.Random(11)
    base = fa.word_w_prefix(4000).text
    out = []
    while len(out) < count:
        L = rng.randrange(33, 160)
        i = rng.randrange(0, len(base) - L)
        out.append(Word(base[i : i + L]))
    return out


def test_decomposition_roundtrip_on_corpus():
    for w in _corpus():
        dec = fa.decompose_good_word(w)
        assert dec.check_bounds()
        assert dec.recompose() == w
        assert dec.g_tag in ("g", "gprime")


def test_decomposition_preconditions():
    with pytest.raises(ValueError):
        fa.decompose_good_word(Word("01" * 10))  # too short
    bad = Word("0" * 40)
    with pytest.raises(ValueError):
        fa.decompose_good_word(bad)  # 0^40 is not 15/4-free


def test_decomposition_rejects_non_good():
    base = fa.word_w_prefix(40).text
    tainted = Word(base[:20] + "0011" + base[20:36])
    ok, _ = satisfies(tainted, PowerBound(Fraction(15, 4)))
    if ok:
        with pytest.raises(ValueError):
            fa.decompose_good_word(tainted)
