import random
from itertools import groupby, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antisquares.antisquares import (
    _inventory,
    antisquare_order,
    characterized_minimal,
    complement_pair_bound,
    has_complementary_pair,
    inventory,
    is_antisquare,
    is_good,
    is_minimal_antisquare,
    minimal_antisquares,
    pansiot_decode,
    pansiot_encode,
)
from antisquares.words import Word, complement, complement_text, factor_texts

binary_word = st.text(alphabet="01", min_size=1, max_size=30).map(Word)


def brute_inventory(t: str) -> set[str]:
    out = set()
    for i in range(len(t)):
        for j in range(i + 2, len(t) + 1, 2):
            f = t[i:j]
            h = len(f) // 2
            if f[h:] == complement_text(f[:h]):
                out.add(f)
    return out


def test_is_antisquare_basics():
    assert is_antisquare(Word("01"))
    assert is_antisquare(Word("0110"))
    assert not is_antisquare(Word("00"))
    assert not is_antisquare(Word("010"))
    assert not is_antisquare(Word(""))
    assert antisquare_order(Word("010101")) == 3
    assert antisquare_order(Word("0100")) == 0


@given(binary_word)
def test_antisquare_complement_and_reversal_invariance(w):
    if is_antisquare(w):
        assert is_antisquare(complement(w))
        assert is_antisquare(Word(w.text[::-1]))


def test_complement_pair_bound():
    assert complement_pair_bound("000") == 0
    assert complement_pair_bound("01") == 1
    assert complement_pair_bound("0011") == 2
    assert complement_pair_bound("000111") == 3


@given(st.text(alphabet="01", max_size=30))
def test_complement_pair_bound_matches_brute(t):
    facs = {t[i:j] for i in range(len(t)) for j in range(i + 1, len(t) + 1)}
    expected = max((len(v) for v in facs if complement_text(v) in facs), default=0)
    assert complement_pair_bound(t) == expected


def test_complementary_pair_across_texts():
    # complement_factor_bound relies on pairs split over two images
    assert has_complementary_pair(["000", "111"], 3)
    assert not has_complementary_pair(["000"], 3)
    assert not has_complementary_pair(["111"], 3)


def brute_pair(texts: list[str], length: int) -> bool:
    facs = set().union(*(factor_texts(t, length) for t in texts))
    return any(complement_text(v) in facs for v in facs)


def test_factor_codes_stay_exact_beyond_their_width():
    # factors of 63 letters and more no longer fit an int64 as bits, and
    # the codes of these words are re-ranked from 10 letters on
    rng = random.Random(7)

    def noise(k):
        return "".join(rng.choice("01") for _ in range(k))

    words = ["0" * 70 + "1" * 70]
    for length in range(60, 67):  # a planted pair v, ~v
        v = noise(length)
        words.append(noise(30) + v + noise(25) + complement_text(v) + noise(30))
    for t in words:
        paired = [length for length in range(1, len(t) + 1) if brute_pair([t], length)]
        assert complement_pair_bound(t) == max(paired)
        for length in range(max(paired) - 3, max(paired) + 3):
            assert has_complementary_pair([t], length) == brute_pair([t], length)
        assert {a.text for a in inventory(Word(t)).distinct} == brute_inventory(t)
    assert complement_pair_bound(words[0]) == 70
    assert all(complement_pair_bound(t) >= length for t, length in zip(words[1:], range(60, 67)))


def test_complementary_pairs_lie_within_one_text():
    assert has_complementary_pair(["0" * 40, "1" * 40], 40)
    assert not has_complementary_pair(["0" * 40, "1" * 40], 41)
    # joined, the texts would pair 0^a·1^b with 1^a·0^b at every length
    # from 41 to 80, and 01 with 10
    texts = ["0" * 40, "1" * 40, "0" * 40]
    for length in (1, 2, 40, 41, 60, 80, 81, 121):
        assert has_complementary_pair(texts, length) == brute_pair(texts, length) == (length <= 40)
    assert not has_complementary_pair(["0", "1", "0"], 2)
    rng = random.Random(11)
    for _ in range(200):
        texts = ["".join(rng.choice("01") for _ in range(rng.randrange(0, 12))) for _ in range(rng.randrange(0, 5))]
        for length in range(1, 14):
            assert has_complementary_pair(texts, length) == brute_pair(texts, length), (texts, length)


def test_antisquares_lie_within_one_text():
    # joined, the texts would hold the antisquares 01, 0011 and 1001
    assert _inventory(["0", "1"]).count == 0
    assert _inventory(["00", "11"]).count == 0
    assert {a.text for a in _inventory(["0110", "01"]).distinct} == {"01", "10", "0110"}
    rng = random.Random(13)
    for _ in range(300):
        texts = ["".join(rng.choice("01") for _ in range(rng.randrange(0, 12))) for _ in range(rng.randrange(0, 5))]
        want = set().union(*map(brute_inventory, texts))
        assert {a.text for a in _inventory(texts).distinct} == want, texts


def test_complementary_pair_arguments():
    with pytest.raises(ValueError, match="binary"):
        has_complementary_pair(["012"], 1)
    with pytest.raises(ValueError, match="length"):
        has_complementary_pair(["01"], 0)


@given(binary_word)
def test_inventory_matches_brute(w):
    got = {a.text for a in inventory(w).distinct}
    assert got == brute_inventory(w.text)


def test_inventory_counts_and_orders():
    inv = inventory(Word("010011"))
    assert {a.text for a in inv.distinct} == {"01", "10", "1001", "0011"}
    assert inv.count == 4
    assert inv.max_order == 2


def test_non_binary_words_are_rejected():
    for check in (inventory, is_good):
        with pytest.raises(ValueError):
            check(Word("0120", 3))


@given(binary_word)
def test_good_iff_no_order_two(w):
    expected = all(len(a) <= 2 for a in brute_inventory(w.text))
    assert is_good(w) == expected


def test_minimal_antisquare_examples():
    assert is_minimal_antisquare(Word("0011"))
    assert is_minimal_antisquare(Word("010101"))
    assert not is_minimal_antisquare(Word("001101"))  # not an antisquare at all
    assert not is_minimal_antisquare(Word("00101101"))  # antisquare containing 0110
    assert not is_minimal_antisquare(Word("010"))


def test_minimal_antisquares_match_closed_form():
    table = minimal_antisquares(8)
    for order in range(1, 9):
        assert table.by_order[order] == characterized_minimal(order), order


def test_characterized_counts():
    sizes = [len(characterized_minimal(n)) for n in range(1, 9)]
    assert sizes == [2, 4, 2, 0, 10, 12, 14, 16]


def test_characterized_minimal_order_5_structure():
    got = characterized_minimal(5)
    seed = "0001011101"
    assert Word(seed, 2) in got
    # conjugate-closed
    for w in got:
        t = w.text
        assert Word(t[1:] + t[0], 2) in got


def test_minimal_table_render():
    text = minimal_antisquares(3).render()
    lines = text.splitlines()
    assert lines[0] == "1\t01,10"
    assert lines[1] == "2\t0011,0110,1001,1100"
    assert lines[2] == "3\t010101,101010"


def test_run_count_structure_of_minimal_antisquares():
    # every minimal antisquare of order >= 5 is a conjugate of
    # 0^(n-2) 10 1^(n-2) 01, which has 6 cyclic blocks; a linear
    # representative therefore has 6 or 7 maximal blocks
    for n in (5, 6, 7):
        for w in characterized_minimal(n):
            assert len([letter for letter, _ in groupby(w.text)]) in (6, 7)


def test_pansiot_roundtrip_examples():
    assert pansiot_encode(Word("0011")).text == "010"
    assert pansiot_decode(Word("010"), 0).text == "0011"
    with pytest.raises(ValueError):
        pansiot_encode(Word(""))


@given(binary_word)
def test_pansiot_roundtrip(w):
    code = pansiot_encode(w)
    assert len(code) == len(w) - 1
    assert pansiot_decode(code, w[0]) == w
    # the code is complement-blind
    assert pansiot_encode(complement(w)) == code
