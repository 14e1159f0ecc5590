import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antisquares.words import Word, complement, complement_text, factor_texts

binary_text = st.text(alphabet="01", max_size=40)


def test_construction_and_basics():
    w = Word("0101")
    assert len(w) == 4
    assert w.text == "0101"
    assert list(w) == [0, 1, 0, 1]
    assert w[0] == 0 and w[1] == 1
    assert w[1:3] == Word("10")
    assert str(w) == "0101"
    assert Word([0, 1, 1]) == Word("011")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Word("012", 2)
    with pytest.raises(ValueError):
        Word("013", 3)
    with pytest.raises(ValueError):
        Word("01", 4)
    Word("012", 3)  # fine


def test_integer_letters_outside_the_alphabet_are_rejected():
    # [10, 1] used to be joined as decimal strings into "101"
    for letters, size in (([10, 1], 2), ([0, 2], 2), ([-1], 2), ([3], 3), (["0"], 2)):
        with pytest.raises(ValueError, match="out of range"):
            Word(letters, size)
    assert Word(np.array([2, 0, 1]), 3) == Word("201", 3)
    assert Word([True, False]) == Word("10")


def test_the_error_names_the_first_bad_letter():
    for text, bad in (("01x2", "'x'"), ("0/1", "'/'"), ("0120", "'2'"), ("01é", "'é'")):
        with pytest.raises(ValueError, match=bad):
            Word(text, 2)


def test_equality_includes_alphabet():
    assert Word("01", 2) != Word("01", 3)
    assert hash(Word("01", 2)) != hash(Word("01", 3))


def test_array_is_cached_and_readonly():
    w = Word("0110")
    a = w.array()
    assert a.dtype == np.uint8
    assert list(a) == [0, 1, 1, 0]
    assert a is w.array()
    with pytest.raises(ValueError):
        a[0] = 1


def test_concatenation():
    assert Word("01", 2) + Word("10", 2) == Word("0110", 2)
    assert (Word("01", 2) + Word("2", 3)).alphabet_size == 3


def test_complement():
    assert complement(Word("0101", 2)) == Word("1010", 2)
    assert complement_text("001") == "110"
    with pytest.raises(ValueError):
        complement(Word("012", 3))


@given(binary_text)
def test_complement_involution(t):
    assert complement_text(complement_text(t)) == t


def test_factor_texts():
    assert factor_texts("0101", 1) | factor_texts("0101", 2) == {"0", "1", "01", "10"}
    assert factor_texts("0101", 3) == {"010", "101"}


@given(binary_text.filter(lambda t: len(t) >= 2))
def test_factor_texts_count(t):
    facs = factor_texts(t, 2)
    assert facs == {t[i : i + 2] for i in range(len(t) - 1)}
