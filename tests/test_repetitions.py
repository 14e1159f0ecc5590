import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import repetitions_reference as reference
from antisquares import fibanalysis, morphisms
from search_reference import squarefree_ternary_words
from antisquares.repetitions import (
    _BLOCK,
    _JUMP_MIN,
    PowerBound,
    Repetition,
    _common_prefixes,
    _extend_right,
    _lcp_array,
    _lyndon_roots,
    _rank_windows,
    _runs,
    _suffix_ranks,
    _unpack,
    critical_exponent,
    exponent,
    maximal_repetitions,
    satisfies,
    smallest_period,
)
from antisquares.words import Word

binary_word = st.text(alphabet="01", min_size=1, max_size=30).map(Word)

EXPONENTS = (Fraction(2), Fraction(5, 2), Fraction(3))


def binary_words():
    for n in range(1, 12):
        for bits in product("01", repeat=n):
            yield Word("".join(bits))


def ternary_words() -> list[Word]:
    rng = random.Random(20221)
    return [Word("".join(rng.choice("012") for _ in range(rng.randint(1, 60))), 3) for _ in range(200)]


def long_words() -> list[Word]:
    return [fibanalysis.word_w_prefix(10**4), fibanalysis.fibonacci_word_prefix(10**4)]


def squarefree_ternary(length: int) -> Word:
    """A squarefree ternary word: the one at index `length` among those of
    that length, in lexicographic order."""
    return next(islice(squarefree_ternary_words(length), length, None))


def h_images() -> list[Word]:
    """The 20 h154-images of squarefree ternary words of lengths 5, 7, ..., 43."""
    h = morphisms.load_registry()["h154"].morphism
    return [morphisms.apply(h, squarefree_ternary(length)) for length in range(5, 45, 2)]


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
    for w in binary_words():
        t = w.text
        got, witness = critical_exponent(w)
        assert got == brute_critical_exponent(t), t
        factor = t[witness.start : witness.start + witness.length]
        assert smallest_period(Word(factor)) == witness.period
        assert Fraction(witness.length, witness.period) == got
        # the same witness as the per-period scan: smallest period, then start
        assert (got, witness) == reference.critical_exponent(w), t


def test_critical_exponent_witness_matches_reference():
    squarefree = list(squarefree_ternary_words(8)) + [squarefree_ternary(n) for n in (20, 40, 60)]
    words = ternary_words() + long_words() + squarefree + h_images()
    for w in words:
        assert critical_exponent(w) == reference.critical_exponent(w), w.text[:60]
    # squarefree words have no run: the fallback scan answers, below exponent 2
    for w in squarefree:
        assert critical_exponent(w)[0] < 2


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


def test_strict_bound_of_one_is_rejected():
    # every letter has exponent 1, so the bound would leave the empty word
    # alone, where the search used to return words of length 2
    with pytest.raises(ValueError, match="threshold"):
        PowerBound.parse("1")
    assert PowerBound.parse("1+").threshold == 1


def test_zero_denominator_is_a_value_error():
    # Fraction("1/0") raises ZeroDivisionError, which a caller catching the
    # ValueError of every other malformed bound would miss
    for spec in ("1/0", "1/0+"):
        with pytest.raises(ValueError, match="denominator"):
            PowerBound.parse(spec)


def test_bound_below_one_is_rejected():
    # satisfies(Word("0"), PowerBound.parse("0")) used to be True
    for spec in ("0", "1/2", "1/2+", "0+"):
        with pytest.raises(ValueError, match="threshold"):
            PowerBound.parse(spec)


@given(st.integers(1, 60), st.fractions(min_value=1, max_value=5), st.booleans())
def test_min_violating_run_is_tight(p, beta, forbid_equal):
    assume(not (forbid_equal and beta == 1))  # rejected, see test_strict_bound_of_one_is_rejected
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


def test_maximal_repetitions_match_reference_binary():
    for w in binary_words():
        for e in EXPONENTS:
            assert maximal_repetitions(w, e) == reference.maximal_repetitions(w, e), (w.text, e)


def test_maximal_repetitions_match_reference_ternary_and_long():
    for w in ternary_words() + long_words():
        for e in EXPONENTS:
            assert maximal_repetitions(w, e) == reference.maximal_repetitions(w, e), (w.text[:60], e)


def left_extension_words() -> list[Word]:
    """Words whose runs reach far to the left of their leftmost Lyndon root:
    300 squares uu and 30 cubes of random binary blocks of 50-500 letters,
    the staircases 0^1·1·0^2·1 ... 0^k·1, and Fibonacci prefixes."""
    rng = random.Random(61)
    blocks = ["".join(rng.choice("01") for _ in range(rng.randint(50, 500))) for _ in range(300)]
    texts = [u * 2 for u in blocks] + [u * 3 for u in blocks[:30]]
    texts += ["".join("0" * i + "1" for i in range(1, k + 1)) for k in (5, 20, 60)]
    texts += [fibanalysis.fibonacci_word_prefix(n).text for n in (100, 987, 2000)]
    return [Word(t) for t in texts]


def test_long_left_extensions_match_reference():
    for w in left_extension_words():
        runs = reference.maximal_repetitions(w, Fraction(2))
        assert maximal_repetitions(w, Fraction(2)) == runs, w.text[:60]
        # every word here has a square, so the critical exponent is that of
        # a run: the largest, of the smallest period, then the earliest start
        witness = min(runs, key=lambda r: (-r.exponent, r.period, r.start))
        assert critical_exponent(w) == (witness.exponent, witness), w.text[:60]


def test_maximal_repetitions_edge_cases():
    with pytest.raises(ValueError):
        maximal_repetitions(Word("0101"), Fraction(3, 2))
    assert maximal_repetitions(Word(""), Fraction(2)) == []


def test_words_beyond_the_suffix_sorting_cap_are_an_error():
    w = Word("0" * (2**21 - 1))
    with pytest.raises(ValueError):
        critical_exponent(w)
    with pytest.raises(ValueError):
        maximal_repetitions(w, Fraction(2))


def common_prefix(text: bytes, i: int, j: int) -> int:
    lo, hi = 0, len(text) - max(i, j)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text[i : i + mid] == text[j : j + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def runs_peak_per_letter(w: Word) -> float:
    """The tracemalloc peak of _runs on w, in bytes a letter."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _runs(w)
        return (tracemalloc.get_traced_memory()[1] - before) / len(w)
    finally:
        tracemalloc.stop()


def test_runs_peak_memory_per_letter():
    # the candidates are one int64 key each and every pass over a whole
    # array goes a block at a time; on 20,000 letters the blocks weigh more
    rng = random.Random(26)
    random_word = Word("".join(rng.choice("01") for _ in range(20000)))
    assert runs_peak_per_letter(fibanalysis.word_w_prefix(10**5)) <= 25
    assert runs_peak_per_letter(random_word) <= 30


def test_suffix_structures_span_several_blocks():
    # long shared factors take many doubling rounds; more than _BLOCK ranks
    # and queries take the block loops of _extend_right past their first block
    text = (fibanalysis.word_w_prefix(3 * _BLOCK).text + "$").encode("ascii")
    rank, sa = _suffix_ranks(text)
    assert (rank[sa] == np.arange(len(text))).all()
    lcp = _lcp_array(text, sa)
    for r in range(1, len(text), 97):
        assert text[sa[r - 1] :] < text[sa[r] :]
        assert lcp[r] == common_prefix(text, int(sa[r - 1]), int(sa[r]))
    rng = random.Random(5)
    pairs = [(rng.randrange(len(text)), rng.randrange(len(text))) for _ in range(2 * _BLOCK)]
    # one window long at every level, starting next to each block boundary
    for x in range(_BLOCK, len(text), _BLOCK):
        for r in x - 1, x, x + 1:
            pairs += [(sa[r - 1], sa[r - 1 + (1 << t)]) for t in range(16) if r - 1 + (1 << t) < len(text)]
    a, b = np.array([sorted(p) for p in pairs if p[0] != p[1]], dtype=np.int32).T
    # the minimum of lcp over the ranks in between, query by query
    ranks = zip(rank[a].tolist(), rank[b].tolist())
    expect = [int(lcp[min(r, s) + 1 : max(r, s) + 1].min()) for r, s in ranks]
    key = np.empty(len(a), dtype=np.int64)
    _rank_windows(rank, a, b, key)
    key.sort()
    n = len(text) - 1
    _extend_right(n, lcp.copy(), sa, key)
    period, reach, root = _unpack(n, key)  # the keys come sorted by span
    got = sorted(zip(root.tolist(), (root + period).tolist(), (reach - root - period).tolist()))
    assert got == sorted(zip(a.tolist(), b.tolist(), expect))


def suffix_texts() -> list[str]:
    """Texts for _suffix_ranks: every word over "012" of up to 8 letters,
    which one round sorts; 0^n, (01)^n, w, reversed w, the Fibonacci word
    and Thue-Morse, whose few distinct factors take many letters per key;
    random binary and ternary words, whose many groups take 2 or 3; and a
    random 60-letter block repeated, whose 76 groups after the first round
    take 7."""
    texts = ["".join(letters) for n in range(9) for letters in product("012", repeat=n)]
    thue_morse = "".join(str(bin(i).count("1") % 2) for i in range(3000))
    for n in (40, 300, 600, 1200, 3000):
        w = fibanalysis.word_w_prefix(n).text
        texts += ["0" * n, "01" * (n // 2), w, w[::-1], fibanalysis.fibonacci_word_prefix(n).text, thue_morse[:n]]
    rng = random.Random(18)
    for n in (300, 600, 1200, 5000, 40000):
        texts += ["".join(rng.choice(alphabet) for _ in range(n)) for alphabet in ("01", "012")]
    texts.append("".join(rng.choice("01") for _ in range(60)) * 20)
    return texts


def packing_rounds(n: int, lcp: list[int]) -> list[int]:
    """The ranks per key of each round of _suffix_ranks after the first on a
    text of n letters with these LCPs: a round that sorts the suffixes by
    h letters leaves 1 + #{lcp < h} groups, and the next packs j ranks of
    that many bits beside the position."""
    bits = n.bit_length()
    h, js = 16, []
    while (groups := 1 + sum(1 for x in lcp[1:] if x < h)) < n:
        js.append(max(2, (63 - bits) // groups.bit_length()))
        h *= js[-1]
    return js


def test_suffix_ranks_match_sorted_suffixes():
    seen = set()
    for t in suffix_texts():
        text = (t + "$").encode("ascii")
        rank, sa = _suffix_ranks(text)
        expect, lcp = reference.sorted_suffixes(text)
        assert rank.dtype == sa.dtype == np.int32, t[:20]
        assert sa.tolist() == expect, (t[:20], len(t))
        assert (rank[sa] == np.arange(len(text))).all(), (t[:20], len(t))
        seen.update(packing_rounds(len(text), lcp))
    # a round at each number of ranks per key from 2 to the largest reached
    assert seen == set(range(2, max(seen) + 1)), sorted(seen)
    assert max(seen) == 11


def lyndon_words() -> list[str]:
    """Words whose pointer chains are long or uneven: 0·1^k·0 needs k
    jumping rounds for its first position, 1^k retires nothing under the
    reversed order, and w, the Fibonacci word and random words retire in
    uneven rounds."""
    rng = random.Random(31)
    words = []
    for k in (1, 2, 255, 256, 257, 3000):
        words += ["0" + "1" * k + "0", "1" * k, "01" * k]
    for j, m in ((1, 300), (3, 200), (20, 50), (200, 10), (600, 4)):
        words.append(("0" + "1" * j) * m)
    for n in (300, 5000, 20000):
        words += [fibanalysis.word_w_prefix(n).text, fibanalysis.fibonacci_word_prefix(n).text]
        words += ["".join(rng.choice(alphabet) for _ in range(n)) for alphabet in ("01", "012")]
    return words


def test_lyndon_roots_match_the_loop():
    # under the alphabet order and the reversed one, as _runs takes them
    for text in lyndon_words():
        n = len(text)
        rank, _ = _suffix_ranks((text + "$").encode("ascii"))
        flipped = n - rank
        flipped[n] = -1
        for order in rank, flipped:
            got, expect = _lyndon_roots(order), reference.lyndon_roots(order)
            assert all(np.array_equal(g, e) and g.dtype == e.dtype for g, e in zip(got, expect)), (text[:20], n)


def test_repetition_exponent():
    assert Repetition(3, 4, 10).exponent == Fraction(10, 4)


def irreducible_count(text: bytes, sa: np.ndarray) -> int:
    """Positions i whose suffix and the one ranked just below it, j, do not
    both follow the same letter (i = 0 or j = 0 included)."""
    phi = {int(sa[r]): int(sa[r - 1]) for r in range(1, len(sa))}
    return sum(1 for i, j in phi.items() if i == 0 or j == 0 or text[i - 1] != text[j - 1])


def lcp_texts() -> list[str]:
    """Texts for _lcp_array: the Lyndon-root words and their reversals,
    one-letter and two-letter periodic words, and random binary prefixes
    with _JUMP_MIN - 1, _JUMP_MIN and _JUMP_MIN + 1 irreducible positions,
    which take the comparison rounds (from _JUMP_MIN) or go straight to the
    galloping compare."""
    texts = lyndon_words()
    texts += [t[::-1] for t in texts]
    for n in (1, 2, 9, 1000, 20000):
        texts += ["0" * n, "01" * n]
    rng = random.Random(41)
    base = "".join(rng.choice("01") for _ in range(2000))
    wanted = {_JUMP_MIN - 1, _JUMP_MIN, _JUMP_MIN + 1}
    lo, hi = 1, len(base)  # bisect on the prefix length for about _JUMP_MIN
    while lo < hi:
        mid = (lo + hi) // 2
        text = (base[:mid] + "$").encode("ascii")
        if irreducible_count(text, _suffix_ranks(text)[1]) < _JUMP_MIN:
            lo = mid + 1
        else:
            hi = mid
    for n in range(lo - 40, lo + 40):
        text = (base[:n] + "$").encode("ascii")
        count = irreducible_count(text, _suffix_ranks(text)[1])
        if count in wanted:
            wanted.discard(count)
            texts.append(base[:n])
    assert not wanted, wanted
    return texts


def test_lcp_array_matches_the_loop():
    texts = ["".join(bits) for n in range(1, 13) for bits in product("01", repeat=n)] + lcp_texts()
    for t in texts:
        text = (t + "$").encode("ascii")
        _, sa = _suffix_ranks(text)
        got, expect = _lcp_array(text, sa), reference.lcp_array(text, sa)
        assert got.dtype == expect.dtype and np.array_equal(got, expect), (t[:20], len(t))


def common_prefix_pairs() -> tuple[bytes, list[tuple[int, int]]]:
    """A text and pairs for _common_prefixes: a random block u of 300
    letters repeated 6 times inside random letters and 3 times at the end,
    so that pairs one or two periods apart share up to 1,500 letters, and
    those in the last repeats share all up to the '$'; pairs at the '$';
    pairs that share one first position; and random pairs, which share
    few letters."""
    rng = random.Random(53)

    def letters(k):
        return "".join(rng.choice("01") for _ in range(k))

    u = letters(300)
    t = letters(200) + u * 6 + letters(200) + u * 3
    text = (t + "$").encode("ascii")
    n = len(t)
    pairs = [(i, i + d * 300) for i in rng.sample(range(n - 600), 300) for d in (1, 2)]
    pairs += [(n, j) for j in rng.sample(range(n), 20)] + [(j, n) for j in rng.sample(range(n), 20)]
    first = 257  # inside the first repeats
    pairs += [(first, j) for j in rng.sample(range(n + 1), 100) if j != first]
    while len(pairs) < 2 * _BLOCK + 7:
        i, j = rng.sample(range(n + 1), 2)
        pairs.append((i, j))
    rng.shuffle(pairs)
    return text, pairs


def test_common_prefixes_match_common_prefix():
    # below, at and above _JUMP_MIN pairs take the galloping compare alone
    # or the 8-letter rounds first; more than _BLOCK pairs take the block
    # loop past its first block
    text, pairs = common_prefix_pairs()
    n = len(text) - 1
    expect = [common_prefix(text, i, j) for i, j in pairs]
    assert max(expect) > 1000 and sum(e > 8 for e in expect) > _JUMP_MIN
    assert any(max(i, j) + e == n for (i, j), e in zip(pairs, expect))  # up to the '$'
    for count in (1, _JUMP_MIN - 1, _JUMP_MIN, _JUMP_MIN + 1, len(pairs)):
        a, b = np.array(pairs[:count], dtype=np.int32).T
        got = _common_prefixes(text, a, b)
        assert got.dtype == np.int32 and got.tolist() == expect[:count], count
        assert a.tolist() == [i for i, _ in pairs[:count]]  # a is left alone
