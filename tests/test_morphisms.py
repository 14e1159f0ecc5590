import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from antisquares.antisquares import inventory
from antisquares.morphisms import (
    _check_images,
    _level_matrices,
    _level_tables,
    _squarefree_word_array,
    _window_images,
    UNIFORM_LENGTHS,
    VERIFICATION_PARAMS,
    Morphism,
    RegistryError,
    apply,
    complement_factor_bound,
    fixed_point_prefix,
    image_check_length,
    image_power_check,
    is_synchronizing,
    load_registry,
    morphic_antisquare_inventory,
    verify_construction,
)
from antisquares.repetitions import PowerBound, critical_exponent, satisfies
from antisquares.words import Word, complement_text, factor_texts
from search_reference import squarefree_ternary_words


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_morphism_basics():
    m = Morphism(("01", "11"))
    assert m.domain_alphabet == 2
    assert m.uniform_length == 2
    assert m.apply_text("010") == "011101"
    assert apply(m, Word("01")).text == "0111"
    assert Morphism(("0", "01")).uniform_length is None
    with pytest.raises(ValueError):
        Morphism(("0", ""))


def test_apply_domain_check():
    m = Morphism(("01", "11"))
    with pytest.raises(ValueError):
        apply(m, Word("012", 3))
    # '/' is the byte below '0': it used to map to the last image
    for text, bad in (("/", "'/'"), ("0102", "'2'"), ("01a", "'a'")):
        with pytest.raises(ValueError, match=f"letter {bad} outside morphism domain"):
            m.apply_text(text)
    assert m.apply_text("") == ""


def test_apply_text_matches_the_letter_by_letter_join(registry):
    # the image table pads images of different lengths; uniform ones fill it
    rng = random.Random(17)
    for name, entry in registry.items():
        m = entry.morphism
        letters = "012"[: m.domain_alphabet]
        for n in (0, 1, 2, 7, rng.randrange(10**4), 10**4):
            text = "".join(rng.choice(letters) for _ in range(n))
            assert m.apply_text(text) == "".join(m.images[int(a)] for a in text), (name, n)


def test_fixed_point_prefix():
    phi = Morphism(("001", "01"))
    w = fixed_point_prefix(phi, 0, 20)
    assert w.text.startswith("001")
    # the prefix is a genuine fixed-point prefix: applying the morphism
    # reproduces it
    assert phi.apply_text(w.text).startswith(w.text[:20])
    with pytest.raises(ValueError):
        fixed_point_prefix(Morphism(("10", "01")), 0, 5)
    for seed in (2, 5, -1):  # outside the domain; 5 used to raise IndexError
        with pytest.raises(ValueError, match="outside morphism domain"):
            fixed_point_prefix(phi, seed, 5)


def test_fixed_point_prefix_stability():
    phi = Morphism(("001", "01"))
    a = fixed_point_prefix(phi, 0, 50).text
    b = fixed_point_prefix(phi, 0, 500).text
    assert b.startswith(a[:50])


def test_is_synchronizing():
    assert is_synchronizing(Morphism(("001", "011")))
    # 01 occurs at offset 1 inside 10.01, so the doubling morphism fails
    assert not is_synchronizing(Morphism(("01", "10")))
    assert not is_synchronizing(Morphism(("00", "00")))
    with pytest.raises(ValueError):
        is_synchronizing(Morphism(("0", "01")))


def _loop_is_synchronizing(m):
    """The definition letter by letter: every occurrence of an image in
    every two-image concatenation is at position 0 or q."""
    q = m.uniform_length
    for a in m.images:
        for b in m.images:
            for c in m.images:
                hay = b + c
                pos = hay.find(a)
                while pos != -1:
                    if pos not in (0, q):
                        return False
                    pos = hay.find(a, pos + 1)
    return True


def test_is_synchronizing_matches_the_loop(registry):
    # q = 1, where no occurrence can fall strictly inside, the nine
    # constructions, and seeded random uniform morphisms over two and three letters
    one_letter = [Morphism(images) for images in product("012", repeat=3)]
    constructions = [registry[name].morphism for name in VERIFICATION_PARAMS]
    rng = random.Random(27)
    randoms = []
    for _ in range(2000):
        q, letters = rng.randint(1, 8), rng.choice(("01", "012"))
        images = ("".join(rng.choice(letters) for _ in range(q)) for _ in range(rng.randint(2, 4)))
        randoms.append(Morphism(tuple(images)))
    for m in one_letter + constructions + randoms:
        assert is_synchronizing(m) == _loop_is_synchronizing(m), m.images
    assert all(map(is_synchronizing, one_letter + constructions))
    assert {is_synchronizing(m) for m in randoms} == {True, False}


def word_texts(words: np.ndarray) -> list[str]:
    return ["".join(map(str, row)) for row in words.tolist()]


def test_squarefree_ternary_counts():
    # classical counts of squarefree ternary words (OEIS A006156), lengths 1-24
    expected = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798, 1044, 1392, 1830, 2388,
                3180, 4146, 5418, 7032]
    assert [len(_squarefree_word_array(n)) for n in range(1, 25)] == expected


def is_squarefree(t: str) -> bool:
    return not any(t[i : i + p] == t[i + p : i + 2 * p] for p in range(1, len(t) // 2 + 1) for i in range(len(t) - 2 * p + 1))


def test_squarefree_ternary_words_match_brute():
    for n in range(1, 10):
        want = [t for t in map("".join, product("012", repeat=n)) if is_squarefree(t)]
        assert word_texts(_squarefree_word_array(n)) == want, n
        assert [u.text for u in squarefree_ternary_words(n)] == want, n


def test_squarefree_ternary_words_are_squarefree():
    words = _squarefree_word_array(6)
    assert not words.flags.writeable and _squarefree_word_array(6) is words  # kept once per process
    for t in word_texts(words):
        for p in range(1, 4):
            for i in range(len(t) - 2 * p + 1):
                assert t[i : i + p] != t[i + p : i + 2 * p]


def test_registry_loads_and_checksums(registry):
    assert set(registry) >= set(VERIFICATION_PARAMS)
    for name in ("phi", "g", "gprime", "fib", "fib2", "mu", "vtm", "h154"):
        assert name in registry
    assert registry["phi"].morphism.images == ("001", "01")
    assert registry["g"].morphism.images == ("01", "11")
    assert registry["gprime"].morphism.images == ("01", "00")
    assert registry["h154"].morphism.images == (
        "010001",
        "0100010001",
        "01000100010001",
    )


def test_registry_uniform_lengths(registry):
    for name, expected in UNIFORM_LENGTHS.items():
        assert registry[name].morphism.uniform_length == expected, name


def test_registry_checksum_tamper_detection(tmp_path, monkeypatch):
    import antisquares.morphisms as mm

    good = (
        "bad:\n0 -> 01\n1 -> 10\n"
        "# source: test\n"
        "# sha256: 0000000000000000000000000000000000000000000000000000000000000000\n"
    )

    class FakeTraversable:
        def joinpath(self, _):
            return self

        def read_text(self):
            return good

    monkeypatch.setattr(mm.resources, "files", lambda _: FakeTraversable())
    with pytest.raises(RegistryError):
        mm.load_registry()


def test_image_power_check_positive(registry):
    m = registry["zeta3"].morphism
    assert image_power_check(m, PowerBound.parse("3+"), 4)


def test_image_power_check_negative():
    # images of a constant morphism are full of squares
    bad = Morphism(("000", "000", "000"))
    assert not image_power_check(bad, PowerBound.parse("2"), 2)


def _reference_image_power_check(m, bound, t):
    """The per-word definition: every image scanned from scratch."""
    return all(satisfies(apply(m, u), bound)[0] for u in squarefree_ternary_words(t))


# Thue-Morse prefix: images cut from it are overlap-free, so they make cases
# where the answer is True
THUE_MORSE = "".join(str(bin(i).count("1") % 2) for i in range(256))
IMAGE_BOUNDS = ["2", "2+", "7/3", "7/3+", "5/2", "5/2+", "8/3", "3", "3+", "10/3+", "7/2", "4", "4+", "9/2+", "5", "5+"]


def test_image_power_check_matches_reference_on_random_morphisms():
    rng = random.Random(2006)
    true_cases = 0
    for _ in range(320):
        q = rng.randint(1, 40)
        lengths = [q] * 3 if rng.random() < 0.5 else [rng.randint(1, q) for _ in range(3)]
        if rng.random() < 0.5:
            images = ["".join(rng.choice("01") for _ in range(n)) for n in lengths]
        else:
            starts = [rng.randrange(256 - n) for n in lengths]
            images = [THUE_MORSE[i : i + n] for i, n in zip(starts, lengths)]
        m = Morphism(tuple(images))
        bound = PowerBound.parse(rng.choice(IMAGE_BOUNDS))
        t = rng.randint(0, 9)
        expected = _reference_image_power_check(m, bound, t)
        assert image_power_check(m, bound, t) == expected, (m.images, str(bound), t)
        true_cases += expected and t >= 2
    assert true_cases >= 40


def test_image_power_check_matches_reference_on_registry(registry):
    for name, entry in registry.items():
        if entry.morphism.domain_alphabet != 3:
            continue
        for text in ("2", "2+", "7/3", "5/2"):
            bound = PowerBound.parse(text)
            for t in (1, 4, 7):
                expected = _reference_image_power_check(entry.morphism, bound, t)
                assert image_power_check(entry.morphism, bound, t) == expected, (name, text, t)


def test_image_power_check_matches_reference_on_short_images():
    # every morphism whose images have one or two letters, and two where a
    # one-letter image follows a longer first-letter image, whose runs the
    # walk must clear (all their images at t = 2 are cube-free)
    short = ["0", "1", "00", "01", "10", "11"]
    true_cases = 0
    for images in [*product(short, repeat=3), ("01", "011", "0"), ("011", "0", "01")]:
        m = Morphism(images)
        for text in ("2+", "5/2", "3", "3+"):
            bound = PowerBound.parse(text)
            for t in (1, 2, 5):
                expected = _reference_image_power_check(m, bound, t)
                assert image_power_check(m, bound, t) == expected, (images, text, t)
                true_cases += expected and t >= 2
    assert true_cases >= 20


def test_image_power_check_non_uniform_h154(registry):
    m = registry["h154"].morphism
    for text in ("15/4", "15/4+"):
        bound = PowerBound.parse(text)
        for t in range(10):
            assert image_power_check(m, bound, t) == _reference_image_power_check(m, bound, t)
    assert image_power_check(m, PowerBound.parse("15/4+"), 9)
    assert not image_power_check(m, PowerBound.parse("15/4"), 9)


def test_image_power_check_skips_dead_end_prefixes():
    # h(2021202) = 11011011011 is an 11/3-power; 2021202 extends to no
    # squarefree word of length 8, whose images reach only 10/3
    m = Morphism(("0", "0", "11"))
    bound = PowerBound.parse("10/3+")
    assert not image_power_check(m, bound, 7)
    assert image_power_check(m, bound, 8)
    assert _reference_image_power_check(m, bound, 8)


def test_image_walk_with_three_block_lengths_in_one_level():
    # every level past the first has nodes ending in each letter, so each
    # takes all three block lengths, and nodes of one new letter have
    # images of different lengths before it
    assert all({u.text[d] for u in squarefree_ternary_words(6)} == set("012") for d in range(6))
    answers = []
    for images in (("0", "01", "011"), ("011", "0", "01"), ("1", "010", "00110")):
        m = Morphism(images)
        for text in IMAGE_BOUNDS:
            bound = PowerBound.parse(text)
            for t in (2, 4, 6):
                expected = _reference_image_power_check(m, bound, t)
                assert image_power_check(m, bound, t) == expected, (images, text, t)
                answers.append(expected)
    assert 10 <= sum(answers) <= len(answers) - 10


def test_image_walk_finds_a_violation_in_the_last_word_only():
    # 212 is the last squarefree ternary word of length 3, and its sibling
    # 210 shares the node 21, so the violation shows only at the last node
    # of the deepest level: h(212) = 101111101 holds 1^5, and
    # 010·1·010 is a 7/2-power, while no other image reaches either
    words = [u.text for u in squarefree_ternary_words(3)]
    assert words[-2:] == ["210", "212"]
    for images, text in ((("000", "111", "101"), "5"), (("0", "1", "010"), "3+")):
        m, bound = Morphism(images), PowerBound.parse(text)
        assert [u for u in words if not satisfies(apply(m, Word(u, 3)), bound)[0]] == ["212"]
        assert not _reference_image_power_check(m, bound, 3)
        assert not image_power_check(m, bound, 3)
        assert image_power_check(m, bound, 2)
    assert not _matrix_image_power_check(Morphism(("000", "111", "101")), PowerBound.parse("5"), 3)


def test_image_power_check_edge_lengths(registry):
    m = registry["zeta3"].morphism
    assert image_power_check(m, PowerBound.parse("2"), 0)
    with pytest.raises(ValueError):
        image_power_check(m, PowerBound.parse("2"), -1)
    with pytest.raises(ValueError):
        image_power_check(Morphism(("01", "10")), PowerBound.parse("2"), 3)


def _matrix_image_power_check(m, bound, t):
    """The general walk, which compares each block at every period; for a
    uniform morphism image_power_check reads the same numbers from tables."""
    return _check_images(m, bound, t, _level_matrices)


def _both_walks(m, bound, t):
    tables = image_power_check(m, bound, t)
    assert tables == _matrix_image_power_check(m, bound, t), (m.images, str(bound), t)
    return tables


def test_min_violating_runs_match_the_scalar_form():
    for text in [*IMAGE_BOUNDS, "1+", "38/15+", "17/7"]:
        bound = PowerBound.parse(text)
        for count in (5000, 40):
            scalar = [min(bound.min_violating_run(p), count) for p in range(1, count + 1)]
            assert bound.min_violating_runs(count).tolist() == scalar, (text, count)
    # num * p beyond int64 takes the scalar form
    huge = PowerBound(Fraction(10**17 + 1, 3))
    assert huge.min_violating_runs(200).tolist() == [min(huge.min_violating_run(p), 200) for p in range(1, 201)]
    assert PowerBound.parse("2").min_violating_runs(0).size == 0


def test_image_tables_match_matrices_on_random_uniform_morphisms():
    # bounds at the critical exponent E of the images, where the answer
    # flips: E-free is broken by the image that reaches E, E+-free holds
    rng = random.Random(16)
    for case in range(60):
        q = rng.randint(1, 200) if case % 3 else rng.randint(1, 12)
        t = rng.randint(1, min(10, 2 + 400 // q))
        if rng.random() < 0.5:
            images = ["".join(rng.choice("01") for _ in range(q)) for _ in range(3)]
        else:
            images = [THUE_MORSE[i : i + q] for i in (rng.randrange(256 - q) for _ in range(3))]
        m = Morphism(tuple(images))
        top = max(critical_exponent(Word(m.apply_text(u.text)))[0] for u in squarefree_ternary_words(t))
        assert _both_walks(m, PowerBound(top, forbid_equal=False), t)
        if top > 1:
            assert not _both_walks(m, PowerBound(top), t)
        bound = PowerBound.parse(rng.choice(IMAGE_BOUNDS))
        _both_walks(m, bound, t)


def test_image_tables_match_matrices_on_the_constructions(registry):
    # the published bound, and the same threshold with its equality case
    # flipped (17/7 for 17/7+), at the t derived from the published bound
    for name, params in VERIFICATION_PARAMS.items():
        m = registry[name].morphism
        published = PowerBound.parse(params["bound"])
        t = image_check_length(published, m.uniform_length)
        assert _both_walks(m, published, t), name
        _both_walks(m, PowerBound(published.threshold, not published.forbid_equal), t)


# the image-check lengths t published with the constructions (Tables 2 and 5)
PUBLISHED_T = {
    "xi3": 8, "xi5": 10, "xi6": 14, "zeta3": 6, "zeta6": 8, "zeta9": 9, "zeta10": 10, "zeta15": 11, "zeta16": 14,
}


def test_image_check_length_gives_the_published_t(registry):
    derived = {
        name: image_check_length(PowerBound.parse(params["bound"]), registry[name].morphism.uniform_length)
        for name, params in VERIFICATION_PARAMS.items()
    }
    assert derived == PUBLISHED_T
    # at b = 5 the q-term wins for long images: 2b/(b - 2) = 10/3, and
    # 2(q - 1)(2b - 1)/(q(b - 1)) = 35/8 at q = 36 but 0 at q = 1
    assert image_check_length(PowerBound.parse("5+"), 36) == 4
    assert image_check_length(PowerBound.parse("5+"), 1) == 3
    for text in ("2", "2+", "3/2+", "1+"):
        with pytest.raises(ValueError, match="above 2"):
            image_check_length(PowerBound.parse(text), 36)


def test_level_tables_give_the_numbers_of_the_level_matrices():
    # level by level, at every period of the longest image; below 2 a run
    # inside a block can break the bound at periods past the first block,
    # which the walk's answers alone rarely show
    rng = random.Random(18)
    below_two = 0
    for case in range(60):
        q, t = rng.randint(1, 30), rng.randint(1, 6)
        alphabet = rng.choice(["01", "012"])
        m = Morphism(tuple("".join(rng.choice(alphabet) for _ in range(q)) for _ in range(3)), 3)
        bound = PowerBound.parse(rng.choice(["5/4", "3/2+", "7/4", "2", "5/2+", "3"]))
        size = t * q
        reach = max(size - 1, 1)
        min_run = bound.min_violating_runs(size)[:reach].astype(np.int16)
        words = _squarefree_word_array(t)
        tables, matrices = (steps(m, words, reach, min_run) for steps in (_level_tables, _level_matrices))
        rows = np.arange(len(words))
        for depth in range(t):
            q_tables, *got = tables(depth, rows)
            q_matrices, *want = matrices(depth, rows)
            assert q_tables == q and (q_matrices == q).all()
            for name, g, w in zip(("lead", "trail"), got, want):
                assert np.array_equal(g, w), (m.images, str(bound), t, depth, name)
            cut = int(np.searchsorted(min_run[: got[0].shape[1]], q))
            assert got[2].shape[1] >= cut and want[2].shape[1] >= cut
            assert np.array_equal(got[2][:, :cut], want[2][:, :cut]), (m.images, str(bound), t, depth)
            below_two += cut > q
    assert below_two >= 20


def test_image_tables_at_the_image_start_and_one_letter_blocks():
    # the only cube in the images of the squarefree words of length 2 is 111
    # at the start of h(21) = 1110: its run begins next to the sentinel
    # before the image, at depth 0, and ends in the second block
    m = Morphism(("20", "10", "11"), target_alphabet=3)
    assert _both_walks(m, PowerBound.parse("3+"), 2)
    assert not _both_walks(m, PowerBound.parse("3"), 2)
    # one-letter blocks: the identity's images are the squarefree words; no
    # factor of one of 7 letters goes above 7/4, and 0102010 reaches it
    identity = Morphism(("0", "1", "2"), target_alphabet=3)
    assert _both_walks(identity, PowerBound.parse("2"), 9)
    assert _both_walks(identity, PowerBound.parse("7/4+"), 7)
    assert not _both_walks(identity, PowerBound.parse("7/4"), 7)
    # every uniform morphism with blocks of one or two letters
    for q in (1, 2):
        for images in product(["".join(bits) for bits in product("01", repeat=q)], repeat=3):
            for text in ("2", "2+", "3", "3+"):
                for t in (1, 2, 4):
                    _both_walks(Morphism(images), PowerBound.parse(text), t)


def test_complement_factor_bound_small(registry):
    assert complement_factor_bound(registry["zeta3"].morphism) == 4


def _brute_complement_factor_bound(m, max_word=9):
    """The bound from every squarefree u with ceil(L/q)+1 <= |u| <= max_word,
    q the length of the shortest image, without the window lemma; None if
    pairs outlast words of max_word."""
    q = min(map(len, m.images))
    words = {n: [u.text for u in squarefree_ternary_words(n)] for n in range(2, max_word + 1)}
    length = 1
    while -(-length // q) + 1 <= max_word:
        facs = set()
        for n in range(-(-length // q) + 1, max_word + 1):
            for u in words[n]:
                facs |= factor_texts(m.apply_text(u), length)
        if not any(complement_text(v) in facs for v in facs):
            return length - 1
        length += 1
    return None


def test_complement_factor_bound_matches_brute_force():
    rng = random.Random(2022)
    compared = 0
    while compared < 40:
        q = rng.randint(2, 6)
        m = Morphism(tuple("".join(rng.choice("01") for _ in range(q)) for _ in range(3)))
        expected = _brute_complement_factor_bound(m)
        if expected is None:
            continue
        assert complement_factor_bound(m) == expected, m.images
        compared += 1
    # images of 1 to 5 letters, not all of one length
    rng = random.Random(27)
    compared = 0
    while compared < 20:
        m = Morphism(tuple("".join(rng.choice("01") for _ in range(rng.randint(1, 5))) for _ in range(3)))
        if m.uniform_length is not None:
            continue
        expected = _brute_complement_factor_bound(m)
        if expected is None:
            continue
        assert complement_factor_bound(m) == expected, m.images
        compared += 1


def test_complement_factor_bound_counts_only_long_enough_words():
    # the whole image 1010101 of the squarefree 1012101, which extends to no
    # longer squarefree word, and that of 0121012 form a pair at L = 7; the
    # window of 8 letters that L = 7 needs has none
    assert complement_factor_bound(Morphism(("0", "1", "0"))) == 6


def test_complement_factor_bound_errors(registry):
    with pytest.raises(ValueError, match="persist"):
        complement_factor_bound(Morphism(("01", "01", "01")))
    with pytest.raises(ValueError, match="ternary"):
        complement_factor_bound(Morphism(("01", "10")))
    # images of different lengths take the window from the shortest
    assert complement_factor_bound(registry["h154"].morphism) == 4


def test_complement_factor_bound_caps_antisquare_orders(registry):
    m = registry["xi3"].morphism
    cb = complement_factor_bound(m)
    inv = morphic_antisquare_inventory(m, 2 * cb)
    assert inv.max_order <= cb


def test_window_images_match_the_per_word_images(registry):
    # each window of w letters serves the lengths (w - 2)s + 1 .. (w - 1)s,
    # s the length of the shortest image, uniform or not
    checked = set()
    for name, entry in registry.items():
        m = entry.morphism
        if m.domain_alphabet != 3:
            with pytest.raises(ValueError, match="ternary"):
                _window_images(m, 8)
            continue
        s = min(map(len, m.images))
        for window in (2, 3, 4):
            want = [m.apply_text(u.text) for u in squarefree_ternary_words(window)]
            for length in ((window - 2) * s + 1, (window - 1) * s):
                assert _window_images(m, length) == want, (name, window, length)
        checked.add(name)
    assert checked >= set(VERIFICATION_PARAMS) | {"vtm", "h154"}
    # the target is checked before any image is built: this one has a
    # binary domain too, which _window_images would reject
    with pytest.raises(ValueError, match="binary"):
        morphic_antisquare_inventory(Morphism(("2", "1"), target_alphabet=3), 8)


def _per_image_inventory(m, window):
    """The antisquares of length <= window of the window images, one
    inventory per image."""
    found = set()
    for u in squarefree_ternary_words(-(-window // min(map(len, m.images))) + 1):
        found |= {a.text for a in inventory(apply(m, u)).distinct if len(a) <= window}
    return found


# (count, max order) of each construction's inventory at window 2m
INVENTORIES = {
    "xi3": (6, 2), "xi5": (14, 4), "xi6": (23, 5), "zeta3": (3, 2), "zeta6": (6, 2), "zeta9": (9, 4),
    "zeta10": (10, 8), "zeta15": (15, 5), "zeta16": (16, 8),
}


def test_morphic_inventory_is_the_union_of_per_image_inventories(registry):
    for name, params in VERIFICATION_PARAMS.items():
        m = registry[name].morphism
        inv = morphic_antisquare_inventory(m, 2 * params["m"])
        assert {a.text for a in inv.distinct} == _per_image_inventory(m, 2 * params["m"]), name
        assert (inv.count, inv.max_order) == INVENTORIES[name], name
    rng = random.Random(21)
    for _ in range(60):
        q = rng.randint(1, 12)
        m = Morphism(tuple("".join(rng.choice("01") for _ in range(q)) for _ in range(3)))
        window = rng.randint(1, 4 * q)
        got = {a.text for a in morphic_antisquare_inventory(m, window).distinct}
        assert got == _per_image_inventory(m, window), (m.images, window)
    # h154 is not uniform: its window comes from its shortest image, 010001,
    # and 8 is twice its complement bound
    h = registry["h154"].morphism
    assert {a.text for a in morphic_antisquare_inventory(h, 8).distinct} == {"01", "10"} == _per_image_inventory(h, 8)


def test_verify_construction_fast_entries(registry):
    for name in ("xi3", "zeta3", "zeta6"):
        params = VERIFICATION_PARAMS[name]
        report = verify_construction(name, registry)
        assert report.t_used == PUBLISHED_T[name]
        assert report.synchronizing
        assert report.image_bound_ok
        assert report.complement_bound == params["m"]
        if params["kind"] == "order":
            assert report.inventory.max_order < params["cap"]
        else:
            assert report.inventory.count <= params["cap"]
        assert report.passed
