import random
from itertools import product

import pytest

from antisquares.morphisms import (
    UNIFORM_LENGTHS,
    VERIFICATION_PARAMS,
    Morphism,
    RegistryError,
    apply,
    complement_factor_bound,
    fixed_point_prefix,
    image_power_check,
    is_synchronizing,
    load_registry,
    morphic_antisquare_inventory,
    squarefree_ternary_words,
    verify_construction,
)
from antisquares.repetitions import PowerBound, satisfies
from antisquares.words import Word, complement_text, factor_texts


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


def test_fixed_point_prefix():
    phi = Morphism(("001", "01"))
    w = fixed_point_prefix(phi, 0, 20)
    assert w.text.startswith("001")
    # the prefix is a genuine fixed-point prefix: applying the morphism
    # reproduces it
    assert phi.apply_text(w.text).startswith(w.text[:20])
    with pytest.raises(ValueError):
        fixed_point_prefix(Morphism(("10", "01")), 0, 5)


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


def test_squarefree_ternary_counts():
    # classical counts of squarefree ternary words (OEIS A006156)
    expected = [1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798, 1044, 1392, 1830, 2388,
                3180, 4146, 5418, 7032]
    assert [sum(1 for _ in squarefree_ternary_words(n)) for n in range(25)] == expected


def is_squarefree(t: str) -> bool:
    return not any(t[i : i + p] == t[i + p : i + 2 * p] for p in range(1, len(t) // 2 + 1) for i in range(len(t) - 2 * p + 1))


def test_squarefree_ternary_words_match_brute():
    for n in range(10):
        want = [t for t in map("".join, product("012", repeat=n)) if is_squarefree(t)]
        assert [u.text for u in squarefree_ternary_words(n)] == want, n


def test_squarefree_ternary_words_are_squarefree():
    for w in squarefree_ternary_words(6):
        t = w.text
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


def test_image_power_check_edge_lengths(registry):
    m = registry["zeta3"].morphism
    assert image_power_check(m, PowerBound.parse("2"), 0)
    with pytest.raises(ValueError):
        image_power_check(m, PowerBound.parse("2"), -1)
    with pytest.raises(ValueError):
        image_power_check(Morphism(("01", "10")), PowerBound.parse("2"), 3)


def test_complement_factor_bound_small(registry):
    assert complement_factor_bound(registry["zeta3"].morphism) == 4


def _brute_complement_factor_bound(m, max_word=9):
    """The bound from every squarefree u with ceil(L/q)+1 <= |u| <= max_word,
    without the window lemma; None if pairs outlast words of max_word."""
    q = m.uniform_length
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


def test_complement_factor_bound_counts_only_long_enough_words():
    # the whole image 1010101 of the squarefree 1012101, which extends to no
    # longer squarefree word, and that of 0121012 form a pair at L = 7; the
    # window of 8 letters that L = 7 needs has none
    assert complement_factor_bound(Morphism(("0", "1", "0"))) == 6


def test_complement_factor_bound_errors(registry):
    with pytest.raises(ValueError, match="persist"):
        complement_factor_bound(Morphism(("01", "01", "01")))
    with pytest.raises(ValueError):
        complement_factor_bound(registry["h154"].morphism)


def test_complement_factor_bound_caps_antisquare_orders(registry):
    m = registry["xi3"].morphism
    cb = complement_factor_bound(m)
    inv = morphic_antisquare_inventory(m, 2 * cb)
    assert inv.max_order <= cb


def test_verify_construction_fast_entries(registry):
    for name in ("xi3", "zeta3", "zeta6"):
        params = VERIFICATION_PARAMS[name]
        report = verify_construction(name, registry)
        assert report.synchronizing
        assert report.image_bound_ok
        assert report.complement_bound == params["m"]
        if params["kind"] == "order":
            assert report.inventory.max_order < params["cap"]
        else:
            assert report.inventory.count <= params["cap"]
        assert report.passed
