"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see them)
and asserts the same condition, so the suite doubles as a human-readable
verification report.
"""

import random
from fractions import Fraction

import pytest

from antisquares import fibanalysis as fa
from antisquares import morphisms
from antisquares.antisquares import characterized_minimal, inventory, minimal_antisquares
from antisquares.enumeration import (
    GOOD_WORD_FORBIDDEN,
    PANSIOT_CODE_FORBIDDEN,
    build_avoidance_automaton,
    expand_polynomial_identity,
    growth_rate,
    pansiot_block_counts,
    supergolden,
    verify_pansiot_recurrence,
)
from antisquares.repetitions import PowerBound
from antisquares.search import ConstraintSet, count_by_length, extendable_cores, longest_word
from antisquares.words import Word, complement_text, factor_texts
from search_reference import _DFS


def report(label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} {label}{tail}")
    assert ok, f"{label}{tail}"


def test_01_minimal_antisquares_closed_form():
    table = minimal_antisquares(12)
    sizes = [len(table.by_order[n]) for n in range(1, 13)]
    match = all(table.by_order[n] == characterized_minimal(n) for n in range(1, 13))
    expected = [2, 4, 2, 0, 10, 12, 14, 16, 18, 20, 22, 24]
    report(
        "minimal antisquares orders 1-12: brute force equals closed form",
        match and sizes == expected,
        f"sizes {sizes}",
    )


TABLE_ORDER_ROWS = [(4, "8/3", 29), (5, "5/2", 32), (6, "7/3", 30)]


def test_02_longest_words_order_capped():
    got = []
    ok = True
    for cap, beta, expected in TABLE_ORDER_ROWS:
        c = ConstraintSet(power=PowerBound.parse(beta), max_antisquare_order=cap)
        out = longest_word(c, max_depth=256)
        got.append(out.max_length)
        ok = ok and out.exhausted and out.max_length == expected
    report(
        "longest order-capped words: lengths 29/32/30, trees exhausted",
        ok,
        f"got {got}",
    )


TABLE_COUNT_ROWS = [(5, "3", 17), (8, "8/3", 52), (14, "5/2", 92), (15, "17/7", 156), (16, "7/3", 38)]


def test_03a_longest_words_count_capped():
    got = []
    ok = True
    for cap, beta, expected in TABLE_COUNT_ROWS:
        c = ConstraintSet(power=PowerBound.parse(beta), max_distinct_antisquares=cap)
        out = longest_word(c, max_depth=256)
        got.append(out.max_length)
        ok = ok and out.exhausted and out.max_length == expected
    report(
        "longest count-capped words: lengths 17/52/92/156/38, trees exhausted",
        ok,
        f"got {got}",
    )


def test_03b_count_cap_9_witness():
    c = ConstraintSet(power=PowerBound.parse("38/15"), max_distinct_antisquares=9)
    out = longest_word(c, max_depth=512, target=407)
    report(
        "count cap 9: witness of length 407 found",
        out.exhausted and out.max_length >= 407,
        f"length {out.max_length}, nodes {out.nodes_explored}",
    )


@pytest.mark.slow
def test_03c_count_cap_9_closure(tmp_path):
    c = ConstraintSet(power=PowerBound.parse("38/15"), max_distinct_antisquares=9)
    out = longest_word(c, max_depth=512, budget=10**8, checkpoint_path=str(tmp_path / "cap9.ckpt"))
    report(
        "count cap 9: full tree closed, 407 is exact",
        out.exhausted and out.max_length == 407,
        f"nodes {out.nodes_explored}",
    )


def test_04_morphism_verification_suite():
    registry = morphisms.load_registry()
    expected_m = {"xi3": 6, "xi5": 16, "xi6": 26, "zeta3": 4, "zeta6": 6,
                  "zeta9": 17, "zeta10": 17, "zeta15": 12, "zeta16": 13}
    failures = []
    for name, params in sorted(morphisms.VERIFICATION_PARAMS.items()):
        rep = morphisms.verify_construction(name, registry)
        cap_ok = (
            rep.inventory.max_order < params["cap"]
            if params["kind"] == "order"
            else rep.inventory.count <= params["cap"]
        )
        if not (rep.synchronizing and rep.image_bound_ok and rep.complement_bound == expected_m[name] and cap_ok):
            failures.append(name)
    report(
        "all 9 uniform constructions verify (sync, image bound, complement bound, caps)",
        not failures,
        f"failures {failures}" if failures else "m values all match",
    )


def _divides_supergolden_polynomial(p: list[int]) -> bool:
    """x^3 - x^2 - 1 divides the integer polynomial p (coefficients low to high)."""
    r = list(p)
    for shift in reversed(range(len(r) - 3)):
        f = r[shift + 3]
        for i, c in enumerate((-1, 0, -1, 1)):
            r[shift + i] -= f * c
    return not any(r)


def test_05_growth_constant():
    psi = supergolden()
    printed = f"{float(psi):.15f}"
    aut = build_avoidance_automaton(GOOD_WORD_FORBIDDEN)
    est = growth_rate(aut)
    ok = (
        printed == "1.465571231876768"
        and abs(est.value - float(psi)) < 1e-9
        and _divides_supergolden_polynomial(est.polynomial)
        and expand_polynomial_identity()
    )
    report(
        "good-word growth rate equals the supergolden ratio",
        ok,
        f"automaton {est.value:.15f}, root {printed}",
    )


def test_06_derivative_code_machinery():
    from antisquares.antisquares import pansiot_decode, pansiot_encode

    rng = random.Random(5)
    roundtrips = all(
        (lambda w: pansiot_decode(pansiot_encode(w), w[0]) == w)(
            Word("".join(rng.choice("01") for _ in range(rng.randrange(1, 60))))
        )
        for _ in range(200)
    )
    aut = build_avoidance_automaton(PANSIOT_CODE_FORBIDDEN)
    est = growth_rate(aut)
    counts = pansiot_block_counts(40)
    rec = verify_pansiot_recurrence(range(10, 41), counts)
    ok = (
        roundtrips
        and abs(est.value - float(supergolden())) < 1e-9
        and _divides_supergolden_polynomial(est.polynomial)
        and rec
    )
    report(
        "derivative codes: round-trips, growth rate, counting recurrence",
        ok,
        f"code growth {est.value:.12f}",
    )


def test_07_word_w_structure():
    w = fa.word_w_prefix(100_000)
    inv = inventory(w)
    inv_ok = {a.text for a in inv.distinct} == {"01", "10"}
    ana = fa.analyze_w_repetitions(100_000)
    largest_k = max(r.k for r in ana.rows)
    _, _, family_e = fa.family_parameters(largest_k)
    below = fa.is_below_two_plus_alpha(ana.max_exponent)
    ok = inv_ok and ana.ok and below and ana.max_exponent == family_e
    report(
        "word w prefix 1e5: antisquares {01,10}, repetitions match the closed family",
        ok,
        f"max exponent {ana.max_exponent} at k={largest_k}, gap positive",
    )


def test_08_fibonacci_word():
    inv = fa.fibonacci_word_antisquares(100_000)
    inv_ok = {a.text for a in inv.distinct} == {"01", "10", "1001", "10100101"}
    ok = inv_ok and fa.verify_phi_identities(10)
    report(
        "Fibonacci word prefix 1e5: inventory {01,10,1001,10100101}; identities hold",
        ok,
    )


def _random_squarefree_ternary(rng: random.Random, length: int) -> Word:
    # random backtracking extension
    while True:
        t: list[str] = []
        dead = False
        while len(t) < length:
            choices = [c for c in "012" if not t or c != t[-1]]
            rng.shuffle(choices)
            for c in choices:
                t.append(c)
                n = len(t)
                if any(t[n - 2 * p : n - p] == t[n - p :] for p in range(1, n // 2 + 1)):
                    t.pop()
                    continue
                break
            else:
                dead = True
                break
        if not dead:
            return Word("".join(t), 3)


def test_09_fifteen_fourths_dichotomy():
    rng = random.Random(99)
    image_ok = True
    for _ in range(20):
        u = _random_squarefree_ternary(rng, rng.randrange(5, 51))
        good, e = fa.verify_h_construction(u)
        image_ok = image_ok and good and e == Fraction(15, 4)

    plus = ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=False), max_antisquare_order=2)
    out_plus = count_by_length(plus, 40)
    ratio = out_plus.counts[40] / out_plus.counts[39]

    strict = ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=True), max_antisquare_order=2)
    out_strict = count_by_length(strict, 120, budget=10**7)
    frozen = {0: 1, 20: 84, 40: 204, 60: 364, 80: 504, 100: 700, 120: 828}
    strict_ok = out_strict.complete and all(out_strict.counts[n] == v for n, v in frozen.items())

    ok = image_ok and out_plus.complete and ratio >= 1.05 and strict_ok
    report(
        "15/4 dichotomy: images exact 15/4; growth above vs polynomial below",
        ok,
        f"ratio at n=40: {ratio:.4f}; strict counts nodes {out_strict.nodes_explored}",
    )


def test_10_factorization_lemmas():
    c = ConstraintSet(power=PowerBound.parse("4"), max_antisquare_order=2)
    dfs = _DFS(c, 15, 10**7)
    bad = []

    def on_word(depth):
        if depth == 15:
            text = "".join(map(str, dfs.checker.letters))
            for cand in (text, complement_text(text)):
                p9 = cand[:9]
                if "0001" not in p9 and "0111" not in p9:
                    bad.append(cand)

    closed = dfs.run(on_word)

    rng = random.Random(42)
    base = fa.word_w_prefix(5000).text
    corpus = []
    while len(corpus) < 193:
        L = rng.randrange(33, 200)
        i = rng.randrange(0, len(base) - L)
        corpus.append(base[i : i + L])
    for L in (33, 40, 64, 100, 200, 500, 1000):
        corpus.append(fa.word_w_prefix(L).text)
    decomposed = 0
    for t in corpus:
        dec = fa.decompose_good_word(Word(t))
        if dec.check_bounds() and dec.recompose().text == t:
            decomposed += 1

    ok = closed and not bad and decomposed == len(corpus)
    report(
        "factorization: marker-prefix property exhaustive; 200-word decomposition round-trip",
        ok,
        f"corpus {decomposed}/{len(corpus)}",
    )


FORBIDDEN_FOR_CORES = frozenset(
    {
        "0011", "0110", "1100", "1001", "010101", "101010",
        "0001011101", "1011101000", "101110111011101", "010001000100010",
    }
)


def _core_target(length: int) -> set[str]:
    registry = morphisms.load_registry()
    f = morphisms.fixed_point_prefix(registry["fib2"].morphism, 0, 3000)
    gf = registry["g"].morphism.apply_text(f.text)
    facs = factor_texts(gf, length)
    return facs | {complement_text(t) for t in facs}


@pytest.mark.slow
def test_11_extendable_cores():
    c = ConstraintSet(power=PowerBound.parse("4"), forbidden_factors=FORBIDDEN_FOR_CORES)
    contained = True
    for pad in (30, 60):
        cores = {w.text for w in extendable_cores(c, pad, pad)}
        contained = contained and _core_target(pad) <= cores
    cores100 = {w.text for w in extendable_cores(c, 100, 100)}
    target100 = _core_target(100)
    ok = contained and cores100 == target100
    report(
        "extendable cores: fixed-point factors always survive; exact at pad 100",
        ok,
        f"pad-100 set size {len(cores100)}",
    )
