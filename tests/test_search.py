import json
import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_reference
from antisquares.repetitions import PowerBound
from antisquares.search import (
    CHUNK,
    BudgetExceeded,
    ConstraintSet,
    _DFS,
    check_word,
    count_by_length,
    extendable_cores,
    longest_word,
)
from antisquares.words import Word, complement_text
from search_reference import IncrementalChecker

SQUAREFREEISH = ConstraintSet(power=PowerBound.parse("2"))
GOOD = ConstraintSet(max_antisquare_order=2)


def brute_ok(c: ConstraintSet, t: str) -> bool:
    return check_word(c, Word(t, c.alphabet_size))[0]


def test_constraint_set_requires_something():
    with pytest.raises(ValueError):
        ConstraintSet()
    with pytest.raises(ValueError):
        ConstraintSet(forbidden_factors=frozenset({""}))


def test_constraint_set_describe():
    c = ConstraintSet(power=PowerBound.parse("7/3+"), max_antisquare_order=4)
    assert "7/3+" in c.describe()
    assert "antisquare-order<4" in c.describe()


def test_constraint_set_alphabet():
    with pytest.raises(ValueError, match="binary"):
        ConstraintSet(power=PowerBound.parse("2"), max_antisquare_order=3, alphabet_size=3)
    with pytest.raises(ValueError, match="binary"):
        ConstraintSet(max_distinct_antisquares=3, alphabet_size=3)
    with pytest.raises(ValueError, match="2 or 3"):
        ConstraintSet(power=PowerBound.parse("2"), alphabet_size=4)
    with pytest.raises(ValueError, match="outside the alphabet"):
        ConstraintSet(forbidden_factors=frozenset({"2"}))
    ternary = ConstraintSet(power=PowerBound.parse("2"), forbidden_factors=frozenset({"2"}), alphabet_size=3)
    assert not ternary.complement_closed
    # binary descriptions are those of earlier checkpoints; a ternary one differs
    assert SQUAREFREEISH.describe() == "power<2/1"
    assert ternary.describe() == "power<2/1 & forbidden=['2'] & ternary"


def test_complement_closed():
    assert SQUAREFREEISH.complement_closed
    assert GOOD.complement_closed
    assert not ConstraintSet(forbidden_factors=frozenset({"01"})).complement_closed
    assert ConstraintSet(forbidden_factors=frozenset({"01", "10"})).complement_closed


def test_check_word_reports_violations():
    c = ConstraintSet(power=PowerBound.parse("2"))
    ok, v = check_word(c, Word("0101"))
    assert not ok and v.constraint.startswith("power-bound")
    ok, v = check_word(GOOD, Word("0011"))
    assert not ok and v.constraint == "antisquare-order"
    c = ConstraintSet(forbidden_factors=frozenset({"111"}))
    ok, v = check_word(c, Word("0111"))
    assert not ok and v.constraint == "forbidden-factor"
    ok, v = check_word(GOOD, Word("0101"))
    assert ok and v is None


@pytest.mark.parametrize(
    "c",
    [
        SQUAREFREEISH,
        GOOD,
        ConstraintSet(power=PowerBound.parse("7/3+"), max_antisquare_order=3),
        ConstraintSet(power=PowerBound.parse("5/2"), max_distinct_antisquares=4),
        ConstraintSet(max_distinct_antisquares=3),
        ConstraintSet(power=PowerBound.parse("3"), forbidden_factors=frozenset({"000", "111"})),
    ],
)
def test_incremental_checker_matches_full_check(c):
    # every binary word of length <= 10: the incremental engine must agree
    # with the from-scratch validator on every prefix transition
    checker = IncrementalChecker(c, 12)

    def explore(depth):
        for a in (0, 1):
            ok = checker.push(a)
            t = "".join(map(str, checker.letters))
            assert ok == brute_ok(c, t), t
            if ok and depth < 9:
                explore(depth + 1)
            checker.pop()

    explore(0)


def test_longest_word_squarefree_binary():
    # binary squarefree words end at length 3 (010 and 101)
    out = longest_word(SQUAREFREEISH, max_depth=16)
    assert out.exhausted
    assert out.max_length == 3
    assert out.witness.text == "010"


def brute_longest(c: ConstraintSet, n_max: int) -> int:
    best = 0
    for n in range(1, n_max + 1):
        found = False
        for bits in product("01", repeat=n):
            if brute_ok(c, "".join(bits)):
                found = True
                break
        if not found:
            break
        best = n
    return best


def test_longest_word_matches_brute():
    c = ConstraintSet(power=PowerBound.parse("2+"), max_antisquare_order=3)
    out = longest_word(c, max_depth=32)
    if out.exhausted:
        assert out.max_length == brute_longest(c, out.max_length + 1)
    assert check_word(c, out.witness)[0]


def brute_count(c: ConstraintSet, n: int) -> int:
    return sum(1 for bits in product("01", repeat=n) if brute_ok(c, "".join(bits)))


def test_count_by_length_matches_brute():
    c = ConstraintSet(power=PowerBound.parse("7/3"), max_antisquare_order=2)
    out = count_by_length(c, 10)
    assert out.complete
    assert out.counts[0] == 1
    for n in range(1, 11):
        assert out.counts[n] == brute_count(c, n), n


def test_count_without_symmetry():
    c = ConstraintSet(power=PowerBound.parse("7/3"), forbidden_factors=frozenset({"11"}))
    assert not c.complement_closed
    out = count_by_length(c, 8)
    assert out.complete
    for n in range(1, 9):
        assert out.counts[n] == brute_count(c, n), n


def test_budget_flagged():
    out = count_by_length(GOOD, 30, budget=50)
    assert not out.complete
    assert out.nodes_explored == 50
    assert out.wall_time >= 0


SQUAREFREE_TERNARY = ConstraintSet(power=PowerBound.parse("2"), alphabet_size=3)


def test_count_squarefree_ternary():
    # OEIS A006156
    assert count_by_length(SQUAREFREE_TERNARY, 24).counts == [
        1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798, 1044, 1392, 1830, 2388,
        3180, 4146, 5418, 7032,
    ]


@pytest.mark.parametrize(
    "c",
    [
        ConstraintSet(power=PowerBound.parse("7/3"), forbidden_factors=frozenset({"00", "12"}), alphabet_size=3),
        ConstraintSet(forbidden_factors=frozenset({"11", "202", "0120"}), alphabet_size=3),
        ConstraintSet(power=PowerBound.parse("3/2+"), alphabet_size=3),
    ],
)
def test_ternary_search_matches_brute(c):
    words = {n: ["".join(t) for t in product("012", repeat=n) if brute_ok(c, "".join(t))] for n in range(9)}
    out = count_by_length(c, 8)
    assert out.complete and out.counts == [len(words[n]) for n in range(9)]
    longest = max(n for n in words if words[n])
    out = longest_word(c, max_depth=8)
    assert out.max_length == longest and out.witness.text == words[longest][0]


def test_ternary_search_resumes_from_checkpoint(tmp_path):
    path = str(tmp_path / "state.json")
    full = longest_word(SQUAREFREE_TERNARY, max_depth=10)
    want = (full.max_length, full.witness, full.nodes_explored, True)
    assert full.exhausted and full.witness == Word("0102012021", 3)
    next_letters = set()
    for budget in range(1, full.nodes_explored, 7):
        out = longest_word(SQUAREFREE_TERNARY, budget=budget, max_depth=10, checkpoint_path=path)
        assert not out.exhausted and out.nodes_explored == budget
        with open(path) as fh:
            next_letters.update(a for chunk in json.load(fh)["stack"] for _, a in chunk)
        resumed = longest_word(SQUAREFREE_TERNARY, max_depth=10, resume_from=path)
        assert (resumed.max_length, resumed.witness, resumed.nodes_explored, resumed.exhausted) == want, budget
    assert next_letters == {0, 1, 2}  # some row resumes at each letter
    with pytest.raises(ValueError, match="different constraints"):
        longest_word(SQUAREFREEISH, max_depth=10, resume_from=path)


CAP8 = ConstraintSet(power=PowerBound.parse("8/3"), max_distinct_antisquares=8)


def test_target_short_circuits():
    # a target search expands one chunk at a time, so its node count is that
    # of the engine before expansions merged chunks, where these were measured
    for c, target, max_depth, nodes, witness in (
        (GOOD, 20, 64, 1587, "0" * 20),
        (CAP8, 52, 512, 3733, "0010010100110010100110011010011001101011001101011011"),
        (
            ConstraintSet(power=PowerBound.parse("17/7"), max_distinct_antisquares=15), 156, 512, 20333,
            "001011001101001011001001101001100100110100101100100110010110010011010010110010011010"
            "011001001101001011001001100101100100110100101100100110010110010011001001",
        ),
    ):
        out = longest_word(c, target=target, max_depth=max_depth)
        assert (out.exhausted, out.max_length, out.nodes_explored, out.witness.text) == (True, target, nodes, witness)


def test_merged_expansions_fill_chunks():
    # the tree is narrow: its chunks hold 16.7 rows on average, and an
    # expansion merges them
    out = longest_word(CAP8, max_depth=512)
    assert (out.exhausted, out.max_length, out.nodes_explored) == (True, 52, 18309)
    assert out.nodes_explored / out.expansions >= 64  # >= 32 rows per expansion


def test_on_level_gets_one_length_per_call():
    # expansions that merge chunks of several lengths still hand on_level
    # the words of one length at a time, in order; together they are every
    # valid word starting with 0 (GOOD is complement-closed)
    max_depth = 18
    dfs = _DFS(GOOD, max_depth, 10**9)
    words: dict[int, list[str]] = {}
    lengths_by_expansion: dict[int, set[int]] = {}

    def on_level(letters):
        texts = ["".join(map(str, row)) for row in letters.tolist()]
        assert texts == sorted(set(texts)) and len({len(t) for t in texts}) == 1
        words.setdefault(len(texts[0]), []).extend(texts)
        lengths_by_expansion.setdefault(dfs.expansions, set()).add(len(texts[0]))

    assert dfs.run(on_level)
    assert any(len(lengths) > 1 for lengths in lengths_by_expansion.values())
    level = ["0"]
    for n in range(1, max_depth + 1):
        assert sorted(words.get(n, [])) == level, n
        level = sorted(t + a for t in level for a in "01" if brute_ok(GOOD, t + a))


def test_interrupted_search_stops_at_budget_and_resumes(tmp_path):
    # expansions merge chunks only while all their children fit in the
    # budget, and a resumed run merges the chunks of the checkpoint; power<3/2
    # has a 0 edge at distance 2, which a padded row must not reach
    path = str(tmp_path / "state.json")
    for c in (CAP8, ConstraintSet(power=PowerBound.parse("3/2"), forbidden_factors=frozenset({"111"}))):
        full = longest_word(c, max_depth=512)
        want = (full.max_length, full.witness, full.nodes_explored, True)
        for budget in range(1, full.nodes_explored, max(1, full.nodes_explored // 20)):
            out = longest_word(c, budget=budget, max_depth=512, checkpoint_path=path)
            assert not out.exhausted and out.nodes_explored == budget
            assert check_word(c, out.witness)[0], budget
            resumed = longest_word(c, max_depth=512, resume_from=path)
            assert (resumed.max_length, resumed.witness, resumed.nodes_explored, resumed.exhausted) == want, budget


def test_checkpoint_roundtrip(tmp_path):
    # for every budget, interrupting and resuming must give the uninterrupted
    # run's length, witness and total node count
    path = str(tmp_path / "state.json")
    for c in (
        ConstraintSet(power=PowerBound.parse("8/3"), max_antisquare_order=4),
        ConstraintSet(power=PowerBound.parse("3"), max_distinct_antisquares=3),
    ):
        full = longest_word(c, max_depth=64)
        assert full.exhausted
        want = (full.max_length, full.witness, full.nodes_explored, True)
        step = max(1, full.nodes_explored // 64)
        for budget in [*range(1, full.nodes_explored, step), full.nodes_explored - 1]:
            partial = longest_word(c, budget=budget, max_depth=64, checkpoint_path=path)
            assert not partial.exhausted
            assert partial.nodes_explored == budget
            resumed = longest_word(c, max_depth=64, resume_from=path)
            got = (resumed.max_length, resumed.witness, resumed.nodes_explored, resumed.exhausted)
            assert got == want, (c.describe(), budget)
        assert not os.path.exists(path + ".tmp")


def test_checkpoint_resume_with_many_rows(tmp_path):
    # a wide tree leaves more rows on the stack than one chunk holds
    path = str(tmp_path / "state.json")
    full = longest_word(GOOD, max_depth=20)
    partial = longest_word(GOOD, budget=full.nodes_explored // 2, max_depth=20, checkpoint_path=path)
    with open(path) as fh:
        assert sum(map(len, json.load(fh)["stack"])) > CHUNK
    resumed = longest_word(GOOD, max_depth=20, resume_from=path)
    assert not partial.exhausted and resumed.exhausted
    assert (resumed.max_length, resumed.witness, resumed.nodes_explored) == (
        full.max_length, full.witness, full.nodes_explored)


def test_checkpoint_rejects_other_constraints(tmp_path):
    path = str(tmp_path / "state.json")
    longest_word(GOOD, budget=100, max_depth=32, checkpoint_path=path)
    with pytest.raises(ValueError):
        longest_word(SQUAREFREEISH, max_depth=32, resume_from=path)
    with pytest.raises(ValueError, match="max_depth"):
        longest_word(GOOD, max_depth=16, resume_from=path)
    with open(path) as fh:
        state = json.load(fh)
    # one case per field of a v3 checkpoint
    corrupt = [
        {k: v for k, v in state.items() if k != "best_witness"},
        {**state, "best_witness": "0110"},  # an antisquare of order 2
        {**state, "best_witness": "012"},
        {k: v for k, v in state.items() if k != "nodes"},
        {**state, "nodes": -1},
        {k: v for k, v in state.items() if k != "stack"},
        {**state, "stack": 7},
        {**state, "stack": [[]]},  # an empty chunk
        {**state, "stack": [[[f"{i:08b}", 0] for i in range(CHUNK + 1)]]},  # more rows than a chunk holds
        {**state, "stack": [[["0110", 0]]]},  # a prefix with an antisquare of order 2
        {**state, "stack": [[["01", 0], ["010", 0]]]},  # rows of one chunk differ in length
        {**state, "stack": [[["01", 0], ["01", 0]]]},  # a row twice
        {**state, "stack": [[["01", 2]]]},  # no letter left to try
        {**state, "stack": [[["", 1]]]},  # the symmetry tries only 0 first
        {**state, "stack": [[["10", 0]]]},  # ... so no prefix starts with 1
        {**state, "stack": [[["0" * 32, 0]]]},  # a prefix at max_depth
    ]
    for bad in corrupt:
        with open(path, "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match="corrupt"):
            longest_word(GOOD, max_depth=32, resume_from=path)
    for magic in (None, "antisquares-dfs-checkpoint-v2"):
        with open(path, "w") as fh:
            json.dump({**state, "magic": magic}, fh)
        with pytest.raises(ValueError, match="not a search checkpoint"):
            longest_word(GOOD, max_depth=32, resume_from=path)
    with open(path, "w") as fh:
        fh.write("not json")
    with pytest.raises(ValueError):
        longest_word(GOOD, max_depth=32, resume_from=path)


def test_extendable_cores_small():
    cores = extendable_cores(GOOD, 2, 2)
    # every length-2 binary word extends to a length-6 word whose only
    # antisquares are 01/10 except none are excluded at this size
    brute = set()
    for bits in product("01", repeat=6):
        t = "".join(bits)
        if brute_ok(GOOD, t):
            brute.add(t[2:4])
    assert {w.text for w in cores} == brute


def test_extendable_cores_budget():
    with pytest.raises(BudgetExceeded):
        extendable_cores(GOOD, 4, 4, budget=10)


def test_v2_checkpoint_is_rejected(tmp_path):
    # a checkpoint written by the letter-by-letter engine cannot be resumed
    path = str(tmp_path / "v2.json")
    old = search_reference._DFS(GOOD, 32, 100)
    assert not old.run(lambda depth: None)
    old.save_checkpoint(path)
    with pytest.raises(ValueError, match="not a search checkpoint"):
        longest_word(GOOD, max_depth=32, resume_from=path)


def reference_tree(c: ConstraintSet, max_depth: int):
    """Valid words per length, least longest word and node count of the
    letter-by-letter reference over the whole tree."""
    dfs = search_reference._DFS(c, max_depth, 10**9)
    counts = [0] * (max_depth + 1)

    def on_word(depth):
        counts[depth] += 1
        if depth > len(dfs.best_text):
            dfs.best_text = dfs.checker.word().text

    assert dfs.run(on_word)
    return counts, dfs.best_text, dfs.nodes


CORE_FORBIDDEN = frozenset(
    {
        "0011", "0110", "1100", "1001", "010101", "101010",
        "0001011101", "1011101000", "101110111011101", "010001000100010",
    }
)


def random_forbidden_sets(count: int, seed: int) -> list[frozenset]:
    """Seeded sets of 2-3 patterns of length 2-5 that are not complement-closed."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        patterns = frozenset(
            "".join(rng.choice("01") for _ in range(rng.randint(2, 5))) for _ in range(rng.randint(2, 3))
        )
        if not ConstraintSet(forbidden_factors=patterns).complement_closed:
            sets.append(patterns)
    return sets


def beta(text: str) -> PowerBound:
    return PowerBound.parse(text)


# (constraints, max_depth): every acceptance constraint set, cut to a depth
# where the reference closes its tree in about a second
AGREEMENT_CASES = [
    *[(ConstraintSet(power=beta(b), max_antisquare_order=k), 64) for k, b in [(4, "8/3"), (5, "5/2"), (6, "7/3")]],
    *[(ConstraintSet(power=beta(b), max_distinct_antisquares=k), 64) for k, b in [(5, "3"), (8, "8/3"), (16, "7/3")]],
    *[(ConstraintSet(power=beta(b), max_distinct_antisquares=k), 30) for k, b in [(9, "38/15"), (14, "5/2"), (15, "17/7")]],
    (ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=True), max_antisquare_order=2), 60),
    (ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=False), max_antisquare_order=2), 40),
    (ConstraintSet(power=beta("4"), forbidden_factors=CORE_FORBIDDEN), 40),
    (GOOD, 18),
    *[(ConstraintSet(forbidden_factors=f), 12) for f in random_forbidden_sets(8, seed=3)],
    # alternating words: antisquares of every odd order below the cap, past 62
    *[(ConstraintSet(forbidden_factors=frozenset({"00", "11"}), max_distinct_antisquares=k), 200) for k in (60, 70, 80)],
]


@pytest.mark.parametrize("c,max_depth", AGREEMENT_CASES, ids=[f"{c.describe()}@{n}" for c, n in AGREEMENT_CASES])
def test_engine_matches_reference(c, max_depth):
    counts, best, nodes = reference_tree(c, max_depth)
    factor = 2 if c.complement_closed else 1
    got = count_by_length(c, max_depth, budget=10**9)
    assert got.complete and got.nodes_explored == nodes
    assert got.counts == [1] + [factor * n for n in counts[1:]]
    out = longest_word(c, max_depth=max_depth)
    assert (out.max_length, out.witness.text, out.nodes_explored, out.exhausted) == (len(best), best, nodes, True)


def test_long_antisquare_orders_give_exact_lengths():
    # a word avoiding 00 and 11 alternates, so at length n it has the
    # antisquares of every odd order k with 2k <= n, two of each while 2k < n
    for cap, length in ((60, 121), (70, 141), (80, 161)):
        c = ConstraintSet(forbidden_factors=frozenset({"00", "11"}), max_distinct_antisquares=cap)
        assert longest_word(c, max_depth=200).max_length == length


def test_extendable_cores_match_reference():
    core, pad = 10, 10
    total = core + 2 * pad
    c = ConstraintSet(power=beta("4"), forbidden_factors=CORE_FORBIDDEN)
    dfs = search_reference._DFS(c, total, 10**9)
    want = set()

    def on_word(depth):
        if depth == total:
            text = dfs.checker.word().text[pad : pad + core]
            want.update({text, complement_text(text)})

    assert dfs.run(on_word)
    assert {w.text for w in extendable_cores(c, core, pad)} == want
