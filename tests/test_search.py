import json
import os
import random
from fractions import Fraction
from itertools import groupby, product
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_reference
from antisquares.repetitions import PowerBound
from antisquares.search import (
    MERGE_ROWS,
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


def test_order_cap_below_one_is_rejected():
    # with order cap 0 count_by_length counted words that check_word could
    # not check: every word has an antisquare order >= 0
    with pytest.raises(ValueError, match="max_antisquare_order"):
        ConstraintSet(max_antisquare_order=0)
    assert count_by_length(ConstraintSet(max_antisquare_order=1), 3).counts == [1, 2, 2, 2]


def test_negative_count_cap_is_rejected():
    with pytest.raises(ValueError, match="max_distinct_antisquares"):
        ConstraintSet(max_distinct_antisquares=-1)
    assert count_by_length(ConstraintSet(max_distinct_antisquares=0), 3).counts == [1, 2, 2, 2]


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


def test_negative_sizes_raise_value_error():
    with pytest.raises(ValueError, match="max_depth"):
        count_by_length(GOOD, -1)
    for c in (GOOD, SQUAREFREEISH):
        with pytest.raises(ValueError, match="max_depth"):
            longest_word(c, max_depth=-3)
    assert count_by_length(GOOD, 0).counts == [1]
    assert longest_word(GOOD, max_depth=0).max_length == 0


def test_target_outside_one_to_max_depth_is_rejected():
    # a target of 0 used to stop after the first expansion with a word of
    # length 1 reported as reached
    for target, max_depth in ((0, 16), (-5, 16), (17, 16), (600, 512)):
        with pytest.raises(ValueError, match="target"):
            longest_word(SQUAREFREEISH, max_depth=max_depth, target=target)
    for target in (1, 16):
        out = longest_word(SQUAREFREEISH, max_depth=16, target=target)
        assert (out.exhausted, out.max_length) == (True, min(target, 3))


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
            next_letters.update(a for _, a in json.load(fh)["stack"])
        resumed = longest_word(SQUAREFREE_TERNARY, max_depth=10, resume_from=path)
        assert (resumed.max_length, resumed.witness, resumed.nodes_explored, resumed.exhausted) == want, budget
    assert next_letters == {0, 1, 2}  # some row resumes at each letter
    with pytest.raises(ValueError, match="different constraints"):
        longest_word(SQUAREFREEISH, max_depth=10, resume_from=path)


CAP8 = ConstraintSet(power=PowerBound.parse("8/3"), max_distinct_antisquares=8)
CAP15 = ConstraintSet(power=PowerBound.parse("17/7"), max_distinct_antisquares=15)


def test_target_short_circuits():
    # a target search walks like a closed search, up to MERGE_ROWS rows per
    # expansion, and stops after the expansion that reaches the target; its
    # node count is the closed walk's count there.  These counts moved from
    # 1587, 3733 and 20333 when target searches stopped expanding one 64-row
    # chunk at a time; the witnesses did not
    for c, target, max_depth, nodes, witness in (
        (GOOD, 20, 64, 7541, "0" * 20),
        (CAP8, 52, 512, 18307, "0010010100110010100110011010011001101011001101011011"),
        (
            CAP15, 156, 512, 112391,
            "001011001101001011001001101001100100110100101100100110010110010011010010110010011010"
            "011001001101001011001001100101100100110100101100100110010110010011001001",
        ),
    ):
        out = longest_word(c, target=target, max_depth=max_depth)
        assert (out.exhausted, out.max_length, out.nodes_explored, out.witness.text) == (True, target, nodes, witness)


@pytest.mark.parametrize("c,target", [(CAP8, 52), (CAP15, 156)], ids=["cap8", "cap15"])
def test_target_search_is_a_prefix_of_the_closed_walk(c, target):
    # the closed walk passes through the point, (expansions, nodes), at
    # which the target search stops
    dfs = _DFS(c, 512, 10**9)
    points = set()
    while dfs.stack:
        dfs._expand(None, None)
        points.add((dfs.expansions, dfs.nodes))
    out = longest_word(c, target=target, max_depth=512)
    assert out.exhausted and out.max_length == target
    assert (out.expansions, out.nodes_explored) in points


def test_merged_expansions_fill_chunks():
    # the tree is narrow: its chunks hold 16.7 rows on average, and an
    # expansion merges them
    out = longest_word(CAP8, max_depth=512)
    assert (out.exhausted, out.max_length, out.nodes_explored) == (True, 52, 18309)
    assert out.nodes_explored / out.expansions >= 64  # >= 32 rows per expansion


def test_on_leaf_gets_the_longest_words_in_order():
    # on_leaf gets every valid word of length max_depth, in lexicographic
    # order across calls, and counts holds the valid words of each length;
    # some expansions take rows of several lengths.  GOOD is
    # complement-closed, so the walk reaches the words starting with 0
    max_depth = 18
    dfs = _DFS(GOOD, max_depth, 10**9)
    leaves, lengths = [], []
    step = dfs._step

    def spy(rows, tried):
        lengths.append(set(rows.depth.tolist()))
        return step(rows, tried)

    dfs._step = spy
    assert dfs.run(lambda letters: leaves.extend("".join(map(str, row)) for row in letters.tolist()))
    assert any(len(depths) > 1 for depths in lengths)
    level = ["0"]
    for n in range(1, max_depth + 1):
        assert dfs.counts[n] == len(level), n
        if n < max_depth:
            level = sorted(t + a for t in level for a in "01" if brute_ok(GOOD, t + a))
    assert leaves == level


def test_interrupted_search_stops_at_budget_and_resumes(tmp_path):
    # the expansion that the budget ends in may take rows of several
    # lengths, and a resumed run merges the blocks of the checkpoint; power<3/2
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
    # a wide tree leaves more than 64 rows on the stack
    path = str(tmp_path / "state.json")
    full = longest_word(GOOD, max_depth=20)
    partial = longest_word(GOOD, budget=full.nodes_explored // 2, max_depth=20, checkpoint_path=path)
    with open(path) as fh:
        assert len(json.load(fh)["stack"]) > 64
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
    # one case per field of a v4 checkpoint
    corrupt = [
        {k: v for k, v in state.items() if k != "best_witness"},
        {**state, "best_witness": "0110"},  # an antisquare of order 2
        {**state, "best_witness": "012"},
        {k: v for k, v in state.items() if k != "nodes"},
        {**state, "nodes": -1},
        {k: v for k, v in state.items() if k != "stack"},
        {**state, "stack": 7},
        {**state, "stack": [[]]},  # a row that is no [prefix, next letter] pair
        {**state, "stack": [["0110", 0]]},  # a prefix with an antisquare of order 2
        {**state, "stack": [["010", 0], ["01", 0], ["01", 0]]},  # a row twice
        {**state, "stack": [["01", 0], ["010", 0]]},  # a shorter row above a longer one
        {**state, "stack": [["010", 0], ["001", 0]]},  # rows of one length out of order
        {**state, "stack": [["01", 2]]},  # no letter left to try
        {**state, "stack": [["", 1]]},  # the symmetry tries only 0 first
        {**state, "stack": [["10", 0]]},  # ... so no prefix starts with 1
        {**state, "stack": [["0" * 32, 0]]},  # a prefix at max_depth
    ]
    for bad in corrupt:
        with open(path, "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match="corrupt"):
            longest_word(GOOD, max_depth=32, resume_from=path)
    for magic in (None, "antisquares-dfs-checkpoint-v2", "antisquares-dfs-checkpoint-v3"):
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


STRICT_15_4 = ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=True), max_antisquare_order=2)


@pytest.mark.parametrize("c,max_depth", [(ConstraintSet(power=beta("4"), forbidden_factors=CORE_FORBIDDEN), 40),
                                         (STRICT_15_4, 60)])
def test_closed_expansions_span_chunks(c, max_depth):
    # both are agreement cases, so the reference checks expansions of more
    # than 64 rows on average (two nodes a row)
    for out in (count_by_length(c, max_depth, budget=10**9), longest_word(c, max_depth=max_depth)):
        assert out.nodes_explored / out.expansions > 2 * 64


CAP9 = ConstraintSet(power=beta("38/15"), max_distinct_antisquares=9)


def test_walk_counters():
    # the walk's nodes and expansions depend on how it groups rows, so a
    # change to the step that kept the answers but not the walk shows here
    # (README states the cap-9 ones)
    out = longest_word(CAP9, target=407, max_depth=512)
    assert (out.exhausted, out.max_length, out.nodes_explored, out.expansions) == (True, 407, 420451, 426)
    assert out.witness.text.startswith("001001010011010010100110100110")
    out = longest_word(CAP15, max_depth=512)
    assert (out.exhausted, out.max_length, out.nodes_explored, out.expansions) == (True, 156, 113223, 177)
    out = count_by_length(STRICT_15_4, 120)
    assert (out.complete, out.nodes_explored, out.expansions) == (True, 45021, 120)
    assert (out.counts[20], out.counts[120]) == (84, 828)


FLIP = str.maketrans("01", "10")


def plain_runs(text: str, distances: int, same: bool) -> list[int]:
    """For p = 1..distances, how many of the word's last letters in a row
    equal (same) or differ from (not same) the letter p before each."""
    n, runs = len(text), []
    for p in range(1, distances + 1):
        r = 0
        while r + p < n and (text[n - 1 - r] == text[n - 1 - r - p]) == same:
            r += 1
        runs.append(r)
    return runs


def test_step_state_matches_a_plain_recount():
    # in a merged expansion rows of several lengths share one array; every
    # child row must hold the state of its own letters, in every column it
    # holds.  Cap 9 merges rows of lengths 40-46 within 40,000 nodes: at
    # max_depth 512 its rows are narrower than both run widths, at max_depth
    # 80 as wide.  The cores' tree merges rows of lengths 55-99, as wide as
    # the equality width, and has no inequality runs
    known = {"": frozenset()}

    def antisquare_tags(text: str) -> frozenset:
        """The tags (1 << k) | last k letters of the word's antisquares."""
        i = len(text)
        while text[:i] not in known:
            i -= 1
        for e in range(i + 1, len(text) + 1):
            known[text[:e]] = known[text[: e - 1]] | {
                (1 << k) | int(text[e - k : e], 2)
                for k in range(1, e // 2 + 1)
                if text[e - k : e] == text[e - 2 * k : e - k].translate(FLIP)
            }
        return known[text]

    def row_texts(rows) -> list[str]:
        return ["".join(map(str, back[:depth][::-1])) for back, depth in zip(rows.back.tolist(), rows.depth.tolist())]

    narrow = set()
    cores = ConstraintSet(power=beta("4"), forbidden_factors=CORE_FORBIDDEN)
    for c, max_depth, budget in ((CAP9, 512, 40_000), (CAP9, 80, 40_000), (cores, 100, 72_000)):
        dfs = _DFS(c, max_depth, budget)
        merged, step = [], dfs._step

        def spy(rows, tried):
            children = step(rows, tried)
            if len(set(rows.depth.tolist())) > 1:
                merged.append((set(row_texts(rows)), children))
                narrow.add((rows.eq.shape[1] < dfs.eq_width, rows.ne is not None and rows.ne.shape[1] < dfs.ne_width))
            return children

        dfs._step = spy
        assert not dfs.run() and merged
        for parents, children in merged:
            for i, text in enumerate(row_texts(children)):
                assert text[:-1] in parents and (children.back[i, len(text) :] == 255).all(), text
                assert children.eq[i].tolist() == plain_runs(text, children.eq.shape[1], True), text
                if c.max_distinct_antisquares is None:
                    continue
                assert children.ne[i].tolist() == plain_runs(text, children.ne.shape[1], False), text
                assert children.suffix[i] == int(text[-62:], 2), text
                tags = children.tags[i, : children.ntags[i]].tolist()
                assert len(set(tags)) == len(tags) and set(tags) == antisquare_tags(text), text
    assert narrow == {(True, True), (False, False)}


def test_stack_pins_no_large_arrays():
    # the stack holds rows of the children arrays of earlier expansions; an
    # array may outlive the rows taken from it only while the stack still
    # holds at least half of its bytes, counting each row up to its length
    dfs = _DFS(ConstraintSet(power=beta("4"), forbidden_factors=CORE_FORBIDDEN), 90, 10**9)
    widest = 0
    while dfs.stack:
        dfs._expand(None, None)
        owners, held = {}, 0
        for block in dfs.stack:
            for a in (block.back, block.eq, block.ne, block.state, block.suffix, block.tags, block.ntags, block.next,
                      block.depth):
                if a is not None:
                    owner = a if a.base is None else a.base
                    owners[id(owner)] = owner.nbytes
                    if a.ndim == 2 and a is not block.tags:
                        held += int(np.minimum(block.depth, a.shape[1]).sum()) * a.itemsize
                    else:
                        held += a.nbytes
        assert sum(owners.values()) <= 2 * held
        widest = max(widest, sum(map(len, dfs.stack)))
    assert widest > 2 * 64


def test_checkpoint_of_segment_stack(tmp_path):
    # the stack, read from the top down, is stored as one list of rows whose
    # keys (-length, prefix) strictly increase, though its blocks hold more
    # than 64 rows of one length and rows of several lengths; a resumed run
    # pushes one block per stored length, the deepest on top
    path = str(tmp_path / "state.json")
    full = longest_word(GOOD, max_depth=20)
    for budget in range(full.nodes_explored // 8, full.nodes_explored, full.nodes_explored // 8):
        dfs = _DFS(GOOD, 20, budget)
        assert not dfs.run()
        if (max(np.unique(block.depth, return_counts=True)[1].max() for block in dfs.stack) > 64
                and any(len(set(block.depth.tolist())) > 1 for block in dfs.stack)):
            break
    else:
        pytest.fail("no budget leaves a block with more than 64 rows of one length and one of several lengths")
    dfs.save_checkpoint(path)
    with open(path) as fh:
        state = json.load(fh)
    assert state["magic"] == "antisquares-dfs-checkpoint-v4" and state["nodes"] == budget
    rows = [
        ["".join(map(str, block.back[i, : block.depth[i]][::-1].tolist())), int(block.next[i])]
        for block in reversed(dfs.stack) for i in range(len(block))
    ]
    assert state["stack"] == rows
    keys = [(-len(t), t) for t, _ in rows]
    assert keys == sorted(set(keys))
    restored = _DFS(GOOD, 20, 10**9)
    restored.restore(path)
    lengths = [set(block.depth.tolist()) for block in restored.stack]
    assert lengths == [{d} for d in sorted({len(t) for t, _ in rows})]
    resumed = longest_word(GOOD, max_depth=20, resume_from=path)
    assert (resumed.max_length, resumed.witness, resumed.nodes_explored, resumed.exhausted) == (
        full.max_length, full.witness, full.nodes_explored, True)


@pytest.mark.parametrize("c,max_depth", [(CAP8, 512), (SQUAREFREE_TERNARY, 20)], ids=["cap8", "ternary"])
def test_budget_only_stops_the_walk(c, max_depth):
    # up to the expansion that the budget ends in, a budgeted walk takes the
    # same rows as an unbudgeted one and counts the same nodes; it tries
    # children of that expansion's rows up to the budget.  CAP8's levels
    # fit in one expansion each; the ternary tree is wider than MERGE_ROWS,
    # so some expansions take rows of two lengths, and an expansion sized by
    # the budget that remains would take fewer of them
    def walk(budget):
        dfs = _DFS(c, max_depth, budget)
        steps, step = [], dfs._step

        def spy(rows, tried):
            steps.append((rows.depth.tobytes(), rows.back.tobytes(), dfs.nodes))
            return step(rows, tried)

        dfs._step = spy
        return dfs.run(), dfs.nodes, steps

    closed, total, full = walk(10**9)
    assert closed
    for budget in range(1, total, max(1, total // 13)):
        done, nodes, steps = walk(budget)
        assert (done, nodes) == (False, budget)
        assert steps[:-1] == full[: len(steps) - 1], budget
        (depth, back, at), (want_depth, want_back, want_at) = steps[-1], full[len(steps) - 1]
        assert (depth, back) == (want_depth, want_back) and at == budget <= want_at, budget


FUZZ_NODES = 600  # largest tree the fuzz oracles walk, in nodes


def fuzz_constraints(rng: random.Random) -> tuple[ConstraintSet, int]:
    """One seeded constraint set of the differential fuzz, with a max_depth."""
    base = rng.choice((2, 3))
    q = rng.randint(1, 5)
    power = PowerBound(Fraction(rng.randint(2 * q, 4 * q), q), forbid_equal=rng.random() < 0.5)
    order = count = None
    if base == 2:
        cap = rng.randrange(3)
        if cap == 1:
            order = rng.randint(2, 6)
        elif cap == 2:
            count = rng.randint(1, 10)
    forbidden = frozenset(
        "".join(rng.choice("012"[:base]) for _ in range(rng.randint(1, 5))) for _ in range(rng.randint(0, 3))
    )
    c = ConstraintSet(power=power, max_antisquare_order=order, max_distinct_antisquares=count,
                      forbidden_factors=forbidden, alphabet_size=base)
    return c, rng.randint(1, 14)


def oracle_levels(c: ConstraintSet, max_depth: int) -> tuple[list[list[str]], int]:
    """The valid words of each length 0..n that the walk explores (those
    starting with 0 under the complement symmetry), in lexicographic order,
    and the node count of the tree to depth n, for the largest n <=
    max_depth at which the tree has at most FUZZ_NODES nodes.  The reference
    engine walks binary trees, and check_word takes every child of the words
    of each length of ternary ones."""
    if c.alphabet_size == 3:
        levels, nodes = [[""]], 0
        while len(levels) <= max_depth and nodes + 3 * len(levels[-1]) <= FUZZ_NODES:
            nodes += 3 * len(levels[-1])
            levels.append([t + a for t in levels[-1] for a in "012" if brute_ok(c, t + a)])
        return levels, nodes
    while True:
        dfs = search_reference._DFS(c, max_depth, FUZZ_NODES)
        levels = [[""]] + [[] for _ in range(max_depth)]

        def on_word(depth):
            levels[depth].append(dfs.checker.word().text)

        if dfs.run(on_word):
            return levels, dfs.nodes
        max_depth -= 1


def stored_stack(stack: list[list[tuple[str, int]]]) -> list[list]:
    """A stack of blocks of (prefix, next letter) rows, deepest first, as a
    checkpoint stores it: one list of rows, top of the stack first."""
    return [list(row) for block in reversed(stack) for row in block]


def model_walk(c: ConstraintSet, valid: set[str], max_depth: int, target: Optional[int] = None,
               budget: Optional[int] = None, stack=None, nodes: int = 0, best: str = ""):
    """The walk of the search engine over the given valid words, from the
    root or from a stored stack: the node count, the longest word reached
    and, if the budget ends the walk, the stack a checkpoint stores then.

    An expansion takes up to MERGE_ROWS rows, whatever the budget, from the
    top block and then the blocks below it but not the root.  The valid
    children go on the stack as one block.  A search for a target length
    stops after the expansion that reaches it.  Where the budget ends inside
    an expansion, the rows with untried children go back as one block,
    below the children of the rows tried.  A stored stack goes back as one
    block per length, the deepest on top."""
    if stack is None:
        stack = [[("", 0)]]
    else:
        stack = [[tuple(row) for row in run] for _, run in groupby(stack, key=lambda row: len(row[0]))][::-1]
    base = c.alphabet_size
    while stack:
        if budget is not None and nodes >= budget:
            return nodes, best, stored_stack(stack)
        rows = []
        while stack and len(rows) < MERGE_ROWS and (not rows or stack[-1][0][0]):
            block = stack.pop()
            k = min(len(block), MERGE_ROWS - len(rows))
            if k < len(block):
                stack.append(block[k:])
            rows += block[:k]
        children, rest = [], []
        for t, letter in rows:
            letters = "012"[: base if t or not c.complement_closed else 1]
            for i in range(letter, len(letters)):
                if nodes == budget:
                    rest.append((t, i))
                    break
                nodes += 1
                if t + letters[i] in valid:
                    children.append((t + letters[i], 0))
        if rest:
            stack.append(rest)
        if children:
            best = max(best, children[0][0], key=len)
            if target is not None and len(best) >= target:
                return nodes, best, None
            children = [row for row in children if len(row[0]) < max_depth]
            if children:
                stack.append(children)
    return nodes, best, None


def test_engine_matches_oracles_on_random_constraints(tmp_path, monkeypatch):
    # seeded constraint sets: counts, longest word, extendable cores and
    # target searches against the oracles above, and every search
    # interrupted at two budgets, checkpointed and resumed.  Each checkpoint
    # is read back at once, so it need not reach the disk: fsync alone would
    # cost milliseconds for each of several hundred
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    rng = random.Random(11)
    path = str(tmp_path / "state.json")
    for _ in range(200):
        c, max_depth = fuzz_constraints(rng)
        levels, nodes = oracle_levels(c, max_depth)
        max_depth = len(levels) - 1
        factor = 2 if c.complement_closed else 1
        label = f"{c.describe()}@{max_depth}"

        counted = count_by_length(c, max_depth, budget=10**9)
        assert counted.complete and counted.nodes_explored == nodes, label
        assert counted.counts == [1] + [factor * len(level) for level in levels[1:]], label
        longest = max(n for n, level in enumerate(levels) if level)
        full = longest_word(c, max_depth=max_depth)
        assert (full.exhausted, full.max_length, full.witness.text, full.nodes_explored) == (
            True, longest, levels[longest][0], nodes), label
        if max_depth >= 3:
            pad = rng.randint(1, (max_depth - 1) // 2)
            core = max_depth - 2 * pad
            want = {t[pad : pad + core] for t in levels[max_depth]}
            if c.complement_closed:
                want |= {complement_text(t) for t in want}
            assert {w.text for w in extendable_cores(c, core, pad)} == want, label
        valid = {t for level in levels for t in level}
        searches = [(None, nodes)]
        if longest:
            target = rng.randint((longest + 1) // 2, longest)
            walked, witness, _ = model_walk(c, valid, max_depth, target)
            out = longest_word(c, max_depth=max_depth, target=target)
            assert (out.exhausted, out.max_length, out.witness.text, out.nodes_explored) == (
                True, target, witness, walked), label
            assert witness == levels[target][0], label
            searches.append((target, walked))
        # each search runs to a first budget, resumes to a second and then to
        # its end; every checkpoint holds the stack of model_walk
        for target, total in searches:
            state, resume = {}, None
            for budget in sorted(rng.sample(range(1, total), min(2, total - 1))):
                out = longest_word(c, budget=budget, max_depth=max_depth, target=target, checkpoint_path=path,
                                   resume_from=resume)
                walked, best, stack = model_walk(c, valid, max_depth, target, budget, **state)
                assert (out.exhausted, out.nodes_explored, out.witness.text) == (stack is None, walked, best), (
                    label, target, budget)
                if stack is None:  # the target is reached before the budget ends
                    resume = None
                    break
                with open(path) as fh:
                    saved = json.load(fh)
                assert (saved["nodes"], saved["best_witness"], saved["stack"]) == (budget, best, stack), (
                    label, target, budget)
                state, resume = {"stack": stack, "nodes": budget, "best": best}, path
            if resume:
                out = longest_word(c, max_depth=max_depth, target=target, resume_from=path)
                walked, best, _ = model_walk(c, valid, max_depth, target, **state)
                assert (out.exhausted, out.nodes_explored, out.witness.text) == (True, walked, best), (label, target)
                if target is None:
                    assert (walked, best) == (nodes, levels[longest][0]), label
