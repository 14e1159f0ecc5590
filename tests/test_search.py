import json
import os
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antisquares.repetitions import PowerBound
from antisquares.search import (
    BudgetExceeded,
    ConstraintSet,
    IncrementalChecker,
    check_word,
    count_by_length,
    extendable_cores,
    longest_word,
)
from antisquares.words import Word

SQUAREFREEISH = ConstraintSet(power=PowerBound.parse("2"))
GOOD = ConstraintSet(max_antisquare_order=2)


def brute_ok(c: ConstraintSet, t: str) -> bool:
    return check_word(c, Word(t, c.alphabet_size))[0]


def test_constraint_set_requires_something():
    with pytest.raises(ValueError):
        ConstraintSet()


def test_constraint_set_describe():
    c = ConstraintSet(power=PowerBound.parse("7/3+"), max_antisquare_order=4)
    assert "7/3+" in c.describe()
    assert "antisquare-order<4" in c.describe()


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


def test_target_short_circuits():
    out = longest_word(GOOD, target=20, max_depth=64)
    assert out.exhausted
    assert out.max_length >= 20


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


def test_checkpoint_rejects_other_constraints(tmp_path):
    path = str(tmp_path / "state.json")
    longest_word(GOOD, budget=100, max_depth=32, checkpoint_path=path)
    with pytest.raises(ValueError):
        longest_word(SQUAREFREEISH, max_depth=32, resume_from=path)
    with pytest.raises(ValueError, match="max_depth"):
        longest_word(GOOD, max_depth=16, resume_from=path)
    with open(path) as fh:
        state = json.load(fh)
    corrupt = [
        {k: v for k, v in state.items() if k != "best_witness"},
        {k: v for k, v in state.items() if k != "nodes"},
        {**state, "best_witness": "0110"},  # an antisquare of order 2
        {**state, "best_witness": "012"},
        {**state, "letters": 7},
        {**state, "next_letter": ["0"] * len(state["next_letter"])},
    ]
    for bad in corrupt:
        with open(path, "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(ValueError, match="corrupt"):
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
