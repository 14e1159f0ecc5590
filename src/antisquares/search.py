"""Exhaustive constrained backtracking over binary words.

The engine maintains, for every distance p, the length of the maximal
equality run and the maximal inequality run ending at the frontier:

  * an equality run of length r at distance p means the last r+p letters
    form a factor with period p (power violations);
  * an inequality run of length >= k at distance k means the last 2k
    letters are an antisquare of order k.

Both arrays update in O(1) vectorized work per appended letter, so every
constraint is checked incrementally at the frontier.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .antisquares import inventory
from .repetitions import PowerBound, satisfies
from .words import Word, complement_text

DEFAULT_SEARCH_BUDGET = 10**8
DEFAULT_COUNT_BUDGET = 10**7

CHECKPOINT_MAGIC = "antisquares-dfs-checkpoint-v2"


class BudgetExceeded(Exception):
    """Raised when a search whose result would otherwise be unsound runs out
    of node budget."""


@dataclass(frozen=True)
class ConstraintSet:
    """Conjunction of constraints driving search and validation."""

    power: Optional[PowerBound] = None
    max_antisquare_order: Optional[int] = None  # forbid order >= this
    max_distinct_antisquares: Optional[int] = None  # allow at most this many
    forbidden_factors: frozenset[str] = frozenset()
    alphabet_size: int = 2

    def __post_init__(self):
        if (
            self.power is None
            and self.max_antisquare_order is None
            and self.max_distinct_antisquares is None
            and not self.forbidden_factors
        ):
            raise ValueError("at least one constraint is required")

    @property
    def complement_closed(self) -> bool:
        """True iff the constraint set is invariant under complement, which
        licenses the first-letter-0 symmetry reduction."""
        if self.alphabet_size != 2:
            return False
        return all(complement_text(f) in self.forbidden_factors for f in self.forbidden_factors)

    def describe(self) -> str:
        parts = []
        if self.power is not None:
            parts.append(f"power<{self.power}")
        if self.max_antisquare_order is not None:
            parts.append(f"antisquare-order<{self.max_antisquare_order}")
        if self.max_distinct_antisquares is not None:
            parts.append(f"distinct-antisquares<={self.max_distinct_antisquares}")
        if self.forbidden_factors:
            parts.append(f"forbidden={sorted(self.forbidden_factors)}")
        return " & ".join(parts)


@dataclass
class Violation:
    constraint: str
    witness: Word


@dataclass
class SearchOutcome:
    max_length: int
    witness: Word
    exhausted: bool
    nodes_explored: int
    wall_time: float = 0.0


@dataclass
class CountOutcome:
    counts: list[int]
    complete: bool
    nodes_explored: int


def check_word(c: ConstraintSet, w: Word) -> tuple[bool, Optional[Violation]]:
    """Full (non-incremental) validation of a word against a constraint set.

    On failure reports which constraint broke and a witness factor.
    """
    text = w.text
    for f in c.forbidden_factors:
        if f in text:
            return False, Violation("forbidden-factor", Word(f, c.alphabet_size))
    if c.power is not None:
        ok, rep = satisfies(w, c.power)
        if not ok:
            return False, Violation(
                f"power-bound {c.power}", w[rep.start : rep.start + rep.length]
            )
    if c.max_antisquare_order is not None or c.max_distinct_antisquares is not None:
        inv = inventory(w)
        if c.max_antisquare_order is not None and inv.max_order >= c.max_antisquare_order:
            worst = max(inv.distinct, key=len)
            return False, Violation("antisquare-order", worst)
        if c.max_distinct_antisquares is not None and inv.count > c.max_distinct_antisquares:
            worst = max(inv.distinct, key=len)
            return False, Violation("antisquare-count", worst)
    return True, None


class IncrementalChecker:
    """Frontier validator: push/pop letters, all constraints checked on push.

    Per-worker object; not shareable.
    """

    def __init__(self, c: ConstraintSet, max_depth: int):
        if c.alphabet_size != 2:
            raise ValueError("the incremental engine works over the binary alphabet")
        self.c = c
        self.max_depth = max_depth
        self.letters: list[int] = []
        self.arr = np.zeros(max_depth, dtype=np.uint8)
        # run arrays per depth: row L holds runs for the length-L word
        self.eq = np.zeros((max_depth + 1, max_depth), dtype=np.int32)
        self.ne = np.zeros((max_depth + 1, max_depth), dtype=np.int32)
        self.p_arr = np.arange(1, max_depth + 1, dtype=np.int32)
        if c.power is not None:
            self.min_run = np.array(
                [c.power.min_violating_run(p) for p in range(1, max_depth + 1)],
                dtype=np.int32,
            )
        else:
            self.min_run = None
        self.distinct: set[str] = set()
        self._added: list[list[str]] = []
        by_len: dict[int, set[tuple[int, ...]]] = {}
        for f in c.forbidden_factors:
            by_len.setdefault(len(f), set()).add(tuple(ord(ch) - 48 for ch in f))
        self.forbidden_by_len = sorted(by_len.items())

    def push(self, letter: int) -> bool:
        """Append a letter; True iff the extended word satisfies everything.
        The letter is kept either way; call pop() to undo."""
        L = len(self.letters) + 1
        self.letters.append(letter)
        self.arr[L - 1] = letter
        added: list[str] = []
        self._added.append(added)
        if L == 1:
            return self._check_forbidden(L)
        m = L - 1
        match = self.arr[L - 2 :: -1][:m] == letter
        prev_eq = self.eq[L - 1, :m]
        prev_ne = self.ne[L - 1, :m]
        cur_eq = self.eq[L, :m]
        cur_ne = self.ne[L, :m]
        np.add(prev_eq, 1, out=cur_eq)
        np.multiply(cur_eq, match, out=cur_eq)
        np.add(prev_ne, 1, out=cur_ne)
        np.multiply(cur_ne, ~match, out=cur_ne)

        ok = True
        if self.min_run is not None and (cur_eq >= self.min_run[:m]).any():
            ok = False
        half = L // 2
        if ok and half >= 1:
            cap = self.c.max_antisquare_order
            if cap is not None:
                lo = cap - 1
                if lo < half and (cur_ne[lo:half] >= self.p_arr[lo:half]).any():
                    ok = False
            if ok and self.c.max_distinct_antisquares is not None:
                hits = np.flatnonzero(cur_ne[:half] >= self.p_arr[:half])
                if len(hits):
                    letters = self.letters
                    for k in (hits + 1).tolist():
                        value = "".join(map(str, letters[L - 2 * k :]))
                        if value not in self.distinct:
                            self.distinct.add(value)
                            added.append(value)
                    if len(self.distinct) > self.c.max_distinct_antisquares:
                        ok = False
        if ok:
            ok = self._check_forbidden(L)
        return ok

    def _check_forbidden(self, L: int) -> bool:
        letters = self.letters
        for flen, factors in self.forbidden_by_len:
            if flen <= L and tuple(letters[L - flen :]) in factors:
                return False
        return True

    def pop(self) -> None:
        self.letters.pop()
        for value in self._added.pop():
            self.distinct.discard(value)

    def word(self) -> Word:
        return Word("".join(map(str, self.letters)), 2)


class _DFS:
    """Shared depth-first driver over the incremental checker."""

    def __init__(self, c: ConstraintSet, max_depth: int, budget: int):
        self.c = c
        self.checker = IncrementalChecker(c, max_depth)
        self.max_depth = max_depth
        self.budget = budget
        self.nodes = 0
        self.next_letter = [0] * (max_depth + 1)
        self.depth = 0
        self.first_letter_limit = 1 if c.complement_closed else c.alphabet_size
        # longest valid word reached so far (kept by longest_word); a
        # checkpoint carries it, since a resumed run never revisits it
        self.best_text = ""

    def run(self, on_word, target: Optional[int] = None,
            checkpoint_path: Optional[str] = None, checkpoint_every: int = 5_000_000) -> bool:
        """Explore the whole tree in lexicographic order.

        on_word(depth) is called for every valid word reached.  Returns True
        iff the tree was fully explored within budget (or the target depth
        was reached, when target is set).
        """
        checker = self.checker
        next_letter = self.next_letter
        since_checkpoint = 0
        while True:
            if self.depth == self.max_depth:
                a = 2  # force backtrack at the depth cap
            else:
                a = next_letter[self.depth]
            limit = self.first_letter_limit if self.depth == 0 else self.c.alphabet_size
            if a >= limit:
                if self.depth == 0:
                    return True
                checker.pop()
                self.depth -= 1
                continue
            # budget check precedes the next_letter advance so that an
            # aborted node is re-attempted after a checkpoint resume
            if self.nodes >= self.budget:
                return False
            next_letter[self.depth] += 1
            self.nodes += 1
            since_checkpoint += 1
            ok = checker.push(a)
            if ok:
                self.depth += 1
                next_letter[self.depth] = 0
                on_word(self.depth)
                if target is not None and self.depth >= target:
                    return True
            else:
                checker.pop()
            if checkpoint_path and since_checkpoint >= checkpoint_every:
                since_checkpoint = 0
                self.save_checkpoint(checkpoint_path)

    def save_checkpoint(self, path: str) -> None:
        """Write the search state atomically: a temporary file is made
        durable and then renamed over path."""
        state = {
            "magic": CHECKPOINT_MAGIC,
            "constraints": self.c.describe(),
            "max_depth": self.max_depth,
            "letters": "".join(map(str, self.checker.letters)),
            "next_letter": self.next_letter[: self.depth + 1],
            "nodes": self.nodes,
            "best_witness": self.best_text,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def restore(self, path: str) -> None:
        """Load a checkpoint; ValueError if it is not one, was written
        under other constraints or another max_depth, or is corrupt."""
        with open(path) as fh:
            state = json.load(fh)  # malformed text raises a ValueError subclass
        if not isinstance(state, dict) or state.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError("not a search checkpoint file")
        if state.get("constraints") != self.c.describe():
            raise ValueError("checkpoint was produced under different constraints")
        if state.get("max_depth") != self.max_depth:
            raise ValueError(
                f"checkpoint was produced with max_depth {state.get('max_depth')}, not {self.max_depth}"
            )
        letters, next_letter = state.get("letters"), state.get("next_letter")
        nodes, best = state.get("nodes"), state.get("best_witness")

        def valid(text) -> bool:
            if not isinstance(text, str) or len(text) > self.max_depth or not set(text) <= {"0", "1"}:
                return False
            checker = IncrementalChecker(self.c, self.max_depth)
            return all(checker.push(ord(ch) - 48) for ch in text)

        if not (
            valid(letters)
            and valid(best)
            and isinstance(next_letter, list)
            and len(next_letter) == len(letters) + 1
            and all(type(a) is int and 0 <= a <= self.c.alphabet_size for a in next_letter)
            and type(nodes) is int
            and nodes >= 0
        ):
            raise ValueError("corrupt checkpoint")
        for ch in letters:
            self.checker.push(ord(ch) - 48)
        self.depth = len(letters)
        self.next_letter[: self.depth + 1] = next_letter
        self.nodes = nodes
        self.best_text = best


def longest_word(
    c: ConstraintSet,
    budget: int = DEFAULT_SEARCH_BUDGET,
    max_depth: int = 512,
    target: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> SearchOutcome:
    """Exact maximum word length under the constraints, with a witness.

    The witness is the lexicographically least maximal-length word (starting
    with 0 under the complement symmetry).  exhausted=True iff the whole tree
    was closed within budget.  With target set, the search stops as soon as a
    word of that length is found (exhausted then just means "target reached").
    """
    start = time.monotonic()
    dfs = _DFS(c, max_depth, budget)
    if resume_from:
        dfs.restore(resume_from)

    def on_word(depth: int) -> None:
        if depth > len(dfs.best_text):
            dfs.best_text = dfs.checker.word().text

    done = dfs.run(on_word, target=target, checkpoint_path=checkpoint_path)
    if not done and checkpoint_path:
        dfs.save_checkpoint(checkpoint_path)
    return SearchOutcome(
        max_length=len(dfs.best_text),
        witness=Word(dfs.best_text, c.alphabet_size),
        exhausted=done,
        nodes_explored=dfs.nodes,
        wall_time=time.monotonic() - start,
    )


def count_by_length(
    c: ConstraintSet, n_max: int, budget: int = DEFAULT_COUNT_BUDGET
) -> CountOutcome:
    """Exact number of words of each length 0..n_max satisfying c.

    Under the complement symmetry only words starting with 0 are explored and
    counts are doubled.  If the budget runs out the series is flagged
    incomplete (counts are then partial and unreliable).
    """
    dfs = _DFS(c, n_max, budget)
    counts = [0] * (n_max + 1)
    counts[0] = 1  # empty word satisfies every factorial constraint

    def on_word(depth: int) -> None:
        counts[depth] += 1

    complete = dfs.run(on_word)
    if c.complement_closed:
        for i in range(1, n_max + 1):
            counts[i] *= 2
    return CountOutcome(counts, complete, dfs.nodes)


def extendable_cores(
    c: ConstraintSet, core_len: int, pad_len: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> set[Word]:
    """All words y of length core_len such that some x·y·z satisfies c with
    |x| = |z| = pad_len.

    The constraint languages used here have polynomial growth, so direct
    enumeration of all valid words of length core_len + 2*pad_len is cheap.
    Raises BudgetExceeded rather than returning an unsound partial set.
    """
    if core_len < 1 or pad_len < 1:
        raise ValueError("core_len and pad_len must be >= 1")
    total = core_len + 2 * pad_len
    dfs = _DFS(c, total, budget)
    cores: set[str] = set()

    def on_word(depth: int) -> None:
        if depth == total:
            text = "".join(map(str, dfs.checker.letters))
            cores.add(text[pad_len : pad_len + core_len])

    complete = dfs.run(on_word)
    if not complete:
        raise BudgetExceeded("extendable_cores ran out of node budget; result would be unsound")
    out = {Word(t, c.alphabet_size) for t in cores}
    if c.complement_closed:
        out |= {Word(complement_text(t), c.alphabet_size) for t in cores}
    return out
