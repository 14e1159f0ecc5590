"""Reference search engine for the tests: the letter-by-letter incremental
checker and depth-first driver that `antisquares.search` replaced with its
chunk walk.  Every push costs a few numpy calls, so it is slow, but each
constraint is checked on exactly one word at a time; the tests compare the
chunk walk against it tree for tree.  Also a letter-at-a-time backtracking
enumerator of the squarefree ternary words, the word oracle of the
morphism, repetition and Fibonacci tests.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

import numpy as np

from antisquares.search import ConstraintSet
from antisquares.words import Word

CHECKPOINT_MAGIC = "antisquares-dfs-checkpoint-v2"


def squarefree_ternary_words(length: int) -> Iterator[Word]:
    """The squarefree ternary words of the given length, lexicographically
    and lazily: a prefix grows by the letters 0, 1, 2 in turn, and a letter
    is kept iff no suffix of the longer prefix is a square."""

    def extend(text: str) -> Iterator[Word]:
        if len(text) == length:
            yield Word(text, 3)
            return
        for a in "012":
            t = text + a
            if all(t[-2 * p : -p] != t[-p:] for p in range(1, len(t) // 2 + 1)):
                yield from extend(t)

    return extend("")


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

