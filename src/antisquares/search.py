"""Exhaustive constrained search over words of two or three letters, one
chunk of prefixes at a time.

The words satisfying a ConstraintSet form a prefix-closed tree.  The engine
walks it depth first, but the unit of the walk is a chunk: at most CHUNK
prefixes of one length that are next to each other in lexicographic order.
Each row of a chunk carries the state of its frontier:

  * for every distance p, the maximal equality run and inequality run
    ending at the frontier (int16 while max_depth <= 32767).  An equality
    run of length r at distance p means the last r+p letters have period p
    (power bounds); an inequality run of length >= k at distance k means
    the last 2k letters are an antisquare of order k;
  * the state of the forbidden-factor automaton;
  * the last 62 letters as an integer and the distinct antisquares met so
    far as a fixed-width int64 row of tags (1<<k) | last k letters.  Orders
    above 62 get exact negative ids from the engine's intern table.
    Antisquares are binary: rows over three letters have no inequality
    runs, suffix or tags.

One expansion handles every child (one per letter) of up to CHUNK rows with
a few array operations.  A child breaks a bound only where its parent's run
is one short of it and the child's letter extends that run, so the power
mask, the order-cap mask and the new antisquares come from the few such
(row, distance) pairs of the parent; the automaton lookup and the new-tag
membership test finish the checks.  Then the survivors' rows are built
(match, run update) and pushed back, the children of each chunk as chunks
of their own, lowest on top.  So the chunks of each length are expanded in
lexicographic order, and the first row of the first chunk to reach a length
is the least valid word of that length.

The trees of few distinct antisquares are narrow and deep, so a chunk often
holds a few rows, and the cost of an expansion is mostly the fixed cost of
its array calls.  One expansion therefore takes the chunk on top of the
stack together with the chunks below it, whatever their lengths, while their
rows fit in CHUNK; shorter rows are padded so that they never reach a bound.
This keeps the order above.  Lengths never increase from the top of a
depth-first stack down, so the chunks below the top one are the ones the
walk would expand next, in that order.  The walk has already reached the
top chunk's length d, so a new length can only be d + 1, and the chunks of
length d come first.  So each expansion hands on the valid children of its
chunks one chunk at a time, and the first of them to reach a new length is
still the least word of that length.

A node is one attempted child, as in a letter-by-letter search, so a closed
tree costs the same node count however the rows are grouped.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .antisquares import inventory
from .enumeration import build_avoidance_automaton
from .repetitions import PowerBound, satisfies
from .words import Word, complement_text

DEFAULT_SEARCH_BUDGET = 10**8
DEFAULT_COUNT_BUDGET = 10**7

CHECKPOINT_MAGIC = "antisquares-dfs-checkpoint-v3"
# nodes between two checkpoint writes
CHECKPOINT_EVERY = 5_000_000

# Prefixes per chunk, and rows per expansion.  A target search expands one
# chunk at a time, so its node count depends on this size, and a checkpoint
# holds chunks of at most this many rows.
CHUNK = 64
_TAG_ORDER = 62  # largest antisquare order whose tag (1<<k) | last k letters fits an int64
_SUFFIX_MASK = (1 << _TAG_ORDER) - 1


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
        if self.alphabet_size not in (2, 3):
            raise ValueError(f"alphabet_size must be 2 or 3, got {self.alphabet_size}")
        if self.alphabet_size == 3 and (self.max_antisquare_order, self.max_distinct_antisquares) != (None, None):
            raise ValueError("antisquare constraints need the binary alphabet")
        if (
            self.power is None
            and self.max_antisquare_order is None
            and self.max_distinct_antisquares is None
            and not self.forbidden_factors
        ):
            raise ValueError("at least one constraint is required")
        if "" in self.forbidden_factors:
            raise ValueError("a forbidden factor must be nonempty")
        if not set("".join(self.forbidden_factors)) <= set("012"[: self.alphabet_size]):
            raise ValueError(f"a forbidden factor uses a letter outside the alphabet of size {self.alphabet_size}")

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
        if self.alphabet_size == 3:
            parts.append("ternary")
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
    # steps of the walk made by this call, each expanding up to CHUNK rows;
    # unlike nodes_explored, not carried over by a checkpoint
    expansions: int
    wall_time: float = 0.0


@dataclass
class CountOutcome:
    counts: list[int]
    complete: bool
    nodes_explored: int
    expansions: int
    wall_time: float = 0.0


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


class _Rows:
    """Prefixes of one length d, one per row, with their frontier state.

    back (R, d) holds the letters newest first, so that column p-1 of it and
    of eq and ne is about the letter p back from the frontier.  eq and ne
    hold the equality and inequality runs at distances 1..min(d, width); the
    engine's width leaves out the distances at which no word up to max_depth
    can break a bound.  While d <= width the last column, distance d, is 0:
    no two letters of the prefix are that far apart.  state (R,) holds
    automaton states; suffix (R,) the last letters as an integer, newest in
    bit 0; tags (R, W) distinct-antisquare ids, the first ntags (R,) of them
    in use; next (R,) the least letter not yet tried below each prefix.  A
    field whose constraint is absent is None.
    """

    __slots__ = ("back", "eq", "ne", "state", "suffix", "tags", "ntags", "next")

    def __init__(self, back, eq, ne, state, suffix, tags, ntags, next_letter):
        self.back, self.eq, self.ne, self.state = back, eq, ne, state
        self.suffix, self.tags, self.ntags, self.next = suffix, tags, ntags, next_letter

    def __len__(self) -> int:
        return len(self.back)

    def take(self, index) -> _Rows:
        return _Rows(*[None if a is None else a[index] for a in (
            self.back, self.eq, self.ne, self.state, self.suffix, self.tags, self.ntags, self.next)])

    def part(self, start: int, stop: int, d: int) -> _Rows:
        """Rows start:stop as prefixes of length d, as views: the letters and
        runs past distance d are dropped."""
        rows = slice(start, stop)
        return _Rows(
            *[None if a is None else a[rows, :d] for a in (self.back, self.eq, self.ne)],
            *[None if a is None else a[rows] for a in (self.state, self.suffix, self.tags, self.ntags, self.next)],
        )

    def letters(self) -> np.ndarray:
        """The prefixes, first letter first (a view)."""
        return self.back[:, ::-1]



def _texts(letters: np.ndarray) -> list[str]:
    """The rows of a 2-d array of letters as strings."""
    d = letters.shape[1]
    flat = (letters + 48).tobytes().decode()
    return [flat[i : i + d] for i in range(0, len(flat), d)] if d else [""] * len(letters)


def _merge(groups: list[_Rows]) -> _Rows:
    """The rows of several chunks as one, the deepest chunk first.  Shorter
    prefixes are padded with runs of -1, which reach no bound (an edge can
    be 0) and grow into the 0 that starts a child's new distance, and with
    the letter 2, which no check reads."""
    first, size = groups[0], sum(len(g.back) for g in groups)
    back = np.full((size, first.back.shape[1]), 2, np.uint8)
    eq = None if first.eq is None else np.full((size, first.eq.shape[1]), -1, first.eq.dtype)
    ne = None if first.ne is None else np.full((size, first.ne.shape[1]), -1, first.ne.dtype)
    start = 0
    for g in groups:
        stop = start + len(g.back)
        back[start:stop, : g.back.shape[1]] = g.back
        if eq is not None:
            eq[start:stop, : g.eq.shape[1]] = g.eq
        if ne is not None:
            ne[start:stop, : g.ne.shape[1]] = g.ne
        start = stop

    def concatenate(name):
        return None if getattr(first, name) is None else np.concatenate([getattr(g, name) for g in groups])

    return _Rows(back, eq, ne, *map(concatenate, ("state", "suffix", "tags", "ntags", "next")))


class _DFS:
    """Depth-first walk over chunks of same-length prefixes."""

    def __init__(self, c: ConstraintSet, max_depth: int, budget: int):
        self.c = c
        self.base = c.alphabet_size  # children per row
        self.letter = np.tile(np.arange(self.base, dtype=np.uint8), CHUNK)  # the letter of child i
        self.max_depth = max_depth
        self.budget = budget
        self.nodes = 0
        self.expansions = 0
        self.first_letter_limit = 1 if c.complement_closed else self.base
        # longest valid word reached so far; a checkpoint carries it, since a
        # resumed run never revisits it
        self.best_text = ""
        dtype = np.int16 if max_depth <= np.iinfo(np.int16).max else np.int32
        distances = np.arange(1, max_depth + 1, dtype=dtype)
        # a child gets an antisquare of order k where its parent's inequality
        # run at distance k is k - 1 and the child's letter extends it; no
        # word up to max_depth has an order above max_depth // 2, so rows keep
        # the inequality runs of those distances only
        self.ne_edge = distances - 1
        self.ne_width = max_depth // 2
        if c.power is not None:
            # runs never reach max_depth, so clipping there keeps every comparison
            min_run = np.array(
                [min(c.power.min_violating_run(p), max_depth) for p in range(1, max_depth + 1)], dtype=dtype
            )
            self.eq_edge = min_run - 1  # likewise for the equality runs and the power bound
            # a word of length L can break the bound only at distances p with
            # p + min_run <= L, and p + min_run grows with p: check a prefix,
            # and keep the equality runs of the distances that ever can
            self.power_reach = np.searchsorted(distances + min_run.astype(np.int64), np.arange(max_depth + 2), "right")
            self.eq_width = int(self.power_reach[max_depth])
        self.transitions = None
        if c.forbidden_factors:
            automaton = build_avoidance_automaton(sorted(c.forbidden_factors), self.base)
            self.transitions = np.array(automaton.transitions, dtype=np.int32).reshape(-1, self.base)
        self.interned: dict[bytes, int] = {}  # antisquares of order > _TAG_ORDER -> negative ids
        antisquares = c.max_antisquare_order is not None or c.max_distinct_antisquares is not None
        counted = c.max_distinct_antisquares is not None
        self.root = _Rows(
            np.zeros((1, 0), np.uint8),
            np.zeros((1, 0), dtype) if c.power is not None else None,
            np.zeros((1, 0), dtype) if antisquares else None,
            np.zeros(1, np.int32) if c.forbidden_factors else None,
            np.zeros(1, np.int64) if counted else None,
            np.zeros((1, c.max_distinct_antisquares), np.int64) if counted else None,
            np.zeros(1, np.int64) if counted else None,
            np.zeros(1, np.uint8),
        )
        self.stack: list[_Rows] = [self.root] if max_depth > 0 else []

    def _step(self, rows: _Rows, tried: np.ndarray) -> tuple[_Rows, np.ndarray]:
        """The valid children among the tried ones, in lexicographic order,
        and the row of each one's parent; child base*i + a appends letter a
        to row i.

        The checks read the parent's runs: a child reaches a bound at
        distance p only where its parent's run there is one short of it and
        the child's letter extends that run, so only those few (row,
        distance) pairs are looked at.  The survivors' rows are built last.
        """
        c, base = self.c, self.base
        R, d = rows.back.shape
        n, half = base * R, (d + 1) // 2
        back = rows.back
        good = tried.copy()
        state = None
        if rows.eq is not None:
            reach = self.power_reach[d + 1]
            r, p = np.divmod((rows.eq[:, :reach] >= self.eq_edge[:reach]).ravel().nonzero()[0], reach)
            good[base * r + back[r, p]] = False  # the child equal to the letter p+1 back
        if rows.state is not None:
            state = self.transitions[rows.state].reshape(n)
            good &= state >= 0
        if rows.ne is not None:
            # antisquares of order k+1 ending at a child: the one whose letter
            # differs from the letter k+1 back (antisquare rows are binary)
            r, k = np.divmod((rows.ne[:, :half] >= self.ne_edge[:half]).ravel().nonzero()[0], half)
            child = 2 * r + 1 - back[r, k]
            if c.max_antisquare_order is not None:
                good[child[k >= c.max_antisquare_order - 1]] = False
            if rows.tags is not None:
                count, child, ids = self._count_antisquares(rows, r, k, child)
                good &= count <= c.max_distinct_antisquares
        alive = good.nonzero()[0]
        parent, letter = np.divmod(alive, base)
        letter = letter.astype(np.uint8)
        S = len(alive)
        grown = np.empty((S, d + 1), np.uint8)
        grown[:, 0] = letter
        grown[:, 1:] = back[parent]
        match = grown[:, 1:] == letter[:, None]
        eq = None if rows.eq is None else self._grow(rows.eq, parent, match, self.eq_width)
        ne = None if rows.ne is None else self._grow(rows.ne, parent, np.logical_not(match, out=match), self.ne_width)
        suffix = tags = ntags = None
        if state is not None:
            state = state[alive]
        if rows.tags is not None:
            suffix = ((rows.suffix[parent] << 1) | letter) & _SUFFIX_MASK
            tags, ntags = rows.tags[parent], count[alive]
            if len(child):
                # the new ids of each surviving child go to its next free slots
                keep = good[child]
                child, ids = child[keep], ids[keep]
                order = child.argsort(kind="stable")
                child, ids = child[order], ids[order]
                row = alive.searchsorted(child)
                rank = np.arange(len(child)) - child.searchsorted(child)
                tags[row, rows.ntags[child >> 1] + rank] = ids
        return _Rows(grown, eq, ne, state, suffix, tags, ntags, np.zeros(S, np.uint8)), parent

    @staticmethod
    def _grow(runs: np.ndarray, parent: np.ndarray, extend: np.ndarray, width: int) -> np.ndarray:
        """The children's runs: a parent's run plus one where the child's
        letter extends it, else 0, and a new 0 column for the next distance
        while the row is narrower than width."""
        w = runs.shape[1]
        extended = runs[parent]
        extended += 1
        if w == width:
            extended *= extend[:, :w]
            return extended
        grown = np.empty((len(parent), w + 1), runs.dtype)
        np.multiply(extended, extend[:, :w], out=grown[:, :w])
        grown[:, w] = 0
        return grown

    def _count_antisquares(self, rows, r, k, child):
        """Given the antisquares of order k+1 that end at child (a child of
        row r), the number of distinct antisquares of every child and the
        (child, id) pairs of the ones new to it."""
        letter, order = child & 1, k + 1
        # the tag (1 << order) | the child's last `order` letters, newest in bit 0
        big = rows.back.shape[1] + 1 >= 2 * (_TAG_ORDER + 1)  # children long enough for a larger order
        bit = np.int64(1) << (np.minimum(order, _TAG_ORDER) if big else order)
        ids = bit | (((rows.suffix[r] << 1) | letter) & (bit - 1))
        if big:
            for i in (order > _TAG_ORDER).nonzero()[0].tolist():
                key = bytes([letter[i]]) + rows.back[r[i], : k[i]].tobytes()
                ids[i] = self.interned.setdefault(key, -1 - len(self.interned))
        new = ~(rows.tags[r] == ids[:, None]).any(axis=1)
        child, ids = child[new], ids[new]
        count = rows.ntags.repeat(2) + np.bincount(child, minlength=2 * len(rows))
        return count, child, ids

    def run(self, on_level: Optional[Callable[[np.ndarray], None]] = None, target: Optional[int] = None,
            checkpoint_path: Optional[str] = None) -> bool:
        """Walk the rest of the tree, chunks of each length in lexicographic order.

        One expansion takes the chunk on top of the stack and, unless target
        is set, the chunks below it while their rows fit in CHUNK and their
        children in the budget.  on_level(letters) gets the valid children of
        each of those chunks in turn, one word per row, all of one length and
        in lexicographic order.  Returns True iff the tree was closed within
        budget (or, with target set, a word of the target length was reached).
        """
        stack, base = self.stack, self.base
        since_checkpoint = 0
        while stack:
            room = self.budget - self.nodes
            if room <= 0:
                return False
            groups = [stack.pop()]
            size = len(groups[0])
            if target is None:
                # the chunks below are the ones the walk would expand next
                # (module docstring); add them while their rows fit in a
                # chunk and all their children in the budget, but never the
                # root, whose first letter may be limited
                while (stack and stack[-1].back.shape[1] and size + len(stack[-1]) <= CHUNK
                       and base * (size + len(stack[-1])) <= room):
                    groups.append(stack.pop())
                    size += len(groups[-1])
            rows = groups[0] if len(groups) == 1 else _merge(groups)
            d = rows.back.shape[1]
            if d and not np.count_nonzero(rows.next):
                tried, count = np.ones(base * len(rows), bool), base * len(rows)
            else:
                letter = self.letter[: base * len(rows)]
                tried = (letter >= rows.next.repeat(base)) & (letter < (self.first_letter_limit if d == 0 else base))
                count = int(np.count_nonzero(tried))
            if count > room:
                # the budget ends inside this chunk, which is then alone:
                # keep the rows with untried children, each with the first
                # letter not tried
                untried = np.flatnonzero(tried)[room:]
                tried[untried] = False
                first = untried[np.flatnonzero(np.diff(untried // base, prepend=-1))]
                rest = rows.take(first // base)
                rest.next = self.letter[first]
                stack.append(rest)
                count = room
            self.nodes += count
            self.expansions += 1
            since_checkpoint += count
            children, parent = self._step(rows, tried)
            # the children of each chunk, cut back to that chunk's length
            ends = parent.searchsorted(list(accumulate(len(g.back) for g in groups))).tolist()
            start, pieces = 0, []
            for g, end in zip(groups, ends):
                if end == start:
                    continue
                depth = g.back.shape[1] + 1
                kids = children.part(start, end, depth)
                start = end
                if on_level is not None:
                    on_level(kids.letters())
                if depth > len(self.best_text):
                    self.best_text = _texts(kids.letters()[:1])[0]
                if target is not None and depth >= target:
                    return True
                if depth < self.max_depth:
                    # copies: a view would keep its sibling pieces' rows alive
                    # (views raised the peak RSS of search-trees by 1.2 MB)
                    pieces += [kids] if len(kids) <= CHUNK else [
                        kids.take(np.arange(i, min(i + CHUNK, len(kids)))) for i in range(0, len(kids), CHUNK)]
            stack += reversed(pieces)  # lowest on top
            if checkpoint_path and since_checkpoint >= CHECKPOINT_EVERY:
                since_checkpoint = 0
                self.save_checkpoint(checkpoint_path)
        return True

    def save_checkpoint(self, path: str) -> None:
        """Write the search state atomically: a temporary file is made
        durable and then renamed over path.  The chunk stack is stored bottom
        first, each chunk as [prefix, next letter] rows."""
        state = {
            "magic": CHECKPOINT_MAGIC,
            "constraints": self.c.describe(),
            "max_depth": self.max_depth,
            "stack": [[[t, a] for t, a in zip(_texts(rows.letters()), rows.next.tolist())] for rows in self.stack],
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
        """Load a checkpoint; ValueError if it is not one of this format, was
        written under other constraints or another max_depth, or is corrupt."""
        with open(path) as fh:
            state = json.load(fh)  # malformed text raises a ValueError subclass
        if not isinstance(state, dict) or state.get("magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"not a search checkpoint file of format {CHECKPOINT_MAGIC}")
        if state.get("constraints") != self.c.describe():
            raise ValueError("checkpoint was produced under different constraints")
        if state.get("max_depth") != self.max_depth:
            raise ValueError(
                f"checkpoint was produced with max_depth {state.get('max_depth')}, not {self.max_depth}"
            )
        stack, nodes, best = state.get("stack"), state.get("nodes"), state.get("best_witness")

        def word(text) -> bool:
            return isinstance(text, str) and set(text) <= set("012"[: self.base])

        def chunk_ok(chunk) -> bool:
            if not (isinstance(chunk, list) and 1 <= len(chunk) <= CHUNK
                    and all(isinstance(row, list) and len(row) == 2 for row in chunk)):
                return False
            d = len(chunk[0][0]) if word(chunk[0][0]) else -1
            limit = self.first_letter_limit if d == 0 else self.base
            return 0 <= d < self.max_depth and all(
                word(t) and len(t) == d and (self.first_letter_limit > 1 or not t.startswith("1"))
                and type(a) is int and 0 <= a < limit for t, a in chunk
            ) and all(u[0] < v[0] for u, v in zip(chunk, chunk[1:]))  # rows strictly increase

        if not (
            isinstance(stack, list)
            and all(map(chunk_ok, stack))
            and word(best)
            and len(best) <= self.max_depth
            and type(nodes) is int
            and nodes >= 0
        ):
            raise ValueError("corrupt checkpoint")
        groups, position = self._replay([t for chunk in stack for t, _ in chunk] + [best])
        self.stack, i = [], 0
        for chunk in stack:
            rows = groups[len(chunk[0][0])].take(position[i : i + len(chunk)])
            rows.next = np.array([a for _, a in chunk], np.uint8)
            self.stack.append(rows)
            i += len(chunk)
        self.nodes = nodes
        self.best_text = best

    def _replay(self, texts: list[str]) -> tuple[dict[int, _Rows], list[int]]:
        """Rebuild the rows of the given prefixes through the same step.

        Returns the rows of each length and the position of every text among
        those of its length; ValueError if a prefix breaks the constraints.
        """
        order = sorted(range(len(texts)), key=lambda i: -len(texts[i]))
        lengths = np.array([len(texts[i]) for i in order])
        letters = np.zeros((len(texts), lengths[0]), np.uint8)
        for r, i in enumerate(order):
            letters[r, : lengths[r]] = np.frombuffer(texts[i].encode(), np.uint8) - 48
        rows = self.root.take(np.zeros(len(texts), np.intp))
        groups, position = {}, [0] * len(texts)
        for d in range(lengths[0] + 1):
            live = int(np.count_nonzero(lengths > d))
            if live < len(rows):
                groups[d] = rows.take(slice(live, None))
                for pos, r in enumerate(range(live, len(rows))):
                    position[order[r]] = pos
            if not live:
                break
            tried = np.zeros(self.base * live, bool)
            tried[self.base * np.arange(live) + letters[:live, d]] = True
            rows = self._step(rows.take(slice(0, live)), tried)[0]
            if len(rows) < live:
                raise ValueError("corrupt checkpoint: a stored prefix breaks the constraints")
        return groups, position


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
    was closed within budget.  With target set, the search stops at the
    first chunk that reaches that length (exhausted then just means "target
    reached").
    """
    start = time.monotonic()
    dfs = _DFS(c, max_depth, budget)
    if resume_from:
        dfs.restore(resume_from)
    done = dfs.run(target=target, checkpoint_path=checkpoint_path)
    if not done and checkpoint_path:
        dfs.save_checkpoint(checkpoint_path)
    return SearchOutcome(
        max_length=len(dfs.best_text),
        witness=Word(dfs.best_text, c.alphabet_size),
        exhausted=done,
        nodes_explored=dfs.nodes,
        expansions=dfs.expansions,
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
    start = time.monotonic()
    dfs = _DFS(c, n_max, budget)
    counts = [0] * (n_max + 1)
    counts[0] = 1  # empty word satisfies every factorial constraint

    def on_level(letters: np.ndarray) -> None:
        counts[letters.shape[1]] += len(letters)

    complete = dfs.run(on_level)
    if c.complement_closed:
        for i in range(1, n_max + 1):
            counts[i] *= 2
    return CountOutcome(counts, complete, dfs.nodes, dfs.expansions, time.monotonic() - start)


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

    def on_level(letters: np.ndarray) -> None:
        if letters.shape[1] == total:
            cores.update(_texts(letters[:, pad_len : pad_len + core_len]))

    complete = dfs.run(on_level)
    if not complete:
        raise BudgetExceeded("extendable_cores ran out of node budget; result would be unsound")
    out = {Word(t, c.alphabet_size) for t in cores}
    if c.complement_closed:
        out |= {Word(complement_text(t), c.alphabet_size) for t in cores}
    return out
