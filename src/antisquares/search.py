"""Exhaustive constrained search over words of two or three letters, many
prefixes at a time.

The words satisfying a ConstraintSet form a prefix-closed tree.  The engine
walks it depth first over a stack of blocks: the valid children of one
expansion, rows of one array with a length per row.  Each row carries the
state of its frontier:

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

One expansion handles every child (one per letter) of many rows with a few
array operations.  A child breaks a bound only where its parent's run is one
short of it and the child's letter extends that run, so the power mask, the
order-cap mask and the new antisquares come from the few such (row,
distance) pairs of the parent; the automaton lookup and the new-tag
membership test finish the checks.  Then the survivors' rows are built
(match, run update) in the order of their parents, and go on the stack as
one block.  Rows of several lengths share an array: a row's letters past its
length match no letter, so its runs there stay 0.

The rows taken from the stack are sorted deepest first, so their children
are too: the front rows of the top block are the top of the stack, and the
deepest children, the only ones that can be a new longest word, reach a
target or have length max_depth, are the first rows of their block.  The
rows of each length are expanded in lexicographic order, and the first row
to reach a length is the least valid word of that length.

A node is one attempted child, so a closed tree costs the same node count
however the rows are grouped, and the cost of an expansion is mostly the
fixed cost of its array calls: an expansion takes up to MERGE_ROWS rows,
from the top block and then the blocks below it, whatever their lengths.
This keeps the order above.  Lengths never increase from the top of a
depth-first stack down, so the rows below are the ones the walk would expand
next, in that order, and a new length can only be the top row's length plus
one.  So read from the top down, the stack is one list of rows, the longest
first and those of each length in lexicographic order: a checkpoint stores
it as that list.  A search for a target length walks the same way and stops
after the expansion that reaches it, and a node budget only stops the walk,
inside the expansion that reaches it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .antisquares import AntisquareInventory, inventory
from .enumeration import build_avoidance_automaton
from .repetitions import PowerBound, satisfies
from .words import Word, complement_text

DEFAULT_SEARCH_BUDGET = 10**8
DEFAULT_COUNT_BUDGET = 10**7

CHECKPOINT_MAGIC = "antisquares-dfs-checkpoint-v4"
# nodes between two checkpoint writes
CHECKPOINT_EVERY = 5_000_000

# Rows per expansion.  Larger expansions cost less per node, but their rows
# and children take more memory while they are built.
MERGE_ROWS = 512
_TAG_ORDER = 62  # largest antisquare order whose tag (1<<k) | last k letters fits an int64
_SUFFIX_MASK = (1 << _TAG_ORDER) - 1


class BudgetExceeded(Exception):
    """Raised when a search whose result would otherwise be unsound runs out
    of node budget."""


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed: not one of this format, written
    under other constraints or another max_depth, or corrupt."""


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
        if self.max_antisquare_order is not None and self.max_antisquare_order < 1:
            raise ValueError(f"max_antisquare_order must be >= 1, got {self.max_antisquare_order}")
        if self.max_distinct_antisquares is not None and self.max_distinct_antisquares < 0:
            raise ValueError(f"max_distinct_antisquares must be >= 0, got {self.max_distinct_antisquares}")
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
    # steps of the walk made by this call, each expanding up to MERGE_ROWS
    # rows from the blocks on top of the stack; unlike nodes_explored, not
    # carried over by a checkpoint
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
        violation = antisquare_violation(c, inventory(w))
        if violation is not None:
            return False, violation
    return True, None


def antisquare_violation(c: ConstraintSet, inv: AntisquareInventory) -> Optional[Violation]:
    """The antisquare bound of c, the order cap first, that a word with
    the antisquare inventory inv breaks, with its longest antisquare as
    witness; None if it breaks neither."""
    if c.max_antisquare_order is not None and inv.max_order >= c.max_antisquare_order:
        return Violation("antisquare-order", max(inv.distinct, key=len))
    if c.max_distinct_antisquares is not None and inv.count > c.max_distinct_antisquares:
        return Violation("antisquare-count", max(inv.distinct, key=len))
    return None


class _Rows:
    """Prefixes, one per row, with their frontier state.

    back (R, W) holds the letters newest first, so that column p-1 of it and
    of eq and ne is about the letter p back from the frontier; depth (R,)
    is the length of each prefix, at most W, and past it a row's letters
    are 255, which equals no letter.  eq and ne hold the equality and
    inequality runs at distances 1..min(W, width); the engine's width leaves
    out the distances at which no word up to max_depth can break a bound.
    From distance depth on the runs are 0: no two letters of the prefix are
    that far apart.  state (R,) holds automaton states; suffix (R,) the last
    letters as an integer, newest in bit 0; tags (R, T) distinct-antisquare
    ids, the first ntags (R,) of them in use; next (R,) the least letter not
    yet tried below each prefix.  A field whose constraint is absent is
    None.
    """

    __slots__ = ("back", "eq", "ne", "state", "suffix", "tags", "ntags", "next", "depth")

    def __init__(self, back, eq, ne, state, suffix, tags, ntags, next_letter, depth):
        self.back, self.eq, self.ne, self.state = back, eq, ne, state
        self.suffix, self.tags, self.ntags, self.next, self.depth = suffix, tags, ntags, next_letter, depth

    def __len__(self) -> int:
        return len(self.back)

    def take(self, index, width: Optional[int] = None) -> _Rows:
        """The rows at index (views if it is a slice); with width, the
        letters and runs past that distance are dropped."""
        cols = slice(width)
        return _Rows(
            *[None if a is None else a[index, cols] for a in (self.back, self.eq, self.ne)],
            *[None if a is None else a[index] for a in (self.state, self.suffix, self.tags, self.ntags, self.next,
                                                         self.depth)],
        )


def _texts(letters: np.ndarray) -> list[str]:
    """The rows of a 2-d array of letters as strings."""
    d = letters.shape[1]
    flat = (letters + 48).tobytes().decode()
    return [flat[i : i + d] for i in range(0, len(flat), d)] if d else [""] * len(letters)


def _merge(parts: list[_Rows]) -> _Rows:
    """The rows of several blocks as one, the first block's rows first (the
    first part itself if it is alone).  Rows narrower than the first are
    widened with the letter 255 and runs of 0."""
    if len(parts) == 1:
        return parts[0]
    first, size = parts[0], sum(map(len, parts))
    merged = _Rows(
        np.full((size, first.back.shape[1]), 255, np.uint8),
        *[None if a is None else np.zeros((size, a.shape[1]), a.dtype) for a in (first.eq, first.ne)],
        *[None if getattr(first, name) is None else np.concatenate([getattr(p, name) for p in parts])
          for name in ("state", "suffix", "tags", "ntags", "next", "depth")],
    )
    at = 0
    for p in parts:
        for to, a in ((merged.back, p.back), (merged.eq, p.eq), (merged.ne, p.ne)):
            if a is not None:
                to[at : at + len(p), : a.shape[1]] = a
        at += len(p)
    return merged


def _compact(block: _Rows) -> _Rows:
    """The block, copied out of its array once its rows hold less than half
    of the array's letters, so that the rows already taken from it do not
    stay alive with them."""
    owner = block.back if block.back.base is None else block.back.base
    if 2 * int(block.depth.sum()) < owner.size:
        return block.take(np.arange(len(block)), int(block.depth[0]))
    return block


class _DFS:
    """Depth-first walk over a stack of blocks of prefixes."""

    def __init__(self, c: ConstraintSet, max_depth: int, budget: int):
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        self.c = c
        self.base = c.alphabet_size  # children per row
        self.max_depth = max_depth
        self.budget = budget
        self.nodes = 0
        self.expansions = 0
        # valid words of each length reached by this call; like expansions,
        # not carried over by a checkpoint
        self.counts = np.zeros(max_depth + 1, np.int64)
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
            min_run = c.power.min_violating_runs(max_depth)
            self.eq_edge = (min_run - 1).astype(dtype)  # likewise for the equality runs and the power bound
            # a word of length L can break the bound only at distances p with
            # p + min_run <= L, and p + min_run grows with p: check a prefix,
            # and keep the equality runs of the distances that ever can
            self.power_reach = np.searchsorted(distances + min_run, np.arange(max_depth + 2), "right")
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
            np.zeros(1, dtype),
        )
        self.stack: list[_Rows] = [self.root] if max_depth > 0 else []

    def _step(self, rows: _Rows, tried: np.ndarray) -> _Rows:
        """The valid children among the tried ones, in the order of their
        parents and then of their letters; child base*i + a appends letter a
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
            a = back[r, p]  # the child equal to the letter p+1 back, if the prefix has one
            good[base * r[a < base] + a[a < base]] = False
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
        grown[:, 1:] = back.take(parent, 0, mode="clip")  # a take into a column slice gathers into a buffer first
        before = grown[:, 1:]  # the letters p back, 255 past the prefix
        eq = None if rows.eq is None else self._grow(rows.eq, parent, before, letter, self.eq_width)
        ne = None if rows.ne is None else self._grow(rows.ne, parent, before, letter ^ 1, self.ne_width)
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
        return _Rows(grown, eq, ne, state, suffix, tags, ntags, np.zeros(S, np.uint8), rows.depth[parent] + 1)

    @staticmethod
    def _grow(runs: np.ndarray, parent: np.ndarray, before: np.ndarray, letter: np.ndarray, width: int) -> np.ndarray:
        """The children's runs: a parent's run plus one where the letter
        p back (before) equals letter, else 0, and a new 0 column for the
        next distance while the row is narrower than width."""
        w = runs.shape[1]
        extend = before[:, :w] == letter[:, None]
        # a take into a non-contiguous out, such as a column slice of the
        # wider array, would gather into a buffer first
        extended = runs.take(parent, 0, mode="clip")
        extended += 1
        if w == width:
            extended *= extend
            return extended
        grown = np.empty((len(parent), w + 1), runs.dtype)
        np.multiply(extended, extend, out=grown[:, :w])
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
        # one flat scan: numpy's reduction over the short tag axis costs more
        new = np.ones(len(ids), bool)
        new[(rows.tags[r] == ids[:, None]).ravel().nonzero()[0] // rows.tags.shape[1]] = False
        child, ids = child[new], ids[new]
        count = rows.ntags.repeat(2) + np.bincount(child, minlength=2 * len(rows))
        return count, child, ids

    def run(self, on_leaf: Optional[Callable[[np.ndarray], None]] = None, target: Optional[int] = None,
            checkpoint_path: Optional[str] = None) -> bool:
        """Walk the rest of the tree, rows of each length in lexicographic order.

        The budget only stops the walk: the expansion that reaches it tries
        children up to it, so the walk stops at exactly that many nodes.
        on_leaf(letters) gets the valid words of length max_depth, one per
        row, in lexicographic order across calls.
        Returns True iff the tree was closed within budget (or, with target
        set, a word of the target length was reached).
        """
        saved = self.nodes
        while self.stack:
            if self.nodes >= self.budget:
                return False
            if self._expand(on_leaf, target):
                return True
            if checkpoint_path and self.nodes - saved >= CHECKPOINT_EVERY:
                saved = self.nodes
                self.save_checkpoint(checkpoint_path)
        return True

    def _take(self) -> _Rows:
        """Pop the rows of the next expansion, as prefixes of the length of
        the first one: up to MERGE_ROWS rows, from the top block and then
        the blocks below it, the ones the walk would expand next (module
        docstring), but never the root, whose first letter may be limited."""
        stack = self.stack
        d = int(stack[-1].depth[0])
        parts, size = [], 0
        while stack and size < MERGE_ROWS and (not parts or stack[-1].depth[0]):
            block = stack.pop()
            k = min(len(block), MERGE_ROWS - size)
            if k < len(block):
                stack.append(_compact(block.take(slice(k, None))))
            parts.append(block.take(slice(k), d))
            size += k
        return _merge(parts)

    def _expand(self, on_leaf, target) -> bool:
        """One expansion of run(); True iff a child reached the target length.
        The arrays of the step go when it returns, before the next one."""
        base, room = self.base, self.budget - self.nodes
        rows = self._take()
        size, d = rows.back.shape
        if d and not np.count_nonzero(rows.next):
            tried, count = np.ones(base * size, bool), base * size
        else:
            letter = np.arange(base * size) % base
            tried = (letter >= rows.next.repeat(base)) & (letter < (self.first_letter_limit if d == 0 else base))
            count = int(np.count_nonzero(tried))
        if count > room:
            # the budget ends inside the expansion: the rows with untried
            # children go back, each with its first letter not tried, below
            # the children of the rows tried
            untried = np.flatnonzero(tried)[room:]
            tried[untried] = False
            first = untried[np.flatnonzero(np.diff(untried // base, prepend=-1))]
            rest = rows.take(first // base)
            rest.next = (first % base).astype(np.uint8)
            self.stack.append(rest)
            count = room
        self.nodes += count
        self.expansions += 1
        children = self._step(rows, tried)
        if not len(children):
            return False
        self.counts += np.bincount(children.depth, minlength=len(self.counts))
        deepest = int(children.depth[0])  # the rows are sorted deepest first
        if deepest > len(self.best_text):
            self.best_text = _texts(children.back[:1, :deepest][:, ::-1])[0]
        if target is not None and deepest >= target:
            return True
        if deepest == self.max_depth:  # the words of length max_depth go no further
            leaves = int(np.count_nonzero(children.depth == deepest))
            if on_leaf is not None:
                on_leaf(children.back[:leaves, :deepest][:, ::-1])
            if leaves == len(children):
                return False
            children = _compact(children.take(slice(leaves, None)))
        self.stack.append(children)
        return False

    def save_checkpoint(self, path: str) -> None:
        """Write the search state atomically: a temporary file is made
        durable and then renamed over path.  The stack is stored as one list
        of [prefix, next letter] rows, top of the stack first, so their keys
        (-length, prefix) strictly increase (module docstring)."""
        rows = []
        for block in reversed(self.stack):
            runs = [0, *np.flatnonzero(np.diff(block.depth)) + 1, len(block)]
            for start, stop in zip(runs, runs[1:]):
                d = int(block.depth[start])
                rows += map(list, zip(_texts(block.back[start:stop, :d][:, ::-1]), block.next[start:stop].tolist()))
        state = {
            "magic": CHECKPOINT_MAGIC,
            "constraints": self.c.describe(),
            "max_depth": self.max_depth,
            "stack": rows,
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
        """Load a checkpoint; CheckpointError if it is not one of this
        format, was written under other constraints or another max_depth, or
        is corrupt: among others, if its rows are not in the order of the
        stack, which also rejects a row stored twice."""
        with open(path) as fh:
            try:
                state = json.load(fh)
            except ValueError as exc:  # malformed text, or bytes that are no text
                raise CheckpointError(str(exc)) from exc
        if not isinstance(state, dict) or state.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a search checkpoint file of format {CHECKPOINT_MAGIC}")
        if state.get("constraints") != self.c.describe():
            raise CheckpointError("checkpoint was produced under different constraints")
        if state.get("max_depth") != self.max_depth:
            raise CheckpointError(
                f"checkpoint was produced with max_depth {state.get('max_depth')}, not {self.max_depth}"
            )
        stack, nodes, best = state.get("stack"), state.get("nodes"), state.get("best_witness")

        def word(text) -> bool:
            return isinstance(text, str) and set(text) <= set("012"[: self.base])

        def row_ok(row) -> bool:
            if not (isinstance(row, list) and len(row) == 2 and word(row[0])):
                return False
            t, a = row
            return (len(t) < self.max_depth and (self.first_letter_limit > 1 or not t.startswith("1"))
                    and type(a) is int and 0 <= a < (self.base if t else self.first_letter_limit))

        if not (
            isinstance(stack, list)
            and all(map(row_ok, stack))
            and all((-len(u), u) < (-len(v), v) for (u, _), (v, _) in zip(stack, stack[1:]))
            and word(best)
            and len(best) <= self.max_depth
            and type(nodes) is int
            and nodes >= 0
        ):
            raise CheckpointError("corrupt checkpoint")
        groups = self._replay([t for t, _ in stack] + [best])
        self.stack = []
        for d, run in groupby(stack, key=lambda row: len(row[0])):
            run = list(run)
            rows = groups[d].take(slice(len(run)))  # best, replayed last, may follow them
            rows.next = np.array([a for _, a in run], np.uint8)
            self.stack.insert(0, rows)
        self.nodes = nodes
        self.best_text = best

    def _replay(self, texts: list[str]) -> dict[int, _Rows]:
        """Rebuild the rows of the given prefixes through the same step: the
        rows of each length, in the order of the texts; CheckpointError if a
        prefix breaks the constraints."""
        texts = sorted(texts, key=len, reverse=True)  # stable
        lengths = np.array(list(map(len, texts)))
        letters = np.zeros((len(texts), lengths[0]), np.uint8)
        for r, t in enumerate(texts):
            letters[r, : len(t)] = np.frombuffer(t.encode(), np.uint8) - 48
        rows = self.root.take(np.zeros(len(texts), np.intp))
        groups = {}
        for d in range(lengths[0] + 1):
            live = int(np.count_nonzero(lengths > d))
            if live < len(rows):
                groups[d] = rows.take(slice(live, None))
            if not live:
                break
            tried = np.zeros(self.base * live, bool)
            tried[self.base * np.arange(live) + letters[:live, d]] = True
            rows = self._step(rows.take(slice(0, live)), tried)
            if len(rows) < live:
                raise CheckpointError("corrupt checkpoint: a stored prefix breaks the constraints")
        return groups


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
    with 0 under the complement symmetry).  exhausted=True iff the tree, cut
    at max_depth, was closed within budget: a max_length of max_depth is a
    lower bound.  With target set, the search stops after the expansion that
    reaches it (exhausted then means "target reached"), and the witness is
    the least word of that length; ValueError unless 1 <= target <= max_depth.
    """
    if target is not None and not 1 <= target <= max_depth:
        raise ValueError(f"target must be between 1 and max_depth {max_depth}, got {target}")
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
    complete = dfs.run()
    counts = (dfs.counts * (2 if c.complement_closed else 1)).tolist()
    counts[0] = 1  # empty word satisfies every factorial constraint
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

    def on_leaf(letters: np.ndarray) -> None:
        cores.update(_texts(letters[:, pad_len : pad_len + core_len]))

    complete = dfs.run(on_leaf)
    if not complete:
        raise BudgetExceeded("extendable_cores ran out of node budget; result would be unsound")
    out = {Word(t, c.alphabet_size) for t in cores}
    if c.complement_closed:
        out |= {Word(complement_text(t), c.alphabet_size) for t in cores}
    return out
