"""Exact period and exponent machinery for finite words.

All freeness decisions and exponent comparisons are exact, in rational
(fractions.Fraction) or integer arithmetic; floating point never enters a
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .words import Word


@dataclass(frozen=True)
class PowerBound:
    """A power-freeness constraint on factor exponents.

    forbid_equal=True encodes "beta-free": factors with exponent >= beta are
    forbidden.  forbid_equal=False encodes "beta+-free": only exponents
    strictly above beta are forbidden.
    """

    threshold: Fraction
    forbid_equal: bool = True

    @classmethod
    def parse(cls, text: str) -> "PowerBound":
        """Parse "p/q" (beta-free) or "p/q+" (beta+-free); integers allowed."""
        text = text.strip()
        forbid_equal = True
        if text.endswith("+"):
            forbid_equal = False
            text = text[:-1]
        return cls(Fraction(text), forbid_equal)

    def __str__(self) -> str:
        body = f"{self.threshold.numerator}/{self.threshold.denominator}"
        return body if self.forbid_equal else body + "+"

    def violated_by(self, exponent: Fraction) -> bool:
        if self.forbid_equal:
            return exponent >= self.threshold
        return exponent > self.threshold

    def min_violating_run(self, period: int) -> int:
        """Least r such that a factor of length period+r with the given period
        violates the bound (r = matched overlap beyond one full period)."""
        num, den = self.threshold.numerator, self.threshold.denominator
        if self.forbid_equal:
            # least s with s/p >= beta
            s = -((-num * period) // den)
        else:
            # least s with s/p > beta
            s = (num * period) // den + 1
        return max(s - period, 1)


@dataclass(frozen=True, slots=True)
class Repetition:
    """A periodic factor w[start : start+length] with the given period.

    Slotted, since a long word can have tens of thousands of them."""

    start: int
    period: int
    length: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)


def smallest_period(w: Word) -> int:
    """Least p >= 1 with w[i] == w[i+p] for all valid i (failure-function based)."""
    n = len(w)
    if n == 0:
        raise ValueError("smallest_period requires a nonempty word")
    t = w.text
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and t[i] != t[k]:
            k = fail[k]
        if t[i] == t[k]:
            k += 1
        fail[i + 1] = k
    return n - fail[n]


def exponent(w: Word) -> Fraction:
    """|w| / per(w), in lowest terms."""
    return Fraction(len(w), smallest_period(w))


def _runs_of(eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the maximal runs of True in a boolean mask."""
    if not eq.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    padded = np.empty(len(eq) + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = eq
    diff = np.diff(padded.view(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return starts, ends - starts


def _has_run(eq: np.ndarray, min_run: int) -> bool:
    """Exact vectorized test for a run of >= min_run consecutive True values.

    Doubling trick: r[i] tracks "run of length k starts at i"; combining r
    with a shifted copy doubles k.  Early exit as soon as no candidate
    survives, which kills most periods after a few passes.
    """
    if min_run <= 1:
        return bool(eq.any())
    r = eq
    k = 1
    while k < min_run:
        if not r.any():
            return False
        shift = min(k, min_run - k)
        if r.size <= shift:
            return False
        r = r[:-shift] & r[shift:]
        k += shift
    return bool(r.any())


_CODES = bytes.maketrans(b"$012", b"\x00\x01\x02\x03")


def _suffix_ranks(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(rank, suffix array) of `text` as int32 arrays, by prefix doubling.

    `text` is over "$012" and ends with its only '$', so that all suffixes
    differ.  The first round sorts the suffixes by their first 16 letters,
    2 bits each, with '$' and the space past the end both 0: a window that
    reaches '$' ends there.  Round h then sorts them by the pair (rank of
    the first h letters, rank of the next h), 0 past the end.  The sort key
    packs a round's value and the position into one int64, which caps the
    text at 2**21 - 1 letters.
    """
    n = len(text)
    bits = n.bit_length()
    if 3 * bits > 63:
        raise ValueError(f"suffix sorting is limited to {2**21 - 2} letters, got {n - 1}")
    key = np.frombuffer(text.translate(_CODES), dtype=np.uint8).astype(np.int64)
    for s in 1, 2, 4, 8:  # key[i]: the codes of text[i : i + 2*s]
        wider = key << 2 * s
        wider[:-s] |= key[s:]
        key = wider
    del wider
    rank = np.empty(n, dtype=np.int32)
    sa = np.empty(n, dtype=np.int32)
    h = 16
    while True:
        key <<= bits
        key |= np.arange(n, dtype=np.int32)
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=sa, casting="unsafe")
        key >>= bits
        new_value = key[1:] != key[:-1]
        dense = key.view(np.int32)[:n]  # the values are spent: reuse their buffer
        dense[0] = 1
        dense[1:] = new_value
        del new_value
        np.add.accumulate(dense, out=dense)
        rank[sa] = dense
        del key, dense
        if rank[sa[-1]] == n:
            rank -= 1
            return rank, sa
        key = rank.astype(np.int64)
        key <<= bits
        key[:-h] |= rank[h:]
        h *= 2


def _lcp_array(text: bytes, rank: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """lcp[r] = longest common prefix of the suffixes of rank r-1 and r.

    Kasai et al. (CPM 2001) in text order: the suffix before i+1 in rank
    order shares at least one letter fewer with it than i with its own.  The
    unique last letter of `text` stops every comparison inside the text.
    """
    n = len(text) - 1
    phi = np.empty(n + 1, dtype=np.int32)  # phi[i]: the suffix ranked just below i
    phi[sa[1:]] = sa[:-1]
    plcp = np.zeros(n + 1, dtype=np.int32)
    out = memoryview(plcp)
    h = 0
    for i, j in enumerate(memoryview(phi)[:n]):  # suffix n ('$') ranks first
        while text[i + h] == text[j + h]:
            h += 1
        out[i] = h
        if h:
            h -= 1
    del phi
    return plcp[sa]


def _lyndon_roots(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) as int32 arrays for the longest Lyndon words word[i:j] of two
    letters or more, where rank orders the suffixes of word$ ('$' last and
    least) with a proper prefix first.

    j is the least j > i with rank[j] < rank[i] (Hohlweg and Reutenauer,
    2003), found by following the answers already known for i+1, ...
    """
    n = len(rank) - 1
    nxt = np.empty(n + 1, dtype=np.int32)
    out, r = memoryview(nxt), memoryview(rank)
    for i in range(n - 1, -1, -1):
        ri = r[i]
        j = i + 1
        while r[j] > ri:
            j = out[j]
        out[i] = j
    root = ((nxt[:n] - np.arange(n, dtype=np.int32)) > 1).nonzero()[0]
    return root.astype(np.int32), nxt[root]


_BLOCK = 1 << 14  # queries and table entries per numpy call in _lce


def _lce(rank: np.ndarray, lcp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of the suffixes at a[q] and b[q] (a[q] != b[q]),
    for every q at once: the minimum of lcp over the ranks first..last
    between them.

    Offline sparse table: level t holds the minima of lcp over windows of
    2**t ranks and overwrites level t-1 in place, so lcp is consumed; a
    query whose range is 2**t to 2**(t+1) - 1 ranks long takes the minimum
    of the two windows of level t at its ends.  Table updates and queries
    go a block at a time, which bounds the temporaries.
    """
    first, last = rank[a], rank[b]
    span = last - first
    np.minimum(first, last, out=first)
    np.abs(span, out=span)  # lcp[first+1 : first+span+1] lies between
    level = np.zeros(len(a), dtype=np.int8)  # floor(log2(span))
    for t in range(1, int(span.max(initial=0)).bit_length()):
        level += span >= 1 << t
    np.add(first, span, out=last)
    del span
    last += 1
    last -= np.left_shift(1, level, dtype=np.int32)  # the window that ends the range
    first += 1  # the window that starts it
    out = np.empty(len(a), dtype=np.int32)
    size = len(lcp)
    for t in range(int(level.max(initial=-1)) + 1):
        if t:
            # lcp[x] = min(lcp[x], lcp[x + half]) a block at a time: a block
            # reads only itself and later entries, which are still unwritten
            half = 1 << (t - 1)
            size -= half
            for x in range(0, size, _BLOCK):
                block = lcp[x : min(x + _BLOCK, size)]
                np.minimum(block, lcp[x + half : x + half + len(block)], out=block)
        for x in range(0, len(a), _BLOCK):
            q = (level[x : x + _BLOCK] == t).nonzero()[0]
            if x:
                q += x
            least = lcp[first[q]]
            np.minimum(least, lcp[last[q]], out=least)
            out[q] = least
    return out


def _runs(w: Word) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every run of w, i.e. every maximal repetition with exponent >= 2
    under its minimal period, as int32 arrays (start, period, length) sorted
    by (start, period).

    Runs of period 1 are the blocks of one letter.  For the others, Lyndon
    roots (Bannai et al., "The Runs Theorem", SIAM J. Comput. 2017): under
    one of the two letter orders, every run w[s:e] with period p has a root
    w[i:i+p], s < i, that is the longest Lyndon word starting at i.  So the
    candidates are the longest Lyndon words w[i:j] under either order; each
    extends to w[i-b : j+f], where f and b are the longest common extensions
    of i and j to the right and to the left, and is a run with period j-i
    exactly when f + b >= j-i.  Right extensions come from the suffix ranks
    and LCP array of w, left ones from those of reversed w.  The ranks of w,
    reversed, order the suffixes under the reversed letters with '$' taken
    as greatest; that finds the roots of every run that ends before the end
    of w, and the others have roots under the alphabet order, so the roots
    that end there are dropped.  Candidates with
    the same period and right end extend to the same factor, so only one of
    them is extended to the left.  Every array is int32 or smaller but the
    sort keys, and each is dropped once spent: the working set stays near
    35 bytes a letter.
    """
    n = len(w)
    text = (w.text + "$").encode("ascii")  # '$' is below every digit
    rank, sa = _suffix_ranks(text)
    lcp = _lcp_array(text, rank, sa)
    del sa
    # the roots under the reversed alphabet order ('$' ranks -1 to stop
    # _lyndon_roots), then the alphabet order; period 1 is left to the blocks
    inverse = n - rank
    inverse[n] = -1
    flipped = _lyndon_roots(inverse)
    del inverse
    inside = flipped[1] < n
    root, end = (np.concatenate((f[inside], a)) for f, a in zip(flipped, _lyndon_roots(rank)))
    del flipped, inside
    right = _lce(rank, lcp, root, end)
    del rank, lcp
    # one candidate per (period, end), the one with the leftmost root
    key = _pack(n, end - root, end + right, root)
    del root, end, right
    key.sort()
    group = key // (n + 1)
    first = np.ones(len(key), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    period, end, root = _unpack(n, key[first])
    del key, group, first
    # short of two periods, a candidate must extend to the left: drop it if
    # fewer letters than it needs lie before it, or the first one differs
    arr = w.array()
    drop = end - root < 2 * period
    drop &= (end < 2 * period) | (arr[root - 1] != arr[root + period - 1])
    keep = ~drop
    period, end, root = period[keep], end[keep], root[keep]
    del drop, keep
    text = (w.text[::-1] + "$").encode("ascii")
    rank, sa = _suffix_ranks(text)
    lcp = _lcp_array(text, rank, sa)
    del sa
    start = root - _lce(rank, lcp, n - root, n - root - period)
    del rank, lcp, root
    end -= start  # length
    run = end >= 2 * period
    # the runs of period 1: blocks of one letter, cut where the letter changes
    cut = np.concatenate(([0], (arr[1:] != arr[:-1]).nonzero()[0] + 1, [n]))
    block_length = cut[1:] - cut[:-1]
    block = block_length > 1
    key = np.concatenate((
        _pack(n, start[run], period[run], end[run]),
        _pack(n, cut[:-1][block], 1, block_length[block]),
    ))
    del start, period, end, run
    key.sort()
    return _unpack(n, key)


def _pack(n: int, first: np.ndarray, *fields) -> np.ndarray:
    """Fields in [0, n] as the digits of one int64 in base n+1, the first
    most significant; three fit for n < 2**21."""
    key = first.astype(np.int64)
    for field in fields:
        key *= n + 1
        key += field
    return key


def _unpack(n: int, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three int32 fields of `_pack` keys; consumes key."""
    last = np.remainder(key, n + 1, out=np.empty(len(key), dtype=np.int32), casting="unsafe")
    key //= n + 1
    middle = np.remainder(key, n + 1, out=np.empty(len(key), dtype=np.int32), casting="unsafe")
    key //= n + 1
    return key.astype(np.int32), middle, last


def critical_exponent(w: Word) -> tuple[Fraction, Repetition]:
    """Maximum factor exponent of a nonempty finite word, with a witness.

    If w has a square, the maximum is the largest exponent length/period
    over the runs of w, found from their Lyndon roots in near-linear time
    (see `_runs`) and compared exactly in int64 arithmetic; the witness is
    the run of that exponent with the smallest period, then the earliest
    start.  A word with no square has no run and falls back to a quadratic
    scan over every period p: the longest factor with period p has length p
    plus the longest equality run at distance p.  Words of 2**21 - 1 letters
    or more raise ValueError.
    """
    n = len(w)
    if n == 0:
        raise ValueError("critical_exponent requires a nonempty word")
    starts, periods, lengths = _runs(w)
    if len(starts) == 0:
        return _squarefree_critical_exponent(w)
    # floor(length * 2**42 / period) orders the exponents exactly: periods
    # are below 2**21, so two different exponents differ by more than 2**-42
    key = lengths.astype(np.int64)
    key <<= 42
    key //= periods
    ties = (key == key.max()).nonzero()[0]
    i = ties[np.argmin(periods[ties])]  # runs are sorted by start
    rep = Repetition(int(starts[i]), int(periods[i]), int(lengths[i]))
    return Fraction(rep.length, rep.period), rep


def _squarefree_critical_exponent(w: Word) -> tuple[Fraction, Repetition]:
    """critical_exponent by a scan over every period (quadratic)."""
    n = len(w)
    arr = w.array()
    # exponent 1, the whole word's, unless some period p < n beats it below
    best_num, best_den, best = 1, 1, Repetition(0, n, n)
    for p in range(1, n):
        eq = arr[:-p] == arr[p:]
        # only runs that beat the current best matter
        min_beat = (p * (best_num - best_den)) // best_den + 1
        if not _has_run(eq, max(min_beat, 1)):
            continue
        starts, lengths = _runs_of(eq)
        i = int(np.argmax(lengths))
        length = int(lengths[i]) + p
        # compare length/p with best_num/best_den exactly
        if length * best_den > best_num * p:
            best_num, best_den = length, p
            best = Repetition(int(starts[i]), p, length)
    return Fraction(best_num, best_den), best


def maximal_repetitions(w: Word, min_exponent: Fraction) -> list[Repetition]:
    """All maximal repetitions of exponent >= min_exponent, sorted by
    (start, period).

    Maximal means: not extendable left or right with the same period, and the
    period is the minimal period of the factor.  These are the runs of w,
    found from their Lyndon roots in near-linear time (see `_runs`), whose
    length reaches min_exponent times their period, an exact integer test.
    A maximal repetition below exponent 2 is not a run, so min_exponent < 2
    raises ValueError, as do words of 2**21 - 1 letters or more.
    """
    e = Fraction(min_exponent)
    if e < 2:
        raise ValueError(f"maximal_repetitions needs min_exponent >= 2, got {e}")
    if len(w) == 0:
        return []
    starts, periods, lengths = _runs(w)
    num, den = e.numerator, e.denominator
    shared: dict[int, int] = {}  # many runs share a period: one int object each
    # memoryviews hand out Python ints one at a time; the test is exact
    return [
        Repetition(s, shared.setdefault(p, p), length)
        for s, p, length in zip(memoryview(starts), memoryview(periods), memoryview(lengths))
        if length * den >= num * p
    ]


def satisfies(w: Word, bound: PowerBound) -> tuple[bool, Optional[Repetition]]:
    """True iff no factor of w violates the bound.

    On failure, returns a minimal-length violating factor as witness.
    Violating factors of minimal length have minimal period, so periods are
    scanned in increasing order with an early exit.
    """
    n = len(w)
    arr = w.array()
    # only periods with a violating factor that fits: period + min_run <= n
    for p in range(1, n):
        min_run = bound.min_violating_run(p)
        if p + min_run > n:
            break
        eq = arr[:-p] == arr[p:]
        if not _has_run(eq, min_run):
            continue
        starts, lengths = _runs_of(eq)
        i = int(np.argmax(lengths))
        if int(lengths[i]) >= min_run:
            # shrink the run to the minimal violating length
            return False, Repetition(int(starts[i]), p, p + min_run)
    return True, None

