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

    def __post_init__(self):
        # every letter has exponent 1, so below these no word but the empty one is free
        if self.threshold < 1 or self.forbid_equal and self.threshold == 1:
            raise ValueError(f"a power bound needs a threshold above 1, or 1+; got {self}")

    @classmethod
    def parse(cls, text: str) -> "PowerBound":
        """Parse "p/q" (beta-free) or "p/q+" (beta+-free); integers allowed.
        ValueError if the text is no such bound, a zero denominator included."""
        text = text.strip()
        forbid_equal = True
        if text.endswith("+"):
            forbid_equal = False
            text = text[:-1]
        try:
            threshold = Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"a power bound needs a nonzero denominator; got {text!r}") from exc
        return cls(threshold, forbid_equal)

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

    def min_violating_runs(self, count: int) -> np.ndarray:
        """min(min_violating_run(p), count) for p = 1 .. count, as an int64
        array.  A caller whose runs stay below count compares them the same
        way with or without the clip, and the clip keeps the values in range."""
        num, den = self.threshold.numerator, self.threshold.denominator
        if num * count >= 2**62:  # num * p could overflow int64
            return np.array([min(self.min_violating_run(p), count) for p in range(1, count + 1)], dtype=np.int64)
        p = np.arange(1, count + 1, dtype=np.int64)
        s = -(-num * p // den) if self.forbid_equal else num * p // den + 1
        return np.clip(s - p, 1, count)


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
    edges = np.flatnonzero(padded[1:] != padded[:-1])  # a run starts, then ends
    starts = edges[0::2]
    return starts, edges[1::2] - starts


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


# the longest word whose suffixes _suffix_ranks sorts: with its '$', a
# position takes 21 bits, and a sort key packs three such fields
MAX_LENGTH = 2**21 - 2

_CODES = bytes.maketrans(b"$012", b"\x00\x01\x02\x03")


# entries per numpy call in the passes over pairs, positions, ranks and keys;
# the passes cast each block of int32 indices to intp, which numpy indexes
# by faster
_BLOCK = 1 << 12
_JUMP_MIN = 256  # fewer positions or pairs than this are left to the loop
_JUMP_GAIN = 4  # positions handled by the rounds, at most, per position retired
_CHUNK = 1 << 10  # positions the loop of _lyndon_roots turns into Python ints at once


def _suffix_ranks(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(rank, suffix array) of `text` as int32 arrays, by prefix doubling
    (Manber and Myers, "Suffix arrays", SIAM J. Comput. 22, 1993) with as
    many ranks per key as fit.

    `text` is over "$012" and ends with its only '$', so that all suffixes
    differ.  The first round sorts the suffixes by their first 16 letters,
    2 bits each, with '$' and the space past the end both 0: a window that
    reaches '$' ends there.  After a round that sorted them by their first h
    letters into g groups, ranked 1 .. g and 0 past the end, the next sorts
    them by the j ranks of the h letters at i, i + h, ..., i + (j-1)h,
    each in g.bit_length() bits, for the largest j >= 2 that fits beside
    the position, and so by their first jh letters.  The sort key packs a
    round's value and the position into one int64, which caps the text at
    2**21 - 1 letters.  On w at 10**5 letters that is 8 rounds, where
    doubling takes 13.
    """
    n = len(text)
    if n - 1 > MAX_LENGTH:
        raise ValueError(f"suffix sorting is limited to {MAX_LENGTH} letters, got {n - 1}")
    bits = n.bit_length()
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
        for x in range(0, n, _BLOCK):
            rank[sa[x : x + _BLOCK].astype(np.intp)] = dense[x : x + _BLOCK]
        groups = int(dense[-1])
        del key, dense
        if groups == n:
            rank -= 1
            return rank, sa
        width = groups.bit_length()
        j = max(2, (63 - bits) // width)
        key = rank.astype(np.int64)
        for i in range(1, j):
            key <<= width
            key[: max(n - i * h, 0)] |= rank[i * h :]
        h *= j


def _positions(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) as int32, a block at a time: it holds no int64
    index of every True, and on a mask of evenly mixed values it takes a
    third of the time of boolean indexing."""
    out = np.empty(np.count_nonzero(mask), dtype=np.int32)
    end = 0
    for x in range(0, len(mask), _BLOCK):
        found = np.flatnonzero(mask[x : x + _BLOCK])
        found += x
        out[end : end + len(found)] = found
        end += len(found)
    return out


def _lcp_array(text: bytes, sa: np.ndarray) -> np.ndarray:
    """lcp[r] = longest common prefix of the suffixes of rank r-1 and r.

    From the irreducible positions (Kärkkäinen, Manzini and Puglisi,
    "Permuted Longest-Common-Prefix Array", CPM 2009): if the suffixes at i
    and at j, the one ranked just below i, follow the same letter, then the
    suffixes at i-1 and j-1 are neighbours too and share one letter more,
    so i + lcp is the same at i-1 and at i.  Only the other positions, the
    irreducible ones, need a comparison (see _common_prefixes), and
    i + lcp never falls as i grows, so a running maximum fills in the rest.
    The irreducible values add up to at most 2n log n letters; w has 13
    irreducible positions at 10^5 letters.  Besides the result, the working
    set is 4 bytes a letter, and 12 for each irreducible position while they
    are found.
    """
    n = len(text) - 1
    # the letter before each suffix, '$' before the whole text, in rank order
    before = np.frombuffer(text[-1:] + text[:-1], dtype=np.uint8)[sa]
    # rank r+1 is irreducible when its letter differs from rank r's; the '$'
    # before suffix 0 is unique, so suffix 0 always is
    r = _positions(before[1:] != before[:-1])
    del before
    a, b = sa[1:][r], sa[r]
    del r
    end = _common_prefixes(text, a, b)  # i + lcp at suffix i: at most n
    end += a
    plcp = np.zeros(n + 1, dtype=np.int32)
    plcp[a] = end
    del a, end
    plcp[n] = n  # '$' ranks first and shares nothing
    np.maximum.accumulate(plcp, out=plcp)
    lcp = plcp[sa]
    lcp -= sa
    return lcp


def _common_prefixes(text: bytes, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of the suffixes at a[k] != b[k] of `text`, which
    ends with a letter found nowhere else, for every k (a[k] may repeat),
    in place of b: b is consumed, a left alone.

    Rounds compare 8 letters of every open pair at once, _BLOCK pairs per
    numpy call, read as one unaligned little-endian uint64 at each offset;
    the lowest set bit of the xor of a pair that differs names its first
    differing letter, and its answer takes the place of its b, which is
    read no more.  Each block moves its open pairs to the front of the
    list, over pairs already read.  Rounds run while at least _JUMP_MIN
    pairs are open; the rest gallop: compare slices of doubling length
    until one differs, then halve it down to the letter.
    """
    pair = np.arange(len(a), dtype=np.int32)  # the open pairs
    offset = 0  # every open pair has moved on by as many letters
    if len(a) >= _JUMP_MIN:
        eight = np.ndarray(len(text), dtype="<u8", buffer=text + bytes(7), strides=(1,))  # text[x : x+8]
        while len(pair) >= _JUMP_MIN:
            ahead = eight[offset:]
            kept = 0
            for x in range(0, len(pair), _BLOCK):
                k = pair[x : x + _BLOCK]
                xor = ahead[a[k].astype(np.intp)]
                xor ^= ahead[b[k].astype(np.intp)]
                differ = xor != 0
                low = xor[differ]
                low &= -low
                b[k[differ]] = offset + ((np.frexp(low)[1] - 1) >> 3)  # 2**k has exponent k+1
                k = k[~differ]
                pair[kept : kept + len(k)] = k
                kept += len(k)
            pair = pair[:kept]
            offset += 8
    for k, i, j in zip(pair.tolist(), a[pair].tolist(), b[pair].tolist()):
        start = i
        i += offset
        j += offset
        width = 1
        while text[i : i + width] == text[j : j + width]:
            i += width
            j += width
            width *= 2
        while width > 1:  # the first difference lies in text[i : i+width]
            half = width // 2
            if text[i : i + half] == text[j : j + half]:
                i += half
                j += half
                width -= half
            else:
                width = half
        b[k] = i - start
    return b


def _lyndon_roots(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) as int32 arrays for the longest Lyndon words word[i:j] of two
    letters or more, where rank orders the suffixes of word$ ('$' last and
    least) with a proper prefix first.

    j is the least j > i with rank[j] < rank[i] (Hohlweg and Reutenauer,
    2003), so j > i+1 exactly when rank[i+1] > rank[i].  Every pointer
    nxt[i] starts at i+1 and only ever skips positions that rank above i,
    so while rank[nxt[i]] > rank[i], nxt[i] may jump on to nxt[nxt[i]].
    Rounds of such jumps over the positions left, a block at a time in
    increasing order, retire those whose pointer reaches a lower rank, and
    the loop finishes the rest in decreasing order, _CHUNK at a time,
    following pointers that are final by then.  A round handles a position
    in a small share of the time of a loop step, so rounds run while at
    least _JUMP_MIN positions are left and, with the next round, they would
    have handled at most _JUMP_GAIN times the positions retired so far,
    those done at i+1 included: no word costs much more than the loop
    alone.  Under the reversed order no round retires a position of
    0·1^k·0; on w the first two rounds retire none, and the next ones all.
    """
    n = len(rank) - 1
    nxt = np.arange(1, n + 2, dtype=np.int32)
    root = _positions(rank[1:] > rank[:-1])
    left = root.copy()
    work = 0
    while len(left) >= _JUMP_MIN and work + len(left) <= _JUMP_GAIN * (n - len(left)):
        work += len(left)
        kept = 0
        for x in range(0, len(left), _BLOCK):
            i = left[x : x + _BLOCK].astype(np.intp)
            j = nxt[nxt[i]].astype(np.intp)
            nxt[i] = j
            i = i[rank[j] > rank[i]]
            left[kept : kept + len(i)] = i
            kept += len(i)
        left = left[:kept]
    out, r = memoryview(nxt), memoryview(rank)
    for x in range(len(left), 0, -_CHUNK):
        for i in left[max(x - _CHUNK, 0) : x][::-1].tolist():
            ri = r[i]
            j = out[i]
            while r[j] > ri:
                j = out[j]
            out[i] = j
    return root, nxt[root]


def _rank_windows(rank: np.ndarray, root: np.ndarray, end: np.ndarray, key: np.ndarray) -> None:
    """key[q] = span << 32 | first for each pair of suffixes root[q] < end[q],
    where first is the lower of their ranks and span the distance to the
    other; the root is the smaller position, so the suffix array recovers
    both."""
    for x in range(0, len(root), _BLOCK):
        first = rank[root[x : x + _BLOCK].astype(np.intp)]
        last = rank[end[x : x + _BLOCK].astype(np.intp)]
        span = np.abs(last - first)
        np.minimum(first, last, out=first)
        block = key[x : x + len(span)]
        block[:] = span
        block <<= 32
        block |= first


def _extend_right(n: int, lcp: np.ndarray, sa: np.ndarray, key: np.ndarray) -> None:
    """Rewrite each sorted `_rank_windows` key of a candidate root < end in
    place as the `_pack` key (end - root, end + f, root), where f is the
    longest common prefix of the suffixes at root and end: the minimum of
    lcp over the ranks first+1 .. first+span.

    Offline sparse table: level t holds the minima of lcp over windows of
    2**t ranks and overwrites level t-1 in place, so lcp is consumed.  The
    keys sort by span, so the queries whose range is 2**t to 2**(t+1) - 1
    ranks long follow one another; each takes the minimum of the two
    windows of level t at its ends.  Table updates and queries go a block
    at a time, which bounds the temporaries.
    """
    size = len(lcp)
    low, t = 0, 0
    while low < len(key):
        if t:
            # lcp[x] = min(lcp[x], lcp[x + half]) a block at a time: a block
            # reads only itself and later entries, which are still unwritten
            half = 1 << (t - 1)
            size -= half
            for x in range(0, size, _BLOCK):
                block = lcp[x : min(x + _BLOCK, size)]
                np.minimum(block, lcp[x + half : x + half + len(block)], out=block)
        # the answered keys are rewritten, so look only past them
        high = low + int(key[low:].searchsorted(2 << t << 32))  # spans below 2**(t+1)
        for x in range(low, high, _BLOCK):
            block = key[x : min(x + _BLOCK, high)]
            first = block & 0xFFFFFFFF
            last = block >> 32
            last += first
            i, j = sa[first], sa[last]
            first += 1  # the windows that start and end the range
            last -= (1 << t) - 1
            f = lcp[first]
            np.minimum(f, lcp[last], out=f)
            root, end = np.minimum(i, j), np.maximum(i, j)
            np.subtract(end, root, out=block)
            block *= n + 1
            f += end
            block += f
            block *= n + 1
            block += root
        low = high
        t += 1


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
    and LCP array of w.  The ranks n+1 - rank order the suffixes under the
    reversed letters with '$' taken as greatest; that finds the roots of
    every run that ends before the end of w, and the others have roots under
    the alphabet order, so the roots that end there are dropped.  Candidates
    with the same period and right end extend to the same factor, so only
    the one with the leftmost root is extended to the left, by comparing w
    read backwards from i-1 and j-1 (see _common_prefixes).  Its b is below
    its period: a candidate that roots no run has f + b < j-i, and a run's
    leftmost root lies in its first period, as a root at i >= s+p gives one
    at i-p.  On w at 10^5 letters the 42,703 left extensions add up to
    500,870 letters.

    Memory: the suffix array waits out the Lyndon roots as the inverse of
    the ranks, and the candidates live in one int64 key each, first as
    their two ranks (see _rank_windows), so the suffix array stands in for
    their positions until _extend_right packs those in.  Every array is
    int32 or smaller but the keys, passes over whole arrays go a block at a
    time, and each array is dropped once spent: the tracemalloc peak is
    21.1 bytes a letter on w at 10^6 letters, and 23.1 on a random binary
    word.
    """
    n = len(w)
    text = (w.text + "$").encode("ascii")  # '$' is below every digit
    rank, sa = _suffix_ranks(text)
    del sa  # rebuilt from rank once the Lyndon roots are found
    # the roots under the reversed alphabet order (rank[n] = 0 keeps '$'
    # least, to stop _lyndon_roots), then the alphabet order; period 1 is
    # left to the blocks
    flip = rank[:n]
    np.subtract(n + 1, flip, out=flip)
    root, end = _lyndon_roots(rank)
    np.subtract(n + 1, flip, out=flip)
    del flip
    inside = end < n
    root, end = root[inside], end[inside]
    # every position but the last starts a root under exactly one order, so
    # the alphabet order has n-1 - len(inside) of them
    key = np.empty(len(root) + max(n - 1, 0) - len(inside), dtype=np.int64)
    del inside
    _rank_windows(rank, root, end, key)
    known = len(root)
    del root, end
    _rank_windows(rank, *_lyndon_roots(rank), key[known:])
    sa = np.empty(n + 1, dtype=np.int32)
    for x in range(0, n + 1, _BLOCK):
        sa[rank[x : x + _BLOCK].astype(np.intp)] = np.arange(x, min(x + _BLOCK, n + 1), dtype=np.int32)
    del rank
    key.sort()
    lcp = _lcp_array(text, sa)
    del text
    _extend_right(n, lcp, sa, key)
    del lcp, sa
    # one candidate per (period, end), the one with the leftmost root
    key.sort()
    kept, group = 0, -1
    for x in range(0, len(key), _BLOCK):
        block = key[x : x + _BLOCK]
        groups = block // (n + 1)
        first = np.empty(len(block), dtype=bool)
        first[0] = groups[0] != group
        np.not_equal(groups[1:], groups[:-1], out=first[1:])
        group = groups[-1]
        block = block[first]
        key[kept : kept + len(block)] = block
        kept += len(block)
    period, end, root = _unpack(n, key[:kept])
    del key
    # short of two periods, a candidate needs the letter before it to repeat one period on
    arr = w.array()
    keep = (end - root >= 2 * period) | (end >= 2 * period) & (arr[root - 1] == arr[root + period - 1])
    period, end, root = period[keep], end[keep], root[keep]
    del keep
    # the left extensions: w read backwards from root-1 and root+period-1
    back = np.subtract(n, root, out=root)
    start = _common_prefixes((w.text[::-1] + "$").encode("ascii"), back, back - period)
    start += back
    np.subtract(n, start, out=start)
    del root, back
    end -= start  # length
    run = end >= 2 * period
    # the runs of period 1: blocks of one letter, of one letter more than
    # their run of equal neighbours
    block_start, block_length = _runs_of(arr[1:] == arr[:-1])
    block_length += 1
    key = np.concatenate((
        _pack(n, start[run], period[run], end[run]),
        _pack(n, block_start, 1, block_length),
    ))
    del start, period, end, run, block_start, block_length
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


def _exponent_keys(lengths: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """floor(length * 2**42 / period) as int64, which orders the exponents
    length/period exactly: periods are below 2**21, so two different
    exponents differ by more than 2**-42."""
    key = lengths.astype(np.int64)
    key <<= 42
    key //= periods
    return key


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
    key = _exponent_keys(lengths, periods)
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

