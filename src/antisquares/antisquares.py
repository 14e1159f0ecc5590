"""Antisquare detection, inventories, goodness tests, minimal antisquares,
and Pansiot coding.

An antisquare is a word u·v with v the letterwise complement of u; its order
is |u|.  A binary word is good if its only antisquare factors are 01 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .words import Word, complement_text, factor_texts


@dataclass
class AntisquareInventory:
    """All distinct antisquare factors of a word."""

    distinct: set[Word] = field(default_factory=set)

    @property
    def count(self) -> int:
        return len(self.distinct)

    @property
    def max_order(self) -> int:
        return max((len(w) // 2 for w in self.distinct), default=0)


@dataclass
class MinimalAntisquareTable:
    by_order: dict[int, set[Word]]

    def render(self) -> str:
        lines = []
        for order in sorted(self.by_order):
            members = sorted(w.text for w in self.by_order[order])
            lines.append(f"{order}\t" + ",".join(members))
        return "\n".join(lines)


def is_antisquare(w: Word) -> bool:
    """True iff |w| is even, |w| >= 2 and the second half is the complement
    of the first half.  The order is then len(w)//2."""
    n = len(w)
    if n == 0 or n % 2 != 0 or w.alphabet_size != 2:
        return False
    h = n // 2
    return w.text[h:] == complement_text(w.text[:h])


def antisquare_order(w: Word) -> int:
    """Order of w if it is an antisquare, else 0."""
    return len(w) // 2 if is_antisquare(w) else 0


def has_complementary_pair(texts: Iterable[str], length: int) -> bool:
    """True iff some factor of the given length of the texts has its
    complement among the factors of that length of the texts."""
    facs: set[str] = set()
    for text in texts:
        facs |= factor_texts(text, length)
    return any(complement_text(v) in facs for v in facs)


def complement_pair_bound(text: str) -> int:
    """Largest L such that some v of length L and its complement are both
    factors of the word; 0 if no complementary pair exists.

    If v and ~v are factors then so are their length-(L-1) prefixes, so the
    property is monotone and the scan can stop at the first empty level.
    """
    m = 0
    while m < len(text) and has_complementary_pair([text], m + 1):
        m += 1
    return m


def _antisquare_starts(arr: np.ndarray, k: int) -> np.ndarray:
    """Start positions of antisquare occurrences of order k in arr."""
    ne = arr[:-k] != arr[k:]
    if len(ne) < k:
        return np.empty(0, dtype=np.int64)
    # an antisquare of order k starting at i needs ne[i..i+k-1] all True;
    # detect via a running window sum
    window = np.convolve(ne.astype(np.int32), np.ones(k, dtype=np.int32), mode="valid")
    return np.flatnonzero(window == k)


def inventory(w: Word) -> AntisquareInventory:
    """All distinct antisquare factors of a binary word.

    An antisquare of order k makes its two halves a complementary factor
    pair, so orders are bounded by complement_pair_bound; only those orders
    are scanned, which keeps the scan fast on long structured words.
    """
    if w.alphabet_size != 2:
        raise ValueError("antisquare inventory is only defined for binary words")
    text = w.text
    found: set[str] = set()
    for k in range(1, min(complement_pair_bound(text), len(text) // 2) + 1):
        found.update(text[s : s + 2 * k] for s in _antisquare_starts(w.array(), k))
    return AntisquareInventory({Word(t, 2) for t in found})


def is_good(w: Word) -> bool:
    """True iff the only antisquare factors of w are 01 and 10."""
    return inventory(w).max_order < 2


def is_minimal_antisquare(w: Word) -> bool:
    """An antisquare is minimal if no proper factor of length >= 4 is an
    antisquare (01 and 10 are always exempt)."""
    if not is_antisquare(w):
        return False
    n = len(w)
    text = w.text
    for length in range(4, n, 2):
        for i in range(n - length + 1):
            if i == 0 and length == n:
                continue
            h = length // 2
            if text[i + h : i + length] == complement_text(text[i : i + h]):
                return False
    return True


def minimal_antisquares(max_order: int) -> MinimalAntisquareTable:
    """Brute-force table of all minimal antisquares of order <= max_order."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    table: dict[int, set[Word]] = {}
    for order in range(1, max_order + 1):
        found: set[Word] = set()
        for bits in range(2**order):
            half = format(bits, f"0{order}b")
            w = Word(half + complement_text(half), 2)
            if is_minimal_antisquare(w):
                found.add(w)
        table[order] = found
    return MinimalAntisquareTable(table)


def characterized_minimal(order: int) -> set[Word]:
    """Closed-form minimal antisquares of the given order: literal sets for
    orders 1-4, and for order n >= 5 the 2n conjugates of 0^(n-2)·10·1^(n-2)·01."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return {Word("01"), Word("10")}
    if order == 2:
        return {Word("0011"), Word("0110"), Word("1001"), Word("1100")}
    if order == 3:
        return {Word("010101"), Word("101010")}
    if order == 4:
        return set()
    n = order
    seed = "0" * (n - 2) + "10" + "1" * (n - 2) + "01"
    return {Word(seed[i:] + seed[:i], 2) for i in range(len(seed))}


def pansiot_encode(w: Word) -> Word:
    """Derivative word p with p_i = 0 iff consecutive letters of w are equal.

    Note the code of a word equals the code of its complement.
    """
    if len(w) < 1:
        raise ValueError("pansiot_encode requires a nonempty word")
    t = w.text
    return Word("".join("0" if t[i] == t[i + 1] else "1" for i in range(len(t) - 1)), 2)


def pansiot_decode(code: Word, first: int) -> Word:
    """Inverse of pansiot_encode given the first letter of the original word."""
    out = [first]
    for p in code:
        out.append(out[-1] if p == 0 else 1 - out[-1])
    return Word("".join(str(a) for a in out), 2)
