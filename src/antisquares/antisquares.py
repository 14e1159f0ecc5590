"""Antisquare detection, inventories, goodness tests, minimal antisquares,
and Pansiot coding.

An antisquare is a word u·v with v the letterwise complement of u; its order
is |u|.  A binary word is good if its only antisquare factors are 01 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from typing import Iterable, Iterator, Optional

import numpy as np

from .words import Word, complement_text


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


_BLOCK = 1 << 14  # codes per numpy call in _paired and _inventory


def _factor_codes(texts: list[str]) -> Iterator[tuple[np.ndarray, int, Optional[np.ndarray]]]:
    """(codes, top, room) for the factors of length L = 1, 2, ... of the
    binary texts joined, up to the longest text: codes[i] is the code of the
    factor of length L at letter i, and room[i] the letters from i to the
    end of its text (None for one text), so the windows that cross a text
    end are those with room[i] < L.  Each level overwrites the codes of the
    one before.

    Equal factors get equal codes, codes order factors lexicographically,
    and the complement of the factor with code c has code top - c.  The
    codes start as the letters (top 1) and grow by one letter a level,
    c -> 2c + letter and top -> 2 top + 1: while nothing is re-ranked, c is
    the factor read as an L-bit number and top - c its complement.  Once top
    passes twice the length, the codes are re-ranked among themselves and
    their complements: complementing reverses the lexicographic order, so
    the ranks keep the rule with top = their count - 1, and the codes stay
    exact at any L.  So top stays below 4 (length + 1), and int32 codes do
    for texts of up to 2**28 letters.
    """
    text, lengths = "".join(texts), [len(t) for t in texts]
    letters = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - 48
    if letters.size and letters.max() > 1:
        raise ValueError("complementary factors are only defined for binary texts")
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(text)) if len(texts) > 1 else None
    dtype = np.int32 if len(text) < 2**28 else np.int64
    codes, top = letters.astype(dtype), 1
    for level in range(1, max(lengths, default=0) + 1):
        if level > 1:
            if top > 2 * len(text):
                table = np.concatenate((codes, top - codes))
                table.sort()
                new = np.ones(len(table), dtype=bool)
                np.not_equal(table[1:], table[:-1], out=new[1:])
                table = table[new]
                codes, top = np.searchsorted(table, codes).astype(dtype), len(table) - 1
            codes = codes[:-1]
            codes <<= 1
            codes |= letters[level - 1 :]
            top = 2 * top + 1
        yield codes, top, room


def _inside(codes: np.ndarray, room: Optional[np.ndarray], length: int) -> np.ndarray:
    """The codes of `_factor_codes` of the windows inside one text."""
    return codes if room is None else codes[room[: len(codes)] >= length]


def _paired(codes: np.ndarray, top: int) -> bool:
    """True iff some code of `_factor_codes` and its complement's are both
    among the given codes."""
    seen = np.zeros(top + 1, dtype=bool)
    for x in range(0, len(codes), _BLOCK):  # the index takes 8 bytes a code
        seen[codes[x : x + _BLOCK]] = True
    return bool((seen & seen[::-1]).any())


def has_complementary_pair(texts: Iterable[str], length: int) -> bool:
    """True iff some factor of the given length of the binary texts has its
    complement among the factors of that length of the texts.

    The texts are coded joined, and the windows that cross from one text
    into the next are left out.
    """
    if length < 1:
        raise ValueError(f"a factor length must be >= 1, got {length}")
    return next(_complementary_levels(list(texts), length), False)


def _complementary_levels(texts: list[str], first: int) -> Iterator[bool]:
    """has_complementary_pair(texts, L) for L = first, first + 1, ... up to
    the longest text, from one walk of the factor codes; the levels below
    first are coded but not tested."""
    for length, (codes, top, room) in enumerate(_factor_codes(texts), 1):
        if length >= first:
            yield _paired(_inside(codes, room, length), top)


def complement_pair_bound(text: str) -> int:
    """Largest L such that some v of length L and its complement are both
    factors of the word; 0 if no complementary pair exists.

    If v and ~v are factors then so are their length-(L-1) prefixes, so the
    property is monotone and the scan can stop at the first empty level.
    """
    return sum(1 for _ in takewhile(bool, _complementary_levels([text], 1)))


def inventory(w: Word) -> AntisquareInventory:
    """All distinct antisquare factors of a binary word.

    An antisquare of order k makes its two halves a complementary factor
    pair, so orders stop at complement_pair_bound, which keeps the scan
    fast on long structured words.  This is _inventory of the one text: the
    walk that leaves out antisquares crossing a text end has none to leave
    out here, and skips that test.
    """
    if w.alphabet_size != 2:
        raise ValueError("antisquare inventory is only defined for binary words")
    return _inventory([w.text])


def _inventory(texts: list[str]) -> AntisquareInventory:
    """The distinct antisquares that lie inside one of the binary texts;
    one that crosses from one text into the next is not kept.

    At order k the antisquares start where the code of the second half is
    the complement of the first half's, and the distinct first-half codes
    tell the distinct antisquares apart, so one text is sliced for each.
    The walk stops at the first order with no complementary pair.
    """
    text = "".join(texts)
    found: set[Word] = set()
    for order, (codes, top, room) in enumerate(_factor_codes(texts), 1):
        if not _paired(_inside(codes, room, order), top):
            break
        starts = len(codes) - order
        for x in range(0, starts, _BLOCK):  # a block at a time bounds the temporaries
            halves = codes[x : min(x + _BLOCK, starts)]
            hit = (codes[x + order : x + order + len(halves)] == top - halves).nonzero()[0] + x
            if room is not None:
                hit = hit[room[hit] >= 2 * order]
            if not len(hit):  # past order 1, a good word has none
                continue
            _, first = np.unique(codes[hit], return_index=True)
            found.update(Word(text[s : s + 2 * order], 2) for s in hit[first].tolist())
    return AntisquareInventory(found)


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
