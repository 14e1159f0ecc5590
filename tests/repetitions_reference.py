"""Reference repetition scans for the tests: the per-period loops that
`antisquares.repetitions` replaced with its runs computation.  Each period
p = 1..n costs a full-length pass, so they are quadratic, but every period
is looked at on its own; the tests compare the runs-based answers against
them word for word.  They share no code with the package: the equality
runs at a distance are found by a regular expression over the bytes of the
comparison, and minimal periods by comparing the word with its shifts.
Beside them, the loops that the runs computation and the family analysis
of w replaced with array code: `lcp_array`, `lyndon_roots` and
`analyze_w_repetitions`, and the suffix order by sorting the suffixes
themselves, `sorted_suffixes`.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

import numpy as np

from antisquares import fibanalysis, repetitions
from antisquares.repetitions import Repetition
from antisquares.words import Word

_EQUAL_RUN = re.compile(b"\x01+")


def letters(w: Word) -> np.ndarray:
    return np.frombuffer(w.text.encode("ascii"), dtype=np.uint8)


def equal_at(arr: np.ndarray, p: int) -> bytes:
    """Byte i is 1 where w[i] == w[i+p], else 0."""
    return (arr[:-p] == arr[p:]).tobytes()


def has_equal_run(eq: bytes, length: int) -> bool:
    """Whether `equal_at` has length ones in a row."""
    return b"\x01" * length in eq


def longest_equal_run(eq: bytes) -> tuple[int, int]:
    """(start, length) of the first of the longest runs of ones in `equal_at`."""
    best = max(_EQUAL_RUN.finditer(eq), key=lambda m: m.end() - m.start())
    return best.start(), best.end() - best.start()


def period(text: str) -> int:
    """The least p >= 1 with text[i] == text[i+p] wherever both exist."""
    n = len(text)
    return next(p for p in range(1, n + 1) if text[p:] == text[: n - p])


def critical_exponent(w: Word) -> tuple[Fraction, Repetition]:
    """Maximum factor exponent of a nonempty finite word, with a witness.

    For each candidate period p, the longest factor with period p has length
    p plus the longest equality run at distance p; the overall maximum over p
    equals the critical exponent (at the witness, p is the minimal period).
    """
    n = len(w)
    if n == 0:
        raise ValueError("critical_exponent requires a nonempty word")
    arr = letters(w)
    best_num, best_den = 1, 1  # exponent 1 always attained by a single letter
    best = Repetition(0, n, n) if period(w.text) == n else None
    for p in range(1, n):
        eq = equal_at(arr, p)
        # only runs that beat the current best matter
        min_beat = (p * (best_num - best_den)) // best_den + 1
        if not has_equal_run(eq, max(min_beat, 1)):
            continue
        start, run = longest_equal_run(eq)
        length = run + p
        # compare length/p with best_num/best_den exactly
        if length * best_den > best_num * p:
            best_num, best_den = length, p
            best = Repetition(start, p, length)
    if best is None:
        best = Repetition(0, period(w.text), n)
        best_num, best_den = n, best.period
    return Fraction(best_num, best_den), best


def maximal_repetitions(w: Word, min_exponent: Fraction) -> list[Repetition]:
    """All maximal repetitions of exponent >= min_exponent.

    Maximal means: not extendable left or right with the same period, and the
    period is the minimal period of the factor.  Runs whose period is not
    minimal are reported under their minimal period instead.
    """
    n = len(w)
    if n == 0:
        return []
    arr = letters(w)
    out = []
    num, den = Fraction(min_exponent).numerator, Fraction(min_exponent).denominator
    for p in range(1, n):
        # need run r with (r+p)/p >= min_exponent, i.e. r >= p*(e-1)
        min_run = max(-((-(num - den) * p) // den), 1)
        if p + min_run > n:
            break
        eq = equal_at(arr, p)
        if not has_equal_run(eq, min_run):
            continue
        for m in _EQUAL_RUN.finditer(eq):
            r = m.end() - m.start()
            if r < min_run:
                continue
            rep = Repetition(m.start(), p, r + p)
            if period(w.text[rep.start : rep.start + rep.length]) == p:
                out.append(rep)
    out.sort(key=lambda rep: (rep.start, rep.period))
    return out


def sorted_suffixes(text: bytes) -> tuple[list[int], list[int]]:
    """(suffix array, LCP of each suffix with the one before it) of `text`,
    whose last letter occurs nowhere else, by sorting the suffixes by their
    first L letters for the first L in 16, 64, 256, ... that tells them
    all apart: then no two share L letters, and their L-letter prefixes are
    in the order of the suffixes."""
    n = len(text)
    length = 16
    while True:
        sa = sorted(range(n), key=lambda i: text[i : i + length])
        prefixes = [text[i : i + length] for i in sa]
        if all(a != b for a, b in zip(prefixes, prefixes[1:])):
            lcp = [len(os.path.commonprefix([a, b])) for a, b in zip(prefixes, prefixes[1:])]
            return sa, [0, *lcp]
        length *= 4


def lcp_array(text: bytes, sa: np.ndarray) -> np.ndarray:
    """`repetitions._lcp_array` by the loop of Kasai et al. (CPM 2001) in
    text order: the suffix before i+1 in rank order shares at least one
    letter fewer with it than i with its own.  The unique last letter of
    `text` stops every comparison inside the text."""
    n = len(text) - 1
    phi = np.empty(n + 1, dtype=np.int32)  # phi[i]: the suffix ranked just below i
    phi[sa[1:]] = sa[:-1]
    plcp = np.zeros(n + 1, dtype=np.int32)
    h = 0
    for i in range(n):  # suffix n ('$') ranks first
        j = int(phi[i])
        while text[i + h] == text[j + h]:
            h += 1
        plcp[i] = h
        if h:
            h -= 1
    return plcp[sa]


def lyndon_roots(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`repetitions._lyndon_roots` one position at a time: for i = n-1 down
    to 0, the least j > i with rank[j] < rank[i], found by following the
    answers already known for i+1, ..."""
    n = len(rank) - 1
    nxt = np.empty(n + 1, dtype=np.int32)
    for i in range(n - 1, -1, -1):
        j = i + 1
        while rank[j] > rank[i]:
            j = nxt[j]
        nxt[i] = j
    root = ((nxt[:n] - np.arange(n, dtype=np.int32)) > 1).nonzero()[0]
    return root.astype(np.int32), nxt[root]


def analyze_w_repetitions(prefix_len: int) -> fibanalysis.RepetitionAnalysis:
    """`fibanalysis.analyze_w_repetitions` over the package's runs, which
    the tests compare with `maximal_repetitions` above on their own."""
    w = fibanalysis.word_w_prefix(prefix_len)
    return classify(repetitions.maximal_repetitions(w, Fraction(3)), prefix_len)


def classify(reps: list[Repetition], prefix_len: int) -> fibanalysis.RepetitionAnalysis:
    """`fibanalysis._classify` one repetition at a time, with exact
    fractions."""
    by_period = {}
    k = 5
    while True:
        n, p, e = fibanalysis.family_parameters(k)
        if p > prefix_len:
            break
        by_period[p] = (k, n, p, e)
        k += 1
    rows, sporadic, unmatched = [], [], []
    max_exp = Fraction(1)
    for rep in reps:
        exp = rep.exponent
        max_exp = max(max_exp, exp)
        clipped = rep.start == 0 or rep.start + rep.length == prefix_len
        if rep.period in by_period:
            k, n, p, e = by_period[rep.period]
            if rep.length == n + p and exp == e:
                rows.append(fibanalysis.RepetitionFamilyRow(k, n, p, e, rep))
            elif clipped and rep.length <= n + p:
                sporadic.append(rep)
            else:
                unmatched.append(rep)
        elif rep.period < fibanalysis._SPORADIC_PERIOD_LIMIT or clipped:
            sporadic.append(rep)
        else:
            unmatched.append(rep)
    rows.sort(key=lambda r: r.k)
    return fibanalysis.RepetitionAnalysis(rows, sporadic, unmatched, max_exp)
