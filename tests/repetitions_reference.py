"""Reference repetition scans for the tests: the per-period loops that
`antisquares.repetitions` replaced with its runs computation.  Each period
p = 1..n costs a full-length numpy pass, so they are quadratic, but every
period is looked at on its own; the tests compare the runs-based answers
against them word for word.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from antisquares.repetitions import Repetition, _has_run, _runs_of, smallest_period
from antisquares.words import Word


def critical_exponent(w: Word) -> tuple[Fraction, Repetition]:
    """Maximum factor exponent of a nonempty finite word, with a witness.

    For each candidate period p, the longest factor with period p has length
    p plus the longest equality run at distance p; the overall maximum over p
    equals the critical exponent (at the witness, p is the minimal period).
    """
    n = len(w)
    if n == 0:
        raise ValueError("critical_exponent requires a nonempty word")
    arr = w.array()
    best_num, best_den = 1, 1  # exponent 1 always attained by a single letter
    best = Repetition(0, n, n) if smallest_period(w) == n else None
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
    if best is None:
        best = Repetition(0, smallest_period(w), n)
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
    arr = w.array()
    out = []
    num, den = Fraction(min_exponent).numerator, Fraction(min_exponent).denominator
    for p in range(1, n):
        # need run r with (r+p)/p >= min_exponent, i.e. r >= p*(e-1)
        min_run = max(-((-(num - den) * p) // den), 1)
        if p + min_run > n:
            break
        eq = arr[:-p] == arr[p:]
        if not _has_run(eq, min_run):
            continue
        starts, lengths = _runs_of(eq)
        for s, r in zip(starts, lengths):
            if r < min_run:
                continue
            rep = Repetition(int(s), p, int(r) + p)
            factor = w[rep.start : rep.start + rep.length]
            if smallest_period(factor) == p:
                out.append(rep)
    out.sort(key=lambda rep: (rep.start, rep.period))
    return out
