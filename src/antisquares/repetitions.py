"""Exact period and exponent machinery for finite words.

All freeness decisions use exact rational arithmetic (fractions.Fraction);
floating point never enters a comparison.
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


@dataclass(frozen=True)
class Repetition:
    """A periodic factor w[start : start+length] with the given period."""

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


def _match_runs(arr: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of positions i with arr[i] == arr[i+p]."""
    return _runs_of(arr[:-p] == arr[p:])


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


def satisfies(w: Word, bound: PowerBound) -> tuple[bool, Optional[Repetition]]:
    """True iff no factor of w violates the bound.

    On failure, returns a minimal-length violating factor as witness.
    Violating factors of minimal length have minimal period, so periods are
    scanned in increasing order with an early exit.
    """
    n = len(w)
    arr = w.array()
    num, den = bound.threshold.numerator, bound.threshold.denominator
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

