"""Regular-language counting for good words: forbidden-factor automata,
exact transfer-matrix counts, growth-rate extraction, Pansiot-code block
counting, and the degree-6 polynomial identity behind the supergolden rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from .words import Word

# Minimal antisquares of orders 2 and 3, and the markers 001011 and 110100,
# one of which every minimal antisquare of order >= 5 holds (there are none
# of order 4; see characterized_minimal): a word that avoids all eight is
# good.  Not every good word avoids them: at n = 34 the good words with a
# marker are 24.7% of all good words, and they grow at the same rate.
GOOD_WORD_FORBIDDEN = ("0011", "1100", "0110", "1001", "010101", "101010", "001011", "110100")

# Forbidden factors of the Pansiot codes of the words above: blocks of 0s of
# length >= 2 and blocks of 1s of length 2 or 4.
PANSIOT_CODE_FORBIDDEN = ("010", "101", "11111", "01110")


@dataclass
class FactorAvoidanceAutomaton:
    """Deterministic safe-prefix automaton for a finite forbidden factor set.

    States are the forbidden-word prefixes reachable as "longest dangerous
    suffix"; a transition leading into a forbidden word goes to an implicit
    dead sink.  Accepts exactly the words containing no forbidden factor.
    """

    alphabet_size: int
    states: list[str]
    transitions: list[list[int]]  # state x letter -> state index or -1 (dead)
    start: int = 0

    @property
    def num_states(self) -> int:
        return len(self.states)

    def accepts(self, w: Word) -> bool:
        s = self.start
        for a in w:
            s = self.transitions[s][a]
            if s < 0:
                return False
        return True

    def adjacency(self) -> np.ndarray:
        n = self.num_states
        mat = np.zeros((n, n), dtype=np.int64)
        for i, row in enumerate(self.transitions):
            for j in row:
                if j >= 0:
                    mat[i, j] += 1
        return mat


@dataclass
class CountSeries:
    counts: list[int]


@dataclass
class GrowthEstimate:
    """The largest real root of polynomial (coefficients low to high) lies in
    (lo, hi] = interval, or is 1 when interval == (1, 1); value is the midpoint."""

    value: float
    polynomial: list[int]
    interval: tuple[Fraction, Fraction]


def build_avoidance_automaton(
    forbidden: Sequence[str | Word], alphabet_size: int = 2
) -> FactorAvoidanceAutomaton:
    """Safe-prefix automaton for the given nonempty forbidden set."""
    bad = [str(f) for f in forbidden]
    if not bad:
        raise ValueError("forbidden set must be nonempty")
    prefixes = {""}
    for f in bad:
        for i in range(1, len(f) + 1):
            prefixes.add(f[:i])
    # a state must itself be clean of forbidden factors
    clean = sorted(
        (p for p in prefixes if not any(f in p for f in bad)),
        key=lambda p: (len(p), p),
    )
    index = {p: i for i, p in enumerate(clean)}
    letters = [str(a) for a in range(alphabet_size)]
    transitions = []
    for p in clean:
        row = []
        for a in letters:
            t = p + a
            if any(t.endswith(f) for f in bad):
                row.append(-1)
                continue
            while t not in index:
                t = t[1:]
            row.append(index[t])
        transitions.append(row)
    return FactorAvoidanceAutomaton(alphabet_size, clean, transitions)


def _state_counts(a: FactorAvoidanceAutomaton, n_max: int) -> Iterator[list[int]]:
    """For each length 0..n_max, the number of accepted words of that length
    that end in each state."""
    vec = [0] * a.num_states
    vec[a.start] = 1
    yield vec
    for _ in range(n_max):
        nxt = [0] * a.num_states
        for i, weight in enumerate(vec):
            if weight:
                for j in a.transitions[i]:
                    if j >= 0:
                        nxt[j] += weight
        vec = nxt
        yield vec


def count_series(a: FactorAvoidanceAutomaton, n_max: int) -> CountSeries:
    return CountSeries([sum(vec) for vec in _state_counts(a, n_max)])


def _live_submatrix(a: FactorAvoidanceAutomaton) -> np.ndarray:
    """Adjacency restricted to states on arbitrarily long accepted paths."""
    mat = a.adjacency()
    keep = np.zeros(a.num_states, dtype=bool)
    keep[a.start] = True
    for _ in range(a.num_states):  # states reachable from the start
        keep |= keep @ mat > 0
    while True:  # then trim the states with no way on, until none is left
        trimmed = keep & (mat[:, keep].sum(axis=1) > 0)
        if np.array_equal(trimmed, keep):
            return mat[np.ix_(keep, keep)]
        keep = trimmed


def _charpoly(mat: list[list[int]]) -> list[int]:
    """det(xI - mat), coefficients low to high, by Berkowitz's division-free
    algorithm: each leading principal submatrix's polynomial is a Toeplitz
    matrix times the one before, all in Python integers."""
    vect = [1, -mat[0][0]]  # high to low while it grows
    for r in range(1, len(mat)):
        t, x = [1, -mat[r][r]], [mat[i][r] for i in range(r)]
        for _ in range(r):
            t.append(-sum(a * b for a, b in zip(mat[r], x)))
            x = [sum(a * b for a, b in zip(mat[i], x)) for i in range(r)]
        vect = poly_mul(t, vect)[: r + 2]
    return vect[::-1]


def _divmod(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Integer pseudo-division: (quot, rem) with c p = quot q + rem for an
    integer c > 0, so rem keeps the signs of the true remainder.  Trailing
    zeros of rem are dropped."""
    rem, quot = list(p), [0] * max(len(p) - len(q) + 1, 0)
    lc = abs(q[-1])
    for shift in reversed(range(len(quot))):
        f = rem[shift + len(q) - 1] * (1 if q[-1] > 0 else -1)
        rem = [c * lc for c in rem]
        quot = [c * lc for c in quot]
        quot[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
    rem = rem[: len(q) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients."""
    g = gcd(*p)
    return [c // g for c in p]


def _sign(p: list[int], n: int, k: int) -> int:
    """Sign of p(n / 2^k), from 2^(k deg) p(n / 2^k) evaluated in integers."""
    acc, shift = p[-1], k
    for c in reversed(p[:-1]):
        acc = acc * n + (c << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def _dominant_root(poly: list[int], top: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < hi at most 2^-128 apart with the largest real root of
    poly in (lo, hi], or (1, 1) when no root lies in (1, top].

    The Sturm count V(a) - V(b) of the square-free part q is its number of
    roots in (a, b].  Such counts isolate the largest root, and go on until
    q(lo) != 0, as 1 may be a root below it; sign bisection at lo = a / 2^k,
    hi = b / 2^k then narrows it.
    """
    g, deriv = poly, [i * c for i, c in enumerate(poly)][1:]
    while deriv:
        g, deriv = deriv, _primitive(_divmod(g, deriv)[1])
    q = _primitive(_divmod(poly, g)[0])
    sturm = [q, [i * c for i, c in enumerate(q)][1:]]
    while len(sturm[-1]) > 1:
        sturm.append(_primitive([-c for c in _divmod(sturm[-2], sturm[-1])[1]]))

    def variations(n: int, k: int) -> int:
        signs = [s for s in (_sign(p, n, k) for p in sturm) if s]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    a, b, k = 1, top, 0
    v_lo, v_hi = variations(a, k), variations(b, k)
    if v_lo == v_hi:
        return Fraction(1), Fraction(1)
    while v_lo - v_hi > 1 or _sign(q, a, k) == 0:
        a, b, k = 2 * a, 2 * b, k + 1
        v_mid = variations(a + b >> 1, k)
        if v_mid > v_hi:
            a, v_lo = a + b >> 1, v_mid
        else:
            b = a + b >> 1
    s_lo = _sign(q, a, k)
    while (b - a) << 128 > 1 << k:
        a, b, k = 2 * a, 2 * b, k + 1
        if _sign(q, a + b >> 1, k) == s_lo:
            a = a + b >> 1
        else:
            b = a + b >> 1
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


def growth_rate(a: FactorAvoidanceAutomaton) -> GrowthEstimate:
    """Exact growth rate of the language accepted by a: the spectral radius
    of the live-state transfer matrix, which is its largest real eigenvalue
    (Perron-Frobenius) and at least 1, as the live states carry a cycle.
    The interval (1, 1) means polynomial growth.

    On the automaton of GOOD_WORD_FORBIDDEN it is the supergolden ratio psi.
    Its words are all good, so the growth of the good words is >= psi,
    certified; = psi by the paper's lemma on the marker words."""
    sub = _live_submatrix(a)
    if sub.size == 0:
        raise ValueError("language is finite; growth rate undefined")
    poly = _charpoly(sub.tolist())
    lo, hi = _dominant_root(poly, a.alphabet_size)
    return GrowthEstimate(float((lo + hi) / 2), poly, (lo, hi))


def supergolden() -> Fraction:
    """The real root of X^3 = X^2 + 1, as a rational at most 2^-128 above it."""
    return _dominant_root([-1, 0, -1, 1], 2)[1]


def pansiot_block_counts(n_max: int) -> list[int]:
    """Number of Pansiot-code words of each length ending in 00.

    These are the binary words avoiding {010, 101, 11111, 01110} (blocks of
    0s of length >= 2, blocks of 1s of length 2 or 4) whose last two letters
    are 00.  A word of two letters or more is in the safe-prefix state "0"
    exactly when it ends in 00, since "10" is a state and "00" is not, so
    the counts are the weights of that state.
    """
    aut = build_avoidance_automaton(PANSIOT_CODE_FORBIDDEN)
    zero = aut.states.index("0")
    return [vec[zero] if n >= 2 else 0 for n, vec in enumerate(_state_counts(aut, n_max))]


def verify_pansiot_recurrence(n_range: range, counts: Optional[list[int]] = None) -> bool:
    """Check C_n = C_{n-1} + C_{n-4} + C_{n-6} across the range, where C_n
    counts the qualifying code words of length n ending in 00."""
    if n_range.start < 8:
        raise ValueError("the recurrence needs n >= 8 (C_7 = 10 but C_6+C_3+C_1 = 9)")
    if counts is None:
        counts = pansiot_block_counts(max(n_range))
    return all(counts[n] == counts[n - 1] + counts[n - 4] + counts[n - 6] for n in n_range)


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Exact integer polynomial product, coefficients indexed by degree."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expand_polynomial_identity() -> bool:
    """(X+1)(X^2-X+1)(X^3-X^2-1) expands exactly to X^6 - X^5 - X^2 - 1."""
    product = poly_mul(poly_mul([1, 1], [1, -1, 1]), [-1, 0, -1, 1])
    return product == [-1, 0, -1, 0, 0, -1, 1]
