"""Fibonacci-structure analysis: Zeckendorf coding, the good infinite word
w built from the 0->001/1->01 fixed point through 0->01/1->11, its
repetition structure against the closed-form (n, p) family, Fibonacci-word
antisquares, the 15/4 construction, and the factorization of 15/4-free good
words into nested morphism images.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from typing import Callable, Optional

import numpy as np

from . import morphisms
from .antisquares import AntisquareInventory, inventory, is_good
from .repetitions import PowerBound, Repetition, _exponent_keys, _runs, critical_exponent, satisfies
from .words import Word

# F_0 = 1, F_1 = 2 indexing throughout this module.


def fibonacci_numbers(count: int) -> list[int]:
    """First `count` Fibonacci numbers under the F_0 = 1, F_1 = 2 convention."""
    fibs = []
    a, b = 1, 2
    for _ in range(count):
        fibs.append(a)
        a, b = b, a + b
    return fibs


def zeckendorf_encode(n: int) -> str:
    """Canonical greedy Zeckendorf digits, most significant first.

    Digit i (from the right) weights F_i; canonical strings have no "11".
    """
    if n < 1:
        raise ValueError("zeckendorf_encode requires n >= 1")
    fibs = []
    a, b = 1, 2
    while a <= n:
        fibs.append(a)
        a, b = b, a + b
    digits = []
    rest = n
    for f in reversed(fibs):
        if f <= rest:
            digits.append("1")
            rest -= f
        else:
            digits.append("0")
    assert rest == 0
    return "".join(digits)


def zeckendorf_decode(digits: str) -> int:
    if not digits or digits[0] != "1" or "11" in digits:
        raise ValueError("not a canonical Zeckendorf string")
    fibs = fibonacci_numbers(len(digits))
    return sum(f for f, d in zip(fibs, reversed(digits)) if d == "1")


@lru_cache(maxsize=None)
def _registry():
    return morphisms.load_registry()


def _morphism(name: str) -> morphisms.Morphism:
    return _registry()[name].morphism


def word_w_prefix(length: int) -> Word:
    """Prefix of the good word w: the image under 0->01, 1->11 of the fixed
    point of 0->001, 1->01.  Prefix-stable in the requested length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    phi = _morphism("phi")
    g = _morphism("g")
    base = morphisms.fixed_point_prefix(phi, 0, -(-length // 2))
    return Word(g.apply_text(base.text)[:length], 2)


def fibonacci_word_prefix(length: int) -> Word:
    return morphisms.fixed_point_prefix(_morphism("fib"), 0, length)[:length]


def verify_phi_identities(n_max: int) -> bool:
    """phi^n(0) = 0 f^n(0) 0^-1 and phi^n(01) = 0 f^n(10) 0^-1 for
    1 <= n <= n_max, where f is the squared Fibonacci morphism 0->010, 1->01."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    phi = _morphism("phi")
    f = _morphism("fib2")
    for n in range(1, n_max + 1):
        lhs0, lhs01 = "0", "01"
        rhs0, rhs10 = "0", "10"
        for _ in range(n):
            lhs0 = phi.apply_text(lhs0)
            lhs01 = phi.apply_text(lhs01)
            rhs0 = f.apply_text(rhs0)
            rhs10 = f.apply_text(rhs10)
        if lhs0 != "0" + rhs0[:-1] or lhs01 != "0" + rhs10[:-1]:
            return False
        if rhs0[-1] != "0" or rhs10[-1] != "0":
            return False  # the trailing-0 cancellation must be well defined
    return True


def is_below_two_plus_alpha(x: Fraction) -> bool:
    """Exact comparison x < 2 + (1+sqrt(5))/2 via integer arithmetic:
    for y = x - 2 >= 0 this is equivalent to y^2 < y + 1."""
    y = x - 2
    if y < 0:
        return True
    return y * y < y + 1


@dataclass(frozen=True)
class RepetitionFamilyRow:
    """One matched maximal repetition: index k in the Fibonacci family with
    n = 2F_{k-1} - 3, p = 2F_{k-3}, exponent 2 + (2F_{k-2} - 3)/(2F_{k-3})."""

    k: int
    n: int
    p: int
    exponent: Fraction
    witness: Repetition

    def tsv(self) -> str:
        dec = float(self.exponent)
        return (
            f"{self.k}\t{self.n}\t{self.p}\t{self.exponent.numerator}/"
            f"{self.exponent.denominator}\t{dec:.12f}\t{zeckendorf_encode(self.p)}"
        )


class _Columns(Sequence):
    """A read-only sequence whose item i is make(*(column[i] for each
    column)), built on access: len() and the columns cost no object per
    item."""

    def __init__(self, make: Callable, *columns: np.ndarray):
        self._make = make
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._make(*(int(column[i]) for column in self._columns))

    def __iter__(self):
        return starmap(self._make, zip(*(column.tolist() for column in self._columns)))


@dataclass
class RepetitionAnalysis:
    rows: Sequence[RepetitionFamilyRow]
    sporadic: Sequence[Repetition]
    unmatched: Sequence[Repetition]
    max_exponent: Fraction

    @property
    def ok(self) -> bool:
        return len(self.unmatched) == 0


def family_parameters(k: int) -> tuple[int, int, Fraction]:
    """(n, p, exponent) of the family member with index k >= 4."""
    fibs = fibonacci_numbers(k + 1)
    n = 2 * fibs[k - 1] - 3
    p = 2 * fibs[k - 3]
    return n, p, Fraction(n + p, p)


# Exponent >= 3 needs 2F_{k-2} - 3 >= 2F_{k-3}, i.e. k >= 5; the smallest
# in-family period is then 2F_2 = 6.  Repetitions with smaller periods are
# whitelisted as sporadic and reported separately.
_SPORADIC_PERIOD_LIMIT = 6


def analyze_w_repetitions(prefix_len: int) -> RepetitionAnalysis:
    """Match every exponent->=3 maximal repetition of the w-prefix against the
    closed-form (n, p) family.

    The runs of the prefix are classified as arrays, by integer tests
    alone: exponent >= 3 is length >= 3 period, a period is looked up among
    the family's, and a family row has length n + p.  The rows, sporadic
    and unmatched repetitions are sequences over the classified arrays,
    which build a row or a Repetition only when it is read.
    """
    if prefix_len < 100:
        raise ValueError("prefix_len must be >= 100")
    start, period, length = _runs(word_w_prefix(prefix_len))
    cubic = length >= 3 * period
    start, period, length = start[cubic], period[cubic], length[cubic]
    return _classify(start, period, length, prefix_len)


def _classify(start: np.ndarray, period: np.ndarray, length: np.ndarray, prefix_len: int) -> RepetitionAnalysis:
    """analyze_w_repetitions for the repetitions (start, period, length),
    sorted by (start, period), of exponent 3 or more in a prefix of
    prefix_len letters."""
    members = []  # (k, n, p, e) by increasing p
    k = 5
    while True:
        n, p, e = family_parameters(k)
        if p > prefix_len:
            break
        members.append((k, n, p, e))
        k += 1
    member_p = np.array([p for _, _, p, _ in members])
    member = np.searchsorted(member_p, period)
    np.minimum(member, len(members) - 1, out=member)
    in_family = member_p[member] == period
    full = np.array([n + p for _, n, p, _ in members])[member]
    row = in_family & (length == full)
    # repetitions clipped by the prefix boundary are not informative
    clipped = (start == 0) | (start + length == prefix_len)
    sporadic = np.where(in_family, clipped & (length < full), (period < _SPORADIC_PERIOD_LIMIT) | clipped)
    unmatched = ~(row | sporadic)
    max_exp = Fraction(1)
    if len(start):
        i = int(np.argmax(_exponent_keys(length, period)))
        max_exp = Fraction(int(length[i]), int(period[i]))

    def repetitions(mask):
        return _Columns(Repetition, start[mask], period[mask], length[mask])

    # the rows by k, and by (start, period) within one k
    at = np.flatnonzero(row)[np.argsort(member[row], kind="stable")]
    rows = _Columns(
        lambda i, s, p, n: RepetitionFamilyRow(*members[i], Repetition(s, p, n)),
        member[at], start[at], period[at], length[at],
    )
    return RepetitionAnalysis(rows, repetitions(sporadic), repetitions(unmatched), max_exp)


def fibonacci_word_antisquares(prefix_len: int) -> AntisquareInventory:
    """Antisquare inventory of the Fibonacci-word prefix."""
    if prefix_len < 100:
        raise ValueError("prefix_len must be >= 100")
    return inventory(fibonacci_word_prefix(prefix_len))


def verify_h_construction(w: Word) -> tuple[bool, Fraction]:
    """Image of a squarefree ternary word under 0->010001, 1->0100010001,
    2->01000100010001: goodness flag and exact critical exponent."""
    if w.alphabet_size != 3 or len(w) == 0:
        raise ValueError("expected a nonempty ternary word")
    if not satisfies(w, PowerBound(Fraction(2)))[0]:
        raise ValueError("input word is not squarefree")
    image = morphisms.apply(_morphism("h154"), w)
    cexp, _ = critical_exponent(image)
    return is_good(image), cexp


@dataclass
class Decomposition:
    """Nested factorization of a 15/4-free good word:

        w = w1 . G(u_1 phi(u_2 ... phi(u_r phi(V) v_r) ... v_2) v_1) . w2

    with G in {g, g'}, |w1|, |w2| <= 5, |u_i| <= 4, |v_i| <= 3, |V| <= 4.
    """

    w1: str
    g_tag: str  # "g" or "gprime"
    u_list: list[str]
    v_list: list[str]
    core: str  # the word V
    w2: str

    @property
    def depth(self) -> int:
        return len(self.u_list)

    def recompose(self) -> Word:
        phi = _morphism("phi")
        inner = self.core
        for u, v in zip(reversed(self.u_list), reversed(self.v_list)):
            inner = u + phi.apply_text(inner) + v
        g = _morphism(self.g_tag)
        return Word(self.w1 + g.apply_text(inner) + self.w2, 2)

    def check_bounds(self) -> bool:
        return (
            len(self.w1) <= 5
            and len(self.w2) <= 5
            and all(len(u) <= 4 for u in self.u_list)
            and all(len(v) <= 3 for v in self.v_list)
            and len(self.core) <= 4
        )


class DecompositionFailure(Exception):
    """No decomposition found for a word meeting the preconditions.  This
    would falsify the factorization lemma and must be surfaced loudly."""


def _parse_prefix_code(text: str, code: dict[str, str]) -> Optional[str]:
    """Decode text as a concatenation of code images (a prefix code), or None."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        for image, letter in code.items():
            if text.startswith(image, i):
                out.append(letter)
                i += len(image)
                break
        else:
            return None
    return "".join(out)


_G_CODE = {"01": "0", "11": "1"}
_GPRIME_CODE = {"01": "0", "00": "1"}
_PHI_CODE = {"001": "0", "01": "1"}


def _peel(v: str) -> Optional[tuple[list[str], list[str], str]]:
    """Factor v as u_1 phi(u_2 ... phi(V) ...) v_1 within the size windows."""
    if len(v) <= 4:
        return [], [], v
    for ulen in range(0, 5):
        for vlen in range(0, 4):
            if ulen + vlen >= len(v):
                continue
            mid = v[ulen : len(v) - vlen if vlen else len(v)]
            parsed = _parse_prefix_code(mid, _PHI_CODE)
            if parsed is None or len(parsed) >= len(v):
                continue
            deeper = _peel(parsed)
            if deeper is not None:
                us, vs, core = deeper
                return [v[:ulen]] + us, [v[len(v) - vlen :] if vlen else ""] + vs, core
    return None


def decompose_good_word(w: Word) -> Decomposition:
    """Decompose a strictly-15/4-free good word of length >= 33 into the
    nested morphism form, backtracking over the (small) cut windows."""
    if len(w) < 33:
        raise ValueError("decompose_good_word requires length >= 33")
    if not is_good(w):
        raise ValueError("word is not good")
    ok, _ = satisfies(w, PowerBound(Fraction(15, 4), forbid_equal=True))
    if not ok:
        raise ValueError("word is not strictly 15/4-free")

    text = w.text
    # marker choice per the factorization argument: 0001 selects g', 0111
    # selects g; try both orders to be safe
    tags = ["gprime", "g"] if "0001" in text else ["g", "gprime"]
    for tag in tags:
        code = _GPRIME_CODE if tag == "gprime" else _G_CODE
        for l1 in range(0, 6):
            for l2 in range(0, 6):
                if l1 + l2 >= len(text):
                    continue
                mid = text[l1 : len(text) - l2 if l2 else len(text)]
                v = _parse_prefix_code(mid, code)
                if v is None:
                    continue
                peeled = _peel(v)
                if peeled is None:
                    continue
                us, vs, core = peeled
                dec = Decomposition(
                    w1=text[:l1],
                    g_tag=tag,
                    u_list=us,
                    v_list=vs,
                    core=core,
                    w2=text[len(text) - l2 :] if l2 else "",
                )
                assert dec.recompose() == w
                return dec
    raise DecompositionFailure(f"no decomposition found for {text}")
