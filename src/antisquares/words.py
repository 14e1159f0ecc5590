"""Finite words over alphabets {0,1} and {0,1,2}, their complements and factors."""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

_COMPLEMENT_TABLE = str.maketrans("01", "10")
# str.translate deletes the letters of each alphabet, and leaves any other
_LETTERS = {size: dict.fromkeys(range(48, 48 + size)) for size in (2, 3)}

LettersLike = Union[str, "Word", Iterable[int]]


class Word:
    """An immutable finite word over a fixed alphabet {0, ..., alphabet_size-1}.

    Letters are stored as a string of ASCII digits, which keeps hashing,
    slicing and factor extraction cheap.  The alphabet size is explicit
    state: a ternary word need not use all three letters.
    """

    __slots__ = ("text", "alphabet_size", "_arr")

    def __init__(self, letters: LettersLike = "", alphabet_size: int = 2):
        if alphabet_size not in (2, 3):
            raise ValueError(f"alphabet_size must be 2 or 3, got {alphabet_size}")
        if isinstance(letters, Word):
            text = letters.text
        elif isinstance(letters, str):
            text = letters
        else:
            digits = []
            for a in letters:
                if a not in range(alphabet_size):
                    raise ValueError(f"letter {a!r} out of range for alphabet size {alphabet_size}")
                digits.append("012"[a])
            text = "".join(digits)
        outside = text.translate(_LETTERS[alphabet_size])
        if outside:
            raise ValueError(f"letter {outside[0]!r} out of range for alphabet size {alphabet_size}")
        self.text = text
        self.alphabet_size = alphabet_size
        self._arr = None

    def array(self) -> np.ndarray:
        """Letters as a read-only uint8 numpy array (cached)."""
        if self._arr is None:
            arr = np.frombuffer(self.text.encode("ascii"), dtype=np.uint8) - 48
            arr.flags.writeable = False
            self._arr = arr
        return self._arr

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[int]:
        return (ord(c) - 48 for c in self.text)

    def __getitem__(self, i) -> "Word | int":
        if isinstance(i, slice):
            return Word(self.text[i], self.alphabet_size)
        return ord(self.text[i]) - 48

    def __add__(self, other: "Word") -> "Word":
        return Word(self.text + other.text, max(self.alphabet_size, other.alphabet_size))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.text == other.text and self.alphabet_size == other.alphabet_size

    def __lt__(self, other: "Word") -> bool:
        return self.text < other.text

    def __hash__(self) -> int:
        return hash((self.text, self.alphabet_size))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r}, alphabet_size={self.alphabet_size})"


def complement(w: Word) -> Word:
    """Letterwise 0<->1 flip.  Only defined over the binary alphabet."""
    if w.alphabet_size != 2:
        raise ValueError("complement is only defined for binary words")
    return Word(w.text.translate(_COMPLEMENT_TABLE), 2)


def complement_text(text: str) -> str:
    """complement() for raw digit strings, used in inner loops."""
    return text.translate(_COMPLEMENT_TABLE)


def factor_texts(text: str, length: int) -> set[str]:
    """Distinct factors of exactly the given length, as raw strings."""
    return {text[i : i + length] for i in range(len(text) - length + 1)}
