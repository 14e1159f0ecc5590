"""Morphism engine: apply/iterate/fixed points, the named morphism registry,
and the three verification procedures for the uniform ternary-to-binary
constructions (synchronization, image power-freeness, complement-factor
bound with antisquare inventory).

The image check walks the tree of squarefree ternary words once,
appending one image block per node and extending the equality run of every
period (see image_power_check); it visits only prefixes of words of the
requested length, so a violation is counted only where some word of that
length lies below it.

The bound and the inventory rest on the window lemma: for a q-uniform
morphism h, every factor of length L of h(u), with u squarefree and
|u| >= ceil(L/q) + 1, lies in h(u') for a squarefree factor u' of u with
|u'| = ceil(L/q) + 1.  So the images of the squarefree ternary words of
that one length hold every factor of length <= L, and no longer words need
to be looked at.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .antisquares import AntisquareInventory, has_complementary_pair, inventory
from .repetitions import PowerBound, _runs_of
from .search import ConstraintSet, _DFS, _texts
from .words import Word


class RegistryError(Exception):
    """Registry data file missing, malformed, or failing its checksums."""


@dataclass(frozen=True)
class Morphism:
    """A letter-to-word map.  images[a] is the image of letter a."""

    images: tuple[str, ...]
    target_alphabet: int = 2

    def __post_init__(self):
        if not self.images or any(not im for im in self.images):
            raise ValueError("all images must be nonempty")

    @property
    def domain_alphabet(self) -> int:
        return len(self.images)

    @property
    def uniform_length(self) -> Optional[int]:
        sizes = {len(im) for im in self.images}
        return sizes.pop() if len(sizes) == 1 else None

    def prolongable_on(self, letter: int) -> bool:
        im = self.images[letter]
        return len(im) >= 2 and im[0] == str(letter)

    def apply_text(self, text: str) -> str:
        images = self.images
        return "".join(images[ord(c) - 48] for c in text)


def apply(m: Morphism, w: Word) -> Word:
    """Concatenation of the letter images of w."""
    for a in set(w.text):
        if ord(a) - 48 >= m.domain_alphabet:
            raise ValueError(f"letter {a} outside morphism domain")
    return Word(m.apply_text(w.text), m.target_alphabet)


def fixed_point_prefix(m: Morphism, seed: int, min_length: int) -> Word:
    """A prefix of length >= min_length of the unique fixed point of m
    starting with the seed letter.  Prefix-stable: longer requests only
    extend the result."""
    if not m.prolongable_on(seed):
        raise ValueError(f"morphism is not prolongable on letter {seed}")
    text = str(seed)
    while len(text) < min_length:
        text = m.apply_text(text)
    return Word(text, m.target_alphabet)


def is_synchronizing(m: Morphism) -> bool:
    """A uniform morphism with image length q is synchronizing if every
    occurrence of an image inside a two-image concatenation is at position
    0 or q."""
    q = m.uniform_length
    if q is None:
        raise ValueError("synchronization is only defined for uniform morphisms")
    for a in m.images:
        for b in m.images:
            for c in m.images:
                hay = b + c
                pos = hay.find(a)
                while pos != -1:
                    if pos not in (0, q):
                        return False
                    pos = hay.find(a, pos + 1)
    return True


_SQUAREFREE = ConstraintSet(power=PowerBound.parse("2"), alphabet_size=3)
_SLICE = 4096  # nodes of the tree walked between two batches of words


def squarefree_ternary_words(length: int) -> Iterator[Word]:
    """All squarefree ternary words of the given length, lexicographically.

    The search engine walks their tree _SLICE nodes at a time and hands on
    each slice's words before it walks the next: there are exponentially
    many, and a caller that takes the first few walks little more.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        yield Word("", 3)
        return
    dfs = _DFS(_SQUAREFREE, length, 0)
    found: list[Word] = []

    def on_level(letters: np.ndarray) -> None:
        if letters.shape[1] == length:
            found.extend(Word(text, 3) for text in _texts(letters))

    while dfs.stack:  # run() leaves chunks on the stack when its budget ends
        dfs.budget += _SLICE
        dfs.run(on_level)
        yield from found
        found.clear()


def image_power_check(m: Morphism, bound: PowerBound, t: int) -> bool:
    """True iff the image of every squarefree ternary word of length t
    satisfies the bound.

    One depth-first walk over the prefixes of those words: a node appends the
    image block of its last letter and updates, for every period p, the run
    of positions i with x[i] == x[i-p] that ends the image.  A factor that
    breaks the bound ends in the block of the first node whose image holds
    it, where it shows as a run crossing the block start or lying inside the
    block, so each factor is checked once per tree path, not once per word.
    The per-depth state is a stack of at most t run vectors.

    The walk follows squarefree_ternary_words(t) leaf by leaf, so it visits
    only prefixes of words of length t: a prefix that extends to no such word
    (0102010 is the first) is never visited, and a violation found at any
    node is one in the image of every word below it.  Per-letter block
    lengths make non-uniform morphisms work too.
    """
    if m.domain_alphabet != 3:
        raise ValueError("image_power_check expects a ternary-domain morphism")
    if t < 0:
        raise ValueError("length must be >= 0")
    if t == 0:
        return True  # the image of the empty word is empty
    # images are written back to front into one buffer, so that the letters
    # before position i of the image read forwards from the end of i's block
    blocks = [np.frombuffer(im[::-1].encode("ascii"), dtype=np.uint8) - 48 for im in m.images]
    pad = max(len(blk) for blk in blocks) - 1
    size = t * (pad + 1)
    # sentinel padding after the image start: x[i - p] with i < p never matches
    text = np.full(size + pad, 255, dtype=np.uint8)
    windows = {len(blk): sliding_window_view(text, len(blk)) for blk in blocks}
    min_run = np.array([bound.min_violating_run(p) for p in range(1, size + 1)], dtype=np.int32)
    # periods whose violating runs fit strictly inside a block, by block length
    inner = {b: int(np.searchsorted(min_run, b)) for b in windows}
    # row d: the run ending the image at each period, zero past the periods
    # of the depth-d image
    runs = np.zeros((t + 1, size), dtype=np.int32)
    ends = [0] * (t + 1)

    def push(depth: int, letter: int) -> bool:
        blk = blocks[letter]
        b = len(blk)
        n = ends[depth]
        ends[depth + 1] = n + b
        start = size - n - b
        text[start : start + b] = blk
        periods = n + b - 1
        # row p-1 compares the block, last letter first, with the b letters
        # p before them
        miss = windows[b][start + 1 : start + 1 + periods] != blk
        trail = miss.argmax(axis=1)
        full = ~miss[np.arange(periods), trail]
        old = runs[depth, :periods]
        # a run through the block start breaks the bound only where the run
        # that ended the previous image plus the whole block reaches min_run
        reach = np.flatnonzero(old + b >= min_run[:periods])
        if reach.size:
            rows = miss[reach]
            lead = np.where(full[reach], b, rows[:, ::-1].argmax(axis=1))
            if (old[reach] + lead >= min_run[reach]).any():
                return False
        k = min(inner[b], periods)
        if k:
            seg = np.zeros((k, b + 1), dtype=bool)
            np.logical_not(miss[:k], out=seg[:, :b])
            starts, lengths = _runs_of(seg.ravel())
            if (lengths >= min_run[starts // (b + 1)]).any():
                return False
        new = runs[depth + 1]
        new[:periods] = np.where(full, old + b, trail)
        new[periods:] = 0
        return True

    prev = ""
    for u in squarefree_ternary_words(t):
        depth = 0
        while depth < len(prev) and prev[depth] == u.text[depth]:
            depth += 1
        for depth in range(depth, t):
            if not push(depth, ord(u.text[depth]) - 48):
                return False
        prev = u.text
    return True


# Largest squarefree window complement_factor_bound examines before it gives up.
MAX_WINDOW = 24


def _window_images(m: Morphism, length: int) -> list[str]:
    """Images of all squarefree ternary words of length ceil(length/q) + 1,
    which by the window lemma hold every factor of length <= length."""
    q = m.uniform_length
    if q is None or m.domain_alphabet != 3:
        raise ValueError("expected a uniform ternary-domain morphism")
    return [m.apply_text(u.text) for u in squarefree_ternary_words(-(-length // q) + 1)]


def complement_factor_bound(m: Morphism) -> int:
    """Largest L such that some v of length L and its complement both occur
    in images h(u) of squarefree ternary words u long enough to hold them,
    |u| >= ceil(L/q) + 1.

    By the window lemma the factors that count at L are exactly those of
    the images of the squarefree words of length ceil(L/q) + 1.  Having a
    complementary pair is closed under taking prefixes, so the first L
    without one gives the exact answer L - 1.

    This is not the same as taking every factor of every image: a short
    squarefree word that extends to no longer one counts only for the L its
    length can hold.  For Morphism(("0", "1", "0")) the whole image of
    1012101 adds a pair at L = 7, and the bound is 6.  Where the window at
    L = m + 1 is 2 letters, as for every published construction, each
    window word extends to an infinite squarefree word, so m is the value
    for infinite words.

    Raises ValueError for a non-uniform or non-ternary-domain morphism, and
    when pairs persist through windows of MAX_WINDOW letters.
    """
    length, images = 1, _window_images(m, 1)  # checks m before any window arithmetic
    while has_complementary_pair(images, length):
        if length == (MAX_WINDOW - 1) * m.uniform_length:
            raise ValueError(f"complementary factor pairs persist through windows of {MAX_WINDOW} letters")
        length += 1
        if (length - 1) % m.uniform_length == 0:  # ceil(length/q) grew: the window is one letter longer
            images = _window_images(m, length)
    return length - 1


def morphic_antisquare_inventory(m: Morphism, window: int) -> AntisquareInventory:
    """Distinct antisquares of length <= window occurring in images of
    squarefree ternary words; by the window lemma the images of the words
    of length ceil(window/q) + 1 hold all of them."""
    combined = AntisquareInventory()
    for image in _window_images(m, window):
        for a in inventory(Word(image, m.target_alphabet)).distinct:
            if len(a) <= window:
                combined.distinct.add(a)
    return combined


@dataclass(frozen=True)
class MorphismRegistryEntry:
    name: str
    morphism: Morphism
    source: str
    checksum: str


@dataclass
class MorphismCheckReport:
    """Results of the three verification checks for one uniform construction."""

    name: str
    synchronizing: bool
    image_bound_ok: bool
    t_used: int
    complement_bound: int
    inventory: AntisquareInventory
    # synchronizing, image bound held, complement bound equal to the
    # published m, and the antisquare cap held
    passed: bool


def _image_checksum(images: tuple[str, ...]) -> str:
    return hashlib.sha256("\n".join(images).encode("ascii")).hexdigest()


def load_registry() -> dict[str, MorphismRegistryEntry]:
    """Load the named-morphism registry from the packaged data file,
    verifying the per-entry image checksums."""
    text = resources.files("antisquares").joinpath("data/registry.txt").read_text()
    registry: dict[str, MorphismRegistryEntry] = {}
    name = None
    images: dict[int, str] = {}
    source = ""
    checksum = ""

    def flush():
        nonlocal name, images, source, checksum
        if name is None:
            return
        ordered = tuple(images[a] for a in sorted(images))
        if len(ordered) != len(images) or sorted(images) != list(range(len(images))):
            raise RegistryError(f"entry {name}: images must cover letters 0..k-1")
        actual = _image_checksum(ordered)
        if actual != checksum:
            raise RegistryError(f"entry {name}: checksum mismatch (registry file modified?)")
        target = 3 if any(("2" in im) for im in ordered) else 2
        registry[name] = MorphismRegistryEntry(
            name, Morphism(ordered, target_alphabet=target), source, checksum
        )
        name, images, source, checksum = None, {}, "", ""

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("# source:"):
            source = line[len("# source:") :].strip()
        elif line.startswith("# sha256:"):
            checksum = line[len("# sha256:") :].strip()
        elif line.endswith(":"):
            flush()
            name = line[:-1].strip()
        elif "->" in line:
            letter, image = line.split("->")
            images[int(letter.strip())] = image.strip()
        else:
            raise RegistryError(f"unparsable registry line: {raw!r}")
    flush()
    return registry


# Published verification parameters for the uniform constructions:
# (constraint kind, cap, power bound, t, expected complement bound m).
# "order" caps the antisquare order (strictly below cap); "count" caps the
# number of distinct antisquares (at most cap).
VERIFICATION_PARAMS: dict[str, dict] = {
    "xi3": dict(kind="order", cap=3, bound="8/3+", t=8, m=6),
    "xi5": dict(kind="order", cap=5, bound="5/2+", t=10, m=16),
    "xi6": dict(kind="order", cap=6, bound="7/3+", t=14, m=26),
    "zeta3": dict(kind="count", cap=3, bound="3+", t=6, m=4),
    "zeta6": dict(kind="count", cap=6, bound="8/3+", t=8, m=6),
    "zeta9": dict(kind="count", cap=9, bound="38/15+", t=9, m=17),
    "zeta10": dict(kind="count", cap=10, bound="5/2+", t=10, m=17),
    "zeta15": dict(kind="count", cap=15, bound="17/7+", t=11, m=12),
    "zeta16": dict(kind="count", cap=16, bound="7/3+", t=14, m=13),
}

# Published uniform image lengths.
UNIFORM_LENGTHS: dict[str, int] = {
    "xi3": 36,
    "xi5": 19,
    "xi6": 37,
    "zeta3": 13,
    "zeta6": 36,
    "zeta9": 192,
    "zeta10": 75,
    "zeta15": 194,
    "zeta16": 192,
}


def verify_construction(name: str, registry=None) -> MorphismCheckReport:
    """Run all three checks for one registered uniform construction and
    decide its verdict against the published parameters."""
    params = VERIFICATION_PARAMS[name]
    registry = registry if registry is not None else load_registry()
    m = registry[name].morphism
    bound = PowerBound.parse(params["bound"])
    sync = is_synchronizing(m)
    ok_images = image_power_check(m, bound, params["t"])
    cb = complement_factor_bound(m)
    inv = morphic_antisquare_inventory(m, 2 * cb)
    cap_ok = inv.max_order < params["cap"] if params["kind"] == "order" else inv.count <= params["cap"]
    passed = sync and ok_images and cb == params["m"] and cap_ok
    return MorphismCheckReport(name, sync, ok_images, params["t"], cb, inv, passed)
