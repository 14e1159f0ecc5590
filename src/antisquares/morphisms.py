"""Morphism engine: apply/iterate/fixed points, the named morphism registry,
and the three verification procedures for the uniform ternary-to-binary
constructions (synchronization, image power-freeness, complement-factor
bound with antisquare inventory).

The image check walks the tree of squarefree ternary words once,
appending one image block per node and extending the equality run of every
period that can still break the bound (see image_power_check); it visits
only prefixes of words of the requested length, so a violation is counted
only where some word of that length lies below it.  For a uniform morphism
a node reads its block's matches at every period from tables built once
per call, indexed by the two blocks the period reaches back into, the new
letter and the offset (_block_tables); a morphism with images of different
lengths compares each new block with the image before it at every period
(_block_matrices).  Both feed one step that tests and extends the runs.

The complement-factor bound walks the factor codes of each window's images
once, for all the lengths that window serves.

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
from functools import cached_property
from importlib import resources
from itertools import islice
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .antisquares import AntisquareInventory, _complementary_levels, inventory
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

    @cached_property
    def _image_table(self) -> tuple[dict, np.ndarray]:
        """(a str.translate table that deletes the domain's letters, a uint8
        table whose row 48 + a holds the image of letter a, padded with
        0xFF to the longest image)"""
        table = np.full((48 + len(self.images), max(map(len, self.images))), 0xFF, dtype=np.uint8)
        for a, image in enumerate(self.images):
            table[48 + a, : len(image)] = np.frombuffer(image.encode("ascii"), dtype=np.uint8)
        return dict.fromkeys(range(48, 48 + len(self.images))), table

    def apply_text(self, text: str) -> str:
        """The concatenation of the images of the letters of text, gathered
        from the image table a row per letter, padding dropped.  ValueError
        names the first letter outside the domain."""
        domain, table = self._image_table
        outside = text.translate(domain)
        if outside:
            raise ValueError(f"letter {outside[0]!r} outside morphism domain")
        image = table[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
        return image[image != 0xFF].tobytes().decode("ascii")


def apply(m: Morphism, w: Word) -> Word:
    """Concatenation of the letter images of w."""
    return Word(m.apply_text(w.text), m.target_alphabet)


def fixed_point_prefix(m: Morphism, seed: int, min_length: int) -> Word:
    """A prefix of length >= min_length of the unique fixed point of m
    starting with the seed letter.  Prefix-stable: longer requests only
    extend the result."""
    if not 0 <= seed < m.domain_alphabet:
        raise ValueError(f"letter {seed} outside morphism domain")
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

    def on_leaf(letters: np.ndarray) -> None:
        found.extend(Word(text, 3) for text in _texts(letters))

    while dfs.stack:  # run() leaves blocks on the stack when its budget ends
        dfs.budget += _SLICE
        dfs.run(on_leaf)
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
    The per-depth state is a stack of at most t run vectors, over only the
    periods p that can break the bound in the longest image, those with
    p + min_run(p) <= t * (longest block).

    A node needs three numbers per period from its block: lead, the matches
    from the block start; trail, the matches back from the block end; and
    inner, the longest run of matches.  It breaks the bound iff
    max(old run + lead, inner) >= min_run at some period, and the new run is
    old + block where the whole block matches, else trail.  For a uniform
    morphism they come from block tables built once per call (see
    _block_tables), a gather per node; a morphism with images of different
    lengths compares each new block with the image before it at every
    period (_block_matrices).

    The walk follows squarefree_ternary_words(t) leaf by leaf, so it visits
    only prefixes of words of length t: a prefix that extends to no such word
    (0102010 is the first) is never visited, and a violation found at any
    node is one in the image of every word below it.
    """
    return _check_images(m, bound, t, _block_tables if m.uniform_length else _block_matrices)


def _match_stats(miss: np.ndarray, inner_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lead, trail, inner) of each row of a mismatch matrix whose columns run
    from the end of a block back to its start: the matches from the block
    start, the matches back from the block end (the block length where the
    whole row matches) and, in the first inner_rows rows, the longest run of
    matches (0 in the rows after them)."""
    rows, b = miss.shape
    trail = miss.argmax(axis=1).astype(np.int32)
    full = ~miss[np.arange(rows), trail]
    trail[full] = b
    lead = np.where(full, b, miss[:, ::-1].argmax(axis=1)).astype(np.int32)
    inner = np.zeros(rows, dtype=np.int32)
    seg = np.zeros((inner_rows, b + 1), dtype=bool)  # a column of misses keeps runs in their rows
    np.logical_not(miss[:inner_rows], out=seg[:, :b])
    starts, lengths = _runs_of(seg.ravel())
    if starts.size:
        rows = starts // (b + 1)
        first = np.flatnonzero(np.diff(rows, prepend=-1))  # of each row's runs, which come in order
        inner[rows[first]] = np.maximum.reduceat(lengths, first)
    return lead, trail, inner


def _block_matrices(m: Morphism, t: int, reach: int, min_run: np.ndarray):
    """The general image walk's block step, for images of any lengths: it
    compares the new block with the letters p before it for every period p,
    one row of a periods x block matrix each."""
    # images are written back to front into one buffer, so that the letters
    # before position i of the image read forwards from the end of i's block
    blocks = [np.frombuffer(im[::-1].encode("ascii"), dtype=np.uint8) - 48 for im in m.images]
    pad = max(len(blk) for blk in blocks) - 1
    size = t * (pad + 1)
    # sentinel padding after the image start: x[i - p] with i < p never matches
    text = np.full(size + pad, 255, dtype=np.uint8)
    windows = {len(blk): sliding_window_view(text, len(blk)) for blk in blocks}
    ends = [0] * (t + 1)

    def stats(depth: int, letter: int):
        blk = blocks[letter]
        b = len(blk)
        n = ends[depth]
        ends[depth + 1] = n + b
        start = size - n - b
        text[start : start + b] = blk
        periods = min(n + b - 1, reach)
        # row p-1 compares the block, last letter first, with the b letters
        # p before them; inner is needed only where min_run < b, since
        # elsewhere only a run of the whole block can break the bound, and
        # lead counts that one
        miss = windows[b][start + 1 : start + 1 + periods] != blk
        return b, *_match_stats(miss, int(np.searchsorted(min_run[:periods], b)))

    return stats


def _block_tables(m: Morphism, t: int, reach: int, min_run: np.ndarray):
    """The image walk's block step for a q-uniform morphism, by table.

    At depth d the new block h(c) starts at n = dq, and a period p = kq + r
    compares it with h(a)h(b)[q - r : 2q - r], where a = u[d-k-1] (a
    sentinel block before the image start) and b = u[d-k], which is c for
    k = 0.  So lead, trail and inner depend only on (a, b, c, r), and are
    built once, one (a, b) context at a time; a == b is a square, which the
    walk never meets.  A step gathers its periods' rows of the tables by the
    context codes 3a + b, which are kept back to front so that depth d reads
    k = 0 .. d forwards.
    """
    q = m.uniform_length
    blocks = np.array([np.frombuffer(im.encode("ascii"), dtype=np.uint8) - 48 for im in m.images])
    sentinel = np.full(q, 255, dtype=np.uint8)
    # tables[s][c, 3a + b, r] for s = lead, trail, inner
    tables = np.zeros((3, 3, 12, q), dtype=np.int32)
    for a in range(4):
        for b in range(3):
            if a == b:
                continue
            seg = np.concatenate((blocks[a] if a < 3 else sentinel, blocks[b]))
            shifted = sliding_window_view(seg, q)[q - np.arange(q)]  # row r: seg[q - r : 2q - r]
            miss = shifted[None] != blocks[:, None]  # (c, r, j), j from the block start
            stats = _match_stats(miss[:, :, ::-1].reshape(3 * q, q), 3 * q)
            tables[:, :, 3 * a + b] = np.reshape(stats, (3, 3, q))
    lead, trail, inner = tables
    context = np.zeros(t, dtype=np.intp)
    word = [3] * (t + 1)  # word[d + 1] = u[d]; word[0] is the sentinel

    def stats(depth: int, letter: int):
        word[depth + 1] = letter
        at = t - 1 - depth
        context[at] = 3 * word[depth] + letter
        periods = min(depth * q + q - 1, reach)
        ctx = context[at : at + periods // q + 1]  # k = 0 .. periods // q
        return q, *(table[letter][ctx].ravel()[1 : periods + 1] for table in (lead, trail, inner))

    return stats


def _check_images(m: Morphism, bound: PowerBound, t: int, step_stats) -> bool:
    """image_power_check's walk, with the block step that
    step_stats(m, t, reach, min_run) returns: stats(depth, letter) appends the
    block of the letter at that depth and gives its length and its lead,
    trail and inner at the periods 1, 2, ... of the new image, up to reach."""
    if m.domain_alphabet != 3:
        raise ValueError("image_power_check expects a ternary-domain morphism")
    if t < 0:
        raise ValueError("length must be >= 0")
    if t == 0:
        return True  # the image of the empty word is empty
    size = t * max(len(im) for im in m.images)
    # no run reaches size, so min_run may stop there
    min_run = bound.min_violating_runs(size).astype(np.int32)
    # a period p can break the bound only in an image of p + min_run(p)
    # letters or more, and p + min_run(p) grows with p
    reach = int(np.searchsorted(np.arange(1, size + 1) + min_run, size, "right"))
    min_run = min_run[:reach]
    stats = step_stats(m, t, reach, min_run)
    # row d: the run ending the depth-d image at each period, zero past the
    # periods of that image
    runs = np.zeros((t + 1, reach), dtype=np.int32)

    def push(depth: int, letter: int) -> bool:
        b, lead, trail, inner = stats(depth, letter)
        periods = len(lead)
        old = runs[depth, :periods]
        # a run through the block start continues the run that ended the
        # previous image
        if (np.maximum(old + lead, inner) >= min_run[:periods]).any():
            return False
        new = runs[depth + 1]
        new[:periods] = np.where(trail == b, old + b, trail)
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
    q = m.uniform_length or 0  # _window_images rejects a non-uniform m
    for window in range(2, MAX_WINDOW + 1):
        # the window serves the q lengths L with ceil(L/q) + 1 == window, and
        # one walk of the factor codes of its images answers all of them
        first = (window - 2) * q + 1
        levels = _complementary_levels(_window_images(m, first), first)
        for length, paired in enumerate(islice(levels, q), first):
            if not paired:
                return length - 1
    raise ValueError(f"complementary factor pairs persist through windows of {MAX_WINDOW} letters")


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
