"""Morphism engine: apply/iterate/fixed points, the named morphism registry,
and the three verification procedures for ternary-to-binary constructions
(synchronization, image power-freeness, complement-factor bound with
antisquare inventory).

The image check walks the tree of squarefree ternary words one level at a
time, appending one image block per node and extending the equality run of
every period that can still break the bound (see image_power_check); its
nodes are the prefixes of the words of the requested length, which the
search engine lists as one array, so a violation is counted only where
some word of that length lies below it.  For a uniform morphism a level
gathers its blocks' matches at every period from tables built once per
call, indexed by the two blocks the period reaches back into, the new
letter and the offset (_level_tables); a morphism with images of different
lengths compares each new block with the image before it at every period,
one mismatch matrix per new letter (_level_matrices).  Both feed one step
that tests and extends a whole level's runs.  Ochem's lemma gives the
length it checks (image_check_length).

The image check, the complement-factor bound and the antisquare inventory
read the squarefree ternary words of a length from one cached array.  The
bound and the inventory each walk the factor codes of a window's images
once, all images together, leaving out factors that cross an image end.

The bound and the inventory rest on the window lemma: for a morphism h
whose shortest image has s letters, every factor of length L of h(u), with
u squarefree and |u| >= ceil(L/s) + 1, lies in h(u') for a squarefree
factor u' of u with |u'| = ceil(L/s) + 1 (see _window_images).  So the
images of the squarefree ternary words of that one length hold every
factor of length <= L, and no longer words need to be looked at; s = q
for a q-uniform morphism.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import islice
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .antisquares import AntisquareInventory, _complementary_levels, _inventory
from .repetitions import PowerBound, _runs_of
from .search import ConstraintSet, _DFS
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
    0 or q, so none starts at 1 .. q - 1."""
    q = m.uniform_length
    if q is None:
        raise ValueError("synchronization is only defined for uniform morphisms")
    return all((b + c).find(a, 1, 2 * q - 1) == -1 for a in m.images for b in m.images for c in m.images)


_SQUAREFREE = ConstraintSet(power=PowerBound.parse("2"), alphabet_size=3)


def image_power_check(m: Morphism, bound: PowerBound, t: int) -> bool:
    """True iff the image of every squarefree ternary word of length t
    satisfies the bound.

    The walk takes the tree of the prefixes of those words one level at a
    time.  A node of depth d is a prefix of d + 1 letters: it appends the
    image block of its last letter to its parent's image and updates, for
    every period p, the run of positions i with x[i] == x[i-p] that ends the
    image.  A factor that breaks the bound ends in the block of the first
    node whose image holds it, where it shows as a run crossing the block
    start or lying inside the block, so each factor is checked once per
    tree path, not once per word.  The state is one level's runs, a
    nodes x periods array over only the periods p that can break the bound
    in the longest image, those with p + min_run(p) <= t * (longest block),
    int16 while t * (longest block) < 2**15: for zeta16 at t = 14, 456 nodes
    x 1,151 periods, 1.05 MB at the deepest level.

    A node needs three numbers per period from its block: lead, the matches
    from the block start; trail, the matches back from the block end; and
    inner, the longest run of matches.  It breaks the bound iff
    max(old run + lead, inner) >= min_run at some period, and the new run is
    old + block where the whole block matches, else trail.  A level gets
    them for all its nodes at once: for a uniform morphism by a gather from
    block tables built once per call (see _level_tables), for images of
    different lengths from one mismatch matrix per new letter
    (_level_matrices).

    The nodes are the prefixes of the words of length t, which the search
    engine lists, so a prefix that extends to no such word (0102010 is the
    first) is never visited, and a violation found at any node is one in
    the image of every word below it.
    """
    return _check_images(m, bound, t, _level_tables if m.uniform_length else _level_matrices)


def image_check_length(bound: PowerBound, q: int) -> int:
    """The length t = floor(N) at which image_power_check shows that a
    synchronizing q-uniform morphism maps every squarefree ternary word,
    finite or infinite, to a word that satisfies bound, where

        N = max(2b/(b - 2), 2(q - 1)(2b - 1)/(q(b - 1))),  b = bound.threshold,

    in exact Fraction arithmetic.  ValueError unless b > 2.

    N is the length bound of Ochem's lemma (P. Ochem, "A generator of
    morphisms for infinite words", RAIRO-ITA 40 (2006) 427-441) with
    alpha = 2, i.e. squarefree preimages, in the form used here: for
    rationals 1 < alpha < beta and a synchronizing q-uniform morphism h,
    q >= 1, if h(w) is beta+-free for every alpha-free word w with |w| <
    max(2 beta/(beta - alpha), 2(q - 1)(2 beta - 1)/(q(beta - 1))), then
    h(w) is beta+-free for every alpha-free word w.  This form is not
    checked against the source's wording (alpha-free or alpha+-free
    preimages, the range of beta).  Where N is an integer (xi3, xi5, xi6,
    zeta3, zeta6, zeta10, zeta16), floor(N) is one letter more than |w| < N
    needs; t keeps floor(N), the published value, as long as the statement
    at hand does not settle whether N - 1 will do.

    The walk visits only the prefixes of words of length t, so a short
    squarefree word that extends to no word of length t goes unchecked.
    That is enough for infinite words: the lemma uses only factors of the
    infinite word, and each extends on the right, inside it, to a
    squarefree word of length t, whose image the walk tests.
    """
    b = bound.threshold
    if b <= 2:
        raise ValueError(f"Ochem's lemma for squarefree preimages needs a threshold above 2; got {bound}")
    return int(max(2 * b / (b - 2), 2 * (q - 1) * (2 * b - 1) / (q * (b - 1))))  # b is a Fraction


def _match_stats(miss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, trail) of each row of a mismatch matrix whose columns run from
    the end of a block back to its start: the matches from the block start
    and the matches back from the block end, the block length where the
    whole row matches."""
    rows, b = miss.shape
    trail = miss.argmax(axis=1).astype(np.int32)
    full = ~miss[np.arange(rows), trail]
    trail[full] = b
    lead = np.where(full, b, miss[:, ::-1].argmax(axis=1)).astype(np.int32)
    return lead, trail


def _longest_matches(miss: np.ndarray) -> np.ndarray:
    """inner, the longest run of matches in each row of a mismatch matrix."""
    rows, b = miss.shape
    inner = np.zeros(rows, dtype=np.int32)
    seg = np.zeros((rows, b + 1), dtype=bool)  # a column of misses keeps runs in their rows
    np.logical_not(miss, out=seg[:, :b])
    starts, lengths = _runs_of(seg.ravel())
    if starts.size:
        rows = starts // (b + 1)
        first = np.flatnonzero(np.diff(rows, prepend=-1))  # of each row's runs, which come in order
        inner[rows[first]] = np.maximum.reduceat(lengths, first)
    return inner


def _level_matrices(m: Morphism, words: np.ndarray, reach: int, min_run: np.ndarray):
    """The image walk's level step for images of any lengths.  A level's
    nodes go in three groups, one per new letter and so one block length
    b, and each group compares its block with the letters p before it at
    every period p, one row of a (periods x nodes) x b mismatch matrix per
    node and period."""
    blocks = [np.frombuffer(im.encode("ascii"), dtype=np.uint8) for im in m.images]
    lengths = np.array([len(blk) for blk in blocks])
    count, t = words.shape
    ends = np.zeros((count, t + 1), dtype=np.intp)  # ends[i, d]: the length of the image of words[i, :d]
    np.cumsum(lengths[words], axis=1, out=ends[:, 1:])
    # each word's image, in ASCII codes, after `size` sentinel letters:
    # x[i - p] with i < p never matches
    size = t * int(lengths.max())
    letters = m._image_table[1][48 + words].reshape(count, -1)
    kept = letters != 255
    text = np.full((count, 2 * size), 255, dtype=np.uint8)
    text[np.nonzero(kept)[0], size - 1 + np.cumsum(kept, axis=1)[kept]] = letters[kept]
    windows = {b: sliding_window_view(text, b, axis=1) for b in set(lengths.tolist())}

    def step(depth: int, rows: np.ndarray):
        letter = words[rows, depth]
        n = ends[rows, depth]
        b = lengths[letter]
        periods = np.minimum(n + b - 1, reach)
        width = int(periods.max())
        lead = np.zeros((len(rows), width), dtype=np.int32)
        trail = np.zeros_like(lead)
        inner = np.zeros_like(lead)
        cut = 0
        for c, blk in enumerate(blocks):
            group = np.flatnonzero(letter == c)
            if not group.size:
                continue
            # rows past a node's periods compare its block with sentinels only
            span = int(periods[group].max())
            p = np.arange(1, span + 1)[:, None]
            # [p, g, j] compares x[n + j] with x[n + j - p], last letter first
            miss = windows[len(blk)][rows[group], size + n[group] - p][:, :, ::-1] != blk[::-1]
            # inner is needed only where min_run < b, since elsewhere only a
            # run of the whole block can break the bound, and lead counts that one
            inner_rows = int(np.searchsorted(min_run[:span], len(blk)))
            flat = miss.reshape(-1, len(blk))  # rows by period, then node
            stats = *_match_stats(flat), _longest_matches(flat[: inner_rows * len(group)])
            for out, got in zip((lead, trail, inner), stats):
                out[group, : len(got) // len(group)] = got.reshape(-1, len(group)).T
            cut = max(cut, inner_rows)
        return b[:, None], lead, trail, inner[:, :cut]

    return step


def _level_tables(m: Morphism, words: np.ndarray, reach: int, min_run: np.ndarray):
    """The image walk's level step for a q-uniform morphism, by table.

    At depth d the new block h(c) starts at n = dq, and a period p = kq + r
    compares it with h(a)h(b)[q - r : 2q - r], where a = u[d-k-1] (a
    sentinel block before the image start) and b = u[d-k], which is c for
    k = 0.  So lead, trail and inner depend only on (a, b, c, r), and are
    built once, one (a, b) context at a time; a == b is a square, which the
    walk never meets.  A level gathers its nodes' rows of the tables by the
    codes 12c + 3a + b, whose contexts 3a + b are kept back to front so
    that depth d reads k = 0 .. d forwards.  inner is gathered only at the
    periods where min_run < q: elsewhere only a run of the whole block can
    break the bound, and lead counts that one.
    """
    q = m.uniform_length
    blocks = np.array([np.frombuffer(im.encode("ascii"), dtype=np.uint8) - 48 for im in m.images])
    sentinel = np.full(q, 255, dtype=np.uint8)
    inner_periods = int(np.searchsorted(min_run, q))
    # tables[s, 12c + 3a + b, r] for s = lead, trail, inner; inner only at
    # the periods kq + r up to inner_periods, which lie in the first block
    # (k = 0, so b == c) unless inner_periods >= q
    tables = np.zeros((3, 36, q), dtype=np.min_scalar_type(q))
    inner_rows = min(q, inner_periods + 1)
    for a in range(4):
        for b in range(3):
            if a == b:
                continue
            seg = np.concatenate((blocks[a] if a < 3 else sentinel, blocks[b]))
            shifted = sliding_window_view(seg, q)[q - np.arange(q)]  # row r: seg[q - r : 2q - r]
            miss = shifted[None, :, ::-1] != blocks[:, None, ::-1]  # (c, r, j), j from the block end
            rows = slice(3 * a + b, None, 12)  # c = 0, 1, 2
            tables[:2, rows] = np.reshape(_match_stats(miss.reshape(3 * q, q)), (2, 3, q))
            for c in range(3) if inner_periods >= q else [b]:
                tables[2, 12 * c + 3 * a + b, :inner_rows] = _longest_matches(miss[c, :inner_rows])
    lead, trail, inner = tables
    t = words.shape[1]
    letters = words.astype(np.intp)
    before = np.full_like(letters, 3)  # the sentinel before the first letter
    before[:, 1:] = letters[:, :-1]
    contexts = (3 * before + letters)[:, ::-1]  # column t - 1 - j: 3u[j-1] + u[j]

    def step(depth: int, rows: np.ndarray):
        periods = min(depth * q + q - 1, reach)
        at = t - 1 - depth
        codes = contexts[rows, at : at + periods // q + 1]  # k = 0 .. periods // q
        codes += 12 * letters[rows, depth, None]
        cut = min(periods, inner_periods)
        lead_trail_inner = [
            table[codes[:, : span // q + 1]].reshape(len(rows), -1)[:, 1 : span + 1]
            for table, span in ((lead, periods), (trail, periods), (inner, cut))
        ]
        return q, *lead_trail_inner

    return step


@lru_cache(maxsize=32)
def _squarefree_word_array(length: int) -> np.ndarray:
    """The squarefree ternary words of the given length >= 1 as the rows of
    one uint8 array, lexicographically, from one walk of the search engine;
    read-only, as it is kept for the rest of the process."""
    parts: list[np.ndarray] = []
    _DFS(_SQUAREFREE, length, sys.maxsize).run(lambda letters: parts.append(np.ascontiguousarray(letters)))
    words = np.concatenate(parts)
    words.flags.writeable = False
    return words


def _check_images(m: Morphism, bound: PowerBound, t: int, level_steps) -> bool:
    """image_power_check's walk, with the level step that
    level_steps(m, words, reach, min_run) returns for the words of length t:
    step(depth, rows) appends the blocks of the letters words[rows, depth]
    to the images of the depth-d nodes, which start at those rows, and gives
    the block lengths (one for all, or a column) and the nodes' lead and
    trail at the periods 1, 2, ... of the longest new image, up to reach,
    and their inner at a first part of those periods that holds every one
    with min_run below the block length; all zero past a node's own image."""
    if m.domain_alphabet != 3:
        raise ValueError("image_power_check expects a ternary-domain morphism")
    if t < 0:
        raise ValueError("length must be >= 0")
    if t == 0:
        return True  # the image of the empty word is empty
    size = t * max(len(im) for im in m.images)
    # no run reaches size, so min_run may stop there and runs fit in dtype
    dtype = np.int16 if size < 2**15 else np.int32
    min_run = bound.min_violating_runs(size)
    # a period p can break the bound only in an image of p + min_run(p)
    # letters or more, and p + min_run(p) grows with p
    reach = int(np.searchsorted(np.arange(1, size + 1) + min_run, size, "right"))
    min_run = min_run[:reach].astype(dtype)
    words = _squarefree_word_array(t)
    # the first letter where each word differs from the one before it: a
    # depth-d node starts at each row where that is at most d
    differs = np.zeros(len(words), dtype=np.intp)
    differs[1:] = (words[1:] != words[:-1]).argmax(axis=1)
    step = level_steps(m, words, reach, min_run)
    # the runs ending each node's image at each period, zero past the
    # periods of that image; the empty word's image has none
    runs = np.zeros((1, 0), dtype=dtype)
    above = np.zeros(1, dtype=np.intp)
    for depth in range(t):
        rows = np.flatnonzero(differs <= depth)
        old = runs[np.searchsorted(above, rows, "right") - 1]
        b, lead, trail, inner = step(depth, rows)
        width, cut = old.shape[1], inner.shape[1]
        # a run through the block start continues the run that ended the
        # parent's image
        hit = lead.astype(dtype)
        hit[:, :width] += old
        np.maximum(hit[:, :cut], inner, out=hit[:, :cut])
        if (hit >= min_run[: hit.shape[1]]).any():
            return False
        del hit
        runs = trail.astype(dtype)
        np.add(runs[:, :width], old, out=runs[:, :width], where=trail[:, :width] == b)
        above = rows
    return True


# Largest squarefree window complement_factor_bound examines before it gives up.
MAX_WINDOW = 24


def _window_images(m: Morphism, length: int) -> list[str]:
    """Images of all squarefree ternary words of length ceil(length/s) + 1,
    s the length of the shortest image, cut from one apply_text of the
    words end to end at each word's image length.

    By the window lemma they hold every factor of length <= length of the
    images h(u) of the squarefree words u with |u| >= ceil(length/s) + 1: a
    factor v has a letter in its first and in its last block, and each
    block between lies inside v and has at least s letters, so v meets at
    most ceil(|v|/s) + 1 consecutive blocks, the images of a factor of u;
    that factor lies in a squarefree factor u' of u with ceil(length/s) + 1
    letters.  ValueError unless the domain is ternary.
    """
    if m.domain_alphabet != 3:
        raise ValueError("expected a ternary-domain morphism")
    words = _squarefree_word_array(-(-length // min(map(len, m.images))) + 1)
    text = m.apply_text((words + 48).tobytes().decode("ascii"))
    ends = np.cumsum(np.array([len(im) for im in m.images])[words].sum(axis=1)).tolist()
    return [text[i:j] for i, j in zip([0] + ends, ends)]


def complement_factor_bound(m: Morphism) -> int:
    """Largest L such that some v of length L and its complement both occur
    in images h(u) of squarefree ternary words u long enough to hold them,
    |u| >= ceil(L/s) + 1, s the length of the shortest image.

    By the window lemma (see _window_images) the factors that count at L
    are exactly those of the images of the squarefree words of length
    ceil(L/s) + 1.  Having a complementary pair is closed under taking
    prefixes, so the first L without one gives the exact answer L - 1.

    This is not the same as taking every factor of every image: a short
    squarefree word that extends to no longer one counts only for the L its
    length can hold.  For Morphism(("0", "1", "0")) the whole image of
    1012101 adds a pair at L = 7, and the bound is 6.  Where the window at
    L = m + 1 is 2 letters, as for every published construction and h154,
    each window word extends to an infinite squarefree word, so m is the
    value for infinite words.

    Raises ValueError for a non-ternary-domain morphism, and when pairs
    persist through windows of MAX_WINDOW letters.
    """
    s = min(map(len, m.images))
    for window in range(2, MAX_WINDOW + 1):
        # the window serves the s lengths L with ceil(L/s) + 1 == window, and
        # one walk of the factor codes of its images answers all of them
        first = (window - 2) * s + 1
        levels = _complementary_levels(_window_images(m, first), first)
        for length, paired in enumerate(islice(levels, s), first):
            if not paired:
                return length - 1
    raise ValueError(f"complementary factor pairs persist through windows of {MAX_WINDOW} letters")


def morphic_antisquare_inventory(m: Morphism, window: int) -> AntisquareInventory:
    """Distinct antisquares of length <= window occurring in images of
    squarefree ternary words; by the window lemma the images of the words
    of length ceil(window/s) + 1, s the length of the shortest image, hold
    all of them, and one walk of their factor codes finds them."""
    if m.target_alphabet != 2:
        raise ValueError("antisquare inventory is only defined for binary words")
    found = _inventory(_window_images(m, window)).distinct
    return AntisquareInventory({a for a in found if len(a) <= window})


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
# (constraint kind, cap, power bound, expected complement bound m); the
# image-check length t follows from the bound (image_check_length).
# "order" caps the antisquare order (strictly below cap); "count" caps the
# number of distinct antisquares (at most cap).
VERIFICATION_PARAMS: dict[str, dict] = {
    "xi3": dict(kind="order", cap=3, bound="8/3+", m=6),
    "xi5": dict(kind="order", cap=5, bound="5/2+", m=16),
    "xi6": dict(kind="order", cap=6, bound="7/3+", m=26),
    "zeta3": dict(kind="count", cap=3, bound="3+", m=4),
    "zeta6": dict(kind="count", cap=6, bound="8/3+", m=6),
    "zeta9": dict(kind="count", cap=9, bound="38/15+", m=17),
    "zeta10": dict(kind="count", cap=10, bound="5/2+", m=17),
    "zeta15": dict(kind="count", cap=15, bound="17/7+", m=12),
    "zeta16": dict(kind="count", cap=16, bound="7/3+", m=13),
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
    """Run all three checks for one registered uniform construction, the
    image check at the length image_check_length derives from its bound,
    and decide its verdict against the published parameters."""
    params = VERIFICATION_PARAMS[name]
    registry = registry if registry is not None else load_registry()
    m = registry[name].morphism
    bound = PowerBound.parse(params["bound"])
    sync = is_synchronizing(m)
    t = image_check_length(bound, m.uniform_length)
    ok_images = image_power_check(m, bound, t)
    cb = complement_factor_bound(m)
    inv = morphic_antisquare_inventory(m, 2 * cb)
    cap_ok = inv.max_order < params["cap"] if params["kind"] == "order" else inv.count <= params["cap"]
    passed = sync and ok_images and cb == params["m"] and cap_ok
    return MorphismCheckReport(name, sync, ok_images, t, cb, inv, passed)
