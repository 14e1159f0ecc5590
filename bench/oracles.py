"""Reference answers and independent checkers for the benchmark.

Every expected value is a literal kept here, never imported from the
package or its tests, so that a change to the package's own constants cannot
make the benchmark agree with itself.  The checkers are plain Python and
share no code with the package.
"""

from __future__ import annotations

from fractions import Fraction

# Longest words: (cap, beta, exact maximum length).  Order rows forbid
# antisquares of order >= cap; count rows allow at most cap distinct ones.
ORDER_ROWS = [(4, "8/3", 29), (5, "5/2", 32), (6, "7/3", 30)]
COUNT_ROWS = [(5, "3", 17), (8, "8/3", 52), (14, "5/2", 92), (15, "17/7", 156), (16, "7/3", 38)]
CAP9_ROW = (9, "38/15", 407)

# Uniform constructions (zeta16 is left out: it takes the same t=14 path as
# xi6 at four times the cost): kind, cap, complement bound m, image length.
CONSTRUCTIONS = {
    "xi3": ("order", 3, 6, 36),
    "xi5": ("order", 5, 16, 19),
    "xi6": ("order", 6, 26, 37),
    "zeta3": ("count", 3, 4, 13),
    "zeta6": ("count", 6, 6, 36),
    "zeta9": ("count", 9, 17, 192),
    "zeta10": ("count", 10, 17, 75),
    "zeta15": ("count", 15, 12, 194),
}

# Binary words that are strictly 15/4-free with no antisquare of order >= 2.
STRICT_15_4_COUNTS = {0: 1, 20: 84, 40: 204, 60: 364, 80: 504, 100: 700, 120: 828}
# The same for 15/4+-free words, counted by a naive suffix-checking search.
PLUS_15_4_COUNTS = {0: 1, 39: 584, 40: 644}

SUPERGOLDEN_15 = "1.465571231876768"  # real root of x^3 = x^2 + 1

GOOD_WORD_FORBIDDEN = ("0011", "1100", "0110", "1001", "010101", "101010", "001011", "110100")
PANSIOT_CODE_FORBIDDEN = ("010", "101", "11111", "01110")
CORE_FORBIDDEN = (
    "0011", "0110", "1100", "1001", "010101", "101010",
    "0001011101", "1011101000", "101110111011101", "010001000100010",
)

W_MAX_EXPONENT = Fraction(48949, 13530)
W_INVENTORY = {"01", "10"}
FIBONACCI_INVENTORY = {"01", "10", "1001", "10100101"}
H_EXPONENT = Fraction(15, 4)

PHI = ("001", "01")
G = ("01", "11")
GPRIME = ("01", "00")
FIB2 = ("010", "01")

_COMPLEMENT = str.maketrans("01", "10")


def complement(text: str) -> str:
    return text.translate(_COMPLEMENT)


def image(images: tuple[str, ...], text: str) -> str:
    return "".join(images[ord(c) - 48] for c in text)


def fixed_point(images: tuple[str, ...], min_length: int) -> str:
    text = "0"
    while len(text) < min_length:
        text = image(images, text)
    return text


def word_w(length: int) -> str:
    """Prefix of the good word w = g(phi^omega(0))."""
    return image(G, fixed_point(PHI, -(-length // 2)))[:length]


def factors(text: str, length: int) -> set[str]:
    return {text[i : i + length] for i in range(len(text) - length + 1)}


def core_target(length: int) -> set[str]:
    """Factors of g(f) and their complements, f the squared-Fibonacci fixed point."""
    facs = factors(image(G, fixed_point(FIB2, 3000)), length)
    return facs | {complement(t) for t in facs}


def critical_exponent(text: str) -> Fraction:
    """Largest exponent of a factor, by scanning every period."""
    n = len(text)
    best = Fraction(1)
    for p in range(1, n):
        run = longest = 0
        for a, b in zip(text, text[p:]):
            run = run + 1 if a == b else 0
            if run > longest:
                longest = run
        if longest and Fraction(longest + p, p) > best:
            best = Fraction(longest + p, p)
    return best


def antisquares(text: str) -> set[str]:
    """Distinct factors u.complement(u) of the word."""
    found = set()
    n = len(text)
    for k in range(1, n // 2 + 1):
        run = 0
        for i in range(n - k):
            run = run + 1 if text[i] != text[i + k] else 0
            if run >= k:
                found.add(text[i + 1 - k : i + 1 + k])
    return found


def violates(exponent: Fraction, beta: str) -> bool:
    """Whether a factor of the given exponent breaks "beta-free" / "beta+-free"."""
    if beta.endswith("+"):
        return exponent > Fraction(beta[:-1])
    return exponent >= Fraction(beta)


def below_two_plus_golden(x: Fraction) -> bool:
    """x < 2 + (1 + sqrt 5)/2, decided exactly: with y = x - 2, y^2 < y + 1."""
    y = x - 2
    return y < 0 or y * y < y + 1


def recompose(w1: str, tag: str, us: list[str], vs: list[str], core: str, w2: str) -> str:
    """w1 . G(u_1 phi(u_2 ... phi(V) ... v_2) v_1) . w2 with G = g or g'."""
    inner = core
    for u, v in zip(reversed(us), reversed(vs)):
        inner = u + image(PHI, inner) + v
    return w1 + image(G if tag == "g" else GPRIME, inner) + w2


def squarefree_ternary(rng, length: int) -> str:
    """A random squarefree ternary word, by randomized backtracking."""
    while True:
        t: list[str] = []
        while len(t) < length:
            choices = [c for c in "012" if not t or c != t[-1]]
            rng.shuffle(choices)
            for c in choices:
                t.append(c)
                n = len(t)
                if any(t[n - 2 * p : n - p] == t[n - p :] for p in range(1, n // 2 + 1)):
                    t.pop()
                    continue
                break
            else:
                break
        if len(t) == length:
            return "".join(t)
