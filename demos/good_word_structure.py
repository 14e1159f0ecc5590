"""Structure of the extremal good word w (image under 0->01, 1->11 of the
fixed point of 0->001, 1->01): its antisquares, and how its big repetitions
line up with a single Fibonacci-indexed family whose exponents climb
toward 2 + (1+sqrt(5))/2.
"""

from antisquares import fibanalysis as fa
from antisquares.antisquares import inventory

PREFIX = 50_000

w = fa.word_w_prefix(PREFIX)
print(f"prefix: {w.text[:60]}...")
inv = inventory(w)
print(f"antisquares in the first {PREFIX} letters: "
      f"{sorted(a.text for a in inv.distinct)}")

ana = fa.analyze_w_repetitions(PREFIX)
print()
print("maximal repetitions of exponent >= 3, matched to the closed family:")
print("k	n	p	exponent	decimal		Zeckendorf(p)")
seen = set()
for row in ana.rows:
    if row.k not in seen:
        seen.add(row.k)
        print(row.tsv())
print()
print(f"unmatched repetitions: {len(ana.unmatched)}")
print(f"max exponent: {ana.max_exponent} = {float(ana.max_exponent):.12f}")
print(f"2 + alpha   = {2 + (1 + 5**0.5) / 2:.12f}")
print(f"below the threshold: {fa.is_below_two_plus_alpha(ana.max_exponent)}")
