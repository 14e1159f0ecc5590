"""Count good words with a forbidden-factor automaton and extract the
growth constant, which turns out to be the supergolden ratio (the real
root of X^3 = X^2 + 1).
"""

from antisquares.enumeration import (
    GOOD_WORD_FORBIDDEN,
    PANSIOT_CODE_FORBIDDEN,
    build_avoidance_automaton,
    count_series,
    growth_rate,
    pansiot_block_counts,
    supergolden,
    verify_pansiot_recurrence,
)

aut = build_avoidance_automaton(GOOD_WORD_FORBIDDEN)
print(f"automaton states: {aut.num_states}")
series = count_series(aut, 30).counts
print("good-word counts up to length 30:")
print(" ", series)

est = growth_rate(aut)
psi = supergolden()
lo, hi = est.interval
print(f"growth rate:  {est.value:.15f}")
print(f"  largest real root of {est.polynomial} (coefficients low to high),")
print(f"  in the rational interval ({lo}, {hi}] of width {float(hi - lo):.1e}")
print(f"supergolden:  {float(psi):.15f}")
print(f"difference:   {abs(est.value - float(psi)):.2e}")

print()
print("derivative-code view:")
code_aut = build_avoidance_automaton(PANSIOT_CODE_FORBIDDEN)
print(f"  code automaton growth: {growth_rate(code_aut).value:.15f}")
counts = pansiot_block_counts(24)
print(f"  code-word counts ending in 00: {counts[2:]}")
print(f"  C_n = C_(n-1) + C_(n-4) + C_(n-6) on [8, 24]: "
      f"{verify_pansiot_recurrence(range(8, 25), counts)}")
