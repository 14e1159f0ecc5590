"""The benchmark workloads: four parts and the two combinations that BENCHMARK.json runs.

Each workload function does the set-up (constraint sets, registry load,
seeded inputs, independent references) and returns the list of operations
one iteration issues back to back.  An operation calls the package through
module attributes, so that a traced run sees the call, checks the answer
against `oracles`, and returns a JSON-able summary of it.  A wrong answer
raises `WrongAnswer`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from antisquares import enumeration, fibanalysis, morphisms, repetitions, search
from antisquares import antisquares as antisq
from antisquares.repetitions import PowerBound
from antisquares.search import ConstraintSet
from antisquares.words import Word

import oracles as ref


class WrongAnswer(Exception):
    """An operation returned an answer that differs from the reference."""


class ResumeMismatch(WrongAnswer):
    """A resumed search disagrees with the uninterrupted one (known defect)."""


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    known: tuple = ()  # exception types that reproduce a documented defect
    defect: str = ""


def expect(ok: bool, detail: str) -> None:
    if not ok:
        raise WrongAnswer(detail)


def _check_witness(text: str, beta: str, kind: str, cap: int, length: int) -> None:
    expect(len(text) == length, f"witness length {len(text)} != {length}")
    expect(not ref.violates(ref.critical_exponent(text), beta), f"witness is not {beta}-free")
    found = ref.antisquares(text)
    if kind == "order":
        expect(max((len(a) // 2 for a in found), default=0) < cap, f"witness has an antisquare of order >= {cap}")
    else:
        expect(len(found) <= cap, f"witness has {len(found)} > {cap} distinct antisquares")


def tables_search(seed: int, scratch: Path) -> list[Op]:
    """Longest-word anchors of tables 3 and 6, plus one interrupted-then-resumed search."""
    # Every workload loads the registry, as the CLI does, so setup_s covers
    # its checksum verification.
    morphisms.load_registry()
    rng = random.Random(f"tables-search:{seed}")
    resume_point = rng.random()
    rows = [("order", cap, beta, n, {}) for cap, beta, n in ref.ORDER_ROWS]
    rows += [("count", cap, beta, n, {}) for cap, beta, n in ref.COUNT_ROWS]
    cap9, beta9, n9 = ref.CAP9_ROW
    rows.append(("count", cap9, beta9, n9, {"target": n9}))
    uninterrupted = {}
    ops = []

    def constraint(kind, cap, beta):
        key = "max_antisquare_order" if kind == "order" else "max_distinct_antisquares"
        return ConstraintSet(power=PowerBound.parse(beta), **{key: cap})

    def longest(kind, cap, beta, expected, extra):
        c = constraint(kind, cap, beta)

        def op():
            uninterrupted.pop((kind, cap), None)
            out = search.longest_word(c, max_depth=512, **extra)
            expect(out.exhausted, f"search not closed after {out.nodes_explored} nodes")
            expect(out.max_length == expected, f"length {out.max_length} != {expected}")
            _check_witness(out.witness.text, beta, kind, cap, expected)
            uninterrupted[(kind, cap)] = out
            return {"length": out.max_length, "nodes": out.nodes_explored, "witness": out.witness.text}
        return Op(f"{kind}-{cap}", op)

    for kind, cap, beta, expected, extra in rows:
        ops.append(longest(kind, cap, beta, expected, extra))

    cap, beta, _ = ref.ORDER_ROWS[0]
    c = constraint("order", cap, beta)
    path = scratch / f"resume-{os.getpid()}.ckpt"

    def resume():
        full = uninterrupted.get(("order", cap))
        expect(full is not None, "no uninterrupted run to compare with")
        budget = 1 + int(resume_point * (full.nodes_explored - 1))
        try:
            part = search.longest_word(c, max_depth=512, budget=budget, checkpoint_path=str(path))
            expect(not part.exhausted, f"budget {budget} did not interrupt the search")
            out = search.longest_word(c, max_depth=512, resume_from=str(path))
        finally:
            path.unlink(missing_ok=True)
        got = (out.max_length, out.witness.text, out.nodes_explored, out.exhausted)
        want = (full.max_length, full.witness.text, full.nodes_explored, True)
        if got != want:
            raise ResumeMismatch(f"budget {budget}: resumed (length, witness, nodes, closed) {got} != {want}")
        return {"budget": budget, "length": out.max_length, "nodes": out.nodes_explored}

    ops.append(Op(f"resume-order-{cap}", resume, (ResumeMismatch,),
                  "longest_word(resume_from=) forgets the best word found before the checkpoint"))
    return ops


def _spectral_radius(aut) -> float:
    mat = np.zeros((aut.num_states, aut.num_states))
    for i, row in enumerate(aut.transitions):
        for j in row:
            if j >= 0:
                mat[i, j] += 1
    return float(max(abs(np.linalg.eigvals(mat)))) if aut.num_states else 0.0


def enumerate_cores(seed: int, scratch: Path) -> list[Op]:
    """Wide, fully enumerated trees: counts, extendable cores, a random forbidden set."""
    morphisms.load_registry()
    rng = random.Random(f"enumerate-cores:{seed}")
    strict = ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=True), max_antisquare_order=2)
    plus = ConstraintSet(power=PowerBound(Fraction(15, 4), forbid_equal=False), max_antisquare_order=2)
    cores_c = ConstraintSet(power=PowerBound.parse("4"), forbidden_factors=frozenset(ref.CORE_FORBIDDEN))
    pads = (30, 45, 60)
    targets = {pad: ref.core_target(pad) for pad in pads}
    # One random set per seed: a failing growth_rate costs about a tenth of
    # an iteration, so more sets per seed would make wall_s follow the seed.
    patterns: set[str] = set()
    size = rng.randint(2, 3)
    while len(patterns) < size:
        patterns.add("".join(rng.choice("01") for _ in range(rng.randint(2, 4))))
    random_set = sorted(patterns)
    psi = float(ref.SUPERGOLDEN_15)
    ops = []

    def count(name, c, n_max, frozen):
        def op():
            out = search.count_by_length(c, n_max, budget=10**7)
            expect(out.complete, "count ran out of budget")
            got = {n: out.counts[n] for n in frozen}
            expect(got == frozen, f"counts {got} != {frozen}")
            return {"counts": out.counts, "nodes": out.nodes_explored}
        return Op(name, op)

    ops.append(count("count-strict-15/4", strict, 120, ref.STRICT_15_4_COUNTS))
    ops.append(count("count-15/4+", plus, 40, ref.PLUS_15_4_COUNTS))

    def cores(pad):
        def op():
            got = {w.text for w in search.extendable_cores(cores_c, pad, pad)}
            expect(all(len(t) == pad for t in got), "core of the wrong length")
            missing = targets[pad] - got
            expect(not missing, f"{len(missing)} factors of g(f) missing, e.g. {min(missing, default='')}")
            return {"size": len(got), "cores": sorted(got)}
        return Op(f"cores-pad-{pad}", op)

    ops += [cores(pad) for pad in pads]

    def growth(name, forbidden):
        def op():
            value = enumeration.growth_rate(enumeration.build_avoidance_automaton(forbidden)).value
            expect(abs(value - psi) < 1e-9, f"growth rate {value!r} != {psi}")
            return {"value": round(value, 12)}
        return Op(name, op)

    ops.append(growth("growth-good-words", ref.GOOD_WORD_FORBIDDEN))
    ops.append(growth("growth-pansiot-codes", ref.PANSIOT_CODE_FORBIDDEN))

    def supergolden():
        printed = f"{float(enumeration.supergolden()):.15f}"
        expect(printed == ref.SUPERGOLDEN_15, f"supergolden {printed}")
        return {"value": printed}

    def pansiot():
        counts = enumeration.pansiot_block_counts(40)
        own = all(counts[n] == counts[n - 1] + counts[n - 4] + counts[n - 6] for n in range(10, 41))
        expect(own and enumeration.verify_pansiot_recurrence(range(10, 41), counts),
               "C_n = C_(n-1) + C_(n-4) + C_(n-6) fails")
        return {"counts": counts}

    def identity():
        expect(enumeration.expand_polynomial_identity() is True, "polynomial identity fails")
        return {"holds": True}

    ops += [Op("supergolden", supergolden), Op("pansiot-recurrence", pansiot), Op("polynomial-identity", identity)]

    def random_count(forbidden):
        c = ConstraintSet(forbidden_factors=frozenset(forbidden))

        def op():
            out = search.count_by_length(c, 14, budget=10**7)
            series = enumeration.count_series(enumeration.build_avoidance_automaton(forbidden), 14).counts
            expect(out.complete and out.counts == series, f"{forbidden}: search {out.counts} != automaton {series}")
            return {"forbidden": forbidden, "counts": series}
        return Op("random-count", op)

    def random_growth(forbidden):
        def op():
            aut = enumeration.build_avoidance_automaton(forbidden)
            try:
                value = enumeration.growth_rate(aut).value
            except ValueError:
                finite = enumeration.count_series(aut, aut.num_states + 1).counts[-1] == 0
                expect(finite, f"{forbidden}: ValueError on an infinite language")
                return {"forbidden": forbidden, "finite": True}
            rho = _spectral_radius(aut)
            expect(abs(value - rho) <= 1e-6 * max(1.0, rho), f"{forbidden}: growth {value!r} != {rho!r}")
            return {"forbidden": forbidden, "value": round(value, 9)}
        return Op("random-growth", op, (ArithmeticError,),
                  "growth_rate raises ArithmeticError when its estimators disagree")

    return ops + [random_count(random_set), random_growth(random_set)]


def morphism_verify(seed: int, scratch: Path) -> list[Op]:
    """Verification suite of the uniform ternary-to-binary constructions."""
    registry = morphisms.load_registry()

    def verify(name, kind, cap, m, length):
        def op():
            rep = morphisms.verify_construction(name, registry)
            inv = rep.inventory
            expect(registry[name].morphism.uniform_length == length, "wrong image length")
            expect(rep.synchronizing, "not synchronizing")
            expect(rep.image_bound_ok, "an image breaks the power bound")
            expect(rep.complement_bound == m, f"complement bound {rep.complement_bound} != {m}")
            expect(inv.max_order < cap if kind == "order" else inv.count <= cap,
                   f"antisquares: {inv.count} distinct, max order {inv.max_order}, cap {cap}")
            return {"t": rep.t_used, "m": rep.complement_bound, "antisquares": sorted(a.text for a in inv.distinct)}
        return Op(name, op)

    return [verify(name, *spec) for name, spec in ref.CONSTRUCTIONS.items()]


def word_structure(seed: int, scratch: Path) -> list[Op]:
    """Repetition and antisquare structure of a few long words."""
    morphisms.load_registry()
    rng = random.Random(f"word-structure:{seed}")
    n = 100_000
    w_text = ref.word_w(n)
    w = Word(w_text, 2)
    h_inputs = [ref.squarefree_ternary(rng, rng.randrange(5, 51)) for _ in range(20)]
    pieces = []
    for _ in range(50):
        length = rng.randrange(33, 200)
        start = rng.randrange(0, n - length)
        pieces.append(w_text[start : start + length])

    def prefix():
        expect(fibanalysis.word_w_prefix(n).text == w_text, "w prefix differs from g(phi^omega(0))")
        return {"length": n}

    def w_inventory():
        got = {a.text for a in antisq.inventory(w).distinct}
        expect(got == ref.W_INVENTORY, f"inventory {sorted(got)}")
        return {"antisquares": sorted(got)}

    def family():
        ana = fibanalysis.analyze_w_repetitions(n)
        expect(ana.ok, f"{len(ana.unmatched)} repetitions outside the family")
        expect(ana.max_exponent == ref.W_MAX_EXPONENT, f"max exponent {ana.max_exponent}")
        return {"rows": len(ana.rows), "sporadic": len(ana.sporadic), "max_exponent": str(ana.max_exponent)}

    def critical():
        e, rep = repetitions.critical_exponent(w)
        expect(e == ref.W_MAX_EXPONENT, f"critical exponent {e}")
        expect(ref.below_two_plus_golden(e), "critical exponent not below 2 + golden ratio")
        return {"exponent": str(e), "start": rep.start, "period": rep.period}

    def fibonacci():
        got = {a.text for a in fibanalysis.fibonacci_word_antisquares(n).distinct}
        expect(got == ref.FIBONACCI_INVENTORY, f"inventory {sorted(got)}")
        expect(fibanalysis.verify_phi_identities(10), "phi identities fail")
        return {"antisquares": sorted(got)}

    ops = [Op("w-prefix", prefix), Op("w-inventory", w_inventory), Op("w-repetition-family", family),
           Op("w-critical-exponent", critical), Op("fibonacci-word", fibonacci)]

    def h_image(i, u):
        def op():
            good, e = fibanalysis.verify_h_construction(Word(u, 3))
            expect(good and e == ref.H_EXPONENT, f"h({u}): good={good}, exponent {e}")
            return {"exponent": str(e)}
        return Op(f"h-image-{i}", op)

    def decompose(i, text):
        def op():
            d = fibanalysis.decompose_good_word(Word(text, 2))
            again = ref.recompose(d.w1, d.g_tag, d.u_list, d.v_list, d.core, d.w2)
            expect(again == text, "decomposition does not recompose to the word")
            expect(len(d.w1) <= 5 and len(d.w2) <= 5 and len(d.core) <= 4
                   and all(len(u) <= 4 for u in d.u_list) and all(len(v) <= 3 for v in d.v_list),
                   "decomposition outside the size windows")
            return {"tag": d.g_tag, "depth": len(d.u_list)}
        return Op(f"decompose-{i}", op)

    ops += [h_image(i, u) for i, u in enumerate(h_inputs)]
    ops += [decompose(i, t) for i, t in enumerate(pieces)]
    return ops


def combined(*parts: Callable[[int, Path], list[Op]]) -> Callable[[int, Path], list[Op]]:
    """One workload whose iteration runs each part's operations in turn.

    Operation names get the part's name as a prefix (`tables-search/count-9`),
    so the report can time every part on its own.  Each part draws its
    inputs from its own seeded generator, so a part gets the same inputs
    alone and combined."""
    def build(seed: int, scratch: Path) -> list[Op]:
        ops = []
        for part in parts:
            for op in part(seed, scratch):
                op.name = f"{PART_NAMES[part]}/{op.name}"
                ops.append(op)
        return ops
    return build


PART_NAMES = {
    tables_search: "tables-search",
    enumerate_cores: "enumerate-cores",
    morphism_verify: "morphism-verify",
    word_structure: "word-structure",
}

WORKLOADS = {name: part for part, name in PART_NAMES.items()}
# The two workloads of BENCHMARK.json: every search-tree part in one, every
# part that verifies words and morphisms (search is never called) in the other.
WORKLOADS["search-trees"] = combined(tables_search, enumerate_cores)
WORKLOADS["word-checks"] = combined(morphism_verify, word_structure)
