"""Command-line surface: word analysis, generation from the registry,
constrained searches, counting experiments, construction verification, and
one-shot reproduction of the published tables.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 search not
closed: budget or --max-depth, 141 (128 + SIGPIPE) stdout closed by its
reader, as in `generate --word-w --length 200000 | head -c 10`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import groupby

from . import fibanalysis, morphisms, search
from .antisquares import MinimalAntisquareTable, characterized_minimal, inventory, minimal_antisquares
from .repetitions import MAX_LENGTH, PowerBound, critical_exponent
from .words import Word

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _read_words(source: str) -> list[Word]:
    if os.path.exists(source):
        with open(source) as fh:
            texts = [line.strip() for line in fh if line.strip()]
    else:
        texts = [source]
    out = []
    for t in texts:
        if not set(t) <= {"0", "1"}:
            raise UsageError(f"not a binary digit string: {t!r}")
        out.append(Word(t, 2))
    return out


def _constraints(args) -> search.ConstraintSet:
    try:
        power = PowerBound.parse(args.beta) if args.beta else None
        return search.ConstraintSet(
            power=power,
            max_antisquare_order=args.max_order,
            max_distinct_antisquares=args.max_count,
        )
    except ValueError as exc:  # a malformed or missing bound
        raise UsageError(f"bad constraints: {exc}") from exc


def cmd_analyze(args) -> int:
    failures = 0
    for w in _read_words(args.word):
        try:
            cexp, witness = critical_exponent(w)
        except ValueError as exc:  # an empty word, or one past the suffix sorting cap
            raise UsageError(f"cannot analyze a word of {len(w)} letters: {exc}") from exc
        inv = inventory(w)
        record = {
            "word": w.text,
            "length": len(w),
            "critical_exponent": f"{cexp.numerator}/{cexp.denominator}",
            "cexp_witness": {"start": witness.start, "period": witness.period, "length": witness.length},
            "antisquares": sorted(a.text for a in inv.distinct),
            "antisquare_count": inv.count,
            "antisquare_max_order": inv.max_order,
        }
        if args.beta or args.max_order is not None or args.max_count is not None:
            c = _constraints(args)
            if c.power is not None and c.power.violated_by(cexp):
                # the exact exponent decides the bound; check_word scans only
                # for the minimal witness, and stops there
                ok, violation = search.check_word(c, w)
            else:
                violation = search.antisquare_violation(c, inv)
                ok = violation is None
            record["constraints"] = c.describe()
            record["pass"] = ok
            if not ok:
                record["violation"] = {
                    "constraint": violation.constraint,
                    "witness": violation.witness.text,
                }
                failures += 1
        _emit(record)
        summary = f"# {w.text[:40]}{'...' if len(w) > 40 else ''}: cexp={cexp} antisquares={record['antisquare_count']}"
        if "pass" in record:
            summary += " PASS" if record["pass"] else f" FAIL ({record['violation']['constraint']})"
        print(summary)
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def cmd_generate(args) -> int:
    if args.length < 1:
        raise UsageError(f"--length must be >= 1, got {args.length}")
    if args.word_w:
        w = fibanalysis.word_w_prefix(args.length)
    else:
        registry = morphisms.load_registry()
        if args.morphism not in registry:
            raise UsageError(f"unknown morphism {args.morphism!r}; known: {sorted(registry)}")
        m = registry[args.morphism].morphism
        if not (0 <= args.seed < m.domain_alphabet and m.prolongable_on(args.seed)):
            raise UsageError(f"{args.morphism} has no fixed point starting with letter {args.seed}")
        w = morphisms.fixed_point_prefix(m, args.seed, args.length)[: args.length]
    print(w.text)
    return EXIT_OK


def _budget(args, default: int) -> int:
    """The --budget given, or default if none is; below 1 a usage error."""
    if args.budget is None:
        return default
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    return args.budget


def _longest_word(c: search.ConstraintSet, resume_from=None, **kwargs) -> search.SearchOutcome:
    """search.longest_word, with a negative max_depth, a target outside
    1..max_depth or a checkpoint that cannot be resumed reported as a usage
    error."""
    try:
        return search.longest_word(c, resume_from=resume_from, **kwargs)
    except search.CheckpointError as exc:
        raise UsageError(f"cannot resume from {resume_from}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_search(args) -> int:
    c = _constraints(args)
    outcome = _longest_word(
        c,
        budget=_budget(args, search.DEFAULT_SEARCH_BUDGET),
        max_depth=args.max_depth,
        # a word of --max-depth letters leaves the tree open: stop at the first, the least one
        target=args.max_depth if args.target is None and args.max_depth >= 1 else args.target,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
    )
    closed = outcome.exhausted and (args.target is not None or outcome.max_length < args.max_depth)
    _emit(
        {
            "constraints": c.describe(),
            "max_length": outcome.max_length,
            "witness": outcome.witness.text,
            "exhausted": closed,
            "nodes": outcome.nodes_explored,
            "wall_time": round(outcome.wall_time, 3),
        }
    )
    print(f"# longest word: {outcome.max_length} (exhausted={closed}, nodes={outcome.nodes_explored})")
    return EXIT_OK if closed else EXIT_BUDGET


def cmd_count(args) -> int:
    c = _constraints(args)
    budget = _budget(args, search.DEFAULT_COUNT_BUDGET)
    try:
        outcome = search.count_by_length(c, args.n_max, budget=budget)
    except ValueError as exc:  # a negative --n-max
        raise UsageError(str(exc)) from exc
    _emit(
        {
            "constraints": c.describe(),
            "counts": outcome.counts,
            "complete": outcome.complete,
            "nodes": outcome.nodes_explored,
            "wall_time": round(outcome.wall_time, 3),
        }
    )
    for n, cnt in enumerate(outcome.counts):
        print(f"# {n}\t{cnt}")
    return EXIT_OK if outcome.complete else EXIT_BUDGET


def cmd_verify_morphism(args) -> int:
    registry = morphisms.load_registry()
    names = sorted(morphisms.VERIFICATION_PARAMS) if args.all else [args.name]
    failures = 0
    for name in names:
        if name not in morphisms.VERIFICATION_PARAMS:
            raise UsageError(f"no published parameters for {name!r}")
        params = morphisms.VERIFICATION_PARAMS[name]
        report = morphisms.verify_construction(name, registry)
        ok = report.passed
        _emit(
            {
                "morphism": name,
                "synchronizing": report.synchronizing,
                "image_bound_ok": report.image_bound_ok,
                "t": report.t_used,
                "complement_bound": report.complement_bound,
                "expected_m": params["m"],
                "antisquare_count": report.inventory.count,
                "antisquare_max_order": report.inventory.max_order,
                "pass": ok,
            }
        )
        print(f"# {name}: {'PASS' if ok else 'FAIL'} (m={report.complement_bound}, expected {params['m']})")
        if not ok:
            failures += 1
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def cmd_minimal_antisquares(args) -> int:
    if args.max_order < 1:
        raise UsageError(f"--max-order must be >= 1, got {args.max_order}")
    if args.closed_form:
        table = MinimalAntisquareTable({order: characterized_minimal(order) for order in range(1, args.max_order + 1)})
    else:
        table = minimal_antisquares(args.max_order)
    print(table.render())
    return EXIT_OK


def cmd_fib_report(args) -> int:
    n = args.prefix_len
    if not 100 <= n <= MAX_LENGTH:  # the repetition analysis needs this many letters, and sorts its suffixes
        raise UsageError(f"--prefix-len must be between 100 and {MAX_LENGTH}, got {n}")
    inv = inventory(fibanalysis.word_w_prefix(n))
    ana = fibanalysis.analyze_w_repetitions(n)
    gap = 2 + (1 + 5**0.5) / 2 - float(ana.max_exponent)  # display only; PASS is decided exactly
    # the rows come sorted by k, and the rows of one k differ only in their witness
    firsts = [next(rows) for _, rows in groupby(ana.rows, key=lambda r: r.k)]
    _emit(
        {
            "prefix_len": n,
            "antisquares": sorted(a.text for a in inv.distinct),
            "family_rows": [(r.k, r.n, r.p, f"{r.exponent.numerator}/{r.exponent.denominator}") for r in firsts],
            "sporadic": len(ana.sporadic),
            "unmatched": len(ana.unmatched),
            "max_exponent": f"{ana.max_exponent.numerator}/{ana.max_exponent.denominator}",
            "gap_to_limit": gap,
        }
    )
    print("# k\tn\tp\texponent\tdecimal\tzeckendorf(p)")
    for row in firsts:
        print("# " + row.tsv())
    below = fibanalysis.is_below_two_plus_alpha(ana.max_exponent)
    ok = ana.ok and set(a.text for a in inv.distinct) <= {"01", "10"} and below
    print(f"# inventory={sorted(a.text for a in inv.distinct)} gap={gap:.3e} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


TABLE3_ROWS = [(4, "8/3", 29), (5, "5/2", 32), (6, "7/3", 30)]
TABLE6_ROWS = [(5, "3", 17), (8, "8/3", 52), (9, "38/15", 407), (14, "5/2", 92), (15, "17/7", 156), (16, "7/3", 38)]


def cmd_reproduce_tables(args) -> int:
    budget = _budget(args, search.DEFAULT_SEARCH_BUDGET)
    registry = morphisms.load_registry()  # raises on checksum mismatch
    failures = 0
    budget_hit = False
    names = ["xi3", "xi5", "xi6"] if args.table in (1, 2) else ["zeta3", "zeta6", "zeta9", "zeta10", "zeta15", "zeta16"]

    if args.table in (1, 4):
        for name in names:
            m = registry[name].morphism
            expected = morphisms.UNIFORM_LENGTHS[name]
            ok = m.uniform_length == expected
            _emit({"anchor": f"Table {args.table} {name}", "uniform_length": m.uniform_length, "expected": expected, "pass": ok})
            print(f"# Table {args.table} {name}: s={m.uniform_length} expected {expected} {'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    elif args.table in (2, 5):
        for name in names:
            params = morphisms.VERIFICATION_PARAMS[name]
            report = morphisms.verify_construction(name, registry)
            ok = report.passed
            _emit(
                {
                    "anchor": f"Table {args.table} {name}",
                    "t": report.t_used,
                    "m": report.complement_bound,
                    "expected_m": params["m"],
                    "synchronizing": report.synchronizing,
                    "image_bound_ok": report.image_bound_ok,
                    "pass": ok,
                }
            )
            print(f"# Table {args.table} {name}: t={report.t_used} m={report.complement_bound} {'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1
    elif args.table in (3, 6):
        rows = TABLE3_ROWS if args.table == 3 else TABLE6_ROWS
        for cap, beta, expected in rows:
            anchor = f"Table {args.table} row {cap}"
            c = (
                search.ConstraintSet(power=PowerBound.parse(beta), max_antisquare_order=cap)
                if args.table == 3
                else search.ConstraintSet(power=PowerBound.parse(beta), max_distinct_antisquares=cap)
            )
            checkpoint = resume = None
            if args.checkpoint_dir:
                checkpoint = os.path.join(args.checkpoint_dir, f"table{args.table}_row{cap}.ckpt")
                resume = checkpoint if os.path.exists(checkpoint) else None
            outcome = _longest_word(c, budget=budget, max_depth=512, checkpoint_path=checkpoint, resume_from=resume)
            if not outcome.exhausted:
                budget_hit = True
                _emit({"anchor": anchor, "max_length": outcome.max_length, "exhausted": False, "pass": False})
                print(f"# {anchor}: budget exhausted at length {outcome.max_length}")
                continue
            ok = outcome.max_length == expected
            _emit(
                {
                    "anchor": anchor,
                    "beta": beta,
                    "max_length": outcome.max_length,
                    "expected": expected,
                    "witness": outcome.witness.text,
                    "nodes": outcome.nodes_explored,
                    "pass": ok,
                }
            )
            print(f"# {anchor}: L={outcome.max_length} expected {expected} {'PASS' if ok else 'FAIL'}")
            failures += 0 if ok else 1

    if budget_hit:
        return EXIT_BUDGET
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="antisquares")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_constraint_flags(p):
        p.add_argument("--beta", help='power bound, "p/q" (strict) or "p/q+"')
        p.add_argument("--max-order", type=int, help="forbid antisquares of order >= L")
        p.add_argument("--max-count", type=int, help="allow at most N distinct antisquares")

    p = sub.add_parser("analyze", help="analyze a word or file of words")
    p.add_argument("word", help="binary digit string or path to a file of them")
    add_constraint_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="generate a prefix from the registry")
    p.add_argument("--morphism", help="registry name (fixed point is generated)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--word-w", action="store_true", help="generate the good word w instead")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("search", help="longest word under constraints")
    add_constraint_flags(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--max-depth", type=int, default=512)
    p.add_argument("--target", type=int, help="stop once a word of this length is found")
    p.add_argument("--checkpoint", help="checkpoint file (written periodically)")
    p.add_argument("--resume", help="resume from a checkpoint file")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("count", help="count satisfying words by length")
    add_constraint_flags(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify-morphism", help="run the construction checks")
    p.add_argument("name", nargs="?", help="registry name")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_verify_morphism)

    p = sub.add_parser("minimal-antisquares", help="minimal antisquare table")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--closed-form", action="store_true")
    p.set_defaults(fn=cmd_minimal_antisquares)

    p = sub.add_parser("fib-report", help="structure report for the good word w")
    p.add_argument("--prefix-len", type=int, default=100_000)
    p.set_defaults(fn=cmd_fib_report)

    p = sub.add_parser("reproduce-tables", help="reproduce a published table")
    p.add_argument("--table", type=int, required=True, choices=range(1, 7))
    p.add_argument("--budget", type=int)
    p.add_argument("--checkpoint-dir")
    p.set_defaults(fn=cmd_reproduce_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify-morphism" and not args.all and not args.name:
        parser.error("name required unless --all is given")
    if args.verb == "generate" and not args.word_w and not args.morphism:
        parser.error("--morphism or --word-w required")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except search.BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # point stdout at devnull, so that the interpreter's flush at exit
        # does not fail on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
