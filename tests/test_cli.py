import json
import os
import subprocess
import sys
from itertools import groupby, product

import pytest

import search_reference
import antisquares
from antisquares import fibanalysis, morphisms
from antisquares.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    main,
)
from antisquares.repetitions import PowerBound
from antisquares.search import ConstraintSet, check_word
from antisquares.words import Word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return code, records, out


def test_analyze_word(capsys):
    code, records, out = run(capsys, "analyze", "010011")
    assert code == EXIT_OK
    assert records[0]["critical_exponent"] == "2/1"
    assert records[0]["antisquare_count"] == 4
    assert "cexp=2" in out


def test_analyze_with_constraints_fail(capsys):
    code, records, _ = run(capsys, "analyze", "0011", "--max-order", "2")
    assert code == EXIT_VERIFICATION_FAILED
    assert records[0]["pass"] is False
    assert records[0]["violation"]["constraint"] == "antisquare-order"


def test_analyze_constraints_agree_with_check_word(tmp_path, capsys):
    # analyze decides the power bound from the exact critical exponent and
    # the antisquare bounds from its inventory; verdicts and witnesses must
    # be those of check_word
    words = ["".join(bits) for n in range(1, 7) for bits in product("01", repeat=n)]
    words += [fibanalysis.word_w_prefix(n).text for n in (50, 300)]
    path = tmp_path / "words.txt"
    path.write_text("\n".join(words) + "\n")
    for beta, order, count in (("2", None, None), ("5/2+", None, None), ("3", 2, None), ("7/3", None, 2), (None, 3, 1)):
        flags = [*(["--beta", beta] if beta else []), *(["--max-order", str(order)] if order else []),
                 *(["--max-count", str(count)] if count is not None else [])]
        code, records, _ = run(capsys, "analyze", str(path), *flags)
        c = ConstraintSet(PowerBound.parse(beta) if beta else None, order, count)
        for record in records:
            ok, violation = check_word(c, Word(record["word"]))
            assert record["pass"] == ok, (record["word"], flags)
            if not ok:
                expect = {"constraint": violation.constraint, "witness": violation.witness.text}
                assert record["violation"] == expect, (record["word"], flags)
        assert code == (EXIT_OK if all(r["pass"] for r in records) else EXIT_VERIFICATION_FAILED)


def test_analyze_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("01\n10\n")
    code, records, _ = run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert [r["word"] for r in records] == ["01", "10"]


def test_analyze_bad_letters(capsys):
    code, _, _ = run(capsys, "analyze", "01a1")
    assert code == EXIT_USAGE


def test_analyze_words_it_cannot_take_are_usage_errors(tmp_path, capsys):
    assert run(capsys, "analyze", "")[0] == EXIT_USAGE
    path = tmp_path / "long.txt"
    path.write_text("0" * (2**21 - 1) + "\n")  # past the suffix sorting cap
    assert run(capsys, "analyze", str(path))[0] == EXIT_USAGE


def test_generate_word_w(capsys):
    code, _, out = run(capsys, "generate", "--word-w", "--length", "30")
    assert code == EXIT_OK
    line = out.strip().splitlines()[0]
    assert len(line) == 30
    assert line.startswith("010111")


def test_stdout_closed_by_its_reader_exits_141():
    # the reader takes 10 letters and closes the pipe while the word, larger
    # than a pipe's buffer, is still being written: no traceback, and not the
    # exit code of a failed verification
    src = os.path.dirname(os.path.dirname(antisquares.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "antisquares.cli", "generate", "--word-w", "--length", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(10) == b"0101110101"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (EXIT_BROKEN_PIPE, b"")


def test_generate_morphism(capsys):
    code, _, out = run(capsys, "generate", "--morphism", "fib", "--length", "13")
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == "0100101001001"


def test_generate_unknown_morphism(capsys):
    code, _, _ = run(capsys, "generate", "--morphism", "nope", "--length", "5")
    assert code == EXIT_USAGE


def test_search_exhausts(capsys):
    code, records, _ = run(capsys, "search", "--beta", "2", "--max-depth", "16")
    assert code == EXIT_OK
    assert records[0]["max_length"] == 3
    assert records[0]["exhausted"] is True


def test_search_budget_exit(capsys):
    code, records, _ = run(
        capsys, "search", "--max-order", "2", "--budget", "50", "--max-depth", "64"
    )
    assert code == EXIT_BUDGET
    assert records[0]["exhausted"] is False


def test_target_search_cut_by_the_budget_exits_3(capsys):
    code, records, _ = run(capsys, "search", "--beta", "38/15", "--max-count", "9", "--target", "407",
                           "--budget", "1000")
    assert (code, records[0]["exhausted"]) == (EXIT_BUDGET, False)
    assert records[0]["max_length"] < 407
    # a tree that closes below the target gives an exact answer
    code, records, _ = run(capsys, "search", "--beta", "2", "--max-depth", "16", "--target", "10")
    assert (code, records[0]["exhausted"], records[0]["max_length"]) == (EXIT_OK, True, 3)


def test_search_that_reaches_max_depth_exits_3(capsys):
    # binary cube-free words are infinite: the search used to close the
    # tree cut at depth 40 after 21,837,151 nodes and report 40 as exact
    code, records, _ = run(capsys, "search", "--beta", "3", "--max-depth", "40")
    assert (code, records[0]["exhausted"], records[0]["max_length"]) == (EXIT_BUDGET, False, 40)
    assert records[0]["witness"] == "0010010100100110010010100100110010010100"
    assert records[0]["nodes"] < 100_000
    code, records, _ = run(capsys, "search", "--beta", "3", "--max-depth", "0")
    assert (code, records[0]["exhausted"], records[0]["max_length"]) == (EXIT_BUDGET, False, 0)
    # a tree that closes below the depth keeps its nodes and witness
    code, records, _ = run(capsys, "search", "--beta", "8/3", "--max-order", "4", "--max-depth", "64")
    assert (code, records[0]["nodes"], records[0]["witness"]) == (EXIT_OK, 1715, "00100101001100101001100110100")


def test_malformed_constraint_flags_are_usage_errors(capsys):
    for argv in (["count", "--n-max", "5"], ["search", "--beta", "abc"], ["analyze", "0110", "--beta", "abc"],
                 ["search", "--beta", "1/0"], ["search", "--beta", "1"], ["count", "--max-count", "-1", "--n-max", "5"],
                 ["search", "--max-order", "0"]):
        code, records, _ = run(capsys, *argv)
        assert (code, records) == (EXIT_USAGE, []), argv


def test_target_outside_one_to_max_depth_is_a_usage_error(capsys):
    # --target 0 used to report max_length 1, exhausted, exit 0
    for argv in (["--target", "0"], ["--target", "-5"], ["--target", "600"], ["--max-depth", "16", "--target", "17"]):
        code, records, _ = run(capsys, "search", "--beta", "2", *argv)
        assert (code, records) == (EXIT_USAGE, []), argv
    code, records, _ = run(capsys, "search", "--beta", "2", "--max-depth", "16", "--target", "16")
    assert (code, records[0]["max_length"]) == (EXIT_OK, 3)


@pytest.mark.parametrize("argv", [
    ["generate", "--word-w", "--length", "0"],
    ["generate", "--morphism", "fib", "--length", "-3"],  # printed an empty line
    ["generate", "--morphism", "fib", "--seed", "1", "--length", "5"],  # fib is not prolongable on 1
    ["generate", "--morphism", "fib", "--seed", "5", "--length", "5"],  # outside fib's domain
    ["fib-report", "--prefix-len", "50"],
    ["minimal-antisquares", "--max-order", "0"],
    ["minimal-antisquares", "--max-order", "0", "--closed-form"],  # printed an empty table
    ["fib-report", "--prefix-len", "2200000"],  # past the suffix sorting cap, found after building w
], ids=["word-w-length-0", "negative-length", "seed-not-prolongable", "seed-outside-domain", "short-fib-report",
        "max-order-0", "closed-form-max-order-0", "fib-report-past-sort-cap"])
def test_bad_sizes_and_seeds_are_usage_errors(capsys, argv):
    # each of these ended in a traceback with exit 1 or printed nothing with exit 0
    code, _, out = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, ""), argv


def test_negative_sizes_are_usage_errors(capsys):
    assert run(capsys, "count", "--beta", "2", "--n-max", "-1")[0] == EXIT_USAGE
    assert run(capsys, "search", "--beta", "2", "--max-depth", "-3")[0] == EXIT_USAGE


def test_budget_below_one_is_a_usage_error(capsys):
    # --budget 0 is a budget, not a missing one
    for argv in (["search", "--max-order", "2"], ["count", "--max-order", "2", "--n-max", "8"],
                 ["reproduce-tables", "--table", "3"]):
        for budget in ("0", "-5"):
            code, records, _ = run(capsys, *argv, "--budget", budget)
            assert (code, records) == (EXIT_USAGE, []), (argv, budget)


def test_count(capsys):
    code, records, _ = run(capsys, "count", "--beta", "2", "--n-max", "5")
    assert code == EXIT_OK
    assert records[0]["counts"] == [1, 2, 2, 2, 0, 0]
    assert records[0]["wall_time"] >= 0


def test_verify_morphism_single(capsys):
    code, records, _ = run(capsys, "verify-morphism", "zeta3")
    assert code == EXIT_OK
    assert records[0]["pass"] is True
    assert records[0]["complement_bound"] == 4


def test_construction_verdict_includes_antisquare_cap(monkeypatch, capsys):
    # xi3 has antisquares of order 2, so a cap of 2 must fail both verbs
    monkeypatch.setitem(morphisms.VERIFICATION_PARAMS["xi3"], "cap", 2)
    code, records, _ = run(capsys, "verify-morphism", "xi3")
    assert code == EXIT_VERIFICATION_FAILED
    assert records[0]["pass"] is False
    code, records, _ = run(capsys, "reproduce-tables", "--table", "2")
    assert code == EXIT_VERIFICATION_FAILED
    assert [r["pass"] for r in records] == [False, True, True]


def test_verify_morphism_unknown(capsys):
    code, _, _ = run(capsys, "verify-morphism", "phi")
    assert code == EXIT_USAGE


def test_minimal_antisquares(capsys):
    code, _, out = run(capsys, "minimal-antisquares", "--max-order", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "1\t01,10"
    assert lines[3].rstrip() == "4"  # order 4 has no minimal antisquares


def test_fib_report(capsys):
    code, records, out = run(capsys, "fib-report", "--prefix-len", "2000")
    assert code == EXIT_OK
    assert records[0]["antisquares"] == ["01", "10"]
    assert records[0]["max_exponent"] == "1039/288"
    assert records[0]["unmatched"] == 0
    assert 0 < records[0]["gap_to_limit"] < 0.02
    assert out.rstrip().endswith("PASS")


def test_fib_report_prints_one_row_per_k(capsys):
    # the rows of one k differ only in their witness, so the first row of
    # each k gives both the set of all rows and the last row of each k
    n = 20000
    code, records, out = run(capsys, "fib-report", "--prefix-len", str(n))
    assert code == EXIT_OK
    rows = fibanalysis.analyze_w_repetitions(n).rows
    assert len(rows) > 2 * len({r.k for r in rows}) > 20
    family = sorted({(r.k, r.n, r.p, f"{r.exponent.numerator}/{r.exponent.denominator}") for r in rows})
    assert records[0]["family_rows"] == [list(row) for row in family]
    per_k = sorted({r.k: r for r in rows}.values(), key=lambda r: r.k)
    lines = [line for line in out.splitlines() if line.startswith("# ") and "\t" in line]
    assert lines == ["# k\tn\tp\texponent\tdecimal\tzeckendorf(p)"] + ["# " + r.tsv() for r in per_k]


def test_minimal_antisquares_closed_form(capsys):
    code, _, out = run(capsys, "minimal-antisquares", "--max-order", "5", "--closed-form")
    assert code == EXIT_OK
    assert "0001011101" in out


def test_reproduce_table_1(capsys):
    code, records, _ = run(capsys, "reproduce-tables", "--table", "1")
    assert code == EXIT_OK
    assert all(r["pass"] for r in records)


def test_reproduce_tables_2_and_5(capsys):
    # tables 2 and 5 verify the nine uniform constructions, zeta16 included
    names = []
    for table in ("2", "5"):
        code, records, _ = run(capsys, "reproduce-tables", "--table", table)
        assert code == EXIT_OK
        assert all(r["pass"] for r in records)
        names += [r["anchor"] for r in records]
    assert len(names) == 9 and "Table 5 zeta16" in names


def test_reproduce_tables_checkpoint_dir_resumes(tmp_path, capsys):
    ckpt = ["reproduce-tables", "--table", "3", "--checkpoint-dir", str(tmp_path)]
    code, records, _ = run(capsys, *ckpt, "--budget", "500")
    assert code == EXIT_BUDGET
    assert [r["exhausted"] for r in records] == [False] * 3
    code, resumed, _ = run(capsys, *ckpt)
    assert code == EXIT_OK
    code, fresh, _ = run(capsys, "reproduce-tables", "--table", "3")
    assert resumed == fresh
    assert all(r["pass"] for r in resumed)
    # a checkpoint of another row is a usage error, not a traceback
    os.replace(tmp_path / "table3_row4.ckpt", tmp_path / "table3_row5.ckpt")
    code, _, _ = run(capsys, *ckpt)
    assert code == EXIT_USAGE


def test_search_resume_from_garbage_is_usage_error(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("{}")
    code, _, _ = run(capsys, "search", "--beta", "2", "--resume", str(path))
    assert code == EXIT_USAGE


def test_search_resume_prefixes_only_checkpoint_errors(tmp_path, capsys):
    # a bad target is a usage error of its own, not a failure to resume
    path = str(tmp_path / "state.json")
    assert run(capsys, "search", "--beta", "2", "--budget", "2", "--checkpoint", path)[0] == EXIT_BUDGET
    assert main(["search", "--beta", "2", "--resume", path, "--target", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: target must be between 1 and max_depth 512, got 0\n"
    with open(path, "w") as fh:
        fh.write("{")
    assert main(["search", "--beta", "2", "--resume", path, "--target", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot resume from {path}: ")


def test_search_resume_from_v2_checkpoint_is_usage_error(tmp_path, capsys):
    # a checkpoint of the letter-by-letter engine (format v2) is not resumed,
    # nor one whose stack is stored as chunks of rows of one length (v3)
    c = ConstraintSet(power=PowerBound.parse("2"))
    path = str(tmp_path / "v2.ckpt")
    old = search_reference._DFS(c, 512, 2)
    old.run(lambda depth: None)
    old.save_checkpoint(path)
    code, _, _ = run(capsys, "search", "--beta", "2", "--resume", path)
    assert code == EXIT_USAGE
    path = str(tmp_path / "v3.ckpt")
    assert run(capsys, "search", "--beta", "2", "--budget", "2", "--checkpoint", path)[0] == EXIT_BUDGET
    with open(path) as fh:
        state = json.load(fh)
    v3 = {**state, "magic": "antisquares-dfs-checkpoint-v3", "stack": [[row] for row in reversed(state["stack"])]}
    with open(path, "w") as fh:
        json.dump(v3, fh)
    code, _, _ = run(capsys, "search", "--beta", "2", "--resume", path)
    assert code == EXIT_USAGE


def test_search_resume_from_rows_out_of_stack_order_is_usage_error(tmp_path, capsys):
    # the rows of the top length stored twice resumed to 2,627 nodes instead
    # of 1,715, and the two top lengths swapped to another witness
    path = str(tmp_path / "state.json")
    flags = ["search", "--beta", "8/3", "--max-order", "4", "--max-depth", "64"]
    assert run(capsys, *flags, "--budget", "300", "--checkpoint", path)[0] == EXIT_BUDGET
    with open(path) as fh:
        state = json.load(fh)
    runs = [list(rows) for _, rows in groupby(state["stack"], key=lambda row: len(row[0]))]
    code, records, _ = run(capsys, *flags, "--resume", path)
    assert (code, records[0]["nodes"], records[0]["witness"]) == (EXIT_OK, 1715, "00100101001100101001100110100")
    for stack in (runs[0] + state["stack"], runs[1] + runs[0] + sum(runs[2:], [])):
        with open(path, "w") as fh:
            json.dump({**state, "stack": stack}, fh)
        code, records, _ = run(capsys, *flags, "--resume", path)
        assert (code, records) == (EXIT_USAGE, [])


def test_usage_errors():
    with pytest.raises(SystemExit):
        main(["generate", "--length", "5"])
    with pytest.raises(SystemExit):
        main(["verify-morphism"])
    with pytest.raises(SystemExit):
        main([])
