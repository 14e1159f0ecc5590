#!/usr/bin/env python3
"""Benchmark of the antisquares package: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out FILE] [--compare EARLIER_RESULT.json]

Runs the workload's operations back to back (one closed-loop caller) until
S seconds have passed, checks every answer, prints a report and, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 iterations alternate untraced and traced and
the metrics are the per-layer ones.  A result file with provenance, every
answer and every counter is written to --out (default bench/out/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "antisquares"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import the package from this checkout's source tree, single-threaded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    import antisquares

    if Path(antisquares.__file__).resolve().parent != PACKAGE.resolve():
        raise ImportError(f"antisquares imported from {antisquares.__file__}, not from {PACKAGE}")


def setup_probes(args) -> list[float]:
    """Seconds from starting a fresh process to its first timed iteration."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return samples


class Tally:
    """Operations attempted and failed; a failure is known when it reproduces
    a defect the operation documents.

    `attempted` is the number of operations in one iteration and `failed`
    the number of them that failed in any iteration, so both depend on the code and the seed
    alone, not on how many iterations fit in the run.  Every later iteration
    checks its answers again and must give exactly the first iteration's
    answers, failures included; any difference marks the operation unstable
    and the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.executed = 0
        self.failures: list[dict] = []
        self.first_answers: dict | None = None
        self.unstable: set[str] = set()
        self.part_walls: dict[str, list[float]] = {}  # part of a combined workload -> seconds per iteration

    def iteration(self, ops, index: int) -> float:
        answers = {}
        failures = []
        start = perf_counter()
        parts = Counter()
        for op in ops:
            op_start = perf_counter()
            try:
                answers[op.name] = op.fn()
            except Exception as exc:  # recorded as a failed operation; the loop goes on
                known = isinstance(exc, op.known)
                failures.append({"op": op.name, "iteration": index, "error": type(exc).__name__,
                                 "detail": str(exc)[:400], "known_defect": op.defect if known else None,
                                 "traceback": None if known else traceback.format_exc(limit=-4)})
                answers[op.name] = {"error": type(exc).__name__}
            if "/" in op.name:
                parts[op.name.split("/", 1)[0]] += perf_counter() - op_start
        wall = perf_counter() - start
        for part, seconds in parts.items():
            self.part_walls.setdefault(part, []).append(seconds)
        self.executed += len(ops)
        if self.first_answers is None:
            self.first_answers = answers
            self.attempted = len(ops)
            self.failures = failures
        else:
            self.unstable |= {k for k, v in answers.items() if self.first_answers.get(k) != v}
            self.failures += [f for f in failures if f["known_defect"] is None]
        return wall

    @property
    def unexpected(self) -> list[dict]:
        return [f for f in self.failures if f["known_defect"] is None]


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def code_lines() -> dict[str, int]:
    lines = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        lines[f"{name}.lines"] = path.read_bytes().count(b"\n")
    lines["src.lines"] = sum(lines.values())
    return lines


def provenance(seed: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted(p for p in PACKAGE.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        toplevel, head = (top.stdout.split() + ["", ""])[:2]
        if top.returncode == 0 and Path(toplevel).resolve() == ROOT.resolve():
            sha = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def traced_iterations(ops, tally, stop_at):
    """Alternate untraced and traced iterations; per-layer metrics from the traced ones."""
    import tracing

    modules = {name: sys.modules[f"antisquares.{name}"] for name in tracing.LAYERS}
    modules["package"] = sys.modules["antisquares"]
    tracer = tracing.Tracer(modules)
    plain, summaries = [], []
    while True:
        plain.append(tally.iteration(ops, len(plain) + len(summaries)))
        tracer.install()
        try:
            first = len(tracer.spans)
            tracer.counts = Counter()
            wall = tally.iteration(ops, len(plain) + len(summaries))
        finally:
            tracer.restore()
        summaries.append(tracer.summarize(first, wall, tracer.counts))
        if perf_counter() + (plain[-1] + wall) / 2 >= stop_at:
            return plain, summaries, tracer


def per_layer(plain, summaries, tracer) -> tuple[dict, dict]:
    """Median of each timed per-layer value, exact counters from the first traced iteration."""
    functions = summaries[0].pop("functions")
    for s in summaries[1:]:
        s.pop("functions")
    values = {}
    for name, first in summaries[0].items():
        if isinstance(first, int):
            values[name] = first
        else:
            values[name] = statistics.median(s[name] for s in summaries)
    counters = {k: v for k, v in values.items() if isinstance(v, int)}
    drift = sorted(k for k in counters if any(s[k] != counters[k] for s in summaries))
    traced_wall = statistics.median(s["trace.wall_s"] for s in summaries)
    values["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1
    extra = {"functions": functions, "missing_hooks": tracer.missing, "counter_drift": drift,
             "traced_walls": [s["trace.wall_s"] for s in summaries], "untraced_walls": plain}
    return values, extra


def write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        for layer, name, start, end, parent, own in spans:
            fh.write(json.dumps([layer, name, round(start, 7), round(end, 7), parent, round(own, 7)]) + "\n")


def compare(old: dict, result: dict) -> list[str]:
    """Names of answers and counters that differ from an earlier result."""
    lines = []
    if (old.get("workload"), old.get("seed")) != (result["workload"], result["seed"]):
        lines.append(f"note: the earlier result is workload {old.get('workload')} seed {old.get('seed')}")
    for group in ("answers", "counters"):
        a, b = old.get(group, {}), result.get(group, {})
        for key in sorted(set(a) & set(b)):
            if a[key] != b[key]:
                lines.append(f"{group[:-1]} differs: {key}: {json.dumps(a[key])[:120]} -> {json.dumps(b[key])[:120]}")
        for key in sorted(set(a) ^ set(b)):
            lines.append(f"{group[:-1]} only in {'earlier' if key in a else 'this'} result: {key}")
    return lines or ["no answer or counter differs"]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {PACKAGE} or {spec_path} is missing; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else setup_probes(args)
    tally = Tally()
    start = perf_counter()
    stop_at = start + args.seconds
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        plain, summaries, tracer = traced_iterations(ops, tally, stop_at)
        values, result["trace_detail"] = per_layer(plain, summaries, tracer)
        result["counters"] = {k: v for k, v in values.items() if isinstance(v, int)}
        wall = plain
    else:
        # Stop when another iteration would end more than half of it past
        # the deadline, so a run measures about --seconds on average.
        wall = []
        while not wall or perf_counter() + statistics.median(wall) / 2 < stop_at:
            wall.append(tally.iteration(ops, len(wall)))
        values = {"setup_s": statistics.median(setup)}
    values["wall_s"] = statistics.median(wall)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = code_lines()
    values.update(lines)
    q1, q3 = quartiles(wall)
    failed = len({f["op"] for f in tally.failures})  # operations that failed in any iteration
    correct = not tally.unexpected and not tally.unstable
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result.update({
        "provenance": provenance(args.seed), "correct": correct, "attempted": tally.attempted,
        "failed": failed, "fail_frac": failed / tally.attempted, "executed": tally.executed,
        "failures": tally.failures,
        "unstable_answers": sorted(tally.unstable), "wall_samples": wall, "wall_q1_s": q1, "wall_q3_s": q3,
        "setup_samples": setup, "metrics": metrics, "answers": tally.first_answers,
        "values": values,
    })
    if not args.trace and tally.part_walls:
        # Untraced seconds of each part per iteration: a change that helps one
        # part of a combined workload and costs another shows here.
        result["part_wall_s"] = {part: {"median": statistics.median(v), "samples": v}
                                 for part, v in tally.part_walls.items()}
    out = args.out or out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        write_spans(out.with_suffix(".spans.jsonl"), tracer.spans)
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")

    prov = result["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops/iteration {len(ops)}")
    print(f"provenance git_sha={prov['git_sha']} src_sha256={prov['src_sha256'][:16]} nproc={prov['nproc']} "
          f"blas_threads=1 python={prov['python']} numpy={prov['numpy']} mpmath={prov['mpmath']}")
    print(f"wall_s       {values['wall_s']:.4f} s   (untraced; q1 {q1:.4f}, q3 {q3:.4f}, n={len(wall)} iterations)")
    if setup:
        print(f"setup_s      {values['setup_s']:.4f} s   (median of {len(setup)} fresh processes)")
    for part, v in result.get("part_wall_s", {}).items():
        print(f"  part {part:16s} {v['median']:.4f} s   (median seconds of the part per iteration)")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    unexpected = len({f["op"] for f in tally.unexpected})
    print(f"fail_frac    {failed / tally.attempted:.4f}   ({failed} of {tally.attempted} operations; "
          f"{failed - unexpected} known defects, {unexpected} unexpected; {tally.executed} operations run in all)")
    print("code size " + " ".join(f"{k}={v}" for k, v in lines.items()))
    seen = set()
    for f in tally.failures:
        if f["op"] not in seen:
            seen.add(f["op"])
            tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
            print(f"  failed {f['op']}: {f['error']} [{tag}] {f['detail'][:200]}")
    for name in sorted(tally.unstable):
        print(f"  answer changed between iterations: {name}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
        detail = result["trace_detail"]
        if detail["missing_hooks"]:
            print(f"  trace hooks not found: {', '.join(detail['missing_hooks'])}")
        if detail["counter_drift"]:
            print(f"  counters differ between traced iterations: {', '.join(detail['counter_drift'])}")
    if earlier is not None:
        for line in compare(earlier, result):
            print(line)
    print(f"result file {out}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
