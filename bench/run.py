"""Benchmark of the equibridge command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload long_cf --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each op calls `equibridge.cli.main` in this process with the argv a user
would type, captures its output and checks it with `checks.py`, which shares
no code with the package.  With `--trace 0` the run measures whole cycles of
ops until `--seconds` have passed and prints the end-to-end metrics; with
`--trace 1` it runs each op of a fixed list twice, untraced and then under
the layer tracer, and prints the per-layer metrics.  The last line of the output is one
JSON object; the lines before it are the human-readable report.  The exit
code is 0 only if every op passed its checks.  `--workload all` runs each
workload in its own process and prints a summary.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (siblings of this file)
import generators  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_STARTS = 15
SLOWEST = 5
TAIL_BEYOND = 10
FUNCTION_TIMES = ("seifert.conway_polynomial", "seifert.seifert_matrix_data",
                  "seifert.determinant", "laurent.rf_make",
                  "diagrams.build_plat_diagram", "strip.label_strip")
# Which end-to-end metric a per-layer metric should move, and where.
EXPECTED_EFFECTS = (
    ("seifert.conway_polynomial.self_ms_per_op", "throughput_per_s", "sweep"),
    ("seifert.conway_polynomial.self_ms_per_op", "latency_ms.*", "long_cf"),
    ("seifert.seifert_matrix_data.self_ms_per_op", "latency_ms.*", "big_twist"),
    ("seifert.determinant.self_ms_per_op", "latency_ms.*", "big_twist"),
    ("laurent.rf_make.self_ms_per_op", "latency_ms.tail", "long_cf"),
    ("laurent.rf_make.self_ms_per_op", "no change", "big_twist"),
    ("diagrams.build_plat_diagram.self_ms_per_op", "latency_ms.*", "big_twist"),
    ("strip.label_strip.self_ms_per_op", "throughput_per_s", "verify"),
    ("cli.self_ms_per_op", "throughput_per_s", "sweep"),
    ("cli.analyze_presentation.unique_ratio", "latency_ms.*", "long_cf"),
    ("seifert.seifert_matrix_data.calls_per_presentation", "latency_ms.*",
     "sweep, long_cf, big_twist"),
    ("diagrams.build_plat_diagram.calls_per_presentation", "latency_ms.*",
     "sweep, long_cf, big_twist"),
    ("seifert.*", "no change (analyze path only)", "verify"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms_per_op", "ms", "lower"))
    out += [(f"{key}.self_ms_per_op", "ms", "lower") for key in FUNCTION_TIMES]
    out += [
        ("cli.analyze_presentation.unique_ratio", "ratio", "higher"),
        ("seifert.seifert_matrix_data.calls_per_presentation", "calls/pres", "lower"),
        ("diagrams.build_plat_diagram.calls_per_presentation", "calls/pres", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("latency_ms.p50", "ms"), ("latency_ms.tail", "ms"),
              ("peak_rss_mb", "MB"))


class Fail(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_program():
    """Import the checkout's own equibridge.cli, never an installed copy."""
    if not (SRC / "equibridge" / "cli.py").is_file():
        raise Fail(f"no equibridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from equibridge import cli

    if Path(cli.__file__).resolve().parent != SRC / "equibridge":
        raise Fail(f"imported equibridge from {cli.__file__}, not from {SRC}")
    return cli


def load_digests() -> dict:
    with open(BENCH_DIR / "digests.json") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of cold starts that import equibridge.cli.

    One start before the timed ones writes the bytecode caches, as the
    first use after an install does.
    """
    code = "import sys; sys.path.insert(0, 'src'); from equibridge.cli import main"
    cmd = [sys.executable, "-c", code]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise Fail("cold start failed: " + proc.stderr.decode()[-500:])
        if i:
            times.append(elapsed)
    return statistics.median(times), times


def invoke(cli, argv) -> tuple[float, object, str, str]:
    """Run one command in-process; (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # counted as a failed op and reported
        rc = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def check_op(op, rc, out: str, err: str, digests: dict) -> tuple[list[str], bool]:
    """Problems with one op's result, and whether its bytes had a digest."""
    if rc != 0:
        return [f"exit status {rc!r}: {err.strip()[-300:]}"], False
    kind = op.argv[0]
    if kind == "analyze":
        recorded = digests["analyze"]
        problems = checks.check_analyze(out, list(op.argv), recorded)
        digested = " ".join(op.argv) in recorded
        expected_err = ""
    elif kind == "table":
        max_p = int(op.argv[2])
        problems, count = checks.check_table(out, max_p, digests["table"])
        digested = all(f"{p}/{q}" in digests["table"]
                       for p, q in checks.schubert_classes(max_p))
        expected_err = f"{count} classes written\n"
    else:
        samples = op.argv[2]
        problems = checks.check_verify(out, int(samples), digests["verify"])
        digested = samples in digests["verify"]
        expected_err = ""
    if err != expected_err:
        problems.append(f"unexpected stderr {err[-200:]!r}")
    return problems, digested


def replay(argv) -> str:
    return "equibridge " + " ".join(shlex.quote(a) for a in argv)


class Run:
    """Ops executed by one run, with their latencies and check results."""

    def __init__(self, cli, digests: dict):
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digested = 0
        self.samples: list[tuple[float, object]] = []  # measured ops only

    def execute(self, op, measured: bool = True) -> str:
        seconds, rc, out, err = invoke(self.cli, op.argv)
        problems, digested = check_op(op, rc, out, err, self.digests)
        self.attempted += 1
        self.digested += digested
        if problems:
            self.failures.append((replay(op.argv), "; ".join(problems[:3])))
        if measured:
            self.samples.append((seconds, op))
        return out

    def print_failures(self) -> None:
        for cmd, why in self.failures[:SLOWEST]:
            print(f"FAILED {cmd}: {why}")

    def print_slowest(self) -> None:
        print(f"slowest ops ({min(SLOWEST, len(self.samples))} of "
              f"{len(self.samples)}):")
        for seconds, op in sorted(self.samples, key=lambda s: -s[0])[:SLOWEST]:
            print(f"  {seconds * 1000:10.1f} ms  {replay(op.argv)}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond); with too few samples for
    any such percentile, the maximum, at percentile 100, with 0 beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def run_untraced(cli, workload: str, seed: int, seconds: int) -> tuple[Run, dict]:
    setup_s, starts = measure_setup()
    digests = load_digests()
    plan = generators.plan(workload, seed, trace=False)
    run = Run(cli, digests)
    run.execute(plan.warmup, measured=False)
    deadline = time.perf_counter() + seconds
    cycles = 0
    for cycle in plan.cycles:
        for op in cycle:
            run.execute(op)
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    latencies = [s for s, _ in run.samples]
    units = sum(op.units for _, op in run.samples)
    busy = sum(latencies)
    tail_value, tail_pct, beyond = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": units / busy,
        "latency_ms.p50": statistics.median(latencies) * 1000,
        "latency_ms.tail": tail_value * 1000,
        "peak_rss_mb": rss_mb,
    }
    unit_name = "classes" if workload == "sweep" else "ops"
    print(f"ops: warmup 1, measured {len(latencies)} in {cycles} cycles, "
          f"{units} {unit_name}, busy {busy:.3f} s")
    print(f"setup_s            {setup_s:.4f} s   (median of {len(starts)} cold "
          f"starts, {min(starts):.4f}..{max(starts):.4f})")
    print(f"throughput_per_s   {metrics['throughput_per_s']:.4f} 1/s  "
          f"({unit_name} per busy second)")
    print(f"latency_ms.p50     {metrics['latency_ms.p50']:.2f} ms  "
          f"(n={len(latencies)})")
    print(f"latency_ms.tail    {metrics['latency_ms.tail']:.2f} ms  "
          f"(p{tail_pct:.1f}, {beyond} samples beyond, n={len(latencies)})")
    print(f"peak_rss_mb        {rss_mb:.2f} MB")
    return run, metrics


def run_traced(cli, workload: str, seed: int) -> tuple[Run, dict]:
    digests = load_digests()
    plan = generators.plan(workload, seed, trace=True)
    ops = [op for cycle in plan.cycles for op in cycle]
    run = Run(cli, digests)
    run.execute(plan.warmup, measured=False)
    tracer = Tracer()
    for op in ops:
        plain = run.execute(op)
        try:
            tracer.install()
            tracer.op_begin()
            traced_out = run.execute(op)
            tracer.op_end()
        finally:
            tracer.uninstall()
        if traced_out != plain:
            run.failures.append((replay(op.argv), "traced output differs"))
    untraced = sum(s for s, _ in run.samples[0::2])
    traced = sum(s for s, _ in run.samples[1::2])
    run.samples = run.samples[0::2]

    n = len(ops)
    metrics = {}
    for layer in LAYERS:
        calls, self_s = tracer.layer_stats[layer]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms_per_op"] = self_s * 1000 / n
    for key in FUNCTION_TIMES:
        metrics[f"{key}.self_ms_per_op"] = tracer.self_seconds(key) * 1000 / n
    presentations = tracer.calls("cli.analyze_presentation")

    def per_presentation(count):
        return count / presentations if presentations else 0.0

    metrics["cli.analyze_presentation.unique_ratio"] = per_presentation(
        tracer.presentations_distinct)
    metrics["seifert.seifert_matrix_data.calls_per_presentation"] = \
        per_presentation(tracer.calls("seifert.seifert_matrix_data"))
    metrics["diagrams.build_plat_diagram.calls_per_presentation"] = \
        per_presentation(tracer.calls("diagrams.build_plat_diagram"))
    metrics["trace.overhead_ratio"] = traced / untraced

    print(f"ops: warmup 1, {n} ops, each run untraced then traced "
          f"({untraced:.3f} s, {traced:.3f} s); {presentations} presentations "
          f"analyzed")
    total_self = sum(s for _, s in tracer.layer_stats.values())
    print("layer            calls    self ms/op   share")
    for layer in sorted(LAYERS, key=lambda x: -tracer.layer_stats[x][1]):
        calls, self_s = tracer.layer_stats[layer]
        share = self_s / total_self if total_self else 0.0
        print(f"  {layer:<13} {calls:>8} {self_s * 1000 / n:>12.3f} {share:>7.1%}")
    print("functions by self time:")
    ranked = sorted(tracer.fn_stats.items(), key=lambda kv: -kv[1][1])
    for key, (calls, self_s) in ranked[:12]:
        print(f"  {key:<40} {calls:>8} {self_s * 1000 / n:>12.3f} ms/op")
    print("expected effects (layer metric -> end-to-end metric, workload):")
    for layer_metric, e2e, where in EXPECTED_EFFECTS:
        mark = "*" if workload in where else " "
        print(f" {mark} {layer_metric} -> {e2e}, {where}")
    if tracer.report_spans:
        print("slowest knot reports:")
        spans = sorted(tracer.report_spans, key=lambda s: -s[0])[:SLOWEST]
        for dur, inputs in spans:
            flags = [f"--{k}={v}" for k, v in inputs.items()
                     if k in ("fraction", "cf", "i1") and v is not None]
            print(f"  {dur * 1000:10.1f} ms  {replay(['analyze', *flags])}")
    return run, metrics


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    cli = load_program()
    print(f"run: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} commit={git_commit()}")
    if trace:
        run, metrics = run_traced(cli, workload, seed)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        run, metrics = run_untraced(cli, workload, seed, seconds)
        units = dict(END_TO_END)
    failed = len(run.failures)
    print(f"failed_ratio       {failed / run.attempted:.4f} ratio  "
          f"({failed} of {run.attempted} ops, warm-up included; "
          f"{run.digested} byte-checked against digests)")
    run.print_failures()
    run.print_slowest()
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, then one summary table."""
    status = 0
    rows = []
    for workload in generators.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {workload}")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            rows.append((workload, None))
            status = status or 1
            continue
        rows.append((workload, json.loads(lines[-1])))
    print("== summary")
    for workload, result in rows:
        if result is None:
            print(f"{workload:<10} did not produce a result")
            continue
        ratio = result["failed"] / result["attempted"]
        cells = [f"{k} {v['value']:.4g} {v['unit']}"
                 for k, v in result["metrics"].items()]
        if not trace:
            cells.append(f"failed_ratio {ratio:.4g} ratio")
        print(f"{workload:<10} " + ", ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=generators.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Fail, generators.Exhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
