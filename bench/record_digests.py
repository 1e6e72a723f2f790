"""Record the output digests that run.py checks report bytes against.

    python3 bench/record_digests.py

Runs every pooled input of the analyze workloads, the sweep prefix and the
verify command once, checks each output as a benchmark run would, and
writes bench/digests.json.  Run it only at a commit whose report bytes are
the reference: report bytes must not change, so later commits are checked
against these digests, not re-recorded.
"""
from __future__ import annotations

import json
import sys

import checks
import generators
from run import BENCH_DIR, Fail, check_op, git_commit, invoke, load_program

VERIFY_SEEDS = (0, 1, 2)


def main() -> int:
    try:
        cli = load_program()
    except Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unchecked = {"analyze": {}, "table": {}, "verify": {}}

    def output(op) -> str:
        _, rc, out, err = invoke(cli, op.argv)
        problems, _ = check_op(op, rc, out, err, unchecked)
        if problems:
            raise SystemExit(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        return out

    analyze = {}
    for workload in ("long_cf", "big_twist"):
        classes, _ = generators.GENERATORS[workload]
        for cls in range(classes):
            ops = generators.pool(workload, cls, generators.POOL_PER_CLASS[workload])
            for op in ops:
                analyze[" ".join(op.argv)] = checks.digest(output(op))
            print(f"{workload} class {cls}: {len(ops)} reports", flush=True)
    rows = output(generators.sweep_op(generators.SWEEP_MAX_P)).splitlines()
    table = {}
    for row in rows:
        record = json.loads(row)
        table[f"{record['p']}/{record['q']}"] = checks.digest(row + "\n")
    print(f"table: {len(table)} rows", flush=True)
    samples = generators.VERIFY_SAMPLES
    texts = {output(generators.Op(("verify", "--samples", str(samples),
                                   "--seed", str(k)))) for k in VERIFY_SEEDS}
    if len(texts) != 1:
        raise SystemExit("verify output depends on its seed")
    recorded = {
        "commit": git_commit(),
        "analyze": analyze,
        "table": table,
        "verify": {str(samples): checks.digest(texts.pop())},
    }
    with open(BENCH_DIR / "digests.json", "w") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
