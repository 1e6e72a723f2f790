"""Tests of the benchmark itself:  python3 -m pytest -q bench"""
from __future__ import annotations

import copy
import itertools
import json
import sys

import pytest

import checks
import generators
import run
from tracer import LAYERS, Tracer

cli = run.load_program()


def ops_of(workload: str, seed: int, count: int, pool_size=None):
    if workload == "sweep":
        plan = generators.plan(workload, seed, trace=False)
        return [plan.warmup] + [op for cycle in plan.cycles for op in cycle]
    stream = generators.cycles(workload, seed, pool_size=pool_size)
    return [op for cycle in itertools.islice(stream, count) for op in cycle]


@pytest.mark.parametrize("workload", generators.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert ops_of(workload, 7, 40) == ops_of(workload, 7, 40)
    plans = [generators.plan(workload, 7, trace) for trace in (False, True)]
    for plan in plans:
        assert plan.warmup == generators.plan(workload, 7, False).warmup


@pytest.mark.parametrize("workload", ["long_cf", "big_twist", "verify"])
def test_generators_do_not_repeat_inputs(workload):
    # A pool of 3 per class is used up early, so fresh inputs are covered.
    ops = ops_of(workload, 3, 60, pool_size=3)
    argvs = [op.argv for op in ops]
    assert len(argvs) == len(set(argvs))
    assert ops_of(workload, 4, 60, pool_size=3) != ops
    plan = generators.plan(workload, 3, trace=True)
    measured = [op for cycle in plan.cycles for op in cycle]
    assert plan.warmup not in measured
    assert len(measured) == len(set(measured))


def test_generated_inputs_are_valid_knots():
    for op in ops_of("long_cf", 1, 20) + ops_of("big_twist", 1, 10):
        flag = op.argv[1]
        if flag.startswith("--fraction="):
            p, q = map(int, flag.split("=")[1].split("/"))
            assert p >= 3 and 0 < q < p and p % 2 == 1
        else:
            alphas, cs = checks.parse_i1_echo("I1(" + flag.split("=")[1] + ")")
            assert len(alphas) == generators.LONG_CF_PAIRS


def test_continuant_matches_known_fractions():
    assert checks.continuant([2, -2, 4, -2]) == (17, 12)
    assert checks.continuant([2, -2]) == (3, 2)
    assert checks.continuant([2, 0]) == (1, 0)  # projective infinity
    assert checks.continuant([-3]) == (-3, 1)


def test_schubert_classes_match_the_package():
    from equibridge.rationals import schubert_classes

    for max_p in (3, 9, 45, 61):
        assert checks.schubert_classes(max_p) == schubert_classes(max_p)


def public_bindings():
    """Every attribute of every equibridge module, by identity."""
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name.startswith("equibridge") and module is not None
            for attr, value in vars(module).items()}


def test_tracer_keeps_report_bytes_and_restores_functions():
    argvs = [("analyze", "--fraction=17/12", "--format", "json"),
             ("analyze", "--i1=2,-2,2,-2;1,1,-1,1", "--format", "json"),
             ("table", "--max-p", "11", "--format", "jsonl")]
    before = public_bindings()
    plain = [run.invoke(cli, argv)[1:] for argv in argvs]
    tracer = Tracer()
    try:
        tracer.install()
        assert public_bindings() != before
        traced = []
        for argv in argvs:
            tracer.op_begin()
            traced.append(run.invoke(cli, argv)[1:])
            tracer.op_end()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert public_bindings() == before
    assert all(tracer.layer_stats[layer][0] > 0 for layer in LAYERS)
    assert tracer.calls("cli.main") == len(argvs)
    assert tracer.calls("cli.analyze_presentation") > 0
    assert tracer.calls("seifert.no_such_function") == 0
    assert tracer.self_seconds("seifert.no_such_function") == 0.0
    assert 0 < tracer.presentations_distinct <= tracer.calls(
        "cli.analyze_presentation")
    assert {s[1].get("fraction") for s in tracer.report_spans} >= {"17/12", "3/2"}


def test_missing_layer_module_reports_zero(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "LAYERS", LAYERS + ("gone",))
    tracer = Tracer()
    tracer.install()
    try:
        run.invoke(cli, ("analyze", "--fraction=3/2"))
    finally:
        tracer.uninstall()
    assert tracer.layer_stats["gone"] == [0, 0.0]
    assert tracer.calls("cli.main") == 1


def test_self_times_add_up_to_traced_time():
    tracer = Tracer()
    tracer.install()
    try:
        seconds = run.invoke(cli, ("analyze", "--fraction=17/12"))[0]
    finally:
        tracer.uninstall()
    total = sum(s for _, s in tracer.layer_stats.values())
    assert 0 < total <= seconds


def good_report(argv):
    seconds, rc, out, err = run.invoke(cli, argv)
    assert rc == 0
    return out


ANALYZE = generators.Op(("analyze", "--fraction=17/12", "--format", "json"))
NO_DIGESTS = {"analyze": {}, "table": {}, "verify": {}}


def test_clean_report_passes_checks():
    out = good_report(ANALYZE.argv)
    assert run.check_op(ANALYZE, 0, out, "", NO_DIGESTS) == ([], False)
    recorded = {"analyze": {" ".join(ANALYZE.argv): checks.digest(out)},
                "table": {}, "verify": {}}
    assert run.check_op(ANALYZE, 0, out, "", recorded) == ([], True)


@pytest.mark.parametrize("corrupt", [
    lambda r: r["inversions"][0].update(determinant_knot=19),
    lambda r: r["inversions"][1]["order"].update(det_lhat=3),
    lambda r: r["inversions"][0]["slice_obstruction"].update(verdict="Inconclusive"),
    lambda r: r["inversions"][1]["order"].update(verdict="Inconclusive"),
    lambda r: r["inversions"][0].update(butterfly_fraction="8/3"),
    lambda r: r.update(inversions=[]),
    lambda r: r["inversions"][0].pop("determinant_knot"),
    lambda r: r.update(inversions=[5]),
])
def test_corrupted_report_is_counted_as_failed(corrupt):
    report = json.loads(good_report(ANALYZE.argv))
    bad = copy.deepcopy(report)
    corrupt(bad)
    text = json.dumps(bad, indent=2) + "\n"
    problems, _ = run.check_op(ANALYZE, 0, text, "", NO_DIGESTS)
    assert problems

    class Corrupting:
        """A cli whose main prints the corrupted report."""

        @staticmethod
        def main(argv):
            print(text, end="")
            return 0

    counted = run.Run(Corrupting, NO_DIGESTS)
    counted.execute(ANALYZE)
    assert counted.attempted == 1 and len(counted.failures) == 1


def test_changed_bytes_fail_the_digest_check():
    out = good_report(ANALYZE.argv)
    recorded = {"analyze": {" ".join(ANALYZE.argv): checks.digest(out)},
                "table": {}, "verify": {}}
    respaced = json.dumps(json.loads(out)) + "\n"
    problems, _ = run.check_op(ANALYZE, 0, respaced, "", recorded)
    assert problems == ["report bytes differ from the recorded digest"]


def test_corrupted_table_and_verify_fail():
    op = generators.sweep_op(9)
    out = good_report(op.argv)
    err = f"{op.units} classes written\n"
    assert run.check_op(op, 0, out, err, NO_DIGESTS)[0] == []
    rows = out.splitlines()
    assert run.check_op(op, 0, "\n".join(rows[:-1]) + "\n", err, NO_DIGESTS)[0]
    flipped = out.replace('"InfiniteOrder"', '"Inconclusive"', 1)
    assert run.check_op(op, 0, flipped, err, NO_DIGESTS)[0]
    verify = generators.Op(("verify", "--samples", "20", "--seed", "5"))
    out = good_report(verify.argv)
    assert run.check_op(verify, 0, out, "", NO_DIGESTS)[0] == []
    broken = out.replace("2/2", "1/2", 1)
    assert broken != out
    assert run.check_op(verify, 0, broken, "", NO_DIGESTS)[0]
    assert run.check_op(verify, 1, out, "", NO_DIGESTS)[0]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_lists_the_printed_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(generators.WORKLOADS)
