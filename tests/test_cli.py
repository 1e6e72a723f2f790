import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from equibridge import cli, diagrams, rationals, seifert
from equibridge.cli import knot_report
from equibridge.laurent import InvariantViolation
from equibridge.rationals import schubert_classes


# Child interpreters import the package from the same source tree as this
# process, whether or not PYTHONPATH names it.
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "equibridge.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_trefoil_fraction():
    code, out, _ = run_cli("analyze", "--fraction", "3/2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    inv = report["inversions"][0]
    assert inv["i1"] == "I1(2;1)"
    assert inv["butterfly_polynomial"] == "t^-1 - 2 + t"
    assert inv["order"]["verdict"] == "InfiniteOrder"
    assert len(report["inversions"]) == 1  # torus knot: single inversion


def test_analyze_vanishing_presentation():
    code, out, _ = run_cli("analyze", "--i1", "2,-2,2,-2;1,1,-1,1",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["given"]["butterfly_polynomial"] == "0"
    assert report["given"]["order"]["verdict"] == "InfiniteOrder"


def test_analyze_cf_input():
    code, out, _ = run_cli("analyze", "--cf", "[2,-2,4,-2]", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["given"]["i1"] == "I1(2,4;1,1)"
    assert report["given"]["knot_fraction"] == "17/12"


def test_analyze_validation_exit_code():
    code, _, err = run_cli("analyze", "--fraction", "4/2")
    assert code == 2 and "error" in err
    code, _, _ = run_cli("analyze", "--fraction", "3/2", "--i1", "2;1")
    assert code == 2


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of `module.name`, in each
    equibridge namespace that bound the function."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, ns in list(sys.modules.items()):
        if mod_name.startswith("equibridge") and getattr(ns, name, None) is original:
            monkeypatch.setattr(ns, name, counted)
    return calls


def test_each_diagram_and_seifert_matrix_built_once(monkeypatch):
    # Only the butterfly link keeps a diagram on the analyze path; the
    # knot's determinant is continued-fraction arithmetic.
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    surfaces = count_calls(monkeypatch, seifert, "seifert_matrix_data")
    plats = count_calls(monkeypatch, diagrams, "build_plat_diagram")
    knots = count_calls(monkeypatch, diagrams, "build_knot_diagram")
    report = knot_report(fraction="17/12")
    assert len(report["inversions"]) == len(analyzed) == 2
    assert len(surfaces) == len(analyzed)
    assert len(plats) == len(analyzed)
    assert knots == []


def test_i1_input_equal_to_an_inversion_analyzed_once(monkeypatch):
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    report = knot_report(i1="2,4;1,1")
    assert report["given"]["i1"] == report["inversions"][0]["i1"]
    assert report["given"] == report["inversions"][0]
    counts = Counter(str(pres) for (pres,) in analyzed)
    assert counts["I1(2,4;1,1)"] == 1
    assert set(counts.values()) == {1}


def test_fractions_evaluated_once_per_presentation(monkeypatch, capsys):
    # Per presentation: the knot and butterfly fractions plus the two
    # reversed ones of the nullity check; per class: the even_cf round trip.
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    evaluated = count_calls(monkeypatch, rationals, "eval_cf")
    assert cli.main(["table", "--max-p", "15"]) == 0
    capsys.readouterr()
    assert len(evaluated) <= 4 * len(analyzed) + len(schubert_classes(15))


def test_import_leaves_fractions_out():
    code = ("import sys, equibridge.cli; "
            "print('fractions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_table_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "t25.jsonl"
    assert cli.main(["table", "--max-p", "25", "--format", "jsonl",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 86856
    assert hashlib.sha256(data).hexdigest() == (
        "c36a6f474388932de31abe360b7f430568de978ec9aaf70bf81df2703635daef")


def test_table_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "t25.csv"
    assert cli.main(["table", "--max-p", "25", "--format", "csv",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 12401
    assert hashlib.sha256(data).hexdigest() == (
        "5ff5dceed384eb36e461d4eb8e07877682fb7aac399260d6e0a73aa9d1175d79")


@pytest.mark.parametrize("arg, digest", [
    ("--fraction=7/2",
     "e5741c59709bb633739c36b5b6c27dc99d7796fa6c7dcd3768d6a922df3e2d97"),
    ("--i1=2,-2;1,1",  # b = 0: the butterfly entries end in 0
     "5d1a87dcd7526184b3bb7b69ace773195efc4198f98a0a0f1ffad90bf4e286d2"),
    ("--cf=[2,-2,4,-2]",
     "2c43f34d3e183ef2d7f64e4e7ca2d3665dcdec5d07a6580c027921d6c4e424c5"),
])
def test_analyze_text_bytes_are_pinned(capsys, arg, digest):
    assert cli.main(["analyze", arg, "--format", "text"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def _analyze_json(capsys, arg):
    assert cli.main(["analyze", arg, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_negative_denominator_is_the_negative_fraction(capsys):
    """p/-q reads as -p/q: the two reports differ only in the input text."""
    over_negative = _analyze_json(capsys, "--fraction=7/-2")
    negative = _analyze_json(capsys, "--fraction=-7/2")
    assert over_negative.pop("input") == {"kind": "fraction", "text": "7/-2"}
    assert negative.pop("input") == {"kind": "fraction", "text": "-7/2"}
    assert over_negative == negative
    assert negative["fraction"] == "-7/2"


HUGE = "7" * 4301  # over Python's default limit on integer digit strings

# Malformed fields, each named in the one error line.
FIELD_ERRORS = {
    "--i1=2,,4;1,1": "alpha[2] is empty",
    "--i1=2,4;1,,1": "c[2] is empty",
    "--i1=2;1,": "c[2] is empty",
    "--i1=2,x;1,1": "alpha[2] is not an integer: 'x'",
    "--cf=2,,-2": "continued-fraction entry 2 is empty",
    "--fraction=5/": "denominator is empty",
    "--fraction=/3": "numerator is empty",
}


@pytest.mark.parametrize("arg", [
    "--fraction=5/0",
    "--fraction=0/0",
    f"--fraction=3/{HUGE}",
    f"--fraction={HUGE}/2",
    f"--cf=[2,{HUGE}]",
    f"--i1=2;{HUGE}",
    f"--i1={HUGE}0;1",
    *FIELD_ERRORS,
])
def test_analyze_rejects_input_edges(capsys, arg):
    assert cli.main(["analyze", arg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if arg in FIELD_ERRORS:
        assert lines[0] == f"error: {FIELD_ERRORS[arg]}"


def test_verify_lists_every_failure_with_its_exception(monkeypatch, capsys):
    def broken(pres):
        raise AttributeError("boom")

    monkeypatch.setattr(cli, "order_certificate", broken)
    monkeypatch.setattr(cli, "reduce_if_b_zero", lambda pres: None)
    assert cli.main(["verify", "--samples", "20", "--seed", "3"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    moth = [line for line in fails if line.startswith("FAIL [moth properties]")]
    reduction = [line for line in fails if line.startswith("FAIL [b=0 reduction]")]
    assert len(moth) == len(reduction) == 2 and len(fails) == 4
    assert all("raised AttributeError: boom; reproduce with: analyze --i1=" in line
               for line in moth)
    assert all(line.startswith("FAIL [b=0 reduction]: reproduce with: analyze --i1=")
               for line in reduction)


def test_verify_moth_suite_fails_a_constant_term_in_nabla_lhat(monkeypatch, capsys):
    """nabla(L-hat) must be divisible by z before the oracle divides it."""
    real = cli.order_certificate

    def with_constant_term(pres):
        cert = real(pres)
        return dataclasses.replace(cert, conway_lhat=(1,) + cert.conway_lhat[1:])

    monkeypatch.setattr(cli, "order_certificate", with_constant_term)
    assert cli.main(["verify", "--samples", "10", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "moth properties: 0/1" in out
    fails = [line for line in out if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL [moth properties]: reproduce with: analyze --i1=")


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    def broken(pres):
        raise InvariantViolation("moth polynomial is not symmetric in t")

    monkeypatch.setattr(cli, "order_certificate", broken)
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "moth polynomial is not symmetric in t\n")
    assert cli.main(["verify", "--samples", "10", "--seed", "1"]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert fails and all(
        line.startswith("FAIL [moth properties]: raised InvariantViolation: ")
        for line in fails)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process, and starts no worker."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("parallel, cpus, expected", [
    (1000, 4, 4),    # capped by the CPU count
    (1000, 64, 8),   # capped by the 8 classes with p <= 9
    (3, 64, 3),
    (2, None, None),  # unknown CPU count: one process, no pool
])
def test_table_parallel_pool_is_capped(monkeypatch, capsys, parallel, cpus,
                                       expected):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert cli.main(["table", "--max-p", "9", "--parallel", str(parallel)]) == 0
    assert RecordingPool.sizes == ([expected] if expected else [])
    assert capsys.readouterr().err == "8 classes written\n"


def test_table_rejects_parallel_below_one(capsys):
    assert cli.main(["table", "--max-p", "3", "--parallel", "0"]) == 2
    assert capsys.readouterr().err == "error: --parallel must be at least 1\n"


def test_table_smallest():
    code, out, _ = run_cli("table", "--max-p", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["p"] == 3 and lines[0]["q"] == 2


def test_table_deduplicates_inverse_pairs():
    code, out, _ = run_cli("table", "--max-p", "9")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    pqs = [(r["p"], r["q"]) for r in rows]
    assert (7, 2) in pqs and (7, 4) not in pqs
    assert pqs == sorted(pqs)
    for r in rows:
        for inv in r["inversions"]:
            assert inv["order"]["verdict"] == "InfiniteOrder"


def test_table_validation():
    code, _, _ = run_cli("table", "--max-p", "2")
    assert code == 2


def test_table_deterministic_and_parallel(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    assert run_cli("table", "--max-p", "11", "--out", str(p1))[0] == 0
    assert run_cli("table", "--max-p", "11", "--out", str(p2),
                   "--parallel", "2")[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_table_unwritable_path():
    code, _, err = run_cli("table", "--max-p", "3", "--out",
                           "/nonexistent-dir/x.jsonl")
    assert code == 2


def test_verify_passes_and_is_seeded():
    code, out, _ = run_cli("verify", "--samples", "30", "--seed", "7")
    assert code == 0
    assert "all suites passed" in out
    code2, out2, _ = run_cli("verify", "--samples", "30", "--seed", "7")
    assert out2 == out


def test_verify_validation():
    assert run_cli("verify", "--samples", "0")[0] == 2


def test_oracle_eta_subcommand():
    code, out, _ = run_cli("oracle", "eta", "--i1", "2;1")
    assert code == 0
    assert "eta = t^-1 - 2 + t" in out
    assert "census" in out


def test_oracle_eta_strip_file(tmp_path):
    from equibridge.strip import build_strip, print_strip
    from equibridge.presentations import parse_i1

    path = tmp_path / "s.strip"
    path.write_text(print_strip(build_strip(parse_i1("4;1"))))
    code, out, _ = run_cli("oracle", "eta", "--strip", str(path))
    assert code == 0
    assert "eta = t^-2 - 2 + t^2" in out


@pytest.mark.parametrize("text, message", [
    ("slots 1\narc 1 top:1 bottom:1\nstart 1 fwd\n",
     "label walk closes with net shift -1"),
    # the strip of I1(2;1) plus an arc that its closed walk never reaches
    ("slots 5\n"
     "arc 1 top:1 top:2 rail\narc 2 bottom:2 top:3 box_1_arc\n"
     "arc 3 bottom:3 bottom:4 final_return\narc 4 top:4 bottom:1 final_vertical\n"
     "arc 5 top:5 bottom:5\n"
     "cross 2 1 +1\ncross 2 1 +1\ncross 1 2 +1\ncross 4 1 -1\nstart 1 fwd\n",
     "label walk does not visit every arc"),
])
def test_oracle_eta_strip_whose_label_walk_fails(tmp_path, capsys, text, message):
    path = tmp_path / "s.strip"
    path.write_text(text)
    assert cli.main(["oracle", "eta", "--strip", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args", [(), ("--i1", "2;1", "--strip", "s.strip")])
def test_oracle_eta_needs_exactly_one_source(args):
    code, out, err = run_cli("oracle", "eta", *args)
    assert code == 2 and out == ""
    assert "usage:" in err and "Traceback" not in err


def test_reports_recompute_per_inversion():
    report = knot_report(fraction="5/2")
    inv1, inv2 = report["inversions"]
    assert inv1["i1"] != inv2["i1"]
    assert inv1["butterfly_fraction"] != inv2["butterfly_fraction"]


def test_counterexample_format_round_trips():
    from equibridge.cli import analyze_ready
    from equibridge.presentations import parse_i1

    pres = parse_i1("-4,2;3,-1")
    cmd = analyze_ready(pres)
    assert cmd.startswith('analyze --i1="')
    inner = cmd.split('"')[1]
    assert parse_i1(inner) == pres


def test_analyze_negative_value_presentation():
    """Presentations whose fraction is negative are analyzed as given."""
    code, out, _ = run_cli("analyze", "--i1=-2;1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["given"]["knot_fraction"] == "-5/2"
    assert report["given"]["order"]["verdict"] == "InfiniteOrder"
    assert report["fraction"] == "-5/2"
    assert report["given"]["i1"] in [inv["i1"] for inv in report["inversions"]]


def test_analyze_cf_validation():
    code, _, err = run_cli("analyze", "--cf", "[2,-3]")
    assert code == 2 and "error" in err


def test_analyze_byte_identical_across_runs():
    a = run_cli("analyze", "--fraction", "9/4", "--format", "json")
    b = run_cli("analyze", "--fraction", "9/4", "--format", "json")
    assert a == b
