import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

from equibridge import (butterfly, cli, diagrams, moth, presentations,
                        rationals, seifert, strip)
from equibridge.butterfly import (
    axis_linking,
    butterfly_polynomial,
    equivariant_slice_obstruction,
)
from equibridge.cli import analyze_presentation, knot_report
from equibridge.laurent import DomainError, InvariantViolation
from equibridge.presentations import I1Presentation, inversions_from_fraction
from equibridge.rationals import Frac, schubert_classes

import tables
from notation import lp_parse, zp_parse


# Child interpreters import the package from the same source tree as this
# process, whether or not PYTHONPATH names it.
SRC = str(Path(cli.__file__).resolve().parents[1])


def launch(*args, code=None, buffered=True, cap=None, popen=False, **options):
    """Start one CLI child, `python -m equibridge.cli *args` or `python -c
    code`, that imports the package from this tree, and return its
    `CompletedProcess`, or its `Popen` when `popen` is set.  Its stdout is
    block-buffered, Python's default for a pipe or a file, or unbuffered when
    `buffered` is false, whatever PYTHONUNBUFFERED the host sets; `cap`
    limits its address space to that many bytes.  Its stdout and stderr are
    pipes of text unless `options` names others."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    limit = None
    if cap is not None:
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    command = ["-c", code] if code is not None else ["-m", "equibridge.cli", *args]
    start = subprocess.Popen if popen else subprocess.run
    return start([sys.executable, *command], env=env, preexec_fn=limit, text=True,
                 **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options})


def test_analyze_trefoil_fraction():
    proc = launch("analyze", "--fraction", "3/2", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    inv = report["inversions"][0]
    assert inv["i1"] == "I1(2;1)"
    assert inv["butterfly_polynomial"] == "t^-1 - 2 + t"
    assert inv["order"]["verdict"] == "InfiniteOrder"
    assert len(report["inversions"]) == 1  # torus knot: single inversion


def test_analyze_vanishing_presentation():
    proc = launch("analyze", "--i1", "2,-2,2,-2;1,1,-1,1", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["given"]["butterfly_polynomial"] == "0"
    assert report["given"]["order"]["verdict"] == "InfiniteOrder"


def test_analyze_cf_input():
    proc = launch("analyze", "--cf", "[2,-2,4,-2]", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["given"]["i1"] == "I1(2,4;1,1)"
    assert report["given"]["knot_fraction"] == "17/12"


def test_analyze_validation_exit_code():
    proc = launch("analyze", "--fraction", "4/2")
    assert proc.returncode == 2 and "error" in proc.stderr
    assert launch("analyze", "--fraction", "3/2", "--i1", "2;1").returncode == 2


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


def test_order_certificate_builds_no_diagram(monkeypatch):
    surfaces = count_calls(monkeypatch, seifert, "seifert_matrix_data")
    plats = count_calls(monkeypatch, diagrams, "build_plat_diagram")
    for p, q in ((3, 2), (17, 12), (99, 35)):
        pair = inversions_from_fraction(p, q)
        for pres in filter(None, (pair.inv1, pair.inv2)):
            assert moth.order_certificate(pres).verdict == "InfiniteOrder"
    assert surfaces == [] and plats == []


def test_wrong_butterfly_surface_determinant_exits_3(monkeypatch, capsys):
    real = cli.determinant
    monkeypatch.setattr(cli, "determinant", lambda data: real(data) + 1)
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "butterfly determinant 9 != fraction numerator 8\n")


def test_parallel_butterfly_plat_exits_3(monkeypatch, capsys):
    """A plat builder that ran one component backwards would leave the
    butterfly link's final region parallel: analyze stops on the check."""
    real = diagrams.build_plat_diagram

    def parallel(entries):
        pd = real(entries)
        walk = pd.components[0] = [(eid, -d) for eid, d in reversed(pd.components[0])]
        for eid, d in walk:
            pd.direction[eid] = d
        return pd

    monkeypatch.setattr(diagrams, "build_plat_diagram", parallel)
    assert cli.main(["analyze", "--fraction", "3/2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "final region strands run parallel\n")


def test_i1_input_equal_to_an_inversion_analyzed_once(monkeypatch):
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    report = knot_report(i1="2,4;1,1")
    assert report["given"]["i1"] == report["inversions"][0]["i1"]
    assert report["given"] == report["inversions"][0]
    counts = Counter(str(pres) for (pres,) in analyzed)
    assert counts["I1(2,4;1,1)"] == 1
    assert set(counts.values()) == {1}


@pytest.mark.parametrize("source", [
    {"fraction": "17/12"}, {"cf": "[2,-2,4,-2]"}, {"i1": "2,2;2,1"},
])
def test_every_input_analyzes_each_inversion_once(monkeypatch, source):
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    report = knot_report(**source)
    assert len(analyzed) == 2
    assert [str(pres) for (pres,) in analyzed] == [r["i1"] for r in report["inversions"]]


def test_a_given_presentation_that_is_not_inversion_1_exits_3(monkeypatch, capsys):
    real = cli.inversions_from_fraction
    monkeypatch.setattr(cli, "inversions_from_fraction",
                        lambda p, q: real(p, q)._replace(inv1=I1Presentation((2,), (1,))))
    assert cli.main(["analyze", "--i1=2,4;1,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "I1(2,4;1,1) is not inversion 1, I1(2;1), of its knot\n")


def test_fractions_evaluated_once_per_presentation(monkeypatch, capsys):
    # Per presentation: the knot and butterfly fractions plus the two
    # reversed ones of the nullity check.  The class check reads the knot
    # fractions that the analysis reuses, so a class adds none.
    analyzed = count_calls(monkeypatch, cli, "analyze_presentation")
    evaluated = count_calls(monkeypatch, rationals, "eval_cf")
    assert cli.main(["table", "--max-p", "15"]) == 0
    capsys.readouterr()
    assert len(evaluated) <= 4 * len(analyzed)


# One wrong continuant per case, on the knot cf [2, -2] of 3/2's one
# inversion I1(2;1) (butterfly cf [2, -2, -2], 8/5), or on the inv2 cf
# [-2, -2] of 5/2.  `presentations.eval_cf` computes the cached knot and
# butterfly fractions, `butterfly.eval_cf` the reversals of the nullity
# check; each case fails one check and no earlier one.
@pytest.mark.parametrize("module, fraction, entries, value, message", [
    (presentations, "3/2", [2, -2], Frac(5, 2),
     "builder produced a wrong knot: I1(2;1) -> 5/2"),
    (presentations, "5/2", [-2, -2], Frac(-5, 3),
     "builder produced a wrong knot: I1(-2;1) -> -5/3"),
    (presentations, "3/2", [2, -2, -2], Frac(1, 0),
     "butterfly fraction degenerate for I1(2;1): 1/0"),
    (presentations, "3/2", [2, -2, -2], Frac(7, 5),
     "butterfly numerator must be even, got 7/5"),
    (butterfly, "3/2", [-2, 2], Frac(-5, 2),
     "reversal changed the numerator for I1(2;1): 3 vs 5"),
    (butterfly, "3/2", [-2, 2], Frac(1, 0),
     "sign normalization of 1/0 needs a finite non-zero value"),
    (butterfly, "3/2", [-2, 2], Frac(-3, 1),
     "reversal identity q*q' = -1 (mod p) fails for I1(2;1)"),
    (butterfly, "3/2", [-2, -2, 2], Frac(8, 3),
     "projective recursion broke for I1(2;1)"),
    (presentations, "3/2", [2, -2, -2], Frac(6, 5),
     "reversed butterfly fraction numerator mismatch for I1(2;1): -8/3 vs 6/5"),
    (presentations, "5/2", [-2, -2], Frac(0, 1),
     "sign normalization of 0/1 needs a finite non-zero value"),
], ids=["inv1", "inv2", "degenerate", "odd-numerator", "reversal-numerator",
        "reversal-infinite", "reversal-congruence", "projective-recursion",
        "reversed-numerator", "inv2-zero"])
def test_each_arithmetic_check_exits_3(monkeypatch, capsys, module, fraction,
                                       entries, value, message):
    real = module.eval_cf
    monkeypatch.setattr(module, "eval_cf",
                        lambda cf: value if list(cf) == entries else real(cf))
    assert cli.main(["analyze", "--fraction", fraction]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {message}\n"


def test_import_leaves_fractions_out():
    # Modules that no command needs at start: each costs cold-start time.
    unwanted = ["fractions", "dataclasses", "inspect", "logging",
                "concurrent.futures", "csv"]
    code = ("import sys, equibridge.cli; "
            f"print([m for m in {unwanted!r} if m in sys.modules])")
    proc = launch(code=code)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_moth_import_leaves_the_geometry_out():
    code = ("import sys, equibridge.moth; "
            "print(sorted({'equibridge.diagrams', 'equibridge.seifert'}"
            " & set(sys.modules)))")
    proc = launch(code=code)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_only_verify_loads_the_oracles():
    """`analyze` and `table` leave `oracles` unloaded; `verify`, the one
    command that runs the moth's oracle route, loads it."""
    code = ("import sys, equibridge.cli as c; "
            "assert c.main(['analyze', '--fraction', '17/12']) == 0; "
            "assert c.main(['table', '--max-p', '9']) == 0; "
            "before = 'equibridge.oracles' in sys.modules; "
            "assert c.main(['verify', '--samples', '10']) == 0; "
            "print(before, 'equibridge.oracles' in sys.modules, file=sys.stderr)")
    proc = launch(code=code)
    assert proc.returncode == 0 and proc.stderr.splitlines()[-1] == "False True"


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


@pytest.mark.parametrize("arg, digest", [
    ("--i1=2,-2;2,2",  # a reduced witness, in the given block
     "88932ed42d6f9f094f83f656a67486cfb6486a980c2334f631283795f37bcfac"),
    ("--i1=2,-2;1,1",  # b = 0
     "46bf11e5974d212cb349002761f78177e0325e68d7f72eb7195634cce8a18219"),
    ("--fraction=17/12",  # two inversions
     "b3c4e90ff6bcddc42d8d060485888aae3e94d1cbe8e88204a07ff7ca9a3971bc"),
])
def test_analyze_json_bytes_are_pinned(capsys, arg, digest):
    assert cli.main(["analyze", arg, "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def _analyze_json(capsys, arg):
    assert cli.main(["analyze", arg, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_analyze_timing_in_text_adds_one_last_line(capsys):
    assert cli.main(["analyze", "--fraction=17/12"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["analyze", "--fraction=17/12", "--timing"]) == 0
    timed = capsys.readouterr().out
    assert timed.startswith(plain)
    name, value = timed[len(plain):].rstrip("\n").split(" ")
    assert name == "elapsed_seconds" and float(value) >= 0
    assert timed.count("\n") == plain.count("\n") + 1


def test_analyze_timing_only_appends_elapsed_seconds(capsys):
    plain = _analyze_json(capsys, "--fraction=17/12")
    assert cli.main(["analyze", "--fraction=17/12", "--format", "json",
                     "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert list(timed)[-1] == "elapsed_seconds"
    assert timed.pop("elapsed_seconds") >= 0
    assert timed == plain


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
    # only [+-]?[0-9]+ in ASCII: no other script's digits, no underscores
    "--fraction=\u0663/2": "numerator is not an integer: '\u0663'",
    "--i1=2;1_0": "c[1] is not an integer: '1_0'",
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


def test_a_long_even_continued_fraction_exits_2_in_bounded_memory_and_time():
    """(10^8 + 1)/3 expands to 33333334 entries; `analyze` stops at the
    first entry past 2000, under a 1 GB address-space cap and in seconds."""
    proc = launch("analyze", "--fraction=100000001/3", cap=1 << 30, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: 100000001/3: even continued fraction over 2000 entries"]


@pytest.mark.parametrize("args, crossings", [
    (("analyze", "--i1=2000000000;1"), 4000000002),
    (("analyze", "--i1=2;2000000000"), 4000000004),
    # inv1 of 1000000001/2 is I1(500000000;-1)
    (("analyze", "--fraction=1000000001/2"), 1000000002),
    # 3000 crossings, but its second inversion, I1(2996;1), has 5994: no
    # presentation is analyzed
    (("analyze", "--i1=2;1498"), 5994),
])
def test_huge_twist_counts_exit_2_in_bounded_memory_and_time(args, crossings):
    proc = launch(*args, cap=1 << 30, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: I1(")
    assert lines[0].endswith(f"butterfly link has {crossings} crossings, "
                             "over the limit of 3000")


def test_the_crossing_budget_admits_the_largest_class_up_to_p_1001():
    """1001/1000 has the most butterfly crossings of every class at
    p <= 1001, exactly the limit; one more twist is past it."""
    presentations = [pres for pres in inversions_from_fraction(1001, 1000)[:2] if pres]
    for pres in presentations:
        assert cli.within_budget(pres) is pres
        assert sum(map(abs, pres.butterfly_cf())) == cli.MAX_CROSSINGS == 3000
    pres = presentations[0]
    over = I1Presentation(pres.alphas, pres.cs[:-1] + (pres.cs[-1] + 1,))
    with pytest.raises(DomainError, match="has 3002 crossings, over the limit"):
        cli.within_budget(over)


def test_a_table_past_the_crossing_budget_exits_2_before_listing_a_class():
    """--max-p 30000 would list 3.4 * 10^7 classes, past a 1 GB cap, before
    reaching the first one over the budget; the table checks its largest
    class by a closed form first."""
    proc = launch("table", "--max-p", "30000", cap=1 << 30, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: --max-p 30000: class 29999/29998 has 89994 butterfly crossings, "
        "over the limit of 3000"]


def test_the_table_budget_checks_the_class_of_most_crossings():
    """(p, p - 1) is listed last for the largest odd p; its one inversion
    has 3(p - 1) butterfly crossings, so the budget admits exactly the
    tables with --max-p <= 1002."""
    for max_p, top in ((9, 9), (10, 9), (45, 45)):
        assert schubert_classes(max_p)[-1] == (top, top - 1)
    for p in range(3, 1004, 2):
        pair = inversions_from_fraction(p, p - 1)
        assert pair.inv2 is None
        assert sum(map(abs, pair.inv1.butterfly_cf())) == 3 * (p - 1)
    cli.table_within_budget(1001)
    cli.table_within_budget(1002)
    with pytest.raises(DomainError, match="^--max-p 1003: class 1003/1002 has 3006 "):
        cli.table_within_budget(1003)


@pytest.mark.parametrize("argv", [
    ["table", "--max-p", "\u0669"],
    ["table", "--max-p", "9", "--parallel", "\u0662"],
    ["verify", "--samples", "1_0"],
    ["verify", "--seed", "\u0663"],
])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-2]} is not an integer: {argv[-1]!r}\n"


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
        return moth.OrderCertificate(
            (1,) + cert.conway_lhat[1:], cert.determinant_lhat,
            cert.moth, cert.conway_knot, cert.determinant_knot)

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


def _walk_one_descender_short(monkeypatch):
    """Patch the strip walk of I1(4;1), and of no other presentation, one
    descender short: its label walk then closes one label up."""
    real = strip._walk_runs
    target = I1Presentation((4,), (1,))

    def walk_runs(pres):
        runs = real(pres)
        if pres != target:
            return runs
        return runs[:-1] + [("final vertical", 1, "bottom", -1, 0, 0)]

    monkeypatch.setattr(strip, "_walk_runs", walk_runs)


def test_strip_walk_failure_exits_3(monkeypatch, capsys):
    """The strip walk of a valid presentation failing is an internal error,
    not bad input."""
    _walk_one_descender_short(monkeypatch)
    assert cli.main(["analyze", "--i1=4;1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "label walk closes with net shift 1\n")


def test_strip_walk_failure_in_table_keeps_the_earlier_records(monkeypatch, capsys):
    _walk_one_descender_short(monkeypatch)
    assert cli.main(["table", "--max-p", "9"]) == 3
    captured = capsys.readouterr()
    # I1(4;1) is the first inversion of class (7, 2).
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["p"], r["q"]) for r in records] == [(3, 2), (5, 2), (5, 4)]
    assert captured.err == ("error: internal check failed: "
                            "label walk closes with net shift 1\n")


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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert cli.main(["table", "--max-p", "9", "--parallel", str(parallel)]) == 0
    assert RecordingPool.sizes == ([expected] if expected else [])
    assert capsys.readouterr().err == "8 classes written\n"


def test_table_rejects_parallel_below_one(capsys):
    assert cli.main(["table", "--max-p", "3", "--parallel", "0"]) == 2
    assert capsys.readouterr().err == "error: --parallel must be at least 1\n"


def test_table_into_a_closed_pipe_exits_141_without_a_traceback():
    # The p <= 45 table is 303 KB, more than a pipe holds, so the writer is
    # still writing when the reader closes the pipe after one line.
    proc = launch("table", "--max-p", "45", popen=True)
    try:
        assert json.loads(proc.stdout.readline())["p"] == 3
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141 and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("args, to_stdout", [
    (("analyze", "--fraction", "17/12"), True),
    (("analyze", "--fraction", "3/2", "--format", "json"), True),
    (("table", "--max-p", "45"), True),
    (("table", "--max-p", "9", "--out", "/dev/full"), False),
    (("verify", "--samples", "10"), True),
])
def test_output_that_cannot_be_written_exits_2_with_one_line(args, to_stdout, buffered):
    """/dev/full refuses every write: each command reports it as one
    `error:` line, with no traceback from the write or the last flush."""
    with open("/dev/full", "w") as full:
        proc = launch(*args, buffered=buffered, timeout=120,
                      stdout=full if to_stdout else subprocess.PIPE)
    assert proc.returncode == 2 and proc.stdout in (None, "")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 28] ")


def test_buffered_report_into_a_closed_pipe_exits_141_without_a_traceback():
    """A short report stays in stdout's buffer until `main` flushes it, after
    the reader has gone: the flush fails inside `main`, not at exit."""
    proc = launch("analyze", "--fraction", "3/2", popen=True)
    try:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141 and err == ""


def test_table_smallest():
    proc = launch("table", "--max-p", "3")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["p"] == 3 and lines[0]["q"] == 2


def test_table_deduplicates_inverse_pairs():
    proc = launch("table", "--max-p", "9")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    pqs = [(r["p"], r["q"]) for r in rows]
    assert (7, 2) in pqs and (7, 4) not in pqs
    assert pqs == sorted(pqs)
    for r in rows:
        for inv in r["inversions"]:
            assert inv["order"]["verdict"] == "InfiniteOrder"


def test_table_validation():
    assert launch("table", "--max-p", "2").returncode == 2


def test_table_deterministic_and_parallel(tmp_path):
    for fmt in ("jsonl", "csv"):
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        assert launch("table", "--max-p", "11", "--format", fmt,
                      "--out", str(p1)).returncode == 0
        assert launch("table", "--max-p", "11", "--format", fmt,
                      "--out", str(p2), "--parallel", "2").returncode == 0
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_table_failing_class_leaves_earlier_records(monkeypatch, capsys,
                                                    tmp_path, parallel):
    """Records stream: when the last class fails its check, every earlier
    record is already written, no summary line follows, and the exit is 3.
    Forked workers inherit the patched `analyze_presentation`."""
    good = tmp_path / "good.jsonl"
    assert cli.main(["table", "--max-p", "15", "--out", str(good)]) == 0
    capsys.readouterr()
    last = inversions_from_fraction(*schubert_classes(15)[-1])
    real = cli.analyze_presentation

    def failing_on_last(pres):
        if pres in (last.inv1, last.inv2):
            raise InvariantViolation(f"planted failure for {pres}")
        return real(pres)

    monkeypatch.setattr(cli, "analyze_presentation", failing_on_last)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "failed.jsonl"
    assert cli.main(["table", "--max-p", "15", "--out", str(out),
                     "--parallel", parallel]) == 3
    assert out.read_bytes().splitlines(keepends=True) == (
        good.read_bytes().splitlines(keepends=True)[:-1])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            f"planted failure for {last.inv1}\n")


def test_table_unwritable_path():
    assert launch("table", "--max-p", "3", "--out",
                  "/nonexistent-dir/x.jsonl").returncode == 2


def test_table_unwritable_path_analyzes_nothing(monkeypatch, capsys, tmp_path):
    analyzed = []
    monkeypatch.setattr(cli, "_class_report", analyzed.append)
    out = tmp_path / "missing" / "x.jsonl"
    assert cli.main(["table", "--max-p", "61", "--out", str(out)]) == 2
    assert analyzed == []
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_verify_passes_and_is_seeded():
    proc = launch("verify", "--samples", "30", "--seed", "7")
    assert proc.returncode == 0
    assert "all suites passed" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "9f6e1853941d64cd39696862d0eb3f17996b6e4618b2ada314cb5ca806b47d74")
    assert launch("verify", "--samples", "30", "--seed", "7").stdout == proc.stdout


def test_verify_validation():
    assert launch("verify", "--samples", "0").returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_out_file_that_cannot_be_written_leaves_stdout_open():
    """Only a stdout that cannot be flushed is pointed at devnull: a caller
    of `main` in its own process keeps its stdout after other errors."""
    code = ("import equibridge.cli as c; "
            "assert c.main(['table', '--max-p', '9', '--out', '/dev/full']) == 2; "
            "print('still open')")
    proc = launch(code=code)
    assert proc.returncode == 0 and proc.stdout == "still open\n"
    assert proc.stderr.startswith("error: [Errno 28] ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("error, code", [("InvariantViolation", 3), ("DomainError", 2)])
def test_a_failing_class_with_stdout_unwritable_exits_with_its_own_code(error, code):
    """The records before a failing class stay in stdout's buffer, which
    /dev/full refuses: the class's one `error:` line and exit code stand,
    with nothing from the interpreter's last flush."""
    program = (
        "import sys, equibridge.cli as c\n"
        f"from equibridge.laurent import {error}\n"
        "real, calls = c.analyze_presentation, []\n"
        "def planted(pres):\n"
        "    calls.append(pres)\n"
        "    if len(calls) == 2:\n"
        f"        raise {error}('planted')\n"
        "    return real(pres)\n"
        "c.analyze_presentation = planted\n"
        "sys.exit(c.main(['table', '--max-p', '9']))\n")
    with open("/dev/full", "w") as full:
        proc = launch(code=program, stdout=full, timeout=120)
    assert proc.returncode == code
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("planted")


@pytest.mark.parametrize("args", [(), ("--i1", "2;1")])
def test_the_oracle_command_is_gone(args):
    proc = launch("oracle", "eta", *args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'oracle'" in proc.stderr and "Traceback" not in proc.stderr


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
    proc = launch("analyze", "--i1=-2;1", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["given"]["knot_fraction"] == "-5/2"
    assert report["given"]["order"]["verdict"] == "InfiniteOrder"
    assert report["fraction"] == "-5/2"
    assert report["given"]["i1"] in [inv["i1"] for inv in report["inversions"]]


def test_analyze_cf_validation():
    proc = launch("analyze", "--cf", "[2,-3]")
    assert proc.returncode == 2 and "error" in proc.stderr


def test_analyze_byte_identical_across_runs():
    a = launch("analyze", "--fraction", "9/4", "--format", "json")
    b = launch("analyze", "--fraction", "9/4", "--format", "json")
    assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)


@settings(max_examples=40, deadline=None)
@given(tables.presentations(5, 12, 6))
def test_mirror_presentation_negates_exactly_the_odd_invariants(pres):
    """I1(-alpha; -c) presents the mirror knot with the mirrored inversion:
    its report negates the butterfly polynomial, both axis-linking numbers,
    the witness value, nabla(L-hat) and the moth numerator, and keeps
    nabla(K), both determinants, h1_order, the moth denominator and both
    verdicts."""
    given_ = analyze_presentation(pres)
    mirror = analyze_presentation(I1Presentation(tuple(-a for a in pres.alphas),
                                                 tuple(-c for c in pres.cs)))

    def negated_t(text):
        val, coefficients = lp_parse(text)
        return val, tuple(-x for x in coefficients)

    assert (tuple(lp_parse(mirror["butterfly_polynomial"]))
            == negated_t(given_["butterfly_polynomial"]))
    assert tuple(lp_parse(mirror["moth"]["num"])) == negated_t(given_["moth"]["num"])
    assert mirror["moth"]["den"] == given_["moth"]["den"]
    lhat, mirror_lhat = (zp_parse(r["order"]["conway_lhat"]) for r in (given_, mirror))
    assert mirror_lhat == tuple(-x for x in lhat)
    assert mirror["axis_linking"] == {k: -v for k, v in given_["axis_linking"].items()}
    slice_cert, mirror_cert = (r["slice_obstruction"] for r in (given_, mirror))
    assert mirror_cert["verdict"] == slice_cert["verdict"]
    witness = slice_cert["witness"]
    assert mirror_cert["witness"] == {**witness, "value": -witness["value"]}
    assert mirror["nullity"]["h1_order"] == given_["nullity"]["h1_order"]
    for key in ("conway_knot", "determinant_knot"):
        assert mirror[key] == given_[key], key
    for key in ("verdict", "det_lhat", "moth_den"):
        assert mirror["order"][key] == given_["order"][key], key


def test_mirror_pairs_of_the_p201_table_negate_exactly_the_odd_invariants():
    """Every chiral knot listed in both chiralities at p <= 201: the mirror
    record's inversions are I1(-alpha; -c) of the record's own, in either
    order, and the arithmetic routes obey the rules of the test above."""
    listed = tables.classes(201)
    pairs = set()
    for p, q in listed:
        # The mirror class {-q, -q^(-1)} mod p is listed by its least even
        # member; -q itself is odd, so it has one only when q^(-1) is odd.
        qi = pow(q, -1, p)
        if qi % 2 and p - qi != q:
            assert (p, p - qi) in listed
            pairs.add((p, min(q, p - qi), max(q, p - qi)))
    assert len(pairs) == 994

    def negated(f):
        return f.val, tuple(-x for x in f.cs)

    certificates = tables.certificates(201)
    checked = 0
    for p, q, mirror_q in sorted(pairs):
        own, listed_mirrors = (listed[p, r] for r in (q, mirror_q))
        mirrors = [I1Presentation(tuple(-a for a in pres.alphas),
                                  tuple(-c for c in pres.cs)) for pres in own]
        # By value: the mirror record may list the two in the other order.
        assert set(listed_mirrors) == set(mirrors)
        for pres, mirror in zip(own, mirrors):
            assert butterfly_polynomial(mirror) == negated(butterfly_polynomial(pres))
            assert axis_linking(mirror) == tuple(-x for x in axis_linking(pres))
            slice_cert, mirror_cert = (equivariant_slice_obstruction(x)
                                       for x in (pres, mirror))
            assert mirror_cert.verdict == slice_cert.verdict
            witness = slice_cert.witness
            assert mirror_cert.witness == witness._replace(value=-witness.value)
            assert (abs(mirror.butterfly_fraction.p)
                    == abs(pres.butterfly_fraction.p))
            order, mirror_order = (certificates[x] for x in (pres, mirror))
            assert mirror_order.conway_lhat == tuple(-x for x in order.conway_lhat)
            assert mirror_order.moth.num == negated(order.moth.num)
            assert mirror_order.moth.den == order.moth.den
            for key in ("verdict", "conway_knot", "determinant_knot",
                        "determinant_lhat"):
                assert getattr(mirror_order, key) == getattr(order, key), key
            checked += 1
    assert checked == 1988
