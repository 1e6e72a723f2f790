"""Output checks that share no code with the equibridge package.

Every expected value here is computed from scratch: fractions as projective
continuants (products of integer 2x2 matrices), Schubert classes by direct
enumeration, and report bytes against digests recorded at a reference
commit.  A check returns a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import hashlib
import json
import re
from math import gcd

SLICE_VERDICT = "NotEquivariantlySlice"
ORDER_VERDICT = "InfiniteOrder"

_I1_RE = re.compile(r"^I1\(([-0-9,]+);([-0-9,]+)\)$")
_VERIFY_LINE_RE = re.compile(r"^(.+): (\d+)/(\d+)$")


def digest(text: str) -> str:
    """The digest recorded for an output: 128 bits of SHA-256 of its bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def continuant(entries) -> tuple[int, int]:
    """[e1, ..., em] = e1 + 1/(e2 + ...) as a reduced (p, q) with q >= 0.

    The value is the first column of the product of [[e, 1], [1, 0]], so a
    zero entry needs no special case; infinity is (1, 0).
    """
    p, r, q, s = 1, 0, 0, 1  # [[p, r], [q, s]], the identity
    for e in entries:
        p, r, q, s = p * e + r, p, q * e + s, q
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    g = gcd(p, q)
    return p // g, q // g


def knot_entries(alphas, cs) -> list[int]:
    out: list[int] = []
    for a, c in zip(alphas, cs):
        out += [a, -2 * c]
    return out


def butterfly_entries(alphas, cs) -> list[int]:
    return knot_entries(alphas, cs) + [-sum(alphas)]


def parse_i1_echo(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    m = _I1_RE.match(text)
    if not m:
        raise ValueError(f"not an I1 presentation: {text!r}")
    alphas = tuple(int(x) for x in m.group(1).split(","))
    cs = tuple(int(x) for x in m.group(2).split(","))
    if len(alphas) != len(cs):
        raise ValueError(f"length mismatch in {text!r}")
    return alphas, cs


def _frac_text(pq: tuple[int, int]) -> str:
    return f"{pq[0]}/{pq[1]}"


def check_inversion(inv: dict, p: int) -> list[str]:
    """One inversion record of the knot with determinant p."""
    where = inv.get("i1", "?") if isinstance(inv, dict) else "?"
    try:
        alphas, cs = parse_i1_echo(inv["i1"])
        kf = continuant(knot_entries(alphas, cs))
        bf = continuant(butterfly_entries(alphas, cs))
        problems = []
        if inv["slice_obstruction"]["verdict"] != SLICE_VERDICT:
            problems.append("slice verdict is not " + SLICE_VERDICT)
        if inv["order"]["verdict"] != ORDER_VERDICT:
            problems.append("order verdict is not " + ORDER_VERDICT)
        if abs(kf[0]) != p:
            problems.append(f"presentation is not a knot of determinant {p}")
        if inv["knot_fraction"] != _frac_text(kf):
            problems.append(f"knot_fraction != {_frac_text(kf)}")
        if inv["determinant_knot"] != p:
            problems.append(f"determinant_knot != {p}")
        if inv["butterfly_fraction"] != _frac_text(bf):
            problems.append(f"butterfly_fraction != {_frac_text(bf)}")
        if bf[0] == 0 or inv["order"]["det_lhat"] != abs(bf[0]):
            problems.append(f"order.det_lhat != |p''| = {abs(bf[0])}")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: malformed inversion record ({exc!r})"]
    return [f"{where}: {msg}" for msg in problems]


def check_report(report: dict, p: int, fraction: str | None = None,
                 given: tuple | None = None) -> list[str]:
    """A knot report of a knot with determinant p.

    `fraction` is the expected echo of a fraction input; `given` the
    (alphas, cs) of a presentation input, whose record is checked too.
    """
    try:
        invs = report["inversions"]
        problems = []
        if not 1 <= len(invs) <= 2:
            problems.append(f"{len(invs)} inversions")
        elif len(invs) == 2 and invs[0]["i1"] == invs[1]["i1"]:
            problems.append("the two inversions coincide")
        if fraction is not None and report["fraction"] != fraction:
            problems.append(f"fraction echo {report['fraction']} != {fraction}")
        records = list(invs)
        if given is not None:
            g = report["given"]
            if parse_i1_echo(g["i1"]) != given:
                problems.append(f"given presentation echo {g['i1']} is wrong")
            records.append(g)
        for inv in records:
            problems += check_inversion(inv, p)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report ({exc!r})"]
    return problems


def check_analyze(out: str, argv: list[str], digests: dict) -> list[str]:
    """`analyze --fraction p/q | --i1=... --format json` output."""
    try:
        report = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    arg = argv[1]
    if arg.startswith("--fraction="):
        fraction = arg.split("=", 1)[1]
        p = abs(int(fraction.split("/")[0]))
        problems = check_report(report, p, fraction=fraction)
    else:
        alphas, cs = parse_i1_echo("I1(" + arg.split("=", 1)[1] + ")")
        p = abs(continuant(knot_entries(alphas, cs))[0])
        problems = check_report(report, p, given=(alphas, cs))
    key = " ".join(argv)
    if key in digests and digest(out) != digests[key]:
        problems.append("report bytes differ from the recorded digest")
    return problems


def schubert_classes(max_p: int) -> list[tuple[int, int]]:
    """(p, q), p odd in [3, max_p], q even in (0, p) coprime to p, keeping
    the smaller even member of each pair {q, q^-1 mod p}, in (p, q) order."""
    out = []
    for p in range(3, max_p + 1, 2):
        for q in range(2, p, 2):
            if gcd(p, q) != 1:
                continue
            qi = pow(q, -1, p)
            if qi % 2 == 0 and qi < q:
                continue
            out.append((p, q))
    return out


def check_table(out: str, max_p: int, digests: dict) -> tuple[list[str], int]:
    """`table --max-p P --format jsonl`; returns (problems, classes)."""
    lines = out.splitlines()
    expected = schubert_classes(max_p)
    problems = []
    if len(lines) != len(expected):
        problems.append(f"{len(lines)} records, expected {len(expected)}")
    for line, (p, q) in zip(lines, expected):
        try:
            record = json.loads(line)
            if (record["p"], record["q"]) != (p, q):
                problems.append(f"record {record['p']}/{record['q']} where "
                                f"{p}/{q} was expected")
                continue
        except (KeyError, TypeError, ValueError):
            problems.append(f"record for {p}/{q} is not a JSON table row")
            continue
        problems += [f"{p}/{q}: {m}"
                     for m in check_report(record, p, fraction=f"{p}/{q}")]
        want = digests.get(f"{p}/{q}")
        if want is not None and digest(line + "\n") != want:
            problems.append(f"{p}/{q}: row bytes differ from the recorded digest")
    return problems, len(expected)


def check_verify(out: str, samples: int, digests: dict) -> list[str]:
    """`verify --samples S --seed k`: every suite passes every sample."""
    lines = out.splitlines()
    problems = []
    if not lines or lines[-1] != "all suites passed":
        problems.append("verify did not report that all suites passed")
    suites = 0
    for line in lines[:-1]:
        m = _VERIFY_LINE_RE.match(line)
        if not m:
            problems.append(f"unexpected verify line {line!r}")
        elif m.group(2) != m.group(3):
            problems.append(f"suite failed: {line}")
        else:
            suites += 1
    if suites == 0:
        problems.append("no suite ran")
    want = digests.get(str(samples))
    if want is not None and digest(out) != want:
        problems.append("verify output differs from the recorded digest")
    return problems
