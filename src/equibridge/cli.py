"""Command-line interface: analyze single knots, tabulate families, and run
the randomized verification harness."""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import random
import sys
import time
from typing import Optional, Sequence

from .laurent import (
    DomainError,
    InvariantViolation,
    lp_is_eta_admissible,
    lp_to_str,
    rf_make,
    z_to_t,
    zp_to_str,
)
from .rationals import frac_parse, cf_parse, schubert_classes
from .presentations import (
    I1Presentation,
    inversions_from_fraction,
    knot_fraction,
    butterfly_fraction,
    parse_i1,
    presentation_from_cf,
)
from .butterfly import (
    axis_linking,
    butterfly_polynomial,
    equivariant_slice_obstruction,
    nullity_obstruction,
    reduce_if_b_zero,
)
from .diagrams import build_knot_diagram, build_lhat_diagram
from .seifert import determinant, seifert_matrix_data
from .moth import order_certificate
from .strip import build_strip, label_strip, eta_from_strip, eta_oracle, parse_strip, print_strip, strip_census

SCHEMA_VERSION = 1


def analyze_presentation(pres: I1Presentation) -> dict:
    """All invariants of one presentation; cross-checks re-asserted.

    The determinant, continuant and moth checks run inside
    `order_certificate`; the butterfly diagram's builder checks its zero
    linking number.
    """
    bp = butterfly_polynomial(pres)
    if not lp_is_eta_admissible(bp):
        raise InvariantViolation(f"butterfly polynomial of {pres} is not admissible")
    if eta_oracle(pres) != bp:
        raise InvariantViolation(f"strip oracle disagrees with the formula for {pres}")
    lk_k, lk_ak = axis_linking(pres)
    cert = equivariant_slice_obstruction(pres)
    nullity = nullity_obstruction(pres)
    kf = knot_fraction(pres)
    bf = butterfly_fraction(pres)
    order = order_certificate(pres)
    return {
        "i1": str(pres),
        "knot_fraction": str(kf),
        "butterfly_fraction": str(bf),
        "butterfly_polynomial": lp_to_str(bp),
        "axis_linking": {"K": lk_k, "aK": lk_ak},
        "slice_obstruction": cert.to_json(),
        "nullity": nullity.to_json(),
        "conway_knot": zp_to_str(order.conway_knot),
        "determinant_knot": order.determinant_knot,
        "order": order.to_json(),
        "moth": {
            "num": lp_to_str(order.moth.num),
            "den": lp_to_str(order.moth.den),
        },
    }


def knot_report(
    fraction: Optional[str] = None,
    cf: Optional[str] = None,
    i1: Optional[str] = None,
    timing: bool = False,
) -> dict:
    given = [x for x in (fraction, cf, i1) if x is not None]
    if len(given) != 1:
        raise DomainError("exactly one of --fraction, --cf, --i1 is required")
    t0 = time.monotonic()
    records: dict[I1Presentation, dict] = {}

    def analyzed(pres: I1Presentation) -> dict:
        if pres not in records:
            records[pres] = analyze_presentation(pres)
        return records[pres]

    report: dict = {"schema_version": SCHEMA_VERSION}
    if fraction is not None:
        f = frac_parse(fraction)
        report["input"] = {"kind": "fraction", "text": fraction}
        pair = inversions_from_fraction(f.p, f.q)
    else:
        pres = (
            presentation_from_cf(cf_parse(cf)) if cf is not None else parse_i1(i1)
        )
        report["input"] = {
            "kind": "cf" if cf is not None else "i1",
            "text": cf if cf is not None else i1,
        }
        report["given"] = analyzed(pres)
        kf = knot_fraction(pres)
        p, q = kf.positive_numerator()
        pair = inversions_from_fraction(p, q)
    report["fraction"] = str(pair.source)
    report["even_cf"] = list(pair.expansion.entries)
    report["inversions"] = [analyzed(pair.inv1)]
    if pair.inv2 is not None:
        report["inversions"].append(analyzed(pair.inv2))
    if timing:
        report["elapsed_seconds"] = round(time.monotonic() - t0, 6)
    return report


def _render_text(report: dict, out) -> None:
    print(f"fraction {report['fraction']}   even continued fraction "
          f"{report['even_cf']}", file=out)
    blocks = []
    if "given" in report:
        blocks.append(("given presentation", report["given"]))
    for k, inv in enumerate(report["inversions"], start=1):
        blocks.append((f"inversion {k}", inv))
    for title, inv in blocks:
        print(f"\n{title}: {inv['i1']}", file=out)
        print(f"  knot fraction        {inv['knot_fraction']}", file=out)
        print(f"  butterfly fraction   {inv['butterfly_fraction']}", file=out)
        print(f"  butterfly polynomial {inv['butterfly_polynomial']}", file=out)
        lk = inv["axis_linking"]
        print(f"  axis linking         K: {lk['K']}   aK: {lk['aK']}", file=out)
        print(f"  slice obstruction    {inv['slice_obstruction']['verdict']}"
              f" witness={inv['slice_obstruction']['witness']}", file=out)
        print(f"  nullity              {inv['nullity']}", file=out)
        print(f"  conway (knot)        {inv['conway_knot']}", file=out)
        print(f"  conway (butterfly)   {inv['order']['conway_lhat']}", file=out)
        print(f"  determinants         knot {inv['determinant_knot']}, "
              f"butterfly {inv['order']['det_lhat']}", file=out)
        print(f"  moth polynomial      ({inv['moth']['num']}) / "
              f"({inv['moth']['den']})", file=out)
        print(f"  order                {inv['order']['verdict']}", file=out)


def cmd_analyze(args) -> int:
    try:
        report = knot_report(args.fraction, args.cf, args.i1, timing=args.timing)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        _render_text(report, sys.stdout)
    return 0


def _class_report(pq: tuple[int, int]) -> tuple[int, int, dict]:
    p, q = pq
    return p, q, knot_report(fraction=f"{p}/{q}")


def _flatten_for_csv(p: int, q: int, report: dict) -> list[dict]:
    rows = []
    for k, inv in enumerate(report["inversions"], start=1):
        rows.append({
            "p": p,
            "q": q,
            "inversion": k,
            "i1": inv["i1"],
            "butterfly_polynomial": inv["butterfly_polynomial"],
            "lk_K": inv["axis_linking"]["K"],
            "lk_aK": inv["axis_linking"]["aK"],
            "slice_verdict": inv["slice_obstruction"]["verdict"],
            "butterfly_fraction": inv["butterfly_fraction"],
            "determinant_knot": inv["determinant_knot"],
            "det_lhat": inv["order"]["det_lhat"],
            "conway_lhat": inv["order"]["conway_lhat"],
            "order_verdict": inv["order"]["verdict"],
        })
    return rows


def cmd_table(args) -> int:
    if args.max_p < 3:
        print("error: --max-p must be at least 3", file=sys.stderr)
        return 2
    if args.parallel < 1:
        print("error: --parallel must be at least 1", file=sys.stderr)
        return 2
    classes = schubert_classes(args.max_p)
    # A forked pool starts every worker at once, so never ask for more
    # workers than there are CPUs or classes.
    workers = min(args.parallel, os.cpu_count() or 1, len(classes))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_class_report, classes))
    else:
        results = [_class_report(pq) for pq in classes]
    results.sort(key=lambda t: (t[0], t[1]))
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "jsonl":
            for p, q, report in results:
                record = {"p": p, "q": q, **report}
                out.write(json.dumps(record, sort_keys=False) + "\n")
        else:
            rows = []
            for p, q, report in results:
                rows.extend(_flatten_for_csv(p, q, report))
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    print(f"{len(results)} classes written", file=sys.stderr)
    return 0


def random_presentation(rng: random.Random, max_n: int = 4,
                        max_alpha: int = 8, max_c: int = 4) -> I1Presentation:
    n = rng.randint(1, max_n)
    alphas = tuple(rng.choice([a for a in range(-max_alpha, max_alpha + 1)
                               if a != 0 and a % 2 == 0]) for _ in range(n))
    cs = tuple(rng.choice([c for c in range(-max_c, max_c + 1) if c != 0])
               for _ in range(n))
    return I1Presentation(alphas, cs)


def _b_zero_presentation(rng: random.Random) -> I1Presentation:
    while True:
        pres = random_presentation(rng, max_n=3)
        if pres.b != 0:
            break
    alphas = pres.alphas + (-pres.b,)
    cs = pres.cs + (rng.choice([-2, -1, 1, 2]),)
    return I1Presentation(alphas, cs)


def analyze_ready(pres: I1Presentation) -> str:
    """Render a presentation as a replayable analyze invocation.

    The equals form keeps argparse happy when the first twist is negative.
    """
    alphas = ",".join(str(a) for a in pres.alphas)
    cs = ",".join(str(c) for c in pres.cs)
    return f'analyze --i1="{alphas};{cs}"'


def cmd_verify(args) -> int:
    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    # (suite name, presentation, exception raised or None for a mismatch)
    failures: list[tuple[str, I1Presentation, Optional[Exception]]] = []

    def suite(name, count, gen, check):
        ok = 0
        for _ in range(count):
            pres = gen()
            try:
                if check(pres):
                    ok += 1
                else:
                    failures.append((name, pres, None))
            except Exception as exc:  # any crash is a failure; keep its cause
                failures.append((name, pres, exc))
        print(f"{name}: {ok}/{count}")

    def oracle_check(pres):
        return eta_oracle(pres) == butterfly_polynomial(pres)

    def admissible_check(pres):
        return lp_is_eta_admissible(butterfly_polynomial(pres))

    def reversal_check(pres):
        nullity_obstruction(pres)
        return True

    def reduction_check(pres):
        red = reduce_if_b_zero(pres)
        if red is None:
            return False
        return (butterfly_polynomial(pres) == butterfly_polynomial(red)
                and butterfly_fraction(pres) == butterfly_fraction(red))

    def determinant_check(pres):
        return (determinant(seifert_matrix_data(build_knot_diagram(pres)))
                == abs(knot_fraction(pres).p)
                and determinant(seifert_matrix_data(build_lhat_diagram(pres)))
                == abs(butterfly_fraction(pres).p))

    def moth_check(pres):
        # The certified moth against a gcd reduction of the same quotient.
        cert = order_certificate(pres)
        if cert.conway_lhat[:1] != (0,):  # nabla(L-hat) must be divisible by z
            return False
        oracle = rf_make(z_to_t(cert.conway_lhat[1:]), z_to_t(cert.conway_knot))
        return (cert.verdict == "InfiniteOrder" and cert.moth == oracle
                and oracle.subs_inv_equal())

    s = args.samples
    suite("oracle equivalence", s, lambda: random_presentation(rng), oracle_check)
    suite("eta admissibility", s, lambda: random_presentation(rng), admissible_check)
    suite("reversal identity", s, lambda: random_presentation(rng), reversal_check)
    suite("b=0 reduction", max(1, s // 10), lambda: _b_zero_presentation(rng),
          reduction_check)
    small = max(1, s // 10)
    suite("determinant cross-check", small,
          lambda: random_presentation(rng, max_n=3, max_alpha=6, max_c=3),
          determinant_check)
    suite("moth properties", small,
          lambda: random_presentation(rng, max_n=3, max_alpha=6, max_c=3),
          moth_check)
    for name, pres, exc in failures:
        raised = f" raised {type(exc).__name__}: {exc};" if exc is not None else ""
        print(f"FAIL [{name}]:{raised} reproduce with: {analyze_ready(pres)}")
    if any(isinstance(exc, InvariantViolation) for _, _, exc in failures):
        return 3
    if failures:
        return 1
    print("all suites passed")
    return 0


def cmd_oracle_eta(args) -> int:
    try:
        if args.strip:
            with open(args.strip) as fh:
                diagram = parse_strip(fh.read())
        else:
            diagram = build_strip(parse_i1(args.i1))
        labeled = label_strip(diagram)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(print_strip(diagram), end="")
    print("labels:")
    for arc in diagram.arcs:
        role = f" ({arc.role})" if arc.role else ""
        print(f"  arc {arc.ident}: label {labeled.labels[arc.ident]}{role}")
    print("census (over, under, sign, d):")
    for over, under, eps, d in strip_census(labeled):
        print(f"  {over} {under} {'+' if eps > 0 else '-'}1 d={d}")
    print(f"eta = {lp_to_str(eta_from_strip(labeled))}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="equibridge",
        description="Equivariant concordance invariants of 2-bridge knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full invariant report for one knot")
    pa.add_argument("--fraction", help="p/q of the 2-bridge knot")
    pa.add_argument("--cf", help="knot continued fraction, e.g. [2,-2,4,-2]")
    pa.add_argument("--i1", help="presentation, e.g. 2,4;1,1")
    pa.add_argument("--format", choices=("json", "text"), default="text")
    pa.add_argument("--timing", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("table", help="one record per Schubert class")
    pt.add_argument("--max-p", type=int, required=True)
    pt.add_argument("--out", help="output path (default stdout)")
    pt.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    pt.add_argument("--parallel", type=int, default=1)
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run the randomized cross-check suites")
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="oracle subcommands")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    pe = osub.add_parser("eta", help="print the labeled strip census and eta")
    source = pe.add_mutually_exclusive_group(required=True)
    source.add_argument("--i1", help="presentation, e.g. 2;1")
    source.add_argument("--strip", help="strip-code file to parse instead")
    pe.set_defaults(func=cmd_oracle_eta)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
