"""Seeded input streams for the benchmark workloads.

Each workload cycles through a fixed list of input classes, one op per
class, so every complete cycle carries the same mix of work whatever the
seed.  Inputs of a class are drawn first from a pool that is the same for
every seed (its report digests are recorded in digests.json), in an order
the seed shuffles, and then, once the pool is used up, fresh from a seeded
generator.  No input repeats within a stream.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from checks import butterfly_entries, continuant, knot_entries, schubert_classes

# long_cf: many twist pairs with small entries.
LONG_CF_PAIRS = 8
# big_twist: (pairs, greatest |alpha|, least and greatest twist count).  The
# entries of a two-pair input share one sign, since the Seifert circle count
# depends on their relative signs.  The two classes cost about the same.
BIG_TWIST_CLASSES = ((1, 16, 36, 52), (2, 8, 17, 24))
VERIFY_SAMPLES = 200
SWEEP_MAX_P = 45
SWEEP_TRACE_MAX_P = 35
SWEEP_WARMUP_MAX_P = (9, 11, 13, 15)
WORKLOADS = ("sweep", "long_cf", "big_twist", "verify")
POOL_PER_CLASS = {"long_cf": 300, "big_twist": 150, "verify": 0}
# Cycles a traced run measures; each op runs untraced, then traced.
TRACE_CYCLES = {"long_cf": 12, "big_twist": 6, "verify": 12}


@dataclass(frozen=True)
class Op:
    """One command of a workload: its argv and the work it stands for."""

    argv: tuple[str, ...]
    units: int = 1  # classes for a sweep, 1 otherwise


def _valid(alphas, cs) -> bool:
    p = continuant(knot_entries(alphas, cs))[0]
    return abs(p) >= 3 and continuant(butterfly_entries(alphas, cs))[0] != 0


def _long_cf(rng: random.Random, cls: int) -> Op:
    n = LONG_CF_PAIRS
    while True:
        alphas = [rng.choice((-4, -2, 2, 4)) for _ in range(n)]
        cs = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        if _valid(alphas, cs):
            break
    text = ",".join(map(str, alphas)) + ";" + ",".join(map(str, cs))
    return Op(("analyze", f"--i1={text}", "--format", "json"))


def _big_twist(rng: random.Random, cls: int) -> Op:
    n, top, lo, hi = BIG_TWIST_CLASSES[cls]
    while True:
        sign = rng.choice((-1, 1))
        alphas = [sign * rng.randrange(2, top + 1, 2) for _ in range(n)]
        cs = [sign * rng.randint(lo, hi) for _ in range(n)]
        if n == 1:
            cs[0] *= rng.choice((-1, 1))
        if _valid(alphas, cs):
            break
    p, q = continuant(knot_entries(alphas, cs))
    if p < 0:
        p, q = -p, -q
    return Op(("analyze", f"--fraction={p}/{q % p}", "--format", "json"))


def _verify(rng: random.Random, cls: int) -> Op:
    k = rng.randrange(1 << 31)
    return Op(("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(k)))


GENERATORS: dict[str, tuple[int, Callable[[random.Random, int], Op]]] = {
    "long_cf": (1, _long_cf),
    "big_twist": (len(BIG_TWIST_CLASSES), _big_twist),
    "verify": (1, _verify),
}


class Exhausted(Exception):
    """A class has no input left that the stream has not used."""


def _draw_new(workload: str, rng: random.Random, cls: int, seen: set) -> Op:
    _, gen = GENERATORS[workload]
    for _ in range(10_000):
        op = gen(rng, cls)
        if op.argv not in seen:
            seen.add(op.argv)
            return op
    raise Exhausted(f"{workload} class {cls}: no unused input in 10000 draws")


def pool(workload: str, cls: int, size: int) -> list[Op]:
    """The first `size` distinct inputs of a class; the same for every seed."""
    rng = random.Random(f"{workload}/{cls}/pool")
    seen: set = set()
    return [_draw_new(workload, rng, cls, seen) for _ in range(size)]


def cycles(workload: str, seed: int,
           pool_size: int | None = None) -> Iterator[list[Op]]:
    """Endless stream of cycles, each one distinct op per class."""
    classes, _ = GENERATORS[workload]
    size = POOL_PER_CLASS[workload] if pool_size is None else pool_size
    rng = random.Random(f"{workload}/{seed}")
    pools = [pool(workload, c, size) for c in range(classes)]
    for p in pools:
        rng.shuffle(p)
    fresh = [random.Random(f"{workload}/{c}/{seed}") for c in range(classes)]
    seen = {op.argv for p in pools for op in p}
    while True:
        yield [pools[c].pop() if pools[c]
               else _draw_new(workload, fresh[c], c, seen)
               for c in range(classes)]


def sweep_op(max_p: int) -> Op:
    return Op(("table", "--max-p", str(max_p), "--format", "jsonl"),
              units=len(schubert_classes(max_p)))


@dataclass
class Plan:
    """What one run executes: a warm-up op, then the measured cycles."""

    warmup: Op
    cycles: Iterator[list[Op]]


def plan(workload: str, seed: int, trace: bool) -> Plan:
    """The ops of one run.

    An untraced run measures cycles until its time is up; a traced run
    measures a fixed number of cycles, so that its counts repeat exactly.
    The sweep is one fixed prefix of the class table; the seed only picks
    the warm-up prefix.
    """
    if workload == "sweep":
        warm = SWEEP_WARMUP_MAX_P[seed % len(SWEEP_WARMUP_MAX_P)]
        main = SWEEP_TRACE_MAX_P if trace else SWEEP_MAX_P
        return Plan(sweep_op(warm), iter([[sweep_op(main)]]))
    stream = cycles(workload, seed)
    warmup = next(stream)[0]
    if trace:
        stream = itertools.islice(stream, TRACE_CYCLES[workload])
    return Plan(warmup, stream)
