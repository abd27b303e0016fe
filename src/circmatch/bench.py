"""Benchmark driver: seeded random texts, parameter sweeps, scan-cost tables.

`circmatch bench` runs `main`.  Each search is planned and indexed with
the defaults of `plan` and `build_index`, as the search CLI plans it, so
a table shows the plans that users get.  The driver needs only the
standard library.

Text and pattern letters come from the splitmix64 streams in _prng, so a
table is reproducible from (seed, sigma, n, pairs, reps) alone, in any
implementation of the same generator.  Stream assignment:

    text of repetition r:     stream 1000 + r
    pattern for (m, k) at r:  stream 2000 + 100 * r + pair_index

Letters are byte values 0..sigma-1.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from ._prng import random_letters
from .alphabet import Alphabet
from .qgramindex import build_index
from .searcher import SearchPlan, search
from .searcher import plan as make_plan


@dataclass(frozen=True)
class Experiment:
    seed: int
    sigma: int
    n: int
    pairs: tuple  # ((m, k), ...)
    reps: int = 1
    mode: str = "auto"  # "auto" (plan decides) or "verify-all"

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 2 <= self.sigma <= 255:
            raise ValueError("sigma must lie in [2, 255]: one letter leaves no filter to measure")
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass
class BenchRow:
    m: int
    k: int
    mode: str
    q: int | None
    c: float | None
    windows_verified_rate: float
    chars_per_text_char: float
    wall_time: float


def run_experiment(e: Experiment) -> list[BenchRow]:
    """One averaged row per (m, k) pair.  Deterministic except wall_time."""
    alphabet = Alphabet(bytes(range(e.sigma)))
    texts = [random_letters(e.seed, 1000 + r, e.n, e.sigma) for r in range(e.reps)]
    rows = []
    for pi, (m, k) in enumerate(e.pairs):
        rate_sum = 0.0
        chars_sum = 0.0
        wall = 0.0
        for r in range(e.reps):
            pattern = random_letters(e.seed, 2000 + 100 * r + pi, m, e.sigma)
            t0 = time.perf_counter()
            if e.mode == "verify-all":
                pln = SearchPlan.verify_all(m, k)
            else:
                pln = make_plan(m, k, alphabet)
            idx = build_index(pattern, pln.q, alphabet) if pln.mode == "filter" else None
            _occs, stats = search(texts[r], pattern, k, pln, idx)
            wall += time.perf_counter() - t0
            examined = max(stats.windows_examined, 1)
            rate_sum += stats.windows_verified / examined
            chars_sum += stats.chars_inspected / e.n
        rows.append(
            BenchRow(
                m=m,
                k=k,
                mode=pln.mode,  # the same plan on every repetition
                q=pln.q,
                c=pln.c,
                windows_verified_rate=rate_sum / e.reps,
                chars_per_text_char=chars_sum / e.reps,
                wall_time=wall / e.reps,
            )
        )
    return rows


def format_table(rows: list[BenchRow]) -> str:
    out = ["#m\tk\tmode\tq\tc\twindows_verified_rate\tchars_per_text_char\twall_time"]
    for r in rows:
        out.append(
            "\t".join(
                [
                    str(r.m),
                    str(r.k),
                    r.mode,
                    "-" if r.q is None else str(r.q),
                    "-" if r.c is None else f"{r.c:.2f}",
                    f"{r.windows_verified_rate:.6f}",
                    f"{r.chars_per_text_char:.6f}",
                    f"{r.wall_time:.3f}",
                ]
            )
        )
    return "\n".join(out) + "\n"


def _parse_pairs(arg: str) -> tuple[tuple[int, int], ...]:
    """The (m, k) pairs of a comma-separated list of M:K items."""
    pairs = []
    for item in arg.split(","):
        try:
            m, k = map(int, item.split(":"))
        except ValueError:
            raise ValueError(f"pair {item!r} must be M:K with integers M and K") from None
        pairs.append((m, k))
    return tuple(pairs)


def main(argv: list[str]) -> int:
    """`circmatch bench`: print one experiment's table; exit 2 with one
    line for arguments it refuses."""
    p = argparse.ArgumentParser(prog="circmatch bench", description="Scan-cost benchmark driver.")
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", required=True, help="comma-separated m:k pairs, e.g. 64:2,128:4")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["auto", "verify-all"], default="auto")
    args = p.parse_args(argv)
    try:
        exp = Experiment(
            seed=args.seed, sigma=args.sigma, n=args.n, pairs=_parse_pairs(args.pairs),
            reps=args.reps, mode=args.mode,
        )
        table = format_table(run_experiment(exp))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(table)
    return 0
