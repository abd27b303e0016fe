"""Benchmark driver: seeded random texts, parameter sweeps, scan-cost tables.

Text and pattern letters come from the splitmix64 streams in _prng, so a
table is reproducible from (seed, sigma, n, pairs, reps) alone, in any
implementation of the same generator.  Stream assignment:

    text of repetition r:     stream 1000 + r
    pattern for (m, k) at r:  stream 2000 + 100 * r + pair_index

Letters are byte values 0..sigma-1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    max_index_entries: int = 1 << 20
    max_index_work: int = 1 << 28

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.sigma < 2:
            raise ValueError("sigma must be at least 2")


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
        mode = None
        q = c = None
        for r in range(e.reps):
            pattern = random_letters(e.seed, 2000 + 100 * r + pi, m, e.sigma)
            t0 = time.perf_counter()
            if e.mode == "verify-all":
                pln = SearchPlan.verify_all(m, k)
                idx = None
            else:
                pln = make_plan(
                    m,
                    k,
                    alphabet,
                    max_index_entries=e.max_index_entries,
                    max_index_work=e.max_index_work,
                )
                idx = (
                    build_index(pattern, pln.q, alphabet, max_entries=e.max_index_entries)
                    if pln.mode == "filter"
                    else None
                )
            _occs, stats = search(texts[r], pattern, k, pln, idx)
            wall += time.perf_counter() - t0
            examined = max(stats.windows_examined, 1)
            rate_sum += stats.windows_verified / examined
            chars_sum += stats.chars_inspected / e.n
            mode, q, c = pln.mode, pln.q, pln.c
        rows.append(
            BenchRow(
                m=m,
                k=k,
                mode=mode,
                q=q,
                c=c,
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
