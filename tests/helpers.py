"""Shared brute-force references and instance generators for the tests.

Everything here goes through full_edit_distance (the plain quadratic DP)
so the fast engines are always compared against straight-line code.
"""

from __future__ import annotations

import contextlib
import inspect
import random
import types

import pytest

from circmatch import Occurrence, qgramindex, search, searcher
from circmatch.reference import dedup_occurrences, full_edit_distance, rotate


def waves_via_full_dp(x: bytes, y: bytes, k: int) -> dict:
    """{(h, d): (i, j)} lowest-cell entries, read off the full matrix."""
    m, n = len(x), len(y)
    cells = full_edit_distance(x, y).cells
    out = {}
    for d in range(-k, k + 1):
        if d > n or -d > m:
            continue
        i0 = max(0, -d)
        i1 = min(m, n - d)
        for i in range(i0, i1 + 1):
            h = cells[i][i + d]
            if h > k:
                continue
            lowest = i == i1 or cells[i + 1][i + d + 1] == h + 1
            if lowest:
                out[(h, d)] = (i, i + d)
    return out


def brute_block_occurrences(x: bytes, k: int, block: bytes) -> list[Occurrence]:
    """Every (start, rotation) in the block's candidate range, its first
    min(m - k, len(block)) positions, with the minimal (distance, length)
    pair, straight from the full DP."""
    m = len(x)
    out = []
    limit = min(m - k, len(block))
    for p in range(limit):
        suffix = block[p:]
        for r in range(m):
            row = full_edit_distance(rotate(x, r), suffix).last_row()
            best = None
            for j, v in enumerate(row):
                if v <= k and (best is None or (v, j) < best):
                    best = (v, j)
            if best is not None:
                out.append(Occurrence(p, best[1], r, best[0]))
    return dedup_occurrences(out)


def brute_search(t: bytes, x: bytes, k: int) -> list[Occurrence]:
    """Whole-text reference by exhaustive full DP per (start, rotation)."""
    m, n = len(x), len(t)
    out = []
    for p in range(n):
        chunk = t[p : p + m + k]
        for r in range(m):
            row = full_edit_distance(rotate(x, r), chunk).last_row()
            best = None
            for j, v in enumerate(row):
                if v <= k and (best is None or (v, j) < best):
                    best = (v, j)
            if best is not None:
                out.append(Occurrence(p, best[1], r, best[0]))
    return dedup_occurrences(out)


def search_in_pieces(t: bytes, x: bytes, k: int, pln, idx=None, pieces: int = 4):
    """`search` over `pieces` slices of t, each reaching 2m - 1 letters
    past its share of the starts, so that it holds every occurrence that
    starts in that share.  Returns the occurrences that start in each
    share, moved to their place in t, and the stats of every call."""
    n, m = len(t), len(x)
    bounds = [n * i // pieces for i in range(pieces + 1)]
    occs, stats = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        found, st = search(t[lo : hi + 2 * m - 1], x, k, pln, idx)
        occs += [o._replace(start=lo + o.start) for o in found if o.start < hi - lo]
        stats.append(st)
    return occs, stats


def boundary_blocks() -> list[tuple[bytes, int, bytes]]:
    """(pattern, k, block) cases at the packing boundaries m in {1, 2, 63,
    64, 65}.  Every block is shorter than starts + m + k and most hold a
    letter the pattern lacks.  The long patterns are random DNA or of period
    three (a whole number of periods at m = 63, so rotations repeat), and
    k = m - 3 leaves them three candidate starts, which keeps
    `brute_block_occurrences` cheap; every rotation is then within k, so
    every field is read."""
    cases = [
        (b"a", 0, b"az"),
        (b"a", 0, b"zz"),
        (b"ab", 1, b"bzb"),
        (b"aa", 0, b"aaa"),
        (b"ab", 0, b"bab"),
    ]
    for m, kinds in ((63, "p"), (64, "rp"), (65, "r")):
        rng = random.Random(m)
        for kind in kinds:
            x = random_string(rng, b"acgt", m) if kind == "r" else (b"acg" * m)[:m]
            r = rng.randrange(m)
            data = bytearray((x[r:] + x[:r]) * 2)[: m + 6]
            for _ in range(4):
                data[rng.randrange(len(data))] = rng.choice(b"acgtn")
            cases.append((x, m - 3, bytes(data)))
    return cases


def load_mutant(module, old: str, new: str):
    """A copy of `module`, loaded in memory, with the one occurrence of
    `old` in its source replaced by `new`."""
    src = inspect.getsource(module)
    assert src.count(old) == 1
    mod = types.ModuleType(module.__name__ + "_mutant")
    mod.__package__ = module.__package__
    exec(compile(src.replace(old, new), "<mutant>", "exec"), mod.__dict__)
    return mod


@contextlib.contextmanager
def index_budgets(entries: int, work: int | None = None, planner=searcher):
    """Within the block, `plan` and `build_index` allow at most `entries`
    index entries and, when `work` is given, the sweep of `planner`
    (`searcher` or a mutant copy of it) a build work of at most `work`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgramindex, "MAX_ENTRIES", entries)
        if work is not None:
            mp.setattr(planner, "MAX_WORK", work)
        yield


def count_half_tables(monkeypatch) -> list:
    """A list that gains one item for each half-gram table built from now
    on, the cache of `qgramindex.half_tables` emptied first; each
    (alphabet, q) builds two, its left and its right half."""
    qgramindex.half_tables.cache_clear()
    built = []
    real = qgramindex._half_codes
    monkeypatch.setattr(qgramindex, "_half_codes", lambda *args: built.append(args) or real(*args))
    return built


def letters_for(sigma: int) -> bytes:
    return bytes(range(97, 97 + sigma)) if sigma <= 26 else bytes(range(sigma))


def random_string(rng: random.Random, letters: bytes, length: int) -> bytes:
    return bytes(rng.choice(letters) for _ in range(length))


def plant_edited_rotation(
    rng: random.Random, t: bytearray, x: bytes, k: int, letters: bytes
) -> None:
    """Splice a rotation of x with exactly k random edits into t, in place."""
    m, n = len(x), len(t)
    rot = bytearray(rotate(x, rng.randrange(m)))
    for _ in range(k):
        op = rng.choice("ids")
        pos = rng.randrange(max(1, len(rot)))
        if op == "i":
            rot.insert(pos, rng.choice(letters))
        elif op == "d" and len(rot) > 1:
            del rot[pos]
        else:
            rot[pos] = rng.choice(letters)
    pos = rng.randint(0, max(0, n - len(rot)))
    t[pos : pos + len(rot)] = rot
    del t[n:]
