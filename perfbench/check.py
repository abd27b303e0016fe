"""Output checker that shares no kernel with the program.

Rows are `key  start  length  rotation  distance`, as the circmatch CLI
writes them.  Every planted occurrence must be reported, and a seeded
sample of rows is re-scored with the plain quadratic edit-distance DP
below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import Inputs, SplitMix64


def prefix_distances(pattern: bytes, text: bytes) -> list[int]:
    """Edit distance between pattern and text[:L], for L = 0 .. len(text)."""
    prev = list(range(len(text) + 1))
    for i, pc in enumerate(pattern, 1):
        cur = [i]
        for j, tc in enumerate(text, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (pc != tc)))
        prev = cur
    return prev


def parse_rows(tsv: bytes) -> list[tuple[str, int, int, int, int]]:
    rows = []
    for line in tsv.decode().splitlines():
        key, start, length, rot, dist = line.split("\t")
        rows.append((key, int(start), int(length), int(rot), int(dist)))
    return rows


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def check_rows(inputs: Inputs, tsv: bytes, rng: SplitMix64, sample: int) -> CheckResult:
    """Check the program's rows against the plants and the plain DP."""
    res = CheckResult()
    try:
        rows = parse_rows(tsv)
    except ValueError as exc:
        res.expect(False, f"malformed output: {exc}")
        return res
    best = {}
    for key, start, _, rot, dist in rows:
        best[key, start, rot] = min(dist, best.get((key, start, rot), dist))
    res.expect(len(best) == len(rows), "more than one row for a (start, rotation) pair")
    try:
        limits = {key: inputs.lookup(key)[2] for key in {row[0] for row in rows}}
    except KeyError as exc:
        res.expect(False, f"row for unknown record or query {exc}")
        return res
    res.expect(all(row[4] <= limits[row[0]] for row in rows), "a row has distance above k")
    for key, pos, rot, edits in inputs.plants:
        got = best.get((key, pos, rot))
        res.expect(got is not None and got <= edits, f"plant {key}@{pos} rot {rot}: got {got}, want <= {edits}")
    if sample >= len(rows):
        picks = range(len(rows))
    else:
        picks = sorted({rng.below(len(rows)) for _ in range(sample)})
    for i in picks:
        key, start, length, rot, dist = rows[i]
        text, pattern, k = inputs.lookup(key)
        m = len(pattern)
        last = prefix_distances(pattern[rot:] + pattern[:rot], text[start : start + m + k])
        low = min(last)
        res.expect(
            low == dist and last.index(low) == length and dist <= k,
            f"row {rows[i]}: plain DP gives distance {low} at length {last.index(low)}",
        )
    return res
