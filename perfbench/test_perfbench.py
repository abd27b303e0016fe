"""Tests for the benchmark's own parts; they do not run the program.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

from check import check_rows, prefix_distances
from gen import WORKLOADS, Inputs, SplitMix64, generate, mutate
from spans import Tracer, self_times


def brute_rows(text: bytes, pattern: bytes, k: int, key: str) -> list[str]:
    """Every (start, rotation) within k, with minimal distance then length."""
    m = len(pattern)
    rows = []
    for start in range(len(text)):
        for rot in range(m):
            last = prefix_distances(pattern[rot:] + pattern[:rot], text[start : start + m + k])
            low = min(last)
            if low <= k:
                rows.append(f"{key}\t{start}\t{last.index(low)}\t{rot}\t{low}\n")
    return rows


@pytest.fixture(scope="module")
def small():
    rng = SplitMix64(7)
    pattern = rng.dna(12)
    text = bytearray(rng.dna(90))
    occ = mutate(rng, pattern[5:] + pattern[:5], 1)
    text[40 : 40 + len(occ)] = occ
    inputs = Inputs("library", {"text": bytes(text)}, {"q0": (pattern, 2)}, [("q0", 40, 5, 1)])
    return inputs, brute_rows(bytes(text), pattern, 2, "q0")


def test_prefix_distances():
    assert prefix_distances(b"kitten", b"sitting")[-1] == 3
    assert prefix_distances(b"ACGT", b"") == [4]
    assert prefix_distances(b"", b"ACG") == [0, 1, 2, 3]


def test_checker_accepts_correct_rows(small):
    inputs, rows = small
    res = check_rows(inputs, "".join(rows).encode(), SplitMix64(1), len(rows))
    assert res.failed == 0 and res.attempted == len(rows) + 3


def mutations(rows):
    plant = next(i for i, r in enumerate(rows) if r.startswith("q0\t40\t") and r.split("\t")[3] == "5")
    fields = rows[0].rstrip("\n").split("\t")
    yield "planted row dropped", rows[:plant] + rows[plant + 1 :]
    bumped = fields[:4] + [str(int(fields[4]) + 1)]
    yield "distance changed", ["\t".join(bumped) + "\n"] + rows[1:]
    longer = fields[:2] + [str(int(fields[2]) + 1)] + fields[3:]
    yield "length changed", ["\t".join(longer) + "\n"] + rows[1:]
    yield "row duplicated", rows + rows[:1]
    yield "row beyond k", rows + ["q0\t0\t12\t0\t9\n"]
    yield "unknown key", rows + ["q9\t0\t12\t0\t0\n"]
    yield "malformed", rows + ["q0\t0\t12\n"]


@pytest.mark.parametrize("case", range(7))
def test_checker_rejects_mutated_rows(small, case):
    inputs, rows = small
    what, bad = list(mutations(rows))[case]
    res = check_rows(inputs, "".join(bad).encode(), SplitMix64(1), 10 * len(bad))
    assert res.failed > 0, what


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(workload, 3).write(a)
    generate(workload, 3).write(b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    assert generate(workload, 4).files() != generate(workload, 3).files()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plants_are_within_their_edits(workload):
    inputs = generate(workload, 5)
    for key, pos, rot, edits in inputs.plants:
        text, pattern, k = inputs.lookup(key)
        m = len(pattern)
        assert edits <= k
        assert min(prefix_distances(pattern[rot:] + pattern[:rot], text[pos : pos + m + k])) <= edits


def test_self_times_subtract_children():
    spans = [("a", 0, 100, -1, 0), ("b", 10, 40, 0, 0), ("c", 20, 30, 1, 0), ("b", 50, 60, 0, 0)]
    got = self_times(spans)
    assert got == pytest.approx({"a": 60e-9, "b": 30e-9, "c": 10e-9})


def test_tracer_records_nesting_and_missing_functions():
    tracer = Tracer()
    calls = {"inner": lambda x: x + 1}
    tracer.patch(calls, "inner", "layer.inner")
    calls["outer"] = lambda x: calls["inner"](x) * 2
    tracer.patch(calls, "outer", "layer.outer")
    tracer.patch(calls, "renamed", "layer.renamed")
    assert calls["outer"](1) == 4
    (outer, inner) = sorted(tracer.spans, key=lambda s: s[1])
    assert outer[0] == "layer.outer" and inner[0] == "layer.inner" and inner[3] == 0
    assert tracer.missing == ["layer.renamed"]


def test_benchmark_json_names_what_run_reports():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "scan_mchars_s", "peak_rss_mb"}
    rep = run.Rep(1.0, 1.0, 1.0, 1.0, 0, b"", {"spans": [], "counts": {}}, 1.0)
    reported = set(run.layer_metrics(rep)) | {"trace.overhead"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.unit_of(n) for n in reported}
