"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import bisect
import random
import time

import pytest

from circmatch import QGramIndex, build_alphabet, build_index, plan, search
from circmatch.bench import Experiment, run_experiment
from circmatch.reference import (
    WorkTally,
    banded_edit_distance,
    brute_force_index,
    full_edit_distance,
    occurrence_scan,
    oracle_search,
    rebuild_waves_dropped_prefix,
    rebuild_waves_rotated,
    rotate,
    verify_block_waves,
    waves_from_scratch,
)
from helpers import (
    brute_search,
    index_budgets,
    letters_for,
    plant_edited_rotation,
    random_string,
    search_in_pieces,
    waves_via_full_dp,
)

BATTERY_SEED = 0x51BC01
N_RANDOM = 500
N_PLANTED = 100


def _battery_instance(rng, i, planted):
    sigma = (2, 4, 20)[i % 3]
    m = rng.randint(6, 64)
    k = rng.randint(0, m // 4)
    n = rng.randint(m, 2000) if i % 3 == 0 else rng.randint(m, 500)
    letters = letters_for(sigma)
    x = random_string(rng, letters, m)
    t = bytearray(random_string(rng, letters, n))
    if planted:
        plant_edited_rotation(rng, t, x, k, letters)
    return sigma, m, k, bytes(t), x, letters


@pytest.fixture(scope="module")
def battery():
    """Criterion 1/5 workhorse: the full randomized battery, run once."""
    rng = random.Random(BATTERY_SEED)
    t0 = time.perf_counter()
    mismatches = []
    spot_mismatches = []
    skip_violations = 0
    n_skips = 0
    spot_checked = 0
    modes = {"filter": 0, "verify-all": 0}
    for i in range(N_RANDOM + N_PLANTED):
        planted = i >= N_RANDOM
        sigma, m, k, t, x, letters = _battery_instance(rng, i, planted)
        a = build_alphabet(letters)
        with index_budgets(1 << 14, 1 << 22):
            pln = plan(m, k, a)
            idx = build_index(x, pln.q, a) if pln.mode == "filter" else None
        modes[pln.mode] += 1
        got, stats = search(t, x, k, pln, idx, collect_skips=True)
        ref = oracle_search(t, x, k)
        if got != ref:
            mismatches.append((sigma, m, k, len(t), pln.mode))
        starts = sorted(o.start for o in ref)
        n_skips += len(stats.skips)
        for pos, shift in stats.skips:
            j = bisect.bisect_left(starts, pos)
            if j < len(starts) and starts[j] < pos + shift:
                skip_violations += 1
        # desk-scale replay against the straight-line full-DP search
        if spot_checked < 12 and len(t) * m**3 <= 1_500_000:
            spot_checked += 1
            if got != brute_search(t, x, k):
                spot_mismatches.append((sigma, m, k, len(t)))
    return {
        "elapsed": time.perf_counter() - t0,
        "instances": N_RANDOM + N_PLANTED,
        "mismatches": mismatches,
        "spot_mismatches": spot_mismatches,
        "spot_checked": spot_checked,
        "skip_violations": skip_violations,
        "n_skips": n_skips,
        "modes": modes,
    }


def test_criterion_1_oracle_equivalence(battery):
    assert battery["instances"] == 600
    assert battery["mismatches"] == []
    assert battery["spot_mismatches"] == [] and battery["spot_checked"] > 0
    print(
        f"\ncriterion 1 PASS: {battery['instances']} instances "
        f"(modes {battery['modes']}), search == oracle everywhere, "
        f"{battery['elapsed']:.1f}s (expected < 60s)"
    )
    assert battery["elapsed"] < 60, "battery exceeded its runtime budget"


def test_criterion_2_rotation_fidelity():
    x = "abababbc"
    want = [
        "abababbc", "bababbca", "ababbcab", "babbcaba",
        "abbcabab", "bbcababa", "bcababab", "cabababb",
    ]
    got = [rotate(x, i) for i in range(8)]
    assert got == want
    print("\ncriterion 2 PASS: all 8 rotations of 'abababbc' verbatim")


def test_criterion_3_edit_core_crosschecks():
    rng = random.Random(0xEDC)
    checked = 0
    for _ in range(1000):
        sigma = rng.choice([2, 4])
        letters = letters_for(sigma)
        x = random_string(rng, letters, rng.randint(0, 32))
        y = random_string(rng, letters, rng.randint(0, 32))
        k = rng.randint(0, 8)
        full = full_edit_distance(x, y)
        capped = full.distance if full.distance <= k else None
        assert banded_edit_distance(x, y, k) == capped
        w = waves_from_scratch(x, y, k)
        assert w.entries() == waves_via_full_dp(x, y, k)
        scan = dict(occurrence_scan(w))
        want = {j: v for j, v in enumerate(full.last_row()) if v <= k}
        assert scan == want
        # a short random walk of rotations and text prefix drops
        for _ in range(rng.randint(0, 3)):
            if (rng.random() < 0.5 and len(x) > 0) or len(y) == 0:
                if len(x) == 0:
                    break
                x = x[1:] + x[:1]
                w = rebuild_waves_rotated(w, x[-1:], y)
            else:
                w = rebuild_waves_dropped_prefix(w, x, y)
                y = y[1:]
            assert w == waves_from_scratch(x, y, k)
        checked += 1
    assert checked == 1000
    print("\ncriterion 3 PASS: 1000 random pairs, zero tolerance, zero failures")


def test_criterion_4_index_correctness():
    rng = random.Random(0x1D)
    for _ in range(100):
        sigma = rng.choice([2, 3, 4])
        m = rng.randint(2, 32)
        q = rng.randint(1, min(3, m - 1))
        a = build_alphabet(letters_for(sigma))
        x = random_string(rng, a.letters, m)
        assert build_index(x, q, a) == brute_force_index(x, q, a)
    print("\ncriterion 4 PASS: 100 random (x, q, sigma), entrywise equality")


def test_criterion_5_filtration_safety(battery):
    assert battery["n_skips"] > 0
    assert battery["skip_violations"] == 0
    print(
        f"\ncriterion 5 PASS: {battery['n_skips']} skips taken, "
        "no occurrence start inside any skipped range"
    )


def test_criterion_6_verification_work_scaling():
    rng = random.Random(0xC6)
    counts = {}
    for m in (16, 32, 64):
        for k in (2, 4):
            x = random_string(rng, b"abcd", m)
            data = random_string(rng, b"abcd", 2 * m)
            tally = WorkTally()
            verify_block_waves(x, k, data, tally)
            counts[(m, k)] = tally.wave_updates
    beta = max(c / (m * m * k) for (m, k), c in counts.items())
    for (m, k), c in counts.items():
        assert c <= beta * m * m * k
    worst = 0.0
    for k in (2, 4):
        for m in (16, 32):
            ratio = counts[(2 * m, k)] / counts[(m, k)]
            worst = max(worst, ratio)
            assert ratio <= 4.6, f"doubling m at k={k}: x{ratio:.3f}"
    print(
        f"\ncriterion 6 PASS: work counter fits beta*m^2*k (beta={beta:.2f}), "
        f"worst doubling factor x{worst:.3f} <= 4.6"
    )


def test_criterion_7_average_case_trend():
    t0 = time.perf_counter()
    exp = Experiment(
        seed=20260810,
        sigma=4,
        n=200_000,
        pairs=((32, 1), (64, 2), (128, 4), (256, 8)),
        reps=5,
    )
    rows = run_experiment(exp)
    elapsed = time.perf_counter() - t0
    chars = [r.chars_per_text_char for r in rows]
    for a, b in zip(chars, chars[1:]):
        assert b < a, f"chars/char not strictly decreasing: {chars}"
    for r in rows:
        assert r.mode == "filter"
        if r.m >= 64:
            assert r.windows_verified_rate < 0.1
    print(
        f"\ncriterion 7 PASS: chars/char {['%.3f' % c for c in chars]} strictly "
        f"decreasing, verified rate < 0.1 for m >= 64, {elapsed:.1f}s (expected < 120s)"
    )
    assert elapsed < 120


def test_criterion_8_determinism_and_cache(tmp_path, capsys):
    from circmatch.cli import main

    text = tmp_path / "t.txt"
    rng = random.Random(8)
    body = bytearray(random_string(rng, b"ACGT", 4000))
    x = random_string(rng, b"ACGT", 32)
    body[100:132] = rotate(x, 5)
    text.write_bytes(bytes(body))
    cache = tmp_path / "cache.idx"
    args = ["--pattern", x.decode(), "--text", str(text), "-k", "1",
            "--alphabet", "dna", "--stats"]
    outs = []
    for _ in range(2):
        main(args)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    main(args + ["--index-cache", str(cache)])
    first_cached = capsys.readouterr().out
    assert cache.exists(), "filter-mode run should have written the index cache"
    idx_before = QGramIndex.load(cache)
    main(args + ["--index-cache", str(cache)])
    second_cached = capsys.readouterr().out
    idx_after = QGramIndex.load(cache)
    assert outs[0] == first_cached == second_cached
    assert idx_before == idx_after
    print("\ncriterion 8 PASS: byte-identical TSV across runs and cache round-trip")


def test_criterion_9_chunked_concurrency_contract():
    rng = random.Random(0xC9)
    for i in range(50):
        sigma = rng.choice([2, 4, 20])
        m = rng.randint(6, 32)
        k = rng.randint(0, m // 4)
        n = rng.randint(m, 800)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = bytearray(random_string(rng, letters, n))
        if i % 2:
            plant_edited_rotation(rng, t, x, k, letters)
        t = bytes(t)
        a = build_alphabet(letters)
        with index_budgets(1 << 14, 1 << 22):
            pln = plan(m, k, a)
            idx = build_index(x, pln.q, a) if pln.mode == "filter" else None
        single, _ = search(t, x, k, pln, idx)
        pieces, _ = search_in_pieces(t, x, k, pln, idx, pieces=4)
        assert pieces == single
    print("\ncriterion 9 PASS: 4 overlapping pieces give the single pass's output, 50 instances")
