import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmatch.reference import (
    banded_edit_distance,
    full_edit_distance,
    occurrence_scan,
    rebuild_waves_dropped_prefix,
    rebuild_waves_rotated,
    waves_from_scratch,
)
from helpers import waves_via_full_dp

strings = st.text(alphabet="ab", max_size=10)
strings4 = st.text(alphabet="abcd", max_size=10)


def test_full_dp_examples():
    assert full_edit_distance("abc", "abc").distance == 0
    assert full_edit_distance("", "abc").cells[0][3] == 3
    assert full_edit_distance("abab", "baba").distance == 2


def test_full_dp_local_monotonicity():
    cells = full_edit_distance("abcab", "cabba").cells
    for i in range(1, len(cells)):
        for j in range(1, len(cells[0])):
            assert abs(cells[i][j] - cells[i - 1][j - 1]) <= 1
            assert abs(cells[i][j] - cells[i][j - 1]) <= 1
            assert abs(cells[i][j] - cells[i - 1][j]) <= 1


def test_banded_examples():
    assert banded_edit_distance("abc", "abc", 0) == 0
    assert banded_edit_distance("abab", "baba", 1) is None
    assert banded_edit_distance("abab", "baba", 2) == 2


@settings(max_examples=300)
@given(strings, strings, st.integers(0, 8))
def test_banded_agrees_with_full(x, y, k):
    full = full_edit_distance(x, y).distance
    banded = banded_edit_distance(x, y, k)
    assert banded == (full if full <= k else None)


def test_waves_examples():
    w = waves_from_scratch("a", "a", 0)
    assert w.waves[0] == {0: (1, 1)}
    w = waves_from_scratch("a", "b", 1)
    assert w.waves[0] == {0: (0, 0)}
    assert w.waves[1][0] == (1, 1)
    w = waves_from_scratch("", "", 0)
    assert w.waves[0] == {0: (0, 0)}


@settings(max_examples=300)
@given(strings, strings, st.integers(0, 5))
def test_waves_match_full_dp_extraction(x, y, k):
    assert waves_from_scratch(x, y, k).entries() == waves_via_full_dp(
        x.encode(), y.encode(), k
    )


@settings(max_examples=200)
@given(strings4, strings4, st.integers(0, 5))
def test_wave_sizes(x, y, k):
    w = waves_from_scratch(x, y, k)
    for h, wave in enumerate(w.waves):
        assert len(wave) <= 2 * h + 1
        for d, (i, j) in wave.items():
            assert j - i == d
            assert 0 <= i <= len(x) and 0 <= j <= len(y)


def test_rotate_pattern_examples():
    w = waves_from_scratch("ab", "ab", 1)
    rotated = rebuild_waves_rotated(w, "a", "ab")
    assert rotated == waves_from_scratch("ba", "ab", 1)
    # unary patterns are rotation-invariant
    w = waves_from_scratch("aaa", "aab", 2)
    assert rebuild_waves_rotated(w, "a", "aab") == w
    # distance readable from the waves after a rotation step
    w = waves_from_scratch("abc", "cab", 2)
    w = rebuild_waves_rotated(w, "a", "cab")
    assert w.pattern == b"bca"
    hits = dict(occurrence_scan(w))
    assert hits[3] == 2 == full_edit_distance("bca", "cab").distance


def test_drop_text_prefix_examples():
    w = waves_from_scratch("ab", "aab", 1)
    assert rebuild_waves_dropped_prefix(w, "ab", "aab") == waves_from_scratch("ab", "ab", 1)
    w = waves_from_scratch("ab", "a", 1)
    assert rebuild_waves_dropped_prefix(w, "ab", "a") == waves_from_scratch("ab", "", 1)
    w = waves_from_scratch("aaa", "baaa", 1)
    dropped = rebuild_waves_dropped_prefix(w, "aaa", "baaa")
    assert dict(occurrence_scan(dropped))[3] == 0


def test_drop_empty_text_rejected():
    w = waves_from_scratch("ab", "", 1)
    with pytest.raises(ValueError):
        rebuild_waves_dropped_prefix(w, "ab", "")


def test_scan_examples():
    assert occurrence_scan(waves_from_scratch("ab", "ab", 0)) == [(2, 0)]
    # last row of full DP for ("ab", "b") is [2, 1]: only column 1 is <= 1
    assert occurrence_scan(waves_from_scratch("ab", "b", 1)) == [(1, 1)]
    assert occurrence_scan(waves_from_scratch("abc", "xyz", 1)) == []


@settings(max_examples=300)
@given(strings, strings, st.integers(0, 5))
def test_scan_matches_last_row(x, y, k):
    got = dict(occurrence_scan(waves_from_scratch(x, y, k)))
    row = full_edit_distance(x, y).last_row()
    want = {j: v for j, v in enumerate(row) if v <= k}
    assert got == want


def test_incremental_sequences_match_from_scratch():
    rng = random.Random(1234)
    for _ in range(150):
        sigma = rng.choice([2, 4])
        letters = "ab" if sigma == 2 else "abcd"
        m = rng.randint(1, 10)
        n = rng.randint(0, 14)
        k = rng.randint(0, 6)
        x = "".join(rng.choice(letters) for _ in range(m))
        y = "".join(rng.choice(letters) for _ in range(n))
        w = waves_from_scratch(x, y, k)
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5 or len(y) == 0:
                x = x[1:] + x[0]
                w = rebuild_waves_rotated(w, x[-1], y)
            else:
                w = rebuild_waves_dropped_prefix(w, x, y)
                y = y[1:]
            assert w == waves_from_scratch(x, y, k)
            assert w.entries() == waves_via_full_dp(x.encode(), y.encode(), k)
