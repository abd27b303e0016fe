import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch import bitparallel
from circmatch.bitparallel import RotationScreen
from circmatch.reference import full_edit_distance, min_prefix_distances
from circmatch.verifier import Occurrence
from helpers import boundary_blocks, brute_block_occurrences, load_mutant


def dp_scores(p: bytes, t: bytes) -> list[int]:
    """Last row of the textbook free-start DP (D[0][j] = 0) of p against
    every prefix of t."""
    prev = [0] * (len(t) + 1)
    for i, pc in enumerate(p, 1):
        row = [i]
        left = i
        for j, tc in enumerate(t):
            v = prev[j] + (pc != tc)
            if prev[j + 1] < v:
                v = prev[j + 1] + 1
            if left < v:
                v = left + 1
            row.append(v)
            left = v
        prev = row
    return prev


def start_distances(rho: bytes, data: bytes) -> list[int]:
    """For every start p, the least distance between rho and a factor of
    data starting at p: a free-start pass of the reversed strings ends at
    n - p exactly where those factors start."""
    n = len(data)
    scores = dp_scores(rho[::-1], data[::-1])
    return [scores[n - p] for p in range(n)]


def screen_distances(x: bytes, k: int, data: bytes) -> list[tuple[int, int, int]]:
    starts = min(len(x) - k, len(data))
    return [
        (p, r, d) for p, dist in RotationScreen(x, k).distances(data, starts) for r, d in dist.items()
    ]


def dp_distances(x: bytes, k: int, data: bytes, dists) -> list[tuple[int, int, int]]:
    """(start, rotation, distance) within k, from per-rotation start_distances."""
    starts = min(len(x) - k, len(data))
    return [(p, r, ds[p]) for p in range(starts) for r, ds in enumerate(dists) if ds[p] <= k]


def test_exhaustive_small_binary():
    # every binary pattern of length <= 4, every threshold, and every block
    # of up to 2m letters; below m = 4 the blocks also use c, a letter the
    # pattern lacks
    for m in range(1, 5):
        letters = b"abc" if m < 4 else b"ab"
        for p in itertools.product(b"ab", repeat=m):
            x = bytes(p)
            for n in range(1, 2 * m + 1):
                for t in itertools.product(letters, repeat=n):
                    data = bytes(t)
                    dists = [start_distances(x[r:] + x[:r], data) for r in range(m)]
                    for k in range(m):
                        assert screen_distances(x, k, data) == dp_distances(x, k, data, dists)


@st.composite
def screen_cases(draw):
    m = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65]), st.integers(1, 80)))
    sigma = draw(st.integers(1, 4))
    x = bytes(draw(st.lists(st.sampled_from(b"abcd"[:sigma]), min_size=m, max_size=m)))
    # blocks up to 2m letters; 'e' and 'z' never occur in the pattern
    n = draw(st.integers(1, 2 * m))
    if draw(st.booleans()):
        r = draw(st.integers(0, m - 1))
        data = bytearray((x[r:] + x[:r]) * 2)[:n]
        for _ in range(draw(st.integers(0, m))):
            data[draw(st.integers(0, n - 1))] = draw(st.sampled_from(b"abez"))
        data = bytes(data)
    else:
        data = bytes(draw(st.lists(st.sampled_from(b"abcdez"), min_size=n, max_size=n)))
    return x, data


def word_boundary_case(m: int) -> tuple[bytes, bytes]:
    """A DNA pattern and a 2m block holding one of its rotations with m // 8
    substitutions, some by a letter the pattern lacks."""
    rng = random.Random(m)
    x = bytes(rng.choice(b"acgt") for _ in range(m))
    r = rng.randrange(m)
    data = bytearray((x[r:] + x[:r]) * 2)
    for _ in range(m // 8):
        data[rng.randrange(2 * m)] = rng.choice(b"acgtn")
    return x, bytes(data)


@settings(max_examples=100, deadline=None)
@given(screen_cases())
@example(word_boundary_case(1))
@example(word_boundary_case(2))
@example(word_boundary_case(63))
@example(word_boundary_case(64))
@example(word_boundary_case(65))
def test_random_vs_dp(case):
    # every k < m, so the threshold that the best start only just meets is
    # always among them
    x, data = case
    dists = [start_distances(x[r:] + x[:r], data) for r in range(len(x))]
    for k in range(len(x)):
        assert screen_distances(x, k, data) == dp_distances(x, k, data, dists)


def test_screen_matches_definition():
    # each (start, rotation) within k, with the least distance over every
    # factor at that start and the shortest factor that reaches it
    x, data = b"abca", b"xabcaycab"
    rots = [x[r:] + x[:r] for r in range(len(x))]
    for k in range(len(x)):
        for starts in range(1, len(data) + 1):
            want = []
            for p in range(starts):
                for r, rho in enumerate(rots):
                    d, length = min(
                        (full_edit_distance(rho, data[p:e]).distance, e - p)
                        for e in range(p, len(data) + 1)
                    )
                    if d <= k:
                        want.append((p, length, r, d))
            assert list(RotationScreen(x, k).occurrences(data, starts)) == want


def test_screen_validates_inputs():
    with pytest.raises(ValueError):
        RotationScreen(b"", 0)
    with pytest.raises(ValueError):
        RotationScreen(b"ab", 2)


def kernel_matches_brute(screen_cls, x: bytes, k: int, data: bytes, want) -> bool:
    starts = min(len(x) - k, len(data))
    got = screen_cls(x, k).occurrences(data, starts)
    return [Occurrence(*o) for o in got] == want


@pytest.fixture(scope="module")
def boundary_cases():
    return [(x, k, d, brute_block_occurrences(x, k, d)) for x, k, d in boundary_blocks()]


@pytest.mark.parametrize(
    "new",
    [
        "r = (b.bit_length() - 1) // width + 1",  # one field too high
        "r = b.bit_length() // width",  # bit length taken for the bit index
    ],
)
def test_field_index_mutants_fail(new, boundary_cases):
    # the boundary cases that pass on the real kernel catch a copy whose hit
    # field is read one off; the second mutant differs only where
    # t + 1 = m + 1, that is at m = 1 and m = 2
    assert all(kernel_matches_brute(RotationScreen, *c) for c in boundary_cases)
    mutant = load_mutant(bitparallel, "r = (b.bit_length() - 1) // width", new).RotationScreen

    def caught(case) -> bool:
        try:
            return not kernel_matches_brute(mutant, *case)
        except (KeyError, IndexError):
            return True

    assert any(caught(c) for c in boundary_cases)


@settings(max_examples=150, deadline=None)
@given(
    st.binary(min_size=1, max_size=12).map(lambda b: bytes(ch % 2 + 97 for ch in b)),
    st.binary(min_size=1, max_size=24).map(lambda b: bytes(ch % 2 + 97 for ch in b)),
    st.integers(0, 5),
)
def test_vector_kernel_vs_dp(p, t, k):
    if k >= len(p):
        k = len(p) - 1
    rots = [p[r:] + p[:r] for r in range(len(p))]
    pat = np.array([list(r) for r in rots], dtype=np.uint8)
    dmin, lmin = min_prefix_distances(pat, np.frombuffer(t, dtype=np.uint8), k, len(t))
    for ri, rho in enumerate(rots):
        for s in range(len(t)):
            row = full_edit_distance(rho, t[s:]).last_row()
            best = None
            for j, v in enumerate(row):
                if v <= k and (best is None or (v, j) < best):
                    best = (v, j)
            if best is None:
                assert dmin[ri, s] > k
            else:
                assert (int(dmin[ri, s]), int(lmin[ri, s])) == best
