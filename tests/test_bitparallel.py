import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch._vectordp import min_prefix_distances
from circmatch.bitparallel import RotationScreen
from circmatch.editcore import full_edit_distance


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
                    rots = [x[r:] + x[:r] for r in range(m)]
                    mins = [min(c) for c in zip(*(start_distances(rho, data) for rho in rots))]
                    for k in range(m):
                        starts = min(m - k, n)
                        want = min(mins[:starts]) <= k
                        assert RotationScreen(x, k).hit(data, starts) == want


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
    m, n = len(x), len(data)
    rots = [x[r:] + x[:r] for r in range(m)]
    mins = [min(c) for c in zip(*(start_distances(rho, data) for rho in rots))]
    for k in range(m):
        starts = min(m - k, n)
        assert RotationScreen(x, k).hit(data, starts) == (min(mins[:starts]) <= k)


def test_screen_matches_definition():
    # a hit means some start p < starts has a factor within k of a rotation
    x, data = b"abca", b"xabcaycab"
    rots = [x[r:] + x[:r] for r in range(len(x))]
    for k in range(len(x)):
        for starts in range(1, len(data) + 1):
            want = any(
                full_edit_distance(rho, data[p:e]).distance <= k
                for rho in rots
                for p in range(starts)
                for e in range(p, len(data) + 1)
            )
            assert RotationScreen(x, k).hit(data, starts) == want


def test_screen_validates_inputs():
    with pytest.raises(ValueError):
        RotationScreen(b"", 0)
    with pytest.raises(ValueError):
        RotationScreen(b"ab", 2)


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
