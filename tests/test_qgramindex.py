import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch import (
    IndexBudgetError,
    QGramIndex,
    brute_force_index,
    build_alphabet,
    build_doubled,
    build_index,
    encode_qgram,
    full_edit_distance,
    rotate,
)
from helpers import letters_for, random_string


def test_doubled_examples():
    assert build_doubled("ab") == b"aba"
    assert build_doubled("a") == b"a"
    xp = build_doubled("abababbc")
    assert xp == b"abababbcabababb" and len(xp) == 15
    for i in range(8):
        assert rotate(b"abababbc", i) in xp


def test_doubled_contains_all_rotation_qgrams():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(2, 12)
        x = random_string(rng, b"abc", m)
        xp = build_doubled(x)
        q = rng.randint(1, m)
        for i in range(m):
            rot = rotate(x, i)
            for s in range(m - q + 1):
                assert rot[s : s + q] in xp


def test_index_examples():
    ab = build_alphabet("ab")
    idx = build_index(b"aa", 1, ab)
    assert idx.lookup(encode_qgram("a", ab)) == 0
    assert idx.lookup(encode_qgram("b", ab)) == 1
    idx = build_index(b"ab", 1, ab)
    assert idx.lookup(encode_qgram("a", ab)) == 0
    assert idx.lookup(encode_qgram("b", ab)) == 0


def test_brute_example():
    ab = build_alphabet("ab")
    idx = brute_force_index(b"ab", 2, ab)
    assert idx.lookup(encode_qgram("bb", ab)) == 1


def test_factor_qgrams_score_zero():
    rng = random.Random(2)
    a = build_alphabet("abcd")
    for _ in range(10):
        m = rng.randint(3, 16)
        x = random_string(rng, b"abcd", m)
        q = rng.randint(1, min(3, m - 1))
        idx = build_index(x, q, a)
        xp = build_doubled(x)
        for s in range(len(xp) - q + 1):
            assert idx.lookup(encode_qgram(xp[s : s + q], a)) == 0


def test_vectorized_matches_brute_force():
    rng = random.Random(31337)
    for _ in range(60):
        sigma = rng.choice([2, 3, 4])
        m = rng.randint(2, 24)
        q = rng.randint(1, min(3, m - 1))
        a = build_alphabet(letters_for(sigma))
        x = random_string(rng, a.letters, m)
        assert build_index(x, q, a) == brute_force_index(x, q, a)


# the exhaustive reference costs about sigma^q * m * q^3 steps; the cap keeps
# one example under a second (sigma^q = 4096 at q = 12 would take a minute)
REFERENCE_WORK = 1 << 18


@st.composite
def index_cases(draw):
    sigma = draw(st.sampled_from([2, 3, 4, 20]))
    m = draw(st.integers(2, 32))
    q_max = 1
    while (
        q_max + 1 < m
        and sigma ** (q_max + 1) <= 4096
        and sigma ** (q_max + 1) * m * (q_max + 1) ** 3 <= REFERENCE_WORK
    ):
        q_max += 1
    q = draw(st.integers(1, q_max))
    letters = letters_for(sigma)
    if draw(st.booleans()):
        x = bytes([draw(st.sampled_from(letters))]) * m
    else:
        x = bytes(draw(st.lists(st.sampled_from(letters), min_size=m, max_size=m)))
    return letters, x, q


@settings(max_examples=60, deadline=None)
@given(index_cases())
@example((b"ab", b"aaaaaaa", 6))  # one letter repeated, q = m - 1
@example((b"abcd", b"cccccccccccc", 3))  # one letter repeated
@example((b"ab", b"abbab", 4))  # q = m - 1
@example((b"abc", b"ca", 1))  # m = 2
@example((letters_for(20), b"ta", 1))  # m = 2, sigma = 20
@example((b"abc", b"cacbb", 4))  # needs a pattern letter skipped at row 2
@example((b"ab", b"baabbbaabb", 8))  # needs two pattern letters skipped in a row
def test_build_matches_brute_force_property(case):
    # brute_force_index scores every factor with full_edit_distance, so it
    # shares no kernel with the trie builder
    letters, x, q = case
    a = build_alphabet(letters)
    assert build_index(x, q, a) == brute_force_index(x, q, a)


@pytest.mark.parametrize("max_chunk_bytes", [1, 1 << 10, 1 << 14, 1 << 18])
def test_chunked_build_matches_default(max_chunk_bytes):
    rng = random.Random(64)
    a = build_alphabet("ACGT")
    x = random_string(rng, b"ACGT", 64)
    assert build_index(x, 6, a, max_chunk_bytes=max_chunk_bytes) == build_index(x, 6, a)


def test_entries_bounded_by_q():
    a = build_alphabet("ab")
    idx = build_index(b"abba", 3, a)
    assert idx.entries.max() <= 3


def test_lower_bound_against_rotation_factors():
    # index values never exceed the distance between a gram of a rotation
    # factor and any factor of that rotation
    rng = random.Random(4)
    a = build_alphabet("ab")
    for _ in range(15):
        m = rng.randint(3, 10)
        q = rng.randint(1, min(3, m - 1))
        x = random_string(rng, b"ab", m)
        idx = build_index(x, q, a)
        for _ in range(20):
            r = rng.randrange(m)
            rot = rotate(x, r)
            fs = rng.randrange(m - q + 1)
            f = rot[fs : fs + rng.randint(q, m - fs)]
            g = f[:q]
            hs = rng.randrange(m)
            h = rot[hs : hs + rng.randint(0, m - hs)]
            assert idx.lookup(encode_qgram(g, a)) <= full_edit_distance(g, h).distance


def test_budget_refusal_reports_requirement():
    a = build_alphabet("abcd")
    with pytest.raises(IndexBudgetError) as exc:
        build_index(b"a" * 40, 10, a, max_entries=1 << 10)
    assert exc.value.required == 4**10


def test_q_bounds_validated():
    a = build_alphabet("ab")
    with pytest.raises(ValueError):
        build_index(b"ab", 2, a)  # q must stay below the pattern length
    with pytest.raises(ValueError):
        build_index(b"ab", 0, a)


def test_serialization_roundtrip(tmp_path):
    rng = random.Random(9)
    a = build_alphabet("ACGT")
    x = random_string(rng, b"ACGT", 20)
    idx = build_index(x, 3, a)
    path = tmp_path / "cache.idx"
    idx.save(path)
    loaded = QGramIndex.load(path)
    assert loaded == idx
    assert np.array_equal(loaded.entries, idx.entries)
    blob = idx.to_bytes()
    assert blob.startswith(b"CIRCIDX2")
    assert blob[8] == 4 and blob[9] == 3
    assert blob[10:42] == hashlib.sha256(x).digest()
    assert blob[42:46] == b"ACGT"
    assert len(blob) == 46 + 4**3


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"NOTANIDX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        QGramIndex.load(p)


def _cache_blob() -> bytes:
    return build_index(b"ACGTTGCA", 3, build_alphabet("ACGT")).to_bytes()


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(b"CIRCIDX2", id="magic-only"),
        pytest.param(_cache_blob()[:44], id="cut-inside-letters"),
        pytest.param(_cache_blob()[:9] + b"\x00" + _cache_blob()[10:], id="q-zero"),
        pytest.param(_cache_blob()[:42] + b"AACC" + _cache_blob()[46:], id="duplicate-letters"),
        pytest.param(_cache_blob()[:-1] + b"\x04", id="entry-above-q"),
        pytest.param(b"CIRCIDX1\x04\x03ACGT" + bytes(64), id="old-layout"),
    ],
)
def test_from_bytes_rejects_corrupt_header(blob):
    with pytest.raises(ValueError):
        QGramIndex.from_bytes(blob)
