import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch import (
    Occurrence,
    SearchPlan,
    build_alphabet,
    build_index,
    plan,
    search,
)
from circmatch.bitparallel import rotation_screen
from circmatch.reference import (
    WorkTally,
    dedup_occurrences,
    oracle_search,
    rotate,
    verify_block_waves,
)
from helpers import (
    boundary_blocks,
    brute_block_occurrences,
    brute_search,
    index_budgets,
    letters_for,
    random_string,
)


def test_rotation_identities():
    x = "abababbc"
    assert rotate(x, 0) == "abababbc"
    assert rotate(x, 1) == "bababbca"
    assert rotate(x, 7) == "cabababb"


def test_rotate_out_of_range():
    with pytest.raises(ValueError):
        rotate("abc", 3)
    with pytest.raises(ValueError):
        rotate("abc", -1)


def test_dedup_rules():
    a = Occurrence(5, 4, 2, 1)
    assert dedup_occurrences([a, a]) == [a]
    assert dedup_occurrences([a, Occurrence(5, 5, 2, 0)]) == [Occurrence(5, 5, 2, 0)]
    assert dedup_occurrences([a, Occurrence(5, 3, 2, 1)]) == [Occurrence(5, 3, 2, 1)]


def test_dedup_sorts_by_start_then_rotation():
    occs = [Occurrence(9, 4, 1, 0), Occurrence(2, 4, 3, 0), Occurrence(2, 4, 0, 1)]
    assert [(o.start, o.rotation) for o in dedup_occurrences(occs)] == [
        (2, 0),
        (2, 3),
        (9, 1),
    ]


def screen_block(x: bytes, k: int, block: bytes) -> list[Occurrence]:
    """The rows `search` reports for a run whose slice is `block`: every
    occurrence starting in its first min(m - k, len(block)) positions."""
    starts = min(len(x) - k, len(block))
    return [Occurrence(*o) for o in rotation_screen(x, k).occurrences(block, starts)]


def test_verify_block_exact_match():
    # "abab" has period 2, so rotation 2 matches wherever rotation 0 does
    got = screen_block(b"abab", 0, b"ababxxxx")
    assert got == [Occurrence(0, 4, 0, 0), Occurrence(0, 4, 2, 0)]
    assert got == brute_block_occurrences(b"abab", 0, b"ababxxxx")


def test_verify_block_unary():
    got = screen_block(b"aaaa", 0, b"aaaaaaaa")
    assert {o.start for o in got} == {0, 1, 2, 3}
    assert all(o.length == 4 and o.distance == 0 for o in got)
    assert got == brute_block_occurrences(b"aaaa", 0, b"aaaaaaaa")


def test_verify_block_one_substitution():
    block = b"xbcdabxy"
    got = screen_block(b"abcd", 1, block)
    assert Occurrence(0, 4, 0, 1) in got
    assert got == brute_block_occurrences(b"abcd", 1, block)


def test_full_length_occurrence_at_last_candidate_start():
    # an occurrence of length m+k starting at the last candidate start
    # still fits: (m-k-1) + (m+k) < 2m
    x = b"abcdef"
    k = 1
    m = len(x)
    start = m - k - 1
    occ_text = x[:3] + b"x" + x[3:]  # one insertion, length m+1
    data = bytes(random_string(random.Random(3), b"yz", start)) + occ_text
    data = data + b"y" * (2 * m - len(data))
    got = screen_block(x, k, data)
    assert any(
        o.start == start and o.rotation == 0 and o.length == m + k for o in got
    )


def test_verify_block_empty_result():
    assert screen_block(b"abc", 0, b"zzzzzz") == []
    # a block with no letters has no candidate start
    assert screen_block(b"abc", 0, b"") == verify_block_waves(b"abc", 0, b"") == []


def test_verify_block_validates_inputs():
    with pytest.raises(ValueError):
        screen_block(b"", 0, b"ab")
    with pytest.raises(ValueError):
        screen_block(b"ab", 2, b"ab")
    with pytest.raises(ValueError):
        verify_block_waves(b"ab", 2, b"ab")


def test_engines_agree_with_brute_force():
    rng = random.Random(0xBEEF)
    for _ in range(120):
        sigma = rng.choice([2, 4])
        m = rng.randint(1, 16)
        k = rng.randint(0, min(4, m - 1))
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        data = random_string(rng, letters, rng.randint(1, 2 * m))
        ref = brute_block_occurrences(x, k, data)
        assert screen_block(x, k, data) == ref
        assert verify_block_waves(x, k, data) == ref


def test_soundness_on_planted_blocks():
    from circmatch.reference import full_edit_distance

    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(4, 12)
        k = rng.randint(0, 3)
        if k >= m:
            continue
        letters = letters_for(4)
        x = random_string(rng, letters, m)
        data = bytearray(random_string(rng, letters, 2 * m))
        rot = rotate(x, rng.randrange(m))
        data[: len(rot)] = rot
        block = bytes(data[: 2 * m])
        for o in screen_block(x, k, block):
            factor = block[o.start : o.start + o.length]
            assert full_edit_distance(rotate(x, o.rotation), factor).distance == o.distance
            assert o.distance <= k


def test_wave_engine_tally_is_deterministic():
    rng = random.Random(5)
    x = random_string(rng, b"abcd", 16)
    data = random_string(rng, b"abcd", 32)
    t1, t2 = WorkTally(), WorkTally()
    verify_block_waves(x, 2, data, t1)
    verify_block_waves(x, 2, data, t2)
    assert t1.wave_updates == t2.wave_updates > 0


@st.composite
def block_cases(draw):
    """Unary and periodic patterns two times in three; blocks of 1..2m
    letters, so often shorter than starts + m + k, with 'z', a letter no
    pattern holds."""
    m = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["unary", "periodic", "random"]))
    if kind == "unary":
        x = b"a" * m
    elif kind == "periodic":
        unit = bytes(draw(st.lists(st.sampled_from(b"abc"), min_size=2, max_size=3)))
        x = (unit * m)[:m]
    else:
        sigma = draw(st.integers(2, 4))
        x = bytes(draw(st.lists(st.sampled_from(b"abcd"[:sigma]), min_size=m, max_size=m)))
    k = draw(st.integers(0, m - 1))
    n = draw(st.integers(1, 2 * m))
    if draw(st.booleans()):
        r = draw(st.integers(0, m - 1))
        data = bytearray((x[r:] + x[:r]) * 3)[:n]
        for _ in range(draw(st.integers(0, 3))):
            data[draw(st.integers(0, n - 1))] = draw(st.sampled_from(b"abz"))
        data = bytes(data)
    else:
        data = bytes(draw(st.lists(st.sampled_from(b"abcz"), min_size=n, max_size=n)))
    return x, k, data


def with_boundary_examples(test):
    for x, k, data in boundary_blocks():
        test = example((x, k, data))(test)
    return test


@settings(max_examples=150, deadline=None)
@given(block_cases())
@with_boundary_examples
def test_verify_block_matches_brute_force_property(case):
    x, k, block = case
    assert screen_block(x, k, block) == brute_block_occurrences(x, k, block)


def test_verify_and_search_do_not_use_band_pass(monkeypatch):
    # the band pass is left to oracle_search; with it disabled, the
    # verifier and the search still equal the straight-line full DP
    def disabled(*args, **kwargs):
        raise AssertionError("band pass called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "circmatch" and hasattr(module, "min_prefix_distances"):
            monkeypatch.setattr(module, "min_prefix_distances", disabled)
    with pytest.raises(AssertionError):
        oracle_search(b"abab", b"ab", 0)
    rng = random.Random(0xB4D)
    a = build_alphabet(b"ab")
    filtered = 0
    for _ in range(30):
        m = rng.randint(2, 16)
        k = rng.randint(0, min(3, m - 1))
        x = (random_string(rng, b"ab", rng.randint(1, 3)) * m)[:m]
        t = bytearray((x * 6)[: rng.randint(m, 5 * m)])
        for _ in range(rng.randint(0, 4)):
            t[rng.randrange(len(t))] = rng.choice(b"abz")
        t = bytes(t)
        block = t[: 2 * m]
        assert screen_block(x, k, block) == brute_block_occurrences(x, k, block)
        want = brute_search(t, x, k)
        assert search(t, x, k, SearchPlan.verify_all(m, k))[0] == want
        with index_budgets(256, 1 << 20):
            p = plan(m, k, a, epsilon=0.9)
            idx = build_index(x, p.q, a) if p.mode == "filter" else None
        if p.mode == "filter":
            filtered += 1
            assert search(t, x, k, p, idx)[0] == want
    assert filtered > 0
