import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch import (
    Occurrence,
    PlanError,
    SearchPlan,
    build_alphabet,
    build_index,
    plan,
    search,
    search_chunked,
)
from circmatch import searcher
from circmatch.bitparallel import rotation_screen
from circmatch.reference import oracle_search, rotate
from circmatch.searcher import d_exponent
from helpers import brute_search, letters_for, load_mutant, plant_edited_rotation, random_string


def test_d_exponent_value():
    assert abs(d_exponent(0.1, 4) - 0.431) < 5e-4


def test_plan_small_window_falls_back():
    p = plan(8, 4, build_alphabet("ab"))
    assert p.mode == "verify-all"
    assert p.window_len == 4


def test_plan_k0_reads_single_gram():
    p = plan(64, 0, build_alphabet("abcd"))
    assert p.mode == "filter" and p.j_grams == 1


def test_plan_rejects_bad_threshold():
    with pytest.raises(PlanError):
        plan(8, 8, build_alphabet("ab"))


def test_plan_invariants_when_filtering():
    rng = random.Random(123)
    feasible = 0
    for _ in range(200):
        sigma = rng.choice([2, 4, 20])
        m = rng.randint(6, 128)
        k = rng.randint(0, m // 3)
        p = plan(m, k, build_alphabet(letters_for(sigma)))
        assert p.window_len == m - k
        if p.mode == "filter":
            feasible += 1
            assert p.d > 0
            assert p.j_grams * p.q <= p.window_len
            assert 2 * p.q + (k / p.c if k else 0) <= p.window_len
            assert 1 <= p.q < m and 0 < p.c < 1
    assert feasible > 50


def test_plan_override_validation():
    a = build_alphabet("abcd")
    p = plan(64, 2, a, q=6, c=0.1)
    assert p.mode == "filter" and p.q == 6 and p.c == 0.1
    with pytest.raises(PlanError):
        plan(64, 2, a, q=40)  # window cannot hold two 40-grams
    with pytest.raises(PlanError):
        plan(64, 2, a, q=6, c=0.9)  # d(c) < 0 at sigma=4
    with pytest.raises(PlanError):
        plan(64, 2, a, q=6, c=1.5)


def test_filter_window_all_zero_sums_verify():
    # every gram of the text is a factor of the doubled pattern
    a = build_alphabet("ab")
    x = b"abababab"
    p = plan(len(x), 0, a)
    idx = build_index(x, p.q, a)
    _, stats = search(x * 4, x, 0, p, idx, collect_skips=True)
    assert stats.skips == []
    assert stats.windows_verified == stats.windows_examined >= 1


def test_filter_window_skip_at_k0():
    a = build_alphabet("ab")
    x = b"aaaaaaaa"
    p = plan(len(x), 0, a)
    idx = build_index(x, p.q, a)
    _, stats = search(b"bbbbbbbbbbbbbbbb", x, 0, p, idx, collect_skips=True)
    assert stats.windows_verified == 0
    assert stats.skips[0] == (0, p.window_len - p.q + 1)
    assert stats.qgrams_read == stats.windows_examined == len(stats.skips)


def test_filter_window_early_exit_shift():
    # two unary-mismatch grams exceed k=1; shift lands one past the
    # leftmost letter read
    a = build_alphabet("ab")
    x = b"aaaa"
    idx = build_index(x, 1, a)
    p = SearchPlan(
        mode="filter", m=4, k=1,
        epsilon=0.5, q=1, c=0.5, d=0.1, j_grams=3,
    )
    assert idx.entries[1] == 1  # M["b"] against doubled "aaaaaaa"
    _, stats = search(b"bbbb", x, 1, p, idx, collect_skips=True)
    assert stats.windows_examined == 1
    assert stats.qgrams_read == 2
    assert stats.skips == [(0, 3 - 2 * 1 + 1)] == [(0, 2)]


def test_filter_window_foreign_letters_force_verification():
    a = build_alphabet("ab")
    x = b"abababab"
    p = plan(len(x), 0, a)
    idx = build_index(x, p.q, a)
    t = b"zzzzzzzzzzzzzzzz"  # z is foreign: all grams contribute 0
    _, stats = search(t, x, 0, p, idx, collect_skips=True)
    assert stats.skips == []
    assert stats.windows_verified == stats.windows_examined >= 1
    assert stats.qgrams_read == p.j_grams * stats.windows_examined


def test_filter_scan_foreign_letter_inside_occurrence():
    # seeded DNA text with a rotation planted at 74 whose letter N sits in
    # an otherwise encodable gram; the plan reads three 4-grams at k = 1
    a = build_alphabet("dna")
    x = b"GGCGAACTTGGTCACCCCGA"
    t = (b"AGTATCTGATGAGATGATCACCGAGAGCCGGGGCGAGGAAGATGTACGGATACTTTCCGCACAGG"
         b"GACTAGGTTGCGAACTTGGNCACCCCGAGCGAT")
    p = plan(len(x), 1, a)
    assert (p.mode, p.q, p.j_grams) == ("filter", 4, 3)
    idx = build_index(x, p.q, a)
    got, _ = search(t, x, 1, p, idx)
    assert got == brute_search(t, x, 1) == [Occurrence(74, 20, 1, 1)]
    # a copy that encodes the letters past N, as if N were absent, sums a
    # positive entry for that gram and skips the occurrence
    past = load_mutant(
        searcher,
        "if r == FOREIGN:\n                        break",
        "if r == FOREIGN:\n                        continue",
    )
    assert past.search(t, x, 1, p, idx)[0] != got


# (letters, x, k, q, c, t): filter plans where a skip lands exactly on an
# occurrence start, found by a seeded search over texts with planted
# rotations
SKIP_LANDINGS = [
    ("ab", b"aabbaaabbbba", 0, 5, 0.01,
     b"abbbbaaaabbaaabbbbbbaabbaaabbbbaababbaabaaaabbbbaaabbbabbbaaabbaa"),
    ("abcd", b"cdacacdaabcbcdaacdcb", 0, 4, 0.01,
     b"bdaadabababdddddddacacdaabcbcdaacdcbcbbcdaabcbcdaacdcbcdacabcdacaaa"),
    ("abcd", b"cdbacaccbababdabdbbabb", 1, 5, 0.2,
     b"dbdbabbbbbdcdabdbbabbcdbacaccbababbacdcbaabdabdbbabbcdbacacadcabacbadbbacb"),
    ("abcd", b"dbacbabadaadbdbcaacc", 1, 4, 0.2,
     b"cacacacbababdaadbdbcaaccdbadbacbabadabadbdbcaaccaabbbddadaaaccacdbadddabcdacdcdcbad"),
    ("abcd", b"baadbabcbcdbadabccdcbdbd", 1, 5, 0.17,
     b"dddaadaddccdbacddccbbcbcdbadabccdcbdbdbaadbabbdcddbcdacaccaacccdccdbcacb"),
]


@pytest.mark.parametrize(
    "letters, x, k, q, c, t", SKIP_LANDINGS,
    ids=[f"sigma{len(c[0])}-m{len(c[1])}-k{c[2]}" for c in SKIP_LANDINGS],
)
def test_search_skip_landing_on_occurrence_start(letters, x, k, q, c, t):
    a = build_alphabet(letters)
    p = plan(len(x), k, a, q=q, c=c)
    idx = build_index(x, q, a)
    got, stats = search(t, x, k, p, idx, collect_skips=True)
    assert got == brute_search(t, x, k)
    starts = {o.start for o in got}
    assert any(pos + shift in starts for pos, shift in stats.skips)
    # a copy whose skip is one letter longer passes over that start
    longer = load_mutant(searcher, "wlen - jj * q + 1", "wlen - jj * q + 2")
    assert longer.search(t, x, k, p, idx)[0] != got


def _run(t, x, k, sigma, entries=1 << 14, work=1 << 22, **kw):
    a = build_alphabet(letters_for(sigma))
    p = plan(len(x), k, a, max_index_entries=entries, max_index_work=work)
    idx = build_index(x, p.q, a, max_entries=entries) if p.mode == "filter" else None
    return search(t, x, k, p, idx, **kw), p


def test_search_self_match():
    x = b"abcabcab"
    (got, stats), _ = _run(x, x, 0, 4)
    assert Occurrence(0, len(x), 0, 0) in got
    assert stats.occurrences_reported == len(got)


def test_search_finds_planted_rotation():
    x = b"abababbc"
    t = b"xxxx" + rotate(x, 3) + b"xxxx"
    (got, _), _ = _run(t, x, 0, 4)
    assert Occurrence(4, 8, 3, 0) in got
    assert got == oracle_search(t, x, 0)


def test_oracle_search_examples():
    assert oracle_search(b"abc", b"abc", 0) == [Occurrence(0, 3, 0, 0)]
    assert oracle_search(b"bca", b"abc", 0) == [Occurrence(0, 3, 1, 0)]
    got = oracle_search(b"abcabc", b"abc", 1)
    for want in [
        Occurrence(0, 3, 0, 0),
        Occurrence(1, 3, 1, 0),
        Occurrence(2, 3, 2, 0),
        Occurrence(3, 3, 0, 0),
    ]:
        assert want in got


def test_oracle_matches_pure_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        sigma = rng.choice([2, 4])
        m = rng.randint(2, 10)
        k = rng.randint(0, m - 1)
        n = rng.randint(0, 60)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = random_string(rng, letters, n)
        assert oracle_search(t, x, k) == brute_search(t, x, k)


@st.composite
def search_cases(draw):
    sigma = draw(st.sampled_from([2, 4]))
    m = draw(st.integers(2, 20))
    # small thresholds are the ones a filter plan admits
    k = draw(st.one_of(st.integers(0, m // 4), st.integers(0, m - 1)))
    letters = st.sampled_from(letters_for(sigma))
    x = bytes(draw(st.lists(letters, min_size=m, max_size=m)))
    t = bytearray(draw(st.lists(letters, max_size=120)))
    if draw(st.booleans()):
        # a rotation with up to k substitutions, so that skips meet occurrences
        r = draw(st.integers(0, m - 1))
        rot = bytearray(x[r:] + x[:r])
        for _ in range(draw(st.integers(0, k))):
            rot[draw(st.integers(0, m - 1))] = draw(letters)
        pos = draw(st.integers(0, len(t)))
        t[pos:pos] = rot
    t = bytes(t[:120])
    epsilon = draw(st.sampled_from([0.5, 0.9]))
    return sigma, x, k, t, epsilon


@settings(max_examples=100, deadline=None)
@given(search_cases())
@example((4, b"abcdabcdabcdabcdabcd", 1, b"dabcdabcdabdabcdabcdaacbd" * 4, 0.9))
@example((2, b"abbabaabbbaababbabaa", 1, b"babaabbbaababbabaaabb" * 5, 0.9))
def test_search_matches_full_dp_property(case):
    # both plans against the straight-line full DP, which shares no kernel
    # with the screen or the banded pass
    sigma, x, k, t, epsilon = case
    m = len(x)
    want = brute_search(t, x, k)
    verify_all = SearchPlan.verify_all(m, k, epsilon)
    assert search(t, x, k, verify_all)[0] == want
    a = build_alphabet(letters_for(sigma))
    p = plan(m, k, a, epsilon=epsilon, max_index_entries=256, max_index_work=1 << 20)
    if p.mode == "filter":
        idx = build_index(x, p.q, a, max_entries=256)
        assert search(t, x, k, p, idx)[0] == want


def test_search_matches_oracle_randomized():
    rng = random.Random(404)
    for i in range(60):
        sigma = rng.choice([2, 4, 20])
        m = rng.randint(6, 32)
        k = rng.randint(0, m // 4)
        n = rng.randint(m, 400)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = bytearray(random_string(rng, letters, n))
        if i % 2:
            plant_edited_rotation(rng, t, x, k, letters)
        t = bytes(t)
        (got, _), _p = _run(t, x, k, sigma)
        assert got == oracle_search(t, x, k)


def test_search_skip_safety_and_progress():
    rng = random.Random(505)
    for _ in range(30):
        sigma = rng.choice([4, 20])
        m = rng.randint(8, 32)
        k = rng.randint(0, 2)
        n = rng.randint(m, 600)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = random_string(rng, letters, n)
        (got, stats), p = _run(t, x, k, sigma, collect_skips=True)
        assert stats.windows_examined <= n
        starts = sorted(o.start for o in oracle_search(t, x, k))
        import bisect

        for pos, shift in stats.skips:
            assert shift >= 1
            i = bisect.bisect_left(starts, pos)
            assert i == len(starts) or starts[i] >= pos + shift


def test_search_with_foreign_text_letters():
    # letters outside the index alphabet can sit inside occurrences
    # (substitutions) and must never cause a miss
    rng = random.Random(0xF0E1)
    a = build_alphabet("dna")
    for _ in range(15):
        m = rng.randint(8, 24)
        k = rng.randint(0, m // 3)
        n = rng.randint(m, 400)
        x = random_string(rng, b"ACGT", m)
        t = bytearray(random_string(rng, b"ACGTN", n))
        plant_edited_rotation(rng, t, x, k, b"ACGT")
        t = bytes(t)
        p = plan(m, k, a, max_index_entries=1 << 14, max_index_work=1 << 22)
        idx = build_index(x, p.q, a, max_entries=1 << 14) if p.mode == "filter" else None
        got, _ = search(t, x, k, p, idx)
        assert got == oracle_search(t, x, k)


def test_search_patterns_wider_than_a_machine_word():
    rng = random.Random(0xD1DE)
    for _ in range(6):
        m = rng.randint(65, 90)
        k = rng.randint(0, 4)
        n = rng.randint(2 * m, 1200)
        letters = letters_for(4)
        x = random_string(rng, letters, m)
        t = bytearray(random_string(rng, letters, n))
        plant_edited_rotation(rng, t, x, k, letters)
        t = bytes(t)
        a = build_alphabet(letters)
        p = plan(m, k, a, max_index_entries=1 << 14, max_index_work=1 << 22)
        idx = build_index(x, p.q, a, max_entries=1 << 14) if p.mode == "filter" else None
        got, _ = search(t, x, k, p, idx)
        ref = oracle_search(t, x, k)
        assert got == ref and ref  # the planted rotation guarantees a hit


def test_stats_sanity_bound():
    # per examined window: at most J*q filter chars plus the verified
    # fraction of full blocks
    rng = random.Random(777)
    for _ in range(10):
        m = rng.randint(16, 48)
        k = rng.randint(0, 2)
        n = rng.randint(200, 2000)
        letters = letters_for(4)
        x = random_string(rng, letters, m)
        t = random_string(rng, letters, n)
        (got, st), p = _run(t, x, k, 4)
        if p.mode != "filter" or st.windows_examined == 0:
            continue
        bound = p.j_grams * p.q + (st.windows_verified / st.windows_examined) * 2 * m
        assert st.chars_inspected / st.windows_examined <= bound + 1e-9


def test_occurrence_invariants_hold():
    rng = random.Random(888)
    for _ in range(20):
        sigma = rng.choice([2, 4])
        m = rng.randint(4, 20)
        k = rng.randint(0, m // 3)
        n = rng.randint(m, 300)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = bytearray(random_string(rng, letters, n))
        plant_edited_rotation(rng, t, x, k, letters)
        t = bytes(t)
        (got, _), _ = _run(t, x, k, sigma)
        for o in got:
            assert o.start + o.length <= n
            assert 0 <= o.distance <= k
            assert 0 <= o.rotation < m
            assert max(0, m - k) <= o.length <= m + k


def test_search_text_shorter_than_window():
    x = b"abcdefgh"
    (got, stats), _ = _run(b"abc", x, 1, 4)
    assert got == [] and stats.windows_examined == 0


def test_search_rejects_mismatched_plan():
    a = build_alphabet("abcd")
    p = plan(8, 1, a)
    with pytest.raises(ValueError):
        search(b"abcabcabc", b"abcabcabc", 1, p, None)


def test_search_rejects_index_that_does_not_fit():
    # an index for another pattern would lose occurrences, and one with a
    # smaller q would read past the end of its entries
    rng = random.Random(0)
    a = build_alphabet("dna")
    x = random_string(rng, b"ACGT", 30)
    t = bytearray(random_string(rng, b"ACGT", 190))
    plant_edited_rotation(rng, t, x, 2, b"ACGT")
    p = plan(30, 2, a)
    assert p.mode == "filter" and len(search(t, x, 2, p, build_index(x, p.q, a))[0]) > 0
    with pytest.raises(ValueError, match="^index was built for a different pattern$"):
        search(t, x, 2, p, build_index(b"T" * 30, p.q, a))
    wanted = f"^index was built with q={p.q - 1} but the plan has q={p.q}$"
    with pytest.raises(ValueError, match=wanted):
        search(t, x, 2, p, build_index(x, p.q - 1, a))


def test_chunked_equals_single():
    rng = random.Random(606)
    for _ in range(15):
        sigma = rng.choice([2, 4])
        m = rng.randint(6, 24)
        k = rng.randint(0, m // 4)
        n = rng.randint(m, 500)
        letters = letters_for(sigma)
        x = random_string(rng, letters, m)
        t = bytearray(random_string(rng, letters, n))
        plant_edited_rotation(rng, t, x, k, letters)
        t = bytes(t)
        a = build_alphabet(letters)
        p = plan(m, k, a, max_index_entries=1 << 14, max_index_work=1 << 22)
        idx = build_index(x, p.q, a, max_entries=1 << 14) if p.mode == "filter" else None
        single, _ = search(t, x, k, p, idx)
        chunked, _ = search_chunked(t, x, k, p, idx, chunks=4)
        assert chunked == single


def test_chunked_builds_one_screen():
    x, k = b"abcabcab", 1
    t = b"abcabcabcaabcbacabcab" * 6
    rotation_screen.cache_clear()
    _, stats = search_chunked(t, x, k, SearchPlan.verify_all(len(x), k), chunks=4)
    info = rotation_screen.cache_info()
    assert info.misses == 1 and info.hits + info.misses == stats.windows_verified > 4
