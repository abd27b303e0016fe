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
from helpers import (
    brute_search,
    count_half_tables,
    letters_for,
    load_mutant,
    plant_edited_rotation,
    random_string,
)


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
    # N costs that gram one edit, not q: a copy that charges a gram whose
    # half lookup misses its full q sums past k and skips the occurrence
    # (taking the half that holds N as any one code loses nothing here)
    missed = "except KeyError:\n                pass"
    charged = load_mutant(searcher, missed, "except KeyError:\n                ssum += q")
    assert charged.search(t, x, 1, p, idx)[0] != got


@pytest.mark.parametrize("gram", [b"zb", b"bz", b"bb"])
def test_filter_scan_foreign_half_adds_zero(gram):
    # q = 2 splits a gram into one letter a side; the window's grams are
    # `gram` then "ab" (entry 1 against "aaaaaaaa").  A gram with z in
    # either half adds 0, so the sum stays at k = 1 and the window verifies;
    # "bb" adds 2 and the window skips after one gram
    x = b"aaaaaaaa"
    p = SearchPlan(mode="filter", m=8, k=1, epsilon=0.5, q=2, c=0.5, d=0.1, j_grams=2)
    idx = build_index(x, 2, build_alphabet("ab"))
    _, stats = search(b"bbbab" + gram, x, 1, p, idx, collect_skips=True)
    if gram == b"bb":
        assert stats.skips == [(0, 6)] and stats.qgrams_read == 1 and stats.chars_inspected == 2
    else:
        assert stats.skips == [] and stats.windows_verified == 1 and stats.qgrams_read == 2


class _Misses(dict):
    """A half table that records the keys it misses."""

    def __init__(self, table):
        super().__init__(table)
        self.missed = []

    def __missing__(self, key):
        self.missed.append(key)
        raise KeyError(key)


def test_filter_scan_foreign_letters_on_both_sides_of_the_split():
    # N planted in and around edited rotations lands in the left half of
    # some grams read and in the right half of others; filtration loses
    # nothing either way
    rng = random.Random(1010)
    a = build_alphabet("dna")
    x = random_string(rng, b"ACGT", 20)
    p = plan(len(x), 1, a)
    assert (p.mode, p.q) == ("filter", 4)
    idx = build_index(x, p.q, a)
    left, right = idx.halves
    idx.halves = tables = (_Misses(left), _Misses(right))
    for _ in range(6):
        t = bytearray(random_string(rng, b"ACGT", 120))
        plant_edited_rotation(rng, t, x, 1, b"ACGT")
        for _ in range(3):
            t[rng.randrange(len(t))] = ord("N")
        t = bytes(t)
        assert search(t, x, 1, p, idx)[0] == brute_search(t, x, 1)
    assert all(any(b"N" in key for key in half.missed) for half in tables)


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


@pytest.mark.parametrize("x, k", [(b"abcab", 0), (b"abaabb", 2), (b"abcabcbacb", 3)])
def test_verify_all_run_boundaries(x, k):
    # verify-all settles the whole text as one run; at each length the
    # text is the pattern repeated with one substitution, so occurrences
    # sit at every start, the run's last ones included
    m, wlen = len(x), len(x) - k
    fewer = load_mutant(searcher, "hi - lo)", "hi - lo - 1)")
    caught = False
    for n in sorted({wlen - 1, wlen, wlen + 1, 2 * m - 1, 2 * m, 2 * m + 1, 3 * m}):
        t = bytearray((x * 4)[:n])
        t[n // 3] = ord("d")
        t = bytes(t)
        got, stats = search(t, x, k, SearchPlan.verify_all(m, k))
        assert got == brute_search(t, x, k)
        if n >= wlen:
            assert stats.chars_inspected == n
            assert stats.windows_verified == stats.windows_examined == math.ceil((n - wlen + 1) / wlen)
        caught |= fewer.search(t, x, k, SearchPlan.verify_all(m, k))[0] != got
    # where m - k divides n + 1 the run's last start is n - (m - k), the last
    # that fits an occurrence, and a copy that drops the run's last start
    # loses it
    assert caught


def test_filter_runs_of_adjacent_windows():
    # a periodic text with two planted substitutions, broken by stretches
    # of a letter the pattern lacks: adjacent windows verify into runs, and
    # the second run's last start holds (m - k)-letter occurrences that end
    # where the c-stretch begins
    a = build_alphabet("abc")
    x, k = b"ab" * 8, 1
    m = len(x)
    t = b"ba" * 10 + b"bc" + b"ba" * 6 + b"b" + b"c" * 12 + b"ba" * 21 + b"a" + b"c" * 14
    p = plan(m, k, a, epsilon=0.9)
    assert (p.mode, p.q, p.j_grams) == ("filter", 4, 3)
    idx = build_index(x, p.q, a)
    got, stats = search(t, x, k, p, idx)
    assert got == brute_search(t, x, k)
    # isolated windows would read 2m letters each
    assert stats.chars_inspected - p.q * stats.qgrams_read < 2 * m * stats.windows_verified
    # a copy that drops the run's last start loses those occurrences, and so
    # does one whose run slice stops a letter short of them.  The skip that
    # ends a run keeps every factor within k that starts in the run inside
    # t[lo : hi + m - k - 1], so slices ending at hi + m or at hi + m - k
    # give the same output, and no test can tell them from hi + m + k
    fewer = load_mutant(searcher, "hi - lo)", "hi - lo - 1)")
    short = load_mutant(searcher, "tb[lo : hi + m + k]", "tb[lo : hi + m - k - 2]")
    assert fewer.search(t, x, k, p, idx)[0] != got
    assert short.search(t, x, k, p, idx)[0] != got


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


def test_chunked_builds_half_tables_once(monkeypatch):
    built = count_half_tables(monkeypatch)
    a = build_alphabet("abc")
    x, k = b"ab" * 8, 1
    p = plan(len(x), k, a, epsilon=0.9)
    assert p.mode == "filter"
    idx = build_index(x, p.q, a)
    t = b"ba" * 10 + b"bc" + b"ba" * 6 + b"b" + b"c" * 12 + b"ba" * 21
    _, stats = search_chunked(t, x, k, p, idx, chunks=4)
    assert len(built) == 2 and stats.qgrams_read > 0


def test_chunked_builds_one_screen():
    x, k = b"abcabcab", 1
    t = b"abcabcabcaabcbacabcab" * 6
    rotation_screen.cache_clear()
    _, stats = search_chunked(t, x, k, SearchPlan.verify_all(len(x), k), chunks=4)
    info = rotation_screen.cache_info()
    assert info.misses == 1 and info.hits + info.misses == 4 < stats.windows_verified


def test_filter_search_that_verifies_nothing_builds_no_screen():
    # the screen is looked up at the first run of verified windows; a text
    # of one letter the pattern lacks verifies no window
    a = build_alphabet("ACGT")
    x, k = random_string(random.Random(12), b"ACG", 32), 1
    p = plan(len(x), k, a)
    assert p.mode == "filter"
    idx = build_index(x, p.q, a)
    rotation_screen.cache_clear()
    occs, stats = search(b"T" * 500, x, k, p, idx)
    info = rotation_screen.cache_info()
    assert occs == [] and stats.windows_examined > 0 and stats.windows_verified == 0
    assert info.hits == 0 and info.misses == 0
