import contextlib
import hashlib
import math
import random
import re

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
)
from circmatch import qgramindex, searcher
from circmatch._prng import random_letters
from circmatch.bitparallel import rotation_screen
from circmatch.reference import filter_scan, oracle_search, rotate
from circmatch.searcher import d_exponent
from helpers import (
    brute_search,
    count_half_tables,
    index_budgets,
    letters_for,
    load_mutant,
    plant_edited_rotation,
    random_string,
    search_in_pieces,
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


# plan keywords of the pinned grid, each with the (entries, work) index
# budgets it plans under, or None for the modules' own: default plans at two
# epsilons and two budgets, and plans with c given
PLAN_GRID = [
    ({}, None),
    ({"epsilon": 0.9}, None),
    ({}, (1 << 14, 1 << 22)),
    ({"c": 0.2}, None),
    ({"c": 0.4}, None),
]
# sha256 of the grid's plans, from the planner that iterated q to a fixed
# point before sweeping it down
PLAN_GRID_DIGEST = "f340d8105c5bddb54b20ae872f09336be51078a97d385c669debb1b226e67378"


def plan_grid_digest(planner) -> str:
    """sha256 of (mode, q, c, j_grams), or the error's class name, of every
    plan of `planner`, the searcher module or a mutant of it, over sigma in
    {2, 4, 8, 20}, m in 2..40 and {64, 100, 128, 256}, k < min(m, 10) and
    PLAN_GRID."""
    h = hashlib.sha256()
    for sigma in (2, 4, 8, 20):
        a = build_alphabet(letters_for(sigma))
        for m in [*range(2, 41), 64, 100, 128, 256]:
            for k in range(min(m, 10)):
                for kwargs, budgets in PLAN_GRID:
                    budgeted = (
                        index_budgets(*budgets, planner=planner)
                        if budgets
                        else contextlib.nullcontext()
                    )
                    try:
                        with budgeted:
                            p = planner.plan(m, k, a, **kwargs)
                        row = (p.mode, p.q, p.c, p.j_grams)
                    except ValueError as exc:
                        row = type(exc).__name__
                    h.update(repr(row).encode())
    return h.hexdigest()


def test_plans_match_pinned_digest():
    assert plan_grid_digest(searcher) == PLAN_GRID_DIGEST
    # a copy whose sweep drops the asymptotic bound takes the largest q the
    # caps allow
    mutant = load_mutant(
        searcher,
        "        if q is None and qv > math.ceil(top / (math.log(sigma) * dv)):\n"
        "            continue\n",
        "",
    )
    a = build_alphabet("abcd")
    assert (plan(17, 0, a).q, mutant.plan(17, 0, a).q) == (7, 8)
    assert plan_grid_digest(mutant) != PLAN_GRID_DIGEST


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


EXPONENT_NOT_POSITIVE = "difference-rate exponent d(c=0.900) = -0.3690 is not positive"


@pytest.mark.parametrize(
    "m, k, sigma, kwargs, message",
    [
        (8, 8, 2, {}, "threshold k=8 must satisfy 0 <= k < m=8"),
        (8, -1, 2, {}, "threshold k=-1 must satisfy 0 <= k < m=8"),
        (8, 0, 2, {"epsilon": 1.0}, "epsilon must lie in (0, 1), got epsilon=1.0"),
        (8, 0, 2, {"c": 1.5}, "c must lie in (0, 1), got c=1.5"),
        (8, 0, 2, {"q": 8}, "q must satisfy 1 <= q < m, got q=8"),
        (64, 0, 20, {"q": 7}, "sigma^q = 1280000000 exceeds the index budget 67108864"),
        # with q and c given, the entry budget is checked before d(c)
        (64, 2, 4, {"q": 14, "c": 0.9}, "sigma^q = 268435456 exceeds the index budget 67108864"),
        (64, 2, 4, {"q": 6, "c": 0.9}, EXPONENT_NOT_POSITIVE),
        (64, 2, 4, {"c": 0.9}, EXPONENT_NOT_POSITIVE),
        (40, 2, 4, {"q": 10, "c": 0.1}, "window m-k = 38 cannot hold 2q + k/c = 40.0"),
        (64, 2, 4, {"q": 40}, "eps*m - k - q = 0.5*64 - 2 - 40 = -10 is not positive"),
        # with q given alone, the search for c is checked before the budget
        (10, 2, 20, {"q": 7}, "eps*m - k - q = 0.5*10 - 2 - 7 = -4 is not positive"),
        # a given c that no q pairs with: the reason at q = 1, the last q swept
        (12, 3, 4, {"c": 0.05}, "window m-k = 9 cannot hold 2q + k/c = 62.0"),
        (
            20, 4, 4, {"q": 6, "epsilon": 0.9},
            "no c on the 0.01 grid in [0.5, 1) lets the window m-k = 16 hold 2q + k/c at q = 6",
        ),
    ],
)
def test_plan_error_messages(m, k, sigma, kwargs, message):
    with pytest.raises(PlanError) as err:
        plan(m, k, build_alphabet(letters_for(sigma)), **kwargs)
    assert str(err.value) == message


# one template for each condition that can leave a plan without a q;
# "no filter plan: " leads the message where the plan would verify all
PLAN_RULES = {
    "eps*m - k - q": r"eps\*m - k - q = [\d.]+\*\d+ - \d+ - \d+ = -?\d+(\.\d+)? is not positive",
    "grid": (
        r"no c on the 0\.01 grid in \[\d+(\.\d+)?, [\d.]+\) lets the window "
        r"m-k = \d+ hold 2q \+ k/c at q = \d+"
    ),
    "entries": r"sigma\^q = \d+ exceeds the index budget \d+",
    "d(c)": r"difference-rate exponent d\(c=[\d.]+\) = -?[\d.]+ is not positive",
    "window": r"window m-k = \d+ cannot hold 2q \+ k/c = [\d.]+",
    "short window": r"window m-k = \d+ is shorter than 2q \+ 1 = 3 at q = 1",
    "work": r"build work sigma\^q \(2m-q\)\(2q\+1\) sigma at q = 1 exceeds MAX_WORK = \d+",
}


def test_plan_errors_over_the_grid_name_one_rule():
    # the pinned grid's cases, each also with fallback=False and with q
    # given: every PlanError names exactly one rule, and every rule is seen
    seen = dict.fromkeys(PLAN_RULES, 0)
    for sigma in (2, 4, 8, 20):
        a = build_alphabet(letters_for(sigma))
        for m in [*range(2, 41), 64, 100, 128, 256]:
            for k in range(min(m, 10)):
                for kwargs, budgets in PLAN_GRID:
                    tries = [{"fallback": False}, *({"q": q} for q in (1, 2, 4, 7, 12) if q < m)]
                    if "c" in kwargs:
                        tries.append({})
                    for extra in tries:
                        try:
                            with index_budgets(*budgets) if budgets else contextlib.nullcontext():
                                plan(m, k, a, **kwargs, **extra)
                        except PlanError as exc:
                            message = str(exc).removeprefix("no filter plan: ")
                            rules = [r for r, t in PLAN_RULES.items() if re.fullmatch(t, message)]
                            assert len(rules) == 1, (sigma, m, k, kwargs, extra, str(exc))
                            seen[rules[0]] += 1
    # the work budget leaves no q to sweep only past m = 1748 at sigma = 20,
    # which the next test reaches by a smaller budget
    assert all(n for rule, n in seen.items() if rule != "work"), seen


def test_plan_without_fallback_names_why_no_q_was_left():
    a = build_alphabet("abcd")
    assert plan(64, 2, a, fallback=False) == plan(64, 2, a)
    # a build-work budget of 1 leaves no q to sweep
    with index_budgets(1 << 14, 1), pytest.raises(PlanError) as err:
        plan(64, 2, a, fallback=False)
    assert str(err.value) == (
        "no filter plan: build work sigma^q (2m-q)(2q+1) sigma at q = 1 exceeds MAX_WORK = 1"
    )


def test_plan_given_c_with_no_room_for_a_gram_verifies_all():
    # the window of 2 letters holds no 2q + k/c, so the plan verifies every
    # window before it looks at c, although d(0.9) <= 0 at sigma = 2
    assert plan(4, 2, build_alphabet("ab"), c=0.9) == SearchPlan.verify_all(4, 2)


def test_one_letter_alphabet_verifies_all_windows():
    a = build_alphabet("A")
    p = plan(2, 0, a)
    assert p == SearchPlan.verify_all(2, 0)
    got, _ = search(b"AAAA", b"AA", 0, p)
    assert got == brute_search(b"AAAA", b"AA", 0) and len(got) == 6
    # d = -inf at sigma = 1, so a given q or c is refused
    not_positive = "difference-rate exponent d(c={}) = -inf is not positive"
    for kwargs, message in [
        ({"q": 2}, not_positive.format("0.010")),
        ({"q": 2, "c": 0.1}, not_positive.format("0.100")),
        ({"c": 0.1}, not_positive.format("0.100")),
    ]:
        with pytest.raises(PlanError) as err:
            plan(8, 0, a, **kwargs)
        assert str(err.value) == message


def test_window_that_holds_2q_plus_k_over_c_holds_j_grams():
    # J q = q + q ceil(k / (c q)) < 2q + k/c, so the window check on
    # 2q + k/c implies that the J grams fit: checked here in floating point
    # on the c grid, and at some given c
    grid = [i / 100 for i in range(1, 100)] + [0.123456789, 1 / 3, 0.999999]
    for m in [*range(2, 65), 100, 128, 256]:
        for k in range(1, m):
            wlen = m - k
            for c in grid:
                q = 1
                while 2 * q + k / c <= wlen:
                    assert searcher._grams_per_window(k, c, q) * q <= wlen, (m, k, q, c)
                    q += 1


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


# (path, text, occurrences): seeded DNA texts with a rotation of
# GGCGAACTTGGTCACCCCGA planted whose letter N sits in an otherwise encodable
# gram, read first by its window in the first text and after the window's
# first gram in the second; the plan reads three 4-grams at k = 1
FOREIGN_INSIDE = [
    ("first", b"AGTATCTGATGAGATGATCACCGAGAGCCGGGGCGAGGAAGATGTACGGATACTTTCCGCACAGG"
     b"GACTAGGTTGCGAACTTGGNCACCCCGAGCGAT", [Occurrence(74, 20, 1, 1)]),
    ("later", b"GCGGCACTTGTGAAGTGTTCCCCACGCCGCTTGGGTCTTCTGTGTGCNAACTTGGTCACCCCGAGGTTCGCGTGGTG",
     [Occurrence(45, 20, 1, 1), Occurrence(46, 20, 2, 1)]),
]
# per path, a copy of `search` that charges a gram whose half lookup misses
# its full q on that path
CHARGED = {
    "first": ("ssum = 0  # a foreign letter", "ssum = q  # a foreign letter"),
    "later": ("except KeyError:\n                pass", "except KeyError:\n                ssum += q"),
}


def test_filter_scan_foreign_letter_inside_occurrence():
    a = build_alphabet("dna")
    x = b"GGCGAACTTGGTCACCCCGA"
    p = plan(len(x), 1, a)
    assert (p.mode, p.q, p.j_grams) == ("filter", 4, 3)
    idx = build_index(x, p.q, a)
    for path, t, want in FOREIGN_INSIDE:
        got, _ = search(t, x, 1, p, idx)
        assert got == brute_search(t, x, 1) == want
        # N costs that gram one edit, not q: a copy that charges it q on the
        # path that reads it sums past k and skips the occurrence (taking
        # the half that holds N as any one code loses nothing here)
        charged = load_mutant(searcher, *CHARGED[path])
        assert charged.search(t, x, 1, p, idx)[0] != got, path


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


def test_filter_scan_foreign_letters_on_both_sides_of_the_split(monkeypatch):
    # N planted in and around edited rotations lands in the left half of
    # some grams read and in the right half of others; filtration loses
    # nothing either way
    rng = random.Random(1010)
    a = build_alphabet("dna")
    x = random_string(rng, b"ACGT", 20)
    p = plan(len(x), 1, a)
    assert (p.mode, p.q) == ("filter", 4)
    idx = build_index(x, p.q, a)
    tables = tuple(map(_Misses, qgramindex.half_tables(a, p.q)))
    monkeypatch.setattr(qgramindex, "half_tables", lambda *_: tables)
    for _ in range(6):
        t = bytearray(random_string(rng, b"ACGT", 120))
        plant_edited_rotation(rng, t, x, 1, b"ACGT")
        for _ in range(3):
            t[rng.randrange(len(t))] = ord("N")
        t = bytes(t)
        assert search(t, x, 1, p, idx)[0] == brute_search(t, x, 1)
    assert all(any(b"N" in key for key in half.missed) for half in tables)


# (path, letters, x, k, q, c, t): filter plans where a skip lands exactly
# on an occurrence start, found by a seeded search over texts with planted
# rotations; `path` is the path of the window loop that makes that skip,
# on the window's first gram or after a later one
SKIP_LANDINGS = [
    ("first", "ab", b"aabbaaabbbba", 0, 5, 0.01,
     b"abbbbaaaabbaaabbbbbbaabbaaabbbbaababbaabaaaabbbbaaabbbabbbaaabbaa"),
    ("first", "abcd", b"cdacacdaabcbcdaacdcb", 0, 4, 0.01,
     b"bdaadabababdddddddacacdaabcbcdaacdcbcbbcdaabcbcdaacdcbcdacabcdacaaa"),
    ("first", "abcd", b"cdbacaccbababdabdbbabb", 1, 5, 0.2,
     b"dbdbabbbbbdcdabdbbabbcdbacaccbababbacdcbaabdabdbbabbcdbacacadcabacbadbbacb"),
    ("later", "abcd", b"dbacbabadaadbdbcaacc", 1, 4, 0.2,
     b"cacacacbababdaadbdbcaaccdbadbacbabadabadbdbcaaccaabbbddadaaaccacdbadddabcdacdcdcbad"),
    ("first", "abcd", b"baadbabcbcdbadabccdcbdbd", 1, 5, 0.17,
     b"dddaadaddccdbacddccbbcbcdbadabccdcbdbdbaadbabbdcddbcdacaccaacccdccdbcacb"),
]
# per path, a copy of `search` whose skip on that path is one letter longer
LONGER = {
    "first": ("g0 += fast\n", "g0 += fast + 1\n"),
    "later": ("g0 = g + fast\n", "g0 = g + fast + 1\n"),
}


@pytest.mark.parametrize(
    "path, letters, x, k, q, c, t", SKIP_LANDINGS,
    ids=[f"sigma{len(c[1])}-m{len(c[2])}-k{c[3]}" for c in SKIP_LANDINGS],
)
def test_search_skip_landing_on_occurrence_start(path, letters, x, k, q, c, t):
    a = build_alphabet(letters)
    p = plan(len(x), k, a, q=q, c=c)
    idx = build_index(x, q, a)
    got, stats = search(t, x, k, p, idx, collect_skips=True)
    assert got == brute_search(t, x, k)
    starts = {o.start for o in got}
    # a skip past the first gram alone is the longest, m - k - q + 1
    fast = p.window_len - q + 1
    assert any(
        pos + shift in starts and (shift == fast) == (path == "first")
        for pos, shift in stats.skips
    )
    # a copy whose skip on that path is one letter longer passes over that start
    longer = load_mutant(searcher, *LONGER[path])
    assert longer.search(t, x, k, p, idx)[0] != got


def _run(t, x, k, sigma, entries=1 << 14, work=1 << 22, **kw):
    a = build_alphabet(letters_for(sigma))
    with index_budgets(entries, work):
        p = plan(len(x), k, a)
        idx = build_index(x, p.q, a) if p.mode == "filter" else None
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
    with index_budgets(256, 1 << 20):
        p = plan(m, k, a, epsilon=epsilon)
        idx = build_index(x, p.q, a) if p.mode == "filter" else None
    if p.mode == "filter":
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
        with index_budgets(1 << 14, 1 << 22):
            p = plan(m, k, a)
            idx = build_index(x, p.q, a) if p.mode == "filter" else None
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
        with index_budgets(1 << 14, 1 << 22):
            p = plan(m, k, a)
            idx = build_index(x, p.q, a) if p.mode == "filter" else None
        got, _ = search(t, x, k, p, idx)
        ref = oracle_search(t, x, k)
        assert got == ref and ref  # the planted rotation guarantees a hit


# sha256 of the SearchStats, skips included, of the filter searches of a
# seeded grid, computed with the window loop that counted window by window
SCAN_GRID_DIGEST = "3bcb7bce63802f86eabbad98273692bb68bb068ad377e899c0de76de5660584d"


def test_scan_counters_match_pinned_digest():
    # the sublinear counters of the filter never change unnoticed: texts of
    # 20 000 letters at sigma in {2, 4, 20}, m in {32, 64, 128}, k = m/32
    # and m/16, under the plans of `plan`
    h = hashlib.sha256()
    for sigma in (2, 4, 20):
        a = build_alphabet(bytes(range(sigma)))
        t = random_letters(24, sigma, 20_000, sigma)
        for m in (32, 64, 128):
            x = random_letters(24, 100 + m, m, sigma)
            for k in (m // 32, m // 16):
                p = plan(m, k, a)
                if p.mode == "filter":
                    _, stats = search(t, x, k, p, build_index(x, p.q, a), collect_skips=True)
                    h.update(repr((m, k, p.q, stats)).encode())
    assert h.hexdigest() == SCAN_GRID_DIGEST


@st.composite
def scan_cases(draw):
    """(alphabet, x, t, plan): filter plans of any q and J that the window
    holds, over texts that may hold the foreign letter z and may be
    shorter than the window."""
    letters = letters_for(draw(st.sampled_from([2, 4])))
    m = draw(st.integers(2, 16))
    k = draw(st.integers(0, m // 3))
    q = draw(st.integers(1, min(4, m - 1, m - k)))
    j_grams = draw(st.integers(1, (m - k) // q))
    x = bytes(draw(st.lists(st.sampled_from(letters), min_size=m, max_size=m)))
    t = bytes(draw(st.lists(st.sampled_from(letters + b"z"), max_size=80)))
    p = SearchPlan("filter", m, k, 0.5, q, 0.5, 0.1, j_grams)
    return build_alphabet(letters), x, t, p


# (alphabet, x, t, plan) cases that between them read z in a window's first
# gram and in a later one, skip on a first gram and after a later one,
# verify J-capped windows (all J grams read, their sum within k), and
# examine a window that ends at the text's end; the last text is shorter
# than the window.  `search` reads no c or d from a plan
SCAN_EXAMPLES = [
    (build_alphabet("ab"), b"aaaaaaaa", b"bbbbbbbbbbbbzbbbaabaaaaaaabbbbbbbbab",
     SearchPlan("filter", 8, 1, 0.5, 2, 0.5, 0.1, 3)),
    (build_alphabet("abcd"), b"abcdabcdabcd", b"ddddddddddddabcdabzdabcdbbbbbbbbcabcdab",
     SearchPlan("filter", 12, 2, 0.5, 3, 0.5, 0.1, 3)),
    (build_alphabet("ab"), b"abaabb", b"abaab", SearchPlan("filter", 6, 0, 0.5, 2, 0.5, 0.1, 3)),
]


def _scan_counters(search_fn, case):
    """(windows_examined, windows_verified, qgrams_read, skips) of
    `search_fn` on the case, and of the reference scan."""
    a, x, t, p = case
    idx = build_index(x, p.q, a)
    _, stats = search_fn(t, x, p.k, p, idx, collect_skips=True)
    return (*stats[:3], stats.skips), filter_scan(t, p, idx)


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example(SCAN_EXAMPLES[0])
@example(SCAN_EXAMPLES[1])
@example(SCAN_EXAMPLES[2])
def test_scan_counters_match_reference(case):
    got, want = _scan_counters(search, case)
    assert got == want


def test_scan_counter_reference_catches_miscounted_first_gram_runs():
    # a copy of `search` that counts each run of windows skipped on their
    # first gram one window too many differs from the reference
    miscount = load_mutant(searcher, "ran = (g0 - run) // fast", "ran = (g0 - run) // fast + 1")
    counters = [_scan_counters(miscount.search, case) for case in SCAN_EXAMPLES]
    assert any(got != want for got, want in counters)


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
        with index_budgets(1 << 14, 1 << 22):
            p = plan(m, k, a)
            idx = build_index(x, p.q, a) if p.mode == "filter" else None
        single, _ = search(t, x, k, p, idx)
        pieces, _ = search_in_pieces(t, x, k, p, idx, pieces=4)
        assert pieces == single


def test_chunked_builds_half_tables_once(monkeypatch):
    built = count_half_tables(monkeypatch)
    a = build_alphabet("abc")
    x, k = b"ab" * 8, 1
    p = plan(len(x), k, a, epsilon=0.9)
    assert p.mode == "filter"
    idx = build_index(x, p.q, a)
    t = b"ba" * 10 + b"bc" + b"ba" * 6 + b"b" + b"c" * 12 + b"ba" * 21
    _, stats = search_in_pieces(t, x, k, p, idx, pieces=4)
    assert len(built) == 2 and sum(st.qgrams_read for st in stats) > 0


def test_chunked_builds_one_screen():
    x, k = b"abcabcab", 1
    t = b"abcabcabcaabcbacabcab" * 6
    rotation_screen.cache_clear()
    _, stats = search_in_pieces(t, x, k, SearchPlan.verify_all(len(x), k), pieces=4)
    info = rotation_screen.cache_info()
    verified = sum(st.windows_verified for st in stats)
    assert info.misses == 1 and info.hits + info.misses == 4 < verified


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
