import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circmatch import IndexBudgetError, QGramIndex, build_alphabet, build_index, qgramindex
from circmatch.reference import (
    brute_force_index,
    build_doubled,
    encode_qgram,
    enumerate_qgrams,
    full_edit_distance,
    rotate,
)
from helpers import count_half_tables, index_budgets, letters_for, load_mutant, random_string


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
    assert idx.entries[encode_qgram("a", ab)] == 0
    assert idx.entries[encode_qgram("b", ab)] == 1
    idx = build_index(b"ab", 1, ab)
    assert idx.entries[encode_qgram("a", ab)] == 0
    assert idx.entries[encode_qgram("b", ab)] == 0


def test_brute_example():
    ab = build_alphabet("ab")
    idx = brute_force_index(b"ab", 2, ab)
    assert idx.entries[encode_qgram("bb", ab)] == 1


@pytest.mark.parametrize("letters, x, q", [
    (b"ab", b"abbab", 1), (b"ab", b"abbab", 3), (b"ab", b"aaaa", 2), (b"abc", b"cabca", 2),
    (b"abc", b"aabc", 3),
])
def test_brute_force_index_matches_factor_definition(letters, x, q):
    # an entry is the least full DP distance from the gram to a factor of
    # x + x[:-1] of length 0..2q, each factor scored on its own
    a = build_alphabet(letters)
    xp = build_doubled(x)
    factors = {xp[i : i + n] for i in range(len(xp)) for n in range(2 * q + 1)}
    idx = brute_force_index(x, q, a)
    for gram in enumerate_qgrams(a, q):
        want = min(full_edit_distance(gram, f).distance for f in factors)
        assert idx.entries[encode_qgram(gram, a)] == want, gram


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
            assert idx.entries[encode_qgram(xp[s : s + q], a)] == 0


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
    kind = draw(st.sampled_from(["repeated", "random", "foreign"]))
    if kind == "repeated":
        x = bytes([draw(st.sampled_from(letters))]) * m
    else:
        # a pattern letter outside the alphabet, as the CLI accepts
        # without --strict, matches no gram letter
        pool = letters + b"N" if kind == "foreign" else letters
        x = bytes(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
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
@example((b"ACGT", b"ACNGTNA", 4))  # foreign letters inside the pattern
@example((b"ACGT", b"NNNACG", 3))  # a foreign run across the rotation seam
@example((b"ACGT", b"NNNNN", 2))  # no pattern letter in the alphabet
def test_build_matches_brute_force_property(case):
    # brute_force_index scores every factor with full_edit_distance, so it
    # shares no kernel with the trie builder
    letters, x, q = case
    a = build_alphabet(letters)
    assert build_index(x, q, a) == brute_force_index(x, q, a)


@pytest.mark.parametrize("letters_per_pass", [1, 2])
def test_split_build_matches_default(monkeypatch, letters_per_pass):
    # lanes are 80 bits wide for the 64-letter pattern at q = 6 and 32 bits
    # for its first 20 letters at q = 4, so ints of 80 * 4^j bits split q = 6
    # into 4^(5 - j) passes of 4^j nodes a level above the grams, and q = 4
    # into 4^(3 - j) passes of 4^j; q = 4 is small enough for brute force
    rng = random.Random(64)
    a = build_alphabet("ACGT")
    x = random_string(rng, b"ACGT", 64)
    whole = build_index(x, 6, a), build_index(x[:20], 4, a)
    monkeypatch.setattr(qgramindex, "PASS_BITS", 80 * a.size**letters_per_pass)
    assert (build_index(x, 6, a), build_index(x[:20], 4, a)) == whole
    assert whole[1] == brute_force_index(x[:20], 4, a)


def test_build_memory_stays_within_pass_budget():
    # at q = 10 and m = 64 a level of 4^9 nodes, 88 bits each, would make
    # 2.9 MB ints; passes keep every int within PASS_BITS, so the build
    # holds little beyond the entries and their bytes copy
    x = random_string(random.Random(10), b"ACGT", 64)
    tracemalloc.start()
    try:
        idx = build_index(x, 10, build_alphabet("ACGT"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(idx.entries) <= 10
    assert peak < 2 * 4**10 + 40 * qgramindex.PASS_BITS // 8


# sha256 of `entries` for seeded DNA patterns, pinned from an earlier
# numpy trie builder; q = 9 splits into 16 passes of 4^6 nodes
ENTRY_DIGESTS = [
    (7, 48, 7, "5d9c58c03915b2dc5a78ffca029828191f0725e834ddeaddd2fa9f92e667e84f"),
    (8, 64, 8, "7a7d8969b091d9f8e72a06e686c004b20c957dd9bcffc5a4702d7c6de37f4995"),
    (9, 40, 9, "79157f11c2b12af2d1d1d89296771b6c6383fdfe00f8b38c4390fc50d6e1a664"),
]


@pytest.mark.parametrize("seed, m, q, digest", ENTRY_DIGESTS)
def test_entries_match_pinned_digest(seed, m, q, digest):
    x = random_string(random.Random(seed), b"ACGT", m)
    assert hashlib.sha256(build_index(x, q, build_alphabet("ACGT")).entries).hexdigest() == digest


@pytest.mark.parametrize(
    "old, new",
    [
        # a deleted gram letter costs one and keeps the column
        pytest.param("<< 1) | prev", "<< 1)", id="no-deletion"),
        # the first gram letter adds one even where it matches a least column
        pytest.param("(e - (hit >> (w - 1)))", "e", id="first-letter-always-adds-one"),
    ],
)
def test_kernel_mutant_fails(old, new):
    mutant = load_mutant(qgramindex, old, new)
    a = build_alphabet("ACGT")
    x = random_string(random.Random(8), b"ACGT", 32)
    assert mutant.build_index(x, 4, a).entries != brute_force_index(x, 4, a).entries
    seed, m, q, digest = ENTRY_DIGESTS[0]
    x = random_string(random.Random(seed), b"ACGT", m)
    assert hashlib.sha256(mutant.build_index(x, q, a).entries).hexdigest() != digest


@pytest.mark.parametrize("m", range(2, 9))
def test_build_matches_brute_force_every_binary_pattern(m):
    # brute_force_index reads all 2m - 1 letters of x + x[:-1], the builder
    # only m + min(m, max(q, 2q - 3)) - 1 of them
    a = build_alphabet("ab")
    for x in map(bytes, itertools.product(b"ab", repeat=m)):
        for q in range(1, m):
            assert build_index(x, q, a) == brute_force_index(x, q, a), (x, q)


# (letters, pattern, q) where one letter less text than the builder reads
# changes an entry, the first found in an exhaustive search over binary
# patterns of up to 8 letters and ternary ones of up to 6; q = 4 needs a
# third letter and the lost factor "cabac", longer than q
SHORTER_TEXT_LOSES = [(b"ab", b"aab", 2), (b"ab", b"aaab", 3), (b"abc", b"abacbc", 4)]


@pytest.mark.parametrize("letters, x, q", SHORTER_TEXT_LOSES)
def test_one_letter_shorter_text_mutant_fails(letters, x, q):
    mutant = load_mutant(
        qgramindex, "min(m, max(q, 2 * q - 3)) - 1]", "min(m, max(q, 2 * q - 3)) - 2]"
    )
    a = build_alphabet(letters)
    want = brute_force_index(x, q, a)
    assert build_index(x, q, a) == want
    assert mutant.build_index(x, q, a).entries != want.entries


def test_entries_bounded_by_q():
    a = build_alphabet("ab")
    idx = build_index(b"abba", 3, a)
    assert max(idx.entries) <= 3


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
            assert idx.entries[encode_qgram(g, a)] <= full_edit_distance(g, h).distance


def test_budget_refusal_reports_requirement():
    a = build_alphabet("abcd")
    with pytest.raises(IndexBudgetError) as exc, index_budgets(1 << 10):
        build_index(b"a" * 40, 10, a)
    assert str(exc.value) == f"4^10 = {4**10} index entries exceed the budget of {1 << 10}"


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
    assert loaded.entries == idx.entries
    blob = idx.to_bytes()
    assert blob.startswith(b"CIRCIDX3")
    assert blob[8] == 4 and blob[9] == 3
    assert blob[10:42] == hashlib.sha256(x).digest()
    assert blob[42:74] == hashlib.sha256(idx.entries).digest()
    assert blob[74:78] == b"ACGT"
    assert len(blob) == 78 + 4**3
    assert type(idx.entries) is bytes and blob[78:] == idx.entries


# saves an index file of 46 + 4^4 bytes with files capped at 100 bytes, so
# the write stops partway with EFBIG, as it would on a full disk
SAVE_UNDER_FILE_SIZE_LIMIT = """
import errno, resource, signal, sys
from circmatch import build_alphabet, build_index
idx = build_index(b"ACGTTGCAAC", 4, build_alphabet("ACGT"))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    idx.save(sys.argv[1])
except OSError as exc:
    sys.exit(errno.errorcode[exc.errno])
"""


def test_save_that_fails_partway_keeps_the_earlier_file(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "cache.idx"
    build_index(b"ACGTTGCAAC", 3, build_alphabet("ACGT")).save(path)
    before = path.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SAVE_UNDER_FILE_SIZE_LIMIT, str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, "EFBIG\n")
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["cache.idx"]


def test_save_under_the_longest_file_name(tmp_path):
    # the new file of a save has a name of its own length, so a target
    # name of 250 bytes, within NAME_MAX, saves and leaves only itself
    idx = build_index(b"ACGTTGCAAC", 3, build_alphabet("ACGT"))
    path = tmp_path / ("i" * 250)
    idx.save(path)
    assert QGramIndex.load(path) == idx and os.listdir(tmp_path) == [path.name]


def test_pattern_digest_is_builtin_sha256():
    # the builtin module, not hashlib, which would load OpenSSL
    assert qgramindex.sha256.__module__ == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    for x in (b"", b"A", b"ACGT" * 33, bytes(range(256)) * 5):
        assert qgramindex.pattern_digest(x) == hashlib.sha256(x).digest()


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
        pytest.param(b"CIRCIDX3", id="magic-only"),
        pytest.param(_cache_blob()[:76], id="cut-inside-letters"),
        pytest.param(_cache_blob()[:9] + b"\x00" + _cache_blob()[10:], id="q-zero"),
        pytest.param(_cache_blob()[:74] + b"AACC" + _cache_blob()[78:], id="duplicate-letters"),
        pytest.param(_cache_blob()[:-1] + b"\x04", id="entry-above-q"),
        pytest.param(b"CIRCIDX1\x04\x03ACGT" + bytes(64), id="old-layout"),
        # the previous layout, without the entries digest, on its own magic
        pytest.param(b"CIRCIDX2" + _cache_blob()[8:42] + _cache_blob()[74:], id="previous-layout"),
        # an entry lowered or raised inside [0, q], which only the digest catches
        pytest.param(
            _cache_blob()[:-1] + bytes([(_cache_blob()[-1] + 1) % 4]), id="entry-within-q"
        ),
        pytest.param(_cache_blob()[:42] + bytes(32) + _cache_blob()[74:], id="entries-digest"),
    ],
)
def test_from_bytes_rejects_corrupt_header(blob):
    with pytest.raises(ValueError):
        QGramIndex.from_bytes(blob)


@pytest.mark.parametrize("sigma", [2, 3, 4, 5, 20])
@pytest.mark.parametrize("q", range(1, 7))
def test_halves_split_the_reference_code(sigma, q):
    # a gram's code is left[g[:q // 2]] + right[g[q // 2:]], so its entry is
    # entries[left + right]; equal codes give equal entries for any index
    letters = letters_for(sigma)
    a = build_alphabet(letters)
    left, right = qgramindex.half_tables(a, q)
    h = q // 2
    assert len(left) == sigma**h and len(right) == sigma ** (q - h)
    if sigma**q <= 20**4:
        grams = itertools.product(letters, repeat=q)
    else:
        # 20^5 and 20^6 grams are too many to walk: every half is still
        # checked, each left half against 3 right halves and back
        rng = random.Random(q)
        lefts, rights = list(left), list(right)
        grams = [lh + rh for lh in lefts for rh in rng.sample(rights, 3)]
        grams += [lh + rh for rh in rights for lh in rng.sample(lefts, 3)]
    for g in map(bytes, grams):
        assert left[g[:h]] + right[g[h:]] == encode_qgram(g, a)


def test_halves_miss_a_foreign_letter_on_either_side():
    a = build_alphabet("ACGT")
    left, right = qgramindex.half_tables(a, 4)
    assert b"AN" not in left and b"NA" not in left and b"AN" not in right
    assert left[b"CA"] + right[b"GT"] == encode_qgram(b"CAGT", a)


def test_halves_built_once_per_index(monkeypatch):
    # the tables depend on (alphabet, q) alone: another pattern of that
    # alphabet and q, and a copy read back from the cache bytes, reuse them
    built = count_half_tables(monkeypatch)
    a = build_alphabet("ACGT")
    idx = build_index(b"ACGTTGCAAC", 4, a)
    tables = qgramindex.half_tables(idx.alphabet, idx.q)
    assert len(built) == 2
    other = build_index(b"TTGACCATGA", 4, build_alphabet("ACGT"))
    copy = QGramIndex.from_bytes(idx.to_bytes())
    for index in (idx, other, copy):
        assert qgramindex.half_tables(index.alphabet, index.q) is tables
    assert len(built) == 2
    qgramindex.half_tables(a, 3)
    assert len(built) == 4
