import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmatch import AlphabetError, build_alphabet
from circmatch.reference import decode_qgram, encode_qgram, enumerate_qgrams


def test_dna_preset():
    a = build_alphabet("dna")
    assert a.size == 4
    assert [a.rank(ch) for ch in "ACGT"] == [0, 1, 2, 3]


def test_explicit_order():
    a = build_alphabet("ab")
    assert a.size == 2
    assert a.rank("a") == 0 and a.rank("b") == 1


def test_auto_preset():
    a = build_alphabet("auto", data=(b"bca", b"ddd"))
    assert a.letters == b"abcd"


def test_duplicate_letter_rejected():
    with pytest.raises(AlphabetError):
        build_alphabet("aa")


def test_empty_rejected():
    with pytest.raises(AlphabetError):
        build_alphabet("")


def test_one_letter_accepted():
    a = build_alphabet("A")
    assert a.size == 1 and a.rank("A") == 0 and a.rank("B") is None


def test_unrank_roundtrip():
    a = build_alphabet("dna")
    for r in range(a.size):
        assert a.rank(a.letters[r]) == r


def test_encode_examples():
    ab = build_alphabet("ab")
    assert encode_qgram("aa", ab) == 0
    assert encode_qgram("ba", ab) == 2
    assert encode_qgram("abab", build_alphabet("abcd")) == 17


def test_encode_foreign_letter_is_signalled():
    ab = build_alphabet("ab")
    assert encode_qgram("ax", ab) is None


def test_enumerate_small():
    ab = build_alphabet("ab")
    assert list(enumerate_qgrams(ab, 1)) == [b"a", b"b"]
    assert list(enumerate_qgrams(ab, 2)) == [b"aa", b"ab", b"ba", b"bb"]
    grams4 = list(enumerate_qgrams(build_alphabet("abcd"), 2))
    assert len(grams4) == 16
    assert grams4[5] == b"bb"


def test_enumerate_budget_refusal():
    ab = build_alphabet("ab")
    with pytest.raises(AlphabetError):
        list(enumerate_qgrams(ab, 20, max_count=1000))


@settings(max_examples=100)
@given(st.integers(2, 6), st.integers(1, 4), st.data())
def test_encode_decode_roundtrip(sigma, q, data):
    a = build_alphabet(bytes(range(97, 97 + sigma)))
    gram = bytes(data.draw(st.sampled_from(a.letters)) for _ in range(q))
    code = encode_qgram(gram, a)
    assert code is not None
    assert decode_qgram(code, q, a) == gram


def test_enumeration_matches_encoding_order():
    a = build_alphabet("abc")
    for j, gram in enumerate(enumerate_qgrams(a, 3)):
        assert encode_qgram(gram, a) == j
