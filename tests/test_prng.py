from circmatch._prng import mix64, random_letters, splitmix64_at


def test_known_first_output():
    # standard splitmix64 sequence from state 0
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert splitmix64_at(0, 0, 0) == 0xE220A8397B1DCDAF


def test_vector_matches_scalar():
    # letter i of random_letters is output i of the documented formula,
    # reduced mod sigma
    for sigma in (2, 4, 20, 255):
        letters = random_letters(12345, 7, 300, sigma)
        assert len(letters) == 300
        for i, letter in enumerate(letters):
            assert letter == splitmix64_at(12345, 7, i) % sigma, (sigma, i)


def test_block_dtype():
    # the letters come back as bytes, one byte per letter, and an empty
    # request gives empty bytes
    letters = random_letters(1, 2000, 64, 255)
    assert type(letters) is bytes
    assert len(letters) == 64
    assert max(letters) < 255
    assert random_letters(1, 2000, 0, 4) == b""


def test_letters_deterministic_and_in_range():
    a = random_letters(99, 3, 1000, 4)
    b = random_letters(99, 3, 1000, 4)
    assert a == b
    assert set(a) <= {0, 1, 2, 3}
    assert random_letters(99, 4, 1000, 4) != a
