import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotdyn.words import (
    BINARY,
    Alphabet,
    PrefixStream,
    Word,
    complexity,
    complexity_bruteforce,
    complexity_profile,
    empirical_frequencies,
    entropy_estimate,
    morse_hedlund_witness,
    sturmian_check,
)


def w(text, alphabet=BINARY):
    return alphabet.word(text)


class TestAlphabet:
    def test_requires_two_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("0",))

    def test_requires_distinct(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_lex(self):
        ab = Alphabet(("x", "y", "z"))
        assert [ab.lex(s) for s in "xyz"] == [0, 1, 2]
        with pytest.raises(ValueError):
            ab.lex("w")

    def test_at_most_256_symbols(self):
        assert Alphabet(tuple(range(256))).size == 256
        with pytest.raises(ValueError):
            Alphabet(tuple(range(257)))

    def test_multichar_roundtrip(self):
        ab = Alphabet(("aa", "b"))
        word = ab.word("aa,b,aa")
        assert str(word) == "aa,b,aa"
        assert tuple(word.letters) == (0, 1, 0)


class TestWordInput:
    TERNARY = Alphabet(("0", "1", "2"))

    def test_bytes_taken_as_is(self):
        assert Word(self.TERNARY, b"\x00\x02\x01").letters == b"\x00\x02\x01"
        word = Word(self.TERNARY, bytearray(b"\x01\x00"))
        assert type(word.letters) is bytes and str(word) == "10"

    def test_other_iterables_read_through_int(self):
        assert Word(self.TERNARY, (0, 2, 1)) == Word(self.TERNARY, b"\x00\x02\x01")
        assert Word(self.TERNARY, ["1", True, 0]).letters == b"\x01\x01\x00"
        assert Word(self.TERNARY, iter(range(3))).letters == b"\x00\x01\x02"

    def test_int_is_not_a_word(self):
        # bytes(5) would be five zero letters
        with pytest.raises(TypeError):
            Word(self.TERNARY, 5)

    @pytest.mark.parametrize("letters", [
        (0, -1), (3,), (256,), (0, 1000), b"\x00\x03", bytearray(b"\xff"),
    ])
    def test_out_of_range(self, letters):
        with pytest.raises(ValueError, match="letter index out of range"):
            Word(self.TERNARY, letters)

    def test_letter_256_of_largest_alphabet(self):
        big = Alphabet(tuple(range(256)))
        assert Word(big, (255, 0)).letters == b"\xff\x00"
        with pytest.raises(ValueError, match="letter index out of range"):
            Word(big, (256,))

    def test_non_integer_letters(self):
        with pytest.raises(ValueError, match="invalid literal"):
            Word(self.TERNARY, ("a",))

    def test_str_and_tokens(self):
        greek = Alphabet(("α", "β"))
        assert str(Word(greek, (1, 0))) == "βα"
        multi = Alphabet(("aa", "b"))
        assert str(Word(multi, (1, 0))) == "b,aa"
        assert Word(multi, (1, 0)).tokens() == ["b", "aa"]


class TestComplexity:
    def test_constant(self):
        assert complexity(w("0" * 50), 7) == 1

    def test_both_letters(self):
        assert complexity(w("0110"), 1) == 2

    @pytest.mark.parametrize("n", [0, 5])
    def test_length_out_of_range(self, n):
        # the profile owns the range check, and complexity keeps its message
        with pytest.raises(ValueError, match="^factor length out of range$"):
            complexity(w("0110"), n)

    def test_matches_bruteforce_small(self):
        word = w("01001010010010100101")
        for n in range(1, len(word) + 1):
            assert complexity(word, n) == complexity_bruteforce(word, n)

    def test_profile_matches_pointwise(self):
        word = w("0100101001001")
        prof = complexity_profile(word, len(word))
        for n in range(1, len(word) + 1):
            assert prof.values[n - 1] == complexity_bruteforce(word, n)

    @pytest.mark.parametrize("size", [16, 17, 256])
    def test_profile_large_alphabets(self, size):
        # more than 16 letters switches to sparse transition tables
        ab = Alphabet(tuple(range(size)))
        rng = random.Random(size)
        for length in (300, 2000):
            pool = rng.sample(range(size), min(size, 40))
            word = Word(ab, bytes(rng.choice(pool[: rng.randint(17, 40)]) for _ in range(length)))
            prof = complexity_profile(word, 30)
            assert prof.values == tuple(complexity_bruteforce(word, n) for n in range(1, 31))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=120), st.data())
def test_complexity_bounds_property(letters, data):
    word = Word(BINARY, tuple(letters))
    n = data.draw(st.integers(1, len(word)))
    p = complexity(word, n)
    assert 1 <= p <= min(2**n, len(word) - n + 1)
    assert p == complexity_bruteforce(word, n)


class TestEntropy:
    def test_constant_zero(self):
        assert entropy_estimate(w("0" * 40), 10) == 0.0

    def test_full_complexity_one(self):
        # de Bruijn-ish: all 4 binary factors of length 2 present
        word = w("00110")
        assert entropy_estimate(word, 2) == 1.0


class TestFrequencies:
    def test_exact_counts(self):
        assert empirical_frequencies(w("01001")) == (Fraction(3, 5), Fraction(2, 5))

    def test_symmetric(self):
        assert empirical_frequencies(w("0101")) == (Fraction(1, 2), Fraction(1, 2))

    def test_sum_to_one(self):
        ab = Alphabet(("0", "1", "2"))
        word = ab.word("0120210")
        assert sum(empirical_frequencies(word)) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            empirical_frequencies(Word(BINARY, ()))


class TestClassification:
    def test_periodic_witness(self):
        assert morse_hedlund_witness(w("01" * 50)) == 2

    def test_constant_not_sturmian(self):
        assert sturmian_check(w("0" * 10), 1) is False

    def test_sturmian_needs_long_prefix(self):
        with pytest.raises(ValueError):
            sturmian_check(w("0101"), 50)


class TestPrefixStream:
    FIB_IMAGES = (b"\x00\x01", b"\x00")

    def test_deterministic_and_extendable(self):
        stream = PrefixStream(BINARY, self.FIB_IMAGES, 0)
        first = stream.prefix(5)
        longer = stream.prefix(9)
        assert str(longer) == "010010100"
        assert longer.letters[:5] == first.letters
        assert stream.prefix(5).letters == first.letters
        assert stream.prefix(0).letters == b""

    def test_finite_fixed_point_rejected(self):
        # sigma(0) = 0 gives the finite word 0, sigma(1) = 0 does not start
        # with 1, and 2 is no letter
        for images, letter in [((b"\x00", b"\x01"), 0), (self.FIB_IMAGES, 1), (self.FIB_IMAGES, 2)]:
            with pytest.raises(ValueError):
                PrefixStream(BINARY, images, letter)

    def test_images_validated(self):
        for images in [(b"\x00\x01",), (b"\x00\x01", b""), (b"\x00\x02", b"\x00")]:
            with pytest.raises(ValueError):
                PrefixStream(BINARY, images, 0)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            PrefixStream(BINARY, self.FIB_IMAGES, 0).prefix(-1)

    def test_concurrent_readers_agree(self):
        stream = PrefixStream(BINARY, self.FIB_IMAGES, 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                lengths = [50_000, 1_000, 200_000, 7] * 4
                results = list(pool.map(stream.prefix, lengths, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        longest = max(results, key=len)
        assert all(longest.letters.startswith(r.letters) for r in results)
        assert longest == PrefixStream(BINARY, self.FIB_IMAGES, 0).prefix(200_000)

    def test_seeded_prefixes_match_string_substitution(self):
        # slow growth (most images one letter) makes the unexpanded tail short
        rng = random.Random(18)
        for _ in range(400):
            size = rng.randint(2, 4)
            rules = [[rng.randrange(size) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
                     for _ in range(size)]
            rules[0] = [0] + rules[0][: rng.randint(1, 2)]
            alphabet = Alphabet(tuple(str(i) for i in range(size)))
            # sigma^(2^j) by string substitution, each image cut at 3000
            images = power = ["".join(map(str, img)) for img in rules]
            while len(power[0]) < 3000:
                power = ["".join(power[int(c)] for c in img)[:3000] for img in power]
            stream = PrefixStream(alphabet, [bytes(img) for img in rules], 0)
            for length in sorted(rng.randrange(3000) for _ in range(4)) + [3000]:
                assert str(stream.prefix(length)) == power[0][:length], images
