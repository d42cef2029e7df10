import math
import random
from fractions import Fraction
from itertools import product

import pytest

import pisotdyn.crystal as crystal
from pisotdyn.crystal import (
    MAX_N,
    MIDDLE_THIRD,
    CantorSpec,
    allowed_orders,
    cantor_function_value,
    euler_phi,
    factorize,
    hausdorff_dimension,
    hiller,
    hiller_table,
    numeric_value,
    representation,
    staircase_value,
)
from pisotdyn.words import Alphabet, Word

TERNARY = Alphabet(("0", "1", "2"))
DECIMAL = Alphabet(tuple(str(i) for i in range(10)))


class TestEulerPhi:
    def test_convention(self):
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert euler_phi(12) == 4

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 97):
            assert euler_phi(p) == p - 1

    def test_multiplicative(self):
        assert euler_phi(35) == euler_phi(5) * euler_phi(7)


def _stepwise_factorize(n):
    """factorize as it was: the primality shortcut on every 6k +- 1 step."""
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        if crystal._is_prime(n):
            break
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


class TestFactorize:
    def test_basic(self):
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]

    def test_large_prime(self):
        assert factorize(10**9 + 7) == [(10**9 + 7, 1)]

    def test_primality_is_tested_once_per_cofactor(self, monkeypatch):
        calls = []
        is_prime = crystal._is_prime
        monkeypatch.setattr(crystal, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        assert factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
        assert len(calls) <= 2

    def test_equals_the_stepwise_loop_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            assert factorize(n) == _stepwise_factorize(n), n

    def test_equals_the_stepwise_loop_on_63_bit_values(self):
        # one to three small prime powers, and below 2^30 a cofactor that is
        # 1, a large prime, or a prime below 2 * 10^4 times a large prime
        rng = random.Random(6)
        small = [p for p in range(2, 1000) if crystal._is_prime(p)]

        def prime_below(bound):
            q = rng.randrange(bound // 2, bound)
            while not crystal._is_prime(q):
                q -= 1
            return q

        for _ in range(300):
            n = 1
            for p in rng.sample(small, rng.randint(1, 3)):
                n *= p ** rng.randint(1, 2)
            kind = rng.randrange(3)
            if kind and n < 2**30:
                mid = prime_below(2 * 10**4) if kind == 2 else 1
                n *= mid * prime_below(MAX_N // (n * mid))
            assert n <= MAX_N
            assert factorize(n) == _stepwise_factorize(n), n


def _trial_division(n):
    """(prime, exponent) pairs of n by division by every d >= 2 up to its
    square root."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] * (n > 1)


class TestFactorizeBeyondTrialDivision:
    def test_equals_trial_division_up_to_2e5(self):
        for n in range(1, 2 * 10**5 + 1):
            assert factorize(n) == _trial_division(n), n

    @staticmethod
    def prime_near(rng, bound):
        # a prime in [1031, bound): 1031 is the least prime above 2^10
        q = rng.randrange(max(bound // 2, 1031), bound)
        while not crystal._is_prime(q):
            q -= 1
        return q

    def test_semiprimes_near_max_n(self):
        rng = random.Random(20)
        for _ in range(20):
            p = self.prime_near(rng, 2 ** rng.randint(21, 31))
            q = self.prime_near(rng, MAX_N // p)
            assert factorize(p * q) == sorted([(p, 1), (q, 1)])

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_prime_powers_near_max_n(self, k):
        rng = random.Random(k)
        for _ in range(5):
            p = self.prime_near(rng, math.floor(MAX_N ** (1 / k)))
            assert p > 1024 and p**k <= MAX_N
            assert factorize(p**k) == [(p, k)]

    def test_squares_and_products_of_powers_near_max_n(self):
        # a squared semiprime, p^2 r and p q r, with every prime above 2^10
        rng = random.Random(21)
        for _ in range(10):
            for primes in (
                [self.prime_near(rng, 2**13), self.prime_near(rng, 2**15)] * 2,
                [self.prime_near(rng, 2**20)] * 2 + [self.prime_near(rng, 2**23)],
                [self.prime_near(rng, 2**21) for _ in range(3)],
            ):
                assert factorize(math.prod(primes)) == sorted(
                    (p, primes.count(p)) for p in set(primes))


class TestHiller:
    def test_spot_values(self):
        assert hiller(5) == 4
        assert hiller(12) == 4
        assert hiller(36) == 8

    def test_edge(self):
        assert hiller(1) == 0 and hiller(2) == 0

    def test_odd_prime_powers(self):
        for p, a in ((3, 2), (5, 1), (7, 2)):
            assert hiller(p**a) == euler_phi(p**a)

    def test_two_powers(self):
        assert hiller(2) == 0
        for a in (2, 3, 4, 5):
            assert hiller(2**a) == euler_phi(2**a)


class TestAllowedOrders:
    def test_dimension_three(self):
        assert allowed_orders(3, 36) == {1, 2, 3, 4, 6}

    def test_dimension_four(self):
        assert allowed_orders(4, 12) == {1, 2, 3, 4, 5, 6, 8, 10, 12}

    def test_dimension_zero(self):
        assert allowed_orders(0, 10) == {1, 2}


class TestNumericValue:
    def test_binary_half(self):
        b = Alphabet(("0", "1"))
        assert numeric_value(b, b.word("1")) == Fraction(1, 2)

    def test_decimal(self):
        assert numeric_value(DECIMAL, DECIMAL.word("2,5")) == Fraction(1, 4)

    def test_ternary(self):
        assert numeric_value(TERNARY, TERNARY.word("202")) == Fraction(20, 27)

    def test_empty(self):
        with pytest.raises(ValueError):
            numeric_value(TERNARY, Word(TERNARY, ()))


class TestRepresentation:
    def test_binary_nonterminating(self):
        b = Alphabet(("0", "1"))
        assert str(representation(b, Fraction(1, 2), 4)) == "0111"

    def test_decimal_nonterminating(self):
        assert str(representation(DECIMAL, Fraction(1, 5), 3)) == "199"

    def test_zero(self):
        assert str(representation(TERNARY, Fraction(0), 5)) == "00000"

    def test_round_trip_bound(self):
        rng = random.Random(11)
        for _ in range(100):
            den = rng.randint(2, 999)
            q = Fraction(rng.randint(0, den), den)
            digits = rng.randint(3, 20)
            word = representation(TERNARY, q, digits)
            back = numeric_value(TERNARY, word)
            assert q - Fraction(1, 3**digits) <= back <= q


def fraction_numeric_value(alphabet, prefix):
    """The Fraction loop that the integer Horner sum replaced: the oracle
    it must match."""
    b = alphabet.size
    acc = Fraction(0)
    power = 1
    for c in prefix.letters:
        power *= b
        acc += Fraction(c, power)
    return acc


def fraction_representation(alphabet, q, digits):
    """The Fraction loop that the integer divmod replaced, dead branch and
    all: the oracle it must match."""
    b = alphabet.size
    out = []
    rem = Fraction(q)
    for _ in range(digits):
        rem *= b
        digit = math.floor(rem)
        rem -= digit
        if rem == 0 and digit > 0:
            digit -= 1
            rem = Fraction(1)
        if digit >= b:
            digit = b - 1
            rem = Fraction(1)
        out.append(digit)
    return Word(alphabet, tuple(out))


def fraction_staircase_value(spec, x):
    """The Fraction loop that the integer divmod replaced, without its clip
    of the digit |A| to |A| - 1, which made the staircase 1/2 at x = 1."""
    base = spec.alphabet.size
    acc = Fraction(0)
    rem = Fraction(x)
    for k in range(1, 65):
        rem *= base
        digit = math.floor(rem)
        rem -= digit
        acc += Fraction(digit - (digit > spec.excluded), (base - 1) ** k)
        if digit == spec.excluded:
            break
    return acc


def _sweep_points(rng, count):
    """q = 0, q = 1 and seeded rationals in [0, 1] with denominators up to 500."""
    yield Fraction(0)
    yield Fraction(1)
    for _ in range(count):
        den = rng.randint(1, 500)
        yield Fraction(rng.randint(0, den), den)


class TestExactLoopsMatchTheFractionOracle:
    def test_numeric_value(self):
        rng = random.Random(22)
        for size in range(2, 10):
            alphabet = Alphabet(tuple(str(i) for i in range(size)))
            for length in range(1, 41):
                word = Word(alphabet, bytes(rng.randrange(size) for _ in range(length)))
                assert numeric_value(alphabet, word) == fraction_numeric_value(alphabet, word)

    def test_representation(self):
        rng = random.Random(23)
        for size in range(2, 10):
            alphabet = Alphabet(tuple(str(i) for i in range(size)))
            for q in _sweep_points(rng, 200):
                digits = rng.randint(0, 40)
                want = fraction_representation(alphabet, q, digits)
                assert representation(alphabet, q, digits) == want, (size, q, digits)

    def test_staircase_value(self):
        rng = random.Random(24)
        for size in range(3, 10):
            alphabet = Alphabet(tuple(str(i) for i in range(size)))
            for excluded in range(1, size - 1):
                spec = CantorSpec(alphabet, excluded)
                for x in _sweep_points(rng, 100):
                    assert staircase_value(spec, x) == fraction_staircase_value(spec, x), (spec, x)


class TestAlphabetTransition:
    # a prefix over one alphabet re-expanded over another: r_B(v_A(prefix))

    def test_binary_to_ternary(self):
        b = Alphabet(("0", "1"))
        word = representation(TERNARY, numeric_value(b, b.word("1")), 3)
        assert str(word) == "111"

    def test_ternary_to_binary(self):
        b = Alphabet(("0", "1"))
        word = representation(b, numeric_value(TERNARY, TERNARY.word("202")), 8)
        assert numeric_value(b, word) <= Fraction(20, 27)


class TestHausdorff:
    def test_middle_third(self):
        assert hausdorff_dimension(MIDDLE_THIRD) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12
        )

    def test_four(self):
        spec = CantorSpec(Alphabet(("0", "1", "2", "3")), 1)
        assert hausdorff_dimension(spec) == pytest.approx(math.log(3) / math.log(4))

    def test_monotone_in_size(self):
        dims = [
            hausdorff_dimension(
                CantorSpec(Alphabet(tuple(str(i) for i in range(k))), 1)
            )
            for k in range(3, 11)
        ]
        assert dims == sorted(dims) and dims[-1] < 1


class TestCantorFunction:
    def test_single_letter(self):
        assert cantor_function_value(MIDDLE_THIRD, TERNARY.word("0")) == Fraction(1, 2)

    def test_monotone_per_length(self):
        bsub = MIDDLE_THIRD.sub_alphabet
        for length in range(1, 7):
            words_vals = []
            for letters in product(range(2), repeat=length):
                w = Word(bsub, letters)
                words_vals.append(
                    (numeric_value(bsub, w), cantor_function_value(MIDDLE_THIRD, w))
                )
            words_vals.sort()
            vals = [v for _, v in words_vals]
            assert vals == sorted(vals)

    def test_excluded_letter_rejected(self):
        with pytest.raises(ValueError):
            cantor_function_value(MIDDLE_THIRD, TERNARY.word("010"))

    @pytest.mark.parametrize("alphabet", [TERNARY, MIDDLE_THIRD.sub_alphabet],
                             ids=["over A", "over B"])
    def test_empty_word_rejected(self, alphabet):
        # numeric_value owns the check, and the Cantor function keeps its message
        with pytest.raises(ValueError, match="^empty prefix$"):
            cantor_function_value(MIDDLE_THIRD, Word(alphabet, ()))

    def test_plateau(self):
        # every x in the removed middle interval shares the staircase value
        vals = {
            staircase_value(MIDDLE_THIRD, Fraction(num, 24))
            for num in range(9, 16)  # 9/24=3/8 .. 15/24=5/8, inside (1/3, 2/3)
        }
        assert vals == {Fraction(1, 2)}

    def test_staircase_classical_points(self):
        assert staircase_value(MIDDLE_THIRD, Fraction(0)) == 0
        assert staircase_value(MIDDLE_THIRD, Fraction(1, 3)) == Fraction(1, 2)
        assert staircase_value(MIDDLE_THIRD, Fraction(2, 9)) == Fraction(1, 4)

    @pytest.mark.parametrize("size, excluded", [(3, 1), (4, 1), (4, 2), (5, 2), (7, 3), (10, 8)])
    def test_staircase_ends_at_one(self, size, excluded):
        spec = CantorSpec(Alphabet(tuple(str(i) for i in range(size))), excluded)
        assert staircase_value(spec, Fraction(1)) == 1

    @pytest.mark.parametrize("size, excluded", [(3, 1), (4, 1), (4, 2), (5, 3)])
    def test_staircase_is_nondecreasing(self, size, excluded):
        spec = CantorSpec(Alphabet(tuple(str(i) for i in range(size))), excluded)
        grid = sorted({Fraction(num, den) for den in range(1, 61) for num in range(den + 1)})
        values = [staircase_value(spec, x) for x in grid]
        assert values[0] == 0 and values[-1] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_interior_hypothesis(self):
        spec = CantorSpec(TERNARY, 0)
        with pytest.raises(ValueError):
            cantor_function_value(spec, TERNARY.word("1"))
