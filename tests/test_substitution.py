import json
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotdyn import substitution
from pisotdyn.algebraic import FIBONACCI, PADOVAN, PELL, is_primitive, is_pv, recurrence_term
from pisotdyn.substitution import (
    FIBONACCI_SUBST,
    PADOVAN_SUBST,
    PELL_SUBST,
    FixedPointError,
    Substitution,
    _fixed_point_power,
    apply,
    classify_pisot,
    factor_window,
    fixed_point_prefix,
    incidence_matrix,
    iterate,
    iterate_length,
    language_prefix,
    letter_counts,
    substitution_entropy_estimate,
)
from pisotdyn.words import (
    BINARY,
    TERNARY,
    Alphabet,
    complexity_bruteforce,
    complexity_profile,
    empirical_frequencies,
    entropy_estimate,
)

THUE_MORSE = Substitution.from_rules(Alphabet(("0", "1")), {"0": "01", "1": "10"})


class TestApply:
    def test_single_letter(self):
        assert str(apply(FIBONACCI_SUBST, FIBONACCI_SUBST.alphabet.word("0"))) == "01"

    def test_word(self):
        assert str(apply(FIBONACCI_SUBST, FIBONACCI_SUBST.alphabet.word("01"))) == "010"

    def test_padovan(self):
        assert str(apply(PADOVAN_SUBST, PADOVAN_SUBST.alphabet.word("12"))) == "20"


class TestIterate:
    def test_fibonacci_listing(self):
        assert str(iterate(FIBONACCI_SUBST, 0, 4)) == "01001010"

    def test_pell(self):
        assert str(iterate(PELL_SUBST, 0, 2)) == "01001"

    def test_padovan(self):
        assert str(iterate(PADOVAN_SUBST, 0, 3)) == "012"


class TestLengths:
    def test_fibonacci_lengths(self):
        for n in range(1, 16):
            assert len(iterate(FIBONACCI_SUBST, 0, n)) == recurrence_term(FIBONACCI, n + 2)

    def test_exact_counts_match_materialized(self):
        for n in range(1, 10):
            w = iterate(PELL_SUBST, 0, n)
            counts = letter_counts(PELL_SUBST, 0, n)
            assert counts == (w.letters.count(0), w.letters.count(1))

    def test_huge_length_without_materializing(self):
        assert iterate_length(PELL_SUBST, 0, 25) == recurrence_term(PELL, 26)



@pytest.mark.parametrize("call", [
    lambda: iterate_length(FIBONACCI_SUBST, 5, 3),
    lambda: iterate_length(FIBONACCI_SUBST, -1, 3),
    lambda: letter_counts(FIBONACCI_SUBST, 2, 0),
    lambda: fixed_point_prefix(FIBONACCI_SUBST, 5, 10),
    lambda: fixed_point_prefix(FIBONACCI_SUBST, -1, 10),
    lambda: language_prefix(FIBONACCI_SUBST, 3, 5, 100),
    lambda: iterate(FIBONACCI_SUBST, 2, 3),
], ids=["length-5", "length-neg", "counts-k0", "fixed-5", "fixed-neg", "language-3", "iterate-2"])
def test_letter_outside_the_alphabet_is_refused(call):
    # each returned 0 or (0, 0), or raised IndexError, or read letter -1 as
    # the last letter
    with pytest.raises(ValueError, match="letter index out of range"):
        call()


def power_by_composition(sigma: Substitution, k: int) -> Substitution:
    """The reference for Substitution.power: sigma composed with itself
    k - 1 times, one application of sigma to every image per step."""
    out = sigma
    for _ in range(k - 1):
        out = Substitution(sigma.alphabet, tuple(apply(sigma, w) for w in out.rules))
    return out


class TestPower:
    def test_power_equals_repeated_composition(self):
        not_primitive = Substitution.from_rules(TERNARY, {"0": "01", "1": "1", "2": "20"})
        assert not is_primitive(incidence_matrix(not_primitive))
        assert len(FIBONACCI_SUBST.rules[1]) == 1  # a one-letter image
        rng = random.Random(27)
        subs = [FIBONACCI_SUBST, not_primitive]
        for _ in range(200):
            ab = Alphabet(tuple(str(i) for i in range(rng.randint(2, 6))))
            rules = {
                s: "".join(str(rng.randrange(ab.size)) for _ in range(rng.randint(1, 3)))
                for s in ab.symbols
            }
            subs.append(Substitution.from_rules(ab, rules))
        for sigma in subs:
            for k in range(1, 7):
                assert sigma.power(k) == power_by_composition(sigma, k), (sigma.to_json(), k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_below_one_is_refused(self, k):
        with pytest.raises(ValueError, match="power must be >= 1"):
            FIBONACCI_SUBST.power(k)


class TestIncidenceMatrix:
    def test_named_matrices(self):
        assert incidence_matrix(FIBONACCI_SUBST).entries == ((1, 1), (1, 0))
        assert incidence_matrix(PELL_SUBST).entries == ((1, 2), (1, 1))
        assert incidence_matrix(PADOVAN_SUBST).entries == (
            (0, 0, 1),
            (1, 0, 0),
            (1, 1, 0),
        )

    def test_functoriality(self):
        # M(sigma o sigma) = M(sigma)^2, plus randomized substitutions
        rng = random.Random(3)
        subs = [FIBONACCI_SUBST, PELL_SUBST, PADOVAN_SUBST]
        for size in (2, 3, 4):
            ab = Alphabet(tuple(str(i) for i in range(size)))
            rules = {
                s: "".join(
                    str(rng.randrange(size)) for _ in range(rng.randint(1, 4))
                )
                for s in ab.symbols
            }
            subs.append(Substitution.from_rules(ab, rules))
        for s in subs:
            m = incidence_matrix(s)
            a, n = m.entries, len(m.entries)
            square = tuple(tuple(sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n))
                           for i in range(n))
            assert incidence_matrix(s.power(2)).entries == square


class TestFixedPoint:
    def test_fibonacci_prefix(self):
        stream = fixed_point_prefix(FIBONACCI_SUBST, 0, 200)
        assert str(stream.prefix(13)) == str(iterate(FIBONACCI_SUBST, 0, 5))

    def test_prefix_of_iterates(self):
        stream = fixed_point_prefix(PELL_SUBST, 0, 500)
        p = stream.prefix(29)
        assert str(iterate(PELL_SUBST, 0, 4)).startswith(str(p))

    def test_idempotence(self):
        stream = fixed_point_prefix(FIBONACCI_SUBST, 0, 300)
        w = stream.prefix(100)
        img = apply(FIBONACCI_SUBST, w)
        assert img.letters[:100] == stream.prefix(100).letters

    def test_padovan_suggests_power(self):
        with pytest.raises(FixedPointError) as err:
            fixed_point_prefix(PADOVAN_SUBST, 0, 10)
        assert err.value.suggested_power == 3

    def test_suggested_power_works(self):
        stream = fixed_point_prefix(PADOVAN_SUBST.power(3), 0, 50)
        assert str(stream.prefix(3)) == "012"


def reference_fixed_point(sigma, letter):
    """Letter-at-a-time generator of the fixed point starting with letter:
    x = sigma(x[0]) sigma(x[1]) ..., valid when sigma(letter) starts with letter."""
    buf = list(sigma.rules[letter].letters)
    emitted = 0
    expanded = 1  # buf currently equals sigma(x[0..expanded-1])
    while True:
        if emitted < len(buf):
            yield buf[emitted]
            emitted += 1
        else:
            buf.extend(sigma.rules[buf[expanded]].letters)
            expanded += 1


@st.composite
def fixed_point_substitutions(draw):
    """(sigma, a): 2-4 letters, images of length 1-4, sigma(a) = a followed
    by 1-3 letters."""
    size = draw(st.integers(2, 4))
    letter = st.integers(0, size - 1)
    a = draw(letter)
    images = [draw(st.lists(letter, min_size=1, max_size=4)) for _ in range(size)]
    images[a] = [a] + draw(st.lists(letter, min_size=1, max_size=3))
    alphabet = Alphabet(tuple(str(i) for i in range(size)))
    return Substitution.from_rules(
        alphabet, {str(c): "".join(map(str, img)) for c, img in enumerate(images)}
    ), a


class TestWordEquivalence:
    """The join-based word code against letter-at-a-time references."""

    @settings(max_examples=100, deadline=None)
    @given(fixed_point_substitutions(), st.lists(st.integers(0, 5000), min_size=1, max_size=4))
    def test_fixed_point_matches_reference(self, sub, lengths):
        sigma, a = sub
        stream = fixed_point_prefix(sigma, a, max(lengths))
        gen = reference_fixed_point(sigma, a)
        expected = bytes(next(gen) for _ in range(max(lengths)))
        for n in lengths:  # grown in the drawn order, shorter ones re-read
            assert stream.prefix(n).letters == expected[:n]

    @settings(max_examples=100, deadline=None)
    @given(fixed_point_substitutions(), st.data())
    def test_iterate_matches_repeated_apply(self, sub, data):
        sigma, _ = sub
        b = data.draw(st.integers(0, sigma.alphabet.size - 1))
        w = sigma.alphabet.word(sigma.alphabet.symbols[b])
        for k in range(1, 7):
            w = apply(sigma, w)
            assert iterate(sigma, b, k) == w

    @settings(max_examples=100, deadline=None)
    @given(fixed_point_substitutions(), st.integers(1, 400), st.data())
    def test_profile_matches_bruteforce(self, sub, length, data):
        sigma, a = sub
        word = fixed_point_prefix(sigma, a, length).prefix(length)
        n_max = data.draw(st.integers(1, length))
        profile = complexity_profile(word, n_max)
        assert profile.values == tuple(complexity_bruteforce(word, n) for n in range(1, n_max + 1))

    def test_slowly_growing_fixed_point(self):
        slow = Substitution.from_rules(BINARY, {"0": "01", "1": "1"})
        n = 10**6
        assert fixed_point_prefix(slow, 0, n).prefix(n).letters == b"\x00" + b"\x01" * (n - 1)

    def test_iterate_ignores_letters_it_never_reaches(self):
        # sigma^64(1) would hold 2^64 letters; sigma^64(0) is one
        sigma = Substitution.from_rules(BINARY, {"0": "0", "1": "11"})
        assert str(iterate(sigma, 0, 64)) == "0"


class TestSerialization:
    def test_round_trip(self):
        text = '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}'
        s = Substitution.from_json(text)
        assert json.loads(s.to_json()) == json.loads(text)

    def test_missing_rule(self):
        with pytest.raises(ValueError):
            Substitution.from_json('{"alphabet": ["0", "1"], "rules": {"0": "01"}}')

    def test_empty_image(self):
        with pytest.raises(ValueError):
            Substitution.from_json(
                '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": ""}}'
            )


class TestClassify:
    def test_fibonacci_strict(self):
        rep = classify_pisot(FIBONACCI_SUBST)
        assert rep.primitive and rep.pisot_strict and rep.irreducible
        tau = (1 + 5**0.5) / 2
        assert abs(float(rep.leading_eigenvalue.midpoint) - tau) < 1e-11
        assert abs(rep.frequencies[0] - 0.6180339887) < 1e-9

    def test_thue_morse_loose_only(self):
        rep = classify_pisot(THUE_MORSE)
        assert rep.pisot_loose and not rep.pisot_strict
        assert rep.irreducible is False
        assert rep.char_poly.coefficients == (0, -2, 1)
        # the conjugate eigenvalue is 0
        assert rep.conjugate_moduli_bound.upper < 1e-9

    def test_repeated_perron_root_not_pisot(self):
        # two Fibonacci blocks: char poly (x^2 - x - 1)^2, lambda is double
        sigma = Substitution.from_rules(
            Alphabet(("0", "1", "2", "3")), {"0": "01", "1": "0", "2": "23", "3": "2"}
        )
        rep = classify_pisot(sigma)
        assert rep.char_poly.coefficients == (1, 2, -1, -2, 1)
        assert rep.pisot_loose is False and rep.pisot_strict is False
        assert rep.irreducible is False

    def test_strict_is_the_pv_verdict(self):
        rng = random.Random(3)
        letters = "0123"
        loose = strict = 0
        for _ in range(300):
            ab = Alphabet(tuple(letters[: rng.randint(2, 4)]))
            rules = {a: "".join(rng.choice(ab.symbols) for _ in range(rng.randint(1, 3)))
                     for a in ab.symbols}
            rep = classify_pisot(Substitution.from_rules(ab, rules))
            p = rep.char_poly
            assert rep.pisot_strict == (rep.pisot_loose and p.coefficients[0] != 0)
            assert rep.pisot_strict == is_pv(p)
            loose += rep.pisot_loose
            strict += rep.pisot_strict
        assert 0 < strict < loose < 300

    def test_padovan_strict(self):
        rep = classify_pisot(PADOVAN_SUBST)
        assert rep.pisot_strict
        assert abs(float(rep.leading_eigenvalue.midpoint) - 1.3247179572) < 1e-9

    def test_relabel_invariance(self):
        flipped = Substitution.from_rules(
            Alphabet(("1", "0")), {"1": "10", "0": "1"}
        )  # Fibonacci with the alphabet order swapped
        a = classify_pisot(FIBONACCI_SUBST)
        b = classify_pisot(flipped)
        assert a.char_poly.coefficients == b.char_poly.coefficients
        assert a.pisot_strict == b.pisot_strict

    def test_frequencies_match_empirical(self):
        for s in (FIBONACCI_SUBST, PELL_SUBST):
            rep = classify_pisot(s)
            w = fixed_point_prefix(s, 0, 10**5).prefix(10**5)
            emp = empirical_frequencies(w)
            assert max(abs(float(e) - f) for e, f in zip(emp, rep.frequencies)) < 1e-3


def _spec(rules: dict) -> Substitution:
    return Substitution.from_json(json.dumps({"alphabet": list(rules), "rules": rules}))


def _cycle(d: int) -> Substitution:
    """Letter i -> i+1 and the last letter -> 01: p = x^d - x - 1, and the
    Perron vector is v_i = lambda^-((i - 1) mod d)."""
    return _spec({f"a{i}": f"a{i + 1}" for i in range(d - 1)} | {f"a{d - 1}": "a0,a1"})


def _rounded(vector) -> tuple:
    """The floats nearest to the entries of an mpmath vector over its sum."""
    total = sum(vector)
    return tuple(float(x / total) for x in vector)


def _perron_oracle(sigma: Substitution) -> tuple:
    """Frequencies from mpmath's eigenvector of the Perron root, at 60
    digits, each rounded to the nearest float."""
    m = incidence_matrix(sigma)
    with mpmath.workdps(60):
        values, vectors = mpmath.eig(mpmath.matrix([list(row) for row in m.entries]))
        j = max(range(m.dimension), key=lambda i: mpmath.re(values[i]))
        return _rounded([mpmath.re(vectors[i, j]) for i in range(m.dimension)])


class TestFrequencies:
    """Every frequency is the correctly rounded float of the Perron vector
    normalized to sum 1."""

    @pytest.mark.parametrize("sigma", [FIBONACCI_SUBST, PELL_SUBST, PADOVAN_SUBST, THUE_MORSE,
                                       Substitution.from_rules(TERNARY, {"0": "01", "1": "02",
                                                                         "2": "0"})],
                             ids=["fibonacci", "pell", "padovan", "thue-morse", "tribonacci"])
    def test_named_specs(self, sigma):
        assert classify_pisot(sigma).frequencies == _perron_oracle(sigma)

    def test_seeded_primitive_specs(self):
        rng = random.Random(18)
        checked = loose = 0
        while checked < 200:
            alphabet = Alphabet(tuple("01234"[: rng.randint(2, 5)]))
            sigma = Substitution.from_rules(alphabet, {
                a: "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 4)))
                for a in alphabet.symbols})
            report = classify_pisot(sigma)
            if not report.primitive:
                continue
            assert report.frequencies == _perron_oracle(sigma), sigma.to_json()
            checked += 1
            loose += report.pisot_loose
        assert 0 < loose < checked  # both ways of bracketing lambda are taken

    @pytest.mark.parametrize("rules, loose", [({"0": "001", "1": "011"}, False),
                                              ({"0": "01", "1": "10"}, True)],
                             ids=["lambda-3", "thue-morse"])
    def test_integer_perron_root(self, rules, loose):
        # p = (x - 3)(x - 1) has no Pisot layout, so lambda = 3 is bracketed
        # by Sturm counts; Thue-Morse's lambda = 2 comes from the layout
        report = classify_pisot(_spec(rules))
        assert report.pisot_loose == loose and report.frequencies == (0.5, 0.5)

    @pytest.mark.parametrize("rules", [{"0": "12", "1": "110", "2": "0212"},
                                       {"0": "323", "1": "21012", "2": "10", "3": "30"}])
    def test_halving_that_meets_lambda(self, rules):
        # p = (x - 3)(x^2 - x - 1) and (x - 3)(x^3 - 3x - 1): halving (1, 5]
        # and (1, 9] on Sturm counts meets lambda = 3 at a midpoint
        sigma = _spec(rules)
        assert classify_pisot(sigma).frequencies == _perron_oracle(sigma)

    @pytest.mark.parametrize("rules", [
        {"0": "00000122223", "1": "01111123333", "2": "00001222223", "3": "01111233333"},
        {str(i): f"{i}{(i + 1) % 6}{(i - 1) % 6}" * 2 for i in range(6)},
    ], ids=["circulant-4", "circulant-6"])
    def test_repeated_eigenvalues(self, rules):
        # circulant M, so the Perron vector is uniform.  p = (x - 11)(x - 7)
        # (x - 1)^2, a double root at 1, the lower end of (1, cauchy bound];
        # and p = x^2 (x + 2)(x - 4)^2 (x - 6), whose double root 4 is a
        # midpoint of the halving.  At either, every member of p's own Sturm
        # chain vanishes
        report = classify_pisot(_spec(rules))
        assert not report.pisot_loose
        assert report.frequencies == (1 / len(rules),) * len(rules)

    @pytest.mark.parametrize("d", [24, 64])
    def test_slowly_mixing_cycle(self, d):
        report = classify_pisot(_cycle(d))
        assert not report.pisot_loose
        with mpmath.workdps(60):
            lam = mpmath.findroot(lambda x: x**d - x - 1, mpmath.mpf("1.1"))
            assert report.frequencies == _rounded([lam ** -((i - 1) % d) for i in range(d)])


class TestEntropyOfSubstitution:
    def test_fibonacci_estimator(self):
        value, flags = substitution_entropy_estimate(FIBONACCI_SUBST, 50, 2000)
        assert value is not None and value < 0.2
        assert "needs_power" not in flags

    def test_padovan_flags_power(self):
        value, flags = substitution_entropy_estimate(PADOVAN_SUBST, 10, 100)
        assert value is None
        assert flags["needs_power"] == 3

    def test_matches_the_full_prefix_estimator(self):
        rng = random.Random(9)
        cases = [(s, 30, 3000) for s in (FIBONACCI_SUBST, PELL_SUBST, THUE_MORSE,
                                         TRIBONACCI_SUBST, PADOVAN_SUBST, SWAP, CYCLES)]
        for _ in range(200):
            size = rng.randint(2, 4)
            images = [[rng.randrange(size) for _ in range(rng.randint(1, 3))]
                      for _ in range(size)]
            cases.append((spec(images), rng.randint(1, 30), rng.randint(30, 3000)))
        for sigma, n, prefix_len in cases:
            assert (substitution_entropy_estimate(sigma, n, prefix_len)
                    == reference_entropy_estimate(sigma, n, prefix_len))
        assert substitution_entropy_estimate(SWAP, 10, 100) == (None, {})
        assert substitution_entropy_estimate(CYCLES, 10, 100) == (None, {"needs_power": 2})

    def test_fibonacci_counts_on_the_window(self, monkeypatch):
        counted = []
        monkeypatch.setattr(substitution, "entropy_estimate",
                            lambda w, n: counted.append(len(w)) or entropy_estimate(w, n))
        value, flags = substitution_entropy_estimate(FIBONACCI_SUBST, 200, 500_000)
        assert counted == [1364]
        assert (value, flags) == (math.log2(201) / 200, {})


def spec(images):
    """The substitution c -> images[c] on the letters 0, 1, ..."""
    alphabet = Alphabet(tuple(str(i) for i in range(len(images))))
    return Substitution.from_rules(
        alphabet, {str(c): ",".join(map(str, img)) for c, img in enumerate(images)}
    )


SWAP = spec([[1], [0]])  # no power has a fixed point
# first letters cycle 0 -> 1 -> 2 -> 0 and 3 -> 4 -> 3: sigma^2 is the
# least power with a fixed point
CYCLES = spec([[1, 0], [2], [0], [4, 3], [3]])


def reference_entropy_estimate(sigma, n, prefix_len):
    """The estimator as it was before language_prefix: each fixed point
    counted on all prefix_len letters, and the power found by composing
    sigma with itself."""
    total, found, flags = 0.0, False, {}
    for a in range(sigma.alphabet.size):
        img = sigma.rules[a]
        if img.letters[0] == a and len(img) >= 2:
            found = True
            word = fixed_point_prefix(sigma, a, prefix_len).prefix(prefix_len)
            total += entropy_estimate(word, n)
    if not found:
        for p in range(2, sigma.alphabet.size + 2):
            sp = sigma.power(p)
            if any(sp.rules[a].letters[0] == a and len(sp.rules[a]) >= 2
                   for a in range(sigma.alphabet.size)):
                flags["needs_power"] = p
                break
        return None, flags
    return total, flags


class TestFixedPointPower:
    def test_matches_the_iterates(self):
        rng = random.Random(10)
        for _ in range(300):
            size = rng.randint(2, 5)
            sigma = spec([[rng.randrange(size) for _ in range(rng.choice((1, 1, 2, 3)))]
                          for _ in range(size)])
            for a in range(size):
                expected = next(
                    (p for p in range(1, size + 2)
                     if iterate(sigma, a, p).letters[0] == a and len(iterate(sigma, a, p)) >= 2),
                    None,
                )
                assert _fixed_point_power(sigma, a) == expected

    def test_builds_no_iterate(self):
        # sigma^40(0) would hold 2^40 letters
        cycle = spec([[(c + 1) % 40] * 2 for c in range(40)])
        with pytest.raises(FixedPointError) as err:
            fixed_point_prefix(cycle, 0, 10)
        assert err.value.suggested_power == 40


TRIBONACCI_SUBST = Substitution.from_rules(TERNARY, {"0": "01", "1": "02", "2": "0"})


def thue_morse_complexity(n: int) -> int:
    """p_n of Thue-Morse (Brlek; de Luca and Varricchio): 2, 4, then with
    n = 2^r + q + 1, 0 < q <= 2^r: 6 * 2^(r-1) + 4q when q <= 2^(r-1),
    else 8 * 2^(r-1) + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    return 4 * 2**r + 2 * q if 2 * q > 2**r else 3 * 2**r + 4 * q


def window_profile(sigma, n_max, limit=10**6):
    stream = fixed_point_prefix(sigma, 0, limit)
    window = factor_window(sigma, stream, n_max, limit)
    return window, complexity_profile(stream.prefix(window), n_max).values


class TestFactorWindow:
    @pytest.mark.parametrize("sigma, closed_form", [
        (FIBONACCI_SUBST, lambda n: n + 1),
        (TRIBONACCI_SUBST, lambda n: 2 * n + 1),
        (THUE_MORSE, thue_morse_complexity),
    ], ids=["fibonacci", "tribonacci", "thue-morse"])
    def test_closed_forms(self, sigma, closed_form):
        window, values = window_profile(sigma, 200)
        assert window < 4000
        assert values == tuple(closed_form(n) for n in range(1, 201))

    def test_thue_morse_formula(self):
        word = fixed_point_prefix(THUE_MORSE, 0, 4096).prefix(4096)
        assert [complexity_bruteforce(word, n) for n in range(1, 41)] == [
            thue_morse_complexity(n) for n in range(1, 41)
        ]

    def test_matches_a_ten_times_longer_prefix(self):
        rng = random.Random(8)
        checked = 0
        while checked < 200:
            size = rng.randint(2, 4)
            images = [[rng.randrange(size) for _ in range(rng.randint(1, 4))]
                      for _ in range(size)]
            images[0] = [0] + images[0]
            sigma = Substitution.from_rules(
                Alphabet(tuple(str(i) for i in range(size))),
                {str(c): "".join(map(str, img)) for c, img in enumerate(images)},
            )
            if not is_primitive(incidence_matrix(sigma)):
                continue
            n_max = rng.randint(1, 40)
            stream = fixed_point_prefix(sigma, 0, 10**6)
            window = factor_window(sigma, stream, n_max, 10**6)
            assert n_max <= window
            assert (complexity_profile(stream.prefix(window), n_max).values
                    == complexity_profile(stream.prefix(10 * window), n_max).values)
            checked += 1

    def test_none_outside_the_certificate(self):
        slow = Substitution.from_rules(BINARY, {"0": "001", "1": "1"})  # not primitive
        assert factor_window(slow, fixed_point_prefix(slow, 0, 10**4), 5, 10**4) is None
        stream = fixed_point_prefix(FIBONACCI_SUBST, 0, 10**4)
        assert factor_window(FIBONACCI_SUBST, stream, 0, 10**4) is None
        assert factor_window(FIBONACCI_SUBST, stream, 11, 10) is None
        assert factor_window(FIBONACCI_SUBST, stream, 200, 10**4) == 1364
        assert factor_window(FIBONACCI_SUBST, stream, 200, 1363) is None
        # "00" first ends at letter 4 of 01001...: the scan stops at the limit
        assert factor_window(FIBONACCI_SUBST, stream, 1, 3) is None
        assert factor_window(FIBONACCI_SUBST, stream, 1, 4) == 4


class TestLanguagePrefix:
    @pytest.mark.parametrize("sigma", [FIBONACCI_SUBST, TRIBONACCI_SUBST, THUE_MORSE, PELL_SUBST],
                             ids=["fibonacci", "tribonacci", "thue-morse", "pell"])
    def test_named_profiles_match_the_full_prefix(self, sigma):
        word = language_prefix(sigma, 0, 200, 20_000)
        full = fixed_point_prefix(sigma, 0, 20_000).prefix(20_000)
        assert len(word) < 4000 and full.letters.startswith(word.letters)
        assert complexity_profile(word, 200).values == complexity_profile(full, 200).values

    def test_random_profiles_match_the_full_prefix(self):
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            size = rng.randint(2, 4)
            sigma = spec([[rng.randrange(size) for _ in range(rng.randint(1, 4))]
                          for _ in range(size)])
            letters = [a for a in range(size) if _fixed_point_power(sigma, a) == 1]
            if not letters or not is_primitive(incidence_matrix(sigma)):
                continue
            a, n_max, prefix_len = rng.choice(letters), rng.randint(1, 40), rng.randint(40, 20_000)
            word = language_prefix(sigma, a, n_max, prefix_len)
            full = fixed_point_prefix(sigma, a, prefix_len).prefix(prefix_len)
            assert full.letters.startswith(word.letters)
            assert complexity_profile(word, n_max).values == complexity_profile(full, n_max).values
            checked += 1

    def test_full_prefix_outside_the_window(self):
        slow = Substitution.from_rules(BINARY, {"0": "001", "1": "1"})  # not primitive
        assert len(language_prefix(slow, 0, 5, 1000)) == 1000
        assert len(language_prefix(FIBONACCI_SUBST, 0, 200, 1363)) == 1363  # window: 1364
        assert len(language_prefix(FIBONACCI_SUBST, 0, 200, 1364)) == 1364
        assert len(language_prefix(FIBONACCI_SUBST, 0, 200, 10**4)) == 1364
