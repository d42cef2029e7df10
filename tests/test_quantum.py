import copy
import math
import pickle
import random
import types
from itertools import islice, product

import pytest

import pisotdyn.quantum as quantum
from pisotdyn.algebraic import IntMatrix, normalized_iterates
from pisotdyn.geometry import TWO_PI, _driven_angles, substitution_spacing
from pisotdyn.quantum import (
    QuantumState,
    apply_first_kind,
    basis_state,
    quantum_complexity,
    quantum_entropy_estimate,
    quantum_spacing_simulate,
    second_kind_limit,
    symmetric_state,
)
from pisotdyn.substitution import (
    FIBONACCI_SUBST,
    PADOVAN_SUBST,
    PELL_SUBST,
    Substitution,
    apply,
    fixed_point_prefix,
    incidence_matrix,
    iterate,
)
from pisotdyn.words import BINARY, Alphabet, Word, complexity, entropy_estimate

TAU = (1 + math.sqrt(5)) / 2
INV_SQRT2 = 1 / math.sqrt(2)


class TestFirstKind:
    def test_symmetric_one(self):
        out = apply_first_kind(FIBONACCI_SUBST, symmetric_state(BINARY, 1))
        amps = {str(w): a for w, a in out.amplitudes}
        assert set(amps) == {"01", "0"}
        assert all(a == INV_SQRT2 for a in amps.values())
        assert not out.renormalized

    def test_twice(self):
        out = apply_first_kind(
            FIBONACCI_SUBST, apply_first_kind(FIBONACCI_SUBST, symmetric_state(BINARY, 1))
        )
        assert {str(w) for w, _ in out.amplitudes} == {"010", "01"}

    def test_basis_relabeling(self):
        out = apply_first_kind(FIBONACCI_SUBST, basis_state(BINARY.word("0")))
        assert tuple(out.amplitudes[0][0].letters) == (0, 1)
        assert abs(out.amplitudes[0][1]) == 1.0

    def test_collision_renormalizes(self):
        collapsing = Substitution.from_rules(BINARY, {"0": "0", "1": "0"})
        out = apply_first_kind(collapsing, symmetric_state(BINARY, 1))
        assert out.renormalized
        assert abs(sum(abs(a) ** 2 for _, a in out.amplitudes) - 1) < 1e-12

    def test_inner_product_preserved_when_injective(self):
        s = symmetric_state(BINARY, 2)
        out = apply_first_kind(FIBONACCI_SUBST, s)
        # distinct inputs map to distinct outputs, norm preserved
        assert len(out.amplitudes) == len(s.amplitudes)
        assert abs(sum(abs(a) ** 2 for _, a in out.amplitudes) - 1) < 1e-12



def _flagged_first_kind(sigma, psi):
    """apply_first_kind as it was: images keyed by their letters, each
    carrying a collision flag."""
    out = {}
    for w, a in psi.amplitudes:
        img = apply(sigma, w)
        key = img.letters
        if key in out:
            out[key] = (out[key][0], out[key][1] + a, True)
        else:
            out[key] = (img, a, False)
    collided = any(flag for _, _, flag in out.values())
    return QuantumState.from_dict({word: a for word, a, _ in out.values()}, renormalized=collided)


class TestFirstKindEqualsFlaggedReference:
    def test_seeded_states(self):
        # short images over few letters collide often; amplitudes +-a of
        # colliding words cancel, and a support that cancels whole is an error
        rng = random.Random(8)
        amplitudes = (1, -1, 1j, -0.0 - 1j, 0.5 + 0.25j, -0.5 - 0.25j)
        collided = cancelled = 0
        for _ in range(2000):
            alphabet = Alphabet(tuple(str(i) for i in range(rng.randint(2, 3))))
            images = {c: "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 2)))
                      for c in alphabet.symbols}
            sigma = Substitution.from_rules(alphabet, images)
            words = {Word(alphabet, [rng.randrange(alphabet.size) for _ in range(rng.randint(1, 3))])
                     for _ in range(rng.randint(1, 8))}
            psi = QuantumState.from_dict({w: rng.choice(amplitudes) for w in words})
            distinct = {apply(sigma, w) for w, _ in psi.amplitudes}
            try:
                want = _flagged_first_kind(sigma, psi)
            except ValueError:  # every amplitude cancelled
                with pytest.raises(ValueError, match="empty support"):
                    apply_first_kind(sigma, psi)
                cancelled += 1
                continue
            # repr tells -0.0 from 0.0 in every amplitude
            assert repr(apply_first_kind(sigma, psi)) == repr(want), (images, psi)
            collided += want.renormalized
            cancelled += len(want.amplitudes) < len(distinct)
        assert collided > 200 and cancelled > 30, (collided, cancelled)

class TestSymmetricState:
    def test_binary_two(self):
        s = symmetric_state(BINARY, 2)
        assert len(s.amplitudes) == 4
        assert all(a == 0.5 for _, a in s.amplitudes)

    def test_cap(self):
        with pytest.raises(ValueError):
            symmetric_state(BINARY, 25)

    def test_equals_the_word_by_word_build(self):
        for size in (2, 3, 4):
            alphabet = Alphabet(tuple(str(i) for i in range(size)))
            for n in range(1, 6):
                amp = 1.0 / math.sqrt(size**n)
                amps = {Word(alphabet, letters): amp for letters in product(range(size), repeat=n)}
                assert repr(symmetric_state(alphabet, n)) == repr(QuantumState.from_dict(amps))


class TestQuantumComplexity:
    def test_ghz(self):
        amps = {
            Word(BINARY, (0,) * 20): INV_SQRT2,
            Word(BINARY, (1,) * 20): INV_SQRT2,
        }
        psi = QuantumState.from_dict(amps)
        for n in (1, 5, 10):
            assert quantum_complexity(psi, n) == pytest.approx(1.0, abs=1e-12)
            assert quantum_entropy_estimate(psi, n) == pytest.approx(0.0, abs=1e-12)

    def test_basis_state_equals_classical(self):
        w = iterate(FIBONACCI_SUBST, 0, 8)
        psi = basis_state(w)
        for n in (1, 3, 7):
            assert quantum_complexity(psi, n) == complexity(w, n)
        for n in range(1, 8):
            assert quantum_entropy_estimate(psi, n) == entropy_estimate(w, n), n

    def test_weighted_average(self):
        w1 = BINARY.word("010010100100101")  # p_5 = 6 (Sturmian-ish prefix)
        w2 = BINARY.word("010101010101010")  # periodic
        p1, p2 = complexity(w1, 5), complexity(w2, 5)
        psi = QuantumState.from_dict({w1: INV_SQRT2, w2: INV_SQRT2})
        assert quantum_complexity(psi, 5) == pytest.approx((p1 + p2) / 2)

    def test_short_word_rejected(self):
        with pytest.raises(ValueError):
            quantum_complexity(basis_state(BINARY.word("01")), 5)


class TestSecondKind:
    def test_fibonacci_step(self):
        m = incidence_matrix(FIBONACCI_SUBST)
        assert m.apply((1, 0)) == (1, 1)

    def test_pell_step(self):
        m = incidence_matrix(PELL_SUBST)
        assert m.apply((0, 1)) == (2, 1)

    def test_pell_probabilities(self):
        _, probs, _ = second_kind_limit(incidence_matrix(PELL_SUBST), 0, tol=1e-15)
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_fibonacci_probabilities(self):
        _, probs, _ = second_kind_limit(incidence_matrix(FIBONACCI_SUBST), 0, tol=1e-15)
        assert probs[0] == pytest.approx(TAU**2 / (TAU + 2), abs=1e-12)
        assert probs[1] == pytest.approx(1 / (TAU + 2), abs=1e-12)

    def test_padovan_closed_form(self):
        rho = 1.324717957244746
        _, probs, _ = second_kind_limit(incidence_matrix(PADOVAN_SUBST), 0, tol=1e-15)
        pr2 = 1 / ((rho**2 - 1) ** 2 + (1 + rho - rho**2) ** 2 + 1)
        assert probs[2] == pytest.approx(pr2, abs=1e-10)

    def test_non_primitive_rejected(self):
        from pisotdyn.algebraic import IntMatrix

        with pytest.raises(ValueError):
            second_kind_limit(IntMatrix(((2, 0), (0, 2))), 0)

    @pytest.mark.parametrize("start", [2, -1, 5])
    def test_start_outside_the_alphabet_is_refused(self, start):
        # 2 and -1 divided by a zero norm
        with pytest.raises(ValueError, match="letter index out of range"):
            second_kind_limit(incidence_matrix(FIBONACCI_SUBST), start)

    def test_residual_decay(self):
        m = incidence_matrix(FIBONACCI_SUBST)
        v = [1.0, 0.0]
        residuals = []
        for _ in range(40):
            w = [m.entries[0][0] * v[0] + m.entries[0][1] * v[1],
                 m.entries[1][0] * v[0] + m.entries[1][1] * v[1]]
            norm = math.hypot(*w)
            w = [x / norm for x in w]
            residuals.append(max(abs(a - b) for a, b in zip(w, v)))
            v = w
        ratio_bound = 1 / TAU**2 + 0.05  # second eigenvalue magnitude over tau
        for a, b in zip(residuals[4:30], residuals[5:31]):
            if a > 1e-14:
                assert b <= a * (ratio_bound + 0.05)


class TestSimulation:
    def test_reproducible(self):
        a = quantum_spacing_simulate(FIBONACCI_SUBST, TAU % (2 * math.pi), 1.0, 500, 99)
        b = quantum_spacing_simulate(FIBONACCI_SUBST, TAU % (2 * math.pi), 1.0, 500, 99)
        assert a.angles.angles == b.angles.angles
        assert a.outcomes == b.outcomes

    def test_angles_are_the_driven_walk_cached_on_first_read(self):
        run = quantum_spacing_simulate(FIBONACCI_SUBST, 1.25, 4.5, 500, 3)
        assert "angles" not in vars(run)  # nothing built until read
        assert run.angles == _driven_angles(run.outcomes, 1.25, 4.5)
        assert run.angles is run.angles
        for again in (copy.copy(run), copy.deepcopy(run), pickle.loads(pickle.dumps(run))):
            assert again == run and again.angles == run.angles

    def test_letter_rates_cover_both_letters(self):
        # one step draws one letter; the other letter's rate is 0, not missing
        for seed in range(1, 21):
            run = quantum_spacing_simulate(FIBONACCI_SUBST, 1.0, 2.0, 1, seed)
            assert run.letter_rates == ((1.0, 0.0) if run.outcomes == (0,) else (0.0, 1.0))

    def test_rate_concentration(self):
        run = quantum_spacing_simulate(PELL_SUBST, 1.0, 2.0, 10**4, 7)
        assert abs(run.letter_rates[0] - 2 / 3) < 0.02

    def test_equal_betas_equal_gaps(self):
        run = quantum_spacing_simulate(FIBONACCI_SUBST, 1.0, 1.0, 100, 5)
        gaps = {
            round((b - a) % (2 * math.pi), 12)
            for a, b in zip(run.angles.angles, run.angles.angles[1:])
        }
        assert len(gaps) == 1

    @staticmethod
    def full_step_reference(sigma, beta0, beta1, n_steps, seed):
        """The loop that steps the 2x2 iteration at every angle, with the
        float operations of the simulation's iterates: angles, outcomes, p0
        per step, and the first step whose normalized vector is its own
        image (None if none is)."""
        m = incidence_matrix(sigma).entries
        rng = random.Random(seed)
        v, theta, angles, outcomes, p0s, fixed = [1.0, 0.0], 0.0, [], [], [], None
        for step in range(n_steps):
            w = [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]
            norm = math.sqrt(w[0] * w[0] + w[1] * w[1])
            w = [w[0] / norm, w[1] / norm]
            if fixed is None and w == v:
                fixed = step
            v = w
            p0s.append(v[0] * v[0])
            letter = 0 if rng.random() < p0s[-1] else 1
            outcomes.append(letter)
            theta = (theta + (beta0 if letter == 0 else beta1)) % (2 * math.pi)
            angles.append(theta)
        return tuple(angles), tuple(outcomes), p0s, fixed

    SPECS = pytest.mark.parametrize("rules, reaches_fixed_point", [
        ({"0": "0001", "1": "01"}, False),
        ({"0": "01", "1": "0"}, True),
        ({"0": "01", "1": "001"}, True),
    ], ids=["0001-01", "fibonacci", "pell"])

    @SPECS
    def test_skipped_steps_match_the_full_step_loop(self, rules, reaches_fixed_point):
        sigma = Substitution.from_rules(BINARY, rules)
        run = quantum_spacing_simulate(sigma, 1.25, 4.5, 3000, 11)
        angles, outcomes, _, fixed = self.full_step_reference(sigma, 1.25, 4.5, 3000, 11)
        assert (fixed is not None) == reaches_fixed_point
        assert run.angles.angles == angles and run.outcomes == outcomes

    @classmethod
    def assert_every_p0_is_the_full_step_value(cls, monkeypatch, sigma, n_steps):
        # draws placed on the reference p0 and just below it: a step draws 1
        # against the first exactly when its p0 is <= the reference, and 0
        # against the second exactly when it is >= the reference
        _, _, p0s, _ = cls.full_step_reference(sigma, 1.0, 2.0, n_steps, 0)
        for draws, letter in ((p0s, 1), ([math.nextafter(p, 0.0) for p in p0s], 0)):
            source = types.SimpleNamespace(random=iter(draws).__next__)
            monkeypatch.setattr(quantum, "random",
                                types.SimpleNamespace(Random=lambda seed: source))
            run = quantum_spacing_simulate(sigma, 1.0, 2.0, n_steps, 0)
            assert run.outcomes == (letter,) * n_steps

    @SPECS
    def test_every_p0_is_the_full_step_value(self, monkeypatch, rules, reaches_fixed_point):
        sigma = Substitution.from_rules(BINARY, rules)
        self.assert_every_p0_is_the_full_step_value(monkeypatch, sigma, 300)

    # incidence matrix [[2, 2], [1, 0]], eigenvalues 1 +- sqrt(3): primitive
    # and Pisot, and its normalized float iterates alternate for ever
    ALTERNATING = {"0": "001", "1": "00"}

    @pytest.mark.parametrize("rules", [ALTERNATING, {"0": "01", "1": "0"}, {"0": "01", "1": "001"}],
                             ids=["001-00", "fibonacci", "pell"])
    def test_long_runs_match_the_full_step_loop(self, monkeypatch, rules):
        sigma = Substitution.from_rules(BINARY, rules)
        run = quantum_spacing_simulate(sigma, 1.25, 4.5, 20_000, 3)
        angles, outcomes, _, _ = self.full_step_reference(sigma, 1.25, 4.5, 20_000, 3)
        assert run.angles.angles == angles and run.outcomes == outcomes
        self.assert_every_p0_is_the_full_step_value(monkeypatch, sigma, 20_000)

    def test_alternating_iterates_repeat_their_cycle(self, monkeypatch):
        # the generator repeats the 2-cycle it reached without computing
        # another product, and it never ends
        m = incidence_matrix(Substitution.from_rules(BINARY, self.ALTERNATING))
        assert m == IntMatrix(((2, 2), (1, 0)))
        reference, v = [], (1.0, 0.0)
        for _ in range(10**5):
            w = m.apply(v)
            s = math.sqrt(sum(x * x for x in w))
            v = tuple(x / s for x in w)
            reference.append(v)
        products = []
        apply = IntMatrix.apply
        monkeypatch.setattr(IntMatrix, "apply", lambda self, v: products.append(v) or apply(self, v))
        assert list(islice(normalized_iterates(m, (1.0, 0.0)), 10**5)) == reference
        assert len(products) <= 64

    def test_manifest(self):
        run = quantum_spacing_simulate(FIBONACCI_SUBST, 1.0, 2.0, 10, 1)
        m = run.manifest
        assert m["schema"] == 1 and m["seed"] == 1 and m["N"] == 10
        assert "substitution" in m


@pytest.mark.parametrize("beta0", [-1e-20, -0.5, 7.0, TWO_PI, -TWO_PI])
def test_the_walk_reduces_beta_once(beta0):
    # the walk reduces each beta mod 2*pi, so both spacing procedures turn
    # by the same reduced angles; -1e-20 reduces to 2*pi itself
    run = quantum_spacing_simulate(FIBONACCI_SUBST, beta0, 0.5, 2000, 1)
    assert run.angles == _driven_angles(run.outcomes, beta0 % TWO_PI, 0.5)
    # substitution_spacing reduced both betas itself when either lay
    # outside [0, 2*pi), then stepped theta = (theta + beta) mod 2*pi
    b0, b1 = beta0, 0.5
    if not (0.0 <= b0 < TWO_PI and 0.0 <= b1 < TWO_PI):
        b0 %= TWO_PI
        b1 %= TWO_PI
    expected, theta = [], 0.0
    for d in fixed_point_prefix(FIBONACCI_SUBST, 0, 2000).prefix(2000).letters:
        theta = (theta + (b0 if d == 0 else b1)) % TWO_PI
        expected.append(theta)
    assert substitution_spacing(FIBONACCI_SUBST, beta0, 0.5, 2000).angles == tuple(expected)
