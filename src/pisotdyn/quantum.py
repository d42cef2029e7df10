"""Finite-dimensional simulation of the quantum substitution operators:
first-kind word relabeling, symmetric states, quantum complexity, the
second-kind incidence-matrix dynamics and measurement-driven spacing."""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import islice, product

from .algebraic import IntMatrix, is_primitive, normalized_iterates
from .geometry import AngleList, _driven_angles
from .record import Record
from .substitution import Substitution, apply, classify_pisot, incidence_matrix
from .words import Alphabet, Word, complexity, entropy_from_count

SUPPORT_CAP = 2**20


class QuantumState(Record):
    """Finite complex superposition of words (orthonormal basis labels).

    amplitudes: ((Word, complex), ...) sorted by letter tuple.
    renormalized: set when a non-injective relabeling collided.
    """

    __slots__ = _fields = ("amplitudes", "renormalized")

    @classmethod
    def from_dict(cls, amps: dict, renormalized: bool = False) -> "QuantumState":
        amps = {w: complex(a) for w, a in amps.items() if a != 0}
        if not amps:
            raise ValueError("empty support")
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        if abs(norm - 1.0) > 1e-12:
            amps = {w: a / norm for w, a in amps.items()}
        items = tuple(sorted(amps.items(), key=lambda kv: kv[0].letters))
        return cls(items, renormalized)


def basis_state(w: Word) -> QuantumState:
    return QuantumState.from_dict({w: 1.0 + 0j})


def apply_first_kind(sigma: Substitution, psi: QuantumState) -> QuantumState:
    """sigma-hat |x> = |sigma(x)>, extended linearly.

    Colliding images (non-injective sigma on the support) add amplitudes;
    the state is renormalized and flagged.
    """
    out: dict = {}
    for w, a in psi.amplitudes:
        img = apply(sigma, w)
        out[img] = out[img] + a if img in out else a
    return QuantumState.from_dict(out, renormalized=len(out) < len(psi.amplitudes))


def symmetric_state(alphabet: Alphabet, n: int) -> QuantumState:
    """|S, n>: equal superposition of all length-n words."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = alphabet.size**n
    if count > SUPPORT_CAP:
        raise ValueError(f"support {count} exceeds cap {SUPPORT_CAP}")
    amp = 1.0 / math.sqrt(count)
    return QuantumState.from_dict(
        {Word(alphabet, letters): amp for letters in product(range(alphabet.size), repeat=n)})


def quantum_complexity(psi: QuantumState, n: int) -> float:
    """Expectation of the classical complexity: sum |amp|^2 * p_n(word)."""
    for w, _ in psi.amplitudes:
        if len(w) < n:
            raise ValueError("support word shorter than n")
    return sum(abs(a) ** 2 * complexity(w, n) for w, a in psi.amplitudes)


def quantum_entropy_estimate(psi: QuantumState, n: int) -> float:
    base = psi.amplitudes[0][0].alphabet.size
    return entropy_from_count(quantum_complexity(psi, n), base, n)


# ---------------------------------------------------------------------------
# second kind: the incidence matrix on the letter space

def second_kind_limit(m: IntMatrix, start: int, tol: float = 1e-13):
    """Normalized power iteration from the basis letter `start` until no
    entry moves by tol, at most 1000 steps.

    Returns (perron_vector, probabilities, iterations) with the vector
    normalized in l2 and Pr(a) = |<a|e_lambda>|^2.
    """
    if not is_primitive(m):
        raise ValueError("second_kind_limit requires a primitive matrix")
    if not 0 <= start < m.dimension:
        raise ValueError("letter index out of range")
    last = tuple(float(i == start) for i in range(m.dimension))
    for its, v in zip(range(1, 1001), normalized_iterates(m, last)):
        if max(abs(a - b) for a, b in zip(v, last)) < tol:
            break
        last = v
    return v, tuple(x * x for x in v), its


# ---------------------------------------------------------------------------
# measurement-driven spacing (the classical simulation of the procedure)

class SpacingRun(Record):
    """The result of a measurement-driven run (unhashable: the manifest is
    a dict)."""

    _fields = ("outcomes", "manifest")  # no __slots__: angles caches in __dict__

    @cached_property
    def angles(self) -> AngleList:
        """The walk that the outcomes drive, computed on first read."""
        return _driven_angles(self.outcomes, self.manifest["beta0"], self.manifest["beta1"])

    @property
    def letter_rates(self) -> tuple:
        n = len(self.outcomes)
        return tuple(self.outcomes.count(c) / n for c in (0, 1))


def quantum_spacing_simulate(sigma: Substitution, beta0: float, beta1: float,
                             n_steps: int, seed: int) -> SpacingRun:
    """At step n, sample a letter from the measurement distribution of the
    normalized n-th power iterate M^n e_start, then advance the angle by
    beta0 or beta1 (mod 2*pi).  Deterministic under the seed (Mersenne
    Twister via random.Random)."""
    if sigma.alphabet.size != 2:
        raise ValueError("binary substitution required")
    if n_steps < 1:
        raise ValueError("N must be >= 1")
    report = classify_pisot(sigma)
    if not (report.primitive and report.pisot_loose):
        raise ValueError("substitution must be primitive of Pisot type")
    draw = random.Random(seed).random
    iterates = normalized_iterates(incidence_matrix(sigma), (1.0, 0.0))
    outcomes = tuple(0 if draw() < x * x else 1 for x, _ in islice(iterates, n_steps))
    manifest = {
        "schema": 1,
        "generator": "random.Random (Mersenne Twister)",
        "seed": seed,
        "N": n_steps,
        "beta0": beta0,
        "beta1": beta1,
        "substitution": sigma.to_dict(),
    }
    return SpacingRun(outcomes, manifest)
