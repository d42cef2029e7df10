"""Seeded inputs for the three workloads.

A workload is one pass: a list of CLI calls, each paired with the oracle
that checks its output.  Every choice is drawn from random.Random(seed);
the program sees only the argv and the spec files named in it.

Every workload reaches every function that has a per-layer time, so that
none of those times reads a constant 0; the size of the calls decides
which layer dominates.  Sizes are fixed per slot and the seed picks the inputs,
so that one seed's pass costs about what another's does.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles as check

NAMED_SPECS = {
    "fib": {"0": "01", "1": "0"},
    "pell": {"0": "01", "1": "001"},
    "tm": {"0": "01", "1": "10"},
    "trib": {"0": "01", "1": "02", "2": "0"},
}
# p_n of the fixed points whose complexity is known in closed form:
# Sturmian (Fibonacci) and Arnoux-Rauzy (tribonacci)
CLOSED_COMPLEXITY = {"fib": lambda n: n + 1, "trib": lambda n: 2 * n + 1}

GOLDEN = (-1, -1, 1)
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
PLASTIC = (-1, -1, 0, 1)
TRIBONACCI = (-1, -1, -1, 1)
SMALL_POLYS = (
    GOLDEN, PLASTIC, TRIBONACCI, (-1, -2, 1), (1, -3, 1), (-1, 0, -1, 1),
    (-1, 0, 0, -1, 1), (1, 0, 1), (1, -1, 1), (-2, 0, 0, 1), (-1, 1, -2, 1),
)
# ROADMAP item 5's bad inputs, plus bad inputs the CLI already rejects
MALFORMED = (
    ("spacing", "roots", "-n", "1"),
    ("hiller", "0"),
    ("entropy", "--word", "0101", "--n-max", "0"),
    ("cantor", "represent", "--q", "3/2"),
    ("cantor", "dim", "--alphabet-size", "1"),
    ("subst", "fib.json", "iterate", "-k", "0"),
    ("quantum", "--spec", "fib.json", "--seed", "1", "-N", "0", "--format", "json"),
    ("pv", "--poly", "1,2"),
    ("pv", "--poly", "1,x"),
    ("hiller",),
    ("spacing", "cusps", "-n", "5"),
    ("spacing", "cusps", "--poly", "-1,0,1", "-n", "5"),
    ("subst", "missing.json", "show"),
)


@dataclass
class Call:
    argv: list
    check: object  # (rc, stdout bytes, stderr text) -> None, or raises Mismatch

    @property
    def label(self) -> str:
        return " ".join(self.argv)


class Session:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.specs = dict(NAMED_SPECS)
        self.calls = []

    def add(self, oracle, *argv):
        self.calls.append(Call([str(a) for a in argv], oracle))

    def spec(self, rules: dict) -> str:
        name = f"s{len(self.specs) - len(NAMED_SPECS)}"
        self.specs[name] = rules
        return name

    def primitive(self, size: int) -> str:
        """Primitive by construction: the image of 0 starts with 0 and holds
        every letter, and every other image holds 0."""
        rng = self.rng
        letters = [str(i) for i in range(size)]
        body = letters[1:] + [rng.choice(letters) for _ in range(rng.randint(0, 1))]
        rng.shuffle(body)
        rules = {"0": "0" + "".join(body)}
        for a in letters[1:]:
            image = ["0"] + [rng.choice(letters) for _ in range(rng.randint(0, 2))]
            rng.shuffle(image)
            rules[a] = "".join(image)
        return self.spec(rules)

    def pisot_binary(self) -> str:
        """Primitive binary spec passing the integer Pisot test
        |tr M| > |1 + det M|."""
        while True:
            name = self.primitive(2)
            m = check.incidence(self.specs[name])
            if abs(m[0][0] + m[1][1]) > abs(1 + m[0][0] * m[1][1] - m[0][1] * m[1][0]):
                return name
            del self.specs[name]

    def beta(self):
        return self.rng.choice(("tau", "rho", "pi")), f"{self.rng.uniform(0.1, 6.2):.6f}"

    # -- one call of each kind ------------------------------------------------
    def entropy(self, spec: str, prefix_len: int, n_max: int):
        self.add(
            check.entropy(self.specs[spec], prefix_len, n_max, CLOSED_COMPLEXITY.get(spec)),
            "entropy", "--spec", f"{spec}.json", "--prefix-len", prefix_len, "--n-max", n_max,
        )

    def fixpoint(self, spec: str, length: int):
        self.add(check.fixpoint(self.specs[spec], length), "subst", f"{spec}.json", "fixpoint", "-L", length)

    def iterate(self, spec: str, k: int):
        self.add(check.iterate(self.specs[spec], k), "subst", f"{spec}.json", "iterate", "-k", k)

    def show(self, spec: str):
        self.add(check.show(self.specs[spec]), "subst", f"{spec}.json", "show")

    def analyze(self, spec: str):
        self.add(check.analyze(self.specs[spec]), "subst", f"{spec}.json", "analyze")

    def drive(self, spec: str, n: int, fmt: str):
        b0, b1 = self.beta()
        self.add(check.drive(self.specs[spec], b0, b1, n, fmt), "spacing", "drive", "--spec", f"{spec}.json",
                 "--beta0", b0, "--beta1", b1, "-n", n, "--format", fmt)

    def quantum(self, spec: str, steps: int, fmt: str):
        b0, b1 = self.beta()
        seed = self.rng.randrange(10**6)
        self.add(check.quantum(self.specs[spec], b0, b1, steps, seed, fmt), "quantum", "--spec", f"{spec}.json",
                 "--beta0", b0, "--beta1", b1, "-N", steps, "--seed", seed, "--format", fmt)

    def roots(self, n: int, fmt: str):
        self.add(check.roots(n, fmt), "spacing", "roots", "-n", n, "--format", fmt)

    def cusps(self, coeffs, big_k: int):
        self.add(check.cusps(coeffs, big_k), "spacing", "cusps", "--poly", _poly(coeffs), "-n", big_k)

    def pv(self, coeffs):
        self.add(check.pv(coeffs), "pv", "--poly", _poly(coeffs))

    def hiller(self, n: int):
        self.add(check.hiller(n), "hiller", n)

    def hiller_allowed(self):
        d, n_max = self.rng.randint(1, 12), self.rng.randint(20, 60)
        self.add(check.hiller_allowed(d, n_max), "hiller", "--allowed", d, "--n-max", n_max)

    def cantor_represent(self):
        size, den = self.rng.randint(2, 6), self.rng.randint(2, 60)
        q = Fraction(self.rng.randint(0, den), den)
        self.add(check.cantor_represent(size, q, 16), "cantor", "represent", "--q", f"{q.numerator}/{q.denominator}",
                 "--digits", 16, "--alphabet-size", size)


def _poly(coeffs) -> str:
    return ",".join(map(str, coeffs))


def pisot_pool() -> list:
    """(coefficients, PV root) of the monic cubics and quartics with
    coefficients in [-2, 2] whose numpy roots show a PV number below 2."""
    pool = []
    for degree in (3, 4):
        for low in itertools.product(range(-2, 3), repeat=degree):
            coeffs = low + (1,)
            roots, is_pv = check.pv_layout(coeffs)
            if is_pv and max(abs(roots)) < 2:
                pool.append((coeffs, float(max(abs(roots)))))
    return pool


def pv_by_construction(rng: random.Random, degree: int) -> tuple:
    """|a_{d-1}| > 1 + sum of the other |a_i| puts exactly one root outside
    the circle (Rouche); its sign is random, so the root is sometimes
    negative and the polynomial then not PV."""
    low = [rng.randint(-2, 2) for _ in range(degree - 1)]
    low[0] = low[0] or rng.choice((-1, 1))
    top = rng.choice((-1, 1)) * (sum(map(abs, low)) + 2 + rng.randint(0, 2))
    return tuple(low) + (top, 1)


def random_monic(rng: random.Random, degree: int) -> tuple:
    low = [rng.randint(-3, 3) for _ in range(degree)]
    low[0] = low[0] or 1
    return tuple(low) + (1,)


# ---------------------------------------------------------------------------
# workloads

def certify(s: Session):
    """Exact root location and certified-interval refinement."""
    for coeffs, big_k in ((GOLDEN, 180), (PLASTIC, 200), (TRIBONACCI, 160)):
        s.cusps(coeffs, big_k)
    # the seeded PV number gets about the bits of golden's 180 powers
    coeffs, lam = s.rng.choice(pisot_pool())
    s.cusps(coeffs, min(200, max(150, round(180 * math.log(GOLDEN_RATIO) / math.log(lam)))))
    # degrees are fixed so that seeds differ in coefficients, not in cost
    for i, degree in enumerate((6, 7, 8, 10, 11, 13, 14, 16)):
        make = pv_by_construction if i % 2 == 0 else random_monic
        s.pv(make(s.rng, degree))
    for size in (2, 3, 4):
        s.analyze(s.primitive(size))
    # one short call for each remaining layer
    s.entropy(s.rng.choice(sorted(NAMED_SPECS)), 2000, 20)
    s.iterate(s.rng.choice(sorted(NAMED_SPECS)), 5)
    s.drive(s.pisot_binary(), 50, "json")
    s.quantum(s.pisot_binary(), 100, "csv")
    s.hiller_allowed()
    s.cantor_represent()


def streams(s: Session):
    """Long fixed points, factor counting and multi-MB angle output."""
    s.entropy("fib", 500_000, 200)
    s.entropy("trib", 200_000, 200)
    s.entropy(s.primitive(s.rng.randint(2, 4)), 100_000, 200)
    s.fixpoint(s.primitive(s.rng.randint(2, 4)), 1_000_000)
    s.iterate("tm", 18)
    s.drive(s.pisot_binary(), 100_000, "csv")
    s.quantum(s.pisot_binary(), 100_000, "csv")
    s.quantum("pell", 100_000, "json")
    s.roots(100_000, "json")
    # one short call for each remaining layer
    s.cusps(GOLDEN, 5)
    s.hiller_allowed()
    s.cantor_represent()


def interactive(s: Session):
    """36 short calls: start-up, argument parsing and crystal."""
    rng = s.rng
    for _ in range(4):
        s.hiller(rng.randint(1, 10**6))
    s.add(check.hiller_table(36), "hiller", "--table", 36)
    for _ in range(2):
        s.hiller_allowed()
        size = rng.randint(3, 10)
        s.add(check.cantor_dim(size), "cantor", "dim", "--alphabet-size", size)
        digits = "".join(str(rng.randrange(size)) for _ in range(rng.randint(1, 12)))
        s.add(check.cantor_value(size, digits), "cantor", "value", "--alphabet-size", size, "--word", digits)
        s.cantor_represent()
        excluded = rng.randint(1, size - 2)
        kept = [str(i) for i in range(size) if i != excluded]
        digits = "".join(rng.choice(kept) for _ in range(rng.randint(1, 12)))
        s.add(check.cantor_function(size, excluded, digits), "cantor", "function", "--alphabet-size", size,
              "--excluded", excluded, "--word", digits)
        spec = rng.choice(sorted(NAMED_SPECS))
        s.show(spec)
        s.iterate(spec, 5)
    for coeffs in rng.sample(SMALL_POLYS, 4):
        s.pv(coeffs)
    s.add(check.roots(5, "csv"), "spacing", "roots", "-n", 5)
    s.entropy(s.primitive(rng.randint(2, 4)), 1000, 12)
    s.drive(s.pisot_binary(), 50, "json")
    s.cusps(rng.choice(pisot_pool())[0], 5)
    s.fixpoint(rng.choice(sorted(NAMED_SPECS)), 50)
    s.analyze(rng.choice(sorted(NAMED_SPECS)))
    binary = s.pisot_binary()
    s.quantum(binary, 100, "csv")
    s.quantum(binary, 100, "json")
    s.roots(7, "json")
    for argv in rng.sample(MALFORMED, 4):
        s.add(check.malformed, *argv)


WORKLOADS = {"certify": certify, "streams": streams, "interactive": interactive}


def build(name: str, seed: int):
    """(spec files as {stem: rules}, calls of one pass in seeded order)."""
    s = Session(seed)
    WORKLOADS[name](s)
    s.rng.shuffle(s.calls)
    return s.specs, s.calls
