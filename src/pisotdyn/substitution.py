"""Substitutions, fixed-point streaming, incidence matrices and the
Pisot-type classification report."""

from __future__ import annotations

import json
from functools import cached_property
from fractions import Fraction

from .algebraic import (
    IntMatrix,
    IntPolynomial,
    RealApprox,
    RootBracket,
    RootLayout,
    _conjugate_modulus_bound,
    _faddeev_leverrier,
    _irreducible,
    _round,
    dominant_root_interval,
    is_primitive,
    root_layout,
)
from .record import Record
from .words import Alphabet, PrefixStream, Word, entropy_estimate


class FixedPointError(ValueError):
    """Raised when sigma(a) does not begin with a; carries the smallest
    power p (if any) such that sigma^p(a) starts with a."""

    def __init__(self, message, suggested_power: int | None = None):
        super().__init__(message)
        self.suggested_power = suggested_power


class Substitution(Record):
    __slots__ = _fields = ("alphabet", "rules")  # rules: one Word per letter, lex order

    def __init__(self, alphabet: Alphabet, rules):
        if len(rules) != alphabet.size:
            raise ValueError("rules must cover every letter exactly once")
        for w in rules:
            if w.alphabet != alphabet:
                raise ValueError("rule image over a different alphabet")
            if len(w) == 0:
                raise ValueError("rule images must be nonempty")
        super().__init__(alphabet, tuple(rules))

    @classmethod
    def from_rules(cls, alphabet: Alphabet, rule_map: dict) -> "Substitution":
        missing = [s for s in alphabet.symbols if s not in rule_map]
        if missing:
            raise ValueError(f"missing rules for letters: {missing}")
        extra = [s for s in rule_map if s not in alphabet.symbols]
        if extra:
            raise ValueError(f"rules for unknown letters: {extra}")
        return cls(alphabet, tuple(alphabet.word(rule_map[s]) for s in alphabet.symbols))

    @classmethod
    def from_json(cls, text: str) -> "Substitution":
        """The spec `{"alphabet": [symbols], "rules": {symbol: image}}`; a
        spec that is not of that shape raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        for key in ("alphabet", "rules"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        try:
            symbols = tuple(data["alphabet"])
        except TypeError:
            raise ValueError("'alphabet' must be a list of symbols") from None
        if not isinstance(data["rules"], dict):
            raise ValueError("'rules' must be a JSON object")
        for symbol, image in data["rules"].items():
            if not isinstance(image, str):
                raise ValueError(f"rule for {symbol!r} must be a string")
        return cls.from_rules(Alphabet(symbols), data["rules"])

    def to_dict(self) -> dict:
        symbols = self.alphabet.symbols
        return {"alphabet": list(symbols), "rules": dict(zip(symbols, map(str, self.rules)))}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def power(self, k: int) -> "Substitution":
        """sigma^k, whose image of each letter c is iterate(self, c, k)."""
        if k < 1:
            raise ValueError("power must be >= 1")
        letters = range(self.alphabet.size)
        return Substitution(self.alphabet, tuple(iterate(self, c, k) for c in letters))


def _images(sigma: Substitution) -> tuple:
    return tuple(w.letters for w in sigma.rules)


def apply(sigma: Substitution, w: Word) -> Word:
    if w.alphabet != sigma.alphabet:
        raise ValueError("word over a different alphabet")
    return Word(sigma.alphabet, b"".join(map(_images(sigma).__getitem__, w.letters)))


def iterate(sigma: Substitution, letter: int, k: int) -> Word:
    """sigma^k(letter), composing letter images one level at a time:
    sigma^(j+1)(c) is the join of sigma^j(d) over the letters d of sigma(c).
    Level j keeps only the letters that occur in sigma^(k-j)(letter), so
    every image held is a factor of the result."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rules = _images(sigma)
    reach = [Word(sigma.alphabet, (letter,)).letters]
    for _ in range(k - 1):
        reach.append(bytes(set(b"".join(rules[d] for d in reach[-1]))))
    images = {d: rules[d] for d in reach[-1]}
    for level in reversed(reach[:-1]):
        images = {d: b"".join([images[e] for e in rules[d]]) for d in level}
    return Word(sigma.alphabet, images[letter])


def incidence_matrix(sigma: Substitution) -> IntMatrix:
    """(i, j) entry counts letter a_i in sigma(a_j)."""
    d = sigma.alphabet.size
    rows = [[0] * d for _ in range(d)]
    for j, image in enumerate(sigma.rules):
        for c in image.letters:
            rows[c][j] += 1
    return IntMatrix(rows)


def letter_counts(sigma: Substitution, letter: int, k: int) -> tuple:
    """Exact per-letter counts of sigma^k(letter) via the abelianization;
    works far past the point where the word could be materialized."""
    if k < 0:
        raise ValueError("k must be >= 0")
    Word(sigma.alphabet, (letter,))  # an out-of-range letter raises
    m = incidence_matrix(sigma)
    v = tuple(int(i == letter) for i in range(sigma.alphabet.size))
    for _ in range(k):
        v = m.apply(v)
    return v


def iterate_length(sigma: Substitution, letter: int, k: int) -> int:
    return sum(letter_counts(sigma, letter, k))


def _fixed_point_power(sigma: Substitution, letter: int) -> int | None:
    """The least p such that sigma^p(letter) starts with letter and has at
    least 2 letters, or None.  sigma^p(letter) starts with f^p(letter), f
    the first-letter map, so p is the period of letter under f (at most
    |A|), and sigma^p(letter) is one letter only when every image along
    the cycle is.  No sigma^p(letter) is built."""
    images = _images(sigma)
    c, grows = letter, False
    for p in range(1, sigma.alphabet.size + 1):
        grows = grows or len(images[c]) >= 2
        c = images[c][0]
        if c == letter:
            return p if grows else None
    return None


def fixed_point_prefix(sigma: Substitution, letter: int, length: int) -> PrefixStream:
    """Stream of the fixed point sigma-bar(letter).

    Requires sigma(letter) to start with letter and have length >= 2;
    otherwise raises FixedPointError suggesting a power that works.
    """
    Word(sigma.alphabet, (letter,))  # an out-of-range letter raises
    power = _fixed_point_power(sigma, letter)
    if power != 1:
        raise FixedPointError(
            f"sigma({sigma.alphabet.symbols[letter]}) does not admit a fixed point"
            + (f"; sigma^{power} does" if power else ""),
            suggested_power=power,
        )
    return PrefixStream(sigma.alphabet, _images(sigma), letter)


def factor_window(sigma: Substitution, stream: PrefixStream, n_max: int,
                  limit: int) -> int | None:
    """A length L <= limit such that the first L letters of sigma's fixed
    point u, streamed by `stream`, hold every factor of u of length at most
    n_max; None when sigma is not primitive or no such L is found.

    For primitive sigma the 2-factors of u are those inside each image,
    closed under xy -> sigma(x) sigma(y).  Take the least K with every
    |sigma^K(c)| >= n_max and the least m with every 2-factor in u[0:m].
    Then u = sigma^K(u) is a join of blocks sigma^K(c), a window of length
    n <= n_max lies inside two consecutive blocks sigma^K(xy), and so
    inside sigma^K(u[0:m]) = u[0:L].  The prefix is read once, in doubling
    chunks, never past `limit`.
    """
    if not 1 <= n_max <= limit or not is_primitive(incidence_matrix(sigma)):
        return None
    images = _images(sigma)
    pairs = {img[i : i + 2] for img in images for i in range(len(img) - 1)}
    todo = list(pairs)
    while todo:
        x, y = todo.pop()
        pair = bytes((images[x][-1], images[y][0]))
        if pair not in pairs:
            pairs.add(pair)
            todo.append(pair)
    m, seen, size = 0, 0, 64
    while pairs:
        if seen == limit:
            return None
        size = min(2 * size, limit)
        letters = stream.prefix(size).letters
        for pair in list(pairs):
            i = letters.find(pair, max(seen - 1, 0))
            if i >= 0:
                pairs.remove(pair)
                m = max(m, i + 2)
        seen = size
    lengths = [1] * len(images)
    while min(lengths) < n_max:
        lengths = [sum(map(lengths.__getitem__, img)) for img in images]
    window = sum(map(lengths.__getitem__, letters[:m]))
    return window if window <= limit else None


def language_prefix(sigma: Substitution, letter: int, n_max: int, prefix_len: int) -> Word:
    """The prefix of sigma's fixed point from `letter` on which to count
    p_1 .. p_n_max: the factor window when there is one, else all
    `prefix_len` letters.  Both give the same counts."""
    stream = fixed_point_prefix(sigma, letter, prefix_len)
    return stream.prefix(factor_window(sigma, stream, n_max, prefix_len) or prefix_len)


class PisotReport(Record):
    # no __slots__: conjugate_moduli_bound caches in __dict__
    # frequencies: correctly rounded letter frequencies (empty if not primitive)
    _fields = ("primitive", "char_poly", "leading_eigenvalue", "root_counts",
               "irreducible", "pisot_loose", "pisot_strict", "frequencies")

    @cached_property
    def conjugate_moduli_bound(self) -> RealApprox:
        """[0, b] with b a certified dyadic upper bound on the moduli of the
        conjugates of the leading eigenvalue; [0, 1] when not Pisot type.
        Computed on first read."""
        if not self.pisot_loose:
            return RealApprox(Fraction(0), Fraction(1))
        # a loose layout has p = z^m sf with sf squarefree, and the root
        # counts are sf's (see root_layout): no second gcd
        c, p = self.root_counts, self.char_poly
        m = p.degree - (c.inside + c.on_circle + c.outside)
        sf = IntPolynomial(p.coefficients[m:])
        return RealApprox(Fraction(0), _conjugate_modulus_bound(sf))

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "primitive": self.primitive,
            "char_poly": list(self.char_poly.coefficients),
            "leading_eigenvalue": [
                float(self.leading_eigenvalue.lower),
                float(self.leading_eigenvalue.upper),
            ],
            "conjugate_moduli_bound": float(self.conjugate_moduli_bound.upper),
            "root_counts": self.root_counts.to_dict(),
            "irreducible": self.irreducible,
            "pisot_loose": self.pisot_loose,
            "pisot_strict": self.pisot_strict,
            "frequencies": list(self.frequencies),
        }


def _letter_frequencies(column: list, p: IntPolynomial, layout: RootLayout) -> tuple:
    """The Perron vector of a primitive M over its sum, each entry the
    correctly rounded float.

    Column 0 of adj(xI - M) is sum_k x^(d-1-k) b_k, b_k column 0 of the
    Faddeev-LeVerrier B_k: at the simple root lambda (bracketed by
    layout.lam, else as the largest real root of layout.sf) a positive
    multiple of the Perron vector.  Each entry is bounded at the P-bit ends,
    positive terms at one end and negative at the other, for P = 64, 128,
    ... until the two quotients of each entry's bounds round to one float."""
    d = len(column)
    rows = [[(k, b) for k, b in enumerate(row) if b] for row in zip(*column)]
    lam = layout.lam or dominant_root_interval(layout.sf)
    for bits, x_lo, x_hi in RootBracket(p, lam.lower, lam.upper).mantissas(64):
        # 2^(bits (d-1)) x^(d-1-k) at each end x / 2^bits, by k
        ends = [[x ** (d - 1 - k) << bits * k for k in range(d)] for x in (x_lo, x_hi)]
        low = [sum(b * ends[b < 0][k] for k, b in row) for row in rows]
        high = [sum(b * ends[b > 0][k] for k, b in row) for row in rows]
        s_low, s_high = sum(low), sum(high)
        if s_low > 0 and None not in (f := tuple(
                _round(a, s_high, b, s_low) for a, b in zip(low, high))):
            return f


def classify_pisot(sigma: Substitution) -> PisotReport:
    """Pisot-type classification of sigma's incidence matrix.

    pisot_loose is the literal eigenvalue layout: one simple real eigenvalue
    > 1, all others of modulus < 1.  pisot_strict is the PV verdict of the
    characteristic polynomial: a loose layout with p(0) != 0, which by
    Kronecker's theorem makes p irreducible over Q.
    """
    m = incidence_matrix(sigma)
    p, column = _faddeev_leverrier(m)
    primitive = is_primitive(m)
    layout = root_layout(p)
    return PisotReport(
        primitive=primitive,
        char_poly=p,
        leading_eigenvalue=layout.lam or RealApprox(Fraction(0), Fraction(0)),
        root_counts=layout.counts,
        irreducible=_irreducible(p, layout.counts),
        pisot_loose=layout.lam is not None,
        pisot_strict=layout.pv,
        frequencies=_letter_frequencies(column, p, layout) if primitive else (),
    )


def substitution_entropy_estimate(sigma: Substitution, n: int, prefix_len: int):
    """Finite-n estimator of the topological entropy of sigma: the sum of
    entropy estimates over all letters admitting a fixed point, each
    counted on its language_prefix.  Returns (value, flags); when no letter
    qualifies, flags['needs_power'] suggests the smallest power that does."""
    powers = [_fixed_point_power(sigma, a) for a in range(sigma.alphabet.size)]
    if 1 not in powers:
        found = [p for p in powers if p]
        return None, {"needs_power": min(found)} if found else {}
    return sum(
        entropy_estimate(language_prefix(sigma, a, n, prefix_len), n)
        for a, p in enumerate(powers) if p == 1
    ), {}


# the three named substitutions
FIBONACCI_SUBST = Substitution.from_rules(Alphabet(("0", "1")), {"0": "01", "1": "0"})
PELL_SUBST = Substitution.from_rules(Alphabet(("0", "1")), {"0": "01", "1": "001"})
PADOVAN_SUBST = Substitution.from_rules(
    Alphabet(("0", "1", "2")), {"0": "12", "1": "2", "2": "0"}
)
