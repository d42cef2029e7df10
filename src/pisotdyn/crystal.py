"""Crystallographic restriction (Euler phi, Hiller's function) and the
generalized Cantor machinery: value maps, nonterminating representations,
alphabet transitions, Hausdorff dimension and Cantor function values."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .record import Record
from .words import Alphabet, Word

MAX_N = 2**63 - 1
# factorize trial-divides below _TRIAL; _rho takes one gcd per _RHO_BATCH steps
_TRIAL = 2**10
_RHO_BATCH = 128


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list:
    """(prime, exponent) pairs in ascending order: trial division below
    _TRIAL, then Pollard-Brent rho on the cofactor left."""
    if not 1 <= n <= MAX_N:
        raise ValueError("n out of supported range")
    primes, d = [], 2
    while d * d <= n and d < _TRIAL:
        while n % d == 0:
            n //= d
            primes.append(d)
        d += 1 if d == 2 else 2
    if n > 1:
        primes += _prime_factors(n)
    return [(p, primes.count(p)) for p in sorted(set(primes))]


def _prime_factors(n: int) -> list:
    """The prime factors of n > 1, with multiplicity, when n has none below
    _TRIAL: n itself when it is below _TRIAL^2 or prime, else those of its
    square root or of the two parts that _rho splits it into."""
    if n < _TRIAL * _TRIAL or _is_prime(n):
        return [n]
    r = math.isqrt(n)
    if r * r == n:
        return _prime_factors(r) * 2
    g = _rho(n)
    return _prime_factors(g) + _prime_factors(n // g)


def _rho(n: int) -> int:
    """A proper factor of n, composite, not a square and with no factor
    below _TRIAL: Brent's cycle search on x -> x^2 + c mod n, c = 1, 2, ...,
    one gcd per _RHO_BATCH steps, and a batch that overshot redone by steps."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g, k = math.gcd(q, n), k + _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def euler_phi(n: int) -> int:
    """Euler's totient, with phi(1) = 1 by the standard convention."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def hiller(n: int) -> int:
    """Hil(n): sum of phi(p^a) over the prime powers of n, skipping the
    prime power 2 itself; Hil(1) = Hil(2) = 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for p, a in factorize(n):
        if p == 2 and a == 1:
            continue
        total += p ** (a - 1) * (p - 1)  # phi(p^a)
    return total


def hiller_table(n_max: int) -> list:
    if n_max < 1:
        raise ValueError("n must be >= 1")
    return [(n, hiller(n)) for n in range(1, n_max + 1)]


def allowed_orders(d: int, n_max: int) -> set:
    """Rotation orders realizable by integer matrices in dimension d:
    {n <= n_max : Hil(n) <= d}."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    return {n for n in range(1, n_max + 1) if hiller(n) <= d}


# ---------------------------------------------------------------------------
# value maps and representations

def numeric_value(alphabet: Alphabet, prefix: Word) -> Fraction:
    """v_A of a finite prefix: sum lex(x_n) / |A|^n, exact."""
    if len(prefix) == 0:
        raise ValueError("empty prefix")
    if prefix.alphabet != alphabet:
        raise ValueError("word over a different alphabet")
    b = alphabet.size
    acc = 0
    for c in prefix.letters:  # Horner: acc = the prefix read as a base-b integer
        acc = acc * b + c
    return Fraction(acc, b ** len(prefix))


def representation(alphabet: Alphabet, q: Fraction, digits: int) -> Word:
    """First `digits` letters of the nonterminating base-|A| expansion of q.

    For q = 0 the expansion is all first-letter digits; for terminating
    fractions the trailing representation ...a_i a_max a_max... is chosen,
    matching the non-injectivity of the value map.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError("q must lie in [0, 1]")
    if digits < 0:
        raise ValueError("digits must be >= 0")
    b = alphabet.size
    num, den = q.numerator, q.denominator  # the remainder is num / den
    out = bytearray()
    for _ in range(digits):
        digit, num = divmod(num * b, den)
        if num == 0 and digit > 0:
            # terminating: borrow one so the tail becomes (b-1) repeated
            digit, num = digit - 1, den
        out.append(digit)
    return Word(alphabet, out)


# ---------------------------------------------------------------------------
# generalized Cantor sets

class CantorSpec(Record):
    __slots__ = _fields = ("alphabet", "excluded")  # excluded: letter index removed from A

    def __init__(self, alphabet: Alphabet, excluded: int):
        if not 0 <= excluded < alphabet.size:
            raise ValueError("excluded letter out of range")
        super().__init__(alphabet, excluded)

    @property
    def interior(self) -> bool:
        """The paper-hypothesis case 0 < lex(a) < |A|-1."""
        return 0 < self.excluded < self.alphabet.size - 1

    @property
    def sub_alphabet(self) -> Alphabet:
        return Alphabet(
            tuple(
                s for i, s in enumerate(self.alphabet.symbols) if i != self.excluded
            )
        )


MIDDLE_THIRD = CantorSpec(Alphabet(("0", "1", "2")), 1)


def hausdorff_dimension(spec: CantorSpec) -> float:
    """log(|A| - 1) / log |A|."""
    size = spec.alphabet.size
    if size < 3:
        raise ValueError("alphabet size must be >= 3")
    return math.log(size - 1) / math.log(size)


def cantor_function_value(spec: CantorSpec, prefix: Word) -> Fraction:
    """f_{A,a}(w) = v_B(w) + |B| / |B|^(|w|+1) for a finite B-word w."""
    if not spec.interior:
        raise ValueError("excluded letter must be interior: 0 < lex(a) < |A|-1")
    bsub = spec.sub_alphabet
    if prefix.alphabet == spec.alphabet:
        if spec.excluded in prefix.letters:
            raise ValueError("prefix uses the excluded letter")
        prefix = Word(
            bsub,
            tuple(c if c < spec.excluded else c - 1 for c in prefix.letters),
        )
    elif prefix.alphabet != bsub:
        raise ValueError("prefix over an unrelated alphabet")
    nb = bsub.size
    return numeric_value(bsub, prefix) + Fraction(nb, nb ** (len(prefix) + 1))


def staircase_value(spec: CantorSpec, x: Fraction) -> Fraction:
    """Classical Cantor staircase at x in [0, 1] for the middle-excluded
    construction: read the first 64 base-|A| digits of x until the excluded
    letter appears, map surviving digits into base |B|.  x = 1 reads as the
    one digit |A|, which maps to |B|, so the staircase ends at 1."""
    if not spec.interior:
        raise ValueError("excluded letter must be interior")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    base = spec.alphabet.size
    num, den = x.numerator, x.denominator
    acc = 0
    for k in range(1, 65):
        digit, num = divmod(num * base, den)
        # the A-digit's B-position; the excluded digit keeps its own value,
        # the plateau to which the removed interval maps
        acc = acc * (base - 1) + digit - (digit > spec.excluded)
        if digit == spec.excluded:
            break
    return Fraction(acc, (base - 1) ** k)
