"""Exact integer-polynomial machinery.

Characteristic polynomials, unit-disk root counting, Pisot-Vijayaraghavan
certification, Newton power sums, linear recurrences and the near-integer
decay of PV powers.  Everything that decides root location does so over the
integers; floating point only ever appears in reported intervals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import cycle
from operator import mul

from .record import Record


# ---------------------------------------------------------------------------
# polynomial arithmetic over the integers (coefficient tuples, constant
# term first)

def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pdeg(c) -> int:
    return len(c) - 1


def _primitive(c):
    """c divided by its positive content."""
    g = math.gcd(*c)
    return tuple(x // g for x in c) if g > 1 else tuple(c)


def _prem(a, b):
    """A positive multiple of the remainder of a by b: b's lead is made
    positive (a by -b leaves the same remainder), and each step scales by
    it, so the quotient stays integral and no sign is flipped."""
    if b[-1] < 0:
        b = [-x for x in b]
    n, r = len(b) - 1, list(a)
    while len(r) > n:
        c = r.pop()
        r = [b[-1] * x for x in r]
        for i in range(n):
            r[len(r) - n + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r) or (0,)


def _pexact_div(a, b):
    """a / b for integer polynomials that b divides in Z[x]."""
    n = len(b) - 1
    r = list(a)
    q = []
    for k in range(len(a) - 1 - n, -1, -1):
        c = r[k + n] // b[-1]
        q.append(c)
        for i in range(n + 1):
            r[k + i] -= c * b[i]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(reversed(q))


def _pderiv(a):
    return tuple(i * a[i] for i in range(1, len(a))) or (0,)


def _peval(a, x):
    """a(x), exact for int and Fraction x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sturm_chain(p, q=None):
    """Signed remainder chain starting (p, q); q defaults to p'.  Later
    members are positive multiples of those over Q, made primitive."""
    chain = [_trim(p)]
    q = _pderiv(chain[0]) if q is None else _trim(q)
    if q != (0,):
        chain.append(q)
        while True:
            r = _prem(chain[-2], chain[-1])
            if r == (0,):
                break
            chain.append(_primitive([-x for x in r]))
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _var_at(chain, x) -> int:
    return _variations([_sign(_peval(f, x)) for f in chain])


def _var_at_inf(chain, positive: bool) -> int:
    signs = []
    for f in chain:
        s = _sign(f[-1])
        if not positive and _pdeg(f) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def sturm_count(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi]."""
    chain = _sturm_chain(p)
    return _var_at(chain, lo) - _var_at(chain, hi)


def _var_drop(chain) -> int:
    """Sign variations at -inf minus those at +inf: the number of distinct
    real roots for a Sturm chain (p, p', ...), the Cauchy index of q/p for
    the chain of (p, q)."""
    return _var_at_inf(chain, positive=False) - _var_at_inf(chain, positive=True)


# ---------------------------------------------------------------------------
# IntPolynomial

class NotSquarefreeError(ValueError):
    pass


class IntPolynomial(Record):
    """Integer polynomial, constant term first."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        c = _trim(coefficients)
        if not c:
            raise ValueError("a polynomial needs at least one coefficient")
        if any(x != int(x) for x in c):
            raise ValueError("coefficients must be integers")
        super().__init__(tuple(int(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __call__(self, x):
        return _peval(self.coefficients, x)

    def repeated_part(self) -> "IntPolynomial":
        """gcd(p, p'), whose roots are the repeated roots of p: the last
        member of p's Sturm chain, primitive with a positive lead."""
        g = _primitive(_sturm_chain(self.coefficients)[-1])
        return IntPolynomial(g if g[-1] >= 0 else [-x for x in g])

    def is_squarefree(self) -> bool:
        return self.repeated_part().degree == 0

    def squarefree_part(self) -> "IntPolynomial":
        """self when squarefree, else p / gcd(p, p'), primitive with a
        positive lead."""
        g = self.repeated_part()
        if g.degree == 0:
            return self
        q = _primitive(_pexact_div(self.coefficients, g.coefficients))
        return IntPolynomial(q if q[-1] > 0 else [-x for x in q])

    def cauchy_bound(self) -> Fraction:
        lead = abs(self.coefficients[-1])
        if self.degree == 0:
            return Fraction(1)
        return 1 + max(Fraction(abs(c), lead) for c in self.coefficients[:-1])

    def pretty(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}x" + (f"^{i}" if i > 1 else "")
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        first = parts[0]
        out = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return out + ("" if len(parts) == 1 else " " + " ".join(parts[1:]))


# ---------------------------------------------------------------------------
# IntMatrix and characteristic polynomial

class IntMatrix(Record):
    __slots__ = _fields = ("entries",)  # tuple of row tuples

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        super().__init__(rows)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.dimension:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)


def _faddeev_leverrier(m: IntMatrix) -> tuple:
    """det(x*I - M) and column 0 of B_0, ..., B_(n-1), by the recursion
    B_0 = I, A_k = M B_(k-1), c_(n-k) = -trace(A_k)/k exactly, B_k = A_k +
    c_(n-k) I.  M and each B_k are rows of their nonzero entries, so row i
    of A_k sums the rows of B_(k-1) that row i of M names."""
    n = m.dimension
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m.entries]
    coeffs, b, column = [0] * n + [1], [{i: 1} for i in range(n)], []
    for k in range(1, n + 1):
        column.append(tuple(r.get(0, 0) for r in b))
        a = [{} for _ in range(n)]
        for acc, row in zip(a, rows):
            for j, x in row:
                for col, y in b[j].items():
                    acc[col] = acc.get(col, 0) + x * y
        c, rem = divmod(-sum(r.get(i, 0) for i, r in enumerate(a)), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by k")
        coeffs[n - k] = c
        for i, r in enumerate(a):
            r[i] = r.get(i, 0) + c
        b = [{col: y for col, y in r.items() if y} for r in a]
    return IntPolynomial(coeffs), column


def char_poly(m: IntMatrix) -> IntPolynomial:
    """det(x*I - M) by the integer Faddeev-LeVerrier recursion."""
    return _faddeev_leverrier(m)[0]


def wielandt_bound(d: int) -> int:
    return (d - 1) ** 2 + 1


def is_primitive(m: IntMatrix) -> bool:
    """Some power <= Wielandt bound is entrywise positive.  Every power
    after a positive one is positive too (M then has no zero column), so
    the 0/1 pattern of M, one bitset per row, is squared until the exponent
    reaches the bound: about 2 log2(n) products instead of (n - 1)^2 + 1."""
    n = m.dimension
    if any(x < 0 for row in m.entries for x in row):
        raise ValueError("primitivity requires nonnegative entries")
    full = (1 << n) - 1
    a = [sum(1 << j for j, x in enumerate(row) if x) for row in m.entries]
    power = 1
    while any(row != full for row in a):
        if power >= wielandt_bound(n):
            return False
        # row i of A^2 is the union of the rows k of A with A[i][k] set
        a = [_union(a[k] for k in range(n) if row >> k & 1) for row in a]
        power *= 2
    return True


def _union(rows) -> int:
    out = 0
    for row in rows:
        out |= row
    return out


def normalized_iterates(m: IntMatrix, v):
    """The l2-normalized power iterates v_k = M v_(k-1) / |M v_(k-1)| on
    floats, from v_0 = v, as tuples.

    The float map is deterministic, so once v_k equals v_(k-2) the iterates
    alternate between v_(k-1) and v_k for ever (a fixed point is the case
    v_(k-1) = v_k): from there the generator repeats those two without
    computing another product, and it never ends.
    """
    before, last = None, tuple(v)
    while True:
        w = m.apply(last)
        s = math.sqrt(sum(x * x for x in w))
        w = tuple(x / s for x in w)
        yield w
        if w == before:
            yield from cycle((last, w))
        before, last = last, w


# ---------------------------------------------------------------------------
# root counting relative to the unit circle

class RootCount(Record):
    __slots__ = _fields = ("inside", "on_circle", "outside")

    @property
    def degree(self) -> int:
        return self.inside + self.on_circle + self.outside

    def to_dict(self) -> dict:
        return {"inside": self.inside, "on_circle": self.on_circle, "outside": self.outside}


def _shift(c, a):
    """c(x + a) by Horner's synthetic division: n(n+1)/2 multiply-adds."""
    c, n = list(c), len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _moebius(c):
    """q(w) = (1 - w)^n c((1 + w) / (1 - w)) over the integers, n = deg c.

    z = (1 + w) / (1 - w) maps Re w < 0 onto |z| < 1 and the imaginary
    axis onto the circle without z = -1.  With t = 1 - w, q(w) = r(t) for
    r(t) = t^n c(2/t - 1): the coefficients 2^i s_i of s(x) = c(x - 1),
    reversed.
    """
    r = [x << i for i, x in enumerate(_shift(c, -1))][::-1]
    return [-x if i % 2 else x for i, x in enumerate(_shift(r, 1))]


def _count_lhp(q):
    """(roots with Re < 0, roots on the imaginary axis) of real q, q(0) != 0."""
    n = _pdeg(q)
    # q(iy) = P(y) + i R(y)
    p_part = [0] * (n + 1)
    r_part = [0] * (n + 1)
    for j, c in enumerate(q):
        if j % 4 == 0:
            p_part[j] += c
        elif j % 4 == 1:
            r_part[j] += c
        elif j % 4 == 2:
            p_part[j] -= c
        else:
            r_part[j] -= c
    p_part, r_part = _trim(p_part), _trim(r_part)
    if n % 2 == 1:
        chain = _sturm_chain(r_part, p_part)
        diff = _var_drop(chain)
    else:
        chain = _sturm_chain(p_part, r_part)
        diff = -_var_drop(chain)
    # chain[-1] is gcd(P, R), whose distinct real roots y are the axis roots
    # w = iy.  Their factor of q is even in w, so it multiplies P and R by
    # one real polynomial, and the chain still gives n_lhp - n_rhp for the
    # other roots.
    axis = _var_drop(_sturm_chain(chain[-1]))
    if (n - axis + diff) % 2:
        raise ArithmeticError("parity failure in Cauchy index")
    return (n - axis + diff) // 2, axis


def schur_cohn(p: IntPolynomial) -> RootCount:
    """Exact counts of roots with |z| < 1, = 1, > 1.

    Requires a squarefree polynomial; deflate with squarefree_part first.
    The roots at +-1 are stripped, then one Moebius map sends the disk to
    the left half-plane and the circle to the imaginary axis.
    """
    if not p.is_squarefree():
        raise NotSquarefreeError("schur_cohn requires a squarefree polynomial")
    return _schur_cohn(p)


def _schur_cohn(p: IntPolynomial) -> RootCount:
    """schur_cohn for a p already known to be squarefree."""
    if p.degree == 0:
        return RootCount(0, 0, 0)
    c = p.coefficients
    on = 0
    # squarefree: +-1 are simple roots at most; z = 0 maps to w = -1, inside
    for r in (1, -1):
        if _peval(c, r) == 0:
            on, c = on + 1, _pexact_div(c, (-r, 1))
    inside, axis = _count_lhp(_moebius(c))
    on += axis
    return RootCount(inside=inside, on_circle=on, outside=p.degree - inside - on)


# ---------------------------------------------------------------------------
# irreducibility over Q (exact through degree 3, Kronecker beyond)

def _has_rational_root(p: IntPolynomial) -> bool:
    """Whether a squarefree p with p(0) != 0 has a rational root: whether
    the monic q(y) = lead^(n-1) p(y / lead) has an integer root y (then
    y / lead is p's root).  Integer intervals (lo, hi] inside q's Cauchy
    bound in which q's Sturm chain counts a root are halved to width 1,
    where hi is the one integer left."""
    c = p.coefficients
    n, lead = len(c) - 1, c[-1]
    q = [x * lead ** (n - 1 - i) for i, x in enumerate(c[:-1])] + [1]
    chain, bound = _sturm_chain(q), 1 + max(abs(x) for x in q[:-1])
    todo = [(-bound, _var_at(chain, -bound), bound, _var_at(chain, bound))]
    while todo:
        lo, v_lo, hi, v_hi = todo.pop()
        if v_lo > v_hi and hi - lo == 1 and _peval(q, hi) == 0:
            return True
        if v_lo > v_hi and hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _var_at(chain, mid)
            todo += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return False


def irreducible_over_q(p: IntPolynomial) -> bool | None:
    """True/False when decided; None above degree 3 when the root layout
    does not decide it.

    Kronecker: a monic integer polynomial with p(0) != 0, exactly one root
    outside the closed unit disk and none on the circle is irreducible.  Any
    other factor would have all its roots strictly inside the disk, so a
    nonzero integer constant term of modulus below 1.
    """
    return _irreducible(p, _schur_cohn(p.squarefree_part()))


def _irreducible(p: IntPolynomial, counts: RootCount) -> bool | None:
    """irreducible_over_q, given the schur_cohn counts of p's squarefree
    part: p is squarefree exactly when they count deg p roots, and past
    that check they are p's own."""
    n = p.degree
    if n <= 1:
        return n == 1
    if p.coefficients[0] == 0 or counts.degree != n:
        return False
    if p.is_monic and counts.outside == 1 and counts.on_circle == 0:
        return True
    if _has_rational_root(p):
        return False
    return True if n <= 3 else None


# ---------------------------------------------------------------------------
# PV certification and isolated leading roots

class RealApprox(Record):
    """A certified rational interval [lower, upper]."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction):
        if lower > upper:
            raise ValueError("lower > upper")
        super().__init__(lower, upper)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def __float__(self) -> float:
        return float(self.midpoint)


class RootBracket:
    """A real root of p bracketed as [lo/den, hi/den], den = base * 2^shift.

    The one bisection kernel: the ends stay integers over a common
    denominator, and every sign test is an integer Horner evaluation of
    den^d * p(u/den), so no Fraction arithmetic runs while refining.
    RealApprox is its public face.
    """

    def __init__(self, p: IntPolynomial, lower: Fraction, upper: Fraction):
        self._coefficients = p.coefficients
        self._reset(Fraction(lower), Fraction(upper))

    def _reset(self, lower: Fraction, upper: Fraction):
        base = math.lcm(lower.denominator, upper.denominator)
        self.lo = lower.numerator * (base // lower.denominator)
        self.hi = upper.numerator * (base // upper.denominator)
        self._base, self._shift = base, 0
        d = len(self._coefficients) - 1
        # c_i * base^(d-i): the Horner terms up to their power-of-two factor
        self._scaled = [c * base ** (d - i) for i, c in enumerate(self._coefficients)]
        self._sign_hi = self._sign_at(self.hi, 0)

    @property
    def den(self) -> int:
        return self._base << self._shift

    def _sign_at(self, u: int, shift: int) -> int:
        """Sign of p(u / (base * 2^shift))."""
        c = self._scaled
        d = len(c) - 1
        acc = c[d]
        for i in range(d - 1, -1, -1):
            acc = acc * u + (c[i] << (shift * (d - i)))
        return _sign(acc)

    def bisect(self, width: Fraction) -> "RootBracket":
        """Halve until hi - lo <= width, keeping the half on which p's sign
        differs from its sign at hi, the end that is not a root (lo may be
        one: 1 is a root of (x - 1)(2x - 5)).  An exact root at a midpoint m
        ends the refinement at [m - width/4, m + width/4].  Returns self."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("bisection width must be > 0")
        wn, wd = width.numerator, width.denominator
        lo, hi, shift = self.lo, self.hi, self._shift
        while (hi - lo) * wd > (wn * self._base) << shift:
            mid, shift = lo + hi, shift + 1
            s = self._sign_at(mid, shift)
            if s == 0:
                m = Fraction(mid, self._base << shift)
                self._reset(m - width / 4, m + width / 4)
                return self
            if s == self._sign_hi:
                lo, hi = lo << 1, mid
            else:
                lo, hi = mid, hi << 1
        self.lo, self.hi, self._shift = lo, hi, shift
        return self

    def mantissas(self, bits: int):
        """(P, lo, hi) with lo / 2^P <= root <= hi / 2^P for P = bits, 2 bits, ...:
        the bracket bisected to width 2^-P, its ends floored and ceiled."""
        while True:
            self.bisect(Fraction(1, 1 << bits))
            den = self.den
            yield bits, (self.lo << bits) // den, -(-(self.hi << bits) // den)
            bits *= 2

    def approx(self) -> RealApprox:
        den = self.den
        return RealApprox(Fraction(self.lo, den), Fraction(self.hi, den))


_LAMBDA_WIDTH = Fraction(1, 10**12)


def dominant_root_interval(p: IntPolynomial, width: Fraction = _LAMBDA_WIDTH) -> RealApprox:
    """Isolating interval for the largest real root of a squarefree p, in
    (1, cauchy_bound]: halved on Sturm counts until it holds that root
    alone (or [root, root] when a midpoint is it), then bisected."""
    chain, lo, hi = _sturm_chain(p.coefficients), Fraction(1), p.cauchy_bound()
    if _pdeg(chain[-1]) > 0:  # the chain ends in gcd(p, p')
        raise NotSquarefreeError("dominant_root_interval requires a squarefree polynomial")
    v_lo, v_hi = _var_at(chain, lo), _var_at(chain, hi)
    if v_lo == v_hi:
        raise ValueError("no real root in (1, cauchy bound]")
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _var_at(chain, mid)
        if v_mid == v_hi and p(mid) == 0:
            return RealApprox(mid, mid)
        lo, v_lo, hi = (mid, v_mid, hi) if v_mid > v_hi else (lo, v_lo, mid)
    return RootBracket(p, lo, hi).bisect(width).approx()


def refine_root(p: IntPolynomial, iv: RealApprox, width: Fraction) -> RealApprox:
    """iv bisected to width; p must change sign on it or vanish at lower."""
    s = _sign(p(iv.lower))
    if s == 0:
        return RealApprox(iv.lower, iv.lower)
    if s == _sign(p(iv.upper)):
        raise ValueError("p has the same sign at both ends of the interval")
    return RootBracket(p, iv.lower, iv.upper).bisect(width).approx()


class RootLayout(Record):
    """Where the roots of a monic integer polynomial p lie.

    counts: schur_cohn counts of p's squarefree part.
    lam: the interval of lambda when p has one simple real root lambda > 1
    and every other root in the open unit disk, else None.
    pv: lam is not None and p(0) != 0.
    sf: p's squarefree part, whose roots the counts count.
    """

    __slots__ = _fields = ("counts", "lam", "pv", "sf")


def root_layout(p: IntPolynomial) -> RootLayout:
    """The one root-location decision behind pv_verdict, classify_pisot
    and the CLI's pv report.

    With one root of the squarefree part sf outside the closed disk and
    none on the circle, that root is real (a non-real one brings its
    conjugate), and since sf is monic it is > 1 exactly when sf(1) < 0.
    It is simple in p exactly when p = z^m sf: when it is, every root of
    the monic integer polynomial p / sf lies in the open disk, and such a
    polynomial is z^m (Kronecker).  So a pv layout is squarefree, and
    irreducible by Kronecker's theorem (see irreducible_over_q).  The
    counts already isolate lambda in (1, cauchy bound] without Sturm.
    """
    if not p.is_monic:
        raise ValueError("PV certification requires a monic polynomial")
    sf = p.squarefree_part()
    counts = _schur_cohn(sf)
    lam = None
    if (counts.outside == 1 and counts.on_circle == 0 and sf(1) < 0
            and p.coefficients == (0,) * (p.degree - sf.degree) + sf.coefficients):
        lam = RootBracket(sf, 1, sf.cauchy_bound()).bisect(_LAMBDA_WIDTH).approx()
    return RootLayout(counts, lam, lam is not None and p.coefficients[0] != 0, sf)


def pv_verdict(p: IntPolynomial) -> str:
    """'pv' or 'not_pv', read off root_layout."""
    return "pv" if root_layout(p).pv else "not_pv"


def is_pv(p: IntPolynomial) -> bool:
    return pv_verdict(p) == "pv"


def conjugate_modulus_bound(p: IntPolynomial) -> Fraction:
    """Dyadic upper bound, within 2^-40, on the largest modulus among the
    roots of p other than its one root outside the unit disk.

    Requires squarefree p with one root outside the closed unit disk and
    none on the circle.  Bisects r over [0, 1]: at r = a/b the exact root
    count of b^d p(a z / b) has one root outside exactly when every other
    root of p has modulus <= r.  Scaling z -> a z / b keeps p squarefree,
    so p is checked once and the scaled polynomials are counted unchecked.
    """
    if not p.is_squarefree():
        raise NotSquarefreeError("conjugate_modulus_bound requires a squarefree polynomial")
    counts = _schur_cohn(p)
    if (counts.outside, counts.on_circle) != (1, 0):
        raise ValueError("conjugate_modulus_bound requires one root outside the closed unit disk")
    return _conjugate_modulus_bound(p)


def _conjugate_modulus_bound(p: IntPolynomial) -> Fraction:
    """conjugate_modulus_bound for a p already known to be squarefree."""
    d, lo, hi = p.degree, 0, 1 << 40
    while hi - lo > 1:
        k = (lo + hi) >> 1
        a, b = k // (k & -k), (1 << 40) // (k & -k)  # r = k / 2^40 in lowest terms
        scaled = IntPolynomial(tuple(c * a**i * b ** (d - i)
                                     for i, c in enumerate(p.coefficients)))
        if _schur_cohn(scaled).outside == 1:
            hi = k
        else:
            lo = k
    return Fraction(hi, 1 << 40)


# ---------------------------------------------------------------------------
# Newton power sums and PV decay

def power_sums(p: IntPolynomial, n: int) -> int:
    """s_n = sum of n-th powers of all roots of monic p, exact."""
    if not p.is_monic:
        raise ValueError("power sums require a monic polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    d = p.degree
    c = p.coefficients  # x^d + c[d-1] x^(d-1) + ... + c[0]
    s = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, min(k, d) + 1):
            acc += c[d - i] * s[k - i]
        if k <= d:
            acc += k * c[d - k]
        s[k] = -acc
    return s[n]


def _powers(x_lo: int, x_hi: int, bits: int, k: int):
    """Bounds [lo, hi] / 2^bits on x^k, x^(k+1), ..., k >= 1, for x >= 0 in
    [x_lo, x_hi] / 2^bits: x^k by square and multiply, then one product per
    power, every product rounded down at lo and up at hi."""
    lo, hi = x_lo, x_hi
    for bit in bin(k)[3:]:
        lo, hi = lo * lo >> bits, -(-hi * hi >> bits)
        if bit == "1":
            lo, hi = lo * x_lo >> bits, -(-hi * x_hi >> bits)
    while True:
        yield lo, hi
        lo, hi = lo * x_lo >> bits, -(-hi * x_hi >> bits)


def _round(lo: int, lo_den: int, hi: int, hi_den: int) -> float | None:
    """The float that lo / lo_den and hi / hi_den, and so every real between
    them, round to (int / int rounds correctly, ties to even); else None."""
    f = lo / lo_den
    return f if hi / hi_den == f else None


def pv_decay(p: IntPolynomial, n: int) -> RealApprox:
    """Certified interval for |s_n - lambda^n|, the distance of lambda^n from
    the nearest power-sum integer; for PV numbers this decays to zero.

    The interval is at most 2^-(2n max(1, log2 lambda) + 64) wide.  lambda is
    bisected once to P bits, enough for n powers, and lambda^n is bounded by
    outward-rounded powers of its P-bit ends.
    """
    layout = root_layout(p)
    if not layout.pv:
        raise ValueError("pv_decay requires a PV polynomial")
    s = power_sums(p, n)
    iv = layout.lam
    lam = float(iv.upper)
    precision = int(2 * n * max(1.0, math.log2(lam))) + 64
    bits = precision + math.ceil(n * math.log2(lam + 1)) + 64
    _, x_lo, x_hi = next(RootBracket(p, iv.lower, iv.upper).mantissas(bits))
    lo_n, hi_n = next(_powers(x_lo, x_hi, bits, n))
    if (hi_n - lo_n) << precision > 1 << bits:
        raise ArithmeticError("pv_decay interval wider than its precision")
    a, b = (s << bits) - hi_n, (s << bits) - lo_n  # 2^bits (s_n - lambda^n)
    lo_abs = 0 if a <= 0 <= b else min(abs(a), abs(b))
    return RealApprox(Fraction(lo_abs, 1 << bits), Fraction(max(abs(a), abs(b)), 1 << bits))


# ---------------------------------------------------------------------------
# linear recurrences

class Recurrence(Record):
    """f_n = sum c_k f_{n-k}, exact big integers."""

    __slots__ = _fields = ("coefficients", "initial")  # c_1 .. c_d; f_0 .. f_{d-1}

    def __init__(self, coefficients, initial):
        if len(coefficients) < 1 or len(coefficients) != len(initial):
            raise ValueError("order must be >= 1 and match the initial terms")
        super().__init__(tuple(int(c) for c in coefficients), tuple(int(c) for c in initial))

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def term(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        d = self.order
        if n < d:
            return self.initial[n]
        window = list(self.initial)
        for _ in range(d, n + 1):
            nxt = sum(c * f for c, f in zip(self.coefficients, reversed(window)))
            window = window[1:] + [nxt]
        return window[-1]


FIBONACCI = Recurrence((1, 1), (0, 1))
PELL = Recurrence((2, 1), (0, 1))
PADOVAN = Recurrence((0, 1, 1), (1, 1, 1))


def recurrence_term(r: Recurrence, n: int) -> int:
    return r.term(n)
