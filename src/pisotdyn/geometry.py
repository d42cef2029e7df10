"""Circle spacing geometry: roots-of-unity optima, gap statistics,
cyclotomic sums, diagonal self-similarity of regular polygons, PV cusp
curves and substitution-driven spacing."""

from __future__ import annotations

import math
from itertools import count, islice

from .algebraic import IntPolynomial, RootBracket, _powers, _round, root_layout
from .record import Record
from .substitution import Substitution, classify_pisot, fixed_point_prefix

TWO_PI = 2.0 * math.pi
# the distance at which gap_statistics clusters gaps
_TOLERANCE = 1e-9
# below this, f or 2*pi*f may be a subnormal float, short of 53 bits
_NORMAL_FRAC = 2.0**-1021
# rows per `%` operation in AngleList.to_csv, AngleList.to_svg and the CLI's JSON
# angle array
_CHUNK = 2048


class AngleList(Record):
    """Angles in [0, 2*pi), radians, in presentation order."""

    __slots__ = _fields = ("angles",)

    def __init__(self, angles):
        a = tuple(map(float, angles))
        # NaN fails every comparison, so min and max may skip it; with the
        # other angles in range, the sum is NaN exactly when one is there
        if a and not (0.0 <= min(a) and max(a) < TWO_PI and not math.isnan(sum(a))):
            raise ValueError("angles must lie in [0, 2*pi)")
        super().__init__(a)

    def __len__(self):
        return len(self.angles)

    def to_csv(self) -> str:
        a = self.angles
        return "k,theta,x,y\n" + _format_rows("%d,%.12g,%.12g,%.12g\n", len(a), count(1),
                                                iter(a), map(math.cos, a), map(math.sin, a))

    def to_svg(self, mode: str = "petals") -> str:
        """Self-contained 400 x 400 SVG: unit circle plus petal segments
        (center to each point) or a cusp polyline through consecutive
        points."""
        if mode not in ("petals", "cusp"):
            raise ValueError(f"unknown SVG mode {mode!r}: use 'petals' or 'cusp'")
        a, stroke = self.angles, 'stroke="#1a6baf" stroke-width="1.0"/>\n'
        # the circle of radius 180 about (200, 200), y pointing down
        x = (200.0 + 180.0 * math.cos(t) for t in a)
        y = (200.0 - 180.0 * math.sin(t) for t in a)
        if mode == "cusp":
            points = _format_rows("%.3f,%.3f ", len(a), x, y)[:-1]
            body = f'<polyline points="{points}" fill="none" {stroke}'
        else:
            body = _format_rows(f'<line x1="200.0" y1="200.0" x2="%.3f" y2="%.3f" {stroke}',
                                len(a), x, y)
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
                'viewBox="0 0 400 400">\n<circle cx="200.0" cy="200.0" r="180.0" fill="none" '
                f'stroke="#888" stroke-width="1.0"/>\n{body}</svg>\n')


def fmt12(x: float) -> str:
    """12 significant digits, stable across runs."""
    return f"{x:.12g}"


def _format_rows(row: str, n: int, *columns) -> str:
    """`row % values` for each of n rows, joined, with one `%` per _CHUNK
    rows: each iterator in `columns` gives one value per row, in the order
    of row's fields.  %.12g is fmt12."""
    out = []
    for k in range(0, n, _CHUNK):
        m = min(_CHUNK, n - k)
        flat = [None] * (len(columns) * m)
        for i, column in enumerate(columns):
            flat[i::len(columns)] = islice(column, m)
        out.append(row * m % tuple(flat))
    return "".join(out)


def roots_of_unity(n: int) -> AngleList:
    """Angles 2*pi*k/n for k = 1..n (with 2*pi wrapped to 0)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return AngleList(tuple((TWO_PI * k / n) % TWO_PI for k in range(1, n + 1)))


def cyclotomic_sum(n: int) -> complex:
    """Vector sum of the n-th roots of unity: exactly 0.

    They are the n roots of z^n - 1, so by Vieta's formulas their sum is
    minus its z^(n-1) coefficient, which is 0 for n >= 2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return 0j


class GapStats(Record):
    __slots__ = _fields = ("mean", "variance", "min_gap", "max_gap", "distinct_gaps")


def gap_statistics(a: AngleList) -> GapStats:
    """Cyclic gap statistics of an angle list.

    Gaps are consecutive differences of the sorted angles plus the
    wraparound gap.  Exactness conventions: when every gap is <= pi the gap
    sum telescopes to exactly 2*pi, so the mean is reported as 2*pi/n
    without float accumulation; when all gaps agree within the clustering
    tolerance 1e-9 the variance is reported as exactly 0.0.
    """
    if len(a) < 2:
        raise ValueError("need at least 2 angles")
    s = sorted(a.angles)
    n = len(s)
    raw = [y - x for x, y in zip(s, s[1:])] + [TWO_PI - (s[-1] - s[0])]
    top = max(raw)
    # min(g, 2*pi - g), written out: 2*pi - g >= pi exactly when g <= pi
    gaps = [g if g <= math.pi else TWO_PI - g for g in raw]
    ordered = sorted(gaps)
    # a new cluster starts at each gap more than the tolerance above the
    # first gap of the current one
    distinct, first = 1, ordered[0]
    for g in ordered:
        if g - first > _TOLERANCE:
            distinct, first = distinct + 1, g
    if top <= math.pi + _TOLERANCE:
        mean = TWO_PI / n
    else:
        mean = sum(gaps) / n
    if distinct == 1:
        variance = 0.0
    else:
        variance = sum((g - mean) ** 2 for g in gaps) / n
    return GapStats(
        mean=mean,
        variance=variance,
        min_gap=ordered[0],
        max_gap=ordered[-1],
        distinct_gaps=distinct,
    )


# ---------------------------------------------------------------------------
# diagonal self-similarity

def diagonal_polygon(n: int):
    """Innermost ring of diagonal intersections of the regular n-gon with
    vertex k at angle 2*pi*k/n on the unit circle.

    Returns (ring, self_similar): the intersection points nearest the
    origin, in increasing angle, and self_similar = (scaling, rotation)
    when they form a regular n-gon, else None.

    A diagonal joining vertices s apart lies at distance cos(pi*s/n) from
    the origin.  For even n the n/2 diameters meet at the origin, so the
    ring is the origin alone.  For odd n let x = pi/(2n): the n longest
    diagonals lie at distance sin x and bound the star polygon's inner
    regular n-gon, of circumradius R = sin x / cos 2x, with vertices at the
    angles (2k + h)*pi/n, h = ((n + 1)/2) mod 2.  Every other diagonal lies
    at distance at least sin 3x > R, so none reaches that n-gon, and the
    ring is its n vertices.  The scaling is R, and the rotation is the
    vertex angle nearest pi, which maps outer vertex 0 onto the ring: pi
    itself when n = 1 (mod 4); when n = 3 (mod 4), (n - 1)*pi/n and
    (n + 1)*pi/n are equally near, and the rotation is (n - 1)*pi/n.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    if n % 2 == 0:
        return [(0.0, 0.0)], None
    x = math.pi / (2 * n)
    r = math.sin(x) / math.cos(2 * x)
    h = (n + 1) // 2 % 2
    angles = [(2 * k + h) * math.pi / n for k in range(n)]
    return [(r * math.cos(t), r * math.sin(t)) for t in angles], (
        r, math.pi if h else (n - 1) * math.pi / n)


# ---------------------------------------------------------------------------
# cusp curves

def _two_pi(bits: int) -> tuple[int, int]:
    """Integers lo < 2^bits * 2*pi < hi, three apart, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239) summed on integers."""
    one = 1 << (bits + 32)

    def arctan_inv(x):
        # each term is floor(one / (n x^n)), less than 1 below its exact
        # value, and the first term left out is below 1, so the sum is
        # within (terms + 1) of one * arctan(1/x)
        total, power, n = 0, one // x, 1
        while power:
            total += (power // n) if n % 4 == 1 else -(power // n)
            power, n = power // (x * x), n + 2
        return total

    # 2*pi*one = 32 arctan(1/5) one - 8 arctan(1/239) one lies within
    # 20 (bits + 34) < 2^31 of the sum, for bits < 10^8
    approx = (32 * arctan_inv(5) - 8 * arctan_inv(239)) >> 32
    return approx - 1, approx + 2


def cusp_curve(p: IntPolynomial, big_k: int, precision_bits: int = 128) -> AngleList:
    """theta_k = 2*pi*frac(lambda^k) for k = 1..K, lambda the PV root of p.

    lambda is bracketed once on P-bit dyadic mantissas, P = precision_bits
    + 64, and lambda^k runs as one product rounded down and one rounded up
    per k.  theta_k is accepted once the floor of lambda^k is decided, the
    interval is at most 2^-precision_bits wide and both ends of
    frac(lambda^k) round to the same float f; theta_k is then 2*pi*f, so
    the printed angle is determined by f.  Where 2*pi*f would fall below
    the normal floats, theta_k is instead the float both ends of
    2*pi*frac(lambda^k) round to.  While theta_k is undecided, P doubles,
    lambda's bracket is bisected further and lambda^k is rebuilt by square
    and multiply.
    """
    layout = root_layout(p)
    if not layout.pv:
        raise ValueError("cusp_curve requires a PV polynomial")
    if big_k < 1:
        raise ValueError("K must be >= 1")
    if precision_bits < 0:
        raise ValueError("precision bits must be >= 0")
    if p.degree == 1:  # lambda = -p(0), so every lambda^k is whole
        return AngleList((0.0,) * big_k)
    root, out = RootBracket(p, layout.lam.lower, layout.lam.upper), []
    for bits, x_lo, x_hi in root.mantissas(precision_bits + 64):
        one = 1 << bits
        pi_lo, pi_hi = _two_pi(bits)
        # lambda^k lies in [lo, hi] / 2^bits, and 2*pi in [pi_lo, pi_hi] / 2^bits
        for lo, hi in _powers(x_lo, x_hi, bits, len(out) + 1):
            frac_lo, frac_hi = lo & (one - 1), hi & (one - 1)
            f = _round(frac_lo, one, frac_hi, one)
            if lo >> bits != hi >> bits or (hi - lo) << precision_bits > one or f is None:
                break
            theta = (TWO_PI * f) % TWO_PI if f >= _NORMAL_FRAC else _round(
                frac_lo * pi_lo, one << bits, frac_hi * pi_hi, one << bits)
            if theta is None:
                break
            out.append(theta)
            if len(out) == big_k:
                return AngleList(tuple(out))


# ---------------------------------------------------------------------------
# substitution-driven spacing

def substitution_spacing(sigma: Substitution, beta0: float, beta1: float,
                         n_points: int) -> AngleList:
    """theta_k driven by the digits of the binary fixed point of sigma:
    advance by beta0 on letter 0, beta1 on letter 1 (mod 2*pi).
    """
    if sigma.alphabet.size != 2:
        raise ValueError("substitution spacing needs a binary alphabet")
    if n_points < 1:
        raise ValueError("n must be >= 1")
    report = classify_pisot(sigma)
    if not (report.primitive and report.pisot_loose):
        raise ValueError("substitution must be primitive of Pisot type")
    digits = fixed_point_prefix(sigma, 0, n_points).prefix(n_points)
    return _driven_angles(digits.letters, beta0, beta1)


def _driven_angles(letters, beta0: float, beta1: float) -> AngleList:
    """The walk round the circle from theta_0 = 0 that the 0/1 `letters`
    drive: theta_k = theta_(k-1) + beta0 (mod 2*pi) when the k-th letter
    is 0, + beta1 when it is 1.  The betas are reduced mod 2*pi first: the
    sums are then nonnegative, so each theta_k lies in [0, 2*pi)."""
    beta0, beta1 = beta0 % TWO_PI, beta1 % TWO_PI
    thetas = []
    theta = 0.0
    for d in letters:
        theta = (theta + (beta0 if d == 0 else beta1)) % TWO_PI
        thetas.append(theta)
    return AngleList(tuple(thetas))
