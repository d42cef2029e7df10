import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from pisotdyn.algebraic import IntPolynomial
from pisotdyn.cli import _format_angles
from pisotdyn.geometry import (
    _TOLERANCE,
    _format_rows,
    _two_pi,
    TWO_PI,
    AngleList,
    cusp_curve,
    cyclotomic_sum,
    diagonal_polygon,
    fmt12,
    gap_statistics,
    roots_of_unity,
    substitution_spacing,
)
from pisotdyn.substitution import FIBONACCI_SUBST, PELL_SUBST, fixed_point_prefix

TAU = (1 + math.sqrt(5)) / 2
GOLDEN = IntPolynomial((-1, -1, 1))
SILVER = IntPolynomial((-1, -2, 1))
PLASTIC = IntPolynomial((-1, -1, 0, 1))
TRIBONACCI = IntPolynomial((-1, -1, -1, 1))


def svg_per_angle(self, mode: str = "petals") -> str:
    """The reference for AngleList.to_svg: one f-string per angle."""
    c, r = 200.0, 180.0
    stroke = 'stroke="#1a6baf" stroke-width="1.0"/>'

    def xy(t):
        return (c + r * math.cos(t), c - r * math.sin(t))

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" '
        'height="400" viewBox="0 0 400 400">',
        f'<circle cx="{c}" cy="{c}" r="{r}" fill="none" stroke="#888" '
        'stroke-width="1.0"/>',
    ]
    if mode == "cusp":
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(xy, self.angles))
        parts.append(f'<polyline points="{pts}" fill="none" {stroke}')
    else:
        for t in self.angles:
            x, y = xy(t)
            parts.append(
                f'<line x1="{c}" y1="{c}" x2="{x:.3f}" y2="{y:.3f}" {stroke}'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def perfbench_pool():
    """The PV cubics and quartics of perfbench/workloads.pisot_pool()."""
    path = str(Path(__file__).parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        import workloads
    finally:
        sys.path.remove(path)
    return [IntPolynomial(coeffs) for coeffs, _ in workloads.pisot_pool()]


def wrongly_printed(p, angles):
    """The k whose printed theta_k is not fmt12 of the exact
    2*pi*frac(lambda^k) rounded to a float, lambda^k from mpmath at three
    times the bits it takes.  An exact angle that rounds to 2*pi is the
    point 0 of the circle: it may print as 0 or as 2*pi."""
    coeffs = list(reversed(p.coefficients))
    f = lambda x: mpmath.polyval(coeffs, x)
    x0 = max(r.real for r in mpmath.polyroots(coeffs) if abs(r.imag) < 1e-9)
    wrong = []
    with mpmath.workprec(3 * (int(len(angles) * math.log2(x0)) + 128)):
        lam, power, two_pi = mpmath.findroot(f, mpmath.mpf(x0)), mpmath.mpf(1), 2 * mpmath.pi
        for k, theta in enumerate(angles, start=1):
            power *= lam
            exact = float(two_pi * mpmath.frac(power))
            right = {fmt12(exact % TWO_PI)} | ({fmt12(exact)} if exact == TWO_PI else set())
            if fmt12(theta) not in right:
                wrong.append(k)
    return wrong


ORACLE_CASES = {
    (p.coefficients, big_k): (p, big_k)
    for p, big_k in [(GOLDEN, 200), (SILVER, 200), (PLASTIC, 200), (TRIBONACCI, 200)]
    + [(p, 200) for p in perfbench_pool()] + [(GOLDEN, 1000), (SILVER, 1000)]
}


class TestRootsOfUnity:
    def test_four(self):
        stats = gap_statistics(roots_of_unity(4))
        assert stats.variance == 0.0
        assert stats.mean == pytest.approx(math.pi / 2)

    def test_two(self):
        stats = gap_statistics(roots_of_unity(2))
        assert stats.mean == pytest.approx(math.pi)

    def test_five(self):
        stats = gap_statistics(roots_of_unity(5))
        assert stats.variance == 0.0 and stats.distinct_gaps == 1

    def test_minimum(self):
        with pytest.raises(ValueError):
            roots_of_unity(1)


class TestCyclotomic:
    def test_small(self):
        assert cyclotomic_sum(2) == cyclotomic_sum(3) == 0j

    def test_large(self):
        assert cyclotomic_sum(360) == 0j

    def test_minimum(self):
        with pytest.raises(ValueError):
            cyclotomic_sum(1)


class TestGapStats:
    def test_two_antipodal(self):
        stats = gap_statistics(AngleList((0.0, math.pi)))
        assert stats.mean == pytest.approx(math.pi)
        assert stats.variance == 0.0

    def test_three_distance(self):
        # multiples of the golden rotation have at most 3 distinct gaps
        alpha = TWO_PI / TAU**2
        angles = AngleList(tuple((k * alpha) % TWO_PI for k in range(1, 101)))
        stats = gap_statistics(angles)
        assert stats.distinct_gaps <= 3

    def test_rotation_invariance(self):
        base = AngleList((0.1, 1.0, 2.5, 4.0))
        rot = AngleList(tuple((t + 0.7) % TWO_PI for t in base.angles))
        a, b = gap_statistics(base), gap_statistics(rot)
        assert a.mean == pytest.approx(b.mean)
        assert a.variance == pytest.approx(b.variance)
        assert a.distinct_gaps == b.distinct_gaps

    def test_too_few(self):
        with pytest.raises(ValueError):
            gap_statistics(AngleList((1.0,)))

    def test_distinct_gaps_cluster_from_each_first_gap(self):
        # a cluster opens at its least gap and holds the gaps within 1e-9
        # of it, so gaps 0.6e-9 apart chain into clusters of two
        rng = random.Random(11)
        palette = [0.1, 0.1 + 6e-10, 0.1 + 1.2e-9, 0.1 + 1.8e-9, 0.25, 0.25 + 2e-9]
        for _ in range(200):
            # the wraparound gap is sometimes above pi and folds to 2*pi - gap
            angles, t, end = [], 0.0, rng.uniform(0.5, TWO_PI - 0.5)
            while t < end:
                angles.append(t)
                t += rng.choice(palette)
            s = sorted(angles)
            gaps = sorted(min(g, TWO_PI - g) for g in
                          [b - a for a, b in zip(s, s[1:])] + [TWO_PI - (s[-1] - s[0])])
            firsts = [gaps[0]]
            for g in gaps:
                if g - firsts[-1] > 1e-9:
                    firsts.append(g)
            stats = gap_statistics(AngleList(angles))
            assert stats.distinct_gaps == len(firsts)
            assert (stats.min_gap, stats.max_gap) == (gaps[0], gaps[-1])


class TestAngleList:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, TWO_PI])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_out_of_range_angle_raises_in_any_place(self, bad, where):
        angles = [0.5, 1.0, 2.0]
        angles[where] = bad
        with pytest.raises(ValueError, match="angles must lie"):
            AngleList(angles)

    def test_empty_and_edge_angles(self):
        assert AngleList(()).angles == ()
        edge = (0.0, math.nextafter(TWO_PI, 0.0), 5e-324)
        assert AngleList(edge).angles == edge


# the brute-force scan that diagonal_polygon replaced, kept as its oracle:
# every pair of diagonals intersected in floats, the points merged within
# 1e-9 and the innermost ring tested for regularity

def _seg_intersection(p1, p2, p3, p4):
    """Proper intersection point of open segments p1p2 and p3p4, or None."""
    eps = 1e-12
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < eps:
        return None
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    u = ((x1 - x3) * (y1 - y2) - (y1 - y3) * (x1 - x2)) / den
    if eps < t < 1 - eps and eps < u < 1 - eps:
        return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))
    return None


def scan_diagonal_polygon(n: int):
    """Diagonal intersections of the regular n-gon on the unit circle.

    Returns (inner_ring_vertices, self_similar) where self_similar is
    (scaling, rotation) when the innermost intersection ring is itself a
    regular n-gon, else None.  The inner ring is the set of intersection
    points at minimal distance from the origin (within 1e-9); the
    reported rotation is the vertex-matching representative nearest pi.
    """
    if n < 5:
        raise ValueError("n must be >= 5")
    verts = [(math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n)) for k in range(n)]
    diagonals = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    pts = []
    for i in range(len(diagonals)):
        for j in range(i + 1, len(diagonals)):
            p = _seg_intersection(*diagonals[i], *diagonals[j])
            if p is not None:
                pts.append(p)
    # dedupe
    uniq = []
    for p in pts:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) < _TOLERANCE for q in uniq):
            uniq.append(p)
    radii = [math.hypot(x, y) for x, y in uniq]
    r_min = min(radii)
    ring = [p for p, r in zip(uniq, radii) if r - r_min <= _TOLERANCE]
    ring.sort(key=lambda p: math.atan2(p[1], p[0]) % TWO_PI)

    self_similar = None
    if len(ring) == n and r_min > _TOLERANCE:
        rads = [math.hypot(x, y) for x, y in ring]
        sides = [
            math.hypot(
                ring[i][0] - ring[(i + 1) % n][0], ring[i][1] - ring[(i + 1) % n][1]
            )
            for i in range(n)
        ]
        regular = (max(rads) - min(rads) <= _TOLERANCE * max(1.0, max(rads))) and (
            max(sides) - min(sides) <= _TOLERANCE * max(1.0, max(sides))
        )
        if regular:
            scaling = sum(rads) / n
            ring_angles = sorted(math.atan2(y, x) % TWO_PI for x, y in ring)
            base = ring_angles[0]  # outer vertex k=0 sits at angle 0
            # candidate rotations map vertex angle 0 onto some ring vertex
            candidates = [(base + TWO_PI * k / n) % TWO_PI for k in range(n)]
            rotation = min(candidates, key=lambda t: abs(t - math.pi))
            self_similar = (scaling, rotation)
    return ring, self_similar


class TestDiagonalPolygon:
    def test_pentagon(self):
        ring, ss = diagonal_polygon(5)
        assert len(ring) == 5
        assert ss is not None
        scaling, rotation = ss
        assert scaling == pytest.approx(TAU / (1 + 2 * TAU), abs=1e-9)
        assert rotation == pytest.approx(math.pi, abs=1e-9)

    def test_hexagon_has_center(self):
        ring, _ = diagonal_polygon(6)
        # the long diagonals of the hexagon meet at the origin
        assert any(math.hypot(x, y) < 1e-9 for x, y in ring)

    def test_minimum(self):
        with pytest.raises(ValueError):
            diagonal_polygon(4)


class TestDiagonalPolygonMatchesTheScan:
    @pytest.mark.parametrize("n", range(5, 18, 2))
    def test_odd_n(self, n):
        ring, (scaling, rotation) = diagonal_polygon(n)
        want, (want_scaling, want_rotation) = scan_diagonal_polygon(n)
        assert len(ring) == len(want) == n
        for x, y in ring:
            assert min(math.hypot(x - u, y - v) for u, v in want) < 1e-12
        assert abs(scaling - want_scaling) < 1e-12
        assert abs(abs(rotation - math.pi) - abs(want_rotation - math.pi)) < 1e-12
        # the tie at n = 3 (mod 4) goes to the smaller angle
        assert rotation == (math.pi if n % 4 == 1 else (n - 1) * math.pi / n)

    @pytest.mark.parametrize("n", range(6, 18, 2))
    def test_even_n_is_the_centre(self, n):
        assert diagonal_polygon(n) == ([(0.0, 0.0)], None)
        ring, self_similar = scan_diagonal_polygon(n)
        assert self_similar is None
        assert [math.hypot(x, y) < 1e-12 for x, y in ring] == [True]

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 101, 103])
    def test_ring_is_in_increasing_angle(self, n):
        ring, _ = diagonal_polygon(n)
        angles = [math.atan2(y, x) % TWO_PI for x, y in ring]
        assert angles == sorted(angles)
        # for n = 3 (mod 4) the first vertex lies on the positive x-axis
        assert (angles[0] == 0.0) == (n % 4 == 3)


class TestCuspCurve:
    def test_first_angle(self):
        angles = cusp_curve(GOLDEN, 1)
        assert angles.angles[0] == pytest.approx(TWO_PI * (TAU - 1), abs=1e-9)

    def test_golden_decay(self):
        angles = cusp_curve(GOLDEN, 10)
        dist = min(angles.angles[-1], TWO_PI - angles.angles[-1])
        assert dist <= TWO_PI * TAU**-10 + 1e-9

    def test_silver_decay(self):
        angles = cusp_curve(SILVER, 12)
        dist = min(angles.angles[-1], TWO_PI - angles.angles[-1])
        assert dist <= TWO_PI * (math.sqrt(2) - 1) ** 12 + 1e-9

    def test_geometric_ratio(self):
        angles = cusp_curve(GOLDEN, 20)
        dists = [min(t, TWO_PI - t) for t in angles.angles]
        for a, b in zip(dists[4:], dists[5:]):
            assert b <= a * (1 / TAU + 0.01)

    def test_rejects_non_pv(self):
        with pytest.raises(ValueError):
            cusp_curve(IntPolynomial((-3, 0, 1)), 5)

    @pytest.mark.parametrize("p, big_k", ORACLE_CASES.values(),
                             ids=[f"{p.pretty()} K={k}" for p, k in ORACLE_CASES.values()])
    def test_every_printed_digit_matches_mpmath(self, p, big_k):
        # the tiny cusps of golden and silver need far more than 2^-128 of
        # absolute width; silver's odd ones past k = 816 are subnormal floats
        assert wrongly_printed(p, cusp_curve(p, big_k).angles) == []

    @pytest.mark.parametrize("p", [GOLDEN, TRIBONACCI], ids=["golden", "tribonacci"])
    def test_precision_bits_is_a_floor_that_leaves_the_floats(self, p):
        # each angle is the float its certified interval rounds to, so a
        # finer width only costs bits
        angles = cusp_curve(p, 120).angles
        for bits in (0, 8, 1000):
            assert cusp_curve(p, 120, bits).angles == angles

    @pytest.mark.parametrize("bits", [0, 1, 64, 333, 4000])
    def test_two_pi_bounds(self, bits):
        lo, hi = _two_pi(bits)
        with mpmath.workprec(bits + 64):
            assert lo < 2 * mpmath.pi * mpmath.mpf(2) ** bits < hi == lo + 3

    def test_integer_lambda_gives_whole_powers(self):
        # x - 3 is PV with lambda = 3; no bracket decides floor(3^k), as
        # every bisection ends on the root itself
        assert cusp_curve(IntPolynomial((-3, 1)), 4).angles == (0.0,) * 4


class TestSubstitutionSpacing:
    def test_agreement_fibonacci(self):
        # digit-driven angles (Fibonacci and Pell) against the cumulative
        # letter-count form theta_k = (c0(k) beta0 + c1(k) beta1) mod 2 pi
        n, beta1 = 10**5, 1.0
        for sigma, beta0 in ((FIBONACCI_SUBST, TAU % TWO_PI),
                             (PELL_SUBST, (1 + math.sqrt(2)) % TWO_PI)):
            angles = substitution_spacing(sigma, beta0, beta1, n)
            digits = fixed_point_prefix(sigma, 0, n).prefix(n).letters
            assert len(angles) == n
            c1 = 0
            for k, (theta, d) in enumerate(zip(angles.angles, digits), start=1):
                c1 += d
                diff = abs(theta - ((k - c1) * beta0 + c1 * beta1) % TWO_PI)
                assert min(diff, TWO_PI - diff) <= 1e-9, (sigma, k)

    def test_pell(self):
        angles = substitution_spacing(PELL_SUBST, (1 + math.sqrt(2)) % TWO_PI, 1.0, 500)
        assert len(angles) == 500

    def test_zero_betas(self):
        angles = substitution_spacing(FIBONACCI_SUBST, 0.0, 0.0, 50)
        assert all(t == 0.0 for t in angles.angles)

    def test_requires_binary(self):
        from pisotdyn.substitution import PADOVAN_SUBST

        with pytest.raises(ValueError):
            substitution_spacing(PADOVAN_SUBST, 1.0, 2.0, 10)


class TestExports:
    def test_csv_shape(self):
        csv = roots_of_unity(3).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,theta,x,y"
        assert len(lines) == 4

    def test_csv_lines_are_fmt12(self):
        # tiny, round and near-2*pi angles, and the zeros of cos and sin
        rng = random.Random(4)
        angles = [0.0, 5e-324, 1e-17, 1e-5, 0.5, math.pi / 2, math.pi, 1.5 * math.pi,
                  math.nextafter(TWO_PI, 0.0)] + [rng.uniform(0, TWO_PI) for _ in range(3000)]
        expected = "k,theta,x,y\n" + "".join(
            f"{k},{fmt12(t)},{fmt12(math.cos(t))},{fmt12(math.sin(t))}\n"
            for k, t in enumerate(angles, start=1)
        )
        assert AngleList(angles).to_csv() == expected

    # 0, the least subnormal and normal floats, the float below 2*pi, a
    # negative zero (sin -0), and angles where cos or sin is 0 or +-1
    SPECIAL = (0.0, -0.0, 5e-324, 2.0**-1022, math.nextafter(TWO_PI, 0.0),
               math.pi / 2, math.pi, 1.5 * math.pi)

    @classmethod
    def seeded_angles(cls, n, seed):
        rng = random.Random(seed)
        return tuple(rng.choice(cls.SPECIAL) if rng.random() < 0.25 else rng.uniform(0, TWO_PI)
                     for _ in range(n))

    LENGTHS = pytest.mark.parametrize("n", [0, 1, 2, 2047, 2048, 2049, 3 * 2048 + 5])

    @LENGTHS
    @pytest.mark.parametrize("seed", [1, 2])
    def test_csv_equals_the_per_line_reference(self, n, seed):
        angles = self.seeded_angles(n, seed)
        lines = ["k,theta,x,y"] + ["%d,%.12g,%.12g,%.12g" % (k, t, math.cos(t), math.sin(t))
                                   for k, t in enumerate(angles, start=1)]
        assert AngleList(angles).to_csv() == "\n".join(lines) + "\n"

    @LENGTHS
    @pytest.mark.parametrize("seed", [1, 2])
    def test_json_angle_array_equals_the_per_line_reference(self, n, seed):
        angles = self.seeded_angles(n, seed)
        rows = _format_rows('"%.12g", ', n, iter(angles))
        assert "[" + rows[:-2] + "]" == json.dumps([fmt12(t) for t in angles])
        if n >= 2:
            stats = gap_statistics(AngleList(angles))
            assert _format_angles(AngleList(angles), "json") == json.dumps({
                "schema": 1,
                "angles": [fmt12(t) for t in angles],
                "gap_mean": fmt12(stats.mean),
                "gap_variance": fmt12(stats.variance),
                "distinct_gaps": stats.distinct_gaps,
            }, sort_keys=True)

    def test_svg_selfcontained(self):
        svg = roots_of_unity(5).to_svg()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    @pytest.mark.parametrize("mode", ["petals", "cusp"])
    @pytest.mark.parametrize("angles", [
        AngleList(()), AngleList((1.0,)), roots_of_unity(2), roots_of_unity(7),
        roots_of_unity(1000), cusp_curve(GOLDEN, 180),
        substitution_spacing(FIBONACCI_SUBST, 1.25, 4.5, 500),
    ], ids=["empty", "one", "roots-2", "roots-7", "roots-1000", "golden-cusps-180", "drive-500"])
    def test_svg_equals_the_per_angle_reference(self, angles, mode):
        assert angles.to_svg(mode=mode) == svg_per_angle(angles, mode=mode)

    @pytest.mark.parametrize("mode", ["cusps", "nonsense", "", "Petals"])
    def test_svg_refuses_an_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="unknown SVG mode"):
            roots_of_unity(5).to_svg(mode=mode)
