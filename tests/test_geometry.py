import math
import random
from fractions import Fraction

import pytest

from pisotdyn.algebraic import IntPolynomial
from pisotdyn.geometry import (
    TWO_PI,
    AngleList,
    cusp_curve,
    cyclotomic_sum,
    diagonal_polygon,
    fmt12,
    gap_statistics,
    geodesic_distance,
    roots_of_unity,
    substitution_spacing,
)
from pisotdyn.substitution import FIBONACCI_SUBST, PELL_SUBST, fixed_point_prefix

TAU = (1 + math.sqrt(5)) / 2
GOLDEN = IntPolynomial((-1, -1, 1))
SILVER = IntPolynomial((-1, -2, 1))


class TestGeodesic:
    def test_quarter(self):
        assert geodesic_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)

    def test_wraparound(self):
        assert geodesic_distance(0.0, 3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_identity(self):
        assert geodesic_distance(0.1, 0.1) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            geodesic_distance(-0.1, 0.0)


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

    def test_svg_selfcontained(self):
        svg = roots_of_unity(5).to_svg()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
