"""Output checks for the benchmark's CLI calls.

No check imports pisotdyn.  Each one recomputes the answer another way:
numpy roots and eigenvalues, mpmath powers, plain string substitution, a
benchmark-side totient, or the documented sampling procedure.  A check
returns nothing when the output is right and raises ``Mismatch`` with a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi
NAMED_ANGLES = {
    "tau": (1 + math.sqrt(5)) / 2,
    # real root of x^3 - x - 1 (the plastic number), by Cardano's formula
    "rho": ((9 + math.sqrt(69)) / 18) ** (1 / 3) + ((9 - math.sqrt(69)) / 18) ** (1 / 3),
    "pi": math.pi,
}
# factor lengths whose counts are checked by window enumeration when a
# spec has no closed-form complexity
WINDOW_NS = tuple(range(1, 13)) + (16, 24, 32, 48, 64, 96, 128, 160, 200)


class Mismatch(Exception):
    pass


def expect(cond, message: str):
    if not cond:
        raise Mismatch(message)


def valid(check_text):
    """Wrap a check on stdout for a call whose input is well-formed."""

    def check(rc: int, out: bytes, err: str):
        expect("Traceback" not in err, "traceback: " + _last_line(err))
        expect(rc == 0, f"exit code {rc}: {_last_line(err)}")
        check_text(out.decode())

    return check


def malformed(rc: int, out: bytes, err: str):
    """Bad input ends in one `Error:` line, exit code 1 or 2, no traceback."""
    expect("Traceback" not in err, "traceback: " + _last_line(err))
    expect(rc in (1, 2), f"exit code {rc}")
    lines = [line for line in err.splitlines() if line.strip()]
    errors = [line for line in lines if line.startswith("Error:")]
    expect(len(errors) == 1 and lines[-1] == errors[0], "no single closing Error: line")


def _last_line(err: str) -> str:
    lines = [line for line in err.splitlines() if line.strip()]
    return lines[-1][:160] if lines else "(no stderr)"


def _csv_rows(out: str, header: str):
    lines = out.rstrip("\n").split("\n")
    expect(lines[0] == header, f"csv header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def _arc(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# words and substitutions, by plain string substitution

def fixed_point(rules: dict, length: int) -> str:
    """Prefix of the fixed point of a substitution whose image of "0"
    starts with "0"."""
    table = str.maketrans(rules)
    w = rules["0"]
    while len(w) < length:
        w = w.translate(table)
    return w[:length]


def power_image(rules: dict, letter: str, k: int) -> str:
    table = str.maketrans(rules)
    w = letter
    for _ in range(k):
        w = w.translate(table)
    return w


def incidence(rules: dict) -> np.ndarray:
    """(i, j) entry counts letter i in the image of letter j."""
    letters = sorted(rules)
    return np.array([[rules[b].count(a) for b in letters] for a in letters])


def show(rules: dict):
    def check(out):
        expect(json.loads(out) == {"alphabet": sorted(rules), "rules": rules},
               "spec does not round-trip")

    return valid(check)


def word(expected: str):
    def check(out):
        got = out.rstrip("\n")
        expect(got == expected, f"{len(got)} letters differ from the "
                                f"{len(expected)}-letter expected word")

    return valid(check)


def fixpoint(rules: dict, length: int):
    return word(fixed_point(rules, length))


def iterate(rules: dict, k: int):
    return word(power_image(rules, "0", k))


def entropy(rules: dict, prefix_len: int, n_max: int, closed=None):
    """p_n from a closed form when one is known (closed(n)), else window
    counts on the benchmark's own fixed point at WINDOW_NS."""

    def check(out):
        rows = _csv_rows(out, "n,p_n,entropy_estimate,sturmian")
        expect(len(rows) == n_max, f"{len(rows)} rows, expected {n_max}")
        if closed is not None:
            want = {n: closed(n) for n in range(1, n_max + 1)}
        else:
            w = fixed_point(rules, prefix_len)
            want = {
                n: len({w[i : i + n] for i in range(prefix_len - n + 1)})
                for n in WINDOW_NS
                if n <= n_max
            }
        size = len(rules)
        for n_text, p_text, est, sturmian in rows:
            n, p = int(n_text), int(p_text)
            if n in want:
                expect(p == want[n], f"p_{n} = {p}, expected {want[n]}")
            expect(_close(float(est), math.log(p, size) / n, 1e-10),
                   f"entropy estimate at n={n} is {est}")
            expect(sturmian == str(p == n + 1).lower(), f"sturmian flag at n={n}")

    return valid(check)


def analyze(rules: dict):
    m = incidence(rules)

    def check(out):
        r = json.loads(out)
        cp = np.poly(m)
        expect(np.all(np.abs(cp - np.rint(cp)) < 1e-6), "numpy char poly not integral")
        want_cp = [int(c) for c in np.rint(cp)[::-1]]
        expect(r["char_poly"] == want_cp, f"char_poly {r['char_poly']}, expected {want_cp}")
        # primitive by construction: row and column of letter 0 are positive
        expect(r["primitive"] is True, "primitive substitution reported imprimitive")
        values, vectors = np.linalg.eig(m)
        top = int(np.argmax(values.real))
        lam = float(values[top].real)
        perron = np.abs(vectors[:, top].real)
        perron /= perron.sum()
        got = np.array(r["frequencies"], dtype=float)
        expect(got.shape == perron.shape and np.max(np.abs(got - perron)) < 1e-9,
               f"frequencies {r['frequencies']}, expected {perron.tolist()}")
        others = np.abs(np.delete(values, top))
        if np.any(np.abs(others - 1) < 1e-6):
            return  # a conjugate too close to the circle to call in floating point
        loose = lam > 1 and bool(np.all(others < 1))
        expect(r["pisot_loose"] == loose, f"pisot_loose {r['pisot_loose']}, expected {loose}")
        # Kronecker: loose with p(0) != 0 forces the char poly irreducible
        strict = loose and want_cp[0] != 0
        expect(r["pisot_strict"] == strict, f"pisot_strict {r['pisot_strict']}, expected {strict}")
        if loose:
            lo, hi = r["leading_eigenvalue"]
            expect(lo - 1e-9 <= lam <= hi + 1e-9, f"leading eigenvalue {lam} outside [{lo}, {hi}]")
            true_max = float(others.max()) if others.size else 0.0
            bound = r["conjugate_moduli_bound"]
            expect(bound >= true_max - 1e-9,
                   f"conjugate_moduli_bound {bound} below the largest conjugate modulus {true_max:.12g}")

    return valid(check)


# ---------------------------------------------------------------------------
# polynomials, by numpy roots (Kronecker decides PV membership)

def _distinct(roots):
    out = []
    for z in roots:
        if all(abs(z - w) > 1e-5 for w in out):
            out.append(z)
    return np.array(out)


def pv_layout(coeffs) -> tuple:
    """(roots, is_pv) for a monic integer polynomial, constant first; is_pv
    is None when a root lies within 1e-6 of the unit circle."""
    roots = np.roots(coeffs[::-1])
    mods = np.abs(roots)
    if np.any(np.abs(mods - 1) < 1e-6):
        return roots, None
    outside = roots[mods > 1]
    is_pv = (
        coeffs[0] != 0
        and len(outside) == 1
        and abs(outside[0].imag) <= 1e-9 * abs(outside[0])
        and outside[0].real > 1
    )
    return roots, bool(is_pv)


def pv(coeffs):
    def check(out):
        r = json.loads(out)
        expect(r["poly"] == list(coeffs), f"poly echoed as {r['poly']}")
        roots, is_pv = pv_layout(coeffs)
        if is_pv is None:
            return
        dm = np.abs(_distinct(roots))
        counts = {"inside": int((dm < 1).sum()), "on_circle": 0, "outside": int((dm > 1).sum())}
        expect(r["root_counts"] == counts, f"root_counts {r['root_counts']}, expected {counts}")
        want = "pv" if is_pv else "not_pv"
        expect(r["verdict"] == want, f"verdict {r['verdict']!r}, expected {want!r}")
        expect(r["is_pv"] == is_pv, f"is_pv {r['is_pv']}, expected {is_pv}")
        if is_pv:
            lam = float(max(z.real for z in roots if abs(z) > 1))
            lo, hi = (float(x) for x in r["leading_root"])
            expect(lo - 1e-11 * lam <= lam <= hi + 1e-11 * lam,
                   f"leading root {lam!r} outside [{lo}, {hi}]")

    return valid(check)


def cusps(coeffs, big_k: int):
    """theta_k = 2 pi frac(lambda^k), with lambda^k in mpmath."""

    def check(out):
        rows = _csv_rows(out, "k,theta,x,y")
        expect(len(rows) == big_k, f"{len(rows)} angles, expected {big_k}")
        roots = np.roots(coeffs[::-1])
        x0 = max(z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 1)
        with mpmath.workdps(int(big_k * math.log10(x0)) + 40):
            lam = mpmath.findroot(lambda x: mpmath.polyval(coeffs[::-1], x), mpmath.mpf(x0))
            want = [float(2 * mpmath.pi * mpmath.frac(lam**k)) for k in range(1, big_k + 1)]
        for k, (row, w) in enumerate(zip(rows, want), start=1):
            expect(_arc(float(row[1]), w) <= 1e-9, f"theta_{k} = {row[1]}, expected {w!r}")

    return valid(check)


# ---------------------------------------------------------------------------
# angle streams

def _angles(out: str, fmt: str):
    if fmt == "csv":
        return [float(row[1]) for row in _csv_rows(out, "k,theta,x,y")], None
    r = json.loads(out)
    return [float(t) for t in r["angles"]], r


def _same_angles(got, want):
    expect(len(got) == len(want), f"{len(got)} angles, expected {len(want)}")
    worst = max((_arc(g, w), k) for k, (g, w) in enumerate(zip(got, want), start=1))
    expect(worst[0] <= 1e-9, f"angle {worst[1]} off by {worst[0]:.3g}")


def _gap_stats(angles):
    s = sorted(angles)
    gaps = [b - a for a, b in zip(s, s[1:])] + [TWO_PI - (s[-1] - s[0])]
    mean = TWO_PI / len(s)
    groups = 1
    low = None
    for g in sorted(gaps):
        if low is None:
            low = g
        elif g - low > 1e-9:
            groups += 1
            low = g
    return mean, sum((g - mean) ** 2 for g in gaps) / len(gaps), groups


def _check_gap_fields(r, angles):
    mean, variance, groups = _gap_stats(angles)
    expect(_close(float(r["gap_mean"]), mean, 1e-11), f"gap_mean {r['gap_mean']}, expected {mean!r}")
    # angles are printed to 12 digits, so the gaps read here are off by up to 1e-11
    expect(abs(float(r["gap_variance"]) - variance) <= 1e-10, f"gap_variance {r['gap_variance']}")
    expect(r["distinct_gaps"] == groups, f"distinct_gaps {r['distinct_gaps']}, expected {groups}")


def roots(n: int, fmt: str):
    """Roots of unity: angles 2 pi k / n, gap mean 2 pi / n, one distinct gap."""

    def check(out):
        got, r = _angles(out, fmt)
        _same_angles(got, [TWO_PI * k / n % TWO_PI for k in range(1, n + 1)])
        if r is not None:
            expect(_close(float(r["gap_mean"]), TWO_PI / n, 1e-11), f"gap_mean {r['gap_mean']}")
            expect(r["distinct_gaps"] == 1, f"distinct_gaps {r['distinct_gaps']}")
            expect(float(r["gap_variance"]) == 0.0, f"gap_variance {r['gap_variance']}")

    return valid(check)


def drive(rules: dict, beta0: str, beta1: str, n: int, fmt: str):
    """Digit-driven angles against the count-driven form
    theta_k = (c0(k) beta0 + c1(k) beta1) mod 2 pi."""

    def check(out):
        got, r = _angles(out, fmt)
        b0, b1 = _angle(beta0), _angle(beta1)
        zeros = np.cumsum(np.frombuffer(fixed_point(rules, n).encode(), np.uint8) == ord("0"))
        ones = np.arange(1, n + 1) - zeros
        _same_angles(got, np.mod(zeros * b0 + ones * b1, TWO_PI).tolist())
        if r is not None:
            _check_gap_fields(r, got)

    return valid(check)


def _angle(text: str) -> float:
    return (NAMED_ANGLES[text] if text in NAMED_ANGLES else float(text)) % TWO_PI


def quantum(rules: dict, beta0: str, beta1: str, steps: int, seed: int, fmt: str):
    """The documented procedure: at step n sample letter 0 with probability
    v0^2, v the normalized M^n e_0, from random.Random(seed); advance the
    angle by beta0 or beta1."""
    m = incidence(rules).tolist()

    def check(out):
        b0, b1 = _angle(beta0), _angle(beta1)
        rng = random.Random(seed)
        v0, v1 = 1.0, 0.0
        theta = 0.0
        angles, zeros = [], 0
        for _ in range(steps):
            w0 = m[0][0] * v0 + m[0][1] * v1
            w1 = m[1][0] * v0 + m[1][1] * v1
            norm = math.sqrt(w0 * w0 + w1 * w1)
            v0, v1 = w0 / norm, w1 / norm
            if rng.random() < v0 * v0:
                zeros += 1
                theta = (theta + b0) % TWO_PI
            else:
                theta = (theta + b1) % TWO_PI
            angles.append(theta)
        if fmt == "csv":
            _same_angles(_angles(out, "csv")[0], angles)
            return
        r = json.loads(out)
        expect(r["seed"] == seed and r["N"] == steps, "manifest seed or N")
        expect(r["substitution"] == {"alphabet": sorted(rules), "rules": rules}, "manifest spec")
        rates = [zeros / steps, (steps - zeros) / steps]
        got = [float(x) for x in r["letter_rates"]]
        expect(len(got) == 2 and all(_close(g, w, 1e-11) for g, w in zip(got, rates)),
               f"letter_rates {r['letter_rates']}, expected {rates}")

    return valid(check)


# ---------------------------------------------------------------------------
# crystal: Hiller's function from a benchmark-side totient, Cantor maps

def hil(n: int) -> int:
    """Sum of phi(p^a) over the prime powers p^a exactly dividing n,
    leaving out 2^1."""
    total, m, p = 0, n, 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            if (p, a) != (2, 1):
                total += (p - 1) * p ** (a - 1)
        p += 1
    if m > 2:
        total += m - 1
    return total


def hiller(n: int):
    return valid(lambda out: expect(out.strip() == str(hil(n)), f"Hil({n}) = {out.strip()}, expected {hil(n)}"))


def hiller_table(n_max: int):
    want = "\n".join(["n Hil(n)"] + [f"{n} {hil(n)}" for n in range(1, n_max + 1)])
    return valid(lambda out: expect(out.rstrip("\n") == want, "table differs"))


def hiller_allowed(d: int, n_max: int):
    want = [n for n in range(1, n_max + 1) if hil(n) <= d]

    def check(out):
        r = json.loads(out)
        expect(r["dimension"] == d and r["orders"] == want, f"orders {r['orders']}, expected {want}")

    return valid(check)


def cantor_dim(size: int):
    want = math.log(size - 1) / math.log(size)
    return valid(lambda out: expect(_close(float(out), want, 1e-11), f"dimension {out.strip()}"))


def _fraction(out: str) -> Fraction:
    return Fraction(out.strip())


def cantor_value(size: int, digits: str):
    want = sum(Fraction(int(c), size ** (i + 1)) for i, c in enumerate(digits))
    return valid(lambda out: expect(_fraction(out) == want, f"value {out.strip()}, expected {want}"))


def cantor_represent(size: int, q: Fraction, n_digits: int):
    """Nonterminating base-`size` digits: each digit is ceil(r) - 1 of the
    scaled remainder r, so an exact hit keeps a remainder of 1."""
    digits, rem = [], Fraction(q)
    for _ in range(n_digits):
        rem *= size
        d = 0 if rem == 0 else math.ceil(rem) - 1
        digits.append(d)
        rem -= d
    want = "".join(map(str, digits))
    return valid(lambda out: expect(out.strip() == want, f"digits {out.strip()}, expected {want}"))


def cantor_function(size: int, excluded: int, digits: str):
    """f(w) = v_B(w') + |B| / |B|^(|w|+1), w' the word over A minus the
    excluded letter."""
    nb = size - 1
    shifted = [int(c) - (int(c) > excluded) for c in digits]
    want = sum(Fraction(c, nb ** (i + 1)) for i, c in enumerate(shifted))
    want += Fraction(nb, nb ** (len(digits) + 1))
    return valid(lambda out: expect(_fraction(out) == want, f"value {out.strip()}, expected {want}"))
