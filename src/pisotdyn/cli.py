"""Command-line frontend.

Subcommands: subst, entropy, spacing, pv, hiller, cantor, quantum.
Every run is fully determined by its flags; identical invocations produce
byte-identical output (JSON keys sorted, angles at 12 significant digits).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

from . import algebraic, crystal, geometry, quantum, words
from .algebraic import IntPolynomial
from .geometry import fmt12
from .substitution import (
    FixedPointError,
    Substitution,
    classify_pisot,
    fixed_point_prefix,
    iterate,
)

TAU = (1 + math.sqrt(5)) / 2
RHO = float(
    algebraic.dominant_root_interval(
        IntPolynomial((-1, -1, 0, 1)), Fraction(1, 10**15)
    ).midpoint
)

_NAMED_ANGLES = {"tau": TAU, "rho": RHO, "pi": math.pi}


def _parse_angle(text: str) -> float:
    if text in _NAMED_ANGLES:
        return _NAMED_ANGLES[text] % (2 * math.pi)
    try:
        return float(text) % (2 * math.pi)
    except ValueError:
        raise click.BadParameter(f"not an angle or named constant: {text!r}")


def _parse_poly(text: str) -> IntPolynomial:
    try:
        coeffs = tuple(int(t) for t in text.split(","))
        return IntPolynomial(coeffs)
    except ValueError as e:
        raise click.BadParameter(f"bad polynomial {text!r}: {e}")


def _load_subst(path: str) -> Substitution:
    try:
        with open(path) as fh:
            return Substitution.from_json(fh.read())
    except (OSError, ValueError, KeyError) as e:
        raise click.ClickException(f"bad substitution spec {path}: {e}")


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


class _Main(click.Group):
    """The one error boundary: a ValueError from the library ends the run
    in a single `Error:` line with exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Main)
def main():
    """Substitution dynamical systems of Pisot type."""


# ---------------------------------------------------------------------------
@main.command()
@click.argument("spec_path")
@click.argument("action", type=click.Choice(["show", "iterate", "fixpoint", "analyze"]))
@click.option("--letter", default=None, help="starting letter (default: first)")
@click.option("-k", "--power", default=3, type=int, help="iteration count")
@click.option("-L", "--length", default=100, type=int, help="prefix length")
@click.option("--out", default=None)
def subst(spec_path, action, letter, power, length, out):
    """Show, iterate or analyze a substitution spec file."""
    sigma = _load_subst(spec_path)
    a = sigma.alphabet.lex(letter) if letter else 0
    if action == "show":
        _emit(sigma.to_json(), out)
    elif action == "iterate":
        _emit(str(iterate(sigma, a, power)), out)
    elif action == "fixpoint":
        try:
            stream = fixed_point_prefix(sigma, a, length)
        except FixedPointError as e:
            hint = (
                f" (try --power {e.suggested_power} of the substitution)"
                if e.suggested_power
                else ""
            )
            raise click.ClickException(str(e) + hint)
        _emit(str(stream.prefix(length)), out)
    else:
        report = classify_pisot(sigma)
        _emit(json.dumps(report.to_dict(), sort_keys=True), out)


# ---------------------------------------------------------------------------
@main.command()
@click.option("--spec", "spec_path", default=None, help="substitution spec file")
@click.option("--word", "raw_word", default=None, help="raw word (binary digits etc.)")
@click.option("--alphabet", default="01", help="symbols for --word input")
@click.option("--n-max", default=50, type=int)
@click.option("--prefix-len", default=1000, type=int)
@click.option("--out", default=None)
def entropy(spec_path, raw_word, alphabet, n_max, prefix_len, out):
    """Complexity/entropy profile as CSV (n, p_n, entropy, sturmian flag)."""
    if (spec_path is None) == (raw_word is None):
        raise click.UsageError("provide exactly one of --spec / --word")
    if spec_path:
        sigma = _load_subst(spec_path)
        w = fixed_point_prefix(sigma, 0, prefix_len).prefix(prefix_len)
    else:
        ab = words.Alphabet(tuple(alphabet))
        w = ab.word(raw_word)
    if n_max > len(w):
        raise click.ClickException("prefix shorter than n-max")
    profile = words.complexity_profile(w, n_max)
    lines = ["n,p_n,entropy_estimate,sturmian"]
    for n in range(1, n_max + 1):
        p_n = profile.values[n - 1]
        est = words.entropy_from_count(p_n, w.alphabet.size, n)
        lines.append(f"{n},{p_n},{fmt12(est)},{str(p_n == n + 1).lower()}")
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
@main.command()
@click.argument("mode", type=click.Choice(["roots", "cusps", "drive"]))
@click.option("-n", "--count", default=5, type=int, help="petals / points")
@click.option("--poly", default=None, help="PV polynomial, constant-first")
@click.option("--spec", "spec_path", default=None)
@click.option("--beta0", default="tau")
@click.option("--beta1", default="1.0")
@click.option("--format", "fmt", type=click.Choice(["csv", "svg", "json"]), default="csv")
@click.option("--precision-bits", default=128, type=int)
@click.option("--out", default=None)
def spacing(mode, count, poly, spec_path, beta0, beta1, fmt, precision_bits, out):
    """Circle spacing runs: roots of unity, PV cusp curves, digit-driven."""
    if mode == "roots":
        angles = geometry.roots_of_unity(count)
    elif mode == "cusps":
        if poly is None:
            raise click.UsageError("cusps mode needs --poly")
        angles = geometry.cusp_curve(_parse_poly(poly), count, precision_bits)
    else:
        if spec_path is None:
            raise click.UsageError("drive mode needs --spec")
        sigma = _load_subst(spec_path)
        angles = geometry.substitution_spacing(
            sigma, _parse_angle(beta0), _parse_angle(beta1), count
        )
    _emit_angles(angles, fmt, out, cusp=(mode == "cusps"))


def _emit_angles(angles, fmt, out, cusp=False):
    if fmt == "csv":
        _emit(angles.to_csv(), out)
    elif fmt == "svg":
        _emit(angles.to_svg(mode="cusp" if cusp else "petals"), out)
    else:
        stats = geometry.gap_statistics(angles)
        _emit(
            json.dumps(
                {
                    "schema": 1,
                    "angles": [fmt12(t) for t in angles.angles],
                    "gap_mean": fmt12(stats.mean),
                    "gap_variance": fmt12(stats.variance),
                    "distinct_gaps": stats.distinct_gaps,
                },
                sort_keys=True,
            ),
            out,
        )


# ---------------------------------------------------------------------------
@main.command()
@click.option("--poly", required=True, help="monic polynomial, constant-first")
@click.option("--out", default=None)
def pv(poly, out):
    """Pisot-Vijayaraghavan certification with exact root counts."""
    p = _parse_poly(poly)
    layout = algebraic.root_layout(p)
    counts = layout.counts
    report = {
        "schema": 1,
        "poly": list(p.coefficients),
        "pretty": p.pretty(),
        "verdict": "pv" if layout.pv else "not_pv",
        "is_pv": layout.pv,
        "root_counts": {
            "inside": counts.inside,
            "on_circle": counts.on_circle,
            "outside": counts.outside,
        },
    }
    if layout.pv:
        report["leading_root"] = [fmt12(float(layout.lam.lower)), fmt12(float(layout.lam.upper))]
    _emit(json.dumps(report, sort_keys=True), out)


# ---------------------------------------------------------------------------
@main.command()
@click.argument("n", required=False, type=int)
@click.option("--table", default=None, type=int, help="print the table up to N")
@click.option("--allowed", default=None, type=int, help="orders allowed in dimension d")
@click.option("--n-max", default=36, type=int)
@click.option("--out", default=None)
def hiller(n, table, allowed, n_max, out):
    """Hiller's crystallographic-order function."""
    if table is not None:
        lines = ["n Hil(n)"] + [f"{k} {h}" for k, h in crystal.hiller_table(table)]
        _emit("\n".join(lines) + "\n", out)
    elif allowed is not None:
        orders = sorted(crystal.allowed_orders(allowed, n_max))
        _emit(json.dumps({"schema": 1, "dimension": allowed, "orders": orders}), out)
    elif n is not None:
        _emit(str(crystal.hiller(n)), out)
    else:
        raise click.UsageError("give N, --table N or --allowed D")


# ---------------------------------------------------------------------------
@main.command()
@click.argument("action", type=click.Choice(["dim", "value", "represent", "function"]))
@click.option("--alphabet-size", default=3, type=int)
@click.option("--excluded", default=1, type=int)
@click.option("--word", "raw_word", default=None)
@click.option("--q", default=None, help="rational p/q in [0,1]")
@click.option("--digits", default=12, type=int)
@click.option("--out", default=None)
def cantor(action, alphabet_size, excluded, raw_word, q, digits, out):
    """Generalized Cantor sets: dimension, value map, representation,
    Cantor function (exact fractions)."""
    ab = words.Alphabet(tuple(str(i) for i in range(alphabet_size)))
    spec = crystal.CantorSpec(ab, excluded)
    if action == "dim":
        _emit(fmt12(crystal.hausdorff_dimension(spec)), out)
    elif action == "value":
        if raw_word is None:
            raise click.UsageError("value needs --word")
        v = crystal.numeric_value(ab, ab.word(raw_word))
        _emit(f"{v.numerator}/{v.denominator}", out)
    elif action == "represent":
        if q is None:
            raise click.UsageError("represent needs --q")
        _emit(str(crystal.representation(ab, Fraction(q), digits)), out)
    else:
        if raw_word is None:
            raise click.UsageError("function needs --word")
        v = crystal.cantor_function_value(spec, ab.word(raw_word))
        _emit(f"{v.numerator}/{v.denominator}", out)


# ---------------------------------------------------------------------------
@main.command("quantum")
@click.option("--spec", "spec_path", required=True)
@click.option("--beta0", default="tau")
@click.option("--beta1", default="1.0")
@click.option("-N", "--steps", default=1000, type=int)
@click.option("--seed", required=True, type=int)
@click.option("--format", "fmt", type=click.Choice(["csv", "svg", "json"]), default="csv")
@click.option("--out", default=None)
def quantum_cmd(spec_path, beta0, beta1, steps, seed, fmt, out):
    """Measurement-driven spacing simulation (seed required)."""
    sigma = _load_subst(spec_path)
    run = quantum.quantum_spacing_simulate(
        sigma, _parse_angle(beta0), _parse_angle(beta1), steps, seed
    )
    if fmt == "json":
        payload = json.loads(run.manifest_json())
        payload["letter_rates"] = [fmt12(r) for r in run.letter_rates]
        _emit(json.dumps(payload, sort_keys=True), out)
    else:
        _emit_angles(run.angles, fmt, out)


if __name__ == "__main__":
    sys.exit(main())
