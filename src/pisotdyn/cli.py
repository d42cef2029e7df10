"""Command-line frontend.

Subcommands: subst, entropy, spacing, pv, hiller, cantor, quantum.
Every run is fully determined by its flags; identical invocations produce
byte-identical output (JSON keys sorted, angles at 12 significant digits).
Bad input ends in one closing `Error:` line on stderr: exit code 2 for a
malformed command line, 1 for input the library rejects.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import algebraic, crystal, geometry, quantum, words
from .algebraic import IntPolynomial
from .geometry import fmt12
from .substitution import (
    Substitution,
    classify_pisot,
    fixed_point_prefix,
    iterate,
    language_prefix,
)

TAU = (1 + math.sqrt(5)) / 2
# the plastic number, the real root of x^3 - x - 1, correctly rounded: both
# ends of a certified 10^-30 bracket of the root round to it
RHO = 1.324717957244746
_NAMED_ANGLES = {"tau": TAU, "pi": math.pi, "rho": RHO}


class UsageError(Exception):
    """A malformed command line: exit code 2."""


def _parse_angle(option: str, text: str) -> float:
    value = _NAMED_ANGLES.get(text)
    if value is None:
        try:
            value = float(text)
        except ValueError:
            raise UsageError(
                f"invalid value for {option}: not an angle or named constant: {text!r}"
            ) from None
        if not math.isfinite(value):
            raise UsageError(f"invalid value for {option}: not a finite angle: {text!r}")
    # a tiny negative angle rounds up to 2*pi itself, which is 0
    value %= 2 * math.pi
    return 0.0 if value == 2 * math.pi else value


def _parse_poly(text: str) -> IntPolynomial:
    try:
        coeffs = tuple(int(t) for t in text.split(","))
        return IntPolynomial(coeffs)
    except ValueError as e:
        raise UsageError(f"invalid value for --poly: bad polynomial {text!r}: {e}") from None


def _load_subst(path: str) -> Substitution:
    try:
        with open(path) as fh:
            return Substitution.from_json(fh.read())
    except (OSError, ValueError) as e:
        raise ValueError(f"bad substitution spec {path}: {e}") from e


def _emit(text: str, out):
    """Write a command's output to the file `out`, or to stdout with a
    closing newline and flushed, so that a failed write raises OSError
    here, in main's error boundary."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        return
    if sys.stdout is None:  # fd 1 was closed when the process started
        raise OSError("stdout is closed")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    sys.stdout.flush()


def _to_stderr(text: str):
    """Write `text` to stderr, or drop it, as argparse does, when stderr is
    closed: None when fd 2 was closed at start-up, or a bad fd."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------
def subst(args):
    """Show, iterate or analyze a substitution spec file."""
    sigma = _load_subst(args.spec_path)
    a = sigma.alphabet.lex(args.letter) if args.letter is not None else 0
    if args.action == "show":
        return sigma.to_json()
    if args.action == "iterate":
        return str(iterate(sigma, a, args.power))
    if args.action == "fixpoint":
        return str(fixed_point_prefix(sigma, a, args.length).prefix(args.length))
    return json.dumps(classify_pisot(sigma).to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
def entropy(args):
    """Complexity/entropy profile as CSV (n, p_n, entropy, sturmian)."""
    if (args.spec_path is None) == (args.raw_word is None):
        raise UsageError("provide exactly one of --spec / --word")
    n_max = args.n_max
    if args.spec_path:
        w = language_prefix(_load_subst(args.spec_path), 0, n_max, args.prefix_len)
    else:
        ab = words.Alphabet(tuple(args.alphabet))
        w = ab.word(args.raw_word)
    if n_max > len(w):
        raise ValueError("prefix shorter than n-max")
    profile = words.complexity_profile(w, n_max)
    lines = ["n,p_n,entropy_estimate,sturmian"]
    for n in range(1, n_max + 1):
        p_n = profile.values[n - 1]
        est = words.entropy_from_count(p_n, w.alphabet.size, n)
        lines.append(f"{n},{p_n},{fmt12(est)},{str(p_n == n + 1).lower()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
def spacing(args):
    """Circle spacing runs: roots of unity, PV cusp curves, digit-driven."""
    if args.mode == "roots":
        angles = geometry.roots_of_unity(args.count)
    elif args.mode == "cusps":
        if args.poly is None:
            raise UsageError("cusps mode needs --poly")
        angles = geometry.cusp_curve(_parse_poly(args.poly), args.count, args.precision_bits)
    else:
        if args.spec_path is None:
            raise UsageError("drive mode needs --spec")
        sigma = _load_subst(args.spec_path)
        angles = geometry.substitution_spacing(
            sigma, _parse_angle("--beta0", args.beta0), _parse_angle("--beta1", args.beta1),
            args.count,
        )
    return _format_angles(angles, args.fmt, cusp=(args.mode == "cusps"))


def _format_angles(angles, fmt, cusp=False):
    if fmt == "csv":
        return angles.to_csv()
    if fmt == "svg":
        return angles.to_svg(mode="cusp" if cusp else "petals")
    stats = geometry.gap_statistics(angles)
    rest = json.dumps(
        {
            "schema": 1,
            "gap_mean": fmt12(stats.mean),
            "gap_variance": fmt12(stats.variance),
            "distinct_gaps": stats.distinct_gaps,
        },
        sort_keys=True,
    )
    # "angles" sorts first: its array of fmt12 strings opens the object
    rows = geometry._format_rows('"%.12g", ', len(angles), iter(angles.angles))
    return '{"angles": [' + rows[:-2] + "], " + rest[1:]


# ---------------------------------------------------------------------------
def pv(args):
    """Pisot-Vijayaraghavan certification with exact root counts."""
    p = _parse_poly(args.poly)
    layout = algebraic.root_layout(p)
    report = {
        "schema": 1,
        "poly": list(p.coefficients),
        "pretty": p.pretty(),
        "verdict": "pv" if layout.pv else "not_pv",
        "is_pv": layout.pv,
        "root_counts": layout.counts.to_dict(),
    }
    if layout.pv:
        report["leading_root"] = [fmt12(float(layout.lam.lower)), fmt12(float(layout.lam.upper))]
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
def hiller(args):
    """Hiller's crystallographic-order function."""
    if [args.n, args.table, args.allowed].count(None) != 2:
        raise UsageError("give N, --table N or --allowed D")
    if args.n_max is not None and args.allowed is None:
        raise UsageError("--n-max needs --allowed D")
    if args.table is not None:
        lines = ["n Hil(n)"] + [f"{k} {h}" for k, h in crystal.hiller_table(args.table)]
        return "\n".join(lines) + "\n"
    if args.allowed is not None:
        n_max = 36 if args.n_max is None else args.n_max
        orders = sorted(crystal.allowed_orders(args.allowed, n_max))
        return json.dumps({"schema": 1, "dimension": args.allowed, "orders": orders})
    return str(crystal.hiller(args.n))


# ---------------------------------------------------------------------------
def cantor(args):
    """Generalized Cantor sets: dimension, value map, representation,
    Cantor function (exact fractions)."""
    ab = words.Alphabet(tuple(str(i) for i in range(args.alphabet_size)))
    spec = crystal.CantorSpec(ab, args.excluded)
    if args.action == "dim":
        return fmt12(crystal.hausdorff_dimension(spec))
    if args.action == "represent":
        if args.q is None:
            raise UsageError("represent needs --q")
        try:
            q = Fraction(args.q)
        except ZeroDivisionError:
            raise ValueError(f"q has denominator 0: {args.q!r}") from None
        return str(crystal.representation(ab, q, args.digits))
    if args.raw_word is None:
        raise UsageError(f"{args.action} needs --word")
    if args.action == "value":
        v = crystal.numeric_value(ab, ab.word(args.raw_word))
    else:
        v = crystal.cantor_function_value(spec, ab.word(args.raw_word))
    # Decimal converts an int of any length: str stops at 4,300 digits
    return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"


# ---------------------------------------------------------------------------
def quantum_cmd(args):
    """Measurement-driven spacing simulation (seed required)."""
    sigma = _load_subst(args.spec_path)
    run = quantum.quantum_spacing_simulate(
        sigma, _parse_angle("--beta0", args.beta0), _parse_angle("--beta1", args.beta1),
        args.steps, args.seed,
    )
    if args.fmt == "json":
        payload = dict(run.manifest, letter_rates=[fmt12(r) for r in run.letter_rates])
        return json.dumps(payload, sort_keys=True)
    return _format_angles(run.angles, args.fmt)


# ---------------------------------------------------------------------------
# the parser

class _Parser(argparse.ArgumentParser):
    """A parser with only a `--help` option, no abbreviated options, and
    usage errors raised as UsageError for main to report.  It records the
    option strings that take a value in `value_options`."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.value_options = set()
        self.add_argument("--help", action="help", help="show this message and exit")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.value_options.update(action.option_strings)
        return action

    def error(self, message):
        _to_stderr(self.format_usage())
        raise UsageError(message)


_FORMATS = ("csv", "svg", "json")


def _parser(prog: str):
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog=prog, description="Substitution dynamical systems of Pisot type.")
    subparsers = parser.add_subparsers(
        title="commands", dest="command", metavar="COMMAND", required=True
    )
    commands = {}

    def command(run, name=None):
        name = name or run.__name__
        doc = run.__doc__
        commands[name] = p = subparsers.add_parser(
            name, help=" ".join(doc.split()), description=doc, prog=f"{prog} {name}"
        )
        p.set_defaults(run=run)
        return p

    p = command(subst)
    p.add_argument("spec_path", metavar="SPEC_PATH")
    p.add_argument("action", choices=("show", "iterate", "fixpoint", "analyze"))
    p.add_argument("--letter", help="starting letter (default: first)")
    p.add_argument("-k", "--power", type=int, default=3, help="iteration count")
    p.add_argument("-L", "--length", type=int, default=100, help="prefix length")

    p = command(entropy)
    p.add_argument("--spec", dest="spec_path", help="substitution spec file")
    p.add_argument("--word", dest="raw_word", help="raw word (binary digits etc.)")
    p.add_argument("--alphabet", default="01", help="symbols for --word input")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--prefix-len", type=int, default=1000)

    p = command(spacing)
    p.add_argument("mode", choices=("roots", "cusps", "drive"))
    p.add_argument("-n", "--count", type=int, default=5, help="petals / points")
    p.add_argument("--poly", help="PV polynomial, constant-first")
    p.add_argument("--spec", dest="spec_path")
    p.add_argument("--beta0", default="tau")
    p.add_argument("--beta1", default="1.0")
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="csv")
    p.add_argument("--precision-bits", type=int, default=128)

    p = command(pv)
    p.add_argument("--poly", required=True, help="monic polynomial, constant-first")

    p = command(hiller)
    p.add_argument("n", nargs="?", type=int)
    p.add_argument("--table", type=int, help="print the table up to N")
    p.add_argument("--allowed", type=int, help="orders allowed in dimension d")
    p.add_argument("--n-max", type=int)

    p = command(cantor)
    p.add_argument("action", choices=("dim", "value", "represent", "function"))
    p.add_argument("--alphabet-size", type=int, default=3)
    p.add_argument("--excluded", type=int, default=1)
    p.add_argument("--word", dest="raw_word")
    p.add_argument("--q", help="rational p/q in [0,1]")
    p.add_argument("--digits", type=int, default=12)

    p = command(quantum_cmd, "quantum")
    p.add_argument("--spec", dest="spec_path", required=True)
    p.add_argument("--beta0", default="tau")
    p.add_argument("--beta1", default="1.0")
    p.add_argument("-N", "--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default="csv")
    # after every subcommand's own options, so that --help lists it last
    for p in commands.values():
        p.add_argument("--out")
    return parser, commands


# argparse's test for a token that is a negative number, not an option
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _attach_values(argv: list, parser: _Parser) -> list:
    """argv with each option's value attached as `--option=value`.

    An option takes the next token as its value even when it starts with
    `-` (`--poly -1,-1,0,1`, `--beta1 -0.5`), which argparse alone would
    read as an option.  A token that is not a value and looks like a
    negative number is an unknown option, unless it follows `--`.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            out.append(token)
            out.extend(tokens)
        elif token in parser.value_options:
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        elif _NEGATIVE_NUMBER.match(token):
            parser.error(f"no such option: {token}")
        else:
            out.append(token)
    return out


def main(args=None, prog_name=None):
    """Run one command on `args` (default: sys.argv[1:]), write the text it
    returns, and exit: code 0, 1 when the library rejects the input (a
    ValueError, a bad spec file), the output cannot be written (a closed
    stdout, a broken pipe, a full disk, an unwritable --out file) or memory
    runs out, or 2 for a malformed command line.  An error ends in one
    `Error:` line on stderr, unless stderr is closed."""
    parser, commands = _parser(prog_name or "pisotdyn")
    argv = sys.argv[1:] if args is None else list(args)
    try:
        if argv and argv[0] in commands:
            argv[1:] = _attach_values(argv[1:], commands[argv[0]])
        ns = parser.parse_args(argv)
        _emit(ns.run(ns), ns.out)
    except UsageError as e:
        code, error = 2, e
    except (ValueError, OSError) as e:
        code, error = 1, e
    except MemoryError:
        code, error = 1, "out of memory"
    else:
        sys.exit(0)
    _to_stderr(f"Error: {error}\n")
    sys.exit(code)


# perfbench/shim.py calls main.main(args=..., prog_name=...), the form of
# the click command that main used to be
main.main = main


def run():
    """The process entry of `python -m pisotdyn.cli` and of the `pisotdyn`
    script: run `main`, flush stdout and stderr, and end the process with
    `os._exit`, skipping the interpreter's teardown of every loaded module.

    Skipping it loses nothing: the CLI starts no thread and registers no
    atexit handler, and every --out file is closed by its `with` block
    before `main` returns.  (An atexit handler that a site hook registered
    is skipped too.)  `main` has already flushed a command's output and
    reported a failed write as an `Error:` line, so a flush that fails here
    can only lose `--help` text, whose failed write argparse ignores too.
    Any other exception than SystemExit escapes with its traceback."""
    try:
        main()
    except SystemExit as e:
        code = e.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass  # None, broken or closed
    os._exit(code)


if __name__ == "__main__":
    run()
