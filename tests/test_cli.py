import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisotdyn.algebraic import IntPolynomial, dominant_root_interval
from pisotdyn.cli import _parse_angle, main

FIB_SPEC = '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}'
PELL_SPEC = '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "001"}}'
PADOVAN_SPEC = '{"alphabet": ["0", "1", "2"], "rules": {"0": "12", "1": "2", "2": "0"}}'


class Result:
    def __init__(self, exit_code, stdout_bytes, stderr_bytes, exception):
        self.exit_code = exit_code
        self.stdout_bytes = stdout_bytes
        self.stdout = stdout_bytes.decode()
        self.stderr = stderr_bytes.decode()
        self.output = self.stdout + self.stderr
        self.exception = exception  # the SystemExit of a non-zero exit, or what escaped


class Runner:
    """Runs the CLI in process with stdout and stderr captured as bytes."""

    def invoke(self, cli, args):
        out, err = io.BytesIO(), io.BytesIO()
        stdout = io.TextIOWrapper(out, encoding="utf-8", newline="")
        stderr = io.TextIOWrapper(err, encoding="utf-8", newline="")
        exit_code, exception = 0, None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                cli.main(args=args, prog_name="pisotdyn")
        except SystemExit as e:
            exit_code = e.code
            exception = e if e.code else None
        except Exception as e:
            exit_code, exception = 1, e
        stdout.flush()
        stderr.flush()
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


@pytest.fixture
def fib_path(tmp_path):
    p = tmp_path / "fibonacci.json"
    p.write_text(FIB_SPEC)
    return str(p)


@pytest.fixture
def pell_path(tmp_path):
    p = tmp_path / "pell.json"
    p.write_text(PELL_SPEC)
    return str(p)


class TestSubst:
    def test_iterate(self, runner, fib_path):
        r = runner.invoke(main, ["subst", fib_path, "iterate", "-k", "3"])
        assert r.exit_code == 0
        assert r.output.strip() == "01001"

    def test_analyze(self, runner, pell_path):
        r = runner.invoke(main, ["subst", pell_path, "analyze"])
        assert r.exit_code == 0
        report = json.loads(r.output)
        assert report["schema"] == 1 and report["pisot_strict"] is True
        lo, hi = report["leading_eigenvalue"]
        assert lo <= 2.41421 <= hi or abs((lo + hi) / 2 - 2.41421356) < 1e-5

    def test_fixpoint_error_suggests_power(self, runner, tmp_path):
        # the library's message names the power that works; fixpoint has no
        # option to take it, so the CLI adds nothing and entropy says the same
        p = tmp_path / "padovan.json"
        p.write_text(PADOVAN_SPEC)
        for argv in (["subst", str(p), "fixpoint"], ["entropy", "--spec", str(p)]):
            r = runner.invoke(main, argv)
            assert r.exit_code == 1 and r.stdout == ""
            assert r.stderr == "Error: sigma(0) does not admit a fixed point; sigma^3 does\n"

    def test_malformed_spec(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"alphabet": ["0", "1"], "rules": {"0": "01"}}')
        r = runner.invoke(main, ["subst", str(p), "show"])
        assert r.exit_code != 0


class TestEntropy:
    def test_fibonacci_profile(self, runner, fib_path):
        r = runner.invoke(
            main, ["entropy", "--spec", fib_path, "--n-max", "20", "--prefix-len", "500"]
        )
        assert r.exit_code == 0
        lines = r.output.strip().split("\n")
        assert lines[0] == "n,p_n,entropy_estimate,sturmian"
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert int(fields[1]) == n + 1
            assert fields[3] == "true"

    def test_constant_word(self, runner):
        r = runner.invoke(main, ["entropy", "--word", "0000000000", "--n-max", "3"])
        assert r.exit_code == 0
        assert all(line.split(",")[1] == "1" for line in r.output.strip().split("\n")[1:])


class TestSpacing:
    def test_roots_json_stats(self, runner):
        r = runner.invoke(main, ["spacing", "roots", "-n", "5", "--format", "json"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["gap_variance"] == "0"
        assert payload["distinct_gaps"] == 1

    def test_thousand_golden_cusps_are_quick(self, runner):
        # each refinement of lambda once raised both ends to the k-th power
        # again: 41 s for these 1000 angles
        start = time.perf_counter()
        r = runner.invoke(main, ["spacing", "cusps", "--poly", "-1,-1,1", "-n", "1000"])
        assert time.perf_counter() - start < 5.0
        assert r.exit_code == 0 and len(r.stdout.splitlines()) == 1001

    def test_cusps_needs_pv(self, runner):
        r = runner.invoke(main, ["spacing", "cusps", "--poly", "-3,0,1", "-n", "5"])
        assert r.exit_code != 0

    def test_drive_fibonacci(self, runner, fib_path):
        r = runner.invoke(
            main,
            ["spacing", "drive", "--spec", fib_path, "-n", "50", "--beta0", "tau"],
        )
        assert r.exit_code == 0
        assert len(r.output.strip().split("\n")) == 51

    def test_svg(self, runner):
        r = runner.invoke(main, ["spacing", "roots", "-n", "6", "--format", "svg"])
        assert r.exit_code == 0 and r.output.startswith("<svg")


class TestPv:
    def test_golden(self, runner):
        r = runner.invoke(main, ["pv", "--poly", "-1,-1,1"])
        assert r.exit_code == 0
        report = json.loads(r.output)
        assert report["is_pv"] is True
        assert report["root_counts"] == {"inside": 1, "on_circle": 0, "outside": 1}

    def test_rejection(self, runner):
        r = runner.invoke(main, ["pv", "--poly", "-3,0,1"])
        report = json.loads(r.output)
        assert report["is_pv"] is False

    def test_parse_failure(self, runner):
        r = runner.invoke(main, ["pv", "--poly", "a,b"])
        assert r.exit_code != 0


class TestHiller:
    def test_single(self, runner):
        r = runner.invoke(main, ["hiller", "12"])
        assert r.output.strip() == "4"

    def test_table(self, runner):
        r = runner.invoke(main, ["hiller", "--table", "6"])
        rows = r.output.strip().split("\n")
        assert rows[0] == "n Hil(n)"
        assert rows[1:] == ["1 0", "2 0", "3 2", "4 2", "5 4", "6 2"]

    def test_allowed(self, runner):
        r = runner.invoke(main, ["hiller", "--allowed", "3"])
        assert json.loads(r.output)["orders"] == [1, 2, 3, 4, 6]


class TestCantor:
    def test_dim(self, runner):
        r = runner.invoke(main, ["cantor", "dim"])
        assert r.output.strip().startswith("0.630929753571")

    def test_value(self, runner):
        r = runner.invoke(main, ["cantor", "value", "--word", "202"])
        assert r.output.strip() == "20/27"

    def test_function(self, runner):
        r = runner.invoke(main, ["cantor", "function", "--word", "0"])
        assert r.output.strip() == "1/2"

    def test_represent(self, runner):
        r = runner.invoke(
            main, ["cantor", "represent", "--q", "1/2", "--digits", "4",
                   "--alphabet-size", "2"]
        )
        assert r.output.strip() == "0111"


class TestQuantum:
    def test_seed_required(self, runner, fib_path):
        r = runner.invoke(main, ["quantum", "--spec", fib_path, "-N", "10"])
        assert r.exit_code != 0

    def test_reproducible(self, runner, pell_path):
        args = ["quantum", "--spec", pell_path, "-N", "200", "--seed", "5",
                "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0
        assert a.output == b.output
        payload = json.loads(a.output)
        assert payload["seed"] == 5 and payload["schema"] == 1


    def test_one_step_prints_both_letter_rates(self, runner, fib_path):
        # seed 1 draws letter 0 and seed 2 letter 1
        for seed in range(1, 21):
            r = runner.invoke(main, ["quantum", "--spec", fib_path, "-N", "1", "--seed", str(seed),
                                     "--format", "json"])
            assert r.exit_code == 0
            assert sorted(json.loads(r.stdout)["letter_rates"]) == ["0", "1"], seed


class TestAngles:
    @pytest.mark.parametrize("text", ["-1e-20", "-5e-324", "-0.0", "0", "6.283185307179586"])
    def test_angles_that_reduce_to_zero(self, text):
        # a tiny negative angle is 2*pi after rounding, which [0, 2*pi) holds as 0
        assert _parse_angle("--beta0", text) == 0.0

    def test_reduction_into_the_circle(self):
        assert _parse_angle("--beta0", "-1") == 2 * math.pi - 1
        assert _parse_angle("--beta1", "7") == 7 - 2 * math.pi
        assert _parse_angle("--beta0", "pi") == math.pi

    def test_rho_is_the_correctly_rounded_plastic_number(self):
        # both ends of a 10^-30 bracket of the real root of x^3 - x - 1
        # round to one float
        root = dominant_root_interval(IntPolynomial((-1, -1, 0, 1)), Fraction(1, 10**30))
        assert float(root.lower) == float(root.upper) == _parse_angle("--beta0", "rho")

    @pytest.mark.parametrize("text", ["-1e-20", "-5e-324"])
    def test_quantum_manifest_prints_zero(self, runner, fib_path, text):
        r = runner.invoke(main, ["quantum", "--spec", fib_path, "--seed", "1", "-N", "3",
                                 "--format", "json", "--beta0", text])
        assert r.exit_code == 0 and json.loads(r.stdout)["beta0"] == 0.0

    @pytest.mark.parametrize("option", ["--beta0", "--beta1"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", [
        ["spacing", "drive", "--spec", "{fib}", "-n", "5"],
        ["quantum", "--spec", "{fib}", "--seed", "1", "-N", "5"],
    ], ids=["drive", "quantum"])
    def test_non_finite_angle_is_a_usage_error(self, runner, fib_path, command, option, text):
        r = runner.invoke(main, [a.format(fib=fib_path) for a in command] + [f"{option}={text}"])
        assert_clean_error(r)
        assert r.exit_code == 2
        assert r.stderr == f"Error: invalid value for {option}: not a finite angle: {text!r}\n"


class TestDeterminism:
    def test_byte_identical_runs(self, runner, fib_path):
        for args in (
            ["spacing", "roots", "-n", "12", "--format", "csv"],
            ["subst", fib_path, "analyze"],
            ["spacing", "cusps", "--poly", "-1,-1,1", "-n", "8", "--format", "svg"],
        ):
            a = runner.invoke(main, args)
            b = runner.invoke(main, args)
            assert a.exit_code == 0 and a.output == b.output


# bad input ends in one closing `Error:` line, with exit code 2 for a
# malformed command line and 1 for input the library rejects; the codes are
# those of the click front end the argparse one replaced, and the calls
# include every malformed call of perfbench/workloads.py
MALFORMED = [
    (["spacing", "roots", "-n", "1"], 1),
    (["hiller", "0"], 1),
    (["entropy", "--word", "0101", "--n-max", "0"], 1),
    (["cantor", "represent", "--q", "3/2"], 1),
    (["cantor", "dim", "--alphabet-size", "1"], 1),
    (["subst", "{fib}", "iterate", "-k", "0"], 1),
    (["quantum", "--spec", "{fib}", "--seed", "1", "-N", "0", "--format", "json"], 1),
    (["cantor", "represent", "--q", "1/3", "--digits", "-1"], 1),
    (["spacing", "cusps", "--poly", "-1,-1,1", "-n", "3", "--precision-bits", "-1"], 1),
    (["subst", "{fib}", "fixpoint", "--letter", "7"], 1),
    (["subst", "{fib}", "iterate", "--letter", "", "-k", "3"], 1),
    (["entropy", "--word", "0121"], 1),
    (["cantor", "value", "--word", "9"], 1),
    (["pv", "--poly", "1,2"], 1),
    (["pv", "--poly", "1,x"], 2),
    (["hiller"], 2),
    (["spacing", "cusps", "-n", "5"], 2),
    (["spacing", "cusps", "--poly", "-1,0,1", "-n", "5"], 1),
    (["subst", "{missing}", "show"], 1),
    (["hiller", "--tab", "5"], 2),
    (["hiller", "--", "-3"], 1),
    (["hiller", "-5"], 2),
    (["cantor", "represent", "--q", "1/0"], 1),
    (["spacing", "drive", "--spec", "{fib}", "-n", "0"], 1),
    (["hiller", "--table", "0"], 1),
    (["hiller", "--table", "-1"], 1),
    (["hiller", "5", "--table", "3"], 2),
    (["hiller", "--table", "3", "--allowed", "2"], 2),
    (["hiller", "7", "--allowed", "1"], 2),
    (["hiller", "5", "--n-max", "6"], 2),
    (["hiller", "--table", "2", "--n-max", "6"], 2),
]


def assert_clean_error(r):
    assert isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (1, 2)
    lines = [line for line in r.stderr.splitlines() if line.strip()]
    assert lines and lines[-1].startswith("Error:")
    assert sum(line.startswith("Error:") for line in lines) == 1


@pytest.mark.parametrize("argv, code", MALFORMED, ids=[" ".join(argv) for argv, _ in MALFORMED])
def test_malformed_call_ends_in_one_error_line(runner, fib_path, tmp_path, argv, code):
    missing = str(tmp_path / "missing.json")
    r = runner.invoke(main, [a.format(fib=fib_path, missing=missing) for a in argv])
    assert_clean_error(r)
    assert r.exit_code == code


def test_alphabet_holds_at_most_256_symbols(runner):
    ok = runner.invoke(main, ["cantor", "dim", "--alphabet-size", "256"])
    assert ok.exit_code == 0 and ok.stdout == "0.999294179607\n"
    r = runner.invoke(main, ["cantor", "dim", "--alphabet-size", "300"])
    assert_clean_error(r)
    assert r.exit_code == 1
    assert r.stderr == "Error: alphabet holds at most 256 symbols\n"


BAD_SPECS = [
    ('{"0": "01", "1": "0"}', "missing key 'alphabet'"),
    ('{"alphabet": ["0", "1"]}', "missing key 'rules'"),
    ('[{"alphabet": ["0", "1"]}]', "spec must be a JSON object"),
    ('{"alphabet": 5, "rules": {"0": "01", "1": "0"}}', "'alphabet' must be a list of symbols"),
    ('{"alphabet": ["0", "1"], "rules": ["01", "0"]}', "'rules' must be a JSON object"),
    ('{"alphabet": ["0", "1"], "rules": {"0": 5, "1": "0"}}', "rule for '0' must be a string"),
    ('{"alphabet": ["0", "1"], "rules": {"0": "01", "1": null}}', "rule for '1' must be a string"),
    ('{"alphabet": ["0", "1", "2"], "rules": {"0": "01", "1": "2", "2": ["0", "1"]}}',
     "rule for '2' must be a string"),
]


@pytest.mark.parametrize("command", [["subst", "{spec}", "show"],
                                     ["spacing", "drive", "--spec", "{spec}"]],
                         ids=["subst", "drive"])
@pytest.mark.parametrize("spec, message", BAD_SPECS, ids=[m for _, m in BAD_SPECS])
def test_spec_errors_say_what_is_wrong(runner, tmp_path, command, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(spec)
    r = runner.invoke(main, [a.format(spec=path) for a in command])
    assert_clean_error(r)
    assert r.exit_code == 1
    assert r.stderr == f"Error: bad substitution spec {path}: {message}\n"


@pytest.fixture(scope="module")
def fib_spec(tmp_path_factory):
    p = tmp_path_factory.mktemp("spec") / "fibonacci.json"
    p.write_text(FIB_SPEC)
    return str(p)


SMALL_INT_CALLS = [
    ["hiller", "--", "{n}"],
    ["spacing", "roots", "-n", "{n}"],
    ["quantum", "--spec", "{fib}", "--seed", "1", "-N", "{n}", "--format", "json"],
    ["cantor", "dim", "--alphabet-size", "{n}"],
    ["cantor", "represent", "--q", "1/3", "--alphabet-size", "{n}"],
    ["cantor", "represent", "--q", "1/3", "--digits", "{n}"],
    ["entropy", "--word", "0100101001", "--n-max", "{n}"],
    ["spacing", "drive", "--spec", "{fib}", "-n", "{n}"],
    ["hiller", "--table", "{n}"],
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMALL_INT_CALLS), st.integers(-3, 12))
def test_small_integers_never_escape(fib_spec, argv, n):
    r = Runner().invoke(main, [a.format(fib=fib_spec, n=n) for a in argv])
    if r.exit_code == 0:
        assert r.exception is None
    else:
        assert_clean_error(r)


# stdout digests of the exact-interval outputs, taken before the integer
# bisection kernel replaced the Fraction one: its intervals must not move;
# and of long fixed points, iterates and complexity profiles, taken before
# words became bytes; and of root counts and PV layouts with roots on the
# circle or at 0, taken before one Moebius pass counted every root; and of
# calls with an option value that starts with `-`, taken before argparse
# replaced click; and of complexity profiles, primitive, non-primitive and
# on a prefix shorter than the certified factor window, and of a long
# quantum CSV, taken before entropy counted on that window and the
# quantum run stopped stepping at a float fixed point.  The golden cusps
# were taken again when cusp curves came to be certified to the printed
# digit: 24 of their tiny angles (k = 129, 135, 137, ..., 179) had printed
# wrong under an absolute width of 2^-128, and now match an mpmath oracle
PINNED = [
    (["spacing", "cusps", "--poly", "-1,-1,1", "-n", "180"],
     "b402e6655bc5a071ab083e61a74d961696c5ed031ece638dfa41199e0dabdb6b"),
    (["spacing", "cusps", "--poly", "-1,-1,0,1", "-n", "200"],
     "9b97ad42fbdf361ae1d813c830c0b9166aa310af48d85af95e9db6620d89bb02"),
    (["spacing", "cusps", "--poly", "-1,-1,-1,1", "-n", "160"],
     "71288caec8fe320e77657429543def1c8851fc1efd8063d40d24973089602a04"),
    (["pv", "--poly", "1,-1,2,0,-1,1,0,-2,1,-11,1"],
     "4ed77be84a460293146a11fcfe010568ba29d01c35f0d5c2306e40624d7fe831"),
    (["entropy", "--spec", "{fib}", "--prefix-len", "200000", "--n-max", "200"],
     "4e2437c4ed8a39a81d9e402b88e1e6f1145334ad533a9365f78aca7baec18f7b"),
    (["subst", "{ternary}", "fixpoint", "-L", "1000000"],
     "dfe8cc1bbcbc525ee73e623c4c416e0fa4648a5e1bc1d4a9b02994e2b89e1e37"),
    (["subst", "{thue_morse}", "iterate", "-k", "18"],
     "ca099fccc52805162d0b0d95772b3bfbda8573d883a9d30ef4a34f41ef59274a"),
    (["pv", "--poly", "1,1,1,1,1"],
     "d95a93256ce3fbd1992c0ce630dc331680b7e5f44856fcfa0ca5031881390da0"),
    (["pv", "--poly", "1,-4,1"],
     "02e5e95998b513c454a34d0b8ea10eb93263a7cb47f5e166b0c2b53c5973eee1"),
    (["pv", "--poly", "-1,0,1"],
     "327e5b4ef1d57a7b71ca8f6c7b72658496ca756bed410c4b79094b8be120aa3b"),
    (["pv", "--poly", "0,-1,-1,1"],
     "a64217d0cd6a8db5727099d864632fe77a637692794798079f3b60fe1d56a894"),
    (["subst", "{thue_morse}", "analyze"],
     "3a99f511255458f7060cecd7c86d6a1884de33fe0fd0a87f6f8b193ccb7d0259"),
    (["pv", "--poly", "-1,-1,0,1"],
     "e8b2d6c47764d83413d35716e6acde3902175b70ef7c5fb6714bde264b5e0901"),
    (["spacing", "cusps", "--poly", "-1,-1,1", "-n", "8"],
     "672c20dc5f0777580246e4e49440af06b7552d0eb8c6725267d160f95622bf78"),
    (["quantum", "--spec", "{fib}", "--seed", "1", "-N", "20", "--beta1", "-0.5"],
     "3ee89122e652fb328758601926d9274f6731767dbbbc1fe1cdeaf6177a7567c1"),
    (["entropy", "--spec", "{tribonacci}", "--prefix-len", "200000", "--n-max", "200"],
     "f0d0166c49b2eb665b0d858ed5c73e194c8ce6b86deb06c53bcbc395ad92f385"),
    (["entropy", "--spec", "{thue_morse}", "--prefix-len", "100000", "--n-max", "200"],
     "15cf16c743d5facb20e0f05d58225d839f38a08f406b5ea8458a655365323443"),
    (["entropy", "--spec", "{non_primitive}", "--prefix-len", "20000", "--n-max", "100"],
     "1051724aa9cf9bde00c03482dc15996b3009dcd851013a92409cd1ff2ba86234"),
    (["entropy", "--spec", "{fib}", "--prefix-len", "300", "--n-max", "200"],
     "ca31aae498ac96ea02920c9b25a7887b6442d218e8ffa6226f2c8c55fa55ace0"),
    (["quantum", "--spec", "{fib}", "--seed", "1", "-N", "100000", "--format", "csv"],
     "43952b20a5f5579766639fa8ab6ac7e735f025009628ed6a6e4a5ec29de7e4df"),
    (["spacing", "roots", "-n", "100000", "--format", "json"],
     "79adbb2dbed155630c1bdbceb80c676645fa84b30599d1d7d8a95ea55a8c404e"),
    (["spacing", "drive", "--spec", "{fib}", "-n", "100000", "--format", "csv"],
     "04f4758102bce36b5e9dd63f657b8554d22ac68c7a68f25c2729ccf6aa755c70"),
    (["spacing", "drive", "--spec", "{fib}", "-n", "100000", "--format", "json"],
     "5c37d97a9f2d8096b358346e7cab0696d126695c1b6d22d52ea67aa4943223b8"),
    (["quantum", "--spec", "{fib}", "--seed", "1", "-N", "100000", "--format", "json"],
     "4d86ef7c99a8b883bc6bb124c05d0befde7b08603447216b57a728c6bfec55f0"),
]

PINNED_SPECS = {
    "fib": FIB_SPEC,
    "ternary": '{"alphabet": ["0", "1", "2"], "rules": {"0": "0212", "1": "0", "2": "00"}}',
    "thue_morse": '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "10"}}',
    "tribonacci": '{"alphabet": ["0", "1", "2"], "rules": {"0": "01", "1": "02", "2": "0"}}',
    "non_primitive": '{"alphabet": ["0", "1"], "rules": {"0": "001", "1": "1"}}',
}


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    """PINNED_SPECS written to files: their paths by name."""
    directory = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, spec in PINNED_SPECS.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(spec)
    return paths


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_certified_output_bytes_are_pinned(runner, spec_paths, argv, digest):
    r = runner.invoke(main, [a.format(**spec_paths) for a in argv])
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == digest


def _env():
    """The environment of a child CLI process: this tree's package, and
    stdout buffered, as an installed script has it."""
    import pisotdyn

    env = dict(os.environ, PYTHONPATH=str(Path(pisotdyn.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_cli_start_up_does_not_import_numpy():
    # nor click, nor dataclasses and the inspect it imports; every module
    # perfbench/shim.py traces is loaded, as it reads them from sys.modules
    code = (
        "import sys, pisotdyn.cli\n"
        "for name in ('numpy', 'click', 'dataclasses', 'inspect'):\n"
        "    assert name not in sys.modules, name\n"
        "for mod in ('algebraic', 'substitution', 'words', 'geometry', 'quantum', 'crystal'):\n"
        "    assert 'pisotdyn.' + mod in sys.modules, mod\n"
        "assert abs(pisotdyn.cyclotomic_sum(8)) < 1e-12\n"
    )
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=60)


# the process entry: `python -m pisotdyn.cli` runs `run`, which ends the
# process with os._exit once stdout and stderr are flushed
ENTRY = [sys.executable, "-m", "pisotdyn.cli"]


def _entry(argv):
    return subprocess.run(ENTRY + argv, env=_env(), capture_output=True, timeout=60)


def test_hiller_of_a_63_bit_semiprime_ends_in_seconds():
    # 999999937 * 1000000007, which trial division took 39 s to split
    r = subprocess.run(ENTRY + ["hiller", "999999943999999559"], env=_env(),
                       capture_output=True, timeout=10)
    assert (r.returncode, r.stdout) == (0, b"1999999942\n")


@pytest.fixture
def columns(monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS fixes in and
    # out of process
    monkeypatch.setenv("COLUMNS", "80")


def test_module_help_exits_0(runner, columns):
    r = _entry(["--help"])
    assert r.returncode == 0 and r.stdout.startswith(b"usage: pisotdyn")
    assert r.stdout == runner.invoke(main, ["--help"]).stdout_bytes


# one call per subcommand: a short output waits in stdout's buffer until
# the flush, and the roots CSV (about 4 MB) and the Thue-Morse iterate
# (262,145 bytes) are the longest outputs of the benchmark's workloads
ENTRY_CALLS = [
    ["subst", "{thue_morse}", "iterate", "-k", "18"],
    ["entropy", "--spec", "{fib}", "--n-max", "30"],
    ["spacing", "roots", "-n", "100000", "--format", "csv"],
    ["pv", "--poly", "-1,-1,0,1"],
    ["hiller", "--table", "36"],
    ["cantor", "represent", "--q", "1/3"],
    ["quantum", "--spec", "{fib}", "--seed", "1", "-N", "100", "--format", "json"],
]


@pytest.mark.parametrize("argv", ENTRY_CALLS, ids=[" ".join(argv) for argv in ENTRY_CALLS])
def test_process_entry_prints_what_main_prints(runner, spec_paths, argv):
    argv = [a.format(**spec_paths) for a in argv]
    expected = runner.invoke(main, argv)
    r = _entry(argv)
    assert expected.exit_code == 0 and r.returncode == 0 and r.stderr == b""
    assert len(r.stdout) == len(expected.stdout_bytes)
    assert r.stdout == expected.stdout_bytes


@pytest.mark.parametrize("argv, code", [
    (["hiller"], 2),
    (["pv", "--poly", "1,x"], 2),
    (["hiller", "0"], 1),
    (["subst", "{missing}", "show"], 1),
], ids=["hiller", "pv 1,x", "hiller 0", "missing spec"])
def test_process_entry_errors_end_in_one_error_line(runner, tmp_path, columns, argv, code):
    argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
    expected = runner.invoke(main, argv)
    r = _entry(argv)
    assert (r.returncode, r.stdout, r.stderr) == (code, b"", expected.stderr.encode())
    lines = r.stderr.decode().splitlines()
    assert lines[-1].startswith("Error:")
    assert sum(line.startswith("Error:") for line in lines) == 1


def test_process_entry_writes_the_whole_out_file(runner, tmp_path):
    argv = ["spacing", "roots", "-n", "100000", "--format", "csv", "--out"]
    runner.invoke(main, argv + [str(tmp_path / "main.csv")])
    r = _entry(argv + [str(tmp_path / "entry.csv")])
    assert (r.returncode, r.stdout, r.stderr) == (0, b"", b"")
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def _with_stdout_closed(argv):
    # sh closes fd 1 before the exec, so the child's sys.stdout is None
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh"] + ENTRY + argv, env=_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("argv", [["hiller", "5"], ["spacing", "roots", "-n", "100000"]],
                         ids=["hiller", "roots"])
def test_closed_stdout_is_an_error_line(argv):
    r = _with_stdout_closed(argv)
    assert (r.returncode, r.stderr) == (1, b"Error: stdout is closed\n")


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["hiller"], 2), (["hiller", "0"], 1)],
                         ids=["help", "usage error", "library error"])
def test_closed_stdout_leaves_help_and_errors_as_they_are(runner, columns, argv, code):
    # with sys.stdout None, argparse writes the help to stderr
    r = _with_stdout_closed(argv)
    assert (r.returncode, r.stderr) == (code, runner.invoke(main, argv).output.encode())


def test_out_file_is_written_with_stdout_closed(tmp_path):
    r = _with_stdout_closed(["hiller", "5", "--out", str(tmp_path / "hiller.txt")])
    assert (r.returncode, r.stderr) == (0, b"")
    assert (tmp_path / "hiller.txt").read_text() == "4"


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code, stdout", [
    (["hiller"], 2, b""),
    (["hiller", "--tab", "3"], 2, b""),
    (["hiller", "0"], 1, b""),
    (["hiller", "5"], 0, b"4\n"),
], ids=["usage error", "argparse error", "library error", "output"])
def test_closed_stderr_keeps_the_exit_code(redirect, argv, code, stdout):
    # sh closes fd 2 before the exec, so the child's sys.stderr is None, or
    # opens it read-only, so that a write to it raises OSError; either way
    # the messages are lost, and none of them lands on stdout
    r = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh"] + ENTRY + argv, env=_env(),
                       stdout=subprocess.PIPE, timeout=60)
    assert (r.returncode, r.stdout) == (code, stdout)


def _head_5(argv):
    """Exit code and stderr of a call when its stdout pipe is closed after
    its first 5 bytes are read."""
    with subprocess.Popen(ENTRY + argv, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, bufsize=0) as p:
        first = b""
        while len(first) < 5:
            chunk = p.stdout.read(5 - len(first))
            if not chunk:
                break
            first += chunk
        p.stdout.close()
        err = p.stderr.read()
        assert len(first) == 5
        return p.wait(timeout=60), err


def _into_a_broken_pipe(argv):
    """Exit code and stderr of a call whose stdout is a pipe with no reader."""
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run(ENTRY + argv, env=_env(), stdout=write, stderr=subprocess.PIPE,
                           timeout=60)
    finally:
        os.close(write)
    return r.returncode, r.stderr


BROKEN_PIPE = (1, b"Error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", [["spacing", "roots", "-n", "100000"],
                                  ["subst", "{thue_morse}", "iterate", "-k", "18"]],
                         ids=["roots", "iterate"])
def test_pipe_closed_after_5_bytes_is_an_error_line(spec_paths, argv):
    assert _head_5([a.format(**spec_paths) for a in argv]) == BROKEN_PIPE


@pytest.mark.parametrize("argv", [["hiller", "5"], ["spacing", "roots", "-n", "100000"]],
                         ids=["short", "long"])
def test_output_into_a_broken_pipe_is_an_error_line(argv):
    # a short output fails at the flush, a long one at the write itself
    assert _into_a_broken_pipe(argv) == BROKEN_PIPE


def test_help_into_a_broken_pipe_exits_0():
    assert _into_a_broken_pipe(["--help"]) == (0, b"")


# sha256 of each `--help` at COLUMNS=80, taken before --out came to be
# declared once for every subcommand; argparse's layout is Python 3.11's
HELP = {
    "": "9b4e1113528e21e08f6583c5ffe6fead1536144deb0a76f98dab8e5b40ca4344",
    "subst": "1e08715fbc5ddb1567ee8a2f2fc38cb95f3ff23418aa8e3192a2a2af0becd387",
    "entropy": "adfc599756c1e458ec3168ca446f96720dfa3b41129f17faa4135bf3a8ef5612",
    "spacing": "8a47e43e48327aa5f0ca7ec2242faeac5a49a41ebf8d84e2a9b298ac1fc29543",
    "pv": "1b505203fc37e3b0c244ee6bfb5f79e891f6e389b00b7c0f676d71b113f1ba2d",
    "hiller": "d48c608e513cc2ce9b23dff51c4767101c1e42b0fa16f7998223fd7894d4953e",
    "cantor": "1b1c3c32ec65630472c1dd9227c916bf340ba9bc5f3bf24fa442b5cf3f0491b5",
    "quantum": "0be804a13e5716db9e24e4b0852ab0c2d3475c1d65c475b63b180eb8a4969ac9",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help by version")
@pytest.mark.parametrize("command", list(HELP), ids=[c or "top" for c in HELP])
def test_help_is_unchanged(runner, columns, command):
    r = runner.invoke(main, [command, "--help"] if command else ["--help"])
    assert r.exit_code == 0 and r.stderr == ""
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == HELP[command]


# ---------------------------------------------------------------------------
# inputs at the package's limits: a child that a regression sends to minutes
# or to gigabytes fails its test instead of exhausting the host

def _limited(argv, seconds, megabytes=512):
    """Run argv in a child under an address-space limit and a timeout."""
    cap = megabytes << 20
    return subprocess.run(argv, env=_env(), capture_output=True, timeout=seconds,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def test_analyze_with_large_constant_term(tmp_path):
    # letter i -> i^1000 (i+1) on 6 letters: p = (x - 1000)^6 - 1 has
    # p(0) = 10^18 - 1 and the rational roots 999 and 1001
    rules = {str(i): str(i) * 1000 + str((i + 1) % 6) for i in range(6)}
    path = tmp_path / "diag6.json"
    path.write_text(json.dumps({"alphabet": list("012345"), "rules": rules}))
    r = _limited(ENTRY + ["subst", str(path), "analyze"], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    report = json.loads(r.stdout)
    assert report["irreducible"] is False
    assert report["char_poly"] == [10**18 - 1, -6 * 10**15, 15 * 10**12, -2 * 10**10,
                                   15 * 10**6, -6000, 1]


CYCLE_CHAR_POLY = """
import json
from pisotdyn.algebraic import char_poly
from pisotdyn.substitution import Substitution, incidence_matrix
rules = {f"a{i}": f"a{i + 1}" for i in range(255)} | {"a255": "a0,a1"}
spec = json.dumps({"alphabet": list(rules), "rules": rules})
print(json.dumps(char_poly(incidence_matrix(Substitution.from_json(spec))).coefficients))
"""


def test_char_poly_of_the_256_letter_cycle():
    # letter i -> i+1, the last letter -> 01: x^256 - x - 1
    r = _limited([sys.executable, "-c", CYCLE_CHAR_POLY], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    assert json.loads(r.stdout) == [-1, -1] + [0] * 254 + [1]


def test_analyze_of_the_256_letter_cycle(tmp_path):
    # p = x^256 - x - 1 is no Pisot layout, so lambda is isolated by Sturm
    # counts; the frequencies are v_i = lambda^-((i - 1) mod 256) over their sum
    rules = {f"a{i}": f"a{i + 1}" for i in range(255)} | {"a255": "a0,a1"}
    path = tmp_path / "cycle256.json"
    path.write_text(json.dumps({"alphabet": list(rules), "rules": rules}))
    r = _limited(ENTRY + ["subst", str(path), "analyze"], seconds=20)
    assert (r.returncode, r.stderr) == (0, b"")
    report = json.loads(r.stdout)
    assert report["pisot_loose"] is False
    with mpmath.workdps(60):
        lam = mpmath.findroot(lambda x: x**256 - x - 1, mpmath.mpf("1.01"))
        v = [lam ** -((i - 1) % 256) for i in range(256)]
        total = sum(v)
        assert report["frequencies"] == [float(x / total) for x in v]


NONPOSITIVE_WIDTHS = """
from fractions import Fraction
from pisotdyn.algebraic import IntPolynomial, RealApprox, dominant_root_interval, refine_root
golden = IntPolynomial((-1, -1, 1))
iv = RealApprox(Fraction(3, 2), Fraction(2))
for call in (lambda: dominant_root_interval(golden, Fraction(0)),
             lambda: refine_root(golden, iv, Fraction(-1))):
    try:
        call()
    except ValueError as e:
        print(e)
"""


def test_nonpositive_width_is_refused():
    # bisecting to a width <= 0 never ends; it must raise instead
    r = _limited([sys.executable, "-c", NONPOSITIVE_WIDTHS], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    assert r.stdout.decode().splitlines() == ["bisection width must be > 0"] * 2


CANTOR_AT_SCALE = """
from fractions import Fraction
from pisotdyn.crystal import numeric_value, representation
from pisotdyn.words import Alphabet, Word
a7 = Alphabet(tuple("0123456"))
v = numeric_value(a7, Word(a7, bytes(i % 7 for i in range(1, 10**5 + 1))))
# the word ends in 5 and starts 123: its digits are v's base-7 digits
print(v.denominator == 7**10**5, v.numerator % 7 == 5, int(v * 7**3) == 1 * 49 + 2 * 7 + 3)
print(representation(a7, Fraction(1, 3), 10**6).letters == bytes([2]) * 10**6)
"""


def test_cantor_digits_at_scale():
    # v_A of a 10^5-letter word and 10^6 digits of 1/3 in base 7, which
    # took 34 s and 6 s while every digit was a Fraction step
    r = _limited([sys.executable, "-c", CANTOR_AT_SCALE], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    assert r.stdout.decode().splitlines() == ["True True True", "True"]


# sha256 of `pv --poly` on x^512 - x - 1 (root counts 171 / 0 / 341), taken
# while the Moebius map was a binomial triple loop and this call took a minute
PV_512_DIGEST = "d3e92ef9b781221edeb644de1ac322d181b6fdc1e8c210f40ba09a524bb52712"


def test_pv_of_degree_512():
    poly = ",".join(map(str, [-1, -1] + [0] * 510 + [1]))
    r = _limited(ENTRY + ["pv", "--poly", poly], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    assert json.loads(r.stdout)["root_counts"] == {"inside": 171, "on_circle": 0, "outside": 341}
    assert hashlib.sha256(r.stdout).hexdigest() == PV_512_DIGEST


def test_out_of_memory_is_an_error_line(fib_path):
    # sigma^100(0) has 5.7 * 10^20 letters
    r = _limited(ENTRY + ["subst", fib_path, "iterate", "-k", "100"], seconds=30)
    assert (r.returncode, r.stdout, r.stderr) == (1, b"", b"Error: out of memory\n")


@contextlib.contextmanager
def _any_int_length():
    """Lift Python's int-to-str digit limit, where there is one."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_long_cantor_words_print_exactly():
    # p/q past Python's 4,300-digit limit on printing an int, which ended
    # these calls in `Error: Exceeds the limit (4300 digits) ...`
    base7 = "".join(str(i * i % 7) for i in range(6000))
    no_ones = base7.replace("1", "4")  # the letter --excluded drops by default
    base10 = "".join(str(i * 7 % 10) for i in range(1, 10**5 + 1))
    with _any_int_length():
        cases = [
            (["value", "--alphabet-size", "7", "--word", base7],
             Fraction(int(base7, 7), 7**6000)),
            # the letters of B = A - {1} are 0, 2, ..., 6 read as 0, 1, ..., 5
            (["function", "--alphabet-size", "7", "--word", no_ones],
             Fraction(int(no_ones.translate(str.maketrans("023456", "012345")), 6) + 1, 6**6000)),
            (["value", "--alphabet-size", "10", "--word", base10],
             Fraction(int(base10), 10**10**5)),
        ]
        for argv, want in cases:
            r = _limited(ENTRY + ["cantor", *argv], seconds=10)
            assert (r.returncode, r.stderr) == (0, b"")
            assert r.stdout.decode() == f"{want.numerator}/{want.denominator}\n"


DIAGONALS_AT_SCALE = """
import math
from pisotdyn.geometry import diagonal_polygon
n = 100_001
ring, (r, _) = diagonal_polygon(n)
print(len(ring), max(abs(math.hypot(x, y) - r) for x, y in ring) < 1e-12)
print(diagonal_polygon(100_000) == ([(0.0, 0.0)], None))
"""


def test_diagonal_polygon_at_scale():
    # the ring of the 100,001-gon, out of reach of a scan over its 10^19
    # pairs of diagonals
    r = _limited([sys.executable, "-c", DIAGONALS_AT_SCALE], seconds=10)
    assert (r.returncode, r.stderr) == (0, b"")
    assert r.stdout.decode().splitlines() == ["100001 True", "True"]
