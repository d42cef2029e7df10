"""Seeded, closed-loop benchmark of the pisotdyn command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

One client runs one `python -m pisotdyn.cli ...` child at a time, with
PYTHONPATH at this tree's src/.  A pass is one seeded workload from
workloads.py.  The run sets up five times (inputs, spec files, one
untimed warm-up call) and reports the median set-up time, then repeats
passes for --seconds and checks every call's output against oracles.py.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1
runs the calls through shim.py, which records spans around each layer's
public functions, and reports the per-layer metrics; it runs untraced
passes as well, for the tracing overhead.

A human-readable report goes to stderr.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  `failed`
counts calls that exited non-zero on valid input, printed a traceback,
disagreed with their oracle, or printed other bytes than in the first
pass; `attempted` counts the calls of one pass, so both depend on the
seed alone, not on how many passes fit in --seconds.  `correct` is false
when the run cannot be trusted: a call's output changed between passes,
or the trace failed its self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles
import workloads

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().parent / "shim.py"
WORK = ROOT / ".perfbench_work"
SET_UPS = 5
# a call still running this long after the run started is killed and the
# run ends without a result
DEADLINE_S = 160
# start-up, the spans and exit must cover a traced pass's wall time to 10%
ACCOUNTED_TOLERANCE = 0.10

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("call_p50_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
# (metric, what to read: self "time", span "calls" or span "count", span name, unit)
PER_LAYER = (
    ("cli.startup_s", "time", "cli.startup", "s"),
    ("cli.import_s", "time", "cli.import", "s"),
    ("cli.import.numpy_s", "time", "cli.import.numpy", "s"),
    ("cli.command.self_s", "time", "cli.command", "s"),
    ("cli.exit_s", "time", "cli.exit", "s"),
    ("cli.stdout_bytes", "count", "cli.stdout", "bytes"),
    ("words.prefix_s", "time", "words.prefix", "s"),
    ("words.prefix.letters", "count", "words.prefix", "count"),
    ("words.complexity_profile_s", "time", "words.complexity_profile", "s"),
    ("words.complexity_profile.letters", "count", "words.complexity_profile", "count"),
    ("substitution.iterate_s", "time", "substitution.iterate", "s"),
    ("substitution.iterate.letters", "count", "substitution.iterate", "count"),
    ("substitution.classify_pisot.self_s", "time", "substitution.classify_pisot", "s"),
    ("substitution.classify_pisot.calls", "calls", "substitution.classify_pisot", "count"),
    ("algebraic.pv_verdict.self_s", "time", "algebraic.pv_verdict", "s"),
    ("algebraic.schur_cohn_s", "time", "algebraic.schur_cohn", "s"),
    ("algebraic.schur_cohn.calls", "calls", "algebraic.schur_cohn", "count"),
    ("algebraic.irreducible_over_q_s", "time", "algebraic.irreducible_over_q", "s"),
    ("algebraic.irreducible_over_q.calls", "calls", "algebraic.irreducible_over_q", "count"),
    ("algebraic.dominant_root_interval_s", "time", "algebraic.dominant_root_interval", "s"),
    ("algebraic.dominant_root_interval.calls", "calls", "algebraic.dominant_root_interval", "count"),
    ("algebraic.refine_root_s", "time", "algebraic.refine_root", "s"),
    ("algebraic.refine_root.calls", "calls", "algebraic.refine_root", "count"),
    ("algebraic.sturm_count_s", "time", "algebraic.sturm_count", "s"),
    ("algebraic.sturm_count.calls", "calls", "algebraic.sturm_count", "count"),
    ("algebraic.char_poly_s", "time", "algebraic.char_poly", "s"),
    ("algebraic.is_primitive_s", "time", "algebraic.is_primitive", "s"),
    ("geometry.cusp_curve.self_s", "time", "geometry.cusp_curve", "s"),
    ("geometry.substitution_spacing.self_s", "time", "geometry.substitution_spacing", "s"),
    ("geometry.gap_statistics_s", "time", "geometry.gap_statistics", "s"),
    ("geometry.format_s", "time", "geometry.format", "s"),
    ("geometry.angles", "count", "geometry.angles", "count"),
    ("quantum.quantum_spacing_simulate.self_s", "time", "quantum.quantum_spacing_simulate", "s"),
    ("quantum.steps", "count", "quantum.quantum_spacing_simulate", "count"),
    ("crystal.hiller_s", "time", "crystal.hiller", "s"),
    ("crystal.hiller.calls", "calls", "crystal.hiller", "count"),
    ("crystal.allowed_orders.self_s", "time", "crystal.allowed_orders", "s"),
    ("crystal.representation_s", "time", "crystal.representation", "s"),
)
# spans whose counts add up to geometry.angles
ANGLE_SPANS = ("geometry.cusp_curve", "geometry.substitution_spacing", "geometry.roots_of_unity")
TARGET_LAYERS = {
    "certify": ("algebraic", "geometry.cusp_curve"),
    "streams": ("words", "substitution"),
    "interactive": ("cli.import",),
}


@dataclass
class Result:
    start: float
    latency: float
    cpu: float
    rss_mb: float
    rc: int
    digest: str
    stdout_bytes: int
    out: bytes
    err: str
    spans: list
    numpy_s: float


def spawn(argv, env, work: Path, traced: bool) -> Result:
    """Run one child with stdout and stderr sent to files; time it from
    just before the spawn to the reaping of the process."""
    out_path, err_path, spans_path = work / "call.out", work / "call.err", work / "call.spans"
    if traced:
        argv = ["-X", "importtime", str(SHIM), str(spans_path), "--"] + argv
    else:
        argv = ["-m", "pisotdyn.cli"] + argv
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)
    _, status, usage = reap(pid, STARTED + DEADLINE_S - start)
    latency = time.perf_counter() - start
    if start + latency - STARTED >= DEADLINE_S:
        raise SystemExit(f"perfbench: past the {DEADLINE_S} s deadline at: {' '.join(argv)}")
    out = out_path.read_bytes()
    err = err_path.read_text(errors="replace")
    rc = os.waitstatus_to_exitcode(status)
    spans, numpy_s = [], 0.0
    if traced:
        err, numpy_s = _split_importtime(err)
        if spans_path.exists():
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
            spans_path.unlink()
    digest = hashlib.sha256(rc.to_bytes(4, "little", signed=True) + out).hexdigest()
    cpu = usage.ru_utime + usage.ru_stime
    return Result(start, latency, cpu, usage.ru_maxrss / 1024, rc, digest, len(out), out, err, spans, numpy_s)


def reap(pid: int, timeout: float):
    """wait4 on pid, killing it first if it outlives timeout seconds."""
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], max(timeout, 0))[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(fd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    return os.wait4(pid, 0)


def _split_importtime(err: str):
    """Drop `-X importtime` lines from stderr; return the rest and numpy's
    cumulative import time in seconds."""
    kept, numpy_s = [], 0.0
    for line in err.splitlines(keepends=True):
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_s = int(fields[1]) / 1e6
        else:
            kept.append(line)
    return "".join(kept), numpy_s


# ---------------------------------------------------------------------------
# set-up, passes, checks

def set_up(name: str, seed: int, work: Path, env):
    """Seeded inputs, spec files and one untimed warm-up call that compiles
    bytecode; returns the calls of one pass."""
    specs, calls = workloads.build(name, seed)
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for stem, rules in specs.items():
        (work / f"{stem}.json").write_text(json.dumps({"alphabet": sorted(rules), "rules": rules}))
    os.chdir(work)
    warm = spawn(["--help"], env, work, traced=False)
    if warm.rc != 0:
        raise SystemExit(f"perfbench: warm-up call failed with exit code {warm.rc}:\n{warm.err}")
    return calls


def run_passes(calls, env, work: Path, trace: bool, seconds: float):
    """Whole passes until the next one would end after `seconds`.  With
    tracing the order is untraced, traced, traced, then alternating."""
    order = [False, True, True] if trace else [False]
    passes = []
    begin = time.perf_counter()
    while True:
        traced = order[len(passes)] if len(passes) < len(order) else trace and not passes[-1][0]
        t0 = time.perf_counter()
        passes.append((traced, [spawn(c.argv, env, work, traced) for c in calls]))
        # keep the outputs of the first pass only; later passes are compared by digest
        if len(passes) > 1:
            for r in passes[-1][1]:
                r.out = b""
        elapsed = time.perf_counter() - begin
        if len(passes) >= len(order) and elapsed + (time.perf_counter() - t0) > seconds:
            return passes


def check_calls(calls, passes):
    """Check each call's first output against its oracle and every later
    output against the first.  A call counts once however many passes
    fit in the run, so attempted and failed depend on the seed alone.
    Returns (attempted, failed, {call label: reason}, labels of calls
    whose output changed)."""
    first = passes[0][1]
    reasons = {}
    for call, r in zip(calls, first):
        try:
            call.check(r.rc, r.out, r.err)
        except Exception as e:  # unparseable output fails the call, like a wrong answer
            reasons[call.label] = str(e) if isinstance(e, oracles.Mismatch) else f"{type(e).__name__}: {e}"
    changed = set()
    for _, results in passes[1:]:
        for call, r, r0 in zip(calls, results, first):
            if r.digest != r0.digest:
                changed.add(call.label)
    for label in changed:
        reasons.setdefault(label, "output differs from the first pass")
    failed = sum(call.label in reasons for call in calls)
    return len(calls), failed, reasons, sorted(changed)


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes, set_ups):
    """wall_s and cpu_s add up each call's median over the passes."""
    plain = [results for traced, results in passes if not traced]
    latencies = [r.latency for results in plain for r in results]
    per_call = list(zip(*plain))
    return {
        "wall_s": sum(statistics.median(r.latency for r in rs) for rs in per_call),
        "cpu_s": sum(statistics.median(r.cpu for r in rs) for rs in per_call),
        "call_p50_s": statistics.median(latencies),
        "peak_rss_mb": max(r.rss_mb for results in plain for r in results),
        "setup_s": statistics.median(set_ups),
    }, {"wall_s": len(plain), "cpu_s": len(plain), "call_p50_s": len(latencies),
        "peak_rss_mb": len(latencies), "setup_s": len(set_ups)}


def layer_totals(results) -> dict:
    """Self time ("time"), span count ("calls") and work count ("count") per
    span name over one traced pass.  A span's self time is its duration
    minus its child spans'.  Start-up runs from the spawn to the first span,
    exit from the last span to the reaping of the child."""
    totals = {"time": defaultdict(float), "calls": Counter(), "count": Counter()}
    time_s, counts = totals["time"], totals["count"]
    for r in results:
        time_s["cli.import.numpy"] += r.numpy_s
        counts["cli.stdout"] += r.stdout_bytes
        if not r.spans:
            continue
        child = defaultdict(float)
        for s in r.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        time_s["cli.startup"] += min(s["start"] for s in r.spans) - r.start
        time_s["cli.exit"] += r.start + r.latency - max(s["end"] for s in r.spans)
        for s in r.spans:
            time_s[s["name"]] += s["end"] - s["start"] - child[s["id"]]
            totals["calls"][s["name"]] += 1
            counts[s["name"]] += s["count"]
    counts["geometry.angles"] = sum(counts[n] for n in ANGLE_SPANS)
    return totals


def per_layer(passes):
    """Per-layer metrics (medians over the traced passes), the self-check
    problems, and the first traced pass's totals and wall time."""
    traced = [results for is_traced, results in passes if is_traced]
    plain = [results for is_traced, results in passes if not is_traced]
    totals = [layer_totals(results) for results in traced]
    walls = [sum(r.latency for r in results) for results in traced]
    metrics = {name: statistics.median(t[kind][span] for t in totals) for name, kind, span, _ in PER_LAYER}
    plain_wall = statistics.median(sum(r.latency for r in results) for results in plain)
    metrics["trace.overhead_frac"] = statistics.median(walls) / plain_wall - 1
    # cli.import.numpy is part of cli.import
    accounted = [sum(t["time"].values()) - t["time"]["cli.import.numpy"] for t in totals]
    shares = [a / w for a, w in zip(accounted, walls)]
    metrics["trace.accounted_frac"] = statistics.median(shares)

    problems = []
    if any(t["calls"] != totals[0]["calls"] or t["count"] != totals[0]["count"] for t in totals):
        problems.append("span and work counts differ between traced passes")
    problems += [f"start-up, spans and exit account for {share:.1%} of a traced pass"
                 for share in shares if abs(share - 1) > ACCOUNTED_TOLERANCE]
    return metrics, problems, totals[0]["time"], walls[0]


def layer_shares(time_s, wall, targets):
    """Self-time share of the traced wall time per layer: the module a span
    belongs to, or the target span or module it falls under.  Start-up,
    import and the CLI command's own time are layers of their own."""
    shares = defaultdict(float)
    for name, t in time_s.items():
        if name == "cli.import.numpy":
            continue  # part of cli.import
        layer = next((p for p in targets if name == p or name.startswith(p + ".")), None)
        if layer is None:
            layer = name if name.startswith("cli.") else name.split(".")[0]
        shares[layer] += t / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------

def log(text: str):
    print(text, file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pisotdyn" / "cli.py").is_file():
        print(f"perfbench: no pisotdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # numpy's BLAS threads would spin at import and make CPU time depend on
    # what else the machine runs; the CLI does no BLAS work
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # calls run as from an installed package: bytecode cached after the
    # warm-up call, stdout buffered
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        set_ups = []
        for _ in range(SET_UPS):
            t0 = time.perf_counter()
            calls = set_up(args.workload, args.seed, work, env)
            set_ups.append(time.perf_counter() - t0)
        passes = run_passes(calls, env, work, bool(args.trace), args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed, reasons, changed = check_calls(calls, passes)
    log(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes of {len(calls)} calls"
        f" ({sum(traced for traced, _ in passes)} traced)")
    problems = [f"output changed between passes: {label}" for label in changed]
    if args.trace:
        metrics, trace_problems, time_s, wall = per_layer(passes)
        problems += trace_problems
        targets = TARGET_LAYERS[args.workload]
        shares = layer_shares(time_s, wall, targets)
        units = {name: unit for name, _, _, unit in PER_LAYER}
        units.update({"trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio"})
        for name, value in metrics.items():
            log(f"  {name:42s} {value:14.6f} {units[name]}")
        log("  self-time share of the traced wall time, by layer:")
        for layer, share in shares.items():
            log(f"    {layer:28s} {share:7.1%}")
        others = [v for k, v in shares.items() if k not in targets and k not in ("cli.startup", "cli.import")]
        log(f"  target layer {'+'.join(targets)}: {sum(shares.get(k, 0.0) for k in targets):.1%} of the traced"
            f" wall time; largest other layer after start-up: {max(others, default=0.0):.1%}")
        unit_of = units
    else:
        metrics, samples = end_to_end(passes, set_ups)
        unit_of = dict(END_TO_END)
        for name, value in metrics.items():
            log(f"  {name:12s} {value:12.6f} {unit_of[name]:3s} (n={samples[name]})")
        log(f"  {'failed_frac':12s} {failed / attempted:12.6f}     ({failed} of {attempted} calls)")
    for label, reason in sorted(reasons.items()):
        log(f"  FAIL {label[:100]}: {reason}")
    for problem in problems:
        log(f"  NOT CORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
