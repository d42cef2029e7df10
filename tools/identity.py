"""Byte identity of the CLI against another revision.

    python tools/identity.py --parent REV --seeds 1-10

Extracts REV with `git archive` into a temporary directory, so the
repository gains no worktree, builds the calls of every workload in
perfbench/workloads.py at each seed, and runs each call as
`python -m pisotdyn.cli` on this tree and on REV, with stdout buffered and
bytecode cached as an installed script has them.  Prints every call whose
exit code, stdout or stderr differs, with the keys whose values differ when
both stdouts are JSON objects, and exits 1 if any call differs.

It also prints, per workload, the wall time and the child CPU time of the
calls summed on REV and on this tree, and how many calls ran faster here.
The tree that runs first alternates from call to call, so neither gets the
warmer cache.  This is a coarse signal from one interleaved run of each
call, not a measurement; speed claims come from perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def child_cpu() -> float:
    """User plus system CPU seconds of every finished child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(tree: Path, argv, work: Path):
    """((exit code, stdout, stderr), (wall seconds, child CPU seconds)) of
    one CLI call on the sources of tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name in ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    cpu, start = child_cpu(), time.perf_counter()
    r = subprocess.run([sys.executable, "-m", "pisotdyn.cli", *argv], cwd=work, env=env,
                       capture_output=True)
    return (r.returncode, r.stdout, r.stderr), (time.perf_counter() - start, child_cpu() - cpu)


def changed_keys(want: bytes, got: bytes) -> list:
    """The keys whose values differ when both stdouts parse as JSON
    objects, else []."""
    try:
        a, b = json.loads(want), json.loads(got)
    except ValueError:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    missing = object()
    return sorted(k for k in a.keys() | b.keys() if a.get(k, missing) != b.get(k, missing))


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="A-B or one seed")
    args = ap.parse_args(argv)
    calls = mismatched = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for name in sorted(workloads.WORKLOADS):
            times = []  # ((wall, CPU) on REV, (wall, CPU) here) per call
            for seed in args.seeds:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                specs, pass_calls = workloads.build(name, seed)
                for stem, rules in specs.items():
                    spec = {"alphabet": sorted(rules), "rules": rules}
                    (work / f"{stem}.json").write_text(json.dumps(spec))
                for call in pass_calls:
                    order = (ROOT, parent) if calls % 2 else (parent, ROOT)  # alternate
                    results = {tree: run(tree, call.argv, work) for tree in order}
                    (want, want_t), (got, got_t) = results[parent], results[ROOT]
                    calls += 1
                    times.append((want_t, got_t))
                    if got != want:
                        mismatched += 1
                        fields = [f for f, a, b in zip(("exit code", "stdout", "stderr"), want, got)
                                  if a != b]
                        keys = changed_keys(want[1], got[1])
                        if keys:
                            fields[fields.index("stdout")] += f" (keys: {', '.join(keys)})"
                        print(f"{name} seed {seed}: {call.label}: {', '.join(fields)} differ "
                              f"(exit {want[0]} -> {got[0]})")
            (want_s, want_cpu), (got_s, got_cpu) = (map(sum, zip(*t)) for t in zip(*times))
            faster = sum(g[0] < w[0] for w, g in times)
            print(f"{name}: calls took {want_s:.2f} s wall, {want_cpu:.2f} s CPU on {args.parent} "
                  f"and {got_s:.2f} s wall, {got_cpu:.2f} s CPU here; "
                  f"{faster} of {len(times)} faster here (coarse: one run of each)")
    print(f"{calls} calls, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
