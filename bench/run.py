"""groundbem benchmark: time to a checked solution, per workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload bump_p104 --seed 1 --seconds 50 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``bump_p104``      bump, r0 = 2, re = 2.187, eps = 1e-4 -> p = 104,
                     N = 3691, direct solve, field on the half-disc grid
                     checked against the image solution;
* ``bump_wide_iter`` the same bump with re = 3 -> p = 23, N = 6306,
                     iterative (lgmres) solve, same oracle.

Each workload runs in its own process (``worker.py``) with one BLAS
thread (see ``BLAS_THREADS``).  Set-up is timed from process start to
the worker's ``READY`` line, in the measured worker and in a few
set-up-only workers started before it; ``setup_s`` is their median.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of one traced operation (plus the
source size of each module).  Lines before it, starting with ``#``,
record the environment and the raw samples.  The exit code is 0 whenever
a result is printed, also when a check failed (then ``correct`` is
false); without a groundbem source tree next to ``bench/`` the command
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "groundbem"
WORKLOADS = ("bump_p104", "bump_wide_iter")
MODULES = (
    "__init__", "bem", "cli", "errors", "experiments",
    "ground_kernel", "harmonics", "surface_mesh",
)
# Set-up-only workers started before the measured one.
SETUP_PROBES = 6
# On a shared 2-vCPU VM, operations alternating between one and two BLAS
# threads took 8.0 s and 7.8 s (median of 16, bump_wide_iter), but the
# quartile spread was 18 % of the median with one thread and 43 % with two:
# two threads wait on each other whenever the host slows either CPU.
BLAS_THREADS = 1
# Time allowed beyond --seconds for the set-up of every worker, the last
# operation's overrun and, traced, the traced operation.  A worker still
# running after that is killed and the run fails.
SLACK_S = 110.0


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _start_worker(args, env, deadline, setup_only=False):
    """Start a worker; return (process, seconds to READY)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    if line != "READY":
        _finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, deadline) -> str:
    """Wait for a worker (killing it past the deadline); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    return out


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _loc() -> dict:
    counts = {}
    for mod in MODULES:
        path = PACKAGE / f"{mod}.py"
        n = len(path.read_text().splitlines()) if path.is_file() else 0
        counts[f"{mod.strip('_')}.loc"] = n
    counts["src.loc"] = sum(
        len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py")
    )
    return counts


def _end_to_end(raw: dict, setup: list) -> dict:
    ok = raw["ok"]
    return {
        "time_to_solution_s": statistics.median(raw["op_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "eps2": statistics.median(raw["eps2"]),
        "success_rate": sum(ok) / len(ok),
    }


def _with_units(values: dict, declared: list) -> dict:
    """Attach the units declared in BENCHMARK.json; every declared metric
    must be measured and nothing else is reported."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        return _fail(f"no groundbem sources at {PACKAGE.relative_to(ROOT)}")

    env = _worker_env()
    deadline = time.monotonic() + args.seconds + SLACK_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = _start_worker(args, env, deadline, setup_only=True)
                _finish(proc, deadline)
                setup.append(ready)
        proc, ready = _start_worker(args, env, deadline)
        setup.append(ready)
        out = _finish(proc, deadline)
    except RuntimeError as exc:
        return _fail(str(exc))
    if proc.returncode != 0 or not out.strip():
        return _fail(f"worker exited with code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "python": platform.python_version(), **raw["env"],
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
    }
    print("# env " + json.dumps(record, sort_keys=True))
    print("# samples " + json.dumps({
        "op_s": raw["op_s"], "setup_s": setup, "eps2": raw["eps2"], "ok": raw["ok"],
        "warnings": raw["warnings"], "stolen_s": raw["stolen_s"],
    }))
    correct = all(raw["ok"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        correct = correct and raw["traced_identical"] and raw["self_times_add_up"]
        print(f"# spans written to {raw['trace_file']}")
        if not raw["traced_identical"]:
            print("# traced eps2 differs from untraced: the wrappers changed the program")
        metrics = _with_units({**raw["per_layer"], **_loc()}, declared["per_layer"])
    else:
        print(f"# time_to_solution_s: median of {len(raw['op_s'])} operations; a tail "
              f"percentile needs at least 10 samples beyond it, so none is reported")
        metrics = _with_units(_end_to_end(raw, setup), declared["end_to_end"])
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(raw["ok"]),
        "failed": sum(1 for ok in raw["ok"] if not ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
