"""ksfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ksfield checkout.  The workloads, their metrics and
their bounds are declared in BENCHMARK.json; perfbench/baseline.json
records each workload's known answers, which layer metric should move
which end-to-end metric, and the medians measured at the seed commit.

With ``--trace 0`` it measures the end-to-end metrics: the set-up probe
(``setup_s``: fresh interpreters that import ``ksfield.cli`` and load the
workload's model files, each scaled by a reference interpreter that imports
only numpy and yaml; median of ten) and a fresh worker process that runs
the workload's passes (``perfbench/harness.py``).  Times are speed-corrected
because on a shared host the same work takes from 1x to 2x as long, in
phases of tens of seconds.  With ``--trace 1`` the worker alternates
untraced and traced passes, reports the per-layer metrics and writes the
last traced pass's spans to ``.perfbench/<workload>/spans.npz``.  The last
line of stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
commands that raised, exited with the wrong code, gave an answer off its
known value, or wrote output bytes that differ from their first pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

REPO = Path(__file__).resolve().parent.parent
HARNESS = Path(__file__).resolve().parent / "harness.py"
SETUP_PROBES = 5      # before the worker, and as many again after it
DEADLINE_S = 170.0     # the whole run, probes included, ends well within 180 s
PROBE = (
    "import sys\n"
    "import ksfield.cli\n"
    "from ksfield.modelfile import load_model\n"
    "for path in sys.argv[1:]:\n"
    "    load_model(path)\n"
)
# A fresh interpreter importing only ksfield's dependencies: it slows with
# the host's load as the set-up probe does, and nothing in ksfield moves it.
SETUP_REFERENCE = (sys.executable, "-c", "import numpy, yaml")
SETUP_REFERENCE_S = 0.14   # its time on an uncontended core of the reference machine


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def timed_run(argv, env, limit_s: float = 60.0) -> float:
    """Wall time of a child process.  A blocking wait keeps the reading exact
    (a wait with a timeout polls in steps of up to 50 ms); a timer kills a
    child that hangs."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=REPO, stdout=subprocess.DEVNULL)
    killer = threading.Timer(limit_s, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def setup_sample(probe, env) -> float:
    """One set-up time, scaled by the reference probe run right after it."""
    seconds = timed_run(probe, env)
    return seconds * SETUP_REFERENCE_S / timed_run(SETUP_REFERENCE, env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ksfield benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (REPO / "src" / "ksfield" / "cli.py").is_file() or not (REPO / "models").is_dir():
        return fail(f"no ksfield sources under {REPO}; run from a checkout")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = REPO / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    workload = workloads.build(args.workload, args.seed, REPO, work / "models")

    # set-up probes: fresh interpreters that import the CLI and load the
    # workload's models, which every command pays before its work starts.
    # They straddle the worker, so they sample two stretches of the host's
    # load rather than one.
    probe = [sys.executable, "-c", PROBE, *workload.model_files]
    probes = []
    try:
        if not args.trace:
            setup_sample(probe, env)   # fills the bytecode and file caches
            probes = [setup_sample(probe, env) for _ in range(SETUP_PROBES)]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        worker = subprocess.run(
            [sys.executable, str(HARNESS), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work)],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=remaining,
        )
        sys.stderr.write(worker.stderr)
        if worker.returncode != 0 or not worker.stdout.strip():
            return fail(f"worker exited with {worker.returncode}")
        if probes:
            probes += [setup_sample(probe, env) for _ in range(SETUP_PROBES)]
    except subprocess.SubprocessError as exc:
        return fail(f"child process failed: {exc}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = dict(result["metrics"])
    if probes:
        metrics["setup_s"] = statistics.median(probes)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["consistent"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
