"""Runs one workload in this process: a warm-up pass, then measured passes.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

``perfbench/run.py`` starts it in a fresh interpreter with ``src`` on
PYTHONPATH and BLAS threads set to 1.  A pass calls ``ksfield.cli.main``
once per command of the workload, one after another in this thread, each
with ``--out`` pointing to a fresh directory.  The reference loop
(``reference.py``) runs before the first command and after each one; a
command's time is scaled by the reference's nominal time over the mean of
the two loop times around it.  After the pass every command's output is
checked against its known answer and against the bytes the same command
wrote in the first pass.  The last line of stdout is one JSON object with
the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import workloads
from tracer import EXACT_COUNTS, Tracer, layer_metrics

REPO = Path(__file__).resolve().parent.parent


@dataclass
class PassResult:
    wall: float              # seconds spent inside the workload's commands
    norm_wall: float         # the same, each command scaled to the reference machine speed
    work: int                # sampled points or grid nodes (the workload's unit)
    attempted: int
    failures: list = field(default_factory=list)   # "command: problem", one per failed command
    digests: dict = field(default_factory=dict)    # command key -> sha256 of its output files


class Runner:
    def __init__(self, workload: workloads.Workload, work_dir: Path):
        from ksfield.cli import main

        self.main = main
        self.workload = workload
        self.work_dir = work_dir
        self.digests: dict = {}
        self.count = 0

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        pass_dir = self.work_dir / f"pass-{self.count}"
        self.count += 1
        outs = [pass_dir / str(i) for i in range(len(self.workload.commands))]
        for out in outs:
            out.mkdir(parents=True)
        outcomes, seconds, loops = [], [], [reference.loop_seconds()]
        for cmd, out in zip(self.workload.commands, outs):
            start = time.perf_counter()
            outcomes.append(self._invoke(cmd, out, tracer))
            seconds.append(time.perf_counter() - start)
            loops.append(reference.loop_seconds())
        norm_wall = sum(
            t * reference.NOMINAL_S / ((before + after) / 2)
            for t, before, after in zip(seconds, loops, loops[1:])
        )

        result = PassResult(sum(seconds), norm_wall, 0, len(outcomes))
        for cmd, out, outcome in zip(self.workload.commands, outs, outcomes):
            problems, work = self._check(cmd, out, outcome, result.digests)
            result.work += work
            if problems:
                result.failures.append(f"{cmd.key}: " + "; ".join(problems))
        shutil.rmtree(pass_dir)
        return result

    def _invoke(self, cmd, out: Path, tracer):
        argv = list(cmd.argv) + ["--out", str(out)]
        sink = io.StringIO()   # progress lines; reports are read from --out
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    return self.main(argv), None
                return tracer.call("cli.main", self.main, argv), None
            except SystemExit as exc:
                return exc.code, None
            except Exception:   # a traceback out of main is a failed command, not a failed run
                return None, traceback.format_exc(limit=-2).strip().replace("\n", " | ")

    def _check(self, cmd, out: Path, outcome, digests: dict):
        code, error = outcome
        if error is not None:
            return [f"raised {error}"], 0
        problems = []
        if code != cmd.exit_code:
            problems.append(f"exit code {code}, expected {cmd.exit_code}")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        digest = hashlib.sha256()
        for name, data in files.items():
            digest.update(name.encode() + b"\0" + data + b"\0")
        digests[cmd.key] = digest.hexdigest()
        if self.digests.setdefault(cmd.key, digests[cmd.key]) != digests[cmd.key]:
            problems.append("output bytes differ from the first pass")
        work = 0
        try:
            report = workloads.report_json(files)
            problems += cmd.check(report, files)
            work = cmd.work(report)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        return problems, work


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((REPO / "src").rglob("*.py")))


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced passes until ``seconds`` have gone by (at least three)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 3 or time.perf_counter() < deadline:
        passes.append(runner.run_pass())
    metrics = {
        "norm_wall_s": statistics.median(p.norm_wall for p in passes),
        "work_per_s": statistics.median(p.work / p.norm_wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics, []


def _speed_corrected(metrics: dict, result: PassResult) -> dict:
    """Scale a traced pass's times as its commands were scaled."""
    factor = result.norm_wall / result.wall
    return {
        key: value * factor if key.endswith(("_s", "_us", "_ns")) else value
        for key, value in metrics.items()
    }


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced passes until ``seconds`` have gone by,
    then one more traced pass that also counts expression nodes."""
    untraced, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    tracer = None
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass())
        tracer = Tracer()
        with tracer:
            traced.append(runner.run_pass(tracer))
        per_pass.append(_speed_corrected(layer_metrics(tracer), traced[-1]))
    tracer.save(spans_path)
    counting = Tracer(count_nodes=True)
    with counting:
        traced.append(runner.run_pass(counting))
    per_pass.append(layer_metrics(counting))

    problems = [
        f"trace count {key} differs between traced passes: {[m[key] for m in per_pass]}"
        for key in EXACT_COUNTS
        if len({m[key] for m in per_pass}) != 1
    ]
    timed = per_pass[:-1]
    metrics = {key: statistics.median(m[key] for m in timed) for key in timed[0]}
    metrics["expr.nodes_max"] = counting.counters["expr.nodes_max"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.norm_wall for p in traced[:-1])
        / statistics.median(p.norm_wall for p in untraced)
    )
    metrics["code.src_lines"] = _src_lines()
    return untraced + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, REPO, args.work / "models")
    runner = Runner(workload, args.work)
    warmup = runner.run_pass()
    if args.trace:
        passes, metrics, problems = measure_traced(runner, args.seconds, args.work / "spans.npz")
    else:
        passes, metrics, problems = measure(runner, args.seconds)
    passes.insert(0, warmup)
    failures = [f for p in passes for f in p.failures]
    for line in (problems + failures)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "consistent": not problems,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
