"""Benchmark of measure-lab through its command line.

    python3 bench/run.py --workload deep --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 32

A run sets the workload up, then repeats whole rounds of its operations in
this one process for about ``--seconds`` seconds, checking every output
after each round.  Every operation is timed in seconds and against the
reference loop run next to it (``calibrate``); a time sums its operations'
median times over the rounds (see ``op_times``).  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and prints the per-layer metrics, medians over the
traced rounds, with the traced and untraced round times.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.
``--all`` runs every workload, untraced and traced, each in its own
process, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# One thread: the workloads are single-process, single-thread measurements,
# and a BLAS pool would race other work for the two cores.  Set before
# numpy is first imported, and inherited by the set-up interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import prepare
import tracing
import workloads
from workloads import Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(workloads.BUILDERS)
SETUP_SAMPLES = 9
# Seconds the reference loop takes at this benchmark's reference speed:
# its fastest time on the 2-core host the benchmark was built on.  It only
# turns set-up times measured in reference loops back into seconds.
REFERENCE_LOOP_S = 1.5e-3
# The metrics the JSON line reports: BENCHMARK.json's end_to_end list with
# --trace 0 and its per_layer list with --trace 1.  Every figure of a run
# is printed on the lines before it.
LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Round:
    wall: float
    duration: float
    op_times: list[float]
    # reference-loop times: before each operation and after the last
    calibrations: list[float]
    failures: list[tuple[str, str]]
    wrong: list[tuple[str, str]]
    layers: dict[str, float] | None = field(default=None)


def _reference_work() -> int:
    """Fixed pure-Python work: big-integer arithmetic, a dict and calls,
    the kind of work mpmath's Python backend and the package's loops do."""
    acc = 0
    table: dict[int, int] = {}
    x = 3 ** 200
    for i in range(2000):
        x = (x * 7919 + i) % (1 << 521)
        table[i % 97] = table.get(i % 97, 0) + (x & 0xFFFF)
        acc += sum(divmod(x, i + 3))
    return acc + len(table)


def calibrate() -> float:
    """Seconds the reference loop takes now: the fastest of three, about
    2 ms each.

    The speed of a shared host drifts by up to 2x within minutes, and
    moves an operation's time and the loop's alike; an operation's time
    over the loop's time, taken next to it, is a cost that two commits can
    be compared on.  On a shared 2-core host, over ten seeds per workload,
    the summed ratios spread 4-7% of their median where the same
    operations' seconds spread 10-20%.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def call(cli, op: workloads.Op) -> tuple[float, dict | None, str | None]:
    """Run one operation: (seconds, report, error)."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a failed run
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit code {code}"
    try:
        text = captured.getvalue() if op.report_on_stdout else op.out.read_text()
        return elapsed, json.loads(text), None
    except (OSError, ValueError) as exc:
        return elapsed, None, f"missing or unparsable report: {exc}"


def run_round(cli, workload: workloads.Workload) -> Round:
    for path in workload.written:
        path.unlink(missing_ok=True)
    outputs = workloads.Outputs()
    op_times = []
    calibrations = []
    failures = []
    start = time.perf_counter()
    for op in workload.ops:
        calibrations.append(calibrate())
        elapsed, report, error = call(cli, op)
        op_times.append(elapsed)
        if error is not None:
            failures.append((op.key, error))
            continue
        outputs.reports[op.key] = report
        if op.csv is not None:
            outputs.csv[op.key] = op.csv
    calibrations.append(calibrate())
    wall = time.perf_counter() - start - sum(calibrations)
    wrong = []
    for op in workload.ops:
        if op.key not in outputs.reports:
            continue
        try:
            op.check(outputs, outputs.reports[op.key])
        except Mismatch as exc:
            wrong.append((op.key, str(exc)))
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            wrong.append((op.key, f"malformed output: {exc!r}"))
    return Round(wall, time.perf_counter() - start, op_times, calibrations, failures, wrong)


def measure(cli, workload: workloads.Workload, seconds: float, trace: bool) -> list[Round]:
    """Whole rounds until the end nearest to ``seconds``; a traced run
    alternates untraced and traced rounds, starting untraced."""
    tracer = tracing.Tracer()
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            r = run_round(cli, workload)
        finally:
            tracer.uninstall()
        if traced:
            r.layers = tracer.snapshot()
        rounds.append(r)
        longest = max(x.duration for x in rounds)
        enough = len(rounds) >= (3 if trace else 1)
        if enough and time.perf_counter() - start + longest / 2 > seconds:
            return rounds


def sample_setup(workload: str, work: Path) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, import plus input documents:
    (seconds, seconds at the reference speed).  The second is the first
    over the reference-loop time around it, times REFERENCE_LOOP_S, so the
    machine's drift cancels as it does for ``wall_ref``."""
    samples = []
    for k in range(SETUP_SAMPLES):
        directory = work / f"setup-{k}"
        before = calibrate()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "prepare.py"), workload, str(directory)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        after = calibrate()
        seconds = float(proc.stdout.split()[-1])
        samples.append((seconds, 2 * seconds / (before + after) * REFERENCE_LOOP_S))
        shutil.rmtree(directory)
    return samples


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "ratio" if name.endswith("_per_frac") else "count"


def metric_name(command: str, suffix: str) -> str:
    return command.replace("-", "_") + suffix


def op_times(workload: workloads.Workload, rounds: list[Round], relative: bool) -> Counter:
    """Per subcommand, the sum over its operations of each operation's
    median time over these rounds; "wall" sums all operations.

    A relative time is in reference loops: the operation's seconds over
    the mean of the reference-loop times just before and just after it.
    """
    def time_of(r: Round, i: int) -> float:
        if relative:
            return 2 * r.op_times[i] / (r.calibrations[i] + r.calibrations[i + 1])
        return r.op_times[i]

    totals: Counter = Counter()
    for i, op in enumerate(workload.ops):
        median = statistics.median(time_of(r, i) for r in rounds)
        totals[op.command] += median
        totals["wall"] += median
    return totals


def end_to_end(workload: workloads.Workload, rounds: list[Round], setup: list[tuple[float, float]]) -> dict:
    """Every end-to-end figure of the run."""
    seconds = op_times(workload, rounds, relative=False)
    relative = op_times(workload, rounds, relative=True)
    figures = {
        "setup_s": statistics.median(at_reference for _, at_reference in setup),
        "setup_wall_s": statistics.median(plain for plain, _ in setup),
        "wall_ref": relative.pop("wall"),
        "wall_s": seconds.pop("wall"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for command in sorted(seconds):
        figures[metric_name(command, "_s")] = seconds[command]
        figures[metric_name(command, "_ref")] = relative[command]
    return figures


def per_layer(workload: workloads.Workload, rounds: list[Round]) -> dict:
    """Every per-layer figure of the run: medians over the traced rounds."""
    traced = [r for r in rounds if r.layers is not None]
    # the first round fills the package's caches; the traced ones follow it
    plain = [r for r in rounds[1:] if r.layers is None]
    figures = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    algebraic = sys.modules["measure_lab.algebraic"]
    # misses over the whole process: later rounds find every root cached
    figures["algebraic.root_disks.misses"] = algebraic._root_disks.cache_info().misses
    figures["trace.wall_ref"] = op_times(workload, traced, relative=True)["wall"]
    figures["trace.untraced_wall_ref"] = op_times(workload, plain, relative=True)["wall"]
    figures["trace.overhead_pct"] = 100 * (figures["trace.wall_ref"] / figures["trace.untraced_wall_ref"] - 1)
    return figures


def run_workload(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    inputs, outputs = work / "inputs", work / "outputs"
    try:
        cli = prepare.import_package()
        prepare.write_inputs(args.workload, inputs)
        outputs.mkdir(parents=True)
        setup = sample_setup(args.workload, work)
        workload = workloads.build(args.workload, args.seed, inputs, outputs)
        workload.warm_oracles()
        rounds = measure(cli, workload, args.seconds, bool(args.trace))
        if args.trace:
            figures, listed = per_layer(workload, rounds), LISTED["per_layer"]
        else:
            figures, listed = end_to_end(workload, rounds, setup), LISTED["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = len(workload.ops) * len(rounds)
    failures = [f for r in rounds for f in r.failures]
    wrong = [w for r in rounds for w in r.wrong]
    for key, message in sorted(set(failures + wrong))[:20]:
        print(f"{args.workload}: {key}: {message}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} operations, {len(failures) + len(wrong)} failed")
    print("# round seconds: " + " ".join(f"{r.wall:.3f}" + ("t" if r.layers else "") for r in rounds))
    for name, value in figures.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures) + len(wrong),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
