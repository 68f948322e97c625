"""Benchmark of the grassperm command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of the workload runs as its own cold ``python -m grassperm.cli``
process with PYTHONPATH=src, one at a time, as a user runs it: every command
pays interpreter start, imports and empty caches.  Every output is checked.

With ``--trace 0`` the command list runs in passes for about S seconds, and
a command's latency is the median of its runs.  The end-to-end metrics are
built from these latencies.  With ``--trace 1`` one pass runs plain and
one traced (see tracer.py), giving the per-layer metrics and the tracing
overhead.  Every metric is printed by name with its unit;
the last line of standard output is the JSON result.

The speed of a shared virtual CPU drifts by up to 2x within seconds, the
same for every command, so a run of raw timings measures the host more than
the program.  Every time is therefore taken at a reference speed: the
benchmark and its children run on one CPU, and a fixed pure-Python
calibration loop is timed between two commands and, with the command
stopped, every 20-200 ms while it runs.  A command's time is its CPU time
scaled by REFERENCE_UNIT_S over the mean time of the calibration samples
around and during it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import tracer
from workloads import WORKLOADS, Command

# (name, unit) of every end-to-end metric; cmd_* are order statistics of
# the per-command latencies.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p25_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_p75_s", "s"),
    ("cmd_max_s", "s"),
    ("rows_per_s", "1/s"),
)
IMPORT = [sys.executable, "-c", "import grassperm.cli"]
SETUP_PER_PASS = 5
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")


# One calibration unit takes about this long on the fast phases of a 2-vCPU
# Xeon VM; times are reported as if every unit took exactly this long.
REFERENCE_UNIT_S = 0.005
EDGE_UNITS = 3  # calibration units between two commands
PAUSE_UNITS = 1  # calibration units while a running command is stopped
MIN_PERIOD, MAX_PERIOD = 0.02, 0.2  # seconds a command runs between pauses


def calibration_unit() -> int:
    """Fixed interpreter work in two halves: small-int arithmetic with dict
    stores and big-int products, like the counting and the oracles; and
    building, sorting and indexing tuples and strings, like start-up and
    printing.  Of the loops tried, their sum followed the drift of the
    commands' times most closely."""
    table: dict[int, int] = {}
    total, big = 0, 3**400
    for i in range(2000):
        total += i * i % 7
        table[i & 63] = total
        big = (big * 7 + i) % 5**420
    rows = [(i * 7919 % 1009, str(i), i / 3) for i in range(3000)]
    rows.sort()
    index = {key: (a, b) for a, key, b in rows}
    return total + len("|".join(f"{a}:{key}" for a, key, _ in rows[:1000])) + len(index)


def unit_seconds(units: int) -> float:
    """Mean wall time of one calibration unit, over ``units`` of them."""
    start = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return (time.perf_counter() - start) / units


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the
    calibration and the commands meet the same CPU's speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class Child:
    seconds: float  # CPU time at the reference speed
    cpu_s: float  # CPU time as measured
    rss_mb: float  # the child's own peak RSS, from wait4
    code: int
    out: bytes
    err: bytes


@dataclass(frozen=True)
class Outcome:
    seconds: float
    cpu_s: float
    rss_mb: float
    lines: int
    stdout_bytes: int
    error: str | None


class Runner:
    """Starts one child process at a time and measures it."""

    def __init__(self, root: str, work: str) -> None:
        path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        self.root = root
        self.stdout = os.path.join(work, "stdout")
        self.stderr = os.path.join(work, "stderr")
        self.edge = unit_seconds(EDGE_UNITS)  # the calibration since the last child

    def spawn(self, argv: list[str], pause: bool = True) -> Child:
        """Run argv to completion.  With ``pause``, stop it now and then to
        time the calibration; without, only the calibrations before and
        after it count (a traced child times itself)."""
        units = [self.edge]
        with open(self.stdout, "w+b") as out, open(self.stderr, "w+b") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            start = time.perf_counter()
            exited = os.pidfd_open(proc.pid)
            try:
                while True:
                    period = (time.perf_counter() - start) / 4 if pause else None
                    if period is not None:
                        period = min(MAX_PERIOD, max(MIN_PERIOD, period))
                    if select.select([exited], [], [], period)[0]:
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):  # it ended before the signal
                        break
                    units.append(unit_seconds(PAUSE_UNITS))
                    os.kill(proc.pid, signal.SIGCONT)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(exited)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.edge = unit_seconds(EDGE_UNITS)
            units.append(self.edge)
            out.seek(0)
            err.seek(0)
            cpu = usage.ru_utime + usage.ru_stime
            return Child(
                seconds=cpu * REFERENCE_UNIT_S / statistics.fmean(units),
                cpu_s=cpu,
                rss_mb=usage.ru_maxrss / 1024,
                code=proc.returncode,
                out=out.read(),
                err=err.read(),
            )

    def run(self, cmd: Command, prefix: list[str], pause: bool = True) -> Outcome:
        child = self.spawn(prefix + list(cmd.argv), pause)
        if child.code != 0:
            error = f"exit {child.code}: {child.err.decode(errors='replace').strip()[-200:]}"
        else:
            try:
                error = cmd.check(child.out.decode())
            except Exception as exc:  # any malformed output is a failed command
                error = f"unreadable output ({type(exc).__name__}: {exc})"
        if error:
            print(f"FAILED {' '.join(cmd.argv)[:120]}: {error}", file=sys.stderr)
        out = child.out
        return Outcome(child.seconds, child.cpu_s, child.rss_mb, out.count(b"\n"), len(out), error)


def time_import(runner: Runner) -> float:
    """Time of a cold ``import grassperm.cli``: the set-up of a command."""
    child = runner.spawn(IMPORT)
    if child.code != 0:
        sys.exit(f"import grassperm.cli failed: {child.err.decode(errors='replace').strip()}")
    return child.seconds


def run_passes(
    runner: Runner, cmds: list[Command], seconds: float
) -> tuple[list[float], list[list[Outcome]]]:
    """Passes over the command list for about ``seconds``, one pass at least.
    A pass times SETUP_PER_PASS cold imports, then runs every command
    ``repeat`` times; after the first pass, a command that would not finish
    in time is skipped, and the run ends with a pass that ran none.  Returns
    the import times and the runs of each command."""
    prefix = [sys.executable, "-m", "grassperm.cli"]
    runner.spawn(IMPORT)  # writes the bytecode caches; not timed
    setup: list[float] = []
    samples: list[list[Outcome]] = [[] for _ in cmds]
    took = [0.0] * len(cmds)  # wall time of each command's last run
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        setup.extend(time_import(runner) for _ in range(SETUP_PER_PASS))
        ran = False
        for i, (cmd, runs) in enumerate(zip(cmds, samples)):
            for _ in range(cmd.repeat):
                if not first and time.perf_counter() - start + took[i] > seconds:
                    break  # would not finish in time; a shorter one may
                began = time.perf_counter()
                runs.append(runner.run(cmd, prefix))
                took[i] = time.perf_counter() - began
                ran = True
        if not ran:
            break
        first = False
    return setup, samples


def end_to_end(samples: list[list[Outcome]], setup_s: float) -> dict[str, float]:
    latency = sorted(statistics.median(o.seconds for o in runs) for runs in samples)
    wall = sum(latency)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in runs) for runs in samples),
        # The lowest rank with a quarter of the commands below it, and the
        # highest with a quarter above it.
        "cmd_p25_s": latency[len(latency) - math.ceil(0.75 * len(latency))],
        "cmd_p50_s": statistics.median(latency),
        "cmd_p75_s": latency[math.ceil(0.75 * len(latency)) - 1],
        "cmd_max_s": latency[-1],
        "rows_per_s": sum(runs[0].lines for runs in samples) / wall,
    }


def traced_pass(runner: Runner, cmds: list[Command], work: str) -> tuple[list[Outcome], dict]:
    spans_out = os.path.join(work, "spans.json")
    outcomes, runs = [], []
    for cmd in cmds:
        outcomes.append(runner.run(cmd, [sys.executable, TRACER, spans_out], pause=False))
        if os.path.exists(spans_out):  # absent when the child failed early
            with open(spans_out, encoding="ascii") as fh:
                runs.append(json.load(fh))
            os.remove(spans_out)
    return outcomes, tracer.layer_metrics(runs)


def report(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:48} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="picks the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grassperm", "cli.py")):
        print("error: run from the repository root; src/grassperm is missing", file=sys.stderr)
        return 2
    cmds = WORKLOADS[args.workload](random.Random(args.seed))
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} commands={len(cmds)} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    work_root = os.path.join(root, ".bench_build")
    os.makedirs(work_root, exist_ok=True)
    pin_to_one_cpu()
    # A terminated run unwinds, so that Runner.spawn kills its child, which
    # may be stopped at that moment.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        runner = Runner(root, work)
        setup, samples = run_passes(runner, cmds, 0 if args.trace else args.seconds)
        e2e = end_to_end(samples, statistics.median(setup))
        outcomes = [o for runs in samples for o in runs]
        plain_cpu = sum(statistics.median(o.cpu_s for o in runs) for runs in samples)
        if args.trace:
            traced, layers = traced_pass(runner, cmds, work)
            outcomes += traced
            layers["cli.stdout_bytes"] = sum(o.stdout_bytes for o in traced)
            # Both sides as measured: the traced children are not paused.
            layers["trace.overhead_s"] = sum(o.cpu_s for o in traced) - plain_cpu
    failed = sum(o.error is not None for o in outcomes)
    units = dict(END_TO_END)
    runs = sorted(len(r) for r in samples)
    title = f"end to end at the reference speed, medians of {runs[0]} to {runs[-1]} runs"
    report(title, e2e, units)
    print(f"# as measured, the command list took {plain_cpu:.6g} s of CPU")
    if args.trace:
        layers["gate.failed_ratio"] = failed / len(outcomes)
        units.update((name, unit) for name, unit, _ in tracer.PER_LAYER)
        report("per layer, one traced pass", {n: layers[n] for n, _, _ in tracer.PER_LAYER}, units)
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in tracer.PER_LAYER}
    else:
        print(f"# failed_ratio {failed / len(outcomes):.6g} ({failed} of {len(outcomes)})")
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    result = {"correct": not failed, "attempted": len(outcomes), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
