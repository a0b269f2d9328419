"""End-to-end and per-layer benchmark of the `llspec` command line.

    python3 bench/run.py --workload spectral|levels|disorder --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from `src/` next
to this directory, with nothing installed.  Each command of the workload
runs in a fresh interpreter (`python -m llspec.cli ...`, PYTHONPATH=src),
one at a time: a closed loop with one client, the next command starting when
the previous one exits.  The program's own parallelism stays at its defaults
(OpenBLAS threads; `dos --workers` unset, so one worker per CPU).

A pass runs every command of the workload once.  Passes repeat, with
`setup_s` probes between them, until the next one is expected (from the
mean so far) to end after `--seconds`; at least two passes always run.
Outputs are checked after each command exits, outside its timed window.

End-to-end metrics: `wall_s` and `cpu_s` (median pass sums; CPU includes
OpenBLAS threads and the `dos` worker pool), `peak_rss_mb` (median of each
pass's largest child peak RSS), `setup_s` (median fresh-interpreter import of
`llspec.cli` plus `build_parser()`), and `ok_ratio`, the share of commands
that exited 0 and passed their checks.  `ok_ratio` is 1 - fail_ratio, chosen
so that no end-to-end metric reads 0 when every command succeeds;
`fail_ratio` itself is printed in the report.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
passes with traced ones, where each command runs under `bench/tracer.py`,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--seed` reaches the program only as `dos --seed`; the `spectral` and
`levels` workloads are deterministic by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Command, Output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

COMMAND_TIMEOUT_S = 60.0  # the longest command takes about 12 s
SETUP_PROBES_PER_PASS = 2
# Untraced runs take two passes even when one fills --seconds, so a long
# workload still reports a median of two; a traced round already holds two.
MIN_ROUNDS = {False: 2, True: 1}
SETUP_CODE = "import llspec.cli; llspec.cli.build_parser()"

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1", "setup_s": "s"}


@dataclass
class Finished:
    """One child process, timed from spawn to reap."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when killed on timeout


@dataclass
class CommandRun:
    label: str
    proc: Finished
    problems: list[str]
    last_stderr: str

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Pass:
    traced: bool
    runs: list[CommandRun] = field(default_factory=list)
    layer_metrics: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(r.proc.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.proc.cpu_s for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.proc.peak_rss_mb for r in self.runs)


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, timeout: float) -> Finished:
    """Run one child in its own session and reap it with `os.wait4`.

    Wall time runs from spawn to reap.  CPU time and peak RSS come from the
    child's rusage, which includes its threads and every process it reaped
    (the `dos` worker pool).  On timeout the whole session is killed.
    """
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # anything the child left behind in its session
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Finished(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if killed.is_set() else proc.returncode,
    )


class Bench:
    def __init__(self, workload: str, seed: int, scratch: Path):
        self.commands: tuple[Command, ...] = WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LLSPEC_")}
        self.env["PYTHONPATH"] = str(SRC)
        # Children write no bytecode, so the benchmark writes nothing outside its
        # scratch directory and every run compiles the package alike.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.setup_s: list[float] = []

    def _paths(self, label: str) -> tuple[Path, Path, Path]:
        return (self.scratch / f"{label}.stdout", self.scratch / f"{label}.stderr",
                self.scratch / f"{label}.out")

    def probe_setup(self) -> float:
        stdout, stderr, _ = self._paths("setup")
        done = spawn([sys.executable, "-c", SETUP_CODE], self.env, stdout, stderr, COMMAND_TIMEOUT_S)
        if done.exit_code != 0:
            raise RuntimeError(f"set-up probe exited {done.exit_code}: {_last_line(stderr)}")
        return done.wall_s

    def run_command(self, cmd: Command, traced: bool) -> tuple[CommandRun, dict[str, float]]:
        stdout, stderr, out = self._paths(cmd.label)
        spans = self.scratch / f"{cmd.label}.spans.json"
        for stale in (out, spans):
            stale.unlink(missing_ok=True)
        argv = cmd.resolve(self.seed, out)
        if traced:
            prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)]
        else:
            prefix = [sys.executable, "-m", "llspec.cli"]
        done = spawn(prefix + argv, self.env, stdout, stderr, COMMAND_TIMEOUT_S)
        problems = []
        if done.exit_code is None:
            problems.append(f"timed out after {COMMAND_TIMEOUT_S:g} s")
        elif done.exit_code != 0:
            problems.append(f"exit code {done.exit_code}")
        elif cmd.check is not None:
            try:
                problems = cmd.check(Output(stdout=stdout, out=out, seed=self.seed))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        layer = {}
        if traced and spans.exists():
            data = json.loads(spans.read_text())
            layer = tracer.command_metrics(data["functions"], data["spans"])
        return CommandRun(cmd.label, done, problems, _last_line(stderr)), layer

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(traced=traced)
        parts = []
        for cmd in self.commands:
            run, layer = self.run_command(cmd, traced)
            result.runs.append(run)
            parts.append(layer)
        if traced:
            result.layer_metrics = tracer.sum_metrics(parts)
        return result


def _last_line(path: Path) -> str:
    try:
        lines = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def machine_record() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        **{k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others, summed over CPUs, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Alternate set-up probes with passes until the next round is expected to overrun."""
    bench.probe_setup()  # warm-up: byte-compile and fill the file cache, not timed
    plain: list[Pass] = []
    traced: list[Pass] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_PASS):
            bench.setup_s.append(bench.probe_setup())
        plain.append(bench.run_pass(traced=False))
        if trace:
            traced.append(bench.run_pass(traced=True))
        rounds.append(time.perf_counter() - began)
        if len(rounds) >= MIN_ROUNDS[trace] and (
            time.perf_counter() - start + statistics.mean(rounds) > seconds
        ):
            return plain, traced


def end_to_end(plain: list[Pass], setup_s: list[float]) -> dict[str, float]:
    runs = [r for p in plain for r in p.runs]
    return {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "cpu_s": statistics.median(p.cpu_s for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "ok_ratio": sum(not r.failed for r in runs) / len(runs),
        "setup_s": statistics.median(setup_s),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    metrics = tracer.median_metrics([p.layer_metrics for p in traced])
    metrics["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in zip(plain, traced)
    )
    return metrics


def command_medians(plain: list[Pass]) -> dict[str, float]:
    labels = [r.label for r in plain[0].runs]
    return {
        f"cli.{label}.wall_s": statistics.median(p.runs[i].proc.wall_s for p in plain)
        for i, label in enumerate(labels)
    }


def per_layer_names() -> list[str]:
    return tracer.all_metric_names() + ["trace.overhead_s"]


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trace.overhead_s":
        return "s"
    return tracer.unit_of(name)


def report(args, machine: dict, start: tuple[str, float | None], plain: list[Pass],
           traced: list[Pass], setup_s: list[float]) -> dict:
    """Print the human-readable report and return the result object."""
    passes = plain + traced
    every = [r for p in passes for r in p.runs]
    failed = [r for r in every if r.failed]
    # A crash or timeout leaves no answer; exit 0 with a failed check, or the
    # program's own --check exit 3, is a wrong answer.
    wrong = [r for r in failed if r.proc.exit_code in (0, 3)]
    load_start, steal_start = start
    steal_end = steal_s()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# loadavg start {load_start}")
    print(f"# loadavg end   {loadavg()}")
    if steal_start is not None and steal_end is not None:
        print(f"# cpu steal during the run {steal_end - steal_start:.2f} s")
    print("# --seed reaches the program only as `dos --seed`; "
          "spectral and levels are deterministic by construction")
    print(f"# {len(plain)} untraced passes, {len(traced)} traced passes, "
          f"{len(setup_s)} set-up probes; timings are medians over those counts")
    for p in passes:
        kind = "traced" if p.traced else "untraced"
        print(f"# pass {kind}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
              f"peak rss {p.peak_rss_mb:.1f} MB")
        for r in p.runs:
            if r.failed:
                print(f"# FAILED {r.label} ({kind}): {'; '.join(r.problems)}; "
                      f"last stderr line: {r.last_stderr!r}")
    print("# set-up probes: " + " ".join(f"{s:.4f}" for s in setup_s))
    print(f"fail_ratio {len(failed) / len(every)!r} 1 ({len(failed)} of {len(every)} commands)")
    for name, value in command_medians(plain).items():
        print(f"{name} {value!r} s (median of {len(plain)})")
    if args.trace:
        print("# dos worker-pool time appears as anderson time (block solves run in pool processes)")
        metrics, names = per_layer(plain, traced), per_layer_names()
        for name in names:
            if name not in metrics:
                print(f"{name} absent (no such function or module in the program)")
    else:
        metrics, names = end_to_end(plain, setup_s), list(END_TO_END_UNITS)
    shown = {n: {"value": metrics[n], "unit": unit_of(n)} for n in names if n in metrics}
    for name, m in shown.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": not wrong, "attempted": len(every), "failed": len(failed), "metrics": shown}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "llspec" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'llspec'}; run from a full checkout",
              file=sys.stderr)
        return 2
    start = (loadavg(), steal_s())
    machine = machine_record()
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, scratch)
        plain, traced = measure(bench, args.seconds, bool(args.trace))
        result = report(args, machine, start, plain, traced, bench.setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
