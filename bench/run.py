"""Benchmark of the ircnet command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the workload's inputs
from the seed (untimed), then measures:

- set-up: a fresh `python -c "import ircnet.cli"`, the import every command
  pays before doing any work, timed several times;
- passes of the five commands `ingest, backbone, estimate, gof, export`,
  each command a child process run one at a time, timed from outside and
  checked. Passes repeat while another fits in S seconds, with at least
  two, because the `out/` files of all passes must be byte-identical.

The benchmark pins itself, and so every child, to one CPU. While an
untraced child runs, it is stopped every SAMPLE_PERIOD_S seconds for a
fixed reference chunk timed on that CPU, then continued. A child's wall
time is launch to exit minus these pauses, and the end-to-end times are
reported at the reference speed: the wall time times REF_NOMINAL_S over
the mean reference chunk time during that child. This takes out the
speed changes of a shared host, which are larger than the bounds; the raw
wall times are printed and written too.

With `--trace 0` it reports the end-to-end metrics (medians over passes).
With `--trace 1` it alternates untraced passes with passes in which every
command runs under `bench/tracer.py`, and reports the per-layer metrics of
the traced passes and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Each command invocation is
one operation; it fails if it exits non-zero, runs past its time limit, or
fails an output check. Everything else (environment, per-pass times, output
digests, problems found) is printed above that line and written to
`.bench_work/<workload>/result.json`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
import fixtures
import tracer

T0 = time.perf_counter()

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PY = sys.executable
COMMANDS = ("ingest", "backbone", "estimate", "gof", "export")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 100.0
# the whole run must end within 180 s; no command may start past this
RUN_DEADLINE_S = 165.0
# Reference chunk: about 4 ms of work on a 2-core x86 VM in a quiet moment,
# taken every SAMPLE_PERIOD_S of a child's run. Times are reported as if
# the chunk took REF_NOMINAL_S.
SAMPLE_PERIOD_S = 0.1
REF_LOOP = 30_000
REF_NUMPY_CALLS = 800
REF_NOMINAL_S = 0.004
# chunks timed before and after a child that is not paused
REF_AROUND = 5


@dataclass
class Child:
    """Outcome of one child process."""

    code: int
    wall_s: float               # launch to exit, minus the sampling pauses
    maxrss_mb: float
    timed_out: bool
    ref_s: float                # mean reference chunk time

    @property
    def norm_s(self):
        """Wall time at the reference speed (see `reference_chunk`)."""
        return self.wall_s * REF_NOMINAL_S / self.ref_s


def reference_chunk():
    """Time a fixed piece of CPU work of the kind the commands do:
    interpreter loops and small numpy operations.

    A shared host's speed changes by 20-70% within seconds, and each of its
    CPUs changes on its own. A chunk timed on the child's CPU, every
    SAMPLE_PERIOD_S while the child is stopped, follows the speed the child
    sees: over ten runs of one `estimate` command the spread (interquartile
    range over median) fell from 0.25 for the raw wall times to 0.05-0.10
    for the times at the reference speed. Chunks timed only before and
    after each child followed it less closely, and chunks timed on the
    other CPU not at all.
    """
    start = time.perf_counter()
    total = 0
    for k in range(REF_LOOP):
        total += k * k
    x = np.ones(166)
    for _ in range(REF_NUMPY_CALLS):
        x = np.exp(x * 0.001)
    return time.perf_counter() - start


def run_child(argv, cwd, env, timeout, log_path, sample=True):
    """Run argv to completion, killing it after `timeout` seconds.

    With `sample`, the child is stopped every SAMPLE_PERIOD_S for a
    reference chunk on the CPU it shares with this process (see
    `reference_chunk`), and the pauses are taken out of its wall time.
    Without, REF_AROUND chunks are timed before launch and after exit,
    which follows the speed less closely. Wall time runs from launch to
    exit; max RSS comes from the child's own rusage, read by wait4.
    """
    paused, timed_out = 0.0, False
    refs = [] if sample else [reference_chunk() for _ in range(REF_AROUND)]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                left = timeout - (time.perf_counter() - start - paused)
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                period = min(SAMPLE_PERIOD_S, left) if sample else left
                if select.select([exited], [], [], period)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                if not sample:
                    continue
                pause = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break
                refs.append(reference_chunk())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - pause
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(exited)
        wall = time.perf_counter() - start - paused
    # wait4 has reaped the child; tell Popen, so it never waits on the pid
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not sample or not refs:
        refs += [reference_chunk() for _ in range(REF_AROUND)]
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, timed_out,
                 statistics.mean(refs))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(env):
    """What the numbers depend on, recorded with every result."""
    git_sha = None
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = rev.stdout.split()
        # only a repository rooted here describes these sources
        if rev.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            git_sha = lines[1]
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ircnet", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return dict(
        git_sha=git_sha, src_sha256=src.hexdigest(), nproc=os.cpu_count(),
        python=platform.python_version(),
        **{pkg: importlib.metadata.version(pkg)
           for pkg in ("numpy", "scipy", "networkx")},
        threads={var: env[var] for var in THREAD_VARS})


class Run:
    """Operations, problems and timings of one benchmark invocation."""

    def __init__(self, workload, fixture, env, seconds):
        self.fixture, self.env, self.seconds = fixture, env, seconds
        self.work = os.path.join(WORK, workload)
        self.attempted = self.failed = 0
        self.problems = []
        self.passes = []   # dicts: traced, walls, norm, ref, rss, digests, dumps
        self.reference = None   # digests of the first pass

    def deadline_left(self):
        return RUN_DEADLINE_S - (time.perf_counter() - T0)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def run_pass(self, traced):
        """One pass of the five commands; False once an operation failed."""
        k = len(self.passes) + 1
        cwd = os.path.join(self.work, f"pass{k}")
        out = os.path.join(cwd, "out")
        os.makedirs(cwd)
        record = dict(traced=traced, walls={}, norm={}, ref={}, rss={},
                      dumps={})
        for cmd in COMMANDS:
            cfg = os.path.relpath(self.fixture.configs[cmd], cwd)
            if traced:
                dump = os.path.join(cwd, f"{cmd}.trace.json")
                argv = [PY, os.path.join(BENCH, "tracer.py"), dump, cmd, cfg]
            else:
                argv = [PY, "-m", "ircnet.cli", cmd, cfg]
            timeout = min(COMMAND_TIMEOUT_S, self.deadline_left())
            self.attempted += 1
            # traced children are not paused: their spans would count the
            # pauses
            child = run_child(argv, cwd, self.env, timeout,
                              os.path.join(cwd, f"{cmd}.log"),
                              sample=not traced)
            where = f"pass {k} {cmd}"
            if child.timed_out:
                self.fail(f"{where}: killed at the {timeout:.0f} s limit")
                return False
            if child.code != 0:
                self.fail(f"{where}: exit code {child.code}, see "
                          f"{os.path.relpath(cwd, ROOT)}/{cmd}.log")
                return False
            problems = checks.CHECKS[cmd](out, self.fixture)
            if traced:
                with open(dump, encoding="utf-8") as fh:
                    record["dumps"][cmd] = json.load(fh)
                _, other = tracer.command_accounts(record["dumps"][cmd],
                                                   child.wall_s)
                if other < 0:
                    problems.append(f"layer self times exceed the traced "
                                    f"wall time by {-other:.6f} s")
            if problems:
                self.fail(f"{where}: " + "; ".join(problems))
                return False
            record["walls"][cmd] = child.wall_s
            record["norm"][cmd] = child.norm_s
            record["ref"][cmd] = child.ref_s
            record["rss"][cmd] = child.maxrss_mb
        record["digests"] = checks.digests(out)
        self.passes.append(record)
        if self.reference is None:
            self.reference = record["digests"]
        elif record["digests"] != self.reference:
            names = sorted(n for n in record["digests"].keys()
                           | self.reference.keys()
                           if record["digests"].get(n) != self.reference.get(n))
            for cmd in sorted({checks.producer(n) for n in names}, key=str):
                self.fail(f"pass {k} {cmd}: outputs differ from pass 1: "
                          + ", ".join(n for n in names
                                      if checks.producer(n) == cmd))
            return False
        return True

    def measure(self, plan):
        """Run passes of the kinds in `plan` (cycled) until time is up."""
        start = time.perf_counter()
        while True:
            done = len(self.passes)
            if not self.run_pass(plan[done % len(plan)]):
                return
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (done + 1)
            if done + 1 >= max(MIN_PASSES, len(plan)) and (
                    elapsed + per_pass > self.seconds
                    or per_pass > self.deadline_left()):
                return


def time_imports(env, work, importtime=False):
    """Fresh `import ircnet.cli` processes, and with `importtime` the
    cumulative import time of selected modules (then unpaused, because the
    child times its own imports)."""
    children, modules = [], {}
    for k in range(SETUP_REPEATS):
        log = os.path.join(work, f"import{k}.log")
        argv = [PY] + (["-X", "importtime"] if importtime else []) + [
            "-c", "import ircnet.cli"]
        child = run_child(argv, work, env, 60.0, log, sample=not importtime)
        if child.code != 0:
            raise RuntimeError(f"import ircnet.cli failed, see {log}")
        children.append(child)
        if importtime:
            with open(log, encoding="utf-8") as fh:
                for ln in fh:
                    fields = ln.split("|")
                    if ln.startswith("import time:") and fields[1].strip().isdigit():
                        modules.setdefault(fields[2].strip(), []).append(
                            int(fields[1]) / 1e6)
    return children, modules


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run, setup):
    """Times at the reference speed, medians over the untraced passes."""
    untraced = [p for p in run.passes if not p["traced"]]
    m = {"wall_s": (median([sum(p["norm"].values()) for p in untraced]), "s"),
         "setup_s": (median([c.norm_s for c in setup]), "s")}
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = (median([p["norm"][cmd] for p in untraced]), "s")
    m["peak_rss_mb"] = (max(v for p in untraced for v in p["rss"].values()),
                        "MB")
    return m


def per_layer(run, modules):
    traced = [p for p in run.passes if p["traced"]]
    untraced = [p for p in run.passes if not p["traced"]]
    samples = {}
    for p in traced:
        for name, value in tracer.summarize(p["dumps"], p["walls"]).items():
            samples.setdefault(name, []).append(value)
    m = {}
    for name, unit in (("import.ircnet_s", "ircnet.cli"),
                       ("import.scipy_stats_s", "scipy.stats"),
                       ("import.networkx_s", "networkx")):
        m[name] = (median(modules.get(unit, [])), "s")
    for name, values in samples.items():
        m[name] = (median(values), tracer.unit(name))
    m["trace.overhead_s"] = (
        median([sum(p["norm"].values()) for p in traced])
        - median([sum(p["norm"].values()) for p in untraced]), "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ircnet", "cli.py")):
        print(f"error: no ircnet sources under {SRC}; run from the root of "
              "an ircnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # children inherit the CPU, so each shares it with the reference chunks
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    t = time.perf_counter()
    fixture = fixtures.build(args.workload, args.seed,
                             os.path.join(work, "fixture"))
    fixture_s = time.perf_counter() - t
    env = child_env()
    run = Run(args.workload, fixture, env, args.seconds)
    setup, modules = time_imports(env, work, importtime=bool(args.trace))
    run.measure([False, True] if args.trace else [False])

    correct = run.failed == 0 and len(run.passes) >= MIN_PASSES
    if run.failed == 0 and not correct:
        run.problems.append(f"only {len(run.passes)} passes completed")
    metrics = {}
    if correct:
        metrics = (per_layer(run, modules) if args.trace
                   else end_to_end(run, setup))
        for name, (value, _) in list(metrics.items()):
            if not math.isfinite(value):
                run.problems.append(f"metric {name} is not finite")
                correct = False
                del metrics[name]
    refs = [c.ref_s for c in setup] + [v for p in run.passes
                                       for v in p["ref"].values()]
    report = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, environment=dict(environment(env), cpu=cpu),
        fixture_s=fixture_s, setup_walls=[c.wall_s for c in setup],
        setup_ref_s=[c.ref_s for c in setup], problems=run.problems,
        passes=[dict(traced=p["traced"], walls=p["walls"], norm=p["norm"],
                     ref_s=p["ref"], rss_mb=p["rss"])
                for p in run.passes],
        digests=run.reference,
        metrics={k: dict(value=v, unit=u) for k, (v, u) in metrics.items()})
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} passes, inputs built in {fixture_s:.2f} s")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for problem in run.problems:
        print(f"problem: {problem}")
    if refs:
        print(f"reference chunk, mean per child: {median(refs) * 1e3:.3f} ms "
              f"median ({min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f}, "
              f"nominal {REF_NOMINAL_S * 1e3:g} ms)")
    for p in run.passes:
        print(("traced" if p["traced"] else "untraced") + " pass, raw "
              + " ".join(f"{c}={p['walls'][c]:.3f}s" for c in COMMANDS))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
