"""pblab benchmark: time real CLI invocations, check every output, report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tail_window --seed 1 --seconds 60 --trace 0

--trace 0 runs a closed loop with a single client: one `pblab` child at a
time, no threads, each timed from spawn to exit; two passes over the
workload's op list (an op marked every=2 joins every other cycle of it),
then op by op in the same order while each still ends before --seconds is
up.
It prints the end-to-end metrics, each the median of its runs (pass_s and
cmd.*_s sum the per-op medians), rescaled to a fixed host speed by a
reference child that runs no pblab code (REFERENCE_CODE below).  --trace 1 runs the same pass as
subprocesses, then in process untraced and in process with perfbench's
span wrappers installed (see spans.py), and prints the per-layer metrics.
Either way every output is checked (checks.py), repeated outputs must be
byte-identical, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is run from ./src of the checkout; nothing is installed.
Inputs and outputs live under ./.perfbench_work, removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Pin thread pools before anything imports numpy (the traced run does).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("PBLAB_THREADS", None)

from checks import TOL_MASS, run_check  # noqa: E402
from workloads import WHY, Op, build_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY = "import sys; from pblab.cli import main; sys.exit(main())"
SETUP_CODE = "import pblab.cli"  # setup_s: fresh interpreter to the end of this import
# The reference child: fixed work that runs no pblab code (interpreter start,
# numpy import, a pure-Python float loop and an FFT, like pblab's own mix).
REFERENCE_CODE = """\
import math
import numpy as np
x = np.linspace(0.001, 0.3, 250_000)
s = math.fsum(math.log1p(-v) for v in x.tolist())
y = np.fft.irfft(np.fft.rfft(x) ** 2, len(x))
print(repr(s), repr(float(y.sum())))
"""
# The reference child's median wall, measured on 2 vCPUs of a shared Intel
# Xeon at 2.0 GHz.  Every timing is reported at that host speed: median wall
# * REFERENCE_S / the run's median reference wall.
REFERENCE_S = 0.3
SETUP, REFERENCE = "setup", "reference"  # non-op items of a cycle
COMMANDS = ("verify", "conditions", "distance", "pmf_json", "pmf_csv", "sweep", "dependent")


def child_env() -> dict[str, str]:
    """Fixed environment: no PBLAB_THREADS (serial sweep), fixed hash seed, 1 BLAS thread."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC),
           "PYTHONHASHSEED": "0", "PYTHONIOENCODING": "utf-8", "LC_ALL": "C.UTF-8"}
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Exec:
    """Outcome of one invocation."""

    wall: float
    code: int
    stdout: bytes
    files: dict[str, bytes]
    stderr: bytes = b""

    def digest(self) -> str:
        h = hashlib.sha256(self.stdout)
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


class Runner:
    """Spawns children one at a time under a scratch directory of the checkout."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.count = 0

    def _fresh_dir(self) -> str:
        self.count += 1
        return str(self.work / f"out{self.count}")

    def spawn(self, args: list[str]) -> Exec:
        so_path, se_path = self.work / "stdout", self.work / "stderr"
        with open(so_path, "wb") as so, open(se_path, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=so, stderr=se,
                                    env=self.env, cwd=self.work)
            try:
                # A blocking wait returns at the child's exit; a wait with a
                # timeout polls, which would round wall times up to 50 ms steps.
                proc.wait()
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        return Exec(wall, proc.returncode, so_path.read_bytes(), {}, se_path.read_bytes())

    def run_op(self, op: Op) -> Exec:
        out_dir = self._fresh_dir() if op.writes_dir else None
        ex = self.spawn(["-c", ENTRY, *op.argv_for(out_dir)])
        ex.files = self._collect(out_dir)
        return ex

    def run_op_inprocess(self, op: Op, main) -> Exec:
        out_dir = self._fresh_dir() if op.writes_dir else None
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        gc.collect()  # start each in-process run from the same collector state
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            code = main(op.argv_for(out_dir))
        except Exception:  # an escaped error fails this op, not the benchmark
            code = -1
            err.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            sys.stdout, sys.stderr = saved
        return Exec(wall, code, out.getvalue().encode("utf-8"), self._collect(out_dir),
                    err.getvalue().encode("utf-8"))

    @staticmethod
    def _collect(out_dir: str | None) -> dict[str, bytes]:
        if out_dir is None:
            return {}
        files = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()} if os.path.isdir(out_dir) else {}
        shutil.rmtree(out_dir, ignore_errors=True)
        return files


class Verdicts:
    """Counts attempted and failed ops; an op fails on a nonzero exit, a failed
    check (unparseable output included) or bytes that differ from its first run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.ctx: dict = {}

    def record(self, op: Op, ex: Exec, reference: Exec | None = None, extra=()) -> None:
        """Counts one attempted op; extra lists errors found outside its output."""
        if ex.code != 0:
            errors = [f"exit code {ex.code}: {ex.stderr.decode('utf-8', 'replace')[-300:]}"]
        elif reference is not None:
            same = ex.stdout == reference.stdout and ex.files == reference.files
            errors = [] if same else ["in-process output differs from the subprocess output"]
        else:
            digest = ex.digest()
            if op.name not in self.first:
                self.first[op.name] = (digest, run_check(op.cmd, op.params, ex.stdout, ex.files, self.ctx))
            first_digest, errors = self.first[op.name]
            if digest != first_digest:
                errors = ["output bytes differ from the first run of this op"]
        errors = errors + list(extra)
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"FAIL {op.name}: {e}", file=sys.stderr)


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"median={statistics.median(values):.4f} n={n}"
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        note += f" p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f}"
    return note


def warm_up(runner: Runner) -> str:
    """One import fills the bytecode and file caches; returns numpy's version."""
    warm = runner.spawn(["-c", SETUP_CODE + "; import numpy; print(numpy.__version__)"])
    if warm.code != 0:
        raise RuntimeError(f"cannot import pblab.cli: {warm.stderr.decode('utf-8', 'replace')}")
    return warm.stdout.decode().strip()


def fill(seconds: float, order: list, run_item, at_least: int) -> None:
    """Run order at_least times through, then keep cycling through it, running
    each item whose longest run so far still ends before the deadline, until
    no item fits: the whole budget is measured, not only whole passes."""
    deadline = time.perf_counter() + seconds
    longest = [0.0] * len(order)

    def one(i: int) -> None:
        t0 = time.perf_counter()
        run_item(order[i])
        longest[i] = max(longest[i], time.perf_counter() - t0)

    for _ in range(at_least):
        for i in range(len(order)):
            one(i)
    ran = True
    while ran:
        ran = False
        for i in range(len(order)):
            if time.perf_counter() + longest[i] <= deadline:
                one(i)
                ran = True


def end_to_end(ops: list[Op], runner: Runner, verdicts: Verdicts,
               seconds: float) -> dict[str, tuple[float, str]]:
    walls: dict[str, list[float]] = {op.name: [] for op in ops}
    setup: list[float] = []
    reference: list[float] = []
    # Cycles over the op list, each with two reference samples and a set-up
    # sample.  A shared host drifts by up to a third over minutes, alike for
    # every child; the reference, timed all through the run, takes it out.
    period = max(op.every for op in ops)
    order: list[Op | str] = []
    for c in range(period):
        cycle = [op for op in ops if c % op.every == 0]
        half = len(cycle) // 2
        order += [REFERENCE, *cycle[:half], REFERENCE, *cycle[half:], SETUP]

    def run_item(item: Op | str) -> None:
        if item == SETUP:
            setup.append(runner.spawn(["-c", SETUP_CODE]).wall)
        elif item == REFERENCE:
            ex = runner.spawn(["-c", REFERENCE_CODE])
            if ex.code != 0:
                raise RuntimeError(f"reference child failed: {ex.stderr.decode('utf-8', 'replace')}")
            reference.append(ex.wall)
        else:
            ex = runner.run_op(item)
            walls[item.name].append(ex.wall)
            verdicts.record(item, ex)

    # Two passes at least, so that every op has a repeat to compare bytes with.
    fill(seconds, order, run_item, 2)
    median = {name: statistics.median(v) for name, v in walls.items()}
    scale = REFERENCE_S / statistics.median(reference)
    print(f"# raw wall times; the metrics below are these times * {scale:.4f}")
    for op in ops:
        print(f"# op {op.name:<20} {op.cmd:<10} wall_s {percentile_note(walls[op.name])}")
    print(f"# setup_s {percentile_note(setup)}")
    print(f"# reference_s {percentile_note(reference)}")
    metrics = {"setup_s": (statistics.median(setup) * scale, "s"),
               "pass_s": (sum(median.values()) * scale, "s")}
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = (sum(median[op.name] for op in ops if op.cmd == cmd) * scale, "s")
    # ru_maxrss of reaped children: the largest child, in KiB on Linux.
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(ops: list[Op], runner: Runner, verdicts: Verdicts,
              seconds: float) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(SRC))
    from spans import PER_LAYER, Tracer, dc_health, layer_metrics

    tracer = Tracer()
    plain_main = tracer.main
    prob_zero_log = tracer.modules["exact"].prob_zero_log
    rounds: list[dict[str, float]] = []

    def traced_run(i: int, op: Op) -> Exec:
        tracer.op = i
        tracer.install()
        try:
            return runner.run_op_inprocess(op, tracer.main)
        finally:
            tracer.uninstall()

    def one_round(_):
        sub = [runner.run_op(op) for op in ops]
        for op, ex in zip(ops, sub):
            verdicts.record(op, ex)
        tracer.spans.clear()
        plain, traced = [], []
        # Untraced and traced in-process runs alternate which goes first.
        for i, (op, ref) in enumerate(zip(ops, sub)):
            if i % 2:
                traced.append(traced_run(i, op))
                plain.append(runner.run_op_inprocess(op, plain_main))
            else:
                plain.append(runner.run_op_inprocess(op, plain_main))
                traced.append(traced_run(i, op))
            verdicts.record(op, plain[-1], reference=ref)
        health = dc_health(tracer.spans, prob_zero_log)
        for i, (op, ex, ref) in enumerate(zip(ops, traced, sub)):
            # A distance report's engine PMF is visible only here; its mass must be 1.
            mass = [f"pmf_dc mass off by {m!r}" for o, _, _, _, m in health
                    if o == i and m > TOL_MASS and op.cmd in ("distance", "sweep")]
            verdicts.record(op, ex, reference=ref, extra=mass)
        root = {s.op: s.dur for s in tracer.spans if s.name == "cli.main"}
        process_s = sum(ref.wall - root.get(i, 0.0) for i, ref in enumerate(sub))
        overhead = sum(e.wall for e in traced) / sum(e.wall for e in plain) - 1.0
        rounds.append(layer_metrics(tracer.spans, health, sum(len(e.stdout) for e in traced),
                                    process_s, overhead))

    fill(seconds, [None], one_round, 1)
    print(f"# traced rounds={len(rounds)}")
    if tracer.missing:
        print(f"# stages not found in pblab: {', '.join(tracer.missing)}")
    return {name: (statistics.median(r[name] for r in rounds), unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pblab" / "cli.py").is_file():
        print(f"perfbench: no pblab sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        load = os.getloadavg()
        runner = Runner(work)
        ops = build_ops(args.workload, args.seed, str(work))
        numpy_version = warm_up(runner)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(f"# why: {WHY[args.workload]}")
        print(f"# machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
              f"numpy={numpy_version} loadavg_at_start={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")
        verdicts = Verdicts()
        if args.trace:
            metrics = per_layer(ops, runner, verdicts, args.seconds)
        else:
            metrics = end_to_end(ops, runner, verdicts, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {verdicts.failed / max(1, verdicts.attempted):.6g} "
          f"({verdicts.failed} of {verdicts.attempted} ops)")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
