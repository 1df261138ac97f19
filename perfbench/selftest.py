"""Self-test of the benchmark's checks: they pass real outputs and reject corrupted ones.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed 2] [--workload NAME ...]

For each workload, every op runs once on the given seed (a seed other
than the one used while the benchmark was written) and must pass its
check.  Then one probability in the output is perturbed by 1e-6 relative,
or one verdict is flipped, and the check must report the corrupted output
as a failure.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from checks import CORRUPT, run_check
from run import ROOT, SRC, Runner
from workloads import WHY, build_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--workload", nargs="*", choices=sorted(WHY), default=sorted(WHY))
    args = parser.parse_args(argv)
    if not (SRC / "pblab" / "cli.py").is_file():
        print(f"selftest: no pblab sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    problems = 0
    try:
        runner = Runner(work)
        for workload in args.workload:
            ctx: dict = {}
            for op in build_ops(workload, args.seed, str(work)):
                ex = runner.run_op(op)
                errors = [f"exit code {ex.code}"] if ex.code else run_check(
                    op.cmd, op.params, ex.stdout, ex.files, ctx)
                bad_stdout, bad_files = CORRUPT[op.cmd](ex.stdout, ex.files)
                caught = run_check(op.cmd, op.params, bad_stdout, bad_files, dict(ctx))
                status = "ok" if not errors and caught else "PROBLEM"
                problems += status != "ok"
                print(f"{status:7} {workload:16} {op.name:20} real output: "
                      f"{'passes' if not errors else errors[:2]}; corrupted: "
                      f"{'rejected (' + caught[0] + ')' if caught else 'ACCEPTED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest seed={args.seed}: {'all checks hold' if not problems else f'{problems} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
