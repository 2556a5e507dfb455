#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 wfbench/run.py --workload design_loop --seed 1 --seconds 40 --trace 0

Run it from the repository root. It configures and builds wfbench/ (which
compiles the library from src/) under $CARGO_TARGET_DIR, default
.bench_build, then runs the wfbench program for one workload in its own
process. The program prints one `metric NAME VALUE UNIT` line per metric and,
as its last line, the JSON result; the exit code is 0 only when every verdict
matched wfbench/answers.txt.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design_loop", "ltl_check")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out: Path) -> Path:
    """Configures (once) and incrementally builds the program; returns it."""
    obj = out / "wfbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (obj / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(obj), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(obj), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"wfbench: build step failed: {' '.join(cmd)}")
    return obj / "wfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--answers", default=str(HERE / "answers.txt"),
                    help="expected-answer table (default: wfbench/answers.txt)")
    args = ap.parse_args()

    models = ROOT / "examples" / "models"
    if not models.is_dir():
        sys.exit(f"wfbench: model directory {models} not found")
    out = build_dir()
    binary = build(out)

    work = out / f"work-{os.getpid()}"
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--models", str(models), "--answers", args.answers,
           "--work", str(work),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"wfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
