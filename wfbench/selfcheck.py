#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 wfbench/selfcheck.py [--workload design_loop]

1. Runs the workload untraced and traced with the real answer table and
   confirms that every metric BENCHMARK.json names for that mode is in the
   JSON result with its declared unit, is printed as a
   `metric NAME VALUE UNIT` line, and that every verdict was right.
2. Runs it once more with one expected answer flipped and confirms that the
   run reports failed_frac > 0 and exits nonzero.

Exits 0 when every check holds. Run it from the repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the benchmark's own build-and-run entry point)

# The answer row each workload's deliberately wrong table flips.
FLIP = {
    "design_loop": "demo | end-invariant | PASS",
    "ltl_check": "ltl.rpc.unfair | ltl | FAIL",
}


def bench(workload, trace, answers=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    if answers:
        cmd += ["--answers", str(answers)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = (parts[2], parts[3])
    return done.returncode, result, printed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="design_loop", choices=run.WORKLOADS)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, printed = bench(args.workload, trace)
        if result is None:
            problems.append(f"trace {trace}: no JSON result (exit {code})")
            continue
        if code != 0 or not result["correct"] or result["failed"] != 0:
            problems.append(f"trace {trace}: wrong verdicts with the real answers")
        if "failed_frac" not in printed:
            problems.append(f"trace {trace}: failed_frac not printed")
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        if set(result["metrics"]) != set(wanted):
            problems.append(f"trace {trace}: metrics {sorted(result['metrics'])} "
                            f"differ from {sorted(wanted)}")
        for name, unit in wanted.items():
            got = result["metrics"].get(name, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                problems.append(f"trace {trace}: {name} missing or not in {unit}")
            if printed.get(name, ("", ""))[1] != unit:
                problems.append(f"trace {trace}: {name} not printed with unit {unit}")

    table = (HERE / "answers.txt").read_text()
    row = FLIP[args.workload]
    flipped = row[:-4] + ("FAIL" if row.endswith("PASS") else "PASS")
    if row not in table:
        problems.append(f"answer row to flip not found: {row}")
    wrong = run.build_dir() / "selfcheck-answers.txt"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(table.replace(row, flipped, 1))
    code, result, printed = bench(args.workload, 0, wrong)
    if code == 0:
        problems.append("a wrong expected answer still exited 0")
    if result is None or result["failed"] == 0 or float(printed.get("failed_frac", ("0",))[0]) <= 0:
        problems.append("a wrong expected answer did not give failed_frac > 0")

    for p in problems:
        print("selfcheck:", p)
    print("selfcheck:", "FAILED" if problems else "ok", f"({args.workload})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
