#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Configures and builds perfbench/CMakeLists.txt (the simulator library from
src/ plus the benchmark program, Release) into the directory named by
CARGO_TARGET_DIR, default .bench_build, then runs one workload. Build output
goes to stderr; the program's report goes to stdout, whose last line is the
JSON result. That line is checked against BENCHMARK.json before it is
printed: it must carry exactly the declared end-to-end metrics (--trace 0)
or per-layer metrics (--trace 1), with the declared units. With --trace 1
the Chrome trace of the last traced pass is written to
<build>/traces/<workload>-<seed>.json.

Exit status: 0 with a result printed; 1 on a build failure, a program
failure, a timeout or a malformed result (then no result line is printed);
2 on bad arguments.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log(f"build step failed: {' '.join(cmd)}")
                return None
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the reason the result line is malformed, or None."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON ({e})"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be correct, attempted, failed, metrics"
    if not isinstance(res["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            return f"{key} must be a whole number"
    if res["attempted"] < 1:
        return "attempted must be at least 1"
    want = declared_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}"
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return f"{name}: unit {m.get('unit')!r}, declared {want[name]!r}"
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"{name}: value {v!r} is not a finite number"
    return None


def parse_seed(text):
    """Decimal or 0x-prefixed hex, as the program's --seed takes it."""
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=parse_seed, default=0xCAFE0003)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes (self-test); results are not pinned")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None or not binary.exists():
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        log(f"benchmark exited with status {proc.returncode}")
        return 1
    why = check_result(lines[-1], args.trace == 1)
    if why:
        log(f"malformed result: {why}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
