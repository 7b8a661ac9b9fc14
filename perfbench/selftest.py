#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Checks, in order:
  1. BENCHMARK.json: every metric name matches [A-Za-z0-9_.-]+ and is used
     once.
  2. A reduced-size smoke pass of every workload, untraced and traced,
     through run.py: the result is correct, nothing failed, and it carries
     exactly the metrics BENCHMARK.json declares (run.py enforces names,
     units and finiteness; this re-checks the names).
  3. A directory holding only BENCHMARK.json and perfbench/ (no sources)
     makes run.py fail without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    for n in names:
        check(NAME.fullmatch(n) is not None, f"metric name {n!r} matches {NAME.pattern}")
    check(len(names) == len(set(names)), "metric names are unique")
    declared = [w["name"] for w in spec["workloads"]]

    for w in declared:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", w, "--seconds", "1", "--trace", str(trace),
                        "--smoke"])
            label = f"{w} smoke pass, trace {trace}"
            check(proc.returncode == 0, f"{label}: exit status 0")
            if proc.returncode != 0:
                continue
            res = json.loads(proc.stdout.strip().split("\n")[-1])
            check(res["correct"] and res["failed"] == 0,
                  f"{label}: correct, {res['failed']} of {res['attempted']} failed")
            want = {m["name"] for m in spec[key]}
            check(set(res["metrics"]) == want,
                  f"{label}: emits every declared {key} metric")

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               declared[0], "--seconds", "1"], cwd=bare,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the sources run.py fails and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
