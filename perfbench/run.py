#!/usr/bin/env python3
"""Wall-clock benchmark of the Minuet core: build, self-test, run, report.

Run from the repository root:

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

It builds a Release copy of the core library and the benchmark program
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR (default .bench_build),
runs the benchmark's self-test, then runs one workload. The program's full
report goes to stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). Exit status: 0 when every result was correct, 1 when a result
was wrong, 2 or more when the benchmark could not run (no JSON line).
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_read", "sync_write", "scan_update")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    """Configure once, then (re)build; output goes to a log file."""
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release", f"-DMINUET_ROOT={ROOT}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                            stdout=log, stderr=subprocess.STDOUT, env=env,
                            timeout=BUILD_TIMEOUT_S).returncode
    return rc == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not spec_path.is_file():
        fail(2, f"no repository sources under {ROOT}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR")
                          or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    tmp_dir = target / "perfbench-tmp"
    for d in (build_dir, tmp_dir):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))

    try:
        if not build(build_dir, env):
            sys.stderr.write((build_dir / "build.log").read_text()[-4000:])
            fail(3, "build failed")
        selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                                  capture_output=True, text=True, env=env,
                                  timeout=RUN_TIMEOUT_S)
        if selftest.returncode != 0:
            sys.stderr.write(selftest.stdout + selftest.stderr)
            fail(4, "self-test failed")
        run = subprocess.run(
            [str(build_dir / "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(tmp_dir / "work"),
             "--out", str(target / "perfbench-out")],
            capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        fail(5, f"timed out: {e.cmd[0]}")

    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(6, f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(7, f"benchmark did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0

    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
