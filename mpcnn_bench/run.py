#!/usr/bin/env python3
"""Builds the repository from source and runs one benchmark workload.

    python3 mpcnn_bench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 mpcnn_bench/run.py --workload W --seed N --check

Everything lands under .bench_build/ at the repository root: the
repository's libraries (its own CMake project, target mpcnn_core), the
two benchmark binaries (this directory's CMake project), the trained
model cache (MPCNN_CACHE_DIR overrides it), full JSON reports and Chrome
traces.  A cache that was not prepared by the current binary is trained
first, at full thread count and outside every timing, by
`mpcnn_bench --prepare`.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics BENCHMARK.json lists — end_to_end with --trace 0 (the
untraced binary), per_layer with --trace 1 (the -Wl,--wrap traced one).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 780


def fail(message, code=2):
    print(f"mpcnn_bench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout=None, env=None):
    """Runs cmd with output appended to log; returns the exit code."""
    with open(log, "a") as out:
        out.write(f"\n$ {' '.join(str(c) for c in cmd)}\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    """Configures (once) and builds the libraries and both binaries."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    lib_build = BUILD / "repo"
    bench_build = BUILD / "bench"
    steps = []
    if not (lib_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ROOT, "-B", lib_build, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", lib_build, "--target", "mpcnn_core",
                  "-j", jobs])
    if not (bench_build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bench_build,
                      *generator, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DMPCNN_LIB_BUILD={lib_build}"])
    steps.append(["cmake", "--build", bench_build, "-j", jobs])
    for step in steps:
        if run_logged(step, log) != 0:
            tail = log.read_text().splitlines()[-40:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build failed (full log: {log})", 1)
    return bench_build / "mpcnn_bench", bench_build / "mpcnn_bench_traced"


def prepare(binary, env):
    """Trains the model cache unless the current binary already did."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()
    stamp_path = BUILD / "prepared.json"
    stamp = {}
    if stamp_path.exists():
        stamp = json.loads(stamp_path.read_text())
    if stamp.get("binary_sha256") == digest and \
            stamp.get("cache_dir") == env["MPCNN_CACHE_DIR"]:
        return stamp["prepare_s"]
    result = subprocess.run([binary, "--prepare"], capture_output=True,
                            text=True, env=env, timeout=PREPARE_TIMEOUT_S)
    with open(BUILD / "prepare.log", "w") as log:
        log.write(result.stderr)
    if result.returncode != 0:
        fail(f"prepare failed: {result.stderr[-2000:]}", 1)
    prepare_s = json.loads(result.stdout.strip().splitlines()[-1])["prepare_s"]
    stamp_path.write_text(json.dumps({"binary_sha256": digest,
                                      "cache_dir": env["MPCNN_CACHE_DIR"],
                                      "prepare_s": prepare_s}))
    return prepare_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="compare reports at 1 and 2 threads instead")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT} to build")

    started = time.monotonic()
    plain, traced = build()
    env = dict(os.environ)
    env["MPCNN_TUNE"] = "off"
    env.setdefault("MPCNN_CACHE_DIR", str(BUILD / "cache"))
    prepare_s = prepare(plain, env)
    build_and_prepare_s = time.monotonic() - started

    if args.check:
        result = subprocess.run(
            [plain, "--workload", args.workload, "--seed", str(args.seed),
             "--check"], env=env, timeout=RUN_TIMEOUT_S)
        sys.exit(result.returncode)

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = results / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [traced if args.trace else plain, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", report_path]
    if args.trace:
        cmd += ["--chrome-trace", results / f"{stem}.trace.json"]
    code = run_logged(cmd, results / f"{stem}.log", timeout=RUN_TIMEOUT_S,
                      env=env)
    if not report_path.exists():
        fail(f"run failed with code {code} (log: {results / stem}.log)", 1)
    report = json.loads(report_path.read_text())
    report["context"]["prepare_s"] = prepare_s
    report["context"]["build_and_prepare_s"] = build_and_prepare_s
    report_path.write_text(json.dumps(report, indent=2))

    section = "per_layer" if args.trace else "end_to_end"
    measured = report.get(section, {})
    correct = bool(report["correct"]) and code == 0
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in measured:
            correct = False
            print(f"mpcnn_bench: metric {metric['name']} missing",
                  file=sys.stderr)
            continue
        metrics[metric["name"]] = {"value": measured[metric["name"]],
                                   "unit": metric["unit"]}
    for message in report.get("failures", []):
        print(f"mpcnn_bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
