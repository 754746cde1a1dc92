#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is configured from
perfbench/CMakeLists.txt (which pulls in the scheduler library from the
repository root) into .bench_build/ and rebuilt when sources change. Each run
prints the machine fingerprint (nproc, CPU model, compiler, build type, git
commit and a digest of the sources), the program's report, and as its last
line the JSON result {"correct", "attempted", "failed", "metrics"}. The same
fingerprint and report go to .perfbench_out/, beside the traced run's spans:
rows from different machines must never be compared.

Exit status is 0 only when the build succeeded, the correctness gate passed
and the result carries exactly the metrics BENCHMARK.json names for the mode.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BINARY = os.path.join(BUILD_DIR, "eva_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "eva_bench", "-j", jobs])
    for step in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(remaining, 1))
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))


def source_digest():
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake", "perfbench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(directory, name) for name in files)
    for path in sorted(paths):
        if path.endswith(".pyc") or not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(report_lines):
    build_line = next((l for l in report_lines if l.startswith("build: ")), "")
    match = re.match(r"build: (\S+), compiler (.+)$", build_line)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": match.group(2) if match else "unknown",
        "build_type": match.group(1) if match else "unknown",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}, spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    expected, spec = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload, 2)

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("benchmark program failed: %s" % error)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark program exited %d without a result" % done.returncode)

    machine = fingerprint(lines)
    for line in lines[:-1]:
        print(line)
    print("machine: " + ", ".join("%s=%s" % item for item in machine.items()))
    record = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as handle:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "report": lines[:-1],
                   "result": result}, handle, indent=1)

    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    if not result["correct"] or done.returncode != 0:
        print(json.dumps(result))
        fail("correctness gate failed (program exit %d)" % done.returncode)
    if set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(expected - set(result["metrics"])),
              sorted(set(result["metrics"]) - expected)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
