#!/usr/bin/env python3
"""Builds and runs the MatCNGen benchmark.

    python3 matcnbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 matcnbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds an
optimized tree of the library sources plus the benchmark binary under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's result object. --smoke runs every workload briefly, traced and
untraced, with every check on, and verifies the result lines against
BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sets", "serve_zipf", "serve_write", "shard_large"]


def fail(message):
    print("matcnbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MatCNGen sources next to the benchmark (src/ is missing)")
    for tool in ("cmake", "ninja"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "matcnbench")
    if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["ninja", "-C", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "matcnbench")


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from " + ", ".join(WORKLOADS))
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", trace, "--smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=170)
            lines = proc.stdout.strip().splitlines()
            label = workload + " trace=" + trace
            if proc.returncode != 0 or not lines:
                problems.append(label + ": exit " + str(proc.returncode))
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(label + ": metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + ": correct=%s failed=%d" %
                                (result["correct"], result["failed"]))
            if result["attempted"] < 1:
                problems.append(label + ": nothing attempted")
            print("%-22s ok=%s attempted=%d" %
                  (label, not problems, result["attempted"]))
    for p in problems:
        print("SMOKE FAILURE: " + p)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--smoke"]:
        sys.exit(smoke(binary))
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + args).returncode)


if __name__ == "__main__":
    main()
