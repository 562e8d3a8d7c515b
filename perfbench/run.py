#!/usr/bin/env python3
"""Builds and runs the SEAFL benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the benchmark driver
from source into .bench_build/perfbench (Release), runs the driver's
self-tests, runs one workload, and prints a human-readable summary, a
provenance line and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. The full record,
provenance included, is also written under .bench_build/perfbench/results/.

Exit status: 0 when the workload's output checks held; nonzero (with no
result line) when the build, a self-test or the driver failed, and nonzero
after the result line when an output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper_cifar", "server_ingest", "pop_churn", "deploy_loopback")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; on failure shows the log tail."""
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if done.returncode != 0:
        with open(log_path) as log:
            tail = log.readlines()[-30:]
        sys.stderr.write("".join(tail))
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, g)) for g in generated):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"), 600)
    run_logged(["cmake", "--build", BUILD, "-j", jobs],
               os.path.join(BUILD, "build.log"), 900)
    run_logged([DRIVER, "--selftest"], os.path.join(BUILD, "selftest.log"),
               60)


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "bench/bench_common.h", "perfbench"]
    files = []
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            for name in names:
                files.append(os.path.relpath(os.path.join(base, name), ROOT))
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def listed_metrics(trace):
    """The metrics BENCHMARK.json lists for this kind of run, in order."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        spec = json.load(f)
    return spec["per_layer" if trace == "1" else "end_to_end"]


def with_units(values, trace):
    """Gives the driver's name -> value metrics BENCHMARK.json's order and
    units. A name it does not list is an error, and so is a missing
    end-to-end metric; a missing per-layer metric is a layer that does not
    run on the workload and reads 0."""
    listed = listed_metrics(trace)
    unlisted = sorted(set(values) - {m["name"] for m in listed})
    if unlisted:
        fail(f"metrics not listed in BENCHMARK.json: {unlisted}")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and trace == "0":
        fail(f"end-to-end metrics missing: {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", out]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S}s")
    sys.stdout.write(done.stdout)
    if done.returncode not in (0, 1) or not os.path.exists(out):
        fail(f"driver failed ({done.returncode})")
    with open(out) as f:
        record = json.load(f)
    record["metrics"] = with_units(record["metrics"], args.trace)

    record["provenance"]["git_sha"] = git_sha()
    record["provenance"]["source_sha256"] = source_digest()
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
