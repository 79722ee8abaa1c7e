#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py compare <result.json> <result.json>

Run from the repository root. The first form builds the repository's
libraries and the benchmark program from source (CMake, into
.bench_build/e2ebench), runs one workload, and passes the program's output
through: its last line is the JSON result. The result, stamped with the
run fingerprint, is also kept under .bench_build/e2ebench/results/, and a
traced run writes its spans next to it.

The second form compares two kept results. When their fingerprints differ
in anything but the commit, it prints a mismatch notice instead of a diff.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to the benchmark (expected CMakeLists.txt and src/ in "
             + ROOT + ")")
    os.makedirs(BUILD, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "e2e_bench")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run(args):
    binary = build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace-file", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    fa = {k: v for k, v in a["fingerprint"].items() if k != "commit"}
    fb = {k: v for k, v in b["fingerprint"].items() if k != "commit"}
    if fa != fb or a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("fingerprint mismatch: these results are not comparable, no diff printed")
        for key in sorted(set(fa) | set(fb)):
            if fa.get(key) != fb.get(key):
                print("  %s: %s vs %s" % (key, fa.get(key), fb.get(key)))
        for key in ("workload", "trace"):
            if a[key] != b[key]:
                print("  %s: %s vs %s" % (key, a[key], b[key]))
        return 1
    print("%s, commits %s -> %s" % (a["workload"], a["fingerprint"]["commit"],
                                    b["fingerprint"]["commit"]))
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        if ma is None or mb is None:
            print("  %-40s only in %s" % (name, "first" if mb is None else "second"))
            continue
        va, vb = ma["value"], mb["value"]
        change = "" if not va else " (%+.1f%%)" % (100.0 * (vb - va) / abs(va))
        print("  %-40s %14.4f -> %14.4f %s%s" % (name, va, vb, ma["unit"], change))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare <result.json> <result.json>")
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["snb_short_reads", "operator_scans", "ingest_under_reads"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    sys.exit(run(p.parse_args()))


if __name__ == "__main__":
    main()
