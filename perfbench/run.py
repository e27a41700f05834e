#!/usr/bin/env python3
"""Runs one workload of the dimmunix benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and, through it, the
library and the LD_PRELOAD shim) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generates the workload's inputs from the
seed, runs the counter-check self-test and the workload, and prints a
provenance line followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("preload_steady", "avoid_contended", "restart_immunize", "shared_procs")
TOWER_LEVELS = 9      # perfbench/towers.h kTowerLevels
BRANCHING = 3         # kBranching; also the synthetic history's branching
LOCKS = 8             # kLocks
SUFFIX_LEVELS = 3     # tower levels inside a depth-4 signature suffix (with the site)
PATH_COPIES = 3       # paths per depth-4 suffix
USES_PER_PATH = 17    # schedule entries per path
BUG_SITES = 4         # K for restart_immunize
BUG_SITE_IDS = range(3, 8)  # site functions no hot-loop path uses
TAU_MS = 10           # restart_immunize's DIMMUNIX_TAU_MS (deployment setting)
DEADLINE_S = 170      # every run ends within the 180 s limit


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def make_inputs(seed, path):
    """Everything seed-dependent: tower choices, site order, bug-site order."""
    rng = random.Random(seed)

    def tower(site):
        return [rng.randrange(BRANCHING) for _ in range(TOWER_LEVELS)] + [site]

    # Every depth-4 suffix (site + innermost three levels) appears equally
    # often, so how often the workload instantiates a synthetic signature
    # does not hinge on which suffixes the seed happened to draw.
    paths = []
    for suffix in range(BRANCHING ** (SUFFIX_LEVELS + 1)):
        for _ in range(PATH_COPIES):
            p = tower(suffix % BRANCHING)
            for level in range(SUFFIX_LEVELS):
                p[level] = suffix // BRANCHING ** (level + 1) % BRANCHING
            paths.append(p)
    rng.shuffle(paths)
    schedule = [(i, rng.randrange(LOCKS)) for i in range(len(paths))] * USES_PER_PATH
    rng.shuffle(schedule)
    bugs = [(tower(site), tower(site)) for site in rng.sample(list(BUG_SITE_IDS), BUG_SITES)]
    history_seed = rng.getrandbits(32)
    lines = [str(len(paths))] + [" ".join(map(str, p)) for p in paths]
    lines += [str(len(schedule))] + ["%d %d" % e for e in schedule]
    lines += [str(len(bugs))] + [" ".join(map(str, a + b)) for a, b in bugs]
    lines += [str(history_seed)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def build(root, build_dir, log):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        die("no CMakeLists.txt at %s: run from the repository root" % root)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "pb_bench", "pb_victim"])
    for cmd in steps:
        with open(log, "a") as out:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                die("build failed (%s); see %s" % (" ".join(cmd[:2]), log))


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_version(compiler):
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.returncode == 0 else compiler
    except (OSError, subprocess.SubprocessError, IndexError):
        return compiler


def source_digest(root):
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def self_test(build_dir, inputs, work):
    """The counter check must trip on a lock that gives no mutual exclusion."""
    out = os.path.join(work, "selftest.out")
    cmd = [os.path.join(build_dir, "pb_victim"), "steady", inputs, out,
           str(time.monotonic_ns()), "3", "0.3", "no-lock"]
    if subprocess.run(cmd, timeout=60).returncode != 0:
        return False, "self-test victim failed"
    kv = {}
    with open(out) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 2:
                kv[parts[0]] = parts[1]
    total, summed = int(kv.get("total_ops", 0)), int(kv.get("counter_sum", 0))
    if total > 0 and summed < total:
        return True, "tripped: %d increments lost of %d" % (total - summed, total)
    return False, "counter check did not trip without a lock (%d of %d)" % (summed, total)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build(root, build_dir, os.path.join(build_dir, "build.log"))

    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        inputs = os.path.join(work, "inputs.txt")
        make_inputs(args.seed, inputs)
        tripped, selftest = self_test(build_dir, inputs, work)

        nproc = len(os.sched_getaffinity(0))
        threads = max(1, nproc - 1)  # leaves a core for the monitor and health threads
        cmd = [os.path.join(build_dir, "pb_bench"), args.workload, inputs, work,
               repr(args.seconds), str(args.trace), str(threads), str(TAU_MS)]
        budget = DEADLINE_S - (time.monotonic() - started)
        # Its own session, so a timeout takes down the victims it spawned too.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(budget, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            die("pb_bench did not finish within %d s" % DEADLINE_S)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(stderr)
            die("pb_bench exited with %d" % proc.returncode)
        raw = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(raw["errors"])
    if not tripped:
        errors.append("self-test: " + selftest)
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            errors.append("metric %s missing" % m["name"])
            continue
        if not args.trace and got["value"] <= 0:
            errors.append("metric %s is not positive" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "worker_threads": threads,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": compiler_version(cache_value(build_dir, "CMAKE_CXX_COMPILER")),
        "git_sha": git_sha(root), "source_sha256": source_digest(root),
        "self_test": selftest, "samples": raw["samples"], "info": raw["info"],
        "errors": errors,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": max(1, raw["attempted"]),
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
