#!/usr/bin/env python3
"""End-to-end benchmark of fearlessc check/run/mc and fearlessd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the fearless
library and the harness from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, generates the
workload's inputs from --seed with the unchanged tools/gen_corpus.py, runs
the harness for --seconds, and prints the harness's detail lines, a stamp
line, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
BENCHMARK.json is the one list of metric names and units: what the
harness measured beyond it is printed as detail lines, and a per-layer
metric the workload does not exercise reads 0 (perfbench/METRICS.md is
the glossary). Exits non-zero, without a result, when the checkout
cannot be built or the harness fails.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

WORKLOADS = ("check_cold", "run_warm", "mc_explore", "daemon_mix")
SHAPES = ("chain", "diamond", "scc", "cross", "mixed")
# Size of daemon_mix's never-seen sources: misses are then about a third
# of the figure, so neither the cache's hit side nor its miss side
# dominates it.
MISS_FUNCTIONS = 64
BUILD_TIMEOUT_S = 880
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build(root, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_harness",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        die("build failed")
    build_type = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return os.path.join(build_dir, "perfbench_harness"), build_type


def corpus(root, build_dir, shape, functions, gen_seed):
    """A tools/gen_corpus.py program, cached by the generator's digest."""
    gen = os.path.join(root, "tools", "gen_corpus.py")
    with open(gen, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:12]
    cache_dir = os.path.join(build_dir, "corpus-" + digest)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir,
                        "%s-%d-%d.fls" % (shape, functions, gen_seed))
    if not os.path.exists(path):
        tmp = path + ".tmp%d" % os.getpid()
        cmd = [sys.executable, gen, "--seed", str(gen_seed), "--functions",
               str(functions), "--shape", shape, "--out", tmp]
        if subprocess.run(cmd, timeout=120).returncode != 0:
            die("gen_corpus.py failed: " + " ".join(cmd))
        os.replace(tmp, path)
    return path


def make_inputs(root, build_dir, workload, seed, inputs):
    """Writes inputs/manifest.tsv (and copies of generated programs).

    check_cold: every gen_corpus shape at 1k, 2k and 4k functions (sizes
    and generator seeds drawn from the seed) plus one 16k `mixed` program;
    the known-rejected inputs are Fig. 4's broken remove_tail appended to a
    4k corpus, examples/region_lints.fls and
    tests/fixtures/use_after_consumes.fls.
    daemon_mix: the bases of never-seen sources (MISS_FUNCTIONS-function
    `mixed` programs); the harness makes each miss unique.
    """
    rng = random.Random(seed)
    rows = []

    def add(kind, name, shape, n, fn=""):
        src = corpus(root, build_dir, shape, n, rng.randrange(1, 2**31))
        dest = os.path.join(inputs, name + ".fls")
        shutil.copyfile(src, dest)
        rows.append((kind, name, "inputs/" + name + ".fls", fn))

    if workload == "check_cold":
        for shape in SHAPES:
            for k in (1, 2, 4):
                n = 1024 * k - 32 + rng.randrange(64)
                add("accept", "%s_%d" % (shape, n), shape, n)
        add("accept", "mixed_16384", "mixed", 16384)
        add("reject_fig4", "fig4_in_mixed_4096", "mixed", 4096,
            "remove_tail")
        rows.append(("reject", "region_lints", "examples/region_lints.fls",
                     "oops"))
        rows.append(("reject", "use_after_consumes",
                     "tests/fixtures/use_after_consumes.fls", "oops"))
    elif workload == "daemon_mix":
        for i in range(8):
            add("miss_base", "miss_base_%d" % i, "mixed", MISS_FUNCTIONS)
    with open(os.path.join(inputs, "manifest.tsv"), "w") as f:
        for row in rows:
            f.write("\t".join(row) + "\n")


def source_digest(root):
    """sha256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "tools", "examples", "tests/fixtures"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(root, *args):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", root] + list(args),
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def stamp(root, args, build_type, context):
    revision = git(root, "rev-parse", "HEAD")
    status = git(root, "status", "--porcelain") if revision else None
    return {
        "revision": revision or "unknown (not a git checkout)",
        "dirty": (status != "") if status is not None else None,
        "source_digest": source_digest(root),
        "cmake_build_type": build_type,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "daemon_rate_per_s": context.get("daemon_rate_per_s") or None,
        "asserts": context.get("asserts"),
    }


def contract(root, key):
    """BENCHMARK.json's metrics under key, as (name, unit) pairs."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        die("BENCHMARK.json is missing", 2)
    with open(path) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[key]]


def conform(measured, names, zero_fill):
    """The metrics object of the result, in BENCHMARK.json's order."""
    metrics = {}
    for name, unit in names:
        got = measured.pop(name, None)
        if got is None:
            if not zero_fill:
                die("harness did not report %s" % name)
            got = {"value": 0.0, "unit": unit}
        elif got["unit"] != unit:
            die("harness reported %s in %s, BENCHMARK.json says %s"
                % (name, got["unit"], unit))
        metrics[name] = got
    for name, got in sorted(measured.items()):
        print("  %-28s %14.6g %s" % (name, got["value"], got["unit"]))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/gen_corpus.py",
                   "examples/msg_pipeline.fls"):
        if not os.path.exists(os.path.join(root, needed)):
            die("run from the root of a source checkout (missing %s)"
                % needed, 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    harness, build_type = build(root, build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    inputs = os.path.join(scratch, "inputs")
    os.makedirs(inputs)
    try:
        make_inputs(root, build_dir, args.workload, args.seed, inputs)
        cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", root, "--inputs", inputs, "--scratch", scratch]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("harness timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die("harness exited with %d" % proc.returncode)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        die("harness printed no result")

    key = "per_layer" if args.trace else "end_to_end"
    metrics = conform(result[key], contract(root, key), args.trace == 1)
    info = stamp(root, args, build_type, result.get("context", {}))
    print("stamp " + json.dumps(info, sort_keys=True))
    if build_type != "RelWithDebInfo":
        print("WARNING: %s build; benchmark figures assume RelWithDebInfo"
              % (build_type or "unset"))
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
