#!/usr/bin/env python3
"""Builds and runs the apujoin benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --self-test

The benchmark binary is compiled from perfbench/CMakeLists.txt (which builds
the library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Its output is passed through; the last line is the
JSON record {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the sources are missing, the build fails, a result is wrong,
or the run exceeds its time limit. Traced runs write their span file to
<build dir>/traces/<workload>_seed<n>.trace.json.

--self-test runs every workload with a deliberately corrupted oracle and
passes only if each of those runs exits non-zero with "correct": false.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["shj_probe_emit", "phj_partition_wide", "plan_star_groupby",
             "svc_open_loop"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def source_id(root):
    """Commit when the checkout is a git repository, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return "commit:%s,src:%s" % (commit, digest.hexdigest()[:12])


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build(root):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                        log_path, BUILD_TIMEOUT_S)
        if rc != 0:
            return None, log_path
    rc = run_logged(["cmake", "--build", bdir, "-j", "4"], log_path,
                    BUILD_TIMEOUT_S)
    if rc != 0:
        return None, log_path
    return os.path.join(bdir, "apujoin_perfbench"), log_path


def run_bench(exe, args, sid, extra=()):
    """Runs the binary, streaming its stdout; returns (exit code, last line)."""
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--trace-dir=" + os.path.join(build_dir(), "traces"),
           "--source-id=" + sid] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line.strip()
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 124, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    sys.stdout.flush()
    return rc, last


def valid_record(line):
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if not isinstance(rec, dict) or set(rec) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return rec


def self_test(exe, sid):
    ok = True
    for w in WORKLOADS:
        args = argparse.Namespace(workload=w, seed=1, seconds=1, trace=0)
        rc, last = run_bench(exe, args, sid, ["--corrupt-expectation"])
        rec = valid_record(last)
        caught = rc != 0 and rec is not None and rec["correct"] is False
        log("self-test %-20s exit=%d correct=%s -> %s" % (
            w, rc, None if rec is None else rec["correct"],
            "caught" if caught else "MISSED"))
        ok = ok and caught
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.getcwd()
    for needed in ("src/coproc/pipeline_runner.h", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            log("missing %s: run from the root of an apujoin checkout" %
                needed)
            return 2

    exe, log_path = build(root)
    if exe is None:
        log("build failed; see %s" % log_path)
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        return 3
    sid = source_id(root)
    if args.self_test:
        return self_test(exe, sid)

    worst = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        rc, last = run_bench(exe, argparse.Namespace(**dict(
            vars(args), workload=w)), sid)
        if rc == 0 and valid_record(last) is None:
            log("benchmark printed no valid JSON record")
            rc = 4
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
