#!/usr/bin/env python3
"""Build rectpart from source and run one workload of its benchmark.

    python3 perfbench/run.py --workload drift-dense --seed 1 --seconds 10 --trace 0

Run from the root of a rectpart source tree.  The program is configured and
built as a Release build in $CARGO_TARGET_DIR (default .bench_build), the
benchmark's self-test runs, and then the workload runs in a process of its
own.  With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, and an untraced run
of the same seed precedes it to measure the tracing overhead; the two split
the seconds.  Informational
lines start with "# ".  Exit status 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

WORKLOADS = ("drift-dense", "sparse-batch", "serve-mixed")
# One child run (generation, set-up, window, checks) stays far below this.
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

_child = None


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def on_signal(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kw):
    """Runs cmd, killing it on timeout or when this script is signalled."""
    global _child
    _child = subprocess.Popen(cmd, **kw)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    finally:
        code = _child.returncode
        _child = None
    return code, out


def source_identity():
    """Git SHA when the tree is a checkout, and a digest of the sources."""
    sha = "none"
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=log,
                                stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step failed: " + " ".join(cmd))


def run_workload(bin_dir, args, trace, seconds):
    """Runs one workload process; returns (result dict, its info lines)."""
    scratch = os.path.join(bin_dir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--scratch=" + scratch,
           "--served=" + os.path.join(bin_dir, "rectpart", "examples",
                                      "rectpart_served")]
    code, out = run_child(cmd, CHILD_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)
    lines = out.splitlines()
    info = [l for l in lines if l.startswith("# ")]
    for l in info:
        print(l)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if code != 0 or result is None:
        if result is not None:
            print(json.dumps(result))
        fail("%s exited with status %d" % (args.workload, code))
    return result, info


def info_value(info, key):
    for l in info:
        m = re.search(r"\b%s=([-+0-9.eE]+)" % re.escape(key), l)
        if m:
            return float(m.group(1))
    fail("the workload printed no %s" % key)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile("perfbench/CMakeLists.txt")):
        fail("run from the root of a rectpart source tree "
             "(CMakeLists.txt, src/ and perfbench/ must be present)", 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    code, out = run_child([os.path.join(build_dir, "perfbench_selftest")],
                          CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail("the benchmark self-test failed")

    sha, digest = source_identity()
    print("# source: git=%s digest=%s" % (sha, digest))

    if args.trace:
        # The untraced and traced processes split the run's seconds, so a
        # traced run lasts as long as an untraced one.
        half = args.seconds / 2.0
        plain, info = run_workload(build_dir, args, 0, half)
        untraced_p50 = plain["metrics"]["latency_p50_ms"]["value"]
        result, info = run_workload(build_dir, args, 1, half)
        traced_p50 = info_value(info, "latency_p50_ms")
        result["metrics"]["trace.overhead_pct"] = {
            "value": (traced_p50 / untraced_p50 - 1.0) * 100.0, "unit": "%"}
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["correct"] = result["correct"] and plain["correct"]
    else:
        result, _ = run_workload(build_dir, args, 0, args.seconds)

    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
