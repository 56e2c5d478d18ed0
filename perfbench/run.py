#!/usr/bin/env python3
"""Build and run the audited-round benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the library sources plus round_bench) with CMake into the
directory named by $CARGO_TARGET_DIR, or .bench_build; later calls rebuild
only what changed. The last line of stdout is the benchmark's JSON result.
Exits non-zero, without a result, when the build or the run fails; exits 1
with "correct": false when an output check fails.

--self-test runs every workload at reduced size, traced and untraced, and
checks that each metric named in BENCHMARK.json is printed with its unit,
that the negative controls ran, and that every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("stream_basic", "private_window", "dirty_churn")
# Negative controls every run must refuse (an accepted one fails the run).
CONTROLS = ("flipped_proof_bit", "wrong_evaluation_in_batch",
            "substituted_window_seed", "gt_outside_subgroup")
# Used when --seed is omitted. The held-out seed (README.md) is kept out of
# tuning and used only to confirm a claimed gain.
DEFAULT_SEED = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build round_bench; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "round_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(out, "round_bench")
    return exe if os.path.exists(exe) else None


def source_rev():
    """git sha when run in a git checkout, else a digest of the sources."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        top_and_sha = git.stdout.split()
        # Only this tree's own repository, not one that happens to enclose it.
        if (git.returncode == 0 and len(top_and_sha) == 2 and
                os.path.realpath(top_and_sha[0]) == os.path.realpath(ROOT)):
            return "git:" + top_and_sha[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_bench(exe, workload, seed, seconds, trace, reduced=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--source-rev", source_rev()]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    if reduced:
        cmd.append("--reduced")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(exe, workload, 7, 1, trace, reduced=True)
            res = parse_result(lines)
            tag = "%s trace %d" % (workload, trace)
            before = len(problems)
            if code != 0 or res is None or not res["correct"]:
                problems.append("%s: exit %d, result %r" % (tag, code, res))
                sys.stdout.write("\n".join(lines) + "\n")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics/units differ: missing %s, extra %s, "
                                "unit mismatches %s" % (
                                    tag, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want if k in got and got[k] != want[k])))
            report = list(want) + (["failed_round_share"] if trace == 0 else [])
            for name in report:
                if not any(line.startswith("metric %s " % name) for line in lines):
                    problems.append("%s: %s not printed in the report" % (tag, name))
            for control in CONTROLS:
                if "control %s refused" % control not in lines:
                    problems.append("%s: negative control %s did not run" % (tag, control))
            if not any(line.startswith("fingerprint {") for line in lines):
                problems.append("%s: no machine fingerprint" % tag)
            if len(problems) == before:
                print("self-test %s: ok (%d metrics)" % (tag, len(got)))
    for p in problems:
        print("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(exe)

    code, lines = run_bench(exe, args.workload, args.seed, args.seconds, args.trace)
    res = parse_result(lines)
    if res is None:
        sys.stderr.write("\n".join(lines) + "\n")
        print("perfbench: the benchmark printed no result (exit %d)" % code,
              file=sys.stderr)
        return code or 2
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
