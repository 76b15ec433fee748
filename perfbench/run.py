#!/usr/bin/env python3
"""Build and run the BlackForest repository benchmark.

    python3 perfbench/run.py --workload analyze-matmul --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests
    python3 perfbench/run.py --write-golden   # re-record golden digests (seed 1)

Run from the root of a checkout. The benchmark is its own CMake project
(perfbench/CMakeLists.txt) that builds the libraries and bf_serve from
src/ and tools/ in RelWithDebInfo into $CARGO_TARGET_DIR (default
.bench_build). The bf_perfbench binary prints every metric with its unit, and
its last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to stderr. Exits non-zero when the
build fails, an output check fails, or the printed metrics differ from
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analyze-matmul", "reanalyze-cached", "serve-mixed"]
GOLDEN_SEED = 1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "bf_serve.cpp"))):
        fail(f"BlackForest sources not found under {ROOT}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(out, workload, seed, seconds, trace, write_golden=False):
    """Run one workload; echo its output and return (exit code, result)."""
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    golden = os.path.join(HERE, "golden.json")
    cmd = [os.path.join(out, "bf_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--serve-bin", os.path.join(out, "bf_tools", "bf_serve"),
           "--work-dir", os.path.relpath(work, ROOT), "--golden", golden]
    if write_golden:
        cmd += ["--write-golden", golden]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1], flush=True)
        print(f"perfbench: {workload}: no result line", file=sys.stderr)
        return proc.returncode or 1, None
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        print(f"perfbench: {workload}: metrics {sorted(result['metrics'])} "
              f"differ from BENCHMARK.json {sorted(want)}", file=sys.stderr)
        return 1, None
    print(lines[-1], flush=True)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record golden digests of every workload (seed {GOLDEN_SEED})")
    args = ap.parse_args()

    if args.self_test:
        out = build("bf_perfbench_tests")
        sys.exit(subprocess.run([os.path.join(out, "bf_perfbench_tests")]).returncode)
    out = build("bf_perfbench")
    if args.write_golden:
        golden = os.path.join(HERE, "golden.json")
        if os.path.exists(golden):
            os.remove(golden)
        rc = 0
        for w in WORKLOADS:
            code, _ = run_workload(out, w, GOLDEN_SEED, args.seconds, True, True)
            rc = rc or code
        sys.exit(rc)
    if args.all:
        rc = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                code, _ = run_workload(out, w, args.seed, args.seconds, trace)
                rc = rc or code
        sys.exit(rc)
    if not args.workload:
        ap.error("--workload is required (or --all / --self-test)")
    code, _ = run_workload(out, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
