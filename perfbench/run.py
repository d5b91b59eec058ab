#!/usr/bin/env python3
"""Builds and runs the paper-scale m3 benchmark (see README.md).

    python3 perfbench/run.py --workload paper_query --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The last line of stdout is the result JSON.
"""
import argparse
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_query", "config_sweep", "fleet_repeat")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def kernel_native_default(root):
    """The repository's own M3_KERNEL_NATIVE default, so the benchmark
    builds the kernels as the top-level project does."""
    text = (root / "CMakeLists.txt").read_text()
    m = re.search(r'option\(\s*M3_KERNEL_NATIVE\s+"[^"]*"\s+(ON|OFF)\s*\)', text)
    return m.group(1) if m else "ON"


def build(root, build_dir):
    native = kernel_native_default(root)
    stamp = build_dir / "perfbench.configured"
    wanted = f"M3_KERNEL_NATIVE={native}\n"
    out = sys.stderr
    if not stamp.is_file() or stamp.read_text() != wanted:
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", f"-DM3_KERNEL_NATIVE={native}"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out, timeout=BUILD_TIMEOUT_S).returncode:
            fail("cmake configure failed")
        stamp.write_text(wanted)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(build_dir), "--target", "m3_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=out, stderr=out, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
    return build_dir / "m3_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true", help="tiny inputs (smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file() or not (root / "CMakeLists.txt").is_file():
        fail("m3 sources not found; run from the repository root")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    exe = build(root, build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(target / "perfbench_run", root)]
    if args.toy:
        cmd.append("--toy")
    # Own process group: on a timeout the whole group (shard daemons and
    # worker processes included) is killed and reaped.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"benchmark exited with code {code}")


if __name__ == "__main__":
    main()
